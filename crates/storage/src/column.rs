//! Column chunks: the typed, read-only view of one row page.
//!
//! Rows are the only stored form of a table ([`crate::pages`]). The
//! engine's vectorized kernels read a page through its column chunks
//! ([`crate::pages::PagePin::column`]): one typed vector per scalar column
//! — `Vec<i64>`, `Vec<f64>`, `Vec<bool>`, or `u32` codes into a dictionary
//! local to the page — with a validity [`Bitmap`] per column, plus the
//! page's live bitmap. Each chunk is built in one pass over the page's rows
//! the first time a columnar read asks for that column (recovery builds a
//! decoded page's chunks at once), cached on the page, and dropped whenever
//! the page is mutated, truncated or evicted, so it can never disagree with
//! the rows it came from.
//!
//! Offsets are page-local: element `i` of every vector describes slot `i`
//! of the page, tombstones included. Ingest canonicalization
//! ([`crate::schema::TableSchema::canonicalize_row`]) guarantees scalar
//! columns are type-pure (an Int column holds only `Value::Int` or NULL),
//! which is what makes the typed vectors lossless. Array and struct columns
//! have no typed vector; readers fall back to the page's rows for those.

use crate::row::Row;
use crate::value::{DataType, Value};
use rustc_hash::FxHashMap;
use std::sync::{Arc, OnceLock};

/// A fixed-length bitmap (one bit per page slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// `len` cleared bits.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`; bits beyond the length read as unset.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One typed column of a page. `data[i]` is meaningful only when
/// `valid.get(i)`; NULL cells and tombstones hold a default value.
#[derive(Debug)]
enum ColumnChunk {
    Int { data: Vec<i64>, valid: Bitmap },
    Float { data: Vec<f64>, valid: Bitmap },
    Bool { data: Vec<bool>, valid: Bitmap },
    /// Dictionary-encoded text: `codes[i]` indexes `dict`, which holds each
    /// distinct string of the page once, in order of first appearance.
    Str { codes: Vec<u32>, valid: Bitmap, dict: Vec<Arc<str>> },
    /// Array/struct columns stay row-only.
    Other,
}

impl ColumnChunk {
    /// One pass over column `col` of `slots`.
    fn build(col: usize, dtype: &DataType, slots: &[Option<Row>]) -> ColumnChunk {
        let mut valid = Bitmap::zeros(slots.len());
        match dtype {
            DataType::Int => {
                let data = typed(slots, col, &mut valid, |v| match v {
                    Value::Int(x) => Some(*x),
                    _ => None,
                });
                ColumnChunk::Int { data, valid }
            }
            DataType::Float => {
                let data = typed(slots, col, &mut valid, |v| match v {
                    Value::Float(x) => Some(*x),
                    _ => None,
                });
                ColumnChunk::Float { data, valid }
            }
            DataType::Bool => {
                let data = typed(slots, col, &mut valid, |v| match v {
                    Value::Bool(x) => Some(*x),
                    _ => None,
                });
                ColumnChunk::Bool { data, valid }
            }
            DataType::Text => {
                let mut dict: Vec<Arc<str>> = Vec::new();
                // Keyed by strings borrowed from the page's rows: no
                // refcount traffic for repeats.
                let mut code_of: FxHashMap<&str, u32> =
                    FxHashMap::with_capacity_and_hasher(slots.len(), Default::default());
                let codes = typed(slots, col, &mut valid, |v| match v {
                    Value::Str(s) => Some(*code_of.entry(s).or_insert_with(|| {
                        dict.push(Arc::clone(s));
                        dict.len() as u32 - 1
                    })),
                    _ => None,
                });
                ColumnChunk::Str { codes, valid, dict }
            }
            DataType::Array(_) | DataType::Struct(_) => ColumnChunk::Other,
        }
    }
}

/// One pass over column `col` of `slots`: the typed cell where `cell`
/// recognizes the value (marking it valid), a default elsewhere. Type
/// purity is an ingest invariant, so an unrecognized non-NULL value means
/// canonicalization was bypassed.
fn typed<'r, T: Copy + Default>(
    slots: &'r [Option<Row>],
    col: usize,
    valid: &mut Bitmap,
    mut cell: impl FnMut(&'r Value) -> Option<T>,
) -> Vec<T> {
    let mut data = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter().enumerate() {
        let v = slot.as_ref().map(|row| &row[col]);
        match v.and_then(&mut cell) {
            Some(x) => {
                valid.set(i);
                data.push(x);
            }
            None => {
                debug_assert!(v.is_none_or(Value::is_null), "mistyped cell {v:?} in column {col}");
                data.push(T::default());
            }
        }
    }
    data
}

/// The column-chunk view of one page: the page's live bitmap (set bit =
/// occupied slot) plus one chunk per column, each built by one pass over
/// the page's rows the first time a read asks for that column — a query
/// never pays for the columns it does not read.
#[derive(Debug)]
pub(crate) struct PageChunks {
    live: Bitmap,
    cols: Box<[OnceLock<ColumnChunk>]>,
}

impl PageChunks {
    /// The live bitmap of `slots`; column chunks are built on demand.
    pub(crate) fn new(slots: &[Option<Row>], arity: usize) -> PageChunks {
        let mut live = Bitmap::zeros(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            if slot.is_some() {
                live.set(i);
            }
        }
        PageChunks { live, cols: (0..arity).map(|_| OnceLock::new()).collect() }
    }

    pub(crate) fn live(&self) -> &Bitmap {
        &self.live
    }

    /// Typed read view of column `col` of `slots` (the rows these chunks
    /// describe), built on first use; `None` for array/struct columns.
    pub(crate) fn column(
        &self,
        col: usize,
        dtype: &DataType,
        slots: &[Option<Row>],
    ) -> Option<ColumnSlice<'_>> {
        match self.cols.get(col)?.get_or_init(|| ColumnChunk::build(col, dtype, slots)) {
            ColumnChunk::Int { data, valid } => Some(ColumnSlice::Int { data, valid }),
            ColumnChunk::Float { data, valid } => Some(ColumnSlice::Float { data, valid }),
            ColumnChunk::Bool { data, valid } => Some(ColumnSlice::Bool { data, valid }),
            ColumnChunk::Str { codes, valid, dict } => {
                Some(ColumnSlice::Str { codes, valid, dict })
            }
            ColumnChunk::Other => None,
        }
    }
}

/// Borrowed read view of one typed column of a page, handed to vectorized
/// kernels.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    Int { data: &'a [i64], valid: &'a Bitmap },
    Float { data: &'a [f64], valid: &'a Bitmap },
    Bool { data: &'a [bool], valid: &'a Bitmap },
    Str { codes: &'a [u32], valid: &'a Bitmap, dict: &'a [Arc<str>] },
}

impl ColumnSlice<'_> {
    /// Whether slot `i` holds a non-NULL value.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            ColumnSlice::Int { valid, .. }
            | ColumnSlice::Float { valid, .. }
            | ColumnSlice::Bool { valid, .. }
            | ColumnSlice::Str { valid, .. } => valid.get(i),
        }
    }

    /// Materialize slot `i` as a [`Value`] (NULL when invalid): the exact
    /// cell the page's row holds, float bits included.
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            ColumnSlice::Int { data, .. } => Value::Int(data[i]),
            ColumnSlice::Float { data, .. } => Value::Float(data[i]),
            ColumnSlice::Bool { data, .. } => Value::Bool(data[i]),
            ColumnSlice::Str { codes, dict, .. } => {
                Value::Str(Arc::clone(&dict[codes[i] as usize]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn types() -> Vec<DataType> {
        vec![DataType::Int, DataType::Float, DataType::Bool, DataType::Text, DataType::Int.array_of()]
    }

    fn row(i: i64, f: Option<f64>, b: Option<bool>, s: Option<&str>) -> Option<Row> {
        Some(vec![
            Value::Int(i),
            f.map(Value::Float).unwrap_or(Value::Null),
            b.map(Value::Bool).unwrap_or(Value::Null),
            s.map(Value::str).unwrap_or(Value::Null),
            Value::Array(vec![Value::Int(i)]),
        ])
    }

    #[test]
    fn round_trips_scalar_cells_bit_identically() {
        let slots = vec![
            row(1, Some(1.5), Some(true), Some("x")),
            row(2, None, None, None),
            None,
            row(3, Some(f64::NAN), Some(false), Some("x")),
            row(4, Some(-0.0), Some(true), Some("y")),
        ];
        let c = PageChunks::new(&slots, 5);
        let column = |col: usize| c.column(col, &types()[col], &slots);
        for col in 0..4 {
            let s = column(col).expect("scalar column has a vector");
            for (i, slot) in slots.iter().enumerate() {
                let Some(r) = slot else {
                    assert!(!s.is_valid(i), "tombstone reads NULL");
                    continue;
                };
                // Bit-level check for floats: NaN payloads and -0.0 must
                // survive the typed vector exactly.
                match (s.value_at(i), &r[col]) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "col {col} slot {i}");
                    }
                    (a, b) => assert_eq!(&a, b, "col {col} slot {i}"),
                }
            }
        }
        assert!(column(4).is_none(), "array column has no typed vector");
        assert_eq!(c.live().count_ones(), 4);
        assert!(!c.live().get(2));
    }

    #[test]
    fn dictionary_is_local_to_the_page_and_shares_codes() {
        let slots = vec![
            row(1, None, None, Some("alpha")),
            row(2, None, None, Some("beta")),
            row(3, None, None, Some("alpha")),
        ];
        let c = PageChunks::new(&slots, 5);
        let Some(ColumnSlice::Str { codes, dict, .. }) = c.column(3, &DataType::Text, &slots) else {
            panic!("text column slice")
        };
        assert_eq!(codes[0], codes[2], "equal strings share a code");
        assert_ne!(codes[0], codes[1]);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn bitmap_word_boundaries() {
        let mut b = Bitmap::zeros(130);
        for i in [0usize, 63, 127, 128, 129] {
            b.set(i);
        }
        assert!(b.get(0) && b.get(63) && !b.get(64) && b.get(127) && b.get(128) && b.get(129));
        assert!(!b.get(130), "past the end reads unset");
        assert_eq!(b.count_ones(), 5);
    }
}
