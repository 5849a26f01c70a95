//! Vectorized kernels over one page's column chunks: selection-vector
//! construction, predicate application over typed column slices, and
//! column-at-a-time row materialization (gather).
//!
//! Selections hold page-local offsets, ascending, so concatenating pages in
//! slot order yields exactly the row path's visit order.
//!
//! Invariant (enforced by a check.sh grep gate): this file contains no
//! per-row `Value` enum match. Kernels branch once per *column* on the
//! slice variant, then run a tight loop over primitive data —
//! `Value`-shaped decisions all happen at compile time in
//! [`crate::vplan`]. Constructing `Value`s during gather is fine; it is
//! the per-row enum dispatch the columnar path exists to eliminate.

use crate::vplan::VecPred;
use erbium_storage::{Bitmap, ColumnSlice, PagePin, Value};
use std::ops::Range;
use std::sync::Arc;

/// Append the live offsets of `range` to `sel`, in ascending order.
pub(crate) fn live_selection(live: &Bitmap, range: Range<usize>, sel: &mut Vec<usize>) {
    for s in range {
        if live.get(s) {
            sel.push(s);
        }
    }
}

/// Filter `sel` in place by one compiled predicate, preserving order.
///
/// Every arm masks by the validity bitmap first: NULL never qualifies a
/// comparison (matching the row path, where NULL operands make the
/// predicate NULL, hence not TRUE). `vplan` only compiles predicates over
/// columns whose type has a typed slice, so a missing slice cannot occur.
pub(crate) fn apply_pred(pred: &VecPred, page: &PagePin, sel: &mut Vec<usize>) {
    let slice = match pred {
        VecPred::Nothing => {
            sel.clear();
            return;
        }
        VecPred::IntCmp { col, .. }
        | VecPred::IntAsFloatCmp { col, .. }
        | VecPred::FloatCmp { col, .. }
        | VecPred::BoolCmp { col, .. }
        | VecPred::StrCmp { col, .. }
        | VecPred::Const { col, .. }
        | VecPred::IsNull { col }
        | VecPred::IsNotNull { col } => page.column(*col).expect("compiled over a typed column"),
    };
    match (pred, slice) {
        (VecPred::IntCmp { set, lit, .. }, ColumnSlice::Int { data, valid }) => {
            sel.retain(|&s| valid.get(s) && set.accepts(data[s].cmp(lit)));
        }
        (VecPred::IntAsFloatCmp { set, lit, .. }, ColumnSlice::Int { data, valid }) => {
            sel.retain(|&s| valid.get(s) && set.accepts((data[s] as f64).total_cmp(lit)));
        }
        (VecPred::FloatCmp { set, lit, .. }, ColumnSlice::Float { data, valid }) => {
            sel.retain(|&s| valid.get(s) && set.accepts(data[s].total_cmp(lit)));
        }
        (VecPred::BoolCmp { set, lit, .. }, ColumnSlice::Bool { data, valid }) => {
            sel.retain(|&s| valid.get(s) && set.accepts(data[s].cmp(lit)));
        }
        (VecPred::StrCmp { set, lit, .. }, ColumnSlice::Str { codes, valid, dict }) => {
            // Compare each distinct string of the page once; the per-row
            // kernel is then a single table lookup.
            let keep: Vec<bool> =
                dict.iter().map(|s| set.accepts(s.as_ref().cmp(lit.as_ref()))).collect();
            sel.retain(|&s| valid.get(s) && keep[codes[s] as usize]);
        }
        (VecPred::Const { keep, .. }, slice) => sel.retain(|&s| slice.is_valid(s) && *keep),
        (VecPred::IsNull { .. }, slice) => sel.retain(|&s| !slice.is_valid(s)),
        (VecPred::IsNotNull { .. }, slice) => sel.retain(|&s| slice.is_valid(s)),
        _ => unreachable!("vplan compiles each comparison for its column's slice type"),
    }
}

/// Call `f(k, value)` for the cell of table column `c` at each selected
/// offset `sel[k]`, in selection order. Scalar columns are read from their
/// typed vectors (one type dispatch per column, then a tight loop);
/// columns without a typed slice (arrays/structs) are cloned from the
/// page's rows.
#[inline]
fn for_each_cell(page: &PagePin, c: usize, sel: &[usize], mut f: impl FnMut(usize, Value)) {
    match page.column(c) {
        Some(ColumnSlice::Int { data, valid }) => {
            for (k, &s) in sel.iter().enumerate() {
                f(k, if valid.get(s) { Value::Int(data[s]) } else { Value::Null });
            }
        }
        Some(ColumnSlice::Float { data, valid }) => {
            for (k, &s) in sel.iter().enumerate() {
                f(k, if valid.get(s) { Value::Float(data[s]) } else { Value::Null });
            }
        }
        Some(ColumnSlice::Bool { data, valid }) => {
            for (k, &s) in sel.iter().enumerate() {
                f(k, if valid.get(s) { Value::Bool(data[s]) } else { Value::Null });
            }
        }
        Some(ColumnSlice::Str { codes, valid, dict }) => {
            for (k, &s) in sel.iter().enumerate() {
                let v = if valid.get(s) {
                    Value::Str(Arc::clone(&dict[codes[s] as usize]))
                } else {
                    Value::Null
                };
                f(k, v);
            }
        }
        None => {
            let rows = page.rows();
            for (k, &s) in sel.iter().enumerate() {
                f(k, rows[s].as_ref().expect("selected slot is live")[c].clone());
            }
        }
    }
}

/// Materialize the selected offsets of `page` as rows, one *column* at a
/// time. `mapping[out_col]` names the table column feeding output column
/// `out_col`. Rows are appended to `out`.
pub(crate) fn gather_rows(
    page: &PagePin,
    mapping: &[usize],
    sel: &[usize],
    out: &mut Vec<Vec<Value>>,
) {
    let base = out.len();
    out.extend(sel.iter().map(|_| Vec::with_capacity(mapping.len())));
    for &c in mapping {
        for_each_cell(page, c, sel, |k, v| out[base + k].push(v));
    }
}

/// Append the selected cells of table column `cols[j]` to `out[j]`: a
/// column-major gather that allocates nothing per row.
pub(crate) fn gather_columns(
    page: &PagePin,
    cols: &[usize],
    sel: &[usize],
    out: &mut [Vec<Value>],
) {
    for (&c, col_out) in cols.iter().zip(out.iter_mut()) {
        for_each_cell(page, c, sel, |_, v| col_out.push(v));
    }
}

/// The join-build key at offset `s` for a single-key columnar build:
/// `None` when the cell is NULL (NULL keys never join). The build only
/// runs over key columns with a typed slice.
pub(crate) fn key_at(page: &PagePin, col: usize, s: usize) -> Option<Value> {
    let slice = page.column(col).expect("columnar build key has a typed slice");
    slice.is_valid(s).then(|| slice.value_at(s))
}
