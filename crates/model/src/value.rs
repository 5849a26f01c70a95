//! Runtime values and data types.
//!
//! The E/R model requires richer values than classic 1NF relations: composite
//! attributes become [`Value::Struct`] and multi-valued attributes become
//! [`Value::Array`] (possibly arrays *of* structs, as in the paper's mapping
//! M5 where weak entity sets are folded into their owner as arrays of
//! composite types).
//!
//! `Value` implements a **total order** and a consistent `Hash` (floats are
//! ordered by IEEE total-order bits and `Null` sorts first) so values can be
//! used directly as join keys, grouping keys, and BTree index keys.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Logical data types for stored values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
    /// Fixed-schema array of an element type (multi-valued attributes).
    Array(Box<DataType>),
    /// Composite value with named fields (composite attributes, folded weak
    /// entities). Field order is significant.
    Struct(Vec<(String, DataType)>),
}

impl DataType {
    /// An array of this type.
    pub fn array_of(self) -> DataType {
        DataType::Array(Box::new(self))
    }

    /// Returns `true` if `value` conforms to this type. `Null` conforms to
    /// every type (all columns are nullable at the storage layer; the E/R
    /// layer enforces mandatory participation separately).
    pub fn check(&self, value: &Value) -> bool {
        match (self, value) {
            (_, Value::Null) => true,
            (DataType::Bool, Value::Bool(_)) => true,
            (DataType::Int, Value::Int(_)) => true,
            (DataType::Float, Value::Float(_)) => true,
            (DataType::Float, Value::Int(_)) => true, // implicit widening
            (DataType::Text, Value::Str(_)) => true,
            (DataType::Array(elem), Value::Array(vs)) => vs.iter().all(|v| elem.check(v)),
            (DataType::Struct(fields), Value::Struct(vs)) => {
                fields.len() == vs.len()
                    && fields.iter().zip(vs.iter()).all(|((_, t), v)| t.check(v))
            }
            _ => false,
        }
    }

    /// Field index within a struct type, by name.
    pub fn struct_field(&self, name: &str) -> Option<(usize, &DataType)> {
        match self {
            DataType::Struct(fields) => fields
                .iter()
                .enumerate()
                .find(|(_, (n, _))| n == name)
                .map(|(i, (_, t))| (i, t)),
            _ => None,
        }
    }

    /// Element type if this is an array type.
    pub fn elem(&self) -> Option<&DataType> {
        match self {
            DataType::Array(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Text => write!(f, "text"),
            DataType::Array(e) => write!(f, "{e}[]"),
            DataType::Struct(fields) => {
                write!(f, "(")?;
                for (i, (n, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n} {t}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A runtime value.
///
/// Strings are reference-counted (`Arc<str>`) because the executor clones
/// values freely while assembling intermediate rows; cloning must stay cheap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Array(Vec<Value>),
    Struct(Vec<Value>),
}

impl Value {
    /// Construct a text value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, if any (does not coerce).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float payload, coercing ints.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Bool payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload, if any.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// Struct payload, if any.
    pub fn as_struct(&self) -> Option<&[Value]> {
        match self {
            Value::Struct(vs) => Some(vs),
            _ => None,
        }
    }

    /// The most specific [`DataType`] describing this value, if derivable.
    /// `Null` and empty arrays have no intrinsic type.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Text),
            Value::Array(vs) => vs
                .iter()
                .find_map(|v| v.data_type())
                .map(|t| DataType::Array(Box::new(t))),
            Value::Struct(vs) => {
                let mut fields = Vec::with_capacity(vs.len());
                for (i, v) in vs.iter().enumerate() {
                    fields.push((format!("f{i}"), v.data_type()?));
                }
                Some(DataType::Struct(fields))
            }
        }
    }

    /// Rough in-memory footprint in bytes; used by statistics and the
    /// advisor cost model.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 16 + s.len(),
            Value::Array(vs) => 24 + vs.iter().map(Value::approx_size).sum::<usize>(),
            Value::Struct(vs) => 8 + vs.iter().map(Value::approx_size).sum::<usize>(),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Array(_) => 4,
            Value::Struct(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: `Null` first, then by type rank; numerics compare across
    /// `Int`/`Float` numerically (NaN greatest among floats).
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_f64_cmp(*a, *b),
            (Int(a), Float(b)) => total_f64_cmp(*a as f64, *b),
            (Float(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Array(a), Array(b)) | (Struct(a), Struct(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// `x` as an i64 when the conversion is exact and reverses to the same
/// bits: every float some `Int` compares equal to, and no other (`-0.0`,
/// NaN, infinities and fractions all return `None`). `2^63` maps to
/// `i64::MAX`, the value `i64::MAX as f64` saturates back to.
fn exact_i64(x: f64) -> Option<i64> {
    let i = x as i64;
    ((i as f64).to_bits() == x.to_bits()).then_some(i)
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Numerics compare equal across the Int/Float divide, so an
            // integral value hashes as one canonical i64 whichever variant
            // holds it (DESIGN.md §16). `Int(i)` goes through
            // `i as f64` so that the ints that round to the same float near
            // 2^53 (and saturate at 2^63) share the hash of that float.
            Value::Int(i) => {
                state.write_u8(2);
                state.write_i64((*i as f64) as i64);
            }
            Value::Float(x) => {
                state.write_u8(2);
                match exact_i64(*x) {
                    Some(i) => state.write_i64(i),
                    None => state.write_u64(x.to_bits()),
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Array(vs) => {
                state.write_u8(4);
                vs.hash(state);
            }
            Value::Struct(vs) => {
                state.write_u8(5);
                vs.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Array(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Struct(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashSet;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
    }

    #[test]
    fn int_float_cross_type_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn nan_is_self_equal_and_greatest_float() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn arrays_compare_lexicographically() {
        let a = Value::Array(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::Array(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::Array(vec![Value::Int(1)]);
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn type_check_nested() {
        let t = DataType::Struct(vec![
            ("street".into(), DataType::Text),
            ("cities".into(), DataType::Text.array_of()),
        ]);
        let ok = Value::Struct(vec![
            Value::str("Main St"),
            Value::Array(vec![Value::str("CP"), Value::str("DC")]),
        ]);
        let bad = Value::Struct(vec![Value::Int(5), Value::Array(vec![])]);
        assert!(t.check(&ok));
        assert!(!t.check(&bad));
        assert!(t.check(&Value::Null));
    }

    #[test]
    fn display_roundtrippable_shapes() {
        let v = Value::Array(vec![Value::Struct(vec![Value::Int(1), Value::str("x")])]);
        assert_eq!(v.to_string(), "[(1, 'x')]");
    }

    #[test]
    fn struct_field_lookup() {
        let t = DataType::Struct(vec![
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Text),
        ]);
        assert_eq!(t.struct_field("b").map(|(i, _)| i), Some(1));
        assert!(t.struct_field("z").is_none());
    }

    #[test]
    fn approx_size_monotone_in_content() {
        let small = Value::Array(vec![Value::Int(1)]);
        let big = Value::Array(vec![Value::Int(1); 100]);
        assert!(big.approx_size() > small.approx_size());
    }

    fn fx_hash_of(v: &Value) -> u64 {
        let mut h = rustc_hash::FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    /// hashbrown picks a bucket from the low bits of the hash, so keys that
    /// agree in their low bits share one probe chain and every insert or
    /// lookup walks it: a quadratic cliff in joins, GROUP BY and key checks.
    /// 4,096 keys over 1,024 buckets fill ~98% of them when hashes are
    /// uniform; demand 90% for every key shape the engine sees in bulk.
    #[test]
    fn hashes_spread_over_low_bits() {
        const N: i64 = 4096;
        type MakeKey = fn(i64) -> Value;
        let kinds: [(&str, MakeKey); 6] = [
            ("sequential ints", Value::Int),
            ("stride-8 ints", |i| Value::Int(i * 8)),
            ("negative ints", |i| Value::Int(-i - 1)),
            ("int-valued floats", |i| Value::Float(i as f64)),
            ("x.5 floats", |i| Value::Float(i as f64 + 0.5)),
            ("short strings", |i| Value::str(format!("k{i}"))),
        ];
        for (kind, make) in &kinds {
            let buckets: FxHashSet<u64> = (0..N).map(|i| fx_hash_of(&make(i)) & 1023).collect();
            assert!(
                buckets.len() * 10 >= 1024 * 9,
                "{kind}: {} of 1024 low-bit buckets used",
                buckets.len()
            );
        }
    }

    #[test]
    fn equal_numerics_hash_equal_at_the_edges() {
        let two53 = 1i64 << 53;
        let pairs = [
            (Value::Int(0), Value::Float(0.0)),
            (Value::Int(two53), Value::Float(two53 as f64)),
            // 2^53 + 1 rounds to 2^53 as a float, so the two compare equal.
            (Value::Int(two53 + 1), Value::Float(two53 as f64)),
            (Value::Int(-two53 - 1), Value::Float(-two53 as f64)),
            (Value::Int(i64::MIN), Value::Float(i64::MIN as f64)),
            (Value::Int(i64::MAX), Value::Float(i64::MAX as f64)),
            (Value::Float(f64::NAN), Value::Float(f64::NAN)),
            (Value::Float(-0.0), Value::Float(-0.0)),
        ];
        for (a, b) in &pairs {
            assert_eq!(a, b);
            assert_eq!(fx_hash_of(a), fx_hash_of(b), "{a:?} vs {b:?}");
            assert_eq!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
        }
        // Total order keeps the signed zeros apart, so they may hash apart.
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    /// Base integers where Int/Float equality is delicate: zero, the edge
    /// of f64's exact-integer range (2^53) and i64's limits.
    const EDGES: [i64; 10] = [
        0,
        1,
        -1,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        -(1 << 53) - 1,
        i64::MIN,
        i64::MAX,
        i64::MAX - 1,
    ];
    const SPECIAL_FLOATS: [f64; 5] = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5];

    /// One numeric near `x`, in the representation `repr` picks.
    fn numeric(x: i64, repr: usize) -> Value {
        match repr {
            0 => Value::Int(x),
            1 => Value::Float(x as f64),
            2 => Value::Float(x as f64 + 0.5),
            _ => Value::Float(SPECIAL_FLOATS[x.unsigned_abs() as usize % SPECIAL_FLOATS.len()]),
        }
    }

    /// Wrap `v` bare (0), as an array element (1) or as a struct field (2).
    fn wrapped(v: Value, shape: usize) -> Value {
        match shape {
            0 => v,
            1 => Value::Array(vec![Value::Int(7), v]),
            _ => Value::Struct(vec![Value::str("k"), v]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config {
            cases: 2048,
            ..proptest::test_runner::Config::default()
        })]
        #[test]
        fn equal_values_hash_equal(
            (pick, edge, any_int, delta) in
                (0usize..3, 0usize..EDGES.len(), proptest::any::<i64>(), -1i64..2),
            (repr_a, repr_b, shape) in (0usize..4, 0usize..4, 0usize..3),
        ) {
            let base = match pick {
                0 => EDGES[edge],
                1 => any_int,
                _ => any_int % 100,
            };
            let a = wrapped(numeric(base, repr_a), shape);
            let b = wrapped(numeric(base.saturating_add(delta), repr_b), shape);
            if a == b {
                proptest::prop_assert_eq!(fx_hash_of(&a), fx_hash_of(&b), "{:?} vs {:?}", a, b);
                proptest::prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} vs {:?}", a, b);
            }
        }
    }
}
