//! Dynamically typed field values.
//!
//! A PASO object is a tuple of values drawn from ground sets of basic data
//! types (paper, §1). [`Value`] is the runtime representation of one field.
//! Values carry a total order (needed for range criteria and for the ordered
//! class stores) and a stable hash (needed for dictionary criteria and for
//! hash-based classifiers).
//!
//! Floating point values are ordered and hashed through their IEEE-754 bit
//! pattern after normalizing `-0.0` to `0.0`; `NaN` compares greater than
//! every other float. This keeps `Value` a lawful `Ord + Hash` citizen, which
//! the rest of the system relies on.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Type tag of a [`Value`], used by templates ("any value of type T") and by
/// type-signature classifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
    /// Raw byte string.
    Bytes,
    /// Interned symbol (e.g. a task kind). Distinct from `Str` so programs
    /// can separate "names" from "data", as Linda implementations do.
    Symbol,
    /// Nested tuple of values.
    Tuple,
}

paso_wire::wire_enum!(ValueType {
    0 => Int,
    1 => Float,
    2 => Bool,
    3 => Str,
    4 => Bytes,
    5 => Symbol,
    6 => Tuple,
});

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Bool => "bool",
            ValueType::Str => "str",
            ValueType::Bytes => "bytes",
            ValueType::Symbol => "symbol",
            ValueType::Tuple => "tuple",
        };
        f.write_str(s)
    }
}

/// A single field of a PASO object.
///
/// # Examples
///
/// ```
/// use paso_types::{Value, ValueType};
///
/// let v = Value::from("task");
/// assert_eq!(v.value_type(), ValueType::Str);
/// assert!(Value::Int(3) < Value::Int(10));
/// ```
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Interned symbol.
    Symbol(String),
    /// Nested tuple.
    Tuple(Vec<Value>),
}

paso_wire::wire_enum!(Value {
    0 => Int(i),
    1 => Float(x),
    2 => Bool(b),
    3 => Str(s),
    4 => Bytes(b),
    5 => Symbol(s),
    6 => Tuple(fields),
});

impl Value {
    /// Returns the type tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Bool(_) => ValueType::Bool,
            Value::Str(_) => ValueType::Str,
            Value::Bytes(_) => ValueType::Bytes,
            Value::Symbol(_) => ValueType::Symbol,
            Value::Tuple(_) => ValueType::Tuple,
        }
    }

    /// Creates a symbol value.
    pub fn symbol(s: impl Into<String>) -> Self {
        Value::Symbol(s.into())
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str` or `Symbol`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) | Value::Symbol(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte payload, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the nested tuple, if this is a `Tuple`.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Exact wire size of this value in bytes under the binary codec.
    ///
    /// Used by the `msg-cost(m) = α + β·|m|` cost model (paper §3.3): `|m|`
    /// is measured with this function, so analytical predictions and
    /// simulator accounting agree exactly with what goes on the link.
    pub fn wire_size(&self) -> usize {
        paso_wire::Wire::encoded_len(self)
    }

    /// Normalized float bits: `-0.0` folds onto `0.0`, all `NaN`s fold onto
    /// one canonical pattern that orders above every number.
    fn float_key(x: f64) -> u64 {
        if x.is_nan() {
            return u64::MAX;
        }
        let x = if x == 0.0 { 0.0 } else { x };
        let bits = x.to_bits();
        // Map IEEE-754 ordering onto unsigned ordering.
        if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }
    }

    fn discriminant_rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Bool(_) => 2,
            Value::Str(_) => 3,
            Value::Bytes(_) => 4,
            Value::Symbol(_) => 5,
            Value::Tuple(_) => 6,
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
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => Value::float_key(*a).cmp(&Value::float_key(*b)),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Symbol(a), Symbol(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) => a.cmp(b),
            _ => self.discriminant_rank().cmp(&other.discriminant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.discriminant_rank().hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Float(x) => Value::float_key(*x).hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Str(s) | Value::Symbol(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::Tuple(t) => t.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "b<{} bytes>", b.len()),
            Value::Symbol(s) => write!(f, ":{s}"),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
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

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
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
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Tuple(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_tags() {
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::Float(1.0).value_type(), ValueType::Float);
        assert_eq!(Value::Bool(true).value_type(), ValueType::Bool);
        assert_eq!(Value::from("x").value_type(), ValueType::Str);
        assert_eq!(Value::Bytes(vec![1]).value_type(), ValueType::Bytes);
        assert_eq!(Value::symbol("s").value_type(), ValueType::Symbol);
        assert_eq!(Value::Tuple(vec![]).value_type(), ValueType::Tuple);
    }

    #[test]
    fn accessors_round_trip() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::symbol("hi").as_str(), Some("hi"));
        assert_eq!(Value::Bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(
            Value::Tuple(vec![Value::Int(1)]).as_tuple(),
            Some(&[Value::Int(1)][..])
        );
        assert_eq!(Value::Int(7).as_float(), None);
        assert_eq!(Value::Bool(true).as_int(), None);
    }

    #[test]
    fn int_ordering() {
        assert!(Value::Int(-5) < Value::Int(0));
        assert!(Value::Int(0) < Value::Int(5));
    }

    #[test]
    fn float_ordering_total() {
        assert!(Value::Float(-1.0) < Value::Float(0.0));
        assert!(Value::Float(0.0) < Value::Float(1.5));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        // NaN is the maximum float and equal to itself.
        assert!(Value::Float(f64::NAN) > Value::Float(f64::INFINITY));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn float_hash_consistent_with_eq() {
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(f64::NAN))
        );
    }

    #[test]
    fn cross_type_ordering_is_stable() {
        // Int < Float < Bool < Str < Bytes < Symbol < Tuple.
        assert!(Value::Int(i64::MAX) < Value::Float(f64::MIN));
        assert!(Value::Float(f64::MAX) < Value::Bool(false));
        assert!(Value::Bool(true) < Value::from(""));
        assert!(Value::from("zzz") < Value::Bytes(vec![]));
        assert!(Value::Bytes(vec![255]) < Value::symbol(""));
        assert!(Value::symbol("zzz") < Value::Tuple(vec![]));
    }

    #[test]
    fn symbol_and_str_are_distinct() {
        assert_ne!(Value::from("a"), Value::symbol("a"));
    }

    #[test]
    fn tuple_ordering_lexicographic() {
        let a = Value::Tuple(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::Tuple(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::Tuple(vec![Value::Int(1)]);
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn wire_size_accounts_for_payload() {
        // Tag byte + zig-zag varint: a small int costs 2 bytes on the wire.
        assert_eq!(Value::Int(0).wire_size(), 2);
        // Tag + 1-byte length + payload.
        assert_eq!(Value::from("abcd").wire_size(), 1 + 1 + 4);
        let nested = Value::Tuple(vec![Value::Int(0), Value::Int(0)]);
        assert_eq!(nested.wire_size(), 1 + 1 + 2 + 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::symbol("task").to_string(), ":task");
        assert_eq!(
            Value::Tuple(vec![Value::Int(1), Value::from("x")]).to_string(),
            "(1, \"x\")"
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(String::from("s")), Value::from("s"));
        assert_eq!(
            Value::from(vec![Value::Int(1)]),
            Value::Tuple(vec![Value::Int(1)])
        );
    }

    #[test]
    fn wire_round_trip() {
        let v = Value::Tuple(vec![
            Value::Int(1),
            Value::Float(2.5),
            Value::from("hello"),
            Value::symbol("sym"),
            Value::Bytes(vec![0, 1, 2]),
            Value::Bool(false),
        ]);
        let bytes = paso_wire::encode_to_vec(&v);
        assert_eq!(bytes.len(), v.wire_size());
        let back: Value = paso_wire::decode_exact(&bytes).unwrap();
        assert_eq!(v, back);
    }
}
