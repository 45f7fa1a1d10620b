//! Associative matching: field matchers and object templates.
//!
//! "A PASO memory is associative in the sense that objects are accessed by
//! pattern-matching. For example, a read takes an object template (search
//! criterion) specifying acceptable values for each field" (§1).
//!
//! The paper stresses that its search criteria are *more general* than the
//! formal/actual matching of classic Linda implementations; [`FieldMatcher`]
//! therefore supports, beyond exact values and typed wildcards, ordered
//! ranges and string predicates — the query shapes §5 motivates with the
//! choice of per-class data structure (hash table for dictionary queries,
//! search tree for range queries, linear list for text pattern matching).

use std::fmt;
use std::ops::Bound;

use crate::object::PasoObject;
use crate::value::{Value, ValueType};

/// A predicate on a single field of an object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldMatcher {
    /// Matches any value of any type (the Linda "formal" without a type).
    Any,
    /// Matches any value of the given type (typed formal).
    AnyOf(ValueType),
    /// Matches exactly this value (actual).
    Exact(Value),
    /// Matches values `v` with `lo ≤ v ≤/< hi` under the total [`Value`]
    /// order. Range queries are the reason a class may use an ordered store.
    Range {
        /// Lower bound.
        lo: Bound<Value>,
        /// Upper bound.
        hi: Bound<Value>,
    },
    /// Matches `Str`/`Symbol` values with the given prefix.
    Prefix(String),
    /// Matches `Str` values containing the given substring ("text pattern
    /// matching", §5).
    Contains(String),
    /// Matches if the inner matcher does not.
    Not(Box<FieldMatcher>),
    /// Matches `Tuple` values whose elements match the nested matchers
    /// position-wise (same arity). Nested templates make criteria over
    /// structured fields first-class — PASO criteria are arbitrary
    /// predicates over objects (§2), not just flat formals/actuals.
    TupleOf(Vec<FieldMatcher>),
}

impl FieldMatcher {
    /// Convenience: an inclusive range matcher `lo ≤ v ≤ hi`.
    pub fn between(lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        FieldMatcher::Range {
            lo: Bound::Included(lo.into()),
            hi: Bound::Included(hi.into()),
        }
    }

    /// Convenience: `v ≥ lo`.
    pub fn at_least(lo: impl Into<Value>) -> Self {
        FieldMatcher::Range {
            lo: Bound::Included(lo.into()),
            hi: Bound::Unbounded,
        }
    }

    /// Convenience: `v ≤ hi`.
    pub fn at_most(hi: impl Into<Value>) -> Self {
        FieldMatcher::Range {
            lo: Bound::Unbounded,
            hi: Bound::Included(hi.into()),
        }
    }

    /// Does this matcher accept `v`?
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            FieldMatcher::Any => true,
            FieldMatcher::AnyOf(t) => v.value_type() == *t,
            FieldMatcher::Exact(w) => v == w,
            FieldMatcher::Range { lo, hi } => {
                let above = match lo {
                    Bound::Included(l) => v >= l,
                    Bound::Excluded(l) => v > l,
                    Bound::Unbounded => true,
                };
                let below = match hi {
                    Bound::Included(h) => v <= h,
                    Bound::Excluded(h) => v < h,
                    Bound::Unbounded => true,
                };
                above && below
            }
            FieldMatcher::Prefix(p) => v.as_str().is_some_and(|s| s.starts_with(p)),
            FieldMatcher::Contains(p) => v.as_str().is_some_and(|s| s.contains(p)),
            FieldMatcher::Not(inner) => !inner.matches(v),
            FieldMatcher::TupleOf(ms) => v.as_tuple().is_some_and(|t| {
                t.len() == ms.len() && ms.iter().zip(t).all(|(m, v)| m.matches(v))
            }),
        }
    }

    /// True iff this matcher can only ever accept exactly one value.
    /// Exact-only templates are the "dictionary query" shape that hash
    /// stores serve in O(1).
    pub fn is_exact(&self) -> bool {
        matches!(self, FieldMatcher::Exact(_))
    }

    /// If this matcher is exact, the value it accepts.
    pub fn exact_value(&self) -> Option<&Value> {
        match self {
            FieldMatcher::Exact(v) => Some(v),
            _ => None,
        }
    }

    /// Exact wire size in bytes under the binary codec (for the
    /// `α + β·|m|` cost model — search criteria travel inside
    /// `mem-read`/`remove` gcasts).
    pub fn wire_size(&self) -> usize {
        paso_wire::Wire::encoded_len(self)
    }
}

impl From<Value> for FieldMatcher {
    fn from(v: Value) -> Self {
        FieldMatcher::Exact(v)
    }
}

impl fmt::Display for FieldMatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldMatcher::Any => write!(f, "?"),
            FieldMatcher::AnyOf(t) => write!(f, "?{t}"),
            FieldMatcher::Exact(v) => write!(f, "{v}"),
            FieldMatcher::Range { lo, hi } => {
                match lo {
                    Bound::Included(v) => write!(f, "[{v}")?,
                    Bound::Excluded(v) => write!(f, "({v}")?,
                    Bound::Unbounded => write!(f, "(-inf")?,
                }
                write!(f, ", ")?;
                match hi {
                    Bound::Included(v) => write!(f, "{v}]"),
                    Bound::Excluded(v) => write!(f, "{v})"),
                    Bound::Unbounded => write!(f, "+inf)"),
                }
            }
            FieldMatcher::Prefix(s) => write!(f, "^{s:?}"),
            FieldMatcher::Contains(s) => write!(f, "~{s:?}"),
            FieldMatcher::Not(inner) => write!(f, "!{inner}"),
            FieldMatcher::TupleOf(ms) => {
                write!(f, "(")?;
                for (i, m) in ms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{m}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A template over whole objects: one matcher per field, with fixed arity.
///
/// A template matches an object iff the arities agree and every field
/// matcher accepts the corresponding field.
///
/// # Examples
///
/// ```
/// use paso_types::{Template, FieldMatcher, Value, PasoObject, ObjectId, ProcessId};
///
/// let t = Template::new(vec![
///     FieldMatcher::Exact(Value::symbol("task")),
///     FieldMatcher::Any,
/// ]);
/// let o = PasoObject::new(
///     ObjectId::new(ProcessId(0), 0),
///     vec![Value::symbol("task"), Value::Int(7)],
/// );
/// assert!(t.matches(&o));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Template {
    matchers: Vec<FieldMatcher>,
}

paso_wire::wire_struct!(Template { matchers });

impl Template {
    /// Creates a template from per-field matchers.
    pub fn new(matchers: Vec<FieldMatcher>) -> Self {
        Template { matchers }
    }

    /// A template of `arity` wildcards (matches every object of that arity).
    pub fn wildcard(arity: usize) -> Self {
        Template {
            matchers: vec![FieldMatcher::Any; arity],
        }
    }

    /// A template matching objects whose fields equal `values` exactly.
    pub fn exact(values: Vec<Value>) -> Self {
        Template {
            matchers: values.into_iter().map(FieldMatcher::Exact).collect(),
        }
    }

    /// Number of fields this template constrains.
    pub fn arity(&self) -> usize {
        self.matchers.len()
    }

    /// The per-field matchers.
    pub fn matchers(&self) -> &[FieldMatcher] {
        &self.matchers
    }

    /// Does this template accept `o`?
    pub fn matches(&self, o: &PasoObject) -> bool {
        o.arity() == self.arity()
            && self
                .matchers
                .iter()
                .zip(o.fields())
                .all(|(m, v)| m.matches(v))
    }

    /// If field `i` is exactly constrained, its value.
    pub fn exact_field(&self, i: usize) -> Option<&Value> {
        self.matchers.get(i).and_then(FieldMatcher::exact_value)
    }

    /// True iff every field is an exact value — a "dictionary query".
    pub fn is_fully_exact(&self) -> bool {
        self.matchers.iter().all(FieldMatcher::is_exact)
    }

    /// Exact wire size in bytes under the binary codec.
    pub fn wire_size(&self) -> usize {
        paso_wire::Wire::encoded_len(self)
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, m) in self.matchers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, ">")
    }
}

impl FromIterator<FieldMatcher> for Template {
    fn from_iter<I: IntoIterator<Item = FieldMatcher>>(iter: I) -> Self {
        Template::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectId, ProcessId};

    fn obj(fields: Vec<Value>) -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(0), 0), fields)
    }

    #[test]
    fn any_matches_everything() {
        for v in [Value::Int(1), Value::from("x"), Value::Bool(true)] {
            assert!(FieldMatcher::Any.matches(&v));
        }
    }

    #[test]
    fn typed_wildcard() {
        let m = FieldMatcher::AnyOf(ValueType::Int);
        assert!(m.matches(&Value::Int(0)));
        assert!(!m.matches(&Value::Float(0.0)));
        assert!(!m.matches(&Value::from("0")));
    }

    #[test]
    fn exact_matcher() {
        let m = FieldMatcher::Exact(Value::Int(5));
        assert!(m.matches(&Value::Int(5)));
        assert!(!m.matches(&Value::Int(6)));
        assert!(m.is_exact());
        assert_eq!(m.exact_value(), Some(&Value::Int(5)));
        assert!(!FieldMatcher::Any.is_exact());
    }

    #[test]
    fn range_inclusive_exclusive() {
        let m = FieldMatcher::between(3, 7);
        assert!(!m.matches(&Value::Int(2)));
        assert!(m.matches(&Value::Int(3)));
        assert!(m.matches(&Value::Int(7)));
        assert!(!m.matches(&Value::Int(8)));

        let m = FieldMatcher::Range {
            lo: Bound::Excluded(Value::Int(3)),
            hi: Bound::Excluded(Value::Int(7)),
        };
        assert!(!m.matches(&Value::Int(3)));
        assert!(m.matches(&Value::Int(4)));
        assert!(!m.matches(&Value::Int(7)));
    }

    #[test]
    fn half_open_ranges() {
        assert!(FieldMatcher::at_least(10).matches(&Value::Int(10)));
        assert!(!FieldMatcher::at_least(10).matches(&Value::Int(9)));
        assert!(FieldMatcher::at_most(10).matches(&Value::Int(10)));
        assert!(!FieldMatcher::at_most(10).matches(&Value::Int(11)));
    }

    #[test]
    fn string_predicates() {
        assert!(FieldMatcher::Prefix("ab".into()).matches(&Value::from("abc")));
        assert!(!FieldMatcher::Prefix("ab".into()).matches(&Value::from("ba")));
        assert!(FieldMatcher::Prefix("ab".into()).matches(&Value::symbol("abz")));
        assert!(!FieldMatcher::Prefix("ab".into()).matches(&Value::Int(1)));
        assert!(FieldMatcher::Contains("ell".into()).matches(&Value::from("hello")));
        assert!(!FieldMatcher::Contains("xyz".into()).matches(&Value::from("hello")));
    }

    #[test]
    fn nested_tuple_matching() {
        let m = FieldMatcher::TupleOf(vec![
            FieldMatcher::Exact(Value::symbol("pt")),
            FieldMatcher::between(0, 10),
            FieldMatcher::Any,
        ]);
        let hit = Value::Tuple(vec![Value::symbol("pt"), Value::Int(5), Value::from("z")]);
        let wrong_range = Value::Tuple(vec![Value::symbol("pt"), Value::Int(50), Value::from("z")]);
        let wrong_arity = Value::Tuple(vec![Value::symbol("pt"), Value::Int(5)]);
        assert!(m.matches(&hit));
        assert!(!m.matches(&wrong_range));
        assert!(!m.matches(&wrong_arity));
        assert!(!m.matches(&Value::Int(1)), "non-tuples never match");
        assert_eq!(m.to_string(), "(:pt, [0, 10], ?)");
        assert!(m.wire_size() > 4);
    }

    #[test]
    fn deeply_nested_tuples() {
        let m = FieldMatcher::TupleOf(vec![FieldMatcher::TupleOf(vec![FieldMatcher::Exact(
            Value::Int(1),
        )])]);
        let hit = Value::Tuple(vec![Value::Tuple(vec![Value::Int(1)])]);
        let miss = Value::Tuple(vec![Value::Tuple(vec![Value::Int(2)])]);
        assert!(m.matches(&hit));
        assert!(!m.matches(&miss));
    }

    #[test]
    fn negation() {
        let m = FieldMatcher::Not(Box::new(FieldMatcher::Exact(Value::Int(0))));
        assert!(!m.matches(&Value::Int(0)));
        assert!(m.matches(&Value::Int(1)));
    }

    #[test]
    fn template_requires_matching_arity() {
        let t = Template::wildcard(2);
        assert!(t.matches(&obj(vec![Value::Int(1), Value::Int(2)])));
        assert!(!t.matches(&obj(vec![Value::Int(1)])));
        assert!(!t.matches(&obj(vec![Value::Int(1), Value::Int(2), Value::Int(3)])));
    }

    #[test]
    fn template_all_fields_must_match() {
        let t = Template::new(vec![
            FieldMatcher::Exact(Value::symbol("job")),
            FieldMatcher::between(0, 10),
        ]);
        assert!(t.matches(&obj(vec![Value::symbol("job"), Value::Int(5)])));
        assert!(!t.matches(&obj(vec![Value::symbol("job"), Value::Int(11)])));
        assert!(!t.matches(&obj(vec![Value::symbol("other"), Value::Int(5)])));
    }

    #[test]
    fn exact_template_helpers() {
        let t = Template::exact(vec![Value::Int(1), Value::from("x")]);
        assert!(t.is_fully_exact());
        assert_eq!(t.exact_field(0), Some(&Value::Int(1)));
        assert_eq!(t.exact_field(2), None);
        assert!(t.matches(&obj(vec![Value::Int(1), Value::from("x")])));

        let t2 = Template::new(vec![FieldMatcher::Any]);
        assert!(!t2.is_fully_exact());
        assert_eq!(t2.exact_field(0), None);
    }

    #[test]
    fn display_is_readable() {
        let t = Template::new(vec![
            FieldMatcher::Exact(Value::symbol("t")),
            FieldMatcher::Any,
            FieldMatcher::between(1, 2),
        ]);
        assert_eq!(t.to_string(), "<:t, ?, [1, 2]>");
    }

    #[test]
    fn wire_sizes_positive_and_monotone() {
        let small = Template::wildcard(1);
        let big = Template::exact(vec![Value::from("a long string value")]);
        assert!(small.wire_size() > 0);
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn from_iterator() {
        let t: Template = vec![FieldMatcher::Any, FieldMatcher::Any]
            .into_iter()
            .collect();
        assert_eq!(t.arity(), 2);
    }
}
