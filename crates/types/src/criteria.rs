//! Search criteria.
//!
//! §2: "Search criteria, used as arguments in read and read&del commands,
//! are predicates over O." Our concrete predicate language is [`Template`];
//! a [`SearchCriterion`] wraps one and classifies its *query kind*, which
//! determines which per-class data structure can serve it efficiently (§5:
//! "a hash table for dictionary queries; a binary search tree for range
//! queries; a linear list for text pattern matching").

use std::fmt;

use crate::object::PasoObject;
use crate::template::{FieldMatcher, Template};

/// The shape of a query, driving data-structure choice and the `Q(·)` cost
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryKind {
    /// Every field is an exact value — servable by a hash table in O(1).
    Dictionary,
    /// Exact key prefix plus a range constraint — servable by an ordered
    /// index in O(log ℓ).
    Range,
    /// Anything else (wildcards, string patterns, negation) — requires a
    /// linear scan, O(ℓ).
    Scan,
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QueryKind::Dictionary => "dictionary",
            QueryKind::Range => "range",
            QueryKind::Scan => "scan",
        };
        f.write_str(s)
    }
}

/// A predicate over objects used by `read` and `read&del`.
///
/// # Examples
///
/// ```
/// use paso_types::{SearchCriterion, Template, Value, QueryKind};
///
/// let sc = SearchCriterion::from(Template::exact(vec![Value::symbol("done"), Value::Int(3)]));
/// assert_eq!(sc.query_kind(), QueryKind::Dictionary);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SearchCriterion {
    template: Template,
}

paso_wire::wire_struct!(SearchCriterion { template });

impl SearchCriterion {
    /// Creates a criterion from a template.
    pub fn new(template: Template) -> Self {
        SearchCriterion { template }
    }

    /// The underlying template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// Does the criterion accept `o`? (The predicate `o ∈ sc`.)
    pub fn matches(&self, o: &PasoObject) -> bool {
        self.template.matches(o)
    }

    /// Arity of objects this criterion can match.
    pub fn arity(&self) -> usize {
        self.template.arity()
    }

    /// Classifies the query shape (see [`QueryKind`]).
    pub fn query_kind(&self) -> QueryKind {
        if self.template.is_fully_exact() {
            return QueryKind::Dictionary;
        }
        // Range-servable: a (possibly empty) prefix of exact matchers, then
        // exactly one range matcher, then only wildcards.
        let ms = self.template.matchers();
        let mut i = 0;
        while i < ms.len() && ms[i].is_exact() {
            i += 1;
        }
        if i < ms.len() && matches!(ms[i], FieldMatcher::Range { .. }) {
            let rest_wild = ms[i + 1..]
                .iter()
                .all(|m| matches!(m, FieldMatcher::Any | FieldMatcher::AnyOf(_)));
            if rest_wild {
                return QueryKind::Range;
            }
        }
        QueryKind::Scan
    }

    /// Approximate wire size in bytes (criteria travel in gcast payloads;
    /// this is the `|sc|` of Figure 1).
    pub fn wire_size(&self) -> usize {
        self.template.wire_size()
    }
}

impl From<Template> for SearchCriterion {
    fn from(template: Template) -> Self {
        SearchCriterion::new(template)
    }
}

impl fmt::Display for SearchCriterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sc{}", self.template)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectId, ProcessId};
    use crate::value::Value;

    fn obj(fields: Vec<Value>) -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(0), 0), fields)
    }

    #[test]
    fn dictionary_kind() {
        let sc = SearchCriterion::from(Template::exact(vec![Value::Int(1)]));
        assert_eq!(sc.query_kind(), QueryKind::Dictionary);
    }

    #[test]
    fn range_kind_with_exact_prefix() {
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("t")),
            FieldMatcher::between(1, 9),
            FieldMatcher::Any,
        ]));
        assert_eq!(sc.query_kind(), QueryKind::Range);
    }

    #[test]
    fn range_kind_bare() {
        let sc = SearchCriterion::from(Template::new(vec![FieldMatcher::at_least(0)]));
        assert_eq!(sc.query_kind(), QueryKind::Range);
    }

    #[test]
    fn scan_kind_for_patterns_and_trailing_constraints() {
        let sc = SearchCriterion::from(Template::new(vec![FieldMatcher::Contains("x".into())]));
        assert_eq!(sc.query_kind(), QueryKind::Scan);

        // Range followed by another non-wildcard constraint → scan.
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::between(0, 5),
            FieldMatcher::Exact(Value::Int(1)),
        ]));
        assert_eq!(sc.query_kind(), QueryKind::Scan);

        // Wildcard before a range breaks the exact-prefix shape → scan.
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Any,
            FieldMatcher::between(0, 5),
        ]));
        assert_eq!(sc.query_kind(), QueryKind::Scan);
    }

    #[test]
    fn matches_delegates_to_template() {
        let sc = SearchCriterion::from(Template::exact(vec![Value::Int(2)]));
        assert!(sc.matches(&obj(vec![Value::Int(2)])));
        assert!(!sc.matches(&obj(vec![Value::Int(3)])));
        assert_eq!(sc.arity(), 1);
    }

    #[test]
    fn display_and_size() {
        let sc = SearchCriterion::from(Template::wildcard(2));
        assert_eq!(sc.to_string(), "sc<?, ?>");
        assert!(sc.wire_size() > 0);
    }
}
