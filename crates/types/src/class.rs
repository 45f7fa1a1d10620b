//! Object classes and classifiers.
//!
//! §4.1: "Objects are stored and searched for by partitioning them into
//! *object classes* and associating a write group with every class."
//!
//! A [`Classifier`] is the paper's `obj-clss : O → C` together with the
//! paper's `sc-list : SC → C⁺`. The soundness condition on `sc-list` —
//! every object satisfying `sc` lies in one of the listed classes
//! (`sc ⊆ ∪ᵢ obj-clss⁻¹(Cᵢ)`) — is what makes `read`/`read&del` exhaustive;
//! it is enforced here by construction and checked by property tests.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::criteria::SearchCriterion;
use crate::object::PasoObject;
use crate::template::FieldMatcher;
use crate::value::{Value, ValueType};

/// Identifier of an object class (an element of the paper's finite set `C`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClassId(pub u32);

paso_wire::wire_struct!(ClassId { 0 });

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A partition of the object space into classes, with exhaustive search
/// lists.
///
/// Implementations must uphold two laws (tested in this crate and by
/// downstream property tests):
///
/// 1. **Totality**: `classify` returns a class in `classes()` for every
///    object.
/// 2. **`sc-list` soundness**: for every criterion `sc` and object `o`, if
///    `sc.matches(o)` then `classify(o) ∈ sc_list(sc)`.
///
/// The paper additionally asks `sc-list` to be *tight* (every listed class
/// intersects `sc`); we treat tightness as a quality property, not a
/// correctness requirement — an over-approximate list only costs extra
/// messages, never wrong answers.
pub trait Classifier: Send + Sync + fmt::Debug {
    /// The paper's `obj-clss(o)`.
    fn classify(&self, o: &PasoObject) -> ClassId;

    /// The finite set of classes `C`.
    fn classes(&self) -> Vec<ClassId>;

    /// The paper's `sc-list(sc)`: an exhaustive list of classes that may
    /// contain objects satisfying `sc`.
    fn sc_list(&self, sc: &SearchCriterion) -> Vec<ClassId>;
}

/// Classifies by object arity: class `min(arity, max_arity)`.
///
/// The coarsest useful partition; every template names exactly one class, so
/// `sc-list` is a singleton and searches are single-gcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityClassifier {
    max_arity: usize,
}

impl ArityClassifier {
    /// Creates a classifier with classes `C0..C{max_arity}`; objects of
    /// larger arity fold into the last class.
    pub fn new(max_arity: usize) -> Self {
        ArityClassifier { max_arity }
    }
}

impl Classifier for ArityClassifier {
    fn classify(&self, o: &PasoObject) -> ClassId {
        ClassId(o.arity().min(self.max_arity) as u32)
    }

    fn classes(&self) -> Vec<ClassId> {
        (0..=self.max_arity as u32).map(ClassId).collect()
    }

    fn sc_list(&self, sc: &SearchCriterion) -> Vec<ClassId> {
        vec![ClassId(sc.arity().min(self.max_arity) as u32)]
    }
}

/// Classifies by a stable hash of field 0 into `buckets` classes.
///
/// This is the classic tuple-space partition (hash on the "name" field).
/// A criterion whose first field is exact maps to one bucket; otherwise it
/// must list every bucket — showing how general criteria force broader
/// searches, the paper's motivation for careful class design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstFieldClassifier {
    buckets: u32,
}

impl FirstFieldClassifier {
    /// Creates a classifier with `buckets ≥ 1` classes.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn new(buckets: u32) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        FirstFieldClassifier { buckets }
    }

    fn bucket_of(&self, v: &Value) -> ClassId {
        // FNV-1a over the value hash for stability across runs.
        let mut h = Fnv1a::new();
        v.hash(&mut h);
        ClassId((h.finish() % self.buckets as u64) as u32)
    }
}

impl Classifier for FirstFieldClassifier {
    fn classify(&self, o: &PasoObject) -> ClassId {
        match o.field(0) {
            Some(v) => self.bucket_of(v),
            // Zero-arity objects go to bucket 0.
            None => ClassId(0),
        }
    }

    fn classes(&self) -> Vec<ClassId> {
        (0..self.buckets).map(ClassId).collect()
    }

    fn sc_list(&self, sc: &SearchCriterion) -> Vec<ClassId> {
        match sc.template().exact_field(0) {
            Some(v) => vec![self.bucket_of(v)],
            None => self.classes(),
        }
    }
}

/// Classifies by registered type signatures (arity + per-field types).
///
/// Objects whose signature is registered get that signature's class; all
/// others share a catch-all class. `sc-list` lists the classes whose
/// signatures are *compatible* with the criterion's per-field type
/// constraints, plus the catch-all — sound by construction, and tight when
/// the template constrains types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureClassifier {
    signatures: Vec<Vec<ValueType>>,
}

impl SignatureClassifier {
    /// Creates a classifier from the registered signatures. Class `Ci` is
    /// signature `i`; the catch-all class is `C{signatures.len()}`.
    pub fn new(signatures: Vec<Vec<ValueType>>) -> Self {
        SignatureClassifier { signatures }
    }

    fn catch_all(&self) -> ClassId {
        ClassId(self.signatures.len() as u32)
    }

    /// Could a field with this matcher hold a value of type `t`?
    fn matcher_admits(m: &FieldMatcher, t: ValueType) -> bool {
        match m {
            FieldMatcher::Any => true,
            FieldMatcher::AnyOf(mt) => *mt == t,
            FieldMatcher::Exact(v) => v.value_type() == t,
            FieldMatcher::Range { lo, hi } => {
                // A range can only match values whose type appears at one of
                // its bounds (cross-type ordering would admit more, but the
                // value order within a type is dense enough that a sound,
                // reasonably tight answer is: type of either bound, or any
                // type when unbounded on both sides).
                let ty = |b: &std::ops::Bound<Value>| match b {
                    std::ops::Bound::Included(v) | std::ops::Bound::Excluded(v) => {
                        Some(v.value_type())
                    }
                    std::ops::Bound::Unbounded => None,
                };
                match (ty(lo), ty(hi)) {
                    (Some(a), Some(b)) if a == b => a == t,
                    // Mixed or half-open ranges can span types under the
                    // total order; be conservative.
                    _ => true,
                }
            }
            FieldMatcher::Prefix(_) | FieldMatcher::Contains(_) => {
                t == ValueType::Str || t == ValueType::Symbol
            }
            FieldMatcher::Not(_) => true,
            FieldMatcher::TupleOf(_) => t == ValueType::Tuple,
        }
    }

    fn signature_compatible(&self, sc: &SearchCriterion, sig: &[ValueType]) -> bool {
        sc.arity() == sig.len()
            && sc
                .template()
                .matchers()
                .iter()
                .zip(sig)
                .all(|(m, t)| Self::matcher_admits(m, *t))
    }
}

impl Classifier for SignatureClassifier {
    fn classify(&self, o: &PasoObject) -> ClassId {
        let sig: Vec<ValueType> = o.fields().iter().map(Value::value_type).collect();
        for (i, s) in self.signatures.iter().enumerate() {
            if *s == sig {
                return ClassId(i as u32);
            }
        }
        self.catch_all()
    }

    fn classes(&self) -> Vec<ClassId> {
        (0..=self.signatures.len() as u32).map(ClassId).collect()
    }

    fn sc_list(&self, sc: &SearchCriterion) -> Vec<ClassId> {
        let mut out: Vec<ClassId> = self
            .signatures
            .iter()
            .enumerate()
            .filter(|(_, sig)| self.signature_compatible(sc, sig))
            .map(|(i, _)| ClassId(i as u32))
            .collect();
        // Unregistered signatures may also match the criterion.
        out.push(self.catch_all());
        out
    }
}

/// Measures how *tight* a classifier's `sc-list` is for a criterion,
/// against a sample of representative objects.
///
/// The paper requires exhaustiveness (`sc ⊆ ∪ obj-clss⁻¹(Cᵢ)`, checked by
/// property tests) and asks for tightness: every listed class should
/// actually intersect `sc` (`sc ∩ obj-clss⁻¹(Cᵢ) ≠ ∅`). Tightness cannot
/// be decided from the predicate alone, so this estimates it empirically:
/// the fraction of listed classes containing at least one matching sample
/// object, over the classes any matching sample lands in. Returns `1.0`
/// for a perfectly tight list (and when nothing matches at all — an empty
/// obligation), lower when the list over-approximates.
pub fn sc_list_tightness(
    classifier: &dyn Classifier,
    sc: &SearchCriterion,
    samples: &[PasoObject],
) -> f64 {
    let listed = classifier.sc_list(sc);
    if listed.is_empty() {
        return 1.0;
    }
    let mut hit = std::collections::BTreeSet::new();
    let mut any_match = false;
    for o in samples {
        if sc.matches(o) {
            any_match = true;
            hit.insert(classifier.classify(o));
        }
    }
    if !any_match {
        return 1.0;
    }
    let hits = listed.iter().filter(|c| hit.contains(c)).count();
    hits as f64 / listed.len() as f64
}

/// Stable 64-bit hash of a field value at a tuple position.
///
/// FNV-1a over the position followed by the value's `Hash` stream, so the
/// same `(position, value)` pair hashes identically on every machine in an
/// ensemble — the property class summaries need to compare fingerprints
/// computed on different nodes (`std`'s `DefaultHasher` is randomized per
/// process and would break that).
pub fn stable_field_hash(position: usize, v: &Value) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(position);
    v.hash(&mut h);
    h.finish()
}

/// Minimal FNV-1a 64-bit hasher, used for run-to-run stable bucketing
/// (`std`'s `DefaultHasher` is randomized per process).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectId, ProcessId};
    use crate::template::Template;

    fn obj(fields: Vec<Value>) -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(0), 0), fields)
    }

    #[test]
    fn arity_classifier_totality() {
        let c = ArityClassifier::new(3);
        assert_eq!(c.classes().len(), 4);
        assert_eq!(c.classify(&obj(vec![])), ClassId(0));
        assert_eq!(c.classify(&obj(vec![Value::Int(1); 2])), ClassId(2));
        // Arity beyond max folds into the last class.
        assert_eq!(c.classify(&obj(vec![Value::Int(1); 9])), ClassId(3));
    }

    #[test]
    fn arity_sc_list_is_singleton_and_sound() {
        let c = ArityClassifier::new(4);
        let sc = SearchCriterion::from(Template::wildcard(2));
        assert_eq!(c.sc_list(&sc), vec![ClassId(2)]);
        let o = obj(vec![Value::Int(1), Value::Int(2)]);
        assert!(sc.matches(&o));
        assert!(c.sc_list(&sc).contains(&c.classify(&o)));
    }

    #[test]
    fn first_field_exact_gives_single_bucket() {
        let c = FirstFieldClassifier::new(8);
        let o = obj(vec![Value::symbol("task"), Value::Int(1)]);
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("task")),
            FieldMatcher::Any,
        ]));
        let list = c.sc_list(&sc);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0], c.classify(&o));
    }

    #[test]
    fn first_field_wildcard_lists_all_buckets() {
        let c = FirstFieldClassifier::new(5);
        let sc = SearchCriterion::from(Template::wildcard(2));
        assert_eq!(c.sc_list(&sc).len(), 5);
    }

    #[test]
    fn first_field_stable_across_instances() {
        let a = FirstFieldClassifier::new(16);
        let b = FirstFieldClassifier::new(16);
        let o = obj(vec![Value::from("hello")]);
        assert_eq!(a.classify(&o), b.classify(&o));
    }

    #[test]
    fn first_field_zero_arity() {
        let c = FirstFieldClassifier::new(4);
        assert_eq!(c.classify(&obj(vec![])), ClassId(0));
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn first_field_rejects_zero_buckets() {
        let _ = FirstFieldClassifier::new(0);
    }

    #[test]
    fn signature_classifier_routes_registered() {
        let c = SignatureClassifier::new(vec![
            vec![ValueType::Symbol, ValueType::Int],
            vec![ValueType::Str],
        ]);
        assert_eq!(
            c.classify(&obj(vec![Value::symbol("t"), Value::Int(1)])),
            ClassId(0)
        );
        assert_eq!(c.classify(&obj(vec![Value::from("x")])), ClassId(1));
        // Unregistered → catch-all.
        assert_eq!(c.classify(&obj(vec![Value::Bool(true)])), ClassId(2));
        assert_eq!(c.classes(), vec![ClassId(0), ClassId(1), ClassId(2)]);
    }

    #[test]
    fn signature_sc_list_filters_incompatible() {
        let c = SignatureClassifier::new(vec![
            vec![ValueType::Symbol, ValueType::Int],
            vec![ValueType::Symbol, ValueType::Str],
        ]);
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("t")),
            FieldMatcher::AnyOf(ValueType::Int),
        ]));
        let list = c.sc_list(&sc);
        assert!(list.contains(&ClassId(0)));
        assert!(!list.contains(&ClassId(1)));
        assert!(list.contains(&ClassId(2))); // catch-all always present
    }

    #[test]
    fn signature_sc_list_sound_for_string_patterns() {
        let c = SignatureClassifier::new(vec![vec![ValueType::Str], vec![ValueType::Int]]);
        let sc = SearchCriterion::from(Template::new(vec![FieldMatcher::Contains("x".into())]));
        let list = c.sc_list(&sc);
        let o = obj(vec![Value::from("axe")]);
        assert!(sc.matches(&o));
        assert!(list.contains(&c.classify(&o)));
        assert!(!list.contains(&ClassId(1)));
    }

    #[test]
    fn tightness_is_one_for_singleton_lists() {
        let c = ArityClassifier::new(4);
        let sc = SearchCriterion::from(Template::wildcard(2));
        let samples = vec![obj(vec![Value::Int(1), Value::Int(2)])];
        assert_eq!(sc_list_tightness(&c, &sc, &samples), 1.0);
    }

    #[test]
    fn tightness_penalizes_over_approximation() {
        // A wildcard-first criterion forces FirstFieldClassifier to list
        // every bucket, but the matching samples live in few of them.
        let c = FirstFieldClassifier::new(8);
        let sc = SearchCriterion::from(Template::wildcard(1));
        let samples = vec![obj(vec![Value::Int(1)]), obj(vec![Value::Int(2)])];
        let t = sc_list_tightness(&c, &sc, &samples);
        assert!(
            t <= 2.0 / 8.0 + 1e-9,
            "at most 2 of 8 buckets can be hit: {t}"
        );
        assert!(t > 0.0);
    }

    #[test]
    fn tightness_vacuous_when_nothing_matches() {
        let c = ArityClassifier::new(4);
        let sc = SearchCriterion::from(Template::exact(vec![Value::Int(9)]));
        let samples = vec![obj(vec![Value::Int(1), Value::Int(2)])];
        assert_eq!(sc_list_tightness(&c, &sc, &samples), 1.0);
    }

    // sc-list soundness as a property, over all three classifiers.
    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                any::<i64>().prop_map(Value::Int),
                any::<bool>().prop_map(Value::Bool),
                "[a-z]{0,6}".prop_map(Value::from),
                "[a-z]{0,4}".prop_map(Value::symbol),
                proptest::collection::vec(any::<u8>(), 0..4).prop_map(Value::Bytes),
                (-1.0e6f64..1.0e6).prop_map(Value::Float),
            ]
        }

        fn arb_object() -> impl Strategy<Value = PasoObject> {
            proptest::collection::vec(arb_value(), 0..4)
                .prop_map(|fs| PasoObject::new(ObjectId::new(ProcessId(0), 0), fs))
        }

        fn arb_matcher() -> impl Strategy<Value = FieldMatcher> {
            prop_oneof![
                Just(FieldMatcher::Any),
                arb_value().prop_map(FieldMatcher::Exact),
                Just(FieldMatcher::AnyOf(ValueType::Int)),
                Just(FieldMatcher::AnyOf(ValueType::Str)),
                (any::<i64>(), any::<i64>()).prop_map(|(a, b)| {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    FieldMatcher::between(lo, hi)
                }),
                "[a-z]{0,3}".prop_map(FieldMatcher::Prefix),
                "[a-z]{0,3}".prop_map(FieldMatcher::Contains),
            ]
        }

        fn arb_criterion() -> impl Strategy<Value = SearchCriterion> {
            proptest::collection::vec(arb_matcher(), 0..4)
                .prop_map(|ms| SearchCriterion::from(Template::new(ms)))
        }

        proptest! {
            #[test]
            fn sc_list_soundness_all_classifiers(o in arb_object(), sc in arb_criterion()) {
                let classifiers: Vec<Box<dyn Classifier>> = vec![
                    Box::new(ArityClassifier::new(5)),
                    Box::new(FirstFieldClassifier::new(7)),
                    Box::new(SignatureClassifier::new(vec![
                        vec![ValueType::Int],
                        vec![ValueType::Str, ValueType::Int],
                        vec![ValueType::Symbol, ValueType::Int, ValueType::Int],
                    ])),
                ];
                for c in &classifiers {
                    let class = c.classify(&o);
                    // Totality: classify lands in classes().
                    prop_assert!(c.classes().contains(&class));
                    // Soundness: matching objects are in a listed class.
                    if sc.matches(&o) {
                        prop_assert!(
                            c.sc_list(&sc).contains(&class),
                            "classifier {:?}: object {} matches {} but class {} not in sc-list {:?}",
                            c, o, sc, class, c.sc_list(&sc)
                        );
                    }
                }
            }

            #[test]
            fn sc_list_subset_of_classes(sc in arb_criterion()) {
                let c = SignatureClassifier::new(vec![vec![ValueType::Int]]);
                let all = c.classes();
                for cls in c.sc_list(&sc) {
                    prop_assert!(all.contains(&cls));
                }
            }
        }
    }
}
