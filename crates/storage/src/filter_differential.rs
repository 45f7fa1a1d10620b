//! The field-signature filter against a plain scan.
//!
//! `Entries::find_oldest` skips the template comparison for entries whose
//! signature lacks a bit of the criterion's exact fields. These properties
//! check that it returns exactly the `(rank, Cost)` of an unfiltered
//! oldest-first loop, and that every store kind still answers with the
//! oldest match, over values chosen where hashing and equality could part
//! ways: `0.0`/`-0.0`, NaN, `Str`/`Symbol` of one text, nested tuples and
//! arity mismatches, under every matcher kind, removals, rank collisions
//! and snapshot round trips.

use std::ops::Bound;

use paso_types::{
    FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value, ValueType,
};
use proptest::prelude::*;

use crate::entries::Entries;
use crate::{AutoStore, ClassStore, Cost, Rank, StoreKind};

const KINDS: [StoreKind; 4] = [
    StoreKind::Hash,
    StoreKind::Ordered,
    StoreKind::Scan,
    StoreKind::Multi,
];

/// Draws one of `n` choices.
fn pick(rng: &mut TestRng, n: u64) -> u64 {
    rng.below(n)
}

/// Values whose hashing and equality could part ways, nested up to
/// `depth` tuples deep.
#[derive(Debug, Clone, Copy)]
struct Values {
    depth: u32,
}

impl Strategy for Values {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        const TEXT: [&str; 3] = ["", "a", "ab"];
        const FLOATS: [f64; 4] = [0.0, -0.0, f64::NAN, 1.5];
        let kinds = if self.depth == 0 { 6 } else { 7 };
        match pick(rng, kinds) {
            0 => Value::Int(pick(rng, 5) as i64 - 2),
            1 => Value::Float(FLOATS[pick(rng, 4) as usize]),
            2 => Value::Bool(pick(rng, 2) == 1),
            3 => Value::from(TEXT[pick(rng, 3) as usize]),
            4 => Value::symbol(TEXT[pick(rng, 3) as usize]),
            5 => Value::Bytes((0..pick(rng, 2)).map(|_| pick(rng, 2) as u8).collect()),
            _ => {
                let inner = Values {
                    depth: self.depth - 1,
                };
                Value::Tuple((0..pick(rng, 3)).map(|_| inner.generate(rng)).collect())
            }
        }
    }
}

fn arb_value() -> Values {
    Values { depth: 2 }
}

fn arb_fields() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(arb_value(), 0..4)
}

/// Every `FieldMatcher` kind, `Not` and `TupleOf` nested up to `depth`.
#[derive(Debug, Clone, Copy)]
struct Matchers {
    depth: u32,
}

impl Strategy for Matchers {
    type Value = FieldMatcher;

    fn generate(&self, rng: &mut TestRng) -> FieldMatcher {
        const TYPES: [ValueType; 7] = [
            ValueType::Int,
            ValueType::Float,
            ValueType::Bool,
            ValueType::Str,
            ValueType::Bytes,
            ValueType::Symbol,
            ValueType::Tuple,
        ];
        let bound = |rng: &mut TestRng| match pick(rng, 3) {
            0 => Bound::Included(arb_value().generate(rng)),
            1 => Bound::Excluded(arb_value().generate(rng)),
            _ => Bound::Unbounded,
        };
        let inner = Matchers {
            depth: self.depth.saturating_sub(1),
        };
        // Exact matchers drive the filter, so they get four of the eleven
        // draws; nesting stops at depth 0.
        let kinds = if self.depth == 0 { 9 } else { 11 };
        match pick(rng, kinds) {
            0 => FieldMatcher::Any,
            1 => FieldMatcher::AnyOf(TYPES[pick(rng, 7) as usize]),
            2..=5 => FieldMatcher::Exact(arb_value().generate(rng)),
            6 => FieldMatcher::Range {
                lo: bound(rng),
                hi: bound(rng),
            },
            7 => FieldMatcher::Prefix(["", "a"][pick(rng, 2) as usize].into()),
            8 => FieldMatcher::Contains(["b", "a"][pick(rng, 2) as usize].into()),
            9 => FieldMatcher::Not(Box::new(inner.generate(rng))),
            _ => FieldMatcher::TupleOf((0..pick(rng, 3)).map(|_| inner.generate(rng)).collect()),
        }
    }
}

fn arb_criterion() -> impl Strategy<Value = SearchCriterion> {
    proptest::collection::vec(Matchers { depth: 2 }, 0..4)
        .prop_map(|ms| SearchCriterion::from(Template::new(ms)))
}

#[derive(Debug, Clone)]
enum Op {
    Store(Vec<Value>),
    /// A small rank space, so ranks collide.
    StoreRanked(Vec<Value>, u64, u16),
    Remove(SearchCriterion),
    Restore,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_fields().prop_map(Op::Store),
        2 => (arb_fields(), 0u64..6, 0u16..2).prop_map(|(f, t, o)| Op::StoreRanked(f, t, o)),
        2 => arb_criterion().prop_map(Op::Remove),
        1 => Just(Op::Restore),
    ]
}

/// The unfiltered scan `find_oldest` must agree with.
fn reference<'a>(
    objects: impl Iterator<Item = (Rank, &'a PasoObject)>,
    sc: &SearchCriterion,
) -> (Option<Rank>, Cost) {
    let mut inspected = 0;
    for (rank, obj) in objects {
        inspected += 1;
        if sc.matches(obj) {
            return (Some(rank), Cost(inspected));
        }
    }
    (None, Cost(inspected))
}

/// The oldest match in a store and its scan cost, from its objects alone.
fn store_reference(store: &AutoStore, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
    let objects = store.objects();
    let ranked = objects.iter().enumerate().map(|(i, o)| (Rank(i as u64), o));
    let (rank, cost) = reference(ranked, sc);
    (rank.map(|r| objects[r.0 as usize].clone()), cost)
}

fn check_entries(e: &Entries, probes: &[SearchCriterion]) -> Result<(), TestCaseError> {
    prop_assert_eq!(e.snapshot_len(), e.snapshot().len());
    for sc in probes {
        prop_assert_eq!(e.find_oldest(sc), reference(e.iter(), sc), "{}", sc);
    }
    Ok(())
}

fn check_store(store: &AutoStore, probes: &[SearchCriterion]) -> Result<(), TestCaseError> {
    let kind = store.kind();
    prop_assert_eq!(store.snapshot_len(), store.snapshot().len(), "{}", kind);
    for sc in probes {
        let (found, cost) = store.mem_read(sc);
        let (expected, expected_cost) = store_reference(store, sc);
        prop_assert_eq!(&found, &expected, "{} on {}", kind, sc);
        // Index-served shapes have their own cost; a scan must charge
        // exactly what the unfiltered loop inspects.
        if kind == StoreKind::Scan || sc.query_kind() == paso_types::QueryKind::Scan {
            prop_assert_eq!(cost, expected_cost, "{} on {}", kind, sc);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn filtered_scan_agrees_with_the_plain_loop(
        ops in proptest::collection::vec(arb_op(), 0..24),
        probes in proptest::collection::vec(arb_criterion(), 1..8),
    ) {
        let mut e = Entries::default();
        let mut stores: Vec<AutoStore> = KINDS.iter().map(|&k| AutoStore::for_kind(k)).collect();
        for (seq, op) in ops.into_iter().enumerate() {
            let obj = |fields: Vec<Value>| PasoObject::new(ObjectId::new(ProcessId(0), seq as u64), fields);
            match op {
                Op::Store(fields) => {
                    e.push(obj(fields.clone()));
                    for s in &mut stores {
                        s.store(obj(fields.clone()));
                    }
                }
                Op::StoreRanked(fields, time, origin) => {
                    let rank = Rank::new(time, origin);
                    e.push_ranked(obj(fields.clone()), rank);
                    for s in &mut stores {
                        s.store_ranked(obj(fields.clone()), rank);
                    }
                }
                Op::Remove(sc) => {
                    let (rank, _) = reference(e.iter(), &sc);
                    let removed = rank.and_then(|r| e.remove(r));
                    for s in &mut stores {
                        let (expected, _) = store_reference(s, &sc);
                        prop_assert_eq!(s.remove(&sc).0, expected, "{} on {}", s.kind(), &sc);
                    }
                    if let Some(o) = removed {
                        prop_assert!(sc.matches(&o));
                    }
                }
                Op::Restore => {
                    let mut restored = Entries::default();
                    restored.restore(&e.snapshot()).unwrap();
                    for sc in &probes {
                        prop_assert_eq!(restored.find_oldest(sc), e.find_oldest(sc), "{}", sc);
                    }
                    e = restored;
                    for s in &mut stores {
                        let mut restored = AutoStore::for_kind(s.kind());
                        restored.restore(&s.snapshot()).unwrap();
                        for sc in &probes {
                            prop_assert_eq!(restored.mem_read(sc), s.mem_read(sc), "{} on {}", s.kind(), sc);
                        }
                        *s = restored;
                    }
                }
            }
            check_entries(&e, &probes)?;
            for s in &stores {
                check_store(s, &probes)?;
            }
        }
        for s in &stores {
            prop_assert_eq!(s.objects(), e.objects(), "{}", s.kind());
        }
    }
}
