//! # paso-storage
//!
//! Per-class associative object stores for PASO memory servers.
//!
//! §4.2 of the paper defines the three atomic server operations (`store`,
//! `mem-read`, `remove`) with costs `I(·)`, `Q(·)`, `D(·)`; §5 observes that
//! the right data structure depends on the class's query shape:
//!
//! | Query shape | Structure | `Q(ℓ)` |
//! |---|---|---|
//! | dictionary | [`HashStore`] | `O(1)` |
//! | range | [`OrderedStore`] | `O(log ℓ)` |
//! | pattern | [`ScanStore`] | `O(ℓ)` |
//!
//! [`MultiStore`] keeps both indexes. Every store answers the shapes its
//! index cannot serve with one shared oldest-first scan. `Q(ℓ)` counts
//! probes, and the scan still counts every entry it passes, so it stays
//! `O(ℓ)`; a per-entry field signature only lowers the time a probe takes
//! (see [`ScanStore`]).
//!
//! All stores implement the [`ClassStore`] trait: FIFO (`remove` returns
//! the *oldest* match), cost-accounted, and snapshottable for `g-join`
//! state transfer (`time(g-join(C)) = O(ℓ)`).
//!
//! # Examples
//!
//! ```
//! use paso_storage::{ClassStore, HashStore};
//! use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};
//!
//! let mut store = HashStore::new();
//! store.store(PasoObject::new(
//!     ObjectId::new(ProcessId(1), 0),
//!     vec![Value::symbol("task"), Value::Int(1)],
//! ));
//!
//! let sc = SearchCriterion::from(Template::exact(vec![Value::symbol("task"), Value::Int(1)]));
//! let (obj, cost) = store.remove(&sc);
//! assert!(obj.is_some());
//! assert!(cost.0 >= 1);
//! assert!(store.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod auto;
mod entries;
#[cfg(test)]
mod filter_differential;
mod hash;
mod index;
mod multi;
mod ordered;
mod scan;
mod signature;
mod store;

pub use auto::{store_for, AutoStore};
pub use hash::HashStore;
pub use multi::MultiStore;
pub use ordered::OrderedStore;
pub use scan::ScanStore;
pub use store::{ClassStore, Cost, Rank, Snapshot, SnapshotError, StoreKind};

#[cfg(test)]
mod differential_tests {
    //! The scan store is the executable specification: hash and ordered
    //! stores must agree with it on every operation sequence.

    use super::*;
    use paso_types::{
        FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value,
    };
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Store(i64, i64),
        Read(ScShape),
        Remove(ScShape),
    }

    #[derive(Debug, Clone)]
    enum ScShape {
        Exact(i64, i64),
        Range(i64, i64, i64),
        Wild,
    }

    fn to_sc(shape: &ScShape) -> SearchCriterion {
        match shape {
            ScShape::Exact(a, b) => {
                SearchCriterion::from(Template::exact(vec![Value::Int(*a), Value::Int(*b)]))
            }
            ScShape::Range(a, lo, hi) => {
                let (lo, hi) = if lo <= hi { (*lo, *hi) } else { (*hi, *lo) };
                SearchCriterion::from(Template::new(vec![
                    FieldMatcher::Exact(Value::Int(*a)),
                    FieldMatcher::between(lo, hi),
                ]))
            }
            ScShape::Wild => SearchCriterion::from(Template::wildcard(2)),
        }
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let small = -3i64..3;
        prop_oneof![
            (small.clone(), small.clone()).prop_map(|(a, b)| Op::Store(a, b)),
            (small.clone(), small.clone()).prop_map(|(a, b)| Op::Read(ScShape::Exact(a, b))),
            (small.clone(), small.clone(), small.clone())
                .prop_map(|(a, lo, hi)| Op::Read(ScShape::Range(a, lo, hi))),
            Just(Op::Read(ScShape::Wild)),
            (small.clone(), small.clone()).prop_map(|(a, b)| Op::Remove(ScShape::Exact(a, b))),
            (small.clone(), small.clone(), small)
                .prop_map(|(a, lo, hi)| Op::Remove(ScShape::Range(a, lo, hi))),
            Just(Op::Remove(ScShape::Wild)),
        ]
    }

    fn run_diff(ops: Vec<Op>, mut candidate: impl ClassStore) {
        let mut reference = ScanStore::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Store(a, b) => {
                    let o = PasoObject::new(
                        ObjectId::new(ProcessId(0), next),
                        vec![Value::Int(a), Value::Int(b)],
                    );
                    next += 1;
                    reference.store(o.clone());
                    candidate.store(o);
                }
                Op::Read(shape) => {
                    let sc = to_sc(&shape);
                    let (r, _) = reference.mem_read(&sc);
                    let (c, _) = candidate.mem_read(&sc);
                    // mem_read may return ANY match; only presence must agree.
                    assert_eq!(r.is_some(), c.is_some(), "read presence diverged on {sc}");
                }
                Op::Remove(shape) => {
                    let sc = to_sc(&shape);
                    let (r, _) = reference.remove(&sc);
                    let (c, _) = candidate.remove(&sc);
                    // remove must return the OLDEST match: exact agreement.
                    assert_eq!(
                        r.as_ref().map(|o| o.id()),
                        c.as_ref().map(|o| o.id()),
                        "remove diverged on {sc}"
                    );
                }
            }
        }
        assert_eq!(reference.len(), candidate.len());
        assert_eq!(
            reference
                .objects()
                .iter()
                .map(|o| o.id())
                .collect::<Vec<_>>(),
            candidate
                .objects()
                .iter()
                .map(|o| o.id())
                .collect::<Vec<_>>()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn hash_store_matches_scan_reference(ops in proptest::collection::vec(arb_op(), 0..60)) {
            run_diff(ops, HashStore::new());
        }

        #[test]
        fn ordered_store_matches_scan_reference(ops in proptest::collection::vec(arb_op(), 0..60)) {
            run_diff(ops, OrderedStore::new());
        }

        #[test]
        fn multi_store_matches_scan_reference(ops in proptest::collection::vec(arb_op(), 0..60)) {
            run_diff(ops, MultiStore::new());
        }

        #[test]
        fn snapshot_round_trip_all_stores(ops in proptest::collection::vec(arb_op(), 0..40)) {
            for kind in [StoreKind::Hash, StoreKind::Ordered, StoreKind::Scan, StoreKind::Multi] {
                let mut s = AutoStore::for_kind(kind);
                let mut next = 0u64;
                for op in &ops {
                    if let Op::Store(a, b) = op {
                        s.store(PasoObject::new(
                            ObjectId::new(ProcessId(0), next),
                            vec![Value::Int(*a), Value::Int(*b)],
                        ));
                        next += 1;
                    }
                }
                let snap = s.snapshot();
                let mut t = AutoStore::for_kind(kind);
                t.restore(&snap).unwrap();
                prop_assert_eq!(s.len(), t.len());
                prop_assert_eq!(s.objects(), t.objects());
            }
        }
    }
}
