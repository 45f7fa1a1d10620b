//! Ordered-index store — the "binary search tree for range queries" of §5.
//!
//! Criteria of shape *exact prefix, one range, trailing wildcards*
//! ([`QueryKind::Range`]) are served by positioning in a B-tree index in
//! `O(log ℓ)` and scanning only the in-range segment. Dictionary queries
//! are `O(log ℓ)` too; arbitrary patterns fall back to a linear scan.

use paso_types::{PasoObject, QueryKind, SearchCriterion};

use crate::entries::Entries;
use crate::index::{dictionary_key, OrderedIndex};
use crate::store::{ClassStore, Cost, Rank, Snapshot, SnapshotError, StoreKind};

/// A B-tree-indexed FIFO store ordered by the full field tuple.
///
/// # Examples
///
/// ```
/// use paso_storage::{ClassStore, OrderedStore};
/// use paso_types::{FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};
///
/// let mut s = OrderedStore::new();
/// for n in 0..100 {
///     s.store(PasoObject::new(ObjectId::new(ProcessId(0), n), vec![Value::Int(n as i64)]));
/// }
/// let sc = SearchCriterion::from(Template::new(vec![FieldMatcher::between(40, 49)]));
/// let (found, cost) = s.mem_read(&sc);
/// assert_eq!(found.unwrap().field(0), Some(&Value::Int(40)));
/// assert!(cost.0 < 30, "range query must not scan the whole store");
/// ```
#[derive(Debug, Clone, Default)]
pub struct OrderedStore {
    entries: Entries,
    index: OrderedIndex,
}

impl OrderedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        OrderedStore::default()
    }

    fn log_len(&self) -> u64 {
        (self.entries.len().max(1) as f64).log2().ceil() as u64 + 1
    }

    /// Oldest match + cost, using the index where the shape permits. An
    /// empty store proves a miss for free (see the miss-accounting rule on
    /// [`ClassStore`]).
    fn find_oldest(&self, sc: &SearchCriterion) -> (Option<Rank>, Cost) {
        if self.entries.len() == 0 {
            return (None, Cost::ZERO);
        }
        if let Some(key) = dictionary_key(sc) {
            return (self.index.oldest(key), Cost(self.log_len()));
        }
        if sc.query_kind() == QueryKind::Range {
            if let Some((rank, inspected)) = self.index.oldest_in_range(&self.entries, sc) {
                return (rank, Cost(self.log_len() + inspected));
            }
        }
        self.entries.find_oldest(sc)
    }
}

impl ClassStore for OrderedStore {
    fn store(&mut self, obj: PasoObject) -> Cost {
        let key = obj.fields().to_vec();
        let rank = self.entries.push(obj);
        self.index.insert(key, rank);
        Cost(self.log_len())
    }

    fn store_ranked(&mut self, obj: PasoObject, rank: Rank) -> Cost {
        let key = obj.fields().to_vec();
        if let Some(old) = self.entries.push_ranked(obj, rank) {
            self.index.remove(old.fields().to_vec(), rank);
        }
        self.index.insert(key, rank);
        Cost(self.log_len())
    }

    fn mem_read(&self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
        let (rank, cost) = self.find_oldest(sc);
        (rank.and_then(|s| self.entries.get(s).cloned()), cost)
    }

    fn remove(&mut self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
        let (rank, cost) = self.find_oldest(sc);
        match rank {
            Some(s) => {
                let obj = self.entries.remove(s);
                if let Some(o) = &obj {
                    self.index.remove(o.fields().to_vec(), s);
                }
                (obj, cost + Cost(self.log_len()))
            }
            None => (None, cost),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn snapshot(&self) -> Snapshot {
        self.entries.snapshot()
    }

    fn snapshot_len(&self) -> usize {
        self.entries.snapshot_len()
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        self.entries.restore(snapshot)?;
        self.index = OrderedIndex::build(&self.entries);
        Ok(())
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Ordered
    }

    fn objects(&self) -> Vec<PasoObject> {
        self.entries.objects()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{FieldMatcher, ObjectId, ProcessId, Template, Value};
    use std::ops::Bound;

    fn obj(seq: u64, fields: Vec<Value>) -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(0), seq), fields)
    }

    fn fill_ints(s: &mut OrderedStore, n: i64) {
        for i in 0..n {
            s.store(obj(i as u64, vec![Value::symbol("k"), Value::Int(i)]));
        }
    }

    fn range_sc(lo: i64, hi: i64) -> SearchCriterion {
        SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("k")),
            FieldMatcher::between(lo, hi),
        ]))
    }

    #[test]
    fn range_query_finds_in_bounds() {
        let mut s = OrderedStore::new();
        fill_ints(&mut s, 100);
        let (found, _) = s.mem_read(&range_sc(50, 60));
        let v = found.unwrap().field(1).unwrap().as_int().unwrap();
        assert!((50..=60).contains(&v));
    }

    #[test]
    fn range_query_cost_is_sublinear() {
        let mut s = OrderedStore::new();
        fill_ints(&mut s, 1024);
        let (_, cost) = s.mem_read(&range_sc(500, 504));
        // log2(1024)+1 positioning + ≤5 inspected.
        assert!(cost.0 <= 20, "cost {cost} should be ~log n + range width");
    }

    #[test]
    fn range_query_returns_oldest_in_range() {
        let mut s = OrderedStore::new();
        // Two objects with the same key field, inserted out of value order.
        s.store(obj(0, vec![Value::symbol("k"), Value::Int(9)]));
        s.store(obj(1, vec![Value::symbol("k"), Value::Int(3)]));
        s.store(obj(2, vec![Value::symbol("k"), Value::Int(5)]));
        // All three are in range; the oldest (seq 0, value 9) must win even
        // though value 3 sorts first in the index.
        let (got, _) = s.remove(&range_sc(0, 10));
        assert_eq!(got.unwrap().id().seq, 0);
    }

    #[test]
    fn excluded_bounds_respected() {
        let mut s = OrderedStore::new();
        fill_ints(&mut s, 10);
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("k")),
            FieldMatcher::Range {
                lo: Bound::Excluded(Value::Int(3)),
                hi: Bound::Excluded(Value::Int(6)),
            },
        ]));
        let mut seen = Vec::new();
        let mut t = s.clone();
        while let (Some(o), _) = t.remove(&sc) {
            seen.push(o.field(1).unwrap().as_int().unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![4, 5]);
    }

    #[test]
    fn unbounded_ranges() {
        let mut s = OrderedStore::new();
        fill_ints(&mut s, 10);
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("k")),
            FieldMatcher::at_least(8),
        ]));
        let (found, _) = s.mem_read(&sc);
        assert!(found.unwrap().field(1).unwrap().as_int().unwrap() >= 8);

        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("k")),
            FieldMatcher::at_most(1),
        ]));
        let (found, _) = s.mem_read(&sc);
        assert!(found.unwrap().field(1).unwrap().as_int().unwrap() <= 1);
    }

    #[test]
    fn prefix_isolation() {
        let mut s = OrderedStore::new();
        s.store(obj(0, vec![Value::symbol("a"), Value::Int(5)]));
        s.store(obj(1, vec![Value::symbol("b"), Value::Int(5)]));
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("a")),
            FieldMatcher::between(0, 10),
        ]));
        let (found, _) = s.mem_read(&sc);
        assert_eq!(found.unwrap().field(0), Some(&Value::symbol("a")));
        // Removing from prefix "a" must not touch "b".
        let mut t = s.clone();
        t.remove(&sc);
        assert_eq!(t.len(), 1);
        assert_eq!(t.objects()[0].field(0), Some(&Value::symbol("b")));
    }

    #[test]
    fn dictionary_query_via_index() {
        let mut s = OrderedStore::new();
        fill_ints(&mut s, 512);
        let sc = SearchCriterion::from(Template::exact(vec![Value::symbol("k"), Value::Int(300)]));
        let (found, cost) = s.mem_read(&sc);
        assert!(found.is_some());
        assert!(
            cost.0 <= 11,
            "dictionary lookup should be O(log n), was {cost}"
        );
    }

    #[test]
    fn scan_fallback_for_patterns() {
        let mut s = OrderedStore::new();
        s.store(obj(0, vec![Value::from("needle in haystack")]));
        let sc =
            SearchCriterion::from(Template::new(vec![FieldMatcher::Contains("needle".into())]));
        let (found, _) = s.mem_read(&sc);
        assert!(found.is_some());
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let mut s = OrderedStore::new();
        fill_ints(&mut s, 20);
        for _ in 0..20 {
            let (got, _) = s.remove(&range_sc(0, 100));
            assert!(got.is_some());
        }
        assert!(s.is_empty());
        assert!(s.index.is_empty());
        let (none, _) = s.mem_read(&range_sc(0, 100));
        assert!(none.is_none());
    }

    #[test]
    fn restore_rebuilds_index() {
        let mut s = OrderedStore::new();
        fill_ints(&mut s, 50);
        let snap = s.snapshot();
        let mut t = OrderedStore::new();
        t.restore(&snap).unwrap();
        let (found, cost) = t.mem_read(&range_sc(10, 12));
        assert!(found.is_some());
        assert!(cost.0 <= 15);
        assert_eq!(t.index.len(), 50);
    }

    #[test]
    fn kind_is_ordered() {
        assert_eq!(OrderedStore::new().kind(), StoreKind::Ordered);
    }
}
