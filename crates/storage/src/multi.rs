//! Multi-index store — "In fact, several such data structures may be used
//! for a single class" (§5).
//!
//! Maintains a hash index (dictionary queries in O(1)) *and* an ordered
//! index (range queries in O(log ℓ)) over one shared set of entries, so a
//! class serving mixed query shapes pays the best `Q(·)` for each, at the
//! price of a higher `I(·)`/`D(·)` (both indexes must be maintained — the
//! §5 trade-off made concrete and measurable).

use paso_types::{PasoObject, QueryKind, SearchCriterion, Value};

use crate::entries::Entries;
use crate::index::{dictionary_key, HashIndex, OrderedIndex};
use crate::store::{ClassStore, Cost, Rank, Snapshot, SnapshotError, StoreKind};

/// A store with both hash and ordered indexes over the same entries.
///
/// # Examples
///
/// ```
/// use paso_storage::{ClassStore, MultiStore};
/// use paso_types::{FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};
///
/// let mut s = MultiStore::new();
/// for i in 0..100 {
///     s.store(PasoObject::new(ObjectId::new(ProcessId(0), i), vec![Value::Int(i as i64)]));
/// }
/// // Dictionary query: O(1).
/// let (found, cost) = s.mem_read(&SearchCriterion::from(Template::exact(vec![Value::Int(99)])));
/// assert!(found.is_some());
/// assert_eq!(cost.0, 1);
/// // Range query: O(log ℓ + matches).
/// let sc = SearchCriterion::from(Template::new(vec![FieldMatcher::between(40, 42)]));
/// let (found, cost) = s.mem_read(&sc);
/// assert!(found.is_some());
/// assert!(cost.0 < 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultiStore {
    entries: Entries,
    hash: HashIndex,
    ordered: OrderedIndex,
}

impl MultiStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MultiStore::default()
    }

    fn log_len(&self) -> u64 {
        (self.entries.len().max(1) as f64).log2().ceil() as u64 + 1
    }

    fn index_insert(&mut self, fields: Vec<Value>, rank: Rank) {
        self.hash.insert(fields.clone(), rank);
        self.ordered.insert(fields, rank);
    }

    fn index_remove(&mut self, obj: &PasoObject, rank: Rank) {
        self.hash.remove(obj.fields(), rank);
        self.ordered.remove(obj.fields().to_vec(), rank);
    }

    /// Oldest match + cost via the best index for the shape. An empty
    /// store proves a miss for free (see the miss-accounting rule on
    /// [`ClassStore`]).
    fn find_oldest(&self, sc: &SearchCriterion) -> (Option<Rank>, Cost) {
        if self.entries.len() == 0 {
            return (None, Cost::ZERO);
        }
        if let Some(key) = dictionary_key(sc) {
            return (self.hash.oldest(&key), Cost(1));
        }
        if sc.query_kind() == QueryKind::Range {
            if let Some((rank, inspected)) = self.ordered.oldest_in_range(&self.entries, sc) {
                return (rank, Cost(self.log_len() + inspected));
            }
        }
        self.entries.find_oldest(sc)
    }
}

impl ClassStore for MultiStore {
    fn store(&mut self, obj: PasoObject) -> Cost {
        let key = obj.fields().to_vec();
        let rank = self.entries.push(obj);
        self.index_insert(key, rank);
        // Both indexes are maintained: I = O(1) + O(log ℓ).
        Cost(1 + self.log_len())
    }

    fn store_ranked(&mut self, obj: PasoObject, rank: Rank) -> Cost {
        let key = obj.fields().to_vec();
        if let Some(old) = self.entries.push_ranked(obj, rank) {
            self.index_remove(&old, rank);
        }
        self.index_insert(key, rank);
        Cost(1 + self.log_len())
    }

    fn mem_read(&self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
        let (rank, cost) = self.find_oldest(sc);
        (rank.and_then(|r| self.entries.get(r).cloned()), cost)
    }

    fn remove(&mut self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
        let (rank, cost) = self.find_oldest(sc);
        match rank {
            Some(r) => {
                let obj = self.entries.remove(r);
                if let Some(o) = &obj {
                    self.index_remove(o, r);
                }
                (obj, cost + Cost(1 + self.log_len()))
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
        self.hash = HashIndex::build(&self.entries);
        self.ordered = OrderedIndex::build(&self.entries);
        Ok(())
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.hash.clear();
        self.ordered.clear();
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Multi
    }

    fn objects(&self) -> Vec<PasoObject> {
        self.entries.objects()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{FieldMatcher, ObjectId, ProcessId, Template};

    fn obj(seq: u64, k: i64, v: i64) -> PasoObject {
        PasoObject::new(
            ObjectId::new(ProcessId(0), seq),
            vec![Value::symbol("m"), Value::Int(k), Value::Int(v)],
        )
    }

    fn fill(n: i64) -> MultiStore {
        let mut s = MultiStore::new();
        for i in 0..n {
            s.store(obj(i as u64, i, i * 10));
        }
        s
    }

    #[test]
    fn dictionary_cost_is_constant() {
        let s = fill(1000);
        let sc = SearchCriterion::from(Template::exact(vec![
            Value::symbol("m"),
            Value::Int(997),
            Value::Int(9970),
        ]));
        let (found, cost) = s.mem_read(&sc);
        assert!(found.is_some());
        assert_eq!(cost, Cost(1));
    }

    #[test]
    fn range_cost_is_logarithmic() {
        let s = fill(1024);
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("m")),
            FieldMatcher::between(500, 504),
            FieldMatcher::Any,
        ]));
        let (found, cost) = s.mem_read(&sc);
        assert!(found.is_some());
        assert!(cost.0 <= 20, "range via ordered index, was {cost}");
    }

    #[test]
    fn insert_cost_reflects_both_indexes() {
        let mut s = fill(1024);
        let cost = s.store(obj(5000, 5000, 0));
        assert!(cost.0 > 1, "must pay for the ordered index too");
    }

    #[test]
    fn remove_keeps_both_indexes_in_sync() {
        let mut s = fill(50);
        let sc_all = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("m")),
            FieldMatcher::Any,
            FieldMatcher::Any,
        ]));
        for expected in 0..50i64 {
            let (got, _) = s.remove(&sc_all);
            assert_eq!(
                got.unwrap().field(1).unwrap().as_int().unwrap(),
                expected,
                "oldest-first order"
            );
        }
        assert!(s.is_empty());
        assert!(s.hash.is_empty());
        assert!(s.ordered.is_empty());
    }

    #[test]
    fn restore_rebuilds_both_indexes() {
        let s = fill(64);
        let snap = s.snapshot();
        let mut t = MultiStore::new();
        t.restore(&snap).unwrap();
        assert_eq!(t.len(), 64);
        let dict = SearchCriterion::from(Template::exact(vec![
            Value::symbol("m"),
            Value::Int(10),
            Value::Int(100),
        ]));
        assert_eq!(t.mem_read(&dict).1, Cost(1));
        let range = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("m")),
            FieldMatcher::at_least(60),
            FieldMatcher::Any,
        ]));
        assert!(t.mem_read(&range).0.is_some());
    }

    #[test]
    fn scan_fallback_for_patterns() {
        let mut s = MultiStore::new();
        s.store(PasoObject::new(
            ObjectId::new(ProcessId(0), 0),
            vec![Value::from("find the needle here")],
        ));
        let sc =
            SearchCriterion::from(Template::new(vec![FieldMatcher::Contains("needle".into())]));
        assert!(s.mem_read(&sc).0.is_some());
    }

    #[test]
    fn kind_is_multi() {
        assert_eq!(MultiStore::new().kind(), StoreKind::Multi);
    }
}
