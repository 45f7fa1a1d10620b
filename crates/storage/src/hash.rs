//! Hash-table store — the "hash table for dictionary queries" of §5.
//!
//! Fully exact criteria (`QueryKind::Dictionary`) are served in O(1)
//! expected probes (`I = D = Q = O(1)`, the normalization the Basic
//! algorithm's analysis assumes). Non-dictionary criteria fall back to a
//! linear scan with honestly accounted cost, preserving correctness for
//! general PASO search criteria.

use paso_types::{PasoObject, SearchCriterion};

use crate::entries::Entries;
use crate::index::{dictionary_key, HashIndex};
use crate::store::{ClassStore, Cost, Rank, Snapshot, SnapshotError, StoreKind};

/// A hash-indexed FIFO store keyed by the full field tuple.
///
/// # Examples
///
/// ```
/// use paso_storage::{ClassStore, HashStore};
/// use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};
///
/// let mut s = HashStore::new();
/// s.store(PasoObject::new(ObjectId::new(ProcessId(0), 0), vec![Value::Int(7)]));
/// // A dictionary query costs O(1) regardless of store size.
/// let sc = SearchCriterion::from(Template::exact(vec![Value::Int(7)]));
/// let (found, cost) = s.mem_read(&sc);
/// assert!(found.is_some());
/// assert_eq!(cost.0, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HashStore {
    entries: Entries,
    index: HashIndex,
}

impl HashStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        HashStore::default()
    }

    /// Oldest match + cost. Dictionary queries use the index (1 probe);
    /// everything else scans. An empty store proves a miss for free (see
    /// the miss-accounting rule on [`ClassStore`]).
    fn find_oldest(&self, sc: &SearchCriterion) -> (Option<Rank>, Cost) {
        if self.entries.len() == 0 {
            return (None, Cost::ZERO);
        }
        match dictionary_key(sc) {
            Some(key) => (self.index.oldest(&key), Cost(1)),
            None => self.entries.find_oldest(sc),
        }
    }
}

impl ClassStore for HashStore {
    fn store(&mut self, obj: PasoObject) -> Cost {
        let key = obj.fields().to_vec();
        let rank = self.entries.push(obj);
        self.index.insert(key, rank);
        Cost(1)
    }

    fn store_ranked(&mut self, obj: PasoObject, rank: Rank) -> Cost {
        let key = obj.fields().to_vec();
        if let Some(old) = self.entries.push_ranked(obj, rank) {
            self.index.remove(old.fields(), rank);
        }
        self.index.insert(key, rank);
        Cost(1)
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
                    self.index.remove(o.fields(), s);
                }
                (obj, cost + Cost(1))
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
        self.index = HashIndex::build(&self.entries);
        Ok(())
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Hash
    }

    fn objects(&self) -> Vec<PasoObject> {
        self.entries.objects()
    }

    fn summary(&self) -> crate::ClassSummary {
        self.entries.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{FieldMatcher, ObjectId, ProcessId, Template, Value};

    fn obj(seq: u64, n: i64) -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(0), seq), vec![Value::Int(n)])
    }

    fn dict(n: i64) -> SearchCriterion {
        SearchCriterion::from(Template::exact(vec![Value::Int(n)]))
    }

    #[test]
    fn dictionary_query_is_constant_cost() {
        let mut s = HashStore::new();
        for n in 0..1000 {
            s.store(obj(n, n as i64));
        }
        let (found, cost) = s.mem_read(&dict(999));
        assert!(found.is_some());
        assert_eq!(cost, Cost(1), "hash lookup must not scan");
        let (missing, cost) = s.mem_read(&dict(-1));
        assert!(missing.is_none());
        assert_eq!(cost, Cost(1));
    }

    #[test]
    fn duplicate_values_come_out_oldest_first() {
        let mut s = HashStore::new();
        s.store(obj(10, 7));
        s.store(obj(11, 7));
        s.store(obj(12, 7));
        let (a, _) = s.remove(&dict(7));
        assert_eq!(a.unwrap().id().seq, 10);
        let (b, _) = s.remove(&dict(7));
        assert_eq!(b.unwrap().id().seq, 11);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_cleans_index() {
        let mut s = HashStore::new();
        s.store(obj(0, 1));
        let (got, _) = s.remove(&dict(1));
        assert!(got.is_some());
        // Gone from both entries and index.
        let (again, _) = s.mem_read(&dict(1));
        assert!(again.is_none());
        assert!(s.index.is_empty());
    }

    #[test]
    fn non_dictionary_falls_back_to_scan() {
        let mut s = HashStore::new();
        for n in 0..50 {
            s.store(obj(n, n as i64));
        }
        let sc = SearchCriterion::from(Template::new(vec![FieldMatcher::between(40, 45)]));
        let (found, cost) = s.mem_read(&sc);
        assert_eq!(found.unwrap().field(0), Some(&Value::Int(40)));
        assert_eq!(cost, Cost(41), "fallback scan cost is honest");
    }

    #[test]
    fn restore_rebuilds_index() {
        let mut s = HashStore::new();
        s.store(obj(0, 1));
        s.store(obj(1, 2));
        let snap = s.snapshot();

        let mut t = HashStore::new();
        t.restore(&snap).unwrap();
        let (found, cost) = t.mem_read(&dict(2));
        assert!(found.is_some());
        assert_eq!(cost, Cost(1), "index must be rebuilt after restore");
    }

    #[test]
    fn clear_empties_index() {
        let mut s = HashStore::new();
        s.store(obj(0, 1));
        s.clear();
        assert!(s.is_empty());
        assert!(s.index.is_empty());
    }

    #[test]
    fn kind_is_hash() {
        assert_eq!(HashStore::new().kind(), StoreKind::Hash);
    }

    #[test]
    fn mixed_arity_objects_coexist() {
        let mut s = HashStore::new();
        s.store(PasoObject::new(ObjectId::new(ProcessId(0), 0), vec![]));
        s.store(obj(1, 5));
        let empty_sc = SearchCriterion::from(Template::exact(vec![]));
        let (found, _) = s.mem_read(&empty_sc);
        assert_eq!(found.unwrap().arity(), 0);
    }
}
