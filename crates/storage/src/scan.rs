//! Linear-scan store — the "linear list for text pattern matching" of §5.
//!
//! Serves *every* criterion correctly with `Q(ℓ) = O(ℓ)`; it is the
//! fallback structure for classes queried with arbitrary patterns, and the
//! reference implementation the other stores are differentially tested
//! against. `Q(ℓ)` stays `O(ℓ)` in accounted probes: every entry up to the
//! match counts as inspected. A per-entry field signature lets the scan
//! pass over most entries without reading their fields, which lowers the
//! time per probe, not the accounted cost.

use paso_types::{PasoObject, SearchCriterion};

use crate::entries::Entries;
use crate::store::{ClassStore, Cost, Rank, Snapshot, SnapshotError, StoreKind};

/// A FIFO linear-list store.
///
/// # Examples
///
/// ```
/// use paso_storage::{ClassStore, ScanStore};
/// use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};
///
/// let mut s = ScanStore::new();
/// s.store(PasoObject::new(ObjectId::new(ProcessId(0), 0), vec![Value::Int(7)]));
/// let sc = SearchCriterion::from(Template::wildcard(1));
/// let (found, _cost) = s.mem_read(&sc);
/// assert!(found.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScanStore {
    entries: Entries,
}

impl ScanStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ScanStore::default()
    }
}

impl ClassStore for ScanStore {
    fn store(&mut self, obj: PasoObject) -> Cost {
        self.entries.push(obj);
        Cost(1)
    }

    fn store_ranked(&mut self, obj: PasoObject, rank: Rank) -> Cost {
        self.entries.push_ranked(obj, rank);
        Cost(1)
    }

    fn mem_read(&self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
        let (rank, cost) = self.entries.find_oldest(sc);
        (rank.and_then(|s| self.entries.get(s).cloned()), cost)
    }

    fn remove(&mut self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
        let (rank, cost) = self.entries.find_oldest(sc);
        match rank {
            Some(s) => (self.entries.remove(s), cost + Cost(1)),
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
        self.entries.restore(snapshot)
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Scan
    }

    fn objects(&self) -> Vec<PasoObject> {
        self.entries.objects()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{FieldMatcher, ObjectId, ProcessId, Template, Value};

    fn obj(seq: u64, n: i64) -> PasoObject {
        PasoObject::new(
            ObjectId::new(ProcessId(0), seq),
            vec![Value::symbol("n"), Value::Int(n)],
        )
    }

    fn sc_eq(n: i64) -> SearchCriterion {
        SearchCriterion::from(Template::exact(vec![Value::symbol("n"), Value::Int(n)]))
    }

    fn sc_any() -> SearchCriterion {
        SearchCriterion::from(Template::wildcard(2))
    }

    #[test]
    fn store_and_read() {
        let mut s = ScanStore::new();
        assert!(s.is_empty());
        s.store(obj(0, 5));
        assert_eq!(s.len(), 1);
        let (found, cost) = s.mem_read(&sc_eq(5));
        assert_eq!(found.unwrap().field(1), Some(&Value::Int(5)));
        assert_eq!(cost, Cost(1));
        let (missing, _) = s.mem_read(&sc_eq(6));
        assert!(missing.is_none());
    }

    #[test]
    fn remove_returns_oldest_match() {
        let mut s = ScanStore::new();
        s.store(obj(0, 1));
        s.store(obj(1, 2));
        s.store(obj(2, 1));
        let (got, _) = s.remove(&sc_eq(1));
        assert_eq!(got.unwrap().id().seq, 0, "oldest match must come out first");
        let (got, _) = s.remove(&sc_eq(1));
        assert_eq!(got.unwrap().id().seq, 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn scan_cost_grows_linearly() {
        let mut s = ScanStore::new();
        for n in 0..100 {
            s.store(obj(n, n as i64));
        }
        // Matching the last object inspects all 100 entries.
        let (_, cost) = s.mem_read(&sc_eq(99));
        assert_eq!(cost, Cost(100));
        // Matching the first inspects one.
        let (_, cost) = s.mem_read(&sc_eq(0));
        assert_eq!(cost, Cost(1));
        // A miss inspects everything.
        let (none, cost) = s.mem_read(&sc_eq(1000));
        assert!(none.is_none());
        assert_eq!(cost, Cost(100));
    }

    #[test]
    fn read_does_not_consume() {
        let mut s = ScanStore::new();
        s.store(obj(0, 1));
        let _ = s.mem_read(&sc_any());
        assert_eq!(s.len(), 1);
        let _ = s.remove(&sc_any());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn clear_erases_everything() {
        let mut s = ScanStore::new();
        s.store(obj(0, 1));
        s.clear();
        assert!(s.is_empty());
        let (none, _) = s.mem_read(&sc_any());
        assert!(none.is_none());
    }

    #[test]
    fn snapshot_restore_preserves_fifo() {
        let mut s = ScanStore::new();
        s.store(obj(0, 1));
        s.store(obj(1, 1));
        let snap = s.snapshot();

        let mut t = ScanStore::new();
        t.restore(&snap).unwrap();
        assert_eq!(t.len(), 2);
        let (got, _) = t.remove(&sc_eq(1));
        assert_eq!(got.unwrap().id().seq, 0);
    }

    #[test]
    fn pattern_matching_supported() {
        let mut s = ScanStore::new();
        s.store(PasoObject::new(
            ObjectId::new(ProcessId(0), 0),
            vec![Value::from("hello world")],
        ));
        let sc = SearchCriterion::from(Template::new(vec![FieldMatcher::Contains("wor".into())]));
        let (found, _) = s.mem_read(&sc);
        assert!(found.is_some());
    }

    #[test]
    fn kind_is_scan() {
        assert_eq!(ScanStore::new().kind(), StoreKind::Scan);
    }

    #[test]
    fn objects_in_insertion_order() {
        let mut s = ScanStore::new();
        s.store(obj(0, 3));
        s.store(obj(1, 1));
        let objs = s.objects();
        assert_eq!(objs[0].id().seq, 0);
        assert_eq!(objs[1].id().seq, 1);
    }
}
