//! Store selection.
//!
//! §5: "Depending on the type of queries to be supported, the data structure
//! implementing the local storage for the class may be one of various
//! kinds." [`AutoStore`] dispatches to the concrete structure chosen for a
//! class's declared query profile, and [`store_for`] encodes the paper's
//! recommendation (hash ↔ dictionary, tree ↔ range, list ↔ pattern).

use paso_types::{PasoObject, QueryKind, SearchCriterion};

use crate::hash::HashStore;
use crate::multi::MultiStore;
use crate::ordered::OrderedStore;
use crate::scan::ScanStore;
use crate::store::{ClassStore, Cost, Rank, Snapshot, SnapshotError, StoreKind};

/// A store whose backing structure is chosen per class at configuration
/// time.
///
/// # Examples
///
/// ```
/// use paso_storage::{AutoStore, ClassStore, StoreKind};
/// use paso_types::QueryKind;
///
/// let s = AutoStore::for_query_kind(QueryKind::Range);
/// assert_eq!(s.kind(), StoreKind::Ordered);
/// ```
#[derive(Debug)]
pub enum AutoStore {
    /// Hash-backed store.
    Hash(HashStore),
    /// Ordered-index-backed store.
    Ordered(OrderedStore),
    /// Linear-scan store.
    Scan(ScanStore),
    /// Dual hash + ordered indexes.
    Multi(MultiStore),
}

impl AutoStore {
    /// Creates a store of the given backing kind.
    pub fn for_kind(kind: StoreKind) -> Self {
        match kind {
            StoreKind::Hash => AutoStore::Hash(HashStore::new()),
            StoreKind::Ordered => AutoStore::Ordered(OrderedStore::new()),
            StoreKind::Scan => AutoStore::Scan(ScanStore::new()),
            StoreKind::Multi => AutoStore::Multi(MultiStore::new()),
        }
    }

    /// Creates the store the paper recommends for a class whose dominant
    /// query shape is `kind`.
    pub fn for_query_kind(kind: QueryKind) -> Self {
        AutoStore::for_kind(store_for(kind))
    }

    fn inner(&self) -> &dyn ClassStore {
        match self {
            AutoStore::Hash(s) => s,
            AutoStore::Ordered(s) => s,
            AutoStore::Scan(s) => s,
            AutoStore::Multi(s) => s,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn ClassStore {
        match self {
            AutoStore::Hash(s) => s,
            AutoStore::Ordered(s) => s,
            AutoStore::Scan(s) => s,
            AutoStore::Multi(s) => s,
        }
    }
}

impl Default for AutoStore {
    fn default() -> Self {
        AutoStore::Scan(ScanStore::new())
    }
}

/// The data structure §5 recommends for a query shape.
pub fn store_for(kind: QueryKind) -> StoreKind {
    match kind {
        QueryKind::Dictionary => StoreKind::Hash,
        QueryKind::Range => StoreKind::Ordered,
        QueryKind::Scan => StoreKind::Scan,
    }
}

impl ClassStore for AutoStore {
    fn store(&mut self, obj: PasoObject) -> Cost {
        self.inner_mut().store(obj)
    }

    fn store_ranked(&mut self, obj: PasoObject, rank: Rank) -> Cost {
        self.inner_mut().store_ranked(obj, rank)
    }

    fn mem_read(&self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
        self.inner().mem_read(sc)
    }

    fn remove(&mut self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost) {
        self.inner_mut().remove(sc)
    }

    fn len(&self) -> usize {
        self.inner().len()
    }

    fn snapshot(&self) -> Snapshot {
        self.inner().snapshot()
    }

    fn snapshot_len(&self) -> usize {
        self.inner().snapshot_len()
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        self.inner_mut().restore(snapshot)
    }

    fn clear(&mut self) {
        self.inner_mut().clear()
    }

    fn kind(&self) -> StoreKind {
        self.inner().kind()
    }

    fn objects(&self) -> Vec<PasoObject> {
        self.inner().objects()
    }

    fn summary(&self) -> crate::ClassSummary {
        self.inner().summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{ObjectId, ProcessId, Template, Value};

    #[test]
    fn recommendation_table() {
        assert_eq!(store_for(QueryKind::Dictionary), StoreKind::Hash);
        assert_eq!(store_for(QueryKind::Range), StoreKind::Ordered);
        assert_eq!(store_for(QueryKind::Scan), StoreKind::Scan);
    }

    #[test]
    fn dispatch_round_trip() {
        for kind in [
            StoreKind::Hash,
            StoreKind::Ordered,
            StoreKind::Scan,
            StoreKind::Multi,
        ] {
            let mut s = AutoStore::for_kind(kind);
            assert_eq!(s.kind(), kind);
            s.store(PasoObject::new(
                ObjectId::new(ProcessId(0), 0),
                vec![Value::Int(1)],
            ));
            assert_eq!(s.len(), 1);
            let sc = SearchCriterion::from(Template::exact(vec![Value::Int(1)]));
            let (found, _) = s.mem_read(&sc);
            assert!(found.is_some());
            let snap = s.snapshot();
            let mut t = AutoStore::for_kind(kind);
            t.restore(&snap).unwrap();
            assert_eq!(t.len(), 1);
            let (got, _) = t.remove(&sc);
            assert!(got.is_some());
            assert!(t.is_empty());
            s.clear();
            assert!(s.is_empty());
        }
    }

    #[test]
    fn default_is_scan() {
        assert_eq!(AutoStore::default().kind(), StoreKind::Scan);
    }
}
