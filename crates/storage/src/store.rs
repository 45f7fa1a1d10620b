//! The `ClassStore` abstraction.
//!
//! §4.2: every memory server supports three atomic operations per class —
//! `store` (cost `I(·)`), `mem-read` (cost `Q(·)`) and `remove` (cost
//! `D(·)`), where `remove` "returns the *oldest* C-object in M satisfying
//! sc". §5 adds that the data structure implementing local storage may be
//! "a hash table for dictionary queries; a binary search tree for range
//! queries; a linear list for text pattern matching", and that
//! `time(g-join(C))` should be `O(ℓ)` because joining copies the memory as
//! is — which is what [`Snapshot`] provides.

use std::fmt;

use paso_types::{PasoObject, SearchCriterion};

/// Abstract work units charged by a store operation — the paper's
/// `I(·)`, `Q(·)`, `D(·)` made concrete. One unit ≈ one data-structure probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cost(pub u64);

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost(0);

    /// Adds two costs.
    pub fn saturating_add(self, rhs: Cost) -> Cost {
        Cost(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u", self.0)
    }
}

/// Global age rank of a stored object.
///
/// "Oldest" must mean the same thing at *every* replica of a class, even
/// when fan-out timing differs — so age is not a local insertion counter
/// but a rank assigned once by the inserting server (logical clock in the
/// high bits, origin machine in the low 16 bits) and carried with the
/// object. Replicas keyed by the same ranks always agree on which object
/// `remove` returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rank(pub u64);

paso_wire::wire_struct!(Rank { 0 });

impl Rank {
    /// Bound on a rank's logical timestamp: it has 48 bits.
    pub const TIME_LIMIT: u64 = 1 << 48;

    /// Builds a rank from a logical timestamp and the origin machine index.
    ///
    /// # Panics
    ///
    /// Panics if `origin ≥ 2¹⁶` or `time ≥ 2⁴⁸`.
    pub fn new(time: u64, origin: u16) -> Self {
        assert!(time < Self::TIME_LIMIT, "rank time overflow");
        Rank((time << 16) | origin as u64)
    }

    /// The logical timestamp component.
    pub fn time(self) -> u64 {
        self.0 >> 16
    }

    /// The origin machine component.
    pub fn origin(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}@{}", self.time(), self.origin())
    }
}

/// Which concrete data structure backs a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// Hash table — O(1) dictionary queries.
    Hash,
    /// Ordered index — O(log ℓ) range queries.
    Ordered,
    /// Linear list — O(ℓ) arbitrary pattern matching.
    Scan,
    /// Hash + ordered indexes over one entry set — best `Q(·)` for both
    /// dictionary and range shapes, at higher `I(·)`/`D(·)` ("several
    /// such data structures may be used for a single class", §5).
    Multi,
}

impl fmt::Display for StoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StoreKind::Hash => "hash",
            StoreKind::Ordered => "ordered",
            StoreKind::Scan => "scan",
            StoreKind::Multi => "multi",
        };
        f.write_str(s)
    }
}

/// A byte snapshot of a store's contents, transferred to joining servers.
///
/// §4.2: when a server `g-join`s a group, a member "sends M all the objects
/// that it has in classes whose write group is g-name". The snapshot size is
/// `Θ(ℓ)` in the number and size of live objects, so state-transfer message
/// cost under the `α + β·|m|` model is linear in `ℓ` as §5 assumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps raw snapshot bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Snapshot { bytes }
    }

    /// The serialized payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Size in bytes — the `|m|` of the state-transfer message.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True iff the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Error restoring a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    msg: String,
}

impl SnapshotError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SnapshotError { msg: msg.into() }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid snapshot: {}", self.msg)
    }
}

impl std::error::Error for SnapshotError {}

/// A per-class object store on one memory server.
///
/// Implementations must provide FIFO semantics for `remove`: among matching
/// objects, the one stored *earliest* is returned (§4.2). `mem_read` may
/// return any matching object.
///
/// Every operation reports its abstract [`Cost`]; the simulator converts
/// cost units into simulated time so that experiments can reproduce the
/// paper's `work`/`time` columns (Figure 1).
///
/// # Miss accounting
///
/// All stores share one miss-cost rule, asserted by the cross-store suite
/// in `tests/miss_cost.rs`: a failed `mem_read`/`remove` charges exactly
/// the probes spent discovering the absence. An *empty* store proves the
/// absence for free — its emptiness is a single flag check, not a probe —
/// so every store kind charges `Cost(0)` for any miss on an empty store.
/// A miss on a populated store is floored at one unit; a scan-shaped miss
/// costs `Cost(ℓ)`; and `remove` adds its deletion surcharge only on a
/// hit, so a failed `remove` costs the same as the equivalent failed
/// `mem_read`.
pub trait ClassStore: Send + fmt::Debug {
    /// Stores an object (the server-side of `insert`) with a locally
    /// assigned age rank. Cost is `I(ℓ)`. Replicated servers should use
    /// [`ClassStore::store_ranked`] so all replicas agree on ages.
    fn store(&mut self, obj: PasoObject) -> Cost;

    /// Stores an object under an externally assigned global [`Rank`].
    /// Cost is `I(ℓ)`.
    fn store_ranked(&mut self, obj: PasoObject, rank: Rank) -> Cost;

    /// Returns some live object matching `sc`, or `None`. Cost is `Q(ℓ)`.
    fn mem_read(&self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost);

    /// Removes and returns the *oldest* object matching `sc`, or `None`.
    /// Cost is `Q(ℓ) + D(ℓ)`.
    fn remove(&mut self, sc: &SearchCriterion) -> (Option<PasoObject>, Cost);

    /// Number of live objects (the paper's `ℓ = |live(C)|`).
    fn len(&self) -> usize;

    /// True iff no live objects are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the complete store state for `g-join` state transfer.
    fn snapshot(&self) -> Snapshot;

    /// The byte length of [`ClassStore::snapshot`], kept up to date on
    /// `store`/`remove` rather than encoded: what a `g-join` of the class
    /// would ship now.
    fn snapshot_len(&self) -> usize;

    /// Replaces this store's contents with a snapshot's.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if the bytes do not decode.
    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError>;

    /// Erases all objects — a server leaving a group "should erase all
    /// information" (§4.2).
    fn clear(&mut self);

    /// The backing data structure.
    fn kind(&self) -> StoreKind;

    /// All live objects in insertion order (oldest first). Used by tests,
    /// the semantics checker, and debugging tools.
    fn objects(&self) -> Vec<PasoObject>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_arithmetic() {
        assert_eq!(Cost(2) + Cost(3), Cost(5));
        let mut c = Cost::ZERO;
        c += Cost(4);
        assert_eq!(c, Cost(4));
        assert_eq!(Cost(u64::MAX).saturating_add(Cost(1)), Cost(u64::MAX));
        assert_eq!(Cost(7).to_string(), "7u");
    }

    #[test]
    fn snapshot_wraps_bytes() {
        let s = Snapshot::from_bytes(vec![1, 2, 3]);
        assert_eq!(s.as_bytes(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(Snapshot::from_bytes(vec![]).is_empty());
    }

    #[test]
    fn kinds_display() {
        assert_eq!(StoreKind::Hash.to_string(), "hash");
        assert_eq!(StoreKind::Ordered.to_string(), "ordered");
        assert_eq!(StoreKind::Scan.to_string(), "scan");
    }

    #[test]
    fn snapshot_error_display() {
        let e = SnapshotError::new("bad json");
        assert!(e.to_string().contains("bad json"));
    }
}
