//! Shared age-ordered backing storage.
//!
//! Every concrete store keeps its objects in an [`Entries`] map keyed by a
//! global [`Rank`]. Iterating the map yields objects oldest-first, which is
//! the FIFO order `remove` must respect (§4.2: "returns the oldest C-object
//! ... satisfying sc"). Ranks are assigned by the inserting server and
//! travel with the replicated `store` operation, so replicas agree on ages
//! even when deliveries interleave differently with unrelated traffic.

use std::collections::BTreeMap;

use paso_types::{PasoObject, SearchCriterion};
use paso_wire::{put_varint, varint_len, Reader, Wire};

use crate::signature::{criterion_signature, object_signature};
use crate::store::{Cost, Rank, Snapshot, SnapshotError};

/// Origin marker for locally auto-assigned ranks.
const LOCAL_ORIGIN: u16 = u16::MAX;

/// Snapshot header magic: distinguishes the binary format from anything
/// else.
const SNAPSHOT_MAGIC: u8 = 0xB5;

/// Current snapshot format version. Bump on any layout change; old
/// versions are rejected, not migrated (a joining server just requests a
/// fresh state transfer).
const SNAPSHOT_VERSION: u8 = 1;

/// One stored object and its field signature (see the `signature`
/// module). The signature is derived from the object, so it is never
/// snapshotted or compared.
#[derive(Debug, Clone)]
struct Slot {
    sig: u64,
    obj: PasoObject,
}

/// A criterion with the signature bits every object it matches carries.
#[derive(Debug)]
pub(crate) struct Probe<'a> {
    sc: &'a SearchCriterion,
    mask: u64,
}

impl<'a> Probe<'a> {
    pub fn new(sc: &'a SearchCriterion) -> Self {
        Probe {
            sc,
            mask: criterion_signature(sc),
        }
    }

    /// Does `slot` match? A missing signature bit rejects the object
    /// without touching its fields.
    fn accepts(&self, slot: &Slot) -> bool {
        slot.sig & self.mask == self.mask && full_match(self.sc, &slot.obj)
    }
}

#[cfg(test)]
thread_local! {
    /// Template comparisons run on this thread (the filter's pass count).
    static FULL_MATCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
pub(crate) fn full_matches() -> u64 {
    FULL_MATCHES.with(std::cell::Cell::get)
}

fn full_match(sc: &SearchCriterion, obj: &PasoObject) -> bool {
    #[cfg(test)]
    FULL_MATCHES.with(|n| n.set(n.get() + 1));
    sc.matches(obj)
}

/// Age-ordered object storage with snapshot support.
///
/// Snapshots use the compact binary wire format: a two-byte
/// `[SNAPSHOT_MAGIC, SNAPSHOT_VERSION]` header followed by the varint
/// `next_local` counter and a length-prefixed list of `(rank, object)`
/// pairs. The size remains Θ(ℓ), which is what the `α + β·|m|`
/// state-transfer cost model needs, at a fraction of the JSON byte count.
#[derive(Debug, Clone, Default)]
pub(crate) struct Entries {
    map: BTreeMap<Rank, Slot>,
    next_local: u64,
    /// Encoded bytes of the `(rank, object)` pairs in a snapshot, kept on
    /// every push and remove so [`Entries::snapshot_len`] costs nothing.
    live_bytes: usize,
}

/// Signatures and the byte count are derived from the map, so equality
/// (used by snapshot round-trip tests) compares only the authoritative
/// fields.
impl PartialEq for Entries {
    fn eq(&self, other: &Self) -> bool {
        self.next_local == other.next_local && self.iter().eq(other.iter())
    }
}

impl Eq for Entries {}

impl Entries {
    /// Inserts an object with a locally assigned rank, returning it.
    pub fn push(&mut self, obj: PasoObject) -> Rank {
        let rank = Rank::new(self.next_local, LOCAL_ORIGIN);
        self.push_ranked(obj, rank);
        rank
    }

    /// Inserts an object under an externally assigned rank, returning the
    /// object it displaced if the rank was taken (the caller's indexes
    /// must drop that object's key).
    pub fn push_ranked(&mut self, obj: PasoObject, rank: Rank) -> Option<PasoObject> {
        // Keep the local counter ahead so auto-ranked and externally
        // ranked entries never collide in time.
        self.next_local = self.next_local.max(rank.time() + 1);
        let sig = object_signature(&obj);
        self.live_bytes += slot_len(rank, &obj);
        let displaced = self.map.insert(rank, Slot { sig, obj })?;
        self.live_bytes -= slot_len(rank, &displaced.obj);
        Some(displaced.obj)
    }

    pub fn get(&self, rank: Rank) -> Option<&PasoObject> {
        self.map.get(&rank).map(|slot| &slot.obj)
    }

    pub fn remove(&mut self, rank: Rank) -> Option<PasoObject> {
        let removed = self.map.remove(&rank)?;
        self.live_bytes -= slot_len(rank, &removed.obj);
        Some(removed.obj)
    }

    /// The oldest object matching `sc`, scanning oldest-first; cost =
    /// entries inspected, so `Q(ℓ) = O(ℓ)`. Entries the signature rejects
    /// count as inspected too: the filter lowers the constant per entry,
    /// never the accounted cost. An empty store proves a miss for free
    /// (see the miss-accounting rule on [`ClassStore`](crate::ClassStore)).
    pub fn find_oldest(&self, sc: &SearchCriterion) -> (Option<Rank>, Cost) {
        if self.map.is_empty() {
            return (None, Cost::ZERO);
        }
        let probe = Probe::new(sc);
        let mut inspected = 0;
        for (rank, slot) in &self.map {
            inspected += 1;
            if probe.accepts(slot) {
                return (Some(*rank), Cost(inspected));
            }
        }
        (None, Cost(inspected))
    }

    /// Does the object at `rank` match `probe`? `None` if no object has
    /// that rank.
    pub fn accepts(&self, rank: Rank, probe: &Probe<'_>) -> Option<bool> {
        self.map.get(&rank).map(|slot| probe.accepts(slot))
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Oldest-first iteration.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &PasoObject)> {
        self.map.iter().map(|(r, slot)| (*r, &slot.obj))
    }

    pub fn clear(&mut self) {
        self.map.clear();
        self.live_bytes = 0;
        // next_local deliberately NOT reset: local ranks stay unique for
        // the lifetime of the store.
    }

    pub fn objects(&self) -> Vec<PasoObject> {
        self.map.values().map(|slot| slot.obj.clone()).collect()
    }

    /// The length of [`Entries::snapshot`]'s bytes, without encoding them.
    pub fn snapshot_len(&self) -> usize {
        2 + varint_len(self.next_local) + varint_len(self.map.len() as u64) + self.live_bytes
    }

    pub fn snapshot(&self) -> Snapshot {
        let mut bytes = Vec::with_capacity(self.snapshot_len());
        bytes.push(SNAPSHOT_MAGIC);
        bytes.push(SNAPSHOT_VERSION);
        put_varint(&mut bytes, self.next_local);
        put_varint(&mut bytes, self.map.len() as u64);
        for (rank, slot) in &self.map {
            put_varint(&mut bytes, rank.0);
            slot.obj.encode(&mut bytes);
        }
        Snapshot::from_bytes(bytes)
    }

    /// Replaces the contents with a snapshot's. The map and the signatures
    /// are built in one pass that hashes each field once;
    /// on error `self` is unchanged. A snapshot whose rank counter or
    /// newest rank leaves no room for the next local [`Entries::push`] is
    /// an error: it comes from a peer's state transfer or a WAL file.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let bytes = snapshot.as_bytes();
        match bytes.first() {
            Some(&SNAPSHOT_MAGIC) => {}
            Some(&b) => return Err(SnapshotError::new(format!("bad snapshot magic 0x{b:02x}"))),
            None => return Err(SnapshotError::new("empty snapshot")),
        }
        match bytes.get(1) {
            Some(&SNAPSHOT_VERSION) => {}
            Some(&v) => {
                return Err(SnapshotError::new(format!(
                    "unsupported snapshot version {v} (supported: {SNAPSHOT_VERSION})"
                )))
            }
            None => return Err(SnapshotError::new("truncated snapshot header")),
        }
        let mut r = Reader::new(&bytes[2..]);
        let restored = (|| -> Result<_, paso_wire::WireError> {
            let next_local = r.varint()?;
            let count = r.length()?;
            let mut restored = Entries::default();
            for _ in 0..count {
                let rank = Rank(r.varint()?);
                let obj = PasoObject::decode(&mut r)?;
                let sig = object_signature(&obj);
                restored.live_bytes += slot_len(rank, &obj);
                if let Some(old) = restored.map.insert(rank, Slot { sig, obj }) {
                    restored.live_bytes -= slot_len(rank, &old.obj);
                }
            }
            if r.remaining() != 0 {
                return Err(paso_wire::WireError::TrailingBytes {
                    count: r.remaining(),
                });
            }
            let next_rank = restored.map.keys().last().map_or(0, |r| r.time() + 1);
            restored.next_local = next_local.max(next_rank);
            Ok(restored)
        })()
        .map_err(|e| SnapshotError::new(e.to_string()))?;
        if restored.next_local >= Rank::TIME_LIMIT {
            return Err(SnapshotError::new(format!(
                "snapshot rank counter {} leaves no 48-bit rank time to push",
                restored.next_local
            )));
        }
        *self = restored;
        Ok(())
    }
}

/// Snapshot bytes of one entry.
fn slot_len(rank: Rank, obj: &PasoObject) -> usize {
    varint_len(rank.0) + obj.encoded_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{FieldMatcher, ObjectId, ProcessId, Template, Value};

    fn obj(n: i64) -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(0), n as u64), vec![Value::Int(n)])
    }

    #[test]
    fn push_assigns_increasing_ranks() {
        let mut e = Entries::default();
        let a = e.push(obj(1));
        let b = e.push(obj(2));
        assert!(a < b);
        assert_eq!(e.len(), 2);
        assert_eq!(e.get(a), Some(&obj(1)));
    }

    #[test]
    fn ranked_and_local_interleave_by_rank() {
        let mut e = Entries::default();
        e.push_ranked(obj(1), Rank::new(10, 3));
        e.push_ranked(obj(2), Rank::new(5, 7));
        let objs = e.objects();
        assert_eq!(objs[0], obj(2), "lower rank time is older");
        assert_eq!(objs[1], obj(1));
        // Local pushes stay ahead of every external rank seen.
        let local = e.push(obj(3));
        assert!(local.time() > 10);
    }

    #[test]
    fn same_time_breaks_ties_by_origin() {
        let mut e = Entries::default();
        e.push_ranked(obj(1), Rank::new(4, 9));
        e.push_ranked(obj(2), Rank::new(4, 2));
        assert_eq!(e.objects()[0], obj(2));
    }

    #[test]
    fn iteration_is_oldest_first() {
        let mut e = Entries::default();
        for n in 0..5 {
            e.push(obj(n));
        }
        let ranks: Vec<Rank> = e.iter().map(|(s, _)| s).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted);
    }

    #[test]
    fn clear_preserves_rank_counter() {
        let mut e = Entries::default();
        let a = e.push(obj(1));
        e.clear();
        assert_eq!(e.len(), 0);
        let b = e.push(obj(2));
        assert!(b > a, "local ranks must stay unique across clear");
    }

    #[test]
    fn snapshot_round_trip() {
        let mut e = Entries::default();
        let a = e.push(obj(1));
        e.push_ranked(obj(2), Rank::new(100, 1));
        e.remove(a);
        let snap = e.snapshot();
        let mut f = Entries::default();
        f.restore(&snap).unwrap();
        assert_eq!(e, f);
        // Restored store continues numbering above everything restored.
        let r = f.push(obj(3));
        assert!(r.time() > 100);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut e = Entries::default();
        assert!(e.restore(&Snapshot::from_bytes(vec![0xff, 0x00])).is_err());
        assert!(e.restore(&Snapshot::from_bytes(vec![])).is_err());
        // A pre-binary JSON snapshot is just another bad magic.
        let json = br#"{"next_local":3,"entries":[]}"#.to_vec();
        let err = e.restore(&Snapshot::from_bytes(json)).unwrap_err();
        assert!(err.to_string().contains("bad snapshot magic 0x7b"), "{err}");
    }

    #[test]
    fn restore_rejects_stale_version() {
        let mut e = Entries::default();
        e.push(obj(1));
        let mut bytes = e.snapshot().as_bytes().to_vec();
        bytes[1] = SNAPSHOT_VERSION + 1;
        let err = e.restore(&Snapshot::from_bytes(bytes)).unwrap_err();
        assert!(
            err.to_string().contains("unsupported snapshot version"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_truncation_at_every_cut_without_panicking() {
        let mut e = Entries::default();
        e.push(obj(1));
        e.push(obj(2));
        let bytes = e.snapshot().as_bytes().to_vec();
        for cut in 0..bytes.len() {
            let mut f = Entries::default();
            assert!(
                f.restore(&Snapshot::from_bytes(bytes[..cut].to_vec()))
                    .is_err(),
                "prefix of {cut} bytes restored"
            );
        }
        // Trailing junk is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        let mut f = Entries::default();
        assert!(f.restore(&Snapshot::from_bytes(padded)).is_err());
    }

    /// A snapshot's bytes with the given rank counter and ranked objects.
    fn raw_snapshot(next_local: u64, ranks: &[Rank]) -> Snapshot {
        let mut bytes = vec![SNAPSHOT_MAGIC, SNAPSHOT_VERSION];
        put_varint(&mut bytes, next_local);
        put_varint(&mut bytes, ranks.len() as u64);
        for (n, rank) in ranks.iter().enumerate() {
            put_varint(&mut bytes, rank.0);
            obj(n as i64).encode(&mut bytes);
        }
        Snapshot::from_bytes(bytes)
    }

    #[test]
    fn restore_rejects_a_rank_counter_with_no_room_for_a_push() {
        let mut e = Entries::default();
        e.push(obj(1));
        let before = e.clone();
        let last = Rank::TIME_LIMIT - 1;
        for snap in [
            raw_snapshot(Rank::TIME_LIMIT, &[]),
            raw_snapshot(0, &[Rank::new(last, 3)]),
        ] {
            let err = e.restore(&snap).unwrap_err();
            assert!(err.to_string().contains("rank counter"), "{err}");
            assert_eq!(e, before, "a rejected snapshot changed the store");
        }

        e.restore(&raw_snapshot(0, &[Rank::new(last - 1, 3)]))
            .unwrap();
        assert_eq!(e.push(obj(2)).time(), last);
    }

    #[test]
    fn snapshot_size_grows_with_contents() {
        let mut e = Entries::default();
        let empty = e.snapshot().len();
        for n in 0..10 {
            e.push(obj(n));
        }
        assert!(e.snapshot().len() > empty + 10);
    }

    #[test]
    fn snapshot_len_is_the_snapshot_byte_count_after_every_change() {
        let mut e = Entries::default();
        let exact = |e: &Entries| assert_eq!(e.snapshot_len(), e.snapshot().len());
        exact(&e);
        for n in 0..200 {
            e.push(obj(n * 1000));
            exact(&e);
        }
        // A displaced object leaves the count with its slot.
        e.push_ranked(obj(-1), Rank::new(3, LOCAL_ORIGIN));
        exact(&e);
        let ranks: Vec<Rank> = e.iter().map(|(r, _)| r).step_by(3).collect();
        for r in ranks {
            e.remove(r);
            exact(&e);
        }
        let mut restored = Entries::default();
        restored.restore(&e.snapshot()).unwrap();
        assert_eq!(restored.snapshot_len(), e.snapshot_len());
        e.clear();
        exact(&e);
    }

    #[test]
    fn restore_matches_the_pushed_store() {
        let mut e = Entries::default();
        let ranks: Vec<Rank> = (0..6).map(|k| e.push(blob(k))).collect();
        e.push_ranked(blob(7), ranks[2]);
        e.remove(ranks[4]);
        let snap = e.snapshot();
        let mut f = Entries::default();
        f.restore(&snap).unwrap();
        assert_eq!(f.len(), 5);
        assert_eq!(f.find_oldest(&blob_key(7)), e.find_oldest(&blob_key(7)));
    }

    /// `direct_bulk`'s objects: `("blob", Int k, Str 512 B)`.
    fn blob(k: i64) -> PasoObject {
        let payload: String = format!("{k:016x}").chars().cycle().take(512).collect();
        PasoObject::new(
            ObjectId::new(ProcessId(0), k as u64),
            vec![Value::symbol("blob"), Value::Int(k), Value::Str(payload)],
        )
    }

    fn blob_key(k: i64) -> SearchCriterion {
        SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("blob")),
            FieldMatcher::Exact(Value::Int(k)),
            FieldMatcher::Any,
        ]))
    }

    #[test]
    fn signature_keeps_almost_every_entry_from_the_template_comparison() {
        let mut e = Entries::default();
        for k in 0..4000 {
            e.push(blob(k));
        }
        for (k, expect_hit) in [(2000, true), (-1, false)] {
            let before = full_matches();
            let (rank, cost) = e.find_oldest(&blob_key(k));
            let compared = full_matches() - before;
            assert_eq!(rank.is_some(), expect_hit, "key {k}");
            // Every entry up to the answer is still accounted.
            assert_eq!(cost, Cost(if expect_hit { k as u64 + 1 } else { 4000 }));
            assert!(
                compared * 100 < cost.0,
                "key {k}: {compared} of {} entries reached the template comparison",
                cost.0
            );
        }
    }

    #[test]
    fn rank_components() {
        let r = Rank::new(123, 45);
        assert_eq!(r.time(), 123);
        assert_eq!(r.origin(), 45);
        assert_eq!(r.to_string(), "r123@45");
    }
}
