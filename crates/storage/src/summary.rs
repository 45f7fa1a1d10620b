//! Compact class summaries for read fan-out pruning.
//!
//! A [`ClassSummary`] is a constant-size digest of the live objects in one
//! class store: the set of arities present plus a Bloom filter over
//! `(position, value)` fingerprints. A server gossips these digests so that
//! the client-side macro expansion can skip classes whose summary proves
//! they cannot hold a match for a criterion — turning the exhaustive
//! `sc-list(sc)` fan-out of §4.3 into a fan-out over candidate classes
//! only.
//!
//! The one correctness obligation is the Bloom-filter law: a summary **may
//! false-positive** (claim a possible match where none exists — costing
//! only an extra message) but must **never false-negative** (a
//! `may_match == false` answer is a proof that no live object matches).
//! That holds because:
//!
//! - every insert sets the arity bit and the fingerprint bits of each of
//!   its fields, and bits are never cleared while the object is live;
//! - removals only clear bits via a full rebuild from the surviving
//!   objects (see `Entries`), so a live object's bits are always present;
//! - [`ClassSummary::may_match`] only draws conclusions from template
//!   constraints that are *exact*: the criterion's arity (template matching
//!   requires equal arity) and `FieldMatcher::Exact` fields. All other
//!   matcher shapes conservatively answer "maybe".

use paso_types::{stable_field_hash, PasoObject, SearchCriterion};

/// Number of 64-bit words in the fingerprint Bloom filter (256 bits).
const BLOOM_WORDS: usize = 4;

/// Bits per fingerprint: each `(position, value)` pair sets two bits
/// derived from one 64-bit stable hash.
const BLOOM_PROBES: u32 = 2;

/// A constant-size, gossip-able digest of a class store's live objects.
///
/// # Examples
///
/// ```
/// use paso_storage::ClassSummary;
/// use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};
///
/// let mut s = ClassSummary::new();
/// let sc = SearchCriterion::from(Template::exact(vec![Value::Int(7)]));
/// assert!(!s.may_match(&sc), "empty summaries match nothing");
/// s.note_insert(&PasoObject::new(ObjectId::new(ProcessId(0), 0), vec![Value::Int(7)]));
/// assert!(s.may_match(&sc));
/// let other = SearchCriterion::from(Template::exact(vec![Value::Int(7), Value::Int(8)]));
/// assert!(!s.may_match(&other), "no live object has arity 2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassSummary {
    /// Number of live objects.
    len: u64,
    /// Bit `min(arity, 63)` is set iff an object of that arity is live
    /// (bit 63 means "arity ≥ 63").
    arities: u64,
    /// Bloom filter over `(position, value)` fingerprints of all fields of
    /// all live objects.
    bloom: [u64; BLOOM_WORDS],
}

paso_wire::wire_struct!(ClassSummary {
    len,
    arities,
    bloom
});

/// The two Bloom bit indexes for one fingerprint hash (double hashing on
/// the high and low halves of the 64-bit value).
fn bloom_bits(hash: u64) -> [u32; BLOOM_PROBES as usize] {
    let bits = (BLOOM_WORDS * 64) as u64;
    [(hash % bits) as u32, ((hash >> 32) % bits) as u32]
}

impl ClassSummary {
    /// The summary of an empty store.
    pub fn new() -> Self {
        ClassSummary::default()
    }

    /// Number of live objects summarized.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff no live objects are summarized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn set_bit(&mut self, bit: u32) {
        self.bloom[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    fn has_bit(&self, bit: u32) -> bool {
        self.bloom[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Records an inserted object: arity bit plus two Bloom bits per field.
    pub fn note_insert(&mut self, obj: &PasoObject) {
        self.len += 1;
        self.arities |= 1u64 << obj.arity().min(63);
        for (i, v) in obj.fields().iter().enumerate() {
            for bit in bloom_bits(stable_field_hash(i, v)) {
                self.set_bit(bit);
            }
        }
    }

    /// Records a removal. Only the live count drops — arity and Bloom bits
    /// stay set (they may describe other live objects), so the summary
    /// over-approximates until the owner rebuilds it from the survivors.
    pub fn note_remove(&mut self) {
        self.len = self.len.saturating_sub(1);
        if self.len == 0 {
            *self = ClassSummary::new();
        }
    }

    /// Rebuilds a summary from an iterator over the live objects.
    pub fn rebuild<'a>(objects: impl Iterator<Item = &'a PasoObject>) -> Self {
        let mut s = ClassSummary::new();
        for o in objects {
            s.note_insert(o);
        }
        s
    }

    /// Could a live object match `sc`?  `false` is a proof of "no match";
    /// `true` means "maybe" (Bloom filters false-positive).
    pub fn may_match(&self, sc: &SearchCriterion) -> bool {
        if self.len == 0 {
            return false;
        }
        // Template matching requires exact arity equality, so a criterion
        // of arity a can only match objects of arity a. (Arities ≥ 63 fold
        // into one bit on both sides — conservative, never unsound.)
        if self.arities & (1u64 << sc.arity().min(63)) == 0 {
            return false;
        }
        for (i, m) in sc.template().matchers().iter().enumerate() {
            if let Some(v) = m.exact_value() {
                if bloom_bits(stable_field_hash(i, v))
                    .iter()
                    .any(|&bit| !self.has_bit(bit))
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{FieldMatcher, ObjectId, ProcessId, Template, Value};
    use paso_wire::Wire;

    fn obj(seq: u64, fields: Vec<Value>) -> PasoObject {
        PasoObject::new(ObjectId::new(ProcessId(0), seq), fields)
    }

    #[test]
    fn empty_summary_matches_nothing() {
        let s = ClassSummary::new();
        assert!(s.is_empty());
        let sc = SearchCriterion::from(Template::wildcard(2));
        assert!(!s.may_match(&sc));
    }

    #[test]
    fn arity_mismatch_is_pruned() {
        let mut s = ClassSummary::new();
        s.note_insert(&obj(0, vec![Value::Int(1), Value::Int(2)]));
        assert!(s.may_match(&SearchCriterion::from(Template::wildcard(2))));
        assert!(!s.may_match(&SearchCriterion::from(Template::wildcard(3))));
    }

    #[test]
    fn exact_field_absent_is_pruned_present_is_kept() {
        let mut s = ClassSummary::new();
        s.note_insert(&obj(0, vec![Value::symbol("job"), Value::Int(1)]));
        let hit = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("job")),
            FieldMatcher::Any,
        ]));
        assert!(s.may_match(&hit));
        let miss = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("no-such-name")),
            FieldMatcher::Any,
        ]));
        assert!(!s.may_match(&miss), "fingerprint should prune (false positives are possible but vanishingly unlikely for one entry)");
    }

    #[test]
    fn positions_are_distinguished() {
        let mut s = ClassSummary::new();
        s.note_insert(&obj(0, vec![Value::Int(1), Value::Int(2)]));
        // Value 2 exists — but at position 1, not position 0.
        let swapped = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::Int(2)),
            FieldMatcher::Any,
        ]));
        assert!(!s.may_match(&swapped));
    }

    #[test]
    fn non_exact_matchers_are_conservative() {
        let mut s = ClassSummary::new();
        s.note_insert(&obj(0, vec![Value::Int(5)]));
        let range = SearchCriterion::from(Template::new(vec![FieldMatcher::between(100, 200)]));
        // 5 is outside the range, but ranges are not fingerprinted: maybe.
        assert!(s.may_match(&range));
    }

    #[test]
    fn remove_to_empty_resets() {
        let mut s = ClassSummary::new();
        s.note_insert(&obj(0, vec![Value::Int(1)]));
        s.note_remove();
        assert!(s.is_empty());
        assert_eq!(s, ClassSummary::new());
    }

    #[test]
    fn rebuild_equals_fresh_inserts() {
        let objs: Vec<PasoObject> = (0..10)
            .map(|n| obj(n, vec![Value::Int(n as i64), Value::symbol("x")]))
            .collect();
        let mut incremental = ClassSummary::new();
        for o in &objs {
            incremental.note_insert(o);
        }
        assert_eq!(ClassSummary::rebuild(objs.iter()), incremental);
    }

    #[test]
    fn wire_round_trip() {
        let mut s = ClassSummary::new();
        for n in 0..20 {
            s.note_insert(&obj(n, vec![Value::Int(n as i64), Value::from("payload")]));
        }
        let bytes = paso_wire::encode_to_vec(&s);
        assert_eq!(bytes.len(), s.encoded_len());
        let back: ClassSummary = paso_wire::decode_exact(&bytes).unwrap();
        assert_eq!(back, s);
        for cut in 0..bytes.len() {
            assert!(paso_wire::decode_exact::<ClassSummary>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn summary_stays_small_regardless_of_contents() {
        let mut s = ClassSummary::new();
        for n in 0..1000 {
            s.note_insert(&obj(n, vec![Value::Int(n as i64); 8]));
        }
        assert!(s.encoded_len() <= 2 + 10 + 8 * BLOOM_WORDS);
    }
}
