//! Indexed event queue: a binary heap with positions.
//!
//! The engine's previous `BinaryHeap<Reverse<Queued>>` could only push and
//! pop; cancelling a pending event (a timer whose node crashed) meant
//! leaving a tombstone to be filtered at pop time. At millions of nodes
//! tombstones accumulate faster than they drain, so this queue keeps a
//! slab of entries plus a heap of entry indices and maintains each entry's
//! heap position, giving O(log n) *cancel* and *reschedule* by key — the
//! classic "indexed priority queue" idiom.
//!
//! Ordering is `(time, seq)`: sim-time first, insertion sequence as the
//! deterministic tie-break, exactly as before. Checkpoint/restore relies
//! on `push_with_seq` to re-enqueue events under their original sequence
//! numbers so the pop order of a restored run is byte-identical.

use crate::time::SimTime;

/// Stable handle onto a queued event; survives heap reordering, detects
/// reuse-after-pop via a generation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKey {
    slot: u32,
    gen: u32,
}

const NO_POS: u32 = u32::MAX;

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    /// Index into the heap array, `NO_POS` while free.
    pos: u32,
    gen: u32,
    payload: Option<T>,
}

/// A min-ordered indexed priority queue over `(time, seq)`.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: Vec<u32>,
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue; sequence numbers start at 0.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            entries: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Pre-sizes the queue for `additional` pending events. Checkpoint
    /// restore knows the exact event count up front; growing a million-entry
    /// slab by doubling was a visible slice of the restore/save asymmetry.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.entries.reserve(additional);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The next sequence number a plain [`push`](Self::push) would use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Forces the sequence counter (checkpoint restore).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// Enqueues `payload` at `time`, assigning the next sequence number.
    pub fn push(&mut self, time: SimTime, payload: T) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, payload)
    }

    /// Enqueues under an explicit sequence number without touching the
    /// counter — checkpoint restore re-creates events under their
    /// original sequence numbers so tie-breaks replay identically.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, payload: T) -> EventKey {
        let slot = match self.free.pop() {
            Some(slot) => {
                let e = &mut self.entries[slot as usize];
                e.time = time;
                e.seq = seq;
                e.payload = Some(payload);
                slot
            }
            None => {
                let slot = self.entries.len() as u32;
                self.entries.push(Entry {
                    time,
                    seq,
                    pos: NO_POS,
                    gen: 0,
                    payload: Some(payload),
                });
                slot
            }
        };
        let pos = self.heap.len() as u32;
        self.heap.push(slot);
        self.entries[slot as usize].pos = pos;
        self.sift_up(pos as usize);
        EventKey {
            slot,
            gen: self.entries[slot as usize].gen,
        }
    }

    /// Earliest pending `(time, seq)`, if any.
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(|&slot| {
            let e = &self.entries[slot as usize];
            (e.time, e.seq)
        })
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let &slot = self.heap.first()?;
        self.remove_at(0);
        let e = &mut self.entries[slot as usize];
        let out = (e.time, e.seq, e.payload.take().expect("occupied entry"));
        Some(out)
    }

    /// The pending event `key` refers to, or `None` if the key is stale.
    pub fn get(&self, key: EventKey) -> Option<&T> {
        let e = self.entries.get(key.slot as usize)?;
        if e.gen != key.gen || e.pos == NO_POS {
            return None;
        }
        e.payload.as_ref()
    }

    /// True iff `key` still refers to a pending (not yet popped or
    /// cancelled) event.
    pub fn is_live(&self, key: EventKey) -> bool {
        self.get(key).is_some()
    }

    /// Cancels a pending event in O(log n). Returns its payload, or
    /// `None` if the key is stale (already popped or cancelled).
    pub fn cancel(&mut self, key: EventKey) -> Option<T> {
        let e = self.entries.get(key.slot as usize)?;
        if e.gen != key.gen || e.pos == NO_POS {
            return None;
        }
        let pos = e.pos as usize;
        self.remove_at(pos);
        self.entries[key.slot as usize].payload.take()
    }

    /// Moves a pending event to a new time in O(log n), keeping its
    /// payload and assigning a fresh sequence number (it is "re-sent").
    /// Returns false if the key is stale.
    pub fn reschedule(&mut self, key: EventKey, time: SimTime) -> bool {
        let Some(e) = self.entries.get(key.slot as usize) else {
            return false;
        };
        if e.gen != key.gen || e.pos == NO_POS {
            return false;
        }
        let pos = e.pos as usize;
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = &mut self.entries[key.slot as usize];
        e.time = time;
        e.seq = seq;
        self.sift_down(pos);
        self.sift_up(self.entries[key.slot as usize].pos as usize);
        true
    }

    /// Visits every pending event (arbitrary order) — the checkpoint
    /// serializer sorts by `(time, seq)` itself.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, u64, &T)> {
        self.heap.iter().map(move |&slot| {
            let e = &self.entries[slot as usize];
            (e.time, e.seq, e.payload.as_ref().expect("occupied entry"))
        })
    }

    /// Detaches entry at heap position `pos`, freeing its slot.
    fn remove_at(&mut self, pos: usize) {
        let slot = self.heap[pos];
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.entries[self.heap[pos] as usize].pos = pos as u32;
        self.heap.pop();
        {
            let e = &mut self.entries[slot as usize];
            e.pos = NO_POS;
            e.gen = e.gen.wrapping_add(1);
        }
        self.free.push(slot);
        if pos < self.heap.len() {
            self.sift_down(pos);
            self.sift_up(self.entries[self.heap[pos] as usize].pos as usize);
        }
    }

    #[inline]
    fn rank(&self, slot: u32) -> (SimTime, u64) {
        let e = &self.entries[slot as usize];
        (e.time, e.seq)
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.rank(self.heap[pos]) < self.rank(self.heap[parent]) {
                self.heap.swap(pos, parent);
                self.entries[self.heap[pos] as usize].pos = pos as u32;
                self.entries[self.heap[parent] as usize].pos = parent as u32;
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < self.heap.len() && self.rank(self.heap[right]) < self.rank(self.heap[left]) {
                best = right;
            }
            if self.rank(self.heap[best]) < self.rank(self.heap[pos]) {
                self.heap.swap(pos, best);
                self.entries[self.heap[pos] as usize].pos = pos as u32;
                self.entries[self.heap[best] as usize].pos = best as u32;
                pos = best;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a1");
        q.push(t(10), "a2");
        q.push(t(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["a1", "a2", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_only_the_keyed_event() {
        let mut q = EventQueue::new();
        let _a = q.push(t(1), 'a');
        let b = q.push(t(2), 'b');
        let _c = q.push(t(3), 'c');
        assert_eq!(q.get(b), Some(&'b'));
        assert_eq!(q.cancel(b), Some('b'));
        assert_eq!(q.get(b), None);
        assert_eq!(q.len(), 2);
        // Double cancel and cancel-after-pop are inert.
        assert_eq!(q.cancel(b), None);
        let popped: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(popped, ['a', 'c']);
        assert_eq!(q.cancel(b), None);
    }

    #[test]
    fn stale_keys_do_not_hit_reused_slots() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1u32);
        q.pop().unwrap();
        // The freed slot is reused by the next push; the old key must
        // not cancel the new occupant.
        let b = q.push(t(2), 2u32);
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancel(b), Some(2));
    }

    #[test]
    fn reschedule_moves_event_and_rebreaks_ties_late() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), "a");
        q.push(t(10), "b");
        assert!(q.reschedule(a, t(10)));
        // `a` got a fresh seq, so it now loses the tie against `b`.
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["b", "a"]);
        assert!(!q.reschedule(a, t(1)), "stale key");
    }

    #[test]
    fn push_with_seq_replays_original_tiebreak() {
        // Forward run: two same-time events in seq order 5 then 9.
        let mut q = EventQueue::new();
        q.push_with_seq(t(7), 9, "late");
        q.push_with_seq(t(7), 5, "early");
        q.set_next_seq(10);
        assert_eq!(q.next_seq(), 10);
        assert_eq!(q.pop().map(|(_, s, p)| (s, p)), Some((5, "early")));
        assert_eq!(q.pop().map(|(_, s, p)| (s, p)), Some((9, "late")));
    }

    #[test]
    fn iter_pending_sees_everything_once() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(t(1000 - i), i);
        }
        let mut seen: Vec<u64> = q.iter_pending().map(|(_, _, p)| *p).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn heap_invariant_under_random_interleaving() {
        // Model-based check: a deterministic pseudo-random mix of
        // push/cancel/pop, mirrored into a BTreeSet reference model.
        use std::collections::BTreeSet;
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new(); // (time, seq)
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..2000 {
            match step() % 4 {
                0 | 1 => {
                    let time = step() % 512;
                    let seq = q.next_seq();
                    let k = q.push(t(time), time);
                    keys.push((k, (time, seq)));
                    model.insert((time, seq));
                }
                2 => {
                    if !keys.is_empty() {
                        let i = (step() as usize) % keys.len();
                        let (k, rank) = keys.swap_remove(i);
                        if q.cancel(k).is_some() {
                            assert!(model.remove(&rank), "cancelled a ghost");
                        } else {
                            assert!(!model.contains(&rank), "cancel missed a live event");
                        }
                    }
                }
                _ => match q.pop() {
                    Some((time, seq, p)) => {
                        assert_eq!(p, time.as_micros());
                        let min = model.pop_first().expect("model agrees queue non-empty");
                        assert_eq!((time.as_micros(), seq), min, "pop must be the minimum");
                    }
                    None => assert!(model.is_empty()),
                },
            }
        }
        while let Some((time, seq, _)) = q.pop() {
            assert_eq!(model.pop_first(), Some((time.as_micros(), seq)));
        }
        assert!(model.is_empty());
    }
}
