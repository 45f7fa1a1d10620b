use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

/// Identity of a PASO object inside a trace, independent of `paso-types`
/// (this crate sits below it in the dependency graph).  Drivers map their
/// native `ObjectId { origin: NodeId, seq } `onto this pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjRef {
    pub origin: u64,
    pub seq: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Insert,
    Read,
    ReadDel,
}

/// How an operation completed, as seen by the issuing client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Insert acknowledged durable.
    Inserted,
    /// Read / read&del matched and returned this object.
    Found(ObjRef),
    /// Completed without a match (`fail` arm of the paper's read).
    Fail,
    /// Gave up: deadline, retry budget, or unavailable quorum.
    Error,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Client issued an operation.  `obj` is the object being inserted
    /// (None for read/read&del, whose object is known only at completion).
    OpBegin {
        op_id: u64,
        op: OpKind,
        obj: Option<ObjRef>,
    },
    /// Operation returned to the client.
    OpEnd {
        op_id: u64,
        op: OpKind,
        outcome: Outcome,
    },
    /// A gcast fan-out left a node: `targets` members, `bytes` payload each.
    Gcast {
        group: u64,
        targets: u32,
        bytes: u64,
    },
    /// A new view was installed for `group` on this node.
    ViewChange {
        group: u64,
        view: u64,
        members: u32,
    },
    /// Fault injection: node crash / recovery (node is the event's `node`).
    Crash,
    Recover,
    /// Fault injection at the transport: a frame to `to` was dropped/delayed.
    NetDrop {
        to: u32,
    },
    NetDelay {
        to: u32,
        micros: u64,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim-time micros under simnet; monotonic micros since start live.
    pub at_micros: u64,
    /// Node the event is attributed to (client node for op events).
    pub node: u32,
    pub kind: TraceKind,
}

/// Bounded in-memory trace stream.  Recording is append-under-mutex — trace
/// events are orders of magnitude rarer than metric updates, so a mutex is
/// fine where the registry needs atomics.  Once `cap` events are buffered,
/// further events are counted in `dropped` rather than recorded, so a
/// runaway run degrades to truncated-trace rather than OOM.
#[derive(Debug)]
pub struct TraceBuf {
    events: Mutex<Vec<TraceEvent>>,
    enabled: AtomicBool,
    dropped: AtomicU64,
    cap: usize,
}

impl TraceBuf {
    /// Room for a 20 s traced run at about one event per op and up to
    /// ~400k ops/s (a saturated proxy reaches 72–89k on two vCPUs). A
    /// run whose trace drops an event cannot be checked against A1–A3 as
    /// a whole.
    pub const DEFAULT_CAP: usize = 1 << 23;

    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    pub fn with_capacity(cap: usize) -> Self {
        TraceBuf {
            events: Mutex::new(Vec::new()),
            enabled: AtomicBool::new(true),
            dropped: AtomicU64::new(0),
            cap,
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn record(&self, at_micros: u64, node: u32, kind: TraceKind) {
        if !self.is_enabled() {
            return;
        }
        let mut ev = self.events.lock();
        if ev.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ev.push(TraceEvent {
            at_micros,
            node,
            kind,
        });
    }

    /// Number of events that did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Copy out the recorded events (in record order).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    pub fn clear(&self) {
        self.events.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl Default for TraceBuf {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_buffer_counts_overflow() {
        let t = TraceBuf::with_capacity(2);
        for i in 0..4 {
            t.record(i, 0, TraceKind::Crash);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn disable_stops_recording() {
        let t = TraceBuf::new();
        t.set_enabled(false);
        t.record(0, 0, TraceKind::Recover);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
