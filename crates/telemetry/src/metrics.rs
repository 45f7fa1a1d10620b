//! The metric table: every name either driver reports, declared once.
//!
//! A row gives an id, its kind, the name a [`Snapshot`](crate::Snapshot)
//! reports, a unit and a one-line doc. The id's type follows the kind, so
//! a count into a histogram does not compile, and a
//! [`Telemetry`](crate::Telemetry) holds every row from the start: both
//! drivers show one schema without registering anything.

/// What a [`Telemetry`](crate::Telemetry) keeps for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Monotonic f64 total.
    Counter,
    /// Last-write-wins f64 value.
    Gauge,
    /// Power-of-two-bucket histogram of u64 samples.
    Histogram,
}

/// One row of the metric table.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// The name a [`Snapshot`](crate::Snapshot) reports it under.
    pub name: &'static str,
    pub kind: Kind,
    pub unit: &'static str,
    pub doc: &'static str,
}

/// A declared metric of kind `K` (a [`Kind`] as `u8`): its rank among
/// the table's rows of that kind, so a registry keeps each kind in a
/// dense array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id<const K: u8>(usize);

pub type CounterId = Id<{ Kind::Counter as u8 }>;
pub type GaugeId = Id<{ Kind::Gauge as u8 }>;
pub type HistId = Id<{ Kind::Histogram as u8 }>;

/// Declares [`METRICS`] and one id constant per row, in the idiom of
/// `paso_wire::wire_struct!`: `ID: Kind("name", "unit", "doc");`.
macro_rules! metrics {
    ($($id:ident: $kind:ident($name:literal, $unit:literal, $doc:literal);)+) => {
        /// Row positions, from which each id's rank is counted.
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Row { $($id),+ }

        /// Every declared metric, in table order.
        pub const METRICS: &[Metric] = &[$(
            Metric { name: $name, kind: Kind::$kind, unit: $unit, doc: $doc }
        ),+];

        $(
            #[doc = $doc]
            pub const $id: Id<{ Kind::$kind as u8 }> = Id(rows_before(Kind::$kind as u8, Row::$id as usize));
        )+
    };
}

metrics! {
    // Network: the bus in the simulator, the transports live.
    NET_MSGS_SENT: Counter("net.msgs_sent", "msgs", "Protocol messages sent, one per destination.");
    NET_BYTES_SENT: Counter("net.bytes_sent", "bytes", "Bytes put on the bus, or handed to a live writer.");
    NET_MSG_COST: Counter("net.msg_cost", "cost", "§4.3 msg-cost: Σ α + β·|m| over bus transmissions (simulator only).");
    NET_MSGS_DELIVERED: Counter("net.msgs_delivered", "msgs", "Frames a live transport handed off for delivery.");
    NET_MSGS_DROPPED: Counter("net.msgs_dropped", "msgs", "Messages lost on the failure path: destination down, queue full, connection lost.");
    NET_MSGS_FAULTED: Counter("net.msgs_faulted", "msgs", "Frames dropped by an injected fault (lossy link or partition).");
    NET_MSGS_DELAYED: Counter("net.msgs_delayed", "msgs", "Frames that took the injected-delay line.");
    NET_POLL_ERRORS: Counter("net.poll.errors", "errors", "I/O errors a transport absorbed, each costing at most a connection.");
    NET_MSG_BYTES: Histogram("net.msg_bytes", "bytes", "Wire size per protocol message.");
    NET_POLL_WAKEUPS: Histogram("net.poll.wakeups", "events", "Live: ready events per poll(2) return; simulator: one per bus delivery.");
    NET_WRITEV_BATCH_FRAMES: Histogram("net.writev.batch_frames", "frames", "Live: frames per vectored write; simulator: frames per send action.");
    NET_WRITEV_BATCH_BYTES: Histogram("net.writev.batch_bytes", "bytes", "Live: bytes per vectored write; simulator: wire bytes per send action.");
    NET_LINK_LATENCY_MICROS: Histogram("net.link.latency_micros", "us", "Injected delay per delayed frame.");
    NET_LINK_JITTER_MICROS: Histogram("net.link.jitter_micros", "us", "The jitter component of that delay.");
    // Servers.
    WORK_TOTAL: Counter("work.total", "units", "§4.3 work: processing units charged across all servers.");
    WIRE_DECODE_ERROR: Counter("wire.decode.error", "frames", "Frames or blobs that failed to decode and were dropped.");
    // Faults.
    FAULT_CRASHES: Counter("fault.crashes", "crashes", "Crashes executed, by the fault plan or the cluster API.");
    FAULT_RECOVERIES: Counter("fault.recoveries", "recoveries", "Completed recoveries.");
    FAULT_CHURN_CRASHES: Counter("fault.churn.crashes", "crashes", "Crashes the simulator's churn process injected.");
    FAULT_CHURN_RECOVERIES: Counter("fault.churn.recoveries", "recoveries", "Recoveries the simulator's churn process injected.");
    // Client ops, booked by `OpLedger` once per op whatever path it took.
    CLIENT_OP_INSERT: Counter("client.op.insert", "ops", "Inserts issued; retries excluded.");
    CLIENT_OP_READ: Counter("client.op.read", "ops", "Reads issued; retries excluded.");
    CLIENT_OP_READDEL: Counter("client.op.readdel", "ops", "Read&dels issued; retries excluded.");
    CLIENT_RETRIES: Counter("client.retries", "requests", "Requests re-sent under their original op id.");
    CLIENT_DUP_ANSWERS: Counter("client.dup_answers", "answers", "Second answers to a retried op, dropped after the op returned.");
    CLIENT_RESULTS_EVICTED: Counter("client.results_evicted", "results", "Unclaimed results evicted from the completion table.");
    OP_INSERT_LATENCY_MICROS: Histogram("op.insert.latency_micros", "us", "Insert latency, issue to return.");
    OP_READ_LATENCY_MICROS: Histogram("op.read.latency_micros", "us", "Read latency, issue to return.");
    OP_READDEL_LATENCY_MICROS: Histogram("op.readdel.latency_micros", "us", "Read&del latency, issue to return.");
    OP_INSERT_MSG_COST: Histogram("op.insert.msg_cost", "cost", "Marginal bus cost per synchronous insert (Figure 1).");
    OP_READ_MSG_COST: Histogram("op.read.msg_cost", "cost", "Marginal bus cost per synchronous read (Figure 1).");
    OP_READDEL_MSG_COST: Histogram("op.readdel.msg_cost", "cost", "Marginal bus cost per synchronous read&del (Figure 1).");
    // Operation expansion in `MemoryServer` (§4.3).
    OP_INSERT_GCAST: Counter("op.insert.gcast", "gcasts", "Inserts group-cast to a class's write group.");
    OP_READDEL_GCAST: Counter("op.readdel.gcast", "gcasts", "Read&dels group-cast to a class's write group.");
    OP_READ_LOCAL: Counter("op.read.local", "classes", "Reads served from the local replica.");
    OP_READ_REMOTE: Counter("op.read.remote", "classes", "Reads group-cast to a class's read group.");
    OP_READ_ANYCAST: Counter("op.read.anycast", "classes", "Point reads asked of one replica.");
    OP_READ_ANYCAST_DECLINED: Counter("op.read.anycast.declined", "classes", "Point reads the asked replica declined, so the class was group-cast.");
    OP_MARKER_PLACE: Counter("op.marker.place", "markers", "Blocking-op markers placed.");
    OP_MARKER_WAKE: Counter("op.marker.wake", "ops", "Blocking ops a marker woke.");
    OP_RETRY_REPLAYED: Counter("op.retry.replayed", "requests", "Retried requests answered from the result cache.");
    OP_RETRY_INFLIGHT: Counter("op.retry.inflight", "requests", "Retried requests whose first attempt was still executing.");
    OP_BATCH_GCASTS: Counter("op.batch.gcasts", "gcasts", "Batched gcasts, each carrying several ops.");
    OP_BATCH_OPS: Histogram("op.batch.ops", "ops", "Ops per batched gcast.");
    ADAPTIVE_JOIN: Counter("adaptive.join", "joins", "Adaptive joins of a class's write group outside its basic support (§5.1).");
    ADAPTIVE_LEAVE: Counter("adaptive.leave", "leaves", "Adaptive leaves of a class's write group (§5.1).");
    // Virtual synchrony, the WAL and state transfer.
    VSYNC_DEDUP_STALE_DROPPED: Counter("vsync.dedup.stale_dropped", "msgs", "Gcasts and leader answers dropped below the origin's acknowledged floor (§3.4).");
    WAL_APPEND_BYTES: Counter("wal.append_bytes", "bytes", "WAL bytes appended.");
    WAL_COMPACTIONS: Counter("wal.compactions", "rewrites", "WAL snapshot rewrites.");
    WAL_RECOVERED_RECORDS: Counter("wal.recovered_records", "records", "WAL records replayed on recovery.");
    WAL_FSYNC_MICROS: Histogram("wal.fsync_micros", "us", "Latency per WAL sync, modelled in the simulator and timed live.");
    JOIN_DELTA_HIT: Counter("join.delta_hit", "joins", "Rejoins served from the WAL tail.");
    JOIN_FULL_XFER: Counter("join.full_xfer", "joins", "Joins served by a full state transfer.");
    JOIN_TRANSFER_BYTES: Histogram("join.transfer_bytes", "bytes", "Bytes shipped per state transfer, delta or full.");
    JOIN_LATENCY_MICROS: Histogram("join.latency_micros", "us", "Join start to install complete, per group.");
    // The proxy gateway (live only; zero in the simulator).
    PROXY_CLIENTS_ACCEPTED: Counter("proxy.clients.accepted", "conns", "Client connections accepted.");
    PROXY_CLIENTS_CLOSED: Counter("proxy.clients.closed", "conns", "Client connections closed.");
    PROXY_CLIENTS_ERRORS: Counter("proxy.clients.errors", "conns", "Client connections dropped on an I/O or framing error.");
    PROXY_CLIENTS_REPLIES_DROPPED: Counter("proxy.clients.replies_dropped", "frames", "Replies dropped because the client's write buffer was full.");
    PROXY_CLIENTS_OPEN: Gauge("proxy.clients.open", "conns", "Client connections open.");
    PROXY_AUTH_DENIED: Counter("proxy.auth.denied", "frames", "Connections refused by the auth check.");
    PROXY_FRAMES_IN: Counter("proxy.frames.in", "frames", "Client frames received.");
    PROXY_OPS_FORWARDED: Counter("proxy.ops.forwarded", "ops", "Ops forwarded to a server.");
    PROXY_OPS_COMPLETED: Counter("proxy.ops.completed", "ops", "Ops answered to their client.");
    PROXY_RETRIES: Counter("proxy.retries", "ops", "Ops re-sent after their retry slice ran out.");
    PROXY_BACKPRESSURE: Counter("proxy.backpressure", "ops", "Ops refused with `Busy`.");
    PROXY_BATCH_FLUSHES: Counter("proxy.batch.flushes", "batches", "Batches flushed to a server.");
    PROXY_BATCH_OPS: Histogram("proxy.batch.ops", "ops", "Ops per flushed batch.");
    PROXY_BATCH_BYTES: Histogram("proxy.batch.bytes", "bytes", "Encoded bytes per flushed batch.");
    PROXY_DONE_BATCHES: Counter("proxy.done_batches", "batches", "`Done` batches received from servers.");
    PROXY_ROUTE_LEADER: Counter("proxy.route.leader", "ops", "Writes routed to a class's vsync leader.");
    PROXY_ROUTE_MEMBER: Counter("proxy.route.member", "ops", "Reads routed to a live member of the class's basic support.");
    PROXY_ROUTE_FALLBACK: Counter("proxy.route.fallback", "ops", "Ops sent to any live server because no member was up.");
    PROXY_OP_LATENCY_MICROS: Histogram("proxy.op.latency_micros", "us", "Gateway latency per op, client request to answer.");
}

/// The number of rows of kind `kind` (as `u8`) before row `end`.
const fn rows_before(kind: u8, end: usize) -> usize {
    let (mut n, mut i) = (0, 0);
    while i < end {
        n += (METRICS[i].kind as u8 == kind) as usize;
        i += 1;
    }
    n
}

impl<const K: u8> Id<K> {
    /// How many rows of this kind the table declares.
    pub const COUNT: usize = rows_before(K, METRICS.len());

    fn rows() -> impl Iterator<Item = &'static Metric> {
        METRICS.iter().filter(|m| m.kind as u8 == K)
    }

    /// Every declared id of this kind, in table order.
    pub fn all() -> impl Iterator<Item = Self> {
        (0..Self::COUNT).map(Id)
    }

    /// The id declared under `name`, if one of this kind is.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::rows().position(|m| m.name == name).map(Id)
    }

    /// The name readers see it under.
    pub fn name(self) -> &'static str {
        let row = Self::rows().nth(self.0);
        row.expect("an id is the rank of a declared row").name
    }

    /// The id's index into an array of [`Id::COUNT`] slots.
    pub fn index(self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_ids_find_their_rows() {
        let names: std::collections::BTreeSet<_> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), METRICS.len(), "a name is declared twice");
        assert!(CounterId::all().all(|id| CounterId::by_name(id.name()) == Some(id)));
        assert!(HistId::all().all(|id| HistId::by_name(id.name()) == Some(id)));
        assert_eq!(PROXY_CLIENTS_OPEN.name(), "proxy.clients.open");
        assert_eq!(CounterId::by_name("net.msg_bytes"), None, "wrong kind");
    }
}
