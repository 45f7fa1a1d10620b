//! Per-layer metrics read from outside the product: telemetry counters
//! (`Telemetry::snapshot`) turned into per-op ratios. The timed ladder
//! rungs live in `ladder.rs`.

use paso_telemetry::{check_trace, Snapshot, TraceBuf, TraceKind};

use crate::metrics::{ratio, Values};

/// What a traced system's `TraceBuf` held when its run ended.
pub struct TraceSummary {
    events: usize,
    dropped: u64,
    view_changes: usize,
    axioms_ok: bool,
}

impl TraceSummary {
    /// Counts the recorded events and checks them against A1–A3.
    pub fn read(buf: &TraceBuf) -> Self {
        let events = buf.events();
        TraceSummary {
            events: events.len(),
            dropped: buf.dropped(),
            view_changes: events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::ViewChange { .. }))
                .count(),
            axioms_ok: check_trace(&events).ok(),
        }
    }

    /// Fills the trace-sourced metrics for a system that ran `ops` ops.
    /// Returns false if an axiom was violated or an event was dropped.
    pub fn report(&self, ops: f64, out: &mut Values) -> bool {
        out.set(
            "telemetry.trace_events_per_op",
            ratio(self.events as f64, ops),
        );
        out.set("telemetry.trace_dropped", self.dropped as f64);
        out.set("vsync.view_changes", self.view_changes as f64);
        self.axioms_ok && self.dropped == 0
    }
}

/// What happened between two snapshots of one registry: counters and
/// histogram counts/sums/buckets subtract. (`min`/`max` cannot be
/// windowed and keep the later snapshot's values.)
pub fn delta(later: &Snapshot, earlier: &Snapshot) -> Snapshot {
    let mut out = later.clone();
    for (name, v) in &mut out.counters {
        *v -= earlier.counter(name);
    }
    for (name, h) in &mut out.hists {
        let e = earlier.hist(name);
        h.count = h.count.wrapping_sub(e.count);
        h.sum = h.sum.wrapping_sub(e.sum);
        for (b, eb) in h.buckets.iter_mut().zip(e.buckets) {
            *b = b.wrapping_sub(eb);
        }
    }
    out
}

/// The `vsync` and `core` counters every workload has, from `snap`, which
/// covers `ops` measured operations. Join figures exist only where a join
/// happened.
pub fn common(snap: &Snapshot, ops: f64, out: &mut Values) {
    let c = |name: &str| snap.counter(name);
    out.set(
        "vsync.gcasts_per_op",
        (c("op.insert.gcast") + c("op.readdel.gcast") + c("op.read.remote")) / ops,
    );
    let joins = c("join.delta_hit") + c("join.full_xfer");
    if joins > 0.0 {
        out.set(
            "vsync.join_transfer_bytes_mean",
            snap.hist("join.transfer_bytes").mean(),
        );
        // Bucket upper edge: the product histogram is power-of-two (ROADMAP 1).
        out.set(
            "vsync.join_latency_p50_us",
            snap.hist("join.latency_micros").approx_quantile(0.5) as f64,
        );
        out.set("vsync.delta_hit_frac", c("join.delta_hit") / joins);
    }
    out.set("core.work_per_op", c("work.total") / ops);
    out.set("core.adaptive_joins", c("adaptive.join"));
    out.set("core.adaptive_leaves", c("adaptive.leave"));
    out.set(
        "core.local_read_frac",
        ratio(c("op.read.local"), c("client.op.read")),
    );
}

/// The live cluster's client and reactor counters.
pub fn runtime(snap: &Snapshot, ops: f64, out: &mut Values) {
    let c = |name: &str| snap.counter(name);
    out.set("runtime.client_retries", c("client.retries"));
    out.set("runtime.results_evicted", c("client.results_evicted"));
    out.set("runtime.msgs_dropped", c("net.msgs_dropped"));
    out.set(
        "runtime.writev_batch_frames_mean",
        snap.hist("net.writev.batch_frames").mean(),
    );
    out.set(
        "runtime.poll_wakeups_per_op",
        snap.hist("net.poll.wakeups").count as f64 / ops,
    );
}

/// The gateway's counters (proxy workloads only).
pub fn proxy(snap: &Snapshot, ops: f64, out: &mut Values) {
    let c = |name: &str| snap.counter(name);
    out.set("proxy.batch_ops_mean", snap.hist("proxy.batch.ops").mean());
    out.set("proxy.flushes_per_op", c("proxy.batch.flushes") / ops);
    out.set("proxy.retries_per_op", c("proxy.retries") / ops);
    out.set(
        "proxy.busy_frac",
        ratio(c("proxy.backpressure"), c("proxy.frames.in")),
    );
}

/// The write-ahead log's counters (durable systems only).
pub fn durable(snap: &Snapshot, ops: f64, out: &mut Values) {
    let c = |name: &str| snap.counter(name);
    out.set("durable.wal_bytes_per_op", c("wal.append_bytes") / ops);
    out.set("durable.compactions", c("wal.compactions"));
    out.set("durable.recovered_records", c("wal.recovered_records"));
    out.set(
        "durable.fsync_mean_us",
        snap.hist("wal.fsync_micros").mean(),
    );
}
