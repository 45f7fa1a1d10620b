//! Simulation statistics: the three cost measures of §4.3, and where the
//! simulator counts.
//!
//! - `msg-cost` — total `α + β·|m|` over all bus transmissions;
//! - `work` — per-node processing units (summed for the global measure);
//! - `time` — simulated wall-clock, read off the engine clock.
//!
//! [`Stats`] is the engine's one accumulator: plain fields, plain
//! arithmetic, one increment site per quantity on the per-message hot
//! path. The `paso-telemetry` registry is a *view* of it: at run
//! boundaries the [`Publisher`] stores the totals under the shared metric
//! names (DESIGN.md §6e), so nothing is counted twice and the two can
//! never disagree.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use paso_telemetry::{Counter, HistSnapshot, Histogram, Telemetry};

use crate::actor::NodeId;

/// Aggregated statistics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Number of bus messages transmitted (`net.msgs_sent`).
    pub msgs_sent: u64,
    /// Total message cost in cost units, `Σ α + β·|m|` (`net.msg_cost`).
    pub total_msg_cost: f64,
    /// Total bytes put on the bus (`net.bytes_sent`).
    pub total_bytes: u64,
    /// Messages paid for but dropped: destination down, or lost to the
    /// fault plan (`net.msgs_dropped`).
    pub dropped_msgs: u64,
    /// Total microseconds the shared bus was transmitting. Divided by the
    /// final simulated time this gives bus utilization — §5's observation
    /// that "total message cost is a lower bound on the time to complete
    /// the run" on a bus LAN, measurable.
    pub bus_busy_micros: u64,
    /// Per-node processing work units.
    pub(crate) work: Vec<u64>,
    /// `Σ work` (`work.total`), kept beside the column so reading it is
    /// O(1) at a million machines.
    work_total: u64,
    /// Number of crash events executed (`fault.crashes`).
    pub crashes: u64,
    /// Number of completed recoveries (`fault.recoveries`).
    pub recoveries: u64,
    /// Peak number of simultaneously failed machines (to check the `≤ λ`
    /// assumption held).
    pub max_concurrent_failures: usize,
    /// Total simulation events processed by the engine (throughput
    /// denominator for the scale benchmarks).
    pub events_processed: u64,
    /// Labeled counters: whatever actors bump through `Action::Count`,
    /// plus the engine's own `fault.churn.*`. Each is published under its
    /// own name.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Stats {
    /// Creates zeroed statistics for `n` nodes.
    pub fn new(n: usize) -> Self {
        Stats {
            work: vec![0; n],
            ..Stats::default()
        }
    }

    /// Total work over all nodes (the paper's global `work` measure).
    pub fn total_work(&self) -> u64 {
        self.work_total
    }

    /// Work performed by one node.
    pub fn node_work(&self, node: NodeId) -> u64 {
        self.work.get(node.index()).copied().unwrap_or(0)
    }

    /// Value of a labeled counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Charges `units` of work to `node`.
    pub(crate) fn charge(&mut self, node: NodeId, units: u64) {
        self.work[node.index()] += units;
        self.work_total += units;
    }

    /// Installs a checkpointed work column.
    pub(crate) fn set_work(&mut self, work: Vec<u64>) {
        self.work_total = work.iter().sum();
        self.work = work;
    }

    pub(crate) fn bump(&mut self, name: &'static str, delta: f64) {
        *self.counters.entry(name).or_insert(0.0) += delta;
    }
}

/// Publishes [`Stats`] into the registry at run boundaries (`run_until`,
/// `run_to_quiescence`, `take_outputs`, `snapshot`), and buffers the
/// engine's histogram samples until then. At millions of events per
/// second per-message CAS loops and atomic histogram updates dominated
/// the profile; counting in plain fields and publishing at the boundary
/// keeps the hot path pure arithmetic while external observers still see
/// totals at every point they could legitimately read them.
///
/// Counters are *stored*, not added: the engine is the only writer of
/// the names it publishes, and the stored value is the accumulator's.
pub(crate) struct Publisher {
    totals: [Total; 7],
    /// Labeled counters bumped since the last publish.
    touched: Vec<&'static str>,
    /// `net.msg_bytes`, plus shared-name mirrors of the live reactor's
    /// I/O histograms with driver-specific semantics (DESIGN.md §6e): one
    /// "wakeup" per bus delivery, one "batch" per send action (a fan-out
    /// is one batch of `targets` frames).
    pub(crate) msg_bytes: BufferedHist,
    pub(crate) poll_wakeups: BufferedHist,
    pub(crate) writev_batch_frames: BufferedHist,
    pub(crate) writev_batch_bytes: BufferedHist,
    pub(crate) link_latency: BufferedHist,
    pub(crate) link_jitter: BufferedHist,
    /// Actor-labeled histogram values (`Action::Record`), resolved
    /// against the registry at publish time.
    records: BTreeMap<&'static str, HistSnapshot>,
}

/// One engine total: its registry counter and the field it reads.
type Total = (Arc<Counter>, fn(&Stats) -> f64);

/// A registry histogram with a plain local buffer in front of it.
pub(crate) struct BufferedHist {
    handle: Arc<Histogram>,
    local: HistSnapshot,
}

impl BufferedHist {
    fn new(handle: Arc<Histogram>) -> Self {
        BufferedHist {
            handle,
            local: HistSnapshot::empty(),
        }
    }

    pub(crate) fn record(&mut self, value: u64) {
        self.local.record(value);
    }

    fn publish(&mut self) {
        if !self.local.is_empty() {
            self.handle.absorb(&self.local);
            self.local = HistSnapshot::empty();
        }
    }
}

impl Publisher {
    pub(crate) fn new(t: &Telemetry) -> Self {
        // Schema parity: the simulated bus cannot fail a poll(2), and a
        // run without churn never bumps `fault.churn.*`, but the names
        // must exist in every snapshot so dashboards and the differential
        // tests see one schema.
        t.counter("net.poll.errors");
        t.counter("fault.churn.crashes");
        t.counter("fault.churn.recoveries");
        Publisher {
            totals: [
                (t.counter("net.msgs_sent"), |s| s.msgs_sent as f64),
                (t.counter("net.bytes_sent"), |s| s.total_bytes as f64),
                (t.counter("net.msg_cost"), |s| s.total_msg_cost),
                (t.counter("net.msgs_dropped"), |s| s.dropped_msgs as f64),
                (t.counter("work.total"), |s| s.work_total as f64),
                (t.counter("fault.crashes"), |s| s.crashes as f64),
                (t.counter("fault.recoveries"), |s| s.recoveries as f64),
            ],
            touched: Vec::new(),
            msg_bytes: BufferedHist::new(t.histogram("net.msg_bytes")),
            poll_wakeups: BufferedHist::new(t.histogram("net.poll.wakeups")),
            writev_batch_frames: BufferedHist::new(t.histogram("net.writev.batch_frames")),
            writev_batch_bytes: BufferedHist::new(t.histogram("net.writev.batch_bytes")),
            link_latency: BufferedHist::new(t.histogram("net.link.latency_micros")),
            link_jitter: BufferedHist::new(t.histogram("net.link.jitter_micros")),
            records: BTreeMap::new(),
        }
    }

    /// Notes that `stats.counters[name]` moved.
    pub(crate) fn touch(&mut self, name: &'static str) {
        if self.touched.last() != Some(&name) {
            self.touched.push(name);
        }
    }

    /// Buffers one `Action::Record` sample.
    pub(crate) fn record(&mut self, name: &'static str, value: u64) {
        self.records
            .entry(name)
            .or_insert_with(HistSnapshot::empty)
            .record(value);
    }

    /// Stores every total `stats` holds under its metric name and drains
    /// the histogram buffers.
    pub(crate) fn publish(&mut self, stats: &Stats, t: &Telemetry) {
        for (counter, total) in &self.totals {
            counter.set(total(stats));
        }
        for name in self.touched.drain(..) {
            t.counter(name).set(stats.counter(name));
        }
        self.msg_bytes.publish();
        self.poll_wakeups.publish();
        self.writev_batch_frames.publish();
        self.writev_batch_bytes.publish();
        self.link_latency.publish();
        self.link_jitter.publish();
        while let Some((name, local)) = self.records.pop_first() {
            t.histogram(name).absorb(&local);
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "msgs={} cost={:.0} bytes={} dropped={} work={} crashes={} recoveries={}",
            self.msgs_sent,
            self.total_msg_cost,
            self.total_bytes,
            self.dropped_msgs,
            self.total_work(),
            self.crashes,
            self.recoveries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let mut s = Stats::new(3);
        s.charge(NodeId(0), 5);
        s.charge(NodeId(2), 7);
        assert_eq!(s.total_work(), 12);
        assert_eq!(s.node_work(NodeId(2)), 7);
        assert_eq!(s.node_work(NodeId(9)), 0);
    }

    #[test]
    fn counters_default_to_zero() {
        let mut s = Stats::new(1);
        assert_eq!(s.counter("absent"), 0.0);
        s.bump("x", 1.5);
        s.bump("x", 1.0);
        assert_eq!(s.counter("x"), 2.5);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Stats::new(2).to_string().is_empty());
    }
}
