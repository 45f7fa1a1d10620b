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
//! ids (the `paso_telemetry::metrics` table), so nothing is counted twice
//! and the two can never disagree.

use std::fmt;

use paso_telemetry::metrics;
use paso_telemetry::{CounterId, HistId, HistSnapshot, Telemetry};

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
    /// Labeled counters, indexed by [`CounterId`]: whatever actors bump
    /// through `Action::Count`, plus the engine's own `fault.churn.*`.
    counters: Vec<f64>,
}

impl Stats {
    /// Creates zeroed statistics for `n` nodes.
    pub fn new(n: usize) -> Self {
        Stats {
            work: vec![0; n],
            counters: vec![0.0; CounterId::COUNT],
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
    pub fn counter(&self, id: CounterId) -> f64 {
        self.counters.get(id.index()).copied().unwrap_or(0.0)
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

    pub(crate) fn bump(&mut self, id: CounterId, delta: f64) {
        self.counters[id.index()] += delta;
    }
}

/// The engine totals [`Stats`] keeps in fields, under the counter each
/// is published as.
pub(crate) fn totals(s: &Stats) -> [(CounterId, f64); 7] {
    [
        (metrics::NET_MSGS_SENT, s.msgs_sent as f64),
        (metrics::NET_BYTES_SENT, s.total_bytes as f64),
        (metrics::NET_MSG_COST, s.total_msg_cost),
        (metrics::NET_MSGS_DROPPED, s.dropped_msgs as f64),
        (metrics::WORK_TOTAL, s.work_total as f64),
        (metrics::FAULT_CRASHES, s.crashes as f64),
        (metrics::FAULT_RECOVERIES, s.recoveries as f64),
    ]
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
/// the counters it publishes, and the stored value is the accumulator's.
/// A counter the engine holds at zero is left alone, so a driver may
/// count into one the engine never bumps.
pub(crate) struct Publisher {
    /// Histogram samples since the last publish, indexed by [`HistId`]:
    /// `Action::Record` values and the engine's own `net.*` samples.
    hists: [HistSnapshot; HistId::COUNT],
}

impl Publisher {
    pub(crate) fn new() -> Self {
        Publisher {
            hists: std::array::from_fn(|_| HistSnapshot::empty()),
        }
    }

    /// Buffers one histogram sample.
    pub(crate) fn record(&mut self, id: HistId, value: u64) {
        self.hists[id.index()].record(value);
    }

    /// Stores every nonzero total `stats` holds under its metric and
    /// drains the histogram buffers.
    pub(crate) fn publish(&mut self, stats: &Stats, t: &Telemetry) {
        let labeled = CounterId::all().map(|id| (id, stats.counter(id)));
        for (id, value) in totals(stats).into_iter().chain(labeled) {
            if value != 0.0 {
                t.counter(id).set(value);
            }
        }
        for id in HistId::all() {
            let local = &mut self.hists[id.index()];
            if !local.is_empty() {
                t.histogram(id).absorb(local);
                *local = HistSnapshot::empty();
            }
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
        assert_eq!(s.counter(metrics::OP_RETRY_REPLAYED), 0.0);
        s.bump(metrics::OP_RETRY_REPLAYED, 1.5);
        s.bump(metrics::OP_RETRY_REPLAYED, 1.0);
        assert_eq!(s.counter(metrics::OP_RETRY_REPLAYED), 2.5);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Stats::new(2).to_string().is_empty());
    }
}
