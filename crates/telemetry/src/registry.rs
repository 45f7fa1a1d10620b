use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{HistSnapshot, Histogram};
use crate::metrics::{CounterId, GaugeId, HistId, Id};

/// Monotonically increasing f64 value, stored as bit-cast `AtomicU64`.
///
/// f64 because the engine counts fractional `β·|m|` msg-cost deltas.
pub struct Counter(AtomicU64);

impl Counter {
    fn new() -> Self {
        Counter(AtomicU64::new(0f64.to_bits()))
    }

    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Overwrite the value. For a counter whose accumulator lives outside
    /// the registry and has a single writer: a checkpoint restore, or the
    /// simulator publishing its `Stats` at a run boundary.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Last-write-wins f64 value (queue depths, live-node counts, ...).
pub struct Gauge(AtomicU64);

impl Gauge {
    fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A name that a [`Snapshot`] files under a kind the metric table does
/// not declare it with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndeclaredMetric(pub String);

/// The metrics registry shared by simnet engines, live nodes and clients:
/// one slot per row of the metric table, indexed by its typed id, so an
/// update is one atomic and never a name lookup.
pub struct Telemetry {
    counters: [Counter; CounterId::COUNT],
    gauges: [Gauge; GaugeId::COUNT],
    hists: [Histogram; HistId::COUNT],
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            counters: std::array::from_fn(|_| Counter::new()),
            gauges: std::array::from_fn(|_| Gauge::new()),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry::default()
    }

    pub fn counter(&self, id: CounterId) -> &Counter {
        &self.counters[id.index()]
    }

    pub fn gauge(&self, id: GaugeId) -> &Gauge {
        &self.gauges[id.index()]
    }

    pub fn histogram(&self, id: HistId) -> &Histogram {
        &self.hists[id.index()]
    }

    /// Bumps a counter.
    pub fn count(&self, id: CounterId, delta: f64) {
        self.counter(id).add(delta);
    }

    /// Records a histogram sample.
    pub fn record(&self, id: HistId, value: u64) {
        self.histogram(id).record(value);
    }

    /// Loads a previously captured [`Snapshot`] into this registry:
    /// counters and gauges are set to the snapshot's values, histogram
    /// contents are absorbed. Intended for checkpoint/restore of a
    /// simulation run into a *fresh* registry, so that metric totals
    /// continue exactly where the checkpoint left them.
    ///
    /// Every name must be declared with the kind it is filed under; on
    /// the first that is not, nothing has been loaded.
    pub fn restore(&self, snap: &Snapshot) -> Result<(), UndeclaredMetric> {
        fn ids<const K: u8, V>(
            map: &BTreeMap<String, V>,
        ) -> Result<Vec<(Id<K>, &V)>, UndeclaredMetric> {
            map.iter()
                .map(|(name, v)| Ok((Id::by_name(name).ok_or(UndeclaredMetric(name.clone()))?, v)))
                .collect()
        }
        let (counters, gauges, hists) =
            (ids(&snap.counters)?, ids(&snap.gauges)?, ids(&snap.hists)?);
        for (id, value) in counters {
            self.counter(id).set(*value);
        }
        for (id, value) in gauges {
            self.gauge(id).set(*value);
        }
        for (id, hist) in hists {
            self.histogram(id).absorb(hist);
        }
        Ok(())
    }

    /// Every declared metric's current value, under its name.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: CounterId::all()
                .map(|id| (id.name().to_string(), self.counter(id).get()))
                .collect(),
            gauges: GaugeId::all()
                .map(|id| (id.name().to_string(), self.gauge(id).get()))
                .collect(),
            hists: HistId::all()
                .map(|id| (id.name().to_string(), self.histogram(id).snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time plain-data view of a [`Telemetry`] registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, f64>,
    pub gauges: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Counter value, 0.0 when absent — mirrors how tests probe `SimStats`.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn hist(&self, name: &str) -> HistSnapshot {
        self.hists
            .get(name)
            .cloned()
            .unwrap_or_else(HistSnapshot::empty)
    }

    /// Merge another snapshot: counters/gauge-sums add, histograms merge.
    /// Associative and commutative, so cluster roll-ups are order-free.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.hists {
            self.hists
                .entry(k.clone())
                .or_insert_with(HistSnapshot::empty)
                .merge(v);
        }
    }

    /// Human-readable dump, one metric per line, sorted by name.
    pub fn dump_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge   {k} = {v}\n"));
        }
        for (k, h) in &self.hists {
            out.push_str(&format!(
                "hist    {k} count={} sum={} mean={:.1} p50~{} p99~{} max={}\n",
                h.count,
                h.sum,
                h.mean(),
                h.approx_quantile(0.5),
                h.approx_quantile(0.99),
                if h.count == 0 { 0 } else { h.max },
            ));
        }
        out
    }

    /// JSON dump (hand-rolled; the workspace is hermetic, no serde).
    pub fn dump_json(&self) -> String {
        fn jstr(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn jnum(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{}", jstr(k), jnum(*v)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{}:{}", jstr(k), jnum(*v)))
            .collect();
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| {
                format!(
                    "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                    jstr(k),
                    h.count,
                    h.sum,
                    if h.count == 0 { 0 } else { h.min },
                    h.max,
                    h.buckets
                        .iter()
                        .map(|b| b.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{NET_MSGS_SENT, NET_MSG_BYTES, PROXY_CLIENTS_OPEN};

    #[test]
    fn counter_f64_semantics() {
        let t = Telemetry::new();
        t.count(NET_MSGS_SENT, 1.5);
        t.count(NET_MSGS_SENT, 2.5);
        assert_eq!(t.snapshot().counter("net.msgs_sent"), 4.0);
        assert_eq!(t.snapshot().counter("absent"), 0.0);
    }

    #[test]
    fn snapshot_merge_adds() {
        let a = Telemetry::new();
        a.count(NET_MSGS_SENT, 2.0);
        a.record(NET_MSG_BYTES, 10);
        let b = Telemetry::new();
        b.count(NET_MSGS_SENT, 3.0);
        b.record(NET_MSG_BYTES, 20);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counter("net.msgs_sent"), 5.0);
        assert_eq!(s.hist("net.msg_bytes").count, 2);
        assert_eq!(s.hist("net.msg_bytes").sum, 30);
    }

    #[test]
    fn restore_reproduces_snapshot_in_fresh_registry() {
        let a = Telemetry::new();
        a.count(NET_MSGS_SENT, 41.0);
        a.gauge(PROXY_CLIENTS_OPEN).set(3.0);
        a.record(NET_MSG_BYTES, 64);
        a.record(NET_MSG_BYTES, 900);
        let snap = a.snapshot();

        let b = Telemetry::new();
        b.restore(&snap).unwrap();
        assert_eq!(b.snapshot(), snap, "restore must reproduce the totals");

        // Continuing after restore keeps counting from the restored value.
        b.count(NET_MSGS_SENT, 1.0);
        assert_eq!(b.snapshot().counter("net.msgs_sent"), 42.0);

        // An undeclared name, or a declared one filed under another kind,
        // is refused before anything loads.
        let (mut bad, c) = (snap.clone(), Telemetry::new());
        bad.counters.insert("zz.undeclared".into(), 1.0);
        assert_eq!(
            c.restore(&bad),
            Err(UndeclaredMetric("zz.undeclared".into()))
        );
        bad = snap.clone();
        bad.gauges.insert("net.msgs_sent".into(), 1.0);
        assert!(c.restore(&bad).is_err());
        assert_eq!(c.snapshot(), Telemetry::new().snapshot(), "nothing loaded");
    }

    #[test]
    fn json_dump_is_wellformed_enough() {
        let t = Telemetry::new();
        t.count(NET_MSGS_SENT, 1.0);
        t.gauge(PROXY_CLIENTS_OPEN).set(2.0);
        t.record(NET_MSG_BYTES, 7);
        let j = t.snapshot().dump_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"net.msgs_sent\":1"));
        assert!(j.contains("\"buckets\""));
    }
}
