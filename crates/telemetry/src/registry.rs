use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::hist::{HistSnapshot, Histogram};

/// Monotonically increasing f64 value, stored as bit-cast `AtomicU64`.
///
/// f64 because the existing `vs.count`/`Action::Count` plumbing throughout
/// core and vsync counts in f64 deltas; keeping the type means every legacy
/// counter migrates onto the registry without touching its call sites.
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

/// Process-wide intern table mapping metric names that arrive as owned
/// strings (deserialized snapshots) onto `&'static str`. Each distinct
/// name is leaked exactly once, ever, across all registries.
pub fn intern(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::OnceLock;
    static TABLE: OnceLock<RwLock<BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| RwLock::new(BTreeSet::new()));
    if let Some(s) = table.read().get(name) {
        return s;
    }
    let mut w = table.write();
    if let Some(s) = w.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    w.insert(leaked);
    leaked
}

#[derive(Default)]
struct Tables {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    gauges: BTreeMap<&'static str, Arc<Gauge>>,
    hists: BTreeMap<&'static str, Arc<Histogram>>,
}

/// The metrics registry shared by simnet engines, live nodes and clients.
///
/// Names are `&'static str` so steady-state updates never allocate; the
/// name table is behind an `RwLock` but callers that cache the returned
/// `Arc` (or go through [`Telemetry::count`] on a hot path that has already
/// registered the name) only ever take the read side.
#[derive(Default)]
pub struct Telemetry {
    tables: RwLock<Tables>,
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry::default()
    }

    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = self.tables.read().counters.get(name) {
            return c.clone();
        }
        self.tables
            .write()
            .counters
            .entry(name)
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        if let Some(g) = self.tables.read().gauges.get(name) {
            return g.clone();
        }
        self.tables
            .write()
            .gauges
            .entry(name)
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.tables.read().hists.get(name) {
            return h.clone();
        }
        self.tables
            .write()
            .hists
            .entry(name)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Convenience: bump a counter by name.
    pub fn count(&self, name: &'static str, delta: f64) {
        self.counter(name).add(delta);
    }

    /// Convenience: record a histogram sample by name.
    pub fn record(&self, name: &'static str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Loads a previously captured [`Snapshot`] into this registry:
    /// counters and gauges are set to the snapshot's values, histogram
    /// contents are absorbed. Intended for checkpoint/restore of a
    /// simulation run into a *fresh* registry, so that metric totals
    /// continue exactly where the checkpoint left them.
    ///
    /// Names arriving from a serialized snapshot are owned `String`s while
    /// the registry interns `&'static str`; unseen names are leaked once
    /// into a process-wide intern table (bounded by the metric-name
    /// vocabulary, which is small and static in practice).
    pub fn restore(&self, snap: &Snapshot) {
        for (name, value) in &snap.counters {
            self.counter(intern(name)).set(*value);
        }
        for (name, value) in &snap.gauges {
            self.gauge(intern(name)).set(*value);
        }
        for (name, hist) in &snap.hists {
            self.histogram(intern(name)).absorb(hist);
        }
    }

    pub fn snapshot(&self) -> Snapshot {
        let t = self.tables.read();
        Snapshot {
            counters: t
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: t
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            hists: t
                .hists
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
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

    #[test]
    fn counter_f64_semantics() {
        let t = Telemetry::new();
        t.count("x", 1.5);
        t.count("x", 2.5);
        assert_eq!(t.snapshot().counter("x"), 4.0);
        assert_eq!(t.snapshot().counter("absent"), 0.0);
    }

    #[test]
    fn snapshot_merge_adds() {
        let a = Telemetry::new();
        a.count("n", 2.0);
        a.record("h", 10);
        let b = Telemetry::new();
        b.count("n", 3.0);
        b.record("h", 20);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counter("n"), 5.0);
        assert_eq!(s.hist("h").count, 2);
        assert_eq!(s.hist("h").sum, 30);
    }

    #[test]
    fn restore_reproduces_snapshot_in_fresh_registry() {
        let a = Telemetry::new();
        a.count("net.msgs_sent", 41.0);
        a.gauge("live.nodes").set(3.0);
        a.record("net.msg_bytes", 64);
        a.record("net.msg_bytes", 900);
        let snap = a.snapshot();

        let b = Telemetry::new();
        b.restore(&snap);
        assert_eq!(b.snapshot(), snap, "restore must reproduce the totals");

        // Continuing after restore keeps counting from the restored value.
        b.count("net.msgs_sent", 1.0);
        assert_eq!(b.snapshot().counter("net.msgs_sent"), 42.0);
    }

    #[test]
    fn json_dump_is_wellformed_enough() {
        let t = Telemetry::new();
        t.count("a.b", 1.0);
        t.gauge("g").set(2.0);
        t.record("h", 7);
        let j = t.snapshot().dump_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"a.b\":1"));
        assert!(j.contains("\"buckets\""));
    }
}
