//! The metric vocabulary: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; a unit test holds the two
//! together.

use std::collections::BTreeMap;

use paso_wire::mini_json::Json;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a client of the system sees. Reported by every workload, never 0.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("lat_p50_us", "us"),
    m("msgs_per_op", "count"),
    m("bytes_per_op", "B"),
];

/// Single-layer diagnostics (layer = crate), plus the client-side figures
/// that cannot carry a regression bound: `failed_frac` and the simulator's
/// Figure 1 columns are zero or undefined on some workloads; `peak_rss_mb`
/// and the per-type latency medians did not repeat well enough (half the
/// proxy's reads are local and half remote, so their median sits between
/// two modes).
pub const PER_LAYER: &[MetricDef] = &[
    m("failed_frac", "frac"),
    m("insert_p50_us", "us"),
    m("read_p50_us", "us"),
    m("readdel_p50_us", "us"),
    m("peak_rss_mb", "MiB"),
    m("msg_cost_per_op", "cost"),
    m("sim_lat_p50_us", "sim_us"),
    m("sim_lat_p99_us", "sim_us"),
    m("wire.encode_ns_per_op", "ns"),
    m("wire.decode_ns_per_op", "ns"),
    m("wire.req_bytes_per_op", "B"),
    m("storage.store_ns", "ns"),
    m("storage.mem_read_ns", "ns"),
    m("storage.remove_ns", "ns"),
    m("storage.cost_per_read", "count"),
    m("simnet.events_per_wall_s", "1/s"),
    m("simnet.events_per_op", "count"),
    m("simnet.bus_busy_frac", "frac"),
    m("vsync.gcasts_per_op", "count"),
    m("vsync.view_changes", "count"),
    m("vsync.join_transfer_bytes_mean", "B"),
    m("vsync.join_latency_p50_us", "us"),
    m("vsync.delta_hit_frac", "frac"),
    m("core.cpu_us_per_op", "us"),
    m("core.work_per_op", "count"),
    m("core.adaptive_joins", "count"),
    m("core.adaptive_leaves", "count"),
    m("core.local_read_frac", "frac"),
    m("core.adaptive_on_failed_frac", "frac"),
    m("core.adaptive_on_ops_per_s", "1/s"),
    m("core.fault_failed_frac", "frac"),
    m("runtime.direct_channel_p50_us", "us"),
    m("runtime.tcp_extra_p50_us", "us"),
    m("runtime.client_lat_p99_us", "us"),
    m("runtime.client_retries", "count"),
    m("runtime.results_evicted", "count"),
    m("runtime.msgs_dropped", "count"),
    m("runtime.writev_batch_frames_mean", "count"),
    m("runtime.poll_wakeups_per_op", "count"),
    m("runtime.two_caller_lat_p50_us", "us"),
    m("runtime.two_caller_ops_per_s", "1/s"),
    m("proxy.extra_p50_us", "us"),
    m("proxy.batch_ops_mean", "count"),
    m("proxy.flushes_per_op", "count"),
    m("proxy.retries_per_op", "count"),
    m("proxy.busy_frac", "frac"),
    m("proxy.client_lat_p99_us", "us"),
    m("durable.wal_bytes_per_op", "B"),
    m("durable.wal_bytes_per_user_byte", "B/B"),
    m("durable.compactions", "count"),
    m("durable.recovered_records", "count"),
    m("durable.fsync_mean_us", "sim_us"),
    m("telemetry.trace_overhead_frac", "frac"),
    m("telemetry.trace_events_per_op", "count"),
    m("telemetry.trace_dropped", "count"),
    m("bench.gen_late_p99_us", "us"),
    m("bench.gen_late_max_us", "us"),
    m("bench.ladder_residual_frac", "frac"),
    m("bench.whole_run_ops_per_s", "1/s"),
    m("bench.whole_run_lat_p50_us", "us"),
    m("bench.live_objects_end", "count"),
    m("bench.samples", "count"),
];

/// Measured values by metric name. A metric a workload does not produce
/// (the proxy on `sim_*`, join sizes where nothing joined) stays absent:
/// the tables and the output file leave it out, and only the driver's
/// result line, which must carry every name, reads it as 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name`, which must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Values) {
        for (k, v) in &other.0 {
            self.0.insert(k, *v);
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for every metric in `defs`.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_owned(),
                        Json::obj([
                            ("value", Json::Num(self.get(d.name))),
                            ("unit", Json::Str(d.unit.to_owned())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
