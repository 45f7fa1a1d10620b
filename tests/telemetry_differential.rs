//! Differential telemetry: one workload, two drivers, one metric schema.
//!
//! The same deterministic op script runs on the seeded simulator and on a
//! live loopback-TCP cluster. Both report through `paso-telemetry`, so
//! the op-level counter totals (`client.op.*` — counted once at issue,
//! retries excluded by design) must be *identical*, and both recorded
//! trace streams must satisfy the §2 axioms A1–A3.

use std::collections::BTreeSet;

use paso::core::{PasoConfig, SimSystem};
use paso::runtime::{Cluster, TransportKind};
use paso::simnet::{ChurnModel, DelayDist, FaultPlan, SimTime};
use paso::telemetry::{check_trace, Kind, Snapshot, METRICS};
use paso::types::{SearchCriterion, Template, Value};

const SEED: u64 = 7;
const N: usize = 4;
const LAMBDA: usize = 1;

/// The shared workload: (op, value) pairs, issued round-robin across
/// machines. Values are chosen so every read/take finds something.
#[derive(Clone, Copy)]
enum Op {
    Insert(i64),
    Read(i64),
    Take(i64),
}

fn script() -> Vec<Op> {
    use Op::*;
    vec![
        Insert(1),
        Insert(2),
        Insert(3),
        Read(1),
        Take(2),
        Insert(4),
        Read(3),
        Take(1),
        Insert(5),
        Take(3),
        Read(4),
        Take(4),
        Insert(6),
        Read(5),
        Take(5),
        Take(6),
    ]
}

fn sc_eq(v: i64) -> SearchCriterion {
    SearchCriterion::from(Template::exact(vec![Value::symbol("d"), Value::Int(v)]))
}

fn fields(v: i64) -> Vec<Value> {
    vec![Value::symbol("d"), Value::Int(v)]
}

/// Every metric the table declares appears in both snapshots, filed
/// under the kind the table gives it, and nothing else does.
fn assert_declared_schema(sim: &Snapshot, live: &Snapshot) {
    let declared: BTreeSet<_> = METRICS.iter().map(|m| (m.name, m.kind)).collect();
    for snap in [sim, live] {
        let filed = (snap.counters.keys().map(|n| (n.as_str(), Kind::Counter)))
            .chain(snap.gauges.keys().map(|n| (n.as_str(), Kind::Gauge)))
            .chain(snap.hists.keys().map(|n| (n.as_str(), Kind::Histogram)));
        assert_eq!(filed.collect::<BTreeSet<_>>(), declared);
    }
}

fn op_totals(snap: &Snapshot) -> (f64, f64, f64) {
    (
        snap.counter("client.op.insert"),
        snap.counter("client.op.read"),
        snap.counter("client.op.readdel"),
    )
}

#[test]
fn simnet_and_tcp_report_identical_op_totals_and_legal_traces() {
    // --- Driver 1: the deterministic simulator ---
    let mut sys = SimSystem::new(PasoConfig::builder(N, LAMBDA).seed(SEED).build());
    for (i, op) in script().iter().enumerate() {
        let node = (i % N) as u32;
        match *op {
            Op::Insert(v) => {
                sys.insert(node, fields(v));
            }
            Op::Read(v) => {
                assert!(sys.read(node, sc_eq(v)).is_some(), "sim read({v})");
            }
            Op::Take(v) => {
                assert!(sys.read_del(node, sc_eq(v)).is_some(), "sim take({v})");
            }
        }
    }
    sys.settle(5_000_000);
    let sim_snap = sys.telemetry().snapshot();
    let sim_trace = sys.trace_events();

    // --- Driver 2: live threads over loopback TCP ---
    let cluster = Cluster::start(
        PasoConfig::builder(N, LAMBDA).seed(SEED).build(),
        TransportKind::Tcp,
    );
    for (i, op) in script().iter().enumerate() {
        let node = (i % N) as u32;
        match *op {
            Op::Insert(v) => {
                cluster.insert(node, fields(v)).expect("live insert");
            }
            Op::Read(v) => {
                assert!(
                    cluster.read(node, sc_eq(v)).expect("live read").is_some(),
                    "live read({v})"
                );
            }
            Op::Take(v) => {
                assert!(
                    cluster
                        .read_del(node, sc_eq(v))
                        .expect("live take")
                        .is_some(),
                    "live take({v})"
                );
            }
        }
    }
    let live_snap = cluster.telemetry().snapshot();
    let live_trace = cluster.trace_events();
    cluster.shutdown();

    // Same schema, same totals: the op-level counters agree exactly.
    let sim = op_totals(&sim_snap);
    let live = op_totals(&live_snap);
    assert_eq!(sim, live, "op-level counter totals diverged");
    let inserts = script()
        .iter()
        .filter(|o| matches!(o, Op::Insert(_)))
        .count() as f64;
    assert_eq!(sim.0, inserts);

    // Both drivers also count the low-level activity under the same
    // names (values differ — wall-clock vs virtual time — but the
    // schema must not).
    for name in ["net.msgs_sent", "work.total"] {
        assert!(sim_snap.counter(name) > 0.0, "sim missing {name}");
        assert!(live_snap.counter(name) > 0.0, "live missing {name}");
    }

    // … including a counter a clean run never bumps: every registry
    // holds it, so it reads zero rather than being absent.
    for snap in [&sim_snap, &live_snap] {
        assert_eq!(snap.counters.get("vsync.dedup.stale_dropped"), Some(&0.0));
    }

    // The reactor's I/O histograms share names across drivers too: the
    // live side records real poll(2) wakeups and writev batches, the sim
    // records its bus analogs (one wakeup per delivery, one batch per
    // send action — DESIGN.md §6e). Name parity means dashboards built
    // on either driver read the other unchanged.
    for name in [
        "net.poll.wakeups",
        "net.writev.batch_frames",
        "net.writev.batch_bytes",
    ] {
        assert!(
            sim_snap.hist(name).count > 0,
            "sim recorded no samples under {name}"
        );
        assert!(
            live_snap.hist(name).count > 0,
            "live recorded no samples under {name}"
        );
    }

    // And both recorded histories are axiom-legal.
    let sim_report = check_trace(&sim_trace);
    assert!(sim_report.ok(), "sim trace: {:?}", sim_report.violations);
    let live_report = check_trace(&live_trace);
    assert!(live_report.ok(), "live trace: {:?}", live_report.violations);
    assert_eq!(
        sim_report.ops_checked, live_report.ops_checked,
        "both drivers saw the same completed ops"
    );
}

/// Injected link latency keeps name parity across drivers: the same
/// delay+jitter fault plan drives the simulator's engine and a live TCP
/// cluster, and both must populate `net.link.latency_micros` /
/// `net.link.jitter_micros` — values differ (independent RNG streams),
/// the schema must not.
#[test]
fn injected_link_latency_histograms_share_names_across_drivers() {
    let plan = FaultPlan::none()
        .delay_all(DelayDist::uniform(100, 400))
        .jitter_all(DelayDist::fixed(50));

    // --- Driver 1: the simulator, plan installed through PasoConfig ---
    let mut sys = SimSystem::new(
        PasoConfig::builder(N, LAMBDA)
            .seed(SEED)
            .fault_plan(plan.clone())
            .build(),
    );
    for v in 1..=4 {
        sys.insert(0, fields(v));
    }
    for v in 1..=4 {
        assert!(sys.read(1, sc_eq(v)).is_some(), "sim read({v})");
    }
    sys.settle(5_000_000);
    let sim_snap = sys.telemetry().snapshot();

    // --- Driver 2: live TCP, same plan installed on the transport ---
    let cluster = Cluster::start_faulty(
        PasoConfig::builder(N, LAMBDA).seed(SEED).build(),
        TransportKind::Tcp,
        plan,
    );
    for v in 1..=4 {
        cluster.insert(0, fields(v)).expect("live insert");
    }
    for v in 1..=4 {
        assert!(
            cluster.read(1, sc_eq(v)).expect("live read").is_some(),
            "live read({v})"
        );
    }
    let live_snap = cluster.telemetry().snapshot();
    cluster.shutdown();

    for name in ["net.link.latency_micros", "net.link.jitter_micros"] {
        assert!(
            sim_snap.hist(name).count > 0,
            "sim recorded no samples under {name}"
        );
        assert!(
            live_snap.hist(name).count > 0,
            "live recorded no samples under {name}"
        );
    }
    // Every delayed frame records both histograms in lockstep, and the
    // jitter component is the fixed 50µs rider on each.
    for snap in [&sim_snap, &live_snap] {
        let lat = snap.hist("net.link.latency_micros");
        let jit = snap.hist("net.link.jitter_micros");
        assert_eq!(lat.count, jit.count, "latency/jitter recorded in pairs");
        assert_eq!(jit.min, 50, "jitter rider is the fixed 50µs");
        assert!(lat.min >= 150, "total delay includes base + jitter");
    }
}

/// Durability extends the shared schema: with `durable` on, both
/// drivers must expose the identical `wal.*` / `join.*` metric family —
/// same names, same counter-vs-histogram kinds — and both must account
/// WAL appends for the same delivered workload. Values beyond that
/// differ (rank timestamps change payload varint widths across
/// sim-time and wall-time), but the schema may not.
#[test]
fn durable_wal_and_join_metrics_share_schema_across_drivers() {
    let durable = |seed: u64| {
        PasoConfig::builder(N, LAMBDA)
            .seed(seed)
            .durable(true)
            .build()
    };

    // --- Driver 1: the simulator, with a crash/rejoin to exercise the
    // recovery metrics end-to-end ---
    let mut sys = SimSystem::new(durable(SEED));
    for (i, op) in script().iter().enumerate() {
        let node = (i % N) as u32;
        match *op {
            Op::Insert(v) => {
                sys.insert(node, fields(v));
            }
            Op::Read(v) => {
                assert!(sys.read(node, sc_eq(v)).is_some(), "sim read({v})");
            }
            Op::Take(v) => {
                assert!(sys.read_del(node, sc_eq(v)).is_some(), "sim take({v})");
            }
        }
    }
    sys.settle(5_000_000);
    let sim_snap = sys.telemetry().snapshot();

    // --- Driver 2: live threads, same durable workload ---
    let cluster = Cluster::start(durable(SEED), TransportKind::Channel);
    for (i, op) in script().iter().enumerate() {
        let node = (i % N) as u32;
        match *op {
            Op::Insert(v) => {
                cluster.insert(node, fields(v)).expect("live insert");
            }
            Op::Read(v) => {
                assert!(
                    cluster.read(node, sc_eq(v)).expect("live read").is_some(),
                    "live read({v})"
                );
            }
            Op::Take(v) => {
                assert!(
                    cluster
                        .read_del(node, sc_eq(v))
                        .expect("live take")
                        .is_some(),
                    "live take({v})"
                );
            }
        }
    }
    let live_snap = cluster.telemetry().snapshot();
    cluster.shutdown();

    // Identical schema: every declared metric, with its declared kind,
    // even on paths a run never exercised.
    assert_declared_schema(&sim_snap, &live_snap);

    // Both drivers actually journal the delivered workload.
    assert!(sim_snap.counter("wal.append_bytes") > 0.0, "sim WAL idle");
    assert!(live_snap.counter("wal.append_bytes") > 0.0, "live WAL idle");
}

/// The proxy tier shares the schema the same way durability does: with
/// gateway slots configured, both drivers show the `proxy.*` family —
/// same names, same counter-vs-gauge-vs-histogram kinds — even though
/// the simulator runs no live proxies. Dashboards built on either driver
/// read the other unchanged.
#[test]
fn proxy_metric_family_shares_schema_across_drivers() {
    let gated = |seed: u64| {
        PasoConfig::builder(N, LAMBDA)
            .seed(seed)
            .proxy_slots(2)
            .build()
    };

    let sys = SimSystem::new(gated(SEED));
    let sim_snap = sys.telemetry().snapshot();

    let cluster = Cluster::start(gated(SEED), TransportKind::Channel);
    let live_snap = cluster.telemetry().snapshot();
    cluster.shutdown();

    assert_declared_schema(&sim_snap, &live_snap);

    // The server-side batch metrics are unconditional: every deployment
    // shows them at zero before the first batch forms.
    for snap in [&sim_snap, &live_snap] {
        assert_eq!(snap.counters.get("op.batch.gcasts"), Some(&0.0));
        assert!(snap.hists.contains_key("op.batch.ops"));
    }
}

/// Churn counters extend the shared fault schema: the simulator's
/// Poisson churn counts `fault.churn.*` alongside the `fault.crashes` /
/// `fault.recoveries` names the live cluster's controller also uses.
#[test]
fn churn_counters_extend_the_shared_fault_schema() {
    // --- Driver 1: simulator with engine-driven churn, no client ops ---
    let mut sys = SimSystem::new(
        PasoConfig::builder(N, LAMBDA)
            .seed(SEED)
            .churn(ChurnModel::new(25.0, SimTime::from_micros(20_000), LAMBDA))
            .build(),
    );
    sys.run_for(SimTime::from_micros(2_000_000));
    let sim_snap = sys.telemetry().snapshot();
    let churn_crashes = sim_snap.counter("fault.churn.crashes");
    assert!(churn_crashes > 0.0, "2s at 100 ticks/s must crash someone");
    assert!(sim_snap.counter("fault.churn.recoveries") > 0.0);
    // Churn counters refine, not replace, the base fault schema.
    assert!(sim_snap.counter("fault.crashes") >= churn_crashes);
    assert!(sim_snap.counter("fault.recoveries") > 0.0);

    // --- Driver 2: live cluster, controller-driven crash/recover ---
    let cluster = Cluster::start(
        PasoConfig::builder(N, LAMBDA).seed(SEED).build(),
        TransportKind::Channel,
    );
    cluster.crash(2);
    cluster.recover(2);
    let live_snap = cluster.telemetry().snapshot();
    cluster.shutdown();
    assert_eq!(live_snap.counter("fault.crashes"), 1.0);
    assert_eq!(live_snap.counter("fault.recoveries"), 1.0);
    // The live controller plays scripts, not Poisson churn, so the churn
    // refinements stay zero there — same schema, one driver's extension.
    assert_eq!(live_snap.counter("fault.churn.crashes"), 0.0);
}
