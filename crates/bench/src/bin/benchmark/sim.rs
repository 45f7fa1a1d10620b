//! The two simulator workloads: the same insert → read → read&del cycle
//! through `SimSystem`, one synchronous op at a time, issued round-robin
//! from every machine. Every count the simulator produces repeats exactly
//! for a given seed, so a run is a series of identical rounds of a fixed
//! op count: counts are the first round's, wall-clock figures are taken
//! phase by phase from the round that ran each phase best.

use std::time::{Duration, Instant};

use paso_core::{ClientResult, PasoConfig, SimSystem};
use paso_simnet::SimTime;
use paso_telemetry::Snapshot;
use paso_wire::Wire;

use crate::gen::{Kind, Plan, PlannedOp, Shape, Verdict};
use crate::layers::{self, TraceSummary};
use crate::metrics::{ratio, Values};
use crate::spans::Spans;
use crate::stats::{best_per_phase, fastest, median, ns_to_us, percentile, Better, PHASES};
use crate::{Outcome, RunSpec};

pub const SHAPE: Shape = Shape {
    tag: "sim",
    payload_bytes: 0,
    depth: 64,
    reads_per_step: 1,
};

/// Event budget for one synchronous op; exhausting it counts as a
/// timeout, as in `SimSystem`'s own synchronous wrappers.
const MAX_EVENTS_PER_OP: u64 = 1_000_000;

/// What distinguishes `sim_adaptive` from `sim_static`.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub adaptive: bool,
    pub durable: bool,
    /// Ops per round, whatever `--seconds` is: per-op counts that depend
    /// on the run's length (join transfers do) stay comparable between a
    /// smoke run and the driver's.
    pub ops_per_round: usize,
}

const N: usize = 8;
const LAMBDA: usize = 2;

fn config(spec: &SimSpec) -> PasoConfig {
    PasoConfig::builder(N, LAMBDA)
        .adaptive(spec.adaptive)
        .durable(spec.durable)
        .build()
}

/// One synchronous op that never panics the harness.
pub fn exec(sys: &mut SimSystem, shape: Shape, node: u32, op: PlannedOp) -> ClientResult {
    let id = match op.kind {
        Kind::Insert => sys.issue_insert(node, shape.fields(op.key)).0,
        Kind::Read => sys.issue_read(node, shape.criterion(op.key), false),
        Kind::ReadDel => sys.issue_read_del(node, shape.criterion(op.key), false),
    };
    sys.wait(id, MAX_EVENTS_PER_OP)
        .unwrap_or(ClientResult::TimedOut)
}

/// What a round does besides replaying the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    /// The product's trace stream records from the first op.
    Traced,
    /// λ machines crash a third of the way in and are repaired
    /// [`OUTAGE_FRAC`] later, and again at two thirds.
    Faults,
}

/// Share of a round's ops issued while the crashed machines are down.
const OUTAGE_FRAC: f64 = 1.0 / 18.0;

struct Round {
    setup_s: f64,
    wall_s: f64,
    /// Wall nanoseconds of each measured op, in plan order.
    wall_ns: Vec<(Kind, u64)>,
    /// Wall seconds each phase of the round took.
    phase_s: Vec<f64>,
    /// Simulated microseconds issue → return, all measured ops.
    sim_us: Vec<u64>,
    attempted: u64,
    unserved: u64,
    wrong: u64,
    /// Counter deltas over the measured ops.
    msgs: f64,
    bytes: f64,
    msg_cost: f64,
    events: f64,
    bus_busy_us: f64,
    sim_elapsed_us: f64,
    tel: Snapshot,
    /// Encoded bytes of every object inserted, set-up included.
    user_bytes: f64,
    live_objects: usize,
    semantics_ok: bool,
    trace: Option<TraceSummary>,
}

/// Median wall time of the ops of `kind` among `ops`, µs.
fn p50_us(ops: &[(Kind, u64)], kind: Option<Kind>) -> f64 {
    let mut ns: Vec<u64> = ops
        .iter()
        .filter(|(k, _)| kind.is_none_or(|want| want == *k))
        .map(|(_, ns)| *ns)
        .collect();
    ns_to_us(percentile(&mut ns, 0.5))
}

impl Round {
    /// Median wall time of `kind`, phase by phase.
    fn phase_p50_us(&self, kind: Option<Kind>) -> Vec<f64> {
        self.wall_ns
            .chunks(self.wall_ns.len().div_ceil(PHASES))
            .map(|ops| p50_us(ops, kind))
            .collect()
    }
}

fn round(spec: &SimSpec, run: &RunSpec, mode: Mode, spans: &mut Spans) -> Round {
    let t0 = Instant::now();
    let ops = spec.ops_per_round;
    let plan = Plan::generate(SHAPE, run.seed, 0, ops);
    let mut sys = SimSystem::new(config(spec));
    sys.trace_buf().set_enabled(mode == Mode::Traced);
    // Ops rotate over the machines, starting where the seed says and
    // passing over a machine that is down (its processes are halted).
    let node_of = |sys: &SimSystem, i: usize| {
        (0..N)
            .map(|k| ((run.seed as usize % N + i + k) % N) as u32)
            .find(|m| sys.status(*m).is_up())
            .expect("at most λ < n machines are down")
    };
    let (mut unserved, mut wrong) = (0u64, 0u64);
    let mut tally = |v: Verdict| match v {
        Verdict::Ok => {}
        Verdict::Unserved => unserved += 1,
        Verdict::Wrong => wrong += 1,
    };
    for (i, &op) in plan.prefill.iter().enumerate() {
        let node = node_of(&sys, i);
        tally(SHAPE.verdict(op, &exec(&mut sys, SHAPE, node, op)));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // (op index, crash or repair) for the λ machines after the seed's.
    let victims = || (1..=LAMBDA).map(|k| ((run.seed as usize + k) % N) as u32);
    let outage = (ops as f64 * OUTAGE_FRAC) as usize;
    let faults: Vec<(usize, bool)> = match mode {
        Mode::Faults => [ops / 3, 2 * ops / 3]
            .into_iter()
            .flat_map(|at| [(at, true), (at + outage, false)])
            .collect(),
        _ => Vec::new(),
    };

    let stats0 = sys.stats().clone();
    let sim0 = sys.now();
    let first_measured_op = plan.prefill.len() as u64;
    let mut wall_ns = Vec::with_capacity(ops);
    let mut phase_s = Vec::with_capacity(PHASES);
    let phase_ops = ops.div_ceil(PHASES);
    let begin = Instant::now();
    let mut phase_begin = begin;
    for (i, &op) in plan.ops.iter().take(ops).enumerate() {
        for &(_, crash) in faults.iter().filter(|(at, _)| *at == i) {
            for m in victims() {
                if crash {
                    sys.crash(m);
                } else {
                    sys.repair(m);
                }
            }
        }
        let node = node_of(&sys, i);
        let start = Instant::now();
        let result = exec(&mut sys, SHAPE, node, op);
        let end = Instant::now();
        wall_ns.push((op.kind, (end - start).as_nanos() as u64));
        if mode == Mode::Traced {
            spans.record(i as u64, "core", op.kind.label(), "", start, end);
        }
        tally(SHAPE.verdict(op, &result));
        if (i + 1) % phase_ops == 0 || i + 1 == ops {
            let now = Instant::now();
            phase_s.push((now - phase_begin).as_secs_f64());
            phase_begin = now;
        }
    }
    let wall_s = begin.elapsed().as_secs_f64();
    // Flushes the engine's buffered telemetry into the registry.
    sys.run_for(SimTime::from_micros(0));

    let stats = sys.stats();
    let sim_us: Vec<u64> = sys
        .run_log()
        .records()
        .filter(|r| r.op_id >= first_measured_op)
        .filter_map(|r| Some(r.returned?.saturating_since(r.issued).as_micros()))
        .collect();
    let trace = (mode == Mode::Traced).then(|| TraceSummary::read(sys.trace_buf()));
    Round {
        setup_s,
        wall_s,
        wall_ns,
        phase_s,
        sim_us,
        attempted: (plan.prefill.len() + ops) as u64,
        unserved,
        wrong,
        msgs: (stats.msgs_sent - stats0.msgs_sent) as f64,
        bytes: (stats.total_bytes - stats0.total_bytes) as f64,
        msg_cost: stats.total_msg_cost - stats0.total_msg_cost,
        events: (stats.events_processed - stats0.events_processed) as f64,
        bus_busy_us: (stats.bus_busy_micros - stats0.bus_busy_micros) as f64,
        sim_elapsed_us: sys.now().saturating_since(sim0).as_micros() as f64,
        tel: sys.telemetry().snapshot(),
        user_bytes: plan
            .prefill
            .iter()
            .chain(plan.ops.iter().take(ops))
            .filter(|op| op.kind == Kind::Insert)
            .map(|op| Wire::encoded_len(&SHAPE.object(op.key, 0)) as f64)
            .sum(),
        live_objects: sys.report().classes.iter().map(|c| c.live).sum(),
        semantics_ok: sys.check_semantics().ok(),
        trace,
    }
}

/// Runs identical rounds until `--seconds` of measured wall time have
/// accumulated.
pub fn run(spec: &SimSpec, run: &RunSpec, spans: &mut Spans) -> Outcome {
    let budget = Duration::from_secs_f64(run.seconds);
    // A traced run spends half its budget on plain rounds (the untraced
    // reference) and then runs one round with the trace stream on.
    let plain_budget = if run.trace { budget / 2 } else { budget };
    let mut plain: Vec<Round> = Vec::new();
    let mut measured = Duration::ZERO;
    while plain.is_empty() || measured < plain_budget {
        let r = round(spec, run, Mode::Plain, spans);
        measured += Duration::from_secs_f64(r.wall_s);
        plain.push(r);
    }
    let traced = run.trace.then(|| round(spec, run, Mode::Traced, spans));

    let ops_f = spec.ops_per_round as f64;
    let first = &plain[0];
    // Wall-clock figures: every round replays the same ops, so each phase
    // of the plan was timed once per round; its figure is the best of
    // those (see `stats::best_per_phase`), and the round's is the sum
    // (time) or median (latency) over its phases. Counts: the first
    // round's.
    let per_phase = |f: &dyn Fn(&Round) -> Vec<f64>| {
        best_per_phase(&plain.iter().map(f).collect::<Vec<_>>(), Better::Lower)
    };
    let over_rounds = |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let ops_per_s = ops_f / per_phase(&|r| r.phase_s.clone()).iter().sum::<f64>();
    let phase_p50_us = |kind| median(&per_phase(&|r| r.phase_p50_us(kind)));

    let rounds = || plain.iter().chain(&traced);
    let mut e2e = Values::default();
    e2e.set(
        "setup_s",
        fastest(&rounds().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    e2e.set("ops_per_s", ops_per_s);
    e2e.set("lat_p50_us", phase_p50_us(None));
    e2e.set("msgs_per_op", first.msgs / ops_f);
    e2e.set("bytes_per_op", first.bytes / ops_f);

    let mut layer = Values::default();
    let failed: u64 = rounds().map(|r| r.unserved + r.wrong).sum();
    let attempted: u64 = rounds().map(|r| r.attempted).sum();
    layer.set("failed_frac", ratio(failed as f64, attempted as f64));
    for (name, kind) in [
        ("insert_p50_us", Kind::Insert),
        ("read_p50_us", Kind::Read),
        ("readdel_p50_us", Kind::ReadDel),
    ] {
        layer.set(name, phase_p50_us(Some(kind)));
    }
    layer.set("msg_cost_per_op", first.msg_cost / ops_f);
    let mut sim_us = first.sim_us.clone();
    layer.set("sim_lat_p50_us", percentile(&mut sim_us, 0.5) as f64);
    layer.set("sim_lat_p99_us", percentile(&mut sim_us, 0.99) as f64);
    layer.set("simnet.events_per_wall_s", first.events / ops_f * ops_per_s);
    layer.set("simnet.events_per_op", first.events / ops_f);
    layer.set(
        "simnet.bus_busy_frac",
        ratio(first.bus_busy_us, first.sim_elapsed_us),
    );
    // The sim workload *is* the sans-I/O stack on one thread: its wall
    // time per op is the core layer's CPU cost.
    layer.set("core.cpu_us_per_op", 1e6 / ops_per_s);
    layers::common(&first.tel, ops_f, &mut layer);
    if spec.durable {
        layers::durable(&first.tel, ops_f, &mut layer);
        layer.set(
            "durable.wal_bytes_per_user_byte",
            ratio(first.tel.counter("wal.append_bytes"), first.user_bytes),
        );
    }
    // The same two figures the plain way, every stall of whatever origin
    // included: per round, median of the rounds.
    layer.set(
        "bench.whole_run_ops_per_s",
        over_rounds(&|r| ops_f / r.wall_s),
    );
    layer.set(
        "bench.whole_run_lat_p50_us",
        over_rounds(&|r| p50_us(&r.wall_ns, None)),
    );
    layer.set("bench.live_objects_end", first.live_objects as f64);
    layer.set("bench.samples", ops_f * plain.len() as f64);

    let mut correct = rounds().all(|r| r.wrong == 0 && r.semantics_ok);
    // Same seed, same plan: every round must reproduce the first one's
    // counts byte for byte, or the simulator is not deterministic.
    correct &= rounds()
        .all(|r| r.msgs == first.msgs && r.bytes == first.bytes && r.events == first.events);
    if let Some(t) = &traced {
        layer.set(
            "telemetry.trace_overhead_frac",
            1.0 - ratio(ops_f / t.wall_s, ops_per_s),
        );
        let summary = t.trace.as_ref().expect("traced round has a trace");
        correct &= summary.report(ops_f, &mut layer);
        if spec.adaptive {
            // With adaptive replication on, crashes lose keys or leave the
            // system `Unavailable` on some seeds, so the workload's own
            // rounds inject none (a workload may not contain failing ops).
            // This round does, so that the defect has a number a fix can
            // move; its failures are reported here and nowhere else.
            let f = round(spec, run, Mode::Faults, spans);
            layer.set(
                "core.fault_failed_frac",
                ratio((f.unserved + f.wrong) as f64, f.attempted as f64),
            );
            layer.set(
                "durable.recovered_records",
                f.tel.counter("wal.recovered_records"),
            );
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        e2e,
        layer,
    }
}
