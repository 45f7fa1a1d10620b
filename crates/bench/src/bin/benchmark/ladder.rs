//! The per-layer ladder: the workload's own op mix, at the workload's
//! store size, replayed one op at a time through each layer's public
//! entry points from the bottom up. Each rung contains the rungs below
//! it, so a layer's *self* time is its rung minus the rung beneath:
//!
//! ```text
//! wire      encode + try_decode of request, client frame, server frame
//! storage   store / mem_read / remove on a bare Scan store
//! core      the sans-I/O server + vsync through SimSystem (wall time)
//! runtime   Cluster over Channel, then over Tcp (the reactor's share)
//! proxy     one connection, window 1, through the gateway
//! ```
//!
//! With one op in flight the self times add up to the top rung; the gap
//! between that and the workload's own whole-run median latency is
//! `bench.ladder_residual_frac` (queueing, contention, anything a
//! single-op replay cannot see).

use std::hint::black_box;
use std::time::{Duration, Instant};

use paso_core::{
    encode, try_decode, ClientRequest, ClientResult, PasoConfig, ProxyClientFrame,
    ProxyServerFrame, SimSystem,
};
use paso_runtime::TransportKind;
use paso_storage::{store_for, AutoStore, ClassStore};
use paso_types::QueryKind;

use crate::gen::{Kind, Plan, PlannedOp, Shape, Verdict};
use crate::live::{self, LiveSpec, Load};
use crate::metrics::ratio;
use crate::spans::Spans;
use crate::{Driver, Outcome, RunSpec, Workload};

/// Ladder ops per second of `--seconds`: the rungs are fixed op counts,
/// sized so the whole ladder fits in the traced pass's spare budget.
const OPS_PER_SECOND: f64 = 200.0;

/// Cost of one `Instant::now()` pair, subtracted from per-call timings of
/// sub-microsecond calls.
fn timer_overhead() -> Duration {
    let mut pairs: Vec<Duration> = (0..1001)
        .map(|_| {
            let a = Instant::now();
            black_box(Instant::now()) - a
        })
        .collect();
    pairs.sort_unstable();
    pairs[pairs.len() / 2]
}

struct WireRung {
    encode_ns: f64,
    decode_ns: f64,
    req_bytes: f64,
}

/// Encodes and decodes, for every op, the three frames it travels in.
fn wire_rung(shape: Shape, ops: &[PlannedOp], spans: &mut Spans) -> WireRung {
    let frames: Vec<(ClientRequest, ProxyClientFrame, ProxyServerFrame)> = ops
        .iter()
        .enumerate()
        .map(|(i, &op)| {
            let client_op = shape.client_op(op, 0);
            let result = match op.kind {
                Kind::Insert => ClientResult::Inserted,
                Kind::Read | Kind::ReadDel => ClientResult::Found(shape.object(op.key, 0)),
            };
            (
                ClientRequest {
                    op_id: i as u64,
                    op: client_op.clone(),
                },
                ProxyClientFrame::Op {
                    seq: i as u64,
                    op: client_op,
                },
                ProxyServerFrame::Done {
                    seq: i as u64,
                    result,
                },
            )
        })
        .collect();
    let t0 = Instant::now();
    let encoded: Vec<[Vec<u8>; 3]> = frames
        .iter()
        .map(|(req, cf, sf)| black_box([encode(req), encode(cf), encode(sf)]))
        .collect();
    let t1 = Instant::now();
    for [req, cf, sf] in &encoded {
        black_box(try_decode::<ClientRequest>(req).expect("own encoding decodes"));
        black_box(try_decode::<ProxyClientFrame>(cf).expect("own encoding decodes"));
        black_box(try_decode::<ProxyServerFrame>(sf).expect("own encoding decodes"));
    }
    let t2 = Instant::now();
    // Sub-µs calls: one span per batch, not per op.
    spans.record(0, "wire", "encode_all", "ladder", t0, t1);
    spans.record(0, "wire", "decode_all", "ladder", t1, t2);
    let n = ops.len() as f64;
    WireRung {
        encode_ns: (t1 - t0).as_nanos() as f64 / n,
        decode_ns: (t2 - t1).as_nanos() as f64 / n,
        req_bytes: encoded.iter().map(|e| e[0].len() as f64).sum::<f64>() / n,
    }
}

struct StorageRung {
    /// Mean ns per call, by op kind.
    ns: [f64; 3],
    cost_per_read: f64,
    /// Mean ns per op over the whole mix.
    ns_per_op: f64,
}

/// The ops' store-level halves on a bare store of the workload's kind
/// (`Scan`, the config default) preloaded to the workload's size.
fn storage_rung(shape: Shape, plan: &Plan, ops: &[PlannedOp], spans: &mut Spans) -> StorageRung {
    let mut store = AutoStore::for_kind(store_for(QueryKind::Scan));
    for &op in &plan.prefill {
        store.store(shape.object(op.key, 0));
    }
    let overhead = timer_overhead();
    let mut total = [Duration::ZERO; 3];
    let mut calls = [0u32; 3];
    let mut read_cost = 0u64;
    let begin = Instant::now();
    for &op in ops {
        let (obj, sc) = (shape.object(op.key, 0), shape.criterion(op.key));
        let t = Instant::now();
        match op.kind {
            Kind::Insert => {
                black_box(store.store(obj));
            }
            Kind::Read => read_cost += black_box(store.mem_read(&sc)).1 .0,
            Kind::ReadDel => {
                black_box(store.remove(&sc));
            }
        }
        total[op.kind as usize] += t.elapsed().saturating_sub(overhead);
        calls[op.kind as usize] += 1;
    }
    spans.record(0, "storage", "replay_all", "ladder", begin, Instant::now());
    let ns = |k: Kind| {
        ratio(
            total[k as usize].as_nanos() as f64,
            f64::from(calls[k as usize]),
        )
    };
    StorageRung {
        ns: [ns(Kind::Insert), ns(Kind::Read), ns(Kind::ReadDel)],
        cost_per_read: ratio(read_cost as f64, f64::from(calls[Kind::Read as usize])),
        ns_per_op: total.iter().sum::<Duration>().as_nanos() as f64 / ops.len() as f64,
    }
}

/// The live op stream through `SimSystem` with the live cluster's shape
/// (n = 4, λ = 1, defaults): wall time per op is the CPU the sans-I/O
/// server and vsync spend on it. Returns µs per op and failures.
fn core_rung(shape: Shape, plan: &Plan, ops: &[PlannedOp], spans: &mut Spans) -> (f64, u64) {
    let cfg = PasoConfig::builder(live::N, live::LAMBDA).adaptive(false);
    let mut sys = SimSystem::new(cfg.build());
    sys.trace_buf().set_enabled(false);
    let mut failed = 0u64;
    let mut exec = |sys: &mut SimSystem, i: usize, op: PlannedOp| {
        let result = crate::sim::exec(sys, shape, (i % live::N) as u32, op);
        failed += u64::from(shape.verdict(op, &result) != Verdict::Ok);
    };
    for (i, &op) in plan.prefill.iter().enumerate() {
        exec(&mut sys, i, op);
    }
    let begin = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        let t = Instant::now();
        exec(&mut sys, i, op);
        spans.record(
            i as u64,
            "core",
            op.kind.label(),
            "ladder",
            t,
            Instant::now(),
        );
    }
    (
        begin.elapsed().as_secs_f64() * 1e6 / ops.len() as f64,
        failed,
    )
}

/// Runs the rungs this workload has, fills the ladder metrics of `out`,
/// and returns the self-time table.
pub fn run(w: &Workload, run: &RunSpec, out: &mut Outcome, spans: &mut Spans) -> String {
    let n_ops = ((run.seconds * OPS_PER_SECOND) as usize).max(300);
    // One stream standing in for all of the workload's: same mix, and a
    // pool as deep as theirs together, so stores are the workload's size.
    let (shape, live_spec) = match w.driver {
        Driver::Live(spec) => (
            Shape {
                depth: spec.shape.depth * spec.streams(),
                ..spec.shape
            },
            Some(spec),
        ),
        Driver::Sim(_) => (crate::sim::SHAPE, None),
    };
    let plan = Plan::generate(shape, run.seed, 0, n_ops);
    let ops = &plan.ops[..n_ops];

    let wire = wire_rung(shape, ops, spans);
    out.layer.set("wire.encode_ns_per_op", wire.encode_ns);
    out.layer.set("wire.decode_ns_per_op", wire.decode_ns);
    out.layer.set("wire.req_bytes_per_op", wire.req_bytes);
    let storage = storage_rung(shape, &plan, ops, spans);
    out.layer
        .set("storage.store_ns", storage.ns[Kind::Insert as usize]);
    out.layer
        .set("storage.mem_read_ns", storage.ns[Kind::Read as usize]);
    out.layer
        .set("storage.remove_ns", storage.ns[Kind::ReadDel as usize]);
    out.layer
        .set("storage.cost_per_read", storage.cost_per_read);

    // (layer, cumulative rung in µs), bottom up.
    let wire_us = (wire.encode_ns + wire.decode_ns) / 1e3;
    let mut rungs: Vec<(&str, f64)> = vec![
        ("wire", wire_us),
        ("storage", wire_us + storage.ns_per_op / 1e3),
    ];
    if let Some(spec) = live_spec {
        let (core_us, core_failed) = core_rung(shape, &plan, ops, spans);
        out.layer.set("core.cpu_us_per_op", core_us);
        rungs.push(("core", core_us));
        let one_caller = LiveSpec {
            load: Load::Direct { callers: 1 },
            shape,
        };
        let mut live_rung = |spec: &LiveSpec, transport, layer| {
            let (p50, attempted, failed) =
                live::rung(spec, transport, run.seed, n_ops, layer, spans);
            out.attempted += attempted;
            out.failed += failed;
            p50
        };
        let channel = live_rung(&one_caller, TransportKind::Channel, "runtime.channel");
        let tcp = live_rung(&one_caller, TransportKind::Tcp, "runtime.tcp");
        out.layer.set("runtime.direct_channel_p50_us", channel);
        out.layer.set("runtime.tcp_extra_p50_us", tcp - channel);
        rungs.push(("runtime.channel", channel));
        rungs.push(("runtime.tcp", tcp));
        if spec.uses_proxy() {
            let one_conn = LiveSpec {
                load: Load::ProxySat {
                    conns: 1,
                    window: 1,
                },
                shape,
            };
            let proxy = live_rung(&one_conn, TransportKind::Tcp, "proxy");
            out.layer.set("proxy.extra_p50_us", proxy - tcp);
            rungs.push(("proxy", proxy));
        }
        out.attempted += (plan.prefill.len() + n_ops) as u64;
        out.failed += core_failed;
    } else {
        // The sim workloads *are* the core layer; `sim.rs` measured it.
        rungs.push(("core", out.layer.get("core.cpu_us_per_op")));
    }

    let top = rungs.last().map_or(0.0, |r| r.1);
    // The rungs are whole-run medians of one system each; so is this.
    let lat = out.layer.get("bench.whole_run_lat_p50_us");
    if live_spec.is_some() {
        out.layer
            .set("bench.ladder_residual_frac", 1.0 - ratio(top, lat));
    }

    let mut table = format!(
        "  ladder ({n_ops} ops, one in flight; self = rung - rung below)\n    {:<18} {:>12} {:>12}\n",
        "layer", "rung us", "self us"
    );
    let mut below = 0.0;
    for (layer, rung) in &rungs {
        table += &format!("    {layer:<18} {rung:>12.3} {:>12.3}\n", rung - below);
        below = *rung;
    }
    table
        + &format!(
            "    {:<18} {lat:>12.3}   (workload bench.whole_run_lat_p50_us)",
            "end-to-end"
        )
}
