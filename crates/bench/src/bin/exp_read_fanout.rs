//! Experiment (PR 3) — the **fast read path** on a many-class workload.
//!
//! The optimization under test is **summary pruning**. With
//! `summary_gossip_micros > 0`, servers gossip per-class digests (arity
//! set + per-position Bloom bits) and macro expansion demotes classes
//! whose summary says "no match", shrinking the `sc-list(sc)` walk from
//! *every* class matching the criterion shape to the handful that can
//! actually hold the object. We build a skewed workload — objects
//! concentrated in a few hot buckets of a `FirstFieldClassifier`, reads
//! with a wildcard first field so the exhaustive sc-list spans **all**
//! buckets — and compare classes contacted per read, messages per read,
//! and wall-clock with gossip off vs on.
//!
//! Usage:
//!   `cargo run --release -p paso-bench --bin exp_read_fanout`
//!   `cargo run --release -p paso-bench --bin exp_read_fanout -- --smoke`
//!
//! The full run writes `BENCH_PR3.json` in the working directory; the
//! `--smoke` run (CI) only prints.

use std::time::Instant;

use paso_bench::{f1, Table};
use paso_core::{ClassifierKind, PasoConfig, SimSystem};
use paso_simnet::SimTime;
use paso_types::{FieldMatcher, SearchCriterion, Template, Value};
use paso_wire::mini_json::Json;

struct Scale {
    buckets: u32,
    objects: i64,
    reads: i64,
}

/// One measured configuration of the read workload.
struct ReadRun {
    reads: i64,
    /// Remote class gcasts issued while serving the reads.
    remote_gcasts: f64,
    /// Average classes the walk *scheduled eagerly* per read
    /// (`sc-list` minus summary-pruned demotions).
    eager_classes_per_read: f64,
    pruned_total: f64,
    msgs: u64,
    wall_ms: f64,
}

/// Wildcard first field: the exhaustive `sc-list` spans every bucket.
fn sc_second(n: i64) -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Any,
        FieldMatcher::Exact(Value::Int(n)),
    ]))
}

fn run_reads(scale: &Scale, gossip_micros: u64) -> ReadRun {
    let cfg = PasoConfig::builder(6, 1)
        .seed(33)
        .classifier(ClassifierKind::FirstField(scale.buckets))
        .summary_gossip_micros(gossip_micros)
        .build();
    let mut sys = SimSystem::new(cfg);
    // Skew: every object lands in one of two hot first-field values, so
    // all but (at most) two of the `buckets` classes stay empty forever.
    for i in 0..scale.objects {
        sys.insert((i % 3) as u32, vec![Value::Int(i % 2), Value::Int(i)]);
    }
    // Let a couple of gossip rounds land everywhere (no-op when off).
    sys.run_for(SimTime::from_millis(150));

    let before_gcasts = sys.stats().counter("op.read.remote");
    let before_sc_list = sys.stats().counter("read.sc_list");
    let before_pruned = sys.stats().counter("read.pruned");
    let before_msgs = sys.stats().msgs_sent;
    let wall = Instant::now();
    for i in 0..scale.reads {
        let got = sys.read(5, sc_second(i % scale.objects));
        assert!(got.is_some(), "read {i} must find its object");
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let sc_list = sys.stats().counter("read.sc_list") - before_sc_list;
    let pruned = sys.stats().counter("read.pruned") - before_pruned;
    let eager = if gossip_micros == 0 {
        // Pruning disabled: the walk schedules the full sc-list, which
        // the counter doesn't record — reconstruct it from the shape.
        scale.buckets as f64
    } else {
        (sc_list - pruned) / scale.reads as f64
    };
    ReadRun {
        reads: scale.reads,
        remote_gcasts: sys.stats().counter("op.read.remote") - before_gcasts,
        eager_classes_per_read: eager,
        pruned_total: pruned,
        msgs: sys.stats().msgs_sent - before_msgs,
        wall_ms,
    }
}

fn read_run_json(run: &ReadRun) -> Json {
    Json::obj([
        ("reads", Json::Int(run.reads)),
        ("remote_gcasts", Json::Num(run.remote_gcasts)),
        (
            "eager_classes_per_read",
            Json::Num(run.eager_classes_per_read),
        ),
        ("pruned_total", Json::Num(run.pruned_total)),
        ("msgs", Json::UInt(run.msgs)),
        (
            "msgs_per_read",
            Json::Num(run.msgs as f64 / run.reads as f64),
        ),
        ("wall_ms", Json::Num(run.wall_ms)),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke {
        Scale {
            buckets: 12,
            objects: 12,
            reads: 12,
        }
    } else {
        Scale {
            buckets: 32,
            objects: 96,
            reads: 192,
        }
    };

    println!("PR 3 — fast read path: summary pruning");
    println!(
        "{} first-field buckets, objects skewed into 2 hot buckets, reads with a",
        scale.buckets
    );
    println!("wildcard first field (exhaustive sc-list = every bucket):\n");

    let off = run_reads(&scale, 0);
    let on = run_reads(&scale, 20_000);

    let mut table = Table::new([
        "summary gossip",
        "eager classes/read",
        "remote gcasts",
        "msgs/read",
        "wall ms",
    ]);
    for (label, run) in [("off (exhaustive)", &off), ("on (pruned)", &on)] {
        table.row([
            label.to_string(),
            f1(run.eager_classes_per_read),
            f1(run.remote_gcasts),
            f1(run.msgs as f64 / run.reads as f64),
            f1(run.wall_ms),
        ]);
    }
    table.print();
    assert!(
        on.eager_classes_per_read < off.eager_classes_per_read,
        "pruned reads must contact strictly fewer classes \
         ({} vs {})",
        on.eager_classes_per_read,
        off.eager_classes_per_read
    );
    assert!(
        on.remote_gcasts < off.remote_gcasts,
        "pruning must cut remote read gcasts ({} vs {})",
        on.remote_gcasts,
        off.remote_gcasts
    );

    if !smoke {
        let doc = Json::obj([
            ("bench", Json::Str("read_fanout".into())),
            (
                "config",
                Json::obj([
                    ("machines", Json::Int(6)),
                    ("buckets", Json::UInt(scale.buckets as u64)),
                    ("objects", Json::Int(scale.objects)),
                    ("hot_buckets", Json::Int(2)),
                    ("gossip_micros", Json::Int(20_000)),
                ]),
            ),
            ("gossip_off", read_run_json(&off)),
            ("gossip_on", read_run_json(&on)),
        ]);
        std::fs::write("BENCH_PR3.json", doc.render() + "\n").expect("write BENCH_PR3.json");
        println!("\nwrote BENCH_PR3.json");
    }
}
