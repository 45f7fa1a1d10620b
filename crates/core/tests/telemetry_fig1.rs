//! Figure 1 telemetry: the `op.*.msg_cost` histograms recorded by the
//! synchronous client paths must match the paper's §3.3 closed-form
//! per-primitive costs (computed with the *actual* wire sizes, as in
//! experiment E1). Local reads cost zero messages exactly; gcast-backed
//! primitives land within the protocol-framing factor of the prediction
//! and scale linearly with the write-group size |g| = λ+1. The paper's
//! rows run the §4.3 group-cast read; the default anycast read is one
//! query and one answer.

use paso_core::{encode, AppMsg, OpResponse, PasoConfig, ReadMode, ReplOp, SimSystem};
use paso_simnet::{CostModel, SimTime};
use paso_storage::Rank;
use paso_types::{
    ClassId, FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value,
};

const ALPHA: f64 = 100.0;
const BETA: f64 = 0.5;
/// Vsync message header bytes (see `VsyncMsg::wire_size`).
const HDR: usize = 24;
const PAYLOAD: usize = 16;
const OPS: u64 = 4;

fn task_fields() -> Vec<Value> {
    vec![
        Value::symbol("task"),
        Value::Int(1),
        Value::Bytes(vec![0xAB; PAYLOAD]),
    ]
}

fn sc_exact() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("task")),
        FieldMatcher::Exact(Value::Int(1)),
        FieldMatcher::Any,
    ]))
}

/// A system running the paper's §4.3 group-cast read.
fn fresh(lambda: usize) -> SimSystem {
    fresh_with(lambda, ReadMode::GroupCast)
}

fn fresh_with(lambda: usize, read_mode: ReadMode) -> SimSystem {
    let n = (lambda + 1) * 2 + 1; // enough non-members to issue from
    let cfg = PasoConfig::builder(n, lambda)
        .seed(42)
        .cost_model(CostModel::new(ALPHA, BETA))
        .adaptive(false) // isolate the primitives; no adaptive traffic
        .read_mode(read_mode)
        .build();
    let mut sys = SimSystem::new(cfg);
    sys.run_for(SimTime::from_millis(10));
    sys
}

/// Basic members of the 3-field class, and one non-member to issue from.
fn members_and_outsider(sys: &SimSystem, n: usize) -> (Vec<u32>, u32) {
    let class = ClassId(3);
    let members: Vec<u32> = (0..n as u32)
        .filter(|m| sys.server(*m).is_basic(class))
        .collect();
    let outsider = (0..n as u32).find(|m| !members.contains(m)).unwrap();
    (members, outsider)
}

/// Figure 1 closed forms with the actual wire sizes of this build's
/// protocol messages (gcast ≈ |g|(2α + β·|store|) plus the one response
/// relayed to the issuing process).
struct Fig1 {
    insert: f64,
    read_remote: f64,
    read_anycast: f64,
    read_del: f64,
}

fn predictions(g: f64) -> Fig1 {
    let class = ClassId(3);
    let obj = PasoObject::new(ObjectId::new(ProcessId(0), 999), task_fields());
    let store_b = (HDR
        + encode(&ReplOp::Store {
            class,
            object: obj.clone(),
            rank: Rank::new(0, 0),
        })
        .len()) as f64;
    let memread_b = (HDR
        + encode(&ReplOp::MemRead {
            class,
            sc: sc_exact(),
        })
        .len()) as f64;
    let remove_b = (HDR
        + encode(&ReplOp::Remove {
            class,
            sc: sc_exact(),
        })
        .len()) as f64;
    let resp_empty = (HDR
        + encode(&OpResponse {
            object: None,
            failed: 0,
        })
        .len()) as f64;
    let resp_obj = (HDR
        + encode(&OpResponse {
            object: Some(obj.clone()),
            failed: 0,
        })
        .len()) as f64;
    let query_b = encode(&AppMsg::RemoteRead {
        op_id: 0,
        class,
        sc: sc_exact(),
    })
    .len() as f64;
    let answer_b = encode(&AppMsg::RemoteReadResp {
        op_id: 0,
        served: true,
        found: Some(obj),
        failed: 0,
    })
    .len() as f64;
    Fig1 {
        insert: g * (2.0 * ALPHA + BETA * store_b) + ALPHA + BETA * resp_empty,
        read_remote: g * (2.0 * ALPHA + BETA * memread_b) + ALPHA + BETA * resp_obj,
        read_anycast: 2.0 * ALPHA + BETA * (query_b + answer_b),
        read_del: g * (2.0 * ALPHA + BETA * remove_b) + ALPHA + BETA * resp_obj,
    }
}

/// Measured-over-predicted must sit in the E1 band: below 1 because the
/// member "done" replies are smaller than the formula's symmetric-message
/// assumption, and not so far below that the shape is wrong.
fn assert_fig1_band(name: &str, mean: f64, predicted: f64) {
    let ratio = mean / predicted;
    assert!(
        (0.70..=1.05).contains(&ratio),
        "{name}: measured mean {mean:.1} vs predicted {predicted:.1} (ratio {ratio:.2})"
    );
}

#[test]
fn insert_cost_histogram_matches_figure1() {
    for lambda in [1usize, 2] {
        let mut sys = fresh(lambda);
        let (_, outsider) = members_and_outsider(&sys, (lambda + 1) * 2 + 1);
        for _ in 0..OPS {
            sys.insert(outsider, task_fields());
        }
        sys.settle(5_000_000);
        let h = sys.telemetry().snapshot().hist("op.insert.msg_cost");
        assert_eq!(h.count, OPS, "one sample per synchronous insert");
        // Identical inserts differ only by the varint width of the rank
        // timestamp inside the payload (±1 byte across the |g| copies
        // that carry it: the origin hop and the |g|−1 fan-outs), plus
        // the rounding of the fractional β·|m| term into integer
        // histogram samples.
        let slack = 1 + (lambda as u64 + 1).div_ceil(2);
        assert!(h.max - h.min <= slack, "min {} max {}", h.min, h.max);
        assert_fig1_band(
            &format!("insert λ={lambda}"),
            h.mean(),
            predictions((lambda + 1) as f64).insert,
        );
    }
}

#[test]
fn local_read_costs_zero_messages() {
    let lambda = 1;
    let mut sys = fresh(lambda);
    let (members, _) = members_and_outsider(&sys, (lambda + 1) * 2 + 1);
    for _ in 0..OPS {
        sys.insert(members[0], task_fields());
    }
    sys.settle(5_000_000);
    for _ in 0..OPS {
        assert!(sys.read(members[0], sc_exact()).is_some());
    }
    let snap = sys.telemetry().snapshot();
    let h = snap.hist("op.read.msg_cost");
    assert_eq!(h.count, OPS);
    assert_eq!(h.max, 0, "a basic member answers reads from its own copy");
    assert_eq!(h.mean(), 0.0);
    // Zero messages also means zero transit time.
    assert_eq!(snap.hist("op.read.latency_micros").max, 0);
}

#[test]
fn remote_read_cost_histogram_matches_figure1() {
    for lambda in [1usize, 2] {
        let mut sys = fresh(lambda);
        let (_, outsider) = members_and_outsider(&sys, (lambda + 1) * 2 + 1);
        for _ in 0..OPS {
            sys.insert(outsider, task_fields());
        }
        sys.settle(5_000_000);
        for _ in 0..OPS {
            assert!(sys.read(outsider, sc_exact()).is_some());
        }
        let snap = sys.telemetry().snapshot();
        let h = snap.hist("op.read.msg_cost");
        assert_eq!(h.count, OPS);
        assert_fig1_band(
            &format!("read-remote λ={lambda}"),
            h.mean(),
            predictions((lambda + 1) as f64).read_remote,
        );
        // A remote read crosses the bus, so it takes simulated time too.
        assert!(snap.hist("op.read.latency_micros").min > 0);
    }
}

#[test]
fn anycast_read_costs_one_query_and_one_answer() {
    for lambda in [1usize, 2] {
        let mut sys = fresh_with(lambda, ReadMode::Anycast);
        let (_, outsider) = members_and_outsider(&sys, (lambda + 1) * 2 + 1);
        for _ in 0..OPS {
            sys.insert(outsider, task_fields());
        }
        sys.settle(5_000_000);
        for _ in 0..OPS {
            assert!(sys.read(outsider, sc_exact()).is_some());
        }
        let snap = sys.telemetry().snapshot();
        let h = snap.hist("op.read.msg_cost");
        assert_eq!(h.count, OPS);
        // 2α + β(|RemoteRead| + |RemoteReadResp|), whatever |g| is.
        assert_fig1_band(
            &format!("read-anycast λ={lambda}"),
            h.mean(),
            predictions((lambda + 1) as f64).read_anycast,
        );
    }
}

#[test]
fn read_del_cost_histogram_matches_figure1() {
    for lambda in [1usize, 2] {
        let mut sys = fresh(lambda);
        let (_, outsider) = members_and_outsider(&sys, (lambda + 1) * 2 + 1);
        for _ in 0..OPS {
            sys.insert(outsider, task_fields());
        }
        sys.settle(5_000_000);
        for _ in 0..OPS {
            assert!(sys.read_del(outsider, sc_exact()).is_some());
        }
        let h = sys.telemetry().snapshot().hist("op.readdel.msg_cost");
        assert_eq!(h.count, OPS);
        assert_fig1_band(
            &format!("read&del λ={lambda}"),
            h.mean(),
            predictions((lambda + 1) as f64).read_del,
        );
    }
}

#[test]
fn gcast_cost_scales_linearly_with_group_size() {
    let mean_for = |lambda: usize| {
        let mut sys = fresh(lambda);
        let (_, outsider) = members_and_outsider(&sys, (lambda + 1) * 2 + 1);
        for _ in 0..OPS {
            sys.insert(outsider, task_fields());
        }
        sys.settle(5_000_000);
        sys.telemetry().snapshot().hist("op.insert.msg_cost").mean()
    };
    let (g2, g3, g5) = (mean_for(1), mean_for(2), mean_for(4));
    // Cost is affine in |g|: per-member increments must be equal (the
    // slope is 2α + β·|store| per added member).
    let slope_23 = g3 - g2;
    let slope_35 = (g5 - g3) / 2.0;
    assert!(g2 < g3 && g3 < g5);
    let rel = (slope_23 - slope_35).abs() / slope_35;
    assert!(
        rel < 0.05,
        "per-member slope must be constant: {slope_23:.1} vs {slope_35:.1}"
    );
}
