//! Experiment E1 — **Figure 1**: costs of the PASO operations.
//!
//! The paper tabulates, per primitive, the message cost under the bus
//! model (`α + β|m|` per message, gcast ≈ `|g|(2α + β(|msg|+|resp|))`),
//! the time, and the work. We run each primitive in isolation on the
//! simulated cluster, measure the three columns from the engine's
//! accounting, and compare against the paper's closed-form predictions
//! computed with the *actual* wire sizes — the shapes (linear in `|g|`,
//! zero-message local reads) must match.
//!
//! Usage: `cargo run --release -p paso-bench --bin exp_fig1`

use paso_bench::{f1, f2, Table};
use paso_core::{encode, ClientResult, OpResponse, PasoConfig, ReadMode, ReplOp, SimSystem};
use paso_simnet::{CostModel, SimTime};
use paso_storage::Rank;
use paso_types::{
    ClassId, FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value,
};

const ALPHA: f64 = 100.0;
const BETA: f64 = 0.5;
/// Vsync message header bytes (see `VsyncMsg::wire_size`).
const HDR: usize = 24;

fn task_fields(payload_len: usize) -> Vec<Value> {
    vec![
        Value::symbol("task"),
        Value::Int(1),
        Value::Bytes(vec![0xAB; payload_len]),
    ]
}

fn sc_exact() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("task")),
        FieldMatcher::Exact(Value::Int(1)),
        FieldMatcher::Any,
    ]))
}

struct Measured {
    msg_cost: f64,
    msgs: u64,
    work: u64,
    time_us: u64,
}

/// Runs `op` on a fresh system and returns the marginal cost of just that
/// operation (stats deltas between issue and completion).
fn measure(lambda: usize, payload: usize, op: &str, prefill: usize) -> (Measured, [f64; 5]) {
    let n = (lambda + 1) * 2 + 1; // enough non-members to issue from
    let cfg = PasoConfig::builder(n, lambda)
        .seed(42)
        .cost_model(CostModel::new(ALPHA, BETA))
        .adaptive(false) // isolate the primitive; no adaptive traffic
        .read_mode(ReadMode::GroupCast) // the paper's §4.3 remote read
        .build();
    let mut sys = SimSystem::new(cfg);
    // Prefill so reads have something to find and ℓ > 0.
    for _ in 0..prefill {
        sys.insert(0, task_fields(payload));
    }
    sys.run_for(SimTime::from_millis(10));

    // The class of 3-field objects under Arity(4) and its basic members.
    let class = ClassId(3);
    let members: Vec<u32> = (0..n as u32)
        .filter(|m| sys.server(*m).is_basic(class))
        .collect();
    let outsider = (0..n as u32).find(|m| !members.contains(m)).unwrap();

    // Actual wire sizes of the protocol messages, for the predictions.
    let obj = PasoObject::new(ObjectId::new(ProcessId(0), 999), task_fields(payload));
    let store_bytes = HDR
        + encode(&ReplOp::Store {
            class,
            object: obj.clone(),
            rank: Rank::new(0, 0),
        })
        .len();
    let memread_bytes = HDR
        + encode(&ReplOp::MemRead {
            class,
            sc: sc_exact(),
        })
        .len();
    let remove_bytes = HDR
        + encode(&ReplOp::Remove {
            class,
            sc: sc_exact(),
        })
        .len();
    // Actual response sizes: "fail/empty" and "object found".
    let resp_empty = (HDR
        + encode(&OpResponse {
            object: None,
            failed: 0,
        })
        .len()) as f64;
    let resp_obj = (HDR
        + encode(&OpResponse {
            object: Some(obj),
            failed: 0,
        })
        .len()) as f64;

    let before_cost = sys.stats().total_msg_cost;
    let before_msgs = sys.stats().msgs_sent;
    let before_work = sys.stats().total_work();
    let t0 = sys.now();
    let op_id = match op {
        "insert" => sys.issue_insert(outsider, task_fields(payload)).0,
        "read-local" => sys.issue_read(members[0], sc_exact(), false),
        "read-remote" => sys.issue_read(outsider, sc_exact(), false),
        "read&del" => sys.issue_read_del(outsider, sc_exact(), false),
        _ => unreachable!(),
    };
    let result = sys.wait(op_id, 5_000_000).expect("op completes");
    assert!(
        !matches!(result, ClientResult::Unavailable),
        "cluster must be healthy"
    );
    let time_us = sys.now().saturating_since(t0).as_micros();
    // Let trailing dones/acks land so the full op cost is attributed.
    sys.settle(5_000_000);
    (
        Measured {
            msg_cost: sys.stats().total_msg_cost - before_cost,
            msgs: sys.stats().msgs_sent - before_msgs,
            work: sys.stats().total_work() - before_work,
            time_us,
        },
        [
            store_bytes as f64,
            memread_bytes as f64,
            remove_bytes as f64,
            resp_empty,
            resp_obj,
        ],
    )
}

fn main() {
    println!("E1 / Figure 1 — costs of PASO operations");
    println!("cost model: α = {ALPHA}, β = {BETA}; |g| = λ+1 basic members\n");

    for payload in [16usize, 256] {
        println!("— object payload {payload} bytes —");
        let mut table = Table::new([
            "operation",
            "λ",
            "|g|",
            "measured msg-cost",
            "paper prediction",
            "ratio",
            "msgs",
            "work",
            "time(µs)",
        ]);
        for lambda in [1usize, 2, 4] {
            let g = (lambda + 1) as f64;
            for op in ["insert", "read-local", "read-remote", "read&del"] {
                let (m, [store_b, memread_b, remove_b, resp_empty, resp_obj]) =
                    measure(lambda, payload, op, 3);
                // Paper's Figure 1 predictions with actual wire sizes.
                let predicted = match op {
                    "insert" => g * (2.0 * ALPHA + BETA * store_b) + ALPHA + BETA * resp_empty,
                    "read-local" => 0.0,
                    "read-remote" => g * (2.0 * ALPHA + BETA * memread_b) + ALPHA + BETA * resp_obj,
                    "read&del" => g * (2.0 * ALPHA + BETA * remove_b) + ALPHA + BETA * resp_obj,
                    _ => unreachable!(),
                };
                let ratio = if predicted == 0.0 {
                    if m.msg_cost == 0.0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    m.msg_cost / predicted
                };
                table.row([
                    op.to_string(),
                    lambda.to_string(),
                    format!("{}", lambda + 1),
                    f1(m.msg_cost),
                    f1(predicted),
                    f2(ratio),
                    m.msgs.to_string(),
                    m.work.to_string(),
                    m.time_us.to_string(),
                ]);
            }
        }
        table.print();
        println!();
    }

    println!("expected shape: read-local costs 0 messages; insert / read-remote /");
    println!("read&del scale linearly with |g| = λ+1 and match the §3.3 closed");
    println!("form within a small factor.");
}
