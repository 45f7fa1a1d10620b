//! History independence of the join cost `K`: what a `g-join` transfers
//! (and what a WAL compaction rewrites) is the class's live store plus
//! the requests in flight — not a record of every gcast the group ever
//! delivered. The same adaptive + durable workload run four times as
//! long must therefore ship state transfers of the same size and leave
//! dedup/response tables no larger.

mod common;

use common::{fields, sc_eq};
use paso::core::{PasoConfig, SimSystem};
use paso::simnet::SimTime;
use paso_wire::Wire;

const N: u32 = 8;
const LIVE: i64 = 64;

struct Outcome {
    joins: u64,
    transfer_max: u64,
    table_max: usize,
}

/// `ops` one-at-a-time operations over a store pinned at [`LIVE`]
/// objects: reads wander over the machines (the Basic algorithm's
/// counters answer with joins), and every fourth op replaces the oldest
/// object (updates, which answer with leaves).
fn run(ops: i64) -> Outcome {
    let cfg = PasoConfig::builder(N as usize, 2)
        .seed(5)
        .adaptive(true)
        .durable(true)
        .build();
    let mut sys = SimSystem::new(cfg);
    sys.run_for(SimTime::from_millis(10));
    for v in 0..LIVE {
        sys.insert(0, fields(v));
    }
    let mut oldest = 0;
    for i in 0..ops {
        let node = (i * 7 % N as i64) as u32;
        if i % 4 == 3 {
            assert!(sys.read_del(node, sc_eq(oldest)).is_some(), "take {oldest}");
            sys.insert(node, fields(oldest + LIVE));
            oldest += 1;
        } else {
            let v = oldest + i * 13 % LIVE;
            assert!(sys.read(node, sc_eq(v)).is_some(), "read {v} (op {i})");
        }
    }
    sys.settle(1_000_000);
    let transfers = sys.telemetry().snapshot().hist("join.transfer_bytes");
    Outcome {
        joins: transfers.count,
        transfer_max: transfers.max,
        table_max: (0..N).map(|m| sys.vsync(m).dedup_entries()).max().unwrap(),
    }
}

#[test]
fn join_transfers_and_tables_do_not_grow_with_run_length() {
    let short = run(1_500);
    let long = run(6_000);
    assert!(short.joins >= 10, "the workload must exercise g-join");
    assert!(long.joins > 2 * short.joins);

    // "The same" to within one stored object (the tuple, its id and its
    // rank — a generous 2x the tuple's own encoding) plus a byte for each
    // live object: ranks are logical clocks, and a varint widens as its
    // clock runs on. A history-sized transfer grows by a table entry for
    // every op ever run.
    let slack = 2 * fields(LIVE).encoded_len() as u64 + LIVE as u64;
    assert!(
        long.transfer_max.abs_diff(short.transfer_max) <= slack,
        "largest state transfer moved with run length: {} B after 1x, {} B after 4x",
        short.transfer_max,
        long.transfer_max,
    );

    // One op at a time: no origin ever has more than one gcast in flight.
    let origins_x_outstanding = N as usize;
    for (name, outcome) in [("1x", &short), ("4x", &long)] {
        assert!(
            outcome.table_max <= origins_x_outstanding,
            "{name}: a dedup/response table holds {} entries",
            outcome.table_max,
        );
    }
}
