//! The registry is exact wherever `SimSystem::wait` returns.
//!
//! `wait` steps the engine without publishing and publishes once when an
//! op completes, so the counters a caller reads after it returns must
//! still equal the engine's own [`Stats`] — after a completed op, after a
//! return on an exhausted event budget, and after a return on a drained
//! queue alike.

use paso_core::{ClientResult, PasoConfig, SimSystem};
use paso_types::{FieldMatcher, SearchCriterion, Template, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn fields(key: i64) -> Vec<Value> {
    vec![Value::symbol("job"), Value::Int(key)]
}

fn criterion(key: i64) -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("job")),
        FieldMatcher::Exact(Value::Int(key)),
    ]))
}

/// The published engine totals equal `stats()`, and `net.msg_bytes` holds
/// one sample per message sent.
fn assert_published(sys: &SimSystem, when: &str) {
    let snap = sys.telemetry().snapshot();
    let stats = sys.stats();
    assert_eq!(
        snap.counter("net.msgs_sent"),
        stats.msgs_sent as f64,
        "{when}"
    );
    assert_eq!(
        snap.counter("net.bytes_sent"),
        stats.total_bytes as f64,
        "{when}"
    );
    assert_eq!(snap.counter("net.msg_cost"), stats.total_msg_cost, "{when}");
    assert_eq!(
        snap.counter("work.total"),
        stats.total_work() as f64,
        "{when}"
    );
    let msg_bytes = snap.hist("net.msg_bytes");
    assert_eq!(msg_bytes.count, stats.msgs_sent, "{when}");
    assert_eq!(msg_bytes.sum, stats.total_bytes, "{when}");
}

#[test]
fn every_wait_return_publishes_exact_totals() {
    let n = 8u32;
    let mut sys = SimSystem::new(PasoConfig::builder(n as usize, 2).seed(5).build());
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut live: Vec<i64> = Vec::new();
    for i in 0..300i64 {
        let node = rng.gen_range(0..n);
        let op = match rng.gen_range(0..3) {
            0 => {
                live.push(i);
                sys.issue_insert(node, fields(i)).0
            }
            1 if !live.is_empty() => {
                let key = live[rng.gen_range(0..live.len())];
                sys.issue_read(node, criterion(key), false)
            }
            _ if !live.is_empty() => {
                let key = live.swap_remove(rng.gen_range(0..live.len()));
                sys.issue_read_del(node, criterion(key), false)
            }
            _ => sys.issue_read(node, criterion(-1), false),
        };
        let r = sys
            .wait(op, 1_000_000)
            .expect("a non-blocking op completes");
        assert!(!matches!(
            r,
            ClientResult::TimedOut | ClientResult::Unavailable
        ));
        assert_published(&sys, &format!("after op {i}"));
    }

    // A budget too small for the op: `wait` gives up mid-op.
    let sent = sys.stats().msgs_sent;
    let op = sys.issue_insert(0, fields(1_000)).0;
    assert_eq!(sys.wait(op, 2), None, "two events do not finish an insert");
    assert!(sys.stats().msgs_sent > sent, "the cut-off op sent messages");
    assert_published(&sys, "after a wait cut off by max_events");
    assert_eq!(sys.wait(op, 1_000_000), Some(ClientResult::Inserted));
    assert_published(&sys, "after the cut-off op completes");

    // The issuing machine crashes with its request in flight: no answer
    // comes, and the queue drains under `wait`.
    let sent = sys.stats().msgs_sent;
    let op = sys.issue_insert(3, fields(1_001)).0;
    sys.crash(3);
    assert_eq!(
        sys.wait(op, 1_000_000),
        None,
        "a halted client hears nothing"
    );
    assert!(sys.stats().msgs_sent > sent, "the crash moved the counters");
    assert_published(&sys, "after a wait that drained the queue");
    sys.settle(0); // panics if an event were still queued
}
