//! Summary-gossip read pruning (the PR 3 fast read path).
//!
//! With `summary_gossip_micros > 0`, servers broadcast per-class digests
//! and the read path visits summary-candidate classes first. These tests
//! pin the two sides of that design: pruning actually shrinks the class
//! walk on skewed workloads, and — because pruned classes are demoted,
//! never skipped — stale or missing gossip can never hide an object.

use paso_core::{ClassifierKind, PasoConfig, SimSystem};
use paso_simnet::SimTime;
use paso_telemetry::metrics;
use paso_types::{
    ClassId, Classifier, FieldMatcher, FirstFieldClassifier, ObjectId, PasoObject, ProcessId,
    SearchCriterion, Template, Value,
};

const BUCKETS: u32 = 12;

/// A first field whose bucket under `FirstFieldClassifier(BUCKETS)` is
/// late in the `sc-list` order, so an unpruned wildcard read has to walk
/// several empty classes before reaching it.
fn hot_field() -> i64 {
    let classifier = FirstFieldClassifier::new(BUCKETS);
    (0..200)
        .find(|v| {
            let obj = PasoObject::new(
                ObjectId::new(ProcessId(0), 0),
                vec![Value::Int(*v), Value::Int(0)],
            );
            classifier.classify(&obj) >= ClassId(BUCKETS / 2)
        })
        .expect("some field hashes into the back half of the buckets")
}

fn obj_fields(hot: i64, n: i64) -> Vec<Value> {
    vec![Value::Int(hot), Value::Int(n)]
}

/// Wildcard first field: `sc-list` spans every bucket.
fn sc_second(n: i64) -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Any,
        FieldMatcher::Exact(Value::Int(n)),
    ]))
}

fn build(gossip_micros: u64, seed: u64) -> SimSystem {
    SimSystem::new(
        PasoConfig::builder(4, 1)
            .seed(seed)
            .classifier(ClassifierKind::FirstField(BUCKETS))
            .summary_gossip_micros(gossip_micros)
            .build(),
    )
}

#[test]
fn pruned_reads_visit_strictly_fewer_classes() {
    let run = |gossip_micros: u64| {
        let mut sys = build(gossip_micros, 50);
        let hot = hot_field();
        for i in 0..4 {
            sys.insert(0, obj_fields(hot, i));
        }
        // Let at least one gossip round land everywhere.
        sys.run_for(SimTime::from_millis(120));
        // A class a read contacts costs one anycast query or one gcast.
        let contacted = |sys: &SimSystem| {
            sys.stats().counter(metrics::OP_READ_ANYCAST)
                + sys.stats().counter(metrics::OP_READ_REMOTE)
        };
        let contacted_before = contacted(&sys);
        for i in 0..4 {
            let got = sys.read(3, sc_second(i));
            assert!(got.is_some(), "read {i} must find the hot object");
        }
        (
            contacted(&sys) - contacted_before,
            sys.stats().counter(metrics::READ_PRUNED),
        )
    };
    let (exhaustive_contacted, pruned_off) = run(0);
    let (pruned_contacted, pruned_on) = run(30_000);
    assert_eq!(pruned_off, 0.0, "gossip off must never prune");
    assert!(pruned_on > 0.0, "gossip on must prune the empty buckets");
    assert!(
        pruned_contacted < exhaustive_contacted,
        "pruned reads must contact strictly fewer classes: \
         {pruned_contacted} vs {exhaustive_contacted}"
    );
}

#[test]
fn stale_gossip_never_hides_an_object() {
    // Propagate all-empty summaries, then insert and read *before* the
    // next gossip round: every remote digest still claims the hot class
    // is empty, so the read demotes it — and must still find the object
    // by falling through to the demoted tail.
    let mut sys = build(500_000, 51);
    sys.run_for(SimTime::from_millis(600));
    let hot = hot_field();
    sys.insert(0, obj_fields(hot, 7));
    let got = sys.read(3, sc_second(7));
    assert!(
        got.is_some(),
        "object inserted after the last gossip round must still be found"
    );
    assert!(sys.check_semantics().ok());
}

#[test]
fn gossip_does_not_change_read_results() {
    // Differential run: same workload with and without gossip must agree
    // on every read outcome (pruning only reorders the walk).
    let run = |gossip_micros: u64| {
        let mut sys = build(gossip_micros, 52);
        let hot = hot_field();
        let mut outcomes = Vec::new();
        for i in 0..6 {
            sys.insert((i % 4) as u32, obj_fields(hot, i as i64));
        }
        sys.run_for(SimTime::from_millis(80));
        for i in 0..6i64 {
            outcomes.push(sys.read(((i + 1) % 4) as u32, sc_second(i)).is_some());
            outcomes.push(sys.read_del((i as u32) % 4, sc_second(i)).is_some());
            // A second consume of the same criterion must now miss.
            outcomes.push(sys.read_del((i as u32) % 4, sc_second(i)).is_some());
        }
        outcomes
    };
    let without = run(0);
    let with = run(25_000);
    assert_eq!(without, with);
    assert!(without.iter().step_by(3).all(|found| *found));
    assert!(!without.iter().skip(2).step_by(3).any(|found| *found));
}
