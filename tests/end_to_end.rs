//! Cross-crate integration: the full stack (types → storage → vsync →
//! core) exercised through the facade, mirroring the paper's system-level
//! claims.

use paso::core::{ClientResult, PasoConfig, SimSystem};
use paso::simnet::{FaultScript, SimTime};
use paso::telemetry::check_trace;
use paso::telemetry::metrics;
use paso::types::{ClassId, FieldMatcher, SearchCriterion, Template, Value};
use paso::workload::{ops, OpSpec};

fn replay(sys: &mut SimSystem, script: &paso::workload::Script) -> Vec<(u64, ClientResult)> {
    let mut results = Vec::new();
    for (node, op) in script {
        let op_id = match op {
            OpSpec::Insert(fields) => sys.issue_insert(*node, fields.clone()).0,
            OpSpec::Read(sc, blocking) => sys.issue_read(*node, sc.clone(), *blocking),
            OpSpec::ReadDel(sc, blocking) => sys.issue_read_del(*node, sc.clone(), *blocking),
        };
        let result = sys.wait(op_id, 10_000_000).expect("scripted op completes");
        results.push((op_id, result));
    }
    results
}

#[test]
fn bag_of_tasks_script_runs_exactly_once() {
    let mut sys = SimSystem::new(PasoConfig::builder(5, 1).seed(1).build());
    let script = ops::bag_of_tasks(4, 12);
    let results = replay(&mut sys, &script);
    // Every blocking take found a tuple; every task and result consumed
    // exactly once.
    let takes: Vec<_> = results
        .iter()
        .filter_map(|(_, r)| match r {
            ClientResult::Found(o) => Some(o.id()),
            _ => None,
        })
        .collect();
    assert_eq!(takes.len(), 24, "12 task takes + 12 result collects");
    let mut dedup = takes.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), takes.len(), "exactly-once consumption");
    let report = sys.check_semantics();
    assert!(report.ok(), "{:?}", report.violations);
    // The recorded trace stream independently satisfies A1–A3.
    let axioms = check_trace(&sys.trace_events());
    assert!(axioms.ok(), "{:?}", axioms.violations);
    assert_eq!(axioms.consumes, 24, "every take is a consume in the trace");
}

#[test]
fn read_heavy_script_with_zipf_popularity() {
    let mut sys = SimSystem::new(PasoConfig::builder(6, 1).seed(2).k_join(4).build());
    let script = ops::read_heavy(6, 20, 120, 1.0, 7);
    let results = replay(&mut sys, &script);
    let found = results
        .iter()
        .filter(|(_, r)| matches!(r, ClientResult::Found(_)))
        .count();
    assert_eq!(found, 120, "every lookup hits (keys are never deleted)");
    // The skewed read traffic triggers adaptive replication somewhere.
    assert!(
        sys.stats().counter(metrics::ADAPTIVE_JOIN) >= 1.0,
        "hot keys should pull replicas toward readers"
    );
    assert!(sys.check_semantics().ok());
}

#[test]
fn mixed_script_under_poisson_faults() {
    let mut sys = SimSystem::new(PasoConfig::builder(6, 2).seed(3).build());
    let faults = FaultScript::poisson(
        6,
        2,
        2.0,
        SimTime::from_millis(200),
        SimTime::from_millis(50),
        SimTime::from_secs(30),
        9,
    );
    faults.validate(6, 2).unwrap();
    sys.apply_faults(&faults);
    let script = ops::mixed(6, 150, 0.5, 4);
    let mut completed = 0;
    for (node, op) in &script {
        // Skip ops whose issuing machine happens to be down right now —
        // §3.1: processes on crashed machines are halted.
        if !sys.status(*node).is_up() {
            sys.run_for(SimTime::from_millis(30));
            continue;
        }
        let op_id = match op {
            OpSpec::Insert(fields) => sys.issue_insert(*node, fields.clone()).0,
            OpSpec::Read(sc, b) => sys.issue_read(*node, sc.clone(), *b),
            OpSpec::ReadDel(sc, b) => sys.issue_read_del(*node, sc.clone(), *b),
        };
        if sys.wait(op_id, 10_000_000).is_some() {
            completed += 1;
        }
        sys.run_for(SimTime::from_millis(10));
    }
    assert!(completed > 100, "most ops complete despite the fault storm");
    let report = sys.check_semantics();
    assert!(report.ok(), "{:?}", report.violations);
    // Under the same fault storm, the trace must stay axiom-legal too
    // (no double-consume or resurrection slipped through a recovery).
    let axioms = check_trace(&sys.trace_events());
    assert!(axioms.ok(), "{:?}", axioms.violations);
}

#[test]
fn classifier_choices_work_end_to_end() {
    use paso::core::ClassifierKind;
    // FirstField: classes are hash buckets of field 0 — reads with an
    // exact first field touch exactly one class.
    let cfg = PasoConfig::builder(5, 1)
        .seed(5)
        .classifier(ClassifierKind::FirstField(4))
        .build();
    let mut sys = SimSystem::new(cfg);
    sys.insert(0, vec![Value::symbol("users"), Value::Int(1)]);
    sys.insert(1, vec![Value::symbol("orders"), Value::Int(2)]);
    let sc_users = SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("users")),
        FieldMatcher::Any,
    ]));
    assert!(sys.read(3, sc_users.clone()).is_some());
    // A wildcard-first criterion must search every bucket and still find
    // both objects.
    let sc_all = SearchCriterion::from(Template::wildcard(2));
    assert_eq!(sys.classifier().sc_list(&sc_all).len(), 4);
    assert!(sys.read_del(2, sc_all.clone()).is_some());
    assert!(sys.read_del(2, sc_all.clone()).is_some());
    assert!(sys.read_del(2, sc_all).is_none());
    assert!(sys.check_semantics().ok());
}

#[test]
fn store_kinds_serve_the_same_semantics() {
    use paso::storage::StoreKind;
    for kind in [StoreKind::Hash, StoreKind::Ordered, StoreKind::Scan] {
        let cfg = PasoConfig::builder(4, 1)
            .seed(6)
            .default_store(kind)
            .build();
        let mut sys = SimSystem::new(cfg);
        for i in 0..10 {
            sys.insert(0, vec![Value::symbol("n"), Value::Int(i)]);
        }
        let sc_range = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("n")),
            FieldMatcher::between(3, 5),
        ]));
        let got = sys.read_del(2, sc_range.clone()).unwrap();
        assert_eq!(
            got.field(1).unwrap().as_int().unwrap(),
            3,
            "{kind}: oldest in range first"
        );
        assert!(sys.check_semantics().ok(), "{kind}");
    }
}

#[test]
fn adaptive_system_beats_static_on_read_bursts() {
    // System-level analogue of experiment E8: a remote machine reads the
    // same class many times; with adaptivity the replica migrates to it
    // and total message cost drops well below the static run.
    let run = |adaptive: bool| {
        let cfg = PasoConfig::builder(6, 1)
            .seed(7)
            .k_join(4)
            .adaptive(adaptive)
            .build();
        let mut sys = SimSystem::new(cfg);
        sys.insert(0, vec![Value::symbol("hot"), Value::Int(1)]);
        let class = ClassId(2);
        let reader = (0..6u32).find(|m| !sys.server(*m).is_basic(class)).unwrap();
        let sc = SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("hot")),
            FieldMatcher::Any,
        ]));
        for _ in 0..40 {
            assert!(sys.read(reader, sc.clone()).is_some());
            sys.run_for(SimTime::from_millis(5));
        }
        sys.stats().total_msg_cost
    };
    let adaptive_cost = run(true);
    let static_cost = run(false);
    assert!(
        adaptive_cost < static_cost / 2.0,
        "adaptive {adaptive_cost} should be far below static {static_cost}"
    );
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let mut sys = SimSystem::new(PasoConfig::builder(5, 1).seed(99).build());
        let script = ops::bag_of_tasks(3, 8);
        replay(&mut sys, &script);
        (sys.stats().msgs_sent, sys.stats().total_msg_cost)
    };
    assert_eq!(run(), run());
}
