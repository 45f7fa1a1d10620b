//! Workspace-level campaign tests: the negative fixture (a planted
//! DoubleConsume whose bisection must converge to a *known* event
//! index), the repro-artifact contract, and branch fan-out over the
//! shared seeded fault environment from `tests/common`.

mod common;

use std::sync::Arc;

use common::{crash_repair_script, HORIZON_MICROS};
use paso::campaign::{
    tuple_scenario, AxiomInvariant, BisectOutcome, BranchSpec, Campaign, ReproArtifact, TupleActor,
    TupleMsg, TupleScenarioSpec,
};
use paso::simnet::{CheckpointError, ChurnModel, CostModel, FaultPlan, NodeId, SimTime};

/// The planted-violation fixture: seed 42's `small` tuple workload with
/// the leaky take (a take returns its object but forgets to remove it).
fn leaky_spec() -> TupleScenarioSpec {
    let mut spec = TupleScenarioSpec::small(42);
    spec.leak_takes = true;
    spec
}

/// Ground truth for the fixture, established by exhaustive single-event
/// replay (the crate's own bisection tests cross-check the search
/// against a scan).  If a simnet or workload change legitimately shifts
/// the trajectory, re-derive this with `Campaign::bisect` and update —
/// an *unexplained* shift is a determinism regression.
const KNOWN_FIRST_BAD_EVENT: u64 = 98;

fn horizon() -> SimTime {
    SimTime::from_micros(HORIZON_MICROS)
}

fn bisect_with_cadence(every: u64) -> BisectOutcome {
    let mut campaign = Campaign::new(tuple_scenario(&leaky_spec()), every)
        .with_invariant(|| Box::new(AxiomInvariant::new()));
    campaign.run_to(horizon());
    campaign
        .bisect()
        .expect("bisection errored")
        .expect("planted leak must violate A2")
}

#[test]
fn planted_double_consume_bisects_to_the_known_event() {
    let outcome = bisect_with_cadence(25);
    assert_eq!(
        outcome.first_bad_event, KNOWN_FIRST_BAD_EVENT,
        "bisection drifted off the fixture's known first bad event"
    );
    assert!(
        outcome.violation.starts_with("A2"),
        "the leak must surface as a DoubleConsume, got: {}",
        outcome.violation
    );
    assert!(
        outcome.replayed <= 2 * 25,
        "final window replay ({} events) exceeded two checkpoint windows",
        outcome.replayed
    );
}

#[test]
fn bisection_index_is_independent_of_cadence_and_run() {
    // The checkpoint cadence decides how much gets replayed, never which
    // event is first-bad; and re-running from scratch changes nothing.
    for every in [7, 25, 64] {
        let a = bisect_with_cadence(every);
        let b = bisect_with_cadence(every);
        assert_eq!(a.first_bad_event, KNOWN_FIRST_BAD_EVENT, "cadence {every}");
        assert_eq!(
            b.first_bad_event, KNOWN_FIRST_BAD_EVENT,
            "cadence {every}, rerun"
        );
        assert_eq!(
            a.violation, b.violation,
            "cadence {every} violations differ"
        );
    }
}

#[test]
fn repro_artifact_reloads_and_reproduces_within_two_windows() {
    let every = 25u64;
    let outcome = bisect_with_cadence(every);

    // The artifact a failing campaign leaves behind must survive the
    // disk round trip and replay to the same violation on a *fresh*
    // engine built only from the scenario config + artifact bytes.
    let bytes = outcome.artifact.to_bytes();
    let parsed = ReproArtifact::from_bytes(&bytes).expect("artifact re-parses");
    let scenario = tuple_scenario(&leaky_spec());
    let replay = parsed
        .replay::<TupleActor>(
            scenario.config.clone(),
            Arc::clone(&scenario.factory),
            || Box::new(AxiomInvariant::new()),
        )
        .expect("artifact must reproduce the violation");
    assert_eq!(replay.first_bad_event, KNOWN_FIRST_BAD_EVENT);
    assert_eq!(replay.violation, outcome.violation);
    assert!(
        replay.replayed <= 2 * every,
        "repro replayed {} events, budget is 2 × cadence = {}",
        replay.replayed,
        2 * every
    );
}

#[test]
fn clean_fixture_under_crash_faults_bisects_to_none() {
    // The same workload without the leak, under the shared crash/repair
    // script: faults alone must not manufacture a violation, and a clean
    // campaign must report "nothing to bisect".
    let mut spec = TupleScenarioSpec::small(42);
    spec.faults = Some(crash_repair_script(&[(1, 5), (3, 20)], 25));
    let mut campaign =
        Campaign::new(tuple_scenario(&spec), 25).with_invariant(|| Box::new(AxiomInvariant::new()));
    campaign.run_to(horizon());
    assert!(
        campaign.bisect().expect("bisection errored").is_none(),
        "crash/repair faults alone must stay axiom-clean"
    );
}

#[test]
fn fan_out_control_branch_continues_the_trunk() {
    // Branching with no overrides from time T must land exactly where an
    // uninterrupted run lands: same events, same outputs. The other
    // futures restored from the same checkpoint (a retargeted λ, a lossy
    // network, churn, a costlier bus) must all stay axiom-clean.
    let spec = TupleScenarioSpec::small(42);
    let branch_at = SimTime::from_micros(HORIZON_MICROS / 2);
    let mut lambda2 = BranchSpec::new("lambda2");
    for node in 0..spec.n as u32 {
        lambda2 = lambda2.inject(branch_at, NodeId(node), TupleMsg::SetLambda { lambda: 2 });
    }
    let branches = [
        BranchSpec::new("control"),
        lambda2,
        BranchSpec::new("lossy").fault_plan(FaultPlan::default().drop_all(0.2)),
        BranchSpec::new("churn").churn(Some(ChurnModel::new(50.0, SimTime::from_micros(5_000), 2))),
        BranchSpec::new("pricey-bus").cost_model(CostModel {
            alpha: 40.0,
            beta: 0.4,
        }),
    ];

    let mut campaign =
        Campaign::new(tuple_scenario(&spec), 25).with_invariant(|| Box::new(AxiomInvariant::new()));
    campaign.run_to(branch_at);
    let report = campaign
        .fan_out(horizon(), &branches)
        .expect("fan-out failed");
    for branch in &report.branches {
        assert!(
            branch.violations.is_empty(),
            "{}: {:?}",
            branch.name,
            branch.violations
        );
    }
    let control = &report.branches[0];

    let mut uninterrupted =
        Campaign::new(tuple_scenario(&spec), 25).with_invariant(|| Box::new(AxiomInvariant::new()));
    uninterrupted.run_to(horizon());
    let total = uninterrupted.engine().stats().events_processed;
    assert_eq!(
        report.base_events + control.events,
        total,
        "control branch drifted off the uninterrupted trajectory"
    );
}

#[test]
fn invalid_branch_override_is_rejected_cleanly() {
    let mut campaign = Campaign::new(tuple_scenario(&TupleScenarioSpec::small(42)), 25)
        .with_invariant(|| Box::new(AxiomInvariant::new()));
    campaign.run_to(SimTime::from_micros(HORIZON_MICROS / 2));
    let bad = BranchSpec::new("bad-churn").churn(Some(ChurnModel {
        crash_rate_hz: 0.0, // a rate of zero is nonsense the validator must catch
        mean_downtime: SimTime::from_micros(1_000),
        max_concurrent: 1,
    }));
    let err = campaign.fan_out(horizon(), &[bad]).unwrap_err();
    assert!(
        matches!(err, CheckpointError::InvalidConfig(_)),
        "wrong error: {err:?}"
    );
}
