//! Anycast read mode: point queries to a single read-group member, with
//! fall-back to the §4.3 group cast when the target is down or not yet
//! authoritative.

use paso_core::{wg_group, ClientResult, PasoConfig, ReadMode, SimSystem};
use paso_simnet::{DelayDist, FaultPlan, NodeId, SimTime};
use paso_telemetry::metrics;
use paso_types::{ClassId, FieldMatcher, SearchCriterion, Template, Value};

const TASK_CLASS: ClassId = ClassId(2);

fn task(n: i64) -> Vec<Value> {
    vec![Value::symbol("task"), Value::Int(n)]
}

fn sc_any() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("task")),
        FieldMatcher::Any,
    ]))
}

fn sc_eq(n: i64) -> SearchCriterion {
    SearchCriterion::from(Template::exact(vec![Value::symbol("task"), Value::Int(n)]))
}

fn anycast_sys(seed: u64) -> SimSystem {
    SimSystem::new(
        PasoConfig::builder(6, 1)
            .seed(seed)
            .read_mode(ReadMode::Anycast)
            .adaptive(false)
            .build(),
    )
}

#[test]
fn anycast_read_finds_objects() {
    let mut sys = anycast_sys(1);
    sys.insert(0, task(7));
    for node in 0..6 {
        let got = sys.read(node, sc_eq(7));
        assert!(got.is_some(), "anycast read from m{node} failed");
    }
    assert!(
        sys.stats().counter(metrics::OP_READ_ANYCAST) >= 1.0,
        "non-member reads must use the anycast path"
    );
    assert!(sys.check_semantics().ok());
}

#[test]
fn anycast_is_cheaper_than_groupcast() {
    // Measure one remote read in both modes on identical systems.
    let measure = |mode: ReadMode| {
        let mut sys = SimSystem::new(
            PasoConfig::builder(6, 2) // |rg| = 3 members
                .seed(2)
                .read_mode(mode)
                .adaptive(false)
                .build(),
        );
        sys.insert(0, task(1));
        sys.run_for(SimTime::from_millis(10));
        let class = ClassId(2);
        let outsider = (0..6u32).find(|m| !sys.server(*m).is_basic(class)).unwrap();
        let before_msgs = sys.stats().msgs_sent;
        let op = sys.issue_read(outsider, sc_eq(1), false);
        let r = sys.wait(op, 1_000_000).unwrap();
        assert!(matches!(r, ClientResult::Found(_)));
        sys.settle(1_000_000);
        sys.stats().msgs_sent - before_msgs
    };
    let anycast_msgs = measure(ReadMode::Anycast);
    let gcast_msgs = measure(ReadMode::GroupCast);
    assert_eq!(anycast_msgs, 2, "anycast is one query + one answer");
    assert!(
        gcast_msgs >= 6,
        "group cast pays fan-out + dones + response ({gcast_msgs})"
    );
}

#[test]
fn anycast_falls_back_when_target_crashes() {
    let mut sys = anycast_sys(3);
    sys.insert(0, task(5));
    sys.run_for(SimTime::from_millis(10));
    let members: Vec<u32> = (0..6)
        .filter(|m| sys.server(*m).is_basic(TASK_CLASS))
        .collect();
    // Crash one of the two basic members; anycast targets rotate, so some
    // reads would have hit the dead one — the up-set filter or the
    // fallback must still deliver every answer.
    sys.crash(members[0]);
    sys.run_for(SimTime::from_millis(20));
    let outsider = (0..6u32).find(|m| !members.contains(m)).unwrap();
    for _ in 0..6 {
        let got = sys.read(outsider, sc_eq(5));
        assert!(got.is_some(), "reads must survive the target crash");
    }
    assert!(sys.check_semantics().ok());
}

#[test]
fn anycast_declined_by_unauthoritative_member_falls_back() {
    // Crash + repair a member; during its re-initialization window it is
    // not an installed member and must decline point queries rather than
    // answer from a blank store.
    let mut sys = anycast_sys(4);
    sys.insert(0, task(9));
    sys.run_for(SimTime::from_millis(10));
    let members: Vec<u32> = (0..6)
        .filter(|m| sys.server(*m).is_basic(TASK_CLASS))
        .collect();
    sys.crash(members[1]);
    sys.run_for(SimTime::from_millis(30));
    sys.repair(members[1]);
    // Read storm while the repair/state-transfer is racing.
    let outsider = (0..6u32).find(|m| !members.contains(m)).unwrap();
    for _ in 0..10 {
        let got = sys.read(outsider, sc_eq(9));
        assert!(got.is_some(), "no read may observe the blank store");
        sys.run_for(SimTime::from_millis(5));
    }
    sys.run_for(SimTime::from_secs(2));
    let report = sys.check_semantics();
    assert!(report.ok(), "{:?}", report.violations);
}

#[test]
fn a_member_that_lost_its_transfer_declines_and_the_read_still_finds() {
    // Crash and repair the lower-id basic member with a lossy link from
    // its peer. On the seeds where its `StateXfer` is dropped but the
    // admitting view arrives, it sits in the view with an empty store
    // (and leads it, so it never gets the state). Rotation sends one of
    // two point reads to it: it must decline, not answer "not found".
    // A read issued at it must go to a replica that holds the state.
    let probe = anycast_sys(0);
    let members: Vec<u32> = (0..6)
        .filter(|m| probe.server(*m).is_basic(TASK_CLASS))
        .collect();
    let (lo, hi) = (members[0], members[1]);
    let outsider = (0..6u32).find(|m| !members.contains(m)).unwrap();
    let wg = wg_group(TASK_CLASS);
    let mut stranded = 0;
    for seed in 0..16 {
        let mut sys = SimSystem::new(
            PasoConfig::builder(6, 1)
                .seed(seed)
                .adaptive(false)
                .fault_plan(FaultPlan::none().drop_link(NodeId(hi), NodeId(lo), 0.3))
                .build(),
        );
        let (op, _) = sys.issue_insert(0, task(7));
        if sys.wait(op, 1_000_000) != Some(ClientResult::Inserted) {
            continue; // the lossy link outlasted the insert's retries
        }
        sys.run_for(SimTime::from_millis(10));
        sys.crash(lo);
        sys.run_for(SimTime::from_millis(30));
        sys.repair(lo);
        sys.run_for(SimTime::from_millis(200));
        let v = sys.vsync(lo);
        if !v.is_member_of(wg) || v.holds_state_of(wg) {
            continue; // the transfer arrived, or the view did not
        }
        stranded += 1;
        assert_eq!(sys.server(lo).store_len(TASK_CLASS), 0);
        for _ in 0..2 {
            let got = sys.read(outsider, sc_eq(7));
            assert!(got.is_some(), "seed {seed}: an acked object was not found");
        }
        // Its own reads do not consult its empty store either.
        let got = sys.read(lo, sc_eq(7));
        assert!(got.is_some(), "seed {seed}: a read at m{lo} missed");
        assert!(
            sys.stats().counter(metrics::OP_READ_ANYCAST_DECLINED) >= 1.0,
            "seed {seed}: the member without state must decline"
        );
        let report = sys.check_semantics();
        assert!(report.ok(), "seed {seed}: {:?}", report.violations);
    }
    assert!(stranded >= 2, "only {stranded} seeds lost the transfer");
}

#[test]
fn a_joiner_that_lost_its_transfer_still_reads_back_every_acked_insert() {
    // The shape of the live soak test, without its crashes: n = 6, λ = 1,
    // adaptive on, 4 % drops and 0–2 ms delays on every link, four rounds
    // of four inserts at m0, then m0 reads each acked insert back. Its
    // reads make it join the class; on these seeds the join's transfer is
    // dropped and m0, the lowest id, leads the view without the state.
    // Its reads must go to a replica that holds the state: served from
    // its own empty store, each seed misses 6–8 acked inserts.
    let soak = |n: i64| vec![Value::symbol("soak"), Value::Int(n)];
    let sc_soak = |n: i64| SearchCriterion::from(Template::exact(soak(n)));
    for seed in [
        13, 23, 39, 43, 102, 106, 107, 114, 116, 135, 149, 159, 188, 221, 280,
    ] {
        let mut sys = SimSystem::new(
            PasoConfig::builder(6, 1)
                .seed(seed)
                .fault_plan(
                    FaultPlan::none()
                        .drop_all(0.04)
                        .delay_all(DelayDist::uniform(0, 2_000)),
                )
                .build(),
        );
        sys.run_for(SimTime::from_millis(20));
        let mut acked = Vec::new();
        let mut tag = 0;
        for _round in 0..4 {
            for _ in 0..4 {
                // Retry each insert, under a fresh tag, until it is acked.
                for _attempt in 0..40 {
                    tag += 1;
                    let (op, _) = sys.issue_insert(0, soak(tag));
                    if sys.wait(op, 2_000_000) == Some(ClientResult::Inserted) {
                        acked.push(tag);
                        break;
                    }
                }
            }
            sys.run_for(SimTime::from_millis(60));
        }
        assert_eq!(acked.len(), 16, "seed {seed}");
        for tag in acked {
            // Retry a miss for up to 10 s of simulated time.
            let found = (0..100).any(|_| {
                let op = sys.issue_read(0, sc_soak(tag), false);
                if let Some(ClientResult::Found(_)) = sys.wait(op, 2_000_000) {
                    return true;
                }
                sys.run_for(SimTime::from_millis(100));
                false
            });
            assert!(found, "seed {seed}: acked insert {tag} never read back");
        }
    }
}

#[test]
fn a_read_whose_target_crashes_falls_back_at_once() {
    let mut sys = anycast_sys(7);
    sys.insert(0, task(5));
    sys.run_for(SimTime::from_millis(10));
    let members: Vec<u32> = (0..6)
        .filter(|m| sys.server(*m).is_basic(TASK_CLASS))
        .collect();
    let outsider = (0..6u32).find(|m| !members.contains(m)).unwrap();
    // Two reads in flight at once: rotation sends one to each replica, so
    // one of them waits on the replica that crashes.
    let reads = [
        sys.issue_read(outsider, sc_eq(5), false),
        sys.issue_read(outsider, sc_eq(5), false),
    ];
    while sys.stats().counter(metrics::OP_READ_ANYCAST) < 2.0 {
        sys.run_for(SimTime::from_micros(1));
    }
    let crashed_at = sys.now().as_micros();
    sys.crash(members[0]);
    for op in reads {
        let got = sys.wait(op, 1_000_000);
        assert!(matches!(got, Some(ClientResult::Found(_))), "{got:?}");
    }
    let waited = sys.now().as_micros() - crashed_at;
    assert!(
        waited < 10_000,
        "the read waited {waited} µs; the backstop timer is 100 ms"
    );
    assert!(sys.stats().counter(metrics::OP_READ_REMOTE) >= 1.0);
}

#[test]
fn anycast_spreads_load_across_members() {
    let mut sys = SimSystem::new(
        PasoConfig::builder(8, 3) // 4 basic members to rotate over
            .seed(5)
            .read_mode(ReadMode::Anycast)
            .adaptive(false)
            .build(),
    );
    sys.insert(0, task(1));
    sys.run_for(SimTime::from_millis(10));
    let class = ClassId(2);
    let outsider = (0..8u32).find(|m| !sys.server(*m).is_basic(class)).unwrap();
    let work_before: Vec<u64> = (0..8)
        .map(|m| sys.stats().node_work(paso_simnet::NodeId(m)))
        .collect();
    for _ in 0..12 {
        sys.read(outsider, sc_any()).expect("found");
    }
    sys.settle(1_000_000);
    // Every basic member served some queries (round-robin rotation).
    let mut served = 0;
    for m in 0..8u32 {
        if sys.server(m).is_basic(class) && m != outsider {
            let delta = sys.stats().node_work(paso_simnet::NodeId(m)) - work_before[m as usize];
            if delta > 0 {
                served += 1;
            }
        }
    }
    assert!(
        served >= 3,
        "rotation must spread queries ({served} members served)"
    );
}

#[test]
fn semantics_hold_with_anycast_under_churn() {
    let mut sys = anycast_sys(6);
    for round in 0..5i64 {
        sys.insert((round % 6) as u32, task(round));
        let victim = ((round + 2) % 6) as u32;
        sys.crash(victim);
        sys.run_for(SimTime::from_millis(20));
        let reader = ((round + 4) % 6) as u32;
        let reader = if reader == victim {
            (reader + 1) % 6
        } else {
            reader
        };
        let _ = sys.read(reader, sc_any());
        let _ = sys.read_del(reader, sc_eq(round));
        sys.repair(victim);
        sys.run_for(SimTime::from_secs(1));
    }
    let report = sys.check_semantics();
    assert!(report.ok(), "{:?}", report.violations);
}
