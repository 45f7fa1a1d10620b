//! End-to-end durable recovery: a crashed member replays its WAL
//! (snapshot + tail) locally, rejoins with a `(view, seq)` watermark,
//! and the donor ships only the deliveries it missed — the incremental
//! state transfer that shrinks the join cost K from O(|store|) to
//! O(missed deliveries). The recorded trace must stay A1–A3 legal
//! across the crash, and no acknowledged insert may be lost.

mod common;

use std::time::{Duration, Instant};

use common::{durable_builder, durable_sys, fields, sc_eq};
use paso::adaptive::{measure, oscillation_adversary, BasicStrategy, ModelParams};
use paso::core::{AppMsg, ClientOp, ClientRequest, ClientResult, SimSystem};
use paso::runtime::{Cluster, GatewayLink, TransportKind};
use paso::simnet::SimTime;
use paso::telemetry::check_trace;
use paso::types::{ClassId, ObjectId, PasoObject, ProcessId};
use paso::workload::requests::uniform_mix;

#[test]
fn crashed_member_replays_wal_and_rejoins_via_delta() {
    let mut sys = durable_sys(11);
    let class = ClassId(2); // arity-2 objects
    let victim = (0..5u32)
        .find(|m| sys.server(*m).is_basic(class))
        .expect("some machine hosts the class");
    let issuer = (0..5u32).find(|m| *m != victim).unwrap();

    // Acknowledged inserts before the crash: these are durable on the
    // victim's WAL by the time it acks them.
    for v in 1..=8 {
        sys.insert(issuer, fields(v));
    }
    sys.crash(victim);
    sys.run_for(SimTime::from_millis(100)); // survivors install the shrunken view

    // The gap: deliveries the victim misses while down. Small relative
    // to the log horizon, so the donor can serve a delta.
    for v in 9..=12 {
        sys.insert(issuer, fields(v));
    }

    sys.repair(victim);
    sys.run_for(SimTime::from_millis(500));
    sys.settle(5_000_000);

    let snap = sys.telemetry().snapshot();
    // The victim replayed its own WAL rather than starting empty…
    assert!(
        snap.counter("wal.recovered_records") > 0.0,
        "recovery must replay durable records"
    );
    // …and at least one group rejoin took the incremental path.
    assert!(
        snap.counter("join.delta_hit") >= 1.0,
        "rejoin with a valid watermark must take the delta path \
         (delta {}, full {})",
        snap.counter("join.delta_hit"),
        snap.counter("join.full_xfer"),
    );
    assert!(snap.hist("join.transfer_bytes").count > 0);
    assert!(snap.hist("wal.fsync_micros").count > 0);

    // No acknowledged insert was lost: every object reads back from the
    // rejoined victim's own local copy.
    for v in 1..=12 {
        assert!(
            sys.read(victim, sc_eq(v)).is_some(),
            "object {v} must survive the crash/rejoin"
        );
    }

    // The whole history — crash, replay, delta rejoin — is axiom-legal.
    let report = check_trace(&sys.trace_events());
    assert!(report.ok(), "post-recovery trace: {:?}", report.violations);
    assert!(sys.check_semantics().ok());
}

/// When the victim stays down long enough that the survivors' delivery
/// log wraps past its watermark, the donor must fall back to a full
/// state transfer — correctness never depends on the horizon.
#[test]
fn gap_beyond_log_horizon_falls_back_to_full_transfer() {
    // tiny log horizon: any real gap overruns it
    let cfg = durable_builder(13).log_horizon(4).build();
    let mut sys = SimSystem::new(cfg);
    sys.run_for(SimTime::from_millis(10));
    let class = ClassId(2);
    let victim = (0..5u32)
        .find(|m| sys.server(*m).is_basic(class))
        .expect("some machine hosts the class");
    let issuer = (0..5u32).find(|m| *m != victim).unwrap();

    for v in 1..=3 {
        sys.insert(issuer, fields(v));
    }
    sys.crash(victim);
    sys.run_for(SimTime::from_millis(100));
    // Miss more deliveries than the horizon retains.
    for v in 4..=12 {
        sys.insert(issuer, fields(v));
    }
    sys.repair(victim);
    sys.run_for(SimTime::from_millis(500));
    sys.settle(5_000_000);

    let snap = sys.telemetry().snapshot();
    assert!(
        snap.counter("join.full_xfer") >= 1.0,
        "an overrun horizon must force the full-transfer fallback"
    );
    for v in 1..=12 {
        assert!(
            sys.read(victim, sc_eq(v)).is_some(),
            "object {v} must survive the fallback path"
        );
    }
    let report = check_trace(&sys.trace_events());
    assert!(report.ok(), "post-recovery trace: {:?}", report.violations);
}

/// A delta is shipped only while it is the smaller transfer: a rejoiner
/// that missed many inserts and removes of a class that stayed small is
/// sent the state instead, though its watermark is still in the log.
#[test]
fn a_gap_that_outweighs_the_store_ships_the_store() {
    let mut sys = durable_sys(23);
    let class = ClassId(2);
    let victim = (0..5u32)
        .find(|m| sys.server(*m).is_basic(class))
        .expect("some machine hosts the class");
    let issuer = (0..5u32).find(|m| *m != victim).unwrap();
    for v in 1..=4 {
        sys.insert(issuer, fields(v));
    }
    sys.crash(victim);
    sys.run_for(SimTime::from_millis(100));
    // 60 missed deliveries, 4 more objects in the store.
    for v in 5..=34 {
        sys.insert(issuer, fields(v));
        if v > 8 {
            assert!(sys.read_del(issuer, sc_eq(v)).is_some());
        }
    }
    sys.repair(victim);
    sys.run_for(SimTime::from_millis(500));
    sys.settle(5_000_000);

    let snap = sys.telemetry().snapshot();
    assert!(snap.counter("wal.recovered_records") > 0.0);
    // The victim's other groups never delivered, so they rejoin by full
    // transfer too; the gapped group's delta would have been 934 B.
    assert!(
        snap.counter("join.delta_hit") == 0.0 && snap.counter("join.full_xfer") >= 1.0,
        "the gapped group must take the full transfer (delta {}, full {}, largest {} B)",
        snap.counter("join.delta_hit"),
        snap.counter("join.full_xfer"),
        snap.hist("join.transfer_bytes").max,
    );
    for v in 1..=34 {
        assert_eq!(
            sys.read(victim, sc_eq(v)).is_some(),
            v <= 8,
            "object {v} at the rejoined victim"
        );
    }
    let report = check_trace(&sys.trace_events());
    assert!(report.ok(), "post-recovery trace: {:?}", report.violations);
    assert!(sys.check_semantics().ok());
}

/// Fills a `store`-object class, crashes one basic member, misses `gap`
/// more inserts, repairs it, and returns the largest join transfer in
/// bytes (the gapped group's; the victim's other groups rejoin with
/// empty deltas) and whether any group fell back to a full transfer.
/// `horizon` picks the path: ample takes the delta, 1 forces the full
/// fallback.
fn rejoin_transfer(store: i64, gap: i64, horizon: usize) -> (u64, bool) {
    let mut sys = SimSystem::new(durable_builder(0x50).log_horizon(horizon).build());
    sys.run_for(SimTime::from_millis(10));
    let class = ClassId(2);
    let victim = (0..5u32)
        .find(|m| sys.server(*m).is_basic(class))
        .expect("some machine hosts the class");
    let issuer = (0..5u32).find(|m| *m != victim).unwrap();
    for v in 0..store {
        sys.insert(issuer, fields(v));
    }
    sys.crash(victim);
    sys.run_for(SimTime::from_millis(100));
    for v in store..store + gap {
        sys.insert(issuer, fields(v));
    }
    sys.repair(victim);
    sys.run_for(SimTime::from_secs(1));
    sys.settle(20_000_000);
    for v in [0, store / 2, store + gap - 1] {
        assert!(
            sys.read(victim, sc_eq(v)).is_some(),
            "object {v} missing after rejoin (store {store}, gap {gap})"
        );
    }
    let snap = sys.telemetry().snapshot();
    (
        snap.hist("join.transfer_bytes").max,
        snap.counter("join.full_xfer") > 0.0,
    )
}

/// The join cost K of the §5 bounds, measured: a delta rejoin ships the
/// missed deliveries, not the store, so it is ≥ 5× cheaper at a small
/// gap over a large store (184 B vs 3778 B) and still cheaper at a gap
/// half the store (640 B vs 1285 B). Theorem 2 must hold at the K of
/// either path (164 and 8 deliveries at the first point, 64 and 32 at
/// the second).
#[test]
fn delta_rejoin_ships_the_gap_not_the_store_and_theorem_2_holds_at_the_measured_k() {
    for (store, gap, min_saving) in [(256, 8, 5.0), (64, 32, 1.0)] {
        let (delta, delta_fell_back) = rejoin_transfer(store, gap, 4096);
        let (full, full_fell_back) = rejoin_transfer(store, gap, 1);
        assert!(
            !delta_fell_back,
            "an ample horizon must take the delta path"
        );
        assert!(full_fell_back, "horizon 1 must force the full fallback");
        let saving = full as f64 / delta as f64;
        assert!(
            delta < full && saving >= min_saving,
            "store {store}, gap {gap}: delta {delta} B vs full {full} B ({saving:.1}x)"
        );

        // K in delivery-equivalents: a delta costs the gap, a full
        // transfer its bytes over what one missed delivery costs.
        let k_full = (full as f64 / (delta as f64 / gap as f64)).round() as u64;
        for k in [k_full, gap as u64] {
            let params = ModelParams::uniform(1, k);
            let mut basic = BasicStrategy::new(params);
            for events in [
                uniform_mix(2000, 0.6, 1, 0x50 ^ k),
                oscillation_adversary(&params, 200),
            ] {
                let report = measure(&mut basic, &events, &params);
                assert!(report.within_bound, "K = {k}: {report:?}");
            }
        }
    }
}

/// `wal_dir` is a deployment path, and the one place the two substrates
/// build their node differently: the live cluster keeps `node-<id>.wal`
/// files under it, the simulator logs to memory whatever it says.
#[test]
fn wal_dir_puts_live_logs_on_files_and_the_simulator_ignores_it() {
    let dir = std::env::temp_dir().join(format!("paso-wal-dir-{}", std::process::id()));
    let cfg = durable_builder(17).wal_dir(&dir).build();

    let mut sys = SimSystem::new(cfg.clone());
    sys.insert(0, fields(1));
    assert!(!dir.exists(), "a simulated WAL must stay in memory");

    let cluster = Cluster::start(cfg, TransportKind::Channel);
    cluster.insert(0, fields(1)).unwrap();
    cluster.shutdown();
    let logged: u64 = (0..5)
        .filter_map(|node| std::fs::metadata(dir.join(format!("node-{node}.wal"))).ok())
        .map(|file| file.len())
        .sum();
    std::fs::remove_dir_all(&dir).expect("remove the WAL directory");
    assert!(
        logged > 0,
        "an acknowledged insert is on some member's file"
    );
}

/// Sends `server` one `ClientBatch` inserting `fields(v)` for every `v`
/// and waits until each insert is acknowledged.
fn insert_batch(link: &GatewayLink, server: u32, values: std::ops::RangeInclusive<i64>) {
    let gateway = u64::from(link.node_id().0);
    let reqs: Vec<ClientRequest> = values
        .map(|v| ClientRequest {
            op_id: (gateway << 40) | v as u64,
            op: ClientOp::Insert {
                object: PasoObject::new(ObjectId::new(ProcessId(gateway), v as u64), fields(v)),
            },
        })
        .collect();
    let mut waiting = reqs.len();
    link.send(server, &AppMsg::ClientBatch(reqs));
    let deadline = Instant::now() + Duration::from_secs(30);
    while waiting > 0 {
        assert!(Instant::now() < deadline, "{waiting} inserts unanswered");
        let dones = match link.recv_timeout(Duration::from_millis(100)) {
            Some((_, AppMsg::Done(done))) => vec![done],
            Some((_, AppMsg::DoneBatch(dones))) => dones,
            _ => continue,
        };
        for done in dones {
            assert_eq!(done.result, ClientResult::Inserted);
            waiting -= 1;
        }
    }
}

/// Batch payloads through both recovery paths: a member whose WAL tail
/// holds batch deliveries replays them after a crash, fetches the batches
/// it missed as a `StateXferDelta`, and ends holding exactly what its
/// peers hold — every object once.
#[test]
fn batch_deliveries_replay_from_the_wal_tail_and_from_a_delta() {
    let cluster = Cluster::start(
        durable_builder(19).proxy_slots(1).build(),
        TransportKind::Channel,
    );
    let link = cluster.gateway_link(0);
    let class = ClassId(2); // arity-2 objects
    let mut members: Vec<u32> = link
        .deployment()
        .basic_support(class)
        .iter()
        .map(|m| m.0)
        .collect();
    members.sort_unstable();
    let (sequencer, victim) = (members[0], members[1]);
    let count = |name: &str| cluster.telemetry().snapshot().counter(name);

    // Two batches the victim logs, two it misses while down.
    insert_batch(&link, sequencer, 1..=4);
    insert_batch(&link, sequencer, 5..=8);
    cluster.crash(victim);
    std::thread::sleep(Duration::from_millis(100));
    insert_batch(&link, sequencer, 9..=12);
    insert_batch(&link, sequencer, 13..=16);
    assert_eq!(count("op.batch.gcasts"), 4.0, "each batch was one gcast");

    // The victim rejoins each of its groups on its own. Those that never
    // delivered take full transfers, which can land before the gapped
    // group's delta: wait for the delta itself.
    cluster.recover(victim);
    let deadline = Instant::now() + Duration::from_secs(30);
    while count("join.delta_hit") < 1.0 {
        assert!(
            Instant::now() < deadline,
            "the gap never came as a delta ({} full transfers)",
            count("join.full_xfer")
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        count("wal.recovered_records") > 0.0,
        "the WAL tail replayed"
    );

    // The victim holds every object: it is a member again, so these
    // reads are served from its own replica...
    let local_before = count("op.read.local");
    for v in 1..=16 {
        assert!(
            cluster.read(victim, sc_eq(v)).unwrap().is_some(),
            "object {v} missing at the rejoined member"
        );
    }
    assert_eq!(count("op.read.local") - local_before, 16.0);
    // ...and holds each exactly once: after one `read&del` per object
    // nothing is left at the victim. A batch applied twice (replayed and
    // then delivered again) would leave its copies behind.
    for v in 1..=16 {
        assert!(cluster.read_del(sequencer, sc_eq(v)).unwrap().is_some());
    }
    for v in 1..=16 {
        assert!(
            cluster.read(victim, sc_eq(v)).unwrap().is_none(),
            "object {v} was applied twice at the rejoined member"
        );
    }
    cluster.shutdown();
}
