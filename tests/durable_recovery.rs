//! End-to-end durable recovery: a crashed member replays its WAL
//! (snapshot + tail) locally, rejoins with a `(view, seq)` watermark,
//! and the donor ships only the deliveries it missed — the incremental
//! state transfer that shrinks the join cost K from O(|store|) to
//! O(missed deliveries). The recorded trace must stay A1–A3 legal
//! across the crash, and no acknowledged insert may be lost.

mod common;

use common::{durable_builder, durable_sys, fields, sc_eq};
use paso::core::SimSystem;
use paso::runtime::{Cluster, TransportKind};
use paso::simnet::SimTime;
use paso::telemetry::check_trace;
use paso::types::ClassId;

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
