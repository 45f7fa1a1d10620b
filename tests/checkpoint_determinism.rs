//! Checkpoint determinism, property-tested.
//!
//! For a random shard workload under a random fault environment (message
//! drops, delays, jitter, a crash/repair script, optional Poisson churn),
//! checkpointing the engine mid-run and restoring it must put the
//! simulation back on *exactly* the trajectory of an uninterrupted run:
//! same remaining trace, same final telemetry registry, same stats, same
//! actor states, same client-visible outputs. This is the contract that
//! makes long simulation campaigns pausable.

mod common;

use common::{ShardScenario, HORIZON_MICROS, LAMBDA, N};
use paso::simnet::{Engine, NodeId, SimTime, TraceEntry};
use paso::telemetry::CounterId;
use paso::workload::ShardActor;
use proptest::prelude::*;

/// A [`ShardScenario`] plus when the checkpoint is taken.
fn scenario() -> impl Strategy<Value = (ShardScenario, u64)> {
    (
        (any::<u64>(), 0u32..=300, (0u64..100, 0u64..100), 0u64..50),
        (
            any::<bool>(),
            proptest::collection::vec((0u64..40, any::<bool>()), 5..50),
            proptest::collection::vec((0u8..N as u8, 1u64..20), 0..3),
            2_000u64..30_000,
        ),
    )
        .prop_map(
            |((seed, drop_permille, delay, jitter_max), (churn, ops, faults, mid_micros))| {
                (
                    ShardScenario {
                        seed,
                        drop_permille,
                        delay,
                        jitter_max,
                        churn,
                        ops,
                        faults,
                    },
                    mid_micros,
                )
            },
        )
}

/// The registry is the published view of `Stats`: the engine totals and
/// every labeled counter (here the engine's own `fault.churn.*`) read the
/// same from both.
fn registry_is_stats(e: &Engine<ShardActor>) -> bool {
    let (stats, snap) = (e.stats(), e.telemetry().snapshot());
    snap.counter("net.msgs_sent") == stats.msgs_sent as f64
        && snap.counter("net.bytes_sent") == stats.total_bytes as f64
        && snap.counter("net.msg_cost") == stats.total_msg_cost
        && snap.counter("net.msgs_dropped") == stats.dropped_msgs as f64
        && snap.counter("work.total") == stats.total_work() as f64
        && snap.counter("fault.crashes") == stats.crashes as f64
        && snap.counter("fault.recoveries") == stats.recoveries as f64
        && CounterId::all()
            .all(|id| stats.counter(id) == 0.0 || snap.counter(id.name()) == stats.counter(id))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restore_resumes_the_exact_trajectory(case in scenario()) {
        let (s, mid_micros) = case;
        let horizon = SimTime::from_micros(HORIZON_MICROS);
        let mid = SimTime::from_micros(mid_micros);

        // Uninterrupted reference run.
        let mut reference = s.build();
        reference.run_until(mid);
        let mid_trace_len = reference.trace().len();
        reference.run_until(horizon);
        let ref_tail: Vec<TraceEntry> = reference.trace()[mid_trace_len..].to_vec();
        let ref_outputs = reference.take_outputs();
        let ref_snap = reference.telemetry().snapshot();

        // Same run, checkpointed at `mid` and restored into a fresh engine.
        let mut original = s.build();
        original.run_until(mid);
        let mut outputs = original.take_outputs();
        let ckpt = original.snapshot();
        let mut restored =
            Engine::from_checkpoint(s.config(), ShardActor::factory(LAMBDA), &ckpt)
                .expect("restore own checkpoint");
        prop_assert!(registry_is_stats(&restored), "right after restore");
        restored.run_until(horizon);
        prop_assert!(registry_is_stats(&restored) && registry_is_stats(&reference));
        outputs.extend(restored.take_outputs());

        // The restored run records exactly the reference's remaining trace,
        prop_assert_eq!(restored.trace().as_slice(), ref_tail.as_slice());
        // ... the registry totals converge to the same final values,
        prop_assert_eq!(restored.telemetry().snapshot(), ref_snap);
        // ... the cost ledger agrees,
        prop_assert_eq!(restored.stats().msgs_sent, reference.stats().msgs_sent);
        prop_assert_eq!(
            restored.stats().events_processed,
            reference.stats().events_processed
        );
        prop_assert_eq!(
            restored.stats().total_msg_cost,
            reference.stats().total_msg_cost
        );
        // ... every machine's state matches,
        for i in 0..N as u32 {
            prop_assert_eq!(restored.actor(NodeId(i)), reference.actor(NodeId(i)));
        }
        // ... and the client saw the same completion stream.
        prop_assert_eq!(outputs, ref_outputs);
    }
}
