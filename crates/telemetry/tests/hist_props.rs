//! Property tests for the telemetry histograms and registry snapshots:
//! merge is associative and commutative, and concurrent recording loses no
//! samples (snapshot totals equal the sum of per-thread recorded samples).

use std::sync::Arc;

use paso_telemetry::metrics::{NET_MSGS_SENT, NET_MSG_BYTES};
use paso_telemetry::{HistSnapshot, Histogram, Telemetry};
use proptest::prelude::*;

fn snap_of(samples: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn merge_is_commutative(a in proptest::collection::vec(any::<u64>(), 0..64),
                            b in proptest::collection::vec(any::<u64>(), 0..64)) {
        let (sa, sb) = (snap_of(&a), snap_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in proptest::collection::vec(any::<u64>(), 0..32),
                            b in proptest::collection::vec(any::<u64>(), 0..32),
                            c in proptest::collection::vec(any::<u64>(), 0..32)) {
        let (sa, sb, sc) = (snap_of(&a), snap_of(&b), snap_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_equals_recording_concatenation(
        a in proptest::collection::vec(0u64..1 << 20, 0..64),
        b in proptest::collection::vec(0u64..1 << 20, 0..64),
    ) {
        let mut merged = snap_of(&a);
        merged.merge(&snap_of(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(merged, snap_of(&both));
    }

    #[test]
    fn snapshot_totals_match_samples(samples in proptest::collection::vec(0u64..1 << 40, 1..128)) {
        let s = snap_of(&samples);
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert_eq!(s.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(s.min, *samples.iter().min().unwrap());
        prop_assert_eq!(s.max, *samples.iter().max().unwrap());
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }
}

#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let tel = Arc::new(Telemetry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tel = Arc::clone(&tel);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    tel.record(NET_MSG_BYTES, t * PER_THREAD + i);
                    tel.count(NET_MSGS_SENT, 1.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = tel.snapshot();
    let h = snap.hist("net.msg_bytes");
    let n = THREADS * PER_THREAD;
    assert_eq!(h.count, n);
    // Sum of 0..n since per-thread ranges tile [0, n).
    assert_eq!(h.sum, n * (n - 1) / 2);
    assert_eq!(h.min, 0);
    assert_eq!(h.max, n - 1);
    assert_eq!(snap.counter("net.msgs_sent"), n as f64);
}
