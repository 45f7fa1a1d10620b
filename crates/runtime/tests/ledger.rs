//! The live ledger: every count is incremented once, into the registry.
//!
//! A registry handle taken at any time — from the cluster or from a
//! gateway link — reads current totals without anyone "syncing" it, and
//! `ClusterStats` is a typed view of the same counters.

use std::time::{Duration, Instant};

use paso_core::PasoConfig;
use paso_runtime::{Cluster, ClusterStats, TransportKind};
use paso_telemetry::{Snapshot, Telemetry};
use paso_types::Value;

/// The registry counters `ClusterStats` is read from, field by field.
fn stats_of(snap: &Snapshot) -> ClusterStats {
    let c = |name| snap.counter(name) as u64;
    ClusterStats {
        msgs_sent: c("net.msgs_sent"),
        bytes_sent: c("net.bytes_sent"),
        total_work: c("work.total"),
        msgs_delivered: c("net.msgs_delivered"),
        msgs_dropped: c("net.msgs_dropped"),
        msgs_faulted: c("net.msgs_faulted"),
        msgs_delayed: c("net.msgs_delayed"),
        client_retries: c("client.retries"),
        results_evicted: c("client.results_evicted"),
    }
}

/// Waits for the message path to go quiet (acks and gossip still trickle
/// after the last client answer), then returns a registry snapshot and
/// the `ClusterStats` read right after it.
fn quiesced(cluster: &Cluster, handle: &Telemetry) -> (Snapshot, ClusterStats) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let before = cluster.stats();
        std::thread::sleep(Duration::from_millis(30));
        let snap = handle.snapshot();
        let after = cluster.stats();
        if before == after || Instant::now() > deadline {
            return (snap, after);
        }
    }
}

#[test]
fn a_handle_retained_from_before_the_traffic_reads_the_transport_totals() {
    let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
    let cluster = Cluster::start(cfg, TransportKind::Tcp);
    // Both handles are taken before a single frame moves, and
    // `Cluster::telemetry()` is never called again.
    let from_link = cluster.gateway_link(0).telemetry();
    let from_cluster = cluster.telemetry();
    for i in 0..50 {
        cluster
            .insert(i % 3, vec![Value::symbol("t"), Value::Int(i as i64)])
            .unwrap();
    }
    for handle in [&from_link, &from_cluster] {
        let (snap, stats) = quiesced(&cluster, handle);
        assert!(snap.counter("net.bytes_sent") > 0.0, "{snap:?}");
        assert!(snap.counter("net.msgs_delivered") > 0.0);
        assert_eq!(snap.counter("net.bytes_sent") as u64, stats.bytes_sent);
        assert_eq!(
            snap.counter("net.msgs_delivered") as u64,
            stats.msgs_delivered
        );
    }
    cluster.shutdown();
}

#[test]
fn cluster_stats_is_the_registry_on_both_transports() {
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        let cluster = Cluster::start(PasoConfig::builder(4, 1).build(), kind);
        let handle = cluster.telemetry();
        for i in 0..20 {
            cluster
                .insert(i % 4, vec![Value::symbol("t"), Value::Int(i as i64)])
                .unwrap();
        }
        let (snap, stats) = quiesced(&cluster, &handle);
        assert_eq!(stats_of(&snap), stats, "{kind:?}");
        assert!(stats.msgs_sent > 0 && stats.bytes_sent > 0 && stats.total_work > 0);
        // Every protocol message was handed off, plus the client requests.
        assert_eq!(stats.msgs_delivered, stats.msgs_sent + 20, "{kind:?}");
        cluster.shutdown();
    }
}
