//! # paso-runtime
//!
//! A **live** PASO cluster: the very same sans-I/O protocol state machines
//! that run under the deterministic simulator (`paso-simnet`) — virtual
//! synchrony, memory servers, adaptive replication — driven here by one OS
//! thread per machine over real transports:
//!
//! - [`TransportKind::Channel`] — in-process crossbeam channels;
//! - [`TransportKind::Tcp`] — real localhost TCP sockets with
//!   length-delimited frames (the "local multi-process evaluation"
//!   substitute for the paper's Ethernet LAN; no async runtime needed).
//!
//! The cluster controller doubles as the membership oracle (the ISIS
//! failure-detection layer): [`Cluster::crash`] halts a node and notifies
//! the peers; [`Cluster::recover`] brings it back with erased memory, and
//! the server re-joins its groups through state transfer — end to end,
//! over real sockets.
//!
//! See [`Cluster`] for the synchronous client API.

#![warn(missing_docs)]

mod cluster;
mod completions;
mod frame_server;
mod ledger;
mod node;
mod reactor;
pub mod shell;
mod transport;

pub use cluster::{Cluster, ClusterError, GatewayLink, Park, TransportKind};
pub use frame_server::{ClientEvent, ClientId, FrameServer, SendOutcome};
pub use ledger::{ClusterStats, Ledger, NetStats};
pub use transport::{
    ChannelMailbox, ChannelTransport, Envelope, Mailbox, Postman, TcpMailbox, TcpTransport,
    TransportTuning,
};

#[cfg(test)]
mod tests {
    use super::*;
    use paso_core::PasoConfig;
    use paso_types::{FieldMatcher, SearchCriterion, Template, Value};

    fn sc_task(n: i64) -> SearchCriterion {
        SearchCriterion::from(Template::exact(vec![Value::symbol("t"), Value::Int(n)]))
    }

    fn sc_any() -> SearchCriterion {
        SearchCriterion::from(Template::new(vec![
            FieldMatcher::Exact(Value::symbol("t")),
            FieldMatcher::Any,
        ]))
    }

    fn task(n: i64) -> Vec<Value> {
        vec![Value::symbol("t"), Value::Int(n)]
    }

    #[test]
    fn zero_retry_budget_waits_the_full_deadline() {
        // budget = 0 is a legal config: the single attempt must get the
        // whole op timeout (not a zero-length slice) and succeed on a
        // healthy cluster.
        let cfg = PasoConfig::builder(3, 1).client_retry_budget(0).build();
        let cluster = Cluster::start(cfg, TransportKind::Channel);
        cluster.insert(0, task(1)).unwrap();
        assert!(cluster.read(1, sc_task(1)).unwrap().is_some());
        cluster.shutdown();
    }

    #[test]
    fn submillisecond_timeout_is_clamped_not_zero_sliced() {
        // 200µs / 51 attempts truncates to ~4µs per attempt — without
        // the clamp every attempt expires before a reply can possibly
        // arrive and the op fails on a perfectly healthy cluster. The
        // 1ms floor gives the retry loop ~51ms of real patience.
        let cfg = PasoConfig::builder(3, 1).client_retry_budget(50).build();
        let mut cluster = Cluster::start(cfg, TransportKind::Channel);
        cluster.set_op_timeout(std::time::Duration::from_micros(200));
        let mut landed = false;
        for i in 0..5 {
            if cluster.insert(0, task(i)).is_ok() {
                landed = true;
                break;
            }
        }
        assert!(
            landed,
            "sub-ms timeout with retries must still land on a healthy cluster"
        );
        cluster.shutdown();
    }

    #[test]
    fn gateway_link_round_trips_an_op() {
        use paso_core::{AppMsg, ClientOp, ClientRequest, ClientResult};
        use paso_types::{ObjectId, PasoObject, ProcessId};

        let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
        let cluster = Cluster::start(cfg, TransportKind::Channel);
        let link = cluster.gateway_link(0);
        assert_eq!(link.node_id().0, 3, "gateways sit behind the servers");
        assert_eq!(link.servers(), 3);

        // Gateway op ids are namespaced by the gateway's NodeId so they
        // can never collide with the direct client API's counter.
        let op_id = (u64::from(link.node_id().0) << 40) | 1;
        let object = PasoObject::new(
            ObjectId::new(ProcessId(u64::from(link.node_id().0)), 1),
            task(42),
        );
        link.send(
            0,
            &AppMsg::ClientBatch(vec![ClientRequest {
                op_id,
                op: ClientOp::Insert { object },
            }]),
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let result = loop {
            assert!(std::time::Instant::now() < deadline, "no Done within 5s");
            match link.recv_timeout(std::time::Duration::from_millis(100)) {
                Some((_, AppMsg::Done(done))) if done.op_id == op_id => break done.result,
                _ => continue,
            }
        };
        assert_eq!(result, ClientResult::Inserted);
        // The object a gateway inserted is visible to direct clients.
        assert!(cluster.read(1, sc_task(42)).unwrap().is_some());
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn gateway_slot_claimed_once() {
        let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
        let cluster = Cluster::start(cfg, TransportKind::Channel);
        let _first = cluster.gateway_link(0);
        let _second = cluster.gateway_link(0);
    }

    #[test]
    fn channel_cluster_insert_read_readdel() {
        let cluster = Cluster::start(PasoConfig::builder(4, 1).build(), TransportKind::Channel);
        cluster.insert(0, task(1)).unwrap();
        let got = cluster.read(2, sc_task(1)).unwrap();
        assert!(got.is_some());
        let taken = cluster.read_del(3, sc_task(1)).unwrap();
        assert!(taken.is_some());
        assert!(cluster.read(1, sc_task(1)).unwrap().is_none());
        assert!(cluster.stats().msgs_sent > 0);
        cluster.shutdown();
    }

    #[test]
    fn blocking_take_wakes_when_producer_arrives() {
        let cluster = std::sync::Arc::new(Cluster::start(
            PasoConfig::builder(3, 1).build(),
            TransportKind::Channel,
        ));
        let consumer = {
            let c = std::sync::Arc::clone(&cluster);
            std::thread::spawn(move || c.take_blocking(2, sc_any()).unwrap())
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        cluster.insert(0, task(9)).unwrap();
        let got = consumer.join().unwrap();
        assert!(got.is_some(), "blocked take must receive the later insert");
        cluster.shutdown();
    }

    #[test]
    fn crash_and_recover_preserves_data() {
        let cluster = Cluster::start(PasoConfig::builder(4, 1).build(), TransportKind::Channel);
        cluster.insert(0, task(5)).unwrap();
        // Find a basic member by probing who holds the class: crash one
        // machine and data must survive (λ=1).
        cluster.crash(1);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(cluster.read(0, sc_task(5)).unwrap().is_some());
        assert_eq!(cluster.read(1, sc_task(5)), Err(ClusterError::NodeDown));
        cluster.insert(2, task(6)).unwrap();
        cluster.recover(1);
        std::thread::sleep(std::time::Duration::from_millis(300));
        // The recovered machine serves reads again (including data
        // inserted while it was down).
        assert!(cluster.read(1, sc_task(6)).unwrap().is_some());
        cluster.shutdown();
    }

    #[test]
    fn tcp_cluster_end_to_end() {
        let cluster = Cluster::start(PasoConfig::builder(3, 1).build(), TransportKind::Tcp);
        cluster.insert(0, task(7)).unwrap();
        let got = cluster.read(2, sc_task(7)).unwrap();
        assert!(got.is_some(), "data must replicate over real TCP sockets");
        let taken = cluster.read_del(1, sc_task(7)).unwrap();
        assert!(taken.is_some());
        assert!(cluster.stats().bytes_sent > 0);
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_each_get_distinct_objects() {
        let cluster = std::sync::Arc::new(Cluster::start(
            PasoConfig::builder(4, 1).build(),
            TransportKind::Channel,
        ));
        for i in 0..16 {
            cluster.insert(0, task(i)).unwrap();
        }
        let mut joins = Vec::new();
        for w in 0..4u32 {
            let c = std::sync::Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..4 {
                    if let Some(o) = c.read_del(w, sc_any()).unwrap() {
                        got.push(o.id());
                    }
                }
                got
            }));
        }
        let mut all: Vec<_> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before, "no object may be consumed twice");
        assert_eq!(all.len(), 16, "every object consumed exactly once");
        cluster.shutdown();
    }
}
