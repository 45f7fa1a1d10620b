//! Stress: concurrent client threads against a live cluster while
//! machines crash and recover — exactly-once consumption and progress
//! must survive, over both transports. And concurrent senders on one
//! TCP link, which they and the transport's I/O thread take turns
//! writing.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use paso_core::PasoConfig;
use paso_runtime::{
    Cluster, ClusterError, Envelope, Ledger, Mailbox, Postman, TcpTransport, TransportKind,
    TransportTuning,
};
use paso_simnet::NodeId;
use paso_types::{FieldMatcher, ObjectId, SearchCriterion, Template, Value};
use paso_vsync::NetMsg;

fn sc_item() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("item")),
        FieldMatcher::Any,
    ]))
}

fn churn_stress(kind: TransportKind, items: usize, churn_rounds: usize) {
    let n = 6usize;
    let cluster = Arc::new(Cluster::start(PasoConfig::builder(n, 1).build(), kind));
    let stop = Arc::new(AtomicBool::new(false));

    // Producer thread on machine 0 (never crashed).
    let producer = {
        let c = Arc::clone(&cluster);
        std::thread::spawn(move || {
            for i in 0..items {
                c.insert(0, vec![Value::symbol("item"), Value::Int(i as i64)])
                    .expect("producer inserts");
            }
        })
    };

    // Consumer threads on machines 1 and 2 (never crashed).
    let mut consumers = Vec::new();
    for w in [1u32, 2] {
        let c = Arc::clone(&cluster);
        consumers.push(std::thread::spawn(move || {
            let mut got: Vec<ObjectId> = Vec::new();
            loop {
                match c.take_blocking(w, sc_item()) {
                    Ok(Some(o)) => {
                        if o.field(1) == Some(&Value::Int(-1)) {
                            break; // poison pill
                        }
                        got.push(o.id());
                    }
                    Ok(None) => break, // blocking deadline: give up
                    Err(ClusterError::Timeout) => break,
                    Err(e) => panic!("consumer {w}: {e}"),
                }
            }
            got
        }));
    }

    // Churn: machine 4 — a *basic member* of the item class (B(C2) =
    // {4, 5} under the round-robin assignment) — crashes and recovers
    // repeatedly. Only one machine ever churns, so λ = 1 is respected
    // even if a rejoin is still in flight when the next crash lands
    // (crashing 5 too could transiently kill both replicas, which is the
    // >λ data-loss case, not a bug).
    let churner = {
        let c = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for _ in 0..churn_rounds {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                c.crash(4);
                std::thread::sleep(Duration::from_millis(30));
                c.recover(4);
                std::thread::sleep(Duration::from_millis(60));
            }
        })
    };

    producer.join().unwrap();
    // Poison pills: one per consumer.
    for _ in 0..consumers.len() {
        cluster
            .insert(0, vec![Value::symbol("item"), Value::Int(-1)])
            .unwrap();
    }
    let mut all: Vec<ObjectId> = Vec::new();
    for c in consumers {
        all.extend(c.join().unwrap());
    }
    stop.store(true, Ordering::Relaxed);
    churner.join().unwrap();

    // Exactly-once: no object consumed twice.
    let unique: BTreeSet<ObjectId> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "an object was consumed twice");
    assert_eq!(
        all.len(),
        items,
        "every produced item consumed exactly once"
    );
    cluster.shutdown();
}

#[test]
fn channel_cluster_survives_churn_with_concurrent_clients() {
    churn_stress(TransportKind::Channel, 60, 8);
}

#[test]
fn tcp_cluster_survives_churn_with_concurrent_clients() {
    churn_stress(TransportKind::Tcp, 24, 4);
}

/// Four threads send on one `(from, to)` connection. Whichever thread
/// finds the link idle writes it, the others queue behind that write or
/// wake the I/O thread, which takes over whatever a sender left: every
/// frame arrives once, and each thread's frames in the order it sent them.
#[test]
fn concurrent_senders_on_one_link_keep_per_sender_fifo() {
    const SENDERS: u64 = 4;
    const FRAMES: u64 = 5_000;
    let tuning = TransportTuning {
        // Nothing may be shed: the queue holds all of it.
        queue_depth: (SENDERS * FRAMES) as usize,
        ..TransportTuning::default()
    };
    let (postman, mailboxes) = TcpTransport::with_tuning(2, tuning, &Ledger::new());
    std::thread::scope(|scope| {
        for sender in 0..SENDERS {
            let postman = &postman;
            scope.spawn(move || {
                for seq in 0..FRAMES {
                    let mut payload = sender.to_le_bytes().to_vec();
                    payload.extend_from_slice(&seq.to_le_bytes());
                    let msg = NetMsg::App(payload);
                    let from = NodeId(0);
                    postman.send(NodeId(1), Envelope::Net { from, msg });
                }
            });
        }
        let mut next = [0u64; SENDERS as usize];
        for _ in 0..SENDERS * FRAMES {
            let got = mailboxes[1].recv_timeout(Duration::from_secs(10));
            let Some(Envelope::Net {
                msg: NetMsg::App(payload),
                ..
            }) = got
            else {
                panic!("expected a frame, got {got:?} after {next:?}");
            };
            let sender = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
            let seq = u64::from_le_bytes(payload[8..].try_into().unwrap());
            assert_eq!(
                seq, next[sender],
                "sender {sender}: lost, doubled or reordered"
            );
            next[sender] += 1;
        }
    });
    assert!(
        mailboxes[1]
            .recv_timeout(Duration::from_millis(50))
            .is_none(),
        "a frame arrived twice"
    );
    let stats = postman.net_stats();
    assert_eq!(stats.msgs_delivered, SENDERS * FRAMES);
    assert_eq!(stats.msgs_dropped, 0);
}
