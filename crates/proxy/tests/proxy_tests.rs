//! End-to-end tests of the serving tier: real client sockets → proxy →
//! gateway slot → live cluster → back.

use std::time::{Duration, Instant};

use paso_core::{ClientOp, ClientResult, Deployment, PasoConfig, ProxyServerFrame, WalMedium};
use paso_proxy::{Proxy, ProxyClient, ProxyOptions};
use paso_runtime::{Cluster, TransportKind};
use paso_simnet::{FaultPlan, NodeId};
use paso_telemetry::TraceKind;
use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};

const SECRET: u64 = 0x5eed;

fn sc_task(n: i64) -> SearchCriterion {
    SearchCriterion::from(Template::exact(vec![Value::symbol("task"), Value::Int(n)]))
}

fn sc_none() -> SearchCriterion {
    SearchCriterion::from(Template::exact(vec![
        Value::symbol("nothing"),
        Value::symbol("matches"),
    ]))
}

fn obj(seq: u64, n: i64) -> PasoObject {
    PasoObject::new(
        ObjectId::new(ProcessId(7000), seq),
        vec![Value::symbol("task"), Value::Int(n)],
    )
}

fn insert_op(n: i64) -> ClientOp {
    ClientOp::Insert {
        object: obj(n as u64, n),
    }
}

/// The machine every write of a `task` tuple is routed to: the lowest-id
/// member of its class's basic support.
fn task_leader(cfg: &PasoConfig) -> u32 {
    let d = Deployment::new(cfg.clone(), WalMedium::Memory);
    let class = d.classifier().classify(&obj(0, 0));
    let members = d.basic_support(class).iter();
    members.map(|m| m.0).min().expect("a class has support")
}

fn cluster_with_proxy(cfg: PasoConfig, opts: ProxyOptions) -> (Cluster, Proxy) {
    cluster_with_proxy_over(TransportKind::Channel, cfg, opts)
}

fn cluster_with_proxy_over(
    transport: TransportKind,
    cfg: PasoConfig,
    opts: ProxyOptions,
) -> (Cluster, Proxy) {
    let cluster = Cluster::start(cfg, transport);
    let opts = ProxyOptions {
        secret: SECRET,
        ..opts
    };
    let proxy = Proxy::start(cluster.gateway_link(0), opts).expect("proxy start");
    (cluster, proxy)
}

#[test]
fn insert_read_readdel_round_trip_through_the_proxy() {
    let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
    let (cluster, proxy) = cluster_with_proxy(cfg, ProxyOptions::default());
    let mut c = ProxyClient::connect(proxy.port(), 1, SECRET).expect("connect");

    let r = c.op(&ClientOp::Insert { object: obj(0, 5) }).unwrap();
    assert_eq!(r, ClientResult::Inserted);

    let r = c
        .op(&ClientOp::Read {
            sc: sc_task(5),
            blocking: false,
        })
        .unwrap();
    assert!(matches!(r, ClientResult::Found(_)), "got {r:?}");

    // The proxy-inserted object is visible to the direct client API...
    assert!(cluster.read(0, sc_task(5)).unwrap().is_some());

    let r = c
        .op(&ClientOp::ReadDel {
            sc: sc_task(5),
            blocking: false,
        })
        .unwrap();
    assert!(matches!(r, ClientResult::Found(_)));
    // ...and consuming it through the proxy consumes it everywhere.
    assert!(cluster.read(0, sc_task(5)).unwrap().is_none());

    let tel = cluster.telemetry().snapshot();
    assert_eq!(tel.counters.get("client.op.insert"), Some(&1.0));
    // 1 proxy read + the 2 direct verification reads above: proxy ops
    // land in the same counters as the in-process client API.
    assert_eq!(tel.counters.get("client.op.read"), Some(&3.0));
    assert_eq!(tel.counters.get("client.op.readdel"), Some(&1.0));
    assert!(
        tel.counters
            .get("proxy.ops.completed")
            .copied()
            .unwrap_or(0.0)
            >= 3.0
    );
    cluster.shutdown();
}

#[test]
fn bad_token_gets_a_flushed_denial_then_eof() {
    let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
    let (cluster, proxy) = cluster_with_proxy(cfg, ProxyOptions::default());
    let err = ProxyClient::connect(proxy.port(), 1, SECRET ^ 1).expect_err("must be denied");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    let tel = cluster.telemetry().snapshot();
    assert!(
        tel.counters
            .get("proxy.auth.denied")
            .copied()
            .unwrap_or(0.0)
            >= 1.0
    );
    cluster.shutdown();
}

#[test]
fn op_before_hello_is_denied() {
    let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
    let (cluster, proxy) = cluster_with_proxy(cfg, ProxyOptions::default());
    // A well-formed frame, but no Hello first: raw socket, hand-rolled.
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(("127.0.0.1", proxy.port())).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = paso_core::encode(&paso_core::ProxyClientFrame::Op {
        seq: 0,
        op: ClientOp::Read {
            sc: sc_task(1),
            blocking: false,
        },
    });
    let mut frame = Vec::new();
    paso_wire::put_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(&payload);
    s.write_all(&frame).unwrap();
    // Expect exactly one Denied frame, then EOF.
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let denied = paso_core::encode(&paso_core::ProxyServerFrame::Denied);
    let mut expect = Vec::new();
    paso_wire::put_varint(&mut expect, denied.len() as u64);
    expect.extend_from_slice(&denied);
    assert_eq!(buf, expect, "denial must be flushed before the close");
    cluster.shutdown();
}

#[test]
fn full_pipeline_window_bounces_busy() {
    let cfg = PasoConfig::builder(3, 1)
        .proxy_slots(1)
        .proxy_pipeline_depth(1)
        .build();
    let (cluster, proxy) = cluster_with_proxy(cfg, ProxyOptions::default());
    let mut c = ProxyClient::connect(proxy.port(), 1, SECRET).expect("connect");
    // A blocking take on a never-matching template parks server-side
    // and holds the only window slot...
    let parked = c
        .send_op(&ClientOp::ReadDel {
            sc: sc_none(),
            blocking: true,
        })
        .unwrap();
    // ...so the next op must bounce rather than queue unboundedly.
    let bounced = c
        .send_op(&ClientOp::Read {
            sc: sc_task(1),
            blocking: false,
        })
        .unwrap();
    match c.recv().unwrap() {
        paso_core::ProxyServerFrame::Busy { seq } => assert_eq!(seq, bounced),
        other => panic!("expected Busy for seq {bounced}, got {other:?} (parked={parked})"),
    }
    let tel = cluster.telemetry().snapshot();
    assert!(
        tel.counters
            .get("proxy.backpressure")
            .copied()
            .unwrap_or(0.0)
            >= 1.0
    );
    cluster.shutdown();
}

#[test]
fn pipelined_ops_all_complete() {
    let cfg = PasoConfig::builder(4, 1).proxy_slots(1).build();
    let (cluster, proxy) = cluster_with_proxy(cfg, ProxyOptions::default());
    let mut c = ProxyClient::connect(proxy.port(), 1, SECRET).expect("connect");
    let mut want = std::collections::BTreeSet::new();
    for i in 0..24 {
        want.insert(
            c.send_op(&ClientOp::Insert {
                object: obj(i, 100 + i as i64),
            })
            .unwrap(),
        );
    }
    while !want.is_empty() {
        match c.recv().unwrap() {
            paso_core::ProxyServerFrame::Done { seq, result } => {
                assert_eq!(result, ClientResult::Inserted);
                assert!(want.remove(&seq), "duplicate completion for {seq}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Every pipelined insert is visible cluster-wide.
    for i in 0..24 {
        assert!(cluster.read(0, sc_task(100 + i)).unwrap().is_some());
    }
    cluster.shutdown();
}

fn read_op(n: i64) -> ClientOp {
    ClientOp::Read {
        sc: sc_task(n),
        blocking: false,
    }
}

fn read_del_op(n: i64) -> ClientOp {
    ClientOp::ReadDel {
        sc: sc_task(n),
        blocking: false,
    }
}

/// Class-affine routing puts every op at the cheapest row of Figure 1:
/// a read at a member is a local `mem-read` and no message, an insert at
/// the leader is one gcast — λ fan-outs, λ done-empties — and its `Done`.
#[test]
fn routed_reads_are_local_and_routed_inserts_cost_one_gcast() {
    const OPS: u64 = 60;
    const LAMBDA: usize = 2;
    let cfg = PasoConfig::builder(5, LAMBDA)
        .proxy_slots(1)
        .adaptive(false)
        .build();
    let (cluster, proxy) = cluster_with_proxy(cfg, ProxyOptions::default());
    let mut c = ProxyClient::connect(proxy.port(), 1, SECRET).expect("connect");
    let counter = |name: &str| cluster.telemetry().snapshot().counter(name);

    let msgs = counter("net.msgs_sent");
    for i in 0..OPS {
        let r = c.op(&ClientOp::Insert {
            object: obj(i, i as i64),
        });
        assert_eq!(r.unwrap(), ClientResult::Inserted);
    }
    assert_eq!(
        counter("net.msgs_sent") - msgs,
        (OPS * (2 * LAMBDA as u64 + 1)) as f64,
        "an insert at the leader is λ fan-outs + λ dones + 1 Done"
    );
    assert_eq!(counter("proxy.route.leader"), OPS as f64);

    let (local, msgs) = (counter("op.read.local"), counter("net.msgs_sent"));
    for i in 0..OPS {
        let r = c.op(&read_op(i as i64)).unwrap();
        assert!(matches!(r, ClientResult::Found(_)), "read({i}): {r:?}");
    }
    assert_eq!(counter("op.read.local") - local, OPS as f64);
    assert_eq!(
        counter("op.read.remote") + counter("op.read.anycast"),
        0.0,
        "no read left the member it was routed to"
    );
    assert_eq!(
        counter("net.msgs_sent") - msgs,
        OPS as f64,
        "a read costs its Done and nothing else"
    );
    assert_eq!(counter("proxy.route.member"), OPS as f64);
    assert_eq!(counter("proxy.route.fallback"), 0.0);
    // One op in flight at a time finds its link idle every time: each
    // left as a batch of its own, none waited for company.
    assert_eq!(counter("proxy.batch.flushes"), 2.0 * OPS as f64);
    assert_eq!(counter("proxy.ops.forwarded"), 2.0 * OPS as f64);
    cluster.shutdown();
}

/// The gateway learns of a crash from the membership oracle and routes
/// around it: with the class's leader down, writes go to the next member
/// of `B(C)` — the leader of the post-crash view — and nothing is sent
/// to the dead machine to time out there.
#[test]
fn ops_issued_after_the_leader_crashes_all_complete() {
    // Over TCP too: there the survivors hear of the crash through a
    // socket, after the gateway may already have sent them the write.
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        let cfg = PasoConfig::builder(4, 1)
            .proxy_slots(1)
            .adaptive(false)
            .build();
        let leader = task_leader(&cfg);
        let (cluster, proxy) = cluster_with_proxy_over(transport, cfg, ProxyOptions::default());
        let mut c = ProxyClient::connect(proxy.port(), 1, SECRET).expect("connect");

        let mut key = 0i64;
        let mut hundred_ops = |when: &str| {
            for _ in 0..34 {
                key += 1;
                let object = obj(key as u64, key);
                let r = c.op(&ClientOp::Insert { object }).unwrap();
                assert_eq!(r, ClientResult::Inserted, "insert({key}) {when}");
                for op in [read_op(key), read_del_op(key)] {
                    let r = c.op(&op).unwrap();
                    assert!(matches!(r, ClientResult::Found(_)), "{op:?} {when}: {r:?}");
                }
            }
        };
        let retries = || cluster.telemetry().snapshot().counter("proxy.retries");
        for round in 0..2 {
            let before = retries();
            cluster.crash(leader);
            hundred_ops(&format!("after crash {round} ({transport:?})"));
            assert_eq!(retries(), before, "an op was sent to the dead machine");
            // While the leader rejoins, a frame can reach it before the
            // oracle's `Recover` does (TCP) and be dropped as the fault
            // model has it; that costs a retry, never the op.
            cluster.recover(leader);
            hundred_ops(&format!("after recovery {round} ({transport:?})"));
        }
        let tel = cluster.telemetry().snapshot();
        assert_eq!(tel.counter("proxy.route.fallback"), 0.0);
        cluster.shutdown();
    }
}

/// A cluster whose `task` leader executes what the gateway sends it and
/// whose answers are lost on the way back, with one insert already in
/// that state: sent, applied, and its answer dropped. A server sends a
/// gateway nothing but answers, so the leader's link to the gateway
/// carries answers only and each frame dropped on it is an answer lost.
fn cluster_with_an_unanswered_insert(
    cfg: PasoConfig,
    op_timeout: Duration,
) -> (Cluster, Proxy, ProxyClient, u32, Instant) {
    let leader = task_leader(&cfg);
    let gateway = NodeId(cfg.n as u32);
    let opts = ProxyOptions {
        op_timeout,
        ..ProxyOptions::default()
    };
    let (cluster, proxy) = cluster_with_proxy(cfg, opts);
    let mut c = ProxyClient::connect(proxy.port(), 1, SECRET).expect("connect");
    cluster.set_fault_plan(FaultPlan::none().drop_link(NodeId(leader), gateway, 1.0));
    let sent = Instant::now();
    assert_eq!(c.send_op(&insert_op(1)).unwrap(), 0);
    wait_until_applied(&cluster, leader, 1, sent, op_timeout / 4);
    // The leader answers after it applies: lifting the plan before the
    // answer is dropped would let it through.
    wait_until_dropped(&cluster, (leader, gateway.0), 1, sent, op_timeout / 4);
    (cluster, proxy, c, leader, sent)
}

/// Holds that the leader applied insert `n` within `limit` of `since`.
fn wait_until_applied(cluster: &Cluster, leader: u32, n: i64, since: Instant, limit: Duration) {
    while cluster.read(leader, sc_task(n)).unwrap().is_none() {
        assert!(
            since.elapsed() < limit,
            "insert({n}) never left the gateway"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(since.elapsed() < limit, "insert({n}) left late");
}

/// Holds that the fault plan dropped `n` frames on the link from `from`
/// to `to` within `limit` of `since`.
fn wait_until_dropped(
    cluster: &Cluster,
    (from, to): (u32, u32),
    n: usize,
    since: Instant,
    limit: Duration,
) {
    let drop = TraceKind::NetDrop { to };
    let dropped = || {
        let events = cluster.trace_events();
        events
            .iter()
            .filter(|e| e.node == from && e.kind == drop)
            .count()
    };
    while dropped() < n {
        assert!(
            since.elapsed() < limit,
            "{n} frames {from} -> {to} never dropped"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn recv_done(c: &mut ProxyClient) -> (u64, ClientResult) {
    match c.recv().expect("recv") {
        ProxyServerFrame::Done { seq, result } => (seq, result),
        other => panic!("unexpected {other:?}"),
    }
}

/// A server that stops answering holds nothing back: an op routed to it
/// behind an unanswered one still leaves within milliseconds, the link
/// serves the moment answers flow again, and the ops whose answers were
/// lost time out one by one, each at its own deadline.
#[test]
fn ops_behind_a_silent_server_leave_at_once_and_time_out_on_their_own() {
    const TIMEOUT: Duration = Duration::from_millis(1500);
    let cfg = PasoConfig::builder(4, 1)
        .proxy_slots(1)
        .adaptive(false)
        .client_retry_budget(0)
        .build();
    let gateway = cfg.n as u32;
    let (cluster, _proxy, mut c, leader, first) = cluster_with_an_unanswered_insert(cfg, TIMEOUT);

    std::thread::sleep(Duration::from_millis(200));
    let second = Instant::now();
    assert_eq!(c.send_op(&insert_op(2)).unwrap(), 1);
    wait_until_applied(&cluster, leader, 2, second, TIMEOUT / 4);
    wait_until_dropped(&cluster, (leader, gateway), 2, second, TIMEOUT / 4);

    cluster.set_fault_plan(FaultPlan::none());
    let third = Instant::now();
    assert_eq!(c.send_op(&insert_op(3)).unwrap(), 2);
    assert_eq!(recv_done(&mut c), (2, ClientResult::Inserted));
    assert!(
        third.elapsed() < TIMEOUT / 4,
        "waited for the unanswered ops"
    );

    for (seq, sent) in [(0, first), (1, second)] {
        assert_eq!(recv_done(&mut c), (seq, ClientResult::TimedOut));
        let late = sent.elapsed().saturating_sub(TIMEOUT);
        assert!(
            sent.elapsed() >= TIMEOUT && late < Duration::from_millis(150),
            "op {seq} answered {:?} after it was sent",
            sent.elapsed()
        );
    }
    cluster.shutdown();
}

/// The same with the server crashing while it owes an answer: once it
/// is back, ops routed to it are served without waiting for the lost
/// op's timeout.
#[test]
fn a_link_owed_an_answer_serves_again_as_soon_as_its_server_recovers() {
    const TIMEOUT: Duration = Duration::from_secs(6);
    let cfg = PasoConfig::builder(4, 1)
        .proxy_slots(1)
        .adaptive(false)
        .build();
    let (cluster, _proxy, mut c, leader, _) = cluster_with_an_unanswered_insert(cfg, TIMEOUT);
    cluster.crash(leader);
    cluster.set_fault_plan(FaultPlan::none());
    cluster.recover(leader);

    let sent = Instant::now();
    assert_eq!(c.send_op(&insert_op(2)).unwrap(), 1);
    assert_eq!(recv_done(&mut c), (1, ClientResult::Inserted));
    // Well inside the first retry slice of the op nobody answered.
    assert!(sent.elapsed() < TIMEOUT / 6, "took {:?}", sent.elapsed());
    let tel = cluster.telemetry().snapshot();
    assert_eq!(tel.counter("proxy.route.leader"), 2.0, "both went to it");
    cluster.shutdown();
}

/// A blocking take nothing satisfies waits at its server for as long as
/// it likes; ops routed to the same server do not wait with it.
#[test]
fn a_parked_blocking_read_does_not_hold_its_link() {
    let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
    let (cluster, proxy) = cluster_with_proxy(cfg, ProxyOptions::default());
    let mut c = ProxyClient::connect(proxy.port(), 1, SECRET).expect("connect");
    let parked = c
        .send_op(&ClientOp::ReadDel {
            sc: sc_task(77),
            blocking: true,
        })
        .unwrap();
    let mut want = std::collections::BTreeSet::new();
    for i in 1..=8 {
        want.insert(c.send_op(&insert_op(i)).unwrap());
    }
    while !want.is_empty() {
        let (seq, result) = recv_done(&mut c);
        assert_eq!(result, ClientResult::Inserted);
        assert!(want.remove(&seq), "unexpected completion of {seq}");
    }
    // What it waits for arrives: both ops complete, in either order.
    let last = c.send_op(&insert_op(77)).unwrap();
    let mut done = [recv_done(&mut c), recv_done(&mut c)];
    done.sort_by_key(|(seq, _)| *seq);
    assert_eq!(done[0].0, parked);
    assert!(matches!(done[0].1, ClientResult::Found(_)), "{:?}", done[0]);
    assert_eq!(done[1], (last, ClientResult::Inserted));
    cluster.shutdown();
}

/// The proxy's `IDLE_PARK`: the longest its logic thread parks per pass.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Median round trip of 40 inserts sent one at a time, each after the
/// previous answer.
fn median_insert_round_trip(c: &mut ProxyClient, first: i64) -> Duration {
    let mut trips: Vec<Duration> = (first..first + 40)
        .map(|i| {
            let sent = Instant::now();
            c.send_op(&insert_op(i)).unwrap();
            assert_eq!(recv_done(c).1, ClientResult::Inserted);
            sent.elapsed()
        })
        .collect();
    trips.sort();
    trips[trips.len() / 2]
}

/// A parked blocking read owes no answer the gateway waits for, so the
/// gateway keeps watching the client sockets: an op that arrives behind
/// it is read at once, not when the next `IDLE_PARK` runs out. The
/// bound is on the wait the parked read adds to the same client's round
/// trip, which an unoptimized build under a loaded machine takes a few
/// hundred microseconds for on its own.
#[test]
fn an_op_behind_a_parked_blocking_read_is_not_held_for_idle_park() {
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
        let (cluster, proxy) = cluster_with_proxy_over(transport, cfg, ProxyOptions::default());
        let mut c = ProxyClient::connect(proxy.port(), 1, SECRET).expect("connect");
        let alone = median_insert_round_trip(&mut c, 0);
        c.send_op(&ClientOp::ReadDel {
            sc: sc_none(),
            blocking: true,
        })
        .unwrap();
        let behind = median_insert_round_trip(&mut c, 40);
        assert!(
            behind < alone + IDLE_PARK / 2,
            "{transport:?}: median round trip {behind:?} behind a parked read, {alone:?} alone"
        );
        cluster.shutdown();
    }
}
