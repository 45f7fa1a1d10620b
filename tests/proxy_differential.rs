//! Differential serving tier: one op script, two client paths, one
//! accounting.
//!
//! The same deterministic script runs (a) through the in-process
//! `Cluster` client API and (b) through a real TCP connection into a
//! `Proxy` that pipelines into the cluster's wire protocol. Ops through
//! the proxy are counted at admission and traced at the gateway node with
//! the *same* counter names and trace grammar as the direct path, so the
//! `client.op.*` totals must be identical and both recorded histories
//! must satisfy the §2 axioms A1–A3.

use paso::core::{ClassifierKind, ClientOp, ClientResult, PasoConfig, ProxyServerFrame};
use paso::proxy::{Proxy, ProxyClient, ProxyOptions};
use paso::runtime::{Cluster, TransportKind};
use paso::telemetry::{check_trace, Snapshot};
use paso::types::{
    FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value,
};

const SEED: u64 = 7;
const N: usize = 4;
const LAMBDA: usize = 1;
const SECRET: u64 = 0xd1ff;

#[derive(Clone, Copy)]
enum Op {
    Insert(i64),
    Read(i64),
    Take(i64),
    /// Read / take whatever is there: the first field is left open.
    ReadAny,
    TakeAny,
}

/// Same shape as the sim/live differential script: every read and take
/// finds the value an earlier insert put there.
fn script() -> Vec<Op> {
    use Op::*;
    vec![
        Insert(1),
        Insert(2),
        Insert(3),
        Read(1),
        Take(2),
        Insert(4),
        Read(3),
        Take(1),
        Insert(5),
        Take(3),
        Read(4),
        Take(4),
        Insert(6),
        Read(5),
        Take(5),
        Take(6),
    ]
}

/// Every take finds something, but which object is the store's choice:
/// the criterion leaves field 0 open, so under a first-field hash its
/// `sc-list` is every class, the gateway can send it to one class's
/// group only, and that server's macro expansion has to walk the rest.
fn wildcard_script() -> Vec<Op> {
    use Op::*;
    vec![
        Insert(1),
        Insert(2),
        Insert(3),
        Insert(4),
        ReadAny,
        TakeAny,
        TakeAny,
        Insert(5),
        Insert(6),
        ReadAny,
        TakeAny,
        TakeAny,
        TakeAny,
        ReadAny,
        TakeAny,
    ]
}

/// Four windows of eight: every read and take finds a value inserted in
/// an *earlier* window and taken by nobody in its own, so the outcomes
/// stay determined when a window's ops are all in flight at once.
fn windowed_script() -> Vec<Op> {
    use Op::*;
    let mut ops: Vec<Op> = (1..=8).map(Insert).collect();
    ops.extend([
        Take(1),
        Take(2),
        Read(3),
        Read(4),
        Insert(9),
        Insert(10),
        Take(5),
        Read(6),
    ]);
    ops.extend([
        Take(3),
        Take(4),
        Insert(11),
        Insert(12),
        Read(7),
        Take(8),
        Read(9),
        Take(10),
    ]);
    ops.extend([
        Take(6),
        Take(7),
        Take(9),
        Take(11),
        Take(12),
        Insert(13),
        Insert(14),
        Insert(15),
    ]);
    ops
}

/// Three windows of sixteen under the same rule: sixteen inserts, then
/// a take or a read of each, then the rest taken beside fresh inserts.
fn wide_script() -> Vec<Op> {
    use Op::*;
    let mut ops: Vec<Op> = (1..=16).map(Insert).collect();
    ops.extend((1..=8).map(Take).chain((9..=16).map(Read)));
    ops.extend((9..=16).map(Take).chain((17..=24).map(Insert)));
    ops
}

/// The value comes first, so that a first-field hash spreads the
/// script's objects over its classes.
fn fields(v: i64) -> Vec<Value> {
    vec![Value::Int(v), Value::symbol("d")]
}

fn sc_eq(v: i64) -> SearchCriterion {
    SearchCriterion::from(Template::exact(fields(v)))
}

fn sc_any() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Any,
        FieldMatcher::Exact(Value::symbol("d")),
    ]))
}

/// The criterion of a read or take.
fn criterion(op: Op) -> SearchCriterion {
    match op {
        Op::Read(v) | Op::Take(v) => sc_eq(v),
        Op::ReadAny | Op::TakeAny | Op::Insert(_) => sc_any(),
    }
}

fn op_totals(snap: &Snapshot) -> (f64, f64, f64) {
    (
        snap.counter("client.op.insert"),
        snap.counter("client.op.read"),
        snap.counter("client.op.readdel"),
    )
}

#[test]
fn proxy_and_direct_paths_report_identical_op_totals_and_legal_traces() {
    differential(ClassifierKind::Arity(4), script(), 1);
}

/// Eight ops in flight at a time, so the gateway's `ClientBatch`es carry
/// several ops and the servers answer them with batch gcasts and
/// `DoneBatch` frames: same totals, same verdict.
#[test]
fn pipelined_ops_through_the_proxy_batch_and_match_the_direct_path() {
    let snap = differential(ClassifierKind::Arity(4), windowed_script(), 8);
    assert!(snap.counter("op.batch.gcasts") > 0.0, "no gcast was shared");
    assert!(
        snap.counter("proxy.done_batches") > 0.0,
        "no frame was shared"
    );
    assert!(snap.hist("op.batch.ops").mean() >= 2.0);
}

/// Sixteen in flight. Whatever reaches the gateway while a link is idle
/// leaves at once, the rest of the window shares the frame that follows
/// the answer: same totals, same verdict, and frames still shared.
#[test]
fn wide_windows_through_the_proxy_coalesce_and_match_the_direct_path() {
    let snap = differential(ClassifierKind::Arity(4), wide_script(), 16);
    assert!(snap.hist("proxy.batch.ops").mean() >= 2.0);
    assert!(snap.hist("op.batch.ops").mean() >= 2.0);
}

/// Six objects hashed over three classes, every search listing all
/// three: whichever class's group the gateway picks, most takes find
/// their object in another one.
#[test]
fn wildcard_searches_through_the_proxy_walk_every_class() {
    let snap = differential(ClassifierKind::FirstField(3), wildcard_script(), 1);
    let takes = snap.counter("client.op.readdel");
    assert!(
        snap.counter("op.readdel.gcast") > takes,
        "no take had to go past the class it was routed for"
    );
}

/// Runs `script` down both paths — the proxy path with `window` ops in
/// flight at a time — holds them to each other, and returns the proxy
/// path's registry.
fn differential(classifier: ClassifierKind, script: Vec<Op>, window: usize) -> Snapshot {
    let cfg = || {
        PasoConfig::builder(N, LAMBDA)
            .seed(SEED)
            .classifier(classifier.clone())
    };
    // --- Path 1: the in-process client API ---
    let direct = Cluster::start(cfg().build(), TransportKind::Channel);
    for (i, op) in script.iter().enumerate() {
        let node = (i % N) as u32;
        match *op {
            Op::Insert(v) => {
                direct.insert(node, fields(v)).expect("direct insert");
            }
            Op::Read(_) | Op::ReadAny => {
                let r = direct.read(node, criterion(*op)).expect("direct read");
                assert!(r.is_some(), "direct read, op {i}");
            }
            Op::Take(_) | Op::TakeAny => {
                let r = direct.read_del(node, criterion(*op)).expect("direct take");
                assert!(r.is_some(), "direct take, op {i}");
            }
        }
    }
    let direct_snap = direct.telemetry().snapshot();
    let direct_trace = direct.trace_events();
    direct.shutdown();

    // --- Path 2: a real TCP client through the proxy tier ---
    let cfg = cfg().proxy_slots(1).build();
    let opts = ProxyOptions::from_config(&cfg, SECRET);
    let cluster = Cluster::start(cfg, TransportKind::Channel);
    let proxy = Proxy::start(cluster.gateway_link(0), opts).expect("proxy start");
    let mut client = ProxyClient::connect(proxy.port(), 42, SECRET).expect("connect");
    let request = |i: usize| match script[i] {
        Op::Insert(v) => {
            // Same object-id scheme the direct path uses internally:
            // creator process + fresh sequence number.
            let object = PasoObject::new(ObjectId::new(ProcessId(9000), i as u64), fields(v));
            ClientOp::Insert { object }
        }
        op @ (Op::Read(_) | Op::ReadAny) => ClientOp::Read {
            sc: criterion(op),
            blocking: false,
        },
        op @ (Op::Take(_) | Op::TakeAny) => ClientOp::ReadDel {
            sc: criterion(op),
            blocking: false,
        },
    };
    let indices: Vec<usize> = (0..script.len()).collect();
    for batch in indices.chunks(window) {
        // One window: everything is sent before anything is awaited.
        // Sequence numbers count ops, so `seq` is the script index.
        for i in batch {
            assert_eq!(client.send_op(&request(*i)).expect("send"), *i as u64);
        }
        for _ in batch {
            let (i, r) = match client.recv().expect("recv") {
                ProxyServerFrame::Done { seq, result } => (seq as usize, result),
                other => panic!("unexpected frame {other:?}"),
            };
            match script[i] {
                Op::Insert(_) => assert_eq!(r, ClientResult::Inserted, "proxy op {i}"),
                _ => assert!(matches!(r, ClientResult::Found(_)), "proxy op {i}: {r:?}"),
            }
        }
    }
    let proxy_snap = cluster.telemetry().snapshot();
    let proxy_trace = cluster.trace_events();
    drop(client);
    drop(proxy);
    cluster.shutdown();

    // Identical op-level accounting: ops through the proxy land in the
    // same counters, once each, retries excluded by design.
    let d = op_totals(&direct_snap);
    let p = op_totals(&proxy_snap);
    assert_eq!(d, p, "op totals diverged between client paths");
    let inserts = script.iter().filter(|o| matches!(o, Op::Insert(_))).count() as f64;
    assert_eq!(p.0, inserts);

    // Both histories are axiom-legal, and both saw every op complete.
    let d_report = check_trace(&direct_trace);
    assert!(d_report.ok(), "direct trace: {:?}", d_report.violations);
    let p_report = check_trace(&proxy_trace);
    assert!(p_report.ok(), "proxy trace: {:?}", p_report.violations);
    assert_eq!(
        d_report.ops_checked, p_report.ops_checked,
        "both paths completed the same number of ops"
    );

    // The proxy path additionally reports its own tier: every scripted op
    // was forwarded and completed through the gateway, each to a member
    // of a write group.
    let total_ops = script.len() as f64;
    assert!(proxy_snap.counter("proxy.ops.forwarded") >= total_ops);
    assert_eq!(proxy_snap.counter("proxy.ops.completed"), total_ops);
    assert_eq!(
        proxy_snap.counter("proxy.route.leader") + proxy_snap.counter("proxy.route.member"),
        total_ops
    );
    // The direct path routed nothing through a gateway.
    assert_eq!(direct_snap.counter("proxy.ops.forwarded"), 0.0);
    proxy_snap
}
