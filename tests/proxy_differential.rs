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

use paso::core::{ClassifierKind, ClientOp, ClientResult, PasoConfig};
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
    differential(ClassifierKind::Arity(4), script());
}

/// Six objects hashed over three classes, every search listing all
/// three: whichever class's group the gateway picks, most takes find
/// their object in another one.
#[test]
fn wildcard_searches_through_the_proxy_walk_every_class() {
    let snap = differential(ClassifierKind::FirstField(3), wildcard_script());
    let takes = snap.counter("client.op.readdel");
    assert!(
        snap.counter("op.readdel.gcast") > takes,
        "no take had to go past the class it was routed for"
    );
}

/// Runs `script` down both paths, holds them to each other, and returns
/// the proxy path's registry.
fn differential(classifier: ClassifierKind, script: Vec<Op>) -> Snapshot {
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
    for (i, op) in script.iter().enumerate() {
        let (request, expect_found) = match *op {
            Op::Insert(v) => {
                // Same object-id scheme the direct path uses internally:
                // creator process + fresh sequence number.
                let object = PasoObject::new(ObjectId::new(ProcessId(9000), i as u64), fields(v));
                (ClientOp::Insert { object }, false)
            }
            Op::Read(_) | Op::ReadAny => (
                ClientOp::Read {
                    sc: criterion(*op),
                    blocking: false,
                },
                true,
            ),
            Op::Take(_) | Op::TakeAny => (
                ClientOp::ReadDel {
                    sc: criterion(*op),
                    blocking: false,
                },
                true,
            ),
        };
        let r = client.op(&request).expect("proxy op");
        match expect_found {
            true => assert!(matches!(r, ClientResult::Found(_)), "proxy op {i}: {r:?}"),
            false => assert_eq!(r, ClientResult::Inserted, "proxy op {i}"),
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
