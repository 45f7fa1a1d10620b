//! Lifecycle audit for the serving tier, in the style of the runtime's
//! transport-lifecycle test: a proxy is one thread, which owns its client
//! listener and connections, and dropping the proxy releases the thread
//! and every fd. Its own binary, so no other test's threads or sockets
//! move the counts.

use std::time::{Duration, Instant};

use paso_core::{AppMsg, ClientOp, ClientRequest, ClientResult, PasoConfig};
use paso_proxy::{Proxy, ProxyClient, ProxyOptions};
use paso_runtime::{Cluster, TransportKind};
use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};

const SECRET: u64 = 0x5eed;

/// Threads in this process, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// Open file descriptors in this process.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

/// Waits for a measurement to settle to `want` (procfs can lag a
/// scheduler tick behind a join).
fn settles(what: &str, want: impl Fn(usize) -> bool, measure: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !want(measure()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(want(measure()), "{what}: {}", measure());
}

#[test]
fn a_proxy_is_one_thread_and_dropping_it_closes_every_client_fd() {
    let cfg = PasoConfig::builder(3, 1).proxy_slots(1).build();
    let cluster = Cluster::start(cfg, TransportKind::Tcp);
    let link = cluster.gateway_link(0);
    // The links between the gateway slot and the servers belong to the
    // cluster's transport and outlive the proxy: dial them both ways, with
    // a read each server answers, before counting.
    for s in 0..3 {
        let op = ClientOp::Read {
            sc: SearchCriterion::from(Template::exact(vec![Value::symbol("none")])),
            blocking: false,
        };
        let req = ClientRequest {
            op_id: u64::from(s),
            op,
        };
        link.send(s, &AppMsg::ClientBatch(vec![req]));
    }
    for _ in 0..3 {
        let answer = link.recv_timeout(Duration::from_secs(5));
        assert!(matches!(answer, Some((_, AppMsg::Done(_)))), "{answer:?}");
    }
    let base_threads = thread_count();
    let base_fds = fd_count();

    let opts = ProxyOptions {
        secret: SECRET,
        ..ProxyOptions::default()
    };
    let proxy = Proxy::start(link, opts).expect("proxy start");
    let mut clients: Vec<ProxyClient> = (0..8)
        .map(|tenant| ProxyClient::connect(proxy.port(), tenant, SECRET).expect("connect"))
        .collect();
    for (n, c) in clients.iter_mut().enumerate() {
        let object = PasoObject::new(
            ObjectId::new(ProcessId(7000), n as u64),
            vec![Value::symbol("task"), Value::Int(n as i64)],
        );
        assert_eq!(
            c.op(&ClientOp::Insert { object }).unwrap(),
            ClientResult::Inserted
        );
    }
    assert_eq!(
        thread_count(),
        base_threads + 1,
        "one logic thread, no pollers"
    );

    drop(proxy);
    for c in &mut clients {
        assert!(c.recv().is_err(), "a client socket outlived its proxy");
    }
    drop(clients);
    settles("threads after drop", |t| t == base_threads, thread_count);
    // The listener and both ends of every client connection are closed;
    // so is the gateway slot's mailbox, which went with the proxy. Two
    // fds of slack cover procfs reads racing unrelated activity.
    settles(
        &format!("fds after drop (from {base_fds})"),
        |f| f <= base_fds + 2,
        fd_count,
    );
    cluster.shutdown();
}
