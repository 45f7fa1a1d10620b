//! Overload at the serving tier: a client that does not read its
//! replies. Its own binary, so that the flood it sends does not slow the
//! timing assertions of the other proxy tests.

use std::io::Write;
use std::time::{Duration, Instant};

use paso_core::{ClientOp, ClientResult, PasoConfig, ProxyClientFrame};
use paso_proxy::{Proxy, ProxyClient, ProxyOptions};
use paso_runtime::{Cluster, TransportKind};
use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};

const SECRET: u64 = 0x5eed;

fn sc_task(n: i64) -> SearchCriterion {
    SearchCriterion::from(Template::exact(vec![Value::symbol("task"), Value::Int(n)]))
}

fn insert_op(n: u64) -> ClientOp {
    ClientOp::Insert {
        object: PasoObject::new(
            ObjectId::new(ProcessId(7000), n),
            vec![Value::symbol("task"), Value::Int(n as i64)],
        ),
    }
}

/// A client that floods ops past its window and never reads its `Busy`
/// replies fills its socket buffers and then its reply buffer; it is
/// disconnected and the dropped reply counted, and nobody else notices.
#[test]
fn a_flooding_client_that_never_reads_is_disconnected_while_others_are_served() {
    let cfg = PasoConfig::builder(3, 1)
        .proxy_slots(1)
        .proxy_pipeline_depth(1)
        .build();
    let cluster = Cluster::start(cfg, TransportKind::Channel);
    let opts = ProxyOptions {
        secret: SECRET,
        ..ProxyOptions::default()
    };
    let proxy = Proxy::start(cluster.gateway_link(0), opts).expect("proxy start");
    // A hand-rolled client: a hello, a blocking take that holds the one
    // window slot, then ops that each bounce `Busy`, never read.
    let frame = |f: &ProxyClientFrame| {
        let mut out = Vec::new();
        paso_proxy::write_frame(&mut out, &paso_core::encode(f)).unwrap();
        out
    };
    let mut burst = frame(&ProxyClientFrame::Hello {
        tenant: 1,
        token: paso_core::auth_token(1, SECRET),
    });
    burst.extend(frame(&ProxyClientFrame::Op {
        seq: 0,
        op: ClientOp::ReadDel {
            sc: sc_task(-1),
            blocking: true,
        },
    }));
    let mut raw = std::net::TcpStream::connect(("127.0.0.1", proxy.port())).unwrap();
    raw.write_all(&burst).unwrap();
    burst.clear();
    for seq in 1..4096 {
        burst.extend(frame(&ProxyClientFrame::Op {
            seq,
            op: ClientOp::Read {
                sc: sc_task(1),
                blocking: false,
            },
        }));
    }
    // Writes until the proxy cuts it off; a proxy that neither reads nor
    // cuts it leaves the writes blocked.
    let flood = std::thread::spawn(move || while raw.write_all(&burst).is_ok() {});

    let mut c = ProxyClient::connect(proxy.port(), 2, SECRET).expect("connect");
    let started = Instant::now();
    let mut served = 0;
    while !flood.is_finished() {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the flooder was never disconnected"
        );
        assert_eq!(c.op(&insert_op(served)).unwrap(), ClientResult::Inserted);
        served += 1;
    }
    assert_eq!(c.op(&insert_op(served)).unwrap(), ClientResult::Inserted);
    let tel = cluster.telemetry().snapshot();
    assert!(tel.counter("proxy.clients.replies_dropped") >= 1.0);
    assert!(tel.counter("proxy.clients.closed") >= 1.0);
    cluster.shutdown();
}
