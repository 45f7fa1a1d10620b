//! A PASO ensemble over **real localhost TCP sockets**: every machine is
//! a thread with its own listener; gcasts, done-collection, view changes
//! and join-time state transfer all travel as length-delimited frames —
//! the same protocol state machines as the simulator, live.
//!
//! Run with: `cargo run --example live_tcp_cluster`

use paso::core::PasoConfig;
use paso::runtime::{Cluster, TransportKind};
use paso::types::{FieldMatcher, SearchCriterion, Template, Value};

fn sc_key(k: &str) -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("kv")),
        FieldMatcher::Exact(Value::from(k)),
        FieldMatcher::Any,
    ]))
}

fn main() {
    println!("starting 4 PASO machines on localhost TCP…");
    let cluster = Cluster::start(PasoConfig::builder(4, 1).build(), TransportKind::Tcp);

    // A tiny replicated KV store out of immutable tuples: update =
    // read&del + insert.
    cluster
        .insert(
            0,
            vec![
                Value::symbol("kv"),
                Value::from("leader"),
                Value::from("m0"),
            ],
        )
        .unwrap();
    println!("m0 wrote   kv[leader] = m0");

    let got = cluster
        .read(3, sc_key("leader"))
        .unwrap()
        .expect("replicated over TCP");
    println!("m3 read    kv[leader] = {}", got.field(2).unwrap());

    // Update from another machine: consume + re-insert.
    let old = cluster
        .read_del(2, sc_key("leader"))
        .unwrap()
        .expect("take old value");
    cluster
        .insert(
            2,
            vec![
                Value::symbol("kv"),
                Value::from("leader"),
                Value::from("m2"),
            ],
        )
        .unwrap();
    println!("m2 updated kv[leader]: {} -> m2", old.field(2).unwrap());

    let got = cluster
        .read(1, sc_key("leader"))
        .unwrap()
        .expect("new value visible");
    println!("m1 read    kv[leader] = {}", got.field(2).unwrap());
    assert_eq!(got.field(2), Some(&Value::from("m2")));

    // Crash a machine; the data lives on; recovery transfers state back —
    // all over real sockets.
    println!("\ncrashing m3…");
    cluster.crash(3);
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(cluster.read(0, sc_key("leader")).unwrap().is_some());
    println!("data still served while m3 is down");
    cluster.recover(3);
    std::thread::sleep(std::time::Duration::from_millis(400));
    let got = cluster
        .read(3, sc_key("leader"))
        .unwrap()
        .expect("m3 is back");
    println!(
        "m3 recovered and reads kv[leader] = {}",
        got.field(2).unwrap()
    );

    let stats = cluster.stats();
    println!(
        "\n{} messages / {} bytes crossed the loopback TCP sockets",
        stats.msgs_sent, stats.bytes_sent
    );
    cluster.shutdown();
    println!("cluster shut down cleanly");
}
