//! Experiment (PR 9) — the serving tier under a 10k-client load.
//!
//! Can a handful of stateless proxies terminate ten thousand cheap
//! client TCP connections and pipeline their trickle into the cluster's
//! dense binary wire protocol — with link drops on, so the idempotent
//! retry path earns its keep?
//!
//! Topology: one process hosts an `n`-server cluster (channel transport)
//! plus 2–4 [`Proxy`] instances on gateway slots; client load comes from
//! re-exec'd `--drive` subprocesses, each holding a few thousand live
//! TCP connections (two processes so neither side of the socket pair
//! exhausts the 20k per-process fd budget). Every client authenticates,
//! keeps its connection open for the whole run, and pipelines
//! insert/read rounds. Gateway↔server links drop a fixed fraction of
//! frames; the proxy's same-op-id/same-server retries push through.
//!
//! Reported: sustained ops/sec across all clients, proxy-side op latency
//! quantiles (p50/p90/p99), the sampled peak of `proxy.clients.open`
//! (the concurrency proof), and retry/batch counters.
//!
//! Usage:
//!   `cargo run --release -p paso-bench --bin exp_proxy`
//!   `cargo run --release -p paso-bench --bin exp_proxy -- --smoke`
//!   `cargo run --release -p paso-bench --bin exp_proxy -- --smoke --floor 300`
//!
//! Always writes `BENCH_PR9.json` (CI uploads it as an artifact). With
//! `--floor N` the process exits non-zero if sustained throughput falls
//! below `N` ops/sec — the CI regression gate.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use paso_bench::{f1, Table};
use paso_core::{ClientOp, ClientResult, PasoConfig};
use paso_proxy::{Proxy, ProxyClient, ProxyOptions};
use paso_runtime::{Cluster, TransportKind};
use paso_simnet::{FaultPlan, NodeId};
use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value};
use paso_wire::mini_json::Json;

const SECRET: u64 = 0x9a7e;
const SEED: u64 = 9;
const N: usize = 4;
const LAMBDA: usize = 1;
const DROP_PROB: f64 = 0.01;

struct Load {
    proxies: usize,
    drivers: usize,
    clients_per_driver: usize,
    rounds: usize,
    /// Ops in flight at once per driver (closed-loop wave size).
    wave: usize,
}

impl Load {
    fn clients(&self) -> usize {
        self.drivers * self.clients_per_driver
    }

    fn total_ops(&self) -> u64 {
        (self.clients() * self.rounds) as u64
    }
}

fn fields(v: i64) -> Vec<Value> {
    vec![Value::symbol("load"), Value::Int(v)]
}

fn sc_eq(v: i64) -> SearchCriterion {
    SearchCriterion::from(Template::exact(vec![Value::symbol("load"), Value::Int(v)]))
}

/// Subprocess entry: drive `clients` connections against the given
/// proxy ports, `rounds` pipelined ops each, then report one
/// `DRIVE k=v ...` line on stdout.
fn drive(args: &[String]) -> ! {
    let get = |key: &str| -> String {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| panic!("missing {key}"))
            .clone()
    };
    let ports: Vec<u16> = get("--ports")
        .split(',')
        .map(|p| p.parse().expect("port"))
        .collect();
    let clients: usize = get("--clients").parse().expect("--clients");
    let rounds: usize = get("--rounds").parse().expect("--rounds");
    let base: u64 = get("--base").parse().expect("--base");

    let connect_start = Instant::now();
    let mut conns: Vec<ProxyClient> = (0..clients)
        .map(|i| {
            let port = ports[i % ports.len()];
            ProxyClient::connect(port, base + i as u64, SECRET)
                .unwrap_or_else(|e| panic!("client {i} connect to :{port}: {e}"))
        })
        .collect();
    let connect_ms = connect_start.elapsed().as_secs_f64() * 1e3;

    // Closed-loop waves: every connection stays open for the whole run
    // (that is the concurrency being measured), but only `wave` clients
    // have an op in flight at once — 10k clients trickling, not a 20k-op
    // instantaneous burst that would only measure the cluster's
    // load-shedding (gcast deadlines expiring in queue → `Unavailable`).
    // Even rounds insert a unique value, odd rounds read the previous
    // round's value back; the drain between waves means the insert
    // completed before its read is issued.
    let wave: usize = get("--wave").parse().expect("--wave");
    let drive_start = Instant::now();
    let (mut ok, mut timed_out, mut missed) = (0u64, 0u64, 0u64);
    for round in 0..rounds {
        for chunk in (0..clients).collect::<Vec<_>>().chunks(wave) {
            for &i in chunk {
                let v = (((base + i as u64) << 8) | (round as u64 & 0x7f)) as i64;
                let op = if round % 2 == 0 {
                    ClientOp::Insert {
                        object: PasoObject::new(
                            ObjectId::new(ProcessId(base + i as u64), round as u64),
                            fields(v),
                        ),
                    }
                } else {
                    ClientOp::Read {
                        sc: sc_eq(v - 1),
                        blocking: false,
                    }
                };
                conns[i].send_op(&op).expect("send");
            }
            for &i in chunk {
                let frame = conns[i]
                    .recv()
                    .unwrap_or_else(|e| panic!("client {i} recv: {e}"));
                match frame {
                    paso_core::ProxyServerFrame::Done { result, .. } => match result {
                        ClientResult::Inserted | ClientResult::Found(_) => ok += 1,
                        ClientResult::Fail => {
                            ok += 1;
                            missed += 1;
                        }
                        ClientResult::TimedOut | ClientResult::Unavailable => timed_out += 1,
                    },
                    other => panic!("client {i}: unexpected {other:?}"),
                }
            }
        }
    }
    let drive_ms = drive_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "DRIVE ok={ok} timeout={timed_out} missed={missed} connect_ms={connect_ms:.0} \
         drive_ms={drive_ms:.0}"
    );
    std::process::exit(0);
}

fn parse_drive_line(line: &str) -> std::collections::HashMap<String, f64> {
    line.trim()
        .strip_prefix("DRIVE ")
        .unwrap_or_else(|| panic!("driver said {line:?}, not a DRIVE line"))
        .split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("k=v");
            (k.to_string(), v.parse::<f64>().expect("numeric value"))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--drive") {
        drive(&args);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let floor: Option<f64> = args
        .iter()
        .position(|a| a == "--floor")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--floor takes a number"));

    let load = if smoke {
        Load {
            proxies: 2,
            drivers: 2,
            clients_per_driver: 5_000,
            rounds: 2,
            wave: 500,
        }
    } else {
        Load {
            proxies: 4,
            drivers: 3,
            clients_per_driver: 4_000,
            rounds: 4,
            wave: 500,
        }
    };

    println!(
        "PR 9 — serving tier: {} clients through {} proxies, {} servers, {:.0}% gateway-link drops",
        load.clients(),
        load.proxies,
        N,
        DROP_PROB * 100.0
    );

    // Timeout and retry budget sized so a dropped frame costs one ~2s
    // retry, while the closed-loop waves keep queueing delay well under
    // that slice.
    let cfg = PasoConfig::builder(N, LAMBDA)
        .seed(SEED)
        .proxy_slots(load.proxies)
        .client_retry_budget(3)
        .build();
    let opts = ProxyOptions {
        op_timeout: Duration::from_secs(8),
        ..ProxyOptions::from_config(&cfg, SECRET)
    };
    // Drops on every gateway↔server link, both directions: the workload
    // the proxy's idempotent retry path exists for. Server↔server links
    // stay clean — that tier's fault tolerance is measured elsewhere.
    let mut plan = FaultPlan::none();
    for gw in N..N + load.proxies {
        for s in 0..N {
            plan = plan
                .drop_link(NodeId(gw as u32), NodeId(s as u32), DROP_PROB)
                .drop_link(NodeId(s as u32), NodeId(gw as u32), DROP_PROB);
        }
    }
    let cluster = Cluster::start_faulty(cfg, TransportKind::Channel, plan);
    let proxies: Vec<Proxy> = (0..load.proxies)
        .map(|slot| Proxy::start(cluster.gateway_link(slot), opts.clone()).expect("proxy"))
        .collect();
    let ports: String = proxies
        .iter()
        .map(|p| p.port().to_string())
        .collect::<Vec<_>>()
        .join(",");

    let exe = std::env::current_exe().expect("current_exe");
    let wall = Instant::now();
    let mut children: Vec<_> = (0..load.drivers)
        .map(|d| {
            Command::new(&exe)
                .args([
                    "--drive",
                    "--ports",
                    &ports,
                    "--clients",
                    &load.clients_per_driver.to_string(),
                    "--rounds",
                    &load.rounds.to_string(),
                    "--wave",
                    &load.wave.to_string(),
                    "--base",
                    &(1_000_000 + d * load.clients_per_driver).to_string(),
                ])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn driver")
        })
        .collect();

    // While the drivers run, sample open connections across all proxies
    // (the additive accepted/closed counters — the `proxy.clients.open`
    // gauge is per-proxy, last writer wins): the sampled peak is the
    // proof the clients were concurrent, not sequential.
    let mut peak_open = 0.0f64;
    loop {
        let snap = cluster.telemetry().snapshot();
        let open = snap.counter("proxy.clients.accepted") - snap.counter("proxy.clients.closed");
        peak_open = peak_open.max(open);
        let all_done = children
            .iter_mut()
            .all(|c| matches!(c.try_wait(), Ok(Some(_))));
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let (mut ok, mut timed_out, mut missed) = (0u64, 0u64, 0u64);
    let mut driver_rows = Vec::new();
    for (d, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("driver exit");
        assert!(status.success(), "driver {d} failed: {status}");
        let mut line = String::new();
        child
            .stdout
            .take()
            .expect("piped")
            .read_to_string(&mut line)
            .expect("driver stdout");
        let kv = parse_drive_line(&line);
        ok += kv["ok"] as u64;
        timed_out += kv["timeout"] as u64;
        missed += kv["missed"] as u64;
        driver_rows.push((d, kv));
    }

    let snap = cluster.telemetry().snapshot();
    let lat = snap.hist("proxy.op.latency_micros");
    let (p50, p90, p99) = (
        lat.approx_quantile(0.5),
        lat.approx_quantile(0.9),
        lat.approx_quantile(0.99),
    );
    // Throughput over the drive window (the drivers overlap): the
    // connect storm is reported separately, not amortized into ops/sec.
    let drive_window_ms = driver_rows
        .iter()
        .map(|(_, kv)| kv["drive_ms"])
        .fold(0.0f64, f64::max);
    let ops_per_sec = ok as f64 / (drive_window_ms / 1e3);

    let mut table = Table::new([
        "driver",
        "ok",
        "timeout",
        "missed",
        "connect ms",
        "drive ms",
    ]);
    for (d, kv) in &driver_rows {
        table.row([
            d.to_string(),
            (kv["ok"] as u64).to_string(),
            (kv["timeout"] as u64).to_string(),
            (kv["missed"] as u64).to_string(),
            f1(kv["connect_ms"]),
            f1(kv["drive_ms"]),
        ]);
    }
    table.print();
    println!(
        "\n{} of {} ops ok ({} timed out, {} read misses), {:.0} ops/s sustained, \
         peak {} concurrent clients",
        ok,
        load.total_ops(),
        timed_out,
        missed,
        ops_per_sec,
        peak_open as u64
    );
    println!(
        "proxy-side op latency µs: p50 {p50}  p90 {p90}  p99 {p99}; \
         {} retries, {} batch flushes (p90 {} ops / {} B per flush)",
        snap.counter("proxy.retries") as u64,
        snap.counter("proxy.batch.flushes") as u64,
        snap.hist("proxy.batch.ops").approx_quantile(0.9),
        snap.hist("proxy.batch.bytes").approx_quantile(0.9),
    );

    assert!(
        peak_open as usize >= load.clients(),
        "never saw all {} clients open at once (peak {})",
        load.clients(),
        peak_open
    );
    // With drops on, a few ops may burn their whole retry budget; the
    // overwhelming majority must still complete.
    assert!(
        ok as f64 >= load.total_ops() as f64 * 0.99,
        "{ok} of {} ops completed — the retry path is not absorbing drops",
        load.total_ops()
    );

    let doc = Json::obj([
        ("bench", Json::Str("proxy".into())),
        ("smoke", Json::Bool(smoke)),
        ("n", Json::UInt(N as u64)),
        ("lambda", Json::UInt(LAMBDA as u64)),
        ("proxies", Json::UInt(load.proxies as u64)),
        ("drivers", Json::UInt(load.drivers as u64)),
        ("clients", Json::UInt(load.clients() as u64)),
        ("rounds_per_client", Json::UInt(load.rounds as u64)),
        ("wave_per_driver", Json::UInt(load.wave as u64)),
        ("gateway_drop_prob", Json::Num(DROP_PROB)),
        ("peak_clients_open", Json::UInt(peak_open as u64)),
        ("ops_total", Json::UInt(load.total_ops())),
        ("ops_ok", Json::UInt(ok)),
        ("ops_timed_out", Json::UInt(timed_out)),
        ("read_misses", Json::UInt(missed)),
        ("wall_ms", Json::Num(wall_ms)),
        ("drive_window_ms", Json::Num(drive_window_ms)),
        ("ops_per_sec", Json::Num(ops_per_sec)),
        (
            "latency_micros",
            Json::obj([
                ("p50", Json::UInt(p50)),
                ("p90", Json::UInt(p90)),
                ("p99", Json::UInt(p99)),
            ]),
        ),
        (
            "proxy_retries",
            Json::UInt(snap.counter("proxy.retries") as u64),
        ),
        (
            "batch_flushes",
            Json::UInt(snap.counter("proxy.batch.flushes") as u64),
        ),
        (
            "batch_ops_p90",
            Json::UInt(snap.hist("proxy.batch.ops").approx_quantile(0.9)),
        ),
        (
            "batch_bytes_p90",
            Json::UInt(snap.hist("proxy.batch.bytes").approx_quantile(0.9)),
        ),
        ("floor_ops_per_sec", floor.map_or(Json::Null, Json::Num)),
    ]);
    std::fs::write("BENCH_PR9.json", doc.render() + "\n").expect("write BENCH_PR9.json");
    println!("\nwrote BENCH_PR9.json");

    drop(proxies);
    cluster.shutdown();

    if let Some(floor) = floor {
        if ops_per_sec < floor {
            eprintln!(
                "FAIL: sustained {ops_per_sec:.0} ops/s fell below the floor of {floor:.0} ops/s"
            );
            std::process::exit(1);
        }
        println!("floor check passed: {ops_per_sec:.0} >= {floor:.0} ops/s");
    }
}
