//! Experiment (PR 6) — saturating the event-driven transport.
//!
//! One question, answered with numbers: **does the reactor scale in
//! peers without scaling in threads?** A single sender pushes a
//! Zipf-skewed stream of `Net` envelopes through a live loopback
//! [`TcpTransport`] at increasing peer counts. The reactor drives *every*
//! socket — accepts, reads and vectored zero-copy writes — on a fixed
//! pool of ≤4 poller threads. The same workload then runs against a
//! classic thread-per-connection baseline (one blocking writer + one
//! blocking reader per peer, one `Vec` allocation per frame) built from
//! the identical wire format via [`push_frame`]. We report delivered
//! msgs/sec, thread counts, writev batch-shape quantiles, and peak RSS.
//!
//! Usage:
//!   `cargo run --release -p paso-bench --bin exp_saturation`
//!   `cargo run --release -p paso-bench --bin exp_saturation -- --smoke`
//!   `cargo run --release -p paso-bench --bin exp_saturation -- --smoke --floor 2000`
//!
//! Always writes `BENCH_PR6.json` (CI uploads it as an artifact). With
//! `--floor N` the process exits non-zero if the reactor's delivered
//! throughput falls below `N` msgs/sec in any configuration — the CI
//! regression gate.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paso_bench::{f1, Table};
use paso_runtime::{push_frame, Envelope, Ledger, Mailbox, Postman, TcpTransport, TransportTuning};
use paso_simnet::NodeId;
use paso_vsync::NetMsg;
use paso_wire::mini_json::Json;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Zipf(s) sampler over `0..n` via inverse-CDF binary search. Target 0
/// is the hottest peer, mirroring the skewed fan-in PASO's per-class
/// routing produces in practice.
struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf { cum }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

fn proc_status_field(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next().and_then(|n| n.parse().ok()))
        .unwrap_or(0)
}

fn make_envelope(payload: &[u8]) -> Envelope {
    Envelope::Net {
        from: NodeId(0),
        msg: NetMsg::App(payload.to_vec()),
    }
}

/// One measured transport configuration.
struct NetRun {
    peers: usize,
    msgs: u64,
    delivered: u64,
    dropped: u64,
    bytes: u64,
    wall_ms: f64,
    io_threads: usize,
    process_threads: u64,
    /// (p50, p90, p99) of `net.writev.batch_frames`; zeros for baseline.
    batch_frames_q: (u64, u64, u64),
    batch_bytes_p90: u64,
    poll_wakeups: u64,
}

impl NetRun {
    fn msgs_per_sec(&self) -> f64 {
        self.delivered as f64 / (self.wall_ms / 1e3)
    }
}

/// Drives `msgs` Zipf-targeted envelopes through the reactor transport
/// and waits until every frame is accounted (delivered into a mailbox,
/// or dropped with a count — never silently lost).
fn run_reactor(peers: usize, msgs: u64, payload: &[u8]) -> NetRun {
    let tuning = TransportTuning {
        poller_threads: 4,
        queue_depth: 4096,
        ..TransportTuning::default()
    };
    let ledger = Ledger::new();
    let (transport, mailboxes) = TcpTransport::with_tuning(peers, tuning, &ledger);
    let io_threads = transport.io_threads();

    let drained = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let drainers: Vec<_> = mailboxes
        .into_iter()
        .map(|mb| {
            let drained = Arc::clone(&drained);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if mb.recv_timeout(Duration::from_millis(5)).is_some() {
                        drained.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Flush what is already buffered so accounting converges.
                while mb.recv_timeout(Duration::from_millis(5)).is_some() {
                    drained.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let zipf = Zipf::new(peers, 1.1);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let wall = Instant::now();
    for _ in 0..msgs {
        let target = zipf.sample(&mut rng) as u32;
        transport.send(NodeId(target), make_envelope(payload));
    }
    let process_threads = proc_status_field("Threads:");

    // Every frame must land in a mailbox or in a drop counter.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = transport.net_stats();
        let accounted = drained.load(Ordering::Relaxed) + stats.msgs_dropped + stats.msgs_faulted;
        if accounted >= msgs {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reactor run stalled: {accounted}/{msgs} accounted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    stop.store(true, Ordering::Relaxed);
    for d in drainers {
        let _ = d.join();
    }
    let stats = transport.net_stats();
    let snap = ledger.telemetry().snapshot();
    let frames = snap.hist("net.writev.batch_frames");
    NetRun {
        peers,
        msgs,
        delivered: drained.load(Ordering::Relaxed),
        dropped: stats.msgs_dropped,
        bytes: stats.bytes_sent,
        wall_ms,
        io_threads,
        process_threads,
        batch_frames_q: (
            frames.approx_quantile(0.5),
            frames.approx_quantile(0.9),
            frames.approx_quantile(0.99),
        ),
        batch_bytes_p90: snap.hist("net.writev.batch_bytes").approx_quantile(0.9),
        poll_wakeups: snap.hist("net.poll.wakeups").count,
    }
}

/// The design the reactor replaced: one blocking writer thread and one
/// blocking reader thread per peer, one fresh `Vec` per frame. Same wire
/// format ([`push_frame`]), same Zipf stream, so the comparison isolates
/// the I/O architecture.
fn run_baseline(peers: usize, msgs: u64, payload: &[u8]) -> NetRun {
    let mut ports = Vec::with_capacity(peers);
    let mut readers = Vec::with_capacity(peers);
    let received = Arc::new(AtomicU64::new(0));
    for _ in 0..peers {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        ports.push(listener.local_addr().expect("addr").port());
        let received = Arc::clone(&received);
        readers.push(std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 16 << 10];
            loop {
                let n = match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                buf.extend_from_slice(&chunk[..n]);
                let mut at = 0usize;
                // Decode every complete `[varint len][envelope]` frame,
                // matching the work the reactor's read path performs.
                while let Some((len, hdr)) = peek_varint(&buf[at..]) {
                    let total = hdr + len as usize;
                    if buf.len() - at < total {
                        break;
                    }
                    let frame = &buf[at + hdr..at + total];
                    paso_wire::decode_exact::<Envelope>(frame).expect("decode");
                    received.fetch_add(1, Ordering::Relaxed);
                    at += total;
                }
                buf.drain(..at);
            }
        }));
    }

    let mut writers = Vec::with_capacity(peers);
    let mut queues = Vec::with_capacity(peers);
    for port in &ports {
        let stream = TcpStream::connect(("127.0.0.1", *port)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(1024);
        queues.push(tx);
        writers.push(std::thread::spawn(move || {
            let mut stream = stream;
            while let Ok(frame) = rx.recv() {
                let frame: Vec<u8> = frame;
                if stream.write_all(&frame).is_err() {
                    break;
                }
            }
        }));
    }

    let zipf = Zipf::new(peers, 1.1);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let mut bytes = 0u64;
    let wall = Instant::now();
    for _ in 0..msgs {
        let target = zipf.sample(&mut rng);
        let mut frame = Vec::new();
        push_frame(&mut frame, &make_envelope(payload));
        bytes += frame.len() as u64;
        // Bounded queue, blocking on full: the baseline's backpressure.
        queues[target].send(frame).expect("writer alive");
    }
    let process_threads = proc_status_field("Threads:");
    drop(queues); // close -> writers flush and hang up -> readers EOF
    for w in writers {
        let _ = w.join();
    }
    for r in readers {
        let _ = r.join();
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let delivered = received.load(Ordering::Relaxed);
    assert_eq!(delivered, msgs, "baseline must deliver everything");
    NetRun {
        peers,
        msgs,
        delivered,
        dropped: 0,
        bytes,
        wall_ms,
        io_threads: 2 * peers,
        process_threads,
        batch_frames_q: (0, 0, 0),
        batch_bytes_p90: 0,
        poll_wakeups: 0,
    }
}

/// Shortest prefix of `bytes` that is a whole varint, if any.
fn peek_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, b) in bytes.iter().enumerate() {
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

fn net_run_json(run: &NetRun) -> Json {
    Json::obj([
        ("peers", Json::UInt(run.peers as u64)),
        ("msgs", Json::UInt(run.msgs)),
        ("delivered", Json::UInt(run.delivered)),
        ("dropped", Json::UInt(run.dropped)),
        ("bytes", Json::UInt(run.bytes)),
        ("wall_ms", Json::Num(run.wall_ms)),
        ("msgs_per_sec", Json::Num(run.msgs_per_sec())),
        ("io_threads", Json::UInt(run.io_threads as u64)),
        ("process_threads", Json::UInt(run.process_threads)),
        ("batch_frames_p50", Json::UInt(run.batch_frames_q.0)),
        ("batch_frames_p90", Json::UInt(run.batch_frames_q.1)),
        ("batch_frames_p99", Json::UInt(run.batch_frames_q.2)),
        ("batch_bytes_p90", Json::UInt(run.batch_bytes_p90)),
        ("poll_wakeups", Json::UInt(run.poll_wakeups)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let floor: Option<f64> = args
        .iter()
        .position(|a| a == "--floor")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--floor takes a number"));

    let (peer_counts, msgs, payload_len): (&[usize], u64, usize) = if smoke {
        (&[8], 4_000, 128)
    } else {
        (&[16, 64, 128], 40_000, 200)
    };
    let payload = vec![0xA5u8; payload_len];
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    println!("PR 6 — transport saturation: fixed reactor pool vs thread-per-connection");
    println!(
        "{} msgs of {} B payload per config, Zipf(1.1) targets, {} cores\n",
        msgs, payload_len, cores
    );

    let mut table = Table::new([
        "peers",
        "path",
        "io threads",
        "msgs/s",
        "dropped",
        "frames/writev p90",
    ]);
    let mut pairs = Vec::new();
    for &peers in peer_counts {
        let reactor = run_reactor(peers, msgs, &payload);
        let baseline = run_baseline(peers, msgs, &payload);
        for (label, run) in [("reactor", &reactor), ("thread/conn", &baseline)] {
            table.row([
                run.peers.to_string(),
                label.to_string(),
                run.io_threads.to_string(),
                f1(run.msgs_per_sec()),
                run.dropped.to_string(),
                run.batch_frames_q.1.to_string(),
            ]);
        }
        pairs.push((reactor, baseline));
    }
    table.print();
    for (reactor, baseline) in &pairs {
        println!(
            "peers {:>3}: reactor {:.2}x baseline throughput on {} vs {} I/O threads",
            reactor.peers,
            reactor.msgs_per_sec() / baseline.msgs_per_sec(),
            reactor.io_threads,
            baseline.io_threads
        );
    }

    let doc = Json::obj([
        ("bench", Json::Str("saturation".into())),
        ("smoke", Json::Bool(smoke)),
        ("cores_available", Json::UInt(cores as u64)),
        ("payload_bytes", Json::UInt(payload_len as u64)),
        ("msgs_per_config", Json::UInt(msgs)),
        (
            "transport",
            Json::Arr(
                pairs
                    .iter()
                    .map(|(reactor, baseline)| {
                        Json::obj([
                            ("peers", Json::UInt(reactor.peers as u64)),
                            ("reactor", net_run_json(reactor)),
                            ("baseline", net_run_json(baseline)),
                            (
                                "reactor_vs_baseline",
                                Json::Num(reactor.msgs_per_sec() / baseline.msgs_per_sec()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("peak_rss_kb", Json::UInt(proc_status_field("VmHWM:"))),
        ("floor_msgs_per_sec", floor.map_or(Json::Null, Json::Num)),
    ]);
    std::fs::write("BENCH_PR6.json", doc.render() + "\n").expect("write BENCH_PR6.json");
    println!("\nwrote BENCH_PR6.json");

    if let Some(floor) = floor {
        let worst = pairs
            .iter()
            .map(|(r, _)| r.msgs_per_sec())
            .fold(f64::INFINITY, f64::min);
        if worst < floor {
            eprintln!(
                "FAIL: reactor throughput {worst:.0} msgs/s fell below the floor \
                 of {floor:.0} msgs/s"
            );
            std::process::exit(1);
        }
        println!("floor check passed: min reactor throughput {worst:.0} >= {floor:.0} msgs/s");
    }
}
