//! The three live workloads and the load generators that drive them:
//! a 4-machine λ=1 `Cluster` on localhost TCP, reached either through one
//! `paso-proxy` gateway (`proxy_open`, `proxy_sat`) or through the
//! in-process client API (`direct_bulk`).
//!
//! Every generator replays a [`Plan`] fixed before the clock starts,
//! checks each answer against the plan, and files latencies under the
//! measured window; warm-up and drain ops are checked but not timed.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use paso_core::{
    auth_token, encode, try_decode, ClientOp, ClientResult, PasoConfig, ProxyClientFrame,
    ProxyServerFrame,
};
use paso_proxy::{read_frame, write_frame, Proxy, ProxyOptions};
use paso_runtime::{Cluster, ClusterError, TransportKind};
use paso_telemetry::Snapshot;
use paso_types::PasoObject;

use crate::gen::{Kind, Plan, PlannedOp, Shape, Verdict};
use crate::layers::{self, delta, TraceSummary};
use crate::metrics::{ratio, Values};
use crate::spans::Spans;
use crate::stats::{best_per_phase, fastest, mean, median, ns_to_us, percentile, Better, PHASES};
use crate::{Outcome, RunSpec};

/// Machines and tolerated crashes of every live cluster.
pub const N: usize = 4;
pub const LAMBDA: usize = 1;
const SECRET: u64 = 0x9a7e;
/// Plans are sized for this many ops/s per stream; a stream that runs
/// out of plan before its window closes invalidates the run.
const PLAN_OPS_PER_S: f64 = 50_000.0;
/// Share of `--seconds` spent warming up before the measured window.
pub const WARMUP_FRAC: f64 = 0.15;
/// A traced pass measures an untraced and then a traced system for this
/// share of `--seconds` each, leaving the rest of the budget to the ladder.
pub const TRACED_FRAC: f64 = 0.4;
/// How long before an op is due the open-loop writer stops sleeping and
/// starts spinning.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// A generator gives up on a connection that stays silent this long.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// A traced pass also measures each known-defective configuration (see
/// [`Variant::adaptive`] and `direct_bulk`'s second caller) for this share
/// of `--seconds`.
const PROBE_FRAC: f64 = 0.15;

/// How a live workload offers its load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open loop: one connection, ops due at a fixed rate, at most
    /// `window` outstanding (the proxy's pipelining limit — a client
    /// library queues locally beyond it, and that wait is in the latency
    /// because latency runs from the due time).
    ProxyOpen { rate: f64, window: usize },
    /// Closed loop: `conns` connections × `window` outstanding ops each.
    ProxySat { conns: usize, window: usize },
    /// Closed loop: `callers` threads on `Cluster::{insert, read,
    /// read_del}`, one op at a time each.
    Direct { callers: usize },
}

/// How one started system is configured, beyond its workload's load.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    pub transport: TransportKind,
    /// The product's trace stream records from start-up.
    pub trace: bool,
    /// Adaptive replication, the config default. The workloads run with
    /// it off: with it on, a few reads per 10⁴ miss a key that is provably
    /// live whenever ops overlap a join or leave (never with it off), and
    /// a benchmark workload may not contain failing ops. The traced pass
    /// measures the same load with it on as `core.adaptive_on_*`, and
    /// `sim_adaptive` measures the adaptive path one op at a time, where
    /// every answer is right.
    pub adaptive: bool,
}

impl Variant {
    /// What every workload's own systems run.
    pub const WORKLOAD: Variant = Variant {
        transport: TransportKind::Tcp,
        trace: false,
        adaptive: false,
    };
}

/// A live workload: its load shape and its tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveSpec {
    pub load: Load,
    pub shape: Shape,
}

impl LiveSpec {
    pub fn streams(&self) -> usize {
        match self.load {
            Load::ProxyOpen { .. } => 1,
            Load::ProxySat { conns, .. } => conns,
            Load::Direct { callers } => callers,
        }
    }

    /// Most ops one stream keeps in flight.
    fn window(&self) -> usize {
        match self.load {
            Load::ProxyOpen { window, .. } | Load::ProxySat { window, .. } => window,
            Load::Direct { .. } => 1,
        }
    }

    pub fn uses_proxy(&self) -> bool {
        !matches!(self.load, Load::Direct { .. })
    }

    /// Generator threads (the open loop needs a writer and a reader).
    fn threads(&self) -> usize {
        match self.load {
            Load::ProxyOpen { .. } => 2,
            _ => self.streams(),
        }
    }
}

/// When a stream measures and when it stops issuing.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// The stream begins (the open loop's op 0 is due).
    pub start: Instant,
    /// Warm-up ends.
    pub measure_from: Instant,
    /// No op is issued from here on; outstanding ones drain.
    pub stop: Instant,
}

impl Schedule {
    /// Measure everything, stop when the ops run out (ladder rungs and
    /// prefill).
    pub fn unbounded() -> Schedule {
        let now = Instant::now();
        Schedule {
            start: now,
            measure_from: now,
            stop: now + Duration::from_secs(3600),
        }
    }

    fn measures(&self, t: Instant) -> bool {
        t >= self.measure_from && t < self.stop
    }
}

/// What one stream saw.
#[derive(Debug)]
pub struct StreamReport {
    /// Every correct op that completed in the measured window, by kind:
    /// when it completed and its latency in ns.
    pub samples: [Vec<(Instant, u64)>; 3],
    pub attempted: u64,
    /// No answer: timeout, `Unavailable`, `Busy`, broken connection.
    pub unserved: u64,
    /// An answer the plan rules out.
    pub wrong: u64,
    pub busy: u64,
    /// Open loop: how late each measured op left, ns.
    pub late_ns: Vec<u64>,
    /// Acked inserts minus successful `read&del`s.
    pub live_objects: i64,
    /// Every op handed to the generator was issued before `stop`.
    pub exhausted: bool,
    pub spans: Spans,
}

/// Per-stream bookkeeping shared by all three generators: checks each
/// answer, files its latency, records its span.
struct Recorder<'a> {
    shape: Shape,
    /// Stream index: object-id creator, issuing-machine offset, span ids.
    stream: usize,
    sched: &'a Schedule,
    /// How far an op may run ahead of the oldest unanswered one.
    horizon: usize,
    /// Layer name for the span around every measured op; `None` = no spans.
    span_layer: Option<&'static str>,
    report: StreamReport,
}

impl<'a> Recorder<'a> {
    fn new(
        plan: &Plan,
        stream: usize,
        sched: &'a Schedule,
        span_layer: Option<&'static str>,
        epoch: Instant,
    ) -> Self {
        Recorder {
            shape: plan.shape,
            stream,
            sched,
            horizon: plan.safe_window(),
            span_layer,
            report: StreamReport {
                samples: Default::default(),
                attempted: 0,
                unserved: 0,
                wrong: 0,
                busy: 0,
                late_ns: Vec::new(),
                live_objects: 0,
                exhausted: false,
                spans: Spans::new(epoch),
            },
        }
    }

    /// Files one op that completed at `end`. `start` is where its latency
    /// runs from: send time, or due time in the open loop. `None` = `Busy`
    /// or no answer.
    fn complete(
        &mut self,
        idx: usize,
        op: PlannedOp,
        result: Option<&ClientResult>,
        start: Instant,
        end: Instant,
    ) {
        let r = &mut self.report;
        r.attempted += 1;
        match result.map_or(Verdict::Unserved, |res| self.shape.verdict(op, res)) {
            Verdict::Ok => {
                match op.kind {
                    Kind::Insert => r.live_objects += 1,
                    Kind::ReadDel => r.live_objects -= 1,
                    Kind::Read => {}
                }
                if self.sched.measures(end) {
                    r.samples[op.kind as usize].push((end, (end - start).as_nanos() as u64));
                    if let Some(layer) = self.span_layer {
                        let id = ((self.stream as u64) << 40) | idx as u64;
                        r.spans.record(id, layer, op.kind.label(), "", start, end);
                    }
                }
            }
            Verdict::Unserved => r.unserved += 1,
            Verdict::Wrong => r.wrong += 1,
        }
    }

    /// Ops still outstanding when their connection broke.
    fn lost(&mut self, n: usize) {
        self.report.attempted += n as u64;
        self.report.unserved += n as u64;
    }
}

// ---- proxy connections ---------------------------------------------

/// One authenticated client connection, speaking the proxy's
/// varint-framed protocol through `paso_proxy::{read_frame, write_frame}`.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(port: u16, tenant: u64) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        let hello = ProxyClientFrame::Hello {
            tenant,
            token: auth_token(tenant, SECRET),
        };
        write_frame(&mut conn.writer, &encode(&hello))?;
        match recv(&mut conn.reader)? {
            ProxyServerFrame::Welcome => Ok(conn),
            other => Err(std::io::Error::other(format!("hello answered {other:?}"))),
        }
    }
}

fn send(w: &mut TcpStream, seq: usize, op: ClientOp) -> bool {
    let frame = ProxyClientFrame::Op {
        seq: seq as u64,
        op,
    };
    write_frame(w, &encode(&frame)).is_ok()
}

fn recv(r: &mut BufReader<TcpStream>) -> std::io::Result<ProxyServerFrame> {
    let payload = read_frame(r)?;
    try_decode(&payload).map_err(|e| std::io::Error::other(format!("{e:?}")))
}

/// Reads one answer as `(seq, result)`, `Busy` being `(seq, None)`;
/// `None` when the connection is broken.
fn recv_answer(r: &mut BufReader<TcpStream>) -> Option<(usize, Option<ClientResult>)> {
    match recv(r).ok()? {
        ProxyServerFrame::Done { seq, result } => Some((seq as usize, Some(result))),
        ProxyServerFrame::Busy { seq } => Some((seq as usize, None)),
        ProxyServerFrame::Welcome | ProxyServerFrame::Denied => None,
    }
}

/// Which ops of one connection are outstanding. An op may leave only
/// while fewer than `window` are in flight *and* the oldest unanswered
/// one is less than `horizon` ops behind it: answers come back out of
/// order, and the plan's expectations hold only if nothing overtakes an
/// op `horizon` positions ahead of it (see [`Plan::safe_window`]).
struct InFlight {
    window: usize,
    horizon: usize,
    answered: Vec<bool>,
    sent: usize,
    done: usize,
    /// Lowest op index not yet answered.
    oldest: usize,
    broken: bool,
}

impl InFlight {
    fn new(window: usize, horizon: usize, ops: usize) -> Self {
        InFlight {
            window,
            horizon,
            answered: vec![false; ops],
            sent: 0,
            done: 0,
            oldest: 0,
            broken: false,
        }
    }

    fn may_send(&self) -> bool {
        self.sent - self.done < self.window && self.sent - self.oldest < self.horizon
    }

    fn answer(&mut self, seq: usize) {
        if let Some(slot) = self.answered.get_mut(seq) {
            *slot = true;
        }
        self.done += 1;
        while self.answered.get(self.oldest) == Some(&true) {
            self.oldest += 1;
        }
    }
}

/// Closed loop over one connection: keeps `window` ops outstanding until
/// `stop`, then drains.
fn closed_loop(
    conn: &mut Conn,
    ops: &[PlannedOp],
    window: usize,
    mut rec: Recorder<'_>,
) -> StreamReport {
    let creator = rec.stream as u64;
    let mut sent_at: Vec<Instant> = Vec::with_capacity(ops.len());
    let mut fl = InFlight::new(window, rec.horizon, ops.len());
    loop {
        while fl.sent < ops.len() && fl.may_send() && Instant::now() < rec.sched.stop {
            let op = rec.shape.client_op(ops[fl.sent], creator);
            sent_at.push(Instant::now());
            if !send(&mut conn.writer, fl.sent, op) {
                rec.lost(fl.sent + 1 - fl.done);
                return rec.report;
            }
            fl.sent += 1;
        }
        if fl.done == fl.sent {
            break;
        }
        let Some((seq, result)) = recv_answer(&mut conn.reader) else {
            rec.lost(fl.sent - fl.done);
            return rec.report;
        };
        let end = Instant::now();
        rec.report.busy += u64::from(result.is_none());
        if let (Some(&op), Some(&start)) = (ops.get(seq), sent_at.get(seq)) {
            rec.complete(seq, op, result.as_ref(), start, end);
        }
        fl.answer(seq);
    }
    rec.report.exhausted = fl.sent == ops.len();
    rec.report
}

/// Open loop over one connection: op `i` is due at `start + i/rate`; a
/// writer thread sends on schedule (waiting only while [`InFlight`]
/// forbids it), this thread times each answer from the op's *due* time.
/// Sends exactly the ops due before `stop`, however late.
fn open_loop(
    conn: &mut Conn,
    ops: &[PlannedOp],
    rate: f64,
    window: usize,
    mut rec: Recorder<'_>,
) -> StreamReport {
    let sched = rec.sched;
    let shape = rec.shape;
    let due = |i: usize| sched.start + Duration::from_secs_f64(i as f64 / rate);
    let total = (((sched.stop - sched.start).as_secs_f64() * rate) as usize).min(ops.len());
    let Conn { writer, reader } = conn;
    let state = (
        Mutex::new(InFlight::new(window, rec.horizon, total)),
        Condvar::new(),
    );
    let lock = || state.0.lock().expect("generator threads do not panic");
    std::thread::scope(|s| {
        let writer_thread = s.spawn(|| {
            let mut late_ns = Vec::new();
            for (i, &op) in ops.iter().enumerate().take(total) {
                let op = shape.client_op(op, 0);
                let at = due(i);
                // Sleep most of the way, spin the rest: a timer wake-up is
                // 50–150 µs late (timer slack plus the hypervisor's timer
                // delivery), and since latency runs from the due time that
                // lateness would be in every sample.
                if let Some(nap) = at.checked_duration_since(Instant::now() + SPIN_BEFORE_DUE) {
                    std::thread::sleep(nap);
                }
                while Instant::now() < at {
                    std::hint::spin_loop();
                }
                {
                    let mut fl = lock();
                    while !fl.may_send() && !fl.broken {
                        fl = state.1.wait(fl).expect("generator threads do not panic");
                    }
                    if fl.broken {
                        return late_ns;
                    }
                    fl.sent += 1;
                }
                if sched.measures(at) {
                    late_ns.push(Instant::now().saturating_duration_since(at).as_nanos() as u64);
                }
                if !send(writer, i, op) {
                    lock().broken = true;
                    return late_ns;
                }
            }
            late_ns
        });
        let mut received = 0usize;
        while received < total {
            let Some((seq, result)) = recv_answer(reader) else {
                break;
            };
            let end = Instant::now();
            received += 1;
            lock().answer(seq);
            state.1.notify_one();
            rec.report.busy += u64::from(result.is_none());
            if let Some(&op) = ops.get(seq) {
                rec.complete(seq, op, result.as_ref(), due(seq), end);
            }
        }
        // A broken connection must not leave the writer waiting.
        lock().broken = received < total;
        state.1.notify_one();
        rec.report.late_ns = writer_thread.join().expect("open-loop writer panicked");
        let sent = lock().sent;
        rec.lost(sent - received);
        rec.report.exhausted = total == ops.len();
        rec.report
    })
}

/// Closed loop on the in-process client API, one op at a time.
fn direct_caller(cluster: &Cluster, ops: &[PlannedOp], mut rec: Recorder<'_>) -> StreamReport {
    let shape = rec.shape;
    // The caller is a process on one machine, as the API has it. (Spread
    // over all machines, half the ops would come from write-group members
    // and half not, and the median latency would sit between two modes.)
    let node = (rec.stream % N) as u32;
    let found = |r: Result<Option<PasoObject>, ClusterError>| match r {
        Ok(Some(o)) => Some(ClientResult::Found(o)),
        Ok(None) => Some(ClientResult::Fail),
        Err(ClusterError::Unavailable) => Some(ClientResult::Unavailable),
        Err(ClusterError::Timeout | ClusterError::NodeDown) => None,
    };
    let mut issued = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        let start = Instant::now();
        if start >= rec.sched.stop {
            break;
        }
        let result = match op.kind {
            Kind::Insert => match cluster.insert(node, shape.fields(op.key)) {
                Ok(_) => Some(ClientResult::Inserted),
                Err(ClusterError::Unavailable) => Some(ClientResult::Unavailable),
                Err(ClusterError::Timeout | ClusterError::NodeDown) => None,
            },
            Kind::Read => found(cluster.read(node, shape.criterion(op.key))),
            Kind::ReadDel => found(cluster.read_del(node, shape.criterion(op.key))),
        };
        let end = Instant::now();
        rec.complete(i, op, result.as_ref(), start, end);
        issued += 1;
    }
    rec.report.exhausted = issued == ops.len();
    rec.report
}

// ---- one running system --------------------------------------------

/// A started cluster (plus gateway and client connections for the proxy
/// workloads) with every stream's pool prefilled.
pub struct Live {
    cluster: Cluster,
    proxy: Option<Proxy>,
    conns: Vec<Conn>,
    plans: Vec<Plan>,
    epoch: Instant,
    /// Ops attempted / failed while prefilling.
    pub setup_attempted: u64,
    pub setup_failed: u64,
}

impl Live {
    /// Everything a run needs before its first timed op: generate the
    /// plans, start the cluster (and proxy), connect, prefill the pools.
    pub fn start(
        spec: &LiveSpec,
        variant: Variant,
        seed: u64,
        ops_per_stream: usize,
        epoch: Instant,
    ) -> Live {
        let plans: Vec<Plan> = (0..spec.streams())
            .map(|s| Plan::generate(spec.shape, seed, s as u64, ops_per_stream))
            .collect();
        assert!(
            spec.window() < plans[0].safe_window(),
            "the window would let a read overtake its key's insert or delete"
        );
        let cfg = PasoConfig::builder(N, LAMBDA)
            .proxy_slots(usize::from(spec.uses_proxy()))
            .adaptive(variant.adaptive)
            .build();
        let proxy_opts = ProxyOptions::from_config(&cfg, SECRET);
        let cluster = Cluster::start(cfg, variant.transport);
        cluster.trace_buf().set_enabled(variant.trace);
        let proxy = spec
            .uses_proxy()
            .then(|| Proxy::start(cluster.gateway_link(0), proxy_opts).expect("bind proxy port"));
        let conns: Vec<Conn> = proxy
            .iter()
            .flat_map(|p| (0..spec.streams()).map(|s| Conn::connect(p.port(), s as u64)))
            .collect::<Result<_, _>>()
            .expect("connect to proxy");
        let mut live = Live {
            cluster,
            proxy,
            conns,
            plans,
            epoch,
            setup_attempted: 0,
            setup_failed: 0,
        };
        // Prefill is closed-loop, whatever the measured load is.
        let prefill = match spec.load {
            Load::ProxyOpen { window, .. } => Load::ProxySat { conns: 1, window },
            other => other,
        };
        let sched = Schedule::unbounded();
        let (reports, ()) = live.drive(prefill, |p| &p.prefill, &sched, None, |_| ());
        live.setup_attempted = reports.iter().map(|r| r.attempted).sum();
        live.setup_failed = reports.iter().map(|r| r.unserved + r.wrong).sum();
        live
    }

    /// Runs one generator per stream over `ops(plan)` and, meanwhile,
    /// `during` on the calling thread.
    fn drive<T>(
        &mut self,
        load: Load,
        ops: fn(&Plan) -> &[PlannedOp],
        sched: &Schedule,
        span_layer: Option<&'static str>,
        during: impl FnOnce(&Cluster) -> T,
    ) -> (Vec<StreamReport>, T) {
        let (cluster, epoch) = (&self.cluster, self.epoch);
        let mut conns = self.conns.iter_mut();
        std::thread::scope(|s| {
            let mut running = Vec::new();
            for (i, plan) in self.plans.iter().enumerate() {
                let rec = Recorder::new(plan, i, sched, span_layer, epoch);
                let conn = conns.next();
                running.push(s.spawn(move || match (load, conn) {
                    (Load::ProxyOpen { rate, window }, Some(conn)) => {
                        open_loop(conn, ops(plan), rate, window, rec)
                    }
                    (Load::ProxySat { window, .. }, Some(conn)) => {
                        closed_loop(conn, ops(plan), window, rec)
                    }
                    _ => direct_caller(cluster, ops(plan), rec),
                }));
            }
            let out = during(cluster);
            let reports = running
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect();
            (reports, out)
        })
    }

    /// Closes the connections, stops the proxy, joins the node threads.
    pub fn shutdown(self) {
        drop(self.conns);
        drop(self.proxy);
        self.cluster.shutdown();
    }
}

/// What one warm-up + measured window on one system produced.
pub struct Measured {
    measure_from: Instant,
    window_s: f64,
    streams: Vec<StreamReport>,
    /// Telemetry over the measured window only.
    tel: Snapshot,
    /// Ops attempted / failed on this system, set-up included.
    attempted: u64,
    failed: u64,
    trace: Option<TraceSummary>,
}

/// Slices per phase of one system's window: every system measures each
/// phase of the plan this many times (interference comes and goes within
/// half a second, so two slices of a third of a second are two chances to
/// see the phase undisturbed).
const REPS: usize = 2;

impl Measured {
    fn samples(&self, kind: Option<Kind>) -> impl Iterator<Item = (Instant, u64)> + '_ {
        self.streams.iter().flat_map(move |s| {
            Kind::selected(kind).flat_map(|k| s.samples[k as usize].iter().copied())
        })
    }

    /// All measured latencies, ns.
    fn lat_ns(&self) -> Vec<u64> {
        self.samples(None).map(|(_, ns)| ns).collect()
    }

    fn ok_ops(&self) -> f64 {
        self.samples(None).count() as f64
    }

    /// Correct ops per wall second of the window: the ops that completed
    /// in it over the time between the first and the last of them.
    fn ops_per_s(&self) -> f64 {
        let at = || self.samples(None).map(|(at, _)| at);
        match (at().min(), at().max()) {
            (Some(first), Some(last)) => ratio(self.ok_ops() - 1.0, (last - first).as_secs_f64()),
            _ => 0.0,
        }
    }

    /// Exact median latency over every measured op, µs.
    fn p50_us(&self) -> f64 {
        ns_to_us(percentile(&mut self.lat_ns(), 0.5))
    }

    /// The measured latencies of `kind` by the slice of the window they
    /// completed in: [`REPS`] rows of [`PHASES`] slices, slice `r` of
    /// phase `p` in row `r`.
    fn by_slice(&self, kind: Option<Kind>) -> Vec<Vec<Vec<u64>>> {
        let slices = PHASES * REPS;
        let slice_s = self.window_s / slices as f64;
        let mut rows = vec![vec![Vec::new(); PHASES]; REPS];
        for (at, ns) in self.samples(kind) {
            let i = ((at - self.measure_from).as_secs_f64() / slice_s) as usize;
            let i = i.min(slices - 1);
            rows[i % REPS][i / REPS].push(ns);
        }
        rows
    }

    /// Correct ops per second, slice by slice.
    fn slice_ops_per_s(&self) -> Vec<Vec<f64>> {
        let slice_s = self.window_s / (PHASES * REPS) as f64;
        self.by_slice(None)
            .iter()
            .map(|row| row.iter().map(|s| s.len() as f64 / slice_s).collect())
            .collect()
    }

    /// Median latency of `kind` in µs, slice by slice (NaN for a slice
    /// without samples).
    fn slice_p50_us(&self, kind: Option<Kind>) -> Vec<Vec<f64>> {
        self.by_slice(kind)
            .iter_mut()
            .map(|row| {
                row.iter_mut()
                    .map(|s| match s.is_empty() {
                        true => f64::NAN,
                        false => ns_to_us(percentile(s, 0.5)),
                    })
                    .collect()
            })
            .collect()
    }
}

/// Warm up, measure for `seconds`, drain, shut the system down. A system
/// started with the trace stream on has it checked against A1–A3.
fn measure(
    spec: &LiveSpec,
    mut live: Live,
    seconds: f64,
    span_layer: Option<&'static str>,
) -> Measured {
    let start = Instant::now();
    let measure_from = start + Duration::from_secs_f64(seconds * WARMUP_FRAC);
    let sched = Schedule {
        start,
        measure_from,
        stop: measure_from + Duration::from_secs_f64(seconds),
    };
    let (streams, tel) = live.drive(
        spec.load,
        |p| &p.ops,
        &sched,
        span_layer,
        // This thread only sleeps to the window's edges and reads the
        // registry there.
        |cluster| {
            std::thread::sleep(sched.measure_from.saturating_duration_since(Instant::now()));
            let before = cluster.telemetry().snapshot();
            std::thread::sleep(sched.stop.saturating_duration_since(Instant::now()));
            delta(&cluster.telemetry().snapshot(), &before)
        },
    );
    let trace_buf = live.cluster.trace_buf();
    let trace = trace_buf
        .is_enabled()
        .then(|| TraceSummary::read(&trace_buf));
    let attempted = live.setup_attempted + streams.iter().map(|s| s.attempted).sum::<u64>();
    let failed = live.setup_failed + streams.iter().map(|s| s.unserved + s.wrong).sum::<u64>();
    live.shutdown();
    Measured {
        measure_from,
        window_s: seconds,
        streams,
        tel,
        attempted,
        failed,
        trace,
    }
}

/// One ladder rung: a fresh system on `transport`, `n_ops` ops of the
/// plan back to back, every op under a `layer` span. Returns the median
/// latency in µs and `(attempted, failed)`.
pub fn rung(
    spec: &LiveSpec,
    transport: TransportKind,
    seed: u64,
    n_ops: usize,
    layer: &'static str,
    spans: &mut Spans,
) -> (f64, u64, u64) {
    let variant = Variant {
        transport,
        ..Variant::WORKLOAD
    };
    let mut live = Live::start(spec, variant, seed, n_ops, spans.epoch());
    let sched = Schedule::unbounded();
    let (streams, ()) = live.drive(spec.load, |p| &p.ops, &sched, Some(layer), |_| ());
    let attempted = live.setup_attempted + streams.iter().map(|s| s.attempted).sum::<u64>();
    let failed = live.setup_failed + streams.iter().map(|s| s.unserved + s.wrong).sum::<u64>();
    live.shutdown();
    let mut ns: Vec<u64> = streams
        .iter()
        .flat_map(|s| s.samples.iter().flatten().map(|(_, ns)| *ns))
        .collect();
    for s in streams {
        spans.extend(s.spans);
    }
    (ns_to_us(percentile(&mut ns, 0.5)), attempted, failed)
}

/// Plan length per stream for a window of `seconds`.
fn plan_ops(spec: &LiveSpec, seconds: f64) -> usize {
    let per_s = match spec.load {
        Load::ProxyOpen { rate, .. } => rate,
        _ => PLAN_OPS_PER_S,
    };
    (per_s * seconds * (1.0 + WARMUP_FRAC) + 1.0).ceil() as usize
}

/// Independent systems a plain pass starts and measures, one after the
/// other: set-up is timed five times (and the fastest reported, like any
/// other phase), and no figure rests on where one start happened to put
/// its memory.
const SYSTEMS: usize = 5;

/// A plain pass goes on setting systems up (and shutting them down) until
/// it has timed this many set-ups or spent this long on them.
const SETUP_REPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;

/// One pass of a live workload.
///
/// Plain pass: [`SYSTEMS`] fresh systems, each set up, warmed and measured
/// for `seconds / SYSTEMS` with the trace stream off. Traced pass: one
/// untraced and one traced system, [`TRACED_FRAC`]` × seconds` each, then
/// the probes ([`PROBE_FRAC`]); the ladder (`ladder.rs`) uses the rest of
/// the budget.
pub fn run(spec: &LiveSpec, run: &RunSpec, spans: &mut Spans) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Two is the floor, and what counts under `keeper::OneCpu`: the open
    // loop needs a writer and a reader.
    assert!(
        spec.threads() <= nproc.max(2) && spec.streams() <= 2,
        "generator would use more threads than cores ({nproc})"
    );
    let epoch = spans.epoch();
    let (systems, seconds) = if run.trace {
        (1, run.seconds * TRACED_FRAC)
    } else {
        (SYSTEMS, run.seconds / SYSTEMS as f64)
    };
    let ops = plan_ops(spec, seconds);
    let setup_s = std::cell::RefCell::new(Vec::new());
    let start = |trace: bool| {
        let t = Instant::now();
        let variant = Variant {
            trace,
            ..Variant::WORKLOAD
        };
        let live = Live::start(spec, variant, run.seed, ops, epoch);
        setup_s.borrow_mut().push(t.elapsed().as_secs_f64());
        live
    };
    let plain: Vec<Measured> = (0..systems)
        .map(|_| measure(spec, start(false), seconds, None))
        .collect();
    let traced = run
        .trace
        .then(|| measure(spec, start(true), seconds, Some("client")));
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    // A proxy workload sets up in tens of milliseconds, less than one
    // burst of a neighbour: time some more set-ups while they are cheap.
    while !run.trace
        && setup_s.borrow().len() < SETUP_REPS
        && setup_s.borrow().iter().sum::<f64>() < SETUP_BUDGET_S
    {
        let live = start(false);
        attempted += live.setup_attempted;
        failed += live.setup_failed;
        live.shutdown();
    }
    let setup_s = setup_s.into_inner();

    for m in plain.iter().chain(&traced) {
        attempted += m.attempted;
        failed += m.failed;
        for s in &m.streams {
            correct &= s.wrong == 0;
            if s.exhausted {
                eprintln!("benchmark: a stream ran out of planned ops before its window closed");
                correct = false;
            }
            if s.busy > 0 {
                eprintln!("benchmark: {} ops bounced with Busy", s.busy);
            }
        }
    }

    // Counts: one figure per system, then the median of the systems.
    // Timing: each phase of the window was measured once per system; its
    // figure is the best of those (see `stats::best_per_phase`), and the
    // window's is the mean (rate) or median (latency) over its phases.
    let over_systems =
        |f: &dyn Fn(&Measured) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let per_phase = |f: &dyn Fn(&Measured) -> Vec<Vec<f64>>, better: Better| {
        best_per_phase(&plain.iter().flat_map(f).collect::<Vec<_>>(), better)
    };
    let mut e2e = Values::default();
    e2e.set("setup_s", fastest(&setup_s));
    let whole_run_ops_per_s = over_systems(&Measured::ops_per_s);
    // An open loop's rate is its input: the burst that catches up after a
    // stall would put a phase's best above the offered rate.
    let ops_per_s = match spec.load {
        Load::ProxyOpen { .. } => whole_run_ops_per_s,
        _ => mean(&per_phase(&Measured::slice_ops_per_s, Better::Higher)),
    };
    e2e.set("ops_per_s", ops_per_s);
    let phase_p50_us = |kind| median(&per_phase(&|m| m.slice_p50_us(kind), Better::Lower));
    e2e.set("lat_p50_us", phase_p50_us(None));
    e2e.set(
        "msgs_per_op",
        over_systems(&|m| ratio(m.tel.counter("net.msgs_sent"), m.ok_ops())),
    );
    e2e.set(
        "bytes_per_op",
        over_systems(&|m| ratio(m.tel.counter("net.bytes_sent"), m.ok_ops())),
    );
    let mut layer = Values::default();
    layer.set("failed_frac", ratio(failed as f64, attempted as f64));
    for (name, kind) in [
        ("insert_p50_us", Kind::Insert),
        ("read_p50_us", Kind::Read),
        ("readdel_p50_us", Kind::ReadDel),
    ] {
        layer.set(name, phase_p50_us(Some(kind)));
    }
    // The same two figures the plain way, every stall of whatever origin
    // included: per system over its whole window, median of the systems.
    layer.set("bench.whole_run_ops_per_s", whole_run_ops_per_s);
    layer.set(
        "bench.whole_run_lat_p50_us",
        over_systems(&Measured::p50_us),
    );
    let mut all_ns: Vec<u64> = plain.iter().flat_map(|m| m.lat_ns()).collect();
    let p99 = ns_to_us(percentile(&mut all_ns, 0.99));
    if spec.uses_proxy() {
        layer.set("proxy.client_lat_p99_us", p99);
    } else {
        layer.set("runtime.client_lat_p99_us", p99);
    }
    if let Load::ProxyOpen { .. } = spec.load {
        let mut late: Vec<u64> = plain
            .iter()
            .flat_map(|m| &m.streams)
            .flat_map(|s| s.late_ns.iter().copied())
            .collect();
        layer.set(
            "bench.gen_late_p99_us",
            ns_to_us(percentile(&mut late, 0.99)),
        );
        layer.set(
            "bench.gen_late_max_us",
            ns_to_us(percentile(&mut late, 1.0)),
        );
    }
    // Client-side accounting on the last system: the prefilled pools plus
    // acked inserts minus successful `read&del`s (the live cluster exposes
    // no store size).
    let last = plain.last().expect("at least one system");
    let drift: i64 = last.streams.iter().map(|s| s.live_objects).sum();
    layer.set(
        "bench.live_objects_end",
        (spec.shape.depth * spec.streams()) as f64 + drift as f64,
    );
    layer.set("bench.samples", all_ns.len() as f64);

    // Per-layer ratios come from the traced system when there is one, so
    // they describe the same ops as the spans.
    let detail = traced.as_ref().unwrap_or(last);
    layers::common(&detail.tel, detail.ok_ops(), &mut layer);
    layers::runtime(&detail.tel, detail.ok_ops(), &mut layer);
    if spec.uses_proxy() {
        layers::proxy(&detail.tel, detail.ok_ops(), &mut layer);
    }
    if let Some(t) = &traced {
        let summary = t.trace.as_ref().expect("traced system has a trace");
        layer.set(
            "telemetry.trace_overhead_frac",
            1.0 - ratio(t.ok_ops(), last.ok_ops()),
        );
        correct &= summary.report(t.attempted as f64, &mut layer);
        probes(spec, run, epoch, &mut layer);
    }
    for m in plain.into_iter().chain(traced) {
        for s in m.streams {
            spans.extend(s.spans);
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        e2e,
        layer,
    }
}

/// Measures the configurations the workloads leave out because ops fail
/// or timings flip between regimes on them, so that the defects have a
/// number a fix can move. Their failures are reported here and nowhere
/// else: not in the pass's `failed`, not in its `correct`.
fn probes(spec: &LiveSpec, run: &RunSpec, epoch: Instant, layer: &mut Values) {
    let seconds = run.seconds * PROBE_FRAC;
    let probe = |spec: &LiveSpec, adaptive: bool| {
        let variant = Variant {
            adaptive,
            ..Variant::WORKLOAD
        };
        let live = Live::start(spec, variant, run.seed, plan_ops(spec, seconds), epoch);
        measure(spec, live, seconds, None)
    };
    let adaptive_on = probe(spec, true);
    layer.set(
        "core.adaptive_on_failed_frac",
        ratio(adaptive_on.failed as f64, adaptive_on.attempted as f64),
    );
    layer.set("core.adaptive_on_ops_per_s", adaptive_on.ops_per_s());
    // A second caller on the same `Cluster`, the store kept at its size:
    // the two hand each other's results over through the done map.
    if let Load::Direct { callers: 1 } = spec.load {
        let two = LiveSpec {
            load: Load::Direct { callers: 2 },
            shape: Shape {
                depth: spec.shape.depth / 2,
                ..spec.shape
            },
        };
        let m = probe(&two, false);
        layer.set("runtime.two_caller_lat_p50_us", m.p50_us());
        layer.set("runtime.two_caller_ops_per_s", m.ops_per_s());
    }
}
