//! The live PASO cluster: one thread per machine, a membership-oracle
//! controller, and a synchronous client API.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;

use paso_core::{
    assign_basic_support, encode, initial_groups, obj_ref, register_durability_metrics,
    register_proxy_metrics, register_vsync_metrics, AppMsg, ClientDone, ClientOp, ClientRequest,
    ClientResult, MemoryServer, PasoConfig,
};
use paso_durable::{DurabilityHub, DurableConfig};
use paso_simnet::{Fault, FaultPlan, FaultScript, NodeId};
use paso_telemetry::{OpKind, Outcome, Telemetry, TraceBuf, TraceEvent, TraceKind};
use paso_types::{ClassId, ObjectId, PasoObject, ProcessId, SearchCriterion, Value};
use paso_vsync::{NetMsg, VsyncConfig, VsyncNode};

use crate::node::{run_node, NodeStats};
use crate::transport::{
    ChannelMailbox, ChannelTransport, Envelope, Mailbox, Postman, TcpTransport, TransportTuning,
};

/// Which transport the cluster runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process crossbeam channels (fast, default for tests).
    Channel,
    /// Real localhost TCP sockets (the "local multi-process" evaluation).
    Tcp,
}

/// Errors from the synchronous client API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The target machine is crashed; its processes are halted (§3.1).
    NodeDown,
    /// No response within the client-side timeout.
    Timeout,
    /// The servers answered, but the op's write group was unreachable —
    /// more than λ members down (§4.1's fault-tolerance condition). The
    /// op did not execute; re-issuing after recovery is safe.
    Unavailable,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NodeDown => write!(f, "machine is down"),
            ClusterError::Timeout => write!(f, "no response within the timeout"),
            ClusterError::Unavailable => write!(f, "write group unreachable (> λ failures)"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A running PASO ensemble on live threads.
///
/// # Examples
///
/// ```
/// use paso_runtime::{Cluster, TransportKind};
/// use paso_core::PasoConfig;
/// use paso_types::{SearchCriterion, Template, Value};
///
/// let cluster = Cluster::start(PasoConfig::builder(3, 1).build(), TransportKind::Channel);
/// cluster.insert(0, vec![Value::symbol("greeting"), Value::from("hi")]).unwrap();
/// let sc = SearchCriterion::from(Template::new(vec![
///     paso_types::FieldMatcher::Exact(Value::symbol("greeting")),
///     paso_types::FieldMatcher::Any,
/// ]));
/// let got = cluster.read(2, sc).unwrap().expect("replicated");
/// assert_eq!(got.field(1), Some(&Value::from("hi")));
/// cluster.shutdown();
/// ```
pub struct Cluster {
    n: usize,
    postman: Arc<dyn Postman>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    outputs: Receiver<(NodeId, ClientDone)>,
    /// Results drained off `outputs` while waiting for a different op,
    /// stamped with their arrival time. Entries nobody claims within an
    /// op-timeout belong to dead waiters (the op already returned
    /// `Timeout`, or a retry double-answered) and are evicted — the map
    /// must not grow without bound over a long-lived cluster.
    done: Mutex<BTreeMap<u64, (Instant, ClientResult)>>,
    down: Mutex<BTreeSet<NodeId>>,
    next_op: Mutex<u64>,
    next_obj: Mutex<u64>,
    stats: Vec<Arc<NodeStats>>,
    op_timeout: Duration,
    retry_budget: u32,
    client_retries: AtomicU64,
    results_evicted: AtomicU64,
    telemetry: Arc<Telemetry>,
    trace: Arc<TraceBuf>,
    hub: Option<Arc<DurabilityHub>>,
    /// Monotonic zero for every trace timestamp this cluster records.
    epoch: Instant,
    /// Unclaimed gateway attachment points (`cfg.proxy_slots` of them),
    /// indexed by slot. `Cluster::gateway_link` takes one.
    gateway_mail: Mutex<Vec<Option<ChannelMailbox>>>,
}

/// A front-end gateway's attachment point into the cluster fabric.
///
/// Gateways occupy the [`NodeId`] slots *behind* the `n` servers
/// (`NodeId(n + slot)`): full transport peers that send and receive
/// [`AppMsg`]s, but run no memory server, join no groups, and hold no
/// state the λ-fault-tolerance argument has to cover. The link shares
/// the cluster's telemetry registry and trace buffer so ops flowing
/// through a proxy land in the same `client.op.*` counters and A1–A3
/// trace stream as ops issued directly — that equivalence is exactly
/// what the proxy differential test asserts.
pub struct GatewayLink {
    node: NodeId,
    servers: usize,
    postman: Arc<dyn Postman>,
    mailbox: ChannelMailbox,
    telemetry: Arc<Telemetry>,
    trace: Arc<TraceBuf>,
    epoch: Instant,
}

impl fmt::Debug for GatewayLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatewayLink")
            .field("node", &self.node)
            .field("servers", &self.servers)
            .finish_non_exhaustive()
    }
}

impl GatewayLink {
    /// The gateway's own address on the fabric (`NodeId(n + slot)`).
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Number of memory servers (valid send targets are `0..servers`).
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Sends one application message to a memory server, stamped with
    /// the gateway's own address so the server can answer with
    /// [`AppMsg::Done`] (and learn the gateway for summary gossip).
    pub fn send(&self, server: u32, msg: &AppMsg) {
        debug_assert!((server as usize) < self.servers, "not a server id");
        self.postman.send(
            NodeId(server),
            Envelope::Net {
                from: self.node,
                msg: NetMsg::App(encode(msg)),
            },
        );
    }

    /// Blocks up to `timeout` for the next application message addressed
    /// to this gateway (op completions, summary gossip), tagged with the
    /// sending server. Non-app envelopes on the mailbox are skipped
    /// within the same deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, AppMsg)> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            // Gateways are not in the membership oracle's audience; any
            // envelope other than an app frame (a stray control message)
            // is ignored.
            if let Envelope::Net {
                from,
                msg: NetMsg::App(bytes),
            } = self.mailbox.recv_timeout(remaining)?
            {
                if let Some(msg) = paso_core::decode::<AppMsg>(&bytes) {
                    return Some((from, msg));
                }
                self.telemetry.count("wire.decode.error", 1.0);
            }
        }
    }

    /// The cluster's shared metrics registry.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// The cluster's shared structured trace stream.
    pub fn trace_buf(&self) -> Arc<TraceBuf> {
        Arc::clone(&self.trace)
    }

    /// Micros since cluster start — the timebase every trace event in
    /// the shared stream uses.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// Cluster-wide counters: the node-side totals plus the transport's
/// message-path accounting and the client API's retry/eviction activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Messages sent by node protocol logic.
    pub msgs_sent: u64,
    /// Bytes handed to live writers (see `NetStats::bytes_sent`).
    pub bytes_sent: u64,
    /// Work units charged across all servers.
    pub total_work: u64,
    /// Frames handed off for delivery by the transport.
    pub msgs_delivered: u64,
    /// Frames dropped by the transport failure path (dead peer queue
    /// overflow, missing port, writer loss).
    pub msgs_dropped: u64,
    /// Frames dropped by injected faults.
    pub msgs_faulted: u64,
    /// Frames deferred through the injected-delay line.
    pub msgs_delayed: u64,
    /// Timed-out idempotent client ops re-issued under the same op id.
    pub client_retries: u64,
    /// Unclaimed client results evicted from the done map.
    pub results_evicted: u64,
}

/// Floor on the per-attempt wait in the retry loop: however the retry
/// budget slices the op deadline, every attempt gets at least this long
/// for its answer to arrive before the next re-send (or the final
/// `Timeout`) fires.
const MIN_RETRY_SLICE: Duration = Duration::from_millis(1);

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Starts `cfg.n` node threads over the chosen transport.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or if TCP listeners cannot bind.
    pub fn start(cfg: PasoConfig, kind: TransportKind) -> Self {
        Self::start_faulty(cfg, kind, FaultPlan::none())
    }

    /// Starts the cluster with a fault-injection plan already installed
    /// on the transport (drops, delays, partitions; see
    /// [`FaultPlan`]). The plan can be swapped at runtime with
    /// [`Cluster::set_fault_plan`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or if TCP listeners cannot bind.
    pub fn start_faulty(cfg: PasoConfig, kind: TransportKind, plan: FaultPlan) -> Self {
        cfg.validate().expect("invalid PasoConfig");
        let n = cfg.n;
        let cfg = Arc::new(cfg);
        let classifier = cfg.classifier.build();
        let classes = classifier.classes();
        let support = assign_basic_support(n, cfg.lambda, &classes);
        let groups = initial_groups(&support);
        let basic: BTreeMap<ClassId, Vec<NodeId>> = support.into_iter().collect();
        let vcfg = VsyncConfig {
            initial_groups: groups,
            log_horizon: cfg.log_horizon,
            ..VsyncConfig::default()
        };
        // Durable mode: one hub shared by every node thread. A crash
        // replaces the actor (`factory(node)`) but the hub-held WAL
        // survives, so the rebuilt node replays it on `Recover`. With
        // `wal_dir` set the log additionally lives on disk and real
        // fsyncs are timed; otherwise the in-memory medium models them.
        let hub: Option<Arc<DurabilityHub>> = cfg.durable.then(|| {
            let dcfg = DurableConfig {
                durability_interval_micros: cfg.durability_interval_micros,
                snapshot_every: cfg.wal_snapshot_every,
            };
            match &cfg.wal_dir {
                Some(dir) => {
                    DurabilityHub::new_file(dcfg, dir.clone()).expect("open WAL directory")
                }
                None => DurabilityHub::new_mem(dcfg),
            }
        });

        let tuning = TransportTuning {
            queue_depth: cfg.net_queue_depth,
            backoff_base: Duration::from_micros(cfg.net_backoff_base_micros),
            backoff_cap: Duration::from_micros(cfg.net_backoff_cap_micros),
            poller_threads: cfg.net_poller_threads,
            max_batch_frames: cfg.net_max_batch_frames,
            fault_seed: cfg.seed,
            ..TransportTuning::default()
        };
        // The transport is sized for the servers *plus* the configured
        // gateway slots: gateways are ordinary peers on the fabric, they
        // just run a proxy front half instead of a memory server.
        let total = n + cfg.proxy_slots;
        let (postman, mut mailboxes): (Arc<dyn Postman>, Vec<_>) = match kind {
            TransportKind::Channel => {
                let (p, m) = ChannelTransport::with_tuning(total, tuning);
                (p, m)
            }
            TransportKind::Tcp => {
                let (p, m) = TcpTransport::with_tuning(total, tuning);
                (p, m)
            }
        };
        let gateway_mail: Vec<Option<ChannelMailbox>> =
            mailboxes.split_off(n).into_iter().map(Some).collect();
        postman.set_fault_plan(plan);
        let telemetry = Arc::new(Telemetry::new());
        register_vsync_metrics(&telemetry);
        if hub.is_some() {
            register_durability_metrics(&telemetry);
        }
        if cfg.proxy_slots > 0 {
            register_proxy_metrics(&telemetry);
        }
        let trace = Arc::new(TraceBuf::new());
        let epoch = Instant::now();
        postman.set_trace_sink(Arc::clone(&trace), epoch);
        postman.set_telemetry(&telemetry);
        let (out_tx, out_rx) = unbounded();
        let mut handles = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        for (i, mailbox) in mailboxes.into_iter().enumerate() {
            let node = NodeId(i as u32);
            let cfg = Arc::clone(&cfg);
            let vcfg = vcfg.clone();
            let basic = basic.clone();
            let postman = Arc::clone(&postman);
            let out_tx = out_tx.clone();
            let st = Arc::new(NodeStats::default());
            stats.push(Arc::clone(&st));
            let tel = Arc::clone(&telemetry);
            let tr = Arc::clone(&trace);
            let hub = hub.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("paso-node-{i}"))
                    .spawn(move || {
                        let factory = move |id: NodeId| {
                            let node = VsyncNode::new(
                                id,
                                vcfg.clone(),
                                MemoryServer::new(id, Arc::clone(&cfg), basic.clone()),
                            );
                            match &hub {
                                Some(h) => node.with_wal(h.handle(id.0)),
                                None => node,
                            }
                        };
                        run_node(
                            node, n, factory, mailbox, postman, out_tx, st, tel, tr, epoch,
                        );
                    })
                    .expect("spawn node thread"),
            );
        }
        Cluster {
            n,
            postman,
            handles: Mutex::new(handles),
            outputs: out_rx,
            done: Mutex::new(BTreeMap::new()),
            down: Mutex::new(BTreeSet::new()),
            next_op: Mutex::new(0),
            next_obj: Mutex::new(0),
            stats,
            op_timeout: Duration::from_secs(10),
            retry_budget: cfg.client_retry_budget,
            client_retries: AtomicU64::new(0),
            results_evicted: AtomicU64::new(0),
            telemetry,
            trace,
            hub,
            epoch,
            gateway_mail: Mutex::new(gateway_mail),
        }
    }

    /// Claims gateway slot `slot` (of `cfg.proxy_slots`), handing out its
    /// transport mailbox and address. Each slot can be claimed once; the
    /// returned link is what a `paso-proxy` front end drives.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= cfg.proxy_slots` or the slot was already taken.
    pub fn gateway_link(&self, slot: usize) -> GatewayLink {
        let mut mail = self.gateway_mail.lock();
        assert!(
            slot < mail.len(),
            "gateway slot {slot} out of range (proxy_slots = {})",
            mail.len()
        );
        let mailbox = mail[slot].take().expect("gateway slot already claimed");
        GatewayLink {
            node: NodeId((self.n + slot) as u32),
            servers: self.n,
            postman: Arc::clone(&self.postman),
            mailbox,
            telemetry: Arc::clone(&self.telemetry),
            trace: Arc::clone(&self.trace),
            epoch: self.epoch,
        }
    }

    /// The shared durability hub, when `cfg.durable` is set — exposes
    /// per-node WAL byte accounting for experiments.
    pub fn durability_hub(&self) -> Option<&Arc<DurabilityHub>> {
        self.hub.as_ref()
    }

    /// Number of machines.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Overrides the client-side operation timeout (default 10s). The
    /// retry budget slices this deadline across attempts, so shortening
    /// it also tightens the retry cadence — useful in fault tests.
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
    }

    /// Total messages sent by all nodes.
    pub fn msgs_sent(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.msgs_sent.load(Ordering::Relaxed))
            .sum()
    }

    /// Total bytes put on the transport.
    pub fn bytes_sent(&self) -> u64 {
        self.postman.bytes_sent()
    }

    /// Total work units charged across all servers.
    pub fn total_work(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.work.load(Ordering::Relaxed))
            .sum()
    }

    /// Cluster-wide counters: node totals, transport message-path
    /// accounting, and client retry/eviction activity.
    pub fn stats(&self) -> ClusterStats {
        let net = self.postman.net_stats();
        ClusterStats {
            msgs_sent: self.msgs_sent(),
            bytes_sent: net.bytes_sent,
            total_work: self.total_work(),
            msgs_delivered: net.msgs_delivered,
            msgs_dropped: net.msgs_dropped,
            msgs_faulted: net.msgs_faulted,
            msgs_delayed: net.msgs_delayed,
            client_retries: self.client_retries.load(Ordering::SeqCst),
            results_evicted: self.results_evicted.load(Ordering::SeqCst),
        }
    }

    /// The unified metrics registry. Node threads and the client API
    /// write into it continuously; transport-side totals (which live in
    /// `NetStats` atomics, not the registry) are synced in here on every
    /// call so a snapshot always carries the full picture under the same
    /// metric names the simnet engine uses.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        let net = self.postman.net_stats();
        self.telemetry
            .counter("net.bytes_sent")
            .set(net.bytes_sent as f64);
        self.telemetry
            .counter("net.msgs_delivered")
            .set(net.msgs_delivered as f64);
        self.telemetry
            .counter("net.msgs_dropped")
            .set(net.msgs_dropped as f64);
        self.telemetry
            .counter("net.msgs_faulted")
            .set(net.msgs_faulted as f64);
        self.telemetry
            .counter("net.msgs_delayed")
            .set(net.msgs_delayed as f64);
        self.telemetry
            .counter("net.poll.errors")
            .set(net.poll_errors as f64);
        Arc::clone(&self.telemetry)
    }

    /// The structured trace stream (op begin/end, view changes, gcast
    /// fan-outs, fault injections), timestamped in micros since cluster
    /// start.
    pub fn trace_buf(&self) -> Arc<TraceBuf> {
        Arc::clone(&self.trace)
    }

    /// Snapshot of all trace events recorded so far, in arrival order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// Installs (replaces) the transport's fault-injection plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.postman.set_fault_plan(plan);
    }

    /// Replays a simulator [`FaultScript`] against the live cluster,
    /// mapping sim-micros to wall micros scaled by `time_scale` (e.g.
    /// `0.1` runs the schedule 10× faster). Crash/repair events call
    /// [`Cluster::crash`] / [`Cluster::recover`]; blocks until the last
    /// event fired. This is what lets one fault schedule drive both the
    /// simulated and the live twin of an experiment.
    pub fn play_script(&self, script: &FaultScript, time_scale: f64) {
        let start = Instant::now();
        for &(at, fault) in script.events() {
            let wall = Duration::from_micros((at.as_micros() as f64 * time_scale) as u64);
            if let Some(nap) = wall.checked_sub(start.elapsed()) {
                std::thread::sleep(nap);
            }
            match fault {
                Fault::Crash(node) => self.crash(node.0),
                Fault::Repair(node) => self.recover(node.0),
            }
        }
    }

    /// True iff a timed-out `op` may be re-issued under the same op id.
    /// Inserts and non-blocking reads re-execute to the same observable
    /// outcome under the servers' request-id dedup; `read&del` is
    /// destructive and blocking ops hold server state, so those run
    /// exactly once (a lost request surfaces as `Timeout`).
    fn retryable(op: &ClientOp) -> bool {
        matches!(
            op,
            ClientOp::Insert { .. }
                | ClientOp::Read {
                    blocking: false,
                    ..
                }
        )
    }

    fn send_request(&self, node: u32, req: &ClientRequest) {
        self.postman.send(
            NodeId(node),
            Envelope::Net {
                from: NodeId(node),
                msg: NetMsg::App(encode(&AppMsg::Client(req.clone()))),
            },
        );
    }

    /// Issues `op` from a process on `node` and waits for its result,
    /// re-issuing timed-out idempotent requests up to the configured
    /// retry budget (same op id — servers dedup, so a request that was
    /// merely slow rather than lost cannot execute twice).
    fn run_op(&self, node: u32, op: ClientOp) -> Result<ClientResult, ClusterError> {
        if self.down.lock().contains(&NodeId(node)) {
            return Err(ClusterError::NodeDown);
        }
        let op_id = {
            let mut next = self.next_op.lock();
            let id = *next;
            *next += 1;
            id
        };
        let budget = if Self::retryable(&op) {
            self.retry_budget
        } else {
            0
        };
        // Issue-time accounting: one count per op regardless of retries,
        // so op-level totals are directly comparable with a simnet run of
        // the same workload.
        let kind = op.kind();
        let (ctr, obj) = match &op {
            ClientOp::Insert { object } => ("client.op.insert", Some(obj_ref(object.id()))),
            ClientOp::Read { .. } => ("client.op.read", None),
            ClientOp::ReadDel { .. } => ("client.op.readdel", None),
        };
        self.telemetry.count(ctr, 1.0);
        let issued_micros = self.epoch.elapsed().as_micros() as u64;
        let issued = Instant::now();
        self.trace.record(
            issued_micros,
            node,
            TraceKind::OpBegin {
                op_id,
                op: kind,
                obj,
            },
        );
        let result = self.run_op_inner(node, op_id, budget, ClientRequest { op_id, op });
        let lat = issued.elapsed().as_micros() as u64;
        let hist = match kind {
            OpKind::Insert => "op.insert.latency_micros",
            OpKind::Read => "op.read.latency_micros",
            OpKind::ReadDel => "op.readdel.latency_micros",
        };
        self.telemetry.record(hist, lat);
        self.trace.record(
            self.epoch.elapsed().as_micros() as u64,
            node,
            TraceKind::OpEnd {
                op_id,
                op: kind,
                outcome: result
                    .as_ref()
                    .map_or(Outcome::Error, ClientResult::outcome),
            },
        );
        result
    }

    fn run_op_inner(
        &self,
        node: u32,
        op_id: u64,
        budget: u32,
        req: ClientRequest,
    ) -> Result<ClientResult, ClusterError> {
        self.send_request(node, &req);
        // Slice the overall deadline across the attempts so retries make
        // the op *more* likely to land within the same client patience,
        // instead of stretching it. Clamp the slice: with a large budget
        // or a sub-millisecond timeout the division hands each attempt a
        // near-zero wait, and the op burns its whole budget (or its only
        // attempt) without giving the first request a chance to land.
        let attempts = budget + 1;
        let slice = (self.op_timeout / attempts).max(MIN_RETRY_SLICE);
        for attempt in 0..attempts {
            match self.wait_for(op_id, slice) {
                Err(ClusterError::Timeout) if attempt + 1 < attempts => {
                    if self.down.lock().contains(&NodeId(node)) {
                        // The issuing machine crashed while we waited; a
                        // re-send would be dropped on the floor. Keep
                        // waiting out the remaining slices in case the
                        // original execution's answer is still in flight.
                        continue;
                    }
                    self.client_retries.fetch_add(1, Ordering::SeqCst);
                    self.telemetry.count("client.retries", 1.0);
                    self.send_request(node, &req);
                }
                other => return other,
            }
        }
        Err(ClusterError::Timeout)
    }

    /// Waits up to `timeout` for `op`'s result, stashing results of other
    /// ops (concurrent callers) into the done map.
    fn wait_for(&self, op: u64, timeout: Duration) -> Result<ClientResult, ClusterError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((_, r)) = self.done.lock().remove(&op) {
                return Ok(r);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClusterError::Timeout);
            }
            if let Ok((_, ClientDone { op_id, result })) = self
                .outputs
                .recv_timeout(remaining.min(Duration::from_millis(50)))
            {
                if op_id == op {
                    return Ok(result);
                }
                self.stash_result(op_id, result);
            }
        }
    }

    /// Parks a result for whichever caller is waiting on it, evicting
    /// entries nobody claimed within an op-timeout (their waiter already
    /// gave up, or a retry produced a duplicate answer).
    fn stash_result(&self, op_id: u64, result: ClientResult) {
        let now = Instant::now();
        let mut done = self.done.lock();
        let before = done.len();
        done.retain(|_, (at, _)| now.duration_since(*at) < self.op_timeout);
        let evicted = before - done.len();
        if evicted > 0 {
            self.results_evicted
                .fetch_add(evicted as u64, Ordering::SeqCst);
            self.telemetry
                .count("client.results_evicted", evicted as f64);
        }
        done.insert(op_id, (now, result));
    }

    /// Inserts a fresh object from a process on `node`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeDown`] if the machine is crashed;
    /// [`ClusterError::Timeout`] if no response arrives in time.
    pub fn insert(&self, node: u32, fields: Vec<Value>) -> Result<ObjectId, ClusterError> {
        let id = {
            let mut next = self.next_obj.lock();
            let seq = *next;
            *next += 1;
            ObjectId::new(ProcessId(node as u64), seq)
        };
        let object = PasoObject::new(id, fields);
        match self.run_op(node, ClientOp::Insert { object })? {
            ClientResult::Inserted => Ok(id),
            ClientResult::Unavailable => Err(ClusterError::Unavailable),
            other => panic!("insert returned {other:?}"),
        }
    }

    /// Non-blocking `read` from a process on `node`.
    ///
    /// # Errors
    ///
    /// See [`Cluster::insert`].
    pub fn read(&self, node: u32, sc: SearchCriterion) -> Result<Option<PasoObject>, ClusterError> {
        Ok(self
            .run_op(
                node,
                ClientOp::Read {
                    sc,
                    blocking: false,
                },
            )?
            .object()
            .cloned())
    }

    /// Non-blocking `read&del` from a process on `node`.
    ///
    /// # Errors
    ///
    /// See [`Cluster::insert`].
    pub fn read_del(
        &self,
        node: u32,
        sc: SearchCriterion,
    ) -> Result<Option<PasoObject>, ClusterError> {
        Ok(self
            .run_op(
                node,
                ClientOp::ReadDel {
                    sc,
                    blocking: false,
                },
            )?
            .object()
            .cloned())
    }

    /// Blocking `read&del` (waits server-side until a match appears or the
    /// configured deadline passes).
    ///
    /// # Errors
    ///
    /// See [`Cluster::insert`].
    pub fn take_blocking(
        &self,
        node: u32,
        sc: SearchCriterion,
    ) -> Result<Option<PasoObject>, ClusterError> {
        Ok(self
            .run_op(node, ClientOp::ReadDel { sc, blocking: true })?
            .object()
            .cloned())
    }

    /// Crashes a machine: its thread erases all server state and drops
    /// traffic until recovered. Peers are notified by the membership
    /// oracle (this controller).
    pub fn crash(&self, node: u32) {
        let target = NodeId(node);
        self.down.lock().insert(target);
        self.telemetry.count("fault.crashes", 1.0);
        self.trace.record(
            self.epoch.elapsed().as_micros() as u64,
            node,
            TraceKind::Crash,
        );
        self.postman.send(target, Envelope::Crash);
        for i in 0..self.n as u32 {
            if i != node {
                self.postman.send(NodeId(i), Envelope::PeerCrashed(target));
            }
        }
    }

    /// Recovers a crashed machine: fresh state, then re-join with state
    /// transfer. The oracle briefs it about still-down peers.
    pub fn recover(&self, node: u32) {
        let target = NodeId(node);
        self.down.lock().remove(&target);
        self.telemetry.count("fault.recoveries", 1.0);
        self.trace.record(
            self.epoch.elapsed().as_micros() as u64,
            node,
            TraceKind::Recover,
        );
        self.postman.send(target, Envelope::Recover);
        let down = self.down.lock().clone();
        for d in down {
            self.postman.send(target, Envelope::PeerCrashed(d));
        }
        for i in 0..self.n as u32 {
            if i != node {
                self.postman
                    .send(NodeId(i), Envelope::PeerRecovered(target));
            }
        }
    }

    /// Stops all node threads and joins them.
    pub fn shutdown(&self) {
        for i in 0..self.n as u32 {
            self.postman.send(NodeId(i), Envelope::Shutdown);
        }
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
