//! The live PASO cluster: one thread per machine, a membership-oracle
//! controller, and a synchronous client API.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use paso_core::{
    encode, retry_slice, AppMsg, ClientDone, ClientOp, ClientRequest, ClientResult, Deployment,
    OpLedger, PasoConfig, WalMedium,
};
use paso_durable::DurabilityHub;
use paso_simnet::{FaultPlan, NodeId};
use paso_telemetry::{metrics, Outcome, Telemetry, TraceBuf, TraceEvent, TraceKind};
use paso_types::{ObjectId, PasoObject, ProcessId, SearchCriterion, Value};
use paso_vsync::NetMsg;

use crate::completions::Completions;
use crate::frame_server::FrameServer;
use crate::ledger::{ClusterStats, Ledger};
use crate::node::run_node;
use crate::transport::{
    ChannelTransport, Envelope, Mailbox, Postman, TcpTransport, TransportTuning,
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
    deployment: Arc<Deployment>,
    postman: Arc<dyn Postman>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Where the node threads put finished ops. Entries nobody claims
    /// within an op-timeout belong to dead waiters (the op already
    /// returned `Timeout`, or a retry double-answered) and are evicted.
    completions: Arc<Completions>,
    /// The membership oracle's record of crashed machines. Gateway links
    /// share it (see [`GatewayLink::is_up`]).
    down: Arc<Mutex<BTreeSet<NodeId>>>,
    next_op: Mutex<u64>,
    next_obj: Mutex<u64>,
    op_timeout: Duration,
    /// Where everything this cluster counts or traces lives; the
    /// transport, the node threads and every gateway link share it.
    ledger: Arc<Ledger>,
    ops: OpLedger,
    /// Unclaimed gateway attachment points (`cfg.proxy_slots` of them),
    /// indexed by slot. `Cluster::gateway_link` takes one.
    gateway_mail: Mutex<Vec<Option<Box<dyn Mailbox>>>>,
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
///
/// A gateway is in the membership oracle's audience, but not by mail:
/// where a server is sent `PeerCrashed`/`PeerRecovered` envelopes, the
/// link reads the oracle's own record ([`GatewayLink::is_up`]), the one
/// [`Cluster`]'s client API consults before it names a machine. A copy
/// kept current by envelopes would trail the oracle by a mailbox drain
/// (and a socket, on TCP), and every op routed in that window would go
/// to a dead machine and time out.
pub struct GatewayLink {
    node: NodeId,
    deployment: Arc<Deployment>,
    postman: Arc<dyn Postman>,
    mailbox: Box<dyn Mailbox>,
    ledger: Arc<Ledger>,
    down: Arc<Mutex<BTreeSet<NodeId>>>,
}

impl fmt::Debug for GatewayLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatewayLink")
            .field("node", &self.node)
            .field("servers", &self.servers())
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
        self.config().n
    }

    /// The cluster's configuration — a gateway takes its pipelining
    /// window and retry budget from here, the same numbers the servers
    /// sized their dedup caches for.
    pub fn config(&self) -> &PasoConfig {
        self.deployment.config()
    }

    /// What the cluster's nodes were built from — the classifier and the
    /// basic-support table `B(C)` a gateway routes by are the servers'
    /// own, not a second derivation.
    pub fn deployment(&self) -> &Arc<Deployment> {
        &self.deployment
    }

    /// Whether the membership oracle has `server` as operational: false
    /// from the moment [`Cluster::crash`] is called until
    /// [`Cluster::recover`] is.
    pub fn is_up(&self, server: u32) -> bool {
        !self.down.lock().contains(&NodeId(server))
    }

    /// Sends one application message to a memory server, stamped with
    /// the gateway's own address so the server can answer with
    /// [`AppMsg::Done`] (and learn the gateway for summary gossip).
    pub fn send(&self, server: u32, msg: &AppMsg) {
        debug_assert!((server as usize) < self.servers(), "not a server id");
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
            if let Some(got) = self.app_msg(self.mailbox.recv_timeout(remaining)?) {
                return Some(got);
            }
        }
    }

    /// The next application message if one is already waiting — what
    /// [`GatewayLink::recv_timeout`] with a zero timeout returns, without
    /// reading the clock for a deadline nobody will wait for.
    pub fn try_recv(&self) -> Option<(NodeId, AppMsg)> {
        loop {
            if let Some(got) = self.app_msg(self.mailbox.try_recv()?) {
                return Some(got);
            }
        }
    }

    /// Parks the gateway's logic thread until what `park` names has
    /// something for it, or `timeout` runs out, and returns the
    /// application message that woke it, if one did; what the client
    /// sockets yielded is in [`FrameServer::next_event`]. With
    /// [`Park::Both`], mailbox and client sockets share one `ppoll`, so
    /// the thread handles no fd of its own.
    pub fn wait(
        &self,
        clients: &mut FrameServer,
        park: Park,
        timeout: Duration,
    ) -> Option<(NodeId, AppMsg)> {
        let envelope = match park {
            Park::Mailbox => self.mailbox.recv_timeout(timeout),
            Park::Clients => {
                clients.poll(timeout);
                None
            }
            Park::Both => {
                let got = self.mailbox.recv_or_ready(clients.interest(), timeout);
                clients.absorb();
                got
            }
        };
        self.app_msg(envelope?)
    }

    /// The application message inside `envelope`. The oracle does not
    /// mail gateways (see `is_up`); any envelope other than an app frame
    /// (a stray control message) is ignored, an undecodable one counted.
    fn app_msg(&self, envelope: Envelope) -> Option<(NodeId, AppMsg)> {
        let Envelope::Net {
            from,
            msg: NetMsg::App(bytes),
        } = envelope
        else {
            return None;
        };
        let msg = paso_core::decode::<AppMsg>(&bytes);
        if msg.is_none() {
            self.ledger
                .telemetry()
                .count(metrics::WIRE_DECODE_ERROR, 1.0);
        }
        Some((from, msg?))
    }

    /// The cluster's shared metrics registry.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(self.ledger.telemetry())
    }

    /// The cluster's shared structured trace stream.
    pub fn trace_buf(&self) -> Arc<TraceBuf> {
        Arc::clone(self.ledger.trace_buf())
    }

    /// Micros since cluster start — the timebase every trace event in
    /// the shared stream uses.
    pub fn now_micros(&self) -> u64 {
        self.ledger.now_micros()
    }
}

/// What a gateway's logic thread parks on between passes
/// ([`GatewayLink::wait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// The mailbox alone: the client sockets wait for the next pass.
    Mailbox,
    /// The client sockets alone (they are also read and written).
    Clients,
    /// Both, in one `ppoll`.
    Both,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.n())
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
        let deployment = Arc::new(Deployment::new(cfg, WalMedium::Configured));
        let cfg = deployment.config();
        let n = cfg.n;
        let tuning = TransportTuning {
            fault_seed: cfg.seed,
            ..TransportTuning::default()
        };
        // The transport is sized for the servers *plus* the configured
        // gateway slots: gateways are ordinary peers on the fabric, they
        // just run a proxy front half instead of a memory server.
        let total = n + cfg.proxy_slots;
        // The ledger comes first: whatever counts is built over it.
        let ledger = Ledger::new();
        fn boxed<M: Mailbox + 'static>(m: Vec<M>) -> Vec<Box<dyn Mailbox>> {
            m.into_iter().map(|m| Box::new(m) as _).collect()
        }
        let (postman, mut mailboxes): (Arc<dyn Postman>, _) = match kind {
            TransportKind::Channel => {
                let (p, m) = ChannelTransport::with_tuning(total, tuning, &ledger);
                (p, boxed(m))
            }
            TransportKind::Tcp => {
                let (p, m) = TcpTransport::with_tuning(total, tuning, &ledger);
                (p, boxed(m))
            }
        };
        let gateway_mail = mailboxes.split_off(n).into_iter().map(Some).collect();
        postman.set_fault_plan(plan);
        let completions = Arc::new(Completions::new(Arc::clone(ledger.telemetry())));
        let mut handles = Vec::with_capacity(n);
        for (i, mailbox) in mailboxes.into_iter().enumerate() {
            let node = NodeId(i as u32);
            let deployment = Arc::clone(&deployment);
            let postman = Arc::clone(&postman);
            let completions = Arc::clone(&completions);
            let ledger = Arc::clone(&ledger);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("paso-node-{i}"))
                    .spawn(move || {
                        run_node(
                            node,
                            n,
                            |id| deployment.node(id),
                            mailbox,
                            postman,
                            |ClientDone { op_id, result }| completions.complete(op_id, result),
                            &ledger,
                        );
                    })
                    .expect("spawn node thread"),
            );
        }
        Cluster {
            postman,
            handles: Mutex::new(handles),
            completions,
            down: Arc::new(Mutex::new(BTreeSet::new())),
            next_op: Mutex::new(0),
            next_obj: Mutex::new(0),
            op_timeout: Duration::from_secs(10),
            ops: OpLedger::new(
                Arc::clone(ledger.telemetry()),
                Arc::clone(ledger.trace_buf()),
            ),
            ledger,
            gateway_mail: Mutex::new(gateway_mail),
            deployment,
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
            node: NodeId((self.n() + slot) as u32),
            deployment: Arc::clone(&self.deployment),
            postman: Arc::clone(&self.postman),
            mailbox,
            ledger: Arc::clone(&self.ledger),
            down: Arc::clone(&self.down),
        }
    }

    /// The shared durability hub, when `cfg.durable` is set — exposes
    /// per-node WAL byte accounting for experiments.
    pub fn durability_hub(&self) -> Option<&Arc<DurabilityHub>> {
        self.deployment.durability_hub()
    }

    /// Number of machines.
    pub fn n(&self) -> usize {
        self.deployment.config().n
    }

    /// Overrides the client-side operation timeout (default 10s). The
    /// retry budget slices this deadline across attempts, so shortening
    /// it also tightens the retry cadence — useful in fault tests.
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
    }

    /// Cluster-wide counters: node totals, transport message-path
    /// accounting, and client retry/eviction activity — each one read
    /// from the registry counter of the same name.
    pub fn stats(&self) -> ClusterStats {
        self.ledger.cluster_stats()
    }

    /// The unified metrics registry. The transport, the node threads and
    /// the client API all count straight into it, under the same metric
    /// names the simnet engine uses, so a handle taken at any time — this
    /// one or a [`GatewayLink`]'s — always reads current totals.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(self.ledger.telemetry())
    }

    /// The structured trace stream (op begin/end, view changes, gcast
    /// fan-outs, fault injections), timestamped in micros since cluster
    /// start.
    pub fn trace_buf(&self) -> Arc<TraceBuf> {
        Arc::clone(self.ledger.trace_buf())
    }

    /// Snapshot of all trace events recorded so far, in arrival order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.ledger.trace_buf().events()
    }

    /// Installs (replaces) the transport's fault-injection plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.postman.set_fault_plan(plan);
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
        let kind = op.kind();
        let budget = self.deployment.config().retry_budget_for(&op);
        self.completions.evict_unclaimed(self.op_timeout);
        self.ops.begin(self.ledger.now_micros(), node, op_id, &op);
        let issued = Instant::now();
        let result = self.run_op_inner(node, budget, ClientRequest { op_id, op });
        self.ops.end(
            self.ledger.now_micros(),
            node,
            op_id,
            kind,
            issued.elapsed().as_micros() as u64,
            result
                .as_ref()
                .map_or(Outcome::Error, ClientResult::outcome),
        );
        result
    }

    fn run_op_inner(
        &self,
        node: u32,
        budget: u32,
        req: ClientRequest,
    ) -> Result<ClientResult, ClusterError> {
        self.send_request(node, &req);
        let slice = retry_slice(self.op_timeout, budget);
        for attempt in 0..=budget {
            if let Some(result) = self.completions.wait(req.op_id, slice) {
                return Ok(result);
            }
            // The issuing machine may have crashed while we waited; a
            // re-send would be dropped on the floor. Keep waiting out the
            // remaining slices in case the original execution's answer is
            // still in flight.
            if attempt < budget && !self.down.lock().contains(&NodeId(node)) {
                self.ops.retried();
                self.send_request(node, &req);
            }
        }
        Err(ClusterError::Timeout)
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
        self.ledger.telemetry().count(metrics::FAULT_CRASHES, 1.0);
        self.ledger.trace(node, TraceKind::Crash);
        self.postman.send(target, Envelope::Crash);
        for i in 0..self.n() as u32 {
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
        self.ledger
            .telemetry()
            .count(metrics::FAULT_RECOVERIES, 1.0);
        self.ledger.trace(node, TraceKind::Recover);
        self.postman.send(target, Envelope::Recover);
        let down = self.down.lock().clone();
        for d in down {
            self.postman.send(target, Envelope::PeerCrashed(d));
        }
        for i in 0..self.n() as u32 {
            if i != node {
                self.postman
                    .send(NodeId(i), Envelope::PeerRecovered(target));
            }
        }
    }

    /// Stops all node threads and joins them.
    pub fn shutdown(&self) {
        for i in 0..self.n() as u32 {
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
