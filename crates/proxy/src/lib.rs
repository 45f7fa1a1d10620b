//! # paso-proxy
//!
//! The serving tier: a **stateless front-end gateway** that terminates
//! many cheap client TCP connections and pipelines their operations into
//! the cluster's binary wire protocol (ROADMAP item 3, DESIGN.md §6h).
//!
//! The paper's adaptive algorithms tolerate λ faulty *servers*; the
//! proxy deliberately holds nothing the λ-argument would have to cover.
//! Every piece of its state is per-connection and dies with the
//! connection (auth status, pipelining windows), is a pure function of
//! the deployment (the class table), or is a soft cache rebuilt from the
//! next gossip round (the class summaries).
//! Losing a proxy loses connections, never data or A1–A3 legality.
//!
//! One proxy is one [`Proxy`]: a reactor-backed
//! [`FrameServer`](paso_runtime::FrameServer) accepting clients, a
//! [`GatewayLink`] slot on the cluster fabric, and a single logic thread
//! marrying the two:
//!
//! * **Auth** — first client frame must be a
//!   [`ProxyClientFrame::Hello`] carrying `auth_token(tenant, secret)`;
//!   anything else is answered [`ProxyServerFrame::Denied`] and the
//!   connection is closed (the denial is flushed first).
//! * **Pipelining** — each connection may keep the cluster config's
//!   `proxy_pipeline_depth` ops outstanding; excess ops bounce with
//!   [`ProxyServerFrame::Busy`] instead of queueing unboundedly.
//! * **Batching** — group commit: an idle link sends now, a busy link
//!   coalesces. Admitted ops accumulate per target server and leave as
//!   one [`AppMsg::ClientBatch`] frame as soon as no non-blocking op
//!   sent to that server is still unanswered — at once, for a client
//!   with one op in flight — or when `BATCH_BYTES` (16 KiB) accumulate,
//!   or when the server has been silent for `IDLE_PARK` (1 ms: a crashed
//!   or stalled server holds nothing back); a retry leaves at once. So
//!   a batch is the ops that arrived during one round trip, whatever
//!   the round trip costs, and 10k trickling clients become a few dense
//!   wire frames.
//!   The server treats the batch as one unit of work: one gcast per
//!   write group, and the completions come back as one
//!   [`AppMsg::DoneBatch`] (a lone one as [`AppMsg::Done`]), fed op by
//!   op to the same completion path.
//! * **Routing** — class-affine. From the
//!   [`Deployment`](paso_core::Deployment) the servers were built from,
//!   the gateway holds the classifier and a table `C → B(C)`, and sends
//!   every op to a member of its class's write group, where §4 prices
//!   it lowest: an insert to the lowest-id live
//!   member of `B(obj-clss(o))` — the vsync leader, so the gcast is
//!   sequenced where it lands instead of being relayed there and back —
//!   a `read&del` to the leader of the first class of `sc-list(sc)`, a
//!   read to that class's live members in turn, each of which answers
//!   from its own replica with no cluster message at all. Liveness comes
//!   from the membership oracle ([`GatewayLink::is_up`]); with all of
//!   `B(C)` down any live server is used. Where servers gossip
//!   per-class `ClassSummary`s, the gateway keeps the latest per class;
//!   since every member of `wg(C)` holds the same objects a summary
//!   never picks the server, it only decides which class of a
//!   multi-class `sc-list` goes first. The route is advisory either
//!   way: any server executes any op by macro expansion, so a stale
//!   summary or a group that grew costs hops, never a wrong result.
//! * **Retries** — timed-out idempotent ops (inserts, non-blocking
//!   reads) are re-sent under the same op id to the same server, up to
//!   the cluster config's `client_retry_budget`; the servers'
//!   `recent_done` dedup cache, sized from the same two numbers
//!   (`PasoConfig::dedup_cache_ops`), replays instead of re-executing.
//!
//! Ops flowing through a proxy land in the *same* `client.op.*`
//! counters and A1–A3 trace stream as ops issued through the in-process
//! `Cluster` API — the proxy differential test holds the two paths to
//! identical totals and legality.

#![warn(missing_docs)]

mod client;
mod route;

pub use client::{read_frame, write_frame, ProxyClient, MAX_FRAME_BYTES};

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paso_core::{
    auth_token, encode, retry_slice, try_decode, AppMsg, ClientOp, ClientRequest, ClientResult,
    OpLedger, ProxyClientFrame, ProxyServerFrame,
};
use paso_runtime::{ClientEvent, ClientId, FrameServer, GatewayLink, TransportTuning};
use paso_simnet::NodeId;

use route::Router;

/// What one proxy instance is told beyond the cluster's own
/// configuration. The pipelining window and the retry budget are not
/// here: they are `proxy_pipeline_depth` and `client_retry_budget` of
/// the `PasoConfig` the cluster was started with, read through the
/// [`GatewayLink`], so the proxy's retry horizon is by construction the
/// one the servers sized their dedup caches for.
#[derive(Debug, Clone)]
pub struct ProxyOptions {
    /// Shared deployment secret clients must prove knowledge of
    /// (`auth_token(tenant, secret)`).
    pub secret: u64,
    /// Per-op deadline before the proxy answers `TimedOut` (sliced
    /// across retries exactly like the in-process client API).
    pub op_timeout: Duration,
    /// Cap on a single client frame; connections exceeding it are cut.
    pub max_client_frame: usize,
}

impl Default for ProxyOptions {
    fn default() -> Self {
        ProxyOptions {
            secret: 0,
            op_timeout: Duration::from_secs(10),
            max_client_frame: 1 << 20,
        }
    }
}

impl ProxyOptions {
    /// The default options under `secret`. Nothing is copied out of the
    /// configuration any more (see [`ProxyOptions`]); the parameter
    /// remains for the callers that pass it.
    pub fn from_config(_cfg: &paso_core::PasoConfig, secret: u64) -> Self {
        ProxyOptions {
            secret,
            ..ProxyOptions::default()
        }
    }
}

/// Size at which a per-server op batch leaves whatever the state of its
/// link: ops accumulate into one [`AppMsg::ClientBatch`] frame until
/// their encoded size reaches this many bytes.
const BATCH_BYTES: usize = 16 << 10;

/// How long the logic thread parks on the gateway mailbox per loop pass
/// when there is nothing else to do. Bounds idle wakeups without adding
/// meaningful latency under load (any traffic wakes it immediately).
/// Also the longest a batch waits for a busy link: a server that has
/// said nothing for this long is no longer waited for.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Per-connection state. Everything here dies with the connection.
struct ConnState {
    /// `Some(tenant)` once the `Hello` was accepted.
    tenant: Option<u64>,
    /// Op ids outstanding on this connection (the pipelining window).
    inflight: BTreeSet<u64>,
}

/// One admitted operation in flight toward the cluster.
struct OpState {
    client: ClientId,
    /// The client's connection-local sequence number, echoed in `Done`.
    seq: u64,
    /// Target server — retries go to the *same* server so its dedup
    /// cache sees the duplicate.
    server: u32,
    /// The request, kept verbatim for idempotent re-sends.
    req: ClientRequest,
    issued: Instant,
    /// Re-sends performed so far.
    attempts_used: u32,
    /// Counted in its link's `unanswered`: sent, and not a blocking op.
    holds_link: bool,
}

/// The gateway's side of its link to one server: the batch being filled
/// and what decides when it leaves.
struct Link {
    /// Requests for the next [`AppMsg::ClientBatch`].
    pending: Vec<ClientRequest>,
    /// Their encoded size so far.
    pending_bytes: usize,
    /// Non-blocking ops sent and not finished yet (answered or timed
    /// out). While there are any the server is still working on an
    /// earlier batch, and `pending` keeps filling behind it. A blocking
    /// read may wait at the server for as long as it likes, so it is
    /// never counted.
    unanswered: usize,
    /// When a batch last left.
    last_flush: Instant,
}

/// A running proxy: accept loop, logic thread, gateway slot.
///
/// Dropping the proxy (or calling [`Proxy::shutdown`]) closes every
/// client connection and joins the logic thread; the gateway slot's
/// mailbox drains with it.
pub struct Proxy {
    port: u16,
    node: NodeId,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("port", &self.port)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl Proxy {
    /// Binds a client listener and starts serving through the given
    /// gateway slot.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn start(link: GatewayLink, opts: ProxyOptions) -> io::Result<Proxy> {
        let server = FrameServer::bind(TransportTuning::default(), opts.max_client_frame)?;
        let port = server.port();
        let node = link.node_id();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("paso-proxy-{}", node.0))
            .spawn(move || Core::new(link, server, opts, flag).run())
            .expect("spawn proxy thread");
        Ok(Proxy {
            port,
            node,
            stop,
            handle: Some(handle),
        })
    }

    /// The client-facing TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The proxy's address on the cluster fabric.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Stops the logic thread, closing every client connection.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whether `op` may wait at its server until an object shows up.
fn blocks(op: &ClientOp) -> bool {
    matches!(
        op,
        ClientOp::Read { blocking: true, .. } | ClientOp::ReadDel { blocking: true, .. }
    )
}

/// The logic thread: owns the frame server, the gateway link, and every
/// map. Single-threaded on purpose — the proxy is a pipeline stage, not
/// a lock hierarchy.
struct Core {
    link: GatewayLink,
    ledger: OpLedger,
    server: FrameServer,
    opts: ProxyOptions,
    stop: Arc<AtomicBool>,
    conns: HashMap<ClientId, ConnState>,
    ops: HashMap<u64, OpState>,
    /// Deadline index: earliest next retry/timeout first.
    deadlines: BTreeSet<(Instant, u64)>,
    /// Per-server batching state.
    links: Vec<Link>,
    router: Router,
    /// Connection-lifetime-unique op ids: `(gateway NodeId) << 40 | ctr`,
    /// disjoint from the in-process client API's 0-based counter.
    next_op: u64,
}

impl Core {
    fn new(
        link: GatewayLink,
        server: FrameServer,
        opts: ProxyOptions,
        stop: Arc<AtomicBool>,
    ) -> Core {
        let now = Instant::now();
        let links = (0..link.servers()).map(|_| Link {
            pending: Vec::new(),
            pending_bytes: 0,
            unanswered: 0,
            last_flush: now,
        });
        Core {
            links: links.collect(),
            ledger: OpLedger::new(link.telemetry(), link.trace_buf()),
            router: Router::new(Arc::clone(link.deployment())),
            link,
            server,
            opts,
            stop,
            conns: HashMap::new(),
            ops: HashMap::new(),
            deadlines: BTreeSet::new(),
            next_op: 0,
        }
    }

    fn run(mut self) {
        // Subscription ping: an empty batch teaches every server this
        // gateway's address so summary gossip starts flowing our way.
        for s in 0..self.link.servers() as u32 {
            self.link.send(s, &AppMsg::ClientBatch(Vec::new()));
        }
        while !self.stop.load(Ordering::SeqCst) {
            // 1. Fire expired deadlines (retries / TimedOut answers).
            self.fire_deadlines();
            // 2. Drain the gateway mailbox, then the client side, without
            //    blocking; in that order, so that the ops behind a link
            //    an answer has just freed leave in this pass.
            while let Some((_, msg)) = self.link.try_recv() {
                self.on_net(msg);
            }
            while let Some(ev) = self.server.try_recv() {
                self.on_client_event(ev);
            }
            // 3. Ship what accumulated behind every link that is free.
            self.flush_all();
            // 4. Park on whichever side wakes the loop next. With ops in
            //    flight their completions arrive on the mailbox; with
            //    none, the only urgent traffic is new client frames
            //    (auth handshakes are latency-sensitive — a connect
            //    storm must not pay the park per Hello). The idle side
            //    tolerates one IDLE_PARK of staleness.
            if self.ops.is_empty() {
                if let Some(ev) = self.server.recv_timeout(IDLE_PARK) {
                    self.on_client_event(ev);
                }
            } else if let Some((_, msg)) = self.link.recv_timeout(IDLE_PARK) {
                self.on_net(msg);
            }
        }
    }

    // ---- client side ----------------------------------------------

    fn on_client_event(&mut self, ev: ClientEvent) {
        match ev {
            ClientEvent::Connected(id) => {
                self.conns.insert(
                    id,
                    ConnState {
                        tenant: None,
                        inflight: BTreeSet::new(),
                    },
                );
                self.count("proxy.clients.accepted", 1.0);
                self.set_gauge("proxy.clients.open", self.conns.len() as f64);
            }
            ClientEvent::Disconnected(id) => {
                // In-flight ops keep running; their completions find the
                // client gone and are dropped at the send.
                self.conns.remove(&id);
                self.count("proxy.clients.closed", 1.0);
                self.set_gauge("proxy.clients.open", self.conns.len() as f64);
            }
            ClientEvent::Frame(id, bytes) => {
                self.count("proxy.frames.in", 1.0);
                match try_decode::<ProxyClientFrame>(&bytes) {
                    Ok(frame) => self.on_client_frame(id, frame),
                    Err(_) => {
                        self.count("wire.decode.error", 1.0);
                        self.deny(id);
                    }
                }
            }
        }
    }

    fn on_client_frame(&mut self, id: ClientId, frame: ProxyClientFrame) {
        match frame {
            ProxyClientFrame::Hello { tenant, token } => {
                let authed = self.conns.get(&id).is_some_and(|c| c.tenant.is_some());
                if authed || token != auth_token(tenant, self.opts.secret) {
                    self.deny(id);
                    return;
                }
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.tenant = Some(tenant);
                }
                self.reply(id, &ProxyServerFrame::Welcome);
            }
            ProxyClientFrame::Op { seq, op } => {
                let (authed, window_full) = match self.conns.get(&id) {
                    Some(c) => (
                        c.tenant.is_some(),
                        c.inflight.len() >= self.link.config().proxy_pipeline_depth,
                    ),
                    None => return,
                };
                if !authed {
                    // Ops before Hello are an auth failure, not traffic.
                    self.deny(id);
                    return;
                }
                if window_full {
                    self.count("proxy.backpressure", 1.0);
                    self.reply(id, &ProxyServerFrame::Busy { seq });
                    return;
                }
                self.admit(id, seq, op);
            }
        }
    }

    /// Admits one op: assigns its cluster-wide id, does the issue-time
    /// accounting (identical to the in-process client API), routes it,
    /// and queues it for the next batch flush.
    fn admit(&mut self, id: ClientId, seq: u64, op: ClientOp) {
        let op_id = (u64::from(self.link.node_id().0) << 40) | self.next_op;
        self.next_op += 1;
        let node = self.link.node_id().0;
        self.ledger.begin(self.link.now_micros(), node, op_id, &op);
        let (server, via) = self.router.route(&op, |s| self.link.is_up(s));
        self.count(via.counter(), 1.0);
        let req = ClientRequest { op_id, op };
        let now = Instant::now();
        let st = OpState {
            client: id,
            seq,
            server,
            req,
            issued: now,
            attempts_used: 0,
            holds_link: false,
        };
        self.deadlines.insert((now + self.slice_of(&st), op_id));
        let req = st.req.clone();
        // Before `enqueue`: a flush looks the op up to count it.
        self.ops.insert(op_id, st);
        self.enqueue(server, req);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inflight.insert(op_id);
        }
    }

    // ---- batching --------------------------------------------------

    fn enqueue(&mut self, server: u32, req: ClientRequest) {
        self.count("proxy.ops.forwarded", 1.0);
        let link = &mut self.links[server as usize];
        link.pending_bytes += paso_wire::Wire::encoded_len(&req);
        link.pending.push(req);
        if link.pending_bytes >= BATCH_BYTES {
            self.flush(server);
        }
    }

    /// Ships `server`'s pending batch, which is not empty.
    fn flush(&mut self, server: u32) {
        let link = &mut self.links[server as usize];
        let reqs = std::mem::take(&mut link.pending);
        let bytes = std::mem::take(&mut link.pending_bytes);
        link.last_flush = Instant::now();
        for req in &reqs {
            // A retry finds its op counted already; an op that timed out
            // while it waited here is gone.
            if let Some(st) = self.ops.get_mut(&req.op_id) {
                if !st.holds_link && !blocks(&req.op) {
                    st.holds_link = true;
                    link.unanswered += 1;
                }
            }
        }
        self.count("proxy.batch.flushes", 1.0);
        self.record("proxy.batch.ops", reqs.len() as u64);
        self.record("proxy.batch.bytes", bytes as u64);
        self.link.send(server, &AppMsg::ClientBatch(reqs));
    }

    /// Group commit: an idle link sends now, a busy one coalesces. A
    /// server's batch leaves when nothing sent to it is unanswered, so at
    /// a window of one every op still leaves the moment it arrives;
    /// otherwise it fills until the answer comes back (or `BATCH_BYTES`
    /// accumulate, see `enqueue`) and one frame, one gcast and one
    /// `DoneBatch` then carry all of it. How many ops share a frame is
    /// thus the number that arrive per round trip — not, as when every
    /// pass flushed, per pass of this loop. A server silent for
    /// `IDLE_PARK` is not waited for: ops sent to a crashed one are in
    /// nobody's way, and each times out at its own deadline.
    fn flush_all(&mut self) {
        for s in 0..self.links.len() {
            let link = &self.links[s];
            let free = || link.unanswered == 0 || link.last_flush.elapsed() >= IDLE_PARK;
            if !link.pending.is_empty() && free() {
                self.flush(s as u32);
            }
        }
    }

    // ---- cluster side ----------------------------------------------

    fn on_net(&mut self, msg: AppMsg) {
        match msg {
            AppMsg::Done(done) => self.on_done(done.op_id, done.result),
            AppMsg::DoneBatch(dones) => {
                self.count("proxy.done_batches", 1.0);
                for done in dones {
                    self.on_done(done.op_id, done.result);
                }
            }
            AppMsg::SummaryGossip { summaries } => {
                self.count("proxy.gossip.recv", 1.0);
                self.router.learn(summaries);
            }
            // Anything else addressed at a gateway is a stray.
            _ => self.count("wire.decode.error", 1.0),
        }
    }

    fn on_done(&mut self, op_id: u64, result: ClientResult) {
        let Some(st) = self.ops.remove(&op_id) else {
            // A retry's duplicate answer — the first one already went
            // back to the client.
            self.ledger.duplicate_answer();
            return;
        };
        self.deadlines.remove(&(
            st.issued + self.slice_of(&st) * (st.attempts_used + 1),
            op_id,
        ));
        self.finish(st, result);
    }

    /// The per-attempt wait for one op (as in the in-process client API).
    fn slice_of(&self, st: &OpState) -> Duration {
        let budget = self.link.config().retry_budget_for(&st.req.op);
        retry_slice(self.opts.op_timeout, budget)
    }

    /// Completes one op toward the client: latency + trace + reply.
    fn finish(&mut self, st: OpState, result: ClientResult) {
        if st.holds_link {
            self.links[st.server as usize].unanswered -= 1;
        }
        self.count("proxy.ops.completed", 1.0);
        let lat = st.issued.elapsed().as_micros() as u64;
        self.record("proxy.op.latency_micros", lat);
        self.ledger.end(
            self.link.now_micros(),
            self.link.node_id().0,
            st.req.op_id,
            st.req.op.kind(),
            lat,
            result.outcome(),
        );
        if let Some(conn) = self.conns.get_mut(&st.client) {
            conn.inflight.remove(&st.req.op_id);
        }
        self.reply(
            st.client,
            &ProxyServerFrame::Done {
                seq: st.seq,
                result,
            },
        );
    }

    // ---- deadlines -------------------------------------------------

    fn fire_deadlines(&mut self) {
        let now = Instant::now();
        loop {
            let Some(&(at, op_id)) = self.deadlines.iter().next() else {
                return;
            };
            if at > now {
                return;
            }
            self.deadlines.remove(&(at, op_id));
            let Some(st) = self.ops.get_mut(&op_id) else {
                continue; // already completed
            };
            let budget = self.link.config().retry_budget_for(&st.req.op);
            if st.attempts_used < budget {
                st.attempts_used += 1;
                let (server, req) = (st.server, st.req.clone());
                let slice = retry_slice(self.opts.op_timeout, budget);
                self.deadlines
                    .insert((st.issued + slice * (st.attempts_used + 1), op_id));
                self.count("proxy.retries", 1.0);
                self.ledger.retried();
                // Same op id, same server: the dedup cache turns a
                // merely-slow first execution into a replay. It leaves
                // at once: the link it would wait for is the one that
                // has just failed to answer it.
                self.enqueue(server, req);
                self.flush(server);
            } else {
                let st = self.ops.remove(&op_id).expect("checked above");
                self.finish(st, ClientResult::TimedOut);
            }
        }
    }

    // ---- plumbing --------------------------------------------------

    /// Sends a denial and kicks the connection; the kick-drain ordering
    /// in the reactor guarantees the denial still reaches the wire.
    fn deny(&mut self, id: ClientId) {
        self.count("proxy.auth.denied", 1.0);
        self.reply(id, &ProxyServerFrame::Denied);
        self.server.kick(id);
    }

    fn reply(&mut self, id: ClientId, frame: &ProxyServerFrame) {
        let _ = self.server.send(id, encode(frame));
    }

    fn count(&self, name: &'static str, delta: f64) {
        self.link.telemetry().count(name, delta);
    }

    fn set_gauge(&self, name: &'static str, value: f64) {
        self.link.telemetry().gauge(name).set(value);
    }

    fn record(&self, name: &'static str, value: u64) {
        self.link.telemetry().record(name, value);
    }
}
