//! # paso-proxy
//!
//! The serving tier: a **stateless front-end gateway** that terminates
//! many cheap client TCP connections and pipelines their operations into
//! the cluster's binary wire protocol (ROADMAP item 3, DESIGN.md §6h).
//!
//! The paper's adaptive algorithms tolerate λ faulty *servers*; the
//! proxy deliberately holds nothing the λ-argument would have to cover.
//! Every piece of its state is per-connection and dies with the
//! connection (auth status, pipelining windows) or is a pure function
//! of the deployment (the class table).
//! Losing a proxy loses connections, never data or A1–A3 legality.
//!
//! One proxy is one [`Proxy`]: a [`GatewayLink`] slot on the cluster
//! fabric, a [`FrameServer`] (the client listener and its connections),
//! and one logic thread that owns both. It reads and writes the client
//! sockets itself, so a client frame and its reply cost no hand-off
//! between threads; replies are written one `write` per client. Between
//! passes it parks on what can free it. While a server owes it answers
//! that is the mailbox alone, and client frames wait for the next pass:
//! this asymmetry is what lets ops gather behind a busy link instead of
//! leaving in single-op batches whenever a client frame wakes the loop.
//! Otherwise it parks on the mailbox and the client sockets in one
//! `ppoll`, or, while a runt batch is held, on the client sockets alone.
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
//!   wire frames. A link that `k` answers have just freed, with fewer
//!   than `k/2` ops behind it, holds them until half of the `k`
//!   clients' next ops have joined or `RUNT_HOLD` (200 µs) has passed:
//!   sent at once, such a runt would make those next ops wait a whole
//!   round trip behind it.
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
//!   `B(C)` down any live server is used. The route is advisory: any
//!   server executes any op by macro expansion (walking the whole
//!   `sc-list`), so a group that grew costs hops, never a wrong result.
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
use paso_runtime::{ClientEvent, ClientId, FrameServer, GatewayLink, Park};
use paso_simnet::NodeId;
use paso_telemetry::{metrics, Telemetry};

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

/// The longest the logic thread parks per loop pass. Bounds idle
/// wakeups without adding latency under load (the traffic it parks on
/// wakes it at once). Also the longest a batch waits for a busy link: a
/// server that has said nothing for this long is no longer waited for.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// The longest a runt batch is held for the ops that the answers which
/// freed its link will bring (see [`Link::due`]). A closed-loop client
/// sends its next op within tens of microseconds of an answer; an
/// open-loop one may not send at all, and this bounds what it pays.
const RUNT_HOLD: Duration = Duration::from_micros(200);

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
    /// Ops of this link finished since the last [`Link::due`] check.
    answered: usize,
    /// Set while a runt batch waits for the ops that answers will bring.
    hold: Option<Hold>,
    /// When a batch last left.
    last_flush: Instant,
}

/// A runt batch held on a link that answers have just freed.
#[derive(Clone, Copy, Debug)]
struct Hold {
    /// Pending ops at which the batch leaves: half the answers.
    want: usize,
    /// When it leaves however few ops it holds.
    until: Instant,
}

impl Link {
    fn new(now: Instant) -> Link {
        Link {
            pending: Vec::new(),
            pending_bytes: 0,
            unanswered: 0,
            answered: 0,
            hold: None,
            last_flush: now,
        }
    }

    /// Whether the pending batch leaves in this pass of the logic loop.
    ///
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
    ///
    /// One exception: when `k` answers have just freed the link and fewer
    /// than `k/2` ops wait behind it, the clients those answers went to
    /// are about to send their next ops, and a runt sent now would make
    /// all of them wait a round trip behind it. Under a closed loop that
    /// splits the clients into batch trains of their own, and how many
    /// trains form changes from run to run. So the runt is held until
    /// half of the `k` have joined it, or for `RUNT_HOLD`. A lone answer
    /// (`k = 1`) never holds anything.
    fn due(&mut self, now: Instant) -> bool {
        let answered = std::mem::take(&mut self.answered);
        if self.pending.is_empty() {
            return false;
        }
        if self.unanswered != 0 {
            return now.saturating_duration_since(self.last_flush) >= IDLE_PARK;
        }
        if self.pending.len() * 2 < answered {
            self.hold = Some(Hold {
                want: answered.div_ceil(2),
                until: now + RUNT_HOLD,
            });
            return false;
        }
        self.hold
            .is_none_or(|h| self.pending.len() >= h.want || now >= h.until)
    }
}

/// A running proxy: one logic thread owning the client sockets and the
/// gateway slot.
///
/// Dropping the proxy (or calling [`Proxy::shutdown`]) joins the logic
/// thread, which closes the listener and every client connection; the
/// gateway slot's mailbox goes with it.
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
        let server = FrameServer::bind(opts.max_client_frame, link.telemetry())?;
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

/// The logic thread: owns the client sockets, the gateway link, and
/// every map. Single-threaded on purpose — the proxy is a pipeline stage,
/// not a lock hierarchy.
struct Core {
    link: GatewayLink,
    telemetry: Arc<Telemetry>,
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
        let links = (0..link.servers()).map(|_| Link::new(now));
        Core {
            links: links.collect(),
            telemetry: link.telemetry(),
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
        // An empty batch admits nothing, but it opens this gateway's link
        // to every server before the first client op. Without it
        // `proxy_sat` reads ≈ 2 % more messages per op at a ≈ 5 % higher
        // p50 (10 alternating pairs, 9 worse), most likely because each
        // server then accepts the gateway's connection after its peers'
        // and reads it last in every poll round.
        for s in 0..self.link.servers() as u32 {
            self.link.send(s, &AppMsg::ClientBatch(Vec::new()));
        }
        let mut park = Park::Mailbox;
        // Whether the mailbox may hold what the last park did not see.
        let mut mail = true;
        while !self.stop.load(Ordering::SeqCst) {
            // 1. Fire expired deadlines (retries / TimedOut answers).
            self.fire_deadlines();
            // 2. Drain the gateway mailbox and send the answers: one
            //    write per client, and the sooner a closed-loop client
            //    has its answers, the sooner its next ops join the
            //    batches that are filling.
            if mail {
                while let Some((_, msg)) = self.link.try_recv() {
                    self.on_net(msg);
                }
            }
            self.server.flush();
            // 3. Read the client side; after the mailbox, so that the ops
            //    behind a link an answer has just freed leave in this
            //    pass. A park that left the client sockets out is made
            //    up for here.
            if park == Park::Mailbox {
                self.server.poll(Duration::ZERO);
            }
            while let Some(ev) = self.server.next_event() {
                self.on_client_event(ev);
            }
            // 4. Ship what accumulated behind every link that is free,
            //    and what the client side was answered (welcomes,
            //    denials, `Busy`).
            self.flush_all();
            self.server.flush();
            // 5. Park (see `Core::park`); an answer it brings goes out
            //    before anything else is looked at.
            let (next, timeout) = self.park();
            park = next;
            let got = self.link.wait(&mut self.server, park, timeout);
            mail = got.is_some() || park == Park::Clients;
            if let Some((_, msg)) = got {
                self.on_net(msg);
                self.server.flush();
            }
        }
    }

    /// What the loop parks on, and for how long.
    ///
    /// - **A runt is held:** the client sockets, until the hold ends —
    ///   they bring the ops it is held for.
    /// - **A link has unanswered ops:** the mailbox alone, as the answer
    ///   frees the link, and the client frames that arrive meanwhile are
    ///   read at the top of the next pass. This asymmetry is what batches
    ///   ops: woken by every client frame, the loop would find the
    ///   answers not yet in and the links of idle servers free, and send
    ///   them single-op batches (`proxy_sat` read 0.29–0.30 messages per
    ///   op that way, against 0.24–0.26).
    /// - **Otherwise** — nothing in flight, or only blocking reads a
    ///   server may hold for as long as it likes: both, in one `ppoll`,
    ///   so a client frame is read the moment it arrives. Auth handshakes
    ///   are latency-sensitive, and an op behind a parked blocking read
    ///   must not wait out `IDLE_PARK`.
    fn park(&self) -> (Park, Duration) {
        let held = self.links.iter().filter_map(|l| l.hold.map(|h| h.until));
        if let Some(until) = held.min() {
            (
                Park::Clients,
                until.saturating_duration_since(Instant::now()),
            )
        } else if self.links.iter().any(|l| l.unanswered != 0) {
            (Park::Mailbox, IDLE_PARK)
        } else {
            (Park::Both, IDLE_PARK)
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
                self.telemetry.count(metrics::PROXY_CLIENTS_ACCEPTED, 1.0);
                self.telemetry
                    .gauge(metrics::PROXY_CLIENTS_OPEN)
                    .set(self.conns.len() as f64);
            }
            ClientEvent::Disconnected(id) => {
                // In-flight ops keep running; their completions find the
                // client gone and are dropped at the send.
                self.conns.remove(&id);
                self.telemetry.count(metrics::PROXY_CLIENTS_CLOSED, 1.0);
                self.telemetry
                    .gauge(metrics::PROXY_CLIENTS_OPEN)
                    .set(self.conns.len() as f64);
            }
            ClientEvent::Frame(id, bytes) => {
                self.telemetry.count(metrics::PROXY_FRAMES_IN, 1.0);
                match try_decode::<ProxyClientFrame>(&bytes) {
                    Ok(frame) => self.on_client_frame(id, frame),
                    Err(_) => {
                        self.telemetry.count(metrics::WIRE_DECODE_ERROR, 1.0);
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
                    self.telemetry.count(metrics::PROXY_BACKPRESSURE, 1.0);
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
        self.telemetry.count(via.counter(), 1.0);
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
        self.telemetry.count(metrics::PROXY_OPS_FORWARDED, 1.0);
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
        link.hold = None;
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
        self.telemetry.count(metrics::PROXY_BATCH_FLUSHES, 1.0);
        self.telemetry
            .record(metrics::PROXY_BATCH_OPS, reqs.len() as u64);
        self.telemetry
            .record(metrics::PROXY_BATCH_BYTES, bytes as u64);
        self.link.send(server, &AppMsg::ClientBatch(reqs));
    }

    /// Ships every batch that is due (see [`Link::due`]).
    fn flush_all(&mut self) {
        let now = Instant::now();
        for s in 0..self.links.len() {
            if self.links[s].due(now) {
                self.flush(s as u32);
            }
        }
    }

    // ---- cluster side ----------------------------------------------

    fn on_net(&mut self, msg: AppMsg) {
        match msg {
            AppMsg::Done(done) => self.on_done(done.op_id, done.result),
            AppMsg::DoneBatch(dones) => {
                self.telemetry.count(metrics::PROXY_DONE_BATCHES, 1.0);
                for done in dones {
                    self.on_done(done.op_id, done.result);
                }
            }
            // Anything else addressed at a gateway is a stray.
            _ => self.telemetry.count(metrics::WIRE_DECODE_ERROR, 1.0),
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
            let link = &mut self.links[st.server as usize];
            link.unanswered -= 1;
            link.answered += 1;
        }
        self.telemetry.count(metrics::PROXY_OPS_COMPLETED, 1.0);
        let lat = st.issued.elapsed().as_micros() as u64;
        self.telemetry.record(metrics::PROXY_OP_LATENCY_MICROS, lat);
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
                self.telemetry.count(metrics::PROXY_RETRIES, 1.0);
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

    /// Sends a denial and kicks the connection; a kicked connection's
    /// queued replies are written before it closes.
    fn deny(&mut self, id: ClientId) {
        self.telemetry.count(metrics::PROXY_AUTH_DENIED, 1.0);
        self.reply(id, &ProxyServerFrame::Denied);
        self.server.kick(id);
    }

    /// Queues `frame` for the client's next write. A client whose reply
    /// buffer is full is kicked by the server; its ops in flight still
    /// finish, and their answers find it gone.
    fn reply(&mut self, id: ClientId, frame: &ProxyServerFrame) {
        let _ = self.server.send(id, &encode(frame));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{ObjectId, PasoObject, ProcessId, Value};

    /// A free link with `pending` ops queued and `answered` answers just
    /// taken off it.
    fn link(now: Instant, pending: u64, answered: usize) -> Link {
        let mut link = Link::new(now);
        link.pending = (0..pending)
            .map(|n| ClientRequest {
                op_id: n,
                op: ClientOp::Insert {
                    object: PasoObject::new(ObjectId::new(ProcessId(0), n), vec![Value::Int(0)]),
                },
            })
            .collect();
        link.answered = answered;
        link
    }

    #[test]
    fn a_lone_answer_never_holds_the_next_op() {
        let now = Instant::now();
        assert!(link(now, 1, 1).due(now));
        assert!(link(now, 1, 0).due(now));
        assert!(!link(now, 0, 1).due(now), "nothing to send");
    }

    #[test]
    fn a_runt_waits_for_half_of_the_answered_clients() {
        let now = Instant::now();
        let mut l = link(now, 3, 16);
        assert!(!l.due(now), "3 ops behind 16 answers are a runt");
        l.pending.extend(link(now, 4, 0).pending);
        assert!(!l.due(now), "7 of the 8 it waits for");
        l.pending.extend(link(now, 1, 0).pending);
        assert!(l.due(now), "half of the 16 have joined");
    }

    #[test]
    fn a_held_runt_leaves_when_its_hold_runs_out() {
        let now = Instant::now();
        let mut l = link(now, 3, 16);
        assert!(!l.due(now));
        assert!(!l.due(now + RUNT_HOLD / 2));
        assert!(l.due(now + RUNT_HOLD));
    }

    #[test]
    fn a_batch_of_half_the_answers_leaves_at_once() {
        let now = Instant::now();
        assert!(link(now, 8, 16).due(now));
        assert!(link(now, 1, 2).due(now));
    }

    #[test]
    fn a_busy_link_waits_for_its_answer_or_idle_park() {
        let now = Instant::now();
        let mut l = link(now, 3, 0);
        l.unanswered = 2;
        assert!(!l.due(now));
        assert!(l.due(now + IDLE_PARK), "a silent server is not waited for");
    }
}
