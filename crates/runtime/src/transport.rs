//! Transports for the live cluster.
//!
//! The runtime runs one OS thread per machine; threads exchange binary
//! frames either over in-process crossbeam channels ([`ChannelTransport`])
//! or over real localhost TCP sockets ([`TcpTransport`]) — the "local
//! multi-process evaluation" substitute for the paper's Ethernet LAN. Both
//! present the same [`Mailbox`] / [`Postman`] interface to the node loop.
//!
//! A TCP frame is a varint length prefix followed by a paso-wire encoded
//! [`Envelope`] — the same codec the simulator charges `α + β·|m|` for, so
//! live bytes-on-the-wire match simulated message sizes.
//!
//! ## Event-driven I/O core
//!
//! A node's [`TcpMailbox`] owns its listener and every connection
//! accepted on it, and the node's own thread reads them: one `ppoll`
//! over them when it asks for the next envelope and none is decoded
//! yet, incremental reads into one reusable buffer per connection. The
//! paper's `α` (per-message overhead) is what this buys down: a send is
//! a queue push and, when that finds the link idle, the `writev` itself,
//! from the sending thread; the receiving thread reads it — no hand-off
//! on either side. One background I/O thread per transport (the
//! [`reactor`](crate::reactor) module: a hand-rolled `ppoll` loop, no
//! async runtime) dials the peers and finishes what a sender could not
//! write, whatever the peer count. On a busy link the frame joins the
//! queue and leaves in a vectored batch of refcounted frames with zero
//! per-send payload copies (who may read or write a socket, and the lock
//! order, are in the reactor's module docs).
//!
//! ## Failure path and fault injection
//!
//! Every `(sender, receiver)` link owns a *bounded* frame queue
//! ([`reactor::OutConn`](crate::reactor)). Nothing reads for a busy
//! node: its backlog waits in its socket buffers, then in these queues,
//! and overflow is dropped and counted — a flooding peer cannot grow the
//! receiver's memory. The I/O thread dials with capped exponential
//! backoff, so a dead or blackholed peer can never head-of-line-block
//! sends to healthy peers; the send path only ever performs a
//! non-blocking push and, on an idle dialed link, a non-blocking write.
//! Frames that don't fit the bounded queue are dropped and **accounted**
//! in [`NetStats::msgs_dropped`] — nothing is silently swallowed. Whoever
//! writes coalesces the queued frames into one capped `writev` syscall,
//! so one slow reader cannot balloon memory, and `bytes_sent` counts
//! only frames fully written to a live, connected socket.
//!
//! Both transports consult a [`FaultPlan`] (shared with `paso-simnet`'s
//! fault module) on every **network** envelope: per-link drop probability,
//! per-link delay distribution, and partition sets. Controller traffic
//! (crash/recover/membership, i.e. the oracle) always passes — the paper's
//! failure detector is assumed reliable. The pass-through plan takes a
//! single lock-and-check per send and consumes no randomness, so fault
//! injection is pay-for-what-you-use.

use std::collections::{BinaryHeap, HashMap};
use std::net::TcpListener;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use paso_simnet::{FaultPlan, LinkFate, NodeId};
use paso_telemetry::{metrics, Telemetry, TraceKind};
use paso_vsync::NetMsg;
use paso_wire::Wire;

use crate::ledger::{Ledger, NetStats};
use crate::reactor::{drain_wake_pipe, ppoll, wake_pipe, Frame, Inbound, OutConn, Reactor};

/// An envelope routed between nodes (or from the cluster controller).
#[derive(Debug, Clone)]
pub enum Envelope {
    /// Network traffic from a peer node.
    Net {
        /// Sender.
        from: NodeId,
        /// Payload.
        msg: NetMsg,
    },
    /// Controller command: crash this node (erase state).
    Crash,
    /// Controller command: recover this node (fresh state, rejoin).
    Recover,
    /// Membership-oracle notification.
    PeerCrashed(
        /// The crashed peer.
        NodeId,
    ),
    /// Membership-oracle notification.
    PeerRecovered(
        /// The recovered peer.
        NodeId,
    ),
    /// Controller command: exit the node thread.
    Shutdown,
}

paso_wire::wire_enum!(Envelope {
    0 => Net { from, msg },
    1 => Crash,
    2 => Recover,
    3 => PeerCrashed(node),
    4 => PeerRecovered(node),
    5 => Shutdown,
});

/// Receiving side owned by one node thread.
pub trait Mailbox: Send {
    /// Blocks up to `timeout` for the next envelope.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.recv_or_ready(&mut [], timeout)
    }

    /// The next envelope if one is already waiting: `recv_timeout` with
    /// a zero timeout.
    fn try_recv(&self) -> Option<Envelope> {
        self.recv_timeout(Duration::ZERO)
    }

    /// [`Mailbox::recv_timeout`] that also returns — `None` if nothing
    /// arrived — once one of `extra`'s fds is ready (its `revents` set):
    /// one park over the mailbox and the caller's own sockets. Only a
    /// return on which one of the mailbox's own sockets was ready counts
    /// in `net.poll.wakeups`.
    fn recv_or_ready(&self, extra: &mut [libc::pollfd], timeout: Duration) -> Option<Envelope>;
}

/// Sending side, cloneable, shared by all node threads and the controller.
pub trait Postman: Send + Sync {
    /// Delivers an envelope to `to`'s mailbox. Delivery to a live node is
    /// reliable and per-sender FIFO (absent injected faults); failures are
    /// *accounted* in [`Postman::net_stats`] rather than silently
    /// swallowed (a crashed node drops traffic, exactly as the
    /// simulator's bus does).
    fn send(&self, to: NodeId, envelope: Envelope);

    /// Delivers one envelope to several mailboxes (a gcast fan-out). The
    /// default clones per target; transports that serialize override this
    /// to encode the frame **once** and share the bytes across all copies.
    fn send_shared(&self, targets: &[NodeId], envelope: Envelope) {
        for &to in targets {
            self.send(to, envelope.clone());
        }
    }

    /// Installs (replaces) the fault-injection plan consulted on every
    /// network envelope.
    fn set_fault_plan(&self, plan: FaultPlan);

    /// Message-path counters, read from the registry the transport was
    /// built over.
    fn net_stats(&self) -> NetStats;
}

/// Tuning for the live transports' failure path.
#[derive(Debug, Clone)]
pub struct TransportTuning {
    /// Depth of each per-connection bounded send queue; overflow frames
    /// are dropped and counted, never buffered without bound.
    pub queue_depth: usize,
    /// Artificial latency added to every dial — emulates a SYN blackhole
    /// (firewalled peer) in tests. Zero in production.
    pub dial_stall: Duration,
    /// Seed for the fault-injection RNG, so injected drop/delay schedules
    /// replay identically.
    pub fault_seed: u64,
}

impl Default for TransportTuning {
    fn default() -> Self {
        TransportTuning {
            queue_depth: 1024,
            dial_stall: Duration::ZERO,
            fault_seed: 0,
        }
    }
}

/// One item waiting in a [`DelayLine`].
struct Pending<T> {
    at: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the earliest deadline is the BinaryHeap maximum.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

enum DelayCmd<T> {
    Item(Instant, T),
    Shutdown,
}

/// A single background thread holding injected-delay frames until their
/// release time, then handing them to `deliver`. Items due at the same
/// instant release in submission order.
struct DelayLine<T: Send + 'static> {
    tx: Sender<DelayCmd<T>>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<T: Send + 'static> std::fmt::Debug for DelayLine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DelayLine")
    }
}

impl<T: Send + 'static> DelayLine<T> {
    fn start(deliver: impl Fn(T) + Send + 'static) -> Self {
        let (tx, rx) = unbounded::<DelayCmd<T>>();
        let handle = std::thread::spawn(move || {
            let mut seq = 0u64;
            let mut heap: BinaryHeap<Pending<T>> = BinaryHeap::new();
            loop {
                let now = Instant::now();
                while heap.peek().is_some_and(|p| p.at <= now) {
                    deliver(heap.pop().expect("peeked").item);
                }
                let cmd = match heap.peek() {
                    Some(p) => match rx.recv_timeout(p.at.saturating_duration_since(now)) {
                        Ok(cmd) => cmd,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                        Err(_) => return,
                    },
                    None => match rx.recv() {
                        Ok(cmd) => cmd,
                        Err(_) => return,
                    },
                };
                match cmd {
                    DelayCmd::Item(at, item) => {
                        heap.push(Pending { at, seq, item });
                        seq += 1;
                    }
                    DelayCmd::Shutdown => return,
                }
            }
        });
        DelayLine {
            tx,
            handle: Mutex::new(Some(handle)),
        }
    }

    fn defer(&self, delay: Duration, item: T) {
        let _ = self.tx.send(DelayCmd::Item(Instant::now() + delay, item));
    }

    /// Stops and joins the delay thread (pending items are discarded —
    /// callers only shut down when the whole transport is going away).
    fn shutdown(&self) {
        let _ = self.tx.send(DelayCmd::Shutdown);
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Lazily-started delay line, shared behind the transport handle.
type DelaySlot<T> = Mutex<Option<Arc<DelayLine<T>>>>;

/// A TCP frame parked by the fault gate: (from, to, encoded frame).
type DelayedFrame = (NodeId, NodeId, Arc<[u8]>);

/// The fault layer shared by both transports: a swappable plan, the
/// seeded RNG feeding its coin flips, and the one place an injected drop
/// or delay is counted and traced.
#[derive(Debug)]
struct FaultGate {
    plan: Mutex<FaultPlan>,
    rng: Mutex<ChaCha8Rng>,
    ledger: Arc<Ledger>,
}

impl FaultGate {
    fn new(seed: u64, ledger: Arc<Ledger>) -> Self {
        FaultGate {
            plan: Mutex::new(FaultPlan::none()),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
            ledger,
        }
    }

    /// Decides one network frame's fate and accounts for it: a drop is
    /// `net.msgs_faulted` + a `NetDrop` trace event, a delay is
    /// `net.msgs_delayed` + the link-latency histograms (same names the
    /// simulator's engine records) + a `NetDelay` event. Pass-through
    /// plans never touch the RNG lock.
    fn fate(&self, from: NodeId, to: NodeId) -> LinkFate {
        let decision = {
            let plan = self.plan.lock();
            if plan.is_pass_through() {
                return LinkFate::Deliver;
            }
            plan.decide_detailed(from, to, &mut *self.rng.lock())
        };
        let tel = self.ledger.telemetry();
        match decision.fate {
            LinkFate::Deliver => {}
            LinkFate::Drop => {
                tel.count(metrics::NET_MSGS_FAULTED, 1.0);
                self.ledger.trace(from.0, TraceKind::NetDrop { to: to.0 });
            }
            LinkFate::Delay(micros) => {
                tel.count(metrics::NET_MSGS_DELAYED, 1.0);
                tel.record(metrics::NET_LINK_LATENCY_MICROS, micros);
                tel.record(metrics::NET_LINK_JITTER_MICROS, decision.jitter_micros);
                self.ledger
                    .trace(from.0, TraceKind::NetDelay { to: to.0, micros });
            }
        }
        decision.fate
    }
}

/// In-process channel transport.
#[derive(Debug)]
pub struct ChannelTransport {
    senders: Vec<Sender<Envelope>>,
    bells: Vec<Arc<Doorbell>>,
    counters: Arc<Telemetry>,
    gate: FaultGate,
    delay: DelaySlot<(NodeId, Envelope)>,
}

/// Mailbox for [`ChannelTransport`].
#[derive(Debug)]
pub struct ChannelMailbox {
    rx: Receiver<Envelope>,
    bell: Arc<Doorbell>,
}

/// How a sender wakes a [`ChannelMailbox`] that waits on fds as well as
/// its channel ([`Mailbox::recv_or_ready`] with fds of the caller's): a pipe,
/// made at the first such wait, rung only while the mailbox is parked
/// there. A mailbox that only ever waits on its channel — every node's —
/// has no pipe and is never rung.
#[derive(Debug, Default)]
struct Doorbell {
    parked: AtomicBool,
    /// `(read, write)` ends.
    pipe: OnceLock<(libc::c_int, libc::c_int)>,
}

impl Doorbell {
    /// Called after every send to the mailbox. With the fence the parked
    /// side pairs with, either this sees `parked` or the mailbox sees the
    /// envelope before it parks.
    fn ring(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            if let Some(&(_, wr)) = self.pipe.get() {
                // SAFETY: a one-byte write from a live buffer to a pipe fd
                // this doorbell owns; a full pipe (EAGAIN) is rung already.
                unsafe {
                    let _ = libc::write(wr, [1u8].as_ptr(), 1);
                }
            }
        }
    }
}

impl Drop for Doorbell {
    fn drop(&mut self) {
        if let Some(&(rd, wr)) = self.pipe.get() {
            // SAFETY: both fds are owned by this doorbell and closed once.
            unsafe {
                libc::close(rd);
                libc::close(wr);
            }
        }
    }
}

impl ChannelTransport {
    /// Creates mailboxes for `n` nodes plus the shared postman, counting
    /// into a private [`Ledger`].
    pub fn new(n: usize) -> (Arc<Self>, Vec<ChannelMailbox>) {
        Self::with_tuning(n, TransportTuning::default(), &Ledger::new())
    }

    /// As [`ChannelTransport::new`] with explicit tuning (only the fault
    /// seed applies to the in-process transport), counting and tracing
    /// into `ledger`.
    pub fn with_tuning(
        n: usize,
        tuning: TransportTuning,
        ledger: &Arc<Ledger>,
    ) -> (Arc<Self>, Vec<ChannelMailbox>) {
        let counters = Arc::clone(ledger.telemetry());
        let mut senders = Vec::with_capacity(n);
        let mut bells = Vec::with_capacity(n);
        let mut mailboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            let bell = Arc::new(Doorbell::default());
            senders.push(tx);
            bells.push(Arc::clone(&bell));
            mailboxes.push(ChannelMailbox { rx, bell });
        }
        (
            Arc::new(ChannelTransport {
                senders,
                bells,
                gate: FaultGate::new(tuning.fault_seed, Arc::clone(ledger)),
                counters,
                delay: Mutex::new(None),
            }),
            mailboxes,
        )
    }

    fn deliver_now(
        senders: &[Sender<Envelope>],
        bells: &[Arc<Doorbell>],
        counters: &Telemetry,
        to: NodeId,
        envelope: Envelope,
    ) {
        if let Envelope::Net { .. } = &envelope {
            // The exact binary size — the same |m| the simulator charges.
            counters.count(metrics::NET_BYTES_SENT, envelope.encoded_len() as f64);
            counters.count(metrics::NET_MSGS_DELIVERED, 1.0);
        }
        if let Some(tx) = senders.get(to.index()) {
            let _ = tx.send(envelope);
            bells[to.index()].ring();
        }
    }

    fn delay_line(&self) -> Arc<DelayLine<(NodeId, Envelope)>> {
        let mut slot = self.delay.lock();
        if let Some(line) = slot.as_ref() {
            return Arc::clone(line);
        }
        let senders = self.senders.clone();
        let bells = self.bells.clone();
        let counters = Arc::clone(&self.counters);
        let line = Arc::new(DelayLine::start(move |(to, env)| {
            ChannelTransport::deliver_now(&senders, &bells, &counters, to, env);
        }));
        *slot = Some(Arc::clone(&line));
        line
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        if let Some(line) = self.delay.lock().take() {
            line.shutdown();
        }
    }
}

impl Mailbox for ChannelMailbox {
    fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    fn recv_or_ready(&self, extra: &mut [libc::pollfd], timeout: Duration) -> Option<Envelope> {
        extra.iter_mut().for_each(|p| p.revents = 0);
        if extra.is_empty() {
            return self.rx.recv_timeout(timeout).ok();
        }
        let &(rd, _) = self.bell.pipe.get_or_init(wake_pipe);
        drain_wake_pipe(rd);
        // Parked before the last look at the channel: a send after that
        // look rings (see `Doorbell::ring`).
        self.bell.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if let Ok(env) = self.rx.try_recv() {
            self.bell.parked.store(false, Ordering::Relaxed);
            return Some(env);
        }
        let bell = libc::pollfd {
            fd: rd,
            events: libc::POLLIN,
            revents: 0,
        };
        let mut pfds: Vec<libc::pollfd> =
            std::iter::once(bell).chain(extra.iter().copied()).collect();
        if ppoll(&mut pfds, timeout) > 0 {
            for (p, got) in extra.iter_mut().zip(&pfds[1..]) {
                p.revents = got.revents;
            }
        }
        self.bell.parked.store(false, Ordering::Relaxed);
        self.rx.try_recv().ok()
    }
}

impl Postman for ChannelTransport {
    fn send(&self, to: NodeId, envelope: Envelope) {
        if let Envelope::Net { from, .. } = &envelope {
            match self.gate.fate(*from, to) {
                LinkFate::Deliver => {}
                LinkFate::Drop => return,
                LinkFate::Delay(micros) => {
                    self.delay_line()
                        .defer(Duration::from_micros(micros), (to, envelope));
                    return;
                }
            }
        }
        ChannelTransport::deliver_now(&self.senders, &self.bells, &self.counters, to, envelope);
    }

    fn set_fault_plan(&self, plan: FaultPlan) {
        *self.gate.plan.lock() = plan;
    }

    fn net_stats(&self) -> NetStats {
        NetStats::read(&self.counters)
    }
}

/// Frames a connection refuses to accept (corrupt length prefix guard).
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Localhost TCP transport: every node listens on `127.0.0.1:port_i`;
/// senders keep persistent connections. A node's [`TcpMailbox`] accepts
/// and reads its own connections on the node's thread; a sender writes
/// an idle link itself, with vectored zero-copy writes, so the node loop
/// is identical for both transports.
///
/// Outbound frames land in a bounded per-link queue; the reactor's one
/// I/O thread dials (capped exponential backoff) off the send path and
/// finishes what senders leave; see the module docs for the failure path.
#[derive(Debug)]
pub struct TcpTransport {
    shared: Arc<TcpShared>,
}

/// State shared between the send path, the reactor, and the delay line.
#[derive(Debug)]
struct TcpShared {
    ports: Vec<u16>,
    /// `TransportTuning::queue_depth` of every outbound connection.
    queue_depth: usize,
    /// Outbound connections keyed by (sender, receiver) identity. Frames
    /// are refcounted so one encoded gcast payload sits in every member's
    /// queue without being copied per connection.
    conns: Mutex<HashMap<(NodeId, NodeId), Arc<OutConn>>>,
    counters: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
    reactor: Reactor,
    gate: FaultGate,
    delay: DelaySlot<DelayedFrame>,
}

impl TcpTransport {
    /// Binds `n` listeners on free ports and returns the transport plus
    /// the mailboxes that own them, counting into a private [`Ledger`].
    ///
    /// # Panics
    ///
    /// Panics if binding a listener fails.
    pub fn new(n: usize) -> (Arc<Self>, Vec<TcpMailbox>) {
        Self::with_tuning(n, TransportTuning::default(), &Ledger::new())
    }

    /// As [`TcpTransport::new`] with explicit failure-path tuning,
    /// counting and tracing into `ledger`.
    ///
    /// # Panics
    ///
    /// Panics if binding a listener fails.
    pub fn with_tuning(
        n: usize,
        tuning: TransportTuning,
        ledger: &Arc<Ledger>,
    ) -> (Arc<Self>, Vec<TcpMailbox>) {
        let mut ports = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
            ports.push(listener.local_addr().expect("local addr").port());
            listeners.push(listener);
        }
        let transport = Self::over_ports(ports, tuning, ledger);
        let counters = &transport.shared.counters;
        let mailboxes = listeners
            .into_iter()
            .map(|listener| TcpMailbox {
                inbound: Mutex::new(Inbound::new(listener, Arc::clone(counters))),
            })
            .collect();
        for i in 0..n {
            // The oracle's links are dialed now, not at the first crash:
            // a `Crash` still waiting for its dial while the peers'
            // notices of it are delivered lets the victim answer traffic
            // it should never have seen.
            transport.shared.conn(CONTROLLER, NodeId(i as u32));
        }
        (transport, mailboxes)
    }

    /// Builds a transport that *sends* toward the given ports without
    /// binding listeners of its own — the harness for dead-peer tests
    /// (a port with no listener dials and backs off forever).
    fn over_ports(ports: Vec<u16>, tuning: TransportTuning, ledger: &Arc<Ledger>) -> Arc<Self> {
        let counters = Arc::clone(ledger.telemetry());
        let shutdown = Arc::new(AtomicBool::new(false));
        let reactor = Reactor::start(
            tuning.dial_stall,
            Arc::clone(&counters),
            Arc::clone(&shutdown),
        );
        Arc::new(TcpTransport {
            shared: Arc::new(TcpShared {
                gate: FaultGate::new(tuning.fault_seed, Arc::clone(ledger)),
                ports,
                queue_depth: tuning.queue_depth,
                conns: Mutex::new(HashMap::new()),
                counters,
                shutdown,
                reactor,
                delay: Mutex::new(None),
            }),
        })
    }
}

/// Mailbox for [`TcpTransport`]: the node's listener and every peer
/// connection accepted on it, read by the thread that receives. Dropping
/// it closes them.
#[derive(Debug)]
pub struct TcpMailbox {
    inbound: Mutex<Inbound>,
}

impl Mailbox for TcpMailbox {
    fn recv_or_ready(&self, extra: &mut [libc::pollfd], timeout: Duration) -> Option<Envelope> {
        self.inbound.lock().recv(extra, timeout)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(line) = self.shared.delay.lock().take() {
            line.shutdown();
        }
        // Joins the I/O thread; its entries and then `conns`, dropped
        // with `shared`, close every outbound socket fd
        // (asserted by the lifecycle leak test). The mailboxes close
        // their own.
        self.shared.reactor.shutdown();
    }
}

impl TcpShared {
    /// The `(from, to)` connection, created — and its first dial
    /// scheduled — on first use. `None` when `to` is no node of this
    /// transport.
    fn conn(&self, from: NodeId, to: NodeId) -> Option<Arc<OutConn>> {
        let &port = self.ports.get(to.index())?;
        let mut conns = self.conns.lock();
        let conn = conns.entry((from, to)).or_insert_with(|| {
            let conn = Arc::new(OutConn::new(port, self.queue_depth));
            self.reactor.dial(Arc::clone(&conn));
            conn
        });
        Some(Arc::clone(conn))
    }

    /// Queues one already-encoded frame toward `to` and, if the link was
    /// idle, writes it. Never blocks: the I/O thread connects in the
    /// background, a full queue drops the frame with accounting instead
    /// of waiting, and a socket that will not take the frame now is left
    /// to the I/O thread.
    fn enqueue(&self, from: NodeId, to: NodeId, frame: Frame) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(conn) = self.conn(from, to) else {
            self.counters.count(metrics::NET_MSGS_DROPPED, 1.0);
            return;
        };
        match conn.try_push(frame) {
            // Empty→nonempty: the link was idle, so nobody is writing it
            // and the I/O thread may be parked in ppoll(2) with no write
            // interest. Write it from this thread; the I/O thread is
            // woken only for what that leaves.
            Ok(true) => self.reactor.write_through(&conn),
            Ok(false) => {}
            Err(_) => {
                // Bounded-queue overflow: the peer is unreachable or
                // reading too slowly. Accounted, not buffered.
                self.counters.count(metrics::NET_MSGS_DROPPED, 1.0);
            }
        }
    }
}

impl TcpTransport {
    fn delay_line(&self) -> Arc<DelayLine<DelayedFrame>> {
        let mut slot = self.shared.delay.lock();
        if let Some(line) = slot.as_ref() {
            return Arc::clone(line);
        }
        let shared = Arc::clone(&self.shared);
        let line = Arc::new(DelayLine::start(move |(from, to, frame)| {
            shared.enqueue(from, to, frame);
        }));
        *slot = Some(Arc::clone(&line));
        line
    }

    /// Routes one network frame through the fault gate, then the queue.
    fn dispatch_net(&self, from: NodeId, to: NodeId, frame: Arc<[u8]>) {
        match self.shared.gate.fate(from, to) {
            LinkFate::Deliver => self.shared.enqueue(from, to, frame),
            LinkFate::Drop => {}
            LinkFate::Delay(micros) => self
                .delay_line()
                .defer(Duration::from_micros(micros), (from, to, frame)),
        }
    }
}

/// The sender identity of controller traffic (no sending node).
const CONTROLLER: NodeId = NodeId(u32::MAX);

/// The connection slot an envelope travels on.
fn conn_slot(envelope: &Envelope) -> NodeId {
    match envelope {
        Envelope::Net { from, .. } => *from,
        _ => CONTROLLER,
    }
}

impl Postman for TcpTransport {
    fn send(&self, to: NodeId, envelope: Envelope) {
        let net = matches!(envelope, Envelope::Net { .. });
        let from = conn_slot(&envelope);
        // The frame carries the envelope body only — the writer
        // prepends the varint header from the connection's scratch
        // buffer at write time (`bytes_sent` still counts header+body).
        let frame: Frame = paso_wire::encode_to_vec(&envelope).into();
        if net {
            self.dispatch_net(from, to, frame);
        } else {
            // Controller traffic: the membership oracle is reliable.
            self.shared.enqueue(from, to, frame);
        }
    }

    fn send_shared(&self, targets: &[NodeId], envelope: Envelope) {
        // The frame is target-independent, so one encoding serves the
        // whole fan-out; each queue holds a refcount, not a copy, and
        // the writers read the payload bytes in place.
        let net = matches!(envelope, Envelope::Net { .. });
        let frame: Frame = paso_wire::encode_to_vec(&envelope).into();
        let from = conn_slot(&envelope);
        for &to in targets {
            if net {
                self.dispatch_net(from, to, frame.clone());
            } else {
                self.shared.enqueue(from, to, frame.clone());
            }
        }
    }

    fn set_fault_plan(&self, plan: FaultPlan) {
        *self.shared.gate.plan.lock() = plan;
    }

    fn net_stats(&self) -> NetStats {
        NetStats::read(&self.shared.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Appends one `[varint length][envelope bytes]` frame to `batch` — the
    /// exact wire format of the TCP transport, for writing raw sockets.
    fn push_frame(batch: &mut Vec<u8>, envelope: &Envelope) {
        paso_wire::put_varint(batch, envelope.encoded_len() as u64);
        envelope.encode(batch);
    }

    fn net(from: u32) -> Envelope {
        Envelope::Net {
            from: NodeId(from),
            msg: NetMsg::App(vec![1, 2, 3]),
        }
    }

    /// Polls until `cond` holds or the deadline passes; asserts it held.
    fn eventually(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(cond(), "timed out waiting for: {what}");
    }

    #[test]
    fn envelope_variants_round_trip() {
        for env in [
            net(4),
            Envelope::Crash,
            Envelope::Recover,
            Envelope::PeerCrashed(NodeId(2)),
            Envelope::PeerRecovered(NodeId(300)),
            Envelope::Shutdown,
        ] {
            let bytes = paso_wire::encode_to_vec(&env);
            assert_eq!(bytes.len(), env.encoded_len());
            let back: Envelope = paso_wire::decode_exact(&bytes).unwrap();
            // Envelope has no PartialEq (NetMsg payloads are opaque);
            // compare re-encodings.
            assert_eq!(paso_wire::encode_to_vec(&back), bytes);
            // Every truncation must error out, never panic.
            for cut in 0..bytes.len() {
                assert!(paso_wire::decode_exact::<Envelope>(&bytes[..cut]).is_err());
            }
        }
        assert!(paso_wire::decode_exact::<Envelope>(&[99]).is_err());
    }

    #[test]
    fn channel_transport_routes() {
        let (postman, mailboxes) = ChannelTransport::new(3);
        postman.send(NodeId(1), net(0));
        postman.send(NodeId(2), Envelope::Crash);
        let got = mailboxes[1]
            .recv_timeout(Duration::from_millis(100))
            .unwrap();
        assert!(matches!(
            got,
            Envelope::Net {
                from: NodeId(0),
                ..
            }
        ));
        let got = mailboxes[2]
            .recv_timeout(Duration::from_millis(100))
            .unwrap();
        assert!(matches!(got, Envelope::Crash));
        assert!(mailboxes[0]
            .recv_timeout(Duration::from_millis(10))
            .is_none());
        assert!(postman.net_stats().bytes_sent > 0);
    }

    #[test]
    fn channel_transport_is_fifo_per_sender() {
        let (postman, mailboxes) = ChannelTransport::new(2);
        for i in 0..50u8 {
            postman.send(
                NodeId(1),
                Envelope::Net {
                    from: NodeId(0),
                    msg: NetMsg::App(vec![i]),
                },
            );
        }
        for i in 0..50u8 {
            let got = mailboxes[1]
                .recv_timeout(Duration::from_millis(100))
                .unwrap();
            match got {
                Envelope::Net {
                    msg: NetMsg::App(b),
                    ..
                } => assert_eq!(b, vec![i]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn tcp_transport_round_trip() {
        let (postman, mailboxes) = TcpTransport::new(2);
        postman.send(NodeId(1), net(0));
        let got = mailboxes[1]
            .recv_timeout(Duration::from_secs(2))
            .expect("frame must arrive over TCP");
        assert!(matches!(
            got,
            Envelope::Net {
                from: NodeId(0),
                msg: NetMsg::App(_)
            }
        ));
        // The writer counts a frame after its last byte left; the reader
        // may hand it over first.
        eventually("the frame is accounted", Duration::from_secs(2), || {
            postman.net_stats().bytes_sent > 0
        });
    }

    #[test]
    fn send_shared_reaches_every_target() {
        // Channel transport: default per-target clone path.
        let (postman, mailboxes) = ChannelTransport::new(4);
        postman.send_shared(&[NodeId(1), NodeId(2), NodeId(3)], net(0));
        for mailbox in &mailboxes[1..] {
            let got = mailbox
                .recv_timeout(Duration::from_millis(100))
                .expect("fan-out copy must arrive");
            assert!(matches!(
                got,
                Envelope::Net {
                    from: NodeId(0),
                    ..
                }
            ));
        }

        // TCP transport: single-encode path, one frame refcounted across
        // all connection queues.
        let (postman, mailboxes) = TcpTransport::new(3);
        postman.send_shared(&[NodeId(1), NodeId(2)], net(0));
        for mailbox in &mailboxes[1..] {
            let got = mailbox
                .recv_timeout(Duration::from_secs(2))
                .expect("fan-out frame must arrive over TCP");
            assert!(matches!(
                got,
                Envelope::Net {
                    from: NodeId(0),
                    ..
                }
            ));
        }
        // Wire accounting charges every copy, even though one was encoded.
        let one = {
            let env = net(0);
            let mut frame = Vec::new();
            push_frame(&mut frame, &env);
            frame.len() as u64
        };
        eventually(
            "fan-out byte accounting settles",
            Duration::from_secs(2),
            || postman.net_stats().bytes_sent == 2 * one,
        );
        let stats = postman.net_stats();
        assert_eq!(stats.msgs_delivered, 2);
        assert_eq!(stats.msgs_dropped, 0);
        assert_eq!(stats.msgs_faulted, 0);
    }

    #[test]
    fn tcp_transport_many_messages_in_order() {
        let (postman, mailboxes) = TcpTransport::new(2);
        for i in 0..100u8 {
            postman.send(
                NodeId(1),
                Envelope::Net {
                    from: NodeId(0),
                    msg: NetMsg::App(vec![i]),
                },
            );
        }
        for i in 0..100u8 {
            let got = mailboxes[1].recv_timeout(Duration::from_secs(2)).unwrap();
            match got {
                Envelope::Net {
                    msg: NetMsg::App(b),
                    ..
                } => assert_eq!(b, vec![i]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn tcp_reader_drops_connection_on_corrupt_frame_then_recovers() {
        let (postman, mailboxes) = TcpTransport::new(2);
        // Handshake a healthy frame first so the port is known good.
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some());
        // A raw connection spewing garbage must not take the node down.
        let port = postman.shared.ports[1];
        {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            // frame of length 3 with an invalid tag
            let _ = s.write_all(&[3, 99, 0, 0]);
        }
        // The legit connection still delivers.
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some());
    }

    /// Regression for the unwrap sweep: a peer dying *mid frame* (header
    /// promised more bytes than ever arrive) was one of the paths that
    /// used to `unwrap()` inside the thread reading the socket, taking
    /// every connection it read down with it. The mailbox, which reads
    /// the victim and the healthy connection alike, must absorb the
    /// death as one counted error (`net.poll.errors`) and keep serving
    /// its other connections.
    #[test]
    fn mid_frame_peer_death_kills_the_peer_not_the_mailbox() {
        let (postman, mailboxes) = TcpTransport::new(2);
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some());
        let errors_before = postman.net_stats().poll_errors;

        let port = postman.shared.ports[1];
        {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            // Varint header promising a 100-byte frame, then 10 bytes,
            // then a hard close: EOF lands mid-frame.
            let _ = s.write_all(&[100]);
            let _ = s.write_all(&[0u8; 10]);
        }
        eventually(
            "mid-frame death is a counted error",
            Duration::from_secs(2),
            || {
                let got = mailboxes[1].try_recv();
                assert!(got.is_none(), "a partial frame was delivered: {got:?}");
                postman.net_stats().poll_errors > errors_before
            },
        );
        assert_eq!(postman.net_stats().poll_errors, errors_before + 1);
        // The mailbox that absorbed it still reads the healthy link.
        for _ in 0..10 {
            postman.send(NodeId(1), net(0));
            assert!(
                mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some(),
                "the mailbox died with the peer"
            );
        }
    }

    /// A peer whose dial fails (a port with no listener, which the I/O
    /// thread keeps redialing on backoff) must not delay sends to a
    /// healthy peer: dead dials wait in the I/O thread's deadline heap,
    /// never on the send path.
    #[test]
    fn dead_peer_does_not_block_live_sends() {
        // A port that refuses connections: bind, grab the port, drop.
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        // A live receiver transport feeding a real mailbox.
        let (receiver, mailboxes) = TcpTransport::new(1);
        let live_port = receiver.shared.ports[0];

        let postman = TcpTransport::over_ports(
            vec![live_port, dead_port],
            TransportTuning::default(),
            &Ledger::new(),
        );
        // Prod the dead peer first so its dial is failing/backing off.
        for _ in 0..4 {
            postman.send(NodeId(1), net(0));
        }
        let start = Instant::now();
        postman.send(NodeId(0), net(0));
        let got = mailboxes[0].recv_timeout(Duration::from_millis(100));
        assert!(
            got.is_some(),
            "send to the healthy peer must deliver while the dead peer dials"
        );
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "healthy-peer delivery took {:?}",
            start.elapsed()
        );
        // The dead peer's frames were never counted as sent.
        let one = {
            let mut f = Vec::new();
            push_frame(&mut f, &net(0));
            f.len() as u64
        };
        eventually("only live frame counted", Duration::from_secs(1), || {
            postman.net_stats().bytes_sent == one
        });
    }

    /// Zero-copy fan-out, end to end: `send_shared` encodes once, and the
    /// *same allocation* (pointer identity) sits in every peer's send
    /// queue, holding the bare envelope body the writer will prefix from
    /// its scratch buffer.
    #[test]
    fn send_shared_queues_the_same_allocation_for_every_peer() {
        let mut dead_ports = Vec::new();
        for _ in 0..2 {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            dead_ports.push(l.local_addr().unwrap().port());
        }
        // Stall dialing so the frames stay observable in the queues.
        let tuning = TransportTuning {
            dial_stall: Duration::from_secs(5),
            ..TransportTuning::default()
        };
        let postman = TcpTransport::over_ports(dead_ports, tuning, &Ledger::new());
        let env = net(7);
        postman.send_shared(&[NodeId(0), NodeId(1)], env);
        let conns = postman.shared.conns.lock();
        let frames: Vec<Frame> = conns.values().flat_map(|c| c.queued_frames()).collect();
        assert_eq!(frames.len(), 2, "one frame queued per target");
        assert!(
            Arc::ptr_eq(&frames[0], &frames[1]),
            "fan-out must share one allocation across queues"
        );
        assert_eq!(
            frames[0].as_ref(),
            paso_wire::encode_to_vec(&net(7)).as_slice(),
            "queued frame is the bare envelope body (header added at write time)"
        );
    }

    /// A peer that accepts but never reads: sender memory stays bounded
    /// (queue depth × frame size plus the kernel socket buffer), the
    /// overflow is dropped *and counted*, and
    /// `delivered + dropped + queued` reconciles exactly with the number
    /// of sends.
    #[test]
    fn slow_reader_bounds_memory_and_accounts_drops() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        // Accept and hold the socket open without ever reading it.
        let held = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let tuning = TransportTuning {
            queue_depth: 16,
            ..TransportTuning::default()
        };
        let postman = TcpTransport::over_ports(vec![port], tuning, &Ledger::new());
        let total = 64u64;
        for _ in 0..total {
            postman.send(
                NodeId(0),
                Envelope::Net {
                    from: NodeId(0),
                    msg: NetMsg::App(vec![0u8; 256 << 10]),
                },
            );
        }
        let _socket = held.join().unwrap().expect("accept");
        eventually(
            "delivered + dropped + queued == sent",
            Duration::from_secs(5),
            || {
                let stats = postman.net_stats();
                let queued: u64 = postman
                    .shared
                    .conns
                    .lock()
                    .values()
                    .map(|c| c.queued() as u64)
                    .sum();
                stats.msgs_delivered + stats.msgs_dropped + queued == total
            },
        );
        let stats = postman.net_stats();
        assert!(
            stats.msgs_dropped > 0,
            "overflow past the bounded queue must be dropped and counted"
        );
        let queued: u64 = postman
            .shared
            .conns
            .lock()
            .values()
            .map(|c| c.queued() as u64)
            .sum();
        assert!(queued <= 16, "queue depth bounds sender memory");
    }

    /// Satellite regression: a *hanging* dial (SYN blackhole, emulated by
    /// `dial_stall`) happens off the send path — `send` returns
    /// immediately even though the connection cannot establish.
    #[test]
    fn hanging_dial_never_blocks_the_send_path() {
        let tuning = TransportTuning {
            dial_stall: Duration::from_secs(5),
            ..TransportTuning::default()
        };
        let (postman, _mailboxes) = TcpTransport::with_tuning(2, tuning, &Ledger::new());
        let start = Instant::now();
        for _ in 0..16 {
            postman.send(NodeId(1), net(0));
        }
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "sends blocked for {:?} behind a stalled dial",
            start.elapsed()
        );
        // Nothing handed to a live writer yet: the dial is still stalled.
        assert_eq!(postman.net_stats().bytes_sent, 0);
    }

    /// Bounded queues: overflow while the peer is unreachable is dropped
    /// and accounted, not buffered without bound.
    #[test]
    fn bounded_queue_overflow_drops_and_counts() {
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let tuning = TransportTuning {
            queue_depth: 8,
            // Long enough that the worker can't drain during the test.
            dial_stall: Duration::from_secs(5),
            ..TransportTuning::default()
        };
        let postman = TcpTransport::over_ports(vec![dead_port], tuning, &Ledger::new());
        for _ in 0..20 {
            postman.send(NodeId(0), net(0));
        }
        let stats = postman.net_stats();
        assert_eq!(stats.bytes_sent, 0, "nothing reached a live writer");
        assert!(
            stats.msgs_dropped >= 11,
            "expected ≥ 11 overflow drops, got {}",
            stats.msgs_dropped
        );
    }

    fn app(fill: u8, len: usize) -> Envelope {
        Envelope::Net {
            from: NodeId(0),
            msg: NetMsg::App(vec![fill; len]),
        }
    }

    fn queued(postman: &TcpTransport) -> usize {
        let conns = postman.shared.conns.lock();
        conns.values().map(|c| c.queued()).sum()
    }

    /// An idle link is written by the thread that sends on it and read
    /// by the thread that receives on it: a frame costs the receiving
    /// node's one `ppoll` return and nothing on the sending side (a
    /// hand-off to another thread on either side costs more).
    #[test]
    fn ping_pong_on_idle_links_costs_under_two_poll_wakeups_a_frame() {
        let ledger = Ledger::new();
        let (postman, mailboxes) =
            TcpTransport::with_tuning(2, TransportTuning::default(), &ledger);
        let round_trip = || {
            for (from, to) in [(0u32, 1usize), (1, 0)] {
                postman.send(NodeId(to as u32), net(from));
                let got = mailboxes[to].recv_timeout(Duration::from_secs(5));
                assert!(got.is_some(), "frame {from} -> {to} must arrive");
            }
        };
        round_trip(); // dials both links
        let wakeups = || ledger.telemetry().snapshot().hist("net.poll.wakeups").count;
        let before = wakeups();
        for _ in 0..500 {
            round_trip();
        }
        let per_frame = (wakeups() - before) as f64 / 1000.0;
        assert!(per_frame < 2.0, "{per_frame} poll returns per frame");
    }

    /// One frame larger than the kernel will buffer toward a reader that
    /// has stopped reading, on a link that is dialed and idle — so the
    /// sending thread is the one that writes it, gets part of it in, and
    /// is told `WouldBlock` mid-frame. The transport's node 0 is
    /// `listener`, and `also` are the ports of its nodes 1, 2, …. Returns
    /// the transport, the peer's end of the connection, and the frames
    /// queued behind the stuck one.
    fn stuck_mid_frame(
        listener: &TcpListener,
        also: &[u16],
    ) -> (Arc<TcpTransport>, TcpStream, Vec<u8>) {
        let mut ports = vec![listener.local_addr().unwrap().port()];
        ports.extend_from_slice(also);
        let postman = TcpTransport::over_ports(ports, TransportTuning::default(), &Ledger::new());
        // Reading a first small frame off the wire proves the socket
        // installed: the next send finds the link dialed and idle.
        postman.send(NodeId(0), app(0, 8));
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut first = Vec::new();
        push_frame(&mut first, &app(0, 8));
        let mut got = vec![0u8; first.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, first);
        eventually(
            "the first frame is accounted",
            Duration::from_secs(2),
            || postman.net_stats().msgs_delivered == 1,
        );

        postman.send(NodeId(0), app(1, 8 << 20));
        assert_eq!(
            queued(&postman),
            1,
            "the kernel buffered a whole 8 MiB frame nobody reads"
        );
        assert_eq!(postman.net_stats().msgs_delivered, 1);
        let mut behind = Vec::new();
        for i in 2..6 {
            postman.send(NodeId(0), app(i, 8));
            push_frame(&mut behind, &app(i, 8));
        }
        assert_eq!(queued(&postman), 5);
        (postman, peer, behind)
    }

    /// The frame the sending thread left half-written is finished by the
    /// I/O thread on `POLLOUT`, and the receiver sees every byte in order.
    #[test]
    fn io_thread_finishes_the_frame_a_sending_thread_left_half_written() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (postman, mut peer, behind) = stuck_mid_frame(&listener, &[]);
        let mut expect = Vec::new();
        push_frame(&mut expect, &app(1, 8 << 20));
        expect.extend_from_slice(&behind);
        let mut got = vec![0u8; expect.len()];
        peer.read_exact(&mut got).expect("the reader resumes");
        assert!(got == expect, "byte stream reordered or corrupted");
        eventually("every frame is accounted", Duration::from_secs(2), || {
            postman.net_stats().msgs_delivered == 6
        });
        assert_eq!(postman.net_stats().msgs_dropped, 0);
        assert_eq!(queued(&postman), 0);
    }

    /// One I/O thread both dials and drains, and a pending dial deadline
    /// never holds up a drain: while a refused port keeps redialing on
    /// backoff, a live peer stuck mid-frame gets every byte, in order,
    /// within a second of reading again.
    #[test]
    fn a_peer_redialing_on_backoff_does_not_hold_up_a_drain() {
        let refused = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (postman, mut peer, behind) = stuck_mid_frame(&listener, &[refused]);
        for _ in 0..4 {
            postman.send(NodeId(1), app(9, 8));
        }
        // Past the first few backoff steps: the refused dial is on the
        // heap with a deadline while the stuck link waits for `POLLOUT`.
        std::thread::sleep(Duration::from_millis(50));

        let mut expect = Vec::new();
        push_frame(&mut expect, &app(1, 8 << 20));
        expect.extend_from_slice(&behind);
        let mut got = vec![0u8; expect.len()];
        let start = Instant::now();
        peer.read_exact(&mut got).expect("the reader resumes");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the drain took {:?}",
            start.elapsed()
        );
        assert!(got == expect, "byte stream reordered or corrupted");
        eventually(
            "every live frame is accounted",
            Duration::from_secs(2),
            || postman.net_stats().msgs_delivered == 6,
        );
        assert_eq!(queued(&postman), 4, "the refused peer's frames wait");
        assert_eq!(postman.net_stats().msgs_dropped, 0);
    }

    /// The peer dies with a frame half-written by a sending thread: that
    /// frame is dropped, once; the frames behind it stay queued and
    /// arrive, in order, on the redialed connection.
    #[test]
    fn peer_death_behind_a_half_written_frame_drops_it_once_and_redials() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (postman, peer, behind) = stuck_mid_frame(&listener, &[]);
        drop(peer); // unread bytes: the close resets the connection
        let (mut peer, _) = listener.accept().expect("redial");
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut got = vec![0u8; behind.len()];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(got, behind);
        eventually("the rest is accounted", Duration::from_secs(2), || {
            postman.net_stats().msgs_delivered == 5
        });
        let stats = postman.net_stats();
        assert_eq!(stats.msgs_dropped, 1, "the half-written frame, once");
        assert!(stats.poll_errors >= 1);
        assert_eq!(queued(&postman), 0);
    }

    /// A `len`-byte app frame from node 0 that carries `seq` up front.
    fn numbered(seq: usize, len: usize) -> Envelope {
        let mut payload = (seq as u64).to_le_bytes().to_vec();
        payload.resize(len, 0);
        Envelope::Net {
            from: NodeId(0),
            msg: NetMsg::App(payload),
        }
    }

    /// Receives until the mailbox stays empty for 300 ms, asserting the
    /// frames come in sending order; returns their sequence numbers.
    fn drain_numbered(mailbox: &TcpMailbox) -> Vec<usize> {
        let mut seqs: Vec<usize> = Vec::new();
        while let Some(got) = mailbox.recv_timeout(Duration::from_millis(300)) {
            let Envelope::Net {
                msg: NetMsg::App(payload),
                ..
            } = got
            else {
                panic!("unexpected {got:?}");
            };
            let seq = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
            assert!(seqs.last().is_none_or(|&last| last < seq), "reordered");
            seqs.push(seq);
        }
        seqs
    }

    /// The buffering contract's safe side: a receiver that reads nothing
    /// for 200 ms while a peer sends `queue_depth` frames loses none.
    /// What its socket buffers cannot hold waits in the sender's bounded
    /// queue, which holds that many by construction, whatever the
    /// kernel's buffer sizes.
    #[test]
    fn a_paused_receiver_gets_a_queue_depth_of_frames_in_order() {
        let (postman, mailboxes) = TcpTransport::new(2);
        let depth = TransportTuning::default().queue_depth;
        for seq in 0..depth {
            postman.send(NodeId(1), numbered(seq, 1024));
        }
        std::thread::sleep(Duration::from_millis(200));
        let got = drain_numbered(&mailboxes[1]);
        assert_eq!(got, (0..depth).collect::<Vec<_>>());
        eventually("every frame is accounted", Duration::from_secs(2), || {
            postman.net_stats().msgs_delivered == depth as u64
        });
        assert_eq!(postman.net_stats().msgs_dropped, 0);
    }

    /// The largest buffer the kernel lets a TCP socket grow to in one
    /// direction (`tcp_rmem` or `tcp_wmem`'s third field), in bytes.
    fn kernel_tcp_buffer_max(which: &str) -> usize {
        let path = format!("/proc/sys/net/ipv4/{which}");
        let line = std::fs::read_to_string(&path).expect("read tcp buffer limits");
        let max = line.split_whitespace().nth(2).expect("three fields");
        max.parse().expect("a byte count")
    }

    /// The buffering contract's other side: a flood far past what the
    /// receiver's socket buffers and the sender's queue can hold, to a
    /// receiver that never reads, ends in drops counted at the sender
    /// (`net.msgs_dropped`). The receiver holds nothing it was not asked
    /// for: when it does read, it gets what the kernel and the queue
    /// held, in order, however large the flood was.
    #[test]
    fn a_flood_at_a_receiver_that_never_reads_is_dropped_and_counted() {
        const FRAME: usize = 1024;
        let ledger = Ledger::new();
        let depth = 64;
        let tuning = TransportTuning {
            queue_depth: depth,
            ..TransportTuning::default()
        };
        let (postman, mailboxes) = TcpTransport::with_tuning(2, tuning, &ledger);
        let held = kernel_tcp_buffer_max("tcp_rmem") + kernel_tcp_buffer_max("tcp_wmem");
        let bound = held / FRAME + depth;
        let sent = 4 * bound;
        for seq in 0..sent {
            postman.send(NodeId(1), numbered(seq, FRAME));
        }
        eventually(
            "delivered + dropped + queued == sent",
            Duration::from_secs(5),
            || {
                let stats = postman.net_stats();
                let moved = stats.msgs_delivered + stats.msgs_dropped;
                moved + queued(&postman) as u64 == sent as u64
            },
        );
        let dropped = ledger.telemetry().counter(metrics::NET_MSGS_DROPPED).get() as usize;
        assert!(dropped >= sent - bound, "{dropped} of {sent} dropped");

        let got = drain_numbered(&mailboxes[1]);
        assert_eq!(
            got.len() + dropped,
            sent,
            "a frame neither arrived nor counted"
        );
        assert!(got.len() <= bound, "{} frames were held for it", got.len());
    }

    /// A node's timer floor is 200 µs: an empty mailbox waits out a
    /// sub-millisecond timeout, neither returning at once nor rounding
    /// it up to a whole millisecond.
    #[test]
    fn an_empty_tcp_mailbox_waits_out_a_sub_millisecond_timeout() {
        let (_postman, mailboxes) = TcpTransport::new(1);
        let timeout = Duration::from_micros(300);
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let start = Instant::now();
                assert!(mailboxes[0].recv_timeout(timeout).is_none());
                start.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[0] >= timeout, "returned after {:?}", took[0]);
        assert!(took[0] < Duration::from_millis(1), "fastest {:?}", took[0]);
        assert!(took[10] < Duration::from_millis(5), "median {:?}", took[10]);
    }

    #[test]
    fn fault_plan_drop_all_suppresses_net_but_not_controller_traffic() {
        let (postman, mailboxes) = ChannelTransport::new(2);
        postman.set_fault_plan(FaultPlan::none().drop_all(1.0));
        postman.send(NodeId(1), net(0));
        assert!(
            mailboxes[1]
                .recv_timeout(Duration::from_millis(30))
                .is_none(),
            "net frame must be dropped by the plan"
        );
        postman.send(NodeId(1), Envelope::Crash);
        assert!(
            matches!(
                mailboxes[1].recv_timeout(Duration::from_millis(100)),
                Some(Envelope::Crash)
            ),
            "controller traffic bypasses the fault layer"
        );
        let stats = postman.net_stats();
        assert_eq!(stats.msgs_faulted, 1);
        assert_eq!(stats.bytes_sent, 0, "dropped frames are not charged");
    }

    #[test]
    fn fault_plan_delay_holds_then_delivers_over_tcp() {
        let (postman, mailboxes) = TcpTransport::new(2);
        postman.set_fault_plan(FaultPlan::none().delay_all(paso_simnet::DelayDist::fixed(60_000)));
        let sent = Instant::now();
        postman.send(NodeId(1), net(0));
        let got = mailboxes[1].recv_timeout(Duration::from_secs(2));
        assert!(got.is_some(), "delayed frame must still deliver");
        assert!(
            sent.elapsed() >= Duration::from_millis(55),
            "frame arrived after only {:?}",
            sent.elapsed()
        );
        assert_eq!(postman.net_stats().msgs_delayed, 1);
    }

    #[test]
    fn fault_plan_partition_heals_on_replacement() {
        let (postman, mailboxes) = TcpTransport::new(2);
        let cells: [&[NodeId]; 2] = [&[NodeId(0)], &[NodeId(1)]];
        postman.set_fault_plan(FaultPlan::none().partition(&cells));
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1]
            .recv_timeout(Duration::from_millis(30))
            .is_none());
        postman.set_fault_plan(FaultPlan::none());
        postman.send(NodeId(1), net(0));
        assert!(mailboxes[1].recv_timeout(Duration::from_secs(2)).is_some());
        assert_eq!(postman.net_stats().msgs_faulted, 1);
    }
}
