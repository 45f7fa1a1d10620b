//! A thin `poll(2)` reactor: the event-driven I/O core of
//! [`TcpTransport`](crate::TcpTransport).
//!
//! A **fixed pool of poller threads** drives every socket the transport
//! owns — listeners, inbound connections, and outbound connections — via
//! readiness polling over nonblocking fds. No async runtime, no
//! thread-per-connection: one node talking to hundreds of peers costs
//! `poller_threads` I/O threads plus one background dialer, total.
//!
//! Responsibilities per poller wakeup:
//!
//! - **Accept**: ready listeners accept until `WouldBlock`; accepted
//!   streams become inbound entries on the same poller.
//! - **Read**: ready inbound streams read into a reusable per-connection
//!   buffer; complete `[varint len][envelope]` frames are decoded and
//!   handed to the node's mailbox, the partial tail stays buffered for
//!   the next wakeup (incremental framing — a frame may arrive a byte at
//!   a time).
//! - **Write**: outbound entries with queued frames drain their bounded
//!   send queue with `write_vectored`: varint headers go into one
//!   per-connection scratch buffer, payload [`Frame`]s are referenced
//!   **in place** — no per-send allocation or copy, ever; a gcast frame
//!   queued at 100 peers is one allocation total. Frames are popped (and
//!   counted as sent) only when their last byte hits the socket, so the
//!   bounded queue *is* the backpressure accounting.
//!
//! Dialing happens on a dedicated **dialer thread** holding a deadline
//! heap: unreachable peers redial with capped exponential backoff without
//! occupying a poller or the send path. A connection that fails mid-write
//! drops only the partially-written frame (counted), keeps the rest of
//! its queue, and goes back to the dialer.
//!
//! Shutdown is joined, not detached: dropping the transport wakes every
//! poller and the dialer, [`Reactor::shutdown`] joins them all, and
//! dropping the entries closes every fd — asserted by the
//! transport-lifecycle leak test.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::ledger::NetCounters;
use crate::transport::{Envelope, TransportTuning, MAX_FRAME};

/// Opaque handle for one accepted client connection on a
/// [`FrameServer`](crate::FrameServer). Ids are unique for the lifetime
/// of the server and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// What a [`FrameServer`](crate::FrameServer) reports about its clients.
/// Events for one client are in order (accept → frames → disconnect);
/// events for different clients interleave arbitrarily.
#[derive(Debug)]
pub enum ClientEvent {
    /// A new connection was accepted.
    Connected(ClientId),
    /// One complete `[varint len][payload]` frame arrived; the payload is
    /// handed through opaque — the serving tier owns the client protocol.
    Frame(ClientId, Vec<u8>),
    /// The connection is gone (EOF, I/O error, oversize frame, or a
    /// [`kick`](crate::FrameServer::kick)). The id is dead afterwards.
    Disconnected(ClientId),
}

/// Shared state between a client listener's poller entries and the
/// [`FrameServer`](crate::FrameServer) front half: the id → connection
/// map used by `send`/`kick`, and the event channel into the serving
/// tier. Client connections differ from peer connections in exactly two
/// ways: they are *accepted* (never dialed, so death means
/// [`ClientEvent::Disconnected`], not a redial) and their frames are
/// opaque payload bytes rather than [`Envelope`]s.
pub(crate) struct ClientRegistry {
    next_id: AtomicU64,
    pub(crate) conns: Mutex<HashMap<u64, Arc<OutConn>>>,
    sink: Sender<ClientEvent>,
    /// Send-queue depth for each client connection.
    depth: usize,
    /// Frame-size cap for *client* traffic (tighter than the peer
    /// [`MAX_FRAME`]: clients are untrusted).
    max_frame: usize,
}

impl ClientRegistry {
    pub(crate) fn new(sink: Sender<ClientEvent>, depth: usize, max_frame: usize) -> Self {
        ClientRegistry {
            next_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            sink,
            depth,
            max_frame,
        }
    }
}

/// A refcounted, already-encoded envelope body (no length prefix — the
/// writer prepends the varint header from its scratch buffer). One
/// encoding serves every queue that holds the frame.
pub(crate) type Frame = Arc<[u8]>;

/// Read budget per inbound wakeup: parse after at most this many fresh
/// bytes so one firehose connection cannot starve its poller siblings
/// (level-triggered poll re-fires while data remains).
const READ_BUDGET: usize = 256 << 10;

/// Granularity the read buffer grows by.
const READ_CHUNK: usize = 16 << 10;

/// Sentinel for "not registered with any poller".
const NO_OWNER: usize = usize::MAX;

/// Outbound-connection state shared between the send path (push), the
/// owning poller (drain), and the dialer (reconnect).
pub(crate) struct OutConn {
    /// Peer's listener port.
    port: u16,
    /// Bounded FIFO of frames awaiting the wire. Senders push; the owning
    /// poller pops a frame only once it is fully written.
    queue: Mutex<VecDeque<Frame>>,
    /// Lock-free mirror of `queue.len()` so building the interest set
    /// takes no lock for idle connections.
    len: AtomicUsize,
    /// Queue capacity (`TransportTuning::queue_depth`).
    depth: usize,
    /// Index of the poller currently owning the connected socket, or
    /// [`NO_OWNER`] while dialing.
    owner: AtomicUsize,
    /// Administrative close (client kick): the owning poller drops the
    /// entry at its next wakeup instead of draining further.
    closed: AtomicBool,
}

impl OutConn {
    pub(crate) fn new(port: u16, depth: usize) -> Self {
        OutConn {
            port,
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            depth,
            owner: AtomicUsize::new(NO_OWNER),
            closed: AtomicBool::new(false),
        }
    }

    /// Marks the connection administratively closed (see `closed`).
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Appends a frame. `Ok(true)` means the queue was empty (the caller
    /// should wake the owning poller); `Err` returns the frame when the
    /// bounded queue is full.
    pub(crate) fn try_push(&self, frame: Frame) -> Result<bool, Frame> {
        let mut q = self.queue.lock();
        if q.len() >= self.depth {
            return Err(frame);
        }
        let was_empty = q.is_empty();
        q.push_back(frame);
        self.len.store(q.len(), Ordering::Release);
        Ok(was_empty)
    }

    /// Frames currently queued (test observability for backpressure).
    pub(crate) fn queued(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Clones of the queued frames, front first (test observability for
    /// the zero-copy fan-out: the same `Arc` allocation must appear in
    /// every peer's queue).
    #[cfg(test)]
    pub(crate) fn queued_frames(&self) -> Vec<Frame> {
        self.queue.lock().iter().cloned().collect()
    }

    fn pending(&self) -> bool {
        self.queued() > 0
    }
}

impl std::fmt::Debug for OutConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutConn")
            .field("port", &self.port)
            .field("queued", &self.queued())
            .finish_non_exhaustive()
    }
}

/// Commands delivered to a poller through its inbox + wake pipe.
enum Cmd {
    /// Adopt a listener (accepted streams stay on this poller).
    Listener(TcpListener, Sender<Envelope>),
    /// Adopt a client-facing listener: accepted streams become
    /// [`Entry::Client`]s registered with the [`ClientRegistry`].
    ClientListener(TcpListener, Arc<ClientRegistry>),
    /// Adopt a freshly dialed outbound socket.
    Outbound(Arc<OutConn>, TcpStream),
    /// Drop every entry and exit.
    Shutdown,
}

/// The write end of a poller's self-pipe plus its command queue.
struct Inbox {
    cmds: Mutex<Vec<Cmd>>,
    wake_fd: libc::c_int,
}

impl Inbox {
    /// Queues a command and wakes the poller.
    fn send(&self, cmd: Cmd) {
        self.cmds.lock().push(cmd);
        self.wake();
    }

    /// Pokes the self-pipe; the byte sits there (level-triggered) until
    /// the poller drains it, so wakeups cannot be lost.
    fn wake(&self) {
        let b = [1u8];
        unsafe {
            let _ = libc::write(self.wake_fd, b.as_ptr(), 1);
        }
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.wake_fd);
        }
    }
}

enum DialCmd {
    Dial {
        conn: Arc<OutConn>,
        /// Extra delay before the first attempt (beyond `dial_stall`).
        after: Duration,
    },
    Shutdown,
}

/// State shared by pollers, the dialer, and the transport's send path.
struct ReactorShared {
    inboxes: Vec<Arc<Inbox>>,
    /// Round-robin cursor for assigning dialed sockets to pollers.
    next: AtomicUsize,
    /// Reconnect path from pollers back to the dialer.
    dial_tx: Sender<DialCmd>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    tuning: TransportTuning,
}

/// One dial attempt waiting for its deadline in the dialer's heap.
struct DialAt {
    at: Instant,
    seq: u64,
    conn: Arc<OutConn>,
    backoff: Duration,
}

impl PartialEq for DialAt {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DialAt {}
impl PartialOrd for DialAt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DialAt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: earliest deadline = BinaryHeap max.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The fixed-thread-budget I/O core: `poller_threads` pollers plus one
/// dialer. All threads are joined on [`Reactor::shutdown`].
pub(crate) struct Reactor {
    shared: Arc<ReactorShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("pollers", &self.shared.inboxes.len())
            .finish_non_exhaustive()
    }
}

impl Reactor {
    /// Spawns the poller pool and the dialer.
    pub(crate) fn start(
        tuning: TransportTuning,
        counters: Arc<NetCounters>,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        let pollers = tuning.poller_threads.max(1);
        let mut inboxes = Vec::with_capacity(pollers);
        let mut reads = Vec::with_capacity(pollers);
        for _ in 0..pollers {
            let (rd, wr) = wake_pipe();
            inboxes.push(Arc::new(Inbox {
                cmds: Mutex::new(Vec::new()),
                wake_fd: wr,
            }));
            reads.push(rd);
        }
        let (dial_tx, dial_rx) = unbounded();
        let shared = Arc::new(ReactorShared {
            inboxes,
            next: AtomicUsize::new(0),
            dial_tx,
            shutdown,
            counters,
            tuning,
        });
        let mut handles = Vec::with_capacity(pollers + 1);
        for (i, rd) in reads.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("paso-net-poller-{i}"))
                    .spawn(move || poller_loop(i, rd, shared))
                    .expect("spawn poller"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name("paso-net-dialer".into())
                    .spawn(move || dialer_loop(dial_rx, shared))
                    .expect("spawn dialer"),
            );
        }
        Reactor {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Number of poller threads.
    pub(crate) fn pollers(&self) -> usize {
        self.shared.inboxes.len()
    }

    /// Hands a listener to poller `slot % pollers`.
    pub(crate) fn add_listener(&self, slot: usize, listener: TcpListener, tx: Sender<Envelope>) {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let inbox = &self.shared.inboxes[slot % self.shared.inboxes.len()];
        inbox.send(Cmd::Listener(listener, tx));
    }

    /// Hands a client-facing listener to poller `slot % pollers`.
    pub(crate) fn add_client_listener(
        &self,
        slot: usize,
        listener: TcpListener,
        reg: Arc<ClientRegistry>,
    ) {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let inbox = &self.shared.inboxes[slot % self.shared.inboxes.len()];
        inbox.send(Cmd::ClientListener(listener, reg));
    }

    /// Schedules the first dial for a fresh connection.
    pub(crate) fn dial(&self, conn: Arc<OutConn>) {
        let _ = self.shared.dial_tx.send(DialCmd::Dial {
            conn,
            after: Duration::ZERO,
        });
    }

    /// Wakes the poller owning `conn`, if any (a connection still dialing
    /// drains its queue the moment it is installed, so no wake is needed).
    pub(crate) fn wake_owner(&self, conn: &OutConn) {
        let owner = conn.owner.load(Ordering::Acquire);
        if owner != NO_OWNER {
            self.shared.inboxes[owner].wake();
        }
    }

    /// Stops and joins every poller and the dialer, closing all fds. Safe
    /// to call more than once.
    pub(crate) fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.shared.dial_tx.send(DialCmd::Shutdown);
        for inbox in &self.shared.inboxes {
            inbox.send(Cmd::Shutdown);
        }
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Creates a nonblocking self-pipe, returning `(read_fd, write_fd)`.
///
/// # Panics
///
/// Panics if the pipe cannot be created (fd exhaustion at startup).
fn wake_pipe() -> (libc::c_int, libc::c_int) {
    unsafe {
        let mut fds = [0 as libc::c_int; 2];
        assert_eq!(libc::pipe(fds.as_mut_ptr()), 0, "pipe(2) failed");
        for fd in fds {
            let flags = libc::fcntl(fd, libc::F_GETFL);
            libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK);
        }
        (fds[0], fds[1])
    }
}

fn drain_wake_pipe(fd: libc::c_int) {
    let mut buf = [0u8; 64];
    loop {
        let n = unsafe { libc::read(fd, buf.as_mut_ptr(), buf.len()) };
        if n < buf.len() as libc::ssize_t {
            return; // empty (EAGAIN) or short read: drained
        }
    }
}

/// The dialer: pops due attempts off a deadline heap, connects
/// (localhost: fast success or fast refusal), and hands live sockets to a
/// poller round-robin. Failures re-enter the heap with doubled, capped
/// backoff; `dial_stall` defers every attempt (SYN-blackhole emulation)
/// without blocking other peers' dials.
fn dialer_loop(rx: Receiver<DialCmd>, shared: Arc<ReactorShared>) {
    let tuning = shared.tuning.clone();
    let mut seq = 0u64;
    let mut heap: BinaryHeap<DialAt> = BinaryHeap::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        while heap.peek().is_some_and(|d| d.at <= now) {
            let Some(due) = heap.pop() else { break };
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let stream = match TcpStream::connect(("127.0.0.1", due.conn.port)) {
                // A connect that succeeds but cannot be made nonblocking
                // is unusable for the poller: count it and retry like any
                // other dial failure rather than panicking the dialer.
                Ok(stream) if stream.set_nonblocking(true).is_ok() => Some(stream),
                Ok(_) => {
                    shared.counters.errors.add(1.0);
                    None
                }
                Err(_) => None,
            };
            match stream {
                Some(stream) => {
                    let _ = stream.set_nodelay(true);
                    let idx = shared.next.fetch_add(1, Ordering::Relaxed) % shared.inboxes.len();
                    // The poller sets `owner` when it installs the entry.
                    shared.inboxes[idx].send(Cmd::Outbound(due.conn, stream));
                }
                None => {
                    heap.push(DialAt {
                        at: Instant::now() + due.backoff + tuning.dial_stall,
                        seq,
                        conn: due.conn,
                        backoff: (due.backoff * 2).min(tuning.backoff_cap),
                    });
                    seq += 1;
                }
            }
        }
        let cmd = match heap.peek() {
            Some(d) => match rx.recv_timeout(d.at.saturating_duration_since(Instant::now())) {
                Ok(cmd) => cmd,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => return,
            },
        };
        match cmd {
            DialCmd::Dial { conn, after } => {
                heap.push(DialAt {
                    at: Instant::now() + after + tuning.dial_stall,
                    seq,
                    conn,
                    backoff: tuning.backoff_base,
                });
                seq += 1;
            }
            DialCmd::Shutdown => return,
        }
    }
}

/// One frame of an outbound entry's active write batch.
struct BatchFrame {
    frame: Frame,
    /// Span of this frame's varint header inside the scratch buffer.
    header: (usize, usize),
    /// Cumulative end offset of this frame in the batch byte stream.
    end: usize,
}

/// Outbound connection as owned by a poller.
struct OutEntry {
    conn: Arc<OutConn>,
    stream: TcpStream,
    /// Varint headers for the active batch — the only per-batch bytes the
    /// writer materializes; payloads are written from the shared frames.
    scratch: Vec<u8>,
    /// Frames of the active batch: `Arc` clones of the queue front,
    /// popped from the queue only once fully written.
    batch: Vec<BatchFrame>,
    /// Frames at the front of `batch` already fully written and popped.
    batch_done: usize,
    /// Bytes of the batch already written to the socket.
    written: usize,
    /// Total bytes in the active batch.
    total: usize,
}

impl OutEntry {
    fn new(conn: Arc<OutConn>, stream: TcpStream) -> Self {
        OutEntry {
            conn,
            stream,
            scratch: Vec::new(),
            batch: Vec::new(),
            batch_done: 0,
            written: 0,
            total: 0,
        }
    }

    fn wants_write(&self) -> bool {
        self.batch_done < self.batch.len() || self.conn.pending()
    }
}

/// What `drain_write` decided about the connection.
enum WriteOutcome {
    /// Keep the entry (possibly with an unfinished batch).
    Alive,
    /// Socket failed: reconnect via the dialer.
    Dead,
}

enum Entry {
    Listener {
        listener: TcpListener,
        tx: Sender<Envelope>,
    },
    ClientListener {
        listener: TcpListener,
        reg: Arc<ClientRegistry>,
    },
    Inbound {
        stream: TcpStream,
        tx: Sender<Envelope>,
        /// Reusable frame-assembly buffer; the first `filled` bytes are
        /// valid.
        buf: Vec<u8>,
        filled: usize,
    },
    Outbound(OutEntry),
    /// One accepted client connection: full duplex on a single fd. Reads
    /// deliver opaque payload frames as [`ClientEvent::Frame`]s; writes
    /// drain the registered [`OutConn`] exactly like a peer connection.
    Client {
        id: u64,
        reg: Arc<ClientRegistry>,
        out: OutEntry,
        buf: Vec<u8>,
        filled: usize,
    },
}

impl Entry {
    fn fd(&self) -> libc::c_int {
        match self {
            Entry::Listener { listener, .. } | Entry::ClientListener { listener, .. } => {
                listener.as_raw_fd()
            }
            Entry::Inbound { stream, .. } => stream.as_raw_fd(),
            Entry::Outbound(o) => o.stream.as_raw_fd(),
            Entry::Client { out, .. } => out.stream.as_raw_fd(),
        }
    }

    fn interest(&self) -> libc::c_short {
        match self {
            Entry::Listener { .. } | Entry::ClientListener { .. } | Entry::Inbound { .. } => {
                libc::POLLIN
            }
            // Idle outbound connections stay in the set with no requested
            // events: POLLERR/POLLHUP are reported regardless, so a dead
            // peer is noticed without waiting for the next send.
            Entry::Outbound(o) => {
                if o.wants_write() {
                    libc::POLLOUT
                } else {
                    0
                }
            }
            // A kicked client requests POLLOUT so the (always-writable)
            // socket forces a dispatch that notices `closed`.
            Entry::Client { out, .. } => {
                if out.wants_write() || out.conn.is_closed() {
                    libc::POLLIN | libc::POLLOUT
                } else {
                    libc::POLLIN
                }
            }
        }
    }
}

/// The poller: drain inbox, poll the fds, dispatch the ready set.
fn poller_loop(index: usize, wake_rd: libc::c_int, shared: Arc<ReactorShared>) {
    let mut entries: Vec<Entry> = Vec::new();
    let mut pfds: Vec<libc::pollfd> = Vec::new();
    let inbox = Arc::clone(&shared.inboxes[index]);
    'run: loop {
        // Install pending commands.
        let cmds = std::mem::take(&mut *inbox.cmds.lock());
        for cmd in cmds {
            match cmd {
                Cmd::Listener(listener, tx) => entries.push(Entry::Listener { listener, tx }),
                Cmd::ClientListener(listener, reg) => {
                    entries.push(Entry::ClientListener { listener, reg })
                }
                Cmd::Outbound(conn, stream) => {
                    conn.owner.store(index, Ordering::Release);
                    let mut entry = OutEntry::new(conn, stream);
                    // Frames queued while dialing: drain immediately
                    // rather than waiting for a POLLOUT cycle.
                    match drain_write(&mut entry, &shared) {
                        WriteOutcome::Alive => entries.push(Entry::Outbound(entry)),
                        WriteOutcome::Dead => redial(entry, &shared),
                    }
                }
                Cmd::Shutdown => break 'run,
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break 'run;
        }

        // Build the interest set: the wake pipe first, then every entry.
        pfds.clear();
        pfds.push(libc::pollfd {
            fd: wake_rd,
            events: libc::POLLIN,
            revents: 0,
        });
        for e in &entries {
            pfds.push(libc::pollfd {
                fd: e.fd(),
                events: e.interest(),
                revents: 0,
            });
        }
        let ready = unsafe { libc::poll(pfds.as_mut_ptr(), pfds.len() as libc::nfds_t, -1) };
        if ready < 0 {
            continue; // EINTR
        }
        shared.counters.wakeups.record(ready as u64);
        if pfds[0].revents != 0 {
            drain_wake_pipe(wake_rd);
        }

        // Dispatch the ready set. New inbound entries appended by accepts
        // all land *after* the indices covered by `pfds`, so positions
        // stay aligned; removals happen afterwards, back to front.
        let mut dead: Vec<usize> = Vec::new();
        let polled = pfds.len() - 1;
        for i in 0..polled {
            let revents = pfds[i + 1].revents;
            if revents == 0 {
                continue;
            }
            let hangup = revents & (libc::POLLERR | libc::POLLHUP | libc::POLLNVAL) != 0;
            let mut accepted: Vec<Entry> = Vec::new();
            match &mut entries[i] {
                Entry::Listener { listener, tx } => {
                    if revents & libc::POLLIN != 0 {
                        accept_ready(listener, tx, &shared.counters, &mut accepted);
                    } else if hangup {
                        dead.push(i);
                    }
                }
                Entry::ClientListener { listener, reg } => {
                    if revents & libc::POLLIN != 0 {
                        accept_clients(listener, reg, index, &shared.counters, &mut accepted);
                    } else if hangup {
                        dead.push(i);
                    }
                }
                Entry::Inbound {
                    stream,
                    tx,
                    buf,
                    filled,
                } => {
                    // Peer frames are envelopes for the node's mailbox.
                    let sink = |payload: &[u8]| match paso_wire::decode_exact::<Envelope>(payload) {
                        Ok(env) => match tx.send(env) {
                            Ok(()) => Sunk::Ok,
                            Err(_) => Sunk::Closed, // mailbox gone: node shut down
                        },
                        Err(_) => Sunk::Corrupt,
                    };
                    if !fill_and_split(stream, buf, filled, MAX_FRAME, &shared.counters, sink) {
                        dead.push(i);
                    }
                }
                Entry::Outbound(o) => {
                    if revents & libc::POLLOUT != 0 || (hangup && o.wants_write()) {
                        if let WriteOutcome::Dead = drain_write(o, &shared) {
                            dead.push(i);
                        }
                    } else if hangup {
                        dead.push(i); // idle peer hung up: reconnect
                    }
                }
                Entry::Client {
                    id,
                    reg,
                    out,
                    buf,
                    filled,
                } => {
                    let kicked = out.conn.is_closed();
                    let mut gone = false;
                    if !kicked && revents & libc::POLLIN != 0 {
                        // Client payloads go through opaque.
                        let sink = |payload: &[u8]| {
                            let event = ClientEvent::Frame(ClientId(*id), payload.to_vec());
                            match reg.sink.send(event) {
                                Ok(()) => Sunk::Ok,
                                Err(_) => Sunk::Closed,
                            }
                        };
                        gone = !fill_and_split(
                            &mut out.stream,
                            buf,
                            filled,
                            reg.max_frame,
                            &shared.counters,
                            sink,
                        );
                    }
                    // A kicked connection still drains: replies queued
                    // before the kick (e.g. an auth denial) must reach
                    // the wire before the socket drops. `interest()`
                    // keeps POLLOUT set while `closed`, so a partial
                    // flush retries next wakeup.
                    if revents & libc::POLLOUT != 0 || (hangup && out.wants_write()) {
                        gone |= matches!(drain_write(out, &shared), WriteOutcome::Dead);
                    }
                    if gone || hangup || (kicked && !out.wants_write()) {
                        dead.push(i);
                    }
                }
            }
            entries.extend(accepted);
        }
        // Remove back-to-front; `swap_remove` may move an appended (not
        // yet polled) entry into a dispatched slot, which is harmless.
        for &i in dead.iter().rev() {
            // Listener/inbound entries just drop, which closes the fd.
            match entries.swap_remove(i) {
                Entry::Outbound(o) => redial(o, &shared),
                Entry::Client { id, reg, .. } => {
                    // Clients are accepted, never dialed: death is final.
                    reg.conns.lock().remove(&id);
                    let _ = reg.sink.send(ClientEvent::Disconnected(ClientId(id)));
                }
                _ => {}
            }
        }
    }
    unsafe {
        libc::close(wake_rd);
    }
    // Dropping `entries` closes every remaining fd.
}

/// Sends a failed outbound connection back to the dialer (frames still in
/// its queue survive the reconnect). The `backoff_base` delay before the
/// redial keeps a connect-then-immediately-hang-up peer — e.g. one whose
/// mailbox is gone but whose listener still accepts — from turning into a
/// busy reconnect loop.
fn redial(entry: OutEntry, shared: &ReactorShared) {
    entry.conn.owner.store(NO_OWNER, Ordering::Release);
    let _ = shared.dial_tx.send(DialCmd::Dial {
        conn: entry.conn,
        after: shared.tuning.backoff_base,
    });
}

/// Accepts every pending connection on a ready listener.
fn accept_ready(
    listener: &TcpListener,
    tx: &Sender<Envelope>,
    counters: &NetCounters,
    out: &mut Vec<Entry>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    counters.errors.add(1.0);
                    continue;
                }
                out.push(Entry::Inbound {
                    stream,
                    tx: tx.clone(),
                    buf: Vec::new(),
                    filled: 0,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept error (e.g. fd exhaustion under a
                // client swarm): count it, retry next wakeup.
                counters.errors.add(1.0);
                return;
            }
        }
    }
}

/// Accepts every pending *client* connection: each one gets a fresh id,
/// a registered send queue, and a [`ClientEvent::Connected`].
fn accept_clients(
    listener: &TcpListener,
    reg: &Arc<ClientRegistry>,
    poller: usize,
    counters: &NetCounters,
    out: &mut Vec<Entry>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    counters.errors.add(1.0);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = reg.next_id.fetch_add(1, Ordering::Relaxed);
                let conn = Arc::new(OutConn::new(0, reg.depth));
                conn.owner.store(poller, Ordering::Release);
                reg.conns.lock().insert(id, Arc::clone(&conn));
                if reg.sink.send(ClientEvent::Connected(ClientId(id))).is_err() {
                    // Server gone: undo and stop accepting.
                    reg.conns.lock().remove(&id);
                    return;
                }
                out.push(Entry::Client {
                    id,
                    reg: Arc::clone(reg),
                    out: OutEntry::new(conn, stream),
                    buf: Vec::new(),
                    filled: 0,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                counters.errors.add(1.0);
                return;
            }
        }
    }
}

/// What a per-frame sink made of one complete payload.
enum Sunk {
    /// Consumed; keep splitting.
    Ok,
    /// The receiving end is gone (local shutdown): drop the connection,
    /// nothing was lost to a fault.
    Closed,
    /// The payload does not decode: drop the connection and count it.
    Corrupt,
}

/// Reads whatever is available on `stream` into `buf` (up to the
/// budget), then hands every complete `[varint len][payload]` frame to
/// `sink` and keeps the partial tail for the next wakeup. `max_frame`
/// caps a single frame: the peer [`MAX_FRAME`], or the registry's
/// tighter cap for untrusted clients. Returns `false` when the
/// connection must be dropped (EOF, I/O error, oversize or corrupt
/// frame, or a closed sink). Every drop that loses data — anything but a
/// clean EOF on a frame boundary or local shutdown — bumps
/// `poll_errors`; the connection dies, the poller does not.
fn fill_and_split(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    filled: &mut usize,
    max_frame: usize,
    counters: &NetCounters,
    mut sink: impl FnMut(&[u8]) -> Sunk,
) -> bool {
    let mut fresh = 0usize;
    let mut eof = false;
    while fresh < READ_BUDGET {
        if buf.len() < *filled + READ_CHUNK {
            buf.resize(*filled + READ_CHUNK, 0);
        }
        match stream.read(&mut buf[*filled..]) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                *filled += n;
                fresh += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                counters.errors.add(1.0);
                return false;
            }
        }
    }

    // Split complete frames off the front; keep the partial tail.
    let mut pos = 0usize;
    loop {
        let avail = &buf[pos..*filled];
        let Some((len, header)) = peek_varint(avail) else {
            break; // incomplete header
        };
        if len > max_frame as u64 {
            counters.errors.add(1.0);
            return false; // insane or oversize frame: drop, don't buffer
        }
        let len = len as usize;
        if avail.len() < header + len {
            break; // incomplete body
        }
        match sink(&avail[header..header + len]) {
            Sunk::Ok => {}
            Sunk::Closed => return false,
            Sunk::Corrupt => {
                counters.errors.add(1.0);
                return false;
            }
        }
        pos += header + len;
    }
    if pos > 0 {
        buf.copy_within(pos..*filled, 0);
        *filled -= pos;
    }
    if eof && *filled > 0 {
        // Peer died mid-frame: the partial tail is lost for good.
        counters.errors.add(1.0);
    }
    !eof
}

/// Decodes a varint from the front of `bytes` without consuming,
/// returning `(value, encoded_len)`, or `None` if more bytes are needed.
/// Over-long encodings surface as an oversize `value` and are rejected by
/// the caller's `MAX_FRAME` guard.
fn peek_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        if shift >= 64 {
            return Some((u64::MAX, i + 1)); // malformed: force rejection
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// Drains the connection's send queue through `write_vectored` until the
/// queue empties or the socket stops accepting bytes.
///
/// The batch is assembled **without popping**: headers are varint-encoded
/// into the per-connection scratch buffer and payloads referenced
/// straight from the queued `Arc`s, so a frame occupies queue capacity
/// until its last byte is on the wire (backpressure) and `bytes_sent` /
/// `msgs_delivered` count exactly the frames a live socket accepted. On
/// a write error the partially-written frame (corrupt mid-stream) is
/// dropped **with accounting**; unwritten frames stay queued for the
/// reconnect.
fn drain_write(o: &mut OutEntry, shared: &ReactorShared) -> WriteOutcome {
    let tuning = &shared.tuning;
    let counters = &shared.counters;
    loop {
        // Assemble a batch if none is in flight.
        if o.batch_done == o.batch.len() {
            o.batch.clear();
            o.batch_done = 0;
            o.scratch.clear();
            o.written = 0;
            o.total = 0;
            {
                let q = o.conn.queue.lock();
                if q.is_empty() {
                    return WriteOutcome::Alive;
                }
                for frame in q.iter().take(tuning.max_batch_frames.max(1)) {
                    if !o.batch.is_empty() && o.total + frame.len() + 10 > tuning.max_batch_bytes {
                        break;
                    }
                    let h0 = o.scratch.len();
                    paso_wire::put_varint(&mut o.scratch, frame.len() as u64);
                    let h1 = o.scratch.len();
                    o.total += (h1 - h0) + frame.len();
                    o.batch.push(BatchFrame {
                        frame: Arc::clone(frame),
                        header: (h0, h1),
                        end: o.total,
                    });
                }
            }
            counters.batch_frames.record(o.batch.len() as u64);
            counters.batch_bytes.record(o.total as u64);
        }

        // Gather the unwritten remainder into IoSlices.
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity((o.batch.len() - o.batch_done) * 2);
        for bf in &o.batch[o.batch_done..] {
            let header_len = bf.header.1 - bf.header.0;
            let start = bf.end - header_len - bf.frame.len();
            let header = &o.scratch[bf.header.0..bf.header.1];
            if o.written <= start {
                slices.push(IoSlice::new(header));
                slices.push(IoSlice::new(&bf.frame));
            } else if o.written < start + header_len {
                slices.push(IoSlice::new(&header[o.written - start..]));
                slices.push(IoSlice::new(&bf.frame));
            } else if o.written < bf.end {
                slices.push(IoSlice::new(&bf.frame[o.written - start - header_len..]));
            }
        }

        match o.stream.write_vectored(&slices) {
            Ok(0) => return fail_batch(o, counters),
            Ok(n) => {
                o.written += n;
                // Pop (and account) every frame that fully left.
                while o.batch_done < o.batch.len() && o.batch[o.batch_done].end <= o.written {
                    let bf = &o.batch[o.batch_done];
                    let framed = (bf.header.1 - bf.header.0) + bf.frame.len();
                    counters.bytes.add(framed as f64);
                    counters.delivered.add(1.0);
                    pop_front(&o.conn, &bf.frame, counters);
                    o.batch_done += 1;
                }
                // Loop: either more of this batch, or start the next.
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return WriteOutcome::Alive,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return fail_batch(o, counters),
        }
    }
}

/// Write failure: drop the partially-written frame (its prefix is on the
/// dead stream; resending it whole on a new connection could duplicate),
/// keep everything else queued, and reconnect.
fn fail_batch(o: &mut OutEntry, counters: &NetCounters) -> WriteOutcome {
    counters.errors.add(1.0);
    if o.batch_done < o.batch.len() {
        let bf = &o.batch[o.batch_done];
        let start = bf.end - (bf.header.1 - bf.header.0) - bf.frame.len();
        if o.written > start {
            counters.dropped.add(1.0);
            pop_front(&o.conn, &bf.frame, counters);
        }
    }
    o.batch.clear();
    o.batch_done = 0;
    o.scratch.clear();
    o.written = 0;
    o.total = 0;
    WriteOutcome::Dead
}

/// Pops the queue front, which must be the batch frame just completed
/// (senders only push; this poller is the only popper). An empty queue
/// here is a desync bug — counted and asserted in debug builds, but
/// never worth killing a production poller over.
fn pop_front(conn: &OutConn, expect: &Frame, counters: &NetCounters) {
    let mut q = conn.queue.lock();
    match q.pop_front() {
        Some(popped) => debug_assert!(Arc::ptr_eq(&popped, expect), "queue/batch desync"),
        None => {
            debug_assert!(false, "queue front must exist");
            counters.errors.add(1.0);
        }
    }
    conn.len.store(q.len(), Ordering::Release);
}
