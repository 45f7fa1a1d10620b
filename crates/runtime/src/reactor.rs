//! A thin `poll(2)` reactor: the event-driven I/O core of
//! [`TcpTransport`](crate::TcpTransport).
//!
//! Each transport has **one background I/O thread**. It owns the dial
//! deadline heap and every dialed outbound socket, and does the two jobs
//! no other thread is parked for: it connects peers, with capped
//! exponential backoff off the send path, and it finishes on `POLLOUT`
//! the writes a sender left behind. No async runtime, no
//! thread-per-connection: one node talking to hundreds of peers costs
//! that one thread.
//!
//! Whoever writes a link drains its bounded send queue with
//! `write_vectored`: varint headers go into one per-connection scratch
//! buffer, payload [`Frame`]s are referenced **in place** — no per-send
//! allocation or copy, ever; a gcast frame queued at 100 peers is one
//! allocation total. Frames are popped (and counted as sent) only when
//! their last byte hits the socket, so the bounded queue *is* the
//! backpressure accounting.
//!
//! ## Who reads a socket
//!
//! **A node reads its own sockets.** Each node's listener and every peer
//! connection accepted on it belong to its [`Inbound`], which the node's
//! thread polls itself when it asks its mailbox for the next envelope
//! and nothing decoded is waiting: one `ppoll` with the caller's timeout,
//! then accepts, and reads of every ready connection into a reusable
//! per-connection buffer. Complete `[varint len][envelope]` frames are
//! decoded; the partial tail stays buffered for the next call
//! (incremental framing — a frame may arrive a byte at a time). A peer
//! message costs the receiving node's wake-up and no hand-off to another
//! thread.
//!
//! **A gateway reads and writes its own client sockets.** Its
//! [`FrameServer`](crate::FrameServer) — the client listener and every
//! connection accepted on it — belongs to the gateway's logic thread,
//! which folds those fds into the same `ppoll` as its mailbox's
//! ([`Inbound::recv`]), reads frames with the same [`fill_and_split`],
//! and writes each client's replies once per pass of its loop.
//!
//! The buffering contract follows from that: nothing reads for a node
//! that is busy. Its backlog sits in its socket buffers, then in each
//! sender's bounded [`OutConn`] queue (`queue_depth` frames), and what
//! overflows that is dropped and counted in `net.msgs_dropped`, as for
//! any slow reader. A flooding peer cannot grow a node's memory.
//!
//! ## Who writes a socket
//!
//! **An idle link sends now, a busy link coalesces.** A connection's
//! write side — the socket handle and the progress of the batch being
//! written — lives in its shared [`OutConn`] behind one mutex, and
//! `drain_write` is the only routine that writes a peer socket; it runs
//! with that mutex held. Two kinds of thread call it:
//!
//! - the **sending thread**, when its push took the queue from empty to
//!   non-empty ([`Reactor::write_through`]): the link is idle, nobody is
//!   writing it, so the frame goes out in the caller's own `writev`;
//! - the **I/O thread**, on `POLLOUT`, for everything a sender could
//!   not finish: the mutex was taken (`try_lock` — a sender never waits),
//!   the connection is not dialed yet, the kernel buffer filled
//!   (`WouldBlock`, possibly mid-frame), or the write failed. The sender
//!   wakes it through its self-pipe. On a busy link the queue is
//!   non-empty when a sender pushes, so the frame just joins it and
//!   leaves in whoever-is-writing's next `writev` with its neighbours.
//!
//! Lock order is write half → queue: `drain_write` takes the queue lock
//! briefly while it holds the write half; a sender pushes, lets the queue
//! lock go, and only then tries the write half. Only the I/O thread
//! dials: a sender whose write fails gives the socket up (the
//! half-written frame dropped and counted, the socket shut down so the
//! I/O thread sees `POLLHUP`), and the I/O thread puts the connection
//! back on its dial heap with the rest of its queue.
//!
//! Shutdown is joined, not detached: dropping the transport wakes the I/O
//! thread, [`Reactor::shutdown`] joins it, and dropping its entries and,
//! right behind them, the transport's table of [`OutConn`]s (which share
//! the connected sockets) closes every fd the transport owns; a node's
//! listener and accepted connections close with its mailbox — asserted
//! by the transport-lifecycle leak test.

use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use paso_telemetry::{metrics, Counter, Telemetry};

use crate::transport::{Envelope, MAX_FRAME};

/// A refcounted, already-encoded envelope body (no length prefix — the
/// writer prepends the varint header from its scratch buffer). One
/// encoding serves every queue that holds the frame.
pub(crate) type Frame = Arc<[u8]>;

/// Read budget per ready connection and wakeup: parse after at most this
/// many fresh bytes so one firehose connection cannot starve its siblings
/// (level-triggered poll re-fires while data remains).
const READ_BUDGET: usize = 256 << 10;

/// Granularity the read buffer grows by.
const READ_CHUNK: usize = 16 << 10;

/// First retry delay after a failed dial, and the pause before redialing
/// a connection that failed.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Ceiling for the exponential dial backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Outbound-connection state shared between the send path (push, and the
/// write itself on an idle link) and the I/O thread (drain, dial).
pub(crate) struct OutConn {
    /// Peer's listener port.
    port: u16,
    /// Bounded FIFO of frames awaiting the wire. Senders push; whoever
    /// holds `write` pops a frame only once it is fully written.
    queue: Mutex<VecDeque<Frame>>,
    /// Lock-free mirror of `queue.len()` so building the interest set
    /// takes no lock for idle connections.
    len: AtomicUsize,
    /// Queue capacity (`TransportTuning::queue_depth`).
    depth: usize,
    /// The socket's write side. Whoever holds this lock is the
    /// connection's one writer for as long as it holds it; `queue` is
    /// only ever taken inside it, never the other way round.
    write: Mutex<WriteHalf>,
}

/// One frame of a connection's active write batch.
struct BatchFrame {
    frame: Frame,
    /// Span of this frame's varint header inside the scratch buffer.
    header: (usize, usize),
    /// Cumulative end offset of this frame in the batch byte stream.
    end: usize,
}

/// The write side of a connection: the socket and the progress of the
/// batch being written to it. Only [`drain_write`] writes the socket.
#[derive(Default)]
struct WriteHalf {
    /// The connected socket, shared with the I/O thread's entry (which
    /// polls it). `None` while the connection is being dialed, and from a
    /// write failure until the I/O thread redials it.
    stream: Option<Arc<TcpStream>>,
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

impl OutConn {
    pub(crate) fn new(port: u16, depth: usize) -> Self {
        OutConn {
            port,
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            depth,
            write: Mutex::new(WriteHalf::default()),
        }
    }

    /// Appends a frame. `Ok(true)` means the queue was empty (nobody is
    /// writing this connection: the caller writes it or wakes the I/O
    /// thread); `Err` returns the frame when the bounded queue is full.
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

    /// Whether anything awaits the wire. A frame stays queued until its
    /// last byte is written, so this covers an unfinished batch too.
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

/// Commands delivered to the I/O thread through its inbox + wake pipe.
enum Cmd {
    /// Dial a fresh connection (once `dial_stall` has passed).
    Dial(Arc<OutConn>),
    /// Drop every entry and exit.
    Shutdown,
}

/// The write end of the I/O thread's self-pipe plus its command queue.
struct Inbox {
    cmds: Mutex<Vec<Cmd>>,
    wake_fd: libc::c_int,
}

impl Inbox {
    /// Queues a command and wakes the I/O thread.
    fn send(&self, cmd: Cmd) {
        self.cmds.lock().push(cmd);
        self.wake();
    }

    /// Pokes the self-pipe; the byte sits there (level-triggered) until
    /// the I/O thread drains it, so wakeups cannot be lost.
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

/// One dial attempt waiting for its deadline in the I/O thread's heap.
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

/// The transport's I/O core: one background thread, joined on
/// [`Reactor::shutdown`].
pub(crate) struct Reactor {
    inbox: Arc<Inbox>,
    counters: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").finish_non_exhaustive()
    }
}

impl Reactor {
    /// Spawns the I/O thread. `dial_stall` defers every dial attempt
    /// (`TransportTuning::dial_stall`).
    pub(crate) fn start(
        dial_stall: Duration,
        counters: Arc<Telemetry>,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        let (wake_rd, wake_fd) = wake_pipe();
        let inbox = Arc::new(Inbox {
            cmds: Mutex::new(Vec::new()),
            wake_fd,
        });
        let io = IoThread {
            wake_rd,
            inbox: Arc::clone(&inbox),
            counters: Arc::clone(&counters),
            shutdown: Arc::clone(&shutdown),
            dial_stall,
            dials: BinaryHeap::new(),
            seq: 0,
            entries: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name("paso-net-io".into())
            .spawn(move || io.run())
            .expect("spawn I/O thread");
        Reactor {
            inbox,
            counters,
            shutdown,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Schedules the first dial for a fresh connection.
    pub(crate) fn dial(&self, conn: Arc<OutConn>) {
        self.inbox.send(Cmd::Dial(conn));
    }

    /// For a sender whose push took `conn`'s queue from empty to
    /// non-empty, i.e. found the link idle: writes the queue to the
    /// socket from the calling thread, so the frame leaves now instead of
    /// after a pipe write, a wake-up of the I/O thread and a second `poll`
    /// round. Whatever this thread cannot finish — another writer holds
    /// the socket, it is not dialed yet, the kernel buffer is full
    /// (`WouldBlock`, possibly mid-frame), the write failed — is left to
    /// the I/O thread, woken for it (a link still dialing is drained when
    /// its socket is installed, so that wake costs one spurious loop).
    pub(crate) fn write_through(&self, conn: &OutConn) {
        let finished = conn.write.try_lock().is_some_and(|mut w| {
            matches!(
                drain_write(conn, &mut w, &self.counters),
                WriteOutcome::Alive
            ) && !conn.pending()
        });
        if !finished {
            self.inbox.wake();
        }
    }

    /// Stops and joins the I/O thread, closing all fds. Safe to call more
    /// than once.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.inbox.send(Cmd::Shutdown);
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
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
pub(crate) fn wake_pipe() -> (libc::c_int, libc::c_int) {
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

pub(crate) fn drain_wake_pipe(fd: libc::c_int) {
    let mut buf = [0u8; 64];
    loop {
        let n = unsafe { libc::read(fd, buf.as_mut_ptr(), buf.len()) };
        if n < buf.len() as libc::ssize_t {
            return; // empty (EAGAIN) or short read: drained
        }
    }
}

/// What `drain_write` decided about the connection.
enum WriteOutcome {
    /// Keep the connection (possibly with an unfinished batch).
    Alive,
    /// No usable socket (it failed, now or under an earlier writer, or it
    /// is not dialed yet): the I/O thread redials it.
    Dead,
}

/// A dialed peer connection: written through `conn`'s write half, by
/// the I/O thread or by a sending thread; the I/O thread polls the socket.
struct Entry {
    conn: Arc<OutConn>,
    stream: Arc<TcpStream>,
}

/// The I/O thread's state: everything it owns, and the read end of its
/// self-pipe.
struct IoThread {
    wake_rd: libc::c_int,
    inbox: Arc<Inbox>,
    counters: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
    dial_stall: Duration,
    dials: BinaryHeap<DialAt>,
    /// Tie-breaker that keeps dials due at the same instant in order.
    seq: u64,
    entries: Vec<Entry>,
}

impl IoThread {
    /// The loop: take commands, connect whatever dials are due, `ppoll`
    /// the pipe and every entry until the next dial deadline (forever if
    /// none is pending), then drain `POLLOUT` entries and redial hung-up
    /// ones.
    fn run(mut self) {
        let mut pfds: Vec<libc::pollfd> = Vec::new();
        'run: loop {
            let cmds = std::mem::take(&mut *self.inbox.cmds.lock());
            for cmd in cmds {
                match cmd {
                    Cmd::Dial(conn) => self.schedule(conn, Duration::ZERO, BACKOFF_BASE),
                    Cmd::Shutdown => break 'run,
                }
            }
            self.dial_due();

            // The wake pipe first, then every entry. Idle entries stay in
            // the set with no requested events: POLLERR/POLLHUP are
            // reported regardless, so a dead peer is noticed without
            // waiting for the next send.
            pfds.clear();
            pfds.push(libc::pollfd {
                fd: self.wake_rd,
                events: libc::POLLIN,
                revents: 0,
            });
            pfds.extend(self.entries.iter().map(|e| libc::pollfd {
                fd: e.stream.as_raw_fd(),
                events: if e.conn.pending() { libc::POLLOUT } else { 0 },
                revents: 0,
            }));
            let timeout = self.dials.peek().map_or(Duration::MAX, |d| {
                d.at.saturating_duration_since(Instant::now())
            });
            let ready = ppoll(&mut pfds, timeout);
            if ready <= 0 {
                continue; // a dial is due, or EINTR
            }
            self.counters
                .record(metrics::NET_POLL_WAKEUPS, ready as u64);
            if pfds[0].revents != 0 {
                drain_wake_pipe(self.wake_rd);
            }

            // Dispatch the ready set; removals happen afterwards, back to
            // front.
            let mut dead: Vec<usize> = Vec::new();
            for (i, (e, p)) in self.entries.iter().zip(&pfds[1..]).enumerate() {
                let hangup = p.revents & (libc::POLLERR | libc::POLLHUP | libc::POLLNVAL) != 0;
                let conn = &e.conn;
                if p.revents & libc::POLLOUT != 0 || (hangup && conn.pending()) {
                    // Blocks only for as long as a sending thread's own
                    // drain takes; what that leaves is ours.
                    let outcome = drain_write(conn, &mut conn.write.lock(), &self.counters);
                    if let WriteOutcome::Dead = outcome {
                        dead.push(i);
                    }
                } else if hangup {
                    // Idle peer hung up, or a sending thread's write failed
                    // and shut the socket down: reconnect.
                    dead.push(i);
                }
            }
            for &i in dead.iter().rev() {
                let conn = self.entries.swap_remove(i).conn;
                self.redial(conn);
            }
        }
        // SAFETY: the pipe's read end is this thread's alone, and the loop
        // that polled it is over.
        unsafe {
            libc::close(self.wake_rd);
        }
        // Dropping `self` closes every remaining entry's fd but the
        // connected sockets their `OutConn`s share, which go with those.
    }

    /// Puts a dial for `conn` on the heap, due after `after` plus
    /// `dial_stall` (SYN-blackhole emulation, which defers the attempt
    /// without holding up other peers' dials or any drain).
    fn schedule(&mut self, conn: Arc<OutConn>, after: Duration, backoff: Duration) {
        self.dials.push(DialAt {
            at: Instant::now() + after + self.dial_stall,
            seq: self.seq,
            conn,
            backoff,
        });
        self.seq += 1;
    }

    /// Connects every dial whose deadline has passed. A live socket is
    /// installed here and drains the frames queued while it was dialing;
    /// a failure goes back on the heap with doubled, capped backoff.
    fn dial_due(&mut self) {
        let now = Instant::now();
        while self.dials.peek().is_some_and(|d| d.at <= now) {
            let Some(due) = self.dials.pop() else { break };
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // A blocking connect, and no drain runs while it does. That
            // holds only because every peer is a localhost listener, which
            // accepts or refuses at once; a peer across a real network
            // would need a nonblocking connect finished on `POLLOUT`.
            let stream = match TcpStream::connect(("127.0.0.1", due.conn.port)) {
                // A connect that succeeds but cannot be made nonblocking
                // is unusable here: count it and retry like any other dial
                // failure rather than panicking the I/O thread.
                Ok(stream) if stream.set_nonblocking(true).is_ok() => Some(stream),
                Ok(_) => {
                    self.counters.count(metrics::NET_POLL_ERRORS, 1.0);
                    None
                }
                Err(_) => None,
            };
            let Some(stream) = stream else {
                self.schedule(due.conn, due.backoff, (due.backoff * 2).min(BACKOFF_CAP));
                continue;
            };
            let _ = stream.set_nodelay(true);
            let stream = Arc::new(stream);
            let conn = due.conn;
            let outcome = {
                let mut w = conn.write.lock();
                w.stream = Some(Arc::clone(&stream));
                drain_write(&conn, &mut w, &self.counters)
            };
            match outcome {
                WriteOutcome::Alive => self.entries.push(Entry { conn, stream }),
                WriteOutcome::Dead => self.redial(conn),
            }
        }
    }

    /// Puts a failed connection back on the dial heap (frames still in its
    /// queue survive the reconnect). Only the I/O thread dials, so a
    /// connection is never dialed twice. The `BACKOFF_BASE` delay keeps a
    /// connect-then-immediately-hang-up peer — e.g. one whose mailbox is
    /// gone but whose listener still accepts — from turning into a busy
    /// reconnect loop.
    fn redial(&mut self, conn: Arc<OutConn>) {
        abandon(&conn, &mut conn.write.lock(), &self.counters);
        self.schedule(conn, BACKOFF_BASE, BACKOFF_BASE);
    }
}

/// One node's receiving side of the TCP transport: its listener, every
/// peer connection accepted on it, and the envelopes decoded from them
/// but not yet handed out. Only the thread that receives for the node
/// touches it (see "Who reads a socket").
pub(crate) struct Inbound {
    listener: TcpListener,
    conns: Vec<InConn>,
    /// Decoded envelopes, oldest first; the sockets are polled only once
    /// this is empty.
    ready: VecDeque<Envelope>,
    /// Reused interest set: the listener, `conns` in order, then the
    /// caller's extra fds.
    pfds: Vec<libc::pollfd>,
    counters: Arc<Telemetry>,
}

/// One accepted peer connection.
struct InConn {
    stream: TcpStream,
    /// Reusable frame-assembly buffer; the first `filled` bytes are valid.
    buf: Vec<u8>,
    filled: usize,
}

impl Inbound {
    /// # Panics
    ///
    /// Panics if the listener cannot be made nonblocking.
    pub(crate) fn new(listener: TcpListener, counters: Arc<Telemetry>) -> Self {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        Inbound {
            listener,
            conns: Vec::new(),
            ready: VecDeque::new(),
            pfds: Vec::new(),
            counters,
        }
    }

    /// The next envelope: a decoded one if any is waiting, else whatever
    /// polling the sockets yields before `timeout` runs out (a zero
    /// timeout polls once without waiting) — or `None` as soon as one of
    /// `extra`'s fds is ready (its `revents` set). The extra fds share the
    /// node's `ppoll`, but only a return on which one of the node's own
    /// was ready counts as a wake-up of the node (`net.poll.wakeups`).
    pub(crate) fn recv(
        &mut self,
        extra: &mut [libc::pollfd],
        timeout: Duration,
    ) -> Option<Envelope> {
        extra.iter_mut().for_each(|p| p.revents = 0);
        if let Some(env) = self.ready.pop_front() {
            return Some(env);
        }
        let deadline = Instant::now() + timeout;
        loop {
            self.poll(deadline.saturating_duration_since(Instant::now()), extra);
            if let Some(env) = self.ready.pop_front() {
                return Some(env);
            }
            if extra.iter().any(|p| p.revents != 0) || Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// One `ppoll` round over the listener, every connection and `extra`,
    /// waiting at most `timeout`. Ready connections are read and their
    /// complete frames decoded into `ready`; a connection that breaks the
    /// framing, fails or hangs up is dropped, with the accounting of
    /// [`fill_and_split`]. Then pending connections are accepted.
    fn poll(&mut self, timeout: Duration, extra: &mut [libc::pollfd]) {
        let Inbound {
            listener,
            conns,
            ready,
            pfds,
            counters,
        } = self;
        pfds.clear();
        pfds.push(libc::pollfd {
            fd: listener.as_raw_fd(),
            events: libc::POLLIN,
            revents: 0,
        });
        pfds.extend(conns.iter().map(|c| libc::pollfd {
            fd: c.stream.as_raw_fd(),
            events: libc::POLLIN,
            revents: 0,
        }));
        let own = pfds.len();
        pfds.extend_from_slice(extra);
        if ppoll(pfds, timeout) <= 0 {
            return; // timed out, or EINTR
        }
        for (p, got) in extra.iter_mut().zip(&pfds[own..]) {
            p.revents = got.revents;
        }
        let woke = pfds[..own].iter().filter(|p| p.revents != 0).count();
        if woke == 0 {
            return;
        }
        counters.record(metrics::NET_POLL_WAKEUPS, woke as u64);
        let mut polled = pfds[1..own].iter();
        conns.retain_mut(|c| {
            if polled.next().is_none_or(|p| p.revents == 0) {
                return true;
            }
            let sink = |payload: &[u8]| match paso_wire::decode_exact::<Envelope>(payload) {
                Ok(env) => {
                    ready.push_back(env);
                    Sunk::Ok
                }
                Err(_) => Sunk::Corrupt,
            };
            fill_and_split(
                &mut c.stream,
                &mut c.buf,
                &mut c.filled,
                MAX_FRAME,
                counters.counter(metrics::NET_POLL_ERRORS),
                sink,
            )
        });
        if pfds[0].revents != 0 {
            self.accept();
        }
    }

    /// Accepts every pending connection on the listener.
    fn accept(&mut self) {
        let conns = &mut self.conns;
        let errors = self.counters.counter(metrics::NET_POLL_ERRORS);
        accept_all(&self.listener, errors, |stream| {
            conns.push(InConn {
                stream,
                buf: Vec::new(),
                filled: 0,
            });
        });
    }
}

/// Accepts every pending connection on `listener`, made nonblocking, into
/// `adopt`. A transient accept error (e.g. fd exhaustion) is counted in
/// `errors` and retried at the next poll.
pub(crate) fn accept_all(
    listener: &TcpListener,
    errors: &Counter,
    mut adopt: impl FnMut(TcpStream),
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    errors.add(1.0);
                    continue;
                }
                adopt(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                errors.add(1.0);
                return;
            }
        }
    }
}

impl std::fmt::Debug for Inbound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inbound")
            .field("conns", &self.conns.len())
            .field("ready", &self.ready.len())
            .finish_non_exhaustive()
    }
}

/// One `ppoll` over `fds`, waiting at most `timeout` — to the
/// nanosecond: a node's 200 µs timer floor must neither spin nor round up
/// to a millisecond. Returns the number of ready fds, 0 on timeout, or a
/// negative value (EINTR).
pub(crate) fn ppoll(fds: &mut [libc::pollfd], timeout: Duration) -> libc::c_int {
    let timeout = libc::timespec {
        tv_sec: timeout.as_secs().try_into().unwrap_or(libc::time_t::MAX),
        tv_nsec: timeout.subsec_nanos().into(),
    };
    // SAFETY: `fds` is an exclusively borrowed, initialized array of
    // `fds.len()` pollfds, and `timeout` outlives the call; a null signal
    // mask is allowed and leaves the thread's mask unchanged.
    unsafe {
        libc::ppoll(
            fds.as_mut_ptr(),
            fds.len() as libc::nfds_t,
            &timeout,
            ptr::null(),
        )
    }
}

/// What a per-frame sink made of one complete payload.
pub(crate) enum Sunk {
    /// Consumed; keep splitting.
    Ok,
    /// The payload does not decode: drop the connection and count it.
    Corrupt,
}

/// Reads whatever is available on `stream` into `buf` (up to the
/// budget), then hands every complete `[varint len][payload]` frame to
/// `sink` and keeps the partial tail for the next wakeup. `max_frame`
/// caps a single frame: the peer [`MAX_FRAME`], or the tighter cap of a
/// [`FrameServer`](crate::FrameServer) for untrusted clients. Returns
/// `false` when the connection must be dropped (EOF, I/O error, oversize
/// or corrupt frame). Every drop that loses data — anything but a clean
/// EOF on a frame boundary — bumps `errors`; the connection dies, its
/// reader does not.
pub(crate) fn fill_and_split(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    filled: &mut usize,
    max_frame: usize,
    errors: &Counter,
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
                errors.add(1.0);
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
            errors.add(1.0);
            return false; // insane or oversize frame: drop, don't buffer
        }
        let len = len as usize;
        if avail.len() < header + len {
            break; // incomplete body
        }
        match sink(&avail[header..header + len]) {
            Sunk::Ok => {}
            Sunk::Corrupt => {
                errors.add(1.0);
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
        errors.add(1.0);
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

/// Max bytes one writer batch may coalesce before issuing the write (a
/// stalled reader cannot balloon sender memory).
const MAX_BATCH_BYTES: usize = 256 << 10;

/// Max frames one vectored write may gather from a connection's queue
/// (bounds the iovec and the header scratch buffer).
const MAX_BATCH_FRAMES: usize = 64;

/// Drains the connection's send queue through `write_vectored` until the
/// queue empties or the socket stops accepting bytes. The one routine
/// that writes a socket: the I/O thread calls it on `POLLOUT` (and when
/// it installs a dialed socket), a sending thread calls it through
/// [`Reactor::write_through`], each holding `conn.write` as `w`.
///
/// The batch is assembled **without popping**: headers are varint-encoded
/// into the per-connection scratch buffer and payloads referenced
/// straight from the queued `Arc`s, so a frame occupies queue capacity
/// until its last byte is on the wire (backpressure) and `bytes_sent` /
/// `msgs_delivered` count exactly the frames a live socket accepted. On
/// a write error the partially-written frame (corrupt mid-stream) is
/// dropped **with accounting**; unwritten frames stay queued for the
/// reconnect.
fn drain_write(conn: &OutConn, w: &mut WriteHalf, counters: &Telemetry) -> WriteOutcome {
    let Some(mut stream) = w.stream.as_deref() else {
        return WriteOutcome::Dead;
    };
    loop {
        // Assemble a batch if none is in flight.
        if w.batch_done == w.batch.len() {
            w.batch.clear();
            w.batch_done = 0;
            w.scratch.clear();
            w.written = 0;
            w.total = 0;
            {
                let q = conn.queue.lock();
                if q.is_empty() {
                    return WriteOutcome::Alive;
                }
                for frame in q.iter().take(MAX_BATCH_FRAMES) {
                    if !w.batch.is_empty() && w.total + frame.len() + 10 > MAX_BATCH_BYTES {
                        break;
                    }
                    let h0 = w.scratch.len();
                    paso_wire::put_varint(&mut w.scratch, frame.len() as u64);
                    let h1 = w.scratch.len();
                    w.total += (h1 - h0) + frame.len();
                    w.batch.push(BatchFrame {
                        frame: Arc::clone(frame),
                        header: (h0, h1),
                        end: w.total,
                    });
                }
            }
            counters.record(metrics::NET_WRITEV_BATCH_FRAMES, w.batch.len() as u64);
            counters.record(metrics::NET_WRITEV_BATCH_BYTES, w.total as u64);
        }

        // Gather the unwritten remainder into IoSlices.
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity((w.batch.len() - w.batch_done) * 2);
        for bf in &w.batch[w.batch_done..] {
            let header_len = bf.header.1 - bf.header.0;
            let start = bf.end - header_len - bf.frame.len();
            let header = &w.scratch[bf.header.0..bf.header.1];
            if w.written <= start {
                slices.push(IoSlice::new(header));
                slices.push(IoSlice::new(&bf.frame));
            } else if w.written < start + header_len {
                slices.push(IoSlice::new(&header[w.written - start..]));
                slices.push(IoSlice::new(&bf.frame));
            } else if w.written < bf.end {
                slices.push(IoSlice::new(&bf.frame[w.written - start - header_len..]));
            }
        }

        match stream.write_vectored(&slices) {
            Ok(0) => return fail_batch(conn, w, counters),
            Ok(n) => {
                w.written += n;
                // Pop (and account) every frame that fully left.
                while w.batch_done < w.batch.len() && w.batch[w.batch_done].end <= w.written {
                    let bf = &w.batch[w.batch_done];
                    let framed = (bf.header.1 - bf.header.0) + bf.frame.len();
                    counters.count(metrics::NET_BYTES_SENT, framed as f64);
                    counters.count(metrics::NET_MSGS_DELIVERED, 1.0);
                    pop_front(conn, &bf.frame, counters);
                    w.batch_done += 1;
                }
                // Loop: either more of this batch, or start the next.
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return WriteOutcome::Alive,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return fail_batch(conn, w, counters),
        }
    }
}

/// Write failure: count it, give the socket up, and have the I/O thread
/// reconnect.
fn fail_batch(conn: &OutConn, w: &mut WriteHalf, counters: &Telemetry) -> WriteOutcome {
    counters.count(metrics::NET_POLL_ERRORS, 1.0);
    abandon(conn, w, counters);
    WriteOutcome::Dead
}

/// Gives the connection's socket up: drops the partially-written frame
/// (its prefix is on the dead stream; resending it whole on a new
/// connection could duplicate) with accounting, keeps everything else
/// queued, and shuts the socket down — so that the I/O thread, when it
/// did not see the failure itself (a sending thread did), gets `POLLHUP`
/// for it whatever state the kernel left it in, and redials. A no-op on a
/// connection already given up.
fn abandon(conn: &OutConn, w: &mut WriteHalf, counters: &Telemetry) {
    if let Some(bf) = w.batch.get(w.batch_done) {
        let start = bf.end - (bf.header.1 - bf.header.0) - bf.frame.len();
        if w.written > start {
            counters.count(metrics::NET_MSGS_DROPPED, 1.0);
            pop_front(conn, &bf.frame, counters);
        }
    }
    w.batch.clear();
    w.batch_done = 0;
    w.scratch.clear();
    w.written = 0;
    w.total = 0;
    if let Some(stream) = w.stream.take() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Pops the queue front, which must be the batch frame just completed
/// (senders only push; the holder of `conn.write` is the only popper). An
/// empty queue here is a desync bug — counted and asserted in debug
/// builds, but never worth killing a production I/O thread over.
fn pop_front(conn: &OutConn, expect: &Frame, counters: &Telemetry) {
    let mut q = conn.queue.lock();
    match q.pop_front() {
        Some(popped) => debug_assert!(Arc::ptr_eq(&popped, expect), "queue/batch desync"),
        None => {
            debug_assert!(false, "queue front must exist");
            counters.count(metrics::NET_POLL_ERRORS, 1.0);
        }
    }
    conn.len.store(q.len(), Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocks until `stream`'s peer has reset it.
    fn wait_for_reset(stream: &TcpStream) {
        let mut pfd = libc::pollfd {
            fd: stream.as_raw_fd(),
            events: 0,
            revents: 0,
        };
        let ready = unsafe { libc::poll(&mut pfd, 1, 5_000) };
        assert_eq!(ready, 1, "the peer's reset never arrived");
        assert_ne!(pfd.revents & (libc::POLLERR | libc::POLLHUP), 0);
    }

    /// Sender-thread twin of the transport's peer-death tests: the write
    /// that finds the peer gone is the calling thread's own. The I/O
    /// thread never installed this connection, so whatever happens to it
    /// the caller did.
    #[test]
    fn peer_death_during_an_inline_write_drops_the_half_written_frame_once() {
        let counters = Arc::new(Telemetry::new());
        let read = |id| counters.counter(id).get();
        let reactor = Reactor::start(
            Duration::ZERO,
            Arc::clone(&counters),
            Arc::new(AtomicBool::new(false)),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_nonblocking(true).unwrap();
        let stream = Arc::new(stream);
        let (peer, _) = listener.accept().unwrap();
        let conn = OutConn::new(port, 16);
        conn.write.lock().stream = Some(Arc::clone(&stream));

        // More than the kernel buffers toward a peer that reads nothing:
        // part of the frame goes out, the rest waits for `POLLOUT`.
        assert_eq!(conn.try_push(vec![7u8; 8 << 20].into()), Ok(true));
        reactor.write_through(&conn);
        assert_eq!(conn.queued(), 1, "an 8 MiB frame fit the socket buffers");
        let behind: [Frame; 2] = [vec![1u8; 8].into(), vec![2u8; 8].into()];
        for frame in &behind {
            assert_eq!(conn.try_push(Arc::clone(frame)), Ok(false));
        }

        drop(peer); // unread bytes: the close resets the connection
        wait_for_reset(&stream);
        reactor.write_through(&conn);
        assert_eq!(read(metrics::NET_POLL_ERRORS), 1.0);
        assert_eq!(
            read(metrics::NET_MSGS_DROPPED),
            1.0,
            "the half-written frame"
        );
        assert_eq!(read(metrics::NET_MSGS_DELIVERED), 0.0);
        let left = conn.queued_frames();
        assert!(left.iter().zip(&behind).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(left.len(), 2, "the frames behind it wait for the redial");

        // The socket is given up: an I/O thread holding the other reference
        // is told so by `POLLHUP`, and later senders touch nothing.
        assert!(conn.write.lock().stream.is_none());
        wait_for_reset(&stream);
        reactor.write_through(&conn);
        assert_eq!(read(metrics::NET_POLL_ERRORS), 1.0);
        assert_eq!(read(metrics::NET_MSGS_DROPPED), 1.0, "dropped once");
        assert_eq!(conn.queued(), 2);
    }
}
