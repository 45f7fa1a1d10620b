//! The serving tier's client sockets: a listener and every connection
//! accepted on it, owned by one thread.
//!
//! Peer connections (the [`TcpTransport`](crate::TcpTransport)) are
//! symmetric, dialed, and speak [`Envelope`](crate::Envelope)s; *client*
//! connections are the opposite — accepted only, untrusted, and cheap:
//! 10k of them cost the same one thread as 10. A [`FrameServer`] has no
//! threads: the gateway's logic thread reads and writes it, and parks on
//! its fds and its mailbox's in one `ppoll`
//! ([`GatewayLink::wait`](crate::GatewayLink::wait)), so a client frame
//! and its reply cost that thread's wake-up and no hand-off.
//!
//! Each connection has a read buffer, filled by the transport's
//! incremental framing under the `max_frame` cap, and a bounded reply
//! buffer (1024 frames). Replies are appended during a pass of
//! the owner's loop and written by [`FrameServer::flush`], one `write` per
//! client, so a burst of completions leaves in one syscall. What the
//! socket does not take waits for `POLLOUT` in the next park.
//!
//! Framing on the wire is `[varint length][payload]` in both directions —
//! the same shape as the inter-server protocol, but the payload is opaque
//! here: the tier above owns the client protocol (`paso-proxy` speaks
//! `ProxyClientFrame`/`ProxyServerFrame` over it). Client frames are
//! capped far below the peer `MAX_FRAME`: a client hello that claims a
//! 64 MiB body is an attack, not a workload.
//!
//! Counted in the registry the server is bound over:
//! `proxy.clients.errors` (framing and I/O errors, each of which cuts
//! its connection) and `proxy.clients.replies_dropped` (replies refused
//! by a full reply buffer, each of which kicks its client).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use paso_telemetry::{metrics, Counter, Telemetry};

use crate::reactor::{accept_all, fill_and_split, ppoll, Sunk};

/// Replies a client may have waiting for its socket. A client that lets
/// more pile up, with its socket buffers full, is not reading: the reply
/// that overflows is dropped and the client kicked.
const REPLY_FRAMES: usize = 1024;

/// Opaque handle for one accepted client connection on a
/// [`FrameServer`]. Ids are unique for the lifetime of the server and
/// never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// What a [`FrameServer`] reports about its clients. Events for one
/// client are in order (accept → frames → disconnect).
#[derive(Debug)]
pub enum ClientEvent {
    /// A new connection was accepted.
    Connected(ClientId),
    /// One complete `[varint len][payload]` frame arrived; the payload is
    /// handed through opaque — the serving tier owns the client protocol.
    Frame(ClientId, Vec<u8>),
    /// The connection is gone (EOF, I/O error, oversize frame, or a
    /// [`kick`](FrameServer::kick)). The id is dead afterwards.
    Disconnected(ClientId),
}

/// Outcome of queueing one frame toward a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued (delivery still depends on the client staying alive).
    Queued,
    /// The client's reply buffer is full — it does not read. The frame
    /// was dropped and counted, and the client kicked.
    Backpressure,
    /// No such client (already disconnected or kicked).
    Gone,
}

/// One accepted client connection.
struct ClientConn {
    stream: TcpStream,
    /// Frame-assembly buffer; the first `filled` bytes are valid.
    buf: Vec<u8>,
    filled: usize,
    /// Framed replies not yet written, oldest first.
    out: Vec<u8>,
    /// End offset in `out` of every reply not yet wholly written.
    ends: VecDeque<usize>,
    /// Closed at the next flush, after one last write of `out`.
    kicked: bool,
}

impl ClientConn {
    /// One `write` of the pending replies; `false` if the socket failed,
    /// which drops them.
    fn write_out(&mut self, errors: &Counter) -> bool {
        if self.out.is_empty() {
            return true;
        }
        match (&self.stream).write(&self.out) {
            Ok(n) => {
                self.out.drain(..n);
                while self.ends.front().is_some_and(|&end| end <= n) {
                    self.ends.pop_front();
                }
                self.ends.iter_mut().for_each(|end| *end -= n);
                true
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                true
            }
            Err(_) => {
                errors.add(1.0);
                self.out.clear();
                self.ends.clear();
                false
            }
        }
    }
}

/// A TCP listener and the client connections accepted on it, handing
/// opaque varint-delimited frames to (and from) the one thread that owns
/// it.
///
/// Dropping the server closes the listener and every client socket.
pub struct FrameServer {
    listener: TcpListener,
    port: u16,
    max_frame: usize,
    next_id: u64,
    conns: HashMap<ClientId, ClientConn>,
    events: VecDeque<ClientEvent>,
    /// The interest set: the listener, then the clients of `polled`.
    pfds: Vec<libc::pollfd>,
    polled: Vec<ClientId>,
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for FrameServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameServer")
            .field("port", &self.port)
            .field("clients", &self.conns.len())
            .finish_non_exhaustive()
    }
}

impl FrameServer {
    /// Binds `127.0.0.1:0`. `max_frame` caps a single client frame (a
    /// connection exceeding it is cut); errors and dropped replies are
    /// counted in `telemetry` (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn bind(max_frame: usize, telemetry: Arc<Telemetry>) -> io::Result<FrameServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        Ok(FrameServer {
            listener,
            port,
            max_frame,
            next_id: 0,
            conns: HashMap::new(),
            events: VecDeque::new(),
            pfds: Vec::new(),
            polled: Vec::new(),
            telemetry,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Waits up to `timeout` for the client sockets — a zero timeout
    /// looks without waiting — and reads, accepts and writes whatever is
    /// ready. What it reads is then in [`FrameServer::next_event`].
    pub fn poll(&mut self, timeout: Duration) {
        if ppoll(self.interest(), timeout) > 0 {
            self.absorb();
        }
    }

    /// The next client event read by an earlier poll.
    pub fn next_event(&mut self) -> Option<ClientEvent> {
        self.events.pop_front()
    }

    /// The interest set of one park: the listener, and every client for
    /// reading and, if replies are pending, for writing. After the
    /// `ppoll` over it, [`FrameServer::absorb`] acts on what was ready.
    pub(crate) fn interest(&mut self) -> &mut [libc::pollfd] {
        self.pfds.clear();
        self.polled.clear();
        self.pfds.push(libc::pollfd {
            fd: self.listener.as_raw_fd(),
            events: libc::POLLIN,
            revents: 0,
        });
        for (&id, c) in &self.conns {
            let write = if c.out.is_empty() { 0 } else { libc::POLLOUT };
            self.pfds.push(libc::pollfd {
                fd: c.stream.as_raw_fd(),
                events: libc::POLLIN | write,
                revents: 0,
            });
            self.polled.push(id);
        }
        &mut self.pfds
    }

    /// Reads every client the last `ppoll` over [`FrameServer::interest`]
    /// found readable (or hung up), and accepts pending connections. The
    /// writable ones are the next flush's.
    pub(crate) fn absorb(&mut self) {
        let FrameServer {
            listener,
            max_frame,
            next_id,
            conns,
            events,
            pfds,
            polled,
            telemetry,
            ..
        } = self;
        let errors = telemetry.counter(metrics::PROXY_CLIENTS_ERRORS);
        for (p, &id) in pfds[1..].iter().zip(polled.iter()) {
            let Some(c) = conns.get_mut(&id) else {
                continue;
            };
            if p.revents & !libc::POLLOUT == 0 {
                continue;
            }
            let sink = |payload: &[u8]| {
                events.push_back(ClientEvent::Frame(id, payload.to_vec()));
                Sunk::Ok
            };
            if !fill_and_split(
                &mut c.stream,
                &mut c.buf,
                &mut c.filled,
                *max_frame,
                errors,
                sink,
            ) {
                conns.remove(&id);
                events.push_back(ClientEvent::Disconnected(id));
            }
        }
        if pfds[0].revents != 0 {
            accept_all(listener, errors, |stream| {
                let _ = stream.set_nodelay(true);
                let id = ClientId(*next_id);
                *next_id += 1;
                conns.insert(
                    id,
                    ClientConn {
                        stream,
                        buf: Vec::new(),
                        filled: 0,
                        out: Vec::new(),
                        ends: VecDeque::new(),
                        kicked: false,
                    },
                );
                events.push_back(ClientEvent::Connected(id));
            });
        }
    }

    /// Appends one payload to `client`'s reply buffer as a
    /// `[varint len][payload]` frame; it is written at the next
    /// [`FrameServer::flush`]. A full buffer is written at once; if the
    /// socket still leaves 1024 replies waiting, the client
    /// does not read and is kicked instead.
    pub fn send(&mut self, client: ClientId, payload: &[u8]) -> SendOutcome {
        let Some(c) = self.conns.get_mut(&client) else {
            return SendOutcome::Gone;
        };
        if c.kicked {
            return SendOutcome::Gone;
        }
        if c.ends.len() >= REPLY_FRAMES
            && !(c.write_out(self.telemetry.counter(metrics::PROXY_CLIENTS_ERRORS))
                && c.ends.len() < REPLY_FRAMES)
        {
            self.telemetry
                .count(metrics::PROXY_CLIENTS_REPLIES_DROPPED, 1.0);
            self.kick(client);
            return SendOutcome::Backpressure;
        }
        paso_wire::put_varint(&mut c.out, payload.len() as u64);
        c.out.extend_from_slice(payload);
        c.ends.push_back(c.out.len());
        SendOutcome::Queued
    }

    /// Closes `client` at the next [`FrameServer::flush`], after one last
    /// write of the replies already queued (an auth denial reaches a
    /// reading client before the EOF); then a
    /// [`ClientEvent::Disconnected`] follows. Nothing more is read from
    /// it. Unknown ids are a no-op — disconnects race with kicks.
    pub fn kick(&mut self, client: ClientId) {
        if let Some(c) = self.conns.get_mut(&client) {
            c.kicked = true;
        }
    }

    /// Writes every client's pending replies, one `write` each, and
    /// closes the kicked ones. Replies the socket did not take wait for
    /// the next flush.
    pub fn flush(&mut self) {
        let FrameServer {
            conns,
            events,
            telemetry,
            ..
        } = self;
        let errors = telemetry.counter(metrics::PROXY_CLIENTS_ERRORS);
        conns.retain(|&id, c| {
            let open = c.write_out(errors) && !c.kicked;
            if !open {
                events.push_back(ClientEvent::Disconnected(id));
            }
            open
        });
    }

    /// Number of currently connected clients.
    pub fn clients_open(&self) -> usize {
        self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Instant;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        paso_wire::put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        out
    }

    fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
        let mut len = 0u64;
        let mut shift = 0u32;
        let mut byte = [0u8; 1];
        loop {
            stream.read_exact(&mut byte).ok()?;
            len |= u64::from(byte[0] & 0x7f) << shift;
            if byte[0] & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let mut payload = vec![0u8; len as usize];
        stream.read_exact(&mut payload).ok()?;
        Some(payload)
    }

    fn server() -> FrameServer {
        FrameServer::bind(1 << 20, Arc::new(Telemetry::new())).expect("bind")
    }

    /// What the owning thread's loop does: poll until an event is read
    /// (or two seconds pass), flushing replies on every pass.
    fn next(srv: &mut FrameServer) -> Option<ClientEvent> {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(ev) = srv.next_event() {
                return Some(ev);
            }
            if Instant::now() >= deadline {
                return None;
            }
            srv.poll(Duration::from_millis(10));
            srv.flush();
        }
    }

    fn connect(srv: &mut FrameServer) -> (TcpStream, ClientId) {
        let c = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        match next(srv) {
            Some(ClientEvent::Connected(id)) => (c, id),
            other => panic!("expected Connected, got {other:?}"),
        }
    }

    #[test]
    fn accepts_frames_and_replies() {
        let mut srv = server();
        let (mut c, id) = connect(&mut srv);
        c.write_all(&frame(b"hello")).unwrap();
        match next(&mut srv) {
            Some(ClientEvent::Frame(got, payload)) => {
                assert_eq!(got, id);
                assert_eq!(payload, b"hello");
            }
            other => panic!("expected Frame, got {other:?}"),
        }
        assert_eq!(srv.send(id, b"world"), SendOutcome::Queued);
        srv.flush();
        assert_eq!(read_frame(&mut c).unwrap(), b"world");
        assert_eq!(srv.clients_open(), 1);
    }

    #[test]
    fn pipelined_frames_arrive_in_order() {
        let mut srv = server();
        let (mut c, _) = connect(&mut srv);
        let mut burst = Vec::new();
        for i in 0..100u8 {
            burst.extend_from_slice(&frame(&[i; 3]));
        }
        c.write_all(&burst).unwrap();
        for i in 0..100u8 {
            match next(&mut srv) {
                Some(ClientEvent::Frame(_, payload)) => assert_eq!(payload, [i; 3]),
                other => panic!("expected frame {i}, got {other:?}"),
            }
        }
    }

    #[test]
    fn disconnect_emits_event_and_forgets_client() {
        let mut srv = server();
        let (c, id) = connect(&mut srv);
        drop(c);
        match next(&mut srv) {
            Some(ClientEvent::Disconnected(got)) => assert_eq!(got, id),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        assert_eq!(srv.clients_open(), 0);
        assert_eq!(srv.send(id, b"late"), SendOutcome::Gone);
    }

    #[test]
    fn kick_flushes_queued_reply_then_closes() {
        let mut srv = server();
        let (mut c, id) = connect(&mut srv);
        // Queue the goodbye, then kick: the client must still read the
        // goodbye before EOF (auth-denial pattern).
        assert_eq!(srv.send(id, b"denied"), SendOutcome::Queued);
        srv.kick(id);
        assert_eq!(srv.send(id, b"more"), SendOutcome::Gone, "kicked");
        srv.flush();
        assert_eq!(read_frame(&mut c).unwrap(), b"denied");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "clean EOF after the flushed goodbye");
        match next(&mut srv) {
            Some(ClientEvent::Disconnected(got)) => assert_eq!(got, id),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn oversize_client_frame_kills_the_connection_not_the_server() {
        let tel = Arc::new(Telemetry::new());
        let mut srv = FrameServer::bind(64, Arc::clone(&tel)).expect("bind");
        let (mut c, _) = connect(&mut srv);
        c.write_all(&frame(&[0u8; 65])).unwrap();
        assert!(matches!(next(&mut srv), Some(ClientEvent::Disconnected(_))));
        assert_eq!(
            tel.counter(metrics::PROXY_CLIENTS_ERRORS).get(),
            1.0,
            "the violation is counted"
        );
        // The server still accepts fresh clients.
        let _c2 = connect(&mut srv);
    }

    #[test]
    fn many_concurrent_clients_on_one_thread() {
        let mut srv = server();
        let mut conns = Vec::new();
        for _ in 0..64 {
            conns.push(TcpStream::connect(("127.0.0.1", srv.port())).unwrap());
        }
        let mut ids = Vec::new();
        for _ in 0..64 {
            match next(&mut srv) {
                Some(ClientEvent::Connected(id)) => ids.push(id),
                other => panic!("expected Connected, got {other:?}"),
            }
        }
        assert_eq!(srv.clients_open(), 64);
        for (i, c) in conns.iter_mut().enumerate() {
            c.write_all(&frame(&[i as u8])).unwrap();
        }
        let mut seen = 0;
        while seen < 64 {
            match next(&mut srv) {
                Some(ClientEvent::Frame(id, payload)) => {
                    assert_eq!(srv.send(id, &payload), SendOutcome::Queued);
                    seen += 1;
                }
                Some(ClientEvent::Connected(_)) | Some(ClientEvent::Disconnected(_)) => {}
                None => panic!("timed out at {seen}/64 frames"),
            }
        }
        srv.flush();
        for (i, c) in conns.iter_mut().enumerate() {
            assert_eq!(read_frame(c).unwrap(), [i as u8]);
        }
    }
}
