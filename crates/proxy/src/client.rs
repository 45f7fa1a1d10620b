//! A minimal blocking client for the proxy's varint-framed protocol —
//! what tests and the `exp_proxy` driver speak. Real deployments would
//! wrap this in a connection pool; one instance is one TCP connection.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use paso_core::{
    auth_token, encode, try_decode, ClientOp, ClientResult, ProxyClientFrame, ProxyServerFrame,
};
use paso_wire::put_varint;

/// Largest frame a client will accept from a proxy, mirroring the
/// server-side `ProxyOptions::max_client_frame` default.  A declared
/// length beyond this is rejected *before* any buffer is allocated, so a
/// corrupt or malicious length prefix cannot OOM the client.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Writes one varint-length-prefixed frame.
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME_BYTES`] (the receiving side would
/// drop the connection anyway) and propagates write failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds cap {MAX_FRAME_BYTES}",
                payload.len()
            ),
        ));
    }
    let mut buf = Vec::with_capacity(payload.len() + 5);
    put_varint(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reads one varint-length-prefixed frame.
///
/// # Errors
///
/// `InvalidData` on a malformed varint or a declared length beyond
/// [`MAX_FRAME_BYTES`]; `UnexpectedEof` (from `read_exact`) on a
/// truncated header or payload.  Never panics and never allocates more
/// than the cap.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        len |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized varint header",
            ));
        }
    }
    if len > MAX_FRAME_BYTES as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// One authenticated client connection to a [`Proxy`](crate::Proxy).
pub struct ProxyClient {
    /// Reads are buffered — a frame's varint header is parsed a byte at
    /// a time and must not cost a `read(2)` per byte; writes go straight
    /// to the socket underneath.
    stream: BufReader<TcpStream>,
    next_seq: u64,
}

impl std::fmt::Debug for ProxyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyClient")
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl ProxyClient {
    /// Connects to a proxy on localhost, authenticates as `tenant`, and
    /// waits for the `Welcome`.
    ///
    /// # Errors
    ///
    /// Connection failures, protocol violations, or an auth denial (the
    /// denial surfaces as [`io::ErrorKind::PermissionDenied`]).
    pub fn connect(port: u16, tenant: u64, secret: u64) -> io::Result<ProxyClient> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let mut client = ProxyClient {
            stream: BufReader::new(stream),
            next_seq: 0,
        };
        client.send(&ProxyClientFrame::Hello {
            tenant,
            token: auth_token(tenant, secret),
        })?;
        match client.recv()? {
            ProxyServerFrame::Welcome => Ok(client),
            ProxyServerFrame::Denied => Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "proxy denied the hello",
            )),
            other => Err(protocol_error(&other)),
        }
    }

    /// Sends one pipelined op without waiting; returns its sequence
    /// number (echoed in the eventual `Done`/`Busy`).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_op(&mut self, op: &ClientOp) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send(&ProxyClientFrame::Op {
            seq,
            op: op.clone(),
        })?;
        Ok(seq)
    }

    /// Reads the next server frame (a `Done` or `Busy` for some
    /// outstanding op).
    ///
    /// # Errors
    ///
    /// Propagates socket read failures and undecodable frames.
    pub fn recv(&mut self) -> io::Result<ProxyServerFrame> {
        let payload = read_frame(&mut self.stream)?;
        try_decode::<ProxyServerFrame>(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
    }

    /// Synchronous round trip: sends `op`, re-issues on `Busy` with a
    /// small backoff, returns the final result. Out-of-order `Done`s for
    /// other (pipelined) seqs are an error here — mix `op` with
    /// [`ProxyClient::send_op`] only if you drain completions yourself.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; `Busy` and `TimedOut` are *values*,
    /// not errors.
    pub fn op(&mut self, op: &ClientOp) -> io::Result<ClientResult> {
        loop {
            let seq = self.send_op(op)?;
            match self.recv()? {
                ProxyServerFrame::Done { seq: s, result } if s == seq => return Ok(result),
                ProxyServerFrame::Busy { seq: s } if s == seq => {
                    // Back off briefly, then re-issue under a fresh seq.
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => return Err(protocol_error(&other)),
            }
        }
    }

    fn send(&mut self, frame: &ProxyClientFrame) -> io::Result<()> {
        write_frame(self.stream.get_mut(), &encode(frame))
    }
}

fn protocol_error(frame: &ProxyServerFrame) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected server frame: {frame:?}"),
    )
}
