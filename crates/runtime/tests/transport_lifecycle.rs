//! Lifecycle audit for the event-driven TCP transport: a live transport
//! with no delay plan runs one background thread, and every thread it
//! spawns (the I/O thread, a delay line) and every fd it or its
//! mailboxes open (listeners, sockets, wake pipes) must be released once
//! the transport and its mailboxes are dropped, in either order. A leak
//! of either would let long-lived processes that churn clusters — tests,
//! benches, embedding applications — exhaust the process.

use std::time::{Duration, Instant};

use paso_runtime::{Envelope, Mailbox, Postman, TcpTransport};
use paso_simnet::NodeId;
use paso_vsync::NetMsg;

/// Threads in this process, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// Open file descriptors in this process.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

/// Waits for a measurement to settle back to (at most) `ceiling`;
/// thread/fd teardown is synchronous with drop, but the *observation*
/// (procfs) can lag a scheduler tick behind the joins.
fn settles_to(what: &str, ceiling: usize, mut measure: impl FnMut() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = measure();
    while Instant::now() < deadline {
        if last <= ceiling {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
        last = measure();
    }
    assert!(last <= ceiling, "{what} leaked: {last} > {ceiling}");
}

#[test]
fn repeated_create_drop_leaks_no_threads_or_fds() {
    // One warm-up round absorbs lazy process-wide setup (TLS, stdio,
    // allocator arenas) so the baseline reflects steady state.
    {
        let (transport, mailboxes) = TcpTransport::new(2);
        transport.send(
            NodeId(1),
            Envelope::Net {
                from: NodeId(0),
                msg: NetMsg::App(vec![1]),
            },
        );
        let _ = mailboxes[1].recv_timeout(Duration::from_secs(5));
        drop(mailboxes);
        drop(transport);
    }
    settles_to("warm-up threads", thread_count(), thread_count);
    let base_threads = thread_count();
    let base_fds = fd_count();

    for round in 0..10 {
        let (transport, mailboxes) = TcpTransport::new(3);
        // Touch the data path so sockets actually dial and accept: a
        // transport that never connects would trivially "not leak".
        transport.send(
            NodeId(1),
            Envelope::Net {
                from: NodeId(0),
                msg: NetMsg::App(vec![round as u8]),
            },
        );
        assert!(
            mailboxes[1].recv_timeout(Duration::from_secs(5)).is_some(),
            "round {round}: message must arrive before teardown"
        );
        // The I/O thread is alive, so only a joined thread procfs has not
        // caught up with could push the count over.
        settles_to("a live transport's threads", base_threads + 1, thread_count);
        assert_eq!(
            thread_count(),
            base_threads + 1,
            "round {round}: a live transport runs one I/O thread"
        );
        // The mailboxes own the listeners and the accepted sockets, the
        // transport the rest: alternate which goes first.
        if round % 2 == 0 {
            drop(mailboxes);
            drop(transport);
        } else {
            drop(transport);
            drop(mailboxes);
        }
    }

    // Drop joins every thread and closes every fd before returning, so
    // steady state must match the baseline. A couple of fds of slack
    // covers procfs reads racing unrelated runtime activity.
    settles_to("transport threads", base_threads, thread_count);
    settles_to("transport fds", base_fds + 2, fd_count);
}
