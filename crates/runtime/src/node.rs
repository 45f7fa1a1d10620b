//! The per-machine node thread.
//!
//! Runs the *same* sans-I/O actor (vsync + memory server) as the
//! simulator, but driven by wall-clock time and a real transport. Crash
//! commands replace the actor wholesale (memory erasure, §3.1); recovery
//! constructs a fresh one that re-joins its groups through state transfer.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use paso_simnet::{drive_actor, Action, Actor, NodeEvent, NodeId, SimTime, WireSized};
use paso_telemetry::metrics;
use paso_vsync::NetMsg;

use crate::ledger::Ledger;
use crate::transport::{Envelope, Mailbox, Postman};

/// Runs a node until [`Envelope::Shutdown`]. `factory` builds the fresh
/// actor at start and after every crash; `emit` receives every output
/// the actor produces; everything the node counts or traces goes into
/// `ledger`.
#[allow(clippy::collapsible_match, clippy::collapsible_else_if)]
pub(crate) fn run_node<A, F>(
    node: NodeId,
    n: usize,
    factory: F,
    mailbox: Box<dyn Mailbox>,
    postman: Arc<dyn Postman>,
    emit: impl Fn(A::Output),
    ledger: &Ledger,
) where
    A: Actor<Msg = NetMsg>,
    F: Fn(NodeId) -> A,
{
    let start = Instant::now();
    let now = || SimTime::from_micros(start.elapsed().as_micros() as u64);
    let telemetry = ledger.telemetry();
    let mut rng = ChaCha8Rng::seed_from_u64(node.0 as u64 + 1);
    let mut actor = factory(node);
    let mut down = false;
    let mut timers: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
    let mut local: VecDeque<NetMsg> = VecDeque::new();
    // One action buffer for the thread's life, drained after every event.
    let mut actions = Vec::new();

    // Closure-free dispatch helper (borrows everything it needs).
    macro_rules! dispatch {
        ($event:expr) => {{
            drive_actor(&mut actor, node, n, now(), &mut rng, $event, &mut actions);
            for action in actions.drain(..) {
                match action {
                    Action::Send { to, msg } => {
                        telemetry.count(metrics::NET_MSGS_SENT, 1.0);
                        telemetry.record(metrics::NET_MSG_BYTES, msg.wire_size() as u64);
                        postman.send(to, Envelope::Net { from: node, msg });
                    }
                    Action::SendMany { to, msg } => {
                        telemetry.count(metrics::NET_MSGS_SENT, to.len() as f64);
                        let bytes = msg.wire_size() as u64;
                        for _ in 0..to.len() {
                            telemetry.record(metrics::NET_MSG_BYTES, bytes);
                        }
                        postman.send_shared(&to, Envelope::Net { from: node, msg });
                    }
                    Action::SendLocal { msg } => local.push_back(msg),
                    Action::SetTimer { delay, tag } => {
                        timers.push(Reverse((now() + delay, tag)));
                    }
                    // Kept as a no-op: the actors ignore a stale timer, and
                    // honouring the hint here lifts `proxy_sat` past the
                    // benchmark's per-stream op plan (ROADMAP item 8).
                    Action::CancelTimer { .. } => {}
                    Action::Emit(out) => emit(out),
                    Action::Work(units) => telemetry.count(metrics::WORK_TOTAL, units as f64),
                    Action::Count(id, delta) => telemetry.count(id, delta),
                    Action::Record(id, value) => telemetry.record(id, value),
                    Action::Trace(kind) => ledger.trace(node.0, kind),
                }
            }
        }};
    }

    dispatch!(NodeEvent::Start);

    loop {
        // Drain self-sends first: they are "already delivered".
        while let Some(msg) = local.pop_front() {
            if !down {
                dispatch!(NodeEvent::Message { from: node, msg });
            }
        }
        // Fire due timers.
        while let Some(Reverse((deadline, tag))) = timers.peek().copied() {
            if deadline > now() {
                break;
            }
            timers.pop();
            if !down {
                dispatch!(NodeEvent::Timer { tag });
            }
        }
        // Wait for traffic until the next timer (or a short poll).
        let timeout = timers
            .peek()
            .map(|Reverse((deadline, _))| {
                Duration::from_micros(deadline.saturating_since(now()).as_micros())
                    .max(Duration::from_micros(200))
            })
            .unwrap_or(Duration::from_millis(10));
        match mailbox.recv_timeout(timeout) {
            Some(Envelope::Net { from, msg }) => {
                if !down {
                    dispatch!(NodeEvent::Message { from, msg });
                }
            }
            Some(Envelope::Crash) => {
                down = true;
                actor = factory(node); // memory erased
                timers.clear();
                local.clear();
            }
            Some(Envelope::Recover) => {
                if down {
                    down = false;
                    actor = factory(node);
                    dispatch!(NodeEvent::Recovered);
                }
            }
            Some(Envelope::PeerCrashed(p)) => {
                if !down {
                    dispatch!(NodeEvent::PeerCrashed(p));
                }
            }
            Some(Envelope::PeerRecovered(p)) => {
                if !down {
                    dispatch!(NodeEvent::PeerRecovered(p));
                }
            }
            Some(Envelope::Shutdown) => return,
            None => {}
        }
    }
}
