//! The sans-I/O node abstraction.
//!
//! All protocol logic in this repository (virtual synchrony, PASO memory
//! servers) is written as [`Actor`] state machines: pure event handlers
//! that receive [`NodeEvent`]s and produce actions through a [`Context`].
//! The same actor runs unchanged under the deterministic discrete-event
//! [`Engine`](crate::Engine) and under the live threaded runtime in
//! `paso-runtime` — which is what makes the simulator's results credible
//! for the real system.

use std::fmt;

use crate::cost::WireSized;
use crate::time::SimTime;
use paso_telemetry::{CounterId, HistId, TraceKind};
use rand_chacha::ChaCha8Rng;

/// Identifier of a machine in the ensemble (an element of the paper's
/// `Mach`; machines are numbered `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

paso_wire::wire_struct!(NodeId { 0 });

impl NodeId {
    /// The machine index as a usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An event delivered to an actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent<M> {
    /// The simulation (or the node) has started; the node is up.
    Start,
    /// A message arrived from `from` (possibly this node itself, for
    /// client-request injection and self-sends).
    Message {
        /// The sender.
        from: NodeId,
        /// The payload.
        msg: M,
    },
    /// A timer set via [`Context::set_timer`] fired.
    Timer {
        /// The tag passed when the timer was set.
        tag: u64,
    },
    /// This node finished its re-initialization phase after a crash. The
    /// actor instance is brand new (all previous state was erased, per the
    /// crash model of §3.1) and should re-join its groups.
    Recovered,
    /// The membership service reports that `peer` crashed. This models the
    /// ISIS failure-detection layer: "all g-leave and g-join events ... are
    /// notified to all group members, in the same order they occur" (§3.2).
    PeerCrashed(NodeId),
    /// The membership service reports that `peer` completed recovery.
    PeerRecovered(NodeId),
}

/// A deterministic, sans-I/O protocol state machine.
pub trait Actor {
    /// Message type exchanged between nodes.
    type Msg: Clone + fmt::Debug + WireSized;
    /// Output type surfaced to the harness (operation completions etc.).
    type Output: fmt::Debug;

    /// Handles one event, issuing actions through `ctx`.
    fn handle(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        event: NodeEvent<Self::Msg>,
    );
}

/// An action issued by an actor while handling an event.
///
/// Every driver obtains them through [`drive_actor`]: the
/// [`Engine`](crate::Engine) applies them in simulated time, the live
/// threaded runtime in `paso-runtime` over real transports.
#[derive(Debug)]
pub enum Action<M, O> {
    /// Send `msg` to `to` over the network.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// Send one `msg` to several destinations (a fan-out). The message is
    /// encoded/sized once; transports may share one serialized frame
    /// across all copies, though each copy is still charged `α + β·|m|`.
    SendMany {
        /// Destination nodes.
        to: Vec<NodeId>,
        /// The shared message.
        msg: M,
    },
    /// Deliver `msg` to this node itself, off the network.
    SendLocal {
        /// The message.
        msg: M,
    },
    /// Schedule a timer.
    SetTimer {
        /// Relative delay.
        delay: SimTime,
        /// Tag passed back on firing.
        tag: u64,
    },
    /// Drop this node's pending timers carrying `tag`. A hint: the actor
    /// still treats a timer it no longer wants as a no-op, so a driver
    /// may ignore the action and only pay for the dead event.
    CancelTimer {
        /// The tag the timers were set with.
        tag: u64,
    },
    /// Surface an output to the harness.
    Emit(O),
    /// Charge local processing work units.
    Work(u64),
    /// Bump a declared counter.
    Count(CounterId, f64),
    /// Record a value into a declared histogram (e.g. fsync latencies,
    /// state-transfer sizes).
    Record(HistId, u64),
    /// Record a structured trace event. The driver stamps it with the
    /// current time (sim-time under the engine, monotonic time live) and
    /// this node's id before appending it to the run's trace stream.
    Trace(TraceKind),
}

/// Runs one event through an actor, appending the actions it issues to
/// `actions` in issue order.
///
/// This is the one dispatch routine: the [`Engine`](crate::Engine) applies
/// the actions in simulated time, the live runtime (`paso-runtime`) over
/// real threads and sockets, and test harnesses however they choose — so
/// every driver runs the *same* protocol state machines the same way.
/// Callers keep one buffer and drain it after each event; passing it back
/// reuses its capacity instead of growing a fresh `Vec` per event.
pub fn drive_actor<A: Actor>(
    actor: &mut A,
    node: NodeId,
    n: usize,
    now: SimTime,
    rng: &mut ChaCha8Rng,
    event: NodeEvent<A::Msg>,
    actions: &mut Vec<Action<A::Msg, A::Output>>,
) {
    let mut ctx = Context {
        node,
        n,
        now,
        rng,
        actions,
    };
    actor.handle(&mut ctx, event);
}

/// The actor's handle onto its environment during one event.
///
/// Borrowed mutably for the duration of [`Actor::handle`]; actions land in
/// the driver's buffer and are applied after the handler returns, in issue
/// order. Only [`drive_actor`] builds one.
#[derive(Debug)]
pub struct Context<'a, M, O> {
    pub(crate) node: NodeId,
    pub(crate) n: usize,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut ChaCha8Rng,
    pub(crate) actions: &'a mut Vec<Action<M, O>>,
}

impl<M, O> Context<'_, M, O> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Total number of machines `n` in the ensemble.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends a message over the bus. Charged `α + β·|msg|` and serialized
    /// with all other bus traffic. Messages to crashed nodes are paid for
    /// but dropped.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends one message to every node in `to` (a fan-out). Each copy is
    /// charged and bus-serialized like a [`Context::send`], but the
    /// message is sized once and transports can reuse one encoded frame
    /// for all destinations.
    pub fn send_many(&mut self, to: Vec<NodeId>, msg: M) {
        self.actions.push(Action::SendMany { to, msg });
    }

    /// Delivers a message to this node itself without touching the bus
    /// (zero message cost, delivered at the current instant after currently
    /// queued events).
    pub fn send_local(&mut self, msg: M) {
        self.actions.push(Action::SendLocal { msg });
    }

    /// Schedules a [`NodeEvent::Timer`] after `delay`. Timers do not
    /// survive crashes.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.actions.push(Action::SetTimer { delay, tag });
    }

    /// Asks the driver to drop every pending timer of this node set
    /// with `tag` (see [`Action::CancelTimer`]). Cancelling a tag with
    /// nothing pending does nothing. The driver may still fire such a
    /// timer, so the handler must stay a no-op for it.
    pub fn cancel_timer(&mut self, tag: u64) {
        self.actions.push(Action::CancelTimer { tag });
    }

    /// Surfaces an output to the harness driving the simulation.
    pub fn emit(&mut self, out: O) {
        self.actions.push(Action::Emit(out));
    }

    /// Charges `units` of local processing work to this node (the paper's
    /// `work` measure: "the sum of the times the various servers spend").
    pub fn charge_work(&mut self, units: u64) {
        self.actions.push(Action::Work(units));
    }

    /// Bumps a declared counter.
    pub fn count(&mut self, counter: CounterId, delta: f64) {
        self.actions.push(Action::Count(counter, delta));
    }

    /// Records a value into a declared histogram.
    pub fn record(&mut self, hist: HistId, value: u64) {
        self.actions.push(Action::Record(hist, value));
    }

    /// Records a structured trace event (gcast fan-outs, view changes, ...)
    /// into the run's trace stream.
    pub fn trace(&mut self, kind: TraceKind) {
        self.actions.push(Action::Trace(kind));
    }

    /// Deterministic per-engine random stream.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "m3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn context_buffers_actions_in_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut actions = Vec::new();
        let mut ctx: Context<'_, Vec<u8>, u32> = Context {
            node: NodeId(1),
            n: 4,
            now: SimTime::from_micros(10),
            rng: &mut rng,
            actions: &mut actions,
        };
        assert_eq!(ctx.id(), NodeId(1));
        assert_eq!(ctx.n(), 4);
        assert_eq!(ctx.now(), SimTime::from_micros(10));
        ctx.send(NodeId(2), vec![1]);
        ctx.send_local(vec![2]);
        ctx.set_timer(SimTime::from_micros(5), 7);
        ctx.emit(42);
        ctx.charge_work(3);
        ctx.count(paso_telemetry::metrics::WORK_TOTAL, 1.0);
        ctx.cancel_timer(7);
        assert_eq!(ctx.actions.len(), 7);
        assert!(matches!(ctx.actions[0], Action::Send { to: NodeId(2), .. }));
        assert!(matches!(ctx.actions[3], Action::Emit(42)));
        assert!(matches!(ctx.actions[6], Action::CancelTimer { tag: 7 }));
    }
}
