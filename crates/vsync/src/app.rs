//! The application interface layered over virtual synchrony.
//!
//! A [`GroupApp`] is the replicated state machine living on each memory
//! server: it receives totally-ordered gcast deliveries per group, provides
//! state snapshots for joiners, and erases state on leave — exactly the
//! server obligations of §4.2. The PASO memory server in `paso-core`
//! implements this trait.

use std::fmt;

use paso_simnet::NodeId;

use crate::group::{GroupId, View};

/// Result of delivering one gcast payload at one member.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delivery {
    /// The member's response. "All responses are equal" (§3.2) for a
    /// deterministic replicated application, so the leader's copy is the
    /// one actually sent to the origin.
    pub response: Vec<u8>,
    /// Local processing work units (the `I(·)/Q(·)/D(·)` cost).
    pub work: u64,
}

/// Why a gcast could not be completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcastError {
    /// No live member could be found after exhausting retries — the
    /// fault-tolerance condition (§4.1) must have been violated.
    Unavailable,
}

impl fmt::Display for GcastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcastError::Unavailable => write!(f, "no live group member reachable"),
        }
    }
}

impl std::error::Error for GcastError {}

/// The replicated application run by every group member.
///
/// Determinism contract: `deliver` must be a deterministic function of the
/// (group-local) delivery history — virtual synchrony guarantees all
/// members see the same history, so replicas stay identical and any
/// member's response can stand for the group's.
pub trait GroupApp {
    /// Output type surfaced to the simulation harness.
    type Output: fmt::Debug;

    /// The node came up for the first time. Join initial groups, etc.
    /// (Initial *basic support* memberships are installed by the vsync
    /// layer before this is called.)
    fn on_start(&mut self, vs: &mut dyn VsyncOps<Self::Output>);

    /// The node completed its re-initialization phase after a crash with
    /// blank state (§3.1); it should `g-join` its groups again.
    fn on_recovered(&mut self, vs: &mut dyn VsyncOps<Self::Output>);

    /// A non-vsync application message arrived (client request injected on
    /// this machine, or server-to-server payload).
    fn on_app_message(&mut self, vs: &mut dyn VsyncOps<Self::Output>, from: NodeId, bytes: &[u8]);

    /// An application timer (set via [`VsyncOps::set_app_timer`]) fired.
    fn on_timer(&mut self, vs: &mut dyn VsyncOps<Self::Output>, tag: u64);

    /// A totally-ordered gcast delivery for a group this node is a member
    /// of. May send app messages / set timers via `vs`, but must NOT issue
    /// new gcasts re-entrantly from here (issue them from a timer or app
    /// message instead).
    fn deliver(
        &mut self,
        vs: &mut dyn VsyncOps<Self::Output>,
        group: GroupId,
        origin: NodeId,
        payload: &[u8],
    ) -> Delivery;

    /// A gcast this node issued (with `token`) completed with the group
    /// response, or failed.
    fn on_gcast_complete(
        &mut self,
        vs: &mut dyn VsyncOps<Self::Output>,
        token: u64,
        result: Result<Vec<u8>, GcastError>,
    );

    /// Serializes this member's application state for `group` (the donor
    /// side of `g-join` state transfer).
    fn snapshot(&self, group: GroupId) -> Vec<u8>;

    /// Installs a snapshot received on join (the joiner side).
    fn install(&mut self, vs: &mut dyn VsyncOps<Self::Output>, group: GroupId, state: &[u8]);

    /// Erases all state for `group` — servers "should erase all information
    /// when leaving a group" (§4.2). Also called when a node finds itself
    /// removed from a view.
    fn erase(&mut self, group: GroupId);

    /// A new view was installed for a group this node belongs to.
    fn on_view(&mut self, vs: &mut dyn VsyncOps<Self::Output>, group: GroupId, view: &View);

    /// The membership oracle reports a peer machine crashed. Applications
    /// that track `|F(C)|` (the number of failed basic-support machines,
    /// used in the Basic algorithm's counter updates) override this.
    fn on_peer_crashed(&mut self, vs: &mut dyn VsyncOps<Self::Output>, peer: NodeId) {
        let _ = (vs, peer);
    }

    /// The membership oracle reports a peer machine completed recovery.
    fn on_peer_recovered(&mut self, vs: &mut dyn VsyncOps<Self::Output>, peer: NodeId) {
        let _ = (vs, peer);
    }
}

/// Operations the vsync layer offers to the application. Object-safe so
/// `GroupApp` implementations stay decoupled from the node's concrete
/// generic plumbing.
pub trait VsyncOps<O> {
    /// This node's id.
    fn id(&self) -> NodeId;

    /// Ensemble size.
    fn n(&self) -> usize;

    /// Current time in microseconds since simulation start.
    fn now_micros(&self) -> u64;

    /// Issues `gcast(group, payload, resp)`; completion is reported via
    /// [`GroupApp::on_gcast_complete`] with `token`.
    fn gcast(&mut self, group: GroupId, payload: Vec<u8>, token: u64);

    /// Requests to join `group` (`g-join`); state transfer and the new
    /// view arrive asynchronously.
    fn join(&mut self, group: GroupId);

    /// Requests to leave `group` (`g-leave`). Refused (silently) if this
    /// node is the group's last member, which would violate the
    /// fault-tolerance condition.
    fn leave(&mut self, group: GroupId);

    /// Is this node a member of `group`? True from the view that admits
    /// it, before its join's state transfer has installed.
    fn is_member(&self, group: GroupId) -> bool;

    /// Is this node a member of `group` that holds the group's state: not
    /// still awaiting its join's state transfer?
    fn holds_state(&self, group: GroupId) -> bool;

    /// This node's current (or last known) view of `group`.
    fn view(&self, group: GroupId) -> Option<View>;

    /// Sends an opaque application message to another node (cost-charged).
    fn send_app(&mut self, to: NodeId, bytes: Vec<u8>);

    /// Surfaces an output to the harness.
    fn emit(&mut self, out: O);

    /// Charges local processing work.
    fn charge_work(&mut self, units: u64);

    /// Bumps a declared counter.
    fn count(&mut self, counter: paso_telemetry::CounterId, delta: f64);

    /// Records a value into a declared histogram. Default no-op so bare
    /// test harnesses need not care.
    fn record(&mut self, _hist: paso_telemetry::HistId, _value: u64) {}

    /// Records a structured trace event into the run's trace stream.
    /// Default no-op so bare test harnesses need not care.
    fn trace(&mut self, _kind: paso_telemetry::TraceKind) {}

    /// Sets an application timer. `tag` must have the top bit clear (the
    /// vsync layer owns tags with the top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `tag` has the top bit set.
    fn set_app_timer(&mut self, delay_micros: u64, tag: u64);

    /// Drops this node's pending application timers set with `tag`. A
    /// hint the driver may ignore: a timer the app no longer wants may
    /// still fire, and the app must treat it as a no-op.
    fn cancel_app_timer(&mut self, tag: u64);

    /// A deterministic pseudo-random 64-bit value.
    fn random_u64(&mut self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_default_is_empty() {
        let d = Delivery::default();
        assert!(d.response.is_empty());
        assert_eq!(d.work, 0);
    }

    #[test]
    fn gcast_error_display() {
        assert!(GcastError::Unavailable.to_string().contains("no live"));
    }
}
