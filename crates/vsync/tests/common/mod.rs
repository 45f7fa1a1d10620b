//! A lockstep network with an adversarial per-link delivery order,
//! driving the sans-I/O vsync actors directly.
//!
//! The shared-bus simulator serializes every message onto one global
//! timeline; real TCP reorders across links freely and loses, delays and
//! duplicates whole connections' worth of frames. This harness lets a
//! test pick the interleaving: messages accumulate into rounds, and the
//! in-flight queue is a public `Vec` a test may capture from, drop from,
//! reorder or re-inject into between rounds.

#![allow(dead_code)] // each test file uses its own subset

use std::collections::BTreeMap;

use paso_simnet::{drive_actor, Action, NodeEvent, NodeId, SimTime};
use paso_telemetry::CounterId;
use paso_vsync::{GroupApp, NetMsg, VsyncNode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub struct Net<A: GroupApp> {
    pub nodes: Vec<VsyncNode<A>>,
    pub now: SimTime,
    rng: ChaCha8Rng,
    /// In flight, `(from, to, msg)`, in send order.
    pub msgs: Vec<(NodeId, NodeId, NetMsg)>,
    pub timers: Vec<(SimTime, NodeId, u64)>,
    /// Totals of every counter the actors bumped.
    pub counts: BTreeMap<CounterId, f64>,
}

impl<A: GroupApp> Net<A> {
    /// `n` nodes built by `make`, each already past [`NodeEvent::Start`].
    pub fn start(n: usize, make: impl Fn(NodeId) -> VsyncNode<A>) -> Self {
        let mut net = Net {
            nodes: (0..n as u32).map(|i| make(NodeId(i))).collect(),
            now: SimTime::ZERO,
            rng: ChaCha8Rng::seed_from_u64(42),
            msgs: Vec::new(),
            timers: Vec::new(),
            counts: BTreeMap::new(),
        };
        for i in 0..n as u32 {
            net.drive(NodeId(i), NodeEvent::Start);
        }
        net
    }

    pub fn drive(&mut self, node: NodeId, ev: NodeEvent<NetMsg>) {
        let n = self.nodes.len();
        let mut actions = Vec::new();
        drive_actor(
            &mut self.nodes[node.index()],
            node,
            n,
            self.now,
            &mut self.rng,
            ev,
            &mut actions,
        );
        for action in actions {
            match action {
                Action::Send { to, msg } => self.msgs.push((node, to, msg)),
                Action::SendMany { to, msg } => {
                    for t in to {
                        self.msgs.push((node, t, msg.clone()));
                    }
                }
                Action::SendLocal { msg } => self.msgs.push((node, node, msg)),
                Action::SetTimer { delay, tag } => {
                    self.timers.push((self.now + delay, node, tag));
                }
                Action::CancelTimer { tag } => {
                    self.timers.retain(|t| (t.1, t.2) != (node, tag));
                }
                Action::Count(id, delta) => *self.counts.entry(id).or_default() += delta,
                Action::Emit(_) | Action::Work(_) | Action::Record(..) | Action::Trace(_) => {}
            }
        }
    }

    /// Hands `node` an application message (a test's command channel).
    pub fn app(&mut self, node: u32, bytes: Vec<u8>) {
        let from = NodeId(node);
        self.drive(
            from,
            NodeEvent::Message {
                from,
                msg: NetMsg::App(bytes),
            },
        );
    }

    /// Delivers everything currently in flight, one adversarially
    /// ordered round; messages sent during the round wait for the next.
    ///
    /// Each round is delivered sorted so that receivers with even
    /// `from + to` parity see lower senders first and odd parity the
    /// reverse — competing messages from two senders hence arrive in
    /// *opposite* orders at different receivers, while per-link FIFO (the
    /// only order TCP guarantees) is preserved by the stable sort.
    pub fn settle_round(&mut self) {
        let mut batch = std::mem::take(&mut self.msgs);
        batch.sort_by_key(|(from, to, _)| (to.0, (from.0 + to.0) % 2, from.0));
        for in_flight in batch {
            self.deliver(in_flight);
        }
    }

    /// Delivers one `(from, to, msg)` now — e.g. a copy a test captured
    /// from [`Net::msgs`] earlier.
    pub fn deliver(&mut self, (from, to, msg): (NodeId, NodeId, NetMsg)) {
        self.drive(to, NodeEvent::Message { from, msg });
    }

    /// Runs message rounds and timers until the clock reads `until`.
    pub fn run(&mut self, until: SimTime) {
        loop {
            if !self.msgs.is_empty() {
                self.settle_round();
                continue;
            }
            let due = self.timers.iter().map(|t| t.0).min();
            let Some(due) = due.filter(|due| *due <= until) else {
                self.now = self.now.max(until);
                return;
            };
            self.now = due;
            let mut firing: Vec<(SimTime, NodeId, u64)> = Vec::new();
            self.timers.retain(|t| {
                if t.0 <= due {
                    firing.push(*t);
                    false
                } else {
                    true
                }
            });
            firing.sort_by_key(|(_, node, tag)| (node.0, *tag));
            for (_, node, tag) in firing {
                self.drive(node, NodeEvent::Timer { tag });
            }
        }
    }

    /// Runs for `ms` more simulated milliseconds.
    pub fn run_ms(&mut self, ms: u64) {
        self.run(self.now + SimTime::from_millis(ms));
    }

    /// Crashes `victim`: `fresh` (a blank incarnation) takes its slot,
    /// its timers and inbound messages vanish, every other node hears
    /// the membership oracle. The caller decides when it recovers.
    pub fn crash(&mut self, victim: u32, fresh: VsyncNode<A>) {
        self.nodes[victim as usize] = fresh;
        self.timers.retain(|(_, n, _)| n.0 != victim);
        self.msgs.retain(|(_, to, _)| to.0 != victim);
        for observer in 0..self.nodes.len() as u32 {
            if observer != victim {
                self.drive(NodeId(observer), NodeEvent::PeerCrashed(NodeId(victim)));
            }
        }
    }

    /// Brings a crashed node back and briefs everyone else.
    pub fn recover(&mut self, node: u32) {
        self.drive(NodeId(node), NodeEvent::Recovered);
        for observer in 0..self.nodes.len() as u32 {
            if observer != node {
                self.drive(NodeId(observer), NodeEvent::PeerRecovered(NodeId(node)));
            }
        }
    }
}
