//! # paso-vsync
//!
//! Virtual synchrony for PASO: named process groups with view-synchronous
//! membership, reliable totally-ordered `gcast` with single-response
//! collection, and `g-join` state transfer — the §3.2 communication model
//! the paper borrows from ISIS, built from scratch on the sans-I/O
//! [`paso_simnet::Actor`] abstraction.
//!
//! The layer is generic over a [`GroupApp`] — the replicated application
//! (for PASO, the memory server of `paso-core`). See [`VsyncNode`] for the
//! protocol description.
//!
//! # Examples
//!
//! A replicated append-only log (the doc-test for the whole layer):
//!
//! ```
//! use paso_simnet::{Engine, EngineConfig, NodeId};
//! use paso_vsync::{
//!     Delivery, GcastError, GroupApp, GroupId, VsyncConfig, VsyncNode, VsyncOps, View,
//! };
//!
//! const G: GroupId = GroupId(1);
//!
//! #[derive(Debug, Default)]
//! struct Log {
//!     entries: Vec<u8>,
//! }
//!
//! impl GroupApp for Log {
//!     type Output = Vec<u8>;
//!     fn on_start(&mut self, vs: &mut dyn VsyncOps<Vec<u8>>) {
//!         if vs.id() == NodeId(0) {
//!             vs.gcast(G, vec![7], 0); // append 7 through the group
//!         }
//!     }
//!     fn on_recovered(&mut self, _: &mut dyn VsyncOps<Vec<u8>>) {}
//!     fn on_app_message(&mut self, _: &mut dyn VsyncOps<Vec<u8>>, _: NodeId, _: &[u8]) {}
//!     fn on_timer(&mut self, _: &mut dyn VsyncOps<Vec<u8>>, _: u64) {}
//!     fn deliver(&mut self, _: &mut dyn VsyncOps<Vec<u8>>, _: GroupId, _: NodeId, p: &[u8]) -> Delivery {
//!         self.entries.extend_from_slice(p);
//!         Delivery { response: self.entries.clone(), work: 1 }
//!     }
//!     fn on_gcast_complete(
//!         &mut self,
//!         vs: &mut dyn VsyncOps<Vec<u8>>,
//!         _token: u64,
//!         result: Result<Vec<u8>, GcastError>,
//!     ) {
//!         vs.emit(result.unwrap());
//!     }
//!     fn snapshot(&self, _: GroupId) -> Vec<u8> { self.entries.clone() }
//!     fn install(&mut self, _: &mut dyn VsyncOps<Vec<u8>>, _: GroupId, s: &[u8]) {
//!         self.entries = s.to_vec();
//!     }
//!     fn erase(&mut self, _: GroupId) { self.entries.clear(); }
//!     fn on_view(&mut self, _: &mut dyn VsyncOps<Vec<u8>>, _: GroupId, _: &View) {}
//! }
//!
//! let cfg = VsyncConfig {
//!     initial_groups: vec![(G, vec![NodeId(1), NodeId(2)])],
//!     ..VsyncConfig::default()
//! };
//! let mut engine = Engine::new(EngineConfig::for_tests(3), move |id| {
//!     VsyncNode::new(id, cfg.clone(), Log::default())
//! });
//! engine.run_to_quiescence(10_000);
//! // Node 0 (not a member) gcast an append and received the group's response.
//! let outs = engine.take_outputs();
//! assert_eq!(outs.len(), 1);
//! assert_eq!(outs[0].2, vec![7]);
//! // Both members hold the replicated entry.
//! assert_eq!(engine.actor(NodeId(1)).app().entries, vec![7]);
//! assert_eq!(engine.actor(NodeId(2)).app().entries, vec![7]);
//! ```

#![warn(missing_docs)]

mod app;
mod group;
mod msg;
mod node;

pub use app::{Delivery, GcastError, GroupApp, VsyncOps};
pub use group::{GroupId, View, ViewId};
pub use msg::{LogEntry, NetMsg, ReqId, VsyncMsg};
pub use node::{VsyncConfig, VsyncNode};

#[cfg(test)]
mod tests {
    use super::*;
    use paso_simnet::{Engine, EngineConfig, NodeId, SimTime};

    pub(crate) const G: GroupId = GroupId(1);
    const G2: GroupId = GroupId(2);

    /// Test app: a replicated log of (origin, byte) entries, with commands
    /// `[1, x]` (append x; responds with the log length) and `[2]` (read
    /// the log). App-message commands drive joins/leaves/gcasts from
    /// tests: `[10, g]` join group g; `[11, g]` leave group g;
    /// `[12, g, payload…]` gcast payload to group g with token 99.
    #[derive(Debug, Default)]
    pub(crate) struct TestApp {
        log: Vec<u8>,
        pub(crate) completions: Vec<(u64, Result<Vec<u8>, GcastError>)>,
        views_seen: Vec<(GroupId, u64, usize)>,
    }

    impl GroupApp for TestApp {
        type Output = (u64, Result<Vec<u8>, GcastError>);

        fn on_start(&mut self, _vs: &mut dyn VsyncOps<Self::Output>) {}
        fn on_recovered(&mut self, _vs: &mut dyn VsyncOps<Self::Output>) {}

        fn on_app_message(
            &mut self,
            vs: &mut dyn VsyncOps<Self::Output>,
            _from: NodeId,
            bytes: &[u8],
        ) {
            match bytes {
                [10, g] => vs.join(GroupId(*g as u64)),
                [11, g] => vs.leave(GroupId(*g as u64)),
                [12, g, rest @ ..] => vs.gcast(GroupId(*g as u64), rest.to_vec(), 99),
                _ => {}
            }
        }

        fn on_timer(&mut self, _: &mut dyn VsyncOps<Self::Output>, _: u64) {}

        fn deliver(
            &mut self,
            _vs: &mut dyn VsyncOps<Self::Output>,
            _group: GroupId,
            _origin: NodeId,
            payload: &[u8],
        ) -> Delivery {
            match payload {
                [1, x] => {
                    self.log.push(*x);
                    Delivery {
                        response: vec![self.log.len() as u8],
                        work: 1,
                    }
                }
                [2] => Delivery {
                    response: self.log.clone(),
                    work: 1,
                },
                _ => Delivery::default(),
            }
        }

        fn on_gcast_complete(
            &mut self,
            vs: &mut dyn VsyncOps<Self::Output>,
            token: u64,
            result: Result<Vec<u8>, GcastError>,
        ) {
            self.completions.push((token, result.clone()));
            vs.emit((token, result));
        }

        fn snapshot(&self, _: GroupId) -> Vec<u8> {
            self.log.clone()
        }

        fn install(&mut self, _: &mut dyn VsyncOps<Self::Output>, _: GroupId, s: &[u8]) {
            self.log = s.to_vec();
        }

        fn erase(&mut self, _: GroupId) {
            self.log.clear();
        }

        fn on_view(&mut self, _: &mut dyn VsyncOps<Self::Output>, g: GroupId, v: &View) {
            self.views_seen.push((g, v.id().0, v.len()));
        }
    }

    pub(crate) fn engine(
        n: usize,
        groups: Vec<(GroupId, Vec<NodeId>)>,
    ) -> Engine<VsyncNode<TestApp>> {
        let cfg = VsyncConfig {
            initial_groups: groups,
            ..VsyncConfig::default()
        };
        Engine::new(EngineConfig::for_tests(n), move |id| {
            VsyncNode::new(id, cfg.clone(), TestApp::default())
        })
    }

    pub(crate) fn append(
        engine: &mut Engine<VsyncNode<TestApp>>,
        at: SimTime,
        node: u32,
        group: u8,
        x: u8,
    ) {
        engine.inject(at, NodeId(node), NetMsg::App(vec![12, group, 1, x]));
    }

    #[test]
    fn members_replicate_in_the_same_order() {
        let mut e = engine(4, vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])]);
        // Appends from three different origins, injected at distinct times.
        append(&mut e, SimTime::from_millis(1), 3, 1, 10);
        append(&mut e, SimTime::from_millis(2), 1, 1, 20);
        append(&mut e, SimTime::from_millis(3), 0, 1, 30);
        e.run_to_quiescence(100_000);
        let l0 = e.actor(NodeId(0)).app().log.clone();
        let l1 = e.actor(NodeId(1)).app().log.clone();
        let l2 = e.actor(NodeId(2)).app().log.clone();
        assert_eq!(l0.len(), 3);
        assert_eq!(l0, l1, "replicas must agree on order");
        assert_eq!(l1, l2);
        // Non-member holds nothing.
        assert!(e.actor(NodeId(3)).app().log.is_empty());
        // All three gcasts completed at their origins.
        assert_eq!(e.take_outputs().len(), 3);
    }

    #[test]
    fn concurrent_gcasts_are_totally_ordered() {
        let mut e = engine(5, vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])]);
        // All injected at the same instant from different nodes.
        for node in 0..5u32 {
            append(&mut e, SimTime::from_millis(1), node, 1, node as u8);
        }
        e.run_to_quiescence(100_000);
        let l0 = e.actor(NodeId(0)).app().log.clone();
        assert_eq!(l0.len(), 5);
        for m in [1u32, 2] {
            assert_eq!(e.actor(NodeId(m)).app().log, l0);
        }
    }

    #[test]
    fn response_comes_back_to_nonmember_origin() {
        let mut e = engine(3, vec![(G, vec![NodeId(0), NodeId(1)])]);
        append(&mut e, SimTime::from_millis(1), 2, 1, 42);
        e.run_to_quiescence(100_000);
        let outs = e.take_outputs();
        assert_eq!(outs.len(), 1);
        let (node_out, (token, result)) = (outs[0].1, outs[0].2.clone());
        assert_eq!(node_out, NodeId(2));
        assert_eq!(token, 99);
        assert_eq!(result.unwrap(), vec![1], "log length after the append");
    }

    #[test]
    fn join_transfers_state() {
        let mut e = engine(4, vec![(G, vec![NodeId(0), NodeId(1)])]);
        append(&mut e, SimTime::from_millis(1), 0, 1, 5);
        append(&mut e, SimTime::from_millis(2), 1, 1, 6);
        // Node 3 joins after the appends.
        e.inject(
            SimTime::from_millis(100),
            NodeId(3),
            NetMsg::App(vec![10, 1]),
        );
        // And another append lands after the join.
        append(&mut e, SimTime::from_millis(200), 0, 1, 7);
        e.run_to_quiescence(100_000);
        assert!(e.actor(NodeId(3)).is_member_of(G));
        assert_eq!(e.actor(NodeId(3)).app().log, vec![5, 6, 7]);
        assert_eq!(e.actor(NodeId(0)).app().log, vec![5, 6, 7]);
        // The view all members hold agrees.
        let v0 = e.actor(NodeId(0)).view_of(G).unwrap().clone();
        let v3 = e.actor(NodeId(3)).view_of(G).unwrap().clone();
        assert_eq!(v0, v3);
        assert_eq!(v0.len(), 3);
    }

    #[test]
    fn leave_erases_state_and_shrinks_view() {
        let mut e = engine(3, vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])]);
        append(&mut e, SimTime::from_millis(1), 0, 1, 9);
        e.inject(
            SimTime::from_millis(100),
            NodeId(2),
            NetMsg::App(vec![11, 1]),
        );
        append(&mut e, SimTime::from_millis(200), 0, 1, 8);
        e.run_to_quiescence(100_000);
        assert!(!e.actor(NodeId(2)).is_member_of(G));
        assert!(
            e.actor(NodeId(2)).app().log.is_empty(),
            "leavers erase group state"
        );
        assert_eq!(e.actor(NodeId(0)).app().log, vec![9, 8]);
        assert_eq!(e.actor(NodeId(1)).app().log, vec![9, 8]);
        assert_eq!(e.actor(NodeId(0)).view_of(G).unwrap().len(), 2);
    }

    #[test]
    fn last_member_cannot_leave() {
        let mut e = engine(2, vec![(G, vec![NodeId(0)])]);
        e.inject(SimTime::from_millis(1), NodeId(0), NetMsg::App(vec![11, 1]));
        append(&mut e, SimTime::from_millis(100), 1, 1, 3);
        e.run_to_quiescence(100_000);
        assert!(
            e.actor(NodeId(0)).is_member_of(G),
            "sole member must refuse to leave"
        );
        assert_eq!(e.actor(NodeId(0)).app().log, vec![3]);
    }

    #[test]
    fn leader_crash_mid_request_is_retried_to_new_leader() {
        let mut e = engine(4, vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])]);
        append(&mut e, SimTime::from_millis(1), 3, 1, 1);
        e.run_to_quiescence(100_000);
        // Crash the leader (node 0); issue another append immediately.
        e.crash_now(NodeId(0));
        let t = e.now() + SimTime::from_micros(1);
        append(&mut e, t, 3, 1, 2);
        e.run_to_quiescence(1_000_000);
        // Survivors replicate both entries; the origin got both responses.
        assert_eq!(e.actor(NodeId(1)).app().log, vec![1, 2]);
        assert_eq!(e.actor(NodeId(2)).app().log, vec![1, 2]);
        let completions = &e.actor(NodeId(3)).app().completions;
        assert_eq!(completions.len(), 2);
        assert!(completions.iter().all(|(_, r)| r.is_ok()));
        // The survivors' views dropped the crashed leader.
        assert_eq!(e.actor(NodeId(1)).view_of(G).unwrap().len(), 2);
    }

    #[test]
    fn member_crash_does_not_block_completion() {
        let mut e = engine(4, vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])]);
        e.crash_now(NodeId(2));
        e.run_to_quiescence(100_000);
        let t = e.now() + SimTime::from_micros(1);
        append(&mut e, t, 3, 1, 7);
        e.run_to_quiescence(1_000_000);
        let completions = &e.actor(NodeId(3)).app().completions;
        assert_eq!(completions.len(), 1);
        assert!(completions[0].1.is_ok());
        assert_eq!(e.actor(NodeId(0)).app().log, vec![7]);
    }

    #[test]
    fn crashed_member_rejoins_and_recovers_state() {
        let mut e = engine(3, vec![(G, vec![NodeId(0), NodeId(1)])]);
        append(&mut e, SimTime::from_millis(1), 0, 1, 4);
        e.run_to_quiescence(100_000);
        e.crash_now(NodeId(1));
        e.run_to_quiescence(100_000);
        let t = e.now() + SimTime::from_micros(1);
        append(&mut e, t, 0, 1, 5);
        e.run_to_quiescence(1_000_000);
        e.repair_now(NodeId(1));
        e.run_to_quiescence(100_000);
        // After recovery the node must re-join explicitly (app-driven).
        e.inject(
            e.now() + SimTime::from_micros(1),
            NodeId(1),
            NetMsg::App(vec![10, 1]),
        );
        e.run_to_quiescence(1_000_000);
        assert!(e.actor(NodeId(1)).is_member_of(G));
        assert_eq!(
            e.actor(NodeId(1)).app().log,
            vec![4, 5],
            "state transfer must include pre-crash and during-crash entries"
        );
    }

    #[test]
    fn gcast_to_fully_dead_group_eventually_errors() {
        let mut e = engine(3, vec![(G, vec![NodeId(0), NodeId(1)])]);
        e.crash_now(NodeId(0));
        e.crash_now(NodeId(1));
        e.run_to_quiescence(100_000);
        let t = e.now() + SimTime::from_micros(1);
        append(&mut e, t, 2, 1, 1);
        e.run_to_quiescence(10_000_000);
        let completions = &e.actor(NodeId(2)).app().completions;
        // Either errored out, or node 2 re-formed the group as the lowest
        // live node and answered itself — both are acceptable terminal
        // states; what is not acceptable is hanging forever.
        assert_eq!(completions.len(), 1, "the gcast must terminate");
    }

    #[test]
    fn two_groups_are_independent() {
        let mut e = engine(
            4,
            vec![
                (G, vec![NodeId(0), NodeId(1)]),
                (G2, vec![NodeId(2), NodeId(3)]),
            ],
        );
        append(&mut e, SimTime::from_millis(1), 0, 1, 11);
        append(&mut e, SimTime::from_millis(1), 2, 2, 22);
        e.run_to_quiescence(100_000);
        assert_eq!(e.actor(NodeId(0)).app().log, vec![11]);
        assert_eq!(e.actor(NodeId(1)).app().log, vec![11]);
        assert_eq!(e.actor(NodeId(2)).app().log, vec![22]);
        assert_eq!(e.actor(NodeId(3)).app().log, vec![22]);
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let cfg = VsyncConfig {
                initial_groups: vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])],
                ..VsyncConfig::default()
            };
            let mut ecfg = EngineConfig::for_tests(4);
            ecfg.seed = seed;
            let mut e = Engine::new(ecfg, move |id| {
                VsyncNode::new(id, cfg.clone(), TestApp::default())
            });
            for i in 0..10u8 {
                append(
                    &mut e,
                    SimTime::from_millis(i as u64 + 1),
                    (i % 4) as u32,
                    1,
                    i,
                );
            }
            e.crash_now(NodeId(2));
            e.run_to_quiescence(1_000_000);
            (
                e.actor(NodeId(0)).app().log.clone(),
                e.stats().msgs_sent,
                e.stats().total_msg_cost,
            )
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn leader_can_leave_and_new_leader_takes_over() {
        let mut e = engine(4, vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])]);
        append(&mut e, SimTime::from_millis(1), 3, 1, 1);
        e.run_to_quiescence(100_000);
        // The leader (m0, lowest id) leaves voluntarily.
        let t1 = e.now() + SimTime::from_millis(50);
        e.inject(t1, NodeId(0), NetMsg::App(vec![11, 1]));
        e.run_to_quiescence(1_000_000);
        assert!(!e.actor(NodeId(0)).is_member_of(G));
        assert!(e.actor(NodeId(0)).app().log.is_empty(), "leaver erased");
        // New leader (m1) serves subsequent gcasts.
        let t2 = e.now() + SimTime::from_micros(1);
        append(&mut e, t2, 3, 1, 2);
        e.run_to_quiescence(1_000_000);
        assert_eq!(e.actor(NodeId(1)).app().log, vec![1, 2]);
        assert_eq!(e.actor(NodeId(2)).app().log, vec![1, 2]);
        let completions = &e.actor(NodeId(3)).app().completions;
        assert_eq!(completions.len(), 2);
        assert!(completions.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn leave_during_inflight_gcasts_still_completes_them() {
        let mut e = engine(4, vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])]);
        // Burst of gcasts and a leave injected at the same instant.
        let t = SimTime::from_millis(1);
        for x in 1..=5u8 {
            e.inject(t, NodeId(3), NetMsg::App(vec![12, 1, 1, x]));
        }
        e.inject(t, NodeId(2), NetMsg::App(vec![11, 1]));
        e.run_to_quiescence(2_000_000);
        let completions = &e.actor(NodeId(3)).app().completions;
        assert_eq!(completions.len(), 5, "every gcast must terminate");
        assert!(completions.iter().all(|(_, r)| r.is_ok()));
        // Remaining members agree.
        assert_eq!(e.actor(NodeId(0)).app().log, e.actor(NodeId(1)).app().log);
        assert_eq!(e.actor(NodeId(0)).app().log.len(), 5);
        assert!(!e.actor(NodeId(2)).is_member_of(G));
    }

    #[test]
    fn concurrent_joiners_to_dead_group_converge_to_one_incarnation() {
        // Kill every member, then have TWO nodes join at the same instant:
        // the probe/grant protocol must admit both into a SINGLE new
        // incarnation (no split brain).
        let mut e = engine(5, vec![(G, vec![NodeId(0), NodeId(1)])]);
        e.crash_now(NodeId(0));
        e.crash_now(NodeId(1));
        e.run_to_quiescence(100_000);
        let t = e.now() + SimTime::from_micros(1);
        e.inject(t, NodeId(3), NetMsg::App(vec![10, 1]));
        e.inject(t, NodeId(4), NetMsg::App(vec![10, 1]));
        e.run_to_quiescence(3_000_000);
        let members: Vec<u32> = (2..5u32)
            .filter(|m| e.actor(NodeId(*m)).is_member_of(G))
            .collect();
        assert_eq!(members, vec![3, 4], "both joiners must end up members");
        let v3 = e.actor(NodeId(3)).view_of(G).unwrap().clone();
        let v4 = e.actor(NodeId(4)).view_of(G).unwrap().clone();
        assert_eq!(v3, v4, "split brain: two group incarnations");
        assert_eq!(v3.len(), 2);
    }

    #[test]
    fn relocated_group_remains_reachable_via_contact_rotation() {
        // The group's membership moves entirely away from its configured
        // basic members: node 2 joins, then 0 and 1 leave. A fourth node
        // with only the stale initial cache must still reach the group
        // (nack-driven contact rotation).
        let mut e = engine(5, vec![(G, vec![NodeId(0), NodeId(1)])]);
        e.inject(SimTime::from_millis(1), NodeId(2), NetMsg::App(vec![10, 1]));
        e.run_to_quiescence(1_000_000);
        let t = e.now() + SimTime::from_micros(1);
        e.inject(t, NodeId(0), NetMsg::App(vec![11, 1]));
        e.run_to_quiescence(1_000_000);
        let t = e.now() + SimTime::from_micros(1);
        e.inject(t, NodeId(1), NetMsg::App(vec![11, 1]));
        e.run_to_quiescence(1_000_000);
        assert!(e.actor(NodeId(2)).is_member_of(G));
        assert!(!e.actor(NodeId(0)).is_member_of(G));
        // Node 4 appends through its stale view of the group.
        let t = e.now() + SimTime::from_micros(1);
        append(&mut e, t, 4, 1, 42);
        e.run_to_quiescence(3_000_000);
        let completions = &e.actor(NodeId(4)).app().completions;
        assert_eq!(completions.len(), 1);
        assert!(
            completions[0].1.is_ok(),
            "gcast must find the relocated group"
        );
        assert_eq!(e.actor(NodeId(2)).app().log, vec![42]);
    }

    #[test]
    fn probe_grant_blocks_second_prober_within_window() {
        // Directly exercise the grant window: after everything dies, a
        // single join re-forms; a second joiner arriving right after joins
        // the NEW incarnation (never forms its own).
        let mut e = engine(4, vec![(G, vec![NodeId(0)])]);
        e.crash_now(NodeId(0));
        e.run_to_quiescence(100_000);
        let t = e.now() + SimTime::from_micros(1);
        e.inject(t, NodeId(2), NetMsg::App(vec![10, 1]));
        e.run_to_quiescence(1_000_000);
        assert!(e.actor(NodeId(2)).is_member_of(G));
        let t = e.now() + SimTime::from_micros(1);
        e.inject(t, NodeId(3), NetMsg::App(vec![10, 1]));
        e.run_to_quiescence(1_000_000);
        let v2 = e.actor(NodeId(2)).view_of(G).unwrap().clone();
        assert_eq!(v2.len(), 2, "second joiner joined the first incarnation");
        assert_eq!(e.actor(NodeId(3)).view_of(G).unwrap().clone(), v2);
    }

    #[test]
    fn views_seen_are_monotonic() {
        let mut e = engine(4, vec![(G, vec![NodeId(0), NodeId(1)])]);
        e.inject(SimTime::from_millis(1), NodeId(2), NetMsg::App(vec![10, 1]));
        e.inject(
            SimTime::from_millis(50),
            NodeId(3),
            NetMsg::App(vec![10, 1]),
        );
        e.inject(
            SimTime::from_millis(100),
            NodeId(2),
            NetMsg::App(vec![11, 1]),
        );
        e.run_to_quiescence(1_000_000);
        for n in 0..4u32 {
            let vs = &e.actor(NodeId(n)).app().views_seen;
            for w in vs.windows(2) {
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 <= w[1].1, "view ids must not go backwards at {n}");
                }
            }
        }
        assert_eq!(e.actor(NodeId(0)).view_of(G).unwrap().len(), 3);
    }
}
