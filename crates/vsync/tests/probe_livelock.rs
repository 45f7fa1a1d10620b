//! Regression test for the formation-grant livelock.
//!
//! When *every* member of a group dies (the > λ case) and two of them
//! rejoin simultaneously, each probes the ensemble for a live member.
//! With per-link message reordering the probes can arrive in opposite
//! orders at different responders, splitting the formation grants:
//! responder 0 grants joiner A and denies B, responder 1 grants B and
//! denies A. Each prober then re-probes every `retry_timeout`, which
//! *refreshes* its own grants (the window is 4× the retry period), so
//! neither claim ever expires and neither prober reaches unanimity —
//! the group stays dead forever.
//!
//! The shared-bus simulator serializes every message onto one global
//! timeline, so probes arrive at all responders in the same order and
//! the randomized property tests can never produce this interleaving.
//! Real TCP reorders across links freely; the live fault-injection
//! tests caught the hang. The `common` harness drives the same sans-I/O
//! actors with a deterministic *adversarial* per-link schedule that
//! forces the split; the test asserts the group still re-forms: a denied
//! prober that learns a smaller-id holder owns the window must pause past
//! the grant expiry so exactly one prober keeps collecting.

mod common;

use common::Net;
use paso_simnet::{NodeEvent, NodeId, SimTime};
use paso_vsync::{Delivery, GcastError, GroupApp, GroupId, View, VsyncConfig, VsyncNode, VsyncOps};

const G: GroupId = GroupId(7);

/// Do-nothing application: rejoins `G` after recovery, nothing else.
#[derive(Debug, Default)]
struct NullApp;

impl GroupApp for NullApp {
    type Output = ();

    fn on_start(&mut self, _: &mut dyn VsyncOps<Self::Output>) {}
    fn on_recovered(&mut self, vs: &mut dyn VsyncOps<Self::Output>) {
        vs.join(G);
    }
    fn on_app_message(&mut self, _: &mut dyn VsyncOps<Self::Output>, _: NodeId, _: &[u8]) {}
    fn on_timer(&mut self, _: &mut dyn VsyncOps<Self::Output>, _: u64) {}
    fn deliver(
        &mut self,
        _: &mut dyn VsyncOps<Self::Output>,
        _: GroupId,
        _: NodeId,
        _: &[u8],
    ) -> Delivery {
        Delivery::default()
    }
    fn on_gcast_complete(
        &mut self,
        _: &mut dyn VsyncOps<Self::Output>,
        _: u64,
        _: Result<Vec<u8>, GcastError>,
    ) {
    }
    fn snapshot(&self, _: GroupId) -> Vec<u8> {
        Vec::new()
    }
    fn install(&mut self, _: &mut dyn VsyncOps<Self::Output>, _: GroupId, _: &[u8]) {}
    fn erase(&mut self, _: GroupId) {}
    fn on_view(&mut self, _: &mut dyn VsyncOps<Self::Output>, _: GroupId, _: &View) {}
}

fn members(net: &Net<NullApp>) -> Vec<u32> {
    (0..net.nodes.len() as u32)
        .filter(|m| net.nodes[*m as usize].is_member_of(G))
        .collect()
}

#[test]
fn simultaneous_rejoin_survives_adversarial_probe_interleaving() {
    let cfg = VsyncConfig {
        initial_groups: vec![(G, vec![NodeId(2), NodeId(3)])],
        ..VsyncConfig::default()
    };
    let mut net = Net::start(4, |id| VsyncNode::new(id, cfg.clone(), NullApp));
    net.run(net.now + SimTime::from_millis(500));
    assert_eq!(members(&net), vec![2, 3], "initial membership installs");

    // Crash BOTH members (> λ — losing the group state is expected and
    // correct) and bring both back in the same instant: fresh
    // incarnations, everyone briefed, both rejoining concurrently.
    for i in [2u32, 3] {
        net.nodes[i as usize] = VsyncNode::new(NodeId(i), cfg.clone(), NullApp);
        net.timers.retain(|(_, n, _)| n.0 != i);
        net.msgs.retain(|(_, to, _)| to.0 != i);
    }
    for observer in [0u32, 1] {
        for dead in [2u32, 3] {
            net.drive(NodeId(observer), NodeEvent::PeerCrashed(NodeId(dead)));
        }
    }
    net.drive(NodeId(2), NodeEvent::Recovered);
    net.drive(NodeId(3), NodeEvent::Recovered);
    for observer in [0u32, 1] {
        for back in [2u32, 3] {
            net.drive(NodeId(observer), NodeEvent::PeerRecovered(NodeId(back)));
        }
    }

    // 20 s of simulated time ≈ 400 retry rounds. Without denial backoff
    // the split grants refresh forever and the group never re-forms.
    net.run(net.now + SimTime::from_secs(20));
    assert!(
        !members(&net).is_empty(),
        "group must re-form after simultaneous rejoin under adversarial \
         probe interleaving (formation-grant livelock)"
    );
}
