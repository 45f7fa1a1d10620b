//! Exactly-once delivery with the dedup/response table pruned.
//!
//! Members forget an origin's requests below its *acknowledged floor*
//! (the lowest request the origin still waits for, stamped on every
//! gcast) and drop later arrivals below it. These tests drive the
//! sans-I/O actors through the `common` harness, capturing, dropping,
//! reordering and re-injecting messages the way lossy, reordering links
//! and retries do, and check that nothing is applied twice, nothing still
//! awaited is dropped, and nothing forgotten is answered.

mod common;

use common::Net;
use paso_simnet::NodeId;
use paso_telemetry::{metrics, CounterId};
use paso_vsync::{
    Delivery, GcastError, GroupApp, GroupId, NetMsg, View, VsyncConfig, VsyncMsg, VsyncNode,
    VsyncOps,
};

const G: GroupId = GroupId(7);
const STALE: CounterId = metrics::VSYNC_DEDUP_STALE_DROPPED;

/// Replicated log. Commands (app messages): `[1, x]` gcast `x` to `G`
/// with token `x`; `[2]` join `G`. A delivery appends `x` and answers
/// `[x, log length]`, so a re-applied delivery shows in the log *and* in
/// the response.
#[derive(Debug, Default)]
struct LogApp {
    log: Vec<u8>,
    done: Vec<(u64, Result<Vec<u8>, GcastError>)>,
}

impl GroupApp for LogApp {
    type Output = ();

    fn on_start(&mut self, _: &mut dyn VsyncOps<Self::Output>) {}
    fn on_recovered(&mut self, _: &mut dyn VsyncOps<Self::Output>) {}
    fn on_app_message(&mut self, vs: &mut dyn VsyncOps<Self::Output>, _: NodeId, bytes: &[u8]) {
        match bytes {
            [1, x] => vs.gcast(G, vec![*x], *x as u64),
            [2] => vs.join(G),
            _ => {}
        }
    }
    fn on_timer(&mut self, _: &mut dyn VsyncOps<Self::Output>, _: u64) {}
    fn deliver(
        &mut self,
        _: &mut dyn VsyncOps<Self::Output>,
        _: GroupId,
        _: NodeId,
        payload: &[u8],
    ) -> Delivery {
        self.log.extend_from_slice(payload);
        Delivery {
            response: vec![payload[0], self.log.len() as u8],
            work: 1,
        }
    }
    fn on_gcast_complete(
        &mut self,
        _: &mut dyn VsyncOps<Self::Output>,
        token: u64,
        result: Result<Vec<u8>, GcastError>,
    ) {
        self.done.push((token, result));
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
    fn on_view(&mut self, _: &mut dyn VsyncOps<Self::Output>, _: GroupId, _: &View) {}
}

fn node(id: NodeId) -> VsyncNode<LogApp> {
    let cfg = VsyncConfig {
        initial_groups: vec![(G, vec![NodeId(1), NodeId(2)])],
        ..VsyncConfig::default()
    };
    VsyncNode::new(id, cfg, LogApp::default())
}

/// Four machines: `G = {1, 2}` (1 leads), 3 is the non-member origin,
/// 0 is free to join (and, as the lowest id, to take over as leader).
fn net() -> Net<LogApp> {
    Net::start(4, node)
}

fn log(net: &Net<LogApp>, node: u32) -> &[u8] {
    &net.nodes[node as usize].app().log
}

fn done(net: &Net<LogApp>, node: u32) -> &[(u64, Result<Vec<u8>, GcastError>)] {
    &net.nodes[node as usize].app().done
}

fn entries(net: &Net<LogApp>, node: u32) -> usize {
    net.nodes[node as usize].dedup_entries()
}

fn is_gcast(msg: &NetMsg) -> bool {
    matches!(msg, NetMsg::Vsync(VsyncMsg::Gcast { .. }))
}

/// (a) A request hop and a fan-out captured off the wire and replayed
/// after the origin's floor passed them: not applied again, not relayed,
/// not acknowledged, not answered — only counted.
#[test]
fn replays_below_the_floor_are_dropped_silently() {
    let mut net = net();
    net.app(3, vec![1, 10]);
    let request = net.msgs[0].clone();
    assert_eq!((request.0, request.1), (NodeId(3), NodeId(1)));
    net.settle_round(); // leader 1 sequences and fans out
    let fan_out = net.msgs.iter().find(|m| is_gcast(&m.2)).unwrap().clone();
    assert_eq!((fan_out.0, fan_out.1), (NodeId(1), NodeId(2)));
    net.run_ms(10);
    assert_eq!(done(&net, 3), [(10, Ok(vec![10, 1]))]);

    // The next gcast vouches for the first: both members forget it.
    net.app(3, vec![1, 11]);
    net.run_ms(10);
    assert_eq!(done(&net, 3).len(), 2);
    for m in [1, 2] {
        assert_eq!(entries(&net, m), 1, "m{m} keeps only the request in flight");
    }
    assert!(!net.counts.contains_key(&STALE));

    net.deliver(request.clone()); // at the leader
    net.deliver((request.0, NodeId(2), request.2)); // at a relay
    net.deliver(fan_out); // at a member
    assert!(
        net.msgs.is_empty(),
        "a stale gcast draws no reply: {:?}",
        net.msgs
    );
    assert_eq!(net.counts[&STALE], 3.0);
    for m in [1, 2] {
        assert_eq!(
            log(&net, m),
            [10, 11],
            "m{m} re-applied a forgotten request"
        );
    }
    assert_eq!(done(&net, 3).len(), 2);
}

/// (b) 32 gcasts outstanding from one origin arrive in reversed order,
/// and the lowest is lost and retried last of all. The floor stays under
/// the lowest request while its origin still waits for it, so all 32 are
/// applied once and complete — where a "keep the last k deliveries"
/// window would have forgotten (or refused) the late ones.
#[test]
fn reversed_arrival_of_32_outstanding_gcasts_all_complete() {
    let mut net = net();
    for x in 0..32u8 {
        net.app(3, vec![1, x]);
    }
    assert_eq!(net.msgs.len(), 32);
    net.msgs.reverse();
    net.msgs.pop(); // the lowest request's first attempt is lost
    net.run_ms(10);
    assert_eq!(done(&net, 3).len(), 31);
    net.run_ms(50); // … and its retry arrives after everything else
    assert_eq!(done(&net, 3).len(), 32);

    let mut completed: Vec<u64> = done(&net, 3)
        .iter()
        .map(|(token, result)| {
            assert!(result.is_ok(), "gcast {token}: {result:?}");
            *token
        })
        .collect();
    completed.sort_unstable();
    assert_eq!(completed, (0..32).collect::<Vec<u64>>());
    let mut applied = log(&net, 1).to_vec();
    assert_eq!(applied, log(&net, 2), "members agree on the order");
    assert_eq!(applied[31], 0, "the lowest request was delivered last");
    applied.sort_unstable();
    assert_eq!(applied, (0..32).collect::<Vec<u8>>(), "each applied once");
    assert!(!net.counts.contains_key(&STALE));

    // Nothing below request 0 could be forgotten while it was pending;
    // the next gcast vouches for all 32 at once.
    assert_eq!(entries(&net, 1), 32);
    net.app(3, vec![1, 99]);
    net.run_ms(10);
    for m in [1, 2] {
        assert_eq!(entries(&net, m), 1);
    }
}

/// (c) The leader crashes after its fan-out was applied but before it
/// answered. A node that joined in between — and, having the lowest id,
/// now leads — received the table in its `StateXfer`: it answers the
/// origin's retry from there without applying the request again.
#[test]
fn joiner_turned_leader_answers_a_retry_from_the_transferred_table() {
    let mut net = net();
    net.app(3, vec![1, 7]);
    net.settle_round(); // leader 1 applies and fans out
    net.settle_round(); // member 2 applies and acknowledges
    let acks = net.msgs.len();
    net.msgs
        .retain(|m| !matches!(m.2, NetMsg::Vsync(VsyncMsg::GcastDone { .. })));
    assert_eq!(net.msgs.len() + 1, acks, "the ack to the leader is lost");
    assert!(done(&net, 3).is_empty());

    net.app(0, vec![2]);
    net.run_ms(10);
    assert!(net.nodes[0].is_member_of(G));
    assert_eq!(log(&net, 0), [7], "state transfer carried the delivery");
    assert_eq!(entries(&net, 0), 1, "… and its table entry");

    net.crash(1, node(NodeId(1)));
    net.run_ms(60); // the origin's retry finds {0, 2}, led by 0
    assert_eq!(done(&net, 3), [(7, Ok(vec![7, 1]))]);
    for m in [0, 2] {
        assert_eq!(log(&net, m), [7], "m{m} applied the retried request again");
    }
}

/// (d) The origin crashes and recovers: its new incarnation numbers
/// requests far above the old one's, so its first delivery lifts the
/// floor over everything the old incarnation ever sent — a pre-crash
/// request still wandering the network is dropped, applied or not.
#[test]
fn pre_crash_duplicates_are_dropped_after_the_origin_recovers() {
    let mut net = net();
    net.app(3, vec![1, 1]);
    let delivered = net.msgs[0].clone();
    net.run_ms(10);
    net.app(3, vec![1, 2]);
    let lost = net.msgs.pop().unwrap(); // delayed past the crash
    assert!(is_gcast(&lost.2));
    assert_eq!(done(&net, 3).len(), 1);

    net.crash(3, node(NodeId(3)));
    net.run_ms(100);
    net.recover(3);
    net.app(3, vec![1, 3]);
    net.run_ms(10);
    assert_eq!(done(&net, 3), [(3, Ok(vec![3, 2]))]);

    net.deliver(lost);
    net.deliver(delivered);
    assert!(net.msgs.is_empty(), "{:?}", net.msgs);
    assert_eq!(net.counts[&STALE], 2.0);
    for m in [1, 2] {
        assert_eq!(log(&net, m), [1, 3]);
        assert_eq!(entries(&net, m), 1);
    }
}
