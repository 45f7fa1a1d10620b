//! What a batch means: one `ClientBatch` in, at most one gcast per write
//! group and one completion frame out.
//!
//! These tests drive the real node — `VsyncNode<MemoryServer>` built by
//! [`Deployment::node`] — through a small lockstep network that also
//! plays the gateway slot (`NodeId(n)`), so every frame a server puts on
//! a link can be counted and read.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use paso_core::{
    encode, try_decode, AppMsg, BlockingMode, ClassifierKind, ClientDone, ClientOp, ClientRequest,
    ClientResult, Deployment, MemoryServer, OpResponse, PasoConfig, ReplBatch, ReplOp, WalMedium,
};
use paso_simnet::{drive_actor, Action, NodeEvent, NodeId, SimTime};
use paso_types::{
    ClassId, FieldMatcher, ObjectId, PasoObject, ProcessId, SearchCriterion, Template, Value,
};
use paso_vsync::{NetMsg, ReqId, VsyncMsg, VsyncNode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

type Hop = (NodeId, NodeId, NetMsg);

struct Net {
    deployment: Deployment,
    nodes: Vec<VsyncNode<MemoryServer>>,
    down: BTreeSet<NodeId>,
    now: SimTime,
    rng: ChaCha8Rng,
    /// In flight, in send order (self-sends included). Tests may edit it.
    queue: VecDeque<Hop>,
    timers: Vec<(SimTime, NodeId, u64)>,
    /// Every frame one server sent to another node — what `net.msgs_sent`
    /// counts (self-sends and the gateway's own frames are not in it).
    wire: Vec<Hop>,
    /// Every completion the gateway slot received, frame by frame.
    gateway_frames: Vec<Vec<ClientDone>>,
    counts: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Vec<u64>>,
}

impl Net {
    fn start(cfg: PasoConfig) -> Net {
        let deployment = Deployment::new(cfg, WalMedium::Memory);
        let n = deployment.config().n;
        let mut net = Net {
            nodes: (0..n as u32).map(|i| deployment.node(NodeId(i))).collect(),
            deployment,
            down: BTreeSet::new(),
            now: SimTime::ZERO,
            rng: ChaCha8Rng::seed_from_u64(17),
            queue: VecDeque::new(),
            timers: Vec::new(),
            wire: Vec::new(),
            gateway_frames: Vec::new(),
            counts: BTreeMap::new(),
            hists: BTreeMap::new(),
        };
        for i in 0..n as u32 {
            net.drive(NodeId(i), NodeEvent::Start);
        }
        net.settle();
        net
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The gateway slot's address: the first id behind the servers.
    fn gateway(&self) -> NodeId {
        NodeId(self.n() as u32)
    }

    fn drive(&mut self, node: NodeId, ev: NodeEvent<NetMsg>) {
        let n = self.n();
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
                Action::Send { to, msg } => {
                    self.wire.push((node, to, msg.clone()));
                    self.queue.push_back((node, to, msg));
                }
                Action::SendMany { to, msg } => {
                    for t in to {
                        self.wire.push((node, t, msg.clone()));
                        self.queue.push_back((node, t, msg.clone()));
                    }
                }
                Action::SendLocal { msg } => self.queue.push_back((node, node, msg)),
                Action::SetTimer { delay, tag } => self.timers.push((self.now + delay, node, tag)),
                Action::CancelTimer { tag } => self.timers.retain(|t| (t.1, t.2) != (node, tag)),
                Action::Count(id, delta) => *self.counts.entry(id.name()).or_default() += delta,
                Action::Record(id, value) => self.hists.entry(id.name()).or_default().push(value),
                Action::Emit(_) | Action::Work(_) | Action::Trace(_) => {}
            }
        }
    }

    /// Delivers queued frames, in order, until none is in flight.
    fn settle(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if to == self.gateway() {
                let NetMsg::App(bytes) = msg else {
                    panic!("vsync traffic addressed to a gateway");
                };
                self.gateway_frames.push(match try_decode(&bytes).unwrap() {
                    AppMsg::Done(done) => vec![done],
                    AppMsg::DoneBatch(dones) => dones,
                    other => panic!("unexpected frame at the gateway: {other:?}"),
                });
            } else if !self.down.contains(&to) {
                self.drive(to, NodeEvent::Message { from, msg });
            }
        }
    }

    /// Settles, then fires timers and settles again until `ms` more
    /// simulated milliseconds have passed.
    fn run_ms(&mut self, ms: u64) {
        let until = self.now + SimTime::from_millis(ms);
        loop {
            self.settle();
            let due = self.timers.iter().map(|t| t.0).min();
            let Some(due) = due.filter(|due| *due <= until) else {
                self.now = until;
                return;
            };
            self.now = due;
            let (firing, later) = std::mem::take(&mut self.timers)
                .into_iter()
                .partition(|t| t.0 <= due);
            self.timers = later;
            for (_, node, tag) in firing {
                if !self.down.contains(&node) {
                    self.drive(node, NodeEvent::Timer { tag });
                }
            }
        }
    }

    /// The gateway slot sends `server` one frame.
    fn gateway_sends(&mut self, server: u32, msg: &AppMsg) {
        let from = self.gateway();
        self.drive(
            NodeId(server),
            NodeEvent::Message {
                from,
                msg: NetMsg::App(encode(msg)),
            },
        );
    }

    /// Crashes `victim`: a blank incarnation takes its slot, its timers
    /// and inbound frames vanish, its peers hear the membership oracle.
    fn crash(&mut self, victim: u32) {
        let id = NodeId(victim);
        self.down.insert(id);
        self.nodes[id.index()] = self.deployment.node(id);
        self.timers.retain(|t| t.1 != id);
        self.queue.retain(|hop| hop.1 != id);
        for peer in 0..self.n() as u32 {
            if !self.down.contains(&NodeId(peer)) {
                self.drive(NodeId(peer), NodeEvent::PeerCrashed(id));
            }
        }
    }

    /// Brings a crashed node back and briefs everyone else.
    fn recover(&mut self, node: u32) {
        let id = NodeId(node);
        self.down.remove(&id);
        self.drive(id, NodeEvent::Recovered);
        for peer in 0..self.n() as u32 {
            if peer != node && !self.down.contains(&NodeId(peer)) {
                self.drive(NodeId(peer), NodeEvent::PeerRecovered(id));
            }
        }
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn class_of(&self, object: &PasoObject) -> ClassId {
        self.deployment.classifier().classify(object)
    }

    /// `B(C)`, lowest id (the sequencer) first.
    fn members(&self, class: ClassId) -> Vec<u32> {
        let mut members: Vec<u32> = self
            .deployment
            .basic_support(class)
            .iter()
            .map(|m| m.0)
            .collect();
        members.sort_unstable();
        members
    }

    /// Every gcast request that was issued, by identity, with its payload
    /// (fan-out copies and retries of one request collapse into one).
    fn gcasts(&self) -> BTreeMap<ReqId, Vec<u8>> {
        self.wire
            .iter()
            .filter_map(|(_, _, msg)| match msg {
                NetMsg::Vsync(VsyncMsg::Gcast { req, payload, .. }) => {
                    Some((*req, payload.as_bytes().to_vec()))
                }
                _ => None,
            })
            .collect()
    }

    /// All completions the gateway received, flattened.
    fn answers(&self) -> Vec<ClientDone> {
        self.gateway_frames.iter().flatten().cloned().collect()
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn job(seq: u64, n: i64) -> PasoObject {
    PasoObject::new(
        ObjectId::new(ProcessId(7), seq),
        vec![Value::symbol("job"), Value::Int(n)],
    )
}

fn sc_job(n: i64) -> SearchCriterion {
    SearchCriterion::from(Template::exact(vec![Value::symbol("job"), Value::Int(n)]))
}

/// Gateway-style op ids: `(gateway node << 40) | ctr`.
fn op_id(net: &Net, ctr: u64) -> u64 {
    (u64::from(net.gateway().0) << 40) | ctr
}

fn requests(net: &Net, ops: Vec<ClientOp>) -> Vec<ClientRequest> {
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| ClientRequest {
            op_id: op_id(net, i as u64),
            op,
        })
        .collect()
}

fn insert(object: PasoObject) -> ClientOp {
    ClientOp::Insert { object }
}

fn take(sc: SearchCriterion) -> ClientOp {
    ClientOp::ReadDel {
        sc,
        blocking: false,
    }
}

/// (a) However many inserts for one class a `ClientBatch` carries, the
/// sequencer spends λ fan-outs + λ `GcastDone`s + one completion frame.
#[test]
fn a_batch_of_k_inserts_costs_two_lambda_plus_one_messages() {
    for (n, lambda) in [(3, 1), (5, 2)] {
        for k in [1u64, 2, 7] {
            let mut net = Net::start(PasoConfig::builder(n, lambda).build());
            let class = net.class_of(&job(0, 0));
            let sequencer = net.members(class)[0];
            let reqs = requests(&net, (0..k).map(|i| insert(job(i, i as i64))).collect());
            net.wire.clear();
            net.gateway_sends(sequencer, &AppMsg::ClientBatch(reqs.clone()));
            net.run_ms(10);

            assert_eq!(
                net.wire.len(),
                2 * lambda + 1,
                "n={n} λ={lambda} k={k}: {:?}",
                net.wire
            );
            assert_eq!(net.gateway_frames.len(), 1, "one completion frame");
            let answered: Vec<u64> = net.answers().iter().map(|d| d.op_id).collect();
            let asked: Vec<u64> = reqs.iter().map(|r| r.op_id).collect();
            assert_eq!(answered, asked, "every op answered once, in batch order");
            assert!(net
                .answers()
                .iter()
                .all(|d| d.result == ClientResult::Inserted));
            for member in net.members(class) {
                assert_eq!(
                    net.nodes[member as usize].app().store_len(class),
                    k as usize
                );
            }
            assert_eq!(net.count("op.insert.gcast"), k as f64, "counted per op");
            assert_eq!(net.count("op.batch.gcasts"), f64::from(k > 1));
            let sizes = net.hists.get("op.batch.ops").cloned().unwrap_or_default();
            assert_eq!(sizes, if k > 1 { vec![k] } else { vec![] });
        }
    }
}

/// (a, k = 1) A batch of one puts the bytes on the wire that a server
/// without an outbox did: a plain `ReplOp` fan-out, an empty `GcastDone`,
/// an `AppMsg::Done`. The hex was captured by running this test against
/// the commit before the outbox existed.
#[test]
fn a_batch_of_one_is_byte_identical_to_an_unbatched_op() {
    let mut net = Net::start(PasoConfig::builder(3, 1).build());
    let class = net.class_of(&job(300, -3));
    let members = net.members(class);
    net.now = SimTime::from_micros(5);
    net.wire.clear();
    let reqs = requests(&net, vec![insert(job(300, -3))]);
    net.gateway_sends(members[0], &AppMsg::ClientBatch(reqs));
    net.run_ms(10);

    let frames: Vec<(u32, u32, String)> = net
        .wire
        .iter()
        .map(|(from, to, msg)| (from.0, to.0, hex(&encode(msg))))
        .collect();
    let (leader, follower, gateway) = (members[0], members[1], net.gateway().0);
    assert_eq!(
        frames,
        vec![
            (
                leader,
                follower,
                // Gcast { group 4, req m1#0, ack 0, seq 1, payload }, the
                // payload being `wire_golden.rs`'s `ReplOp::Store` row
                // for class 2 and rank (5 µs, m1).
                "0000040100000110000207ac020205036a6f620005818014".to_string()
            ),
            (follower, leader, "0001040100".to_string()),
            // App(AppMsg::Done(ClientDone { op_id: 3 << 40, Inserted }))
            (leader, gateway, "01080580808080806000".to_string()),
        ]
    );
}

/// (b) Batch order is delivery order at every replica: the `read&del`
/// between two inserts of equal tuples takes the first, never the second.
#[test]
fn ops_of_a_batch_apply_in_batch_order_at_every_member() {
    let mut net = Net::start(PasoConfig::builder(5, 2).build());
    let (first, second) = (job(1, 9), job(2, 9));
    let class = net.class_of(&first);
    let reqs = requests(
        &net,
        vec![
            insert(first.clone()),
            take(sc_job(9)),
            insert(second.clone()),
        ],
    );
    net.gateway_sends(net.members(class)[0], &AppMsg::ClientBatch(reqs));
    net.run_ms(10);

    let results: Vec<ClientResult> = net.answers().into_iter().map(|d| d.result).collect();
    assert_eq!(
        results,
        vec![
            ClientResult::Inserted,
            ClientResult::Found(first),
            ClientResult::Inserted
        ]
    );
    assert_eq!(net.gcasts().len(), 1, "three ops, one gcast");
    for member in net.members(class) {
        assert_eq!(
            net.nodes[member as usize].app().objects(class),
            std::slice::from_ref(&second),
            "m{member}"
        );
    }
}

/// (c) A batch spanning two write groups issues exactly two gcasts, and
/// the completions still go back in one frame per handler call.
#[test]
fn a_batch_spanning_two_groups_issues_two_gcasts() {
    let mut net = Net::start(PasoConfig::builder(4, 1).build());
    let pair = |seq| job(seq, 1);
    let triple = |seq| {
        PasoObject::new(
            ObjectId::new(ProcessId(7), seq),
            vec![Value::symbol("job"), Value::Int(1), Value::Int(2)],
        )
    };
    let (c2, c3) = (net.class_of(&pair(0)), net.class_of(&triple(0)));
    assert_ne!(c2, c3);
    let reqs = requests(
        &net,
        vec![
            insert(pair(0)),
            insert(triple(1)),
            insert(pair(2)),
            insert(triple(3)),
        ],
    );
    net.gateway_sends(0, &AppMsg::ClientBatch(reqs));
    net.run_ms(10);

    let gcasts = net.gcasts();
    assert_eq!(gcasts.len(), 2, "{gcasts:?}");
    for payload in gcasts.values() {
        let ReplBatch(ops) = try_decode(payload).unwrap();
        assert_eq!(ops.len(), 2);
    }
    assert_eq!(net.count("op.batch.gcasts"), 2.0);
    assert_eq!(net.answers().len(), 4);
    for (class, seqs) in [(c2, [0, 2]), (c3, [1, 3])] {
        for member in net.members(class) {
            let held: Vec<u64> = net.nodes[member as usize]
                .app()
                .objects(class)
                .iter()
                .map(|o| o.id().seq)
                .collect();
            assert_eq!(held, seqs, "m{member} {class}");
        }
    }
}

/// (d) A multi-class `read&del` whose first class misses inside a batch
/// walks on alone, one plain gcast per further class, and is answered
/// once.
#[test]
fn a_miss_inside_a_batch_walks_on_alone() {
    let cfg = PasoConfig::builder(3, 1)
        .classifier(ClassifierKind::FirstField(3))
        .adaptive(false)
        .build();
    let mut net = Net::start(cfg);
    // Field 0 open: `sc-list` is every class.
    let sc = SearchCriterion::new(Template::new(vec![
        FieldMatcher::Any,
        FieldMatcher::Exact(Value::Int(7)),
    ]));
    let walk = net.deployment.classifier().sc_list(&sc);
    assert_eq!(walk.len(), 3);
    // One matching object in the walk's last class, one non-matching
    // insert for its first class to share the batch with the `read&del`.
    let in_class = |net: &Net, class: ClassId, seq: u64, n: i64| {
        (0..64)
            .map(|s| {
                PasoObject::new(
                    ObjectId::new(ProcessId(7), seq),
                    vec![Value::Int(s), Value::Int(n)],
                )
            })
            .find(|o| net.class_of(o) == class)
            .expect("some first field hashes into the class")
    };
    let target = in_class(&net, walk[2], 1, 7);
    let filler = in_class(&net, walk[0], 2, 99);
    let seed = requests(&net, vec![insert(target.clone())]);
    net.gateway_sends(0, &AppMsg::ClientBatch(seed));
    net.run_ms(10);
    net.wire.clear();
    net.gateway_frames.clear();

    let reqs = vec![
        ClientRequest {
            op_id: op_id(&net, 10),
            op: take(sc),
        },
        ClientRequest {
            op_id: op_id(&net, 11),
            op: insert(filler),
        },
    ];
    net.gateway_sends(0, &AppMsg::ClientBatch(reqs));
    net.run_ms(10);

    let payloads: Vec<Vec<u8>> = net.gcasts().into_values().collect();
    let batches = payloads.iter().filter(|p| p[0] == ReplBatch::TAG).count();
    assert_eq!((payloads.len(), batches), (3, 1), "one batch, two walk-ons");
    assert_eq!(net.count("op.readdel.gcast"), 3.0);
    let took: Vec<ClientDone> = net
        .answers()
        .into_iter()
        .filter(|d| d.op_id == op_id(&net, 10))
        .collect();
    assert_eq!(
        took,
        vec![ClientDone {
            op_id: op_id(&net, 10),
            result: ClientResult::Found(target)
        }]
    );
}

/// (e) With all of `wg(C)` down every op of the batch is answered
/// `Unavailable`, exactly once.
#[test]
fn a_batch_for_a_dead_group_is_answered_unavailable_once_per_op() {
    let mut net = Net::start(PasoConfig::builder(4, 1).build());
    let class = net.class_of(&job(0, 0));
    let members = net.members(class);
    let outsider = (0..4).find(|m| !members.contains(m)).unwrap();
    for m in &members {
        net.crash(*m);
    }
    let reqs = requests(&net, (0..3).map(|i| insert(job(i, 0))).collect());
    net.gateway_sends(outsider, &AppMsg::ClientBatch(reqs.clone()));
    net.run_ms(10_000);

    let expected: Vec<ClientDone> = reqs
        .iter()
        .map(|r| ClientDone {
            op_id: r.op_id,
            result: ClientResult::Unavailable,
        })
        .collect();
    assert_eq!(net.answers(), expected);
    assert_eq!(net.gateway_frames.len(), 1);
}

/// (f) Marker placements stay fire-and-forget gcasts of their own: two
/// blocked reads admitted by one batch place two plain `PlaceMarker`s.
#[test]
fn marker_placements_are_never_batched() {
    let cfg = PasoConfig::builder(3, 1)
        .blocking(BlockingMode::Markers {
            expiry_micros: 50_000,
        })
        .build();
    let mut net = Net::start(cfg);
    let class = net.class_of(&job(0, 0));
    let blocked = |n| ClientOp::Read {
        sc: sc_job(n),
        blocking: true,
    };
    let reqs = requests(&net, vec![blocked(1), blocked(2)]);
    net.gateway_sends(net.members(class)[0], &AppMsg::ClientBatch(reqs));
    net.run_ms(10);

    let placed: Vec<ReplOp> = net
        .gcasts()
        .values()
        .map(|p| try_decode(p).expect("a plain ReplOp"))
        .collect();
    assert_eq!(placed.len(), 2);
    assert!(placed
        .iter()
        .all(|op| matches!(op, ReplOp::PlaceMarker { .. })));
    assert_eq!(net.count("op.batch.gcasts"), 0.0);
    assert!(net.answers().is_empty(), "both reads still block");
}

/// (f) An op id outside the op-id space (bit 63, where batch tokens and
/// `FIRE_AND_FORGET` live) is refused at admission.
#[test]
fn an_op_id_in_the_batch_token_space_is_dropped_at_admission() {
    let mut net = Net::start(PasoConfig::builder(3, 1).build());
    let class = net.class_of(&job(0, 0));
    for bad in [1 << 63, u64::MAX] {
        let reqs = vec![ClientRequest {
            op_id: bad,
            op: insert(job(0, 0)),
        }];
        net.gateway_sends(net.members(class)[0], &AppMsg::ClientBatch(reqs));
    }
    net.run_ms(10);
    assert_eq!(net.count("wire.decode.error"), 2.0);
    assert!(net.answers().is_empty());
    assert!(net.gcasts().is_empty());
}

/// A response vector shorter than the batch: the ops it does not cover
/// complete as a miss — an insert as `Inserted`, a `read&del` as `Fail` —
/// and each bumps `wire.decode.error`. Nothing panics or indexes out of
/// range.
#[test]
fn a_short_batch_answer_completes_the_tail_as_a_miss() {
    let mut net = Net::start(PasoConfig::builder(4, 1).build());
    let class = net.class_of(&job(0, 0));
    let members = net.members(class);
    let outsider = (0..4).find(|m| !members.contains(m)).unwrap();
    let reqs = requests(
        &net,
        vec![insert(job(1, 5)), take(sc_job(5)), insert(job(2, 5))],
    );
    net.gateway_sends(outsider, &AppMsg::ClientBatch(reqs));
    // Let the request reach the leader and be answered, then cut the
    // answer down to its first element while it is in flight.
    let answer = |hop: &Hop| matches!(hop.2, NetMsg::Vsync(VsyncMsg::GcastResp { .. }));
    while !net.queue.iter().any(answer) {
        step(&mut net);
    }
    for hop in net.queue.iter_mut().filter(|hop| answer(hop)) {
        let NetMsg::Vsync(VsyncMsg::GcastResp { payload, .. }) = &mut hop.2 else {
            unreachable!();
        };
        let mut answers: Vec<OpResponse> = try_decode(payload).unwrap();
        assert_eq!(answers.len(), 3);
        answers.truncate(1);
        *payload = encode(&answers);
    }
    net.run_ms(10);

    let results: Vec<ClientResult> = net.answers().into_iter().map(|d| d.result).collect();
    assert_eq!(
        results,
        vec![
            ClientResult::Inserted,
            ClientResult::Fail,
            ClientResult::Inserted
        ]
    );
    assert_eq!(net.count("wire.decode.error"), 2.0);
}

/// Exactly-once across a leader change: the leader crashes after its
/// fan-out was applied but before it answered. A member that rejoined in
/// between — and, having the lowest id, now leads — received the
/// request's table row (the whole `Vec<OpResponse>`) in its state
/// transfer, and answers the origin's retry from it. No op of the batch
/// is applied a second time anywhere.
#[test]
fn a_batch_is_answered_from_the_transferred_table_after_its_leader_crashes() {
    let mut net = Net::start(PasoConfig::builder(5, 2).adaptive(false).build());
    let (first, second) = (job(1, 9), job(2, 9));
    let class = net.class_of(&first);
    let members = net.members(class);
    let (rejoiner, leader, follower) = (members[0], members[1], members[2]);
    let origin = (0..5).find(|m| !members.contains(m)).unwrap();
    net.crash(rejoiner);
    net.run_ms(10);

    let reqs = requests(
        &net,
        vec![
            insert(first.clone()),
            insert(second.clone()),
            take(sc_job(9)),
        ],
    );
    net.gateway_sends(origin, &AppMsg::ClientBatch(reqs));
    // The leader applies and fans out, the follower applies and
    // acknowledges; that acknowledgement is lost, so nobody answers.
    let ack = |hop: &Hop| matches!(hop.2, NetMsg::Vsync(VsyncMsg::GcastDone { .. }));
    while !net.queue.iter().any(ack) {
        step(&mut net);
    }
    net.queue.retain(|hop| !ack(hop));
    net.settle();
    assert!(net.answers().is_empty());
    for m in [leader, follower] {
        assert_eq!(
            net.nodes[m as usize].app().objects(class),
            std::slice::from_ref(&second)
        );
    }

    net.recover(rejoiner);
    net.run_ms(10);
    assert_eq!(
        net.nodes[rejoiner as usize].app().objects(class),
        std::slice::from_ref(&second),
        "state transfer carried the batch's effect"
    );
    net.crash(leader);
    net.run_ms(100); // the origin's retry finds the group led by the rejoiner

    let results: Vec<ClientResult> = net.answers().into_iter().map(|d| d.result).collect();
    assert_eq!(
        results,
        vec![
            ClientResult::Inserted,
            ClientResult::Inserted,
            ClientResult::Found(first)
        ]
    );
    assert_eq!(net.gateway_frames.len(), 1);
    let answered_by: Vec<u32> = net
        .wire
        .iter()
        .filter(|hop| matches!(hop.2, NetMsg::Vsync(VsyncMsg::GcastResp { .. })))
        .map(|hop| hop.0 .0)
        .collect();
    assert_eq!(answered_by, [rejoiner]);
    for m in [rejoiner, follower] {
        assert_eq!(
            net.nodes[m as usize].app().objects(class),
            std::slice::from_ref(&second),
            "m{m} applied an op of the retried batch again"
        );
    }
}

/// Delivers exactly one queued frame.
fn step(net: &mut Net) {
    let (from, to, msg) = net.queue.pop_front().unwrap();
    assert_ne!(to, net.gateway());
    net.drive(to, NodeEvent::Message { from, msg });
}

/// A stray `DoneBatch` arriving at a server is counted and dropped, like
/// a stray `Done`.
#[test]
fn a_stray_done_batch_at_a_server_is_counted_and_dropped() {
    let mut net = Net::start(PasoConfig::builder(3, 1).build());
    net.wire.clear();
    let done = ClientDone {
        op_id: 1,
        result: ClientResult::Inserted,
    };
    net.gateway_sends(0, &AppMsg::Done(done.clone()));
    net.gateway_sends(0, &AppMsg::DoneBatch(vec![done.clone(), done]));
    net.run_ms(10);
    assert_eq!(net.count("wire.decode.error"), 2.0);
    assert!(net.wire.is_empty());
    assert!(net.answers().is_empty());
}

/// A frame under the retired `AppMsg` tag 4 — the class-summary gossip an
/// older binary still sends, from a server or from a gateway — is a
/// decode error at a server: counted, logged with its sender, and
/// nothing else happens.
#[test]
fn a_frame_under_the_retired_app_tag_is_a_decode_error_at_a_server() {
    let mut net = Net::start(PasoConfig::builder(3, 1).build());
    net.wire.clear();
    let mut expected = net.counts.clone();
    let senders = [NodeId(1), net.gateway()];
    for from in senders {
        let msg = NetMsg::App(vec![4, 0]);
        net.drive(NodeId(0), NodeEvent::Message { from, msg });
    }
    net.settle();
    *expected.entry("wire.decode.error").or_default() += 2.0;
    assert_eq!(net.counts, expected);
    let retired = paso_wire::WireError::InvalidTag {
        ty: "AppMsg",
        tag: 4,
    };
    let logged = net.nodes[0].app().decode_errors();
    assert_eq!(logged, senders.map(|from| (from, retired.clone())));
    assert!(net.wire.is_empty());
    assert!(net.answers().is_empty());
}
