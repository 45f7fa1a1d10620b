//! The PASO memory server (§4.2–§4.3).
//!
//! One [`MemoryServer`] runs on every machine as the [`GroupApp`] layered
//! over virtual synchrony. It:
//!
//! - manages the per-class [`ClassStore`]s for the classes whose write
//!   group it belongs to (`store`/`mem-read`/`remove`, §4.2);
//! - executes the Appendix-A **macro expansions** of `insert`, `read` and
//!   `read&del` for client requests issued by processes on its machine,
//!   including the blocking variants via busy-wait or read-markers (§4.3);
//! - runs the **Basic algorithm** ([`BasicCounter`]) per class to decide
//!   adaptive `g-join`/`g-leave` of write groups (§5.1) — the very same
//!   kernel analyzed in the competitive experiments — at Theorem 3's
//!   doubling/halving `K`, measured in bytes;
//! - serves state snapshots for joining servers and erases state on leave.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use paso_adaptive::{retune_k, Advice, BasicCounter, ModelParams};
use paso_simnet::NodeId;
use paso_storage::{AutoStore, ClassStore, Cost, Rank, Snapshot};
use paso_telemetry::metrics;
use paso_types::{ClassId, Classifier, PasoObject, SearchCriterion};
use paso_vsync::{Delivery, GcastError, GroupApp, GroupId, View, VsyncOps};
use paso_wire::{varint_len, Wire};

use crate::config::{BlockingMode, PasoConfig, ReadMode};
use crate::groups::{group_class, rg_group, wg_group, GroupKind};
use crate::wire::{
    encode, try_decode, AppMsg, ClientDone, ClientOp, ClientRequest, ClientResult, OpResponse,
    ReplBatch, ReplOp,
};

/// Token used for fire-and-forget gcasts (marker placement).
///
/// The gcast token space has three disjoint parts:
///
/// - a gcast carrying **one op** uses the op's id. Op ids keep bit 63
///   clear: in-process ids count up from 0, gateway ids are
///   `(node << 40) | ctr`, both double as app-timer tags (which the vsync
///   layer refuses with the top bit set), and admission drops a request
///   whose id has it set;
/// - a gcast carrying a **batch** uses [`BATCH_TOKEN_BIT`]` | k`, `k`
///   counting up from 0 per incarnation — never `u64::MAX` for any
///   reachable `k`;
/// - `u64::MAX` is this constant.
const FIRE_AND_FORGET: u64 = u64::MAX;

/// Set in the token of every gcast that carries a [`ReplBatch`]; see
/// [`FIRE_AND_FORGET`] for the whole token space.
const BATCH_TOKEN_BIT: u64 = 1 << 63;

/// A read-marker left at a write-group member (§4.3's alternative to
/// busy-waiting).
#[derive(Debug, Clone, PartialEq)]
struct MarkerEntry {
    sc: SearchCriterion,
    origin: NodeId,
    op_id: u64,
    expires_micros: u64,
}

paso_wire::wire_struct!(MarkerEntry {
    sc,
    origin,
    op_id,
    expires_micros
});

/// Serialized write-group state for `g-join` transfer: the class store
/// plus the outstanding markers (a joiner must also notify waiters).
#[derive(Debug)]
struct ClassState {
    store: Vec<u8>,
    markers: Vec<MarkerEntry>,
}

paso_wire::wire_struct!(ClassState { store, markers });

/// The Basic counter of one class at a machine outside `B(C)`, with the
/// join cost of Theorem 3 measured in bytes. The counter's `K` is the
/// working threshold `k_m`: [`PasoConfig::k_join`] until the first
/// measurement, then moved by [`retune_k`] whenever `⌈S/ū⌉` drifts 2×
/// away from it.
#[derive(Debug)]
struct ClassCounter {
    basic: BasicCounter,
    /// S: encoded bytes of the class state last held here — the
    /// `ClassState` installed on joining, then the replica's live size
    /// as of the last update applied.
    state_bytes: u64,
    /// Gcast payload bytes of the updates applied here, and how many:
    /// ū = `update_bytes / updates`.
    update_bytes: u64,
    updates: u64,
}

impl ClassCounter {
    /// `⌈S/ū⌉`, a join's cost in update units; `None` until an update
    /// has been applied here.
    fn join_cost(&self) -> Option<u64> {
        (self.updates > 0).then(|| {
            let cost = (u128::from(self.state_bytes) * u128::from(self.updates))
                .div_ceil(u128::from(self.update_bytes.max(1)));
            u64::try_from(cost).unwrap_or(u64::MAX)
        })
    }

    fn retune(&mut self) {
        if let Some(cost) = self.join_cost() {
            let k_m = self.basic.params().k_join;
            self.basic.set_k(retune_k(k_m, cost));
        }
    }
}

/// What one handler call wants sent, collected while the macro expansions
/// run and shipped by [`MemoryServer::flush`] when the handler returns: at
/// most one gcast per group and one completion frame per gateway, however
/// many ops the call touched. Empty between handler calls.
#[derive(Debug, Default)]
struct Outbox {
    /// Op-token gcasts per group: `(op id, op)` in the order the
    /// expansions asked for them.
    casts: BTreeMap<GroupId, Vec<(u64, ReplOp)>>,
    /// Completions owed, per gateway.
    dones: BTreeMap<NodeId, Vec<ClientDone>>,
}

#[derive(Debug)]
struct PendingOp {
    op: ClientOp,
    /// Who asked: the server itself for locally injected requests, or a
    /// gateway slot (`NodeId ≥ n`) for proxied ones. Completions go back
    /// the way they came — the output channel locally, an
    /// [`AppMsg::Done`] over the wire for gateways.
    origin: NodeId,
    classes: Vec<ClassId>,
    idx: usize,
    start_micros: u64,
    /// A gcast for this op is in flight; wakeups must not re-enter.
    waiting: bool,
    /// The replica an anycast point query is in flight to. The op falls
    /// back to a group cast when that replica declines, crashes, or has
    /// not answered by the backstop timer.
    anycast_to: Option<NodeId>,
    /// The current class attempt must use a group cast (anycast already
    /// failed or was declined).
    force_gcast: bool,
}

/// The per-machine PASO memory server.
#[derive(Debug)]
pub struct MemoryServer {
    id: NodeId,
    cfg: Arc<PasoConfig>,
    classifier: Box<dyn Classifier>,
    /// `B(C)` — identical on every machine.
    basic: BTreeMap<ClassId, Vec<NodeId>>,
    stores: BTreeMap<ClassId, AutoStore>,
    markers: BTreeMap<ClassId, Vec<MarkerEntry>>,
    counters: BTreeMap<ClassId, ClassCounter>,
    pending: BTreeMap<u64, PendingOp>,
    outbox: Outbox,
    /// Batch gcasts in flight: token → the op ids the batch carries, in
    /// batch order (the order of the `Vec<OpResponse>` that answers it).
    batches: BTreeMap<u64, Vec<u64>>,
    next_batch: u64,
    up: BTreeSet<NodeId>,
    /// Logical clock for object age ranks.
    clock: u64,
    /// Round-robin cursor for anycast target selection (load spreading).
    anycast_cursor: u64,
    /// Most recent wire-decode failures (source node + cause), kept for
    /// diagnostics alongside the `wire.decode.error` counter. Bounded so a
    /// babbling peer cannot grow server state.
    decode_errors: Vec<(NodeId, paso_wire::WireError)>,
    /// Results of recently finished client ops, so a retried request
    /// (client re-issued after a timeout, or the network duplicated it)
    /// replays the cached answer instead of executing twice. Op ids are
    /// globally unique and monotone per incarnation (§8's counter-jump
    /// rule keeps them fresh across recoveries), so bounded FIFO history
    /// is safe: a retry either finds its entry or re-executes an op that
    /// never finished — never a *different* op's answer.
    recent_done: BTreeMap<u64, ClientResult>,
    /// FIFO eviction order for [`MemoryServer::recent_done`].
    recent_order: VecDeque<u64>,
    /// Capacity of `recent_done`, derived from the configuration's retry
    /// horizon ([`PasoConfig::dedup_cache_ops`]). A hard constant here
    /// was a correctness bug: a pipelining gateway can hold more ops in
    /// its retry window than any constant, and once a result is evicted
    /// a retry *re-executes* (double-insert) instead of replaying.
    recent_cap: usize,
}

/// How many decode failures [`MemoryServer::decode_errors`] retains.
const DECODE_ERROR_LOG_CAP: usize = 16;

/// How long a [`ReadMode::Anycast`] read waits for its single-member
/// answer before falling back to a full group cast. A backstop for lost
/// messages and for runs without the membership oracle: a crash of the
/// target re-drives the read at once (`on_peer_crashed`).
const ANYCAST_FALLBACK_MICROS: u64 = 100_000;

impl MemoryServer {
    /// Creates the server for machine `id` under a shared configuration
    /// and basic-support table.
    pub fn new(id: NodeId, cfg: Arc<PasoConfig>, basic: BTreeMap<ClassId, Vec<NodeId>>) -> Self {
        let classifier = cfg.classifier.build();
        let recent_cap = cfg.dedup_cache_ops();
        MemoryServer {
            id,
            cfg,
            classifier,
            basic,
            stores: BTreeMap::new(),
            markers: BTreeMap::new(),
            counters: BTreeMap::new(),
            pending: BTreeMap::new(),
            outbox: Outbox::default(),
            batches: BTreeMap::new(),
            next_batch: 0,
            up: BTreeSet::new(),
            clock: 0,
            anycast_cursor: 0,
            decode_errors: Vec::new(),
            recent_done: BTreeMap::new(),
            recent_order: VecDeque::new(),
            recent_cap,
        }
    }

    /// The retained wire-decode failures, newest last: which node sent
    /// undecodable bytes and why they were rejected.
    pub fn decode_errors(&self) -> &[(NodeId, paso_wire::WireError)] {
        &self.decode_errors
    }

    /// Records a decode failure: bumps the `wire.decode.error` counter and
    /// logs the offending source node with the rejection cause.
    fn note_decode_error(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        from: NodeId,
        err: paso_wire::WireError,
    ) {
        vs.count(metrics::WIRE_DECODE_ERROR, 1.0);
        if self.decode_errors.len() == DECODE_ERROR_LOG_CAP {
            self.decode_errors.remove(0);
        }
        self.decode_errors.push((from, err));
    }

    /// Picks a live basic member of `class` for an anycast read, rotating
    /// across calls to spread load.
    fn anycast_target(&mut self, class: ClassId) -> Option<NodeId> {
        let live = |m: &&NodeId| self.up.contains(*m) && **m != self.id;
        let members = self.basic.get(&class)?;
        let count = members.iter().filter(live).count();
        if count == 0 {
            return None;
        }
        let pick = members
            .iter()
            .filter(live)
            .nth((self.anycast_cursor as usize) % count)
            .copied();
        self.anycast_cursor += 1;
        pick
    }

    /// Number of live objects this server holds for `class`.
    pub fn store_len(&self, class: ClassId) -> usize {
        self.stores.get(&class).map_or(0, |s| s.len())
    }

    /// All objects this server holds for `class` (oldest first).
    pub fn objects(&self, class: ClassId) -> Vec<PasoObject> {
        self.stores
            .get(&class)
            .map_or_else(Vec::new, |s| s.objects())
    }

    /// Is this machine part of `B(C)`?
    pub fn is_basic(&self, class: ClassId) -> bool {
        self.basic.get(&class).is_some_and(|m| m.contains(&self.id))
    }

    /// The Basic-algorithm counter value for `class` (experiments observe
    /// adaptation through this).
    pub fn counter_value(&self, class: ClassId) -> Option<u64> {
        self.counters.get(&class).map(|c| c.basic.value())
    }

    /// The join threshold `K` the counter for `class` runs at: the
    /// [`PasoConfig::k_join`] prior until this machine has measured the
    /// class, then Theorem 3's working value `k_m`.
    pub fn counter_k(&self, class: ClassId) -> Option<u64> {
        self.counters.get(&class).map(|c| c.basic.params().k_join)
    }

    /// `⌈S/ū⌉` for `class`: the bytes of the class state this machine last
    /// held over the mean payload of the updates it applied, i.e. what a
    /// join ships in update units. `None` before its first applied update.
    pub fn join_cost(&self, class: ClassId) -> Option<u64> {
        self.counters.get(&class).and_then(ClassCounter::join_cost)
    }

    /// Encoded bytes of the `ClassState` a `g-join` of `class` ships now,
    /// counted without encoding it.
    fn state_len(&self, class: ClassId) -> u64 {
        let store = self.stores.get(&class).map_or(0, |s| s.snapshot_len());
        let markers = self
            .markers
            .get(&class)
            .map_or(varint_len(0), |m| m.encoded_len());
        (varint_len(store as u64) + store + markers) as u64
    }

    fn failed_of(&self, class: ClassId) -> u64 {
        self.basic.get(&class).map_or(0, |m| {
            m.iter().filter(|n| !self.up.contains(n)).count() as u64
        })
    }

    fn counter(&mut self, class: ClassId) -> &mut ClassCounter {
        let params =
            ModelParams::with_query_cost(self.cfg.lambda as u64, self.cfg.k_join, self.cfg.q_cost);
        self.counters.entry(class).or_insert_with(|| ClassCounter {
            basic: BasicCounter::new(params),
            state_bytes: 0,
            update_bytes: 0,
            updates: 0,
        })
    }

    fn read_target(&self, class: ClassId) -> GroupId {
        if self.cfg.use_read_groups {
            rg_group(class)
        } else {
            wg_group(class)
        }
    }

    fn finish(&mut self, vs: &mut dyn VsyncOps<ClientDone>, op_id: u64, result: ClientResult) {
        let origin = self.pending.remove(&op_id).map_or(self.id, |p| p.origin);
        if self.recent_done.insert(op_id, result.clone()).is_none() {
            self.recent_order.push_back(op_id);
            while self.recent_order.len() > self.recent_cap {
                if let Some(old) = self.recent_order.pop_front() {
                    self.recent_done.remove(&old);
                }
            }
        }
        self.answer(vs, origin, ClientDone { op_id, result });
    }

    /// Routes a completion back to whoever injected the request: the
    /// local output channel for in-process clients, the outbox (one
    /// wire-level frame per gateway and handler call) for
    /// gateway-originated ones.
    fn answer(&mut self, vs: &mut dyn VsyncOps<ClientDone>, origin: NodeId, done: ClientDone) {
        if origin == self.id {
            vs.emit(done);
        } else {
            self.outbox.dones.entry(origin).or_default().push(done);
        }
    }

    /// Queues `op` as the gcast pending op `op_id` now waits for.
    fn cast(&mut self, group: GroupId, op_id: u64, op: ReplOp) {
        if let Some(p) = self.pending.get_mut(&op_id) {
            p.waiting = true;
        }
        self.outbox
            .casts
            .entry(group)
            .or_default()
            .push((op_id, op));
    }

    /// Ships the outbox. A group that collected one op is cast as a plain
    /// [`ReplOp`] under the op's id and a gateway owed one completion gets
    /// an [`AppMsg::Done`] — the bytes a server without an outbox sent;
    /// more go as one [`ReplBatch`] under a batch token and one
    /// [`AppMsg::DoneBatch`], in the order the ops were admitted.
    fn flush(&mut self, vs: &mut dyn VsyncOps<ClientDone>) {
        for (group, mut ops) in std::mem::take(&mut self.outbox.casts) {
            if ops.len() == 1 {
                let (op_id, op) = ops.remove(0);
                vs.gcast(group, encode(&op), op_id);
                continue;
            }
            let (op_ids, ops): (Vec<u64>, Vec<ReplOp>) = ops.into_iter().unzip();
            let token = BATCH_TOKEN_BIT | self.next_batch;
            self.next_batch += 1;
            vs.count(metrics::OP_BATCH_GCASTS, 1.0);
            vs.record(metrics::OP_BATCH_OPS, ops.len() as u64);
            self.batches.insert(token, op_ids);
            vs.gcast(group, encode(&ReplBatch(ops)), token);
        }
        for (gateway, mut dones) in std::mem::take(&mut self.outbox.dones) {
            let msg = if dones.len() == 1 {
                AppMsg::Done(dones.remove(0))
            } else {
                AppMsg::DoneBatch(dones)
            };
            vs.send_app(gateway, encode(&msg));
        }
    }

    /// Admits one client request (local or gateway-forwarded): replays a
    /// cached result for retries, otherwise starts the macro expansion.
    fn handle_client(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        from: NodeId,
        req: ClientRequest,
    ) {
        if req.op_id & BATCH_TOKEN_BIT != 0 {
            // Outside the op-id space (see `FIRE_AND_FORGET`): no client
            // of ours mints such an id.
            vs.count(metrics::WIRE_DECODE_ERROR, 1.0);
            return;
        }
        // Retry dedup: a re-issued request must not execute twice
        // (a duplicated Insert would duplicate the object — the
        // store does not key by ObjectId).
        if let Some(result) = self.recent_done.get(&req.op_id) {
            vs.count(metrics::OP_RETRY_REPLAYED, 1.0);
            let result = result.clone();
            let origin = if from.0 as usize >= vs.n() {
                from
            } else {
                self.id
            };
            self.answer(
                vs,
                origin,
                ClientDone {
                    op_id: req.op_id,
                    result,
                },
            );
            return;
        }
        if self.pending.contains_key(&req.op_id) {
            // Still executing; the in-flight expansion will
            // answer when it finishes.
            vs.count(metrics::OP_RETRY_INFLIGHT, 1.0);
            return;
        }
        let classes = match &req.op {
            ClientOp::Insert { object } => vec![self.classifier.classify(object)],
            ClientOp::Read { sc, .. } | ClientOp::ReadDel { sc, .. } => self.classifier.sc_list(sc),
        };
        let origin = if from.0 as usize >= vs.n() {
            from
        } else {
            self.id
        };
        self.pending.insert(
            req.op_id,
            PendingOp {
                op: req.op,
                origin,
                classes,
                idx: 0,
                start_micros: vs.now_micros(),
                waiting: false,
                anycast_to: None,
                force_gcast: false,
            },
        );
        self.drive(vs, req.op_id);
    }

    /// Runs (or resumes) the Appendix-A macro expansion for a pending op.
    fn drive(&mut self, vs: &mut dyn VsyncOps<ClientDone>, op_id: u64) {
        let Some(p) = self.pending.get(&op_id) else {
            return;
        };
        if p.waiting || p.anycast_to.is_some() {
            return;
        }
        match &p.op {
            ClientOp::Insert { object } => {
                // `obj-clss(o)`, computed once at admission.
                let class = p.classes[0];
                // Rank times ride the simulation clock so they (a) order
                // cross-machine inserts by real age and (b) never repeat
                // across crash incarnations of this server.
                self.clock = (self.clock + 1).max(vs.now_micros());
                let rank = Rank::new(self.clock, self.id.0 as u16);
                let op = ReplOp::Store {
                    class,
                    object: object.clone(),
                    rank,
                };
                vs.count(metrics::OP_INSERT_GCAST, 1.0);
                self.cast(wg_group(class), op_id, op);
            }
            ClientOp::Read { sc, .. } => {
                let sc = sc.clone();
                // Walk classes; serve locally where we hold a replica (a
                // member still awaiting its state reads remotely).
                loop {
                    let Some(p) = self.pending.get(&op_id) else {
                        return;
                    };
                    let Some(&class) = p.classes.get(p.idx) else {
                        self.handle_exhausted(vs, op_id);
                        return;
                    };
                    if vs.holds_state(wg_group(class)) {
                        let (found, cost) = self
                            .stores
                            .get(&class)
                            .map_or((None, Cost::ZERO), |s| s.mem_read(&sc));
                        vs.charge_work(cost.0);
                        vs.count(metrics::OP_READ_LOCAL, 1.0);
                        if self.cfg.adaptive && !self.is_basic(class) {
                            self.counter(class).basic.record_local_read();
                        }
                        match found {
                            Some(obj) => {
                                self.finish(vs, op_id, ClientResult::Found(obj));
                                return;
                            }
                            None => {
                                self.pending.get_mut(&op_id).unwrap().idx += 1;
                                continue;
                            }
                        }
                    }
                    // Remote: anycast point-query or group cast.
                    let force = self.pending.get(&op_id).is_some_and(|p| p.force_gcast);
                    if self.cfg.read_mode == ReadMode::Anycast && !force {
                        if let Some(target) = self.anycast_target(class) {
                            let msg = AppMsg::RemoteRead {
                                op_id,
                                class,
                                sc: sc.clone(),
                            };
                            self.pending.get_mut(&op_id).unwrap().anycast_to = Some(target);
                            vs.count(metrics::OP_READ_ANYCAST, 1.0);
                            vs.send_app(target, encode(&msg));
                            // Fall back to a gcast if no answer arrives.
                            vs.set_app_timer(ANYCAST_FALLBACK_MICROS, op_id);
                            return;
                        }
                    }
                    vs.count(metrics::OP_READ_REMOTE, 1.0);
                    self.cast(
                        self.read_target(class),
                        op_id,
                        ReplOp::MemRead { class, sc },
                    );
                    return;
                }
            }
            ClientOp::ReadDel { sc, .. } => {
                let sc = sc.clone();
                let Some(p) = self.pending.get(&op_id) else {
                    return;
                };
                let Some(&class) = p.classes.get(p.idx) else {
                    self.handle_exhausted(vs, op_id);
                    return;
                };
                // "There is no reason to deal with requests locally" —
                // every remove goes through the write group (§4.3).
                vs.count(metrics::OP_READDEL_GCAST, 1.0);
                self.cast(wg_group(class), op_id, ReplOp::Remove { class, sc });
            }
        }
    }

    /// All classes failed: apply blocking semantics or report `fail`.
    fn handle_exhausted(&mut self, vs: &mut dyn VsyncOps<ClientDone>, op_id: u64) {
        let Some(p) = self.pending.get(&op_id) else {
            return;
        };
        let blocking = match &p.op {
            ClientOp::Insert { .. } => false,
            ClientOp::Read { blocking, .. } | ClientOp::ReadDel { blocking, .. } => *blocking,
        };
        if !blocking {
            self.finish(vs, op_id, ClientResult::Fail);
            return;
        }
        let now = vs.now_micros();
        if now >= p.start_micros + self.cfg.blocking_deadline_micros {
            self.finish(vs, op_id, ClientResult::TimedOut);
            return;
        }
        // Re-arm: busy-wait poll, or markers plus a safety re-poll.
        let (interval, place_markers) = match self.cfg.blocking {
            BlockingMode::BusyWait { interval_micros } => (interval_micros, false),
            BlockingMode::Markers { expiry_micros } => (expiry_micros, true),
        };
        if place_markers {
            let (sc, classes) = {
                let p = self.pending.get(&op_id).unwrap();
                let sc = match &p.op {
                    ClientOp::Read { sc, .. } | ClientOp::ReadDel { sc, .. } => sc.clone(),
                    ClientOp::Insert { .. } => unreachable!("inserts never block"),
                };
                (sc, p.classes.clone())
            };
            for class in classes {
                let payload = encode(&ReplOp::PlaceMarker {
                    class,
                    sc: sc.clone(),
                    origin: self.id,
                    op_id,
                    expires_micros: now + interval,
                });
                vs.count(metrics::OP_MARKER_PLACE, 1.0);
                vs.gcast(wg_group(class), payload, FIRE_AND_FORGET);
            }
        }
        self.pending.get_mut(&op_id).unwrap().idx = 0;
        vs.set_app_timer(interval, op_id);
    }

    /// Adaptive bookkeeping when this member applies an update of
    /// `bytes` payload bytes (§5.1, third rule): `S` and `ū` take the
    /// update in and `K` is retuned before the counter decays. Never lets
    /// basic-support machines leave.
    fn record_member_update(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        class: ClassId,
        bytes: u64,
    ) {
        if !self.cfg.adaptive || self.is_basic(class) {
            return;
        }
        if !vs.is_member(wg_group(class)) {
            return;
        }
        let state_bytes = self.state_len(class);
        let counter = self.counter(class);
        counter.state_bytes = state_bytes;
        counter.update_bytes += bytes;
        counter.updates += 1;
        counter.retune();
        let counter = &mut counter.basic;
        if !counter.is_member() {
            counter.set_member(true);
        }
        if counter.record_update() == Advice::Leave {
            vs.count(metrics::ADAPTIVE_LEAVE, 1.0);
            vs.leave(wg_group(class));
        }
    }

    /// Adaptive bookkeeping when a read completed remotely (§5.1, second
    /// rule). The `failed` count was piggybacked on the response.
    fn record_remote_read(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        class: ClassId,
        failed: u64,
    ) {
        if !self.cfg.adaptive || self.is_basic(class) || vs.is_member(wg_group(class)) {
            return;
        }
        let counter = &mut self.counter(class).basic;
        if counter.is_member() {
            // A join is already in flight; don't double-count.
            return;
        }
        if counter.record_remote_read(failed) == Advice::Join {
            vs.count(metrics::ADAPTIVE_JOIN, 1.0);
            vs.join(wg_group(class));
        }
    }

    /// Applies one replicated op to this member's state: the per-op body
    /// of [`GroupApp::deliver`], shared by plain and batch payloads.
    /// `bytes` is the op's share of the gcast payload. Returns the op's
    /// response and its local work.
    fn apply(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        group: GroupId,
        op: ReplOp,
        bytes: u64,
    ) -> (OpResponse, u64) {
        match op {
            ReplOp::Store {
                class,
                object,
                rank,
            } => {
                debug_assert_eq!(class, group_class(group).0);
                let store = self
                    .stores
                    .entry(class)
                    .or_insert_with(|| AutoStore::for_kind(self.cfg.default_store));
                let cost = store.store_ranked(object.clone(), rank);
                // Fire read-markers matching the new object.
                let now = vs.now_micros();
                if let Some(ms) = self.markers.get_mut(&class) {
                    let mut fired = Vec::new();
                    ms.retain(|m| {
                        if m.expires_micros < now {
                            return false;
                        }
                        if m.sc.matches(&object) {
                            fired.push((m.origin, m.op_id));
                            return false;
                        }
                        true
                    });
                    for (origin, op_id) in fired {
                        vs.send_app(origin, encode(&AppMsg::MarkerWake { op_id }));
                    }
                }
                self.record_member_update(vs, class, bytes);
                let failed = self.failed_of(class);
                (
                    OpResponse {
                        object: None,
                        failed,
                    },
                    cost.0,
                )
            }
            ReplOp::MemRead { class, sc } => {
                let (found, cost) = self
                    .stores
                    .get(&class)
                    .map_or((None, Cost::ZERO), |s| s.mem_read(&sc));
                let failed = self.failed_of(class);
                (
                    OpResponse {
                        object: found,
                        failed,
                    },
                    cost.0,
                )
            }
            ReplOp::Remove { class, sc } => {
                let (removed, cost) = self
                    .stores
                    .get_mut(&class)
                    .map(|s| s.remove(&sc))
                    .unwrap_or((None, Cost::ZERO));
                self.record_member_update(vs, class, bytes);
                let failed = self.failed_of(class);
                (
                    OpResponse {
                        object: removed,
                        failed,
                    },
                    cost.0,
                )
            }
            ReplOp::PlaceMarker {
                class,
                sc,
                origin,
                op_id,
                expires_micros,
            } => {
                let now = vs.now_micros();
                let ms = self.markers.entry(class).or_default();
                ms.retain(|m| m.expires_micros >= now);
                // Fire immediately if a match is already present (insert
                // raced the marker placement).
                let already = self.stores.get(&class).and_then(|s| s.mem_read(&sc).0);
                if already.is_some() {
                    vs.send_app(origin, encode(&AppMsg::MarkerWake { op_id }));
                } else {
                    ms.push(MarkerEntry {
                        sc,
                        origin,
                        op_id,
                        expires_micros,
                    });
                }
                let failed = self.failed_of(class);
                (
                    OpResponse {
                        object: None,
                        failed,
                    },
                    1,
                )
            }
        }
    }

    /// Stands in for a gcast answer that is absent or fails to decode:
    /// counted like any other corrupt payload, and the op walks on as a
    /// miss.
    fn missing_answer(vs: &mut dyn VsyncOps<ClientDone>) -> OpResponse {
        vs.count(metrics::WIRE_DECODE_ERROR, 1.0);
        OpResponse {
            object: None,
            failed: 0,
        }
    }

    /// Resumes pending op `op_id` with the answer to its gcast: the
    /// per-op body of [`GroupApp::on_gcast_complete`], shared by plain
    /// and batch completions.
    fn complete_one(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        op_id: u64,
        response: Result<OpResponse, GcastError>,
    ) {
        let Some(p) = self.pending.get_mut(&op_id) else {
            return;
        };
        p.waiting = false;
        let class = p.classes.get(p.idx).copied();
        let resp = match response {
            Ok(resp) => resp,
            Err(GcastError::Unavailable) => {
                self.finish(vs, op_id, ClientResult::Unavailable);
                return;
            }
        };
        if matches!(p.op, ClientOp::Insert { .. }) {
            self.finish(vs, op_id, ClientResult::Inserted);
            return;
        }
        if matches!(p.op, ClientOp::Read { .. }) {
            if let Some(c) = class {
                self.record_remote_read(vs, c, resp.failed);
            }
        }
        match resp.object {
            Some(obj) => self.finish(vs, op_id, ClientResult::Found(obj)),
            None => {
                if let Some(p) = self.pending.get_mut(&op_id) {
                    p.idx += 1;
                    p.force_gcast = false;
                }
                self.drive(vs, op_id);
            }
        }
    }

    fn handle_app_message(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        from: NodeId,
        bytes: &[u8],
    ) {
        match try_decode::<AppMsg>(bytes) {
            Ok(AppMsg::Client(req)) => self.handle_client(vs, from, req),
            Ok(AppMsg::ClientBatch(reqs)) => {
                for req in reqs {
                    self.handle_client(vs, from, req);
                }
            }
            Ok(AppMsg::Done(_) | AppMsg::DoneBatch(_)) => {
                // Completions address gateways, never servers; a stray
                // one (e.g. a gateway slot reused as a server id by a
                // misconfigured peer) is dropped loudly.
                vs.count(metrics::WIRE_DECODE_ERROR, 1.0);
            }
            Ok(AppMsg::MarkerWake { op_id }) => {
                if let Some(p) = self.pending.get_mut(&op_id) {
                    if p.anycast_to.is_some() {
                        // Let the in-flight point query conclude.
                        return;
                    }
                    p.idx = 0;
                    vs.count(metrics::OP_MARKER_WAKE, 1.0);
                    self.drive(vs, op_id);
                }
            }
            Ok(AppMsg::RemoteRead { op_id, class, sc }) => {
                // Serve the point query iff we are a member holding the
                // class's state. A member still awaiting its join's
                // transfer has an empty store, so it declines and the
                // origin falls back to the group.
                let served = vs.holds_state(wg_group(class));
                let (found, cost) = if served {
                    self.stores
                        .get(&class)
                        .map_or((None, Cost::ZERO), |s| s.mem_read(&sc))
                } else {
                    (None, Cost::ZERO)
                };
                vs.charge_work(cost.0);
                let failed = self.failed_of(class);
                vs.send_app(
                    from,
                    encode(&AppMsg::RemoteReadResp {
                        op_id,
                        served,
                        found,
                        failed,
                    }),
                );
            }
            Ok(AppMsg::RemoteReadResp {
                op_id,
                served,
                found,
                failed,
            }) => {
                let Some(p) = self.pending.get_mut(&op_id) else {
                    return;
                };
                if p.anycast_to != Some(from) {
                    return; // stale answer (we already fell back)
                }
                p.anycast_to = None;
                let class = p.classes.get(p.idx).copied();
                if !served {
                    // Target was not authoritative: group-cast this class.
                    vs.count(metrics::OP_READ_ANYCAST_DECLINED, 1.0);
                    p.force_gcast = true;
                    self.drive(vs, op_id);
                    return;
                }
                match found {
                    Some(obj) => {
                        if let Some(c) = class {
                            self.record_remote_read(vs, c, failed);
                        }
                        self.finish(vs, op_id, ClientResult::Found(obj));
                    }
                    None => {
                        if let Some(c) = class {
                            self.record_remote_read(vs, c, failed);
                        }
                        if let Some(p) = self.pending.get_mut(&op_id) {
                            p.idx += 1;
                            p.force_gcast = false;
                        }
                        self.drive(vs, op_id);
                    }
                }
            }
            Err(err) => self.note_decode_error(vs, from, err),
        }
    }

    fn handle_timer(&mut self, vs: &mut dyn VsyncOps<ClientDone>, tag: u64) {
        let Some(p) = self.pending.get_mut(&tag) else {
            return;
        };
        if p.anycast_to.is_some() {
            // Anycast answer never came (a lost message, or a crash the
            // oracle did not report): retry the same class with a group
            // cast.
            p.anycast_to = None;
            p.force_gcast = true;
            self.drive(vs, tag);
            return;
        }
        // Blocking-op re-poll. Non-blocking ops can also see stale timers
        // here (an anycast fallback that was answered in time); restarting
        // the class walk for those would only duplicate work.
        let blocking = match &p.op {
            ClientOp::Read { blocking, .. } | ClientOp::ReadDel { blocking, .. } => *blocking,
            ClientOp::Insert { .. } => false,
        };
        if blocking {
            p.idx = 0;
            p.force_gcast = false;
            self.drive(vs, tag);
        }
    }
}

impl GroupApp for MemoryServer {
    type Output = ClientDone;

    fn on_start(&mut self, vs: &mut dyn VsyncOps<ClientDone>) {
        self.up = (0..vs.n() as u32).map(NodeId).collect();
    }

    fn on_recovered(&mut self, vs: &mut dyn VsyncOps<ClientDone>) {
        self.up = (0..vs.n() as u32).map(NodeId).collect();
        // §4.2: "when a machine is restarted, the memory server residing
        // on it should determine which groups it belongs to, and, one by
        // one, g-join these groups." The write group comes first; the
        // read group is joined only once the write-group state transfer
        // has installed (see `on_view`) — otherwise this server could
        // become the read group's leader and answer queries from an
        // empty store.
        let mine: Vec<ClassId> = self
            .basic
            .iter()
            .filter(|(_, m)| m.contains(&self.id))
            .map(|(c, _)| *c)
            .collect();
        for class in mine {
            vs.join(wg_group(class));
        }
    }

    fn on_peer_crashed(&mut self, vs: &mut dyn VsyncOps<ClientDone>, peer: NodeId) {
        self.up.remove(&peer);
        // A point read in flight to the crashed replica will get no
        // answer: fall back to the group now, not at the backstop timer.
        let stranded: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.anycast_to == Some(peer))
            .map(|(op_id, _)| *op_id)
            .collect();
        for op_id in stranded {
            if let Some(p) = self.pending.get_mut(&op_id) {
                p.anycast_to = None;
                p.force_gcast = true;
            }
            self.drive(vs, op_id);
        }
        self.flush(vs);
    }

    fn on_peer_recovered(&mut self, _vs: &mut dyn VsyncOps<ClientDone>, peer: NodeId) {
        self.up.insert(peer);
    }

    fn on_app_message(&mut self, vs: &mut dyn VsyncOps<ClientDone>, from: NodeId, bytes: &[u8]) {
        self.handle_app_message(vs, from, bytes);
        self.flush(vs);
    }

    fn on_timer(&mut self, vs: &mut dyn VsyncOps<ClientDone>, tag: u64) {
        self.handle_timer(vs, tag);
        self.flush(vs);
    }

    fn deliver(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        group: GroupId,
        origin: NodeId,
        payload: &[u8],
    ) -> Delivery {
        // One op or a batch of them; a batch is applied in batch order at
        // every member and answered op for op.
        let applied = if payload.first() == Some(&ReplBatch::TAG) {
            try_decode::<ReplBatch>(payload).map(|ReplBatch(ops)| {
                let mut work = 0;
                let share = (payload.len() / ops.len().max(1)) as u64;
                let responses: Vec<OpResponse> = ops
                    .into_iter()
                    .map(|op| {
                        let (response, cost) = self.apply(vs, group, op, share);
                        work += cost;
                        response
                    })
                    .collect();
                Delivery {
                    response: encode(&responses),
                    work,
                }
            })
        } else {
            try_decode::<ReplOp>(payload).map(|op| {
                let (response, work) = self.apply(vs, group, op, payload.len() as u64);
                Delivery {
                    response: encode(&response),
                    work,
                }
            })
        };
        applied.unwrap_or_else(|err| {
            self.note_decode_error(vs, origin, err);
            Delivery::default()
        })
    }

    fn on_gcast_complete(
        &mut self,
        vs: &mut dyn VsyncOps<ClientDone>,
        token: u64,
        result: Result<Vec<u8>, GcastError>,
    ) {
        if token == FIRE_AND_FORGET {
            return;
        }
        if token & BATCH_TOKEN_BIT == 0 {
            let response =
                result.map(|bytes| try_decode(&bytes).unwrap_or_else(|_| Self::missing_answer(vs)));
            self.complete_one(vs, token, response);
        } else if let Some(op_ids) = self.batches.remove(&token) {
            // Answers come in batch order; an undecodable vector answers
            // nothing, a short one leaves its tail unanswered.
            let mut responses = result.map(|bytes| {
                try_decode::<Vec<OpResponse>>(&bytes)
                    .unwrap_or_default()
                    .into_iter()
            });
            for op_id in op_ids {
                let response = match &mut responses {
                    Ok(rs) => Ok(rs.next().unwrap_or_else(|| Self::missing_answer(vs))),
                    Err(err) => Err(*err),
                };
                self.complete_one(vs, op_id, response);
            }
        }
        self.flush(vs);
    }

    fn snapshot(&self, group: GroupId) -> Vec<u8> {
        let (class, kind) = group_class(group);
        match kind {
            GroupKind::Write => {
                let store_bytes = self
                    .stores
                    .get(&class)
                    .map(|s| s.snapshot().as_bytes().to_vec())
                    .unwrap_or_default();
                encode(&ClassState {
                    store: store_bytes,
                    markers: self.markers.get(&class).cloned().unwrap_or_default(),
                })
            }
            GroupKind::Read => Vec::new(),
        }
    }

    fn install(&mut self, vs: &mut dyn VsyncOps<ClientDone>, group: GroupId, state: &[u8]) {
        let (class, kind) = group_class(group);
        if kind != GroupKind::Write {
            return;
        }
        let cs = match try_decode::<ClassState>(state) {
            Ok(cs) => cs,
            Err(err) => {
                // State transfer arrives via the membership layer, not a
                // peer message; attribute it to ourselves.
                let me = self.id;
                self.note_decode_error(vs, me, err);
                return;
            }
        };
        let mut store = AutoStore::for_kind(self.cfg.default_store);
        if !cs.store.is_empty() {
            let _ = store.restore(&Snapshot::from_bytes(cs.store));
        }
        self.stores.insert(class, store);
        self.markers.insert(class, cs.markers);
        if self.cfg.adaptive && !self.is_basic(class) {
            let counter = self.counter(class);
            counter.state_bytes = state.len() as u64;
            counter.retune();
        }
    }

    fn erase(&mut self, group: GroupId) {
        let (class, kind) = group_class(group);
        if kind != GroupKind::Write {
            return;
        }
        self.stores.remove(&class);
        self.markers.remove(&class);
        if let Some(c) = self.counters.get_mut(&class) {
            c.basic.set_member(false);
        }
    }

    fn on_view(&mut self, vs: &mut dyn VsyncOps<ClientDone>, group: GroupId, view: &View) {
        vs.trace(paso_telemetry::TraceKind::ViewChange {
            group: group.0,
            view: view.id().0,
            members: view.members().count() as u32,
        });
        let (class, kind) = group_class(group);
        if kind != GroupKind::Write {
            return;
        }
        let member = view.contains(self.id);
        if self.cfg.adaptive && !self.is_basic(class) {
            self.counter(class).basic.set_member(member);
        }
        // Basic members re-enter the read group only once their write-
        // group state is installed, so rg answers are never served from a
        // blank store. A member awaiting a lost transfer still sees view
        // changes; it must not join on those.
        let installed = member && vs.holds_state(group);
        if installed && self.is_basic(class) && !vs.is_member(rg_group(class)) {
            vs.join(rg_group(class));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paso_types::{Template, Value};
    use paso_wire::{decode_exact, encode_to_vec, Wire};

    /// Write-group join state crosses the wire inside vsync snapshots, so
    /// its layout is pinned like a message's.
    #[test]
    fn class_state_bytes_are_pinned() {
        let state = ClassState {
            store: vec![1, 2, 3],
            markers: vec![MarkerEntry {
                sc: SearchCriterion::from(Template::exact(vec![Value::Int(5)])),
                origin: NodeId(3),
                op_id: 300,
                expires_micros: 1_000_000,
            }],
        };
        let bytes = encode_to_vec(&state);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "03010203010102000a03ac02c0843d");
        assert_eq!(state.encoded_len(), bytes.len());
        let back: ClassState = decode_exact(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes);
    }

    /// `S` is counted, not encoded: it must equal the `ClassState` bytes a
    /// join of the class would ship, store and markers included.
    #[test]
    fn state_len_is_the_join_transfer_byte_count() {
        let cfg = Arc::new(PasoConfig::builder(4, 1).build());
        let mut server = MemoryServer::new(NodeId(0), cfg, BTreeMap::new());
        let class = ClassId(2);
        let shipped = |s: &MemoryServer| s.snapshot(wg_group(class)).len() as u64;
        assert_eq!(server.state_len(class), shipped(&server), "no store yet");
        let mut store = AutoStore::default();
        for n in 0..300 {
            let fields = vec![Value::symbol("task"), Value::Int(n * 977)];
            store.store(PasoObject::new(
                paso_types::ObjectId::new(paso_types::ProcessId(1), n as u64),
                fields,
            ));
        }
        server.stores.insert(class, store);
        assert_eq!(server.state_len(class), shipped(&server));
        server.markers.insert(
            class,
            vec![MarkerEntry {
                sc: SearchCriterion::from(Template::exact(vec![Value::Int(5)])),
                origin: NodeId(3),
                op_id: 300,
                expires_micros: 1_000_000,
            }],
        );
        assert_eq!(server.state_len(class), shipped(&server));
    }
}
