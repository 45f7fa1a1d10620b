//! The virtual-synchrony protocol node.
//!
//! Design (and how it maps to §3.2–§3.3 of the paper):
//!
//! - **Total order**: every gcast is routed through the group's *leader*
//!   (lowest-id member), which fans it out to all members. The leader's
//!   fan-out order is the group's delivery order. On the simulated bus the
//!   fan-out is atomic (consecutive bus slots), so all members observe the
//!   same global order; on the threaded runtime, per-link FIFO channels
//!   from the leader give the same per-group guarantee.
//! - **Done-collection**: each member sends an *empty* `GcastDone` to the
//!   leader after processing; once every member of the fan-out view has
//!   acknowledged, the leader sends the *single* response to the origin —
//!   exactly the §3.3 accounting `|g|(α+β|msg|) + |g|α + α+β|resp|`.
//! - **Membership**: views change by leader-broadcast `NewView` (joins and
//!   leaves) and by the membership oracle (crashes) — every surviving node
//!   prunes crashed peers deterministically in the same order, so views
//!   stay consistent without an explicit flush round.
//! - **State transfer**: the leader admits a joiner by broadcasting the new
//!   view and immediately snapshotting its own state (which, because the
//!   leader is also the sequencer, is exactly the state after all gcasts
//!   ordered before the view change). The joiner buffers fan-outs that
//!   arrive before the snapshot and replays them after installing it, so —
//!   unlike the paper's conservative design — the group never blocks.
//! - **Fault recovery**: origins retry unanswered gcasts to the current
//!   leader with exponential patience; members deduplicate by request id
//!   and re-acknowledge, and every member keeps its own response so that
//!   *any* member that becomes leader can answer a retried request
//!   ("all responses are equal", §3.2).
//! - **Bounded memory**: every gcast carries its origin's *acknowledged
//!   floor* — the lowest request the origin still waits for. On delivery a
//!   member forgets that origin's entries below the floor and from then on
//!   drops any gcast below it: the origin has the answer and will never
//!   retry, so the dedup/response table (and with it state transfer and
//!   WAL snapshots) holds requests in flight, not history.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

use paso_durable::WalHandle;
use paso_simnet::{Actor, Context, NodeEvent, NodeId, SimTime};
use paso_telemetry::{metrics, CounterId, HistId};
use paso_wire::{Frame, Wire};
use rand::RngCore;

use crate::app::{Delivery, GcastError, GroupApp, VsyncOps};
use crate::group::{GroupId, View, ViewId};
use crate::msg::{LogEntry, NetMsg, ReqId, VsyncMsg};

/// Timer tags with this bit set belong to the vsync layer.
const VSYNC_TAG_BIT: u64 = 1 << 63;

/// Configuration of the vsync layer.
#[derive(Debug, Clone)]
pub struct VsyncConfig {
    /// How long an origin waits for a gcast response before retrying.
    pub retry_timeout: SimTime,
    /// How many retries before a gcast fails with
    /// [`GcastError::Unavailable`].
    pub max_retries: u32,
    /// Statically known initial membership per group (the paper's basic
    /// support `B(C)`; every node is configured with the same table).
    pub initial_groups: Vec<(GroupId, Vec<NodeId>)>,
    /// How many recent deliveries each member keeps for incremental
    /// (delta) state transfer. A rejoiner whose durable watermark fell
    /// further behind than this horizon gets a full transfer instead.
    pub log_horizon: usize,
}

impl Default for VsyncConfig {
    fn default() -> Self {
        VsyncConfig {
            retry_timeout: SimTime::from_millis(50),
            max_retries: 40,
            initial_groups: Vec::new(),
            log_horizon: 512,
        }
    }
}

/// Serialized join-time state: the application snapshot plus the vsync
/// dedup/response table and floors, so a joiner that later becomes leader
/// can answer retried requests and never re-applies a delivery.
#[derive(Debug)]
struct GroupSnapshot {
    table: BTreeMap<ReqId, Vec<u8>>,
    floors: BTreeMap<NodeId, u64>,
    app: Vec<u8>,
    /// History-lineage id of the donor's group incarnation.
    epoch: u64,
    /// Leader-order sequence the snapshot reflects (deliveries `1..=seq`).
    seq: u64,
    /// The request applied at `seq` (divergence guard for delta rejoins).
    last_req: ReqId,
}

paso_wire::wire_struct!(GroupSnapshot {
    table,
    floors,
    app,
    epoch,
    seq,
    last_req
});

/// A state transfer received before this node's admitting view.
#[derive(Debug)]
enum PendingXfer {
    /// Full snapshot bytes ([`VsyncMsg::StateXfer`]).
    Full(Vec<u8>),
    /// Incremental transfer ([`VsyncMsg::StateXferDelta`]).
    Delta {
        epoch: u64,
        from_seq: u64,
        entries: Vec<LogEntry>,
    },
}

#[derive(Debug)]
struct GroupState {
    view: View,
    member: bool,
    joining: bool,
    leaving: bool,
    awaiting_state: bool,
    /// A probe round is in flight (joiner looking for any live member).
    probing: bool,
    /// Responders that granted this node the right to re-form the group.
    probe_grants: BTreeSet<NodeId>,
    /// Responder side: formation grant handed out `(joiner, expires_µs)`.
    form_grant: Option<(NodeId, u64)>,
    /// A probe denial revealed a smaller-id prober holding grants: skip
    /// the next re-probe (pause past the grant window) so our own split
    /// claims lapse and the priority prober can reach unanimity.
    probe_backoff: bool,
    pending_state: Option<PendingXfer>,
    /// Fan-outs buffered while awaiting the join snapshot:
    /// `(leader, req, origin's floor, seq, payload)`.
    buffer: Vec<(NodeId, ReqId, u64, u64, Frame)>,
    /// The dedup/response table: this member's own response per delivered
    /// request at or above its origin's floor. Ordered by `(origin, seq)`,
    /// so a floor advance is one range removal.
    table: BTreeMap<ReqId, Vec<u8>>,
    /// Acknowledged floor per origin (absent = 0): requests below it have
    /// completed at the origin, are gone from `table`, and are dropped on
    /// arrival. May lag after a WAL replay or delta install (those carry
    /// no floors); the origin's next delivery catches it up.
    floors: BTreeMap<NodeId, u64>,
    /// History-lineage id: fresh formations pick a new one, state
    /// transfers adopt the donor's, 0 = not part of any lineage. A delta
    /// rejoin is only legal within one epoch.
    epoch: u64,
    /// Highest leader-order sequence applied at this member.
    applied_seq: u64,
    /// Leader side: next sequence to stamp on a fan-out.
    next_seq: u64,
    /// The request applied at `applied_seq` (divergence guard).
    last_req: ReqId,
    /// Recent applied deliveries `(seq, req, payload)`, ascending — the
    /// donor side of delta state transfer. Bounded by `cfg.log_horizon`.
    delivery_log: VecDeque<(u64, ReqId, Frame)>,
    /// Does `delivery_log` reach back to the epoch's first delivery?
    /// (Falsified when the horizon drops an entry or a full snapshot is
    /// installed mid-history.)
    log_complete: bool,
    /// When the current join attempt started (for `join.latency_micros`).
    join_started: Option<u64>,
}

impl Default for GroupState {
    fn default() -> Self {
        GroupState {
            view: View::default(),
            member: false,
            joining: false,
            leaving: false,
            awaiting_state: false,
            probing: false,
            probe_grants: BTreeSet::new(),
            form_grant: None,
            probe_backoff: false,
            pending_state: None,
            buffer: Vec::new(),
            table: BTreeMap::new(),
            floors: BTreeMap::new(),
            epoch: 0,
            applied_seq: 0,
            next_seq: 1,
            last_req: ReqId::default(),
            delivery_log: VecDeque::new(),
            log_complete: true,
            join_started: None,
        }
    }
}

impl GroupState {
    /// Has `req`'s origin vouched it complete (below the floor)?
    fn is_stale(&self, req: ReqId) -> bool {
        self.floors.get(&req.origin).is_some_and(|f| req.seq < *f)
    }

    /// A member whose join's state transfer has installed.
    fn holds_state(&self) -> bool {
        self.member && !self.awaiting_state
    }
}

/// Removes every key of `map` inside `range`; costs one lookup per key
/// removed (a floor advance usually removes exactly one).
fn remove_range<K: Ord + Copy, V>(map: &mut BTreeMap<K, V>, range: Range<K>) {
    while let Some((&k, _)) = map.range(range.clone()).next() {
        map.remove(&k);
    }
}

#[derive(Debug)]
struct Pending {
    group: GroupId,
    /// Shared encoded payload: retries and fan-outs clone the refcount,
    /// never the bytes.
    payload: Frame,
    token: u64,
    retries: u32,
    /// Id of the armed `RetryGcast` timer, cancelled when the request
    /// completes.
    timer: u64,
    /// Contacts already tried (and nacked) for this request; rotated
    /// through so the origin eventually reaches a real member even when
    /// its cached view is stale.
    tried: BTreeSet<NodeId>,
}

#[derive(Debug)]
struct Tally {
    origin: NodeId,
    /// Members that must acknowledge: the fan-out view, pruned on crashes.
    expected: BTreeSet<NodeId>,
    got: BTreeSet<NodeId>,
    responded: bool,
}

#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)]
enum TimerPurpose {
    RetryGcast(ReqId),
    RetryJoin(GroupId),
    RetryLeave(GroupId),
}

#[derive(Debug)]
struct Core {
    id: NodeId,
    cfg: VsyncConfig,
    up: BTreeSet<NodeId>,
    groups: BTreeMap<GroupId, GroupState>,
    next_req: u64,
    pending: BTreeMap<ReqId, Pending>,
    tallies: BTreeMap<(GroupId, ReqId), Tally>,
    timers: BTreeMap<u64, TimerPurpose>,
    next_timer: u64,
}

impl Core {
    fn new(id: NodeId, cfg: VsyncConfig) -> Self {
        Core {
            id,
            cfg,
            up: BTreeSet::new(),
            groups: BTreeMap::new(),
            next_req: 0,
            pending: BTreeMap::new(),
            tallies: BTreeMap::new(),
            timers: BTreeMap::new(),
            next_timer: 0,
        }
    }

    fn group(&mut self, g: GroupId) -> &mut GroupState {
        self.groups.entry(g).or_default()
    }

    fn initial_members(&self, g: GroupId) -> Vec<NodeId> {
        self.cfg
            .initial_groups
            .iter()
            .find(|(gid, _)| *gid == g)
            .map(|(_, m)| m.clone())
            .unwrap_or_default()
    }

    /// Best node to contact for `g`, skipping `tried`: a live member of
    /// the cached view, else a live configured basic member, else the
    /// lowest untried live node. Rotating through `tried` guarantees the
    /// origin eventually reaches a real member even from a stale cache.
    fn contact(&self, g: GroupId, tried: &BTreeSet<NodeId>) -> Option<NodeId> {
        let ok = |m: &NodeId| self.up.contains(m) && !tried.contains(m) && *m != self.id;
        if let Some(gs) = self.groups.get(&g) {
            if let Some(m) = gs
                .view
                .members()
                .find(|m| ok(m) || (*m == self.id && !tried.contains(m)))
            {
                return Some(m);
            }
        }
        if let Some(m) = self.initial_members(g).into_iter().filter(ok).min() {
            return Some(m);
        }
        self.up.iter().copied().find(ok)
    }

    fn is_leader(&self, g: GroupId) -> bool {
        self.groups
            .get(&g)
            .is_some_and(|gs| gs.member && gs.view.leader() == Some(self.id))
    }

    /// This node's durable watermark for `g`, advertised in join requests
    /// so the donor can ship a delta: `(epoch, applied_seq, last_req)`.
    fn watermark(&self, g: GroupId) -> (u64, u64, ReqId) {
        self.groups
            .get(&g)
            .map(|gs| (gs.epoch, gs.applied_seq, gs.last_req))
            .unwrap_or((0, 0, ReqId::default()))
    }

    /// Raises `origin`'s acknowledged floor in `group` and forgets the
    /// table entries and tallies below it.
    fn raise_floor(&mut self, group: GroupId, origin: NodeId, floor: u64) {
        let gs = self.groups.entry(group).or_default();
        if floor <= gs.floors.get(&origin).copied().unwrap_or(0) {
            return;
        }
        gs.floors.insert(origin, floor);
        let (lo, hi) = (ReqId { origin, seq: 0 }, ReqId { origin, seq: floor });
        remove_range(&mut gs.table, lo..hi);
        remove_range(&mut self.tallies, (group, lo)..(group, hi));
    }

    /// Sets a vsync timer and returns its id.
    fn arm_timer<O>(
        &mut self,
        ctx: &mut Context<'_, NetMsg, O>,
        delay: SimTime,
        purpose: TimerPurpose,
    ) -> u64 {
        let id = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(id, purpose);
        ctx.set_timer(delay, VSYNC_TAG_BIT | id);
        id
    }

    /// Arms `req`'s `RetryGcast` timer and notes its id on the pending
    /// request, so completing the request can cancel it.
    fn arm_gcast_retry<O>(&mut self, ctx: &mut Context<'_, NetMsg, O>, req: ReqId) {
        let timeout = self.cfg.retry_timeout;
        let timer = self.arm_timer(ctx, timeout, TimerPurpose::RetryGcast(req));
        if let Some(p) = self.pending.get_mut(&req) {
            p.timer = timer;
        }
    }
}

/// The vsync layer wrapped around a [`GroupApp`], pluggable into both the
/// simulator (as a [`paso_simnet::Actor`]) and the live runtime.
#[derive(Debug)]
pub struct VsyncNode<A: GroupApp> {
    app: A,
    core: Core,
    /// Write-ahead log surviving actor crashes (None = durability off).
    wal: Option<WalHandle>,
    /// True while replaying the WAL into the app — suppresses re-appends.
    wal_mute: bool,
}

/// `VsyncOps` implementation handed to app callbacks.
struct Ops<'a, 'b, O> {
    core: &'a mut Core,
    ctx: &'a mut Context<'b, NetMsg, O>,
}

impl<O> VsyncOps<O> for Ops<'_, '_, O> {
    fn id(&self) -> NodeId {
        self.core.id
    }

    fn n(&self) -> usize {
        self.ctx.n()
    }

    fn now_micros(&self) -> u64 {
        self.ctx.now().as_micros()
    }

    fn gcast(&mut self, group: GroupId, payload: Vec<u8>, token: u64) {
        // Convert to a shared frame exactly once; every retry and every
        // per-member fan-out copy below reuses this buffer.
        let payload = Frame::from(payload);
        let req = ReqId {
            origin: self.core.id,
            seq: self.core.next_req,
        };
        self.core.next_req += 1;
        self.core.pending.insert(
            req,
            Pending {
                group,
                payload: payload.clone(),
                token,
                retries: 0,
                timer: 0, // set once armed, below
                tried: BTreeSet::new(),
            },
        );
        send_gcast_attempt(self.core, self.ctx, group, req, payload);
        self.core.arm_gcast_retry(self.ctx, req);
    }

    fn join(&mut self, group: GroupId) {
        start_join(self.core, self.ctx, group);
    }

    fn leave(&mut self, group: GroupId) {
        start_leave(self.core, self.ctx, group);
    }

    fn is_member(&self, group: GroupId) -> bool {
        self.core.groups.get(&group).is_some_and(|g| g.member)
    }

    fn holds_state(&self, group: GroupId) -> bool {
        self.core
            .groups
            .get(&group)
            .is_some_and(GroupState::holds_state)
    }

    fn view(&self, group: GroupId) -> Option<View> {
        self.core.groups.get(&group).map(|g| g.view.clone())
    }

    fn send_app(&mut self, to: NodeId, bytes: Vec<u8>) {
        if to == self.core.id {
            self.ctx.send_local(NetMsg::App(bytes));
        } else {
            self.ctx.send(to, NetMsg::App(bytes));
        }
    }

    fn emit(&mut self, out: O) {
        self.ctx.emit(out);
    }

    fn charge_work(&mut self, units: u64) {
        self.ctx.charge_work(units);
    }

    fn count(&mut self, counter: CounterId, delta: f64) {
        self.ctx.count(counter, delta);
    }

    fn record(&mut self, hist: HistId, value: u64) {
        self.ctx.record(hist, value);
    }

    fn trace(&mut self, kind: paso_telemetry::TraceKind) {
        self.ctx.trace(kind);
    }

    fn set_app_timer(&mut self, delay_micros: u64, tag: u64) {
        assert!(
            tag & VSYNC_TAG_BIT == 0,
            "application timer tags must not use the top bit"
        );
        self.ctx.set_timer(SimTime::from_micros(delay_micros), tag);
    }

    fn cancel_app_timer(&mut self, tag: u64) {
        self.ctx.cancel_timer(tag);
    }

    fn random_u64(&mut self) -> u64 {
        self.ctx.rng().next_u64()
    }
}

/// Sends (or locally enqueues) one gcast attempt toward the current best
/// leader candidate.
fn send_gcast_attempt<O>(
    core: &mut Core,
    ctx: &mut Context<'_, NetMsg, O>,
    group: GroupId,
    req: ReqId,
    payload: Frame,
) {
    // The acknowledged floor: `pending` holds only this node's requests,
    // so its first key is the lowest one still unanswered (at most `req`).
    let floor = core.pending.keys().next().map_or(req.seq, |r| r.seq);
    let msg = NetMsg::Vsync(VsyncMsg::Gcast {
        group,
        req,
        ack: req.seq.saturating_sub(floor),
        seq: 0, // unsequenced origin hop; the leader stamps the order
        payload,
    });
    if core.is_leader(group) {
        // Leader-origin: sequence it via a local event (never re-entrantly,
        // so app callbacks cannot recurse).
        ctx.send_local(msg);
        return;
    }
    let tried = core
        .pending
        .get(&req)
        .map(|p| p.tried.clone())
        .unwrap_or_default();
    let target = match core.contact(group, &tried) {
        Some(t) => Some(t),
        None => {
            // Every candidate was tried: start the rotation over.
            if let Some(p) = core.pending.get_mut(&req) {
                p.tried.clear();
            }
            core.contact(group, &BTreeSet::new())
        }
    };
    if let Some(target) = target {
        if target == core.id {
            ctx.send_local(msg);
        } else {
            ctx.send(target, msg);
        }
    }
    // If no contact exists, the retry timer will try again / give up.
}

fn start_join<O>(core: &mut Core, ctx: &mut Context<'_, NetMsg, O>, group: GroupId) {
    let id = core.id;
    let now = ctx.now().as_micros();
    let gs = core.group(group);
    if gs.member {
        return;
    }
    gs.joining = true;
    gs.probing = false;
    gs.probe_grants.clear();
    gs.probe_backoff = false;
    gs.join_started.get_or_insert(now);
    // Find a live member to ask; never ask ourselves (a joiner is by
    // definition not a member).
    let candidate = {
        let gs = &core.groups[&group];
        gs.view.members().find(|m| *m != id && core.up.contains(m))
    };
    match candidate {
        Some(target) => {
            let (epoch, seq, req) = core.watermark(group);
            ctx.send(
                target,
                NetMsg::Vsync(VsyncMsg::JoinReq {
                    group,
                    joiner: id,
                    epoch,
                    seq,
                    req,
                }),
            );
        }
        None => {
            // Our cache knows no live member. Do NOT conclude the group
            // is dead from one stale cache (that way lies split brain) —
            // probe every live node for what it knows first.
            let others: Vec<NodeId> = core.up.iter().copied().filter(|m| *m != id).collect();
            if others.is_empty() {
                // Sole live node in the ensemble: re-form around self. A
                // durable survivor (nonzero epoch restored from its WAL)
                // continues its lineage; otherwise start a fresh one.
                let epoch = ctx.rng().next_u64() | 1;
                let gs = core.group(group);
                let new_view = View::new(gs.view.id().next(), [id]);
                gs.view = new_view;
                gs.member = true;
                gs.joining = false;
                gs.join_started = None;
                if gs.epoch == 0 {
                    gs.epoch = epoch;
                }
                return;
            }
            core.group(group).probing = true;
            for m in others {
                ctx.send(m, NetMsg::Vsync(VsyncMsg::ProbeReq { group, joiner: id }));
            }
        }
    }
    let timeout = core.cfg.retry_timeout;
    core.arm_timer(ctx, timeout, TimerPurpose::RetryJoin(group));
}

fn start_leave<O>(core: &mut Core, ctx: &mut Context<'_, NetMsg, O>, group: GroupId) {
    let id = core.id;
    let gs = core.group(group);
    if !gs.member || gs.leaving {
        return;
    }
    if gs.view.len() <= 1 {
        // Refuse: leaving as last member would lose the class data and
        // violate the fault-tolerance condition (§4.1).
        return;
    }
    gs.leaving = true;
    let leader = gs.view.leader().expect("non-empty view has a leader");
    let msg = NetMsg::Vsync(VsyncMsg::LeaveReq { group, leaver: id });
    if leader == id {
        ctx.send_local(msg);
    } else {
        ctx.send(leader, msg);
    }
    let timeout = core.cfg.retry_timeout;
    core.arm_timer(ctx, timeout, TimerPurpose::RetryLeave(group));
}

impl<A: GroupApp> VsyncNode<A> {
    /// Creates a node wrapping `app` with the given configuration.
    pub fn new(id: NodeId, cfg: VsyncConfig, app: A) -> Self {
        VsyncNode {
            app,
            core: Core::new(id, cfg),
            wal: None,
            wal_mute: false,
        }
    }

    /// Attaches a durable write-ahead log. Every applied delivery is
    /// appended; on [`NodeEvent::Recovered`] the log is replayed to
    /// rebuild local state before re-joining (so the join can be a delta).
    #[must_use]
    pub fn with_wal(mut self, wal: WalHandle) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The wrapped application (for assertions in tests and experiments).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// This node's current view of `group`, if known.
    pub fn view_of(&self, group: GroupId) -> Option<&View> {
        self.core.groups.get(&group).map(|g| &g.view)
    }

    /// Is this node a member of `group` (its state installed or not)?
    pub fn is_member_of(&self, group: GroupId) -> bool {
        self.core.groups.get(&group).is_some_and(|g| g.member)
    }

    /// Is this node a member of `group` whose state transfer has
    /// installed?
    pub fn holds_state_of(&self, group: GroupId) -> bool {
        self.core
            .groups
            .get(&group)
            .is_some_and(GroupState::holds_state)
    }

    /// Size of this node's largest per-group dedup/response table (for
    /// assertions in tests and experiments: it tracks the requests in
    /// flight, not how many ever ran).
    pub fn dedup_entries(&self) -> usize {
        let tables = self.core.groups.values().map(|g| g.table.len());
        tables.max().unwrap_or(0)
    }

    fn init_groups(&mut self, fresh: bool) {
        let id = self.core.id;
        for (g, members) in self.core.cfg.initial_groups.clone() {
            let gs = self.core.group(g);
            // On a cold start every configured basic member is installed
            // immediately; on recovery we merely remember the *other*
            // members as contacts — this node crashed out of the group and
            // must re-join through state transfer, so its own stale entry
            // must not linger in the cached view (it could otherwise
            // "redirect-join" via its own cache and skip the transfer).
            if fresh {
                gs.view = View::new(ViewId(0), members.iter().copied());
                gs.member = members.contains(&id);
                if gs.member {
                    // All fresh basic members agree on the configured
                    // lineage id for the group's first incarnation.
                    gs.epoch = 1;
                }
            } else {
                gs.view = View::new(ViewId(0), members.iter().copied().filter(|m| *m != id));
                gs.member = false;
            }
        }
    }

    /// Discards (and counts) a gcast whose origin has vouched it
    /// complete: it is never re-applied and never answered.
    fn drop_if_stale(
        &self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        req: ReqId,
    ) -> bool {
        let stale = self
            .core
            .groups
            .get(&group)
            .is_some_and(|g| g.is_stale(req));
        if stale {
            ctx.count(metrics::VSYNC_DEDUP_STALE_DROPPED, 1.0);
        }
        stale
    }

    /// Delivers `req` at this member unless the table already holds it:
    /// apply, keep the response, raise the origin's floor to `floor`
    /// (0 = none vouched: WAL and delta replays), log the delivery
    /// (in-memory for delta transfer, durably when a WAL is attached).
    /// Callers facing the network run [`Self::drop_if_stale`] first.
    fn deliver_at_member(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        req: ReqId,
        floor: u64,
        seq: u64,
        payload: &Frame,
    ) {
        if self
            .core
            .groups
            .get(&group)
            .is_some_and(|g| g.table.contains_key(&req))
        {
            return;
        }
        let Delivery { response, work } = {
            let mut ops = Ops {
                core: &mut self.core,
                ctx,
            };
            self.app.deliver(&mut ops, group, req.origin, payload)
        };
        ctx.charge_work(work);
        let horizon = self.core.cfg.log_horizon;
        let epoch = {
            let gs = self.core.group(group);
            gs.table.insert(req, response);
            // `seq == 0` marks an unsequenced (origin-hop) delivery; only
            // leader-stamped fan-outs advance the order bookkeeping.
            if seq > gs.applied_seq {
                gs.applied_seq = seq;
                gs.last_req = req;
                if gs.next_seq <= seq {
                    gs.next_seq = seq + 1;
                }
                gs.delivery_log.push_back((seq, req, payload.clone()));
                while gs.delivery_log.len() > horizon {
                    gs.delivery_log.pop_front();
                    gs.log_complete = false;
                }
            }
            gs.epoch
        };
        self.core.raise_floor(group, req.origin, floor);
        if seq > 0 && epoch != 0 && !self.wal_mute {
            if let Some(wal) = &self.wal {
                let r = wal.append_delivery(
                    group.0,
                    epoch,
                    seq,
                    req.origin.0,
                    req.seq,
                    payload,
                    ctx.now().as_micros(),
                );
                ctx.count(metrics::WAL_APPEND_BYTES, r.bytes as f64);
                if let Some(us) = r.fsync_micros {
                    ctx.record(metrics::WAL_FSYNC_MICROS, us);
                }
                if wal.wants_snapshot() {
                    self.maybe_compact(ctx);
                }
            }
        }
    }

    /// Rewrites the WAL as one snapshot per member group, truncating the
    /// delivery history it supersedes. Deferred while any group is
    /// mid-join: compaction snapshots must reflect settled state.
    fn maybe_compact(&mut self, ctx: &mut Context<'_, NetMsg, A::Output>) {
        let Some(wal) = self.wal.clone() else {
            return;
        };
        let settled = self
            .core
            .groups
            .values()
            .all(|gs| gs.epoch == 0 || (gs.member && !gs.joining && !gs.awaiting_state));
        if !settled {
            return;
        }
        let groups: Vec<GroupId> = self
            .core
            .groups
            .iter()
            .filter(|(_, gs)| gs.epoch != 0 && gs.member)
            .map(|(g, _)| *g)
            .collect();
        let mut snaps = Vec::with_capacity(groups.len());
        for g in groups {
            let snap = self.snapshot_group(g);
            let bytes = paso_wire::encode_to_vec(&snap);
            snaps.push((g.0, snap.epoch, snap.seq, bytes));
        }
        let r = wal.compact(&snaps, ctx.now().as_micros());
        ctx.count(metrics::WAL_COMPACTIONS, 1.0);
        ctx.count(metrics::WAL_APPEND_BYTES, r.bytes as f64);
        if let Some(us) = r.fsync_micros {
            ctx.record(metrics::WAL_FSYNC_MICROS, us);
        }
    }

    /// Serializes this member's join-time state for `group` (used both
    /// for donor-side state transfer and for WAL compaction snapshots).
    fn snapshot_group(&self, group: GroupId) -> GroupSnapshot {
        let gs = &self.core.groups[&group];
        GroupSnapshot {
            table: gs.table.clone(),
            floors: gs.floors.clone(),
            app: self.app.snapshot(group),
            epoch: gs.epoch,
            seq: gs.applied_seq,
            last_req: gs.last_req,
        }
    }

    fn check_tally(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        req: ReqId,
    ) {
        let Some(tally) = self.core.tallies.get(&(group, req)) else {
            return;
        };
        // Lazily created tallies (dones arriving before the leader
        // sequenced the request) have no expectation yet and must wait.
        if tally.expected.is_empty() || tally.responded || !tally.expected.is_subset(&tally.got) {
            return;
        }
        let origin = tally.origin;
        self.core.tallies.get_mut(&(group, req)).unwrap().responded = true;
        self.respond(ctx, group, req, origin);
    }

    /// Sends the group's single response for `req` — this member's own,
    /// from the table — to `origin`. A tally that outlived its table
    /// entry has nothing to say: drop it rather than answer with bytes
    /// the origin cannot decode (its retry reaches a member that can).
    fn respond(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        req: ReqId,
        origin: NodeId,
    ) {
        let cached = self.core.groups.get(&group).and_then(|g| g.table.get(&req));
        let Some(resp) = cached.cloned() else {
            self.core.tallies.remove(&(group, req));
            ctx.count(metrics::VSYNC_DEDUP_STALE_DROPPED, 1.0);
            return;
        };
        if origin == self.core.id {
            self.complete_pending(ctx, req, Ok(resp));
        } else {
            ctx.send(
                origin,
                NetMsg::Vsync(VsyncMsg::GcastResp {
                    group,
                    req,
                    payload: resp,
                }),
            );
        }
    }

    fn complete_pending(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        req: ReqId,
        result: Result<Vec<u8>, GcastError>,
    ) {
        if let Some(p) = self.core.pending.remove(&req) {
            // An answered request's retry timer carries no information;
            // it is already gone when its own firing gave up.
            if self.core.timers.remove(&p.timer).is_some() {
                ctx.cancel_timer(VSYNC_TAG_BIT | p.timer);
            }
            let mut ops = Ops {
                core: &mut self.core,
                ctx,
            };
            self.app.on_gcast_complete(&mut ops, p.token, result);
        }
    }

    /// Leader-side processing of a gcast request (fresh or retried)
    /// that [`Self::drop_if_stale`] let through.
    fn lead_gcast(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        req: ReqId,
        ack: u64,
        payload: Frame,
    ) {
        if let Some(t) = self.core.tallies.get(&(group, req)) {
            if t.responded {
                // Retried after completion: resend the kept response.
                let origin = t.origin;
                self.respond(ctx, group, req, origin);
                return;
            }
            if !t.expected.is_empty() {
                // In flight: members will re-ack via the origin's retries.
                return;
            }
            // Else: a lazy tally from early dones — fall through and
            // sequence the request now, keeping the dones already seen.
        }
        let (members, seq): (Vec<NodeId>, u64) = {
            let gs = self.core.group(group);
            // Stamp the total-order sequence. `max(applied_seq + 1)`
            // guards against reuse: a retried request that dedups at the
            // leader must never recycle a sequence members already hold.
            let seq = gs.next_seq.max(gs.applied_seq + 1);
            gs.next_seq = seq + 1;
            (gs.view.members().collect(), seq)
        };
        // Fan-out to every other member (|g| messages incl. the leader's
        // own local processing, per the §3.3 accounting). One shared frame
        // backs every copy: a single send_many carrying refcount clones.
        let targets: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|m| *m != self.core.id)
            .collect();
        if !targets.is_empty() {
            ctx.trace(paso_telemetry::TraceKind::Gcast {
                group: group.0,
                targets: targets.len() as u32,
                bytes: payload.len() as u64,
            });
            ctx.send_many(
                targets,
                NetMsg::Vsync(VsyncMsg::Gcast {
                    group,
                    req,
                    ack,
                    seq,
                    payload: payload.clone(),
                }),
            );
        }
        let expected: BTreeSet<NodeId> = members.iter().copied().collect();
        let tally = self
            .core
            .tallies
            .entry((group, req))
            .or_insert_with(|| Tally {
                origin: req.origin,
                expected: BTreeSet::new(),
                got: BTreeSet::new(),
                responded: false,
            });
        tally.expected = expected;
        self.deliver_at_member(ctx, group, req, req.seq.saturating_sub(ack), seq, &payload);
        self.core
            .tallies
            .get_mut(&(group, req))
            .unwrap()
            .got
            .insert(self.core.id);
        self.check_tally(ctx, group, req);
    }

    /// Leader-side join admission: broadcast the new view, then transfer
    /// state to the joiner — a delta (just the deliveries past the
    /// joiner's durable watermark) when the in-memory delivery log still
    /// covers the gap, the full snapshot otherwise.
    fn admit_join(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        joiner: NodeId,
        wm_epoch: u64,
        wm_seq: u64,
        wm_req: ReqId,
    ) {
        let id = self.core.id;
        let (new_view, already) = {
            let gs = self.core.group(group);
            if gs.view.contains(joiner) {
                (gs.view.clone(), true)
            } else {
                (gs.view.with_member(joiner), false)
            }
        };
        if !already {
            self.core.group(group).view = new_view.clone();
        }
        for m in new_view.members() {
            if m != id {
                ctx.send(
                    m,
                    NetMsg::Vsync(VsyncMsg::NewView {
                        group,
                        view: new_view.clone(),
                        donor: Some(id),
                        joiner: Some(joiner),
                    }),
                );
            }
        }
        // Can the gap since the joiner's watermark be served from the
        // delivery log? Same epoch, watermark not ahead of us, and the
        // log must still contain the entry the joiner stopped at (with a
        // matching request id — otherwise the histories diverged and only
        // a full transfer is safe).
        let delta: Option<Vec<LogEntry>> = {
            let gs = self.core.group(group);
            if wm_epoch == 0 || wm_epoch != gs.epoch || wm_seq > gs.applied_seq {
                None
            } else if wm_seq == gs.applied_seq {
                // Fully caught up already (e.g. a fast crash-recover
                // cycle with no traffic in between).
                if wm_seq == 0 || wm_req == gs.last_req {
                    Some(Vec::new())
                } else {
                    None
                }
            } else if wm_seq == 0 {
                // Joiner has the epoch but no deliveries: legal only if
                // the log reaches back to the epoch's first delivery.
                if gs.log_complete {
                    Some(
                        gs.delivery_log
                            .iter()
                            .map(|(s, r, p)| LogEntry {
                                seq: *s,
                                req: *r,
                                payload: p.clone(),
                            })
                            .collect(),
                    )
                } else {
                    None
                }
            } else {
                match gs.delivery_log.iter().position(|(s, _, _)| *s == wm_seq) {
                    Some(pos) if gs.delivery_log[pos].1 == wm_req => Some(
                        gs.delivery_log
                            .iter()
                            .skip(pos + 1)
                            .map(|(s, r, p)| LogEntry {
                                seq: *s,
                                req: *r,
                                payload: p.clone(),
                            })
                            .collect(),
                    ),
                    _ => None, // fell past the horizon, or histories forked
                }
            }
        };
        // Snapshot *now*: as sequencer, the leader's state reflects exactly
        // the deliveries ordered before this view change. Unless there is
        // no gap at all, the snapshot is encoded even when a delta is
        // possible, and the smaller of the two ships: a rejoiner that
        // missed more than the state holds is sent the state. Only a
        // crash-rejoin can take a delta, so the extra encode is rare.
        let delta_len =
            |entries: &[LogEntry]| entries.iter().map(|e| e.encoded_len() as u64).sum::<u64>();
        let full = match &delta {
            Some(entries) if entries.is_empty() => None,
            _ => Some(paso_wire::encode_to_vec(&self.snapshot_group(group))),
        };
        let delta = delta.filter(|entries| {
            full.as_ref()
                .is_none_or(|state| delta_len(entries) <= state.len() as u64)
        });
        match delta {
            Some(entries) => {
                let (epoch, from_seq) = {
                    let gs = self.core.group(group);
                    (gs.epoch, wm_seq)
                };
                ctx.count(metrics::JOIN_DELTA_HIT, 1.0);
                ctx.record(metrics::JOIN_TRANSFER_BYTES, delta_len(&entries));
                ctx.send(
                    joiner,
                    NetMsg::Vsync(VsyncMsg::StateXferDelta {
                        group,
                        view: new_view.id(),
                        epoch,
                        from_seq,
                        entries,
                    }),
                );
            }
            None => {
                let bytes = full.expect("no delta means the snapshot was encoded");
                ctx.count(metrics::JOIN_FULL_XFER, 1.0);
                ctx.record(metrics::JOIN_TRANSFER_BYTES, bytes.len() as u64);
                ctx.send(
                    joiner,
                    NetMsg::Vsync(VsyncMsg::StateXfer {
                        group,
                        view: new_view.id(),
                        state: bytes,
                    }),
                );
            }
        }
        if !already {
            let view = new_view;
            let mut ops = Ops {
                core: &mut self.core,
                ctx,
            };
            self.app.on_view(&mut ops, group, &view);
        }
    }

    /// Installs (or caches) a received view.
    fn handle_new_view(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        view: View,
        joiner: Option<NodeId>,
    ) {
        let id = self.core.id;
        let up = self.core.up.clone();
        let gs = self.core.group(group);
        let eff_id = ViewId(view.id().0.max(gs.view.id().0));
        let members: Vec<NodeId> = view.members().filter(|m| up.contains(m)).collect();
        let effective = View::new(eff_id, members);
        gs.probing = false;
        if effective.contains(id) {
            let was_member = gs.member;
            if !was_member && joiner != Some(id) {
                // We are listed but were never admitted as the joiner —
                // e.g. a stale view echoed back after we crashed and
                // recovered. Adopting membership here would skip state
                // transfer; treat it as contact information only.
                gs.view = View::new(effective.id(), effective.members().filter(|m| *m != id));
                return;
            }
            gs.view = effective.clone();
            gs.member = true;
            if joiner == Some(id) && !was_member {
                gs.joining = false;
                let pending = gs.pending_state.take();
                match pending {
                    Some(PendingXfer::Full(state)) => {
                        // install_state fires on_view itself.
                        self.install_state(ctx, group, &state);
                    }
                    Some(PendingXfer::Delta {
                        epoch,
                        from_seq,
                        entries,
                    }) => {
                        self.install_delta(ctx, group, epoch, from_seq, entries);
                    }
                    None => {
                        gs.awaiting_state = true;
                        // on_view fires after the snapshot installs.
                    }
                }
                return;
            }
            let mut ops = Ops {
                core: &mut self.core,
                ctx,
            };
            self.app.on_view(&mut ops, group, &effective);
        } else if gs.member {
            // Removed (our leave acknowledged, or admin decision). The
            // lineage ends here: erase the order bookkeeping and tombstone
            // the WAL so a later re-join starts from a clean watermark.
            gs.member = false;
            gs.leaving = false;
            gs.view = effective;
            gs.table.clear();
            gs.floors.clear();
            gs.epoch = 0;
            gs.applied_seq = 0;
            gs.next_seq = 1;
            gs.last_req = ReqId::default();
            gs.delivery_log.clear();
            gs.log_complete = true;
            self.core.tallies.retain(|(g, _), _| *g != group);
            self.app.erase(group);
            if let Some(wal) = &self.wal {
                let r = wal.append_erase(group.0, ctx.now().as_micros());
                ctx.count(metrics::WAL_APPEND_BYTES, r.bytes as f64);
                if let Some(us) = r.fsync_micros {
                    ctx.record(metrics::WAL_FSYNC_MICROS, us);
                }
            }
        } else {
            gs.view = effective;
        }
    }

    fn install_state(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        state: &[u8],
    ) {
        let snap: GroupSnapshot = match paso_wire::decode_exact(state) {
            Ok(s) => s,
            Err(_) => return, // corrupt snapshot: keep waiting; retry refetches
        };
        let epoch = {
            let gs = self.core.group(group);
            gs.table = snap.table;
            gs.floors = snap.floors;
            gs.epoch = snap.epoch;
            gs.applied_seq = snap.seq;
            gs.next_seq = gs.next_seq.max(snap.seq + 1);
            gs.last_req = snap.last_req;
            gs.delivery_log.clear();
            // A snapshot collapses history: the log no longer reaches
            // back to the epoch's first delivery (unless there were none).
            gs.log_complete = snap.seq == 0;
            gs.awaiting_state = false;
            gs.joining = false;
            gs.epoch
        };
        {
            let mut ops = Ops {
                core: &mut self.core,
                ctx,
            };
            self.app.install(&mut ops, group, &snap.app);
        }
        // Persist the installed snapshot: on recovery the joiner replays
        // from here instead of needing another full transfer.
        if epoch != 0 && !self.wal_mute {
            if let Some(wal) = &self.wal {
                let r = wal.append_snapshot(group.0, epoch, snap.seq, state, ctx.now().as_micros());
                ctx.count(metrics::WAL_APPEND_BYTES, r.bytes as f64);
                if let Some(us) = r.fsync_micros {
                    ctx.record(metrics::WAL_FSYNC_MICROS, us);
                }
            }
        }
        self.finish_install(ctx, group);
    }

    /// Installs an incremental state transfer: replays the shipped
    /// deliveries on top of this node's durable (WAL-restored) state.
    fn install_delta(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        group: GroupId,
        epoch: u64,
        from_seq: u64,
        entries: Vec<LogEntry>,
    ) {
        {
            let gs = self.core.group(group);
            if gs.epoch != epoch || gs.applied_seq != from_seq {
                // The delta no longer lines up with our local state
                // (stale retransmission, or local state moved): drop it
                // and let the RetryJoin timer re-request.
                return;
            }
            gs.awaiting_state = false;
            gs.joining = false;
        }
        // Replay through the normal delivery path: the app applies each
        // payload and (when a WAL is attached) each replayed delivery is
        // appended durably — it is new information for this node.
        for e in &entries {
            self.deliver_at_member(ctx, group, e.req, 0, e.seq, &e.payload);
        }
        self.finish_install(ctx, group);
    }

    /// Rebuilds group state from the durable WAL after a crash: install
    /// the latest snapshot per group, then replay the delivery tail.
    /// Afterwards the node re-joins advertising its restored watermark,
    /// so the donor ships only the gap (the whole point of the WAL:
    /// the join cost K shrinks from |state| to |missed deliveries|).
    fn replay_wal(&mut self, ctx: &mut Context<'_, NetMsg, A::Output>) {
        let Some(wal) = self.wal.clone() else {
            return;
        };
        let rec = wal.recover();
        if rec.groups.is_empty() {
            return;
        }
        // Replayed deliveries are already in the log; re-appending them
        // would double the WAL on every crash.
        self.wal_mute = true;
        let mut replayed = 0u64;
        for (gid, grec) in rec.groups {
            let group = GroupId(gid);
            {
                let gs = self.core.group(group);
                gs.epoch = grec.epoch;
                gs.log_complete = true;
            }
            if let Some((seq, state)) = &grec.snapshot {
                if let Ok(snap) = paso_wire::decode_exact::<GroupSnapshot>(state) {
                    {
                        let gs = self.core.group(group);
                        gs.table = snap.table;
                        gs.floors = snap.floors;
                        gs.applied_seq = *seq;
                        gs.next_seq = gs.next_seq.max(seq + 1);
                        gs.last_req = snap.last_req;
                        gs.log_complete = *seq == 0;
                    }
                    let mut ops = Ops {
                        core: &mut self.core,
                        ctx,
                    };
                    self.app.install(&mut ops, group, &snap.app);
                    replayed += 1;
                }
            }
            for d in grec.tail {
                let req = ReqId {
                    origin: NodeId(d.origin),
                    seq: d.req_seq,
                };
                self.deliver_at_member(ctx, group, req, 0, d.seq, &Frame::from(d.payload));
                replayed += 1;
            }
        }
        self.wal_mute = false;
        ctx.count(metrics::WAL_RECOVERED_RECORDS, replayed as f64);
    }

    /// Common tail of both install paths: replay fan-outs that arrived
    /// while the transfer was in flight (the table filters the ones the
    /// transfer already covered, and every one is acknowledged so the
    /// leader's tally completes), record join latency, and fire `on_view`.
    fn finish_install(&mut self, ctx: &mut Context<'_, NetMsg, A::Output>, group: GroupId) {
        let buffered = std::mem::take(&mut self.core.group(group).buffer);
        for (from, req, floor, seq, payload) in buffered {
            if self.drop_if_stale(ctx, group, req) {
                continue;
            }
            self.deliver_at_member(ctx, group, req, floor, seq, &payload);
            ctx.send(from, NetMsg::Vsync(VsyncMsg::GcastDone { group, req }));
        }
        let (view, started) = {
            let gs = self.core.group(group);
            (gs.view.clone(), gs.join_started.take())
        };
        if let Some(t0) = started {
            ctx.record(
                metrics::JOIN_LATENCY_MICROS,
                ctx.now().as_micros().saturating_sub(t0),
            );
        }
        let mut ops = Ops {
            core: &mut self.core,
            ctx,
        };
        self.app.on_view(&mut ops, group, &view);
    }

    fn handle_vsync(
        &mut self,
        ctx: &mut Context<'_, NetMsg, A::Output>,
        from: NodeId,
        msg: VsyncMsg,
    ) {
        let id = self.core.id;
        match msg {
            VsyncMsg::Gcast {
                group,
                req,
                ack,
                seq,
                payload,
            } => {
                if self.drop_if_stale(ctx, group, req) {
                    return;
                }
                let (member, awaiting, from_is_peer_member) = {
                    let gs = self.core.group(group);
                    (gs.member, gs.awaiting_state, gs.view.contains(from))
                };
                if self.core.is_leader(group) {
                    self.lead_gcast(ctx, group, req, ack, payload);
                } else if member {
                    if !from_is_peer_member && from != id {
                        // Not a fan-out from the (current or recent)
                        // leader but a misdirected origin request — relay
                        // it to the leader we know, which sequences it.
                        let leader = self.core.group(group).view.leader();
                        if let Some(l) = leader {
                            if l == id {
                                // Shouldn't happen (is_leader above), but
                                // stay safe.
                                self.lead_gcast(ctx, group, req, ack, payload);
                            } else {
                                ctx.send(
                                    l,
                                    NetMsg::Vsync(VsyncMsg::Gcast {
                                        group,
                                        req,
                                        ack,
                                        seq,
                                        payload,
                                    }),
                                );
                            }
                        }
                        return;
                    }
                    let floor = req.seq.saturating_sub(ack);
                    if awaiting {
                        self.core
                            .group(group)
                            .buffer
                            .push((from, req, floor, seq, payload));
                    } else {
                        self.deliver_at_member(ctx, group, req, floor, seq, &payload);
                        if from == id {
                            // Degenerate self-delivery; tally handled above.
                        } else {
                            ctx.send(from, NetMsg::Vsync(VsyncMsg::GcastDone { group, req }));
                        }
                    }
                } else {
                    // Not a member: tell the sender what we know.
                    let view = self.core.group(group).view.clone();
                    ctx.send(
                        from,
                        NetMsg::Vsync(VsyncMsg::GcastNack { group, req, view }),
                    );
                }
            }
            VsyncMsg::GcastDone { group, req } => {
                // A late ack for a forgotten request (below the floor, or
                // of a group this node left) must not resurrect a tally.
                let live = |g: &GroupState| g.member && !g.is_stale(req);
                if !self.core.groups.get(&group).is_some_and(live) {
                    return;
                }
                let t = self
                    .core
                    .tallies
                    .entry((group, req))
                    .or_insert_with(|| Tally {
                        origin: req.origin,
                        expected: BTreeSet::new(),
                        got: BTreeSet::new(),
                        responded: false,
                    });
                t.got.insert(from);
                self.check_tally(ctx, group, req);
            }
            VsyncMsg::GcastResp { req, payload, .. } => {
                self.complete_pending(ctx, req, Ok(payload));
            }
            VsyncMsg::GcastNack { group, req, view } => {
                // Stale contact: learn whatever the rejecter knows, mark
                // it tried, and retry toward a better candidate.
                {
                    let up = self.core.up.clone();
                    let gs = self.core.group(group);
                    if !gs.member {
                        if gs.view.contains(from) {
                            gs.view = gs.view.without_member(from);
                        }
                        // Adopt a fresher view if the rejecter had one
                        // with live members.
                        if view.id() >= gs.view.id()
                            && view.members().any(|m| up.contains(&m) && m != from)
                        {
                            gs.view = View::new(view.id(), view.members().filter(|m| *m != from));
                        }
                    }
                }
                if let Some(p) = self.core.pending.get_mut(&req) {
                    p.tried.insert(from);
                    p.retries += 1;
                    let (group, payload, retries) = (p.group, p.payload.clone(), p.retries);
                    if retries > self.core.cfg.max_retries {
                        self.complete_pending(ctx, req, Err(GcastError::Unavailable));
                    } else {
                        send_gcast_attempt(&mut self.core, ctx, group, req, payload);
                    }
                }
            }
            VsyncMsg::JoinReq {
                group,
                joiner,
                epoch,
                seq,
                req,
            } => {
                if self.core.is_leader(group) {
                    self.admit_join(ctx, group, joiner, epoch, seq, req);
                } else {
                    // Redirect: share our view so the joiner can find the
                    // real leader.
                    let view = self.core.group(group).view.clone();
                    ctx.send(
                        joiner,
                        NetMsg::Vsync(VsyncMsg::NewView {
                            group,
                            view,
                            donor: None,
                            joiner: None,
                        }),
                    );
                }
            }
            VsyncMsg::ProbeReq { group, joiner } => {
                let now = ctx.now().as_micros();
                let window = 4 * self.core.cfg.retry_timeout.as_micros();
                let gs = self.core.group(group);
                let member = gs.member;
                let mut holder = None;
                let grant = if member {
                    false
                } else {
                    match gs.form_grant {
                        Some((h, exp)) if exp > now && h != joiner => {
                            holder = Some(h);
                            false
                        }
                        _ => {
                            gs.form_grant = Some((joiner, now + window));
                            true
                        }
                    }
                };
                ctx.send(
                    joiner,
                    NetMsg::Vsync(VsyncMsg::ProbeResp {
                        group,
                        member,
                        grant,
                        holder,
                    }),
                );
            }
            VsyncMsg::ProbeResp {
                group,
                member,
                grant,
                holder,
            } => {
                let up = self.core.up.clone();
                let gs = self.core.group(group);
                if !gs.joining || gs.member || !gs.probing {
                    return;
                }
                if member {
                    // Authoritative: the responder IS a live member.
                    gs.probing = false;
                    gs.probe_grants.clear();
                    if !gs.view.contains(from) {
                        gs.view = gs.view.with_member(from);
                    }
                    let (epoch, seq, req) = self.core.watermark(group);
                    ctx.send(
                        from,
                        NetMsg::Vsync(VsyncMsg::JoinReq {
                            group,
                            joiner: id,
                            epoch,
                            seq,
                            req,
                        }),
                    );
                    return;
                }
                if grant {
                    gs.probe_grants.insert(from);
                } else if holder.is_some_and(|h| h < id) {
                    // A concurrent prober with priority (smaller id)
                    // holds this responder's grant. If we keep re-probing
                    // every retry period we refresh our own grants at the
                    // other responders and neither of us ever collects a
                    // unanimous window — back off instead (see RetryJoin).
                    gs.probe_backoff = true;
                }
                let unanimous = up
                    .iter()
                    .filter(|m| **m != id)
                    .all(|m| gs.probe_grants.contains(m));
                if unanimous {
                    // Every live node granted: nobody is a member and no
                    // concurrent prober can also win this window — re-form
                    // the group (with empty state in the >λ data-loss
                    // case; a durable survivor carries its WAL-restored
                    // state and lineage forward instead).
                    let epoch = ctx.rng().next_u64() | 1;
                    let new_view = View::new(gs.view.id().next(), [id]);
                    gs.view = new_view.clone();
                    gs.member = true;
                    gs.joining = false;
                    gs.probing = false;
                    gs.probe_grants.clear();
                    gs.probe_backoff = false;
                    gs.join_started = None;
                    if gs.epoch == 0 {
                        gs.epoch = epoch;
                    }
                    let mut ops = Ops {
                        core: &mut self.core,
                        ctx,
                    };
                    self.app.on_view(&mut ops, group, &new_view);
                }
                // Otherwise: wait; the RetryJoin timer re-probes.
            }
            VsyncMsg::LeaveReq { group, leaver } => {
                if self.core.is_leader(group) {
                    let view = self.core.group(group).view.clone();
                    if !view.contains(leaver) {
                        if leaver != id {
                            ctx.send(
                                leaver,
                                NetMsg::Vsync(VsyncMsg::NewView {
                                    group,
                                    view,
                                    donor: None,
                                    joiner: None,
                                }),
                            );
                        }
                        return;
                    }
                    if view.len() <= 1 {
                        return; // refuse: last member cannot leave
                    }
                    let new_view = view.without_member(leaver);
                    for m in view.members() {
                        if m != id {
                            ctx.send(
                                m,
                                NetMsg::Vsync(VsyncMsg::NewView {
                                    group,
                                    view: new_view.clone(),
                                    donor: None,
                                    joiner: None,
                                }),
                            );
                        }
                    }
                    // Apply locally (handles the leader-leaves case too).
                    self.handle_new_view(ctx, group, new_view, None);
                    self.recheck_group_tallies(ctx, group);
                } else if leaver != id {
                    let view = self.core.group(group).view.clone();
                    ctx.send(
                        leaver,
                        NetMsg::Vsync(VsyncMsg::NewView {
                            group,
                            view,
                            donor: None,
                            joiner: None,
                        }),
                    );
                }
            }
            VsyncMsg::NewView {
                group,
                view,
                joiner,
                ..
            } => {
                self.handle_new_view(ctx, group, view, joiner);
                self.recheck_group_tallies(ctx, group);
            }
            VsyncMsg::StateXfer { group, state, .. } => {
                let gs = self.core.group(group);
                if gs.awaiting_state {
                    self.install_state(ctx, group, &state);
                } else if gs.joining {
                    gs.pending_state = Some(PendingXfer::Full(state));
                }
                // Otherwise: stale transfer; ignore.
            }
            VsyncMsg::StateXferDelta {
                group,
                epoch,
                from_seq,
                entries,
                ..
            } => {
                let gs = self.core.group(group);
                if gs.awaiting_state {
                    self.install_delta(ctx, group, epoch, from_seq, entries);
                } else if gs.joining {
                    gs.pending_state = Some(PendingXfer::Delta {
                        epoch,
                        from_seq,
                        entries,
                    });
                }
                // Otherwise: stale transfer; ignore.
            }
        }
    }

    fn recheck_group_tallies(&mut self, ctx: &mut Context<'_, NetMsg, A::Output>, group: GroupId) {
        let reqs: Vec<ReqId> = self
            .core
            .tallies
            .range(
                (
                    group,
                    ReqId {
                        origin: NodeId(0),
                        seq: 0,
                    },
                )..,
            )
            .take_while(|((g, _), _)| *g == group)
            .map(|((_, r), _)| *r)
            .collect();
        for req in reqs {
            self.check_tally(ctx, group, req);
        }
    }

    fn on_peer_crashed(&mut self, ctx: &mut Context<'_, NetMsg, A::Output>, peer: NodeId) {
        self.core.up.remove(&peer);
        let groups: Vec<GroupId> = self.core.groups.keys().copied().collect();
        for g in groups {
            let (changed, view, member) = {
                let gs = self.core.group(g);
                if gs.view.contains(peer) {
                    gs.view = gs.view.without_member(peer);
                    (true, gs.view.clone(), gs.member)
                } else {
                    (false, gs.view.clone(), gs.member)
                }
            };
            // Prune the crashed member from every outstanding tally.
            let reqs: Vec<ReqId> = self
                .core
                .tallies
                .range(
                    (
                        g,
                        ReqId {
                            origin: NodeId(0),
                            seq: 0,
                        },
                    )..,
                )
                .take_while(|((gg, _), _)| *gg == g)
                .map(|((_, r), _)| *r)
                .collect();
            for req in &reqs {
                if let Some(t) = self.core.tallies.get_mut(&(g, *req)) {
                    t.expected.remove(&peer);
                }
            }
            for req in reqs {
                self.check_tally(ctx, g, req);
            }
            if changed && member {
                let mut ops = Ops {
                    core: &mut self.core,
                    ctx,
                };
                self.app.on_view(&mut ops, g, &view);
            }
        }
    }

    fn on_timer_fired(&mut self, ctx: &mut Context<'_, NetMsg, A::Output>, tag: u64) {
        if tag & VSYNC_TAG_BIT == 0 {
            let mut ops = Ops {
                core: &mut self.core,
                ctx,
            };
            self.app.on_timer(&mut ops, tag);
            return;
        }
        let id = tag & !VSYNC_TAG_BIT;
        let Some(purpose) = self.core.timers.remove(&id) else {
            return;
        };
        match purpose {
            TimerPurpose::RetryGcast(req) => {
                let Some(p) = self.core.pending.get_mut(&req) else {
                    return; // completed
                };
                p.retries += 1;
                let (group, payload, retries) = (p.group, p.payload.clone(), p.retries);
                if retries > self.core.cfg.max_retries {
                    self.complete_pending(ctx, req, Err(GcastError::Unavailable));
                } else {
                    send_gcast_attempt(&mut self.core, ctx, group, req, payload);
                    self.core.arm_gcast_retry(ctx, req);
                }
            }
            TimerPurpose::RetryJoin(group) => {
                let gs = self.core.group(group);
                if gs.joining && !gs.member {
                    if gs.probe_backoff {
                        // Yield the formation race: stop re-probing for
                        // longer than the grant window (4× retry), so the
                        // grants we hold expire and the smaller-id prober
                        // can collect a unanimous set. Then probe again —
                        // by then it is a member we can join (or it died
                        // and the race restarts from clean windows).
                        gs.probe_backoff = false;
                        gs.probing = false;
                        let pause =
                            SimTime::from_micros(5 * self.core.cfg.retry_timeout.as_micros());
                        self.core
                            .arm_timer(ctx, pause, TimerPurpose::RetryJoin(group));
                    } else {
                        gs.joining = false; // start_join re-sets it
                        gs.probing = false;
                        start_join(&mut self.core, ctx, group);
                    }
                } else if gs.member && gs.awaiting_state {
                    // View installed but the snapshot got lost (donor
                    // crashed mid-transfer): ask the current leader again.
                    let leader = gs.view.leader();
                    let (epoch, seq, req) = self.core.watermark(group);
                    if let Some(l) = leader {
                        if l != self.core.id {
                            ctx.send(
                                l,
                                NetMsg::Vsync(VsyncMsg::JoinReq {
                                    group,
                                    joiner: self.core.id,
                                    epoch,
                                    seq,
                                    req,
                                }),
                            );
                        } else {
                            // We became leader while awaiting state — the
                            // rest of the group has the data; re-join via
                            // the next member instead.
                            let me = self.core.id;
                            let next = self.core.group(group).view.members().find(|m| *m != me);
                            if let Some(nm) = next {
                                ctx.send(
                                    nm,
                                    NetMsg::Vsync(VsyncMsg::JoinReq {
                                        group,
                                        joiner: self.core.id,
                                        epoch,
                                        seq,
                                        req,
                                    }),
                                );
                            } else {
                                // Sole survivor: adopt empty state.
                                let gs = self.core.group(group);
                                gs.awaiting_state = false;
                                let view = gs.view.clone();
                                let mut ops = Ops {
                                    core: &mut self.core,
                                    ctx,
                                };
                                self.app.on_view(&mut ops, group, &view);
                            }
                        }
                    }
                    let timeout = self.core.cfg.retry_timeout;
                    self.core
                        .arm_timer(ctx, timeout, TimerPurpose::RetryJoin(group));
                }
            }
            TimerPurpose::RetryLeave(group) => {
                let gs = self.core.group(group);
                if gs.member && gs.leaving {
                    gs.leaving = false; // start_leave re-sets it
                    start_leave(&mut self.core, ctx, group);
                }
            }
        }
    }
}

impl<A: GroupApp> Actor for VsyncNode<A> {
    type Msg = NetMsg;
    type Output = A::Output;

    fn handle(&mut self, ctx: &mut Context<'_, NetMsg, A::Output>, event: NodeEvent<NetMsg>) {
        match event {
            NodeEvent::Start => {
                self.core.up = (0..ctx.n() as u32).map(NodeId).collect();
                self.init_groups(true);
                let mut ops = Ops {
                    core: &mut self.core,
                    ctx,
                };
                self.app.on_start(&mut ops);
            }
            NodeEvent::Recovered => {
                self.core.up = (0..ctx.n() as u32).map(NodeId).collect();
                self.init_groups(false);
                // Request ids must never be reused across incarnations —
                // peers cache responses per ReqId, and a reused id would
                // be answered with a *stale* cached response. Jump the
                // counter past anything the previous incarnation (which
                // lived strictly before `now`) could have issued.
                self.core.next_req = self
                    .core
                    .next_req
                    .max(ctx.now().as_micros().saturating_mul(1 << 16));
                // Durable recovery: rebuild local state from the WAL so
                // the g-joins issued by on_recovered can advertise a
                // watermark and receive deltas instead of full state.
                self.replay_wal(ctx);
                let mut ops = Ops {
                    core: &mut self.core,
                    ctx,
                };
                self.app.on_recovered(&mut ops);
            }
            NodeEvent::PeerCrashed(p) => {
                self.on_peer_crashed(ctx, p);
                let mut ops = Ops {
                    core: &mut self.core,
                    ctx,
                };
                self.app.on_peer_crashed(&mut ops, p);
            }
            NodeEvent::PeerRecovered(p) => {
                self.core.up.insert(p);
                let mut ops = Ops {
                    core: &mut self.core,
                    ctx,
                };
                self.app.on_peer_recovered(&mut ops, p);
            }
            NodeEvent::Timer { tag } => self.on_timer_fired(ctx, tag),
            NodeEvent::Message { from, msg } => match msg {
                NetMsg::Vsync(m) => self.handle_vsync(ctx, from, m),
                NetMsg::App(bytes) => {
                    let mut ops = Ops {
                        core: &mut self.core,
                        ctx,
                    };
                    self.app.on_app_message(&mut ops, from, &bytes);
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{append, engine, G};
    use paso_wire::{decode_exact, encode_to_vec, Wire};

    /// History independence at the source: however many gcasts an origin
    /// has run one at a time, every node holds at most one table entry
    /// and one tally for it.
    #[test]
    fn one_at_a_time_gcasts_leave_one_table_entry_and_one_tally() {
        let mut e = engine(4, vec![(G, vec![NodeId(0), NodeId(1), NodeId(2)])]);
        for i in 0..10_000u32 {
            let now = e.now();
            append(&mut e, now, 3, 1, i as u8);
            e.run_until(now + SimTime::from_millis(1));
        }
        assert_eq!(e.actor(NodeId(3)).app().completions.len(), 10_000);
        for m in 0..4 {
            let core = &e.actor(NodeId(m)).core;
            let from_3 = |r: &ReqId| r.origin == NodeId(3);
            assert!(core.groups[&G].table.keys().filter(|r| from_3(r)).count() <= 1);
            assert!(core.tallies.keys().filter(|(_, r)| from_3(r)).count() <= 1);
        }
        assert_eq!(e.actor(NodeId(0)).core.groups[&G].table.len(), 1);
        assert_eq!(e.actor(NodeId(0)).core.tallies.len(), 1);
    }

    /// Join-time snapshots cross the wire inside `StateXfer` and sit in
    /// WAL `Snapshot` records, so their layout is pinned like a message's.
    #[test]
    fn group_snapshot_bytes_are_pinned() {
        let req = |origin, seq| ReqId {
            origin: NodeId(origin),
            seq,
        };
        let snap = GroupSnapshot {
            table: [(req(2, 300), vec![9, 8]), (req(0, 1), vec![])].into(),
            floors: [(NodeId(2), 299)].into(),
            app: vec![1, 2, 3],
            epoch: 5,
            seq: 300,
            last_req: req(2, 300),
        };
        let bytes = encode_to_vec(&snap);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "0200010002ac020209080102ab020301020305ac0202ac02");
        assert_eq!(snap.encoded_len(), bytes.len());
        let back: GroupSnapshot = decode_exact(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes);
    }
}
