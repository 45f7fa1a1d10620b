//! The discrete-event simulation engine.
//!
//! Drives a homogeneous ensemble of [`Actor`] nodes over a shared bus LAN
//! with the §3.3 cost model, crash faults with memory erasure and bounded
//! re-initialization (§3.1), and a perfect membership oracle (the ISIS
//! failure-detection layer of §3.2, surfaced as `PeerCrashed` /
//! `PeerRecovered` events).
//!
//! Large-`n` design (see DESIGN.md §7): actor state lives in a flat
//! struct-of-arrays arena indexed by dense `NodeId`s; the event queue is
//! an indexed binary heap with O(log n) cancellation, so crashed nodes'
//! timers are removed instead of tombstoned; per-message metrics
//! accumulate in plain (non-atomic) [`Stats`] fields published to the
//! shared registry when it is read and at run boundaries; and the whole
//! engine state is checkpointable (`snapshot`/`restore`, see
//! `checkpoint.rs`) whenever the actor and message types implement
//! `paso_wire::Wire`.
//!
//! Determinism: all randomness flows from one seeded ChaCha stream, and the
//! event queue breaks time ties by insertion sequence, so the same
//! configuration and inputs always produce the same trace.

use std::cell::RefCell;
use std::sync::Arc;

use crate::actor::{drive_actor, Action, Actor, NodeEvent, NodeId};
use crate::arena::ActorArena;
use crate::cost::{CostModel, WireSized};
use crate::fault::{ChurnModel, Fault, FaultPlan, FaultScript, LinkFate, NetModel};
use crate::queue::EventQueue;
use crate::stats::{Publisher, Stats};
use crate::time::SimTime;
use paso_telemetry::{metrics, Telemetry, TraceBuf, TraceKind};
use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of machines in the ensemble.
    pub n: usize,
    /// The LAN cost model.
    pub cost_model: CostModel,
    /// Seed for all simulation randomness.
    pub seed: u64,
    /// Lower bound on the re-initialization phase (§3.1: "bounded above
    /// and below").
    pub init_min: SimTime,
    /// Upper bound on the re-initialization phase.
    pub init_max: SimTime,
    /// Record a [`Trace`] of everything that happens.
    pub record_trace: bool,
    /// Which network the ensemble runs on: the classic serializing bus,
    /// or a switched fabric with per-link latency/jitter/asymmetry.
    pub net: NetModel,
    /// Message-level fault injection (drop/delay/jitter/partition),
    /// consulted on every networked send. The pass-through plan costs
    /// nothing and consumes no randomness.
    pub fault_plan: FaultPlan,
    /// Engine-driven Poisson crash/rejoin churn, or `None` for none.
    pub churn: Option<ChurnModel>,
    /// Whether the perfect membership oracle broadcasts `PeerCrashed` /
    /// `PeerRecovered` to every up node (O(n) per fault). Protocols that
    /// do not rely on the oracle can turn it off, making faults O(1) —
    /// mandatory at millions of nodes.
    pub membership_oracle: bool,
}

impl EngineConfig {
    /// Checks the configuration's invariants, returning a description of
    /// the first problem found.
    ///
    /// [`Engine::new`] panics on an invalid configuration (a programming
    /// error at construction time), but configurations can also arrive at
    /// a running system from *outside* — campaign branch overrides applied
    /// before `Engine::from_checkpoint` — where a typo must surface as an
    /// error, not a panic deep inside the restore, and never as a silently
    /// nonsensical simulation.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be at least 1".into());
        }
        if self.init_min > self.init_max {
            return Err(format!(
                "init_min ({:?}) exceeds init_max ({:?})",
                self.init_min, self.init_max
            ));
        }
        let CostModel { alpha, beta } = self.cost_model;
        if !(alpha.is_finite() && alpha >= 0.0 && beta.is_finite() && beta >= 0.0) {
            return Err(format!(
                "cost model must have finite non-negative α, β (got α={alpha}, β={beta})"
            ));
        }
        if let Some(churn) = &self.churn {
            if !(churn.crash_rate_hz.is_finite() && churn.crash_rate_hz > 0.0) {
                return Err(format!(
                    "churn crash rate must be finite and positive (got {})",
                    churn.crash_rate_hz
                ));
            }
            if churn.max_concurrent == 0 {
                return Err("churn with a zero concurrent-failure budget never fires".into());
            }
            if churn.mean_downtime == SimTime::ZERO {
                return Err("churn mean downtime must be positive".into());
            }
        }
        if let NetModel::Switched(model) = &self.net {
            let a = model.asymmetry();
            if !(a.is_finite() && a > 0.0) {
                return Err(format!("switched-net asymmetry must be positive (got {a})"));
            }
        }
        Ok(())
    }

    /// A small, fast configuration for tests: `n` nodes, cheap messages,
    /// 1 ms ≤ init ≤ 2 ms.
    pub fn for_tests(n: usize) -> Self {
        EngineConfig {
            n,
            cost_model: CostModel::new(10.0, 0.1),
            seed: 0,
            init_min: SimTime::from_millis(1),
            init_max: SimTime::from_millis(2),
            record_trace: false,
            net: NetModel::Bus,
            fault_plan: FaultPlan::none(),
            churn: None,
            membership_oracle: true,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n: 4,
            cost_model: CostModel::default(),
            seed: 0,
            // "Both upper and lower bounds ... are expected to be several
            // minutes" — scaled down so simulations stay fast while keeping
            // init ≫ message latency, which is the property that matters.
            init_min: SimTime::from_secs(2),
            init_max: SimTime::from_secs(5),
            record_trace: false,
            net: NetModel::Bus,
            fault_plan: FaultPlan::none(),
            churn: None,
            membership_oracle: true,
        }
    }
}

/// Machine status (§3.1: a machine is "considered faulty while in its
/// initialization phase").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStatus {
    /// Operational and past initialization.
    Up,
    /// Crashed; memory erased.
    Crashed,
    /// Repaired, running its initialization phase.
    Initializing,
}

impl MachineStatus {
    /// True iff the machine counts as non-faulty.
    pub fn is_up(self) -> bool {
        self == MachineStatus::Up
    }
}

/// One recorded trace entry.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEntry {
    /// A message was delivered.
    Deliver {
        /// Delivery time.
        time: SimTime,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Wire size in bytes.
        bytes: usize,
    },
    /// A message was dropped (destination down, or injected by the fault
    /// plan).
    Drop {
        /// Drop time.
        time: SimTime,
        /// Intended receiver.
        to: NodeId,
    },
    /// A machine crashed.
    Crash {
        /// Crash time.
        time: SimTime,
        /// The machine.
        node: NodeId,
    },
    /// A machine completed recovery.
    Recover {
        /// Completion time.
        time: SimTime,
        /// The machine.
        node: NodeId,
    },
}

/// The full event trace of a run (when enabled in [`EngineConfig`]).
pub type Trace = Vec<TraceEntry>;

#[derive(Debug)]
pub(crate) enum Event<M> {
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: M,
        bytes: usize,
        via_bus: bool,
    },
    Timer {
        node: NodeId,
        tag: u64,
        epoch: u64,
    },
    Crash {
        node: NodeId,
        churn: bool,
    },
    Repair {
        node: NodeId,
        churn: bool,
    },
    InitDone {
        node: NodeId,
        epoch: u64,
    },
    /// One arrival of the engine-driven churn process.
    ChurnTick,
}

/// The discrete-event engine driving `n` copies of an [`Actor`].
///
/// # Examples
///
/// See the crate-level documentation for a complete ping-pong example.
pub struct Engine<A: Actor> {
    pub(crate) config: EngineConfig,
    pub(crate) arena: ActorArena<A>,
    pub(crate) factory: Box<dyn Fn(NodeId) -> A>,
    pub(crate) queue: EventQueue<Event<A::Msg>>,
    pub(crate) now: SimTime,
    pub(crate) bus_free_at: SimTime,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) stats: Stats,
    pub(crate) telemetry: Arc<Telemetry>,
    /// In a cell so that [`telemetry`](Self::telemetry) can publish
    /// through `&self`; every `&mut self` path reaches it with `get_mut`,
    /// which checks nothing at run time.
    pub(crate) tel: RefCell<Publisher>,
    pub(crate) trace_buf: Arc<TraceBuf>,
    pub(crate) outputs: Vec<(SimTime, NodeId, A::Output)>,
    /// The action buffer every dispatch fills and drains (empty between
    /// events).
    pub(crate) actions: Vec<Action<A::Msg, A::Output>>,
    pub(crate) trace: Trace,
    pub(crate) concurrent_failures: usize,
    /// Cached `config.fault_plan.is_pass_through()` so the per-send hot
    /// path skips the plan without walking its maps.
    pub(crate) fault_pass_through: bool,
}

impl<A: Actor> std::fmt::Debug for Engine<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.config.n)
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

/// Exponential sample with the given mean (microseconds).
fn exp_micros(rng: &mut impl RngCore, mean_us: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-u.ln() * mean_us) as u64
}

impl<A: Actor> Engine<A> {
    /// Creates an engine; `factory` builds the (fresh) actor for a machine,
    /// both at startup and after each crash (modeling full memory erasure).
    pub fn new(config: EngineConfig, factory: impl Fn(NodeId) -> A + 'static) -> Self {
        let mut engine = Self::new_unstarted(config, factory, true);
        if let Some(churn) = engine.config.churn {
            engine.schedule_churn_tick(&churn);
        }
        // Start events for every node at t=0.
        for i in 0..engine.config.n {
            engine.dispatch_now(NodeId(i as u32), NodeEvent::Start);
        }
        engine.flush_telemetry();
        engine
    }

    /// Engine with empty queue and no `Start` events dispatched — the
    /// shell that checkpoint restore fills in. With `build_actors` false
    /// the arena columns are sized but no actors are constructed: restore
    /// decodes all `n` actors from the snapshot, so running the factory
    /// first would build `n` throwaway actors (the dominant term in the
    /// old restore-vs-save asymmetry at n=1M).
    pub(crate) fn new_unstarted(
        config: EngineConfig,
        factory: impl Fn(NodeId) -> A + 'static,
        build_actors: bool,
    ) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid EngineConfig: {why}");
        }
        let arena = if build_actors {
            ActorArena::new(config.n, &factory)
        } else {
            ActorArena::shell(config.n)
        };
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let stats = Stats::new(config.n);
        let telemetry = Arc::new(Telemetry::new());
        let tel = RefCell::new(Publisher::new());
        let fault_pass_through = config.fault_plan.is_pass_through();
        Engine {
            arena,
            factory: Box::new(factory),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            bus_free_at: SimTime::ZERO,
            rng,
            stats,
            telemetry,
            tel,
            trace_buf: Arc::new(TraceBuf::new()),
            outputs: Vec::new(),
            actions: Vec::new(),
            trace: Vec::new(),
            concurrent_failures: 0,
            fault_pass_through,
            config,
        }
    }

    /// Number of machines.
    pub fn n(&self) -> usize {
        self.config.n
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Time of the next pending event, if any.  Drivers that must stop on
    /// an exact event-count boundary (the campaign checkpointer) peek here
    /// before [`step`](Self::step) so they never process past a horizon.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|(t, _)| t)
    }

    /// Status of a machine.
    pub fn status(&self, node: NodeId) -> MachineStatus {
        self.arena.status(node)
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The unified metrics registry mirroring every engine statistic and
    /// actor counter under the shared metric names (see DESIGN.md §6e).
    ///
    /// Engine-internal metrics are counted in [`Stats`] on the hot path
    /// and published here, on the way out, so the registry this returns
    /// is current whenever it is read through the engine. A clone of the
    /// `Arc` kept elsewhere sees the totals as of the last such read or
    /// run boundary ([`run_until`](Self::run_until),
    /// [`run_to_quiescence`](Self::run_to_quiescence), a checkpoint).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.tel.borrow_mut().publish(&self.stats, &self.telemetry);
        &self.telemetry
    }

    /// Publishes the [`Stats`] totals and buffered histogram samples
    /// into the registry.
    pub(crate) fn flush_telemetry(&mut self) {
        self.tel.get_mut().publish(&self.stats, &self.telemetry);
    }

    /// The structured trace-event stream (op events recorded by the
    /// harness, gcast/view/fault events recorded in here), stamped with
    /// sim-time micros.
    pub fn trace_buf(&self) -> &Arc<TraceBuf> {
        &self.trace_buf
    }

    /// The recorded trace (empty unless `record_trace` was set).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Immutable access to a node's actor (for assertions in tests and for
    /// the harness to inspect server state).
    pub fn actor(&self, node: NodeId) -> &A {
        &self.arena.actors[node.index()]
    }

    /// True iff outputs were emitted since the last
    /// [`take_outputs`](Self::take_outputs).
    pub fn has_outputs(&self) -> bool {
        !self.outputs.is_empty()
    }

    /// Drains the outputs emitted since the last call. It publishes
    /// nothing: a driver that drains after every completed op would
    /// otherwise store every engine total once per op, and the registry
    /// is published when it is read instead
    /// ([`telemetry`](Self::telemetry)).
    pub fn take_outputs(&mut self) -> Vec<(SimTime, NodeId, A::Output)> {
        std::mem::take(&mut self.outputs)
    }

    /// Schedules delivery of `msg` to `node` at absolute time `at` without
    /// bus cost — the injection point for client requests.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn inject(&mut self, at: SimTime, node: NodeId, msg: A::Msg) {
        assert!(at >= self.now, "cannot inject into the past");
        let bytes = msg.wire_size();
        self.queue.push(
            at,
            Event::Deliver {
                to: node,
                from: node,
                msg,
                bytes,
                via_bus: false,
            },
        );
    }

    /// Applies a fault script (crashes and repairs become engine events).
    pub fn apply_faults(&mut self, script: &FaultScript) {
        for (t, ev) in script.events() {
            match ev {
                Fault::Crash(m) => {
                    self.queue.push(
                        *t,
                        Event::Crash {
                            node: *m,
                            churn: false,
                        },
                    );
                }
                Fault::Repair(m) => {
                    self.queue.push(
                        *t,
                        Event::Repair {
                            node: *m,
                            churn: false,
                        },
                    );
                }
            }
        }
    }

    /// Crashes a machine right now (test convenience).
    pub fn crash_now(&mut self, node: NodeId) {
        self.queue
            .push(self.now, Event::Crash { node, churn: false });
    }

    /// Repairs a machine right now; it completes initialization after the
    /// configured bounded delay (test convenience).
    pub fn repair_now(&mut self, node: NodeId) {
        self.queue
            .push(self.now, Event::Repair { node, churn: false });
    }

    pub(crate) fn schedule_churn_tick(&mut self, churn: &ChurnModel) {
        // Aggregate arrival rate n·r, thinned at tick time by the up
        // check — an exact simulation of per-up-machine rate r.
        let mean_us = 1e6 / (churn.crash_rate_hz * self.config.n as f64);
        let gap = SimTime::from_micros(exp_micros(&mut self.rng, mean_us).max(1));
        self.queue.push(self.now + gap, Event::ChurnTick);
    }

    /// Sends one already-costed message: consults the fault plan, applies
    /// the network model, and queues the delivery.
    fn send_one(&mut self, from: NodeId, to: NodeId, msg: A::Msg, bytes: usize) {
        let cost = self.config.cost_model.msg_cost(bytes);
        let tx = self.config.cost_model.tx_time(bytes);
        self.stats.msgs_sent += 1;
        self.stats.total_msg_cost += cost;
        self.stats.total_bytes += bytes as u64;
        self.tel
            .get_mut()
            .record(metrics::NET_MSG_BYTES, bytes as u64);

        // Injected link faults (messages are paid for whether or not the
        // network then mangles them).
        let mut injected = 0u64;
        let mut jitter = 0u64;
        if !self.fault_pass_through {
            let d = self
                .config
                .fault_plan
                .decide_detailed(from, to, &mut self.rng);
            match d.fate {
                LinkFate::Drop => {
                    self.stats.dropped_msgs += 1;
                    self.trace_buf.record(
                        self.now.as_micros(),
                        from.0,
                        TraceKind::NetDrop { to: to.0 },
                    );
                    if self.config.record_trace {
                        self.trace.push(TraceEntry::Drop { time: self.now, to });
                    }
                    // The frame still went out: on the bus model it
                    // occupied the shared medium before being lost.
                    if self.config.net == NetModel::Bus {
                        let start = self.now.max(self.bus_free_at);
                        self.bus_free_at = start + tx;
                        self.stats.bus_busy_micros += tx.as_micros();
                    }
                    return;
                }
                LinkFate::Delay(d_us) => {
                    injected = d_us;
                    jitter = d.jitter_micros;
                }
                LinkFate::Deliver => {}
            }
        }

        let mut deliver_at = match &self.config.net {
            NetModel::Bus => {
                let start = self.now.max(self.bus_free_at);
                let t = start + tx;
                self.bus_free_at = t;
                self.stats.bus_busy_micros += tx.as_micros();
                t
            }
            NetModel::Switched(model) => {
                let s = model.sample(from, to, &mut self.rng);
                injected += s.total_micros;
                jitter += s.jitter_micros;
                self.now + tx + SimTime::from_micros(s.total_micros)
            }
        };
        if injected > 0 || matches!(self.config.net, NetModel::Switched(_)) {
            let tel = self.tel.get_mut();
            tel.record(metrics::NET_LINK_LATENCY_MICROS, injected);
            tel.record(metrics::NET_LINK_JITTER_MICROS, jitter);
        }
        if injected > 0 {
            // Under the bus model the fault-plan delay happens after the
            // transmission slot (the switch's latency already includes it
            // in `injected`).
            if self.config.net == NetModel::Bus {
                deliver_at += SimTime::from_micros(injected);
            }
            self.trace_buf.record(
                self.now.as_micros(),
                from.0,
                TraceKind::NetDelay {
                    to: to.0,
                    micros: injected,
                },
            );
        }
        self.queue.push(
            deliver_at,
            Event::Deliver {
                to,
                from,
                msg,
                bytes,
                via_bus: true,
            },
        );
    }

    /// Runs the actor's handler for one event and applies its actions.
    fn dispatch_now(&mut self, node: NodeId, event: NodeEvent<A::Msg>) {
        if !self.arena.is_up(node) {
            return;
        }
        // The engine's one action buffer, out of `self` while the loop
        // below applies it and back in, drained, with its capacity.
        let mut actions = std::mem::take(&mut self.actions);
        drive_actor(
            &mut self.arena.actors[node.index()],
            node,
            self.config.n,
            self.now,
            &mut self.rng,
            event,
            &mut actions,
        );
        let epoch = self.arena.epoch[node.index()];
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    let tel = self.tel.get_mut();
                    tel.record(metrics::NET_WRITEV_BATCH_FRAMES, 1);
                    tel.record(metrics::NET_WRITEV_BATCH_BYTES, bytes as u64);
                    self.send_one(node, to, msg, bytes);
                }
                Action::SendMany { to, msg } => {
                    // Sized once for the whole fan-out; each copy still
                    // pays α + β·|m| and serializes on the bus in turn.
                    let bytes = msg.wire_size();
                    let tel = self.tel.get_mut();
                    tel.record(metrics::NET_WRITEV_BATCH_FRAMES, to.len() as u64);
                    tel.record(metrics::NET_WRITEV_BATCH_BYTES, (bytes * to.len()) as u64);
                    for target in to {
                        self.send_one(node, target, msg.clone(), bytes);
                    }
                }
                Action::SendLocal { msg } => {
                    let bytes = msg.wire_size();
                    self.queue.push(
                        self.now,
                        Event::Deliver {
                            to: node,
                            from: node,
                            msg,
                            bytes,
                            via_bus: false,
                        },
                    );
                }
                Action::SetTimer { delay, tag } => {
                    let key = self
                        .queue
                        .push(self.now + delay, Event::Timer { node, tag, epoch });
                    let timers = &mut self.arena.timers[node.index()];
                    // Opportunistic compaction keeps the list at the true
                    // number of outstanding timers (amortized O(1)).
                    if timers.len() >= 16 {
                        let queue = &self.queue;
                        timers.retain(|k| queue.is_live(*k));
                    }
                    timers.push(key);
                }
                Action::CancelTimer { tag } => self.cancel_timers(node, tag),
                Action::Emit(out) => self.outputs.push((self.now, node, out)),
                Action::Work(units) => self.stats.charge(node, units),
                Action::Count(id, delta) => self.stats.bump(id, delta),
                Action::Record(id, value) => self.tel.get_mut().record(id, value),
                Action::Trace(kind) => {
                    self.trace_buf.record(self.now.as_micros(), node.0, kind);
                }
            }
        }
        self.actions = actions;
    }

    /// Removes `node`'s pending timers set with `tag` from the queue, and
    /// drops the keys of fired timers from its list on the way.
    fn cancel_timers(&mut self, node: NodeId, tag: u64) {
        let queue = &mut self.queue;
        self.arena.timers[node.index()].retain(|&key| {
            let hit = matches!(queue.get(key), Some(Event::Timer { tag: t, .. }) if *t == tag);
            if hit {
                queue.cancel(key);
            }
            !hit && queue.is_live(key)
        });
    }

    /// Notifies every up node (other than `about`) of a membership change.
    fn notify_peers(&mut self, about: NodeId, crashed: bool) {
        for i in 0..self.config.n {
            let peer = NodeId(i as u32);
            if peer != about && self.arena.status[i].is_up() {
                let ev = if crashed {
                    NodeEvent::PeerCrashed(about)
                } else {
                    NodeEvent::PeerRecovered(about)
                };
                self.dispatch_now(peer, ev);
            }
        }
    }

    /// Crashes `node` at the current instant (shared by scripted crashes
    /// and churn ticks). No-op when already crashed.
    fn do_crash(&mut self, node: NodeId, churn: bool) {
        let i = node.index();
        if self.arena.status[i] == MachineStatus::Crashed {
            return; // already down; ignore
        }
        self.arena.status[i] = MachineStatus::Crashed;
        self.arena.epoch[i] += 1;
        // Memory erasure: replace the actor with a blank one now so
        // no state survives even if inspected.
        self.arena.actors[i] = (self.factory)(node);
        // The incarnation's timers die with it — cancelled outright
        // instead of tombstoning the queue.
        let timers = std::mem::take(&mut self.arena.timers[i]);
        for key in timers {
            let _ = self.queue.cancel(key);
        }
        self.concurrent_failures += 1;
        self.stats.crashes += 1;
        self.stats.max_concurrent_failures = self
            .stats
            .max_concurrent_failures
            .max(self.concurrent_failures);
        if churn {
            self.arena.churned[i] = true;
            self.stats.bump(metrics::FAULT_CHURN_CRASHES, 1.0);
            let churn_model = self.config.churn.expect("churn crash without model");
            let downtime = exp_micros(&mut self.rng, churn_model.mean_downtime.as_micros() as f64);
            self.queue.push(
                self.now + SimTime::from_micros(downtime),
                Event::Repair { node, churn: true },
            );
        }
        self.trace_buf
            .record(self.now.as_micros(), node.0, TraceKind::Crash);
        if self.config.record_trace {
            self.trace.push(TraceEntry::Crash {
                time: self.now,
                node,
            });
        }
        if self.config.membership_oracle {
            self.notify_peers(node, true);
        }
    }

    /// Processes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, _seq, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.stats.events_processed += 1;
        match event {
            Event::Deliver {
                to,
                from,
                msg,
                bytes,
                via_bus,
            } => {
                let up = self.arena.is_up(to);
                if via_bus {
                    // One delivery = one readiness wakeup of the
                    // receiving node (the simulator's poll(2) analog).
                    self.tel.get_mut().record(metrics::NET_POLL_WAKEUPS, 1);
                }
                if up {
                    if self.config.record_trace {
                        self.trace.push(TraceEntry::Deliver {
                            time: self.now,
                            from,
                            to,
                            bytes,
                        });
                    }
                    self.dispatch_now(to, NodeEvent::Message { from, msg });
                } else {
                    if via_bus {
                        self.stats.dropped_msgs += 1;
                    }
                    if self.config.record_trace {
                        self.trace.push(TraceEntry::Drop { time: self.now, to });
                    }
                }
            }
            Event::Timer { node, tag, epoch } => {
                let i = node.index();
                if self.arena.status[i].is_up() && self.arena.epoch[i] == epoch {
                    self.dispatch_now(node, NodeEvent::Timer { tag });
                }
            }
            Event::Crash { node, churn } => {
                self.do_crash(node, churn);
            }
            Event::Repair { node, .. } => {
                let i = node.index();
                if self.arena.status[i] != MachineStatus::Crashed {
                    return true; // spurious repair; ignore
                }
                self.arena.status[i] = MachineStatus::Initializing;
                let epoch = self.arena.epoch[i];
                let lo = self.config.init_min.as_micros();
                let hi = self.config.init_max.as_micros().max(lo + 1);
                let d = SimTime::from_micros(self.rng.gen_range(lo..hi));
                self.queue
                    .push(self.now + d, Event::InitDone { node, epoch });
            }
            Event::InitDone { node, epoch } => {
                let i = node.index();
                if self.arena.status[i] != MachineStatus::Initializing
                    || self.arena.epoch[i] != epoch
                {
                    return true;
                }
                self.arena.status[i] = MachineStatus::Up;
                self.concurrent_failures -= 1;
                self.stats.recoveries += 1;
                if self.arena.churned[i] {
                    self.arena.churned[i] = false;
                    self.stats.bump(metrics::FAULT_CHURN_RECOVERIES, 1.0);
                }
                self.trace_buf
                    .record(self.now.as_micros(), node.0, TraceKind::Recover);
                if self.config.record_trace {
                    self.trace.push(TraceEntry::Recover {
                        time: self.now,
                        node,
                    });
                }
                self.dispatch_now(node, NodeEvent::Recovered);
                if self.config.membership_oracle {
                    // Brief the fresh incarnation on peers that are
                    // currently down, so its view of the ensemble matches
                    // the oracle's.
                    let down: Vec<NodeId> = (0..self.config.n)
                        .map(|i| NodeId(i as u32))
                        .filter(|p| *p != node && !self.arena.is_up(*p))
                        .collect();
                    for p in down {
                        self.dispatch_now(node, NodeEvent::PeerCrashed(p));
                    }
                    self.notify_peers(node, false);
                }
            }
            Event::ChurnTick => {
                // A checkpoint taken under churn carries a pending tick; a
                // branch that restores it with churn disabled just lets the
                // tick expire instead of panicking.
                let Some(churn) = self.config.churn else {
                    return true;
                };
                // Fixed draw order: victim, next gap, then (inside the
                // crash) the downtime.
                let victim = NodeId(self.rng.gen_range(0..self.config.n as u32));
                self.schedule_churn_tick(&churn);
                if self.arena.is_up(victim) && self.concurrent_failures < churn.max_concurrent {
                    self.do_crash(victim, true);
                }
            }
        }
        true
    }

    /// Runs until the queue is empty or simulated time would exceed
    /// `until`. Returns the time of the last processed event.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        while let Some((head, _)) = self.queue.peek() {
            if head > until {
                break;
            }
            self.step();
        }
        self.flush_telemetry();
        self.now
    }

    /// Runs to quiescence (empty queue), with a safety cap on event count.
    ///
    /// Note: with churn enabled the queue never drains (the next tick is
    /// always pending); use [`run_until`](Self::run_until) instead.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_events` events are processed — which almost
    /// always means an actor is rescheduling timers forever.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> SimTime {
        let mut processed = 0u64;
        while self.step() {
            processed += 1;
            assert!(
                processed <= max_events,
                "no quiescence after {max_events} events — livelock?"
            );
        }
        self.flush_telemetry();
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::fault::{DelayDist, LatencyModel};

    /// A toy actor: forwards a counter around the ring `k` times.
    struct Ring {
        id: NodeId,
        received: Vec<u32>,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Token(u32);

    impl WireSized for Token {
        fn wire_size(&self) -> usize {
            64
        }
    }

    impl Actor for Ring {
        type Msg = Token;
        type Output = u32;

        fn handle(&mut self, ctx: &mut Context<'_, Token, u32>, event: NodeEvent<Token>) {
            if let NodeEvent::Message { msg, .. } = event {
                self.received.push(msg.0);
                ctx.emit(msg.0);
                ctx.charge_work(1);
                if msg.0 > 0 {
                    let next = NodeId((self.id.0 + 1) % ctx.n() as u32);
                    ctx.send(next, Token(msg.0 - 1));
                }
            }
        }
    }

    fn ring_engine(n: usize) -> Engine<Ring> {
        Engine::new(EngineConfig::for_tests(n), |id| Ring {
            id,
            received: Vec::new(),
        })
    }

    #[test]
    fn token_travels_the_ring() {
        let mut e = ring_engine(4);
        e.inject(SimTime::ZERO, NodeId(0), Token(7));
        e.run_to_quiescence(1000);
        let outputs = e.take_outputs();
        assert_eq!(outputs.len(), 8); // 7..=0
        assert_eq!(outputs[0].2, 7);
        assert_eq!(outputs.last().unwrap().2, 0);
        // Each hop after the injection used the bus.
        assert_eq!(e.stats().msgs_sent, 7);
        assert_eq!(e.stats().total_bytes, 7 * 64);
        assert_eq!(e.stats().total_work(), 8);
        assert!(e.stats().events_processed >= 8);
    }

    #[test]
    fn bus_serializes_transmissions() {
        // Two simultaneous sends: the second is delayed behind the first.
        struct Burst;
        #[derive(Debug, Clone)]
        struct B;
        impl WireSized for B {
            fn wire_size(&self) -> usize {
                100
            }
        }
        impl Actor for Burst {
            type Msg = B;
            type Output = SimTime;
            fn handle(&mut self, ctx: &mut Context<'_, B, SimTime>, event: NodeEvent<B>) {
                match event {
                    NodeEvent::Start if ctx.id() == NodeId(0) => {
                        ctx.send(NodeId(1), B);
                        ctx.send(NodeId(1), B);
                    }
                    NodeEvent::Message { .. } => {
                        let t = ctx.now();
                        ctx.emit(t);
                    }
                    _ => {}
                }
            }
        }
        let mut e = Engine::new(EngineConfig::for_tests(2), |_| Burst);
        e.run_to_quiescence(100);
        let outs = e.take_outputs();
        assert_eq!(outs.len(), 2);
        let tx = CostModel::new(10.0, 0.1).tx_time(100);
        assert_eq!(outs[0].0, tx);
        assert_eq!(outs[1].0, tx + tx, "second message waits for the bus");
    }

    #[test]
    fn switched_net_does_not_serialize_transmissions() {
        struct Burst;
        #[derive(Debug, Clone)]
        struct B;
        impl WireSized for B {
            fn wire_size(&self) -> usize {
                100
            }
        }
        impl Actor for Burst {
            type Msg = B;
            type Output = SimTime;
            fn handle(&mut self, ctx: &mut Context<'_, B, SimTime>, event: NodeEvent<B>) {
                match event {
                    NodeEvent::Start if ctx.id() == NodeId(0) => {
                        ctx.send(NodeId(1), B);
                        ctx.send(NodeId(1), B);
                    }
                    NodeEvent::Message { .. } => {
                        let t = ctx.now();
                        ctx.emit(t);
                    }
                    _ => {}
                }
            }
        }
        let mut cfg = EngineConfig::for_tests(2);
        cfg.net = NetModel::Switched(LatencyModel::uniform(DelayDist::fixed(500)));
        let mut e = Engine::new(cfg, |_| Burst);
        e.run_to_quiescence(100);
        let outs = e.take_outputs();
        assert_eq!(outs.len(), 2);
        let tx = CostModel::new(10.0, 0.1).tx_time(100);
        let expect = tx + SimTime::from_micros(500);
        assert_eq!(outs[0].0, expect);
        assert_eq!(
            outs[1].0, expect,
            "point-to-point links do not queue behind each other"
        );
        // Both messages still paid full cost, and the latency histogram
        // saw both traversals.
        assert_eq!(e.stats().msgs_sent, 2);
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.hist("net.link.latency_micros").count, 2);
        assert_eq!(snap.hist("net.link.latency_micros").min, 500);
    }

    #[test]
    fn fault_plan_drops_and_delays_inside_the_engine() {
        // Drop everything: the token dies on its first hop.
        let mut cfg = EngineConfig::for_tests(3);
        cfg.fault_plan = FaultPlan::none().drop_all(1.0);
        let mut e = Engine::new(cfg, |id| Ring {
            id,
            received: Vec::new(),
        });
        e.inject(SimTime::ZERO, NodeId(0), Token(5));
        e.run_to_quiescence(100);
        assert_eq!(e.take_outputs().len(), 1, "only the injected delivery");
        assert_eq!(e.stats().msgs_sent, 1);
        assert_eq!(e.stats().dropped_msgs, 1);
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.counter("net.msgs_dropped"), 1.0);

        // Delay with jitter: delivery is late and both histograms fill.
        let mut cfg = EngineConfig::for_tests(3);
        cfg.fault_plan = FaultPlan::none()
            .delay_all(DelayDist::fixed(1000))
            .jitter_all(DelayDist::uniform(1, 9));
        let mut e = Engine::new(cfg, |id| Ring {
            id,
            received: Vec::new(),
        });
        e.inject(SimTime::ZERO, NodeId(0), Token(1));
        e.run_to_quiescence(100);
        let outs = e.take_outputs();
        assert_eq!(outs.len(), 2);
        assert!(outs[1].0 >= SimTime::from_micros(1000), "delayed delivery");
        let snap = e.telemetry().snapshot();
        let lat = snap.hist("net.link.latency_micros");
        assert_eq!(lat.count, 1);
        assert!(lat.min >= 1001 && lat.max <= 1009);
        assert_eq!(snap.hist("net.link.jitter_micros").count, 1);
    }

    #[test]
    fn crash_erases_state_and_notifies_peers() {
        struct Watch {
            saw_crash: Vec<NodeId>,
            counter: u32,
        }
        #[derive(Debug, Clone)]
        struct Nop;
        impl WireSized for Nop {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl Actor for Watch {
            type Msg = Nop;
            type Output = (Vec<NodeId>, u32);
            fn handle(&mut self, ctx: &mut Context<'_, Nop, Self::Output>, event: NodeEvent<Nop>) {
                match event {
                    NodeEvent::Message { .. } => self.counter += 1,
                    NodeEvent::PeerCrashed(p) => {
                        self.saw_crash.push(p);
                        let report = (self.saw_crash.clone(), self.counter);
                        ctx.emit(report);
                    }
                    _ => {}
                }
            }
        }
        let mut e = Engine::new(EngineConfig::for_tests(3), |_| Watch {
            saw_crash: Vec::new(),
            counter: 0,
        });
        e.inject(SimTime::ZERO, NodeId(1), Nop);
        e.run_to_quiescence(100);
        e.crash_now(NodeId(1));
        e.run_to_quiescence(100);
        // Peers 0 and 2 observed the crash.
        let outs = e.take_outputs();
        assert_eq!(outs.len(), 2);
        assert_eq!(e.status(NodeId(1)), MachineStatus::Crashed);
        // Node 1's counter was erased with its actor.
        assert_eq!(e.actor(NodeId(1)).counter, 0);
        assert_eq!(e.stats().crashes, 1);
        assert_eq!(e.stats().max_concurrent_failures, 1);
    }

    #[test]
    fn membership_oracle_off_suppresses_peer_events() {
        struct Watch {
            saw: u32,
        }
        #[derive(Debug, Clone)]
        struct Nop;
        impl WireSized for Nop {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl Actor for Watch {
            type Msg = Nop;
            type Output = ();
            fn handle(&mut self, ctx: &mut Context<'_, Nop, ()>, event: NodeEvent<Nop>) {
                if matches!(
                    event,
                    NodeEvent::PeerCrashed(_) | NodeEvent::PeerRecovered(_)
                ) {
                    self.saw += 1;
                    ctx.emit(());
                }
            }
        }
        let mut cfg = EngineConfig::for_tests(3);
        cfg.membership_oracle = false;
        let mut e = Engine::new(cfg, |_| Watch { saw: 0 });
        e.crash_now(NodeId(1));
        e.run_to_quiescence(100);
        e.repair_now(NodeId(1));
        e.run_to_quiescence(100);
        assert!(e.take_outputs().is_empty(), "oracle is off");
        assert_eq!(e.status(NodeId(1)), MachineStatus::Up);
    }

    #[test]
    fn messages_to_down_nodes_are_dropped_but_paid_for() {
        let mut e = ring_engine(3);
        e.crash_now(NodeId(1));
        e.run_to_quiescence(10);
        e.inject(SimTime::from_millis(1), NodeId(0), Token(2));
        e.run_to_quiescence(100);
        // Token: 0 →(bus) 1 (dropped). One send, one drop.
        assert_eq!(e.stats().msgs_sent, 1);
        assert_eq!(e.stats().dropped_msgs, 1);
    }

    #[test]
    fn recovery_goes_through_initializing() {
        let mut e = ring_engine(2);
        e.crash_now(NodeId(0));
        e.run_to_quiescence(10);
        e.repair_now(NodeId(0));
        assert!(e.step()); // process the repair
        assert_eq!(e.status(NodeId(0)), MachineStatus::Initializing);
        e.run_to_quiescence(10);
        assert_eq!(e.status(NodeId(0)), MachineStatus::Up);
        assert_eq!(e.stats().recoveries, 1);
    }

    #[test]
    fn timers_die_with_crash() {
        struct T {
            fired: bool,
        }
        #[derive(Debug, Clone)]
        struct Nop;
        impl WireSized for Nop {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl Actor for T {
            type Msg = Nop;
            type Output = ();
            fn handle(&mut self, ctx: &mut Context<'_, Nop, ()>, event: NodeEvent<Nop>) {
                match event {
                    NodeEvent::Start => ctx.set_timer(SimTime::from_millis(10), 1),
                    NodeEvent::Timer { .. } => {
                        self.fired = true;
                        ctx.emit(());
                    }
                    _ => {}
                }
            }
        }
        let mut e = Engine::new(EngineConfig::for_tests(1), |_| T { fired: false });
        e.crash_now(NodeId(0));
        e.run_to_quiescence(100);
        assert!(
            e.take_outputs().is_empty(),
            "timer from dead incarnation must not fire"
        );
    }

    #[test]
    fn crash_cancels_timers_out_of_the_queue() {
        // The O(log n) cancellation path: after the crash the timer is
        // *gone from the queue*, not tombstoned — quiescence arrives
        // without ever processing it.
        struct T;
        #[derive(Debug, Clone)]
        struct Nop;
        impl WireSized for Nop {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl Actor for T {
            type Msg = Nop;
            type Output = ();
            fn handle(&mut self, ctx: &mut Context<'_, Nop, ()>, event: NodeEvent<Nop>) {
                if matches!(event, NodeEvent::Start) {
                    for tag in 0..40 {
                        ctx.set_timer(SimTime::from_secs(1000 + tag), tag);
                    }
                }
            }
        }
        let mut e = Engine::new(EngineConfig::for_tests(1), |_| T);
        let pending_before = e.queue.len();
        assert!(pending_before >= 40);
        e.crash_now(NodeId(0));
        assert!(e.step()); // the crash event
        assert!(
            e.queue.is_empty(),
            "all 40 timers cancelled in place, queue now empty"
        );
        // And the far-future timers never execute (fast quiescence).
        assert_eq!(e.stats().events_processed, 1);
    }

    /// Sets timers tag 1 at 5 and 10 ms and tag 2 at 7 ms on start,
    /// cancels the tag a `Cancel` message names, and emits each tag that
    /// fires.
    struct Alarm;
    #[derive(Debug, Clone)]
    struct Cancel(u64);
    impl WireSized for Cancel {
        fn wire_size(&self) -> usize {
            8
        }
    }
    impl Actor for Alarm {
        type Msg = Cancel;
        type Output = u64;
        fn handle(&mut self, ctx: &mut Context<'_, Cancel, u64>, event: NodeEvent<Cancel>) {
            match event {
                NodeEvent::Start => {
                    ctx.set_timer(SimTime::from_millis(5), 1);
                    ctx.set_timer(SimTime::from_millis(7), 2);
                    ctx.set_timer(SimTime::from_millis(10), 1);
                }
                NodeEvent::Message { msg, .. } => ctx.cancel_timer(msg.0),
                NodeEvent::Timer { tag } => ctx.emit(tag),
                _ => {}
            }
        }
    }

    /// `(ms, node, tag)` of every timer that fired.
    fn fired(e: &mut Engine<Alarm>) -> Vec<(u64, u32, u64)> {
        e.run_to_quiescence(100);
        e.take_outputs()
            .into_iter()
            .map(|(t, node, tag)| (t.as_micros() / 1000, node.0, tag))
            .collect()
    }

    #[test]
    fn a_cancelled_timer_never_fires() {
        let mut e = Engine::new(EngineConfig::for_tests(1), |_| Alarm);
        e.inject(SimTime::from_millis(1), NodeId(0), Cancel(1));
        assert_eq!(fired(&mut e), [(7, 0, 2)]);
        // The injection and tag 2: both tag-1 timers left the queue
        // unprocessed, and the node's key list holds nothing stale.
        assert_eq!(e.stats().events_processed, 2);
        assert!(e.queue.is_empty());
        e.inject(e.now(), NodeId(0), Cancel(2));
        e.run_to_quiescence(10);
        assert!(e.arena.timers[0].is_empty());
    }

    #[test]
    fn cancelling_an_unknown_or_fired_tag_does_nothing() {
        let mut e = Engine::new(EngineConfig::for_tests(1), |_| Alarm);
        e.inject(SimTime::from_millis(1), NodeId(0), Cancel(9));
        // Tag 2 has fired by 8 ms; cancelling it again touches nothing.
        e.inject(SimTime::from_millis(8), NodeId(0), Cancel(2));
        assert_eq!(fired(&mut e), [(5, 0, 1), (7, 0, 2), (10, 0, 1)]);
        assert_eq!(e.stats().events_processed, 5);
    }

    #[test]
    fn cancel_drops_only_that_nodes_timers_with_that_tag() {
        let mut e = Engine::new(EngineConfig::for_tests(2), |_| Alarm);
        e.inject(SimTime::from_millis(1), NodeId(0), Cancel(1));
        assert_eq!(fired(&mut e), [(5, 1, 1), (7, 0, 2), (7, 1, 2), (10, 1, 1)]);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let mut cfg = EngineConfig::for_tests(4);
            cfg.seed = seed;
            cfg.record_trace = true;
            let mut e = Engine::new(cfg, |id| Ring {
                id,
                received: Vec::new(),
            });
            e.inject(SimTime::ZERO, NodeId(0), Token(20));
            e.crash_now(NodeId(2));
            e.repair_now(NodeId(2));
            e.run_to_quiescence(10_000);
            (e.trace().clone(), e.stats().total_msg_cost)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn churn_crashes_and_recovers_machines() {
        let mut cfg = EngineConfig::for_tests(8);
        cfg.churn = Some(ChurnModel::new(
            20.0, // per-machine crashes/s — fast, so a short run churns
            SimTime::from_millis(5),
            2,
        ));
        let mut e = Engine::new(cfg, |id| Ring {
            id,
            received: Vec::new(),
        });
        e.run_until(SimTime::from_secs(2));
        let stats = e.stats();
        assert!(stats.crashes > 0, "churn produced no crashes");
        assert!(stats.recoveries > 0, "churn produced no recoveries");
        assert!(
            stats.max_concurrent_failures <= 2,
            "churn exceeded its λ cap: {}",
            stats.max_concurrent_failures
        );
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.counter("fault.churn.crashes"), stats.crashes as f64);
        assert!(snap.counter("fault.churn.recoveries") > 0.0);
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let run = |seed| {
            let mut cfg = EngineConfig::for_tests(6);
            cfg.seed = seed;
            cfg.record_trace = true;
            cfg.churn = Some(ChurnModel::new(10.0, SimTime::from_millis(10), 3));
            let mut e = Engine::new(cfg, |id| Ring {
                id,
                received: Vec::new(),
            });
            e.run_until(SimTime::from_secs(3));
            (e.trace().clone(), e.stats().crashes, e.stats().recoveries)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut e = ring_engine(2);
        e.inject(SimTime::from_secs(10), NodeId(0), Token(1));
        let t = e.run_until(SimTime::from_secs(1));
        assert!(t <= SimTime::from_secs(1));
        // The injected event is still pending.
        e.run_to_quiescence(100);
        assert_eq!(e.take_outputs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn quiescence_cap_detects_livelock() {
        struct Loop;
        #[derive(Debug, Clone)]
        struct Nop;
        impl WireSized for Nop {
            fn wire_size(&self) -> usize {
                1
            }
        }
        impl Actor for Loop {
            type Msg = Nop;
            type Output = ();
            fn handle(&mut self, ctx: &mut Context<'_, Nop, ()>, event: NodeEvent<Nop>) {
                match event {
                    NodeEvent::Start | NodeEvent::Timer { .. } => {
                        ctx.set_timer(SimTime::from_micros(1), 0)
                    }
                    _ => {}
                }
            }
        }
        let mut e = Engine::new(EngineConfig::for_tests(1), |_| Loop);
        e.run_to_quiescence(100);
    }

    #[test]
    fn fault_script_application() {
        let script = FaultScript::scripted(vec![
            (SimTime::from_millis(5), Fault::Crash(NodeId(0))),
            (SimTime::from_millis(50), Fault::Repair(NodeId(0))),
        ]);
        let mut e = ring_engine(2);
        e.apply_faults(&script);
        e.run_to_quiescence(100);
        assert_eq!(e.stats().crashes, 1);
        assert_eq!(e.stats().recoveries, 1);
        assert_eq!(e.status(NodeId(0)), MachineStatus::Up);
    }
}

#[cfg(test)]
mod drive_actor_tests {
    //! `drive_actor`, the one dispatch routine of the engine, the live
    //! runtime and the test harnesses.

    use super::*;
    use rand::SeedableRng;

    struct Echo;

    #[derive(Debug, Clone)]
    struct Ping(u8);

    impl WireSized for Ping {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl Actor for Echo {
        type Msg = Ping;
        type Output = u8;

        fn handle(&mut self, ctx: &mut crate::Context<'_, Ping, u8>, ev: NodeEvent<Ping>) {
            match ev {
                NodeEvent::Start => ctx.set_timer(SimTime::from_millis(1), 9),
                NodeEvent::Message { from, msg } => {
                    ctx.emit(msg.0);
                    if msg.0 > 0 {
                        ctx.send(from, Ping(msg.0 - 1));
                        ctx.send_local(Ping(0));
                        ctx.charge_work(3);
                        ctx.count(metrics::OP_RETRY_REPLAYED, 1.0);
                    }
                }
                NodeEvent::Timer { tag } => ctx.emit(tag as u8),
                _ => {}
            }
        }
    }

    type Actions = Vec<Action<Ping, u8>>;

    /// Drives one `Ping(v)` from `NodeId(2)` into `actions`.
    fn ping(actions: &mut Actions, rng: &mut ChaCha8Rng, v: u8) {
        let ev = NodeEvent::Message {
            from: NodeId(2),
            msg: Ping(v),
        };
        drive_actor(&mut Echo, NodeId(1), 4, SimTime::ZERO, rng, ev, actions);
    }

    /// The five actions one `Ping(v)` with `v > 0` issues, in issue order.
    fn assert_echo_of(actions: &Actions, v: u8) {
        assert_eq!(actions.len(), 5);
        assert!(matches!(actions[0], Action::Emit(e) if e == v));
        assert!(matches!(
            actions[1],
            Action::Send { to: NodeId(2), msg: Ping(m) } if m == v - 1
        ));
        assert!(matches!(actions[2], Action::SendLocal { msg: Ping(0) }));
        assert!(matches!(actions[3], Action::Work(3)));
        assert!(matches!(
            actions[4],
            Action::Count(metrics::OP_RETRY_REPLAYED, _)
        ));
    }

    #[test]
    fn drive_actor_returns_all_actions_in_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut actions = Vec::new();
        ping(&mut actions, &mut rng, 7);
        assert_echo_of(&actions, 7);
    }

    #[test]
    fn drive_actor_reuses_a_drained_buffer() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut actions = Vec::new();
        ping(&mut actions, &mut rng, 7);
        let (cap, ptr) = (actions.capacity(), actions.as_ptr());
        assert_eq!(actions.drain(..).count(), 5);
        ping(&mut actions, &mut rng, 4);
        assert_eq!(actions.capacity(), cap, "same capacity");
        assert_eq!(actions.as_ptr(), ptr, "same allocation");
        assert_echo_of(&actions, 4);
    }

    #[test]
    fn drive_actor_timers_surface_as_actions() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut actions = Vec::new();
        drive_actor(
            &mut Echo,
            NodeId(0),
            1,
            SimTime::ZERO,
            &mut rng,
            NodeEvent::Start,
            &mut actions,
        );
        assert_eq!(actions.len(), 1);
        assert!(
            matches!(actions[0], Action::SetTimer { delay, tag: 9 } if delay == SimTime::from_millis(1))
        );
    }

    #[test]
    fn drive_actor_is_the_engines_only_context() {
        // The engine dispatches through `drive_actor` like every other
        // driver; a `Context` built here would be a second dispatch path.
        let src = include_str!("engine.rs");
        let body = &src[..src.find("#[cfg(test)]").expect("engine.rs has tests")];
        assert!(!body.contains("Context {"));
        assert!(body.contains("drive_actor("));
    }

    #[test]
    fn engine_leaves_its_action_buffer_drained() {
        let mut e = Engine::new(EngineConfig::for_tests(2), |_| Echo);
        e.inject(SimTime::ZERO, NodeId(0), Ping(3));
        e.run_to_quiescence(1000);
        assert!(e.actions.is_empty());
        assert!(e.actions.capacity() >= 5, "kept for the next dispatch");
        // Pings 3..=0, three local `Ping(0)`s, and both nodes' start timers.
        assert_eq!(e.take_outputs().len(), 9);
    }

    #[test]
    fn bus_busy_accumulates_transmission_time() {
        let mut e = Engine::new(EngineConfig::for_tests(2), |_| Echo);
        e.inject(SimTime::ZERO, NodeId(0), Ping(1));
        e.run_to_quiescence(1000);
        // One bus send (the echo back to self was local; the reply to the
        // injector's own node used the bus: from == to == NodeId(0) inject,
        // reply goes to NodeId(0) itself → via bus).
        assert!(e.stats().bus_busy_micros > 0);
        assert!(e.stats().bus_busy_micros <= e.now().as_micros());
    }
}
