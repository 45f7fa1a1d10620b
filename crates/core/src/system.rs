//! The simulated PASO system: machines + servers + vsync + faults, under
//! one deterministic harness.
//!
//! [`SimSystem`] is the top-level entry point for experiments and tests:
//! it wires a [`MemoryServer`] per machine into the virtual-synchrony
//! layer, runs them over the discrete-event bus LAN, injects client
//! operations, collects results, and records everything in a
//! [`RunLog`] for the semantics checker.

use std::sync::Arc;

use paso_durable::DurabilityHub;
use paso_simnet::{
    Engine, EngineConfig, FaultScript, MachineStatus, NetModel, NodeId, SimTime, Stats,
};
use paso_telemetry::{metrics, HistId, Telemetry, TraceBuf, TraceEvent};
use paso_types::{Classifier, ObjectId, PasoObject, ProcessId, SearchCriterion, Value};
use paso_vsync::VsyncNode;

use crate::config::PasoConfig;
use crate::deployment::{Deployment, WalMedium};
use crate::groups::wg_group;
use crate::ledger::OpLedger;
use crate::semantics::{check_run, RunLog, SemanticsReport};
use crate::server::MemoryServer;
use crate::wire::{encode, AppMsg, ClientDone, ClientOp, ClientRequest, ClientResult};

/// Per-class snapshot of replication state (observability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// The class.
    pub class: paso_types::ClassId,
    /// Machines currently replicating the class (holding its store).
    pub replicas: Vec<u32>,
    /// The configured basic support `B(C)`.
    pub basic: Vec<u32>,
    /// Live objects in the class (as seen by the first replica).
    pub live: usize,
}

/// A whole-system snapshot: replication state per class plus machine
/// health — what an operator's dashboard would show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemReport {
    /// Per-class state.
    pub classes: Vec<ClassReport>,
    /// Machines currently up.
    pub up: Vec<u32>,
    /// Does the §4.1 fault-tolerance condition hold?
    pub fault_tolerance_ok: bool,
}

/// Bounds of the re-initialization phase a repaired machine spends
/// before it rejoins (§3.1: "bounded above and below"), scaled down from
/// the paper's minutes while staying ≫ message latency.
const INIT_MIN: SimTime = SimTime::from_millis(5);
const INIT_MAX: SimTime = SimTime::from_millis(10);

impl std::fmt::Display for SystemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "up: {:?}  fault-tolerance: {}",
            self.up,
            if self.fault_tolerance_ok {
                "OK"
            } else {
                "VIOLATED"
            }
        )?;
        for c in &self.classes {
            writeln!(
                f,
                "  {}: ℓ={} replicas={:?} basic={:?}",
                c.class, c.live, c.replicas, c.basic
            )?;
        }
        Ok(())
    }
}

/// A complete simulated PASO deployment.
///
/// # Examples
///
/// ```
/// use paso_core::{PasoConfig, SimSystem};
/// use paso_types::{SearchCriterion, Template, Value};
///
/// let mut sys = SimSystem::new(PasoConfig::builder(4, 1).build());
/// sys.insert(0, vec![Value::symbol("job"), Value::Int(1)]);
/// let sc = SearchCriterion::from(Template::exact(vec![
///     Value::symbol("job"),
///     Value::Int(1),
/// ]));
/// let got = sys.read(2, sc).expect("object is visible from any machine");
/// assert_eq!(got.field(1), Some(&Value::Int(1)));
/// assert!(sys.check_semantics().ok());
/// ```
pub struct SimSystem {
    engine: Engine<VsyncNode<MemoryServer>>,
    deployment: Arc<Deployment>,
    ledger: OpLedger,
    next_op: u64,
    next_obj: u64,
    log: RunLog,
}

impl std::fmt::Debug for SimSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSystem")
            .field("n", &self.config().n)
            .field("now", &self.engine.now())
            .field("ops_issued", &self.next_op)
            .finish_non_exhaustive()
    }
}

impl SimSystem {
    /// Builds and starts the system.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(cfg: PasoConfig) -> Self {
        let deployment = Arc::new(Deployment::new(cfg, WalMedium::Memory));
        let cfg = deployment.config();
        let engine_cfg = EngineConfig {
            n: cfg.n,
            cost_model: cfg.cost_model,
            seed: cfg.seed,
            init_min: INIT_MIN,
            init_max: INIT_MAX,
            record_trace: false,
            net: NetModel::Bus,
            fault_plan: cfg.fault_plan.clone(),
            churn: cfg.churn,
            membership_oracle: true,
        };
        let factory = Arc::clone(&deployment);
        let engine = Engine::new(engine_cfg, move |id| factory.node(id));
        let ledger = OpLedger::new(
            Arc::clone(engine.telemetry()),
            Arc::clone(engine.trace_buf()),
        );
        SimSystem {
            engine,
            deployment,
            ledger,
            next_op: 0,
            next_obj: 0,
            log: RunLog::new(),
        }
    }

    /// The shared durability hub, when `cfg.durable` is set — exposes
    /// per-node WAL byte accounting for experiments.
    pub fn durability_hub(&self) -> Option<&Arc<DurabilityHub>> {
        self.deployment.durability_hub()
    }

    /// The configuration in force.
    pub fn config(&self) -> &PasoConfig {
        self.deployment.config()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Simulation statistics (message cost, work, faults…).
    pub fn stats(&self) -> &Stats {
        self.engine.stats()
    }

    /// The run log for semantics checking.
    pub fn run_log(&self) -> &RunLog {
        &self.log
    }

    /// The unified metrics registry (same metric names as the live
    /// runtime's `Cluster::telemetry()`), with the engine's totals
    /// published into it on the way out.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.engine.telemetry()
    }

    /// The structured trace stream, stamped with sim-time micros.
    pub fn trace_buf(&self) -> &Arc<TraceBuf> {
        self.engine.trace_buf()
    }

    /// Copy of the recorded trace events — feed to
    /// [`paso_telemetry::check_trace`] for an A1–A3 verdict.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.engine.trace_buf().events()
    }

    /// The vsync node on `node` (for protocol-state assertions).
    pub fn vsync(&self, node: u32) -> &VsyncNode<MemoryServer> {
        self.engine.actor(NodeId(node))
    }

    /// The memory server on `node` (for state assertions).
    pub fn server(&self, node: u32) -> &MemoryServer {
        self.vsync(node).app()
    }

    /// The classifier (the global `obj-clss` / `sc-list`).
    pub fn classifier(&self) -> &dyn Classifier {
        self.deployment.classifier()
    }

    /// Machine status (up / crashed / initializing).
    pub fn status(&self, node: u32) -> MachineStatus {
        self.engine.status(NodeId(node))
    }

    fn inject_request(&mut self, node: u32, op: ClientOp) -> u64 {
        assert!(
            self.engine.status(NodeId(node)).is_up(),
            "m{node} is down: processes on crashed machines are halted (§3.1) and cannot issue requests"
        );
        let op_id = self.next_op;
        self.next_op += 1;
        self.log
            .issued(op_id, NodeId(node), op.clone(), self.engine.now());
        self.ledger
            .begin(self.engine.now().as_micros(), node, op_id, &op);
        let req = ClientRequest { op_id, op };
        self.engine.inject(
            self.engine.now(),
            NodeId(node),
            paso_vsync::NetMsg::App(encode(&AppMsg::Client(req))),
        );
        op_id
    }

    /// Issues an `insert` of a fresh object with the given fields from a
    /// process on `node`; returns `(op id, object id)`.
    pub fn issue_insert(&mut self, node: u32, fields: Vec<Value>) -> (u64, ObjectId) {
        let id = ObjectId::new(ProcessId(node as u64), self.next_obj);
        self.next_obj += 1;
        let object = PasoObject::new(id, fields);
        (self.inject_request(node, ClientOp::Insert { object }), id)
    }

    /// Issues a non-blocking (or blocking) `read`.
    pub fn issue_read(&mut self, node: u32, sc: SearchCriterion, blocking: bool) -> u64 {
        self.inject_request(node, ClientOp::Read { sc, blocking })
    }

    /// Issues a non-blocking (or blocking) `read&del`.
    pub fn issue_read_del(&mut self, node: u32, sc: SearchCriterion, blocking: bool) -> u64 {
        self.inject_request(node, ClientOp::ReadDel { sc, blocking })
    }

    /// Re-injects an already-issued request under the **same** op id —
    /// what a timed-out client's retry (or a proxy's idempotent
    /// re-forward) puts on the wire. The server must recognise the id in
    /// its `recent_done` dedup cache and replay the cached result; if
    /// the id has been evicted, the request executes again, which for an
    /// insert duplicates the object. No `client.op.*` counter or
    /// `OpBegin` trace is recorded: a retry is the *same* op.
    ///
    /// # Panics
    ///
    /// Panics if `op` was never issued or its machine is down.
    pub fn resend(&mut self, op: u64) {
        let rec = self.log.get(op).expect("resend of an op never issued");
        let (node, body) = (rec.node, rec.op.clone());
        assert!(
            self.engine.status(node).is_up(),
            "m{} is down: a halted machine cannot re-issue requests",
            node.0
        );
        self.ledger.retried();
        let req = ClientRequest {
            op_id: op,
            op: body,
        };
        self.engine.inject(
            self.engine.now(),
            node,
            paso_vsync::NetMsg::App(encode(&AppMsg::Client(req))),
        );
    }

    fn pump(&mut self) {
        for (time, _node, ClientDone { op_id, result }) in self.engine.take_outputs() {
            let rec = self.log.get(op_id).expect("answer to an op never issued");
            if rec.returned.is_some() {
                // A retry's duplicate answer: the op already returned to
                // the client.
                self.ledger.duplicate_answer();
                continue;
            }
            self.ledger.end(
                time.as_micros(),
                rec.node.0,
                op_id,
                rec.op.kind(),
                time.saturating_since(rec.issued).as_micros(),
                result.outcome(),
            );
            self.log.returned(op_id, result, time);
        }
    }

    /// Has `op` completed? Returns its result if so.
    pub fn poll(&mut self, op: u64) -> Option<ClientResult> {
        self.pump();
        self.log.get(op)?.result.clone()
    }

    /// Steps the simulation until `op` completes. Returns `None` if the
    /// event queue drains or `max_events` are processed first (which, for
    /// a non-blocking op, indicates a protocol bug).
    ///
    /// Outputs are drained only once a step has completed some op, and on
    /// return. Nothing is published here: the registry is brought up to
    /// date when it is read ([`telemetry`](Self::telemetry)).
    pub fn wait(&mut self, op: u64, max_events: u64) -> Option<ClientResult> {
        let mut processed = 0u64;
        loop {
            if let Some(r) = self.poll(op) {
                return Some(r);
            }
            while !self.engine.has_outputs() {
                if processed >= max_events || !self.engine.step() {
                    return self.poll(op);
                }
                processed += 1;
            }
        }
    }

    /// Synchronous `insert`: issues and waits.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not complete (protocol bug).
    pub fn insert(&mut self, node: u32, fields: Vec<Value>) -> ObjectId {
        let cost0 = self.engine.stats().total_msg_cost;
        let (op, id) = self.issue_insert(node, fields);
        let r = self.wait(op, 1_000_000).expect("insert must complete");
        assert!(matches!(r, ClientResult::Inserted), "insert failed: {r:?}");
        self.record_op_cost(metrics::OP_INSERT_MSG_COST, cost0);
        id
    }

    /// Attributes the marginal bus cost since `cost0` to one synchronous
    /// operation (the Figure 1 per-primitive measurement: ops are
    /// serialized, so the delta is exactly this op's expansion).
    fn record_op_cost(&mut self, hist: HistId, cost0: f64) {
        let delta = self.engine.stats().total_msg_cost - cost0;
        // Through the ledger's handle: the engine's would publish.
        self.ledger.telemetry().record(hist, delta.round() as u64);
    }

    /// Synchronous non-blocking `read`.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not complete.
    pub fn read(&mut self, node: u32, sc: SearchCriterion) -> Option<PasoObject> {
        let cost0 = self.engine.stats().total_msg_cost;
        let op = self.issue_read(node, sc, false);
        let r = self.wait(op, 1_000_000).expect("read must complete");
        self.record_op_cost(metrics::OP_READ_MSG_COST, cost0);
        match r {
            ClientResult::Found(o) => Some(o),
            _ => None,
        }
    }

    /// Synchronous non-blocking `read&del`.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not complete.
    pub fn read_del(&mut self, node: u32, sc: SearchCriterion) -> Option<PasoObject> {
        let cost0 = self.engine.stats().total_msg_cost;
        let op = self.issue_read_del(node, sc, false);
        let r = self.wait(op, 1_000_000).expect("read&del must complete");
        self.record_op_cost(metrics::OP_READDEL_MSG_COST, cost0);
        match r {
            ClientResult::Found(o) => Some(o),
            _ => None,
        }
    }

    /// Runs the simulation for `d` of simulated time.
    pub fn run_for(&mut self, d: SimTime) {
        let until = self.engine.now() + d;
        self.engine.run_until(until);
        self.pump();
    }

    /// Runs until the event queue drains (panics after `max_events`).
    pub fn settle(&mut self, max_events: u64) {
        self.engine.run_to_quiescence(max_events);
        self.pump();
    }

    /// Crashes a machine now (memory erased, §3.1).
    pub fn crash(&mut self, node: u32) {
        self.engine.crash_now(NodeId(node));
    }

    /// Repairs a machine now; it rejoins after its initialization phase.
    pub fn repair(&mut self, node: u32) {
        self.engine.repair_now(NodeId(node));
    }

    /// Applies a pre-built fault script.
    pub fn apply_faults(&mut self, script: &FaultScript) {
        self.engine.apply_faults(script);
    }

    /// Checks the recorded run against the §2 semantics (Theorem 1,
    /// executable).
    pub fn check_semantics(&self) -> SemanticsReport {
        check_run(&self.log)
    }

    /// Takes a whole-system observability snapshot.
    pub fn report(&self) -> SystemReport {
        let up: Vec<u32> = (0..self.config().n as u32)
            .filter(|m| self.engine.status(NodeId(*m)).is_up())
            .collect();
        let classes = self
            .classifier()
            .classes()
            .into_iter()
            .map(|class| {
                let replicas: Vec<u32> = up
                    .iter()
                    .copied()
                    .filter(|m| self.engine.actor(NodeId(*m)).is_member_of(wg_group(class)))
                    .collect();
                let live = replicas
                    .first()
                    .map_or(0, |m| self.server(*m).store_len(class));
                let basic: Vec<u32> = (0..self.config().n as u32)
                    .filter(|m| self.server(*m).is_basic(class))
                    .collect();
                ClassReport {
                    class,
                    replicas,
                    basic,
                    live,
                }
            })
            .collect();
        SystemReport {
            classes,
            up,
            fault_tolerance_ok: self.fault_tolerance_ok(),
        }
    }

    /// Verifies the fault-tolerance condition (§4.1) for every class, as
    /// seen by the lowest live machine: with `k` failed machines, every
    /// write group must keep more than `λ − k` live members.
    pub fn fault_tolerance_ok(&self) -> bool {
        let up: Vec<NodeId> = (0..self.config().n as u32)
            .map(NodeId)
            .filter(|m| self.engine.status(*m).is_up())
            .collect();
        let failed = self.config().n - up.len();
        if failed > self.config().lambda {
            return true; // outside the model's assumption; vacuous
        }
        for class in self.classifier().classes() {
            // Observe the view from a live *member* — non-members hold
            // only stale contact caches.
            let group = wg_group(class);
            let live = up
                .iter()
                .find(|m| self.engine.actor(**m).is_member_of(group))
                .map_or(0, |observer| {
                    self.engine
                        .actor(*observer)
                        .view_of(group)
                        .map_or(0, |v| v.members().filter(|m| up.contains(m)).count())
                });
            if live + failed <= self.config().lambda {
                return false;
            }
        }
        true
    }
}
