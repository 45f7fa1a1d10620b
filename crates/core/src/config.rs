//! System configuration.

use std::fmt;

use paso_simnet::{ChurnModel, CostModel, FaultPlan};
use paso_storage::StoreKind;
use paso_types::{
    ArityClassifier, Classifier, FirstFieldClassifier, SignatureClassifier, ValueType,
};

use crate::wire::ClientOp;

/// Which classifier (`obj-clss` / `sc-list`) the system uses. Kept as a
/// plain data description so every machine constructs the *same*
/// classifier — the partition must be agreed upon globally (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifierKind {
    /// Classify by tuple arity, up to a maximum.
    Arity(usize),
    /// Classify by a stable hash of field 0 into `buckets`.
    FirstField(u32),
    /// Classify by registered type signatures.
    Signature(Vec<Vec<ValueType>>),
}

impl ClassifierKind {
    /// Builds the classifier.
    pub fn build(&self) -> Box<dyn Classifier> {
        match self {
            ClassifierKind::Arity(max) => Box::new(ArityClassifier::new(*max)),
            ClassifierKind::FirstField(buckets) => Box::new(FirstFieldClassifier::new(*buckets)),
            ClassifierKind::Signature(sigs) => Box::new(SignatureClassifier::new(sigs.clone())),
        }
    }
}

/// How non-member reads reach the read group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// gcast to the whole read group (the paper's §4.3 macro expansion):
    /// `|rg|` fan-out copies + done-empties + one response. Figure 1's
    /// remote-read row prices this mode, and [`ReadMode::Anycast`] falls
    /// back to it.
    GroupCast,
    /// The default. Send the query to a *single* basic-support replica
    /// (rotating for load spread): one query and one answer. Fall back to
    /// a gcast if the replica is down, crashes, does not answer, or
    /// declines because it does not yet hold the class's state. Safe
    /// because `insert` completes only after every member acknowledged
    /// the store (done-collection), so any one replica is current for
    /// objects whose insert has returned — read-one/write-all, the
    /// natural endpoint of §4.3's "reads entail no changes" observation,
    /// and a response-time optimization toward the open problem the paper
    /// cites (\[13\], load balancing).
    Anycast,
}

/// How blocking `read`/`read&del` waits are implemented (§4.3): busy-wait
/// cycling, or read-markers left at the write-group members with an
/// expiry (the "hybrid approach" the paper sketches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingMode {
    /// Re-run the whole non-blocking operation every `interval_micros`.
    BusyWait {
        /// Poll interval in microseconds.
        interval_micros: u64,
    },
    /// Leave markers at the servers; they notify the origin when a
    /// matching insert arrives. Markers expire after `expiry_micros` and
    /// are re-placed by the origin (together with a safety re-poll at the
    /// same interval).
    Markers {
        /// Marker lifetime in microseconds.
        expiry_micros: u64,
    },
}

/// Configuration of a PASO system.
///
/// # Examples
///
/// ```
/// use paso_core::PasoConfig;
///
/// let cfg = PasoConfig::builder(6, 1).k_join(8).adaptive(true).build();
/// assert_eq!(cfg.n, 6);
/// assert_eq!(cfg.lambda, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PasoConfig {
    /// Number of machines `n = |Mach|`.
    pub n: usize,
    /// Fault-tolerance degree `λ < n`: the system survives up to `λ`
    /// simultaneous crashes.
    pub lambda: usize,
    /// The LAN cost model `(α, β)`.
    pub cost_model: CostModel,
    /// Simulation seed.
    pub seed: u64,
    /// The global object-class partition.
    pub classifier: ClassifierKind,
    /// Default per-class store structure.
    pub default_store: StoreKind,
    /// The prior for the adaptive join threshold `K`: the value a
    /// machine's counter for a class starts at, before it has measured
    /// what a join of that class ships (`MemoryServer::counter_k`).
    pub k_join: u64,
    /// Query cost `q` relative to update cost (§5.1's extension for
    /// tree/list-backed classes where `Q(·)` exceeds `I(·)/D(·)`). The
    /// Basic counter accumulates `q·(λ+1−|F|)` per remote read; the
    /// competitive bound becomes `3 + 2λ/K`.
    pub q_cost: u64,
    /// Run the Basic algorithm (adaptive replication)? When false, write
    /// groups stay at the basic support.
    pub adaptive: bool,
    /// Direct reads to the bounded read group `rg(C)` instead of the full
    /// write group (§4.3's optimization).
    pub use_read_groups: bool,
    /// How non-member reads are routed.
    pub read_mode: ReadMode,
    /// Blocking-operation strategy.
    pub blocking: BlockingMode,
    /// Per-operation deadline for blocking operations, after which they
    /// report `TimedOut`.
    pub blocking_deadline_micros: u64,
    /// Interval at which servers gossip their per-class summaries for
    /// client-side `sc-list` pruning. `0` disables gossip (reads then
    /// visit the full `sc-list`, the pre-pruning behaviour).
    pub summary_gossip_micros: u64,
    /// Live runtime: how many times the client re-issues a timed-out
    /// *idempotent* operation (same op id; servers dedup) before giving
    /// up. `0` disables retries.
    pub client_retry_budget: u32,
    /// Live runtime: number of gateway mailbox slots reserved *behind*
    /// the `n` server nodes for front-end proxies. Slot `j` answers to
    /// `NodeId(n + j)`; servers learn a gateway's address from its first
    /// message and include it in summary gossip. `0` (default) reserves
    /// nothing — the transport is sized exactly `n`, as before.
    pub proxy_slots: usize,
    /// Proxy tier: per-client-connection pipelining window — how many
    /// ops one client may have in flight before the proxy answers
    /// `Busy` instead of forwarding.
    pub proxy_pipeline_depth: usize,
    /// Message-level fault injection, shared vocabulary with the live
    /// runtime's `Postman::set_fault_plan` (drops, delays, jitter,
    /// partitions). Pass-through by default.
    pub fault_plan: FaultPlan,
    /// Simulation: engine-driven Poisson crash/rejoin churn. `None`
    /// (default) disables churn.
    pub churn: Option<ChurnModel>,
    /// Attach a per-node write-ahead log that survives crashes. A
    /// recovering node replays it locally and rejoins with a durable
    /// watermark, so the donor ships a delta instead of the full state —
    /// shrinking the adaptive join cost `K` from `O(|store|)` to
    /// `O(missed deliveries)`.
    pub durable: bool,
    /// In-memory delivery-log horizon per group member (the donor side of
    /// delta state transfer). Rejoiners further behind get a full
    /// transfer.
    pub log_horizon: usize,
    /// Live runtime: directory for `node-<id>.wal` files. `None` keeps
    /// WALs in memory (they still survive actor crashes — the hub
    /// outlives the actor — just not process restarts).
    pub wal_dir: Option<std::path::PathBuf>,
}

impl PasoConfig {
    /// Starts building a configuration for `n` machines tolerating `λ`
    /// simultaneous crashes.
    pub fn builder(n: usize, lambda: usize) -> PasoConfigBuilder {
        PasoConfigBuilder {
            cfg: PasoConfig {
                n,
                lambda,
                cost_model: CostModel::new(50.0, 0.5),
                seed: 0,
                classifier: ClassifierKind::Arity(4),
                default_store: StoreKind::Scan,
                k_join: 16,
                q_cost: 1,
                adaptive: true,
                use_read_groups: true,
                read_mode: ReadMode::Anycast,
                blocking: BlockingMode::BusyWait {
                    interval_micros: 5_000,
                },
                blocking_deadline_micros: 10_000_000,
                summary_gossip_micros: 0,
                client_retry_budget: 2,
                proxy_slots: 0,
                proxy_pipeline_depth: 32,
                fault_plan: FaultPlan::none(),
                churn: None,
                durable: false,
                log_horizon: 512,
                wal_dir: None,
            },
        }
    }

    /// Validates the configuration invariants.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::new("n must be positive"));
        }
        if self.lambda >= self.n {
            return Err(ConfigError::new("λ must be < n (fault model, §3.1)"));
        }
        if self.k_join == 0 {
            return Err(ConfigError::new("K must be positive"));
        }
        if self.q_cost == 0 {
            return Err(ConfigError::new("q must be positive"));
        }
        if let Some(churn) = &self.churn {
            if churn.max_concurrent > self.lambda {
                return Err(ConfigError::new(
                    "churn max_concurrent must be ≤ λ (the §3.1 failure budget)",
                ));
            }
        }
        if self.log_horizon == 0 {
            return Err(ConfigError::new("log horizon must be positive"));
        }
        if self.wal_dir.is_some() && !self.durable {
            return Err(ConfigError::new("wal_dir requires durable = true"));
        }
        if self.proxy_pipeline_depth == 0 {
            return Err(ConfigError::new("proxy pipeline depth must be positive"));
        }
        Ok(())
    }

    /// Sizing of each server's op-id dedup cache (`recent_done`).
    ///
    /// A retried op is only replayed (instead of re-executed) while its
    /// first completion is still cached, so the cache must outlive the
    /// whole retry horizon of every client that can pipeline into one
    /// server. Each gateway keeps up to `proxy_pipeline_depth` ops in
    /// flight per client *connection slot*, and each of those may be
    /// re-issued `client_retry_budget` times — hence the product, across
    /// all configured gateways. The floor preserves the pre-proxy
    /// capacity (512) for direct in-process clients.
    pub fn dedup_cache_ops(&self) -> usize {
        let retries = self.client_retry_budget as usize + 1;
        (retries * self.proxy_pipeline_depth * self.proxy_slots.max(1)).max(512)
    }

    /// How many times a timed-out `op` may be re-sent under its op id:
    /// `client_retry_budget` for a [`ClientOp::retryable`] op, never for
    /// one that must run exactly once.
    pub fn retry_budget_for(&self, op: &ClientOp) -> u32 {
        if op.retryable() {
            self.client_retry_budget
        } else {
            0
        }
    }
}

/// Builder for [`PasoConfig`].
#[derive(Debug, Clone)]
pub struct PasoConfigBuilder {
    cfg: PasoConfig,
}

impl PasoConfigBuilder {
    /// Sets the `(α, β)` cost model.
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.cfg.cost_model = m;
        self
    }

    /// Sets the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the classifier.
    pub fn classifier(mut self, c: ClassifierKind) -> Self {
        self.cfg.classifier = c;
        self
    }

    /// Sets the default store structure.
    pub fn default_store(mut self, k: StoreKind) -> Self {
        self.cfg.default_store = k;
        self
    }

    /// Sets the prior for the adaptive join threshold `K`.
    pub fn k_join(mut self, k: u64) -> Self {
        self.cfg.k_join = k;
        self
    }

    /// Sets the query cost `q` (§5.1's extension).
    pub fn q_cost(mut self, q: u64) -> Self {
        self.cfg.q_cost = q;
        self
    }

    /// Enables or disables adaptive replication.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.cfg.adaptive = on;
        self
    }

    /// Enables or disables the read-group optimization.
    pub fn read_groups(mut self, on: bool) -> Self {
        self.cfg.use_read_groups = on;
        self
    }

    /// Sets the read routing mode.
    pub fn read_mode(mut self, mode: ReadMode) -> Self {
        self.cfg.read_mode = mode;
        self
    }

    /// Sets the blocking-wait mode.
    pub fn blocking(mut self, mode: BlockingMode) -> Self {
        self.cfg.blocking = mode;
        self
    }

    /// Sets the blocking-operation deadline in microseconds.
    pub fn blocking_deadline_micros(mut self, d: u64) -> Self {
        self.cfg.blocking_deadline_micros = d;
        self
    }

    /// Sets the summary-gossip interval in microseconds (`0` disables).
    pub fn summary_gossip_micros(mut self, d: u64) -> Self {
        self.cfg.summary_gossip_micros = d;
        self
    }

    /// Sets the client retry budget for timed-out idempotent operations
    /// (live runtime).
    pub fn client_retry_budget(mut self, budget: u32) -> Self {
        self.cfg.client_retry_budget = budget;
        self
    }

    /// Reserves gateway mailbox slots behind the server nodes for
    /// front-end proxies (live runtime).
    pub fn proxy_slots(mut self, slots: usize) -> Self {
        self.cfg.proxy_slots = slots;
        self
    }

    /// Sets the proxy's per-client pipelining window.
    pub fn proxy_pipeline_depth(mut self, depth: usize) -> Self {
        self.cfg.proxy_pipeline_depth = depth;
        self
    }

    /// Sets the message-level fault-injection plan (simulation and live
    /// runtime share the vocabulary).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Enables engine-driven Poisson churn (simulation).
    pub fn churn(mut self, churn: ChurnModel) -> Self {
        self.cfg.churn = Some(churn);
        self
    }

    /// Enables the durable per-node write-ahead log (crash recovery via
    /// local replay + delta rejoin).
    pub fn durable(mut self, on: bool) -> Self {
        self.cfg.durable = on;
        self
    }

    /// Sets the in-memory delivery-log horizon for delta state transfer.
    pub fn log_horizon(mut self, horizon: usize) -> Self {
        self.cfg.log_horizon = horizon;
        self
    }

    /// Directs live-runtime WALs to files under `dir` (implies nothing
    /// for simulation, which always uses the in-memory medium).
    pub fn wal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.wal_dir = Some(dir.into());
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PasoConfig::validate`]).
    pub fn build(self) -> PasoConfig {
        self.cfg.validate().expect("invalid PasoConfig");
        self.cfg
    }
}

/// An invalid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    msg: String,
}

impl ConfigError {
    fn new(m: impl Into<String>) -> Self {
        ConfigError { msg: m.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.msg)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let cfg = PasoConfig::builder(4, 1).build();
        assert!(cfg.validate().is_ok());
        assert!(cfg.adaptive);
        assert!(cfg.use_read_groups);
    }

    #[test]
    fn validation_rejects_bad_lambda() {
        let mut cfg = PasoConfig::builder(4, 1).build();
        cfg.lambda = 4;
        assert!(cfg.validate().is_err());
        cfg.lambda = 3;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_k() {
        let mut cfg = PasoConfig::builder(4, 1).build();
        cfg.k_join = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid PasoConfig")]
    fn builder_panics_on_invalid() {
        let _ = PasoConfig::builder(2, 5).build();
    }

    #[test]
    fn classifier_kinds_build() {
        assert!(ClassifierKind::Arity(3).build().classes().len() == 4);
        assert!(ClassifierKind::FirstField(5).build().classes().len() == 5);
        assert!(
            ClassifierKind::Signature(vec![vec![ValueType::Int]])
                .build()
                .classes()
                .len()
                == 2
        );
    }

    #[test]
    fn proxy_knobs_default_and_validate() {
        let cfg = PasoConfig::builder(4, 1).build();
        assert_eq!(cfg.proxy_slots, 0);
        assert_eq!(cfg.proxy_pipeline_depth, 32);
        assert_eq!(cfg.client_retry_budget, 2);
        let cfg = PasoConfig::builder(4, 1)
            .proxy_slots(3)
            .proxy_pipeline_depth(256)
            .client_retry_budget(0)
            .build();
        assert_eq!(cfg.proxy_slots, 3);
        assert_eq!(cfg.proxy_pipeline_depth, 256);
        assert_eq!(cfg.client_retry_budget, 0);
        let mut bad = cfg;
        bad.proxy_pipeline_depth = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn dedup_cache_scales_with_retry_horizon() {
        // No proxies: the pre-proxy floor (direct clients issue one op
        // at a time; 512 comfortably covers their retry horizon).
        let cfg = PasoConfig::builder(4, 1).build();
        assert_eq!(cfg.dedup_cache_ops(), 512);
        // A pipelining gateway stretches the horizon past the old
        // constant: (budget+1) × depth × gateways.
        let cfg = PasoConfig::builder(4, 1)
            .proxy_slots(2)
            .proxy_pipeline_depth(1024)
            .build();
        assert_eq!(cfg.dedup_cache_ops(), 3 * 1024 * 2);
        assert!(cfg.dedup_cache_ops() > 512, "must outgrow the old cap");
        // Small depths never shrink below the floor.
        let cfg = PasoConfig::builder(4, 1)
            .proxy_slots(1)
            .proxy_pipeline_depth(8)
            .client_retry_budget(0)
            .build();
        assert_eq!(cfg.dedup_cache_ops(), 512);
    }

    #[test]
    fn durability_knobs_default_and_validate() {
        let cfg = PasoConfig::builder(4, 1).build();
        assert!(!cfg.durable, "durability must be opt-in");
        assert_eq!(cfg.log_horizon, 512);
        assert!(cfg.wal_dir.is_none());
        let cfg = PasoConfig::builder(4, 1)
            .durable(true)
            .log_horizon(64)
            .wal_dir("/tmp/paso-wal")
            .build();
        assert!(cfg.durable);
        assert_eq!(cfg.log_horizon, 64);
        assert!(cfg.wal_dir.is_some());
        let mut bad = cfg.clone();
        bad.log_horizon = 0;
        assert!(bad.validate().is_err());
        let mut bad = cfg;
        bad.durable = false;
        assert!(bad.validate().is_err(), "wal_dir without durable");
    }

    #[test]
    fn config_clone_is_structural() {
        let cfg = PasoConfig::builder(5, 2).k_join(4).build();
        let back = cfg.clone();
        assert_eq!(back.n, 5);
        assert_eq!(back.k_join, 4);
        assert_eq!(back.classifier, cfg.classifier);
    }
}
