//! The node-building recipe, written once for every substrate.
//!
//! The simulator ([`crate::SimSystem`]) and the live runtime
//! (`paso-runtime`'s `Cluster`) run the *same* sans-I/O node. A
//! [`Deployment`] is everything that node is built from, derived once
//! from a validated [`PasoConfig`]: the global classifier, the basic
//! support table, the vsync group table, the optional durability hub,
//! and the [`Deployment::node`] factory a driver calls at start and
//! after every crash. A driver adds only what is its own — an engine or
//! threads and a transport.

use std::collections::BTreeMap;
use std::sync::Arc;

use paso_durable::{DurabilityHub, DurableConfig};
use paso_simnet::NodeId;
use paso_types::{ClassId, Classifier};
use paso_vsync::{VsyncConfig, VsyncNode};

use crate::config::PasoConfig;
use crate::groups::{assign_basic_support, initial_groups};
use crate::server::MemoryServer;

/// Where a durable deployment keeps its write-ahead logs — the one
/// substrate difference in the recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMedium {
    /// Always in memory, whatever `wal_dir` says (the simulator):
    /// crash-survival is modeled — a crashed actor is rebuilt but its
    /// hub-held log persists — and fsync cost comes from the
    /// deterministic model in `paso-durable`.
    Memory,
    /// Files under `PasoConfig::wal_dir` when it is set (real fsyncs are
    /// timed), in memory otherwise.
    Configured,
}

/// One PASO deployment's shared, immutable parts.
#[derive(Debug)]
pub struct Deployment {
    cfg: Arc<PasoConfig>,
    classifier: Box<dyn Classifier>,
    basic: BTreeMap<ClassId, Vec<NodeId>>,
    vsync: VsyncConfig,
    hub: Option<Arc<DurabilityHub>>,
}

impl Deployment {
    /// Derives the deployment from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, or if the configured WAL
    /// directory cannot be created.
    pub fn new(cfg: PasoConfig, wal: WalMedium) -> Self {
        cfg.validate().expect("invalid PasoConfig");
        let classifier = cfg.classifier.build();
        let support = assign_basic_support(cfg.n, cfg.lambda, &classifier.classes());
        let vsync = VsyncConfig {
            initial_groups: initial_groups(&support),
            log_horizon: cfg.log_horizon,
            ..VsyncConfig::default()
        };
        // One hub shared by every node: a crash replaces the actor
        // (`node(id)` again) but the hub-held WAL survives, so the
        // rebuilt node replays it on recovery.
        let hub = cfg.durable.then(|| match (&cfg.wal_dir, wal) {
            (Some(dir), WalMedium::Configured) => {
                DurabilityHub::new_file(DurableConfig::default(), dir.clone())
                    .expect("open WAL directory")
            }
            _ => DurabilityHub::new_mem(DurableConfig::default()),
        });
        Deployment {
            cfg: Arc::new(cfg),
            classifier,
            basic: support.into_iter().collect(),
            vsync,
            hub,
        }
    }

    /// Builds machine `id`'s node with erased memory — at start, and
    /// again after every crash (§3.1).
    pub fn node(&self, id: NodeId) -> VsyncNode<MemoryServer> {
        let server = MemoryServer::new(id, Arc::clone(&self.cfg), self.basic.clone());
        let node = VsyncNode::new(id, self.vsync.clone(), server);
        match &self.hub {
            Some(hub) => node.with_wal(hub.handle(id.0)),
            None => node,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &Arc<PasoConfig> {
        &self.cfg
    }

    /// The classifier (the global `obj-clss` / `sc-list`).
    pub fn classifier(&self) -> &dyn Classifier {
        self.classifier.as_ref()
    }

    /// The basic support `B(C)`: the `λ + 1` machines that belong to
    /// `wg(C)` whenever they are operational (§5.1), in assignment order.
    /// Empty for a class outside the partition.
    pub fn basic_support(&self, class: ClassId) -> &[NodeId] {
        self.basic.get(&class).map_or(&[], Vec::as_slice)
    }

    /// The shared durability hub, when `cfg.durable` is set — exposes
    /// per-node WAL byte accounting for experiments.
    pub fn durability_hub(&self) -> Option<&Arc<DurabilityHub>> {
        self.hub.as_ref()
    }
}
