//! # paso-core
//!
//! The paper's primary contribution: a fault-tolerant, adaptive
//! **Persistent, Associative, Shared Object (PASO)** memory.
//!
//! A PASO memory stores immutable tuple objects accessed by associative
//! search criteria from every machine in an ensemble. Objects are
//! partitioned into classes (§4.1), each replicated by a *write group*
//! maintained over virtual synchrony (`paso-vsync`), with reads served by
//! a bounded *read group* and membership adapted online by the Basic
//! algorithm (`paso-adaptive`). Crashes erase machines completely;
//! recovered servers re-join with state transfer (§3–§4).
//!
//! Entry points:
//! - [`SimSystem`] — a complete simulated deployment (machines, servers,
//!   faults, cost accounting) with a synchronous client API;
//! - [`Deployment`] — the node-building recipe every driver shares, and
//!   [`OpLedger`] — the client-op accounting every driver shares;
//! - [`MemoryServer`] — the per-machine server, reusable over any
//!   transport that drives [`paso_simnet::Actor`]s (see `paso-runtime`
//!   for the live threaded cluster);
//! - [`check_run`] / [`RunLog`] — the executable §2 semantics
//!   (Theorem 1's conditions, verifiable on every run).
//!
//! # Examples
//!
//! ```
//! use paso_core::{PasoConfig, SimSystem};
//! use paso_types::{SearchCriterion, Template, Value};
//!
//! // 5 machines, tolerate 1 crash.
//! let mut sys = SimSystem::new(PasoConfig::builder(5, 1).seed(7).build());
//!
//! // A process on machine 0 inserts; a process on machine 3 consumes.
//! sys.insert(0, vec![Value::symbol("task"), Value::Int(42)]);
//! let sc = SearchCriterion::from(Template::new(vec![
//!     paso_types::FieldMatcher::Exact(Value::symbol("task")),
//!     paso_types::FieldMatcher::Any,
//! ]));
//! let got = sys.read_del(3, sc.clone()).expect("found");
//! assert_eq!(got.field(1), Some(&Value::Int(42)));
//!
//! // Consumed means gone.
//! assert!(sys.read(1, sc).is_none());
//!
//! // And the whole run satisfied the PASO semantics.
//! assert!(sys.check_semantics().ok());
//! ```

#![warn(missing_docs)]

mod config;
mod deployment;
mod groups;
mod ledger;
mod semantics;
mod server;
mod system;
mod wire;

pub use config::{
    BlockingMode, ClassifierKind, ConfigError, PasoConfig, PasoConfigBuilder, ReadMode,
};
pub use deployment::{Deployment, WalMedium};
pub use groups::{
    assign_basic_support, fault_tolerance_ok, group_class, initial_groups, rg_group, wg_group,
    GroupKind,
};
pub use ledger::{retry_slice, OpLedger};
pub use semantics::{check_run, LatencyStats, OpRecord, RunLog, SemanticsReport, Violation};
pub use server::MemoryServer;
pub use system::{ClassReport, SimSystem, SystemReport};
pub use wire::{
    auth_token, decode, encode, obj_ref, try_decode, AppMsg, ClientDone, ClientOp, ClientRequest,
    ClientResult, OpResponse, ProxyClientFrame, ProxyServerFrame, ReplBatch, ReplOp,
};
