//! # paso-adaptive
//!
//! The adaptive replication algorithms of §5 of *Adaptive Algorithms for
//! PASO Systems* (Westbrook & Zuck, 1994), together with everything needed
//! to *verify* their competitive guarantees:
//!
//! - [`BasicCounter`] / [`BasicStrategy`] — the Basic algorithm
//!   (Theorem 2: `(3 + λ/K)`-competitive; §5.1 extension with query cost
//!   `q`: `(3 + 2λ/K)`);
//! - [`DoublingStrategy`] — the doubling/halving algorithm for drifting
//!   class size `ℓ` (Theorem 3: `(6 + 2λ/K)`-competitive);
//! - [`optimum`] — the *exact* offline optimum via dynamic programming
//!   (validated against brute force);
//! - [`verify_theorem2`] — a mechanized, event-by-event potential-function
//!   check of Theorem 2's amortized inequality;
//! - [`paging`] — the virtual paging problem with LRU,
//!   FIFO, Marker, random eviction, Belady's MIN, and the deterministic
//!   `k`-competitive adversary;
//! - [`support`] — the Support Selection Problem with the
//!   Theorem 4 reduction from paging and the LRF heuristic.
//!
//! # Examples
//!
//! ```
//! use paso_adaptive::{measure, BasicStrategy, Event, ModelParams};
//!
//! let params = ModelParams::uniform(2, 8); // λ=2, K=8
//! let mut basic = BasicStrategy::new(params);
//! let workload: Vec<Event> = (0..100)
//!     .map(|i| if i % 3 == 0 { Event::Insert } else { Event::READ })
//!     .collect();
//! let report = measure(&mut basic, &workload, &params);
//! assert!(report.within_bound, "Theorem 2 must hold: {report:?}");
//! ```

#![warn(missing_docs)]

mod competitive;
mod counter;
mod doubling;
mod model;
mod opt;
pub mod paging;
mod potential;
pub mod support;

pub use competitive::{measure, oscillation_adversary, RatioReport};
pub use counter::{Advice, BasicCounter, BasicStrategy};
pub use doubling::{optimum_variable_k, retune_k, DoublingStrategy};
pub use model::{run_strategy, AlwaysIn, Event, Membership, ModelParams, NeverIn, Strategy};
pub use opt::{optimum, schedule_cost, OptSchedule};
pub use potential::{verify_theorem2, PotentialReport};
