//! Crash-fault injection (§3.1).
//!
//! "Machines may crash and leave the system, and then be fixed and re-join
//! the system. ... When a machine crashes, all its local memory is erased."
//! A [`FaultScript`] is a timed sequence of crash/repair events applied by
//! the engine; generators produce scripted, Poisson, and flaky-subset
//! failure processes while (optionally) respecting the `≤ λ` simultaneous-
//! failure assumption.

use std::collections::{BTreeMap, BTreeSet};

use crate::actor::NodeId;
use crate::time::SimTime;
use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A per-link message delay distribution: uniform in
/// `[min_micros, max_micros]`. The zero distribution means "deliver
/// immediately" and is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DelayDist {
    /// Lower bound of the injected delay, in microseconds.
    pub min_micros: u64,
    /// Upper bound of the injected delay, in microseconds.
    pub max_micros: u64,
}

impl DelayDist {
    /// No injected delay.
    pub const ZERO: DelayDist = DelayDist {
        min_micros: 0,
        max_micros: 0,
    };

    /// A fixed delay of `micros`.
    pub fn fixed(micros: u64) -> Self {
        DelayDist {
            min_micros: micros,
            max_micros: micros,
        }
    }

    /// A uniform delay in `[min, max]` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn uniform(min_micros: u64, max_micros: u64) -> Self {
        assert!(min_micros <= max_micros, "delay bounds out of order");
        DelayDist {
            min_micros,
            max_micros,
        }
    }

    /// True iff this distribution never delays.
    pub fn is_zero(&self) -> bool {
        self.max_micros == 0
    }

    fn sample(&self, rng: &mut impl RngCore) -> u64 {
        if self.is_zero() {
            return 0;
        }
        if self.min_micros == self.max_micros {
            return self.min_micros;
        }
        rng.gen_range(self.min_micros..=self.max_micros)
    }
}

/// What the fault layer decided for one message on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Deliver immediately.
    Deliver,
    /// Deliver after the given injected delay (microseconds).
    Delay(u64),
    /// Drop silently (a lossy link or a partition).
    Drop,
}

/// A [`LinkFate`] with its jitter component broken out, so drivers can
/// record `net.link.latency_micros` and `net.link.jitter_micros` under
/// the shared schema. `fate`'s delay (when any) already *includes* the
/// jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDecision {
    /// The overall fate (delay totals include jitter).
    pub fate: LinkFate,
    /// The jitter portion of an injected delay, in microseconds.
    pub jitter_micros: u64,
}

/// Per-link latency for the switched network model: every message pays
/// `base + jitter` of propagation delay, with optional per-link overrides
/// of the base and an asymmetry factor scaling links that point "down"
/// the id space (`from > to`) — modeling asymmetric up/down paths.
///
/// Plain data; randomness comes from the caller's RNG, so one seed gives
/// one delay sequence everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    base: DelayDist,
    jitter: DelayDist,
    asymmetry: f64,
    link_base: BTreeMap<(NodeId, NodeId), DelayDist>,
}

/// One sampled link traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkLatency {
    /// Total injected latency in microseconds (base + jitter, scaled).
    pub total_micros: u64,
    /// The jitter component alone, in microseconds.
    pub jitter_micros: u64,
}

impl LatencyModel {
    /// A symmetric model: every link pays `base`, no jitter.
    pub fn uniform(base: DelayDist) -> Self {
        LatencyModel {
            base,
            jitter: DelayDist::ZERO,
            asymmetry: 1.0,
            link_base: BTreeMap::new(),
        }
    }

    /// Adds a jitter distribution sampled independently per message on
    /// top of the base latency.
    pub fn with_jitter(mut self, jitter: DelayDist) -> Self {
        self.jitter = jitter;
        self
    }

    /// Scales the base latency of every link with `from > to` by
    /// `factor` (≥ 0) — a cheap stand-in for asymmetric routes.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn with_asymmetry(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "asymmetry factor out of range"
        );
        self.asymmetry = factor;
        self
    }

    /// Overrides the base latency of the directed link `from → to`.
    pub fn link(mut self, from: NodeId, to: NodeId, base: DelayDist) -> Self {
        self.link_base.insert((from, to), base);
        self
    }

    /// The base distribution in force on `from → to`.
    pub fn base(&self, from: NodeId, to: NodeId) -> DelayDist {
        *self.link_base.get(&(from, to)).unwrap_or(&self.base)
    }

    /// The asymmetry factor.
    pub fn asymmetry(&self) -> f64 {
        self.asymmetry
    }

    /// Samples one traversal of `from → to`. Draw order is fixed (base,
    /// then jitter) and zero distributions consume no randomness, keeping
    /// seeded streams stable across model configurations.
    pub fn sample(&self, from: NodeId, to: NodeId, rng: &mut impl RngCore) -> LinkLatency {
        let mut base = self.base(from, to).sample(rng);
        if self.asymmetry != 1.0 && from > to {
            base = (base as f64 * self.asymmetry) as u64;
        }
        let jitter = self.jitter.sample(rng);
        LinkLatency {
            total_micros: base + jitter,
            jitter_micros: jitter,
        }
    }
}

/// Which network the simulated ensemble runs on.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum NetModel {
    /// The paper's §3.3 bus LAN: one message at a time, transmissions
    /// serialize on the shared medium (`bus_free_at`).
    #[default]
    Bus,
    /// A switched point-to-point fabric: transmissions do not serialize;
    /// each message pays its transmission time plus a sampled per-link
    /// latency from the model. Message *cost* (`α + β·|m|`) is charged
    /// identically in both models.
    Switched(LatencyModel),
}

/// A Poisson crash/rejoin ("churn") process executed by the engine
/// itself, rather than pre-expanded into a [`FaultScript`] — script
/// expansion is O(events · n) and unusable at millions of nodes, while
/// the engine draws one exponential gap per *event*.
///
/// Semantics: the ensemble crashes at aggregate rate `n · crash_rate_hz`
/// with the victim drawn uniformly; a tick whose victim is already down
/// is discarded (exact thinning, so each *up* machine fails at
/// `crash_rate_hz`). Crashed machines rejoin after an exponential
/// downtime with mean `mean_downtime` plus the configured init phase.
/// Ticks that would exceed `max_concurrent` simultaneous failures are
/// suppressed, enforcing the paper's `≤ λ` assumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Per-machine crash rate while up, in crashes per simulated second.
    pub crash_rate_hz: f64,
    /// Mean of the exponential downtime before repair begins.
    pub mean_downtime: SimTime,
    /// Cap on simultaneous failures (the `λ` budget).
    pub max_concurrent: usize,
}

impl ChurnModel {
    /// A churn process with the given rate, mean downtime, and `λ` cap.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive or the cap is 0.
    pub fn new(crash_rate_hz: f64, mean_downtime: SimTime, max_concurrent: usize) -> Self {
        assert!(
            crash_rate_hz.is_finite() && crash_rate_hz > 0.0,
            "churn rate must be positive"
        );
        assert!(max_concurrent > 0, "churn with a zero failure budget");
        ChurnModel {
            crash_rate_hz,
            mean_downtime,
            max_concurrent,
        }
    }
}

/// A message-level fault-injection plan shared by the simulator and the
/// live runtime: per-link drop probability, per-link delay distribution,
/// and partition sets. Crash/repair scheduling stays in [`FaultScript`];
/// a `FaultPlan` describes what the *network* does to messages between
/// machines that are up.
///
/// Semantics:
///
/// - **Partitions** win over everything: a message whose endpoints sit in
///   different partition cells is dropped. Nodes not named in any cell
///   are unrestricted.
/// - **Drop probability** is per directed link, with a plan-wide default;
///   the per-link override wins.
/// - **Delay** likewise: a per-link [`DelayDist`] overriding a plan-wide
///   default. Delay applies only to messages that survive the drop coin.
///
/// The plan is plain data; randomness comes from the caller's RNG so the
/// same seed gives the same fate sequence everywhere.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    default_drop: f64,
    link_drop: BTreeMap<(NodeId, NodeId), f64>,
    default_delay: DelayDist,
    link_delay: BTreeMap<(NodeId, NodeId), DelayDist>,
    jitter: DelayDist,
    blocked: BTreeSet<(NodeId, NodeId)>,
}

impl FaultPlan {
    /// The pass-through plan: nothing dropped, nothing delayed.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the plan-wide drop probability for every link without an
    /// override.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn drop_all(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.default_drop = p;
        self
    }

    /// Sets the drop probability of the directed link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn drop_link(mut self, from: NodeId, to: NodeId, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.link_drop.insert((from, to), p);
        self
    }

    /// Sets the plan-wide delay distribution.
    pub fn delay_all(mut self, d: DelayDist) -> Self {
        self.default_delay = d;
        self
    }

    /// Sets the delay distribution of the directed link `from → to`.
    pub fn delay_link(mut self, from: NodeId, to: NodeId, d: DelayDist) -> Self {
        self.link_delay.insert((from, to), d);
        self
    }

    /// Sets the plan-wide jitter distribution: an extra random delay
    /// component sampled per message *on top of* the delay distribution,
    /// and reported separately (`net.link.jitter_micros`).
    pub fn jitter_all(mut self, d: DelayDist) -> Self {
        self.jitter = d;
        self
    }

    /// Partitions the ensemble: nodes in different `cells` cannot
    /// exchange messages in either direction. Nodes absent from every
    /// cell are unrestricted. Cells accumulate onto any links already
    /// blocked.
    pub fn partition(mut self, cells: &[&[NodeId]]) -> Self {
        for (i, a) in cells.iter().enumerate() {
            for (j, b) in cells.iter().enumerate() {
                if i == j {
                    continue;
                }
                for &x in a.iter() {
                    for &y in b.iter() {
                        self.blocked.insert((x, y));
                    }
                }
            }
        }
        self
    }

    /// True iff the plan can never alter a message — the transport may
    /// skip the fault layer entirely (pay-for-what-you-use).
    pub fn is_pass_through(&self) -> bool {
        self.default_drop == 0.0
            && self.default_delay.is_zero()
            && self.jitter.is_zero()
            && self.blocked.is_empty()
            && self.link_drop.values().all(|p| *p == 0.0)
            && self.link_delay.values().all(DelayDist::is_zero)
    }

    /// The drop probability in force on `from → to`.
    pub fn drop_prob(&self, from: NodeId, to: NodeId) -> f64 {
        *self
            .link_drop
            .get(&(from, to))
            .unwrap_or(&self.default_drop)
    }

    /// The delay distribution in force on `from → to`.
    pub fn delay(&self, from: NodeId, to: NodeId) -> DelayDist {
        *self
            .link_delay
            .get(&(from, to))
            .unwrap_or(&self.default_delay)
    }

    /// True iff a partition blocks `from → to`.
    pub fn is_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.blocked.contains(&(from, to))
    }

    /// Decides the fate of one message on `from → to`, consuming
    /// randomness from `rng` only when the link is actually lossy or
    /// delayed (so a pass-through plan leaves the RNG untouched).
    pub fn decide(&self, from: NodeId, to: NodeId, rng: &mut impl RngCore) -> LinkFate {
        self.decide_detailed(from, to, rng).fate
    }

    /// Like [`decide`](Self::decide) but with the jitter component of an
    /// injected delay broken out, so drivers can record latency and
    /// jitter under separate metric names. Draw order is fixed — drop
    /// coin, delay, jitter — and zero distributions consume no
    /// randomness.
    pub fn decide_detailed(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut impl RngCore,
    ) -> LinkDecision {
        let deliver = LinkDecision {
            fate: LinkFate::Deliver,
            jitter_micros: 0,
        };
        if self.is_blocked(from, to) {
            return LinkDecision {
                fate: LinkFate::Drop,
                jitter_micros: 0,
            };
        }
        let p = self.drop_prob(from, to);
        if p > 0.0 && rng.gen_bool(p) {
            return LinkDecision {
                fate: LinkFate::Drop,
                jitter_micros: 0,
            };
        }
        let d = self.delay(from, to);
        let delay = if d.is_zero() { 0 } else { d.sample(rng) };
        let jitter = if self.jitter.is_zero() {
            0
        } else {
            self.jitter.sample(rng)
        };
        if delay + jitter == 0 {
            deliver
        } else {
            LinkDecision {
                fate: LinkFate::Delay(delay + jitter),
                jitter_micros: jitter,
            }
        }
    }
}

/// One fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The machine halts and its memory is erased.
    Crash(NodeId),
    /// The machine is fixed and begins its initialization phase.
    Repair(NodeId),
}

/// A timed fault schedule, sorted by time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    events: Vec<(SimTime, Fault)>,
}

/// Error validating a [`FaultScript`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScriptError {
    msg: String,
}

impl std::fmt::Display for FaultScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault script: {}", self.msg)
    }
}

impl std::error::Error for FaultScriptError {}

impl FaultScript {
    /// An empty (fault-free) script.
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// Builds a script from explicit events; sorts them by time.
    pub fn scripted(mut events: Vec<(SimTime, Fault)>) -> Self {
        events.sort_by_key(|(t, _)| *t);
        FaultScript { events }
    }

    /// The events, in time order.
    pub fn events(&self) -> &[(SimTime, Fault)] {
        &self.events
    }

    /// True iff the script has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks well-formedness against an `n`-machine ensemble: node ids in
    /// range, crash only up machines, repair only crashed machines, and at
    /// most `lambda` simultaneous failures.
    ///
    /// Note: a machine is failed from its crash until its *repair plus
    /// initialization*; validation here uses repair time, so pass the
    /// engine's *recovery-complete* semantics by padding repairs if you
    /// need a strict bound (the generators below do).
    ///
    /// # Errors
    ///
    /// Returns a [`FaultScriptError`] describing the first violation.
    pub fn validate(&self, n: usize, lambda: usize) -> Result<(), FaultScriptError> {
        let mut down = vec![false; n];
        let mut count = 0usize;
        let mut last = SimTime::ZERO;
        for (t, ev) in &self.events {
            if *t < last {
                return Err(FaultScriptError {
                    msg: "events out of order".into(),
                });
            }
            last = *t;
            let node = match ev {
                Fault::Crash(m) | Fault::Repair(m) => *m,
            };
            if node.index() >= n {
                return Err(FaultScriptError {
                    msg: format!("node {node} out of range (n={n})"),
                });
            }
            match ev {
                Fault::Crash(m) => {
                    if down[m.index()] {
                        return Err(FaultScriptError {
                            msg: format!("{m} crashed while already down at {t}"),
                        });
                    }
                    down[m.index()] = true;
                    count += 1;
                    if count > lambda {
                        return Err(FaultScriptError {
                            msg: format!("{count} simultaneous failures exceed λ={lambda} at {t}"),
                        });
                    }
                }
                Fault::Repair(m) => {
                    if !down[m.index()] {
                        return Err(FaultScriptError {
                            msg: format!("{m} repaired while up at {t}"),
                        });
                    }
                    down[m.index()] = false;
                    count -= 1;
                }
            }
        }
        Ok(())
    }

    /// A Poisson crash/repair process: each up machine crashes at rate
    /// `crash_rate_hz`; each down machine is repaired after an exponential
    /// downtime with mean `mean_downtime`. Crashes that would exceed
    /// `lambda` simultaneous failures are suppressed (the paper *assumes*
    /// at most λ; the generator enforces it). The `init_slack` is added to
    /// each downtime so that the machine's initialization phase also
    /// finishes before the λ budget frees up.
    pub fn poisson(
        n: usize,
        lambda: usize,
        crash_rate_hz: f64,
        mean_downtime: SimTime,
        init_slack: SimTime,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        assert!(n > 0 && crash_rate_hz > 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        // Per-machine next event: Some(time) of next crash for up machines,
        // repair time for down machines.
        let mut down = vec![false; n];
        let exp = |rng: &mut ChaCha8Rng, mean_us: f64| -> u64 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            (-u.ln() * mean_us) as u64
        };
        let mean_up_us = 1e6 / crash_rate_hz;
        let mut next: Vec<SimTime> = (0..n)
            .map(|_| SimTime::from_micros(exp(&mut rng, mean_up_us)))
            .collect();
        let mut failed = 0usize;
        // Earliest pending event (deterministic tie-break by index).
        while let Some((i, t)) = next
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(i, t)| (*t, *i))
        {
            if t > horizon {
                break;
            }
            if down[i] {
                down[i] = false;
                failed -= 1;
                events.push((t, Fault::Repair(NodeId(i as u32))));
                next[i] = t + SimTime::from_micros(exp(&mut rng, mean_up_us));
            } else if failed < lambda {
                down[i] = true;
                failed += 1;
                events.push((t, Fault::Crash(NodeId(i as u32))));
                let downtime =
                    SimTime::from_micros(exp(&mut rng, mean_downtime.as_micros() as f64));
                next[i] = t + downtime + init_slack;
            } else {
                // λ budget exhausted: postpone this machine's crash.
                next[i] = t + SimTime::from_micros(exp(&mut rng, mean_up_us));
            }
        }
        FaultScript { events }
    }

    /// A "flaky subset" process: only the first `flaky` machines crash,
    /// repeatedly, round-robin with the given period and downtime. Models
    /// the workstation-reclaim pattern of adaptive parallelism (§1) where
    /// the same desks empty every day. Requires `lambda ≥ 1`.
    pub fn flaky_subset(
        flaky: usize,
        period: SimTime,
        downtime: SimTime,
        horizon: SimTime,
    ) -> Self {
        assert!(flaky > 0);
        assert!(
            downtime < period,
            "downtime must be shorter than the period"
        );
        let mut events = Vec::new();
        let mut t = period;
        let mut i = 0usize;
        while t + downtime <= horizon {
            let m = NodeId((i % flaky) as u32);
            events.push((t, Fault::Crash(m)));
            events.push((t + downtime, Fault::Repair(m)));
            i += 1;
            t += period;
        }
        FaultScript { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_sorts_by_time() {
        let s = FaultScript::scripted(vec![
            (SimTime::from_secs(2), Fault::Repair(NodeId(0))),
            (SimTime::from_secs(1), Fault::Crash(NodeId(0))),
        ]);
        assert_eq!(s.events()[0].1, Fault::Crash(NodeId(0)));
        assert!(s.validate(1, 1).is_ok());
    }

    #[test]
    fn validate_rejects_double_crash() {
        let s = FaultScript::scripted(vec![
            (SimTime::from_secs(1), Fault::Crash(NodeId(0))),
            (SimTime::from_secs(2), Fault::Crash(NodeId(0))),
        ]);
        assert!(s.validate(2, 2).is_err());
    }

    #[test]
    fn validate_rejects_lambda_violation() {
        let s = FaultScript::scripted(vec![
            (SimTime::from_secs(1), Fault::Crash(NodeId(0))),
            (SimTime::from_secs(1), Fault::Crash(NodeId(1))),
        ]);
        assert!(s.validate(3, 1).is_err());
        assert!(s.validate(3, 2).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_and_spurious_repair() {
        let s = FaultScript::scripted(vec![(SimTime::ZERO, Fault::Crash(NodeId(5)))]);
        assert!(s.validate(3, 3).is_err());
        let s = FaultScript::scripted(vec![(SimTime::ZERO, Fault::Repair(NodeId(0)))]);
        assert!(s.validate(3, 3).is_err());
    }

    #[test]
    fn poisson_respects_lambda() {
        let s = FaultScript::poisson(
            8,
            2,
            0.5,
            SimTime::from_secs(2),
            SimTime::from_secs(1),
            SimTime::from_secs(200),
            42,
        );
        assert!(!s.is_empty(), "expected some faults over 200s at 0.5 Hz");
        s.validate(8, 2).expect("generator must respect λ");
    }

    #[test]
    fn poisson_is_deterministic() {
        let mk = || {
            FaultScript::poisson(
                4,
                1,
                1.0,
                SimTime::from_secs(1),
                SimTime::ZERO,
                SimTime::from_secs(50),
                7,
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn flaky_subset_only_touches_subset() {
        let s = FaultScript::flaky_subset(
            2,
            SimTime::from_secs(10),
            SimTime::from_secs(3),
            SimTime::from_secs(100),
        );
        s.validate(5, 1).unwrap();
        for (_, ev) in s.events() {
            let m = match ev {
                Fault::Crash(m) | Fault::Repair(m) => *m,
            };
            assert!(m.index() < 2);
        }
    }

    #[test]
    fn empty_script() {
        assert!(FaultScript::none().is_empty());
        assert!(FaultScript::none().validate(1, 0).is_ok());
    }

    #[test]
    fn fault_plan_none_is_pass_through_and_spends_no_randomness() {
        let plan = FaultPlan::none();
        assert!(plan.is_pass_through());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let before = rng.next_u64();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for i in 0..8u32 {
            assert_eq!(
                plan.decide(NodeId(i), NodeId(i + 1), &mut rng),
                LinkFate::Deliver
            );
        }
        // The pass-through plan never touched the RNG stream.
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    fn fault_plan_partition_blocks_both_directions_only_across_cells() {
        let a = [NodeId(0), NodeId(1)];
        let b = [NodeId(2)];
        let plan = FaultPlan::none().partition(&[&a, &b]);
        assert!(!plan.is_pass_through());
        assert!(plan.is_blocked(NodeId(0), NodeId(2)));
        assert!(plan.is_blocked(NodeId(2), NodeId(1)));
        assert!(!plan.is_blocked(NodeId(0), NodeId(1)));
        // Node 3 is in no cell: unrestricted.
        assert!(!plan.is_blocked(NodeId(3), NodeId(0)));
        assert!(!plan.is_blocked(NodeId(2), NodeId(3)));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(plan.decide(NodeId(0), NodeId(2), &mut rng), LinkFate::Drop);
        assert_eq!(
            plan.decide(NodeId(0), NodeId(1), &mut rng),
            LinkFate::Deliver
        );
    }

    #[test]
    fn fault_plan_link_overrides_beat_defaults() {
        let plan = FaultPlan::none()
            .drop_all(1.0)
            .drop_link(NodeId(0), NodeId(1), 0.0)
            .delay_all(DelayDist::fixed(500))
            .delay_link(NodeId(0), NodeId(1), DelayDist::ZERO);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // The exempted link delivers immediately; every other link drops.
        assert_eq!(
            plan.decide(NodeId(0), NodeId(1), &mut rng),
            LinkFate::Deliver
        );
        assert_eq!(plan.decide(NodeId(1), NodeId(0), &mut rng), LinkFate::Drop);
        assert_eq!(plan.drop_prob(NodeId(0), NodeId(1)), 0.0);
        assert_eq!(plan.drop_prob(NodeId(1), NodeId(2)), 1.0);
    }

    #[test]
    fn jitter_rides_on_top_of_delay_and_is_reported_separately() {
        let plan = FaultPlan::none()
            .delay_all(DelayDist::fixed(100))
            .jitter_all(DelayDist::uniform(1, 50));
        assert!(!plan.is_pass_through());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..32 {
            let d = plan.decide_detailed(NodeId(0), NodeId(1), &mut rng);
            assert!((1..=50).contains(&d.jitter_micros));
            match d.fate {
                LinkFate::Delay(total) => assert_eq!(total, 100 + d.jitter_micros),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
        // Jitter alone (no delay) still delays the message.
        let plan = FaultPlan::none().jitter_all(DelayDist::fixed(7));
        let d = plan.decide_detailed(NodeId(0), NodeId(1), &mut rng);
        assert_eq!(d.fate, LinkFate::Delay(7));
        assert_eq!(d.jitter_micros, 7);
    }

    #[test]
    fn latency_model_samples_base_jitter_and_asymmetry() {
        let m = LatencyModel::uniform(DelayDist::fixed(200))
            .with_jitter(DelayDist::uniform(1, 20))
            .with_asymmetry(2.0)
            .link(NodeId(0), NodeId(1), DelayDist::fixed(500));
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Per-link override, forward direction: 500 + jitter.
        let s = m.sample(NodeId(0), NodeId(1), &mut rng);
        assert_eq!(s.total_micros - s.jitter_micros, 500);
        // Default base, forward (from < to): unscaled.
        let s = m.sample(NodeId(1), NodeId(2), &mut rng);
        assert_eq!(s.total_micros - s.jitter_micros, 200);
        // Reverse direction (from > to): base scaled by the asymmetry.
        let s = m.sample(NodeId(2), NodeId(1), &mut rng);
        assert_eq!(s.total_micros - s.jitter_micros, 400);
        assert!((1..=20).contains(&s.jitter_micros));
    }

    #[test]
    fn net_model_default_is_bus() {
        assert_eq!(NetModel::default(), NetModel::Bus);
    }

    #[test]
    #[should_panic(expected = "churn rate")]
    fn churn_model_rejects_nonpositive_rate() {
        let _ = ChurnModel::new(0.0, SimTime::from_secs(1), 1);
    }

    #[test]
    fn fault_plan_delay_samples_within_bounds_deterministically() {
        let plan = FaultPlan::none().delay_all(DelayDist::uniform(100, 200));
        let sample = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut out = Vec::new();
            for _ in 0..32 {
                match plan.decide(NodeId(0), NodeId(1), &mut rng) {
                    LinkFate::Delay(d) => {
                        assert!((100..=200).contains(&d), "delay {d} out of bounds");
                        out.push(d);
                    }
                    other => panic!("expected a delay, got {other:?}"),
                }
            }
            out
        };
        assert_eq!(sample(9), sample(9), "same seed, same fates");
    }
}
