//! The doubling/halving algorithm (§5.1, Theorem 3).
//!
//! When the number of live objects `ℓ` in the class changes over time, the
//! join cost `K = g(ℓ)` (copying the class state) drifts. "Roughly
//! speaking, the algorithm resets itself every time the ratio between join
//! cost and update cost changes by a factor of 2. In resetting, it either
//! doubles or halves K." Each server keeps `k_m`, its working copy of `K`,
//! updated by piggybacking on reads (we model the piggyback as exact
//! knowledge, which the paper's protocol provides within one message
//! round).

use crate::counter::BasicCounter;
use crate::model::{Event, Membership, ModelParams, Strategy};

/// Theorem 3's reset: the working threshold `k_m` after the true join cost
/// is measured at `k`. `k_m` is doubled while `k ≥ 2·k_m` and halved while
/// `2·k ≤ k_m`, so it moves only once `k` has drifted 2× away and then
/// lands within a factor of 2 of it. The one rule behind
/// [`DoublingStrategy`] and the memory server's measured `K`.
///
/// # Examples
///
/// ```
/// use paso_adaptive::retune_k;
///
/// assert_eq!(retune_k(16, 31), 16);
/// assert_eq!(retune_k(16, 70), 64);
/// assert_eq!(retune_k(64, 32), 32);
/// ```
pub fn retune_k(k_m: u64, k: u64) -> u64 {
    let mut k_m = k_m.max(1);
    // `k ≥ 2·k_m` and `2·k ≤ k_m`, in forms that cannot overflow.
    while k / 2 >= k_m {
        k_m *= 2;
    }
    while k_m >= 2 && k <= k_m / 2 {
        k_m /= 2;
    }
    k_m
}

/// Doubling/halving wrapper around the Basic counter; `(6 + 2λ/K)`-
/// competitive per Theorem 3.
///
/// # Examples
///
/// ```
/// use paso_adaptive::{DoublingStrategy, Event, ModelParams, Strategy};
///
/// let mut s = DoublingStrategy::new(ModelParams::uniform(1, 4), 4);
/// // Inserts grow the class; the working K doubles when g(ℓ) ≥ 2·k_m.
/// for _ in 0..12 { s.serve(Event::Insert); }
/// assert!(s.working_k() >= 8);
/// ```
#[derive(Debug, Clone)]
pub struct DoublingStrategy {
    counter: BasicCounter,
    /// Current number of live objects in the class.
    ell: u64,
    /// Working join threshold `k_m`.
    k_m: u64,
    params: ModelParams,
    initial_ell: u64,
}

impl DoublingStrategy {
    /// Creates the strategy for a class currently holding `ell` objects.
    /// `params.k_join` is ignored as a threshold (it is derived from `ℓ`)
    /// but seeds the initial working value.
    pub fn new(params: ModelParams, ell: u64) -> Self {
        let k0 = Self::g(ell).max(1);
        let mut counter_params = params;
        counter_params.k_join = k0;
        DoublingStrategy {
            counter: BasicCounter::new(counter_params),
            ell,
            k_m: k0,
            params,
            initial_ell: ell,
        }
    }

    /// The join (state-copy) cost for a class of `ell` objects:
    /// `g(ℓ) = max(ℓ, 1)` in normalized units (state size is linear, §5.2).
    pub fn g(ell: u64) -> u64 {
        ell.max(1)
    }

    /// The current working threshold `k_m`.
    pub fn working_k(&self) -> u64 {
        self.k_m
    }

    /// The current class size `ℓ`.
    pub fn ell(&self) -> u64 {
        self.ell
    }

    fn retune(&mut self) {
        self.k_m = retune_k(self.k_m, Self::g(self.ell));
        self.counter.set_k(self.k_m);
    }
}

impl Strategy for DoublingStrategy {
    fn membership(&self) -> Membership {
        if self.counter.is_member() {
            Membership::In
        } else {
            Membership::Out
        }
    }

    fn serve(&mut self, ev: Event) -> u64 {
        match ev {
            Event::Read { failed } => {
                if self.counter.is_member() {
                    self.counter.record_local_read();
                    self.params.local_read_cost()
                } else {
                    let c = self.params.remote_read_cost(failed);
                    match self.counter.record_remote_read(failed) {
                        crate::counter::Advice::Join => {
                            // The real join copies the real state: g(ℓ).
                            c + Self::g(self.ell)
                        }
                        _ => c,
                    }
                }
            }
            Event::Insert => {
                self.ell += 1;
                let c = if self.counter.is_member() {
                    self.counter.record_update();
                    1
                } else {
                    0
                };
                self.retune();
                c
            }
            Event::Delete => {
                self.ell = self.ell.saturating_sub(1);
                let c = if self.counter.is_member() {
                    self.counter.record_update();
                    1
                } else {
                    0
                };
                self.retune();
                c
            }
        }
    }

    fn reset(&mut self) {
        *self = DoublingStrategy::new(self.params, self.initial_ell);
    }
}

/// Offline optimum with a join cost that varies per step (the doubling
/// model: joining before event `i` costs `g(ℓᵢ)`).
pub fn optimum_variable_k(events: &[Event], params: &ModelParams) -> u64 {
    let inf = u64::MAX / 4;
    let mut ell: u64 = 0;
    // First pass: ℓ before each event, assuming ℓ starts at the number
    // implied by the caller (0) — callers that want a different ℓ₀ should
    // prepend Insert events.
    let mut prev_out = 0u64;
    let mut prev_in = inf;
    for ev in events {
        let k = DoublingStrategy::g(ell);
        let (serve_out, serve_in) = match ev {
            Event::Read { failed } => (params.remote_read_cost(*failed), params.local_read_cost()),
            Event::Insert | Event::Delete => (0, 1),
        };
        let out_base = prev_out.min(prev_in);
        let in_base = prev_in.min(prev_out.saturating_add(k));
        prev_out = out_base + serve_out;
        prev_in = in_base + serve_in;
        match ev {
            Event::Insert => ell += 1,
            Event::Delete => ell = ell.saturating_sub(1),
            _ => {}
        }
    }
    prev_out.min(prev_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::run_strategy;
    use crate::model::Event::{Delete, Insert};
    const READ: Event = Event::READ;

    #[test]
    fn retune_k_moves_only_at_a_factor_of_two() {
        // Doubling edge: K stays until the measure reaches 2·k_m.
        assert_eq!(retune_k(16, 16), 16);
        assert_eq!(retune_k(16, 31), 16);
        assert_eq!(retune_k(16, 32), 32);
        assert_eq!(retune_k(16, 63), 32);
        assert_eq!(retune_k(16, 64), 64);
        assert_eq!(retune_k(16, 127), 64);
        // Halving edge: K stays while the measure is above k_m / 2.
        assert_eq!(retune_k(64, 33), 64);
        assert_eq!(retune_k(64, 32), 32);
        assert_eq!(retune_k(64, 17), 32);
        assert_eq!(retune_k(64, 16), 16);
        assert_eq!(retune_k(5, 3), 5);
        assert_eq!(retune_k(5, 2), 2);
        // Floors and extremes.
        assert_eq!(retune_k(64, 1), 1);
        assert_eq!(retune_k(64, 0), 1);
        assert_eq!(retune_k(0, 0), 1);
        assert_eq!(retune_k(1, u64::MAX), 1 << 63);
        for k_m in [1u64, 2, 3, 16, 64, 1000] {
            for k in 1..5000 {
                let next = retune_k(k_m, k);
                assert!(next < 2 * k && k < 2 * next, "k_m {k_m}, k {k} → {next}");
                assert_eq!(retune_k(next, k), next, "a second retune is a no-op");
            }
        }
    }

    #[test]
    fn k_doubles_as_class_grows() {
        let mut s = DoublingStrategy::new(ModelParams::uniform(0, 1), 1);
        assert_eq!(s.working_k(), 1);
        for _ in 0..100 {
            s.serve(Insert);
        }
        assert_eq!(s.ell(), 101);
        assert!(s.working_k() >= 64, "k_m must track g(ℓ) within 2×");
        assert!(s.working_k() <= 128);
    }

    #[test]
    fn k_halves_as_class_shrinks() {
        let mut s = DoublingStrategy::new(ModelParams::uniform(0, 1), 128);
        assert_eq!(s.working_k(), 128);
        for _ in 0..120 {
            s.serve(Delete);
        }
        assert!(s.working_k() <= 16);
    }

    #[test]
    fn k_m_stays_within_factor_two_of_true_k() {
        let mut s = DoublingStrategy::new(ModelParams::uniform(1, 1), 10);
        let mut seq = Vec::new();
        for i in 0..400 {
            seq.push(if i % 3 == 0 {
                READ
            } else if i % 2 == 0 {
                Insert
            } else {
                Delete
            });
        }
        for ev in seq {
            s.serve(ev);
            let true_k = DoublingStrategy::g(s.ell());
            assert!(
                s.working_k() <= 2 * true_k && true_k <= 2 * s.working_k(),
                "k_m={} vs g(ℓ)={}",
                s.working_k(),
                true_k
            );
        }
    }

    #[test]
    fn join_charges_real_copy_cost() {
        // λ=0 → remote read costs 1; ℓ=8 → k_m=8; 8 reads trigger a join
        // that copies 8 objects.
        let mut s = DoublingStrategy::new(ModelParams::uniform(0, 1), 8);
        let mut total = 0;
        for _ in 0..8 {
            total += s.serve(READ);
        }
        assert_eq!(s.membership(), Membership::In);
        assert_eq!(total, 8 + 8, "8 remote reads + the g(ℓ)=8 join copy");
    }

    #[test]
    fn variable_opt_lower_bounds_doubling() {
        let p = ModelParams::uniform(1, 1);
        let mut events = Vec::new();
        // Growth phase, read burst, shrink phase, read burst.
        events.extend(std::iter::repeat_n(Insert, 50));
        events.extend(std::iter::repeat_n(READ, 80));
        events.extend(std::iter::repeat_n(Delete, 40));
        events.extend(std::iter::repeat_n(READ, 80));
        let opt = optimum_variable_k(&events, &p);
        let mut s = DoublingStrategy::new(p, 0);
        let online = run_strategy(&mut s, &events);
        assert!(opt <= online);
        assert!(opt > 0);
        // Theorem 3 shape: online within (6 + 2λ/K)·OPT + additive slack.
        let bound = 6.0 + 2.0 * 1.0 / 1.0;
        assert!(
            (online as f64) <= bound * opt as f64 + 2.0 * 128.0,
            "online={online} opt={opt}"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::{
            prop_assert, prop_oneof, proptest, Just, ProptestConfig, Strategy as PropStrategy,
        };

        fn arb_event() -> impl PropStrategy<Value = Event> {
            prop_oneof![
                3 => Just(READ),
                2 => Just(Insert),
                2 => Just(Delete),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn doubling_stays_within_theorem3_bound(
                events in proptest::collection::vec(arb_event(), 0..600),
                lambda in 0u64..5,
            ) {
                let p = ModelParams::uniform(lambda, 1);
                let mut s = DoublingStrategy::new(p, 0);
                let online = run_strategy(&mut s, &events);
                let opt = optimum_variable_k(&events, &p);
                // Theorem 3 with K = min working threshold = 1 and an
                // additive constant covering one maximal join + counter.
                let max_ell = {
                    let mut ell = 0i64;
                    let mut max = 0;
                    for e in &events {
                        match e {
                            Event::Insert => ell += 1,
                            Event::Delete => ell -= 1,
                            _ => {}
                        }
                        max = max.max(ell);
                    }
                    max as f64
                };
                let bound = 6.0 + 2.0 * lambda as f64;
                let additive = 2.0 * max_ell + 2.0 * lambda as f64 + 4.0;
                prop_assert!(
                    online as f64 <= bound * opt as f64 + additive,
                    "online {} > {:.1}·{} + {:.1} (λ={}, {} events)",
                    online, bound, opt, additive, lambda, events.len()
                );
            }

            #[test]
            fn working_k_always_within_2x_of_true_k(
                events in proptest::collection::vec(arb_event(), 0..400),
            ) {
                let mut s = DoublingStrategy::new(ModelParams::uniform(1, 1), 0);
                for e in events {
                    s.serve(e);
                    let true_k = DoublingStrategy::g(s.ell());
                    prop_assert!(
                        s.working_k() <= 2 * true_k && true_k <= 2 * s.working_k()
                    );
                }
            }
        }
    }

    #[test]
    fn reset_restores_initial_ell() {
        let mut s = DoublingStrategy::new(ModelParams::uniform(0, 1), 5);
        s.serve(Insert);
        s.serve(READ);
        s.reset();
        assert_eq!(s.ell(), 5);
        assert_eq!(s.membership(), Membership::Out);
    }
}
