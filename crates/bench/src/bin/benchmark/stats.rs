//! Exact order statistics over raw samples, and process memory.
//!
//! The product's `paso_telemetry::Histogram` has power-of-two buckets, so
//! its quantiles carry up to 2× error (ROADMAP item 1). Everything this
//! benchmark publishes is computed here from the full sorted sample.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule
/// on the sorted vector: exact, no interpolation, no buckets. Returns 0
/// for an empty sample.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of floats (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Phases a measured window (sim: a round) is cut into.
pub const PHASES: usize = 6;

/// One figure per phase from `reps[r][p]`, phase `p` of repetition `r`
/// of the same planned work: the best of the repetitions, i.e. the lowest
/// of a lower-is-better metric and the highest of a higher-is-better one.
/// Non-finite entries (a phase without samples) are passed over.
///
/// The boxes this runs on are one hyperthread pair shared with other
/// tenants: a fixed spin loop runs at 1.2× its best time for seconds, then
/// at 1.5× for seconds. Whole-run medians land on either mode; over ten
/// runs their inter-quartile spread was 13–28 % of the median, on the
/// single-threaded deterministic simulator too. Interference only ever
/// slows a phase down, so the best of its repetitions estimates what the
/// phase costs, and the caller then takes the mean or the median *over
/// the phases*. A stall the product causes at some point of the plan is in
/// every repetition and stays in the figure; one a neighbour causes is in
/// one or two and drops out. A stall the product causes at random times
/// drops out as well: the `bench.whole_run_*` medians, printed beside,
/// still carry it.
pub fn best_per_phase(reps: &[Vec<f64>], better: Better) -> Vec<f64> {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    (0..PHASES)
        .filter_map(|p| {
            reps.iter()
                .filter_map(|r| r.get(p).copied().filter(|v| v.is_finite()))
                .reduce(pick)
        })
        .collect()
}

/// The shortest of `times`, 0 for none: set-up is one phase that a pass
/// repeats, and its figure is taken like any other phase's.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Arithmetic mean, 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nanoseconds → microseconds as a float, keeping the sub-µs digits.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        // 1..=100: the q-quantile is exactly 100·q, which no power-of-two
        // bucketing can return for q = 0.5 (50) or 0.99 (99).
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut odd = vec![7, 1000, 3];
        assert_eq!(percentile(&mut odd, 0.5), 7);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn best_per_phase_takes_each_phase_from_its_best_repetition() {
        let nan = f64::NAN;
        let reps = vec![
            vec![10.0, 50.0, nan, 9.0, 9.0, 9.0],
            vec![30.0, 20.0, nan, 9.0, 9.0, 9.0],
        ];
        // Phase 1 is slow in every repetition and stays slow; phase 2 has
        // no samples and yields no figure.
        assert_eq!(
            best_per_phase(&reps, Better::Lower),
            [10.0, 20.0, 9.0, 9.0, 9.0]
        );
        assert_eq!(best_per_phase(&reps, Better::Higher)[..2], [30.0, 50.0]);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(fastest(&[0.5, 0.25, 1.0]), 0.25);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
