//! `--check`: the repeatability evidence. Every workload runs its plain
//! pass twice with the same seed and once with the next seed; each
//! end-to-end metric's spread across the three runs must stay within the
//! bound `BENCHMARK.json` fixes for it, and the simulator's counts must
//! be identical between the two same-seed runs. `setup_s` may instead
//! stay within [`SETUP_SLACK_S`]: set-up is tens of milliseconds on the
//! proxy workloads, where a quarter of it is one scheduler tick.

use std::process::ExitCode;

use crate::json;
use crate::metrics::END_TO_END;
use crate::stats::median;
use crate::{run_pass, Driver, RunSpec, Workload};

/// Absolute spread `setup_s` is allowed where its relative bound is
/// tighter than this.
const SETUP_SLACK_S: f64 = 0.2;

/// Simulator figures that must repeat exactly for one seed.
const EXACT_ON_SIM: &[&str] = &["msgs_per_op", "bytes_per_op"];
const EXACT_ON_SIM_LAYER: &[&str] = &["msg_cost_per_op", "sim_lat_p50_us", "sim_lat_p99_us"];

/// `end_to_end[].bound` by metric name, from `./BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    json::as_array(json::get(&doc, "end_to_end").ok_or("no end_to_end")?)
        .iter()
        .map(|m| {
            let name = json::get(m, "name").and_then(json::as_str);
            let bound = json::get(m, "bound").and_then(json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or("end_to_end entry without name and bound".to_owned())
        })
        .collect()
}

pub fn run(workloads: &[&Workload], seed: u64, seconds: f64) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchmark --check: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in workloads {
        let outs: Vec<_> = [seed, seed, seed + 1]
            .into_iter()
            .map(|seed| {
                let spec = RunSpec {
                    seed,
                    seconds,
                    trace: false,
                };
                run_pass(w, &spec).0
            })
            .collect();
        println!(
            "== {} --check: seeds {seed}, {seed}, {} ==",
            w.name,
            seed + 1
        );
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "run 1", "run 2", "run 3", "spread", "bound"
        );
        for d in END_TO_END {
            let v: Vec<f64> = outs.iter().map(|o| o.e2e.get(d.name)).collect();
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            let spread = (hi - lo) / median(&v);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == d.name)
                .map_or(0.0, |(_, b)| *b);
            let slack = d.name == "setup_s" && hi - lo <= SETUP_SLACK_S;
            let pass = lo > 0.0 && (spread <= bound || slack);
            ok &= pass;
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}% {}",
                d.name,
                v[0],
                v[1],
                v[2],
                spread * 100.0,
                bound * 100.0,
                match (pass, spread <= bound) {
                    (true, true) => "ok",
                    (true, false) => "ok (within 0.2 s)",
                    (false, _) => "OUT OF BOUND",
                }
            );
        }
        if matches!(w.driver, Driver::Sim(_)) {
            let same = EXACT_ON_SIM
                .iter()
                .all(|n| outs[0].e2e.get(n) == outs[1].e2e.get(n))
                && EXACT_ON_SIM_LAYER
                    .iter()
                    .all(|n| outs[0].layer.get(n) == outs[1].layer.get(n));
            println!(
                "  same-seed simulator counts {}",
                if same { "identical" } else { "DIFFER" }
            );
            ok &= same;
        }
        for o in &outs {
            if !o.correct || o.failed > 0 {
                println!(
                    "  correct {}  failed {} of {}",
                    o.correct, o.failed, o.attempted
                );
                ok = false;
            }
        }
    }
    if ok {
        println!("--check passed");
        ExitCode::SUCCESS
    } else {
        println!("--check FAILED");
        ExitCode::FAILURE
    }
}
