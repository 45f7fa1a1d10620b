//! Experiment E2 — **Theorem 2**: the Basic algorithm is
//! `(3 + λ/K)`-competitive (and E2q: the §5.1 query-cost extension is
//! `(3 + 2λ/K)`-competitive).
//!
//! For every (λ, K) we measure `Basic(σ)/OPT(σ)` against the *exact* DP
//! optimum on three workload families — random mixes, bursty locality,
//! and the oscillation adversary — and additionally run the mechanized
//! potential-function check event-by-event (the executable Theorem 2
//! proof). Pass `--qcost` for the q > 1 variant.
//!
//! Usage: `cargo run --release -p paso-bench --bin exp_thm2 [-- --qcost]`

use paso_adaptive::{measure, oscillation_adversary, verify_theorem2, BasicStrategy, ModelParams};
use paso_bench::{f2, Table};
use paso_workload::requests;

fn main() {
    let qcost = std::env::args().any(|a| a == "--qcost");
    let qs: &[u64] = if qcost { &[2, 4] } else { &[1] };
    println!(
        "E2 / Theorem 2 — Basic algorithm competitiveness{}",
        if qcost { " (q-cost extension)" } else { "" }
    );
    println!("ratio = Basic(σ)/OPT(σ) with exact DP optimum; 2000-event sequences\n");

    let mut failed = false;
    for &q in qs {
        if qcost {
            println!("— query cost q = {q} —");
        }
        let mut table = Table::new([
            "λ",
            "K",
            "bound",
            "random",
            "bursty",
            "adversary",
            "max",
            "within",
            if q == 1 { "potential-check" } else { "-" },
        ]);
        let mut all_within = true;
        for lambda in [0u64, 1, 2, 4, 8] {
            for k in [1u64, 2, 4, 8, 16, 32] {
                let params = if q == 1 {
                    ModelParams::uniform(lambda, k)
                } else {
                    ModelParams::with_query_cost(lambda, k, q)
                };
                let mut basic = BasicStrategy::new(params);

                let random = requests::uniform_mix(2000, 0.6, lambda, lambda * 100 + k);
                let bursty = requests::bursty(
                    (2 * k as usize).max(4),
                    (2 * k as usize).max(4),
                    2000 / (4 * k as usize).max(8) + 1,
                );
                let adversary = oscillation_adversary(&params, 200);

                let r_random = measure(&mut basic, &random, &params);
                let r_bursty = measure(&mut basic, &bursty, &params);
                let r_adv = measure(&mut basic, &adversary, &params);
                let max_ratio = r_random.ratio.max(r_bursty.ratio).max(r_adv.ratio);
                let within = r_random.within_bound && r_bursty.within_bound && r_adv.within_bound;
                all_within &= within;

                let potential = if q == 1 {
                    let rep = verify_theorem2(&adversary, &params);
                    let rep2 = verify_theorem2(&random, &params);
                    if rep.ok && rep2.ok {
                        "OK".to_string()
                    } else {
                        all_within = false;
                        format!(
                            "{} violations",
                            rep.violations.len() + rep2.violations.len()
                        )
                    }
                } else {
                    "-".to_string()
                };

                table.row([
                    lambda.to_string(),
                    k.to_string(),
                    f2(params.competitive_bound()),
                    f2(r_random.ratio),
                    f2(r_bursty.ratio),
                    f2(r_adv.ratio),
                    f2(max_ratio),
                    if within {
                        "yes".into()
                    } else {
                        "NO".to_string()
                    },
                    potential,
                ]);
            }
        }
        table.print();
        println!(
            "\nall parameter points within the Theorem bound: {}",
            if all_within {
                "YES"
            } else {
                "NO — REPRODUCTION FAILURE"
            }
        );
        println!("expected shape: every measured ratio ≤ bound; the adversary column");
        println!("approaches the bound as λ/K grows; the potential check reports OK.\n");
        failed |= !all_within;
    }
    if failed {
        std::process::exit(1);
    }
}
