//! The repository's one benchmark: five named workloads, five end-to-end
//! metrics, and a per-layer ladder from codec to proxy. See `README.md`
//! beside this file for the glossary and how the layers interact.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke] [--check]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` for the last pass run.

mod check;
mod gen;
mod json;
mod keeper;
mod ladder;
mod layers;
mod live;
mod metrics;
mod report;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use gen::Shape;
use live::{LiveSpec, Load};
use metrics::Values;
use sim::SimSpec;
use spans::Spans;

/// One pass of one workload.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or plain pass (end-to-end).
    pub trace: bool,
}

/// What one pass of one workload measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No wrong answer, no semantics/axiom violation, no dropped trace.
    pub correct: bool,
    pub attempted: u64,
    /// Timeouts + `Unavailable` + `Busy` + wrong or unexpectedly missing
    /// results.
    pub failed: u64,
    pub e2e: Values,
    pub layer: Values,
}

#[derive(Debug, Clone, Copy)]
pub enum Driver {
    Live(LiveSpec),
    Sim(SimSpec),
}

/// A named workload and why it exists (`BENCHMARK.json` carries the same
/// names and reasons).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
}

/// Two-field tuples `("load", Int)`, ⅓ each op type. The pool is deep
/// enough (256 → a 192-op horizon) that a straggling answer almost never
/// makes the generator wait.
const SMALL: Shape = Shape {
    tag: "load",
    payload_bytes: 0,
    depth: 256,
    reads_per_step: 1,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "proxy_open",
        why: "open loop at 1500 ops/s through the proxy: every op pays the whole client-gateway-server-gcast-Done chain and batching never engages, so per-hop latency work shows here",
        driver: Driver::Live(LiveSpec {
            load: Load::ProxyOpen {
                rate: 1500.0,
                window: 32,
            },
            shape: SMALL,
        }),
    },
    Workload {
        name: "proxy_sat",
        why: "closed loop, 2 connections x 16 outstanding: saturates sequencer, gateway batching and reactor, so batching/coalescing/pipelining gains show as ops_per_s",
        driver: Driver::Live(LiveSpec {
            load: Load::ProxySat {
                conns: 2,
                window: 16,
            },
            shape: SMALL,
        }),
    },
    Workload {
        name: "direct_bulk",
        why: "one caller on the Cluster API, 512 B payloads over a 4000-tuple Scan store, half reads: bypasses the proxy and loads storage scans, payload codec bytes and the reactor",
        driver: Driver::Live(LiveSpec {
            load: Load::Direct { callers: 1 },
            shape: Shape {
                tag: "blob",
                payload_bytes: 512,
                depth: 4000,
                reads_per_step: 2,
            },
        }),
    },
    Workload {
        name: "sim_adaptive",
        why: "SimSystem n=8 lambda=2, adaptive and durable: the paper's subject (counter joins and leaves, join cost K, state transfer, WAL appends and compaction) on a seeded scheduler where counts repeat",
        driver: Driver::Sim(SimSpec {
            adaptive: true,
            durable: true,
            ops_per_round: 6_000,
        }),
    },
    Workload {
        name: "sim_static",
        why: "SimSystem n=8 lambda=2 with adaptive off, no faults, no WAL: isolates simnet engine, MemoryServer and steady-state gcast; a change to the adaptive path must not move it",
        driver: Driver::Sim(SimSpec {
            adaptive: false,
            durable: false,
            ops_per_round: 30_000,
        }),
    },
];

/// Runs one pass, prints it, and returns its outcome plus the spans it
/// recorded.
pub fn run_pass(w: &Workload, run: &RunSpec) -> (Outcome, Spans) {
    let mut spans = Spans::new(Instant::now());
    // A live system runs on one CPU that never halts; see `keeper.rs`.
    // (Declared in this order: the keepers stop before the CPUs come back.)
    let live = matches!(w.driver, Driver::Live(_));
    let _one_cpu = live.then(keeper::OneCpu::pin).flatten();
    let _keepers = live.then(keeper::IdleKeepers::start);
    let mut out = match &w.driver {
        Driver::Live(spec) => live::run(spec, run, &mut spans),
        Driver::Sim(spec) => sim::run(spec, run, &mut spans),
    };
    let ladder = run.trace.then(|| ladder::run(w, run, &mut out, &mut spans));
    out.layer.set("peak_rss_mb", stats::peak_rss_mb());
    report::print_pass(w, run, &out);
    if let Some(table) = ladder {
        println!("{table}");
    }
    (out, spans)
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: run the plain pass and then the traced pass.
    trace: Option<bool>,
    check: bool,
}

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
                     [--trace [0|1]] [--smoke] [--check]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        // `run_seconds` in `BENCHMARK.json`.
        seconds: 20.0,
        trace: None,
        check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--smoke" => args.seconds = 2.0,
            "--check" => args.check = true,
            "--trace" => {
                args.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if args.check {
        return check::run(&workloads, args.seed, args.seconds);
    }
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut ok = true;
    let mut last_line = String::new();
    for w in workloads {
        let mut file = report::OutputFile::new(w, args.seed, args.seconds);
        for &trace in passes {
            let run = RunSpec {
                seed: args.seed,
                seconds: args.seconds,
                trace,
            };
            let (out, spans) = run_pass(w, &run);
            ok &= out.correct;
            last_line = report::result_line(&out, trace);
            file.add_pass(&out, trace);
            if trace {
                if let Err(e) = report::write_spans(w, &spans) {
                    eprintln!("benchmark: cannot write spans: {e}");
                    ok = false;
                }
            }
        }
        if let Err(e) = file.write() {
            eprintln!("benchmark: cannot write result file: {e}");
            ok = false;
        }
    }
    println!("{last_line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: a correctness gate failed (wrong result, axiom violation, dropped trace or exhausted plan)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{MetricDef, END_TO_END, PER_LAYER};
    use paso_wire::mini_json::Json;

    /// The contract file at the repository root.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn contract() -> Json {
        json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
    }

    fn names(doc: &Json, section: &str) -> Vec<(String, String)> {
        json::as_array(json::get(doc, section).expect("section present"))
            .iter()
            .map(|m| {
                let field = |k| {
                    json::get(m, k)
                        .and_then(json::as_str)
                        .expect("string field")
                };
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    }

    fn declared(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics_and_workloads() {
        let doc = contract();
        assert_eq!(names(&doc, "end_to_end"), declared(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), declared(PER_LAYER));
        let workloads: Vec<(&str, &str)> = json::as_array(json::get(&doc, "workloads").unwrap())
            .iter()
            .map(|w| {
                let field = |k| {
                    json::get(w, k)
                        .and_then(json::as_str)
                        .expect("string field")
                };
                (field("name"), field("why"))
            })
            .collect();
        let table: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, table);
        for (_, why) in table {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for m in json::as_array(json::get(&doc, "end_to_end").unwrap()) {
            let bound = json::get(m, "bound").and_then(json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    /// The last line of output must parse and carry exactly the contract's
    /// keys: end-to-end metrics for a plain pass, per-layer for a traced one.
    #[test]
    fn result_line_parses_and_carries_every_metric_name() {
        let mut out = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            e2e: Values::default(),
            layer: Values::default(),
        };
        out.e2e.set("lat_p50_us", 12.5);
        let doc = contract();
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = json::parse(&report::result_line(&out, trace)).expect("line parses");
            let Json::Obj(entries) = &line else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = json::get(&line, "metrics") else {
                panic!("metrics is not an object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(json::get(v, "value").and_then(json::as_f64).is_some());
                    let unit = json::get(v, "unit").and_then(json::as_str).expect("unit");
                    (k.clone(), unit.to_owned())
                })
                .collect();
            assert_eq!(got, names(&doc, section));
        }
        let line = json::parse(&report::result_line(&out, false)).unwrap();
        let p50 = json::get(json::get(&line, "metrics").unwrap(), "lat_p50_us").unwrap();
        assert_eq!(json::get(p50, "value").and_then(json::as_f64), Some(12.5));
    }
}
