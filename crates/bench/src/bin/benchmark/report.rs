//! Output: the human-readable tables, the one-line JSON result, and the
//! files under `<target dir>/benchmark/`.

use std::io::BufWriter;
use std::path::PathBuf;
use std::process::Command;

use paso_wire::mini_json::Json;

use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::{Outcome, RunSpec, Workload};

/// `<CARGO_TARGET_DIR or target>/benchmark`, created on demand. Cargo
/// exports the variable to `cargo run` children, so output lands beside
/// the build and under the same `.gitignore` entry.
fn out_dir() -> std::io::Result<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Prints the metrics of `defs` the pass produced.
fn print_table(title: &str, defs: &[MetricDef], values: &Values) {
    println!("  {title}");
    for d in defs.iter().filter(|d| values.has(d.name)) {
        println!("    {:<36} {:>16.4} {}", d.name, values.get(d.name), d.unit);
    }
}

/// Prints every metric the pass produced by name, with its unit.
pub fn print_pass(w: &Workload, run: &RunSpec, out: &Outcome) {
    println!(
        "== {}  seed {}  {} s  {} pass ==",
        w.name,
        run.seed,
        run.seconds,
        if run.trace { "traced" } else { "plain" }
    );
    print_table("end-to-end", END_TO_END, &out.e2e);
    print_table("per-layer", PER_LAYER, &out.layer);
    println!(
        "  attempted {}  failed {}  correct {}",
        out.attempted, out.failed, out.correct
    );
}

fn result_json(out: &Outcome, values: &Values, defs: &[MetricDef]) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failed)),
        ("metrics", values.to_json(defs)),
    ])
}

/// The contract's last line: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every end-to-end metric for a plain pass, every per-layer
/// one for a traced pass (0 for a name the workload does not produce).
pub fn result_line(out: &Outcome, trace: bool) -> String {
    if trace {
        result_json(out, &out.layer, PER_LAYER).render()
    } else {
        result_json(out, &out.e2e, END_TO_END).render()
    }
}

/// `.git/HEAD` resolved by hand (no subprocess, nothing read outside the
/// working directory); "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head,
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_owned())
}

/// Where and how the numbers were taken; part of every output file.
fn environment(seed: u64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj([
        ("nproc", Json::UInt(nproc as u64)),
        ("rustc", Json::Str(rustc_version())),
        ("git_rev", Json::Str(git_rev())),
        ("seed", Json::UInt(seed)),
        ("measured_seconds", Json::Num(seconds)),
        (
            "live_warmup_seconds",
            Json::Num(seconds * crate::live::WARMUP_FRAC),
        ),
        (
            "traced_window_seconds",
            Json::Num(seconds * crate::live::TRACED_FRAC),
        ),
    ])
}

/// `<out dir>/<workload>.json`: environment, both passes, no claim.
pub struct OutputFile {
    name: &'static str,
    entries: Vec<(&'static str, Json)>,
}

impl OutputFile {
    pub fn new(w: &Workload, seed: u64, seconds: f64) -> Self {
        OutputFile {
            name: w.name,
            entries: vec![
                ("workload", Json::Str(w.name.into())),
                ("why", Json::Str(w.why.into())),
                // This benchmark defines the baseline; it claims no gain.
                ("claim", Json::Null),
                ("env", environment(seed, seconds)),
            ],
        }
    }

    /// Adds one pass with every metric it produced, whichever list the
    /// metric is on.
    pub fn add_pass(&mut self, out: &Outcome, trace: bool) {
        let mut all = out.e2e.clone();
        all.merge(&out.layer);
        let defs: Vec<MetricDef> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|d| all.has(d.name))
            .copied()
            .collect();
        self.entries.push((
            if trace { "traced" } else { "plain" },
            result_json(out, &all, &defs),
        ));
    }

    pub fn write(self) -> std::io::Result<()> {
        let path = out_dir()?.join(format!("{}.json", self.name));
        std::fs::write(&path, Json::obj(self.entries).render() + "\n")?;
        println!("wrote {}", path.display());
        Ok(())
    }
}

/// `<out dir>/trace-<workload>.jsonl`, one span per line.
pub fn write_spans(w: &Workload, spans: &Spans) -> std::io::Result<()> {
    let path = out_dir()?.join(format!("trace-{}.jsonl", w.name));
    let mut f = BufWriter::new(std::fs::File::create(&path)?);
    spans.write_jsonl(w.name, &mut f)?;
    std::io::Write::flush(&mut f)?;
    println!("wrote {} ({} spans)", path.display(), spans.len());
    Ok(())
}
