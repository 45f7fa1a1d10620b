//! The paper's figures as a test: each of the ten `exp_*` binaries that
//! EXPERIMENTS.md presents as the reproduction must exit 0 and print
//! exactly its golden file, `tests/golden/<binary>.txt`.
//!
//! The binaries are deterministic and take no flags, so any difference
//! is a moved figure. A change that moves one on purpose re-blesses the
//! file in the same commit and says which figure moved and why:
//!
//! ```sh
//! cargo run --release -p paso-bench --bin exp_blocking > crates/bench/tests/golden/exp_blocking.txt
//! ```

use std::process::Command;

fn check(name: &str, exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("the binary starts");
    assert!(
        out.status.success(),
        "{name} exited with {}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("output is UTF-8");
    if got == golden {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), golden.lines().collect());
    let at = (0..got_lines.len().max(want_lines.len()))
        .find(|&i| got_lines.get(i) != want_lines.get(i))
        .unwrap_or(0);
    panic!(
        "{name}'s output differs from tests/golden/{name}.txt at line {}:\n  golden: {:?}\n  now:    {:?}\n\nwhole output:\n{got}",
        at + 1,
        want_lines.get(at).copied().unwrap_or("<end of file>"),
        got_lines.get(at).copied().unwrap_or("<end of output>"),
    );
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            super::check(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                include_str!(concat!("golden/", stringify!($bin), ".txt")),
            );
        }
    )*};
}

mod prints_its_golden_file {
    golden!(
        exp_fig1,
        exp_thm2,
        exp_thm3,
        exp_thm4,
        exp_lrf,
        exp_adaptive_vs_static,
        exp_readgroup,
        exp_blocking,
        exp_latency,
        exp_correctness,
    );
}
