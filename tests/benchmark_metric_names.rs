//! The benchmark reads the registry by name (`Snapshot::counter`,
//! `Snapshot::hist`), and a name nobody declares reads 0 there without
//! any error. This pins every literal name it reads to a row of the
//! metric table, with the kind it is read as.

use paso::telemetry::{CounterId, HistId};

const SOURCES: [&str; 3] = [
    include_str!("../crates/bench/src/bin/benchmark/layers.rs"),
    include_str!("../crates/bench/src/bin/benchmark/live.rs"),
    include_str!("../crates/bench/src/bin/benchmark/sim.rs"),
];

#[test]
fn every_name_the_benchmark_reads_is_declared_with_its_kind() {
    let counter: fn(&str) -> bool = |name| CounterId::by_name(name).is_some();
    let hist: fn(&str) -> bool = |name| HistId::by_name(name).is_some();
    let mut checked = 0;
    for src in SOURCES {
        for (reader, declared) in [("counter", counter), ("c", counter), ("hist", hist)] {
            let open = format!("{reader}(\"");
            for (at, _) in src.match_indices(&open) {
                // `reader` must start a word: `c(` is not `spec(`.
                let before = src[..at].chars().next_back();
                if before.is_some_and(|ch| ch.is_alphanumeric() || ch == '_') {
                    continue;
                }
                let rest = &src[at + open.len()..];
                let name = &rest[..rest.find('"').expect("terminated literal")];
                assert!(
                    declared(name),
                    "{reader}(\"{name}\") reads an undeclared metric"
                );
                checked += 1;
            }
        }
    }
    // layers.rs alone reads about thirty; a parse that finds none proves
    // nothing.
    assert!(checked >= 30, "only {checked} reads found");
}
