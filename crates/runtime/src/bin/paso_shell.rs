//! `paso-shell` — an interactive REPL over a live PASO cluster.
//!
//! ```sh
//! cargo run -p paso-runtime --bin paso_shell            # 4 machines, λ=1
//! cargo run -p paso-runtime --bin paso_shell -- 8 2 tcp # 8 machines over TCP
//! ```
//!
//! Type `help` inside the shell for the command language.

use std::io::{BufRead, Write};

use paso_core::PasoConfig;
use paso_runtime::{
    shell::{parse_command, Command, HELP},
    Cluster, TransportKind,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(4);
    let lambda: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(1);
    let transport = if args.iter().any(|a| a == "tcp") {
        TransportKind::Tcp
    } else {
        TransportKind::Channel
    };
    println!("starting PASO cluster: n = {n}, λ = {lambda}, transport = {transport:?}");
    let cluster = Cluster::start(PasoConfig::builder(n, lambda).build(), transport);
    println!("type 'help' for commands\n");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("paso> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let cmd = match parse_command(&line, n as u32) {
            Ok(Some(c)) => c,
            Ok(None) => continue,
            Err(e) => {
                println!("{e}");
                continue;
            }
        };
        match cmd {
            Command::Insert { node, fields } => match cluster.insert(node, fields) {
                Ok(id) => println!("inserted {id}"),
                Err(e) => println!("error: {e}"),
            },
            Command::Read { node, sc } => match cluster.read(node, sc) {
                Ok(Some(o)) => println!("found {o}"),
                Ok(None) => println!("fail (no match)"),
                Err(e) => println!("error: {e}"),
            },
            Command::Take { node, sc, blocking } => {
                let result = if blocking {
                    cluster.take_blocking(node, sc)
                } else {
                    cluster.read_del(node, sc)
                };
                match result {
                    Ok(Some(o)) => println!("took {o}"),
                    Ok(None) => println!("fail (no match)"),
                    Err(e) => println!("error: {e}"),
                }
            }
            Command::Crash(m) => {
                cluster.crash(m);
                println!("m{m} crashed (memory erased)");
            }
            Command::Recover(m) => {
                cluster.recover(m);
                println!("m{m} recovering (will re-join with state transfer)");
            }
            Command::Stats => {
                let stats = cluster.stats();
                println!(
                    "messages: {}  bytes: {}  work: {}",
                    stats.msgs_sent, stats.bytes_sent, stats.total_work
                );
                // Where gateways sent their ops (all zero until one is
                // attached to this cluster).
                let snap = cluster.telemetry().snapshot();
                println!(
                    "routed: leader {}  member {}  fallback {}",
                    snap.counter("proxy.route.leader"),
                    snap.counter("proxy.route.member"),
                    snap.counter("proxy.route.fallback")
                );
                // Ops that shared a gcast, completions that shared a frame.
                println!(
                    "batched: gcasts {}  ops/gcast {:.2}  done frames {}",
                    snap.counter("op.batch.gcasts"),
                    snap.hist("op.batch.ops").mean(),
                    snap.counter("proxy.done_batches")
                );
            }
            Command::Telemetry { json } => {
                let snap = cluster.telemetry().snapshot();
                if json {
                    println!("{}", snap.dump_json());
                } else {
                    print!("{}", snap.dump_text());
                }
            }
            Command::Help => println!("{HELP}"),
            Command::Quit => break,
        }
    }
    cluster.shutdown();
    println!("bye");
}
