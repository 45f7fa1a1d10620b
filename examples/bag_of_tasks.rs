//! Bag-of-tasks master/worker over a **live threaded cluster** — the
//! application pattern the paper's reliable-tuple-space lineage targets
//! ("bag of task" applications, §1's discussion of Bakken & Schlichting).
//!
//! A master on machine 0 drops task tuples into the PASO memory; worker
//! threads on machines 1..4 concurrently `read&del` tasks (blocking
//! takes), compute, and insert result tuples; the master collects them.
//! Processes never talk to each other directly — the uncoupling that
//! makes the pattern naturally fault tolerant.
//!
//! Run with: `cargo run --example bag_of_tasks`

use std::sync::Arc;

use paso::core::PasoConfig;
use paso::runtime::{Cluster, TransportKind};
use paso::types::{FieldMatcher, SearchCriterion, Template, Value};

const TASKS: usize = 24;
const WORKERS: u32 = 4;

fn sc_task() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("task")),
        FieldMatcher::Any,
    ]))
}

fn sc_result() -> SearchCriterion {
    SearchCriterion::from(Template::new(vec![
        FieldMatcher::Exact(Value::symbol("result")),
        FieldMatcher::Any,
        FieldMatcher::Any,
    ]))
}

fn main() {
    let cluster = Arc::new(Cluster::start(
        PasoConfig::builder(1 + WORKERS as usize, 1).build(),
        TransportKind::Channel,
    ));

    // Workers: blocking-take a task, "compute" (square it), insert result.
    let mut worker_handles = Vec::new();
    for w in 1..=WORKERS {
        let c = Arc::clone(&cluster);
        worker_handles.push(std::thread::spawn(move || {
            let mut done = 0u32;
            loop {
                match c.take_blocking(w, sc_task()) {
                    Ok(Some(task)) => {
                        let x = task.field(1).and_then(Value::as_int).unwrap_or(0);
                        if x < 0 {
                            break; // poison pill: shut down
                        }
                        c.insert(
                            w,
                            vec![Value::symbol("result"), Value::Int(x), Value::Int(x * x)],
                        )
                        .expect("insert result");
                        done += 1;
                    }
                    Ok(None) => break, // deadline without work: exit
                    Err(e) => panic!("worker {w}: {e}"),
                }
            }
            (w, done)
        }));
    }

    // Master: seed the bag…
    for i in 0..TASKS as i64 {
        cluster
            .insert(0, vec![Value::symbol("task"), Value::Int(i)])
            .expect("insert task");
    }
    println!("master: dropped {TASKS} tasks into the bag");

    // …and collect every result.
    let mut results = Vec::new();
    while results.len() < TASKS {
        match cluster.take_blocking(0, sc_result()) {
            Ok(Some(r)) => {
                let x = r.field(1).and_then(Value::as_int).unwrap();
                let sq = r.field(2).and_then(Value::as_int).unwrap();
                assert_eq!(sq, x * x, "worker computed the wrong square");
                results.push(x);
            }
            other => panic!("collect failed: {other:?}"),
        }
    }
    results.sort_unstable();
    println!("master: collected {} results: {:?}", results.len(), results);
    assert_eq!(results, (0..TASKS as i64).collect::<Vec<_>>());

    // Poison pills stop the workers.
    for _ in 0..WORKERS {
        cluster
            .insert(0, vec![Value::symbol("task"), Value::Int(-1)])
            .unwrap();
    }
    for h in worker_handles {
        let (w, done) = h.join().unwrap();
        println!("worker {w} processed {done} tasks");
    }

    let stats = cluster.stats();
    println!(
        "\ncluster stats: {} messages, {} bytes, {} work units",
        stats.msgs_sent, stats.bytes_sent, stats.total_work
    );
    cluster.shutdown();
    println!("done — every task computed exactly once, no worker talked to another.");
}
