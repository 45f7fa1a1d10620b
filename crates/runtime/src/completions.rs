//! The completion table: where node threads hand finished client ops to
//! the callers waiting on them.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use paso_core::ClientResult;
use paso_telemetry::{metrics, Telemetry};

type Done = BTreeMap<u64, (Instant, ClientResult)>;

/// Results by op id, stamped with their arrival time. A node thread
/// [`complete`](Completions::complete)s an op straight into the table and
/// wakes the waiters; each caller [`wait`](Completions::wait)s for its own
/// op id only, so concurrent callers never handle each other's answers.
pub(crate) struct Completions {
    done: Mutex<Done>,
    arrived: Condvar,
    telemetry: Arc<Telemetry>,
}

impl Completions {
    pub(crate) fn new(telemetry: Arc<Telemetry>) -> Self {
        Completions {
            done: Mutex::new(BTreeMap::new()),
            arrived: Condvar::new(),
            telemetry,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Done> {
        self.done
            .lock()
            .expect("a thread panicked while holding the completion table")
    }

    /// Records `op_id`'s result and wakes every waiter.
    pub(crate) fn complete(&self, op_id: u64, result: ClientResult) {
        self.lock().insert(op_id, (Instant::now(), result));
        self.arrived.notify_all();
    }

    /// Claims `op`'s result, waiting up to `timeout` for it to arrive.
    pub(crate) fn wait(&self, op: u64, timeout: Duration) -> Option<ClientResult> {
        let deadline = Instant::now() + timeout;
        let mut done = self.lock();
        loop {
            if let Some((_, result)) = done.remove(&op) {
                return Some(result);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            (done, _) = self
                .arrived
                .wait_timeout(done, remaining)
                .expect("a thread panicked while holding the completion table");
        }
    }

    /// Drops (and counts) results nobody claimed within `age` of their
    /// arrival: their waiter already gave up, or a retry double-answered.
    /// The table must not grow without bound over a long-lived cluster.
    pub(crate) fn evict_unclaimed(&self, age: Duration) {
        let now = Instant::now();
        let mut done = self.lock();
        let before = done.len();
        done.retain(|_, (at, _)| now.duration_since(*at) < age);
        let evicted = before - done.len();
        if evicted > 0 {
            self.telemetry
                .count(metrics::CLIENT_RESULTS_EVICTED, evicted as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn waiters_completed_in_the_opposite_order_each_get_their_own_result() {
        let table = Completions::new(Arc::new(Telemetry::new()));
        let parked = Barrier::new(3);
        std::thread::scope(|s| {
            let waiter = |op: u64| {
                let (table, parked) = (&table, &parked);
                s.spawn(move || {
                    parked.wait();
                    table.wait(op, Duration::from_secs(10))
                })
            };
            let (first, second) = (waiter(1), waiter(2));
            parked.wait();
            // Let both waiters park (the assertions hold either way).
            std::thread::sleep(Duration::from_millis(50));
            // Two completions and nothing after them: a waiter that
            // depended on later traffic to notice its answer would sit
            // out the ten seconds and fail the elapsed check below.
            let start = Instant::now();
            table.complete(2, ClientResult::Fail);
            table.complete(1, ClientResult::Inserted);
            assert_eq!(first.join().unwrap(), Some(ClientResult::Inserted));
            assert_eq!(second.join().unwrap(), Some(ClientResult::Fail));
            assert!(start.elapsed() < Duration::from_secs(5));
        });
        assert!(
            table.lock().is_empty(),
            "each result is claimed exactly once"
        );
    }

    #[test]
    fn an_unclaimed_result_is_evicted_after_the_timeout_and_counted_once() {
        let telemetry = Arc::new(Telemetry::new());
        let table = Completions::new(Arc::clone(&telemetry));
        let op_timeout = Duration::from_millis(20);
        let evicted = || telemetry.snapshot().counter("client.results_evicted");

        table.complete(7, ClientResult::Fail);
        table.evict_unclaimed(op_timeout);
        assert_eq!(evicted(), 0.0, "a fresh result waits for its caller");
        assert_eq!(table.lock().len(), 1);

        std::thread::sleep(op_timeout);
        table.complete(8, ClientResult::Inserted);
        table.evict_unclaimed(op_timeout);
        assert_eq!(evicted(), 1.0);
        table.evict_unclaimed(op_timeout);
        assert_eq!(evicted(), 1.0, "an eviction is counted once");
        assert_eq!(table.wait(7, Duration::ZERO), None);
        assert_eq!(table.wait(8, Duration::ZERO), Some(ClientResult::Inserted));
    }
}
