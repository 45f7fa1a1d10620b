//! What a live workload does to the CPUs it runs on: the whole process
//! is held on one CPU ([`OneCpu`]), and a `SCHED_IDLE` thread spins on
//! `PAUSE` there so that it never halts ([`IdleKeepers`]).
//!
//! **One CPU.** A live system is a dozen threads (4 machines, reactor,
//! gateway, generators). Spread over the 2 vCPUs of a shared box, its
//! throughput depends on which threads the scheduler put together and on
//! whether a neighbour has taken one of the vCPUs: `proxy_sat`, the one
//! workload that keeps both busy, fell from 33k to 24k ops/s — what it
//! does on one CPU alone — whenever half a vCPU was taken away, and over
//! ten runs under such a neighbour its figures spread 17–18 % (the driver
//! saw 23–26 %). Held on one CPU the same runs spread 3–4 %: every wake-up
//! is a context switch on that CPU, no placement to get right, and only
//! that CPU's neighbours matter. What is measured is then the CPU work the
//! whole path spends per op, not how well it spreads over cores.
//!
//! **Idle keepers.**
//! On the 2-vCPU virtual machines this benchmark runs on, a vCPU that goes
//! idle is halted, and waking it for the next message costs anything from
//! a few to a few hundred microseconds depending on what the host is
//! doing. Every hop of a live op is such a wake-up, so the median latency
//! of identical runs ranged over 160–500 µs (`direct_bulk`) and 250–600 µs
//! (`proxy_open`). With the keepers the vCPUs never halt and the same
//! runs agree to a few per cent. `SCHED_IDLE` threads run only when a CPU
//! has nothing else runnable, so they take no time from the system under
//! test, and `PAUSE` leaves the core's execution units to the sibling
//! hyperthread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The running keeper threads; dropping it stops and joins them.
pub struct IdleKeepers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleKeepers {
    /// Starts one keeper per CPU this thread may run on (one, under
    /// [`OneCpu`]). Where the idle scheduling class cannot be had, no
    /// keeper spins.
    pub fn start() -> IdleKeepers {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !enter_idle_class() {
                        return;
                    }
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        IdleKeepers { stop, threads }
    }
}

impl Drop for IdleKeepers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The kernel's CPU mask, 1024 CPUs wide.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

#[cfg(target_os = "linux")]
fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `sched_setaffinity(2)` reads `size` bytes through the
    // pointer, which is the whole of `mask`; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// While it lives, the thread that made it runs on one CPU only, and so
/// does every thread started meanwhile (a new thread inherits its
/// parent's mask). Dropping it gives the thread its CPUs back.
pub struct OneCpu {
    #[cfg(target_os = "linux")]
    allowed: CpuSet,
}

impl OneCpu {
    /// Holds the calling thread on the highest-numbered CPU it may use
    /// (the lowest is where a virtual machine's interrupts land). `None`,
    /// and nothing changed, where the mask cannot be read or set.
    #[cfg(target_os = "linux")]
    pub fn pin() -> Option<OneCpu> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `sched_getaffinity(2)` writes at most `size` bytes
        // through the pointer, which is the whole of `allowed`.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
        let word = allowed.iter().rposition(|w| *w != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        (got == 0 && set_affinity(&one)).then_some(OneCpu { allowed })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn pin() -> Option<OneCpu> {
        None
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        set_affinity(&self.allowed);
    }
}

/// Moves the calling thread into `SCHED_IDLE`; false if that failed.
#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param` (a
    // single int on Linux) through the pointer, which is valid for the
    // call; pid 0 names the calling thread. It needs no privilege to lower
    // a thread to SCHED_IDLE and has no memory effects.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}
