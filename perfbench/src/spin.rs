//! Idle-priority spinners that keep the host's CPUs from halting while
//! the daemon serves.
//!
//! On a virtual machine a CPU with nothing to run halts, and waking it
//! takes as long as the host needs to schedule it again: microseconds on
//! a quiet host, milliseconds on a loaded one. A closed loop of
//! microsecond requests sleeps and wakes on every request, so its rate
//! would follow the neighbours' load rather than the program. One
//! `SCHED_IDLE` thread per CPU spins instead; the kernel preempts it the
//! moment anything else becomes runnable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Running spinners; dropping them stops and joins them.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Put the calling thread in the `SCHED_IDLE` class. Returns false when
/// the kernel refuses.
fn make_idle() -> bool {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` for the call; pid 0
    // names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

impl Spinners {
    /// Start one spinner per CPU. A spinner that cannot get idle priority
    /// exits at once rather than compete with the daemon.
    pub fn start(cpus: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus)
            .filter_map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("perfbench-spin".into())
                    .spawn(move || {
                        if make_idle() {
                            while !stop.load(Ordering::Relaxed) {
                                std::hint::spin_loop();
                            }
                        }
                    })
                    .ok()
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
