//! Thread placement for the multi-threaded phases.
//!
//! A request that crosses threads (client -> event loop -> worker and
//! back) costs ~13 us when the scheduler happens to put them on one
//! core and ~95 us when it does not (an idle core has to be woken for
//! every hop), and which it is sticks for a whole run. Left floating,
//! `rtt_p50_us` is a coin flip between the two. So the benchmark fixes
//! the shape: the load generator (client or feeder) runs on the last
//! allowed CPU, the program's threads (event loop, workers) on the
//! others. With one allowed CPU nothing is pinned.

/// Which side of the socket or queue a thread is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The load generator: HTTP clients, the engine's feeder.
    Load,
    /// The program under test: event loop and worker threads.
    Program,
    /// No constraint (every allowed CPU).
    Any,
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

/// The CPUs this process may run on, as sampled once at first use (so
/// a thread that is already pinned still sees the full set).
#[cfg(target_os = "linux")]
fn allowed() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let set = sys::get().unwrap_or([0; 16]);
        (0..1024)
            .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Call from the main thread before anything is pinned.
pub(crate) fn init() {
    #[cfg(target_os = "linux")]
    allowed();
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// its side's CPUs. Best effort: placement is a steadiness measure, not
/// a correctness one.
pub(crate) fn pin(side: Side) {
    #[cfg(target_os = "linux")]
    {
        let cpus = allowed();
        let chosen: &[usize] = match side {
            _ if cpus.len() < 2 => cpus,
            Side::Load => &cpus[cpus.len() - 1..],
            Side::Program => &cpus[..cpus.len() - 1],
            Side::Any => cpus,
        };
        let mut set: sys::CpuSet = [0; 16];
        for &cpu in chosen {
            set[cpu / 64] |= 1 << (cpu % 64);
        }
        if !chosen.is_empty() && !sys::set(&set) {
            eprintln!("[benchmark] could not pin a thread to {chosen:?}; it floats");
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = side;
}

/// Runs `f` with the calling thread on `side`, then lets it float again.
pub(crate) fn on<T>(side: Side, f: impl FnOnce() -> T) -> T {
    pin(side);
    let out = f();
    pin(Side::Any);
    out
}
