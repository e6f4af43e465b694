//! Thread-affinity shim for the sharded execution layer (DESIGN.md §17).
//!
//! NUMA placement in this codebase is **first-touch**: each shard's arena
//! and nodes are allocated by the worker thread that owns the shard, so
//! pinning that worker to one core before it allocates puts the shard's
//! memory on the core's local node without any explicit `mbind`-style
//! page migration. All this module has to supply is the pin itself.
//!
//! On Linux the pin is one `sched_setaffinity(2)` call issued through a
//! hand-rolled binding (the workspace deliberately has no `libc`
//! dependency); everywhere else [`pin_to_core`] is a graceful no-op that
//! reports `false` and the sharded layer runs unpinned with identical
//! results. Whether to pin at all is the caller's argument
//! (`ShardedHot::with_config(.., pin)`).

/// Largest CPU index [`pin_to_core`] can express: the bitmask handed to
/// `sched_setaffinity` spans 1024 CPUs, the kernel's default `cpu_set_t`
/// width.
pub const MAX_CPUS: usize = 1024;

#[cfg(target_os = "linux")]
mod sys {
    // Hand-rolled glibc bindings (no `libc` crate in the workspace): the
    // affinity mask is passed as a plain `u64` word array, which matches
    // the kernel ABI — `cpu_set_t` is nothing but a fixed bit array.
    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getcpu() -> i32;
    }
}

/// Number of CPUs available to this process (≥ 1).
pub fn core_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the calling thread to `core`.
///
/// Returns `true` when the affinity call succeeded; `false` when pinning
/// is unsupported on this platform, `core` is out of range, or the kernel
/// rejected the mask (e.g. a cgroup cpuset that
/// excludes `core`). Callers treat `false` as "run unpinned": placement
/// is a performance hint, never a correctness requirement.
pub fn pin_to_core(core: usize) -> bool {
    if core >= MAX_CPUS {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MAX_CPUS / 64];
        mask[core / 64] = 1u64 << (core % 64);
        // SAFETY: `mask` is a live, initialized bit array of exactly
        // `cpusetsize` bytes; pid 0 names the calling thread; the call
        // only reads the mask and touches no other process memory.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// CPU the calling thread is currently running on, when the platform can
/// tell (`None` on non-Linux targets or on `sched_getcpu` failure).
pub fn current_core() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `sched_getcpu` takes no arguments and touches no caller
        // memory; it returns the current CPU index or -1.
        let cpu = unsafe { sys::sched_getcpu() };
        usize::try_from(cpu).ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_round_trips_on_linux() {
        // Pinning to core 0 must succeed on any Linux host whose cpuset
        // includes it; afterwards the thread reports core 0.
        if pin_to_core(0) {
            assert_eq!(current_core(), Some(0));
        }
        // Restore a permissive mask so later tests on this thread are not
        // confined: pin to every available core in turn is not needed —
        // the test harness gives each test a fresh thread.
    }

    #[test]
    fn out_of_range_core_is_rejected() {
        assert!(!pin_to_core(MAX_CPUS));
        assert!(!pin_to_core(usize::MAX));
    }

    #[test]
    fn core_count_is_positive() {
        assert!(core_count() >= 1);
    }
}
