//! CPU placement for single-threaded stages.
//!
//! On a shared host the CPUs a process may use need not run at the same
//! speed: a co-tenant can load the core behind one of them. A
//! single-threaded stage then runs at the speed of whichever CPU its thread
//! happens to stay on, so a whole run reads fast or slow by placement
//! alone. [`Cpus::pin`] moves the calling thread to one allowed CPU, chosen
//! round robin by a cycle index, so every run spends its single-threaded
//! cycles on each CPU in turn; [`Cpus::unpin`] restores the full set before
//! the parallel runtimes spawn their workers, which inherit the caller's
//! set. Where the affinity calls are unavailable both are no-ops.

/// The CPUs the process may run on, as read at start-up.
pub struct Cpus {
    mask: u64,
    ids: Vec<usize>,
}

impl Cpus {
    /// The calling thread's allowed CPUs (those below 64), if they can be
    /// read and changed on this platform.
    pub fn current() -> Cpus {
        let mask = sys::get().unwrap_or(0);
        let ids = (0..64).filter(|&c| mask & (1 << c) != 0).collect();
        Cpus { mask, ids }
    }

    /// Restricts the calling thread to the `cycle`-th allowed CPU, round
    /// robin; a no-op with fewer than two allowed CPUs.
    pub fn pin(&self, cycle: usize) {
        if self.ids.len() > 1 {
            sys::set(1 << self.ids[cycle % self.ids.len()]);
        }
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn unpin(&self) {
        if self.ids.len() > 1 {
            sys::set(self.mask);
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SCHED_SETAFFINITY: usize = 203;
    const SCHED_GETAFFINITY: usize = 204;

    /// `sched_{set,get}affinity(0, 8, mask)` for the calling thread; the
    /// kernel's return value.
    #[allow(unsafe_code)]
    fn affinity(call: usize, mask: *mut u64) -> isize {
        let ret: isize;
        // SAFETY: both calls read or write exactly 8 bytes at `mask`, which
        // points to a live `u64` for the duration of the call, and touch no
        // other memory of this process.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") call as isize => ret,
                in("rdi") 0usize,
                in("rsi") std::mem::size_of::<u64>(),
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// The allowed-CPU mask, or `None` when it does not fit 64 bits.
    pub fn get() -> Option<u64> {
        let mut mask = 0u64;
        (affinity(SCHED_GETAFFINITY, &mut mask) > 0).then_some(mask)
    }

    pub fn set(mut mask: u64) {
        affinity(SCHED_SETAFFINITY, &mut mask);
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub fn get() -> Option<u64> {
        None
    }

    pub fn set(_mask: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_robin_then_unpinning_restores_the_set() {
        let cpus = Cpus::current();
        let Some(before) = sys::get() else {
            return;
        };
        assert_eq!(before, cpus.mask);
        for cycle in 0..2 * cpus.ids.len() {
            cpus.pin(cycle);
            if cpus.ids.len() > 1 {
                let want = 1u64 << cpus.ids[cycle % cpus.ids.len()];
                assert_eq!(sys::get(), Some(want));
            }
        }
        cpus.unpin();
        assert_eq!(sys::get(), Some(before));
    }
}
