//! Running a pass on one CPU.
//!
//! With the client and the server on one CPU, a request's hand-off no
//! longer depends on where the scheduler puts the two threads; on the
//! 2-core reference host that placement moved round trips by more than
//! the host's own speed did. Threads inherit the CPU set of the thread
//! that starts them, so every thread the pass starts shares the CPU.

/// Runs `f` with the calling thread confined to the first CPU it may use,
/// then restores its CPU set. Where the set cannot be read or changed, `f`
/// runs unconfined and a note goes to standard error.
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    let saved = match affinity::get() {
        Ok(mask) => affinity::set(&affinity::first(&mask)).map(|()| mask),
        Err(e) => Err(e),
    };
    if let Err(e) = &saved {
        eprintln!("bench: running on every CPU: {e}");
    }
    let out = f();
    if let Ok(mask) = saved {
        let _ = affinity::set(&mask);
    }
    out
}

#[cfg(target_os = "linux")]
mod affinity {
    use std::io;

    /// A CPU set of up to 1024 CPUs, as the kernel's `cpu_set_t`.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU set.
    pub fn get() -> io::Result<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        if rc == 0 {
            Ok(mask)
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Sets the calling thread's CPU set.
    pub fn set(mask: &Mask) -> io::Result<()> {
        // SAFETY: as in `get`; the kernel only reads `mask`.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The lowest CPU of `mask`, alone (an empty mask stays empty, which
    /// `set` then refuses).
    pub fn first(mask: &Mask) -> Mask {
        let mut one: Mask = [0; 16];
        if let Some(word) = mask.iter().position(|&bits| bits != 0) {
            one[word] = 1 << mask[word].trailing_zeros();
        }
        one
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use std::io;

    pub type Mask = ();

    pub fn get() -> io::Result<Mask> {
        Err(io::Error::other("CPU sets need Linux"))
    }

    pub fn set(_: &Mask) -> io::Result<()> {
        Ok(())
    }

    pub fn first(_: &Mask) -> Mask {}
}
