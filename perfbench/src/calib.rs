//! The host's speed, read from a fixed integer loop.
//!
//! On a shared host the speed of a virtual CPU drifts with the load of
//! other guests: by about ten percent from one half-minute run to the
//! next on the development VM, and every timing of the program drifts
//! with it. The loop below drifts the same way. It touches no memory, and
//! it is timed in the calling thread's own CPU time, so neither the
//! program's cache use nor its threads (which could preempt the loop)
//! move its reading: only the host's speed does. The end-to-end timings
//! are scaled by [`REFERENCE_NS`] over the run's median reading.

/// Rounds of the loop: about 90 µs of work on the development VM.
const ROUNDS: u32 = 40_000;

/// The loop's time on the reference host: about its median reading on
/// the development VM. A timing scaled by it reads what it would have
/// read there.
pub const REFERENCE_NS: f64 = 88_000.0;

#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`, and the clock id is
    // valid on every Linux, so the call cannot fail.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    // Wall time: without a per-thread CPU clock, preemption counts too.
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// One reading: the loop's time in this thread's CPU time, in ns.
pub fn sample_ns() -> f64 {
    let t0 = thread_cpu_ns();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    (thread_cpu_ns() - t0) as f64
}
