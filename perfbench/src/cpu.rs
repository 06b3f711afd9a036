//! Pins the benchmark process to one CPU at a time.
//!
//! A single closed-loop client makes every daemon request a chain of
//! thread hand-offs (client, front, backend worker) in which one thread is
//! runnable at a time. Spread over two CPUs, each hand-off may wake an
//! idle CPU; on a virtual machine that wake-up waits on the hypervisor and
//! puts its latency, which drifts with the host's load, into the tail. On
//! one CPU each hand-off is a plain context switch.
//!
//! How fast one virtual CPU runs depends on what else its host core runs,
//! and that changes from second to second and differs between the CPUs.
//! So a run moves the whole process from one allowed CPU to the next at a
//! fixed interval ([`Rotation`]) and samples each of them alike.

// glibc's `cpu_set_t`: a 1024-bit mask.
const WORDS: usize = 16;
const SIZE: usize = WORDS * std::mem::size_of::<u64>();

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first.
#[cfg(target_os = "linux")]
fn allowed() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly `SIZE` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, SIZE, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpus: Vec<usize> = (0..WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return Err("no CPU in the affinity mask".to_owned());
    }
    Ok(cpus)
}

/// Restricts thread `tid` (0: the calling thread) to `cpu`. Threads it
/// spawns afterwards inherit the restriction.
#[cfg(target_os = "linux")]
fn pin(tid: i32, cpu: usize) -> std::io::Result<()> {
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `SIZE` bytes.
    if unsafe { sched_setaffinity(tid, SIZE, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn allowed() -> Result<Vec<usize>, String> {
    Err("pinning to one CPU needs Linux".to_owned())
}

#[cfg(not(target_os = "linux"))]
fn pin(_tid: i32, _cpu: usize) -> std::io::Result<()> {
    Err(std::io::ErrorKind::Unsupported.into())
}

/// Moves every thread of the process to `cpu`. A thread that ended since
/// the listing (`ESRCH`) is skipped.
fn move_process(cpu: usize) -> Result<(), String> {
    const ESRCH: i32 = 3;
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
    {
        match pin(tid, cpu) {
            Err(e) if e.raw_os_error() != Some(ESRCH) => {
                return Err(format!("sched_setaffinity({tid}): {e}"));
            }
            _ => {}
        }
    }
    Ok(())
}

/// The allowed CPUs in turn, one at a time.
pub struct Rotation {
    cpus: Vec<usize>,
    next: usize,
    /// The first failed move; the rotation stops there.
    error: Option<String>,
}

impl Rotation {
    /// Pins the calling thread to the first allowed CPU. Call it before
    /// the daemons start, so their threads inherit the pin.
    pub fn start() -> Result<Self, String> {
        let cpus = allowed()?;
        pin(0, cpus[0]).map_err(|e| format!("sched_setaffinity: {e}"))?;
        Ok(Self {
            cpus,
            next: 1,
            error: None,
        })
    }

    /// Moves the whole process to the next allowed CPU.
    pub fn advance(&mut self) {
        if self.error.is_some() {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        self.error = move_process(cpu).err();
    }

    /// Why the rotation stopped, if it did.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}
