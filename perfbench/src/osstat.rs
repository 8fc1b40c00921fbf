//! Per-thread OS counters read from `/proc/self/task/*`.
//!
//! `schedstat` gives CPU time in nanoseconds (the calling thread reads
//! its own from its CPU-time clock instead), `stat` the part of it
//! spent in the kernel, `status` the context switches and `io` the
//! read-like and write-like syscall counts. The kernel's I/O accounting
//! sees only calls through the VFS read and write paths: socket
//! `send`/`recv` and `epoll_wait` do not appear in `io`, so the socket
//! path shows in the kernel time instead.
//! A snapshot holds every live thread, keyed by thread id, so the
//! driver thread can be separated from the serving threads. Only
//! threads alive at the second snapshot are counted; every workload
//! keeps its serving threads alive until the measurement ends.

use std::collections::BTreeMap;
use std::fs;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Counters of one thread, or a sum over threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// On-CPU time, nanoseconds.
    pub cpu_ns: u64,
    /// Kernel-mode CPU time, nanoseconds (clock-tick resolution).
    pub sys_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Read-like plus write-like syscalls (`syscr + syscw`).
    pub syscalls: u64,
}

impl TaskCounters {
    /// The counts accumulated since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            sys_ns: self.sys_ns.saturating_sub(earlier.sys_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
        }
    }

    fn add(&mut self, o: Self) {
        self.cpu_ns += o.cpu_ns;
        self.sys_ns += o.sys_ns;
        self.ctx_switches += o.ctx_switches;
        self.syscalls += o.syscalls;
    }
}

/// Field `key` of a `key: value` style proc file.
fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds per clock tick of `stat` (`USER_HZ` is 100 on Linux).
const NS_PER_TICK: u64 = 10_000_000;

/// `stime` of a `stat` line: the 15th field, the 13th after the
/// parenthesised command name.
fn stime_ticks(stat: &str) -> u64 {
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(12))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn read_task_dir(dir: &str) -> TaskCounters {
    let sched = fs::read_to_string(format!("{dir}/schedstat")).unwrap_or_default();
    let stat = fs::read_to_string(format!("{dir}/stat")).unwrap_or_default();
    let status = fs::read_to_string(format!("{dir}/status")).unwrap_or_default();
    let io = fs::read_to_string(format!("{dir}/io")).unwrap_or_default();
    TaskCounters {
        cpu_ns: sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        sys_ns: stime_ticks(&stat) * NS_PER_TICK,
        ctx_switches: field(&status, "voluntary_ctxt_switches")
            + field(&status, "nonvoluntary_ctxt_switches"),
        syscalls: field(&io, "syscr") + field(&io, "syscw"),
    }
}

/// The calling thread's counters.
pub fn this_thread() -> TaskCounters {
    TaskCounters {
        cpu_ns: thread_cpu_ns(),
        ..read_task_dir("/proc/thread-self")
    }
}

/// The calling thread's id.
pub fn this_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Ids of every live thread of this process.
fn task_ids() -> Vec<u32> {
    let Ok(rd) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    rd.flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse().ok())
        .collect()
}

/// Counters of every live thread of this process.
pub fn snapshot() -> BTreeMap<u32, TaskCounters> {
    task_ids()
        .into_iter()
        .map(|tid| (tid, read_task_dir(&format!("/proc/self/task/{tid}"))))
        .collect()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on), and the
    // clock id is one of the two CPU-time clocks every kernel has.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// CPU time of the whole process, ns, exited threads included. Unlike
/// `schedstat`, which the kernel refreshes for a running thread only
/// at scheduler events, the CPU-time clocks are exact when read.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Sum over the threads of `after`, less their values in `before`
/// (zero for threads started in between), leaving out `exclude`.
pub fn delta(
    before: &BTreeMap<u32, TaskCounters>,
    after: &BTreeMap<u32, TaskCounters>,
    exclude: Option<u32>,
) -> TaskCounters {
    let mut sum = TaskCounters::default();
    for (tid, now) in after {
        if Some(*tid) == exclude {
            continue;
        }
        sum.add(now.since(before.get(tid).copied().unwrap_or_default()));
    }
    sum
}

/// CPUs a `cpu_set_t` of [`CPU_WORDS`] words can name.
const CPU_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts thread `tid` (0: the calling thread) to `cpu`; whether
/// the kernel agreed.
fn pin_to(tid: i32, cpu: usize) -> bool {
    let mut one = [0u64; CPU_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed;
    // the kernel checks `tid` and fails the call for a thread that is
    // gone.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// The fastest of five runs of a fixed compute loop, ns.
fn probe_ns() -> u128 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0u64;
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap_or(u128::MAX)
}

/// The CPUs the process may run on, read at the first call: pinning
/// narrows the calling thread's own mask, so call this before pinning.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; CPU_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..CPU_WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    })
}

/// Restricts every thread of the process, and every thread started
/// later, to one of the CPUs the process may run on, and returns that
/// CPU: the one on which the calling thread ran a fixed compute loop
/// fastest just now. With the driver and the server free to share or
/// split two CPUs of a virtual machine, where the scheduler put them
/// moved wire latency by 2× from run to run; on one CPU the figures
/// repeat. Other tenants of the host slow one virtual CPU down at a
/// time, for seconds and at times for minutes; the probe moves the
/// benchmark off a CPU that is slow when it is called.
pub fn pin_to_fastest_cpu() -> Option<usize> {
    let mut best: Option<(u128, usize)> = None;
    for &cpu in allowed_cpus() {
        if pin_to(0, cpu) {
            let ns = probe_ns();
            if best.is_none_or(|(fastest, _)| ns < fastest) {
                best = Some((ns, cpu));
            }
        }
    }
    let (_, cpu) = best?;
    for tid in task_ids() {
        // A thread that ended meanwhile cannot be pinned; that is fine.
        pin_to(i32::try_from(tid).unwrap_or(0), cpu);
    }
    pin_to(0, cpu).then_some(cpu)
}

/// How often a run re-takes the fastest CPU.
pub const REPROBE_EVERY: Duration = Duration::from_secs(2);

/// Calls [`pin_to_fastest_cpu`] at most once per [`REPROBE_EVERY`].
#[derive(Debug)]
pub struct CpuChooser {
    last: Instant,
}

impl CpuChooser {
    /// A chooser whose first probe is due one period from now.
    pub fn new() -> Self {
        Self {
            last: Instant::now(),
        }
    }

    /// Moves the process to the fastest CPU if the last move is a
    /// period old. Call it between units of work: the unit it falls in
    /// pays for the probe.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= REPROBE_EVERY {
            pin_to_fastest_cpu();
            self.last = Instant::now();
        }
    }
}

impl Default for CpuChooser {
    fn default() -> Self {
        Self::new()
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stime_is_the_fifteenth_field() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 111 222 0 0";
        assert_eq!(stime_ticks(line), 222);
    }

    #[test]
    fn this_thread_is_counted() {
        let me = this_tid().expect("thread id");
        assert!(snapshot().contains_key(&me));
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let mine = this_thread().cpu_ns;
        assert!(mine > 0);
        assert!(process_cpu_ns() >= mine);
    }
}
