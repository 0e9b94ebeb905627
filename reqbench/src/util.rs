//! Small measurement helpers: the one wall-clock read, a seeded
//! generator, exact order statistics, peak RSS and the counting
//! allocator behind the allocation metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The benchmark's clock. Every timing in the benchmark goes through
/// this one read, so the wall-clock dependency is declared once.
pub fn now() -> Instant {
    // pgmr-lint: allow(wall-clock): a benchmark measures elapsed time by definition
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    now().duration_since(t).as_secs_f64()
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("reqbench reads CPU-time clocks through the 64-bit Linux `clock_gettime` ABI");

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and `clock` is one of the two
    // POSIX CPU-time clock ids below, which every Linux kernel provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds used by every thread of this process so far. Unlike wall
/// time, CPU time leaves out the time a virtual machine's host takes its
/// vCPUs away (steal), which on a shared host dominates the run-to-run
/// spread of anything that keeps both vCPUs busy.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Host parallelism (`nproc`): the pool widths and serve worker count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// SplitMix64: a tiny seeded generator for image orders and arrival
/// schedules (the same seed always gives the same inputs).
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under the run's seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            (p[i], p[j]) = (p[j], p[i]);
        }
        p
    }

    /// `count` Poisson arrival offsets at `rate` per second: cumulative
    /// exponential inter-arrival gaps.
    pub fn poisson_schedule(&mut self, rate: f64, count: usize) -> Vec<Duration> {
        let mut t = 0.0f64;
        (0..count)
            .map(|_| {
                t += -(1.0 - self.unit()).ln() / rate;
                Duration::from_secs_f64(t)
            })
            .collect()
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts samples ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Arithmetic mean.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Allocation events (alloc, zeroed alloc, realloc) since process start,
/// across all threads. Frees are not counted: the metric is how often a
/// path acquires heap memory.
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// A pass-through to the system allocator that counts allocation events.
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter has no effect on the
// memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

/// Allocation events so far.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}
