//! Process-wide counters the benchmark reads around each timed call: a
//! counting global allocator (all threads, so the pipeline producer's
//! batch vectors count too) and the process CPU clock (all threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::{c_int, c_long};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Wraps the system allocator and counts allocations, bytes, live bytes
/// and the live-byte high-water mark. The counters are statistics that
/// publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn allocated(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    grew(bytes);
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` here.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    /// A resize counts as one allocation of `new_size` bytes, and the live
    /// total moves by the difference: the high-water mark prices a growing
    /// vector at its new size, not at old plus new.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract is passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Relaxed);
                }
            }
        }
        p
    }
}

/// Allocation counters at one instant.
#[derive(Clone, Copy)]
pub struct AllocMark {
    allocs: u64,
    bytes: u64,
    live: usize,
}

/// What a measured interval allocated.
#[derive(Clone, Copy, Default)]
pub struct AllocUse {
    pub allocs: u64,
    pub bytes: u64,
    /// Live-byte high-water mark during the interval, above the bytes
    /// already live when it began.
    pub peak_live: usize,
}

/// Starts an allocation interval: snapshots the counters and restarts the
/// high-water mark from the bytes live now.
pub fn alloc_mark() -> AllocMark {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    AllocMark {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live,
    }
}

impl AllocMark {
    pub fn since(self) -> AllocUse {
        AllocUse {
            allocs: ALLOCS.load(Relaxed) - self.allocs,
            bytes: BYTES.load(Relaxed) - self.bytes,
            peak_live: PEAK.load(Relaxed) - self.live,
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

unsafe extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user plus system time of every thread
/// of the process.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time consumed by the whole process so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// How long [`SpeedProbe::factor`]'s kernel takes on an uncontended core
/// of the measuring machine (a 2-vCPU Intel Xeon VM).
const REFERENCE_NS: f64 = 5.4e6;

/// A fixed reference kernel timed next to each measured call: the standard
/// library's two sorts over a fixed pseudo-random array that fits in L2.
///
/// On a shared host the serve loop and the batch path, both branchy,
/// high-IPC integer code, run up to 1.5x slower for tens of seconds at a
/// time while another tenant loads the core; pointer-chasing and ALU-chain
/// kernels barely move, but this sorting kernel slows in step. Scaling a
/// call by `REFERENCE_NS / kernel time` states it at uncontended speed.
pub struct SpeedProbe {
    base: Vec<u32>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let base = (0..1 << 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Self { base }
    }

    /// Runs the kernel once and returns the factor that scales a time
    /// measured now to an uncontended core.
    pub fn factor(&self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..2 {
            let mut a = self.base.clone();
            a.sort_unstable();
            black_box(&a);
            let mut b = self.base.clone();
            b.sort();
            black_box(&b);
        }
        REFERENCE_NS / t0.elapsed().as_nanos() as f64
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The sample at rank `round((n − 1)·q)` of `values` after sorting, the
/// rank convention `sm_serve`'s latency and delay percentiles use.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    *values.select_nth_unstable_by(rank, f64::total_cmp).1
}
