#![allow(unsafe_code)] // counting #[global_allocator]: raw-pointer plumbing by design
//! Allocation-budget harness for the column-backed engines.
//!
//! A counting `#[global_allocator]` (the same wrapper `sm-bench`'s
//! `scale.rs` installs) feeds `sm_core::alloc_counter`'s per-thread
//! counters, and the tests here pin the engines' allocation discipline:
//!
//! * **events** — one cold batch streaming run (which replays through the
//!   incremental engine) allocates only the engine's reusable storage (the
//!   `EngineScratch` program/sweep buffers, the pooled trees' parent, time
//!   and length columns, and the bandwidth queues), each growing by
//!   amortized doubling. The total is `O(log n)`, so it fits a fixed
//!   [`EVENTS_SETUP_BUDGET`] and — the sharper claim — barely moves when
//!   `n` quadruples.
//! * **incremental** — after a warm-up prefix of pushes has grown every
//!   pool and buffer, the remaining pushes allocate nothing at all (the
//!   bandwidth meter is a running peak).
//! * **dyadic policy** — `DyadicMerger` keeps only the open tree's frame
//!   stack, so once the stack has reached its working depth the policy's
//!   pushes allocate nothing at all.
//! * **serve loop** — the bytes `serve_multi`'s calling thread allocates
//!   stay flat when the arrivals grow tenfold: a long-running server runs
//!   in bounded memory.
//!
//! The counters are per-thread, so the harness is immune to the test
//! runner's own threads; each test observes only its own allocations.

use sm_core::{alloc_counter, consecutive_slots};
use sm_online::{DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy};
use sm_serve::{serve_multi, MultiServeConfig, TitleConfig};
use sm_sim::{simulate_streaming_slice, Attach, IncrementalEngine, SimConfig};
use sm_workload::{deep_chain_forest, ArrivalProcess, PoissonProcess};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;

/// The system allocator wrapped with `sm_core::alloc_counter` bookkeeping.
struct CountingAlloc;

// SAFETY: every operation delegates verbatim to `System`; the counter
// update is allocation-free and panic-free (see `sm_core::alloc_counter`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_counter::note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_counter::note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MEDIA: u64 = 100;

/// Setup budget for one cold `simulate_streaming_slice` run: the scratch
/// buffers, tree-storage pool, and bandwidth start queue and end heap
/// together allocate a few dozen times (amortized doublings included).
/// The budget leaves generous headroom; the scaling assertion below is the
/// load-bearing one.
const EVENTS_SETUP_BUDGET: u64 = 512;

/// How much the cold-run allocation count may grow when `n` quadruples:
/// only buffers sized by the deepest tree or the most live streams can
/// still double, so the difference is a handful of allocations, never
/// `O(n)`.
const EVENTS_GROWTH_SLACK: u64 = 64;

/// One cold Delay Guaranteed streaming run; returns the allocations the
/// run itself performed (workload construction excluded).
fn events_run_allocations(n: usize) -> u64 {
    let alg = DelayGuaranteedOnline::new(MEDIA);
    let forest = alg.forest_after(n);
    let times = consecutive_slots(n);
    let ckpt = alloc_counter::checkpoint();
    let mut served = 0usize;
    simulate_streaming_slice(&forest, &times, MEDIA, SimConfig::events(), |report| {
        served += 1;
        black_box(report.max_buffer);
    })
    .expect("DG plan must execute");
    let allocs = ckpt.allocations_since();
    assert_eq!(served, n);
    allocs
}

#[test]
fn counting_allocator_is_live() {
    let ckpt = alloc_counter::checkpoint();
    let boxed = Box::new(black_box([0u8; 64]));
    black_box(&boxed);
    assert!(
        ckpt.allocations_since() >= 1,
        "the counting allocator must observe a fresh Box"
    );
}

#[test]
fn events_steady_state_is_allocation_free() {
    let small = events_run_allocations(4_000);
    let large = events_run_allocations(16_000);
    assert!(
        small <= EVENTS_SETUP_BUDGET,
        "cold events run allocated {small} times, budget is {EVENTS_SETUP_BUDGET}"
    );
    // The per-arrival discipline: quadrupling the workload must not scale
    // the allocation count — only log-many further doublings are allowed.
    assert!(
        large <= small + EVENTS_GROWTH_SLACK,
        "allocations scaled with n: {small} at n=4000 vs {large} at n=16000"
    );
    assert_eq!(
        large / 16_000,
        0,
        "allocations per arrival must floor to zero"
    );
}

#[test]
fn incremental_push_steady_state_is_allocation_free() {
    const TOTAL: usize = 20_000;
    const WARMUP: usize = 2_000;
    // Deep chains recycle tree storage constantly: every tree the cursor
    // drains returns its columns to the pool for the next chain to reuse.
    let (forest, times) = deep_chain_forest(TOTAL, MEDIA);
    let mut attaches = Vec::with_capacity(times.len());
    let mut base = 0usize;
    for tree in forest.trees() {
        let parents = tree.to_parents();
        attaches.push(Attach::Root);
        for parent in parents.iter().skip(1) {
            let parent = parent.expect("non-root chain nodes have parents");
            attaches.push(Attach::Under(base + parent));
        }
        base += parents.len();
    }
    assert_eq!(attaches.len(), times.len());

    let mut engine = IncrementalEngine::new(MEDIA, SimConfig::events()).expect("valid media len");
    let mut served = 0usize;
    for i in 0..WARMUP {
        engine
            .push(times[i], attaches[i], |report| {
                served += 1;
                black_box(report.max_buffer);
            })
            .expect("deep chains are feasible by construction");
    }
    let ckpt = alloc_counter::checkpoint();
    for i in WARMUP..times.len() {
        engine
            .push(times[i], attaches[i], |report| {
                served += 1;
                black_box(report.max_buffer);
            })
            .expect("deep chains are feasible by construction");
    }
    let steady = ckpt.allocations_since();
    let inc = engine
        .finish(|report| {
            served += 1;
            black_box(report.max_buffer);
        })
        .expect("finish drains every pending deadline");
    assert_eq!(served, times.len());
    assert_eq!(inc.summary.clients, times.len());
    assert_eq!(
        steady,
        0,
        "the engine allocated {steady} times over its last {} pushes",
        TOTAL - WARMUP
    );
}

#[test]
fn dyadic_policy_push_steady_state_is_allocation_free() {
    const TOTAL: usize = 100_000;
    const WARMUP: usize = TOTAL / 2;
    let times = PoissonProcess::new(1.0, 7).generate(1.2 * TOTAL as f64);
    assert!(times.len() >= TOTAL, "the horizon draws enough arrivals");
    let mut policy = DyadicMerger::new(DyadicConfig::golden_poisson(), MEDIA as f64);
    for &t in &times[..WARMUP] {
        black_box(policy.push(t));
    }
    let ckpt = alloc_counter::checkpoint();
    for &t in &times[WARMUP..TOTAL] {
        black_box(policy.push(t));
    }
    let steady = ckpt.allocations_since();
    assert_eq!(policy.arrivals(), TOTAL);
    assert_eq!(
        steady,
        0,
        "the dyadic policy allocated {steady} times over its last {} pushes",
        TOTAL - WARMUP
    );
}

/// Bytes the calling thread allocates over one `serve_multi` run of the
/// three-title catalog (L = 64/100/144, mean gaps 1/2/4 slots, so 1.75
/// arrivals per slot) behind a shared budget of 6, sized to about
/// `arrivals` arrivals. The producer thread's batches are not counted.
fn catalog3_serve_bytes(arrivals: f64) -> u64 {
    let config = MultiServeConfig {
        budget: Some(6),
        seed: 1,
        ..MultiServeConfig::new(
            vec![
                TitleConfig::new(64, 1.0),
                TitleConfig::new(100, 2.0),
                TitleConfig::new(144, 4.0),
            ],
            arrivals / 1.75,
        )
    };
    let ckpt = alloc_counter::checkpoint();
    let report = serve_multi(&config).expect("the catalog serves");
    let bytes = ckpt.bytes_since();
    assert_eq!(report.served, report.generated);
    bytes
}

#[test]
fn serve_multi_memory_is_flat_in_arrivals() {
    catalog3_serve_bytes(1e4); // warm-up
    let small = catalog3_serve_bytes(1e5);
    let large = catalog3_serve_bytes(1e6);
    assert!(
        large * 4 <= small * 5,
        "caller-thread bytes grew with arrivals: {small} B at 1e5 vs {large} B at 1e6"
    );
}
