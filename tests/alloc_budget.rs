#![allow(unsafe_code)] // counting #[global_allocator]: raw-pointer plumbing by design
//! Allocation-budget harness for the column-backed engines.
//!
//! A counting `#[global_allocator]` feeds `sm_core::alloc_counter`'s
//! per-thread counters, and the tests here pin the engines' allocation
//! discipline:
//!
//! * **events** — one cold batch streaming run (which replays through the
//!   incremental engine) allocates only the engine's reusable storage (the
//!   `EngineScratch` program/sweep buffers, the pooled trees' parent, time
//!   and length columns, and the bandwidth queues), each growing by
//!   amortized doubling. The total is `O(log n)`, so it fits a fixed
//!   [`EVENTS_SETUP_BUDGET`] and — the sharper claim — barely moves when
//!   `n` quadruples. Two shapes are checked: the balanced Delay Guaranteed
//!   grid and a flash crowd batched into star trees (many co-slot
//!   arrivals, wide trees).
//! * **incremental** — after a warm-up prefix of pushes has grown every
//!   pool and buffer, the remaining pushes allocate nothing at all (the
//!   bandwidth meter is a running peak), both on deep chains and on
//!   joiner-heavy batched stars, whose joiners re-emit their root's report.
//! * **dyadic policy** — `DyadicMerger` keeps only the open tree's frame
//!   stack, so once the stack has reached its working depth the policy's
//!   pushes allocate nothing at all.
//! * **forest construction** — a merge tree is two `u32` columns, so
//!   building the §3 optimum (one optimal tree cloned per tree of the
//!   forest) and the Delay Guaranteed forest (each tree grown arrival by
//!   arrival, its columns doubling) allocates a bounded number of times per
//!   tree, never once per node.
//! * **serve loop** — the bytes `serve_multi`'s calling thread allocates
//!   stay flat when the arrivals grow tenfold: a long-running server runs
//!   in bounded memory.
//!
//! The counters are per-thread, so the harness is immune to the test
//! runner's own threads; each test observes only its own allocations.

use sm_core::{alloc_counter, consecutive_slots, MergeForest, MergeTree};
use sm_online::{DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy};
use sm_serve::{serve_multi, MultiServeConfig, TitleConfig};
use sm_sim::{simulate_streaming_slice, Attach, IncrementalEngine, SimConfig};
use sm_workload::{deep_chain_forest, ArrivalProcess, FlashCrowd, PoissonProcess};
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
/// buffers, the shared tree columns, and bandwidth start queue and end heap
/// together allocate a few dozen times (amortized doublings included).
/// The budget leaves generous headroom; the scaling assertion below is the
/// load-bearing one.
const EVENTS_SETUP_BUDGET: u64 = 512;

/// How much the cold-run allocation count may grow when `n` quadruples:
/// only buffers sized by the deepest tree or the most live streams can
/// still double, so the difference is a handful of allocations, never
/// `O(n)`.
const EVENTS_GROWTH_SLACK: u64 = 64;

/// Allocation budget per tree for building a whole forest of ~55-node
/// trees: both builders clone a ready-made template, two columns per tree,
/// plus the shared setup (the template, and for Delay Guaranteed its
/// per-position receiving programs) spread over the trees.
const FOREST_ALLOCS_PER_TREE: u64 = 5;

/// A batch replay input: a merge forest and its sorted arrival slots.
type Workload = (MergeForest, Vec<i64>);

/// The Delay Guaranteed grid: `n` consecutive slots, one client each
/// (balanced trees).
fn dg_grid(n: usize) -> Workload {
    (
        DelayGuaranteedOnline::new(MEDIA).forest_after(n),
        consecutive_slots(n),
    )
}

/// About `n` flash-crowd arrivals (Poisson background at two per slot, a
/// ×20 premiere spike over 1% of the horizon), floored to slots and
/// batched into star trees.
fn flash_crowd_stars(n: usize) -> Workload {
    let horizon = n as f64 * 0.45;
    let mut crowd = FlashCrowd::new(0.5, horizon * 0.4, horizon * 0.01, 20.0, 42);
    let slots: Vec<i64> = crowd
        .generate(horizon)
        .into_iter()
        .map(|t| t.floor() as i64)
        .collect();
    batched_star_forest(&slots)
}

/// Batches co-slot arrivals into star trees: every occupied slot opens one
/// full stream, and the rest of its batch merges into it with zero-length
/// streams — the classical batching service plan, always feasible.
fn batched_star_forest(slots: &[i64]) -> Workload {
    let mut trees = Vec::new();
    let mut times = Vec::with_capacity(slots.len());
    let mut i = 0usize;
    while i < slots.len() {
        let batch = slots[i..].iter().take_while(|&&s| s == slots[i]).count();
        trees.push(if batch == 1 {
            MergeTree::singleton()
        } else {
            MergeTree::star(batch)
        });
        times.extend(std::iter::repeat_n(slots[i], batch));
        i += batch;
    }
    (
        MergeForest::from_trees(trees).expect("at least one arrival"),
        times,
    )
}

/// One cold streaming run over `(forest, times)`; returns the allocations
/// the run itself performed (workload construction excluded).
fn events_run_allocations(forest: &MergeForest, times: &[i64]) -> u64 {
    let ckpt = alloc_counter::checkpoint();
    let mut served = 0usize;
    simulate_streaming_slice(forest, times, MEDIA, SimConfig::default(), |report| {
        served += 1;
        black_box(report.max_buffer);
    })
    .expect("the plan must execute");
    let allocs = ckpt.allocations_since();
    assert_eq!(served, times.len());
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

/// Cold events runs of `make`'s shape at n = 4000 and n = 16000: within
/// the setup budget, and the count barely moves when `n` quadruples.
fn assert_cold_runs_do_not_scale(shape: &str, make: fn(usize) -> Workload) {
    let (forest, times) = make(4_000);
    let small = events_run_allocations(&forest, &times);
    let (forest, times) = make(16_000);
    let large = events_run_allocations(&forest, &times);
    assert!(
        small <= EVENTS_SETUP_BUDGET,
        "{shape}: cold events run allocated {small} times, budget is {EVENTS_SETUP_BUDGET}"
    );
    // The per-arrival discipline: quadrupling the workload must not scale
    // the allocation count — only log-many further doublings are allowed.
    assert!(
        large <= small + EVENTS_GROWTH_SLACK,
        "{shape}: allocations scaled with n: {small} at n=4000 vs {large} at n=16000"
    );
    assert_eq!(
        large / times.len() as u64,
        0,
        "{shape}: allocations per arrival must floor to zero"
    );
}

#[test]
fn events_steady_state_is_allocation_free() {
    assert_cold_runs_do_not_scale("DG grid", dg_grid);
    assert_cold_runs_do_not_scale("flash crowd", flash_crowd_stars);
}

/// Checks one forest construction against [`FOREST_ALLOCS_PER_TREE`].
fn assert_forest_allocs_per_tree(shape: &str, n: usize, build: impl FnOnce() -> MergeForest) {
    let ckpt = alloc_counter::checkpoint();
    let forest = build();
    let allocs = ckpt.allocations_since();
    assert_eq!(forest.total_arrivals(), n);
    let trees = forest.num_trees() as u64;
    assert!(
        allocs <= FOREST_ALLOCS_PER_TREE * trees,
        "{shape} at n = {n}: {allocs} allocations for {trees} trees, budget is \
         {FOREST_ALLOCS_PER_TREE} per tree"
    );
}

#[test]
fn forest_construction_allocates_per_tree_not_per_node() {
    for n in [4_000usize, 16_000] {
        assert_forest_allocs_per_tree("section 3 optimum", n, || {
            sm_offline::optimal_forest(MEDIA, n).forest
        });
        assert_forest_allocs_per_tree("Delay Guaranteed", n, || {
            DelayGuaranteedOnline::new(MEDIA).forest_after(n)
        });
    }
}

/// `forest`'s arrivals as the engine's push sequence, in global order.
fn attaches(forest: &MergeForest) -> Vec<Attach> {
    let mut attaches = Vec::with_capacity(forest.total_arrivals());
    for (range, tree) in forest.iter_with_ranges() {
        attaches.extend((0..tree.len()).map(|local| match tree.parent(local) {
            None => Attach::Root,
            Some(p) => Attach::Under(range.start + p),
        }));
    }
    attaches
}

/// Pushes `(forest, times)` through one engine and returns the allocations
/// of every push after the first `warmup` (which grow the buffers).
fn push_allocations_after_warmup(forest: &MergeForest, times: &[i64], warmup: usize) -> u64 {
    let attaches = attaches(forest);
    assert_eq!(attaches.len(), times.len());
    let mut engine = IncrementalEngine::new(MEDIA, SimConfig::default()).expect("valid media len");
    let mut served = 0usize;
    let mut push = |engine: &mut IncrementalEngine, i: usize| {
        engine
            .push(times[i], attaches[i], |report| {
                served += 1;
                black_box(report.max_buffer);
            })
            .expect("the plan is feasible by construction");
    };
    (0..warmup).for_each(|i| push(&mut engine, i));
    let ckpt = alloc_counter::checkpoint();
    (warmup..times.len()).for_each(|i| push(&mut engine, i));
    let steady = ckpt.allocations_since();
    let inc = engine
        .finish(|report| {
            served += 1;
            black_box(report.max_buffer);
        })
        .expect("finish drains every pending deadline");
    assert_eq!(served, times.len());
    assert_eq!(inc.summary.clients, times.len());
    steady
}

#[test]
fn incremental_push_steady_state_is_allocation_free() {
    const TOTAL: usize = 20_000;
    const WARMUP: usize = 2_000;
    // Deep chains recycle tree storage constantly: every tree the cursor
    // drains frees its columns for the next chain to reuse.
    let (forest, times) = deep_chain_forest(TOTAL, MEDIA);
    let steady = push_allocations_after_warmup(&forest, &times, WARMUP);
    assert_eq!(
        steady,
        0,
        "deep chains: the engine allocated {steady} times over its last {} pushes",
        TOTAL - WARMUP
    );
    // Joiner-heavy: Poisson traffic at four arrivals per slot, batched into
    // stars, so most clients tie with their tree's root and re-emit its
    // report instead of evaluating their own.
    let slots: Vec<i64> = PoissonProcess::new(0.25, 11)
        .generate(TOTAL as f64 / 4.0)
        .into_iter()
        .map(|t| t.floor() as i64)
        .collect();
    let (forest, times) = batched_star_forest(&slots);
    assert!(
        forest.num_trees() * 2 < times.len(),
        "premise: most arrivals are joiners"
    );
    let steady = push_allocations_after_warmup(&forest, &times, WARMUP);
    assert_eq!(
        steady,
        0,
        "joiner-heavy stars: the engine allocated {steady} times over its last {} pushes",
        times.len() - WARMUP
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
