//! Deterministic parallelism shared across the workspace: fork-join sharding
//! and a two-stage pipeline.
//!
//! Experiment sweeps are embarrassingly parallel across their points, and the
//! §5 multi-object server simulates its titles independently — both shard
//! through [`parallel_map`]: `std::thread::scope` workers pull indices off a
//! shared atomic counter and write results through a per-slot mutex — no
//! `unsafe`, no cloning of inputs, and results are always returned in input
//! order, so parallel callers are bit-identical to sequential ones.
//!
//! [`pipeline`] covers the orthogonal shape: a *sequence* of stages where
//! stage `k + 1`'s first half can start before stage `k`'s second half has
//! finished. A dedicated scoped producer thread runs `produce(i)` for every
//! index in order and feeds a bounded depth-`K` SPSC channel; the calling
//! thread pops items in order and runs `consume(i, item)` — so the producer
//! runs up to `K` finished items (plus one in flight) ahead of the consumer
//! while order, results, and the first error are exactly those of the plain
//! sequential interleaving, at any depth. The `sm-server` dynamic simulator
//! uses it at depth 2 to plan up to two epochs ahead of materialization
//! (`sm_server::simulate_dynamic`); each stage may freely call
//! [`parallel_map`] internally (stage threads are *not* marked as workers),
//! while a `pipeline` call from inside a `parallel_map` worker runs inline
//! so nesting never oversubscribes the machine.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

std::thread_local! {
    /// `true` while the current thread is a `parallel_map` worker: nested
    /// calls (an experiment sweep point invoking the sharded server layer,
    /// say) run sequentially instead of oversubscribing the machine with
    /// `threads²` scoped threads.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Applies `f` to every item, using up to `available_parallelism` threads.
/// Results are returned in input order. Falls back to sequential execution
/// for tiny inputs and when called from inside another `parallel_map`
/// (the outer call already saturates the cores).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 || IN_WORKER.get() {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_WORKER.set(true);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    *recover(slots[i].lock()) = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        // sm-lint: allow(no-panic-surface) — scope() joined every worker, and each worker fills its claimed slots before exiting
        .map(|m| recover(m.into_inner()).expect("every slot filled"))
        .collect()
}

/// Shared state of the bounded SPSC channel connecting the two pipeline
/// stages. One mutex + one condvar serve both directions: with a single
/// producer and a single consumer there is never a thundering herd to
/// distinguish.
struct ChannelState<T> {
    buf: VecDeque<T>,
    /// Producer finished (exhausted or errored); no more items will arrive.
    closed: bool,
    /// Consumer bailed out; the producer should stop instead of blocking.
    aborted: bool,
}

struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    cv: Condvar,
    depth: usize,
}

/// Recovers the guard from a poisoned `std` lock. Every critical section in
/// this file (a result slot's write, the channel's field updates) is a
/// handful of field reads/writes with no user code, so a poisoned mutex
/// still holds consistent state — recovering beats propagating a panic out
/// of the plumbing.
fn recover<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T> Channel<T> {
    fn new(depth: usize) -> Self {
        Self {
            state: Mutex::new(ChannelState {
                buf: VecDeque::with_capacity(depth),
                closed: false,
                aborted: false,
            }),
            cv: Condvar::new(),
            depth,
        }
    }

    /// Blocks until there is room (or the consumer aborted). Returns `false`
    /// when the item was not accepted because of an abort.
    fn push(&self, item: T) -> bool {
        let mut state = recover(self.state.lock());
        while state.buf.len() >= self.depth && !state.aborted {
            state = recover(self.cv.wait(state));
        }
        if state.aborted {
            return false;
        }
        state.buf.push_back(item);
        self.cv.notify_all();
        true
    }

    /// Blocks until an item is available; `None` once the channel is closed
    /// *and* drained (buffered items produced before a close still come out,
    /// preserving the sequential consumption order).
    fn pop(&self) -> Option<T> {
        let mut state = recover(self.state.lock());
        while state.buf.is_empty() && !state.closed {
            state = recover(self.cv.wait(state));
        }
        let item = state.buf.pop_front();
        if item.is_some() {
            self.cv.notify_all();
        }
        item
    }

    fn close(&self) {
        let mut state = recover(self.state.lock());
        state.closed = true;
        self.cv.notify_all();
    }

    fn abort(&self) {
        let mut state = recover(self.state.lock());
        state.aborted = true;
        self.cv.notify_all();
    }
}

/// Runs a two-stage pipeline over the indices `0..n`: `produce(i)` executes
/// on a dedicated scoped thread, `consume(i, item)` on the calling thread, a
/// bounded channel holding at most `depth` finished-but-unconsumed items
/// between them. With `depth == 1` the classic overlap is realized —
/// `produce(k + 1)` runs while `consume(k)` does; a larger depth lets a
/// bursty producer run up to `depth` items (plus one in flight) ahead of a
/// slow consumer before backpressure blocks it, never further.
///
/// Semantics are exactly those of the sequential interleaving
/// `produce(0), consume(0), produce(1), consume(1), …`:
///
/// * items are consumed in index order;
/// * the returned `Vec` holds `consume`'s results in index order;
/// * the first error *in that interleaving* is returned — a `produce(k + 1)`
///   error is only surfaced after `consume(k)` succeeded, and a `consume(k)`
///   error wins over any concurrent later `produce` error;
/// * after an error, no later `consume` runs (the producer may have run
///   ahead by up to `depth + 1` items whose results are discarded).
///
/// The stage threads are deliberately **not** marked as `parallel_map`
/// workers: each stage may shard its own inner work across threads (the
/// dynamic server's per-title materialization does). Conversely, calling
/// `pipeline` from *inside* a `parallel_map` worker runs both stages inline
/// on the worker — same results, no thread explosion. `n <= 1` also runs
/// inline: there is nothing to overlap.
///
/// # Panics
/// Panics if `depth == 0`, and propagates panics from either stage.
pub fn pipeline<U, R, E, P, C>(
    n: usize,
    depth: usize,
    mut produce: P,
    mut consume: C,
) -> Result<Vec<R>, E>
where
    U: Send,
    E: Send,
    P: FnMut(usize) -> Result<U, E> + Send,
    C: FnMut(usize, U) -> Result<R, E>,
{
    // sm-lint: allow(no-panic-surface) — documented `# Panics` API precondition; a zero-depth channel cannot make progress
    assert!(depth >= 1, "pipeline depth must be at least 1");
    if n <= 1 || IN_WORKER.get() {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let item = produce(i)?;
            out.push(consume(i, item)?);
        }
        return Ok(out);
    }

    // Unwind-safety guards: a panic in either stage must release the *other*
    // stage's blocking channel wait before the scope joins, or the process
    // would deadlock instead of propagating the panic.
    struct CloseOnDrop<'a, T>(&'a Channel<T>);
    impl<T> Drop for CloseOnDrop<'_, T> {
        fn drop(&mut self) {
            self.0.close();
        }
    }
    struct AbortOnDrop<'a, T>(&'a Channel<T>);
    impl<T> Drop for AbortOnDrop<'_, T> {
        fn drop(&mut self) {
            self.0.abort();
        }
    }

    let channel: Channel<U> = Channel::new(depth);
    let mut out = Vec::with_capacity(n);
    let mut first_err: Option<E> = None;
    std::thread::scope(|scope| {
        let channel = &channel;
        let producer = scope.spawn(move || -> Option<E> {
            // Closes the channel on every exit — exhaustion, error, or a
            // panic inside `produce` — so the consumer's `pop` never waits
            // on a producer that will not deliver.
            let _close = CloseOnDrop(channel);
            for i in 0..n {
                match produce(i) {
                    Ok(item) => {
                        if !channel.push(item) {
                            return None; // consumer aborted; its error wins
                        }
                    }
                    Err(e) => return Some(e),
                }
            }
            None
        });
        // If `consume` panics below, this unblocks a producer waiting in
        // `push` before the scope joins it (harmless on normal exits: by
        // then the producer has already finished).
        let _abort = AbortOnDrop(channel);
        for i in 0..n {
            match channel.pop() {
                Some(item) => match consume(i, item) {
                    Ok(r) => out.push(r),
                    Err(e) => {
                        first_err = Some(e);
                        channel.abort();
                        break;
                    }
                },
                // Closed and drained early: the producer errored (or
                // panicked) after every item it did produce was consumed —
                // sequential error order.
                None => break,
            }
        }
        match producer.join() {
            Ok(producer_err) => {
                if first_err.is_none() {
                    first_err = producer_err;
                }
            }
            // Re-raise the producer's panic with its original payload.
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn works_on_small_inputs() {
        assert_eq!(parallel_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn handles_non_copy_results() {
        let items = vec!["a", "bb", "ccc"];
        let out = parallel_map(&items, |s| s.to_string());
        assert_eq!(out, vec!["a", "bb", "ccc"]);
    }

    #[test]
    fn pipeline_matches_sequential_interleaving() {
        let produced = Mutex::new(Vec::new());
        let consumed = Mutex::new(Vec::new());
        let out: Result<Vec<usize>, ()> = pipeline(
            10,
            1,
            |i| {
                produced.lock().unwrap().push(i);
                Ok(i * 10)
            },
            |i, item| {
                consumed.lock().unwrap().push((i, item));
                Ok(item + 1)
            },
        );
        assert_eq!(
            out.unwrap(),
            (0..10).map(|i| i * 10 + 1).collect::<Vec<_>>()
        );
        assert_eq!(*produced.lock().unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(
            *consumed.lock().unwrap(),
            (0..10).map(|i| (i, i * 10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pipeline_handles_empty_and_single_item() {
        let none: Result<Vec<u32>, ()> = pipeline(0, 1, |_| Ok(1), |_, x| Ok(x));
        assert_eq!(none.unwrap(), Vec::<u32>::new());
        let one: Result<Vec<u32>, ()> = pipeline(1, 4, |i| Ok(i as u32), |_, x| Ok(x + 5));
        assert_eq!(one.unwrap(), vec![5]);
    }

    #[test]
    fn pipeline_producer_error_surfaces_after_prior_items_consumed() {
        let consumed = Mutex::new(Vec::new());
        let out: Result<Vec<usize>, String> = pipeline(
            8,
            2,
            |i| {
                if i == 3 {
                    Err(format!("produce {i} failed"))
                } else {
                    Ok(i)
                }
            },
            |i, item| {
                consumed.lock().unwrap().push(i);
                Ok(item)
            },
        );
        assert_eq!(out.unwrap_err(), "produce 3 failed");
        // Everything produced before the failure was consumed, in order.
        assert_eq!(*consumed.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn pipeline_consumer_error_wins_over_later_producer_error() {
        // The producer runs ahead and fails at 3, but the consumer already
        // failed at 2 — sequentially consume(2) happens before produce(3),
        // so the consumer's error must be the one reported.
        let out: Result<Vec<usize>, String> = pipeline(
            8,
            1,
            |i| {
                if i == 3 {
                    Err("producer".to_string())
                } else {
                    Ok(i)
                }
            },
            |i, item| {
                if i == 2 {
                    Err("consumer".to_string())
                } else {
                    Ok(item)
                }
            },
        );
        assert_eq!(out.unwrap_err(), "consumer");
    }

    #[test]
    fn pipeline_consumer_error_stops_producer_promptly_at_any_depth() {
        for depth in [1usize, 2, 4] {
            let produced = AtomicUsize::new(0);
            let out: Result<Vec<usize>, ()> = pipeline(
                1000,
                depth,
                |i| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    Ok(i)
                },
                |i, item| if i == 0 { Err(()) } else { Ok(item) },
            );
            assert!(out.is_err());
            // At most 1 consumed + `depth` buffered + 2 in flight items can
            // be produced before the abort is observed.
            assert!(
                produced.load(Ordering::Relaxed) <= depth + 3,
                "depth {depth}: produced {}",
                produced.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn pipeline_run_ahead_is_bounded_by_depth() {
        // The channel is the backpressure mechanism: at the moment
        // `consume(i)` starts, at most `i + 1` items were popped, at most
        // `depth` more sit finished in the buffer, and one more may be in
        // flight inside `produce` — so the producer can never have started
        // more than `i + depth + 2` productions, no matter how fast it is.
        for depth in [1usize, 2, 4, 8] {
            let produced = AtomicUsize::new(0);
            let out: Result<Vec<usize>, ()> = pipeline(
                200,
                depth,
                |i| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    Ok(i)
                },
                |i, item| {
                    let ahead = produced.load(Ordering::Relaxed);
                    assert!(
                        ahead <= i + depth + 2,
                        "depth {depth}: {ahead} productions started by consume({i})"
                    );
                    Ok(item)
                },
            );
            assert_eq!(out.unwrap().len(), 200);
        }
    }

    #[test]
    fn pipeline_depth_covering_n_lets_the_producer_finish_first() {
        // With depth ≥ n the channel never fills: the producer can run the
        // whole index range to completion while the consumer sits on its
        // first item. The consumer waits for exactly that before touching
        // anything — deadlock here would mean the capacity is not honored.
        const N: usize = 64;
        let produced = AtomicUsize::new(0);
        let out: Result<Vec<usize>, ()> = pipeline(
            N,
            N,
            |i| {
                produced.fetch_add(1, Ordering::Relaxed);
                Ok(i * 3)
            },
            |_, item| {
                while produced.load(Ordering::Relaxed) < N {
                    std::thread::yield_now();
                }
                Ok(item)
            },
        );
        assert_eq!(out.unwrap(), (0..N).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pipeline_consumer_panic_propagates_instead_of_deadlocking() {
        // A panicking consumer must release the producer blocked in `push`
        // (depth 1 fills immediately at n = 100) and re-raise, not hang.
        let caught = std::panic::catch_unwind(|| {
            let _: Result<Vec<usize>, ()> = pipeline(100, 1, Ok, |i, item| {
                if i == 1 {
                    panic!("consumer boom");
                }
                Ok(item)
            });
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"consumer boom"));
    }

    #[test]
    fn pipeline_producer_panic_propagates_with_its_payload() {
        let consumed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            let _: Result<Vec<usize>, ()> = pipeline(
                8,
                2,
                |i| {
                    if i == 2 {
                        panic!("producer boom");
                    }
                    Ok(i)
                },
                |_, item| {
                    consumed.fetch_add(1, Ordering::Relaxed);
                    Ok(item)
                },
            );
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"producer boom"));
        // Everything produced before the panic still reached the consumer.
        assert_eq!(consumed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pipeline_inside_parallel_map_runs_inline_with_identical_results() {
        let outer: Vec<u64> = (0..16).collect();
        let out = parallel_map(&outer, |&x| {
            pipeline::<u64, u64, (), _, _>(8, 1, |i| Ok(x * 100 + i as u64), |_, v| Ok(v * 2))
                .unwrap()
                .into_iter()
                .sum::<u64>()
        });
        for (x, &v) in out.iter().enumerate() {
            let expect: u64 = (0..8).map(|i| (x as u64 * 100 + i) * 2).sum();
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn pipeline_stages_can_run_parallel_map_inside() {
        // Stage bodies are not marked as workers, so their inner
        // parallel_map calls behave exactly like top-level ones.
        let out: Result<Vec<u64>, ()> = pipeline(
            4,
            1,
            |i| {
                let items: Vec<u64> = (0..32).collect();
                Ok(parallel_map(&items, |&y| y + i as u64)
                    .into_iter()
                    .sum::<u64>())
            },
            |_, v| Ok(v),
        );
        let expect: Vec<u64> = (0..4u64).map(|i| (0..32).map(|y| y + i).sum()).collect();
        assert_eq!(out.unwrap(), expect);
    }

    #[test]
    fn nested_calls_run_sequentially_with_identical_results() {
        let outer: Vec<u64> = (0..64).collect();
        let out = parallel_map(&outer, |&x| {
            let inner: Vec<u64> = (0..32).collect();
            // On a worker thread the nested call must not spawn again —
            // and either way the result is the plain sequential one.
            parallel_map(&inner, |&y| x * 100 + y)
                .into_iter()
                .sum::<u64>()
        });
        for (x, &v) in out.iter().enumerate() {
            let expect: u64 = (0..32).map(|y| x as u64 * 100 + y).sum();
            assert_eq!(v, expect);
        }
    }
}
