//! `expred-exec` — the parallel, batched, cache-sharing evaluation runtime.
//!
//! The paper's premise is that UDF evaluation dominates query cost; this
//! crate makes sure the system spends that cost as the hardware allows
//! instead of one blocking call at a time. It is deliberately foundational
//! (no dependency on the UDF crate; from the table crate it borrows only
//! the session's `DerivedCache`), so every layer above — the audited
//! invoker, the probabilistic executor, the pipelines — can route probes
//! through it:
//!
//! * [`executor`] — the [`Executor`] trait ([`Executor::evaluate_batch`])
//!   with the [`Sequential`] backend that preserves one-at-a-time
//!   behavior bit for bit;
//! * [`pool`] — the [`WorkerPool`] backend, the one multi-threaded
//!   backend: persistent work-stealing workers with an atomic chunk
//!   cursor (no per-batch thread spawns, no straggler-bound chunking),
//!   deterministic answer order, a latency-aware inline fast path, and
//!   a [`DEFAULT_WINDOW`]-wide in-flight window for probes that declare
//!   themselves latency-bound (remote or sleeping UDFs), where overlap
//!   is connection-pool math, not core-count math;
//! * [`adaptive`] — [`AdaptiveController`], the shared per-probe latency
//!   EWMA that sizes planner drain slices between a floor and the
//!   context's `max_in_flight`;
//! * [`cache`] — [`ShardedMemo`], a lock-striped concurrent memo table so
//!   workers sharing one result cache do not serialize on a single lock;
//! * [`store`] — [`CacheStore`], the generalization of the memo to a
//!   long-lived, capacity-bounded, `(udf, table, version)`-namespaced
//!   cache that outlives individual queries; each namespace is one
//!   [`expred_stats::ClockCache`] (the workspace's one second-chance
//!   cache), and invokers borrow [`CacheHandle`]s from it instead of
//!   owning their memo;
//! * [`selectivity`] — [`SelectivityTracker`], the session's observed
//!   per-namespace pass rates: invokers feed it with every fresh answer,
//!   and the expression optimizer ranks `AND`/`OR` siblings by it;
//! * [`context`] — [`ExecContext`], the single execution parameter
//!   (backend + cache + batch budget) threaded through every pipeline;
//! * [`planner`] — [`BatchPlanner`], which accumulates pending probes per
//!   correlation group and drains them through an executor under a
//!   `max_in_flight` budget.
//!
//! # The `Executor` contract
//!
//! Implementations of [`Executor`] must uphold, and callers may rely on:
//!
//! 1. **Order**: `evaluate_batch(probe, rows)` returns exactly
//!    `rows.len()` answers, with `answers[i] = probe(rows[i])`.
//! 2. **Exactly once per slot**: the probe is invoked exactly once per
//!    batch slot (callers dedupe and memoize *before* batching, so the
//!    charged cost of a batch is precisely its length).
//! 3. **Determinism**: for a pure probe, the returned vector is a pure
//!    function of `rows` — scheduling, thread count, and backend choice
//!    must not leak into results. This is what makes every backend
//!    produce byte-identical `RunOutcome`s to `Sequential`.
//! 4. **Purity requirement on probes**: [`BatchProbe::probe`] must be
//!    deterministic per row and safe to call from any thread
//!    concurrently. Probes that randomize or keep interior mutable state
//!    must synchronize internally and stay row-deterministic.
//!
//! Backends may reorder, interleave, or parallelize the underlying calls
//! arbitrarily within a batch — the paper's cost model is indifferent to
//! *when* an evaluation happens, only to *how many* happen.

pub mod adaptive;
pub mod cache;
pub mod context;
pub mod executor;
pub mod planner;
pub mod pool;
pub mod selectivity;
pub mod store;

pub use adaptive::{AdaptiveController, DEFAULT_WINDOW_FLOOR};
pub use cache::ShardedMemo;
pub use context::ExecContext;
pub use executor::{BatchProbe, Executor, Sequential};
pub use planner::{BatchPlanner, GroupedAnswer, DEFAULT_MAX_IN_FLIGHT};
pub use pool::{WorkerPool, DEFAULT_WINDOW};
pub use selectivity::{SelectivityHandle, SelectivityTracker, DEFAULT_SELECTIVITY_CAPACITY};
pub use store::{
    CacheHandle, CacheNamespace, CacheStats, CacheStore, SpillSink, DEFAULT_CACHE_CAPACITY,
    MAX_LIVE_VERSIONS,
};

/// The contract the multi-threaded backend must meet, checked across
/// thread counts on [`WorkerPool`]'s CPU-bound path; the two cases the
/// `window` tests have no counterpart for also run latency-bound.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::pool::tests::run;
        use crate::{Executor, Sequential, WorkerPool};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};

        #[test]
        fn matches_sequential_exactly() {
            let probe = |row: usize| (row * 2654435761) % 7 < 3;
            let rows: Vec<usize> = (0..1000).rev().collect();
            let want = Sequential.evaluate_batch(&probe, &rows);
            for threads in [1, 2, 3, 8, 64] {
                assert_eq!(
                    WorkerPool::with_threads(threads).evaluate_batch(&probe, &rows),
                    want,
                    "{threads} threads"
                );
            }
        }

        #[test]
        fn each_row_probed_exactly_once() {
            let calls = AtomicUsize::new(0);
            let probe = |_row: usize| {
                calls.fetch_add(1, Ordering::Relaxed);
                true
            };
            let rows: Vec<usize> = (0..257).collect();
            WorkerPool::with_threads(4).evaluate_batch(&probe, &rows);
            assert_eq!(calls.load(Ordering::Relaxed), rows.len());
        }

        #[test]
        fn small_batches_run_inline() {
            // A one-row batch never leaves the calling thread, however
            // many workers the pool has, on either path.
            let caller = std::thread::current().id();
            let probe = |row: usize| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "row {row} left the caller"
                );
                row == 1
            };
            for latency_bound in [false, true] {
                let pool = WorkerPool::with_threads(8);
                assert_eq!(run(&pool, probe, &[1], latency_bound), vec![true]);
                assert_eq!(run(&pool, probe, &[2], latency_bound), vec![false]);
            }
            // A one-worker pool runs whole CPU-bound batches on the
            // caller; latency-bound ones widen to the window instead.
            let pool = WorkerPool::with_threads(1);
            assert_eq!(
                run(&pool, probe, &[0, 1, 2], false),
                vec![false, true, false]
            );
            let anywhere = |row: usize| row == 1;
            assert_eq!(
                run(&pool, anywhere, &[0, 1, 2], true),
                vec![false, true, false]
            );
        }

        #[test]
        fn sleepy_probes_overlap() {
            // Four 20ms probes across 4 workers should take far less than
            // the 80ms a serial run needs. Generous bound for loaded CI
            // machines.
            let probe = |_row: usize| {
                std::thread::sleep(Duration::from_millis(20));
                true
            };
            let rows = [0usize, 1, 2, 3];
            for latency_bound in [false, true] {
                let pool = WorkerPool::with_threads(4);
                let start = Instant::now();
                run(&pool, probe, &rows, latency_bound);
                assert!(
                    start.elapsed() < Duration::from_millis(70),
                    "latency_bound = {latency_bound}: no overlap: {:?}",
                    start.elapsed()
                );
            }
        }

        #[test]
        fn empty_and_degenerate_batches() {
            let probe = |_row: usize| true;
            assert!(WorkerPool::new().evaluate_batch(&probe, &[]).is_empty());
            let pool = WorkerPool::with_threads(16);
            assert_eq!(pool.evaluate_batch(&probe, &[9]), vec![true]);
        }
    }
}

/// The in-flight window: [`WorkerPool`]'s latency-bound path keeps up to
/// [`DEFAULT_WINDOW`] probes outstanding, each claimed one row at a time,
/// so completion order is whatever the probes produce and a straggler
/// holds back only itself.
#[cfg(test)]
mod window {
    mod tests {
        use crate::pool::tests::Blocking;
        use crate::{Executor, Sequential, WorkerPool, DEFAULT_WINDOW};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::time::Duration;

        #[test]
        fn matches_sequential_exactly() {
            for (rows, modulus, cut) in [
                ((0..777).rev().collect::<Vec<usize>>(), 5, 2),
                ((0..1000).rev().collect(), 7, 3),
            ] {
                let probe = |row: usize| (row * 2654435761) % modulus < cut;
                let want = Sequential.evaluate_batch(&probe, &rows);
                for threads in [1, 2, 3, 7, 8, 16, 64, 1024] {
                    assert_eq!(
                        WorkerPool::with_threads(threads).evaluate_batch(&Blocking(probe), &rows),
                        want,
                        "threads = {threads}, {} rows",
                        rows.len()
                    );
                }
            }
        }

        #[test]
        fn each_slot_probed_exactly_once() {
            // Distinct rows, and duplicate-heavy ones: every slot is
            // probed, duplicates included.
            for (threads, rows) in [
                (4, (0..257).collect::<Vec<usize>>()),
                (8, (0..301).map(|i| i % 13).collect()),
            ] {
                let calls = AtomicUsize::new(0);
                let probe = Blocking(|_row: usize| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    true
                });
                WorkerPool::with_threads(threads).evaluate_batch(&probe, &rows);
                assert_eq!(calls.load(Ordering::Relaxed), rows.len());
            }
        }

        #[test]
        fn straggler_holds_back_only_itself() {
            // One 80ms probe at the head of 256 probes of 1ms. The other
            // 255 need ~17ms across the remaining 15 window slots, so
            // every one of them must finish while the straggler still
            // sleeps. A chunked claim would park the rows sharing the
            // straggler's chunk behind it.
            let straggler_done = AtomicBool::new(false);
            let held_back = AtomicUsize::new(0);
            let probe = Blocking(|row: usize| {
                if row == 0 {
                    std::thread::sleep(Duration::from_millis(80));
                    straggler_done.store(true, Ordering::SeqCst);
                } else {
                    std::thread::sleep(Duration::from_millis(1));
                    if straggler_done.load(Ordering::SeqCst) {
                        held_back.fetch_add(1, Ordering::Relaxed);
                    }
                }
                true
            });
            let rows: Vec<usize> = (0..256).collect();
            let answers = WorkerPool::with_threads(2).evaluate_batch(&probe, &rows);
            assert_eq!(answers, vec![true; rows.len()]);
            assert_eq!(
                held_back.load(Ordering::Relaxed),
                0,
                "rows finished after the straggler"
            );
        }

        #[test]
        fn window_is_clamped_and_reported() {
            // The window tops a narrow pool up to DEFAULT_WINDOW in-flight
            // probes (the caller is one of them) and never narrows a wide
            // one.
            let probe = Blocking(|row: usize| row == 3);
            let rows: Vec<usize> = (0..64).collect();
            for (threads, lanes) in [(0, DEFAULT_WINDOW - 2), (3, DEFAULT_WINDOW - 4), (20, 0)] {
                let pool = WorkerPool::with_threads(threads);
                pool.evaluate_batch(&probe, &rows);
                assert_eq!(pool.lanes(), lanes, "threads = {threads}");
            }
            assert_eq!(WorkerPool::with_threads(3).name(), "worker_pool");
        }

        #[test]
        fn empty_batch_is_empty() {
            let probe = Blocking(|_row: usize| true);
            let pool = WorkerPool::with_threads(4);
            assert!(pool.evaluate_batch(&probe, &[]).is_empty());
            assert_eq!(pool.lanes(), 0, "an empty batch spawns nothing");
            assert!(WorkerPool::new().evaluate_batch(&probe, &[]).is_empty());
            assert_eq!(
                WorkerPool::with_threads(16).evaluate_batch(&probe, &[9]),
                vec![true]
            );
        }

        #[test]
        fn probe_panic_propagates() {
            // A panic among latency-bound probes reaches the caller, and
            // the pool keeps serving both paths afterwards.
            let pool = WorkerPool::with_threads(2);
            for (len, bad_row) in [(32, 5), (128, 77)] {
                let bomb = Blocking(|row: usize| {
                    std::thread::sleep(Duration::from_micros(200));
                    if row == bad_row {
                        panic!("boom");
                    }
                    true
                });
                let rows: Vec<usize> = (0..len).collect();
                let result = catch_unwind(AssertUnwindSafe(|| pool.evaluate_batch(&bomb, &rows)));
                assert!(result.is_err(), "panic must not be swallowed");
                let probe = |row: usize| row.is_multiple_of(3);
                let want = Sequential.evaluate_batch(&probe, &rows);
                assert_eq!(pool.evaluate_batch(&Blocking(probe), &rows), want);
                assert_eq!(pool.evaluate_batch(&probe, &rows), want);
            }
        }
    }
}
