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
//!   backend for local probes: persistent work-stealing workers with an
//!   atomic chunk cursor (no per-batch thread spawns, no straggler-bound
//!   chunking), deterministic answer order, and a latency-aware inline
//!   fast path;
//! * [`window`] — the [`InFlightWindow`] backend: a bounded window of
//!   concurrently outstanding probes with out-of-order completion,
//!   built for blocking-RPC probes (remote UDF backends) where the
//!   window is connection-pool math, not core-count math;
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
pub mod window;

pub use adaptive::{AdaptiveController, DEFAULT_WINDOW_FLOOR};
pub use cache::ShardedMemo;
pub use context::ExecContext;
pub use executor::{BatchProbe, Executor, Sequential};
pub use planner::{BatchPlanner, GroupedAnswer, DEFAULT_MAX_IN_FLIGHT};
pub use pool::WorkerPool;
pub use selectivity::{SelectivityHandle, SelectivityTracker, DEFAULT_SELECTIVITY_CAPACITY};
pub use store::{
    CacheHandle, CacheNamespace, CacheStats, CacheStore, SpillSink, DEFAULT_CACHE_CAPACITY,
    MAX_LIVE_VERSIONS,
};
pub use window::{InFlightWindow, DEFAULT_WINDOW};

/// The contract every multi-threaded backend must meet, checked on each
/// of them: [`WorkerPool`] across thread counts and [`InFlightWindow`]
/// across window sizes.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::{Executor, InFlightWindow, Sequential, WorkerPool};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};

        /// Every multi-threaded backend configured for `threads` workers.
        fn backends(threads: usize) -> Vec<Box<dyn Executor>> {
            vec![
                Box::new(WorkerPool::with_threads(threads)),
                Box::new(InFlightWindow::new(threads)),
            ]
        }

        #[test]
        fn matches_sequential_exactly() {
            let probe = |row: usize| (row * 2654435761) % 7 < 3;
            let rows: Vec<usize> = (0..1000).rev().collect();
            let want = Sequential.evaluate_batch(&probe, &rows);
            for threads in [1, 2, 3, 8, 64] {
                for backend in backends(threads) {
                    assert_eq!(
                        backend.evaluate_batch(&probe, &rows),
                        want,
                        "{} with {threads} threads",
                        backend.name()
                    );
                }
            }
        }

        #[test]
        fn each_row_probed_exactly_once() {
            for backend in backends(4) {
                let calls = AtomicUsize::new(0);
                let probe = |_row: usize| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    true
                };
                let rows: Vec<usize> = (0..257).collect();
                backend.evaluate_batch(&probe, &rows);
                assert_eq!(
                    calls.load(Ordering::Relaxed),
                    rows.len(),
                    "{}",
                    backend.name()
                );
            }
        }

        #[test]
        fn small_batches_run_inline() {
            // A one-row batch never leaves the calling thread, however
            // many workers the backend has.
            let caller = std::thread::current().id();
            let probe = |row: usize| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "row {row} left the caller"
                );
                row == 1
            };
            for backend in backends(8) {
                assert_eq!(backend.evaluate_batch(&probe, &[1]), vec![true]);
                assert_eq!(backend.evaluate_batch(&probe, &[2]), vec![false]);
            }
            // A one-worker backend runs whole batches on the caller.
            for backend in backends(1) {
                assert_eq!(
                    backend.evaluate_batch(&probe, &[0, 1, 2]),
                    vec![false, true, false],
                    "{}",
                    backend.name()
                );
            }
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
            for backend in backends(4) {
                let start = Instant::now();
                backend.evaluate_batch(&probe, &rows);
                assert!(
                    start.elapsed() < Duration::from_millis(70),
                    "{}: no overlap: {:?}",
                    backend.name(),
                    start.elapsed()
                );
            }
        }

        #[test]
        fn empty_and_degenerate_batches() {
            let probe = |_row: usize| true;
            assert!(WorkerPool::new().evaluate_batch(&probe, &[]).is_empty());
            assert!(InFlightWindow::default()
                .evaluate_batch(&probe, &[])
                .is_empty());
            for backend in backends(16) {
                assert_eq!(backend.evaluate_batch(&probe, &[9]), vec![true]);
            }
        }
    }
}
