//! Property tests for the [`WorkerPool`] executor contract.
//!
//! For *arbitrary* row sets — duplicate-heavy, unsorted, tiny or large —
//! and every interesting worker count, the pool must be answer-identical
//! to [`Sequential`], batch after batch on one long-lived pool (the
//! inline fast path, the fan-out path, and the transitions between them
//! as the latency EWMA settles are all exercised by the same stream),
//! and latency-bound batches, run on the pool's wider in-flight window,
//! may interleave with CPU-bound ones on the same pool.
//! A panicking probe must propagate to the caller without wedging or
//! poisoning the pool for subsequent batches.

use expred_exec::{BatchProbe, Executor, Sequential, WorkerPool};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A stream of batches over a small row universe: duplicates within and
/// across batches are the norm, batch sizes span empty to medium.
fn batches() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..200, 0..120), 1..12)
}

/// Declares a closure latency-bound, as a sleeping or remote UDF does.
struct Blocking<F>(F);

impl<F: Fn(usize) -> bool + Sync> BatchProbe for Blocking<F> {
    fn probe(&self, row: usize) -> bool {
        (self.0)(row)
    }

    fn latency_bound(&self) -> bool {
        true
    }
}

fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pool_is_answer_identical_to_sequential(stream in batches()) {
        let probe = |row: usize| (row.wrapping_mul(2654435761) >> 3) % 5 < 2;
        for threads in [1, 2, machine_threads()] {
            let pool = WorkerPool::with_threads(threads);
            for (i, batch) in stream.iter().enumerate() {
                prop_assert_eq!(
                    pool.evaluate_batch(&probe, batch),
                    Sequential.evaluate_batch(&probe, batch),
                    "batch {} diverged at {} threads", i, threads
                );
            }
        }
    }

    #[test]
    fn latency_bound_batches_interleave_with_cpu_bound_ones(stream in batches()) {
        // Alternating paths on one pool: lanes spawn mid-stream, sit out
        // the CPU-bound batches, and never change an answer.
        let probe = |row: usize| (row.wrapping_mul(2654435761) >> 3) % 5 < 2;
        for threads in [1, 2, machine_threads()] {
            let pool = WorkerPool::with_threads(threads);
            for (i, batch) in stream.iter().enumerate() {
                let answers = if i % 2 == 0 {
                    pool.evaluate_batch(&Blocking(probe), batch)
                } else {
                    pool.evaluate_batch(&probe, batch)
                };
                prop_assert_eq!(
                    answers,
                    Sequential.evaluate_batch(&probe, batch),
                    "batch {} diverged at {} threads", i, threads
                );
            }
        }
    }

    #[test]
    fn duplicate_heavy_batches_probe_every_slot(stream in batches()) {
        // The executor contract is exactly-once *per slot*, duplicates
        // included — deduplication is the invoker's business, never the
        // backend's.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let probe = |row: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            row.is_multiple_of(2)
        };
        let pool = WorkerPool::with_threads(2);
        let mut expected = 0usize;
        for batch in &stream {
            pool.evaluate_batch(&probe, batch);
            expected += batch.len();
        }
        prop_assert_eq!(calls.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn panicking_probe_never_wedges_the_pool(
        batch in prop::collection::vec(0usize..100, 2..200),
        bomb_row in 0usize..100,
    ) {
        let pool = WorkerPool::with_threads(machine_threads().min(4));
        let bomb = |row: usize| {
            if row == bomb_row {
                panic!("bomb at {row}");
            }
            row.is_multiple_of(3)
        };
        let has_bomb = batch.contains(&bomb_row);
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.evaluate_batch(&bomb, &batch)));
        prop_assert_eq!(
            outcome.is_err(),
            has_bomb,
            "panic must propagate exactly when the bomb row is present"
        );
        // The same pool keeps serving correct answers afterwards.
        let probe = |row: usize| row.is_multiple_of(3);
        prop_assert_eq!(
            pool.evaluate_batch(&probe, &batch),
            Sequential.evaluate_batch(&probe, &batch)
        );
    }
}
