//! [`WorkerPool`]: a persistent, work-stealing [`Executor`] backend.
//!
//! The obvious way to fan a batch out — spawn scoped threads on every
//! `evaluate_batch` call and give each one fixed contiguous chunk — has
//! two costs the paper's workloads actually pay:
//!
//! * a pipeline draining many small-to-medium correlation-group batches
//!   pays thread-spawn latency (tens of µs per thread) *per batch*, so
//!   such a backend must run small batches inline and forfeits
//!   parallelism exactly where a 100µs UDF would profit from it;
//! * one fixed chunk per worker straggles on variable-latency probes: the
//!   batch is as slow as its unluckiest chunk.
//!
//! The pool avoids both. N workers are spawned once and park on a condvar;
//! a batch is published as one shared job with an **atomic chunk cursor**
//! from which workers (and the calling thread — it always participates)
//! *steal* variable-size chunks: guided self-scheduling, `remaining /
//! (2·workers)` rows at a time, large chunks first shrinking toward the
//! tail, so fast workers absorb stragglers' leftovers. Every answer lands
//! at its input index in the output buffer, so results are in input order
//! no matter which worker computed what — the crate-level determinism
//! contract comes from *where* answers land, never from *when*.
//!
//! The pool also keeps a per-probe latency estimate (an embedded
//! [`AdaptiveController`] — the same estimator the batch planner uses):
//! batches whose *estimated total work* is below the dispatch cost run
//! inline on the caller instead of waking workers. Unlike a fixed
//! row-count floor this is latency-aware — eight 100µs probes fan
//! out (they carry 800µs of work), eight 1µs probes run inline (waking
//! workers costs more than the 8µs of work). The inline path hedges
//! against a stale estimate: if a supposedly-cheap batch overruns a
//! small time budget (a new, slower UDF arrived on a warmed-up pool),
//! the remainder fans out mid-batch.
//!
//! Concurrent callers — a `Sync` engine serves many threads through one
//! pool — publish into a small FIFO job queue, and idle workers always
//! take the *oldest* job with unclaimed rows, so a later batch can never
//! starve an earlier one down to single-threaded execution.
//!
//! # Panic safety
//!
//! A panicking probe must not poison or deadlock a long-lived pool.
//! Workers catch the unwind per chunk, mark the job panicked, and keep
//! claiming (without evaluating) so the job still completes; the caller
//! re-raises the panic only after every worker is provably done touching
//! the job's buffers. The pool remains fully usable afterwards.

use crate::adaptive::AdaptiveController;
use crate::executor::{BatchProbe, Executor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Estimated fixed cost (ns) of publishing a job and waking the pool;
/// batches with less estimated total probe work than this run inline.
const DISPATCH_COST_NS: f64 = 30_000.0;

/// How long the inline fast path may run before it concedes its latency
/// estimate was stale and fans the remaining rows out (a few dispatch
/// costs: cheap enough to never matter when the estimate was right,
/// tight enough to cap the damage when it was not).
const INLINE_BUDGET: Duration = Duration::from_micros(120);

/// One published batch: everything a worker needs to steal and fill
/// chunks, plus completion/panic bookkeeping.
///
/// The probe/rows/answers pointers borrow from the `evaluate_batch` call
/// frame with their lifetimes erased — see the safety argument on
/// [`WorkerPool::evaluate_batch`].
struct Job {
    /// The probe, lifetime-erased. Only dereferenced for claimed rows.
    probe: *const dyn BatchProbe,
    /// The input rows, lifetime-erased.
    rows: *const usize,
    /// The output buffer, disjointly written by chunk index.
    answers: *mut bool,
    len: usize,
    /// Next unclaimed row index; claims advance it atomically.
    cursor: AtomicUsize,
    /// Rows whose slots are finalized (evaluated, or skipped post-panic).
    completed: AtomicUsize,
    /// Sticky flag: some chunk's probe panicked.
    panicked: AtomicBool,
    /// Total ns spent inside probe calls (summed across workers).
    work_ns: AtomicU64,
    /// Participant count used for guided chunk sizing.
    stealers: usize,
    /// Completion signal: the final chunk's worker notifies the caller.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: the raw pointers are only dereferenced by workers holding a
// claimed chunk, and `evaluate_batch` does not return (or unwind) until
// `completed == len`, i.e. until no worker will dereference them again.
// `BatchProbe: Sync` makes the shared `&dyn BatchProbe` usable from any
// thread; `rows` is only read; `answers` writes are disjoint by index.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims the next chunk: guided self-scheduling, `remaining /
    /// (2·stealers)` rows (at least 1), so early chunks are large and the
    /// tail degrades to single rows that fast workers mop up.
    fn claim(&self) -> Option<(usize, usize)> {
        loop {
            let start = self.cursor.load(Ordering::Relaxed);
            if start >= self.len {
                return None;
            }
            let remaining = self.len - start;
            let chunk = (remaining / (2 * self.stealers)).clamp(1, remaining);
            if self
                .cursor
                .compare_exchange_weak(start, start + chunk, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some((start, chunk));
            }
        }
    }

    /// Steals and evaluates chunks until the cursor is exhausted.
    fn run(&self) {
        while let Some((start, chunk)) = self.claim() {
            if !self.panicked.load(Ordering::Relaxed) {
                let began = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    for i in start..start + chunk {
                        // SAFETY: `i < len`, this chunk is exclusively
                        // ours, and the buffers outlive the job (see the
                        // `Send`/`Sync` impl and `evaluate_batch`).
                        unsafe {
                            let row = *self.rows.add(i);
                            *self.answers.add(i) = (*self.probe).probe(row);
                        }
                    }
                }));
                self.work_ns
                    .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if outcome.is_err() {
                    self.panicked.store(true, Ordering::Release);
                }
            }
            // Count the chunk complete even after a panic: completion is
            // what lets the caller stop waiting, and a panicked job's
            // answers are never returned anyway.
            let done = self.completed.fetch_add(chunk, Ordering::AcqRel) + chunk;
            if done >= self.len {
                let mut finished = self.done.lock().unwrap_or_else(|e| e.into_inner());
                *finished = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every row's slot is finalized.
    fn wait(&self) {
        let mut finished = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*finished {
            finished = self
                .done_cv
                .wait(finished)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The pool's publication queue: workers park here between jobs.
struct PoolShared {
    state: Mutex<PoolState>,
    work_available: Condvar,
    /// Shared per-probe latency estimator driving the inline fast path
    /// (the same EWMA type planners use for window sizing).
    latency: AdaptiveController,
}

struct PoolState {
    /// Published jobs in FIFO order. Each caller pushes its job, steals
    /// alongside the workers, and removes the job once complete; workers
    /// serve the *oldest* job with unclaimed rows first, so concurrent
    /// callers share the pool fairly instead of the newest publication
    /// starving the rest.
    jobs: Vec<Arc<Job>>,
    shutdown: bool,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut guard = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if guard.shutdown {
                    return;
                }
                // Oldest-first: FIFO fairness across concurrent callers.
                if let Some(job) = guard
                    .jobs
                    .iter()
                    .find(|job| job.cursor.load(Ordering::Relaxed) < job.len)
                {
                    break Arc::clone(job);
                }
                guard = shared
                    .work_available
                    .wait(guard)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        job.run();
    }
}

/// A persistent work-stealing executor: N long-lived workers, batches
/// published as shared jobs, chunks claimed off an atomic cursor.
///
/// See the module docs for the full design; the short version: no
/// per-batch thread spawns, straggler-proof chunking, deterministic
/// answer placement, latency-aware inline fast path, panic-safe.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// A pool sized to the machine (`std::thread::available_parallelism`).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A pool with exactly `threads` persistent workers (at least 1).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
            latency: AdaptiveController::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("expred-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// The number of persistent workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's current per-probe latency estimate, if it has executed
    /// any batch yet. Drives the inline fast path; exposed for
    /// diagnostics and benches.
    pub fn latency_estimate(&self) -> Option<Duration> {
        self.shared.latency.latency_estimate()
    }

    /// Whether a batch of `len` probes should skip the pool entirely:
    /// single rows always, and any batch whose estimated total work is
    /// below the dispatch cost. An unknown latency (first ever batch)
    /// fans out — misjudging one tiny batch costs microseconds, while
    /// running a first 4096×1ms batch inline would cost seconds.
    fn should_inline(&self, len: usize) -> bool {
        if len <= 1 {
            return true;
        }
        match self.latency_estimate() {
            None => false,
            Some(estimate) => estimate.as_nanos() as f64 * len as f64 <= DISPATCH_COST_NS,
        }
    }

    /// Runs the batch on the calling thread, still feeding the latency
    /// estimate. Hedged: the estimate that routed the batch here may be
    /// stale (learned from a *different, cheaper* UDF on this shared
    /// pool), so if the loop overruns [`INLINE_BUDGET`] the remaining
    /// rows fan out to the workers instead of serializing an arbitrarily
    /// expensive batch on the caller.
    fn evaluate_inline(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        let began = Instant::now();
        let mut answers = Vec::with_capacity(rows.len());
        for &row in rows {
            answers.push(probe.probe(row));
            // Check the clock only every 8 probes: noise on a genuinely
            // cheap batch, a bounded overrun (~8 probes) on a stale one.
            if self.threads > 1
                && answers.len() < rows.len()
                && answers.len() % 8 == 0
                && began.elapsed() > INLINE_BUDGET
            {
                self.shared.latency.observe(answers.len(), began.elapsed());
                let rest = self.fan_out(probe, &rows[answers.len()..]);
                answers.extend(rest);
                return answers;
            }
        }
        self.shared.latency.observe(rows.len(), began.elapsed());
        answers
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Publishes `rows` as a shared job, steals chunks alongside the
    /// workers, and returns once every row's slot is finalized.
    fn fan_out(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        let mut answers = vec![false; rows.len()];
        // SAFETY: the transmute only erases the probe borrow's lifetime
        // so the pointer can live in the long-lived workers' `Arc<Job>`.
        // The job is done before this frame's borrows end: `wait()`
        // returns only once `completed == len`, after which no worker
        // dereferences the pointers again (the cursor is exhausted, so
        // every future `claim` fails), and panics are re-raised only
        // after that same barrier.
        let probe_erased: *const (dyn BatchProbe + 'static) = {
            let raw: *const (dyn BatchProbe + '_) = probe;
            unsafe { std::mem::transmute(raw) }
        };
        let job = Arc::new(Job {
            probe: probe_erased,
            rows: rows.as_ptr(),
            answers: answers.as_mut_ptr(),
            len: rows.len(),
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            work_ns: AtomicU64::new(0),
            stealers: self.threads + 1,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut guard = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            guard.jobs.push(Arc::clone(&job));
        }
        self.shared.work_available.notify_all();
        // The caller is a stealer too: small batches often finish right
        // here before a parked worker even wakes.
        job.run();
        job.wait();
        // Retire the completed job from the queue.
        {
            let mut guard = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            guard.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        }
        self.shared.latency.observe(
            rows.len(),
            Duration::from_nanos(job.work_ns.load(Ordering::Relaxed)),
        );
        if job.panicked.load(Ordering::Acquire) {
            panic!("WorkerPool: probe panicked while evaluating a batch");
        }
        answers
    }
}

impl Executor for WorkerPool {
    fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        if rows.is_empty() {
            return Vec::new();
        }
        if self.threads == 1 || self.should_inline(rows.len()) {
            self.evaluate_inline(probe, rows)
        } else {
            self.fan_out(probe, rows)
        }
    }

    fn name(&self) -> &str {
        "worker_pool"
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut guard = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            guard.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sequential;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn matches_sequential_exactly() {
        let probe = |row: usize| (row * 2654435761) % 7 < 3;
        let rows: Vec<usize> = (0..1000).rev().collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::with_threads(threads);
            for _ in 0..3 {
                assert_eq!(
                    pool.evaluate_batch(&probe, &rows),
                    Sequential.evaluate_batch(&probe, &rows),
                    "threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn each_row_probed_exactly_once_per_batch() {
        let calls = AtomicUsize::new(0);
        let probe = |_row: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        };
        let rows: Vec<usize> = (0..257).collect();
        let pool = WorkerPool::with_threads(4);
        pool.evaluate_batch(&probe, &rows);
        assert_eq!(calls.load(Ordering::Relaxed), rows.len());
        pool.evaluate_batch(&probe, &rows);
        assert_eq!(calls.load(Ordering::Relaxed), 2 * rows.len());
    }

    #[test]
    fn empty_and_degenerate_batches() {
        let probe = |row: usize| row == 9;
        let pool = WorkerPool::new();
        assert!(pool.evaluate_batch(&probe, &[]).is_empty());
        assert_eq!(pool.evaluate_batch(&probe, &[9]), vec![true]);
        assert_eq!(pool.evaluate_batch(&probe, &[3]), vec![false]);
    }

    #[test]
    fn sleepy_probes_overlap_without_respawning_threads() {
        let probe = |_row: usize| {
            std::thread::sleep(Duration::from_millis(10));
            true
        };
        let rows: Vec<usize> = (0..8).collect();
        let pool = WorkerPool::with_threads(8);
        // Several consecutive batches: a scoped-spawn backend pays spawn
        // latency every round; the pool parks and rewakes the same
        // threads. 8 probes × 10ms over ≥8 stealers ≈ 10ms per round.
        for _ in 0..3 {
            let start = Instant::now();
            pool.evaluate_batch(&probe, &rows);
            assert!(
                start.elapsed() < Duration::from_millis(60),
                "no overlap: {:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn cheap_batches_learn_to_run_inline() {
        let pool = WorkerPool::with_threads(4);
        let probe = |row: usize| row.is_multiple_of(2);
        let rows: Vec<usize> = (0..64).collect();
        for _ in 0..8 {
            pool.evaluate_batch(&probe, &rows);
        }
        let estimate = pool.latency_estimate().expect("estimate after batches");
        assert!(
            estimate < Duration::from_micros(10),
            "trivial probes should estimate cheap, got {estimate:?}"
        );
        assert!(
            pool.should_inline(rows.len()),
            "64 trivial probes should run inline once the pool knows them"
        );
        // Correctness is unaffected either way.
        assert_eq!(
            pool.evaluate_batch(&probe, &rows),
            Sequential.evaluate_batch(&probe, &rows)
        );
    }

    #[test]
    fn stale_cheap_estimate_does_not_serialize_an_expensive_batch() {
        let pool = WorkerPool::with_threads(8);
        let cheap = |row: usize| row.is_multiple_of(2);
        let rows: Vec<usize> = (0..64).collect();
        for _ in 0..8 {
            pool.evaluate_batch(&cheap, &rows);
        }
        assert!(
            pool.should_inline(rows.len()),
            "the pool should have learned these probes are cheap"
        );
        // Same pool, new regime: 5ms sleeping probes. The stale estimate
        // routes the batch inline, where the hedge must notice the
        // overrun and fan the tail out — 64 probes serially would be
        // 320ms; hedged, the first 8 run inline (~40ms) and the rest
        // overlap across the workers.
        let slow = |_row: usize| {
            std::thread::sleep(Duration::from_millis(5));
            true
        };
        let start = Instant::now();
        let answers = pool.evaluate_batch(&slow, &rows);
        assert_eq!(answers, vec![true; 64]);
        assert!(
            start.elapsed() < Duration::from_millis(220),
            "inline hedge failed to fan out: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn panicking_probe_does_not_deadlock_or_poison_the_pool() {
        let pool = WorkerPool::with_threads(4);
        let rows: Vec<usize> = (0..512).collect();
        let bomb = |row: usize| {
            if row == 300 {
                panic!("boom");
            }
            true
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.evaluate_batch(&bomb, &rows)));
        assert!(outcome.is_err(), "the panic must propagate to the caller");
        // The pool stays fully serviceable afterwards.
        let probe = |row: usize| row.is_multiple_of(3);
        assert_eq!(
            pool.evaluate_batch(&probe, &rows),
            Sequential.evaluate_batch(&probe, &rows)
        );
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = WorkerPool::with_threads(4);
        let probe = |row: usize| row.is_multiple_of(5);
        std::thread::scope(|scope| {
            for offset in 0..8usize {
                let pool = &pool;
                scope.spawn(move || {
                    let rows: Vec<usize> = (offset * 100..offset * 100 + 400).collect();
                    let want = Sequential.evaluate_batch(&probe, &rows);
                    for _ in 0..5 {
                        assert_eq!(pool.evaluate_batch(&probe, &rows), want);
                    }
                });
            }
        });
    }

    #[test]
    fn name_and_threads_report() {
        let pool = WorkerPool::with_threads(0);
        assert_eq!(pool.threads(), 1, "thread count clamps to >= 1");
        assert_eq!(pool.name(), "worker_pool");
    }
}
