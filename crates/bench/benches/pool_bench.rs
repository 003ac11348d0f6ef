//! `pool_bench` — `Sequential` vs `WorkerPool` across the batch-size ×
//! UDF-latency grid, plus the many-small-batches drain that motivated
//! the pool.
//!
//! ```text
//! cargo bench --bench pool_bench            # full grid
//! cargo bench --bench pool_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Scenarios:
//!
//! * `batch_<n>_udf_<lat>` — one fresh batch of `n` spin-wait probes of
//!   the given latency, repeated; reports mean ns/probe per backend.
//! * `many_small_batches_udf_100us` — the planner's group-by-group
//!   drain: hundreds of 16-row batches pushed through `evaluate_batch`
//!   one after another. A spawn-per-batch backend must run these inline
//!   or pay thread spawns per batch; the pool's persistent workers are
//!   the point.
//!
//! Results land in `BENCH_pool.json` (schema: `expred_bench::report`),
//! with `sequential` as the per-scenario speedup baseline.
//!
//! The probe models the paper's UDFs: an *expensive call whose cost is
//! latency, not CPU* (credit checks, crowdsourcing, web services), so
//! ≥50µs probes `thread::sleep` — they overlap across workers the way
//! concurrent service calls do, core count notwithstanding — while
//! µs-probes spin (sleep granularity cannot express them; they model the
//! CPU-bound end, where a 1-core box rightly shows parity). The pool is
//! 8-wide like `exec_bench`'s `pool_8`: in-flight window sizing for
//! latency-bound UDFs is connection-pool math, not core-count math.

use expred_bench::BenchReport;
use expred_exec::{Executor, Sequential, WorkerPool};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Worker width for the pool (see module docs).
const WIDTH: usize = 8;

/// Latency at and above which the probe sleeps instead of spinning.
const SLEEP_THRESHOLD: Duration = Duration::from_micros(50);

/// A probe costing roughly `latency` per call: latency-bound (sleeping)
/// for service-call scales, CPU-bound (spinning) for µs scales.
fn expensive_probe(latency: Duration) -> impl Fn(usize) -> bool + Sync {
    move |row: usize| {
        if latency >= SLEEP_THRESHOLD {
            std::thread::sleep(latency);
        } else {
            let begin = Instant::now();
            let mut acc = row as u64;
            while begin.elapsed() < latency {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                black_box(acc);
            }
        }
        row.is_multiple_of(3)
    }
}

/// Wall-clock per probe for `reps` fresh evaluations of one batch.
fn time_batch(executor: &dyn Executor, latency: Duration, rows: &[usize], reps: usize) -> f64 {
    let probe = expensive_probe(latency);
    // Warm up (lets the pool's latency EWMA settle into this scenario).
    black_box(executor.evaluate_batch(&probe, rows));
    let begin = Instant::now();
    for _ in 0..reps {
        black_box(executor.evaluate_batch(&probe, rows));
    }
    begin.elapsed().as_nanos() as f64 / (reps * rows.len()) as f64
}

/// Wall-clock per probe for draining `batches` consecutive small batches.
fn time_many_small(
    executor: &dyn Executor,
    latency: Duration,
    batches: usize,
    batch_rows: usize,
    reps: usize,
) -> f64 {
    let probe = expensive_probe(latency);
    let groups: Vec<Vec<usize>> = (0..batches)
        .map(|g| (g * batch_rows..(g + 1) * batch_rows).collect())
        .collect();
    for group in groups.iter().take(4) {
        black_box(executor.evaluate_batch(&probe, group));
    }
    let begin = Instant::now();
    for _ in 0..reps {
        for group in &groups {
            black_box(executor.evaluate_batch(&probe, group));
        }
    }
    begin.elapsed().as_nanos() as f64 / (reps * batches * batch_rows) as f64
}

fn fmt_latency(latency: Duration) -> String {
    if latency < Duration::from_micros(1000) {
        format!("{}us", latency.as_micros())
    } else {
        format!("{}ms", latency.as_millis())
    }
}

/// Repetitions that keep one (scenario, backend) cell near `budget`,
/// assuming the worst case (sequential) cost.
fn reps_for(rows: usize, latency: Duration, budget: Duration) -> usize {
    let serial = rows as u128 * latency.as_nanos().max(1);
    (budget.as_nanos() / serial.max(1)).clamp(1, 30) as usize
}

fn main() {
    // `cargo test` probes bench binaries with --test; do nothing.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");

    let batch_sizes: &[usize] = if smoke {
        &[8, 512]
    } else {
        &[8, 64, 512, 4096]
    };
    let latencies: &[Duration] = if smoke {
        &[Duration::from_micros(1), Duration::from_micros(100)]
    } else {
        &[
            Duration::from_micros(1),
            Duration::from_micros(100),
            Duration::from_millis(1),
        ]
    };
    let budget = if smoke {
        Duration::from_millis(80)
    } else {
        Duration::from_millis(700)
    };

    let mut report = BenchReport::new("pool");
    println!(
        "pool_bench ({} mode): sequential vs worker_pool",
        if smoke { "smoke" } else { "full" }
    );

    for &latency in latencies {
        for &rows_n in batch_sizes {
            // The full 4096×1ms sequential baseline alone would take >4s
            // per rep; the grid caps serial cost per cell instead.
            if rows_n as u128 * latency.as_nanos() > Duration::from_secs(1).as_nanos() {
                continue;
            }
            let scenario = format!("batch_{rows_n}_udf_{}", fmt_latency(latency));
            let rows: Vec<usize> = (0..rows_n).collect();
            let reps = reps_for(rows_n, latency, budget);
            let sequential = time_batch(&Sequential, latency, &rows, reps);
            let pool = WorkerPool::with_threads(WIDTH);
            let pooled = time_batch(&pool, latency, &rows, reps);
            report.record(&scenario, "sequential", sequential, 1.0);
            report.record(&scenario, "worker_pool", pooled, sequential / pooled);
            println!(
                "{scenario:<28} seq {sequential:>10.0} ns/probe | pool {pooled:>10.0} ({:>5.2}x)",
                sequential / pooled,
            );
        }
    }

    // The headline scenario: a pipeline draining many small
    // correlation-group batches of a 100µs UDF.
    let (batches, reps) = if smoke { (32, 1) } else { (256, 3) };
    let latency = Duration::from_micros(100);
    let scenario = "many_small_batches_udf_100us";
    let sequential = time_many_small(&Sequential, latency, batches, 16, reps);
    let pool = WorkerPool::with_threads(WIDTH);
    let pooled = time_many_small(&pool, latency, batches, 16, reps);
    report.record(scenario, "sequential", sequential, 1.0);
    report.record(scenario, "worker_pool", pooled, sequential / pooled);
    println!(
        "{scenario:<28} seq {sequential:>10.0} ns/probe | pool {pooled:>10.0} ({:>5.2}x)",
        sequential / pooled,
    );

    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
