//! Executor-backend comparison on a genuinely expensive UDF.
//!
//! The paper's setting is a UDF whose single call dwarfs everything else
//! (credit checks, image classification). Here a [`SlowUdf`] sleeps 100µs
//! per call; the benchmarks compare the `Sequential` and `Parallel`
//! backends on the same audited workloads. On a ≥4-core machine the
//! parallel backend is expected to clear a 2× wall-clock speedup (the
//! sleeps overlap even on fewer cores, so it usually clears it there
//! too); `speedup_report` prints the measured ratio directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use expred_bench::BenchReport;
use expred_core::execute::execute_plan_ctx;
use expred_core::plan::Plan;
use expred_exec::{ExecContext, Executor, Parallel, Sequential};
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, DatasetSpec, LABEL_COLUMN, PROSPER};
use expred_udf::{OracleUdf, SlowUdf, UdfInvoker};
use std::hint::black_box;
use std::time::{Duration, Instant};

const UDF_LATENCY: Duration = Duration::from_micros(100);

fn slow_udf() -> SlowUdf<OracleUdf> {
    SlowUdf::new(OracleUdf::new(LABEL_COLUMN), UDF_LATENCY)
}

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec {
            rows: 4_000,
            ..PROSPER
        },
        1,
    )
}

/// Raw batch throughput: 1024 fresh 100µs probes per iteration.
fn bench_batch_backends(c: &mut Criterion) {
    let ds = dataset();
    let udf = slow_udf();
    let batch: Vec<usize> = (0..1_024).collect();
    let backends: Vec<(&str, Box<dyn Executor>)> = vec![
        ("sequential", Box::new(Sequential)),
        ("parallel_4", Box::new(Parallel::with_threads(4))),
        ("parallel_machine", Box::new(Parallel::new())),
    ];
    let mut group = c.benchmark_group("slow_udf_batch_1024x100us");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.sample_size(10);
    for (name, backend) in &backends {
        group.bench_with_input(BenchmarkId::from_parameter(name), backend, |b, backend| {
            b.iter(|| {
                // Fresh invoker: every probe is a real (slow) call.
                let invoker = UdfInvoker::new(&udf, &ds.table);
                black_box(invoker.evaluate_batch(backend.as_ref(), &batch))
            })
        });
    }
    group.finish();
}

/// The probabilistic executor end to end under a fractional plan.
fn bench_execute_plan_backends(c: &mut Criterion) {
    let ds = dataset();
    let udf = slow_udf();
    let groups = ds.table.group_by("grade").unwrap();
    let k = groups.num_groups();
    let plan = Plan::new(vec![0.8; k], vec![0.5; k]);
    let backends: Vec<(&str, Box<dyn Executor>)> = vec![
        ("sequential", Box::new(Sequential)),
        ("parallel_8", Box::new(Parallel::with_threads(8))),
    ];
    let mut group = c.benchmark_group("execute_plan_slow_udf");
    group.throughput(Throughput::Elements(ds.table.num_rows() as u64));
    group.sample_size(10);
    for (name, backend) in &backends {
        group.bench_with_input(BenchmarkId::from_parameter(name), backend, |b, backend| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let invoker = UdfInvoker::new(&udf, &ds.table);
                let mut rng = Prng::seeded(seed);
                black_box(execute_plan_ctx(
                    &plan,
                    &groups,
                    &invoker,
                    &mut rng,
                    &ExecContext::new(backend.as_ref()),
                ))
            })
        });
    }
    group.finish();
}

/// Prints the sequential/parallel wall-clock ratio (and asserts the two
/// backends agreed on every answer while measuring it).
fn speedup_report(c: &mut Criterion) {
    let ds = dataset();
    let udf = slow_udf();
    let batch: Vec<usize> = (0..1_024).collect();
    let time = |backend: &dyn Executor| {
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let start = Instant::now();
        let answers = invoker.evaluate_batch(backend, &batch);
        (start.elapsed().as_secs_f64(), answers)
    };
    let (seq_secs, seq_answers) = time(&Sequential);
    // At least 4 workers: sleeping probes overlap even when cores are
    // scarce, so the report is meaningful on small CI boxes too.
    let parallel = Parallel::with_threads(Parallel::new().threads().max(4));
    let (par_secs, par_answers) = time(&parallel);
    assert_eq!(seq_answers, par_answers, "backends disagreed");
    println!(
        "speedup_report: sequential {seq_secs:.3}s, parallel({threads} threads) {par_secs:.3}s \
         -> {ratio:.1}x",
        threads = parallel.threads(),
        ratio = seq_secs / par_secs
    );
    // Persist the trajectory: BENCH_exec.json alongside the text report.
    let per_probe = |secs: f64| secs * 1e9 / batch.len() as f64;
    let mut report = BenchReport::new("exec");
    report.record(
        "invoker_batch_1024_udf_100us",
        "sequential",
        per_probe(seq_secs),
        1.0,
    );
    report.record(
        "invoker_batch_1024_udf_100us",
        "parallel",
        per_probe(par_secs),
        seq_secs / par_secs,
    );
    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
    // Keep the shim's reporting shape consistent.
    c.bench_function("speedup_report/noop", |b| b.iter(|| black_box(0)));
}

criterion_group!(
    benches,
    bench_batch_backends,
    bench_execute_plan_backends,
    speedup_report
);
criterion_main!(benches);
