//! End-to-end pipeline benchmarks: the paper's claim that the optimizer's
//! compute time (column selection + sampling + convex optimization) is a
//! negligible fraction of the UDF savings ("less than a second on each of
//! the datasets", §6.2).
//!
//! ```text
//! cargo bench --bench pipeline_bench            # full run
//! cargo bench --bench pipeline_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Scenarios (results land in `BENCH_pipeline.json`; `ns_per_probe` is
//! ns per correlation *group* for the optimizer rows and ns per *row*
//! for the full-pipeline row):
//!
//! * `convex_optimizer_<dataset>` — the estimated-selectivity convex
//!   program alone, on group statistics shaped like each paper dataset.
//! * `intel_sample_prosper_10k` — the full Intel-Sample pipeline
//!   (grouping, sampling, optimizing, executing), fresh seed per rep.

use expred_bench::{report::measure_ns_per_unit, BenchReport};
use expred_core::optimize::{solve_estimated, CorrelationModel, EstimatedGroup};
use expred_core::pipeline::{run_intel_sample_ctx, IntelSampleConfig, PredictorChoice};
use expred_core::query::QuerySpec;
use expred_exec::ExecContext;
use expred_table::datasets::{all_specs, Dataset, DatasetSpec, PROSPER};
use std::hint::black_box;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = BenchReport::new("pipeline");
    println!(
        "pipeline_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    // The convex optimizer alone, on group statistics shaped like each
    // paper dataset (7–10 groups, 30k–53k tuples).
    let spec = QuerySpec::paper_default();
    let reps = if smoke { 5 } else { 50 };
    for ds_spec in all_specs() {
        let ds = Dataset::generate(ds_spec, 1);
        let stats = ds.group_stats(ds.predictor());
        let groups: Vec<EstimatedGroup> = stats
            .per_group
            .iter()
            .map(|&(t, s)| {
                let f = (t as f64 * 0.05).round();
                EstimatedGroup {
                    size: t as f64,
                    sampled: f,
                    sampled_positive: (f * s).round(),
                    sel: s,
                    var: s * (1.0 - s) / (f + 3.0),
                }
            })
            .collect();
        let scenario = format!("convex_optimizer_{}", ds_spec.name);
        let ns = measure_ns_per_unit(groups.len() as u64, reps, || {
            black_box(solve_estimated(&groups, &spec, CorrelationModel::Independent).unwrap());
        });
        report.record(&scenario, "solver", ns, 1.0);
        println!(
            "{scenario:<34} {ns:>12.0} ns/group ({} groups)",
            groups.len()
        );
    }

    // The full Intel-Sample pipeline on a mid-sized dataset.
    let rows = if smoke { 3_000 } else { 10_000 };
    let ds = Dataset::generate(DatasetSpec { rows, ..PROSPER }, 2);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    let mut seed = 0u64;
    let reps = if smoke { 1 } else { 5 };
    let ns = measure_ns_per_unit(rows as u64, reps, || {
        seed += 1;
        black_box(run_intel_sample_ctx(
            &ds,
            &cfg,
            seed,
            &ExecContext::sequential(),
        ));
    });
    let scenario = "intel_sample_prosper_10k";
    report.record(scenario, "sequential", ns, 1.0);
    println!("{scenario:<34} {ns:>12.0} ns/row  ({rows} rows)");

    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
