//! Probabilistic-executor throughput: tuples processed per second for
//! deterministic and fractional plans, with and without memoized samples.
//!
//! ```text
//! cargo bench --bench executor_bench            # full run
//! cargo bench --bench executor_bench -- --smoke # CI: compile-and-run proof
//! ```
//!
//! Results land in `BENCH_executor.json`: one `execute_plan_<plan>` row
//! per plan shape (ns per table row, sequential backend, free oracle
//! probes — this measures the executor's own bookkeeping, not UDF cost).

use expred_bench::{report::measure_ns_per_unit, BenchReport};
use expred_core::execute::execute_plan_ctx;
use expred_core::plan::Plan;
use expred_exec::ExecContext;
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, DatasetSpec, LENDING_CLUB};
use expred_udf::{OracleUdf, UdfInvoker};
use std::hint::black_box;

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = BenchReport::new("executor");
    println!(
        "executor_bench ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let rows = if smoke { 10_000 } else { 50_000 };
    let ds = Dataset::generate(
        DatasetSpec {
            rows,
            ..LENDING_CLUB
        },
        3,
    );
    let groups = ds.table.group_by("grade").unwrap();
    let k = groups.num_groups();
    let udf = OracleUdf::new(expred_table::datasets::LABEL_COLUMN);
    let reps = if smoke { 3 } else { 20 };

    let plans = [
        ("evaluate_all", Plan::evaluate_all(k)),
        ("discard_all", Plan::discard_all(k)),
        ("fractional", Plan::new(vec![0.7; k], vec![0.35; k])),
    ];
    for (name, plan) in &plans {
        let mut seed = 0u64;
        let ns = measure_ns_per_unit(rows as u64, reps, || {
            seed += 1;
            // Fresh invoker per iteration so memoization does not warp
            // the measurement.
            let invoker = UdfInvoker::new(&udf, &ds.table);
            let mut rng = Prng::seeded(seed);
            black_box(execute_plan_ctx(
                plan,
                &groups,
                &invoker,
                &mut rng,
                &ExecContext::sequential(),
            ));
        });
        let scenario = format!("execute_plan_{name}");
        report.record(&scenario, "sequential", ns, 1.0);
        println!("{scenario:<30} {ns:>8.1} ns/row");
    }

    // With a warm memo covering 10% of rows (the sampling-reuse path).
    let plan = Plan::new(vec![0.7; k], vec![0.35; k]);
    let mut seed = 0u64;
    let ns = measure_ns_per_unit(rows as u64, reps, || {
        seed += 1;
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let mut rng = Prng::seeded(seed);
        for r in 0..rows / 10 {
            invoker.retrieve_and_evaluate(r * 10);
        }
        black_box(execute_plan_ctx(
            &plan,
            &groups,
            &invoker,
            &mut rng,
            &ExecContext::sequential(),
        ));
    });
    let scenario = "execute_plan_fractional_with_memo";
    report.record(scenario, "sequential", ns, 1.0);
    println!("{scenario:<30} {ns:>8.1} ns/row");

    match report.write() {
        Ok(path) => println!("results written to {}", path.display()),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
