//! The ML virtual column (§4.4 / §6.3.2): when no single column predicts
//! the UDF well, learn one.
//!
//! ```text
//! cargo run --release --example virtual_column
//! ```
//!
//! On the Bank-Marketing clone (the paper's hardest dataset: selectivity
//! 0.11), we label 1% of the tuples, train a logistic regressor, bucketize
//! its scores into a 10-valued *virtual* column, and compare the resulting
//! plan against the fixed real predictor.

use expred::cli::ExampleCli;
use expred::core::{run_intel_sample_ctx, truth_vector, IntelSampleConfig, PredictorChoice};
use expred::exec::ExecContext;
use expred::table::datasets::{Dataset, LABEL_COLUMN, MARKETING};

fn main() {
    ExampleCli::without_backend_flags(
        "virtual_column",
        "learn a virtual predictor column when no real column predicts the UDF",
    )
    .parse_backend();
    let ds = Dataset::generate(MARKETING, 99);
    println!(
        "dataset: {} ({} rows, selectivity {:.2})",
        ds.spec.name,
        ds.table.num_rows(),
        ds.group_stats(ds.predictor()).overall_selectivity
    );

    let fixed_cfg =
        IntelSampleConfig::experiment1(PredictorChoice::Fixed(ds.predictor().to_owned()));
    let virtual_cfg = IntelSampleConfig::experiment1(PredictorChoice::Virtual {
        buckets: 10,
        label_fraction: 0.01,
    });

    let fixed = run_intel_sample_ctx(&ds, &fixed_cfg, 5, &ExecContext::sequential());
    let virt = run_intel_sample_ctx(&ds, &virtual_cfg, 5, &ExecContext::sequential());

    println!(
        "\n{:<22} {:>12} {:>10} {:>10}",
        "predictor", "evaluations", "precision", "recall"
    );
    for (name, out) in [
        (format!("fixed ({})", ds.predictor()), &fixed),
        ("virtual (logistic)".to_owned(), &virt),
    ] {
        println!(
            "{:<22} {:>12} {:>10.3} {:>10.3}",
            name, out.counts.evaluated, out.summary.precision, out.summary.recall
        );
    }

    // Show what the virtual column looks like: per-bucket selectivity.
    // (Uses ground truth; evaluation-side illustration only.)
    let truth = truth_vector(&ds.table, LABEL_COLUMN);
    let udf = expred::udf::OracleUdf::new(LABEL_COLUMN);
    let invoker = expred::udf::UdfInvoker::new(&udf, &ds.table);
    let mut rng = expred::stats::Prng::seeded(5);
    let n = ds.table.num_rows();
    let labelled: Vec<u32> = rng
        .sample_indices(n, n / 100)
        .into_iter()
        .map(|r| {
            invoker.retrieve_and_evaluate(r);
            r as u32
        })
        .collect();
    let groups = expred::core::column_select::virtual_column(
        &ds.table,
        &[LABEL_COLUMN, "row_id"],
        &invoker,
        &labelled,
        10,
        &expred::exec::ExecContext::sequential(),
    );
    println!("\nvirtual-column buckets (score-ordered):");
    for (g, _, rows) in groups.iter() {
        let sel = rows.iter().filter(|&&r| truth[r as usize]).count() as f64 / rows.len() as f64;
        let bar = "#".repeat((sel * 40.0).round() as usize);
        println!(
            "bucket {g:>2}: {:>6} rows, selectivity {sel:>5.2} {bar}",
            rows.len()
        );
    }
}
