//! Finding a correlated column (paper §4.4).
//!
//! Both published methods:
//!
//! 1. **Real column ranking**: evaluate a small labelled sample (~1%),
//!    estimate per-value selectivities for every candidate column with at
//!    most `√t` distinct values (sampling more if no column qualifies),
//!    cost each candidate by running the §3.2 optimizer on the estimates,
//!    and pick the cheapest.
//! 2. **Virtual column**: train a logistic regressor on the labelled
//!    sample, score every tuple, and split the scores into equal-depth
//!    buckets; the bucket id is the correlated column (§6.3.2).

use crate::optimize::solve_perfect_selectivities;
use crate::pipeline::session_group_by;
use crate::query::QuerySpec;
use expred_exec::ExecContext;
use expred_ml::features::{extract_features_cached, FeatureSpec};
use expred_ml::logistic::{train, TrainConfig};
use expred_stats::estimator::SelectivityEstimate;
use expred_stats::histogram::bucketize;
use expred_stats::rng::Prng;
use expred_table::{GroupBy, Table};
use expred_udf::UdfInvoker;

/// Ranked candidate column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnScore {
    /// Column name.
    pub column: String,
    /// Estimated plan cost using the sampled selectivities (lower is
    /// better); infinite when no feasible plan exists under the estimates.
    pub estimated_cost: f64,
    /// Number of distinct values observed for the column.
    pub distinct_values: usize,
}

/// Evaluates a labelled sample and ranks `candidates` by estimated plan
/// cost (method 1). Returns the ranking (best first) plus the labelled
/// rows, which callers re-use for selectivity estimation and output.
///
/// `label_fraction` is the initial sample size as a fraction of the table
/// (the paper uses 1%); if no candidate has ≤ √t distinct values the
/// sample is doubled, up to `max_rounds` times.
#[allow(clippy::too_many_arguments)]
pub fn rank_columns_ctx(
    table: &Table,
    candidates: &[String],
    invoker: &UdfInvoker<'_>,
    spec: &QuerySpec,
    label_fraction: f64,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> (Vec<ColumnScore>, Vec<u32>) {
    assert!(!candidates.is_empty(), "need at least one candidate column");
    let n = table.num_rows();
    let max_rounds = 4;
    let mut target = ((label_fraction * n as f64).ceil() as usize).clamp(1, n);
    let mut labelled: Vec<u32> = Vec::new();

    for round in 0..max_rounds {
        // Grow the labelled sample to the current target.
        let missing = target.saturating_sub(labelled.len());
        if missing > 0 {
            let unlabelled: Vec<u32> = (0..n as u32)
                .filter(|&r| !invoker.is_evaluated(r as usize))
                .collect();
            let batch: Vec<usize> = rng
                .sample_indices(unlabelled.len(), missing)
                .into_iter()
                .map(|idx| unlabelled[idx] as usize)
                .collect();
            invoker.retrieve_and_evaluate_batch(ctx.executor, &batch);
            labelled.extend(batch.into_iter().map(|row| row as u32));
        }
        let limit = (labelled.len() as f64).sqrt().ceil() as usize;
        // Eligibility reads the memoized per-column stats: the distinct
        // count is computed once per (column, version), not re-scanned on
        // every ranking round.
        let eligible: Vec<&String> = candidates
            .iter()
            .filter(|c| {
                table
                    .column_stats(c)
                    .map(|stats| stats.distinct_count <= limit.max(2))
                    .unwrap_or(false)
            })
            .collect();
        if eligible.is_empty() && round + 1 < max_rounds {
            target = (target * 2).min(n);
            continue;
        }
        let pool = if eligible.is_empty() {
            candidates.iter().collect::<Vec<_>>()
        } else {
            eligible
        };
        let mut scores: Vec<ColumnScore> = pool
            .into_iter()
            .map(|c| score_column(table, c, invoker, spec, &labelled, ctx))
            .collect();
        scores.sort_by(|a, b| {
            a.estimated_cost
                .partial_cmp(&b.estimated_cost)
                .unwrap()
                .then(a.column.cmp(&b.column))
        });
        return (scores, labelled);
    }
    unreachable!("loop always returns by the final round");
}

/// Scores one column: group the table by it, estimate each group's
/// selectivity from the labelled rows (Beta posterior; unseen groups fall
/// back to the uniform prior), and cost the §3.2 plan on those estimates.
fn score_column(
    table: &Table,
    column: &str,
    invoker: &UdfInvoker<'_>,
    spec: &QuerySpec,
    labelled: &[u32],
    ctx: &ExecContext<'_>,
) -> ColumnScore {
    let groups = session_group_by(table, column, ctx).expect("candidate column must exist");
    let row_to_group = groups.group_of_rows();
    let mut pos = vec![0u64; groups.num_groups()];
    let mut tot = vec![0u64; groups.num_groups()];
    for &row in labelled {
        let g = row_to_group[row as usize];
        tot[g] += 1;
        if invoker.memoized(row as usize) == Some(true) {
            pos[g] += 1;
        }
    }
    let sizes: Vec<f64> = groups.sizes().iter().map(|&s| s as f64).collect();
    let sels: Vec<f64> = pos
        .iter()
        .zip(&tot)
        .map(|(&p, &t)| SelectivityEstimate::from_sample(p, t).mean())
        .collect();
    let estimated_cost = match solve_perfect_selectivities(&sizes, &sels, spec) {
        Ok(plan) => plan.expected_cost(&sizes, &spec.cost),
        Err(_) => f64::INFINITY,
    };
    ColumnScore {
        column: column.to_owned(),
        estimated_cost,
        distinct_values: groups.num_groups(),
    }
}

/// Builds the §6.3.2 virtual column (method 2): train a logistic
/// regressor on the labelled rows, score all tuples, and bucketize the
/// scores into `buckets` equal-depth groups.
///
/// `exclude` must contain at least the hidden label column; the paper also
/// excludes identifiers.
pub fn virtual_column(
    table: &Table,
    exclude: &[&str],
    invoker: &UdfInvoker<'_>,
    labelled: &[u32],
    buckets: usize,
    ctx: &ExecContext<'_>,
) -> GroupBy {
    assert!(!labelled.is_empty(), "virtual column needs labelled rows");
    let features = extract_features_cached(table, exclude, FeatureSpec::default(), ctx.derived);
    let rows: Vec<usize> = labelled.iter().map(|&r| r as usize).collect();
    let labels: Vec<bool> = rows
        .iter()
        .map(|&r| {
            invoker
                .memoized(r)
                .expect("labelled rows must be evaluated")
        })
        .collect();
    let model = train(&features, &rows, &labels, TrainConfig::default());
    let scores = model.predict_all(&features);
    let assignments = bucketize(&scores, buckets);
    GroupBy::from_assignments("virtual:logistic", &assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::datasets::{Dataset, LABEL_COLUMN, PROSPER};
    use expred_udf::OracleUdf;

    #[test]
    fn designated_predictor_wins_on_synthetic_data() {
        let ds = Dataset::generate(PROSPER, 11);
        let udf = OracleUdf::new(LABEL_COLUMN);
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let spec = QuerySpec::paper_default();
        let mut rng = Prng::seeded(11);
        let candidates = ds.candidate_columns();
        let (scores, labelled) = rank_columns_ctx(
            &ds.table,
            &candidates,
            &invoker,
            &spec,
            0.01,
            &mut rng,
            &ExecContext::sequential(),
        );
        assert!(!scores.is_empty());
        assert_eq!(labelled.len(), 300); // 1% of 30k
                                         // The designated predictor ("grade") or its high-fidelity noisy
                                         // copy should rank at or near the top.
        let top3: Vec<&str> = scores.iter().take(3).map(|s| s.column.as_str()).collect();
        assert!(
            top3.contains(&"grade") || top3.contains(&"sub_grade"),
            "top3 = {top3:?}"
        );
        // Noise columns must rank worse than the winner.
        let winner_cost = scores[0].estimated_cost;
        let weekday = scores.iter().find(|s| s.column == "weekday").unwrap();
        assert!(weekday.estimated_cost > winner_cost);
    }

    #[test]
    fn ranking_costs_are_monotone() {
        let ds = Dataset::generate(PROSPER, 12);
        let udf = OracleUdf::new(LABEL_COLUMN);
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let spec = QuerySpec::paper_default();
        let mut rng = Prng::seeded(12);
        let (scores, _) = rank_columns_ctx(
            &ds.table,
            &ds.candidate_columns(),
            &invoker,
            &spec,
            0.01,
            &mut rng,
            &ExecContext::sequential(),
        );
        for w in scores.windows(2) {
            assert!(w[0].estimated_cost <= w[1].estimated_cost);
        }
    }

    #[test]
    fn labelling_cost_is_charged() {
        let ds = Dataset::generate(PROSPER, 13);
        let udf = OracleUdf::new(LABEL_COLUMN);
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let spec = QuerySpec::paper_default();
        let mut rng = Prng::seeded(13);
        let (_, labelled) = rank_columns_ctx(
            &ds.table,
            &ds.candidate_columns(),
            &invoker,
            &spec,
            0.01,
            &mut rng,
            &ExecContext::sequential(),
        );
        assert_eq!(invoker.counts().evaluated as usize, labelled.len());
    }

    #[test]
    fn virtual_column_buckets_order_by_selectivity() {
        let ds = Dataset::generate(PROSPER, 14);
        let udf = OracleUdf::new(LABEL_COLUMN);
        let invoker = UdfInvoker::new(&udf, &ds.table);
        let mut rng = Prng::seeded(14);
        // Label 2% of rows.
        let n = ds.table.num_rows();
        let labelled: Vec<u32> = rng
            .sample_indices(n, n / 50)
            .into_iter()
            .map(|r| {
                invoker.retrieve_and_evaluate(r);
                r as u32
            })
            .collect();
        let groups = virtual_column(
            &ds.table,
            &[LABEL_COLUMN, "row_id"],
            &invoker,
            &labelled,
            10,
            &ExecContext::sequential(),
        );
        assert!(
            groups.num_groups() >= 5,
            "got {} buckets",
            groups.num_groups()
        );
        assert_eq!(groups.num_rows(), n);
        // Bucket selectivity (vs ground truth) should increase with the
        // bucket id: the regressor's score orders tuples by likelihood.
        let truth = crate::execute::truth_vector(&ds.table, LABEL_COLUMN);
        let sels: Vec<f64> = (0..groups.num_groups())
            .map(|g| {
                let rows = groups.rows(g);
                rows.iter().filter(|&&r| truth[r as usize]).count() as f64 / rows.len() as f64
            })
            .collect();
        let first = sels.first().copied().unwrap();
        let last = sels.last().copied().unwrap();
        assert!(
            last > first + 0.2,
            "virtual buckets must separate classes: {sels:?}"
        );
    }
}
