//! End-to-end query pipelines (paper §6.2's contestants).
//!
//! * [`run_intel_sample_ctx`] — the paper's main algorithm: choose a
//!   predictor column (fixed, auto-ranked, or an ML virtual column),
//!   sample to estimate selectivities, solve the convex program, execute.
//! * [`run_optimal_ctx`] — the unrealistic lower bound: exact
//!   selectivities handed to the §3.2 optimizer for free.
//! * [`run_naive_ctx`] — retrieve a random `β` fraction and evaluate all
//!   of it.
//!
//! Every pipeline runs against the audited [`UdfInvoker`], so reported
//! costs include sampling and predictor-selection evaluations, exactly as
//! §6.2 requires. Each takes one [`ExecContext`]; pass
//! [`ExecContext::sequential`] for the one-at-a-time, cache-less run.

use crate::column_select::{rank_columns_ctx, virtual_column};
use crate::execute::{execute_plan_ctx, truth_vector};
use crate::optimize::{solve_estimated, solve_perfect_selectivities, CorrelationModel};
use crate::plan::Plan;
use crate::query::QuerySpec;
use crate::sampling::{sample_groups_ctx, SampleSizeRule};
use expred_exec::ExecContext;
use expred_ml::metrics::{precision_recall, PrSummary};
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, LABEL_COLUMN};
use expred_table::{GroupBy, Table};
use expred_udf::{BooleanUdf, CostCounts, CostModel, OracleUdf, SlowUdf, UdfInvoker};
use std::sync::Arc;
use std::time::Instant;

/// The label oracle every pipeline evaluates, wrapped in the context's
/// artificial latency when one is set. Answers, audited counts, and
/// cache identities are unchanged — [`SlowUdf`] shares its inner UDF's
/// fingerprint — so a latency-injected session is byte-identical to a
/// plain one, only slower.
pub(crate) fn label_udf(ctx: &ExecContext<'_>) -> Box<dyn BooleanUdf> {
    match ctx.udf_latency {
        Some(latency) => Box::new(SlowUdf::new(OracleUdf::new(LABEL_COLUMN), latency)),
        None => Box::new(OracleUdf::new(LABEL_COLUMN)),
    }
}

/// Partitions `table` by `column`, serving the partition from the
/// context's session [`expred_table::DerivedCache`] when one is attached
/// (repeat queries over an unchanged table skip the re-group; `push_row`
/// bumps the version and forces a fresh derivation). Without a cache
/// this is exactly [`Table::group_by`] — the partition is byte-identical
/// either way.
pub(crate) fn session_group_by(
    table: &Table,
    column: &str,
    ctx: &ExecContext<'_>,
) -> Result<Arc<GroupBy>, String> {
    match ctx.derived {
        Some(cache) => cache.group_by(table, column),
        None => table.group_by(column).map(Arc::new),
    }
}

/// How the correlated column is obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorChoice {
    /// Use a named column as-is.
    Fixed(String),
    /// Rank all candidate columns on a labelled sample (§4.4 method 1).
    Auto {
        /// Fraction of the table to label for ranking (the paper uses 1%).
        label_fraction: f64,
    },
    /// Train a logistic regressor and bucketize its scores (§4.4 method 2).
    Virtual {
        /// Number of equal-depth buckets (the paper uses 10).
        buckets: usize,
        /// Fraction of the table to label for training (the paper uses 1%).
        label_fraction: f64,
    },
}

/// Intel-Sample configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IntelSampleConfig {
    /// Accuracy contract.
    pub spec: QuerySpec,
    /// Per-group sampling budget.
    pub rule: SampleSizeRule,
    /// Estimate-correlation model for the convex program.
    pub corr: CorrelationModel,
    /// Predictor column source.
    pub predictor: PredictorChoice,
}

impl IntelSampleConfig {
    /// The paper's Experiment-1 configuration for a given predictor:
    /// defaults `α=β=ρ=0.8`, independent-correlation convex program, 5%
    /// sample.
    pub fn experiment1(predictor: PredictorChoice) -> Self {
        Self {
            spec: QuerySpec::paper_default(),
            rule: SampleSizeRule::Fraction(0.05),
            corr: CorrelationModel::Independent,
            predictor,
        }
    }
}

/// The outcome of one pipeline run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Row ids returned as the query answer.
    pub returned: Vec<u32>,
    /// Audited action counts (retrievals, UDF evaluations, memo hits).
    pub counts: CostCounts,
    /// Total cost under the query's cost model.
    pub cost: f64,
    /// Quality versus ground truth (evaluation-side only).
    pub summary: PrSummary,
    /// Number of groups the plan was computed over.
    pub num_groups: usize,
    /// Wall-clock seconds spent outside UDF calls (planning, sampling
    /// bookkeeping, optimization) — the paper reports this is ≪ 1 s.
    pub compute_seconds: f64,
    /// False when the optimizer declared the constraints infeasible and
    /// the pipeline fell back to evaluating everything.
    pub plan_feasible: bool,
}

/// Runs the paper's Intel-Sample pipeline on a dataset.
///
/// For a fixed seed the outcome is byte-identical across backends: all
/// randomness is drawn on the calling thread before batches dispatch.
/// When the context carries a session cache store, one invoker — and
/// therefore one borrowed cache handle — serves predictor ranking,
/// sampling, *and* execution, and rows paid for by earlier queries in
/// the session arrive as free [`CostCounts::reuse_hits`].
pub fn run_intel_sample_ctx(
    ds: &Dataset,
    cfg: &IntelSampleConfig,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> RunOutcome {
    let start = Instant::now();
    let table = &ds.table;
    let udf = label_udf(ctx);
    let invoker = UdfInvoker::with_context(udf.as_ref(), table, ctx);
    let mut rng = Prng::seeded(seed);

    // Step 0: obtain the correlated (possibly virtual) grouping.
    let groups: Arc<GroupBy> = match &cfg.predictor {
        PredictorChoice::Fixed(col) => {
            session_group_by(table, col, ctx).expect("predictor column must exist")
        }
        PredictorChoice::Auto { label_fraction } => {
            let candidates = ds.candidate_columns();
            let (scores, _labelled) = rank_columns_ctx(
                table,
                &candidates,
                &invoker,
                &cfg.spec,
                *label_fraction,
                &mut rng,
                ctx,
            );
            let best = scores.first().expect("at least one candidate");
            session_group_by(table, &best.column, ctx).expect("ranked column must exist")
        }
        PredictorChoice::Virtual {
            buckets,
            label_fraction,
        } => {
            let n = table.num_rows();
            let want = ((label_fraction * n as f64).ceil() as usize).clamp(1, n);
            let batch = rng.sample_indices(n, want);
            invoker.retrieve_and_evaluate_batch(ctx.executor, &batch);
            let labelled: Vec<u32> = batch.into_iter().map(|r| r as u32).collect();
            Arc::new(virtual_column(
                table,
                &[LABEL_COLUMN, "row_id"],
                &invoker,
                &labelled,
                *buckets,
                ctx,
            ))
        }
    };

    // Step 1: sample for selectivity estimates (reuses labelled rows).
    let sample = sample_groups_ctx(&groups, &invoker, cfg.rule, &mut rng, ctx);
    let est_groups = sample.to_estimated_groups(&groups);

    // Step 2: optimize. Infeasibility falls back to evaluating everything
    // (always correct, never cheap).
    let (plan, plan_feasible) = match solve_estimated(&est_groups, &cfg.spec, cfg.corr) {
        Ok(plan) => (plan, true),
        Err(_) => (Plan::evaluate_all(groups.num_groups()), false),
    };

    // Step 3: execute.
    let result = execute_plan_ctx(&plan, &groups, &invoker, &mut rng, ctx);
    finish_outcome(
        start,
        table,
        result.returned,
        &invoker,
        &cfg.spec.cost,
        groups.num_groups(),
        plan_feasible,
    )
}

/// Runs the unrealistic `Optimal` baseline: exact selectivities are read
/// from ground truth for free, then the §3.2 optimizer plans and executes.
pub fn run_optimal_ctx(
    ds: &Dataset,
    spec: &QuerySpec,
    predictor: &str,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> RunOutcome {
    let start = Instant::now();
    let table = &ds.table;
    let udf = label_udf(ctx);
    let invoker = UdfInvoker::with_context(udf.as_ref(), table, ctx);
    let mut rng = Prng::seeded(seed);
    let groups = session_group_by(table, predictor, ctx).expect("predictor column");
    let truth = truth_vector(table, LABEL_COLUMN);

    let sizes: Vec<f64> = groups.sizes().iter().map(|&s| s as f64).collect();
    let sels: Vec<f64> = (0..groups.num_groups())
        .map(|g| {
            let rows = groups.rows(g);
            rows.iter().filter(|&&r| truth[r as usize]).count() as f64 / rows.len() as f64
        })
        .collect();
    let (plan, plan_feasible) = match solve_perfect_selectivities(&sizes, &sels, spec) {
        Ok(plan) => (plan, true),
        Err(_) => (Plan::evaluate_all(groups.num_groups()), false),
    };
    let result = execute_plan_ctx(&plan, &groups, &invoker, &mut rng, ctx);
    finish_outcome(
        start,
        table,
        result.returned,
        &invoker,
        &spec.cost,
        groups.num_groups(),
        plan_feasible,
    )
}

/// Runs the `Naive` baseline: retrieve a uniform `β` fraction of the table
/// and evaluate every retrieved tuple (§6.2).
pub fn run_naive_ctx(
    ds: &Dataset,
    spec: &QuerySpec,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> RunOutcome {
    let start = Instant::now();
    let table = &ds.table;
    let udf = label_udf(ctx);
    let invoker = UdfInvoker::with_context(udf.as_ref(), table, ctx);
    let mut rng = Prng::seeded(seed);
    let n = table.num_rows();
    let k = ((spec.beta * n as f64).ceil() as usize).min(n);
    let batch = rng.sample_indices(n, k);
    let answers = invoker.retrieve_and_evaluate_batch(ctx.executor, &batch);
    let mut returned: Vec<u32> = batch
        .into_iter()
        .zip(answers)
        .filter(|&(_, answer)| answer)
        .map(|(row, _)| row as u32)
        .collect();
    returned.sort_unstable();
    finish_outcome(start, table, returned, &invoker, &spec.cost, 1, true)
}

/// The tail every pipeline shares: stamps the compute time since
/// `start`, scores `returned` against the hidden label column, and reads
/// the invoker's audited bill under `cost`.
pub(crate) fn finish_outcome(
    start: Instant,
    table: &Table,
    returned: Vec<u32>,
    invoker: &UdfInvoker<'_>,
    cost: &CostModel,
    num_groups: usize,
    plan_feasible: bool,
) -> RunOutcome {
    let compute_seconds = start.elapsed().as_secs_f64();
    let truth = truth_vector(table, LABEL_COLUMN);
    let returned_usize: Vec<usize> = returned.iter().map(|&r| r as usize).collect();
    let summary = precision_recall(&returned_usize, &truth);
    let counts = invoker.counts();
    RunOutcome {
        returned,
        counts,
        cost: counts.cost(cost),
        summary,
        num_groups,
        compute_seconds,
        plan_feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::datasets::{Dataset, PROSPER};

    fn prosper() -> Dataset {
        Dataset::generate(PROSPER, 21)
    }

    #[test]
    fn naive_meets_recall_in_expectation_with_perfect_precision() {
        let ds = prosper();
        let spec = QuerySpec::paper_default();
        let out = run_naive_ctx(&ds, &spec, 1, &ExecContext::sequential());
        assert_eq!(out.summary.precision, 1.0);
        assert!(
            (out.summary.recall - 0.8).abs() < 0.03,
            "{}",
            out.summary.recall
        );
        assert_eq!(
            out.counts.evaluated as usize,
            (0.8f64 * 30_000.0).ceil() as usize
        );
    }

    #[test]
    fn intel_sample_fixed_predictor_beats_naive() {
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let intel = run_intel_sample_ctx(&ds, &cfg, 2, &ExecContext::sequential());
        let naive = run_naive_ctx(&ds, &cfg.spec, 2, &ExecContext::sequential());
        assert!(intel.plan_feasible, "plan must be feasible on Prosper");
        assert!(
            intel.counts.evaluated < naive.counts.evaluated,
            "intel {} vs naive {}",
            intel.counts.evaluated,
            naive.counts.evaluated
        );
    }

    #[test]
    fn intel_sample_respects_constraints_typically() {
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let mut ok = 0;
        let runs = 10;
        for seed in 0..runs {
            let out = run_intel_sample_ctx(&ds, &cfg, 100 + seed, &ExecContext::sequential());
            if out.summary.meets(cfg.spec.alpha, cfg.spec.beta) {
                ok += 1;
            }
        }
        // rho = 0.8: at least 8/10 in expectation; allow one slip.
        assert!(ok >= 7, "constraints met only {ok}/{runs} times");
    }

    #[test]
    fn optimal_is_cheapest() {
        let ds = prosper();
        let spec = QuerySpec::paper_default();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let optimal = run_optimal_ctx(&ds, &spec, "grade", 3, &ExecContext::sequential());
        let intel = run_intel_sample_ctx(&ds, &cfg, 3, &ExecContext::sequential());
        assert!(optimal.plan_feasible);
        assert!(
            optimal.counts.evaluated <= intel.counts.evaluated,
            "optimal {} vs intel {}",
            optimal.counts.evaluated,
            intel.counts.evaluated
        );
    }

    #[test]
    fn auto_predictor_runs_and_is_competitive() {
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Auto {
            label_fraction: 0.01,
        });
        let auto = run_intel_sample_ctx(&ds, &cfg, 4, &ExecContext::sequential());
        let naive = run_naive_ctx(&ds, &cfg.spec, 4, &ExecContext::sequential());
        assert!(auto.counts.evaluated < naive.counts.evaluated);
    }

    #[test]
    fn virtual_predictor_runs() {
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Virtual {
            buckets: 10,
            label_fraction: 0.01,
        });
        let out = run_intel_sample_ctx(&ds, &cfg, 5, &ExecContext::sequential());
        assert!(out.num_groups >= 5);
        let naive = run_naive_ctx(&ds, &cfg.spec, 5, &ExecContext::sequential());
        assert!(out.counts.evaluated < naive.counts.evaluated);
    }

    #[test]
    fn compute_time_is_sub_second() {
        let ds = prosper();
        let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
        let out = run_intel_sample_ctx(&ds, &cfg, 6, &ExecContext::sequential());
        // Debug builds are slow; the paper's <1s claim is checked in the
        // release-mode experiment harness. Here: just sanity.
        assert!(out.compute_seconds < 30.0);
    }
}
