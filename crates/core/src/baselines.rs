//! The paper's machine-learning baselines, `Learning` and `Multiple`
//! (§6.2).
//!
//! Both evaluate a labelled seed, fit a semi-supervised classifier, and
//! answer with evaluated-true ∪ predicted-true tuples. Per the paper, they
//! receive an *unfair advantage*: "we choose the smallest number of tuples
//! to evaluate that lets us satisfy the precision and recall constraints"
//! — i.e. the training size is tuned against ground truth, and only the
//! winning configuration's cost is charged.
//!
//! Labelling runs through the audited [`UdfInvoker`] and the `expred-exec`
//! runtime (not a serial ground-truth loop): each grid step labels only
//! its *new* slice of the shuffled permutation as one executor batch, so
//! the cumulative bill at the winning step is exactly that step's
//! labelling cost — and inside a session, labels paid for by earlier
//! queries arrive as free reuse hits.

use crate::pipeline::{finish_outcome, RunOutcome};
use crate::query::QuerySpec;
use expred_exec::ExecContext;
use expred_ml::features::{extract_features_cached, FeatureSpec};
use expred_ml::logistic::TrainConfig;
use expred_ml::metrics::precision_recall;
use expred_ml::semisupervised::{
    learning_returned_set, multiple_imputations, self_train, SelfTrainConfig,
};
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, LABEL_COLUMN};
use expred_table::Table;
use expred_udf::{CostModel, UdfInvoker};
use std::time::Instant;

/// Training-set sizes to probe, as fractions of the table. The grid is
/// geometric-ish: the baselines' cost is the *smallest* feasible size, so
/// resolution matters more at the low end.
const SIZE_GRID: [f64; 12] = [
    0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.27, 0.40, 0.60, 0.80, 1.0,
];

/// Cheaper training settings for the repeated grid probes.
fn baseline_train_config() -> SelfTrainConfig {
    SelfTrainConfig {
        rounds: 2,
        confidence: 0.92,
        train: TrainConfig {
            epochs: 80,
            learning_rate: 1.0,
            l2: 1e-4,
            tolerance: 1e-6,
        },
    }
}

fn outcome_from(
    returned: Vec<usize>,
    labelled: &[usize],
    table: &Table,
    cost_model: &CostModel,
    invoker: &UdfInvoker<'_>,
    start: Instant,
    feasible: bool,
) -> RunOutcome {
    // Every returned-but-unevaluated row still has to be retrieved; the
    // evaluated seed was retrieved once already (charged by the labelling
    // batches).
    let seed: std::collections::HashSet<usize> = labelled.iter().copied().collect();
    let fresh_returns = returned.iter().filter(|r| !seed.contains(r)).count();
    invoker.charge_retrievals(fresh_returns as u64);
    let returned = returned.into_iter().map(|r| r as u32).collect();
    finish_outcome(start, table, returned, invoker, cost_model, 1, feasible)
}

/// Labels the permutation prefix `perm[..m]` through the runtime,
/// extending past steps' coverage (`labelled_so_far`) with one batch, and
/// returns the prefix's labels read back from the invoker's memo.
fn label_prefix(
    invoker: &UdfInvoker<'_>,
    perm: &[usize],
    m: usize,
    labelled_so_far: &mut usize,
    ctx: &ExecContext<'_>,
) -> Vec<bool> {
    if m > *labelled_so_far {
        invoker.retrieve_and_evaluate_batch(ctx.executor, &perm[*labelled_so_far..m]);
        *labelled_so_far = m;
    }
    perm[..m]
        .iter()
        .map(|&r| {
            invoker
                .memoized(r)
                .expect("labelled rows must be evaluated")
        })
        .collect()
}

/// The `Learning` baseline: self-training semi-supervised classification
/// with oracle-tuned minimal training size. Training labels are evaluated
/// through `ctx.executor` (and reused from the session cache, when
/// present).
pub fn run_learning_ctx(
    ds: &Dataset,
    spec: &QuerySpec,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> RunOutcome {
    let start = Instant::now();
    let table = &ds.table;
    let truth = crate::execute::truth_vector(table, LABEL_COLUMN);
    let features = extract_features_cached(
        table,
        &[LABEL_COLUMN, "row_id"],
        FeatureSpec::default(),
        ctx.derived,
    );
    let n = table.num_rows();
    let udf = crate::pipeline::label_udf(ctx);
    let invoker = UdfInvoker::with_context(udf.as_ref(), table, ctx);
    let mut rng = Prng::seeded(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let cfg = baseline_train_config();
    let mut labelled_so_far = 0usize;

    let mut last: Option<(Vec<usize>, usize)> = None;
    for frac in SIZE_GRID {
        let m = ((frac * n as f64).ceil() as usize).clamp(1, n);
        let labels = label_prefix(&invoker, &perm, m, &mut labelled_so_far, ctx);
        let labelled = &perm[..m];
        let outcome = self_train(&features, labelled, &labels, cfg);
        let returned = learning_returned_set(&outcome, labelled, &labels);
        if precision_recall(&returned, &truth).meets(spec.alpha, spec.beta) {
            return outcome_from(returned, labelled, table, &spec.cost, &invoker, start, true);
        }
        last = Some((returned, m));
    }
    // Even full evaluation of the grid's maximum failed (possible only for
    // extreme constraints); report the last attempt, flagged infeasible.
    let (returned, m) = last.expect("grid is nonempty");
    outcome_from(
        returned,
        &perm[..m],
        table,
        &spec.cost,
        &invoker,
        start,
        false,
    )
}

/// The `Multiple` baseline: multiple imputations from class probabilities;
/// the training size is the smallest whose constraints hold *on average
/// across the imputed datasets* (§6.2). Labelling runs as in
/// [`run_learning_ctx`].
pub fn run_multiple_ctx(
    ds: &Dataset,
    spec: &QuerySpec,
    imputations: usize,
    seed: u64,
    ctx: &ExecContext<'_>,
) -> RunOutcome {
    assert!(imputations >= 1);
    let start = Instant::now();
    let table = &ds.table;
    let truth = crate::execute::truth_vector(table, LABEL_COLUMN);
    let features = extract_features_cached(
        table,
        &[LABEL_COLUMN, "row_id"],
        FeatureSpec::default(),
        ctx.derived,
    );
    let n = table.num_rows();
    let udf = crate::pipeline::label_udf(ctx);
    let invoker = UdfInvoker::with_context(udf.as_ref(), table, ctx);
    let mut rng = Prng::seeded(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let cfg = baseline_train_config();
    let mut labelled_so_far = 0usize;

    let mut last: Option<(Vec<usize>, usize)> = None;
    for frac in SIZE_GRID {
        let m = ((frac * n as f64).ceil() as usize).clamp(1, n);
        let labels = label_prefix(&invoker, &perm, m, &mut labelled_so_far, ctx);
        let labelled = &perm[..m];
        let outcome = self_train(&features, labelled, &labels, cfg);
        // Average constraint satisfaction across imputed completions.
        let mut imp_rng = rng.fork(m as u64);
        let imps = multiple_imputations(&outcome, labelled, &labels, imputations, &mut imp_rng);
        let (mut p_acc, mut r_acc) = (0.0, 0.0);
        for imp in &imps {
            let returned: Vec<usize> = imp
                .iter()
                .enumerate()
                .filter(|(_, &keep)| keep)
                .map(|(r, _)| r)
                .collect();
            let s = precision_recall(&returned, &truth);
            p_acc += s.precision;
            r_acc += s.recall;
        }
        let mean_p = p_acc / imps.len() as f64;
        let mean_r = r_acc / imps.len() as f64;
        // The reported answer set: evaluated-true plus predicted-true.
        let returned = learning_returned_set(&outcome, labelled, &labels);
        if mean_p >= spec.alpha && mean_r >= spec.beta {
            return outcome_from(returned, labelled, table, &spec.cost, &invoker, start, true);
        }
        last = Some((returned, m));
    }
    let (returned, m) = last.expect("grid is nonempty");
    outcome_from(
        returned,
        &perm[..m],
        table,
        &spec.cost,
        &invoker,
        start,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};

    fn small_prosper() -> Dataset {
        // A shrunken Prosper keeps baseline tests fast in debug builds.
        let spec = DatasetSpec {
            rows: 4_000,
            ..PROSPER
        };
        Dataset::generate(spec, 31)
    }

    #[test]
    fn learning_meets_constraints_and_reports_cost() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let out = run_learning_ctx(&ds, &spec, 1, &ExecContext::sequential());
        assert!(out.plan_feasible, "learning should find a feasible size");
        assert!(out.summary.meets(spec.alpha, spec.beta));
        assert!(out.counts.evaluated > 0);
        assert!(out.counts.evaluated < ds.table.num_rows() as u64);
    }

    #[test]
    fn multiple_meets_constraints() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let out = run_multiple_ctx(&ds, &spec, 5, 2, &ExecContext::sequential());
        assert!(out.plan_feasible);
        assert!(out.counts.evaluated > 0);
    }

    #[test]
    fn looser_constraints_cost_no_more() {
        let ds = small_prosper();
        let tight = QuerySpec::paper_default();
        let loose = QuerySpec::new(0.5, 0.5, 0.8, CostModel::PAPER_DEFAULT);
        let c_tight = run_learning_ctx(&ds, &tight, 3, &ExecContext::sequential())
            .counts
            .evaluated;
        let c_loose = run_learning_ctx(&ds, &loose, 3, &ExecContext::sequential())
            .counts
            .evaluated;
        assert!(c_loose <= c_tight, "loose {c_loose} vs tight {c_tight}");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_prosper();
        let spec = QuerySpec::paper_default();
        let a = run_learning_ctx(&ds, &spec, 7, &ExecContext::sequential());
        let b = run_learning_ctx(&ds, &spec, 7, &ExecContext::sequential());
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.returned, b.returned);
    }
}
