//! Joint estimation & exploitation: the sampling side (paper §4).
//!
//! * [`SampleSizeRule`] — how many tuples to sample per group: a fixed
//!   fraction (Experiment 1 uses 5%), a constant per group (§6.3's
//!   `Constant(c)` scheme), or the paper's rule of thumb
//!   `F_a = num · t_a · n^{-1/3}` (§4.3, the `Two-Third-Power` scheme).
//! * [`sample_groups_ctx`] — draws and evaluates the sample through the
//!   audited invoker (sampling cost is *included* in the algorithm's cost,
//!   §6.2), reusing any tuples that were already evaluated (e.g. the 1%
//!   used for predictor selection — "the 1% labelled tuples can be re-used
//!   for both selectivity estimation and as part of the output", §4.4).
//! * [`adaptive_num_search_ctx`] — §4.3's adaptive scheme: grow `num`, re-plan,
//!   and stop when the estimated total cost starts rising.

use crate::optimize::{solve_estimated, CorrelationModel, EstimatedGroup};
use crate::query::QuerySpec;
use expred_exec::ExecContext;
use expred_stats::estimator::SelectivityEstimate;
use expred_stats::rng::Prng;
use expred_table::GroupBy;
use expred_udf::UdfInvoker;

/// How many tuples to sample from each group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleSizeRule {
    /// Sample `fraction · t_a` tuples from each group (so `fraction` of
    /// the whole table).
    Fraction(f64),
    /// Sample a constant number of tuples per group.
    Constant(usize),
    /// The paper's rule of thumb: `F_a = num · t_a · n^{-1/3}`.
    TwoThirdPower(f64),
}

impl SampleSizeRule {
    /// Target sample size for a group of `t_a` tuples in a table of `n`.
    pub fn sample_size(&self, group_size: usize, total_rows: usize) -> usize {
        let t = group_size as f64;
        let raw = match self {
            SampleSizeRule::Fraction(f) => f * t,
            SampleSizeRule::Constant(c) => *c as f64,
            SampleSizeRule::TwoThirdPower(num) => num * t * (total_rows as f64).powf(-1.0 / 3.0),
        };
        (raw.round().max(0.0) as usize).min(group_size)
    }
}

/// The outcome of sampling one grouping.
#[derive(Debug, Clone)]
pub struct GroupSample {
    /// Per-group selectivity estimates (Beta posterior over the evaluated
    /// tuples, §4.1).
    pub estimates: Vec<SelectivityEstimate>,
    /// Per-group count of evaluated tuples (`F_a`), including re-used ones.
    pub evaluated: Vec<u64>,
    /// Per-group count of evaluated tuples that satisfied the predicate
    /// (`F⁺_a`).
    pub positives: Vec<u64>,
}

impl GroupSample {
    /// Converts the sample into the optimizer's input, attaching group
    /// sizes from the grouping.
    pub fn to_estimated_groups(&self, groups: &GroupBy) -> Vec<EstimatedGroup> {
        (0..groups.num_groups())
            .map(|g| EstimatedGroup {
                size: groups.size(g) as f64,
                sampled: self.evaluated[g] as f64,
                sampled_positive: self.positives[g] as f64,
                sel: self.estimates[g].mean(),
                var: self.estimates[g].variance(),
            })
            .collect()
    }
}

/// Samples every group per `rule`, evaluating through `invoker`.
///
/// Already-evaluated rows (from predictor selection or earlier sampling
/// rounds) count toward the target for free; only the shortfall incurs
/// retrieval + evaluation cost. Estimates are Beta posteriors over *all*
/// evaluated rows of the group.
///
/// Row selection consumes the RNG identically on every backend, and
/// every batched row is fresh and distinct, so estimates, counts, and
/// charged costs are byte-identical across backends for a fixed seed.
/// Rows known to the invoker — sampled earlier in this query *or*
/// evaluated by a previous query sharing the session cache — count toward
/// the target for free.
pub fn sample_groups_ctx(
    groups: &GroupBy,
    invoker: &UdfInvoker<'_>,
    rule: SampleSizeRule,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> GroupSample {
    let n = groups.num_rows();
    let mut estimates = Vec::with_capacity(groups.num_groups());
    let mut evaluated = Vec::with_capacity(groups.num_groups());
    let mut positives = Vec::with_capacity(groups.num_groups());
    for (g, _, rows) in groups.iter() {
        let target = rule.sample_size(groups.size(g), n);
        // Free information first: rows already evaluated.
        let mut known: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|&r| invoker.is_evaluated(r as usize))
            .collect();
        if known.len() < target {
            // Pay for the shortfall with fresh random rows.
            let fresh: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|&r| !invoker.is_evaluated(r as usize))
                .collect();
            let need = target - known.len();
            let batch: Vec<usize> = rng
                .sample_indices(fresh.len(), need)
                .into_iter()
                .map(|idx| fresh[idx] as usize)
                .collect();
            invoker.retrieve_and_evaluate_batch(ctx.executor, &batch);
            known.extend(batch.into_iter().map(|row| row as u32));
        }
        let pos = known
            .iter()
            .filter(|&&r| invoker.memoized(r as usize) == Some(true))
            .count() as u64;
        let total = known.len() as u64;
        estimates.push(SelectivityEstimate::from_sample(pos, total));
        evaluated.push(total);
        positives.push(pos);
    }
    GroupSample {
        estimates,
        evaluated,
        positives,
    }
}

/// Result of the adaptive `num` search (§4.3).
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The sample state at the stopping point.
    pub sample: GroupSample,
    /// The `num` value the search stopped at.
    pub num: f64,
    /// Estimated total cost (sampling already spent + planned remainder)
    /// at the stopping point.
    pub estimated_cost: f64,
}

/// §4.3's adaptive scheme: start from a small `num`, keep enlarging the
/// sample and re-solving ConvexProg 4.1; stop when the estimated total
/// cost (sampling spent so far + planned execution) rises for two
/// consecutive steps, returning the best state seen.
pub fn adaptive_num_search_ctx(
    groups: &GroupBy,
    invoker: &UdfInvoker<'_>,
    spec: &QuerySpec,
    corr: CorrelationModel,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> AdaptiveOutcome {
    let mut num = 0.5 * spec.alpha.max(0.1);
    let growth = 1.4;
    let max_steps = 16;
    let mut best: Option<AdaptiveOutcome> = None;
    let mut rises = 0;
    for _ in 0..max_steps {
        let sample = sample_groups_ctx(
            groups,
            invoker,
            SampleSizeRule::TwoThirdPower(num),
            rng,
            ctx,
        );
        let est_groups = sample.to_estimated_groups(groups);
        let spent = invoker.cost(&spec.cost);
        let planned = match solve_estimated(&est_groups, spec, corr) {
            Ok(plan) => {
                let sizes: Vec<f64> = est_groups.iter().map(|g| g.remaining()).collect();
                plan.expected_cost(&sizes, &spec.cost)
            }
            Err(_) => f64::INFINITY,
        };
        let total = spent + planned;
        let improved = best.as_ref().is_none_or(|b| total < b.estimated_cost);
        if improved {
            best = Some(AdaptiveOutcome {
                sample,
                num,
                estimated_cost: total,
            });
            rises = 0;
        } else {
            rises += 1;
            if rises >= 2 {
                break;
            }
        }
        num *= growth;
    }
    best.expect("at least one adaptive step always runs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::{DataType, Field, Schema, Table, Value};
    use expred_udf::{CostModel, OracleUdf};

    /// A 3-group table: group g has 40 rows, selectivity g * 0.3 + 0.1.
    fn test_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("label", DataType::Bool),
        ]);
        let mut rows = Vec::new();
        for g in 0..3i64 {
            let sel = g as f64 * 0.3 + 0.1;
            for i in 0..40 {
                let label = (i as f64) < sel * 40.0;
                rows.push(vec![Value::Int(g), Value::Bool(label)]);
            }
        }
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn rule_sizes() {
        assert_eq!(SampleSizeRule::Fraction(0.05).sample_size(1000, 10_000), 50);
        assert_eq!(SampleSizeRule::Constant(30).sample_size(1000, 10_000), 30);
        assert_eq!(SampleSizeRule::Constant(30).sample_size(10, 10_000), 10);
        // Two-third power: num * t * n^{-1/3} = 2 * 1000 * 0.046.. ≈ 93.
        let s = SampleSizeRule::TwoThirdPower(2.0).sample_size(1000, 10_000);
        assert!((90..=96).contains(&s), "{s}");
    }

    #[test]
    fn sampling_charges_and_estimates() {
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let mut rng = Prng::seeded(5);
        let sample = sample_groups_ctx(
            &groups,
            &invoker,
            SampleSizeRule::Constant(20),
            &mut rng,
            &ExecContext::sequential(),
        );
        assert_eq!(sample.evaluated, vec![20, 20, 20]);
        let counts = invoker.counts();
        assert_eq!(counts.evaluated, 60);
        assert_eq!(counts.retrieved, 60);
        // Estimates should be ordered like the true selectivities.
        assert!(sample.estimates[0].mean() < sample.estimates[1].mean());
        assert!(sample.estimates[1].mean() < sample.estimates[2].mean());
    }

    #[test]
    fn sampling_reuses_free_labels() {
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        // Pre-evaluate 10 rows of group 0 (rows 0..10).
        for r in 0..10 {
            invoker.retrieve_and_evaluate(r);
        }
        let before = invoker.counts().evaluated;
        let mut rng = Prng::seeded(6);
        let sample = sample_groups_ctx(
            &groups,
            &invoker,
            SampleSizeRule::Constant(10),
            &mut rng,
            &ExecContext::sequential(),
        );
        // Group 0's target of 10 is fully covered by reuse.
        assert_eq!(invoker.counts().evaluated, before + 20);
        assert_eq!(sample.evaluated[0], 10);
    }

    #[test]
    fn estimates_follow_beta_posterior() {
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let mut rng = Prng::seeded(7);
        let sample = sample_groups_ctx(
            &groups,
            &invoker,
            SampleSizeRule::Fraction(1.0),
            &mut rng,
            &ExecContext::sequential(),
        );
        // Full sampling: estimates are posteriors over the whole group.
        for g in 0..3 {
            let pos = sample.positives[g];
            let n = sample.evaluated[g];
            assert_eq!(n, 40);
            let want = (pos as f64 + 1.0) / (n as f64 + 2.0);
            assert!((sample.estimates[g].mean() - want).abs() < 1e-12);
        }
    }

    #[test]
    fn to_estimated_groups_shapes() {
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let mut rng = Prng::seeded(8);
        let sample = sample_groups_ctx(
            &groups,
            &invoker,
            SampleSizeRule::Constant(5),
            &mut rng,
            &ExecContext::sequential(),
        );
        let est = sample.to_estimated_groups(&groups);
        assert_eq!(est.len(), 3);
        for g in &est {
            assert_eq!(g.size, 40.0);
            assert_eq!(g.sampled, 5.0);
            assert_eq!(g.remaining(), 35.0);
        }
    }

    #[test]
    fn adaptive_search_terminates_with_finite_cost() {
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let spec = QuerySpec::new(0.5, 0.5, 0.5, CostModel::PAPER_DEFAULT);
        let mut rng = Prng::seeded(9);
        let outcome = adaptive_num_search_ctx(
            &groups,
            &invoker,
            &spec,
            CorrelationModel::Independent,
            &mut rng,
            &ExecContext::sequential(),
        );
        assert!(outcome.estimated_cost.is_finite());
        assert!(outcome.num > 0.0);
    }
}
