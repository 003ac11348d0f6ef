//! Probabilistic plan execution (paper §3.2, "Execution").
//!
//! Given a plan `(R_a, E_a)` and a grouping, each tuple of group `a` is
//! retrieved with probability `R_a` independently; a retrieved tuple is
//! evaluated with conditional probability `E_a / R_a` (so the
//! unconditional evaluation probability is exactly `E_a`). Evaluated
//! tuples enter the answer iff the UDF passes; retrieved-but-unevaluated
//! tuples enter unconditionally.
//!
//! Tuples that were already evaluated during sampling bypass the plan:
//! positives join the answer for free, negatives are dropped — §4.2's
//! "those that are correct … can be simply returned as part of the query
//! result without re-evaluating them".

use crate::plan::Plan;
use expred_exec::ExecContext;
use expred_stats::rng::Prng;
use expred_table::GroupBy;
use expred_udf::UdfInvoker;

/// The rows a query execution returned (cost lives in the invoker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionResult {
    /// Row ids in the answer, ascending.
    pub returned: Vec<u32>,
    /// How many answer rows came from reused sampled positives.
    pub reused_positives: usize,
}

/// Executes `plan` over `groups`, charging all retrievals/evaluations to
/// `invoker` and reusing its memoized answers. Cross-query caching is the
/// invoker's concern — build it with [`UdfInvoker::with_context`] and
/// already-known rows (from sampling or from earlier queries in the
/// session) bypass the plan for free.
///
/// The random decisions (retrieve? evaluate?) are drawn on the calling
/// thread in group order, and only then are the chosen rows drained
/// through `ctx.executor` by the context's [`ExecContext::planner`]:
/// ordered by correlation group, in slices of at most `ctx.max_in_flight`
/// rows (a slice may span a group boundary). The result is therefore
/// byte-identical across backends and budgets for a fixed seed; only
/// wall-clock time changes.
pub fn execute_plan_ctx(
    plan: &Plan,
    groups: &GroupBy,
    invoker: &UdfInvoker<'_>,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> ExecutionResult {
    assert_eq!(
        plan.num_groups(),
        groups.num_groups(),
        "plan and grouping must agree on group count"
    );
    let mut planner = ctx.planner();
    let mut returned = Vec::new();
    let mut reused_positives = 0;
    for (g, _, rows) in groups.iter() {
        let r = plan.r()[g];
        let e = plan.e()[g];
        let eval_given_retrieved = if r > 0.0 { (e / r).min(1.0) } else { 0.0 };
        for &row in rows {
            // Sampled tuples are already decided.
            if let Some(answer) = invoker.memoized(row as usize) {
                if answer {
                    returned.push(row);
                    reused_positives += 1;
                }
                continue;
            }
            if r <= 0.0 || !rng.bernoulli(r) {
                continue;
            }
            invoker.charge_retrievals(1);
            if eval_given_retrieved > 0.0 && rng.bernoulli(eval_given_retrieved) {
                planner.enqueue(g, row as usize);
            } else {
                returned.push(row);
            }
        }
    }
    // Every queued row is fresh (the memoized branch above skipped the
    // rest) and distinct (groups partition rows), so the audited batch
    // charges exactly one evaluation per row — the same bill the serial
    // loop paid. Drain through the invoker, never the raw probe: the
    // invoker is what memoizes the answers and charges the tracker.
    let answers = planner.drain_with(&mut |rows| invoker.evaluate_batch(ctx.executor, rows));
    returned.extend(answers.iter().filter(|a| a.answer).map(|a| a.row as u32));
    returned.sort_unstable();
    ExecutionResult {
        returned,
        reused_positives,
    }
}

/// Reads the ground-truth vector for evaluation purposes (never available
/// to the planning code).
pub fn truth_vector(table: &expred_table::Table, label_column: &str) -> Vec<bool> {
    let col = table
        .column(label_column)
        .unwrap_or_else(|| panic!("label column {label_column:?} missing"));
    (0..table.num_rows())
        .map(|r| col.bool_at(r).expect("label column must be non-null bool"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_table::{DataType, Field, Schema, Table, Value};
    use expred_udf::{CostModel, OracleUdf};

    fn test_table(labels: &[bool], groups: &[i64]) -> Table {
        assert_eq!(labels.len(), groups.len());
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("label", DataType::Bool),
        ]);
        let rows = groups
            .iter()
            .zip(labels)
            .map(|(&g, &l)| vec![Value::Int(g), Value::Bool(l)])
            .collect();
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn deterministic_plan_execution() {
        // Group 0: return all; group 1: evaluate all; group 2: discard.
        let labels = [true, false, true, false, true, false];
        let table = test_table(&labels, &[0, 0, 1, 1, 2, 2]);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let plan = Plan::new(vec![1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0]);
        let mut rng = Prng::seeded(1);
        let result = execute_plan_ctx(
            &plan,
            &groups,
            &invoker,
            &mut rng,
            &ExecContext::sequential(),
        );
        // Group 0 returned unevaluated (rows 0,1); group 1 evaluated, only
        // row 2 passes; group 2 dropped.
        assert_eq!(result.returned, vec![0, 1, 2]);
        let counts = invoker.counts();
        assert_eq!(counts.retrieved, 4);
        assert_eq!(counts.evaluated, 2);
        assert_eq!(counts.cost(&CostModel::PAPER_DEFAULT), 4.0 + 6.0);
    }

    #[test]
    fn memoized_positives_are_free_and_returned() {
        let labels = [true, false, true];
        let table = test_table(&labels, &[0, 0, 0]);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        // Pre-sample rows 0 and 1.
        invoker.retrieve_and_evaluate(0);
        invoker.retrieve_and_evaluate(1);
        let before = invoker.counts();
        let groups = table.group_by("g").unwrap();
        // Plan discards the group entirely; sampled positive still returns.
        let plan = Plan::discard_all(1);
        let mut rng = Prng::seeded(2);
        let result = execute_plan_ctx(
            &plan,
            &groups,
            &invoker,
            &mut rng,
            &ExecContext::sequential(),
        );
        assert_eq!(result.returned, vec![0]);
        assert_eq!(result.reused_positives, 1);
        assert_eq!(invoker.counts(), before, "no new cost for reuse");
    }

    #[test]
    fn fractional_plan_rates_track_probabilities() {
        let n = 10_000;
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let group_ids = vec![0i64; n];
        let table = test_table(&labels, &group_ids);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let plan = Plan::new(vec![0.6], vec![0.3]);
        let mut rng = Prng::seeded(3);
        let _ = execute_plan_ctx(
            &plan,
            &groups,
            &invoker,
            &mut rng,
            &ExecContext::sequential(),
        );
        let counts = invoker.counts();
        let retrieved_rate = counts.retrieved as f64 / n as f64;
        let evaluated_rate = counts.evaluated as f64 / n as f64;
        assert!((retrieved_rate - 0.6).abs() < 0.03, "{retrieved_rate}");
        assert!((evaluated_rate - 0.3).abs() < 0.03, "{evaluated_rate}");
    }

    #[test]
    fn evaluated_tuples_filter_failures() {
        let n = 2_000;
        let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect(); // sel 0.25
        let table = test_table(&labels, &vec![0i64; n]);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        // Evaluate everything: answer must be exactly the true set.
        let plan = Plan::evaluate_all(1);
        let mut rng = Prng::seeded(4);
        let result = execute_plan_ctx(
            &plan,
            &groups,
            &invoker,
            &mut rng,
            &ExecContext::sequential(),
        );
        let truth = truth_vector(&table, "label");
        assert!(result.returned.iter().all(|&r| truth[r as usize]));
        assert_eq!(result.returned.len(), n / 4);
    }

    #[test]
    fn custom_in_flight_budget_does_not_change_the_outcome() {
        let n = 3_000;
        let labels: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let group_ids: Vec<i64> = (0..n as i64).map(|i| i % 4).collect();
        let table = test_table(&labels, &group_ids);
        let udf = OracleUdf::new("label");
        let groups = table.group_by("g").unwrap();
        let plan = Plan::new(vec![0.8; 4], vec![0.5; 4]);
        let run = |ctx: ExecContext<'_>| {
            let invoker = UdfInvoker::new(&udf, &table);
            let mut rng = Prng::seeded(17);
            let result = execute_plan_ctx(&plan, &groups, &invoker, &mut rng, &ctx);
            (result, invoker.counts())
        };
        let (default_result, default_counts) = run(ExecContext::sequential());
        // A budget far below one group's queue forces many slices.
        let (tiny_result, tiny_counts) = run(ExecContext::sequential().with_max_in_flight(7));
        assert_eq!(default_result, tiny_result);
        assert_eq!(default_counts, tiny_counts);
    }

    #[test]
    fn truth_vector_reads_labels() {
        let labels = [true, false, true];
        let table = test_table(&labels, &[0, 1, 2]);
        assert_eq!(truth_vector(&table, "label"), vec![true, false, true]);
    }

    #[test]
    #[should_panic]
    fn plan_group_mismatch_panics() {
        let table = test_table(&[true], &[0]);
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let plan = Plan::discard_all(2);
        let mut rng = Prng::seeded(5);
        execute_plan_ctx(
            &plan,
            &groups,
            &invoker,
            &mut rng,
            &ExecContext::sequential(),
        );
    }
}
