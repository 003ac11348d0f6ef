//! Multiple chained UDF predicates (§5, §10.7.2).
//!
//! The query `SELECT * FROM T WHERE f1(…) = 1 AND f2(…) = 1` admits
//! per-group decisions *per predicate*: a tuple can be returned assuming
//! both predicates hold, evaluated on one predicate and assumed on the
//! other, or evaluated on both (with short-circuiting). Accuracy lost on
//! one predicate can be traded for accuracy on the other — exactly the
//! paper's motivation for joint decision variables.
//!
//! Formulation: for each group `a` with within-group-independent
//! selectivities `s1_a, s2_a`, fractional action probabilities
//! `x_{a,act} ≥ 0`, `Σ_act x ≤ 1` (the remainder is discarded), with
//! expectation-level precision/recall constraints (the paper derives no
//! concentration slack for this extension; neither do we — callers can
//! tighten `alpha`/`beta` to taste). Solved exactly with the workspace
//! simplex.

use crate::optimize::PlanError;
use expred_solver::lp::{Constraint, LinearProgram, LpOutcome, Relation};

/// Per-group statistics for a two-predicate conjunction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredicatePairGroup {
    /// Group size `t_a`.
    pub size: f64,
    /// Selectivity of the first predicate within the group.
    pub s1: f64,
    /// Selectivity of the second predicate within the group.
    pub s2: f64,
}

impl PredicatePairGroup {
    /// Probability both predicates hold (within-group independence).
    pub fn s_both(&self) -> f64 {
        self.s1 * self.s2
    }
}

/// Cost model with distinct per-predicate evaluation costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiCost {
    /// Retrieval cost `o_r`.
    pub retrieve: f64,
    /// Evaluation cost of the first predicate.
    pub eval1: f64,
    /// Evaluation cost of the second predicate.
    pub eval2: f64,
}

/// The non-discard actions; discard probability is the residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiAction {
    /// Retrieve; assume both predicates true.
    Return,
    /// Retrieve; evaluate `f1`, assume `f2`.
    EvalFirst,
    /// Retrieve; evaluate `f2`, assume `f1`.
    EvalSecond,
    /// Retrieve; evaluate `f1` then, if it passed, `f2` (short-circuit).
    EvalBoth,
}

/// All actions in LP-variable order.
pub const ACTIONS: [MultiAction; 4] = [
    MultiAction::Return,
    MultiAction::EvalFirst,
    MultiAction::EvalSecond,
    MultiAction::EvalBoth,
];

/// A fractional multi-predicate plan: per group, the probability of each
/// action (discard = 1 − sum).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPlan {
    /// `probs[a][i]` = probability of `ACTIONS[i]` for group `a`.
    pub probs: Vec<[f64; 4]>,
    /// Expected total cost.
    pub expected_cost: f64,
}

impl MultiPlan {
    /// Probability group `a` takes `action`.
    pub fn prob(&self, a: usize, action: MultiAction) -> f64 {
        let i = ACTIONS.iter().position(|&x| x == action).unwrap();
        self.probs[a][i]
    }

    /// Discard probability of group `a`.
    pub fn discard_prob(&self, a: usize) -> f64 {
        (1.0 - self.probs[a].iter().sum::<f64>()).max(0.0)
    }
}

/// Per-unit expected quantities of one action on one group:
/// `(cost, output_size, correct_output)`.
fn action_rates(g: &PredicatePairGroup, cost: &MultiCost, action: MultiAction) -> (f64, f64, f64) {
    let s12 = g.s_both();
    match action {
        // Everything returned; correct with probability s12.
        MultiAction::Return => (cost.retrieve, 1.0, s12),
        // Output iff f1 passes (prob s1); correct iff f2 also holds.
        MultiAction::EvalFirst => (cost.retrieve + cost.eval1, g.s1, s12),
        MultiAction::EvalSecond => (cost.retrieve + cost.eval2, g.s2, s12),
        // Evaluate f1 always, f2 only on f1-pass; output iff both.
        MultiAction::EvalBoth => (cost.retrieve + cost.eval1 + g.s1 * cost.eval2, s12, s12),
    }
}

/// Solves the two-predicate problem: minimize expected cost subject to
/// expected precision ≥ `alpha` and expected recall ≥ `beta`.
pub fn solve_multi_predicate(
    groups: &[PredicatePairGroup],
    alpha: f64,
    beta: f64,
    cost: &MultiCost,
) -> Result<MultiPlan, PlanError> {
    assert!((0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&beta));
    let k = groups.len();
    let nv = 4 * k;
    let mut objective = vec![0.0; nv];
    let mut precision_row = vec![0.0; nv];
    let mut recall_row = vec![0.0; nv];
    let total_correct: f64 = groups.iter().map(|g| g.size * g.s_both()).sum();
    for (a, g) in groups.iter().enumerate() {
        for (i, &action) in ACTIONS.iter().enumerate() {
            let (c, out, correct) = action_rates(g, cost, action);
            let v = 4 * a + i;
            objective[v] = g.size * c;
            // precision: correct − α·output ≥ 0 summed.
            precision_row[v] = g.size * (correct - alpha * out);
            recall_row[v] = g.size * correct;
        }
    }
    let mut constraints = vec![
        Constraint {
            coeffs: precision_row,
            relation: Relation::Ge,
            rhs: 0.0,
        },
        Constraint {
            coeffs: recall_row,
            relation: Relation::Ge,
            rhs: beta * total_correct,
        },
    ];
    for a in 0..k {
        let mut row = vec![0.0; nv];
        for i in 0..4 {
            row[4 * a + i] = 1.0;
        }
        constraints.push(Constraint {
            coeffs: row,
            relation: Relation::Le,
            rhs: 1.0,
        });
    }
    match LinearProgram::new(objective, constraints).solve() {
        LpOutcome::Optimal(s) => {
            let mut probs = Vec::with_capacity(k);
            for a in 0..k {
                let mut p = [0.0; 4];
                for (i, slot) in p.iter_mut().enumerate() {
                    *slot = s.x[4 * a + i].clamp(0.0, 1.0);
                }
                probs.push(p);
            }
            Ok(MultiPlan {
                probs,
                expected_cost: s.objective,
            })
        }
        LpOutcome::Infeasible => Err(PlanError::Infeasible(
            "two-predicate constraints unsatisfiable".into(),
        )),
        LpOutcome::Unbounded => unreachable!("nonnegative costs cannot be unbounded"),
    }
}

/// One group's statistics for an `n`-predicate conjunction chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainGroup {
    /// Group size `t_a`.
    pub size: f64,
    /// Per-predicate selectivities within the group (independent).
    pub sels: Vec<f64>,
}

impl ChainGroup {
    /// Probability all predicates hold.
    pub fn s_all(&self) -> f64 {
        self.sels.iter().product()
    }
}

/// A fractional plan over subset-evaluation actions for `n` predicates.
///
/// Action index `m ∈ 0..2^n` means "retrieve and evaluate exactly the
/// predicates in bitmask `m` (short-circuited, cheapest-rejecter first),
/// assume the rest"; the residual probability mass is discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPlan {
    /// `probs[a][m]` = probability group `a` takes subset-action `m`.
    pub probs: Vec<Vec<f64>>,
    /// Expected total cost.
    pub expected_cost: f64,
}

impl ChainPlan {
    /// Discard probability of group `a`.
    pub fn discard_prob(&self, a: usize) -> f64 {
        (1.0 - self.probs[a].iter().sum::<f64>()).max(0.0)
    }
}

/// Expected per-tuple cost of evaluating predicate subset `mask` with
/// short-circuiting, using the classic optimal filter order: ascending
/// `cost_i / (1 - s_i)` (cheapest expected rejection first).
fn subset_cost(mask: usize, sels: &[f64], eval_costs: &[f64], retrieve: f64) -> f64 {
    let mut members: Vec<usize> = (0..sels.len()).filter(|i| mask & (1 << i) != 0).collect();
    members.sort_by(|&a, &b| {
        let ka = eval_costs[a] / (1.0 - sels[a]).max(1e-12);
        let kb = eval_costs[b] / (1.0 - sels[b]).max(1e-12);
        ka.partial_cmp(&kb).unwrap().then(a.cmp(&b))
    });
    let mut cost = retrieve;
    let mut pass_prob = 1.0;
    for &i in &members {
        cost += pass_prob * eval_costs[i];
        pass_prob *= sels[i];
    }
    cost
}

/// Solves the general `n`-predicate conjunction (§10.7.2's "number of
/// variables is exponential in the number of predicates, but still linear
/// in table size"): minimize expected cost subject to expectation-level
/// precision ≥ `alpha` and recall ≥ `beta`.
///
/// `eval_costs[i]` is predicate `i`'s evaluation cost; `retrieve` the
/// per-tuple retrieval cost. Every group must carry one selectivity per
/// predicate. Practical up to ~10 predicates (2^n actions per group).
pub fn solve_predicate_chain(
    groups: &[ChainGroup],
    alpha: f64,
    beta: f64,
    eval_costs: &[f64],
    retrieve: f64,
) -> Result<ChainPlan, PlanError> {
    assert!((0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&beta));
    let n = eval_costs.len();
    assert!((1..=16).contains(&n), "1..=16 predicates supported");
    for g in groups {
        assert_eq!(g.sels.len(), n, "one selectivity per predicate required");
    }
    let num_actions = 1usize << n;
    let k = groups.len();
    let nv = num_actions * k;
    let mut objective = vec![0.0; nv];
    let mut precision_row = vec![0.0; nv];
    let mut recall_row = vec![0.0; nv];
    let total_correct: f64 = groups.iter().map(|g| g.size * g.s_all()).sum();
    for (a, g) in groups.iter().enumerate() {
        let s_all = g.s_all();
        for mask in 0..num_actions {
            let v = num_actions * a + mask;
            // Output iff every evaluated predicate passes.
            let out: f64 = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| g.sels[i])
                .product();
            objective[v] = g.size * subset_cost(mask, &g.sels, eval_costs, retrieve);
            precision_row[v] = g.size * (s_all - alpha * out);
            recall_row[v] = g.size * s_all;
        }
    }
    let mut constraints = vec![
        Constraint {
            coeffs: precision_row,
            relation: Relation::Ge,
            rhs: 0.0,
        },
        Constraint {
            coeffs: recall_row,
            relation: Relation::Ge,
            rhs: beta * total_correct,
        },
    ];
    for a in 0..k {
        let mut row = vec![0.0; nv];
        for m in 0..num_actions {
            row[num_actions * a + m] = 1.0;
        }
        constraints.push(Constraint {
            coeffs: row,
            relation: Relation::Le,
            rhs: 1.0,
        });
    }
    match LinearProgram::new(objective, constraints).solve() {
        LpOutcome::Optimal(s) => {
            let probs = (0..k)
                .map(|a| {
                    (0..num_actions)
                        .map(|m| s.x[num_actions * a + m].clamp(0.0, 1.0))
                        .collect()
                })
                .collect();
            Ok(ChainPlan {
                probs,
                expected_cost: s.objective,
            })
        }
        LpOutcome::Infeasible => Err(PlanError::Infeasible(
            "predicate-chain constraints unsatisfiable".into(),
        )),
        LpOutcome::Unbounded => unreachable!("nonnegative costs cannot be unbounded"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_exec::{ExecContext, WorkerPool};
    use expred_table::Table;
    use expred_udf::{
        evaluate_expr_batch_ctx, BooleanUdf, ConjunctionUdf, CostTracker, OracleUdf, PredicateExpr,
    };

    fn cost() -> MultiCost {
        MultiCost {
            retrieve: 1.0,
            eval1: 3.0,
            eval2: 3.0,
        }
    }

    fn groups() -> Vec<PredicatePairGroup> {
        vec![
            PredicatePairGroup {
                size: 1000.0,
                s1: 0.9,
                s2: 0.95,
            },
            PredicatePairGroup {
                size: 1000.0,
                s1: 0.5,
                s2: 0.6,
            },
            PredicatePairGroup {
                size: 1000.0,
                s1: 0.1,
                s2: 0.2,
            },
        ]
    }

    fn check_constraints(plan: &MultiPlan, groups: &[PredicatePairGroup], alpha: f64, beta: f64) {
        let c = cost();
        let mut correct = 0.0;
        let mut output = 0.0;
        let total: f64 = groups.iter().map(|g| g.size * g.s_both()).sum();
        for (a, g) in groups.iter().enumerate() {
            for (i, &action) in ACTIONS.iter().enumerate() {
                let (_, out, corr) = action_rates(g, &c, action);
                output += g.size * plan.probs[a][i] * out;
                correct += g.size * plan.probs[a][i] * corr;
            }
        }
        assert!(correct >= alpha * output - 1e-6, "precision violated");
        assert!(correct >= beta * total - 1e-6, "recall violated");
    }

    fn two_label_table(f1: &[bool], f2: &[bool]) -> Table {
        use expred_table::{DataType, Field, Schema, Value};
        let schema = Schema::new(vec![
            Field::new("f1", DataType::Bool),
            Field::new("f2", DataType::Bool),
        ]);
        let rows = f1
            .iter()
            .zip(f2)
            .map(|(&a, &b)| vec![Value::Bool(a), Value::Bool(b)])
            .collect();
        Table::from_rows(schema, rows).unwrap()
    }

    /// `f1 AND f2` as the staged evaluator sees it: equal declared costs,
    /// so `f1` runs first on every row and `f2` only on its survivors.
    fn two_stage_conjunction() -> PredicateExpr {
        PredicateExpr::udf(OracleUdf::new("f1")).and(PredicateExpr::udf(OracleUdf::new("f2")))
    }

    #[test]
    fn conjunction_batch_short_circuits_and_charges_per_stage() {
        let f1 = [true, true, false, false, true, false];
        let f2 = [true, false, true, false, true, true];
        let table = two_label_table(&f1, &f2);
        let tracker = CostTracker::new();
        let rows: Vec<usize> = (0..6).collect();
        let answers = evaluate_expr_batch_ctx(
            &two_stage_conjunction(),
            &table,
            &rows,
            &tracker,
            &ExecContext::sequential(),
        )
        .expect("valid costs");
        let want: Vec<bool> = f1.iter().zip(&f2).map(|(&a, &b)| a && b).collect();
        assert_eq!(answers, want);
        // The row-at-a-time `ConjunctionUdf` gives the same answers.
        let udf = ConjunctionUdf::new(vec![
            Box::new(OracleUdf::new("f1")),
            Box::new(OracleUdf::new("f2")),
        ]);
        let scalar: Vec<bool> = rows.iter().map(|&r| udf.evaluate(&table, r)).collect();
        assert_eq!(answers, scalar);
        // Stage 1 probes all 6 rows; stage 2 only the 3 f1-survivors.
        assert_eq!(tracker.snapshot().evaluated, 6 + 3);
    }

    #[test]
    fn conjunction_batch_identical_across_backends() {
        let n = 500;
        let f1: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let f2: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let table = two_label_table(&f1, &f2);
        let expr = two_stage_conjunction();
        let rows: Vec<usize> = (0..n).rev().collect();
        let seq_tracker = CostTracker::new();
        let seq = evaluate_expr_batch_ctx(
            &expr,
            &table,
            &rows,
            &seq_tracker,
            &ExecContext::sequential(),
        )
        .expect("valid costs");
        let pool = WorkerPool::with_threads(4);
        let pool_tracker = CostTracker::new();
        let pooled = evaluate_expr_batch_ctx(
            &expr,
            &table,
            &rows,
            &pool_tracker,
            &ExecContext::new(&pool),
        )
        .expect("valid costs");
        assert_eq!(seq, pooled);
        assert_eq!(seq_tracker.snapshot(), pool_tracker.snapshot());
    }

    #[test]
    fn feasible_plan_meets_expected_constraints() {
        let gs = groups();
        let plan = solve_multi_predicate(&gs, 0.8, 0.8, &cost()).expect("feasible");
        check_constraints(&plan, &gs, 0.8, 0.8);
        for a in 0..gs.len() {
            let sum: f64 = plan.probs[a].iter().sum();
            assert!(sum <= 1.0 + 1e-9);
            assert!(plan.discard_prob(a) >= -1e-9);
        }
    }

    #[test]
    fn high_joint_selectivity_groups_are_returned() {
        let gs = groups();
        let plan = solve_multi_predicate(&gs, 0.8, 0.8, &cost()).expect("feasible");
        // Group 0 (s_both ≈ 0.855 > alpha) is cheap to return outright.
        assert!(
            plan.prob(0, MultiAction::Return) > 0.5,
            "probs: {:?}",
            plan.probs[0]
        );
    }

    #[test]
    fn zero_constraints_cost_nothing() {
        let gs = groups();
        let plan = solve_multi_predicate(&gs, 0.0, 0.0, &cost()).expect("feasible");
        assert!(plan.expected_cost < 1e-9);
    }

    #[test]
    fn asymmetric_costs_prefer_cheap_predicate() {
        // Make f2 very cheap: evaluating f2 alone should dominate f1-alone.
        let gs = vec![PredicatePairGroup {
            size: 1000.0,
            s1: 0.5,
            s2: 0.5,
        }];
        let cheap2 = MultiCost {
            retrieve: 1.0,
            eval1: 10.0,
            eval2: 0.5,
        };
        let plan = solve_multi_predicate(&gs, 0.9, 0.9, &cheap2).expect("feasible");
        assert!(
            plan.prob(0, MultiAction::EvalFirst) < 1e-6,
            "expensive f1-only action should be unused: {:?}",
            plan.probs[0]
        );
    }

    #[test]
    #[should_panic]
    fn beta_out_of_range_rejected() {
        let gs = groups();
        solve_multi_predicate(&gs, 0.0, 1.2, &cost()).ok();
    }

    #[test]
    fn full_recall_is_always_feasible_in_expectation() {
        // Evaluating both predicates everywhere returns every correct
        // tuple, so beta = 1 is feasible at the expectation level.
        let gs = groups();
        let plan = solve_multi_predicate(&gs, 1.0, 1.0, &cost()).expect("feasible");
        check_constraints(&plan, &gs, 1.0, 1.0);
    }

    #[test]
    fn chain_with_two_predicates_matches_pairwise_solver() {
        // The 2-predicate chain's action space covers the pairwise
        // solver's (plus better short-circuit ordering), so its optimum
        // can only be at least as cheap.
        let gs = groups();
        let chain_groups: Vec<ChainGroup> = gs
            .iter()
            .map(|g| ChainGroup {
                size: g.size,
                sels: vec![g.s1, g.s2],
            })
            .collect();
        let pair = solve_multi_predicate(&gs, 0.8, 0.8, &cost()).unwrap();
        let chain = solve_predicate_chain(&chain_groups, 0.8, 0.8, &[3.0, 3.0], 1.0).unwrap();
        assert!(
            chain.expected_cost <= pair.expected_cost + 1e-6,
            "chain {} vs pair {}",
            chain.expected_cost,
            pair.expected_cost
        );
        // With symmetric costs the optima coincide.
        assert!(
            (chain.expected_cost - pair.expected_cost).abs() < 1e-6 * (1.0 + pair.expected_cost),
            "chain {} vs pair {}",
            chain.expected_cost,
            pair.expected_cost
        );
    }

    #[test]
    fn chain_three_predicates_solves_and_meets_constraints() {
        let groups = vec![
            ChainGroup {
                size: 1000.0,
                sels: vec![0.9, 0.8, 0.95],
            },
            ChainGroup {
                size: 1000.0,
                sels: vec![0.5, 0.7, 0.4],
            },
            ChainGroup {
                size: 500.0,
                sels: vec![0.2, 0.3, 0.9],
            },
        ];
        let eval_costs = [2.0, 5.0, 1.0];
        let plan = solve_predicate_chain(&groups, 0.85, 0.8, &eval_costs, 1.0).unwrap();
        // Verify the expectation-level constraints directly.
        let total_correct: f64 = groups.iter().map(|g| g.size * g.s_all()).sum();
        let (mut correct, mut output) = (0.0, 0.0);
        for (a, g) in groups.iter().enumerate() {
            for (mask, &p) in plan.probs[a].iter().enumerate() {
                let out: f64 = (0..3)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| g.sels[i])
                    .product();
                output += g.size * p * out;
                correct += g.size * p * g.s_all();
            }
        }
        assert!(correct >= 0.85 * output - 1e-6, "precision violated");
        assert!(correct >= 0.8 * total_correct - 1e-6, "recall violated");
    }

    #[test]
    fn subset_cost_orders_by_rejection_density() {
        // Predicate 1 is cheap and selective: it must be evaluated first,
        // discounting predicate 0's cost by s_1.
        let sels = [0.9, 0.2];
        let eval_costs = [10.0, 1.0];
        let c = subset_cost(0b11, &sels, &eval_costs, 1.0);
        // Order: predicate 1 (1/(0.8) = 1.25) before 0 (10/0.1 = 100):
        // cost = 1 + 1.0 + 0.2 * 10 = 4.0.
        assert!((c - 4.0).abs() < 1e-12, "got {c}");
    }

    #[test]
    fn chain_empty_subset_action_is_blind_return() {
        let sels = [0.5, 0.5];
        let c = subset_cost(0, &sels, &[3.0, 3.0], 1.0);
        assert_eq!(c, 1.0, "no evaluations, retrieval only");
    }

    #[test]
    fn full_precision_forces_eval_both_on_mixed_groups() {
        let gs = vec![PredicatePairGroup {
            size: 100.0,
            s1: 0.6,
            s2: 0.6,
        }];
        let plan = solve_multi_predicate(&gs, 1.0, 0.9, &cost()).expect("feasible");
        // Only EvalBoth has precision 1 on a mixed group.
        let non_both: f64 = plan.prob(0, MultiAction::Return)
            + plan.prob(0, MultiAction::EvalFirst)
            + plan.prob(0, MultiAction::EvalSecond);
        assert!(non_both < 1e-6, "probs: {:?}", plan.probs[0]);
        assert!(plan.prob(0, MultiAction::EvalBoth) > 0.89);
    }
}
