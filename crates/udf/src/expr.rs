//! [`PredicateExpr`]: boolean expressions over expensive UDFs.
//!
//! The paper's §5 "multiple predicates" extension — and the natural
//! serving workload behind it (Kim et al., *Optimizing Query Predicates
//! with Disjunctions for Column-Oriented Engines*) — is a query whose
//! `WHERE` clause combines several expensive predicates:
//! `f1(...) = 1 AND (f2(...) = 1 OR NOT f3(...) = 1)`. This module makes
//! that a first-class value:
//!
//! ```
//! use expred_udf::{OracleUdf, Pred};
//!
//! let expr = Pred::udf(OracleUdf::new("fraud_free"))
//!     .and(Pred::udf(OracleUdf::new("image_ok")).or(Pred::udf(OracleUdf::new("vip"))));
//! assert_eq!(expr.leaf_count(), 3);
//! assert!(expr.fingerprint().is_some(), "oracle leaves are identifiable");
//! ```
//!
//! Three properties make expressions serving-grade:
//!
//! * **Derived identity** — [`PredicateExpr::fingerprint`] folds the
//!   operator tree and every leaf's [`UdfId`] into one id, so a whole
//!   expression is cacheable/memoizable exactly like a single UDF (it
//!   even implements [`BooleanUdf`] itself).
//! * **Session-cached evaluation** — [`evaluate_expr_batch_ctx`] gives
//!   every *leaf* its own audited [`UdfInvoker`] over the shared
//!   [`expred_exec::CacheStore`] namespace, so a leaf some earlier query
//!   already paid for arrives as a free
//!   [`crate::CostCounts::reuse_hits`], whatever expression it appeared
//!   in back then.
//! * **Cost-ordered short-circuiting** — inside each `AND`/`OR`, child
//!   subtrees are evaluated cheapest-first ([`PredicateExpr::cost`]) in
//!   staged batches: survivors of one stage form the next stage's batch,
//!   exactly like the column-store disjunction evaluation strategy.
//!   Answers are independent of the order (the predicates are
//!   deterministic); only the bill changes.
//!
//! Expressions also round-trip through the predicate DSL
//! ([`crate::parse_predicate`]): a parsed expression remembers its leaf
//! names and [`PredicateExpr::render`]s back to an equivalent string.
//! The session optimizer ([`crate::optimize_expr`]) rewrites a tree into
//! an answer-equivalent one whose sibling order is *pinned* — the staged
//! evaluator then honors that order instead of re-sorting by declared
//! cost.

use crate::cost::CostTracker;
use crate::invoker::UdfInvoker;
use crate::udf::{BooleanUdf, UdfId};
use expred_exec::ExecContext;
use expred_table::Table;
use std::collections::HashSet;
use std::sync::Arc;

/// Short alias so expressions read as predicates:
/// `Pred::udf(...).and(...).not()`.
pub type Pred = PredicateExpr;

/// Default per-evaluation cost of a leaf, when none is declared.
pub const DEFAULT_LEAF_COST: f64 = 1.0;

/// The batch entry points reject an expression whose declared leaf costs
/// are malformed (NaN, infinite, or negative) — such a cost cannot order
/// short-circuit stages, and before this check a NaN cost silently fed a
/// non-total comparator into the stage sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCostsError;

impl std::fmt::Display for InvalidCostsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "every leaf evaluation cost must be finite and >= 0")
    }
}

impl std::error::Error for InvalidCostsError {}

/// A boolean expression over expensive UDF predicates — see the module
/// docs. Opaque on purpose: the only way to build one is through the
/// combinators (or the DSL parser), which maintain the tree invariants
/// (`AND`/`OR` nodes always have at least one child).
#[derive(Clone)]
pub struct PredicateExpr {
    pub(crate) node: Node,
    /// Whether the stored sibling order is authoritative (set by the
    /// optimizer): the staged evaluator then runs children in stored
    /// order instead of re-sorting by declared cost. Never part of the
    /// fingerprint — order cannot change answers. Combinators reset it:
    /// composing onto an optimized tree yields a new, unoptimized one.
    pub(crate) pinned: bool,
}

#[derive(Clone)]
pub(crate) enum Node {
    Leaf {
        udf: Arc<dyn BooleanUdf>,
        cost: f64,
        /// The DSL name this leaf was parsed from, if any — what
        /// [`PredicateExpr::render`] prints. Excluded from the
        /// fingerprint: identity is the UDF's, not its spelling.
        name: Option<Arc<str>>,
    },
    Not(Box<Node>),
    And(Vec<Node>),
    Or(Vec<Node>),
}

impl PredicateExpr {
    /// A leaf predicate with the default evaluation cost.
    pub fn udf(udf: impl BooleanUdf + 'static) -> Self {
        Self::udf_with_cost(udf, DEFAULT_LEAF_COST)
    }

    /// A leaf predicate with a declared per-evaluation cost, used only to
    /// order short-circuit stages (cheap predicates run first). The cost
    /// does not enter the expression's identity: evaluation order cannot
    /// change answers.
    pub fn udf_with_cost(udf: impl BooleanUdf + 'static, cost: f64) -> Self {
        Self::shared_with_cost(Arc::new(udf), cost)
    }

    /// A leaf over an already-shared UDF.
    pub fn shared_with_cost(udf: Arc<dyn BooleanUdf>, cost: f64) -> Self {
        Self {
            node: Node::Leaf {
                udf,
                cost,
                name: None,
            },
            pinned: false,
        }
    }

    /// Wraps `node` in an unpinned expression (crate-internal: the
    /// parser and optimizer build trees directly).
    pub(crate) fn from_node(node: Node) -> Self {
        Self {
            node,
            pinned: false,
        }
    }

    /// Names this expression's root leaf (crate-internal: the parser
    /// tags resolved leaves with their DSL spelling). Non-leaf roots are
    /// left unchanged — a registry that expands a name into a compound
    /// expression has no single leaf to name.
    pub(crate) fn with_leaf_name(mut self, leaf_name: &str) -> Self {
        if let Node::Leaf { name, .. } = &mut self.node {
            *name = Some(Arc::from(leaf_name));
        }
        self
    }

    /// `self AND other` (flattens nested conjunctions).
    pub fn and(self, other: PredicateExpr) -> Self {
        let mut parts = match self.node {
            Node::And(parts) => parts,
            node => vec![node],
        };
        match other.node {
            Node::And(mut more) => parts.append(&mut more),
            node => parts.push(node),
        }
        Self::from_node(Node::And(parts))
    }

    /// `self OR other` (flattens nested disjunctions).
    pub fn or(self, other: PredicateExpr) -> Self {
        let mut parts = match self.node {
            Node::Or(parts) => parts,
            node => vec![node],
        };
        match other.node {
            Node::Or(mut more) => parts.append(&mut more),
            node => parts.push(node),
        }
        Self::from_node(Node::Or(parts))
    }

    /// `NOT self` (double negation cancels). Also available as the `!`
    /// operator via the `std::ops::Not` impl.
    #[allow(clippy::should_implement_trait)] // it does — this is the no-import combinator spelling
    pub fn not(self) -> Self {
        !self
    }

    /// Number of leaf predicates in the tree.
    pub fn leaf_count(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Not(inner) => walk(inner),
                Node::And(parts) | Node::Or(parts) => parts.iter().map(walk).sum(),
            }
        }
        walk(&self.node)
    }

    /// Static per-row cost estimate: a leaf's declared cost; a
    /// negation's inner cost; a conjunction/disjunction's *sum* of child
    /// costs (the worst case, before short-circuiting). Used to order
    /// siblings cheapest-first.
    pub fn cost(&self) -> f64 {
        node_cost(&self.node)
    }

    /// Whether every leaf cost is finite and nonnegative.
    pub fn costs_valid(&self) -> bool {
        fn walk(node: &Node) -> bool {
            match node {
                Node::Leaf { cost, .. } => cost.is_finite() && *cost >= 0.0,
                Node::Not(inner) => walk(inner),
                Node::And(parts) | Node::Or(parts) => parts.iter().all(walk),
            }
        }
        walk(&self.node)
    }

    /// Whether the sibling order was pinned by the optimizer
    /// ([`crate::optimize_expr`]): pinned trees evaluate children in
    /// stored order; unpinned trees re-sort by declared cost.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// The derived identity of the whole expression, or `None` if any
    /// leaf UDF opted out of identity ([`BooleanUdf::fingerprint`]).
    ///
    /// Sibling order is significant (as for [`crate::ConjunctionUdf`]):
    /// `a.and(b)` and `b.and(a)` answer identically but carry distinct
    /// ids — the id never claims an equivalence it cannot prove. Leaf
    /// costs, DSL names, and the pinned flag are excluded: ordering and
    /// spelling cannot change answers.
    pub fn fingerprint(&self) -> Option<UdfId> {
        fn walk(node: &Node) -> Option<UdfId> {
            match node {
                Node::Leaf { udf, .. } => udf.fingerprint(),
                Node::Not(inner) => Some(UdfId::from_parts("expr.not", &[walk(inner)?.as_u64()])),
                Node::And(parts) => {
                    let ids = part_ids(parts)?;
                    Some(UdfId::from_parts("expr.and", &ids))
                }
                Node::Or(parts) => {
                    let ids = part_ids(parts)?;
                    Some(UdfId::from_parts("expr.or", &ids))
                }
            }
        }
        fn part_ids(parts: &[Node]) -> Option<Vec<u64>> {
            parts
                .iter()
                .map(|p| walk(p).map(|id| id.as_u64()))
                .collect()
        }
        walk(&self.node)
    }

    /// Renders the expression back to predicate-DSL text
    /// ([`crate::parse_predicate`] accepts the result), or `None` if any
    /// leaf has no DSL name (only parsed leaves carry one).
    ///
    /// Parentheses are minimal under the grammar's precedence
    /// (`not` > `and` > `or`), so
    /// `parse(expr.render()?)` rebuilds a tree with the same
    /// [`PredicateExpr::fingerprint`] and the same answers.
    pub fn render(&self) -> Option<String> {
        // Precedence levels: Or = 0, And = 1, Not = 2, Leaf = 3. A child
        // needs parentheses when it binds no tighter than its parent.
        fn level(node: &Node) -> u8 {
            match node {
                Node::Or(_) => 0,
                Node::And(_) => 1,
                Node::Not(_) => 2,
                Node::Leaf { .. } => 3,
            }
        }
        fn child(node: &Node, min_level: u8, out: &mut String) -> Option<()> {
            if level(node) < min_level {
                out.push('(');
                walk(node, out)?;
                out.push(')');
                Some(())
            } else {
                walk(node, out)
            }
        }
        fn walk(node: &Node, out: &mut String) -> Option<()> {
            match node {
                Node::Leaf { name, .. } => {
                    out.push_str(name.as_deref()?);
                    Some(())
                }
                Node::Not(inner) => {
                    out.push_str("not ");
                    child(inner, 2, out)
                }
                // A nested same-op child still gets parentheses (min
                // level one above its own), keeping re-parsing faithful
                // even for trees the optimizer built unflattened.
                Node::And(parts) => {
                    for (i, part) in parts.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" and ");
                        }
                        child(part, 2, out)?;
                    }
                    Some(())
                }
                Node::Or(parts) => {
                    for (i, part) in parts.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" or ");
                        }
                        child(part, 1, out)?;
                    }
                    Some(())
                }
            }
        }
        let mut out = String::new();
        walk(&self.node, &mut out)?;
        Some(out)
    }
}

/// `NOT expr` (double negation cancels). `std::ops::Not` is in the
/// prelude, so this is both `!expr` and the combinator `expr.not()`.
impl std::ops::Not for PredicateExpr {
    type Output = PredicateExpr;

    fn not(self) -> PredicateExpr {
        Self::from_node(match self.node {
            Node::Not(inner) => *inner,
            node => Node::Not(Box::new(node)),
        })
    }
}

fn node_cost(node: &Node) -> f64 {
    match node {
        Node::Leaf { cost, .. } => *cost,
        Node::Not(inner) => node_cost(inner),
        Node::And(parts) | Node::Or(parts) => parts.iter().map(node_cost).sum(),
    }
}

/// Child evaluation order: cheapest subtree first, original order on
/// ties (stable sort), so evaluation is deterministic. The sort key is
/// total (`f64::total_cmp`, non-finite costs clamped to `+inf`): a NaN
/// leaf cost must never feed a non-total comparator into the sort —
/// validated entry points reject it, and any other path degrades to
/// "last", not to unspecified (or panicking) behavior.
pub(crate) fn cost_order(parts: &[Node]) -> Vec<usize> {
    let key = |node: &Node| {
        let cost = node_cost(node);
        if cost.is_finite() {
            cost
        } else {
            f64::INFINITY
        }
    };
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by(|&a, &b| key(&parts[a]).total_cmp(&key(&parts[b])));
    order
}

impl BooleanUdf for PredicateExpr {
    /// Per-row evaluation with short-circuiting in *stored* sibling
    /// order (no caching, no auditing — the expression acts as one
    /// opaque UDF, and this path is a hot loop, so it skips the
    /// cost-ordering bookkeeping, which cannot change answers anyway).
    /// Batched, audited, session-cached, cost-ordered evaluation is
    /// [`evaluate_expr_batch_ctx`].
    fn evaluate(&self, table: &Table, row: usize) -> bool {
        fn walk(node: &Node, table: &Table, row: usize) -> bool {
            match node {
                Node::Leaf { udf, .. } => udf.evaluate(table, row),
                Node::Not(inner) => !walk(inner, table, row),
                Node::And(parts) => parts.iter().all(|p| walk(p, table, row)),
                Node::Or(parts) => parts.iter().any(|p| walk(p, table, row)),
            }
        }
        walk(&self.node, table, row)
    }

    fn name(&self) -> &str {
        "expr"
    }

    fn fingerprint(&self) -> Option<UdfId> {
        PredicateExpr::fingerprint(self)
    }

    /// Columns any leaf declares, deduplicated in first-seen order — an
    /// expression whose leaves share a column must not report (or make a
    /// validator re-check) that column once per leaf.
    fn required_columns(&self) -> Vec<String> {
        fn walk(node: &Node, out: &mut Vec<String>, seen: &mut HashSet<String>) {
            match node {
                Node::Leaf { udf, .. } => {
                    for column in udf.required_columns() {
                        if seen.insert(column.clone()) {
                            out.push(column);
                        }
                    }
                }
                Node::Not(inner) => walk(inner, out, seen),
                Node::And(parts) | Node::Or(parts) => parts.iter().for_each(|p| walk(p, out, seen)),
            }
        }
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        walk(&self.node, &mut out, &mut seen);
        out
    }
}

impl std::fmt::Debug for PredicateExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn walk(node: &Node, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match node {
                Node::Leaf { udf, cost, name } => match name {
                    Some(name) => write!(f, "{name}@{cost}"),
                    None => write!(f, "{}@{cost}", udf.name()),
                },
                Node::Not(inner) => {
                    write!(f, "not(")?;
                    walk(inner, f)?;
                    write!(f, ")")
                }
                Node::And(parts) | Node::Or(parts) => {
                    let op = if matches!(node, Node::And(_)) {
                        "and"
                    } else {
                        "or"
                    };
                    write!(f, "{op}(")?;
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        walk(p, f)?;
                    }
                    write!(f, ")")
                }
            }
        }
        walk(&self.node, f)?;
        if self.pinned {
            write!(f, " [pinned]")?;
        }
        Ok(())
    }
}

/// Evaluates `expr` over `rows` in staged, audited batches: every leaf
/// gets its own [`UdfInvoker`] charging to `tracker` (and borrowing the
/// context's session cache, when present); inside each `AND`/`OR`,
/// children run cheapest-first over the surviving/undecided rows only —
/// or in stored order when the optimizer pinned it
/// ([`PredicateExpr::is_pinned`]). Answers come back in input order and
/// are identical across executor backends and orderings.
///
/// Errors with [`InvalidCostsError`] if any declared leaf cost is NaN,
/// infinite, or negative (such a cost cannot order stages) — the same
/// rejection the engine's `ExprScan` validation performs.
///
/// Retrieval is *not* charged here — the caller decided to touch the
/// rows; each leaf invocation is charged one evaluation (or arrives as a
/// memo/reuse hit).
pub fn evaluate_expr_batch_ctx(
    expr: &PredicateExpr,
    table: &Table,
    rows: &[usize],
    tracker: &CostTracker,
    ctx: &ExecContext<'_>,
) -> Result<Vec<bool>, InvalidCostsError> {
    if !expr.costs_valid() {
        return Err(InvalidCostsError);
    }
    Ok(eval_node(
        &expr.node,
        expr.pinned,
        table,
        rows,
        tracker,
        ctx,
    ))
}

fn eval_node(
    node: &Node,
    pinned: bool,
    table: &Table,
    rows: &[usize],
    tracker: &CostTracker,
    ctx: &ExecContext<'_>,
) -> Vec<bool> {
    // Pinned trees honor the optimizer's stored sibling order; unpinned
    // trees sort cheapest-first. Either way the order is deterministic
    // and cannot change answers.
    let stage_order = |parts: &[Node]| -> Vec<usize> {
        if pinned {
            (0..parts.len()).collect()
        } else {
            cost_order(parts)
        }
    };
    match node {
        Node::Leaf { udf, .. } => {
            let invoker =
                UdfInvoker::with_tracker_and_context(udf.as_ref(), table, tracker.clone(), ctx);
            invoker.evaluate_batch(ctx.executor, rows)
        }
        Node::Not(inner) => eval_node(inner, pinned, table, rows, tracker, ctx)
            .into_iter()
            .map(|v| !v)
            .collect(),
        Node::And(parts) => {
            // Positions (into `rows`) still alive after the stages so far.
            let mut alive: Vec<usize> = (0..rows.len()).collect();
            for part in stage_order(parts) {
                if alive.is_empty() {
                    break;
                }
                let batch: Vec<usize> = alive.iter().map(|&pos| rows[pos]).collect();
                let verdicts = eval_node(&parts[part], pinned, table, &batch, tracker, ctx);
                alive = alive
                    .into_iter()
                    .zip(verdicts)
                    .filter(|&(_, passed)| passed)
                    .map(|(pos, _)| pos)
                    .collect();
            }
            let mut answers = vec![false; rows.len()];
            for pos in alive {
                answers[pos] = true;
            }
            answers
        }
        Node::Or(parts) => {
            // Positions not yet accepted by any earlier (cheaper) child.
            let mut undecided: Vec<usize> = (0..rows.len()).collect();
            let mut answers = vec![false; rows.len()];
            for part in stage_order(parts) {
                if undecided.is_empty() {
                    break;
                }
                let batch: Vec<usize> = undecided.iter().map(|&pos| rows[pos]).collect();
                let verdicts = eval_node(&parts[part], pinned, table, &batch, tracker, ctx);
                let mut rest = Vec::with_capacity(undecided.len());
                for (pos, passed) in undecided.into_iter().zip(verdicts) {
                    if passed {
                        answers[pos] = true;
                    } else {
                        rest.push(pos);
                    }
                }
                undecided = rest;
            }
            answers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::OracleUdf;
    use expred_table::{DataType, Field, Schema, Value};

    fn table(cols: &[(&str, &[bool])]) -> Table {
        let schema = Schema::new(
            cols.iter()
                .map(|(name, _)| Field::new(*name, DataType::Bool))
                .collect(),
        );
        let n = cols[0].1.len();
        let rows = (0..n)
            .map(|r| cols.iter().map(|(_, vals)| Value::Bool(vals[r])).collect())
            .collect();
        Table::from_rows(schema, rows).unwrap()
    }

    fn leaf(col: &str) -> PredicateExpr {
        Pred::udf(OracleUdf::new(col))
    }

    #[test]
    fn combinators_compute_boolean_semantics() {
        let a = [true, true, false, false];
        let b = [true, false, true, false];
        let t = table(&[("a", &a), ("b", &b)]);
        let rows: Vec<usize> = (0..4).collect();
        let tracker = CostTracker::new();
        type Semantics = Box<dyn Fn(bool, bool) -> bool>;
        let cases: Vec<(PredicateExpr, Semantics)> = vec![
            (leaf("a").and(leaf("b")), Box::new(|x, y| x && y)),
            (leaf("a").or(leaf("b")), Box::new(|x, y| x || y)),
            (leaf("a").not(), Box::new(|x, _| !x)),
            (leaf("a").and(leaf("b").not()), Box::new(|x, y| x && !y)),
            (leaf("a").or(leaf("b")).not(), Box::new(|x, y| !(x || y))),
        ];
        for (expr, want) in cases {
            let got =
                evaluate_expr_batch_ctx(&expr, &t, &rows, &tracker, &ExecContext::sequential())
                    .expect("valid costs");
            let expect: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| want(x, y)).collect();
            assert_eq!(got, expect, "{expr:?}");
            // Per-row evaluation (the BooleanUdf view) agrees.
            for (&row, &e) in rows.iter().zip(&expect) {
                assert_eq!(expr.evaluate(&t, row), e, "{expr:?} row {row}");
            }
        }
    }

    #[test]
    fn and_short_circuits_cheapest_first() {
        // `cheap` rejects half the rows; `pricey` must only be invoked on
        // the survivors, whichever side of the AND it was written on.
        let cheap_vals = [true, false, true, false, true, false];
        let pricey_vals = [true, true, false, false, true, true];
        let t = table(&[("cheap", &cheap_vals), ("pricey", &pricey_vals)]);
        let rows: Vec<usize> = (0..6).collect();
        for expr in [
            Pred::udf_with_cost(OracleUdf::new("pricey"), 10.0)
                .and(Pred::udf_with_cost(OracleUdf::new("cheap"), 1.0)),
            Pred::udf_with_cost(OracleUdf::new("cheap"), 1.0)
                .and(Pred::udf_with_cost(OracleUdf::new("pricey"), 10.0)),
            // Equal declared costs keep the written order, stage by stage.
            leaf("cheap").and(leaf("pricey")),
        ] {
            let tracker = CostTracker::new();
            let answers =
                evaluate_expr_batch_ctx(&expr, &t, &rows, &tracker, &ExecContext::sequential())
                    .expect("valid costs");
            let want: Vec<bool> = cheap_vals
                .iter()
                .zip(&pricey_vals)
                .map(|(&c, &p)| c && p)
                .collect();
            assert_eq!(answers, want);
            // 6 cheap probes + 3 survivors' pricey probes.
            assert_eq!(tracker.snapshot().evaluated, 6 + 3, "{expr:?}");
        }
    }

    #[test]
    fn or_skips_rows_an_earlier_child_accepted() {
        let cheap_vals = [true, false, true, false];
        let pricey_vals = [false, true, true, false];
        let t = table(&[("cheap", &cheap_vals), ("pricey", &pricey_vals)]);
        let rows: Vec<usize> = (0..4).collect();
        let expr = Pred::udf_with_cost(OracleUdf::new("pricey"), 10.0)
            .or(Pred::udf_with_cost(OracleUdf::new("cheap"), 1.0));
        let tracker = CostTracker::new();
        let answers =
            evaluate_expr_batch_ctx(&expr, &t, &rows, &tracker, &ExecContext::sequential())
                .expect("valid costs");
        assert_eq!(answers, vec![true, true, true, false]);
        // 4 cheap probes; only the 2 cheap-rejected rows reach pricey.
        assert_eq!(tracker.snapshot().evaluated, 4 + 2);
    }

    #[test]
    fn nan_cost_is_rejected_not_missorted() {
        // Regression: a NaN leaf cost used to feed a non-total comparator
        // into the stage sort (unspecified order; newer std sorts may
        // panic). The batch entry points now reject it up front…
        let vals = [true, false];
        let t = table(&[("a", &vals), ("b", &vals)]);
        let rows: Vec<usize> = (0..2).collect();
        let nan = Pred::udf_with_cost(OracleUdf::new("a"), f64::NAN).and(leaf("b"));
        let tracker = CostTracker::new();
        let err = evaluate_expr_batch_ctx(&nan, &t, &rows, &tracker, &ExecContext::sequential())
            .expect_err("NaN cost must be rejected");
        assert_eq!(err, InvalidCostsError);
        assert_eq!(tracker.snapshot().evaluated, 0, "no money was spent");
        assert!(err.to_string().contains("finite"));
        // …and the sort itself is total: non-finite costs order last,
        // deterministically, instead of panicking or shuffling.
        let parts = vec![
            Node::Leaf {
                udf: Arc::new(OracleUdf::new("a")),
                cost: f64::NAN,
                name: None,
            },
            Node::Leaf {
                udf: Arc::new(OracleUdf::new("b")),
                cost: 2.0,
                name: None,
            },
            Node::Leaf {
                udf: Arc::new(OracleUdf::new("a")),
                cost: f64::INFINITY,
                name: None,
            },
            Node::Leaf {
                udf: Arc::new(OracleUdf::new("b")),
                cost: 1.0,
                name: None,
            },
        ];
        assert_eq!(
            cost_order(&parts),
            vec![3, 1, 0, 2],
            "finite ascending, then non-finite in original order"
        );
    }

    #[test]
    fn required_columns_deduplicate_in_first_seen_order() {
        // Regression: leaves sharing a column used to report it once per
        // leaf, so validators re-checked (and re-reported) duplicates.
        let expr = leaf("b").and(leaf("a")).and(leaf("b").not().or(leaf("c")));
        assert_eq!(BooleanUdf::required_columns(&expr), vec!["b", "a", "c"]);
        let single = leaf("x").and(leaf("x"));
        assert_eq!(BooleanUdf::required_columns(&single), vec!["x"]);
    }

    #[test]
    fn fingerprints_derive_and_poison() {
        let a = leaf("a");
        let b = leaf("b");
        let ab = a.clone().and(b.clone());
        let ba = b.clone().and(a.clone());
        assert!(ab.fingerprint().is_some());
        assert_ne!(ab.fingerprint(), ba.fingerprint(), "order is identity");
        assert_ne!(
            a.clone().and(b.clone()).fingerprint(),
            a.clone().or(b.clone()).fingerprint(),
            "operator is identity"
        );
        assert_ne!(a.clone().not().fingerprint(), a.fingerprint());
        assert_eq!(
            a.clone().not().not().fingerprint(),
            a.fingerprint(),
            "double negation cancels"
        );
        // Costs are not identity: reordering cannot change answers.
        assert_eq!(
            Pred::udf_with_cost(OracleUdf::new("a"), 5.0)
                .and(leaf("b"))
                .fingerprint(),
            ab.fingerprint()
        );
        struct Anon;
        impl BooleanUdf for Anon {
            fn evaluate(&self, _: &Table, _: usize) -> bool {
                true
            }
        }
        assert_eq!(leaf("a").and(Pred::udf(Anon)).fingerprint(), None);
    }

    #[test]
    fn flattening_and_counts() {
        let e = leaf("a").and(leaf("b")).and(leaf("c").or(leaf("d")));
        assert_eq!(e.leaf_count(), 4);
        assert_eq!(e.cost(), 4.0);
        assert!(e.costs_valid());
        assert!(!e.is_pinned());
        assert!(!Pred::udf_with_cost(OracleUdf::new("a"), f64::NAN).costs_valid());
        assert!(!Pred::udf_with_cost(OracleUdf::new("a"), -1.0).costs_valid());
        let debug = format!("{e:?}");
        assert!(debug.starts_with("and("), "{debug}");
        assert!(debug.contains("or("), "{debug}");
    }

    #[test]
    fn render_requires_names_and_round_trips_structure() {
        // Combinator-built leaves carry no DSL name: nothing to render.
        assert_eq!(leaf("a").and(leaf("b")).render(), None);
        // Named leaves render with minimal parentheses.
        let named = |n: &str| leaf(n).with_leaf_name(n);
        let e = named("a")
            .and(named("b").or(named("c")).not())
            .or(named("d"));
        assert_eq!(e.render().as_deref(), Some("a and not (b or c) or d"));
        let flat = named("a").and(named("b")).and(named("c"));
        assert_eq!(flat.render().as_deref(), Some("a and b and c"));
    }

    #[test]
    fn session_cache_reuses_leaves_across_expressions() {
        let a = [true, false, true, false];
        let b = [true, true, false, false];
        let t = table(&[("a", &a), ("b", &b)]);
        let rows: Vec<usize> = (0..4).collect();
        let store = expred_exec::CacheStore::new();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);

        let first = CostTracker::new();
        evaluate_expr_batch_ctx(&leaf("a").and(leaf("b")), &t, &rows, &first, &ctx)
            .expect("valid costs");
        assert_eq!(first.snapshot().reuse_hits, 0, "cold session");

        // A *different* expression over the same leaves: every leaf probe
        // the conjunction already paid for arrives as reuse.
        let second = CostTracker::new();
        let answers =
            evaluate_expr_batch_ctx(&leaf("b").or(leaf("a").not()), &t, &rows, &second, &ctx)
                .expect("valid costs");
        let want: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| y || !x).collect();
        assert_eq!(answers, want);
        let counts = second.snapshot();
        assert!(counts.reuse_hits > 0, "leaves must be shared: {counts:?}");
        // The AND evaluated `a` on all 4 rows and `b` on the 2 survivors;
        // the second expression demands b on 4 and a on the b-rejected 2.
        assert_eq!(counts.evaluated + counts.reuse_hits, 4 + 2);
    }

    #[test]
    fn backends_agree() {
        let n = 500;
        let a: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let b: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let c: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
        let t = table(&[("a", &a), ("b", &b), ("c", &c)]);
        let rows: Vec<usize> = (0..n).rev().collect();
        let pool = expred_exec::WorkerPool::with_threads(4);
        for expr in [
            leaf("a").and(leaf("b").or(leaf("c").not())).or(leaf("c")),
            // A plain two-stage conjunction, as `ConjunctionUdf` chains.
            leaf("a").and(leaf("b")),
        ] {
            let seq_tracker = CostTracker::new();
            let want =
                evaluate_expr_batch_ctx(&expr, &t, &rows, &seq_tracker, &ExecContext::sequential())
                    .expect("valid costs");
            let pool_tracker = CostTracker::new();
            let got =
                evaluate_expr_batch_ctx(&expr, &t, &rows, &pool_tracker, &ExecContext::new(&pool))
                    .expect("valid costs");
            assert_eq!(want, got, "{expr:?}");
            assert_eq!(seq_tracker.snapshot(), pool_tracker.snapshot(), "{expr:?}");
        }
    }
}
