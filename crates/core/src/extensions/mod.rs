//! Extensions beyond the core single-predicate query (paper §5, §10.7).
//!
//! These follow the paper's sketches; where the paper leaves the
//! formulation at the expectation level (no concentration slack is
//! derived for the extensions), so do we — each module documents that.

pub mod budget;
pub mod join;
pub mod multi_predicate;

pub use budget::{maximize_recall_under_budget, BudgetOutcome};
pub use join::{solve_select_join, JoinSubgroup};
pub use multi_predicate::{
    solve_multi_predicate, solve_predicate_chain, ChainGroup, ChainPlan, MultiAction, MultiCost,
    MultiPlan, PredicatePairGroup,
};
