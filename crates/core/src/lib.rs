//! `expred-core` — the paper's primary contribution.
//!
//! Correlation-aware evaluation of selection queries with expensive UDF
//! predicates, under user-specified precision (`α`), recall (`β`) and
//! satisfaction-probability (`ρ`) constraints:
//!
//! * [`query`] / [`plan`] — the accuracy contract and the per-group
//!   probabilistic plan `(R_a, E_a)`.
//! * [`optimize`] — Problem 2 (perfect selectivities, Hoeffding slack,
//!   BiGreedy) and Problem 3 (estimated selectivities, Chebyshev slack,
//!   ConvexProgs 3.10/3.11/4.1 via a monotone fixed-point).
//! * [`sampling`] — §4: per-group sampling rules (Constant,
//!   Two-Third-Power, fixed fraction), Beta-posterior estimates, and the
//!   adaptive `num` search.
//! * [`column_select`] — §4.4: ranking real columns, and the logistic
//!   virtual column.
//! * [`execute`] — the probabilistic executor with sample reuse.
//! * [`pipeline`] — end-to-end contestants: Intel-Sample, Optimal, Naive.
//! * [`baselines`] — the ML baselines Learning and Multiple.
//! * [`extensions`] — §5: budgeted objectives, multiple predicates, and
//!   selection-before-join weighting.
//! * [`engine`] — the session layer: [`QueryEngine`] runs many queries
//!   against one executor, one cross-query [`expred_exec::CacheStore`],
//!   and a memo of whole query outcomes. The engine is `Send + Sync`
//!   with `submit(&self)`, so one session serves many worker threads
//!   directly (its result memo is an [`expred_stats::ClockCache`]).
//! * [`request`] / [`strategy`] / [`error`] — the primary query surface:
//!   a [`QueryRequest`] builder over an open, object-safe
//!   [`Strategy`] trait (the seven pipelines ship as built-in
//!   implementations, plus [`strategy::ExprScan`] for
//!   [`expred_udf::PredicateExpr`] multi-predicate requests), submitted
//!   via the fallible [`QueryEngine::submit`] — invalid input surfaces
//!   as a typed [`EngineError`] instead of a panic.
//!
//! Every pipeline and stage has one entry point, a `*_ctx(…, ctx)`
//! function taking one [`expred_exec::ExecContext`]:
//! `ExecContext::sequential()` is the one-at-a-time, cache-less run, and
//! `ExecContext::new(executor)` routes probes through any backend with
//! the same answers and bill. [`QueryEngine::submit`] is the
//! session-level entry point over all of them.

pub mod adaptive;
pub mod baselines;
pub mod column_select;
pub mod engine;
pub mod error;
pub mod execute;
pub mod extensions;
pub mod optimize;
pub mod persistence;
pub mod pipeline;
pub mod plan;
pub mod query;
pub mod request;
pub mod sampling;
pub mod strategy;

pub use adaptive::{run_intel_sample_adaptive_ctx, run_intel_sample_iterative_ctx};
pub use baselines::{run_learning_ctx, run_multiple_ctx};
pub use engine::{EngineStats, QueryEngine};
pub use error::EngineError;
pub use execute::{execute_plan_ctx, truth_vector, ExecutionResult};
pub use optimize::{
    estimated_feasible, solve_estimated, solve_perfect_selectivities, CorrelationModel,
    EstimatedGroup, PlanError,
};
pub use persistence::PersistSessionStats;
// Re-exported so engine users can configure persistence without a direct
// `expred-persist` dependency.
pub use expred_persist::{FsyncPolicy, PersistConfig, PersistError};
pub use pipeline::{
    run_intel_sample_ctx, run_naive_ctx, run_optimal_ctx, IntelSampleConfig, PredictorChoice,
    RunOutcome,
};
pub use plan::Plan;
pub use query::QuerySpec;
pub use request::{InfeasiblePolicy, QueryRequest};
pub use sampling::{adaptive_num_search_ctx, sample_groups_ctx, GroupSample, SampleSizeRule};
pub use strategy::{Fingerprint, Strategy, StrategyIdentity};
