//! [`ExecContext`]: the one execution parameter every pipeline takes.
//!
//! Before this type existed, each new runtime capability grew another
//! `*_with(...)` variant on every pipeline entry point (first an
//! executor, next a cache store, then a batch budget…). The context
//! bundles all of it: which [`Executor`] evaluates batches, which
//! [`CacheStore`] (if any) outlives the query, and the in-flight budget
//! batch planners should respect. Every pipeline and stage takes one
//! context; [`ExecContext::sequential`] is the one-at-a-time, cache-less
//! run, and every other context returns the same answers and bill.

use crate::adaptive::AdaptiveController;
use crate::executor::{Executor, Sequential};
use crate::planner::{BatchPlanner, DEFAULT_MAX_IN_FLIGHT};
use crate::selectivity::SelectivityTracker;
use crate::store::CacheStore;
use expred_table::DerivedCache;
use std::time::Duration;

/// The sequential backend as a `'static` borrow for default contexts.
static SEQUENTIAL: Sequential = Sequential;

/// How a query executes: backend, cross-query cache, batching budget.
///
/// `Copy` and cheap — pipelines pass it by reference, helpers may copy it
/// to narrow lifetimes. Constructed either standalone (one-shot queries)
/// or by a session engine that owns the executor and store.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// The backend UDF batches run through.
    pub executor: &'a dyn Executor,
    /// The cross-query cache, if this query runs inside a session.
    pub cache: Option<&'a CacheStore>,
    /// Cap on rows per drain slice of the planners built by
    /// [`ExecContext::planner`] (plan execution). Batches a pipeline
    /// hands to the executor directly — sampling, labelling, Naive's
    /// `β` fraction — go over whole, whatever their size.
    pub max_in_flight: usize,
    /// Artificial per-evaluation latency pipelines should add to their
    /// UDFs — `None` for the real (instantaneous oracle) predicate.
    /// Benchmarks and load tests use this to serve a genuinely expensive
    /// workload through the full session stack; answers and audited
    /// counts are unaffected (latency is not part of any cache identity).
    pub udf_latency: Option<Duration>,
    /// The session's shared latency model, if batching should adapt:
    /// planners built by [`ExecContext::planner`] feed it and size their
    /// drain slices from it (between the controller's floor and
    /// `max_in_flight`). `None` keeps the fixed `max_in_flight` slicing.
    /// Answers and bills are identical either way.
    pub adaptive: Option<&'a AdaptiveController>,
    /// The session's derived-data cache (group partitions, encoding
    /// dictionaries), if this query runs inside a session. Entries are
    /// keyed by `(table id, version, column)`, so pipelines may reuse
    /// them freely: outputs are byte-identical with or without it.
    pub derived: Option<&'a DerivedCache>,
    /// The session's observed per-leaf pass rates, if this query runs
    /// inside a session: audited invokers feed it with every fresh
    /// answer, and the expression optimizer reads it to reorder
    /// `AND`/`OR` siblings. Statistics only — it never changes answers.
    pub selectivity: Option<&'a SelectivityTracker>,
}

impl<'a> ExecContext<'a> {
    /// A context running on `executor`, cache-less, default batching.
    pub fn new(executor: &'a dyn Executor) -> Self {
        Self {
            executor,
            cache: None,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            udf_latency: None,
            adaptive: None,
            derived: None,
            selectivity: None,
        }
    }

    /// Sequential, cache-less, default batching: the one-at-a-time run.
    pub fn sequential() -> ExecContext<'static> {
        ExecContext::new(&SEQUENTIAL)
    }

    /// Attaches a cross-query cache store.
    pub fn with_cache(mut self, store: &'a CacheStore) -> Self {
        self.cache = Some(store);
        self
    }

    /// Overrides the per-batch in-flight budget (at least 1).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// Asks pipelines to add `latency` to every fresh UDF evaluation
    /// (a zero duration means no delay).
    pub fn with_udf_latency(mut self, latency: Duration) -> Self {
        self.udf_latency = (!latency.is_zero()).then_some(latency);
        self
    }

    /// Attaches a shared [`AdaptiveController`]: every planner built
    /// from this context learns from and is sized by it.
    pub fn with_adaptive(mut self, controller: &'a AdaptiveController) -> Self {
        self.adaptive = Some(controller);
        self
    }

    /// Attaches a session [`DerivedCache`]: pipelines serve group
    /// partitions and encoding dictionaries from it instead of
    /// re-deriving per query.
    pub fn with_derived(mut self, derived: &'a DerivedCache) -> Self {
        self.derived = Some(derived);
        self
    }

    /// Attaches a session [`SelectivityTracker`]: audited invokers feed
    /// observed pass rates into it, and the expression optimizer ranks
    /// `AND`/`OR` siblings by them.
    pub fn with_selectivity(mut self, tracker: &'a SelectivityTracker) -> Self {
        self.selectivity = Some(tracker);
        self
    }

    /// A batch planner honoring this context's in-flight budget (and its
    /// adaptive controller, when one is attached).
    pub fn planner(&self) -> BatchPlanner {
        let planner = BatchPlanner::with_max_in_flight(self.max_in_flight);
        match self.adaptive {
            Some(controller) => planner.adaptive(controller.clone()),
            None => planner,
        }
    }
}

impl std::fmt::Debug for ExecContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("executor", &self.executor.name())
            .field("cached", &self.cache.is_some())
            .field("max_in_flight", &self.max_in_flight)
            .field("udf_latency", &self.udf_latency)
            .field("adaptive", &self.adaptive.is_some())
            .field("derived", &self.derived.is_some())
            .field("selectivity", &self.selectivity.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_context_is_cacheless_and_default_budgeted() {
        let ctx = ExecContext::sequential();
        assert_eq!(ctx.executor.name(), "sequential");
        assert!(ctx.cache.is_none());
        assert_eq!(ctx.max_in_flight, DEFAULT_MAX_IN_FLIGHT);
        assert_eq!(ctx.planner().max_in_flight(), DEFAULT_MAX_IN_FLIGHT);
    }

    #[test]
    fn builders_compose() {
        let store = CacheStore::new();
        let derived = DerivedCache::new();
        let selectivity = SelectivityTracker::new();
        let ctx = ExecContext::new(&Sequential)
            .with_cache(&store)
            .with_derived(&derived)
            .with_selectivity(&selectivity)
            .with_max_in_flight(0);
        assert!(ctx.cache.is_some());
        assert!(ctx.derived.is_some());
        assert!(ctx.selectivity.is_some());
        assert!(ExecContext::sequential().derived.is_none());
        assert!(ExecContext::sequential().selectivity.is_none());
        assert_eq!(ctx.max_in_flight, 1, "budget clamps to >= 1");
        let copy = ctx; // Copy must hold: contexts are passed around freely.
        assert_eq!(copy.planner().max_in_flight(), 1);
        assert!(format!("{ctx:?}").contains("sequential"));
    }

    #[test]
    fn debug_shows_injected_udf_latency() {
        let plain = format!("{:?}", ExecContext::sequential());
        let slow = format!(
            "{:?}",
            ExecContext::sequential().with_udf_latency(Duration::from_micros(100))
        );
        assert!(plain.contains("udf_latency: None"), "{plain}");
        assert!(slow.contains("udf_latency: Some(100µs)"), "{slow}");
        assert_ne!(plain, slow);
    }

    #[test]
    fn adaptive_controller_threads_into_planners() {
        let controller = AdaptiveController::with_floor(8);
        let ctx = ExecContext::new(&Sequential)
            .with_max_in_flight(512)
            .with_adaptive(&controller);
        let planner = ctx.planner();
        assert_eq!(planner.effective_in_flight(), 8, "floor before learning");
        for _ in 0..16 {
            controller.observe(1, Duration::from_millis(1));
        }
        assert_eq!(
            ctx.planner().effective_in_flight(),
            512,
            "ms-probes deepen to the budget"
        );
        assert!(ExecContext::sequential().adaptive.is_none());
    }
}
