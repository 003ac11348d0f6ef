//! [`BatchPlanner`]: accumulate pending probes per correlation group,
//! drain them through an [`Executor`] under an in-flight budget.
//!
//! The probabilistic executor decides *which* rows to evaluate while
//! walking groups in order; the planner decouples that decision from the
//! evaluation itself. Queued probes are drained group-by-group (tuples of
//! one correlation group tend to touch the same columns and caches), in
//! slices of at most `max_in_flight` rows, so a plan that wants a million
//! evaluations never materializes a million concurrent probes.
//!
//! With an [`AdaptiveController`] attached ([`BatchPlanner::adaptive`]),
//! the *effective* slice size floats between the controller's floor and
//! `max_in_flight`, steered by an EWMA of the per-probe latency each
//! drained slice observes — tiny slices for µs-probes (nothing to
//! amortize, less materialized at once), deep slices for ms-probes (keep
//! a worker pool saturated through the straggler tail). Slicing is
//! invisible to answers and bills: output order and invoker accounting
//! are slice-invariant, which the equivalence suite pins bit for bit.

use crate::adaptive::AdaptiveController;
use crate::executor::{BatchProbe, Executor};
use std::time::Instant;

/// Default cap on rows handed to one `evaluate_batch` call.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 4096;

/// One drained probe: which group and row it belonged to and the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedAnswer {
    /// The correlation group the row was queued under.
    pub group: usize,
    /// The evaluated row id.
    pub row: usize,
    /// The predicate's answer.
    pub answer: bool,
}

/// A queue of `(group, row)` probes awaiting evaluation.
#[derive(Debug, Clone, Default)]
pub struct BatchPlanner {
    max_in_flight: usize,
    pending: Vec<(usize, usize)>,
    adaptive: Option<AdaptiveController>,
}

impl BatchPlanner {
    /// A planner with the default in-flight budget.
    pub fn new() -> Self {
        Self::with_max_in_flight(DEFAULT_MAX_IN_FLIGHT)
    }

    /// A planner dispatching at most `max_in_flight` rows per batch
    /// (at least 1).
    pub fn with_max_in_flight(max_in_flight: usize) -> Self {
        Self {
            max_in_flight: max_in_flight.max(1),
            pending: Vec::new(),
            adaptive: None,
        }
    }

    /// Attaches a shared latency model: drained slices feed its EWMA and
    /// the effective slice size becomes [`AdaptiveController::window`]
    /// (still capped by this planner's `max_in_flight`).
    pub fn adaptive(mut self, controller: AdaptiveController) -> Self {
        self.adaptive = Some(controller);
        self
    }

    /// The slice size the next drained batch will use: the adaptive
    /// window when a controller is attached, `max_in_flight` otherwise.
    pub fn effective_in_flight(&self) -> usize {
        match &self.adaptive {
            Some(controller) => controller.window(self.max_in_flight),
            None => self.max_in_flight,
        }
    }

    /// Queues `row` of `group` for evaluation.
    pub fn enqueue(&mut self, group: usize, row: usize) {
        self.pending.push((group, row));
    }

    /// Number of queued, not-yet-drained probes.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The configured per-batch budget.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Evaluates everything queued, ordered by correlation group, in
    /// batches of at most `max_in_flight` rows (a batch may span a
    /// group boundary when a group's tail does not fill the budget).
    ///
    /// Answers come back ordered by group (ascending), preserving enqueue
    /// order within each group — a deterministic order independent of the
    /// executor backend. The queue is left empty.
    pub fn drain(&mut self, probe: &dyn BatchProbe, executor: &dyn Executor) -> Vec<GroupedAnswer> {
        self.drain_with(&mut |rows| executor.evaluate_batch(probe, rows))
    }

    /// Like [`BatchPlanner::drain`], but each batch goes through an
    /// arbitrary evaluation callback (e.g. an audited invoker that
    /// memoizes and charges costs before delegating to an executor).
    ///
    /// The callback receives at most `max_in_flight` rows per call and
    /// must return one answer per row, in order.
    pub fn drain_with(
        &mut self,
        evaluate: &mut dyn FnMut(&[usize]) -> Vec<bool>,
    ) -> Vec<GroupedAnswer> {
        let mut pending = std::mem::take(&mut self.pending);
        // Stable: enqueue order survives within a group.
        pending.sort_by_key(|&(group, _)| group);
        let mut out = Vec::with_capacity(pending.len());
        let mut index = 0;
        while index < pending.len() {
            // Re-read per slice: within one long drain the window deepens
            // as the controller learns the probes are expensive.
            let window = self.effective_in_flight().max(1);
            let slice = &pending[index..(index + window).min(pending.len())];
            index += slice.len();
            let rows: Vec<usize> = slice.iter().map(|&(_, row)| row).collect();
            let began = Instant::now();
            let answers = evaluate(&rows);
            if let Some(controller) = &self.adaptive {
                controller.observe(rows.len(), began.elapsed());
            }
            assert_eq!(
                answers.len(),
                rows.len(),
                "batch evaluation must answer every row"
            );
            out.extend(
                slice
                    .iter()
                    .zip(answers)
                    .map(|(&(group, row), answer)| GroupedAnswer { group, row, answer }),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sequential;
    use crate::pool::WorkerPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn drains_grouped_and_in_enqueue_order() {
        let mut planner = BatchPlanner::new();
        planner.enqueue(2, 20);
        planner.enqueue(0, 1);
        planner.enqueue(2, 21);
        planner.enqueue(1, 10);
        planner.enqueue(0, 3);
        assert_eq!(planner.pending(), 5);
        let probe = |row: usize| row % 2 == 1;
        let answers = planner.drain(&probe, &Sequential);
        assert_eq!(planner.pending(), 0);
        let order: Vec<(usize, usize)> = answers.iter().map(|a| (a.group, a.row)).collect();
        assert_eq!(order, vec![(0, 1), (0, 3), (1, 10), (2, 20), (2, 21)]);
        for a in &answers {
            assert_eq!(a.answer, a.row % 2 == 1);
        }
    }

    #[test]
    fn budget_splits_batches() {
        let mut planner = BatchPlanner::with_max_in_flight(3);
        for row in 0..10 {
            planner.enqueue(0, row);
        }
        let largest = AtomicUsize::new(0);
        struct Spy<'a> {
            largest: &'a AtomicUsize,
        }
        impl Executor for Spy<'_> {
            fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
                self.largest.fetch_max(rows.len(), Ordering::Relaxed);
                Sequential.evaluate_batch(probe, rows)
            }
        }
        let probe = |row: usize| row < 5;
        let answers = planner.drain(&probe, &Spy { largest: &largest });
        assert_eq!(answers.len(), 10);
        assert!(largest.load(Ordering::Relaxed) <= 3);
        assert_eq!(answers.iter().filter(|a| a.answer).count(), 5);
    }

    #[test]
    fn backends_agree_through_the_planner() {
        let probe = |row: usize| (row / 3).is_multiple_of(2);
        let fill = |planner: &mut BatchPlanner| {
            for i in 0..200 {
                planner.enqueue(i % 7, 1000 - i);
            }
        };
        let mut a = BatchPlanner::with_max_in_flight(17);
        fill(&mut a);
        let mut b = BatchPlanner::with_max_in_flight(17);
        fill(&mut b);
        assert_eq!(
            a.drain(&probe, &Sequential),
            b.drain(&probe, &WorkerPool::with_threads(4))
        );
    }

    #[test]
    fn empty_drain_is_empty() {
        let mut planner = BatchPlanner::new();
        let probe = |_row: usize| true;
        assert!(planner.drain(&probe, &Sequential).is_empty());
    }

    #[test]
    fn adaptive_drain_matches_fixed_budget_drain_exactly() {
        let probe = |row: usize| row.is_multiple_of(3);
        let fill = |planner: &mut BatchPlanner| {
            for i in 0..500 {
                planner.enqueue(i % 11, 7 * i + 1);
            }
        };
        let mut fixed = BatchPlanner::with_max_in_flight(64);
        fill(&mut fixed);
        let controller = crate::AdaptiveController::with_floor(3);
        let mut adaptive = BatchPlanner::with_max_in_flight(64).adaptive(controller.clone());
        fill(&mut adaptive);
        assert_eq!(
            fixed.drain(&probe, &Sequential),
            adaptive.drain(&probe, &Sequential),
            "slicing must never leak into answers"
        );
        assert!(
            controller.latency_estimate().is_some(),
            "the drain must feed the controller"
        );
    }

    #[test]
    fn adaptive_window_starts_at_floor_and_respects_ceiling() {
        let controller = crate::AdaptiveController::with_floor(16);
        let planner = BatchPlanner::with_max_in_flight(256).adaptive(controller.clone());
        assert_eq!(planner.effective_in_flight(), 16);
        // Teach the controller the probes are slow: window deepens.
        for _ in 0..16 {
            controller.observe(1, std::time::Duration::from_millis(2));
        }
        assert_eq!(planner.effective_in_flight(), 256, "capped by the budget");
        let plain = BatchPlanner::with_max_in_flight(256);
        assert_eq!(plain.effective_in_flight(), 256);
    }
}
