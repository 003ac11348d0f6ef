//! The [`InFlightWindow`] backend: a bounded window of concurrently
//! outstanding probes with out-of-order completion.
//!
//! [`crate::WorkerPool`] hands its workers chunks of rows, which is right
//! for CPU-bound probes but wrong for *remote* ones: one slow tail call
//! parks the rest of its chunk while other workers idle. This backend
//! instead keeps exactly `window` probes outstanding at all times — each
//! worker claims the next unclaimed batch slot from an atomic cursor the
//! moment its previous probe answers, so completion order is whatever
//! the far side produces and a straggler only ever holds back *itself*.
//! Answers still land by input index (the `Executor` contract), so the
//! out-of-order completion is invisible to callers.
//!
//! This is the scheduling half of a remote UDF backend: pair it with a
//! probe that performs a blocking RPC (e.g. `expred-remote`'s pooled
//! client) and the window size becomes the connection-pool in-flight
//! budget — connection-pool math, not core-count math.

use crate::executor::{BatchProbe, Executor};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates batches with at most `window` probes in flight at once,
/// each claimed one slot at a time from a shared cursor.
#[derive(Debug, Clone, Copy)]
pub struct InFlightWindow {
    window: usize,
}

/// Default in-flight window: sized like a small connection pool, not
/// like a core count — latency-bound probes overlap regardless of CPUs.
pub const DEFAULT_WINDOW: usize = 16;

impl InFlightWindow {
    /// A backend keeping at most `window` probes outstanding (min 1).
    pub fn new(window: usize) -> Self {
        Self {
            window: window.max(1),
        }
    }

    /// The configured in-flight budget.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Default for InFlightWindow {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW)
    }
}

impl Executor for InFlightWindow {
    fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
        if rows.is_empty() {
            return Vec::new();
        }
        let workers = self.window.min(rows.len());
        if workers == 1 {
            return rows.iter().map(|&row| probe.probe(row)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut answers = vec![false; rows.len()];
        // Each worker claims slots one at a time and records (slot,
        // answer) locally; the merge after the scope lands everything by
        // input index, so scheduling never leaks into the result.
        let mut partials: Vec<Vec<(usize, bool)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, bool)> = Vec::new();
                        loop {
                            let slot = cursor.fetch_add(1, Ordering::Relaxed);
                            if slot >= rows.len() {
                                return local;
                            }
                            local.push((slot, probe.probe(rows[slot])));
                        }
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => partials.push(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        for (slot, answer) in partials.into_iter().flatten() {
            answers[slot] = answer;
        }
        answers
    }

    fn name(&self) -> &str {
        "in_flight_window"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sequential;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn matches_sequential_exactly() {
        let probe = |row: usize| (row * 2654435761) % 5 < 2;
        let rows: Vec<usize> = (0..777).rev().collect();
        for window in [1, 2, 7, 16, 1024] {
            assert_eq!(
                InFlightWindow::new(window).evaluate_batch(&probe, &rows),
                Sequential.evaluate_batch(&probe, &rows),
                "window = {window}"
            );
        }
    }

    #[test]
    fn each_slot_probed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let probe = |_row: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        };
        let rows: Vec<usize> = (0..301).map(|i| i % 13).collect();
        InFlightWindow::new(8).evaluate_batch(&probe, &rows);
        assert_eq!(calls.load(Ordering::Relaxed), rows.len());
    }

    #[test]
    fn straggler_holds_back_only_itself() {
        // One 80ms probe among 15 fast ones, window 4: total must be far
        // under the ~(80 + 15*80/4)ms a chunked schedule could cost if
        // the straggler parked its chunk. Generous bound for CI.
        let probe = |row: usize| {
            if row == 0 {
                std::thread::sleep(Duration::from_millis(80));
            }
            true
        };
        let rows: Vec<usize> = (0..16).collect();
        let start = Instant::now();
        InFlightWindow::new(4).evaluate_batch(&probe, &rows);
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "straggler stalled the window: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn window_is_clamped_and_reported() {
        assert_eq!(InFlightWindow::new(0).window(), 1);
        assert_eq!(InFlightWindow::default().window(), DEFAULT_WINDOW);
        assert_eq!(InFlightWindow::new(3).name(), "in_flight_window");
    }

    #[test]
    fn empty_batch_is_empty() {
        let probe = |_row: usize| true;
        assert!(InFlightWindow::new(4)
            .evaluate_batch(&probe, &[])
            .is_empty());
    }

    #[test]
    fn probe_panic_propagates() {
        let probe = |row: usize| {
            if row == 5 {
                panic!("boom");
            }
            true
        };
        let rows: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            InFlightWindow::new(4).evaluate_batch(&probe, &rows)
        }));
        assert!(result.is_err(), "panic must not be swallowed");
    }
}
