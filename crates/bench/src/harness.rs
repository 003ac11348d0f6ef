//! Shared experiment plumbing: iteration fan-out, aggregation, and
//! plain-text table rendering.

use expred_core::pipeline::RunOutcome;
use expred_stats::descriptive::Accumulator;
use expred_table::datasets::{all_specs, Dataset};

/// Global experiment knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessConfig {
    /// Iterations for cost experiments (the paper uses 50–100).
    pub iterations: usize,
    /// Iterations per ρ value for the accuracy experiments (paper: 100).
    pub rho_iterations: usize,
    /// Base seed; every iteration derives `seed + i`.
    pub seed: u64,
}

impl HarnessConfig {
    /// Paper-scale iteration counts.
    pub fn full() -> Self {
        Self {
            iterations: 50,
            rho_iterations: 100,
            seed: 7_001,
        }
    }

    /// Reduced counts for fast regeneration.
    pub fn quick() -> Self {
        Self {
            iterations: 8,
            rho_iterations: 30,
            seed: 7_001,
        }
    }
}

/// Generates the paper's four datasets with a fixed seed.
pub fn paper_datasets(seed: u64) -> Vec<Dataset> {
    all_specs()
        .into_iter()
        .map(|spec| Dataset::generate(spec, seed))
        .collect()
}

/// Runs `f(seed)` for `iterations` derived seeds, fanning out across a
/// couple of worker threads (the experiment binaries are run on small
/// machines; heavy parallelism buys little here).
pub fn run_many<F>(iterations: usize, base_seed: u64, f: F) -> Vec<RunOutcome>
where
    F: Fn(u64) -> RunOutcome + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(iterations.max(1));
    let seeds: Vec<u64> = (0..iterations as u64).map(|i| base_seed + i).collect();
    let mut out: Vec<Option<RunOutcome>> = (0..iterations).map(|_| None).collect();
    let chunk = iterations.div_ceil(workers.max(1));
    std::thread::scope(|scope| {
        for (slice, seed_chunk) in out.chunks_mut(chunk).zip(seeds.chunks(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (slot, &seed) in slice.iter_mut().zip(seed_chunk) {
                    *slot = Some(f(seed));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("all slots filled"))
        .collect()
}

/// Summary statistics over a set of runs.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Mean UDF evaluations per run.
    pub evaluated: f64,
    /// Mean retrievals per run.
    pub retrieved: f64,
    /// Mean total cost per run.
    pub cost: f64,
    /// Mean achieved precision.
    pub precision: f64,
    /// Mean achieved recall.
    pub recall: f64,
    /// Fraction of runs meeting the precision bound.
    pub precision_ok: f64,
    /// Fraction of runs meeting the recall bound.
    pub recall_ok: f64,
    /// Mean wall-clock compute seconds.
    pub compute_seconds: f64,
}

/// Aggregates outcomes against the bounds they were run with.
pub fn summarize(outcomes: &[RunOutcome], alpha: f64, beta: f64) -> RunStats {
    let mut eval = Accumulator::new();
    let mut retr = Accumulator::new();
    let mut cost = Accumulator::new();
    let mut prec = Accumulator::new();
    let mut rec = Accumulator::new();
    let mut secs = Accumulator::new();
    let mut p_ok = 0usize;
    let mut r_ok = 0usize;
    for o in outcomes {
        eval.push(o.counts.evaluated as f64);
        retr.push(o.counts.retrieved as f64);
        cost.push(o.cost);
        prec.push(o.summary.precision);
        rec.push(o.summary.recall);
        secs.push(o.compute_seconds);
        if o.summary.precision >= alpha {
            p_ok += 1;
        }
        if o.summary.recall >= beta {
            r_ok += 1;
        }
    }
    let n = outcomes.len().max(1) as f64;
    RunStats {
        evaluated: eval.mean(),
        retrieved: retr.mean(),
        cost: cost.mean(),
        precision: prec.mean(),
        recall: rec.mean(),
        precision_ok: p_ok as f64 / n,
        recall_ok: r_ok as f64 / n,
        compute_seconds: secs.mean(),
    }
}

/// A plain-text table with aligned columns and a markdown renderer.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor (for tests).
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders with space-aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(cell, &w)| format!("{cell:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_markdown() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.push_row(vec!["short", "1"]);
        t.push_row(vec!["a-much-longer-name", "2.5"]);
        let text = t.render();
        assert!(text.contains("a-much-longer-name"));
        assert!(text.lines().count() == 4);
        let md = t.render_markdown();
        assert!(md.starts_with("| name | value |"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(1, 1), "2.5");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn run_many_is_deterministic_and_ordered() {
        use expred_core::{run_naive_ctx, QuerySpec};
        use expred_exec::ExecContext;
        use expred_table::datasets::{Dataset, DatasetSpec, PROSPER};
        let ds = Dataset::generate(
            DatasetSpec {
                rows: 1_000,
                ..PROSPER
            },
            1,
        );
        let spec = QuerySpec::paper_default();
        let a = run_many(4, 10, |seed| {
            run_naive_ctx(&ds, &spec, seed, &ExecContext::sequential())
        });
        let b = run_many(4, 10, |seed| {
            run_naive_ctx(&ds, &spec, seed, &ExecContext::sequential())
        });
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.counts, y.counts);
        }
        // Stats aggregate sensibly.
        let stats = summarize(&a, spec.alpha, spec.beta);
        assert!(stats.evaluated > 0.0);
        assert!(stats.precision_ok >= 0.0 && stats.precision_ok <= 1.0);
    }

    #[test]
    fn paper_datasets_generate_all_four() {
        // Tiny smoke check on spec identity only (generation itself is
        // covered in expred-table).
        let specs = expred_table::datasets::all_specs();
        assert_eq!(specs.len(), 4);
    }
}
