//! The expred benchmark: closed-loop HTTP workloads against an
//! in-process `expred-serve`, every answer checked, and a traced
//! in-process replay that splits the same requests by layer.
//!
//! See `README.md` beside this crate for the workloads and metrics.

pub mod check;
pub mod http_run;
pub mod replay;
pub mod trace;
pub mod workload;

use crate::replay::{Answer, RequestPass, StagePass};
use crate::trace::Span;
use crate::workload::Workload;
use std::path::{Path, PathBuf};

/// A deliberate defect, injected to prove the checks catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Alter one body the HTTP run received.
    Body,
    /// Alter one stage-pass outcome.
    Stage,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Timed requests per client and round (default: the workload's).
    pub requests: Option<usize>,
    /// Rounds, each on a fresh server sent the same requests (default:
    /// as many as fill `seconds`).
    pub rounds: Option<usize>,
    pub fault: Option<Fault>,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run printed.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Sorted-sample percentile by nearest rank.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile, at most 99, with at least ten samples
/// above it.
fn tail_percentile(n: usize) -> f64 {
    (1..=99)
        .rev()
        .map(f64::from)
        .find(|&p| n.saturating_sub(((p / 100.0) * n as f64).ceil() as usize) >= 10)
        .unwrap_or(50.0)
}

fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Requests per client a traced run replays after a warm restart.
const RESTART_REQUESTS: usize = 16;

/// Where the run keeps its data directories and span files.
fn run_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run-data")
}

/// Runs one workload and reports its metrics: the end-to-end set with
/// `trace` off, the per-layer set with it on.
pub fn run(opts: &Options) -> Report {
    let w = opts.workload;
    let timed = opts.requests.unwrap_or_else(|| w.timed_requests());
    let rounds = opts.rounds.unwrap_or_else(|| w.rounds(opts.seconds));
    let streams = w.streams(opts.seed, timed);
    let root = run_root().join(format!("{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut http = http_run::run(w, &streams, rounds, &root);
    if opts.fault == Some(Fault::Body) {
        if let Some(last) = http.responses[0].last_mut() {
            last.body.push(b' ');
        }
    }
    let baseline = replay::request_pass(
        w,
        &streams,
        Some(root.join("replay")),
        false,
        &http.responses,
    );
    let records = &baseline.records;
    let mut verdict = check::verify(&streams, &http.responses, records, &http.counters);
    // Later rounds repeat the first round's requests on fresh servers:
    // they are checked against the first round, which the replay and the
    // accuracy checks verified.
    let later_rounds = (http.rounds.len() as u64).saturating_sub(1);
    let per_round: u64 = streams.iter().map(|s| s.bodies.len() as u64).sum();
    verdict.attempted += later_rounds * per_round;
    verdict.fail_n("round_differs", http.round_mismatches);
    verdict.fail_n("round_counters_differ", http.counter_mismatches);

    let mut notes = vec![format!(
        "perfbench: workload={} seed={} clients={} rounds={} requests/client/round={} (warm-up {})",
        w.name(),
        opts.seed,
        streams.len(),
        http.rounds.len(),
        streams[0].bodies.len(),
        streams[0].warmup,
    )];

    let metrics = if opts.trace {
        let traced = replay::request_pass(
            w,
            &streams,
            Some(root.join("replay-traced")),
            true,
            &http.responses,
        );
        let unmatched = traced
            .records
            .iter()
            .flatten()
            .zip(records.iter().flatten())
            .filter(|(t, b)| t.body_matches != b.body_matches || t.outcome != b.outcome)
            .count();
        verdict.fail_n("traced_replay_differs", unmatched as u64);
        let tamper = (opts.fault == Some(Fault::Stage))
            .then(|| {
                traced.records[0]
                    .iter()
                    .position(|r| r.outcome.is_some())
                    .map(|i| (0, i))
            })
            .flatten();
        let stage = replay::stage_pass(w, &streams, &traced, true, tamper);
        verdict.fail_n("stage_outcome_differs", stage.mismatches as u64);
        notes.push(format!(
            "perfbench: stage pass replayed {} memo misses, {} differed",
            stage.replayed, stage.mismatches
        ));
        let restart = w.persists().then(|| {
            let restart =
                replay::restart_pass(w, &streams, root.join("replay-traced"), RESTART_REQUESTS);
            notes.push(format!(
                "perfbench: warm restart replayed {} requests: {} rows rehydrated, {} fresh evaluations",
                restart.replayed, restart.rehydrated_rows, restart.fresh_evals
            ));
            restart
        });
        let spans_path = run_root().join(format!("spans-{}.tsv", w.name()));
        let passes: [(&str, &[Vec<Span>]); 2] =
            [("request", &traced.spans), ("stage", &stage.spans)];
        match trace::write_spans(&spans_path, &passes) {
            Ok(()) => notes.push(format!(
                "perfbench: spans written to {}",
                spans_path.display()
            )),
            Err(e) => notes.push(format!("perfbench: writing spans failed: {e}")),
        }
        layer_metrics(
            &http,
            &streams,
            &baseline,
            &traced,
            &stage,
            restart.unwrap_or_default(),
            &mut notes,
        )
    } else {
        end_to_end_metrics(&http, &verdict, &mut notes)
    };
    let _ = std::fs::remove_dir_all(&root);

    if !verdict.reasons.is_empty() {
        notes.push(format!(
            "perfbench: failures by reason: {:?}",
            verdict.reasons
        ));
    }
    notes.push(format!(
        "perfbench: exact counts per round: bill={} fresh_evals={} memo_evictions={} 200s={} \
         precision_met={} recall_met={}; failed={}",
        http.counters.bill,
        http.counters.fresh_evals,
        http.counters.memo_evictions,
        verdict.ok_200,
        verdict.precision_met,
        verdict.recall_met,
        verdict.failed
    ));
    Report {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
    }
}

fn end_to_end_metrics(
    http: &http_run::HttpRun,
    verdict: &check::Verdict,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let rounds = &http.rounds;
    let pooled = http.pooled_latencies_ns();
    let n = pooled.len();
    let tail = tail_percentile(n);
    let timed_s: f64 = rounds.iter().map(|r| r.timed_s).sum();
    notes.push(format!(
        "perfbench: {} rounds; latency_p99_ms is p{tail} of {n} timed samples; setup_s is the median of [{}]",
        rounds.len(),
        rounds
            .iter()
            .map(|r| format!("{:.4}", r.setup_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let ms = |ns: u64| ns as f64 / 1e6;
    // Counts are per round (every round repeats them exactly); the
    // accuracy shares come from the first round's verified answers.
    let sent = verdict.ok_200.max(1) as f64;
    let sent_per_round = (verdict.attempted as f64 / rounds.len() as f64).max(1.0);
    let verified = verdict.attempted.saturating_sub(verdict.failed) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("throughput_qps", ratio(n as f64, timed_s), "queries/s"),
        m("latency_p50_ms", ms(percentile(&pooled, 50.0)), "ms"),
        m("latency_p99_ms", ms(percentile(&pooled, tail)), "ms"),
        m(
            "bill_per_query",
            ratio(http.counters.bill, sent_per_round),
            "cost_units",
        ),
        m(
            "fresh_evals_per_query",
            ratio(http.counters.fresh_evals as f64, sent_per_round),
            "evaluations",
        ),
        m(
            "precision_met_pct",
            100.0 * ratio(verdict.precision_met as f64, sent),
            "%",
        ),
        m(
            "recall_met_pct",
            100.0 * ratio(verdict.recall_met as f64, sent),
            "%",
        ),
        m(
            "verified_pct",
            100.0 * ratio(verified, verdict.attempted as f64),
            "%",
        ),
        m(
            "setup_s",
            median_f64(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            "s",
        ),
        // The first round's peak: later rounds start with whatever the
        // allocator kept from earlier rounds' servers.
        m("peak_rss_mb", rounds[0].peak_rss_mb, "MiB"),
    ]
}

/// Σ duration (ns) and count of every span named `name`.
fn span_total(spans: &[Vec<Span>], name: &str) -> (f64, usize) {
    spans
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, c), s| (t + s.duration_ns() as f64, c + 1))
}

fn span_mean_ns(spans: &[Vec<Span>], name: &str) -> f64 {
    let (total, count) = span_total(spans, name);
    ratio(total, count as f64)
}

fn layer_metrics(
    http: &http_run::HttpRun,
    streams: &[workload::ClientStream],
    baseline: &RequestPass,
    traced: &RequestPass,
    stage: &StagePass,
    restart: replay::Restart,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let c = &traced.counters;
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let mean = |name| span_mean_ns(&traced.spans, name);

    // serve.http_us (derived): the HTTP run's median latency minus the
    // median in-process request span over the same timed requests.
    let http_p50 = percentile(&http.pooled_latencies_ns(), 50.0) as f64;
    let mut request_spans: Vec<u64> = traced
        .spans
        .iter()
        .zip(streams)
        .flat_map(|(spans, stream)| {
            spans
                .iter()
                .filter(move |s| s.name == "request" && s.request as usize >= stream.warmup)
                .map(Span::duration_ns)
        })
        .collect();
    request_spans.sort_unstable();
    let http_us = us(http_p50 - percentile(&request_spans, 50.0) as f64);
    notes.push(format!(
        "perfbench: serve.http_us is derived: HTTP p50 (all rounds) minus in-process request-span p50 over {} timed requests",
        request_spans.len()
    ));

    let materializations = traced
        .records
        .iter()
        .flatten()
        .filter(|r| r.materialized)
        .count();
    // Mean dataset-call time over the calls that generated a table.
    let materialize_total: f64 = traced
        .spans
        .iter()
        .zip(&traced.records)
        .flat_map(|(spans, records)| {
            spans
                .iter()
                .filter(|s| s.name == "table.dataset" && records[s.request as usize].materialized)
                .map(|s| s.duration_ns() as f64)
        })
        .sum();

    let stage_spans = &stage.spans;
    let stage_requests = stage.replayed as f64;
    let per_stage_request = |name| ratio(span_total(stage_spans, name).0, stage_requests);
    let unstaged = ["pipeline.naive", "pipeline.optimal", "pipeline.adaptive"]
        .iter()
        .map(|n| span_total(stage_spans, n).0)
        .sum::<f64>();

    let answers = |a: Answer| {
        traced
            .records
            .iter()
            .flatten()
            .filter(|r| r.answer == a)
            .count()
    };
    notes.push(format!(
        "perfbench: submits: {} memo hits, {} misses, {} first on a table instance",
        answers(Answer::Hit),
        answers(Answer::Miss),
        answers(Answer::First)
    ));
    let session = c.session;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("serve.parse_us", us(mean("serve.parse")), "us"),
        m("serve.route_us", us(mean("serve.route")), "us"),
        m("serve.render_us", us(mean("serve.render")), "us"),
        m("serve.http_us", http_us, "us"),
        m(
            "engine.result_hit_ratio",
            ratio(c.result_hits as f64, c.queries as f64),
            "ratio",
        ),
        m("engine.dedup_joins", c.dedup_joins as f64, "count"),
        m("engine.memo_evictions", c.memo_evictions as f64, "count"),
        m("engine.submit_hit_us", us(mean("engine.submit_hit")), "us"),
        m(
            "engine.submit_miss_ms",
            ms(mean("engine.submit_miss")),
            "ms",
        ),
        m(
            "engine.submit_first_ms",
            ms(mean("engine.submit_first")),
            "ms",
        ),
        m(
            "table.materialize_ms",
            ms(ratio(materialize_total, materializations as f64)),
            "ms",
        ),
        m("table.materializations", materializations as f64, "count"),
        m(
            "table.derived_hit_ratio",
            ratio(
                c.derived_hits as f64,
                (c.derived_hits + c.derived_misses) as f64,
            ),
            "ratio",
        ),
        m(
            "table.group_by_us",
            us(span_mean_ns(stage_spans, "table.group_by")),
            "us",
        ),
        m(
            "pipeline.sample_ms",
            ms(per_stage_request("pipeline.sample")),
            "ms",
        ),
        m(
            "pipeline.solve_us",
            us(per_stage_request("pipeline.solve")),
            "us",
        ),
        m(
            "pipeline.execute_ms",
            ms(per_stage_request("pipeline.execute")),
            "ms",
        ),
        m(
            "pipeline.unstaged_ms",
            ms(ratio(unstaged, stage_requests)),
            "ms",
        ),
        m("ml.learning_ms", ms(per_stage_request("ml.learning")), "ms"),
        m("udf.fresh_evals", session.evaluated as f64, "count"),
        m(
            "udf.reuse_ratio",
            ratio(
                session.reuse_hits as f64,
                (session.reuse_hits + session.evaluated + session.cache_hits) as f64,
            ),
            "ratio",
        ),
        m(
            "exec.row_hit_ratio",
            ratio(c.row_hits as f64, (c.row_hits + c.row_misses) as f64),
            "ratio",
        ),
        m("exec.row_evictions", c.row_evictions as f64, "count"),
        m("persist.appended", c.persist_appended as f64, "count"),
        m(
            "persist.rehydrated_rows",
            restart.rehydrated_rows as f64,
            "count",
        ),
        m("persist.restart_submit_ms", ms(restart.submit_ns), "ms"),
        m(
            "persist.restart_fresh_evals",
            restart.fresh_evals as f64,
            "count",
        ),
        m("persist.shed", c.persist_shed as f64, "count"),
        m("persist.compactions", c.persist_compactions as f64, "count"),
        m("persist.fsyncs", c.persist_fsyncs as f64, "count"),
        m(
            "persist.bytes_per_answer",
            ratio(c.data_bytes as f64, c.persist_appended as f64),
            "bytes",
        ),
        m(
            "trace.overhead_pct",
            100.0 * ratio(traced.wall_s - baseline.wall_s, baseline.wall_s),
            "%",
        ),
    ]
}
