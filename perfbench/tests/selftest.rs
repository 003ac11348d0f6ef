//! Self-test: short runs of the benchmark binary must print every metric
//! `BENCHMARK.json` declares, with its unit, and must fail when they
//! should — on an altered body, on a stage-pass outcome that differs from
//! its request-pass outcome — while exact counts repeat for a seed and
//! change with it.
//!
//! Run in release mode: `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use expred_stats::json::JsonValue;
use std::process::Command;

struct Run {
    code: i32,
    stdout: String,
    result: JsonValue,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    let result = JsonValue::parse(&last)
        .unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}\n{stdout}"));
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout,
        result,
    }
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric(run: &Run, name: &str) -> f64 {
    run.result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing:\n{}", run.stdout))
}

fn assert_prints_exactly(run: &Run, section: &str) {
    let metrics = run.result.get("metrics").expect("metrics object");
    let declared = declared(section);
    for (name, unit) in &declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{section} metric {name} not printed:\n{}", run.stdout));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "unit of {name}"
        );
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name} value"
        );
    }
    assert_eq!(
        metrics.keys().len(),
        declared.len(),
        "no undeclared metrics"
    );
}

fn assert_correct(run: &Run) {
    assert_eq!(run.code, 0, "{}", run.stdout);
    assert_eq!(
        run.result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        run.result.get("failed").and_then(JsonValue::as_u64),
        Some(0)
    );
    assert!(run.result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
}

fn assert_flagged(run: &Run, reason: &str) {
    assert_eq!(run.code, 1, "a defect must fail the run:\n{}", run.stdout);
    assert_eq!(
        run.result.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert!(run.result.get("failed").and_then(JsonValue::as_u64) >= Some(1));
    assert!(
        run.stdout.contains(reason),
        "expected {reason}:\n{}",
        run.stdout
    );
}

const SHORT: [&str; 6] = ["--seconds", "1", "--requests", "40", "--rounds", "2"];

fn short(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Run {
    let mut args = vec!["--workload", workload, "--seed", seed, "--trace", trace];
    args.extend(SHORT);
    args.extend(extra);
    run(&args)
}

#[test]
fn end_to_end_run_prints_every_declared_metric() {
    for workload in ["zipf_reuse", "cold_udf"] {
        let r = short(workload, "1", "0", &[]);
        assert_correct(&r);
        assert_prints_exactly(&r, "end_to_end");
        assert!(r.stdout.contains("seed=1"), "the seed is printed");
    }
}

#[test]
fn traced_run_prints_every_layer_metric_and_shows_each_workloads_work() {
    let zipf = short("zipf_reuse", "1", "1", &[]);
    assert_correct(&zipf);
    assert_prints_exactly(&zipf, "per_layer");
    assert!(zipf.stdout.contains(" 0 differed"), "{}", zipf.stdout);
    assert!(metric(&zipf, "engine.result_hit_ratio") > 0.0);
    assert!(metric(&zipf, "ml.learning_ms") > 0.0);
    for name in [
        "persist.appended",
        "persist.rehydrated_rows",
        "persist.fsyncs",
    ] {
        assert_eq!(metric(&zipf, name), 0.0, "{name} on an in-memory workload");
    }

    let cold = short("cold_udf", "1", "1", &[]);
    assert_correct(&cold);
    assert_prints_exactly(&cold, "per_layer");
    assert_eq!(metric(&cold, "engine.result_hit_ratio"), 0.0);
    assert_eq!(metric(&cold, "udf.reuse_ratio"), 0.0);
    assert!(metric(&cold, "udf.fresh_evals") > 0.0);
    assert_eq!(
        metric(&cold, "persist.appended"),
        metric(&cold, "udf.fresh_evals")
    );
    assert!(metric(&cold, "persist.rehydrated_rows") > 0.0);
}

#[test]
fn an_altered_body_is_an_error() {
    assert_flagged(
        &short("zipf_reuse", "1", "0", &["--fault", "body"]),
        "body_mismatch",
    );
}

#[test]
fn a_stage_outcome_that_differs_is_an_error() {
    assert_flagged(
        &short("cold_udf", "1", "1", &["--fault", "stage"]),
        "stage_outcome_differs",
    );
}

#[test]
fn exact_counts_repeat_for_a_seed_and_change_with_it() {
    let exact = ["bill_per_query", "fresh_evals_per_query"];
    let a = short("cold_udf", "1", "0", &[]);
    let b = short("cold_udf", "1", "0", &[]);
    let c = short("cold_udf", "2", "0", &[]);
    for name in exact {
        assert_eq!(metric(&a, name), metric(&b, name), "{name} repeats");
        assert_ne!(
            metric(&a, name),
            metric(&c, name),
            "{name} follows the seed"
        );
    }
}
