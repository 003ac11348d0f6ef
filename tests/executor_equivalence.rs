//! Backend-equivalence suite: the `WorkerPool` executor, at every width,
//! must be an exact drop-in for `Sequential` — identical result sets,
//! identical accuracy metrics, identical audited costs — for every
//! pipeline, on the bundled datasets, under fixed seeds, and regardless
//! of how the adaptive controller slices drains. Only wall-clock time
//! may differ.

use expred::core::{
    run_intel_sample_adaptive_ctx, run_intel_sample_ctx, run_intel_sample_iterative_ctx,
    run_learning_ctx, run_multiple_ctx, run_naive_ctx, run_optimal_ctx, CorrelationModel,
    IntelSampleConfig, PredictorChoice, QueryEngine, QueryRequest, QuerySpec, RunOutcome,
    SampleSizeRule,
};
use expred::exec::{AdaptiveController, ExecContext, Executor, Sequential, WorkerPool};
use expred::table::datasets::{Dataset, DatasetSpec, LENDING_CLUB, PROSPER};
use std::time::Duration;

fn small(spec: DatasetSpec, rows: usize, seed: u64) -> Dataset {
    Dataset::generate(DatasetSpec { rows, ..spec }, seed)
}

/// Backends under test: the persistent work-stealing pool at a single
/// worker, several small and oversubscribed widths, and machine-sized.
fn backends() -> Vec<Box<dyn Executor>> {
    vec![
        Box::new(WorkerPool::with_threads(1)),
        Box::new(WorkerPool::with_threads(2)),
        Box::new(WorkerPool::with_threads(3)),
        Box::new(WorkerPool::with_threads(5)),
        Box::new(WorkerPool::with_threads(7)),
        Box::new(WorkerPool::new()),
    ]
}

#[track_caller]
fn assert_identical(sequential: &RunOutcome, threaded: &RunOutcome, what: &str) {
    assert_eq!(
        sequential.returned, threaded.returned,
        "{what}: result sets differ"
    );
    assert_eq!(
        sequential.counts, threaded.counts,
        "{what}: audited action counts differ"
    );
    assert_eq!(sequential.cost, threaded.cost, "{what}: costs differ");
    assert_eq!(
        sequential.summary, threaded.summary,
        "{what}: precision/recall differ"
    );
    assert_eq!(
        sequential.num_groups, threaded.num_groups,
        "{what}: group counts differ"
    );
    assert_eq!(
        sequential.plan_feasible, threaded.plan_feasible,
        "{what}: feasibility verdicts differ"
    );
}

#[test]
fn naive_is_backend_invariant() {
    let ds = small(PROSPER, 4_000, 1);
    let spec = QuerySpec::paper_default();
    for seed in [1u64, 99] {
        let want = run_naive_ctx(&ds, &spec, seed, &ExecContext::new(&Sequential));
        for backend in backends() {
            let got = run_naive_ctx(&ds, &spec, seed, &ExecContext::new(backend.as_ref()));
            assert_identical(&want, &got, &format!("naive seed {seed}"));
        }
    }
}

#[test]
fn optimal_is_backend_invariant() {
    let ds = small(LENDING_CLUB, 5_000, 2);
    let spec = QuerySpec::paper_default();
    for seed in [3u64, 77] {
        let want = run_optimal_ctx(&ds, &spec, "grade", seed, &ExecContext::new(&Sequential));
        for backend in backends() {
            let got = run_optimal_ctx(
                &ds,
                &spec,
                "grade",
                seed,
                &ExecContext::new(backend.as_ref()),
            );
            assert_identical(&want, &got, &format!("optimal seed {seed}"));
        }
    }
}

#[test]
fn intel_sample_fixed_predictor_is_backend_invariant() {
    let ds = small(PROSPER, 5_000, 3);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    for seed in [5u64, 123] {
        let want = run_intel_sample_ctx(&ds, &cfg, seed, &ExecContext::new(&Sequential));
        for backend in backends() {
            let got = run_intel_sample_ctx(&ds, &cfg, seed, &ExecContext::new(backend.as_ref()));
            assert_identical(&want, &got, &format!("intel-sample seed {seed}"));
        }
    }
}

#[test]
fn intel_sample_auto_predictor_is_backend_invariant() {
    let ds = small(LENDING_CLUB, 4_000, 4);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Auto {
        label_fraction: 0.01,
    });
    let want = run_intel_sample_ctx(&ds, &cfg, 6, &ExecContext::new(&Sequential));
    for backend in backends() {
        let got = run_intel_sample_ctx(&ds, &cfg, 6, &ExecContext::new(backend.as_ref()));
        assert_identical(&want, &got, "intel-sample auto");
    }
}

#[test]
fn intel_sample_virtual_predictor_is_backend_invariant() {
    let ds = small(PROSPER, 4_000, 5);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Virtual {
        buckets: 10,
        label_fraction: 0.01,
    });
    let want = run_intel_sample_ctx(&ds, &cfg, 7, &ExecContext::new(&Sequential));
    for backend in backends() {
        let got = run_intel_sample_ctx(&ds, &cfg, 7, &ExecContext::new(backend.as_ref()));
        assert_identical(&want, &got, "intel-sample virtual");
    }
}

#[test]
fn adaptive_pipeline_is_backend_invariant() {
    let ds = small(PROSPER, 3_000, 6);
    let spec = QuerySpec::paper_default();
    let want = run_intel_sample_adaptive_ctx(
        &ds,
        &spec,
        CorrelationModel::Independent,
        "grade",
        8,
        &ExecContext::new(&Sequential),
    );
    for backend in backends() {
        let got = run_intel_sample_adaptive_ctx(
            &ds,
            &spec,
            CorrelationModel::Independent,
            "grade",
            8,
            &ExecContext::new(backend.as_ref()),
        );
        assert_identical(&want, &got, "adaptive");
    }
}

#[test]
fn iterative_pipeline_is_backend_invariant() {
    let ds = small(PROSPER, 3_000, 8);
    let spec = QuerySpec::paper_default();
    let run = |backend: &dyn Executor| {
        run_intel_sample_iterative_ctx(
            &ds,
            &spec,
            CorrelationModel::Independent,
            "grade",
            SampleSizeRule::Fraction(0.05),
            3,
            9,
            &ExecContext::new(backend),
        )
    };
    let want = run(&Sequential);
    for backend in backends() {
        let got = run(backend.as_ref());
        assert_identical(&want, &got, "iterative");
    }
}

#[test]
fn adaptive_planner_is_outcome_invariant() {
    // The adaptive window may slice drains any way it likes — a tiny
    // floor, a shared controller already convinced the probes are slow,
    // any backend — without moving a single byte of the outcome or bill.
    let ds = small(PROSPER, 4_000, 9);
    let spec = QuerySpec::paper_default();
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    let pool = WorkerPool::with_threads(4);
    let fresh = AdaptiveController::with_floor(3);
    let convinced = AdaptiveController::with_floor(16);
    for _ in 0..16 {
        convinced.observe(1, std::time::Duration::from_millis(2));
    }
    for seed in [2u64, 31] {
        let sequential = ExecContext::new(&Sequential);
        let want_naive = run_naive_ctx(&ds, &spec, seed, &sequential);
        let want_intel = run_intel_sample_ctx(&ds, &cfg, seed, &sequential);
        let want_optimal = run_optimal_ctx(&ds, &spec, "grade", seed, &sequential);
        for (name, ctx) in [
            (
                "fresh floor-3 sequential",
                ExecContext::new(&Sequential).with_adaptive(&fresh),
            ),
            (
                "fresh floor-3 pool",
                ExecContext::new(&pool).with_adaptive(&fresh),
            ),
            (
                "deep-window pool",
                ExecContext::new(&pool).with_adaptive(&convinced),
            ),
            (
                "deep-window tiny budget",
                ExecContext::new(&pool)
                    .with_adaptive(&convinced)
                    .with_max_in_flight(11),
            ),
        ] {
            let what = format!("adaptive {name} seed {seed}");
            assert_identical(&want_naive, &run_naive_ctx(&ds, &spec, seed, &ctx), &what);
            assert_identical(
                &want_intel,
                &run_intel_sample_ctx(&ds, &cfg, seed, &ctx),
                &what,
            );
            assert_identical(
                &want_optimal,
                &run_optimal_ctx(&ds, &spec, "grade", seed, &ctx),
                &what,
            );
        }
    }
}

#[test]
fn engine_on_worker_pool_matches_sequential_engine() {
    // The full session stack — engine, adaptive controller, row cache,
    // result memo — on the pool backend must bill and answer exactly
    // like the sequential engine, query for query.
    let ds = small(PROSPER, 3_000, 10);
    let spec = QuerySpec::paper_default();
    let queries = [
        QueryRequest::naive(spec),
        QueryRequest::intel_sample(IntelSampleConfig::experiment1(PredictorChoice::Fixed(
            "grade".into(),
        ))),
        QueryRequest::optimal(spec, "grade"),
    ];
    let sequential = QueryEngine::new();
    let pooled = QueryEngine::pooled();
    for (i, query) in queries.iter().enumerate() {
        let request = query.clone().with_seed(40 + i as u64);
        let want = sequential.submit(&ds, &request).unwrap();
        let got = pooled.submit(&ds, &request).unwrap();
        assert_identical(&want, &got, &format!("engine query {i}"));
    }
    assert_eq!(sequential.session_counts(), pooled.session_counts());
}

#[test]
fn legacy_entry_points_equal_sequential_with() {
    // The parameterless API must stay exactly what it was: Sequential.
    let ds = small(PROSPER, 3_000, 7);
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    let legacy = expred::core::run_intel_sample_ctx(&ds, &cfg, 11, &ExecContext::sequential());
    let explicit = run_intel_sample_ctx(&ds, &cfg, 11, &ExecContext::new(&Sequential));
    assert_identical(&legacy, &explicit, "legacy intel-sample");
}

/// One strategy's direct pipeline call: `run_*_ctx` with the strategy's
/// parameters bound.
type Direct = Box<dyn Fn(&Dataset, u64, &ExecContext<'_>) -> RunOutcome>;

/// All seven built-in strategies for a given contract, each as a request
/// and as the direct `run_*_ctx` pipeline it must be equivalent to.
fn all_seven(spec: QuerySpec) -> Vec<(QueryRequest, Direct)> {
    let cfg = IntelSampleConfig::experiment1(PredictorChoice::Fixed("grade".into()));
    let corr = CorrelationModel::Independent;
    let rule = SampleSizeRule::Fraction(0.05);
    vec![
        (
            QueryRequest::intel_sample(cfg.clone()),
            Box::new(move |ds, seed, ctx| run_intel_sample_ctx(ds, &cfg, seed, ctx)),
        ),
        (
            QueryRequest::naive(spec),
            Box::new(move |ds, seed, ctx| run_naive_ctx(ds, &spec, seed, ctx)),
        ),
        (
            QueryRequest::optimal(spec, "grade"),
            Box::new(move |ds, seed, ctx| run_optimal_ctx(ds, &spec, "grade", seed, ctx)),
        ),
        (
            QueryRequest::adaptive(spec, corr, "grade"),
            Box::new(move |ds, seed, ctx| {
                run_intel_sample_adaptive_ctx(ds, &spec, corr, "grade", seed, ctx)
            }),
        ),
        (
            QueryRequest::iterative(spec, corr, "grade", rule, 2),
            Box::new(move |ds, seed, ctx| {
                run_intel_sample_iterative_ctx(ds, &spec, corr, "grade", rule, 2, seed, ctx)
            }),
        ),
        (
            QueryRequest::learning(spec),
            Box::new(move |ds, seed, ctx| run_learning_ctx(ds, &spec, seed, ctx)),
        ),
        (
            QueryRequest::multiple(spec, 3),
            Box::new(move |ds, seed, ctx| run_multiple_ctx(ds, &spec, 3, seed, ctx)),
        ),
    ]
}

#[test]
fn submit_is_byte_identical_to_legacy_run_for_all_seven_strategies() {
    // The session surface (QueryRequest + Strategy + submit) must be an
    // exact drop-in for each strategy's direct `run_*_ctx` pipeline — the
    // legacy per-pipeline run entry points, on the sequential backend:
    // identical answers, bills and summaries on a cold engine — and a
    // replay of the same request is a result-memo hit, not a
    // re-execution.
    let ds = small(PROSPER, 2_000, 11);
    let spec = QuerySpec::paper_default();
    for (i, (request, direct)) in all_seven(spec).into_iter().enumerate() {
        let seed = 70 + i as u64;
        let engine = QueryEngine::new();
        let request = request.with_seed(seed);
        let submitted = engine
            .submit(&ds, &request)
            .expect("valid request must be accepted");
        let want = direct(&ds, seed, &ExecContext::new(&Sequential));
        assert_identical(&want, &submitted, &format!("strategy {i} submit vs direct"));
        assert_eq!(
            engine.session_counts(),
            want.counts,
            "strategy {i}: the session bill is the direct pipeline's"
        );
        let replay = engine.submit(&ds, &request).unwrap();
        assert_identical(&submitted, &replay, &format!("strategy {i} replay"));
        assert_eq!(
            engine.stats().result_hits,
            1,
            "strategy {i}: the replay must hit the memo"
        );
        assert_eq!(
            engine.session_counts(),
            want.counts,
            "strategy {i}: a memoized replay charges nothing"
        );
    }
}

#[test]
fn latency_bound_pooled_engine_matches_sequential_engine_for_all_seven_strategies() {
    // With an injected UDF latency the pool runs every fresh batch on its
    // widened in-flight window; answers and bills must not notice.
    let ds = small(PROSPER, 2_000, 12);
    let spec = QuerySpec::paper_default();
    let sequential = QueryEngine::new();
    let pooled = QueryEngine::pooled().with_udf_latency(Duration::from_micros(100));
    for (i, (request, _)) in all_seven(spec).into_iter().enumerate() {
        let request = request.with_seed(90 + i as u64);
        let want = sequential.submit(&ds, &request).unwrap();
        let got = pooled.submit(&ds, &request).unwrap();
        assert_identical(&want, &got, &format!("latency-bound strategy {i}"));
    }
    assert_eq!(sequential.session_counts(), pooled.session_counts());
}

// Property: for random contracts and seeds, every request answers
// byte-identically to its direct pipeline (fresh engine per case; the
// non-ML strategies run per case — the ML baselines are covered by the
// deterministic seven-way test above, their training loops are too slow
// for a property sweep).
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    #[test]
    fn random_requests_match_legacy_run(
        alpha in 0.55f64..0.9,
        beta in 0.55f64..0.9,
        rho in 0.5f64..0.9,
        seed in 0u64..1_000,
        strategy_index in 0usize..5,
    ) {
        let ds = small(PROSPER, 1_500, 13);
        let spec = QuerySpec::try_new(alpha, beta, rho, expred::udf::CostModel::PAPER_DEFAULT)
            .expect("generated specs are in range");
        let (request, direct) = all_seven(spec).swap_remove(strategy_index);
        let engine = QueryEngine::new();
        let submitted = engine
            .submit(&ds, &request.with_seed(seed))
            .expect("valid request must be accepted");
        let want = direct(&ds, seed, &ExecContext::new(&Sequential));
        assert_identical(&want, &submitted, &format!("proptest strategy {strategy_index}"));
        assert_eq!(engine.session_counts(), want.counts);
    }
}
