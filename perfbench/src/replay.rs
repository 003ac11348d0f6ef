//! The in-process replays of a workload's request streams.
//!
//! * The *request pass* builds a [`TenantRegistry`] with the server's
//!   engine settings and, for every request, calls what `/query` calls,
//!   in the same order: `parse_query_body`, `route`, `dataset`, `submit`
//!   and `render_outcome`. Each rendered body is compared byte for byte
//!   with the body the HTTP run received.
//! * The *stage pass* feeds the requests that missed the result memo,
//!   in order, to one fresh engine per tenant. `intel_sample` requests
//!   go through the pipeline's stage functions in the order
//!   `run_intel_sample_ctx` calls them; other kinds go through the
//!   `run_*_ctx` function their strategy's `execute` calls. Every
//!   outcome must equal the request pass's outcome for that request.
//!
//! Tenants are independent, so each client's stream replays on its own
//! thread, as it ran on its own connection.

use crate::http_run::Response;
use crate::trace::{Span, Tracer};
use crate::workload::{ClientStream, Kind, Workload, MAX_ROWS, PREDICTOR};
use expred_core::adaptive::run_intel_sample_adaptive_ctx;
use expred_core::{
    execute_plan_ctx, run_learning_ctx, run_naive_ctx, run_optimal_ctx, sample_groups_ctx,
    solve_estimated, CorrelationModel, Plan, QuerySpec, SampleSizeRule,
};
use expred_exec::ExecContext;
use expred_serve::api::{parse_query_body, render_outcome, ApiError};
use expred_serve::TenantRegistry;
use expred_stats::rng::Prng;
use expred_table::datasets::{Dataset, LABEL_COLUMN};
use expred_udf::{BooleanUdf, CostCounts, OracleUdf, SlowUdf, UdfInvoker};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How the engine answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Served from the result memo.
    Hit,
    /// Ran the strategy on a table instance already submitted to.
    Miss,
    /// The first submit on a freshly generated table instance (includes
    /// rehydration from the data directory, when one is set).
    First,
    /// The request did not produce an outcome.
    Error,
}

/// What a fresh run produced: the part of a `RunOutcome` the stage pass
/// must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub returned: Vec<u32>,
    pub counts: CostCounts,
}

/// One replayed request.
#[derive(Debug, Clone)]
pub struct Record {
    pub answer: Answer,
    /// The dataset call generated a new table instance.
    pub materialized: bool,
    /// Set on memo misses.
    pub outcome: Option<Outcome>,
    /// The rendered body equals the HTTP run's body, status included.
    pub body_matches: bool,
}

/// Counters read from the replay registry after the pass.
#[derive(Debug, Clone, Default)]
pub struct RegistryCounters {
    pub session: CostCounts,
    pub queries: u64,
    pub result_hits: u64,
    pub dedup_joins: u64,
    pub memo_evictions: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_evictions: u64,
    pub derived_hits: u64,
    pub derived_misses: u64,
    pub persist_appended: u64,
    pub persist_shed: u64,
    pub persist_compactions: u64,
    pub persist_fsyncs: u64,
    /// Bytes under the pass's data directory after the final flush.
    pub data_bytes: u64,
}

/// The request pass's results.
pub struct RequestPass {
    /// Per client, one record per request.
    pub records: Vec<Vec<Record>>,
    /// Per client, its spans (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    /// Wall time of the whole pass.
    pub wall_s: f64,
    pub counters: RegistryCounters,
}

/// A tenant registry with the server's bounds and engine settings.
fn registry(workload: Workload, data_dir: Option<PathBuf>) -> TenantRegistry {
    let config = workload.serve_config(data_dir);
    TenantRegistry::new(
        config.max_tenants,
        config.max_tables_per_tenant,
        workload.engine_config(config.data_dir),
    )
}

/// Replays every client's whole stream (warm-up included) in process.
/// `received` holds the HTTP run's responses, per client, in stream
/// order.
pub fn request_pass(
    workload: Workload,
    streams: &[ClientStream],
    data_dir: Option<PathBuf>,
    traced: bool,
    received: &[Vec<Response>],
) -> RequestPass {
    let registry = registry(workload, data_dir.clone());
    let origin = Instant::now();
    let per_client: Vec<(Vec<Record>, Vec<Span>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .zip(received)
            .enumerate()
            .map(|(client, (stream, received))| {
                let registry = &registry;
                scope.spawn(move || {
                    replay_client(
                        registry,
                        stream,
                        received,
                        Tracer::new(traced, origin, client),
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("request-pass thread"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();

    let mut counters = RegistryCounters::default();
    for tenant in registry.snapshot() {
        let engine = tenant.engine();
        if let Err(e) = engine.flush_persistence() {
            eprintln!("perfbench: flushing tenant {:?} failed: {e}", tenant.name());
        }
        let session = engine.session_counts();
        counters.session.retrieved += session.retrieved;
        counters.session.evaluated += session.evaluated;
        counters.session.cache_hits += session.cache_hits;
        counters.session.reuse_hits += session.reuse_hits;
        let stats = engine.stats();
        counters.queries += stats.queries;
        counters.result_hits += stats.result_hits;
        counters.dedup_joins += stats.dedup_joins;
        counters.memo_evictions += engine.result_memo_stats().evictions;
        let rows = engine.cache_stats();
        counters.row_hits += rows.hits;
        counters.row_misses += rows.misses;
        counters.row_evictions += rows.evictions;
        let derived = engine.derived_stats();
        counters.derived_hits += derived.hits;
        counters.derived_misses += derived.misses;
        if let Some(p) = engine.persist_stats() {
            counters.persist_appended += p.appended;
            counters.persist_shed += p.shed;
            counters.persist_compactions += p.compactions;
            counters.persist_fsyncs += p.fsyncs;
        }
    }
    drop(registry);
    if workload.persists() {
        if let Some(dir) = &data_dir {
            counters.data_bytes = dir_bytes(dir);
        }
    }
    let (records, spans) = per_client.into_iter().unzip();
    RequestPass {
        records,
        spans,
        wall_s,
        counters,
    }
}

fn replay_client(
    registry: &TenantRegistry,
    stream: &ClientStream,
    received: &[Response],
    mut tracer: Tracer,
) -> (Vec<Record>, Vec<Span>) {
    let mut instances = HashSet::new();
    let mut reported_mismatch = false;
    let mut records = Vec::with_capacity(stream.bodies.len());
    for (i, body) in stream.bodies.iter().enumerate() {
        let root = tracer.open("request", i, None);
        let (status, rendered, mut record) =
            replay_one(registry, body, &mut instances, &mut tracer, i, root);
        tracer.close(root);
        record.body_matches = received
            .get(i)
            .is_some_and(|r| r.status == status && r.body == rendered.as_bytes());
        if !record.body_matches && !reported_mismatch {
            reported_mismatch = true;
            eprintln!(
                "perfbench: {} request {i}: replay answered {status} {rendered}\n  HTTP run received {}",
                stream.tenant,
                received.get(i).map_or("nothing".to_owned(), |r| format!(
                    "{} {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                ))
            );
        }
        records.push(record);
    }
    (records, tracer.spans)
}

/// One request through the calls `/query` makes, in its order; returns
/// the status and body the server would answer with.
fn replay_one(
    registry: &TenantRegistry,
    body: &str,
    instances: &mut HashSet<expred_table::TableId>,
    tracer: &mut Tracer,
    i: usize,
    root: u32,
) -> (u16, String, Record) {
    let parent = tracer.parent(root);
    let query = tracer
        .span("serve.parse", i, parent, || {
            parse_query_body(body.as_bytes(), MAX_ROWS)
        })
        .expect("generated bodies parse");
    let name = query.tenant.expect("generated bodies name their tenant");
    let tenant = tracer
        .span("serve.route", i, parent, || registry.route(&name))
        .expect("the registry admits every client's tenant");
    let ds = tracer.span("table.dataset", i, parent, || tenant.dataset(&query.table));
    let materialized = instances.insert(ds.table.id());
    let engine = tenant.engine();
    let hits_before = engine.stats().result_hits;
    let submit = tracer.open("engine.submit", i, parent);
    let result = engine.submit(&ds, &query.request);
    tracer.close(submit);
    let mut record = Record {
        answer: Answer::Error,
        materialized,
        outcome: None,
        body_matches: false,
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(error) => {
            let error = ApiError::from(error);
            return (error.status, error.body(), record);
        }
    };
    record.answer = if engine.stats().result_hits > hits_before {
        Answer::Hit
    } else {
        record.outcome = Some(Outcome {
            returned: outcome.returned.clone(),
            counts: outcome.counts,
        });
        if materialized {
            Answer::First
        } else {
            Answer::Miss
        }
    };
    tracer.rename(submit, record.answer.span_name());
    let rendered = tracer.span("serve.render", i, parent, || {
        render_outcome(&name, &outcome)
    });
    (200, rendered, record)
}

impl Answer {
    fn span_name(self) -> &'static str {
        match self {
            Answer::Hit => "engine.submit_hit",
            Answer::Miss => "engine.submit_miss",
            Answer::First => "engine.submit_first",
            Answer::Error => "engine.submit",
        }
    }
}

/// The stage pass's results.
pub struct StagePass {
    /// Per client, its spans (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    /// Requests the stage pass ran.
    pub replayed: usize,
    /// Outcomes that differed from the request pass's.
    pub mismatches: usize,
}

/// Replays the memo misses of `request` through the stage functions.
/// `tamper` (self-test only) alters the stage outcome of one
/// `(client, request)` before it is compared.
pub fn stage_pass(
    workload: Workload,
    streams: &[ClientStream],
    request: &RequestPass,
    traced: bool,
    tamper: Option<(usize, usize)>,
) -> StagePass {
    let origin = Instant::now();
    let mut out = StagePass {
        spans: Vec::new(),
        replayed: 0,
        mismatches: 0,
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .zip(&request.records)
            .enumerate()
            .map(|(client, (stream, records))| {
                scope.spawn(move || {
                    stage_client(
                        workload,
                        stream,
                        records,
                        Tracer::new(traced, origin, client),
                        tamper.filter(|&(c, _)| c == client).map(|(_, r)| r),
                    )
                })
            })
            .collect();
        for worker in workers {
            let client = worker.join().expect("stage-pass thread");
            out.spans.extend(client.spans);
            out.replayed += client.replayed;
            out.mismatches += client.mismatches;
        }
    });
    out
}

fn stage_client(
    workload: Workload,
    stream: &ClientStream,
    records: &[Record],
    mut tracer: Tracer,
    tamper: Option<usize>,
) -> StagePass {
    // A dedicated engine, built exactly as the server builds a tenant's.
    let registry = registry(workload, None);
    let tenant = registry
        .route(&stream.tenant)
        .expect("a fresh registry admits one tenant");
    let engine = tenant.engine();
    let spec = QuerySpec::paper_default();
    let mut replayed = 0;
    let mut mismatches = 0;
    for (i, record) in records.iter().enumerate() {
        let Some(expected) = &record.outcome else {
            continue;
        };
        replayed += 1;
        let planned = &stream.planned[i];
        let ds = tenant.dataset(&planned.table);
        let ctx = engine.context();
        let root = tracer.open("stage", i, None);
        let parent = tracer.parent(root);
        let seed = planned.seed;
        let mut got = match planned.kind {
            Kind::IntelSample => {
                staged_intel_sample(&ds, &spec, seed, &ctx, &mut tracer, i, parent)
            }
            Kind::Naive => tracer.span("pipeline.naive", i, parent, || {
                Outcome::of(run_naive_ctx(&ds, &spec, seed, &ctx))
            }),
            Kind::Optimal => tracer.span("pipeline.optimal", i, parent, || {
                Outcome::of(run_optimal_ctx(&ds, &spec, PREDICTOR, seed, &ctx))
            }),
            Kind::Adaptive => tracer.span("pipeline.adaptive", i, parent, || {
                Outcome::of(run_intel_sample_adaptive_ctx(
                    &ds,
                    &spec,
                    CorrelationModel::Independent,
                    PREDICTOR,
                    seed,
                    &ctx,
                ))
            }),
            Kind::Learning => tracer.span("ml.learning", i, parent, || {
                Outcome::of(run_learning_ctx(&ds, &spec, seed, &ctx))
            }),
        };
        tracer.close(root);
        if tamper == Some(i) {
            got.counts.evaluated += 1;
        }
        mismatches += usize::from(got != *expected);
    }
    StagePass {
        spans: vec![tracer.spans],
        replayed,
        mismatches,
    }
}

impl Outcome {
    fn of(outcome: expred_core::RunOutcome) -> Self {
        Self {
            returned: outcome.returned,
            counts: outcome.counts,
        }
    }
}

/// `run_intel_sample_ctx` with a fixed predictor, one stage at a time.
fn staged_intel_sample(
    ds: &Dataset,
    spec: &QuerySpec,
    seed: u64,
    ctx: &ExecContext<'_>,
    tracer: &mut Tracer,
    i: usize,
    parent: Option<u32>,
) -> Outcome {
    let table = &ds.table;
    // The label oracle, wrapped in the context's latency exactly as the
    // pipelines wrap it.
    let udf: Box<dyn BooleanUdf> = match ctx.udf_latency {
        Some(latency) => Box::new(SlowUdf::new(OracleUdf::new(LABEL_COLUMN), latency)),
        None => Box::new(OracleUdf::new(LABEL_COLUMN)),
    };
    let invoker = UdfInvoker::with_context(udf.as_ref(), table, ctx);
    let mut rng = Prng::seeded(seed);
    let groups = tracer
        .span("table.group_by", i, parent, || match ctx.derived {
            Some(cache) => cache.group_by(table, PREDICTOR),
            None => table.group_by(PREDICTOR).map(std::sync::Arc::new),
        })
        .expect("the predictor column exists");
    let est = tracer.span("pipeline.sample", i, parent, || {
        sample_groups_ctx(
            &groups,
            &invoker,
            SampleSizeRule::Fraction(0.05),
            &mut rng,
            ctx,
        )
        .to_estimated_groups(&groups)
    });
    let plan = tracer.span("pipeline.solve", i, parent, || {
        solve_estimated(&est, spec, CorrelationModel::Independent)
            .unwrap_or_else(|_| Plan::evaluate_all(groups.num_groups()))
    });
    let result = tracer.span("pipeline.execute", i, parent, || {
        execute_plan_ctx(&plan, &groups, &invoker, &mut rng, ctx)
    });
    Outcome {
        returned: result.returned,
        counts: invoker.counts(),
    }
}

/// What a warm restart over a request pass's data directory did.
#[derive(Debug, Clone, Default)]
pub struct Restart {
    /// Requests replayed after the restart.
    pub replayed: usize,
    /// Rows loaded from disk into the restarted engines' caches.
    pub rehydrated_rows: u64,
    /// Fresh UDF evaluations the restarted engines still paid: a request
    /// that finds rows already known samples and plans differently, so it
    /// may reach rows its first run never paid for.
    pub fresh_evals: u64,
    /// Mean time of the restarted engines' `submit` calls, which include
    /// the rehydration.
    pub submit_ns: f64,
}

/// A warm restart: a fresh registry over `data_dir` (left behind by a
/// request pass) replays the first `n` requests of every stream. Their
/// tables rehydrate the answers the pass persisted instead of paying for
/// them again.
pub fn restart_pass(
    workload: Workload,
    streams: &[ClientStream],
    data_dir: PathBuf,
    n: usize,
) -> Restart {
    let registry = registry(workload, Some(data_dir));
    let mut out = Restart::default();
    let mut submit_ns = 0u128;
    for stream in streams {
        let tenant = registry
            .route(&stream.tenant)
            .expect("the registry admits every client's tenant");
        for body in stream.bodies.iter().take(n) {
            let query =
                parse_query_body(body.as_bytes(), MAX_ROWS).expect("generated bodies parse");
            let ds = tenant.dataset(&query.table);
            let t0 = Instant::now();
            let answered = tenant.engine().submit(&ds, &query.request).is_ok();
            submit_ns += t0.elapsed().as_nanos();
            out.replayed += usize::from(answered);
        }
        let engine = tenant.engine();
        out.fresh_evals += engine.session_counts().evaluated;
        if let Some(p) = engine.persist_stats() {
            out.rehydrated_rows += p.rehydrated_rows;
        }
    }
    out.submit_ns = submit_ns as f64 / out.replayed.max(1) as f64;
    out
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&entry.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
