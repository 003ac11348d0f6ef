//! The audited UDF gateway.
//!
//! All algorithm code reaches the UDF through [`UdfInvoker`], never through
//! [`crate::udf::BooleanUdf`] directly. The invoker
//!
//! * charges every retrieval and evaluation to a shared
//!   [`crate::cost::CostTracker`] (so experiment costs include
//!   sampling, exactly as the paper requires: "The cost of sampling tuples
//!   to estimate the selectivity is included in the cost of the
//!   algorithms", §6.2), and
//! * memoizes evaluations per row, implementing the paper's observation
//!   that already-sampled tuples "can be simply returned as part of the
//!   query result without re-evaluating them" (§4.2).

use crate::cost::{CostCounts, CostModel, CostTracker};
use crate::udf::BooleanUdf;
use expred_exec::{
    BatchProbe, CacheHandle, CacheNamespace, ExecContext, Executor, SelectivityHandle, ShardedMemo,
};
use expred_table::Table;
use std::collections::{HashMap, HashSet};

/// The cross-query cache namespace for `udf` over `table`'s current
/// state, or `None` when the UDF opted out of identity
/// ([`BooleanUdf::fingerprint`]).
pub fn cache_namespace(udf: &dyn BooleanUdf, table: &Table) -> Option<CacheNamespace> {
    udf.fingerprint().map(|id| CacheNamespace {
        udf: id.as_u64(),
        table: table.id().as_u64(),
        version: table.version(),
    })
}

/// One UDF over one table as a batch probe, carrying the UDF's
/// [`BooleanUdf::latency_bound`] declaration to the executor.
struct UdfProbe<'a>(&'a dyn BooleanUdf, &'a Table);

impl BatchProbe for UdfProbe<'_> {
    fn probe(&self, row: usize) -> bool {
        self.0.evaluate(self.1, row)
    }

    fn latency_bound(&self) -> bool {
        self.0.latency_bound()
    }
}

/// Counted, memoized access to a UDF over one table.
///
/// The per-query memo is a lock-striped [`ShardedMemo`], so concurrent
/// executor workers sharing one invoker do not serialize on a single
/// lock, and the cost tracker is atomic, so charges stay exact under
/// parallelism.
///
/// # Cross-query reuse
///
/// Built via [`UdfInvoker::with_context`] against a session's
/// [`expred_exec::CacheStore`], the invoker additionally *borrows* a
/// [`CacheHandle`] scoped to `(udf fingerprint, table id, table
/// version)`. Lookups layer local-memo-first, then the shared store: a
/// shared hit is *promoted* into the local memo (so this query keeps a
/// stable view even if the store later evicts the entry) and charged
/// exactly once as a [`CostCounts::reuse_hits`] — the row's `o_e` was
/// paid by an earlier query, not this one. Fresh evaluations are written
/// through to both layers. Without a context (or for UDFs with no
/// fingerprint) behavior is bit-identical to the pre-session invoker.
///
/// # Cost exactness under concurrent sessions
///
/// Many invokers on many threads may borrow the same store namespace at
/// once (a `Sync` query engine does exactly this). Each invoker still
/// charges every row it demands exactly once — as a fresh `evaluated`, a
/// local `cache_hit`, or a promoted `reuse_hit` — because the local memo
/// is consulted first and is private to the query. Interleavings only
/// shift *which* bucket a row lands in (two queries racing on a
/// session-cold row may both pay `o_e` fresh where a serial ordering
/// would have let the second reuse), never the per-query total
/// [`CostCounts::demanded`]. Answers are unaffected either way: the
/// store is keyed by table version and UDFs are row-deterministic.
pub struct UdfInvoker<'a> {
    udf: &'a dyn BooleanUdf,
    table: &'a Table,
    tracker: CostTracker,
    memo: ShardedMemo<bool>,
    shared: Option<CacheHandle>,
    /// The session's selectivity counters for this namespace, fed with
    /// every *fresh* answer (memo/reuse hits were observed when first
    /// computed). Statistics only — never read on the answer path.
    selectivity: Option<SelectivityHandle>,
}

impl<'a> UdfInvoker<'a> {
    /// Creates an invoker with a fresh cost tracker.
    pub fn new(udf: &'a dyn BooleanUdf, table: &'a Table) -> Self {
        Self::with_tracker(udf, table, CostTracker::new())
    }

    /// Creates an invoker charging to an existing tracker (lets a pipeline
    /// aggregate sampling and execution costs in one place).
    pub fn with_tracker(udf: &'a dyn BooleanUdf, table: &'a Table, tracker: CostTracker) -> Self {
        Self {
            udf,
            table,
            tracker,
            memo: ShardedMemo::new(),
            shared: None,
            selectivity: None,
        }
    }

    /// Creates an invoker for one query of a session: if the context
    /// carries a cache store and the UDF has a stable fingerprint, a
    /// [`CacheHandle`] is borrowed so answers outlive this query.
    pub fn with_context(udf: &'a dyn BooleanUdf, table: &'a Table, ctx: &ExecContext<'_>) -> Self {
        Self::with_tracker_and_context(udf, table, CostTracker::new(), ctx)
    }

    /// [`UdfInvoker::with_context`] charging to an existing tracker.
    pub fn with_tracker_and_context(
        udf: &'a dyn BooleanUdf,
        table: &'a Table,
        tracker: CostTracker,
        ctx: &ExecContext<'_>,
    ) -> Self {
        let ns = cache_namespace(udf, table);
        let shared = ctx.cache.zip(ns).map(|(store, ns)| store.handle(ns));
        let selectivity = ctx
            .selectivity
            .zip(ns)
            .map(|(tracker, ns)| tracker.handle(ns));
        Self {
            udf,
            table,
            tracker,
            memo: ShardedMemo::new(),
            shared,
            selectivity,
        }
    }

    /// The table this invoker answers over.
    pub fn table(&self) -> &Table {
        self.table
    }

    /// Whether this invoker shares a cross-query cache namespace.
    pub fn is_session_cached(&self) -> bool {
        self.shared.is_some()
    }

    /// Shared-store lookup with promotion: copies a hit into the local
    /// memo and charges it (once per row) as a cross-query reuse.
    fn reuse_from_shared(&self, row: usize) -> Option<bool> {
        let answer = self.shared.as_ref()?.get(row)?;
        self.memo.insert(row, answer);
        self.tracker.add_reuse_hit();
        Some(answer)
    }

    /// Writes a freshly evaluated answer through both cache layers.
    fn commit(&self, row: usize, answer: bool) {
        self.memo.insert(row, answer);
        if let Some(shared) = &self.shared {
            shared.insert(row, answer);
        }
    }

    /// Charges `n` tuple retrievals.
    pub fn charge_retrievals(&self, n: u64) {
        self.tracker.add_retrievals(n);
    }

    /// Evaluates the UDF on `row`, charging `o_e` unless this row was
    /// already evaluated (then the memoized answer is returned free).
    ///
    /// Retrieval is charged separately by the caller — the executor decides
    /// whether an evaluation happens on a freshly retrieved tuple.
    pub fn evaluate(&self, row: usize) -> bool {
        if let Some(answer) = self.memo.get(row) {
            self.tracker.add_cache_hit();
            return answer;
        }
        if let Some(answer) = self.reuse_from_shared(row) {
            return answer;
        }
        let answer = self.udf.evaluate(self.table, row);
        self.tracker.add_evaluation();
        if let Some(sel) = &self.selectivity {
            sel.record(answer);
        }
        self.commit(row, answer);
        answer
    }

    /// Evaluates the UDF on every row of `rows` through `executor`,
    /// returning answers in input order.
    ///
    /// Memoized rows are answered from the cache (charged as hits); the
    /// remaining rows are deduplicated, evaluated in one batch (charging
    /// exactly one `o_e` each — duplicates beyond the first occurrence
    /// count as cache hits, matching a sequential evaluation loop), and
    /// memoized. With the [`expred_exec::Sequential`] backend this is
    /// action-for-action identical to calling [`UdfInvoker::evaluate`] in
    /// a loop.
    ///
    /// Session-cached invokers probe the shared store *batched*: every
    /// distinct not-yet-memoized row goes through one
    /// [`CacheHandle::get_many`] call — one read-lock acquisition per
    /// touched store shard — instead of a per-row lock round-trip. The
    /// prefetch touches exactly the keys a per-row walk would have (each
    /// distinct memo-miss row is probed once; duplicates resolve against
    /// the promoted memo or the fresh-slot table), so reuse accounting
    /// and store hit/miss statistics are unchanged to the action.
    pub fn evaluate_batch(&self, executor: &dyn Executor, rows: &[usize]) -> Vec<bool> {
        let mut answers = vec![false; rows.len()];
        let mut fresh: Vec<usize> = Vec::new();
        // Slot index in `fresh` for every distinct fresh row.
        let mut fresh_slot: HashMap<usize, usize> = HashMap::new();
        // (position in `answers`, slot in `fresh`) to fill after the batch.
        let mut fills: Vec<(usize, usize)> = Vec::new();
        let mut hits = 0u64;
        // Batched shared-store probe: collect each distinct row the local
        // memo cannot answer, look them all up in one call, and serve the
        // main walk from the prefetched map. The walk below then promotes
        // a prefetched hit the first time it is used, exactly where the
        // per-row path would have probed the store.
        let prefetched: HashMap<usize, bool> = match &self.shared {
            Some(shared) => {
                let mut candidates: Vec<usize> = Vec::new();
                let mut seen: HashSet<usize> = HashSet::new();
                for &row in rows {
                    if self.memo.get(row).is_none() && seen.insert(row) {
                        candidates.push(row);
                    }
                }
                candidates
                    .iter()
                    .zip(shared.get_many(&candidates))
                    .filter_map(|(&row, answer)| answer.map(|a| (row, a)))
                    .collect()
            }
            None => HashMap::new(),
        };
        for (i, &row) in rows.iter().enumerate() {
            if let Some(answer) = self.memo.get(row) {
                answers[i] = answer;
                hits += 1;
            } else if let Some(&answer) = prefetched.get(&row) {
                // Paid for by an earlier query; promote into the local
                // memo (charged once as a reuse) so any later occurrence
                // in this batch is a plain memo hit.
                self.memo.insert(row, answer);
                self.tracker.add_reuse_hit();
                answers[i] = answer;
            } else if let Some(&slot) = fresh_slot.get(&row) {
                // Duplicate within the batch: evaluated once, re-read free.
                fills.push((i, slot));
                hits += 1;
            } else {
                let slot = fresh.len();
                fresh.push(row);
                fresh_slot.insert(row, slot);
                fills.push((i, slot));
            }
        }
        self.tracker.add_cache_hits(hits);
        if !fresh.is_empty() {
            let fresh_answers = executor.evaluate_batch(&UdfProbe(self.udf, self.table), &fresh);
            self.tracker.add_evaluations(fresh.len() as u64);
            if let Some(sel) = &self.selectivity {
                let passes = fresh_answers.iter().filter(|&&a| a).count() as u64;
                sel.record_many(passes, fresh.len() as u64);
            }
            for (&row, &answer) in fresh.iter().zip(&fresh_answers) {
                self.commit(row, answer);
            }
            for (position, slot) in fills {
                answers[position] = fresh_answers[slot];
            }
        }
        answers
    }

    /// Whether `row`'s answer is already known — to this query's memo or
    /// to the session cache. A free lookup cost-wise; a session-cache hit
    /// is promoted (and counted once as a reuse) so the answer stays
    /// available for the rest of the query even under store eviction.
    pub fn is_evaluated(&self, row: usize) -> bool {
        self.memoized(row).is_some()
    }

    /// The known answer for `row`, if this query or an earlier one in the
    /// session evaluated it (session hits promote, as above).
    pub fn memoized(&self, row: usize) -> Option<bool> {
        self.memo.get(row).or_else(|| self.reuse_from_shared(row))
    }

    /// Retrieves and evaluates `row` in one step (charges both actions).
    pub fn retrieve_and_evaluate(&self, row: usize) -> bool {
        self.charge_retrievals(1);
        self.evaluate(row)
    }

    /// Retrieves and evaluates every row of `rows` through `executor`
    /// (charges one retrieval per row plus the batch's evaluations).
    pub fn retrieve_and_evaluate_batch(
        &self,
        executor: &dyn Executor,
        rows: &[usize],
    ) -> Vec<bool> {
        self.charge_retrievals(rows.len() as u64);
        self.evaluate_batch(executor, rows)
    }

    /// Current action counts.
    pub fn counts(&self) -> CostCounts {
        self.tracker.snapshot()
    }

    /// Total cost so far under `model`.
    pub fn cost(&self, model: &CostModel) -> f64 {
        self.counts().cost(model)
    }

    /// The shared tracker (for pipelines that stack invokers).
    pub fn tracker(&self) -> &CostTracker {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::OracleUdf;
    use expred_table::{DataType, Field, Schema, Table, Value};

    fn table_with_labels(labels: &[bool]) -> Table {
        let schema = Schema::new(vec![Field::new("good", DataType::Bool)]);
        let rows = labels.iter().map(|&l| vec![Value::Bool(l)]).collect();
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn evaluations_are_charged_once_per_row() {
        let t = table_with_labels(&[true, false, true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        assert!(inv.evaluate(0));
        assert!(inv.evaluate(0));
        assert!(!inv.evaluate(1));
        let c = inv.counts();
        assert_eq!(c.evaluated, 2, "second call to row 0 must be memoized");
        assert_eq!(c.cache_hits, 1);
    }

    #[test]
    fn batches_carry_the_udfs_latency_declaration() {
        /// Records what each batch's probe declared, then runs it.
        struct Recording(std::sync::Mutex<Vec<bool>>);
        impl Executor for Recording {
            fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
                self.0.lock().unwrap().push(probe.latency_bound());
                expred_exec::Sequential.evaluate_batch(probe, rows)
            }
        }
        let t = table_with_labels(&[true, false, true]);
        let recording = Recording(Default::default());
        let local = OracleUdf::new("good");
        let slow = crate::udf::SlowUdf::new(OracleUdf::new("good"), std::time::Duration::ZERO);
        for udf in [&local as &dyn BooleanUdf, &slow] {
            let answers = UdfInvoker::new(udf, &t).evaluate_batch(&recording, &[0, 1, 2]);
            assert_eq!(answers, vec![true, false, true]);
        }
        assert_eq!(*recording.0.lock().unwrap(), vec![false, true]);
    }

    #[test]
    fn retrieve_and_evaluate_charges_both() {
        let t = table_with_labels(&[true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        assert!(inv.retrieve_and_evaluate(0));
        let c = inv.counts();
        assert_eq!(c.retrieved, 1);
        assert_eq!(c.evaluated, 1);
        assert_eq!(inv.cost(&CostModel::PAPER_DEFAULT), 4.0);
    }

    #[test]
    fn memo_queries_are_free() {
        let t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        assert!(!inv.is_evaluated(0));
        assert_eq!(inv.memoized(0), None);
        inv.evaluate(0);
        assert!(inv.is_evaluated(0));
        assert_eq!(inv.memoized(0), Some(true));
        assert_eq!(inv.counts().evaluated, 1);
    }

    #[test]
    fn shared_tracker_aggregates_across_invokers() {
        let t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let tracker = CostTracker::new();
        let a = UdfInvoker::with_tracker(&udf, &t, tracker.clone());
        let b = UdfInvoker::with_tracker(&udf, &t, tracker.clone());
        a.evaluate(0);
        b.evaluate(1);
        assert_eq!(tracker.snapshot().evaluated, 2);
    }

    #[test]
    fn batch_matches_sequential_loop_action_for_action() {
        let labels: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        let rows: Vec<usize> = (0..64).rev().collect();

        let loop_inv = UdfInvoker::new(&udf, &t);
        let loop_answers: Vec<bool> = rows.iter().map(|&r| loop_inv.evaluate(r)).collect();

        for executor in [
            &expred_exec::Sequential as &dyn Executor,
            &expred_exec::WorkerPool::with_threads(4),
        ] {
            let batch_inv = UdfInvoker::new(&udf, &t);
            let batch_answers = batch_inv.evaluate_batch(executor, &rows);
            assert_eq!(batch_answers, loop_answers);
            assert_eq!(batch_inv.counts(), loop_inv.counts());
        }
    }

    #[test]
    fn batch_reuses_memo_and_charges_hits() {
        let t = table_with_labels(&[true, false, true, false]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        inv.evaluate(0);
        inv.evaluate(1);
        let answers = inv.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2, 3]);
        assert_eq!(answers, vec![true, false, true, false]);
        let c = inv.counts();
        assert_eq!(c.evaluated, 4, "rows 2 and 3 are the only new calls");
        assert_eq!(c.cache_hits, 2);
    }

    #[test]
    fn batch_duplicates_charge_once() {
        let t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        let answers = inv.evaluate_batch(&expred_exec::Sequential, &[1, 0, 1, 1]);
        assert_eq!(answers, vec![false, true, false, false]);
        let c = inv.counts();
        assert_eq!(c.evaluated, 2);
        assert_eq!(c.cache_hits, 2, "repeat occurrences are free re-reads");
    }

    #[test]
    fn retrieve_and_evaluate_batch_charges_both() {
        let t = table_with_labels(&[true, false, true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        let answers = inv.retrieve_and_evaluate_batch(&expred_exec::Sequential, &[0, 1, 2]);
        assert_eq!(answers, vec![true, false, true]);
        let c = inv.counts();
        assert_eq!(c.retrieved, 3);
        assert_eq!(c.evaluated, 3);
        assert_eq!(inv.cost(&CostModel::PAPER_DEFAULT), 3.0 + 9.0);
    }

    #[test]
    fn context_without_store_matches_plain_invoker() {
        let t = table_with_labels(&[true, false, true]);
        let udf = OracleUdf::new("good");
        let ctx = expred_exec::ExecContext::sequential();
        let inv = UdfInvoker::with_context(&udf, &t, &ctx);
        assert!(!inv.is_session_cached());
        inv.evaluate(0);
        inv.evaluate(0);
        let c = inv.counts();
        assert_eq!((c.evaluated, c.cache_hits, c.reuse_hits), (1, 1, 0));
    }

    #[test]
    fn second_query_reuses_the_sessions_answers() {
        let t = table_with_labels(&[true, false, true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);

        let q1 = UdfInvoker::with_context(&udf, &t, &ctx);
        assert!(q1.is_session_cached());
        q1.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2]);
        assert_eq!(q1.counts().evaluated, 3);
        assert_eq!(q1.counts().reuse_hits, 0, "a cold session has no reuse");

        let q2 = UdfInvoker::with_context(&udf, &t, &ctx);
        let answers = q2.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2, 3, 0]);
        assert_eq!(answers, vec![true, false, true, false, true]);
        let c = q2.counts();
        assert_eq!(c.evaluated, 1, "only row 3 is new to the session");
        assert_eq!(c.reuse_hits, 3, "rows 0-2 were paid for by query 1");
        assert_eq!(c.cache_hits, 1, "the repeated row 0 is a plain memo hit");
        assert_eq!(c.demanded(), 5);
    }

    #[test]
    fn batched_store_probe_matches_per_row_path_action_for_action() {
        // The batch path prefetches the shared store via get_many; the
        // per-row path (`evaluate` in a loop) takes a lock per row. Both
        // must produce identical answers, identical invoker bills, and
        // identical store hit/miss statistics.
        let labels: Vec<bool> = (0..96).map(|i| i % 5 < 2).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        // Duplicate-heavy request over a half-warmed session.
        let warm: Vec<usize> = (0..48).collect();
        let request: Vec<usize> = (0..96).chain(24..72).chain(0..8).rev().collect();

        let run = |batched: bool| {
            let store = expred_exec::CacheStore::new();
            let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
            UdfInvoker::with_context(&udf, &t, &ctx)
                .evaluate_batch(&expred_exec::Sequential, &warm);
            let warm_stats = store.stats();
            let inv = UdfInvoker::with_context(&udf, &t, &ctx);
            let answers = if batched {
                inv.evaluate_batch(&expred_exec::Sequential, &request)
            } else {
                request.iter().map(|&r| inv.evaluate(r)).collect()
            };
            let stats = store.stats();
            (
                answers,
                inv.counts(),
                stats.hits - warm_stats.hits,
                stats.misses - warm_stats.misses,
            )
        };
        let (batch_answers, batch_counts, batch_hits, batch_misses) = run(true);
        let (loop_answers, loop_counts, loop_hits, loop_misses) = run(false);
        assert_eq!(batch_answers, loop_answers);
        assert_eq!(batch_counts, loop_counts, "invoker bills must match");
        assert_eq!(batch_hits, loop_hits, "store hits must match");
        assert_eq!(batch_misses, loop_misses, "store misses must match");
        assert!(batch_counts.reuse_hits > 0, "the warm rows must be reused");
    }

    #[test]
    fn memoized_promotes_session_answers_once() {
        let t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
        UdfInvoker::with_context(&udf, &t, &ctx).evaluate(0);

        let q2 = UdfInvoker::with_context(&udf, &t, &ctx);
        assert!(q2.is_evaluated(0));
        assert_eq!(q2.memoized(0), Some(true));
        assert!(q2.evaluate(0));
        let c = q2.counts();
        assert_eq!(c.reuse_hits, 1, "promotion charges exactly once");
        assert_eq!(c.evaluated, 0);
        assert_eq!(c.cache_hits, 1, "post-promotion reads are memo hits");
        assert!(!q2.is_evaluated(1), "unknown rows stay unknown");
    }

    #[test]
    fn distinct_udfs_and_tables_do_not_share() {
        let t = table_with_labels(&[true, false]);
        let other_table = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
        UdfInvoker::with_context(&udf, &t, &ctx).evaluate(0);

        // Same content, different table instance: no sharing.
        let cross = UdfInvoker::with_context(&udf, &other_table, &ctx);
        cross.evaluate(0);
        assert_eq!(cross.counts().evaluated, 1);
        assert_eq!(cross.counts().reuse_hits, 0);
    }

    #[test]
    fn table_mutation_invalidates_session_answers() {
        let mut t = table_with_labels(&[true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        {
            let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
            let q1 = UdfInvoker::with_context(&udf, &t, &ctx);
            q1.evaluate(0);
            q1.evaluate(1);
        }
        t.push_row(vec![Value::Bool(true)]).unwrap();
        let ctx = expred_exec::ExecContext::sequential().with_cache(&store);
        let q2 = UdfInvoker::with_context(&udf, &t, &ctx);
        q2.evaluate(0);
        let c = q2.counts();
        assert_eq!(c.evaluated, 1, "stale version must not serve answers");
        assert_eq!(c.reuse_hits, 0);
        // The old version stays live until MAX_LIVE_VERSIONS newer ones
        // supersede it (diverged clones may still be using it).
        assert_eq!(store.num_namespaces(), 2);
    }

    #[test]
    fn concurrent_session_invokers_charge_each_demanded_row_exactly_once() {
        // 8 threads, one store, one invoker per thread over the same
        // namespace: whatever the interleaving, every thread's bill must
        // satisfy evaluated + cache_hits + reuse_hits == demands, and
        // answers must match the oracle.
        let labels: Vec<bool> = (0..256).map(|i| i % 3 == 0).collect();
        let t = table_with_labels(&labels);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let rows: Vec<usize> = (0..256).collect();
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let (store, udf, t, rows, labels) = (&store, &udf, &t, &rows, &labels);
                scope.spawn(move || {
                    let ctx = expred_exec::ExecContext::sequential().with_cache(store);
                    let inv = UdfInvoker::with_context(udf, t, &ctx);
                    // Offset start so threads race on different fronts.
                    let mut order = rows.clone();
                    order.rotate_left(worker * 32);
                    let answers = inv.evaluate_batch(&expred_exec::Sequential, &order);
                    for (&row, &answer) in order.iter().zip(&answers) {
                        assert_eq!(answer, labels[row], "wrong answer for row {row}");
                    }
                    assert_eq!(inv.counts().demanded(), order.len() as u64);
                });
            }
        });
    }

    #[test]
    fn selectivity_observes_fresh_evaluations_only() {
        let t = table_with_labels(&[true, true, true, false]);
        let udf = OracleUdf::new("good");
        let store = expred_exec::CacheStore::new();
        let sel = expred_exec::SelectivityTracker::new();
        let ns = cache_namespace(&udf, &t).expect("oracle has identity");
        let ctx = expred_exec::ExecContext::sequential()
            .with_cache(&store)
            .with_selectivity(&sel);

        let q1 = UdfInvoker::with_context(&udf, &t, &ctx);
        q1.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2, 3]);
        assert_eq!(sel.pass_rate(ns), Some(0.75));

        // A second query reuses every answer: nothing fresh, nothing
        // recorded — reuse would double-count the same rows.
        let q2 = UdfInvoker::with_context(&udf, &t, &ctx);
        q2.evaluate_batch(&expred_exec::Sequential, &[0, 1, 2, 3]);
        assert_eq!(q2.counts().evaluated, 0);
        assert_eq!(sel.handle(ns).observations(), 4);
        assert_eq!(sel.pass_rate(ns), Some(0.75));

        // The per-row path records fresh answers too.
        let sel2 = expred_exec::SelectivityTracker::new();
        let ctx2 = expred_exec::ExecContext::sequential().with_selectivity(&sel2);
        let inv = UdfInvoker::with_context(&udf, &t, &ctx2);
        inv.evaluate(3);
        inv.evaluate(3); // memo hit: not re-observed
        assert_eq!(sel2.pass_rate(ns), Some(0.0));
        assert_eq!(sel2.handle(ns).observations(), 1);
    }

    #[test]
    fn charge_retrievals_accumulates() {
        let t = table_with_labels(&[true]);
        let udf = OracleUdf::new("good");
        let inv = UdfInvoker::new(&udf, &t);
        inv.charge_retrievals(10);
        inv.charge_retrievals(5);
        assert_eq!(inv.counts().retrieved, 15);
    }
}
