//! Output checks: every HTTP answer is verified, not just timed.
//!
//! A response passes when it is a 200, its body equals the in-process
//! replay's body byte for byte, it names its tenant, and the precision
//! and recall it reports equal the ones recomputed here from its
//! `returned` rows against the table's ground truth. The accuracy
//! shares use the recomputed values only.

use crate::http_run::{Response, ServerCounters};
use crate::replay::Record;
use crate::workload::ClientStream;
use expred_core::QuerySpec;
use expred_serve::TableKey;
use expred_stats::json::JsonValue;
use expred_table::datasets::{Dataset, DatasetSpec, LABEL_COLUMN, LENDING_CLUB, PROSPER};
use std::collections::{BTreeMap, HashMap};

/// The outcome of checking one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that did not end in a 200 with a verified body, plus
    /// one per violated conservation law.
    pub failed: u64,
    /// 200 responses.
    pub ok_200: u64,
    /// 200 responses whose recomputed precision is at least α.
    pub precision_met: u64,
    /// 200 responses whose recomputed recall is at least β.
    pub recall_met: u64,
    /// Failure counts by reason.
    pub reasons: BTreeMap<&'static str, u64>,
}

impl Verdict {
    fn fail(&mut self, reason: &'static str) {
        self.failed += 1;
        *self.reasons.entry(reason).or_default() += 1;
    }

    /// Adds violations found outside the per-response checks.
    pub fn fail_n(&mut self, reason: &'static str, n: u64) {
        if n > 0 {
            self.failed += n;
            *self.reasons.entry(reason).or_default() += n;
        }
    }
}

/// Ground truth of a generated table.
pub fn truth(key: &TableKey) -> Vec<bool> {
    let base = match key.spec.as_str() {
        "prosper" => PROSPER,
        "lc" => LENDING_CLUB,
        other => panic!("workloads only generate known specs, got {other:?}"),
    };
    let ds = Dataset::generate(
        DatasetSpec {
            rows: key.rows,
            ..base
        },
        key.seed,
    );
    let labels = ds
        .table
        .column(LABEL_COLUMN)
        .expect("generated tables carry labels");
    (0..ds.table.num_rows())
        .map(|r| labels.bool_at(r).expect("labels are non-null"))
        .collect()
}

/// `(precision, recall)` of `returned` against `truth`; `None` when a
/// row id is out of range.
pub fn precision_recall(returned: &[u32], truth: &[bool]) -> Option<(f64, f64)> {
    let mut hits = 0usize;
    for &r in returned {
        hits += usize::from(*truth.get(r as usize)?);
    }
    let correct = truth.iter().filter(|&&t| t).count();
    let precision = if returned.is_empty() {
        1.0
    } else {
        hits as f64 / returned.len() as f64
    };
    let recall = if correct == 0 {
        1.0
    } else {
        hits as f64 / correct as f64
    };
    Some((precision, recall))
}

fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9
}

/// Checks every response of every client, then the server's
/// conservation laws: Σ `queries` equals the number of 200s, nothing was
/// shed, and no request joined another's in-flight run.
pub fn verify(
    streams: &[ClientStream],
    responses: &[Vec<Response>],
    records: &[Vec<Record>],
    server: &ServerCounters,
) -> Verdict {
    let spec = QuerySpec::paper_default();
    let mut v = Verdict::default();
    for ((stream, responses), records) in streams.iter().zip(responses).zip(records) {
        let mut truths: HashMap<TableKey, Vec<bool>> = HashMap::new();
        for (i, response) in responses.iter().enumerate() {
            v.attempted += 1;
            if response.status != 200 {
                v.fail(if response.status == 0 {
                    "transport"
                } else {
                    "status"
                });
                continue;
            }
            v.ok_200 += 1;
            let Some(record) = records.get(i) else {
                v.fail("not_replayed");
                continue;
            };
            let doc = std::str::from_utf8(&response.body)
                .ok()
                .and_then(|text| JsonValue::parse(text).ok());
            let Some(doc) = doc else {
                v.fail("unparsable_body");
                continue;
            };
            let returned: Option<Vec<u32>> = doc.get("returned").and_then(|r| {
                r.as_array()?
                    .iter()
                    .map(|id| id.as_u64().and_then(|id| u32::try_from(id).ok()))
                    .collect()
            });
            let (Some(returned), Some(precision), Some(recall)) = (
                returned,
                doc.get("precision").and_then(JsonValue::as_f64),
                doc.get("recall").and_then(JsonValue::as_f64),
            ) else {
                v.fail("malformed_body");
                continue;
            };
            let key = &stream.planned[i].table;
            let truth = truths.entry(key.clone()).or_insert_with(|| truth(key));
            let Some((p, r)) = precision_recall(&returned, truth) else {
                v.fail("row_out_of_range");
                continue;
            };
            v.precision_met += u64::from(p >= spec.alpha);
            v.recall_met += u64::from(r >= spec.beta);
            if doc.get("tenant").and_then(JsonValue::as_str) != Some(stream.tenant.as_str()) {
                v.fail("wrong_tenant");
            } else if !same(p, precision) || !same(r, recall) {
                v.fail("accuracy_mismatch");
            } else if !record.body_matches {
                v.fail("body_mismatch");
            }
        }
    }
    v.fail_n("queries_not_conserved", server.queries.abs_diff(v.ok_200));
    v.fail_n("shed", server.shed);
    v.fail_n("dedup_joins", server.dedup_joins);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recomputes_precision_and_recall() {
        let truth = [true, false, true, true];
        let (p, r) = precision_recall(&[0, 1, 2], &truth).unwrap();
        assert!(same(p, 2.0 / 3.0) && same(r, 2.0 / 3.0));
        assert_eq!(precision_recall(&[], &truth), Some((1.0, 0.0)));
        assert_eq!(precision_recall(&[9], &truth), None);
    }
}
