//! The workloads: their server settings and their seeded request
//! streams.
//!
//! Every workload is a closed loop of [`CLIENTS`] clients. Each client
//! owns one keep-alive connection and one tenant, so each tenant's
//! engine sees one totally ordered request stream, and every exact count
//! (bill, fresh evaluations, accuracy shares) repeats run after run for
//! a given seed.

use expred_serve::{EngineConfig, ServeConfig, TableKey};
use expred_stats::rng::Prng;
use std::path::PathBuf;
use std::time::Duration;

/// Concurrent closed-loop clients (one tenant each).
pub const CLIENTS: usize = 2;

/// Largest table a request may ask for (the server's admission cap).
pub const MAX_ROWS: usize = 100_000;

/// Rows per generated table.
const TABLE_ROWS: usize = 1_000;

/// The strategies the workloads draw from. Each maps to one `query.kind`
/// of the `/query` wire schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Naive,
    IntelSample,
    Optimal,
    Adaptive,
    Learning,
}

impl Kind {
    /// The wire name (`query.kind`).
    pub fn wire(self) -> &'static str {
        match self {
            Kind::Naive => "naive",
            Kind::IntelSample => "intel_sample",
            Kind::Optimal => "optimal",
            Kind::Adaptive => "adaptive",
            Kind::Learning => "learning",
        }
    }

    /// Whether the kind takes a `predictor` column.
    fn needs_predictor(self) -> bool {
        matches!(self, Kind::IntelSample | Kind::Optimal | Kind::Adaptive)
    }
}

/// The predictor column every predictor-driven request names. Both
/// calibrated generators (`prosper`, `lc`) carry it.
pub const PREDICTOR: &str = "grade";

/// One generated request.
#[derive(Debug, Clone)]
pub struct Planned {
    pub table: TableKey,
    pub kind: Kind,
    pub seed: u64,
}

impl Planned {
    /// The `/query` body the server receives for this request.
    pub fn body(&self, tenant: &str) -> String {
        let predictor = if self.kind.needs_predictor() {
            format!(",\"predictor\":\"{PREDICTOR}\"")
        } else {
            String::new()
        };
        format!(
            "{{\"tenant\":\"{tenant}\",\"table\":{{\"spec\":\"{}\",\"rows\":{},\"seed\":{}}},\
             \"seed\":{},\"query\":{{\"kind\":\"{}\"{predictor}}}}}",
            self.table.spec,
            self.table.rows,
            self.table.seed,
            self.seed,
            self.kind.wire()
        )
    }
}

/// One client's whole stream: the warm-up prefix, then the timed loop.
#[derive(Debug, Clone)]
pub struct ClientStream {
    pub tenant: String,
    /// How many leading requests belong to the warm-up pass.
    pub warmup: usize,
    pub planned: Vec<Planned>,
    pub bodies: Vec<String>,
}

impl ClientStream {
    /// The timed part of the stream.
    pub fn timed(&self) -> &[String] {
        &self.bodies[self.warmup..]
    }
}

/// Zipf(1) weights over ranks `0..n`; rank 0 is the most popular.
fn zipf_weights(n: usize) -> Vec<f64> {
    (1..=n).map(|rank| 1.0 / rank as f64).collect()
}

/// Distinct request seeds per (table, kind) in `zipf_reuse`. With 4
/// tables and 5 kinds that is 320 memo keys per tenant, well inside the
/// result memo's per-stripe budgets: a bigger key set evicts, and which
/// keys a stripe evicts depends on process-unique table ids, so the
/// server and the replay would re-run different requests.
const REUSE_SEEDS: usize = 16;

/// SplitMix64 finalizer: spreads a (seed, stream, index) triple over
/// the whole `u64` range, so generated table and request seeds never
/// line up across clients or workloads.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index)
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Keep seeds inside f64's exact-integer range: the wire format is
    // JSON, whose numbers the server reads as doubles.
    (z ^ (z >> 31)) >> 12
}

fn spec_name(index: u64) -> &'static str {
    if index.is_multiple_of(2) {
        "prosper"
    } else {
        "lc"
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Popular queries repeat: the result memo, derived cache and row
    /// cache carry the load.
    ZipfReuse,
    /// Every request targets a table its tenant never saw, with a
    /// 100 µs UDF and a durable data directory: the paper's setting, with
    /// every paid answer appended to the write-ahead log.
    ColdUdf,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ZipfReuse, Workload::ColdUdf];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfReuse => "zipf_reuse",
            Workload::ColdUdf => "cold_udf",
        }
    }

    /// Timed requests per client in one round: the workload's shape. It
    /// is fixed, not set by the clock, so the exact counts repeat.
    pub fn timed_requests(self) -> usize {
        match self {
            // About 10% of a round's requests miss the memo and 2% are
            // `learning` misses, so the p99 sits inside the learning
            // latencies.
            Workload::ZipfReuse => 2_600,
            // Enough distinct cold queries per round for steady accuracy
            // shares.
            Workload::ColdUdf => 200,
        }
    }

    /// About how long one round's timed loop lasts on a 2-core x86-64
    /// host.
    fn round_seconds(self) -> f64 {
        match self {
            Workload::ZipfReuse => 4.0,
            Workload::ColdUdf => 7.5,
        }
    }

    /// Rounds in a run of `seconds`: as many as fill it, and at least 3.
    /// Each round is a fresh server sent the same streams; more rounds
    /// spread a run over more of the host's good and bad moments.
    pub fn rounds(self, seconds: u64) -> usize {
        ((seconds as f64 / self.round_seconds()).round() as usize).max(3)
    }

    /// Requests per client in the warm-up pass (part of `setup_s`).
    pub fn warmup_requests(self) -> usize {
        match self {
            Workload::ZipfReuse => 64,
            Workload::ColdUdf => 4,
        }
    }

    /// Artificial latency per fresh UDF evaluation.
    pub fn udf_latency(self) -> Duration {
        match self {
            Workload::ZipfReuse => Duration::ZERO,
            Workload::ColdUdf => Duration::from_micros(100),
        }
    }

    /// Whether this workload's tenants persist answers to a data
    /// directory (with the default `FsyncPolicy::EveryBatch`).
    pub fn persists(self) -> bool {
        self == Workload::ColdUdf
    }

    /// The engine settings every tenant gets; `data_dir` is honoured
    /// only by workloads that persist.
    pub fn engine_config(self, data_dir: Option<PathBuf>) -> EngineConfig {
        EngineConfig {
            pooled: self == Workload::ColdUdf,
            udf_latency: self.udf_latency(),
            data_dir: data_dir.filter(|_| self.persists()),
            cache_ttl: None,
        }
    }

    /// The server settings, built from [`Workload::engine_config`].
    pub fn serve_config(self, data_dir: Option<PathBuf>) -> ServeConfig {
        let engine = self.engine_config(data_dir);
        ServeConfig {
            max_rows: MAX_ROWS,
            pooled: engine.pooled,
            udf_latency: engine.udf_latency,
            data_dir: engine.data_dir,
            cache_ttl: engine.cache_ttl,
            ..ServeConfig::default()
        }
    }

    /// Every client's request stream for `seed`, with `timed` requests
    /// per client after the warm-up.
    pub fn streams(self, seed: u64, timed: usize) -> Vec<ClientStream> {
        (0..CLIENTS)
            .map(|client| {
                let tenant = format!("tenant{client}");
                let warmup = self.warmup_requests();
                let planned = self.plan(seed, client as u64, warmup, timed);
                let bodies = planned.iter().map(|p| p.body(&tenant)).collect();
                ClientStream {
                    tenant,
                    warmup,
                    planned,
                    bodies,
                }
            })
            .collect()
    }

    fn plan(self, seed: u64, client: u64, warmup: usize, timed: usize) -> Vec<Planned> {
        let count = warmup + timed;
        let mut rng = Prng::seeded(mix(seed, client, 0xB0D1));
        let rows = TABLE_ROWS;
        match self {
            Workload::ZipfReuse => {
                const KINDS: [Kind; 5] = [
                    Kind::Naive,
                    Kind::IntelSample,
                    Kind::Optimal,
                    Kind::Adaptive,
                    Kind::Learning,
                ];
                // Zipf over tables, kinds and request seeds. The warm-up
                // asks each of the `warmup` most popular queries once; the
                // timed loop is drawn by stratified sampling from the joint
                // distribution and shuffled, so every query appears within
                // one of its expected count. The memo misses of the timed
                // loop (every query the warm-up left out) therefore vary
                // little from seed to seed, while the seed decides the order.
                let tables = zipf_weights(4);
                let kinds = zipf_weights(KINDS.len());
                let seeds = zipf_weights(REUSE_SEEDS);
                let mut joint = Vec::with_capacity(4 * KINDS.len() * REUSE_SEEDS);
                for (t, pt) in tables.iter().enumerate() {
                    for (k, pk) in kinds.iter().enumerate() {
                        for (s, ps) in seeds.iter().enumerate() {
                            joint.push((pt * pk * ps, t as u64, KINDS[k], s as u64));
                        }
                    }
                }
                // The tables and the query vocabulary (kinds × request
                // seeds) are fixed data; the workload seed draws the stream
                // over them.
                let request = |&(_, t, kind, s): &(f64, u64, Kind, u64)| Planned {
                    table: TableKey {
                        spec: spec_name(t).into(),
                        rows,
                        seed: mix(0, client, 100 + t),
                    },
                    kind,
                    seed: mix(0, client, 200 + s),
                };
                let mut by_popularity = joint.clone();
                by_popularity.sort_by(|a, b| b.0.total_cmp(&a.0));
                let mut warm: Vec<Planned> =
                    by_popularity.iter().take(warmup).map(request).collect();
                rng.shuffle(&mut warm);
                let total: f64 = joint.iter().map(|j| j.0).sum();
                let offset = rng.f64();
                let mut below = 0.0;
                let cumulative: Vec<f64> = joint
                    .iter()
                    .map(|j| {
                        below += j.0;
                        below
                    })
                    .collect();
                let mut stream: Vec<Planned> = (0..timed)
                    .map(|i| {
                        let u = total * (i as f64 + offset) / timed as f64;
                        let at = cumulative.partition_point(|&c| c < u).min(joint.len() - 1);
                        request(&joint[at])
                    })
                    .collect();
                rng.shuffle(&mut stream);
                warm.extend(stream);
                warm
            }
            Workload::ColdUdf => {
                let shapes = balanced(&mut rng, count);
                (0..count as u64)
                    .zip(shapes)
                    .map(|(i, (spec, kind))| Planned {
                        // A table seed no earlier request of this tenant
                        // used: neither memo nor row cache can help.
                        table: TableKey {
                            spec: spec.into(),
                            rows,
                            seed: mix(seed, client, 1_000_000 + i),
                        },
                        kind,
                        seed: rng.next_u64() >> 12,
                    })
                    .collect()
            }
        }
    }
}

/// The kinds `cold_udf` draws from.
const COLD_KINDS: [Kind; 4] = [
    Kind::Naive,
    Kind::IntelSample,
    Kind::Optimal,
    Kind::Adaptive,
];

/// `count` (spec, kind) pairs in which every combination of the two
/// specs and [`COLD_KINDS`] appears equally often (±1), in seeded order:
/// the mix stays fixed from seed to seed while the order and the data
/// change.
fn balanced(rng: &mut Prng, count: usize) -> Vec<(&'static str, Kind)> {
    let combos = 2 * COLD_KINDS.len();
    let mut shapes: Vec<(&'static str, Kind)> = (0..count)
        .map(|i| {
            let c = i % combos;
            (spec_name(c as u64), COLD_KINDS[c / 2])
        })
        .collect();
    rng.shuffle(&mut shapes);
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = w.streams(7, 20);
            let b = w.streams(7, 20);
            let c = w.streams(8, 20);
            for client in 0..CLIENTS {
                assert_eq!(a[client].bodies, b[client].bodies);
                assert_ne!(a[client].bodies, c[client].bodies);
            }
        }
    }

    #[test]
    fn bodies_parse_at_the_server_door() {
        for w in Workload::ALL {
            for stream in w.streams(3, 30) {
                for body in &stream.bodies {
                    let query = expred_serve::api::parse_query_body(body.as_bytes(), MAX_ROWS)
                        .expect("generated bodies are valid");
                    assert_eq!(query.tenant.as_deref(), Some(stream.tenant.as_str()));
                }
            }
        }
    }
}
