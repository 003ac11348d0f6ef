//! The untraced HTTP run: start `expred-serve` in-process, warm it up,
//! then drive the timed closed loop over real TCP.
//!
//! A run is several *rounds*. Each round starts a fresh server (and,
//! when the workload persists, a fresh data directory), sends the same
//! streams, and shuts the server down. Spreading a run over several
//! servers keeps one server's thread placement, or a neighbour's burst of
//! load, from setting the result. Every round must answer every request
//! exactly as the first round did.

use crate::workload::{ClientStream, Workload};
use expred_core::QuerySpec;
use expred_serve::{serve, HttpClient, ServerHandle};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// One response as the client received it. Transport failures have
/// status 0 and the error text as the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Counters read from one round's server through its public stats APIs,
/// after the timed loop. Every field but `memo_evictions` is exact: it
/// repeats from round to round.
#[derive(Debug, Clone, Default)]
pub struct ServerCounters {
    /// Σ over tenants of the session bill under the paper's cost model.
    pub bill: f64,
    /// Σ over tenants of fresh UDF evaluations.
    pub fresh_evals: u64,
    pub queries: u64,
    pub result_hits: u64,
    pub dedup_joins: u64,
    /// Result-memo evictions (a re-run after one may answer with other
    /// counts than the first run). Not exact: which entries a memo stripe
    /// holds depends on process-unique table ids.
    pub memo_evictions: u64,
    /// Requests the admission gate shed.
    pub shed: u64,
}

impl ServerCounters {
    /// Whether the exact counters agree.
    fn same_exact(&self, other: &Self) -> bool {
        (self.bill, self.fresh_evals, self.queries, self.result_hits)
            == (
                other.bill,
                other.fresh_evals,
                other.queries,
                other.result_hits,
            )
            && (self.dedup_joins, self.shed) == (other.dedup_joins, other.shed)
    }
}

/// One round's timings.
#[derive(Debug, Clone)]
pub struct Round {
    /// `serve(...)` plus the warm-up pass.
    pub setup_s: f64,
    /// Wall time of the timed loop (all clients).
    pub timed_s: f64,
    /// Per-request latency of the timed loop, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Peak resident set (`VmHWM`) during the round, MiB.
    pub peak_rss_mb: f64,
}

/// Everything the HTTP run measured and received.
pub struct HttpRun {
    pub rounds: Vec<Round>,
    /// Per client, the first round's response to every request (warm-up
    /// included).
    pub responses: Vec<Vec<Response>>,
    /// The first round's server counters.
    pub counters: ServerCounters,
    /// Responses of later rounds that differ from the first round's.
    pub round_mismatches: u64,
    /// Later rounds whose server counters differ from the first round's.
    pub counter_mismatches: u64,
}

fn send(client: &mut Option<HttpClient>, addr: SocketAddr, body: &str) -> (Response, u64) {
    let start = Instant::now();
    let result = match client {
        Some(c) => c.post("/query", body),
        None => Err(std::io::Error::other("not connected")),
    };
    let elapsed = start.elapsed().as_nanos() as u64;
    let response = match result {
        Ok(r) => Response {
            status: r.status,
            body: r.body,
        },
        Err(e) => {
            // Reconnect for the next request; this one counts as failed.
            *client = HttpClient::connect(addr).ok();
            Response {
                status: 0,
                body: format!("transport error: {e}").into_bytes(),
            }
        }
    };
    (response, elapsed)
}

/// One client's responses and per-request latencies (nanoseconds).
type Driven = (Vec<Response>, Vec<u64>);

/// Sends `bodies` in order on one connection.
fn drive(client: &mut Option<HttpClient>, addr: SocketAddr, bodies: &[String]) -> Driven {
    let mut responses = Vec::with_capacity(bodies.len());
    let mut latencies = Vec::with_capacity(bodies.len());
    for body in bodies {
        let (response, ns) = send(client, addr, body);
        responses.push(response);
        latencies.push(ns);
    }
    (responses, latencies)
}

/// Runs every client's `pick(stream)` concurrently, one thread per
/// client, released together; returns the wall time from release to the
/// last client's finish and each client's responses and latencies.
fn drive_all(
    clients: &mut [Option<HttpClient>],
    addr: SocketAddr,
    streams: &[ClientStream],
    pick: fn(&ClientStream) -> &[String],
) -> (f64, Vec<Driven>) {
    let barrier = Barrier::new(streams.len() + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let out = drive(client, addr, pick(stream));
                    (out, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        let end = results.iter().map(|(_, at)| *at).max().unwrap_or(t0);
        (
            end.duration_since(t0).as_secs_f64(),
            results.into_iter().map(|(out, _)| out).collect(),
        )
    })
}

fn counters(handle: &ServerHandle) -> ServerCounters {
    let cost = QuerySpec::paper_default().cost;
    let mut c = ServerCounters {
        shed: handle.gate().shed(),
        ..ServerCounters::default()
    };
    for tenant in handle.tenants().snapshot() {
        let engine = tenant.engine();
        let session = engine.session_counts();
        let stats = engine.stats();
        c.bill += session.cost(&cost);
        c.fresh_evals += session.evaluated;
        c.queries += stats.queries;
        c.result_hits += stats.result_hits;
        c.dedup_joins += stats.dedup_joins;
        c.memo_evictions += engine.result_memo_stats().evictions;
    }
    c
}

/// One round: a fresh server, one connection per client, the warm-up
/// pass (together the round's setup), then the timed loop.
fn round(
    workload: Workload,
    streams: &[ClientStream],
    data_dir: &Path,
) -> (Round, Vec<Vec<Response>>, ServerCounters) {
    reset_peak_rss();
    let t0 = Instant::now();
    let mut handle = serve(
        "127.0.0.1:0",
        workload.serve_config(Some(data_dir.to_path_buf())),
    )
    .expect("bind a loopback port");
    let addr = handle.local_addr();
    let mut clients: Vec<Option<HttpClient>> = (0..streams.len())
        .map(|_| HttpClient::connect(addr).ok())
        .collect();
    let (_, warmup) = drive_all(&mut clients, addr, streams, |s| &s.bodies[..s.warmup]);
    let setup_s = t0.elapsed().as_secs_f64();

    let (timed_s, timed) = drive_all(&mut clients, addr, streams, ClientStream::timed);
    let peak_rss_mb = peak_rss_mb();
    let counters = counters(&handle);
    // Close the connections first so shutdown need not wait out their
    // idle poll.
    drop(clients);
    handle.shutdown();

    let mut latencies_ns = Vec::new();
    let responses = warmup
        .into_iter()
        .zip(timed)
        .map(|((mut all, _), (timed, latencies))| {
            latencies_ns.extend(latencies);
            all.extend(timed);
            all
        })
        .collect();
    (
        Round {
            setup_s,
            timed_s,
            latencies_ns,
            peak_rss_mb,
        },
        responses,
        counters,
    )
}

impl HttpRun {
    /// Every round's timed-loop latencies in one sorted pool: every round
    /// sends the same requests, so the pool is one larger sample of the
    /// same traffic.
    pub fn pooled_latencies_ns(&self) -> Vec<u64> {
        let mut pooled: Vec<u64> = self
            .rounds
            .iter()
            .flat_map(|r| r.latencies_ns.iter().copied())
            .collect();
        pooled.sort_unstable();
        pooled
    }
}

/// Runs `rounds` rounds, each on a fresh server with a fresh data
/// directory under `data_root`.
pub fn run(
    workload: Workload,
    streams: &[ClientStream],
    rounds: usize,
    data_root: &Path,
) -> HttpRun {
    let mut run = HttpRun {
        rounds: Vec::with_capacity(rounds),
        responses: Vec::new(),
        counters: ServerCounters::default(),
        round_mismatches: 0,
        counter_mismatches: 0,
    };
    for r in 0..rounds.max(1) {
        let dir = data_root.join(format!("http-{r}"));
        let (stats, responses, counters) = round(workload, streams, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        run.rounds.push(stats);
        if r == 0 {
            run.responses = responses;
            run.counters = counters;
        } else {
            run.round_mismatches += responses
                .iter()
                .flatten()
                .zip(run.responses.iter().flatten())
                .filter(|(a, b)| a != b)
                .count() as u64;
            run.counter_mismatches += u64::from(!counters.same_exact(&run.counters));
        }
    }
    run
}

/// Resets this process's `VmHWM` to its current resident set (Linux
/// `clear_refs` value 5), so each round reports its own peak. Where that
/// is unavailable the peak simply carries over from earlier rounds.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's peak resident set (`VmHWM`), MiB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
