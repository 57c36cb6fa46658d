//! Daemon load generator: concurrent clients over the transport
//! matrix, with a unique and a duplicate-heavy workload per transport.
//!
//! Each cell of the matrix gets a fresh dual-bound daemon (Unix
//! socket + loopback TCP) and `clients` threads, each issuing
//! `requests_per_client` tiny-unit `check` requests:
//!
//! * **unique** — every request carries a globally distinct unit, so
//!   every request pays the full pipeline (bounded-cache evictions
//!   included once the pool exceeds the cache capacity). This is the
//!   raw end-to-end throughput number.
//! * **duplicate** — clients pipeline bursts of identical delayed
//!   requests drawn from a tiny unit pool. The artificial 1ms stall
//!   keeps each burst's leader in flight while its twins dispatch, so
//!   the burst coalesces deterministically: `coalesced` must be
//!   nonzero and throughput reflects shared computation, not repeated
//!   work.
//!
//! Every cell reports requests, wall-clock, req/s, coalesced hits,
//! dropped completions (must be zero; a burst member whose findings
//! differ from its burst's first response counts as dropped too),
//! overload rejections, timeouts,
//! and the engine's frontend-cache residency against its capacity —
//! the flat-memory check: residency is bounded by the cache capacity
//! (unique) or the pool size (duplicate) no matter how many requests
//! were served.

use pallas_core::SourceUnit;
use pallas_service::{Bind, Client, Request, RuleSelection, Server, ServiceConfig, Value};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Knobs for one matrix run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections per cell.
    pub clients: usize,
    /// Requests each client issues (the duplicate workload rounds
    /// this down to whole bursts).
    pub requests_per_client: usize,
    /// Unit-pool size for the duplicate-heavy workload.
    pub duplicate_pool: usize,
    /// Daemon worker threads.
    pub workers: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig { clients: 4, requests_per_client: 200, duplicate_pool: 2, workers: 4 }
    }
}

/// Identical requests pipelined per duplicate-workload burst.
const BURST: usize = 8;

/// One cell's measurements.
#[derive(Debug, Clone)]
pub struct LoadgenRun {
    /// `"unix"` or `"tcp"`.
    pub transport: &'static str,
    /// `"unique"` or `"duplicate"`.
    pub workload: &'static str,
    /// Requests issued (and answered — every response is verified).
    pub requests: u64,
    /// Wall-clock for the whole cell's load phase.
    pub elapsed: Duration,
    /// Responses delivered by riding another request's computation.
    pub coalesced: u64,
    /// Finished computations with no live waiter, plus burst members
    /// whose findings differ from their burst's first (must stay zero).
    pub dropped: u64,
    /// Admission rejections (zero under a generous queue bound).
    pub rejected: u64,
    /// Requests that blew the daemon's per-request budget.
    pub timed_out: u64,
    /// Frontend-cache entries resident after the run.
    pub resident: u64,
    /// Frontend-cache capacity bound.
    pub capacity: u64,
}

impl LoadgenRun {
    /// Aggregate request throughput for the cell.
    pub fn reqs_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// A minimal one-function unit; distinct `i` means a distinct engine
/// fingerprint (name, function, and constant all differ).
fn tiny_unit(i: u64) -> SourceUnit {
    SourceUnit::new(format!("loadgen/u{i}"))
        .with_file(
            "u.c",
            format!(
                "typedef unsigned int gfp_t;\n\
                 int noio(gfp_t m);\n\
                 int fast{i}(gfp_t gfp_mask) {{ gfp_mask = noio(gfp_mask); return {i}; }}\n"
            ),
        )
        .with_spec(format!("fastpath fast{i}; immutable gfp_mask;"))
}

/// Runs the full 2×2 matrix: (unix, tcp) × (unique, duplicate).
pub fn run_matrix(cfg: &LoadgenConfig) -> Vec<LoadgenRun> {
    let mut runs = Vec::new();
    for transport in ["unix", "tcp"] {
        for workload in ["unique", "duplicate"] {
            runs.push(run_cell(cfg, transport, workload));
        }
    }
    runs
}

fn run_cell(cfg: &LoadgenConfig, transport: &'static str, workload: &'static str) -> LoadgenRun {
    static CELL: AtomicU64 = AtomicU64::new(0);
    let socket = std::env::temp_dir().join(format!(
        "pallas-loadgen-{}-{}.sock",
        std::process::id(),
        CELL.fetch_add(1, Ordering::Relaxed)
    ));
    let config = ServiceConfig {
        workers: cfg.workers.max(1),
        queue_depth: 256,
        ..ServiceConfig::default()
    };
    let handle = Server::start_with(Bind::unix(&socket).with_tcp("127.0.0.1:0"), config)
        .expect("loadgen daemon starts");
    let tcp_addr = handle.tcp_addr().expect("tcp listener bound");
    let connect = || -> Client {
        match transport {
            "unix" => Client::connect(&socket).expect("unix client connects"),
            _ => Client::connect_tcp(tcp_addr).expect("tcp client connects"),
        }
    };

    let next_unique = AtomicU64::new(0);
    let requests = AtomicU64::new(0);
    let diverged = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..cfg.clients.max(1) {
            let (next_unique, requests, diverged, connect) =
                (&next_unique, &requests, &diverged, &connect);
            scope.spawn(move || {
                let mut client = connect();
                if workload == "unique" {
                    for _ in 0..cfg.requests_per_client {
                        let u = tiny_unit(next_unique.fetch_add(1, Ordering::Relaxed));
                        let response = client.check(&u).expect("check response arrives");
                        assert_eq!(
                            response.get("ok").and_then(Value::as_bool),
                            Some(true),
                            "loadgen check failed: {response}"
                        );
                        requests.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    // Bursts of identical delayed checks: the 1ms
                    // stall pins the leader in flight while the rest
                    // of the burst dispatches, so the burst coalesces.
                    let rounds = (cfg.requests_per_client / BURST).max(1);
                    for r in 0..rounds {
                        let unit = tiny_unit(1_000_000 + ((c + r) % cfg.duplicate_pool) as u64);
                        let line = Request::Check {
                            unit,
                            delay: Some(Duration::from_millis(1)),
                            rules: RuleSelection::default(),
                        }
                        .to_line();
                        let burst = vec![line; BURST];
                        let responses =
                            client.pipeline(&burst).expect("burst responses arrive");
                        // Compare findings only: a member dispatched after
                        // its leader finished is a cache hit, and says so
                        // in its `cached` field.
                        let findings: Vec<String> = responses
                            .iter()
                            .map(|response| {
                                let v = pallas_service::json::parse(response).unwrap_or_else(|e| {
                                    panic!("bad burst response ({e}): {response}")
                                });
                                assert_eq!(
                                    v.get("ok").and_then(Value::as_bool),
                                    Some(true),
                                    "loadgen burst check failed: {response}"
                                );
                                let ndjson = v.get("ndjson").and_then(Value::as_str);
                                ndjson.unwrap_or_default().to_string()
                            })
                            .collect();
                        let mismatched = findings.iter().filter(|f| *f != &findings[0]).count();
                        diverged.fetch_add(mismatched as u64, Ordering::Relaxed);
                        requests.fetch_add(BURST as u64, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let m = handle.metrics();
    let engine_stats = handle.engine().stats();
    let run = LoadgenRun {
        transport,
        workload,
        requests: requests.load(Ordering::Relaxed),
        elapsed,
        coalesced: m.coalesced_hits.load(Ordering::Relaxed),
        dropped: m.dropped_completions.load(Ordering::Relaxed) + diverged.load(Ordering::Relaxed),
        rejected: m.rejected_overload.load(Ordering::Relaxed),
        timed_out: m.timed_out.load(Ordering::Relaxed),
        resident: engine_stats.cached_frontends,
        capacity: engine_stats.cache_capacity,
    };
    let _ = handle.stop();
    let _ = std::fs::remove_file(&socket);
    run
}

/// Runs the matrix and renders one `key=value` line per cell (easy to
/// grep in CI) under a human-readable header.
pub fn loadgen_text(cfg: &LoadgenConfig) -> String {
    let runs = run_matrix(cfg);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Loadgen: {} client(s) x {} request(s), {} worker(s), tiny units, \
         duplicate pool {} (bursts of {BURST}).",
        cfg.clients, cfg.requests_per_client, cfg.workers, cfg.duplicate_pool
    );
    for r in &runs {
        let _ = writeln!(
            out,
            "cell={}/{} requests={} elapsed_ms={} reqs_per_sec={:.0} coalesced={} \
             dropped={} rejected={} timed_out={} resident={} capacity={}",
            r.transport,
            r.workload,
            r.requests,
            r.elapsed.as_millis(),
            r.reqs_per_sec(),
            r.coalesced,
            r.dropped,
            r.rejected,
            r.timed_out,
            r.resident,
            r.capacity
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_serves_every_cell_with_zero_drops_and_bounded_memory() {
        let cfg = LoadgenConfig {
            clients: 3,
            requests_per_client: 48,
            duplicate_pool: 2,
            workers: 2,
        };
        let runs = run_matrix(&cfg);
        assert_eq!(runs.len(), 4, "2 transports x 2 workloads");
        for r in &runs {
            assert!(r.requests > 0, "{}/{} sent no load", r.transport, r.workload);
            assert_eq!(r.dropped, 0, "{}/{} orphaned responses", r.transport, r.workload);
            assert_eq!(r.rejected, 0, "{}/{} hit overload", r.transport, r.workload);
            assert_eq!(r.timed_out, 0, "{}/{} timed out", r.transport, r.workload);
            // Flat memory: residency never exceeds the bounded cache,
            // and the duplicate workload's tiny pool keeps it tiny.
            assert!(
                r.resident <= r.capacity,
                "{}/{} cache residency {} over capacity {}",
                r.transport,
                r.workload,
                r.resident,
                r.capacity
            );
            if r.workload == "duplicate" {
                assert!(
                    r.coalesced > 0,
                    "{}/duplicate never coalesced",
                    r.transport
                );
                assert!(
                    r.resident <= cfg.duplicate_pool as u64,
                    "{}/duplicate resident {} over pool {}",
                    r.transport,
                    r.resident,
                    cfg.duplicate_pool
                );
            }
        }
    }

    #[test]
    fn text_report_carries_greppable_cells() {
        let cfg = LoadgenConfig {
            clients: 2,
            requests_per_client: 16,
            duplicate_pool: 1,
            workers: 2,
        };
        let text = loadgen_text(&cfg);
        for cell in
            ["cell=unix/unique", "cell=unix/duplicate", "cell=tcp/unique", "cell=tcp/duplicate"]
        {
            assert!(text.contains(cell), "missing {cell} in:\n{text}");
        }
        assert!(text.contains("dropped=0"), "{text}");
    }
}
