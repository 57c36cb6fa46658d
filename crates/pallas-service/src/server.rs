//! The analysis daemon.
//!
//! [`Server::start_with`] binds a Unix-domain socket and/or a TCP
//! listener ([`Bind`]) and spins up two kinds of threads around one
//! shared [`Engine`]:
//!
//! * a single **event-loop thread** (the `mux` module) that multiplexes
//!   every listener and connection through a nonblocking readiness
//!   loop: it frames newline-delimited JSON requests, answers
//!   `stats`/`trace`/`shutdown` inline, pushes check/batch work
//!   through the [`Admission`] queue, enforces the per-request
//!   wall-clock timeout, and drains worker completions back to
//!   clients in strict per-connection request order;
//! * a **worker pool** that executes admitted jobs. A `batch` job
//!   fans its units out through the engine's work-stealing scheduler
//!   (`check_many_jobs`), so one request can still use every worker.
//!
//! Identical concurrent `check` requests are **coalesced**
//! (the `coalesce` module): keyed by the engine fingerprint, the first
//! becomes the one computation and the rest wait on it, each still
//! receiving its own byte-identical response line. Both transports
//! speak exactly the same protocol, so responses are byte-identical
//! across Unix socket, TCP, and the coalesced path.
//!
//! Because every worker shares the engine, repeated requests for the
//! same `(source, spec, config)` hit the bounded frontend cache —
//! the daemon turns the engine cache from a per-invocation
//! optimization into a cross-request one. Graceful shutdown (the
//! `shutdown` request or [`ServerHandle::stop`]) closes the
//! listeners, finishes in-flight work, flushes every response and the
//! persistent store, and returns a metrics summary for the operator
//! log.

use crate::admission::Admission;
use crate::coalesce::{Coalescer, Waiter};
use crate::metrics::ServiceMetrics;
use crate::mux::{mux_loop, ListenerSocket};
use crate::poll::Waker;
use crate::protocol::{
    analysis_error_response, batch_response, check_response, error_response,
};
use pallas_checkers::RuleSet;
use pallas_core::engine::default_jobs;
use pallas_core::{Engine, EngineConfig, SourceUnit};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads executing admitted jobs (also the fan-out width
    /// of a `batch` request).
    pub workers: usize,
    /// Bound on the pending queue; submissions beyond it are rejected
    /// with an `overload` error.
    pub queue_depth: usize,
    /// Per-request wall-clock budget, enforced by the event loop (it
    /// also bounds the graceful-drain window on shutdown).
    pub timeout: Duration,
    /// Engine configuration (extraction limits + frontend cache bound).
    pub engine: EngineConfig,
    /// Latency histogram bucket upper bounds, in microseconds (each
    /// inclusive; an implicit `+inf` bucket follows the last). Applies
    /// to every histogram in the metrics registry.
    pub bucket_bounds_us: Vec<u64>,
    /// Start the process-wide trace collector when the daemon comes
    /// up; the `trace` protocol request drains it.
    pub trace: bool,
    /// Longest accepted request line, in bytes. A line that outgrows
    /// this without a newline gets a clean `protocol` error and is
    /// discarded up to the next newline; the connection survives.
    pub max_line_bytes: usize,
    /// Share one computation among concurrent identical `check`
    /// requests (each still gets its own response). Batches are never
    /// coalesced.
    pub coalesce: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: default_jobs(),
            queue_depth: 64,
            timeout: Duration::from_secs(30),
            engine: EngineConfig::default(),
            bucket_bounds_us: crate::metrics::BUCKET_BOUNDS_US.to_vec(),
            trace: false,
            max_line_bytes: 16 * 1024 * 1024,
            coalesce: true,
        }
    }
}

/// Where the daemon listens. Both transports may be bound at once;
/// they serve the identical protocol with byte-identical responses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bind {
    /// Unix-domain socket path (stale socket files are replaced).
    pub unix: Option<PathBuf>,
    /// TCP address, e.g. `127.0.0.1:7979` (`:0` picks a free port —
    /// read it back with [`ServerHandle::tcp_addr`]).
    pub tcp: Option<String>,
}

impl Bind {
    /// Unix socket only (the classic daemon shape).
    pub fn unix(path: impl AsRef<Path>) -> Bind {
        Bind { unix: Some(path.as_ref().to_path_buf()), tcp: None }
    }

    /// TCP only.
    pub fn tcp(addr: impl Into<String>) -> Bind {
        Bind { unix: None, tcp: Some(addr.into()) }
    }

    /// Adds a TCP listener to this bind.
    pub fn with_tcp(mut self, addr: impl Into<String>) -> Bind {
        self.tcp = Some(addr.into());
        self
    }
}

/// One admitted unit of work.
pub(crate) struct Job {
    pub(crate) kind: JobKind,
    /// Where the finished response line goes.
    pub(crate) route: Route,
    /// Set by the event loop when every interested waiter is gone
    /// (timeout/disconnect); a worker seeing the flag before starting
    /// skips the job entirely.
    pub(crate) cancelled: Arc<AtomicBool>,
    /// When the event loop submitted the job; the gap to a worker
    /// picking it up is the queue wait.
    pub(crate) submitted: Instant,
}

pub(crate) enum JobKind {
    Check { unit: SourceUnit, delay: Option<Duration>, rules: Option<RuleSet> },
    Batch { units: Vec<SourceUnit>, delay: Option<Duration>, rules: Option<RuleSet> },
}

/// Response routing for a finished job.
pub(crate) enum Route {
    /// Sole owner: one waiter gets the line.
    Direct(Waiter),
    /// Coalesced computation: every waiter registered under the key
    /// gets its own copy of the line.
    Coalesced { key: u64 },
}

/// One finished response en route to a connection.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) seq: u64,
    pub(crate) line: String,
}

impl JobKind {
    fn op_name(&self) -> &'static str {
        match self {
            JobKind::Check { .. } => "check",
            JobKind::Batch { .. } => "batch",
        }
    }

    fn unit_count(&self) -> usize {
        match self {
            JobKind::Check { .. } => 1,
            JobKind::Batch { units, .. } => units.len(),
        }
    }
}

/// Everything the event loop and worker threads share.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) admission: Admission<Job>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) config: ServiceConfig,
    pub(crate) coalescer: Coalescer,
    /// Finished responses from workers, drained by the event loop.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Kicks the event loop out of `poll` when completions arrive.
    pub(crate) waker: Waker,
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Binds a Unix socket at `path` (replacing any stale socket
    /// file) and starts the event loop and worker pool. Returns
    /// immediately; use the handle to wait for or trigger shutdown.
    pub fn start(path: impl AsRef<Path>, config: ServiceConfig) -> std::io::Result<ServerHandle> {
        Server::start_with(Bind::unix(path), config)
    }

    /// Binds every listener in `bind` (at least one is required) and
    /// starts the daemon. Responses are byte-identical across
    /// transports.
    pub fn start_with(bind: Bind, config: ServiceConfig) -> std::io::Result<ServerHandle> {
        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        if let Some(path) = &bind.unix {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            listeners.push(ListenerSocket::Unix(listener, path.clone()));
        }
        if let Some(addr) = &bind.tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            listeners.push(ListenerSocket::Tcp(listener));
        }
        if listeners.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "daemon needs at least one listener (unix socket or tcp)",
            ));
        }
        if config.trace {
            pallas_trace::set_enabled(true);
        }
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            engine: Engine::with_engine_config(config.engine.clone()),
            metrics: ServiceMetrics::with_bounds(&config.bucket_bounds_us),
            admission: Admission::new(config.queue_depth),
            shutdown: AtomicBool::new(false),
            coalescer: Coalescer::new(),
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            config,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pallas-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let mux = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pallas-mux".into())
                .spawn(move || mux_loop(listeners, &shared))
                .expect("spawn event loop")
        };
        Ok(ServerHandle { unix_path: bind.unix, tcp_addr, shared, mux: Some(mux), workers })
    }
}

/// A running daemon. Dropping the handle requests shutdown without
/// waiting; call [`stop`](ServerHandle::stop) or
/// [`wait`](ServerHandle::wait) to drain and join cleanly.
pub struct ServerHandle {
    unix_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    mux: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The Unix socket path the daemon is serving on, if bound.
    pub fn socket_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The TCP address the daemon is serving on, if bound (resolved,
    /// so a `:0` bind reports the actual port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The shared engine (tests and benches inspect its cache stats).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// A stats snapshot straight from the registry (tests and the
    /// loadgen bench read counters without burning a request).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
    }

    /// Blocks until a `shutdown` request arrives, then drains and
    /// joins everything. Returns the metrics summary for logging.
    pub fn wait(mut self) -> String {
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.finish()
    }

    /// Triggers shutdown programmatically, drains, and joins.
    /// Returns the metrics summary for logging.
    pub fn stop(mut self) -> String {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.finish()
    }

    fn finish(&mut self) -> String {
        // Order matters: the event loop owns the rolling drain (close
        // listeners, finish in-flight, flush responses); only after
        // it exits is the worker queue torn down.
        self.shared.waker.wake();
        if let Some(mux) = self.mux.take() {
            let _ = mux.join();
        }
        self.shared.admission.shutdown();
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        // Graceful shutdown makes every analyzed unit durable: a
        // restarted `serve --store` daemon answers them from disk.
        if let Err(e) = self.shared.engine.flush_store() {
            eprintln!("pallas: warning: cannot flush analysis store on shutdown: {e}");
        }
        self.shared.metrics.render_summary(&self.shared.engine.stats())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.waker.wake();
        self.shared.admission.shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.admission.next() {
        if job.cancelled.load(Ordering::Relaxed) {
            // Every waiter already got a timeout error (or hung up);
            // don't burn engine time on a response nobody reads. The
            // coalescer entry, if any, was removed by the final
            // cancel, so the key is free for a fresh leader.
            continue;
        }
        let queue_wait = job.submitted.elapsed();
        shared.metrics.queue_wait.record(queue_wait);
        let mut span = pallas_trace::span(pallas_trace::Layer::Request, job.kind.op_name());
        span.attr_u64("queue_wait_us", queue_wait.as_micros() as u64);
        span.attr_u64("units", job.kind.unit_count() as u64);
        let execute_started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job.kind)));
        let execute = execute_started.elapsed();
        shared.metrics.execute_latency.record(execute);
        span.attr_u64("execute_us", execute.as_micros() as u64);
        drop(span);
        let line = outcome
            .unwrap_or_else(|_| error_response("internal: analysis worker panicked"));
        deliver(shared, &job.route, line);
    }
}

/// Routes a finished response line: one completion per waiter (a
/// coalesced job fans one line out to every registered waiter), then
/// wakes the event loop to deliver them.
fn deliver(shared: &Arc<Shared>, route: &Route, line: String) {
    let mut finished = Vec::new();
    match route {
        Route::Direct(waiter) => {
            finished.push(Completion { conn: waiter.conn, seq: waiter.seq, line });
        }
        Route::Coalesced { key } => {
            for waiter in shared.coalescer.complete(*key) {
                finished.push(Completion { conn: waiter.conn, seq: waiter.seq, line: line.clone() });
            }
        }
    }
    if finished.is_empty() {
        // Raced with the last waiter's cancellation after the job had
        // already started; the result has nowhere to go.
        ServiceMetrics::bump(&shared.metrics.dropped_completions);
        return;
    }
    shared.completions.lock().expect("completion queue").extend(finished);
    shared.waker.wake();
}

fn run_job(shared: &Arc<Shared>, kind: &JobKind) -> String {
    match kind {
        JobKind::Check { unit, delay, rules } => {
            if let Some(d) = delay {
                std::thread::sleep(*d);
            }
            let result = match rules {
                Some(set) => shared.engine.check_unit_with_rules(unit, set),
                None => shared.engine.check_unit(unit),
            };
            match result {
                Ok(analyzed) => {
                    ServiceMetrics::bump(&shared.metrics.completed);
                    shared.metrics.record_stages(&analyzed.stage_timings);
                    check_response(&analyzed)
                }
                Err(err) => {
                    ServiceMetrics::bump(&shared.metrics.failed);
                    analysis_error_response(&err)
                }
            }
        }
        JobKind::Batch { units, delay, rules } => {
            if let Some(d) = delay {
                std::thread::sleep(*d);
            }
            let jobs = shared.config.workers.max(1);
            let results = match rules {
                Some(set) => shared
                    .engine
                    .check_many_with(units, jobs, |e, u| e.check_unit_with_rules(u, set)),
                None => shared.engine.check_many_jobs(units, jobs),
            };
            for result in &results {
                match result {
                    Ok(analyzed) => {
                        ServiceMetrics::bump(&shared.metrics.completed);
                        shared.metrics.record_stages(&analyzed.stage_timings);
                    }
                    Err(_) => ServiceMetrics::bump(&shared.metrics.failed),
                }
            }
            batch_response(&results)
        }
    }
}
