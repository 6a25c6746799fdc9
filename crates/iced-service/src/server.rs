//! The daemon: a single-threaded readiness reactor that owns every
//! connection, a bounded request queue, a fixed worker pool, a
//! content-addressed cache, and graceful shutdown.
//!
//! ## Threading model
//!
//! * One **reactor** thread (see [`crate::reactor`]) multiplexes the
//!   listener and all client sockets over nonblocking `poll(2)`: it
//!   accepts, frames newline-delimited JSON incrementally, answers
//!   control verbs (`healthz`, `metrics`, `stats`, `shutdown`) inline so
//!   they stay responsive even when the work queue is saturated, pushes
//!   work verbs onto the bounded queue (a full queue yields an immediate
//!   typed `queue_full` response, never an unbounded buffer), and writes
//!   responses back in strict per-connection request order with
//!   interest-driven writability — partial writes are buffered, never
//!   blocked on.
//! * `ICED_SVC_THREADS` **workers** drain the queue, consult the cache,
//!   compute on miss, render the full response envelope, and hand it back
//!   to the reactor through a completion list plus a wake token.
//!
//! ## Batching
//!
//! The `batch` verb carries many compile/simulate slots in one envelope.
//! The reactor derives every slot's [`CacheKey`] *before* enqueueing and
//! dedupes inside the batch: identical specs are computed once and the
//! rendered bytes fan out to every slot (and into the cache). A bad slot
//! is answered in place with a structured error; its siblings still run.
//!
//! ## Memoized mapping
//!
//! Beneath the response cache sit two per-daemon memos. The
//! [`MappingMemo`] holds the mapping a compile's strategy post-pass
//! starts from, so the four strategies and `simulate` of one kernel run
//! the mapper once per distinct mapper-option set (baseline and
//! DVFS-aware) instead of once per response. The partition memo holds
//! each pipeline's `Partition::table1`, shared by its three `stream`
//! policies. Response bytes do not change: both memos hold deterministic
//! mapper output, and the post-pass, engine run and rendering still run
//! per response.
//!
//! ## Shutdown
//!
//! `shutdown` (or [`Server::shutdown`]) flips a flag, closes the queue,
//! and wakes the reactor. The listener is dropped immediately; workers
//! drain everything already accepted; the reactor keeps routing and
//! flushing those responses and exits once nothing is outstanding (with
//! a bounded grace period for unflushable sockets); the cache is spilled;
//! only then are client sockets closed. A request the server accepted is
//! therefore always answered.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iced::arch::CgraConfig;
use iced::dfg::Dfg;
use iced::exact::{CertifiedII, Proof};
use iced::kernels::pipelines::Pipeline;
use iced::kernels::workloads;
use iced::mapper::{
    map_with, power_gate_idle, relax_islands, relax_per_tile, Bitstream, MapError, Mapping,
};
use iced::power::PowerModel;
use iced::sim::{run_engine, EnergyBreakdown, FabricStats};
use iced::streaming::{simulate, Partition};
use iced::Strategy;

use iced_hash::StableHasher;

use crate::cache::{CacheKey, ResultCache};
use crate::chaos::ChaosInjector;
use crate::log::{EventLog, Level};
use crate::metrics::Metrics;
use crate::poll::Waker;
use crate::proto::{
    policy_name, render_batch_item_err, render_batch_item_ok, render_batch_result, render_err,
    render_ok, Backend, BatchElem, CompileSpec, Payload, Request, RequestId, SimulateSpec,
    StreamSpec, SvcError, Verb,
};
use crate::queue::BoundedQueue;

/// Server configuration, normally taken from the environment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`ICED_SVC_ADDR`, default `127.0.0.1:9090`; use port
    /// 0 for an ephemeral port).
    pub addr: String,
    /// Worker pool size (`ICED_SVC_THREADS`).
    pub threads: usize,
    /// Request queue capacity (`ICED_SVC_QUEUE`).
    pub queue_cap: usize,
    /// In-memory cache budget in MiB (`ICED_SVC_CACHE_MB`).
    pub cache_mb: u64,
    /// Exact in-memory cache budget in bytes, overriding `cache_mb` when
    /// set (`ICED_SVC_CACHE_BYTES`). Benchmarks and tests use this to
    /// provoke LRU capacity eviction at working-set sizes far below one
    /// MiB — the cluster sweep's aggregate-capacity scaling runs on it.
    pub cache_bytes: Option<u64>,
    /// Optional disk-spill directory (`ICED_SVC_CACHE_DIR`).
    pub cache_dir: Option<PathBuf>,
    /// Chaos-injection seed (`ICED_SVC_CHAOS`); `None` disables chaos.
    /// See [`crate::chaos`] for the fault sites and rates.
    pub chaos: Option<u64>,
    /// JSONL event-log path (`ICED_SVC_LOG`); `None` disables logging.
    pub log_path: Option<PathBuf>,
    /// Minimum event severity written (`ICED_SVC_LOG_LEVEL`).
    pub log_level: Level,
    /// Max unanswered requests buffered per connection before the server
    /// answers `too_many_requests` (`ICED_SVC_PIPELINE`).
    pub pipeline: usize,
    /// Max concurrently open connections; further connects are refused
    /// with a `too_many_connections` line (`ICED_SVC_MAX_CONNS`).
    pub max_conns: usize,
    /// Target CGRA configuration.
    pub cgra: CgraConfig,
}

fn env_usize(key: &str, default: usize, lo: usize, hi: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(default, |v| v.clamp(lo, hi))
}

impl ServiceConfig {
    /// Reads `ICED_SVC_*` from the environment, with sane defaults.
    pub fn from_env() -> Self {
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
        ServiceConfig {
            addr: std::env::var("ICED_SVC_ADDR").unwrap_or_else(|_| "127.0.0.1:9090".into()),
            threads: env_usize("ICED_SVC_THREADS", threads, 1, 64),
            queue_cap: env_usize("ICED_SVC_QUEUE", 64, 1, 65_536),
            cache_mb: env_usize("ICED_SVC_CACHE_MB", 64, 1, 16_384) as u64,
            cache_bytes: std::env::var("ICED_SVC_CACHE_BYTES")
                .ok()
                .and_then(|v| v.parse::<u64>().ok()),
            cache_dir: std::env::var("ICED_SVC_CACHE_DIR").ok().map(PathBuf::from),
            chaos: ChaosInjector::seed_from_env(),
            log_path: std::env::var(crate::log::ENV_LOG)
                .ok()
                .filter(|p| !p.is_empty())
                .map(PathBuf::from),
            log_level: std::env::var(crate::log::ENV_LOG_LEVEL)
                .ok()
                .and_then(|s| Level::parse(&s))
                .unwrap_or(Level::Info),
            pipeline: env_usize("ICED_SVC_PIPELINE", 32, 1, 4096),
            max_conns: env_usize("ICED_SVC_MAX_CONNS", 4096, 1, 65_536),
            cgra: CgraConfig::iced_prototype(),
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            queue_cap: 64,
            cache_mb: 64,
            cache_bytes: None,
            cache_dir: None,
            chaos: None,
            log_path: None,
            log_level: Level::Info,
            pipeline: 32,
            max_conns: 4096,
            cgra: CgraConfig::iced_prototype(),
        }
    }
}

/// How one batch slot resolves: an index into the batch's unique work
/// list, or a structured per-slot parse error.
pub(crate) enum SlotPlan {
    /// Serve this slot from unique element `i`'s rendered bytes.
    Unique(usize),
    /// Answer this slot with the error, computed nothing.
    Invalid(Option<Verb>, SvcError),
}

/// What a queued job computes.
pub(crate) enum JobKind {
    /// One compile/simulate/stream request.
    Single(Request),
    /// A batch: per-slot plans plus the deduped unique work list the
    /// reactor derived before enqueueing.
    Batch {
        id: u64,
        slots: Vec<SlotPlan>,
        unique: Vec<(CacheKey, BatchElem)>,
    },
}

/// One queued unit of work plus the routing needed to answer it: the
/// connection slot, its generation token, and the response-order ticket.
pub(crate) struct Job {
    pub(crate) kind: JobKind,
    pub(crate) rid: RequestId,
    pub(crate) slot: usize,
    pub(crate) token: u64,
    pub(crate) ticket: u64,
    pub(crate) accepted_at: Instant,
}

impl Job {
    fn verb(&self) -> Verb {
        match &self.kind {
            JobKind::Single(req) => req.verb,
            JobKind::Batch { .. } => Verb::Batch,
        }
    }

    fn id(&self) -> u64 {
        match &self.kind {
            JobKind::Single(req) => req.id,
            JobKind::Batch { id, .. } => *id,
        }
    }
}

/// A finished response line, handed from a worker back to the reactor.
pub(crate) struct Completion {
    pub(crate) slot: usize,
    pub(crate) token: u64,
    pub(crate) ticket: u64,
    pub(crate) rid: RequestId,
    pub(crate) line: String,
}

/// State shared by the reactor and the workers.
pub(crate) struct Shared {
    pub(crate) config: CgraConfig,
    pub(crate) model: PowerModel,
    pub(crate) cache: ResultCache,
    /// Base mappings beneath `cache`, shared across strategies and verbs.
    pub(crate) mappings: MappingMemo,
    /// `Partition::table1` per pipeline name. Unknown names are rejected
    /// before the lookup, so the pipeline set bounds it.
    pub(crate) partitions: Mutex<HashMap<&'static str, Arc<Partition>>>,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) metrics: Metrics,
    pub(crate) chaos: Option<ChaosInjector>,
    pub(crate) log: EventLog,
    pub(crate) shutting: AtomicBool,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) started: Instant,
    pub(crate) threads: usize,
    pub(crate) queue_cap: usize,
    pub(crate) pipeline_cap: usize,
    pub(crate) max_conns: usize,
    /// Jobs accepted onto the queue whose responses the reactor has not
    /// yet routed; the drain condition.
    pub(crate) jobs_outstanding: AtomicUsize,
    /// Finished responses awaiting reactor pickup.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Pops the reactor out of its poll wait when completions arrive or
    /// shutdown begins.
    pub(crate) waker: Waker,
}

impl Shared {
    /// Hands a finished response to the reactor and wakes it.
    pub(crate) fn push_completion(&self, done: Completion) {
        lock(&self.completions).push(done);
        self.waker.wake();
    }
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon: reactor + worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (or a wake-pair setup failure).
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = crate::poll::wake_pair()?;
        let log = match &cfg.log_path {
            Some(p) => EventLog::to_path(p, cfg.log_level)?,
            None => EventLog::disabled(),
        };
        log.emit(Level::Info, "server_start", |o| {
            o.str("addr", &addr.to_string())
                .str("version", env!("CARGO_PKG_VERSION"))
                .u64("threads", cfg.threads.max(1) as u64)
                .u64("queue_cap", cfg.queue_cap as u64)
                .u64("cache_mb", cfg.cache_mb)
                .u64("pipeline_cap", cfg.pipeline.max(1) as u64)
                .u64("max_conns", cfg.max_conns.max(1) as u64)
                .bool("chaos_armed", cfg.chaos.is_some())
        });
        let shared = Arc::new(Shared {
            config: cfg.cgra,
            model: PowerModel::asap7(),
            cache: ResultCache::new(
                cfg.cache_bytes
                    .unwrap_or_else(|| cfg.cache_mb.saturating_mul(1 << 20)),
                cfg.cache_dir,
            ),
            mappings: MappingMemo::default(),
            partitions: Mutex::new(HashMap::new()),
            queue: BoundedQueue::new(cfg.queue_cap),
            metrics: Metrics::new(),
            chaos: cfg.chaos.map(ChaosInjector::new),
            log,
            shutting: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            started: Instant::now(),
            threads: cfg.threads.max(1),
            queue_cap: cfg.queue_cap,
            pipeline_cap: cfg.pipeline.max(1),
            max_conns: cfg.max_conns.max(1),
            jobs_outstanding: AtomicUsize::new(0),
            completions: Mutex::new(Vec::new()),
            waker,
        });
        shared
            .metrics
            .set_limits(cfg.pipeline.max(1), cfg.max_conns.max(1));
        let workers = (0..cfg.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("iced-svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("iced-svc-reactor".into())
                .spawn(move || crate::reactor::reactor_loop(&shared, listener, wake_rx))
                .expect("spawn reactor thread")
        };
        Ok(Server {
            shared,
            addr,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers the same graceful shutdown as the `shutdown` verb.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Blocks until shutdown completes: listener dropped, queue drained,
    /// every in-flight response routed and flushed, cache flushed,
    /// sockets closed.
    pub fn wait(mut self) {
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // All accepted work is answered by now; persist warm state.
        let flushed = self.shared.cache.flush();
        if flushed > 0 {
            iced::trace::counter(
                iced::trace::Phase::Service,
                "svc_cache_spilled_entries",
                flushed as u64,
            );
            self.shared.log.emit(Level::Info, "cache_spill", |o| {
                o.u64("entries", flushed as u64)
            });
        }
        let shared = &self.shared;
        shared.log.emit(Level::Info, "server_stop", |o| {
            o.u64("uptime_s", shared.started.elapsed().as_secs())
                .u64(
                    "connections",
                    shared.metrics.connections.load(Ordering::Relaxed),
                )
                .u64("log_dropped", shared.log.dropped())
        });
        shared.log.shutdown();
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn begin_shutdown(shared: &Shared) {
    if !shared.shutting.swap(true, Ordering::SeqCst) {
        shared.queue.close();
        shared.waker.wake();
    }
}

/// Logs a `request_error` event for an error envelope about to be written.
pub(crate) fn log_request_error(
    shared: &Shared,
    rid: RequestId,
    verb: Option<Verb>,
    err: &SvcError,
) {
    shared.log.emit(Level::Warn, "request_error", |mut o| {
        o = o.str("req", &rid.token());
        if let Some(v) = verb {
            o = o.str("verb", v.name());
        }
        o.str("code", err.code).str("message", &err.message)
    });
}

/// Logs a `request_finish` event for a successful control-verb response.
pub(crate) fn log_control_finish(shared: &Shared, rid: RequestId, verb: Verb, t0: Instant) {
    shared.log.emit(Level::Info, "request_finish", |o| {
        o.str("req", &rid.token())
            .str("verb", verb.name())
            .str("outcome", "ok")
            .u64("total_us", t0.elapsed().as_micros() as u64)
    });
}

/// Renders a panic payload for the error envelope and the event log.
/// `panic!` almost always carries a `String` or `&str`; anything else is
/// reported by type only.
fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let verb = job.verb();
        let id = job.id();
        let rid = job.rid;
        let queue_wait = job.accepted_at.elapsed();
        let _flight = shared.metrics.flight(verb);
        // Everything the worker does for this request — including mapper
        // and simulator spans — is attributed to its request id.
        let _scope = iced::trace::request_scope(rid.as_u64());
        // At debug level, capture this request's own trace via a thread
        // overlay and log a summary; the global collector (if any) still
        // sees everything.
        let trace_rec = if shared.log.enabled(Level::Debug) {
            Some(Arc::new(iced::trace::RecordingCollector::new()))
        } else {
            None
        };
        let overlay = trace_rec
            .as_ref()
            .map(|r| iced::trace::overlay(Arc::clone(r) as Arc<dyn iced::trace::Collector>));
        let service_started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _span = iced::trace::span(
                iced::trace::Phase::Service,
                "svc_request",
                &[("verb", verb.name().into())],
            );
            if let Some(chaos) = &shared.chaos {
                if chaos.worker_panic() {
                    shared.metrics.chaos_fault();
                    iced::trace::counter(iced::trace::Phase::Service, "svc_chaos_panics", 1);
                    shared.log.emit(Level::Warn, "chaos_panic", |o| {
                        o.str("req", &rid.token()).str("verb", verb.name())
                    });
                    panic!("chaos: injected worker panic");
                }
            }
            match &job.kind {
                JobKind::Single(req) => execute(shared, req, rid),
                JobKind::Batch { slots, unique, .. } => execute_batch(shared, slots, unique, rid),
            }
        }));
        let service_time = service_started.elapsed();
        drop(overlay);
        if let Some(rec) = trace_rec {
            let records = rec.records();
            let spans = records
                .iter()
                .filter(|r| matches!(r, iced::trace::Record::SpanBegin { .. }))
                .count();
            shared.log.emit(Level::Debug, "request_trace", |o| {
                o.str("req", &rid.token())
                    .u64("trace_records", records.len() as u64)
                    .u64("trace_spans", spans as u64)
            });
        }
        let response = match outcome {
            Ok(Ok((result, cached))) => {
                // Batch cache traffic is accounted per unique slot inside
                // execute_batch; the envelope itself is never cached.
                if matches!(&job.kind, JobKind::Single(_)) {
                    shared.metrics.cache_event(cached);
                }
                shared.log.emit(Level::Info, "request_finish", |o| {
                    o.str("req", &rid.token())
                        .str("verb", verb.name())
                        .str("outcome", if cached { "cached" } else { "ok" })
                        .u64("total_us", job.accepted_at.elapsed().as_micros() as u64)
                        .u64("queue_us", queue_wait.as_micros() as u64)
                        .u64("service_us", service_time.as_micros() as u64)
                });
                render_ok(id, Some(rid), verb, cached, &result)
            }
            Ok(Err(e)) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                log_request_error(shared, rid, Some(verb), &e);
                render_err(id, Some(rid), Some(verb), &e)
            }
            Err(p) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let payload = panic_payload(p.as_ref());
                shared.log.emit(Level::Error, "worker_panic", |o| {
                    o.str("req", &rid.token())
                        .str("verb", verb.name())
                        .str("payload", &payload)
                });
                let e = SvcError::with_entity(
                    "internal",
                    format!("request processing panicked: {payload}"),
                    rid.token(),
                );
                render_err(id, Some(rid), Some(verb), &e)
            }
        };
        // Metrics are recorded before the response is handed back, so a
        // client that reads its answer and immediately scrapes
        // `metrics`/`stats` always sees its own request counted.
        shared.metrics.observe(verb, job.accepted_at.elapsed());
        shared.metrics.observe_split(verb, queue_wait, service_time);
        shared.push_completion(Completion {
            slot: job.slot,
            token: job.token,
            ticket: job.ticket,
            rid,
            line: response,
        });
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one work verb, consulting the cache. Returns the rendered result
/// JSON plus whether it came from the cache.
fn execute(
    shared: &Shared,
    req: &Request,
    rid: RequestId,
) -> Result<(Arc<String>, bool), SvcError> {
    through_cache(shared, cache_key(shared, req), rid, || match &req.payload {
        Payload::Compile(spec) => compile_result(shared, spec),
        Payload::Simulate(spec) => simulate_result(shared, spec),
        Payload::Stream(spec) => Ok((stream_result(shared, spec)?, true)),
        Payload::Stats { .. } | Payload::Control | Payload::Batch(_) | Payload::CachePut { .. } => {
            Err(SvcError::new(
                "internal",
                "control verb reached the worker pool",
            ))
        }
    })
}

/// Runs one batch: computes each unique element once (through the cache)
/// and fans the rendered bytes out to every slot that maps to it. Always
/// returns the envelope-level result; per-slot failures are structured
/// errors inside the response array.
fn execute_batch(
    shared: &Shared,
    slots: &[SlotPlan],
    unique: &[(CacheKey, BatchElem)],
    rid: RequestId,
) -> Result<(Arc<String>, bool), SvcError> {
    shared.metrics.batch_observed(slots.len(), unique.len());
    let computed: Vec<(Verb, bool, Result<Arc<String>, SvcError>)> = unique
        .iter()
        .map(|(key, elem)| {
            let verb = elem.verb();
            match execute_elem(shared, *key, elem, rid) {
                Ok((bytes, cached)) => {
                    shared.metrics.cache_event(cached);
                    (verb, cached, Ok(bytes))
                }
                Err(e) => {
                    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    log_request_error(shared, rid, Some(verb), &e);
                    (verb, false, Err(e))
                }
            }
        })
        .collect();
    let items: Vec<String> = slots
        .iter()
        .map(|plan| match plan {
            SlotPlan::Unique(i) => {
                let (verb, cached, result) = &computed[*i];
                match result {
                    Ok(bytes) => render_batch_item_ok(*verb, *cached, bytes),
                    Err(e) => render_batch_item_err(Some(*verb), e),
                }
            }
            SlotPlan::Invalid(verb, e) => render_batch_item_err(*verb, e),
        })
        .collect();
    Ok((
        Arc::new(render_batch_result(slots.len(), unique.len(), &items)),
        false,
    ))
}

/// Serves one batch element through the cache, exactly as a standalone
/// request for the same spec would be.
fn execute_elem(
    shared: &Shared,
    key: CacheKey,
    elem: &BatchElem,
    rid: RequestId,
) -> Result<(Arc<String>, bool), SvcError> {
    through_cache(shared, key, rid, || match elem {
        BatchElem::Compile(spec) => compile_result(shared, spec),
        BatchElem::Simulate(spec) => simulate_result(shared, spec),
    })
}

/// Serves `key` from the cache, or renders it with `compute` and caches
/// the bytes unless `compute` reports them unsettled (see
/// [`Mapped::settled`]). Returns the bytes plus whether they were a hit.
fn through_cache(
    shared: &Shared,
    key: CacheKey,
    rid: RequestId,
    compute: impl FnOnce() -> Result<(String, bool), SvcError>,
) -> Result<(Arc<String>, bool), SvcError> {
    if let Some(hit) = shared.cache.get(key) {
        return Ok((hit, true));
    }
    let (rendered, settled) = compute()?;
    if !settled {
        return Ok((Arc::new(rendered), false));
    }
    Ok((insert_rendered(shared, key, rendered, rid), false))
}

/// Inserts freshly rendered bytes into the cache, accounting evictions
/// and rolling the chaos spill-corruption site.
fn insert_rendered(
    shared: &Shared,
    key: CacheKey,
    rendered: String,
    rid: RequestId,
) -> Arc<String> {
    let rendered = Arc::new(rendered);
    let evicted = shared.cache.put_shared(key, Arc::clone(&rendered));
    shared.metrics.evicted(evicted);
    if evicted > 0 {
        shared.log.emit(Level::Info, "cache_evict", |o| {
            o.str("req", &rid.token()).u64("evicted", evicted)
        });
    }
    if let Some(chaos) = &shared.chaos {
        if chaos.corrupt_spill() && shared.cache.corrupt_for_chaos(key) {
            shared.metrics.chaos_fault();
            iced::trace::counter(iced::trace::Phase::Service, "svc_chaos_corruptions", 1);
            shared
                .log
                .emit(Level::Warn, "chaos_corrupt", |o| o.str("req", &rid.token()));
        }
    }
    rendered
}

fn hash_str(s: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(s);
    h.finish()
}

/// The backend's contribution to a compile key: its name plus, for the
/// exact backend, the canonical hash of the exact-search options (they
/// determine the certified fields in the rendered bytes — including
/// `nodes_explored`, which `backjump` changes). Heuristic requests hash
/// a constant here, so pre-existing heuristic keys stay strategy-keyed
/// exactly as before plus this one extra lane.
fn backend_lanes(spec: &CompileSpec) -> [u64; 2] {
    [
        hash_str(spec.backend.name()),
        match spec.backend {
            Backend::Exact => spec.exact_options().canonical_hash(),
            Backend::Heuristic => 0,
        },
    ]
}

/// The `compile` content-addressed key for a given CGRA config hash.
/// Uses the memoized `Source::canonical_hash` so key derivation on the
/// router's forwarding path never rebuilds a suite DFG.
pub(crate) fn compile_key(cfg: u64, spec: &CompileSpec) -> CacheKey {
    let [backend, exact_opts] = backend_lanes(spec);
    CacheKey::derive(&[
        hash_str("compile"),
        spec.source.canonical_hash(),
        cfg,
        spec.mapper_options().canonical_hash(),
        hash_str(spec.strategy.name()),
        backend,
        exact_opts,
    ])
}

/// The `simulate` content-addressed key for a given CGRA config hash.
pub(crate) fn simulate_key(cfg: u64, spec: &SimulateSpec) -> CacheKey {
    let [backend, exact_opts] = backend_lanes(&spec.compile);
    CacheKey::derive(&[
        hash_str("simulate"),
        spec.compile.source.canonical_hash(),
        cfg,
        spec.compile.mapper_options().canonical_hash(),
        hash_str(spec.compile.strategy.name()),
        backend,
        exact_opts,
        spec.iterations,
        spec.seed,
    ])
}

/// The key for one batch element — identical to what the standalone verb
/// would derive, so batch slots and single requests share cache entries.
pub(crate) fn elem_key(cfg: u64, elem: &BatchElem) -> CacheKey {
    match elem {
        BatchElem::Compile(spec) => compile_key(cfg, spec),
        BatchElem::Simulate(spec) => simulate_key(cfg, spec),
    }
}

/// The content-addressed key a cacheable request resolves to, given the
/// CGRA configuration's canonical hash — the exact key the shard's cache
/// uses, exposed so the cluster router (and benches/tests computing
/// shard placement) derive byte-identical keys. `None` for verbs whose
/// responses are not content-addressed (control verbs and `batch`
/// envelopes; batch *slots* key through [`BatchElem`] separately).
pub fn request_key(cfg: u64, req: &Request) -> Option<CacheKey> {
    match &req.payload {
        Payload::Compile(spec) => Some(compile_key(cfg, spec)),
        Payload::Simulate(spec) => Some(simulate_key(cfg, spec)),
        Payload::Stream(spec) => Some(CacheKey::derive(&[
            hash_str("stream"),
            cfg,
            hash_str(&spec.pipeline),
            hash_str(policy_name(spec.policy)),
            spec.inputs as u64,
            spec.seed,
        ])),
        Payload::Stats { .. } | Payload::Control | Payload::Batch(_) | Payload::CachePut { .. } => {
            None
        }
    }
}

/// The content-addressed key: canonical hashes of every semantic input.
/// Serving knobs (deadline, thread count, client id) are deliberately
/// excluded — they cannot change the payload bytes.
fn cache_key(shared: &Shared, req: &Request) -> CacheKey {
    let cfg = shared.config.canonical_hash();
    request_key(cfg, req).unwrap_or_else(|| CacheKey::derive(&[hash_str("control")]))
}

fn map_err_to_svc(e: MapError, entity: &str) -> SvcError {
    if matches!(e, MapError::DeadlineExceeded) {
        SvcError::with_entity("deadline_exceeded", e.to_string(), entity)
    } else {
        SvcError::with_entity("map_error", e.to_string(), entity)
    }
}

/// The key of the mapping a compile's strategy post-pass starts from:
/// every input of `map_with` / `certify` and nothing else. The strategy
/// enters only through the mapper options it selects, so `baseline`,
/// `baseline+pg` and `per-tile` share one entry and `iced` another, and
/// `simulate` shares its compile's entry.
fn mapping_key(cfg: u64, spec: &CompileSpec) -> CacheKey {
    let [backend, exact_opts] = backend_lanes(spec);
    CacheKey::derive(&[
        hash_str("mapping"),
        spec.source.canonical_hash(),
        cfg,
        spec.mapper_options().canonical_hash(),
        backend,
        exact_opts,
    ])
}

/// Entries the [`MappingMemo`] holds before it evicts the least recently
/// used one. Every suite kernel × unroll × option set (84 entries) fits
/// with room for inline kernels; a mapping is a few KiB.
const MAPPING_MEMO_ENTRIES: usize = 128;

/// A memoized base mapping: the mapper's output before any strategy
/// post-pass, with the certificate when the exact backend produced it.
#[derive(Clone)]
struct BaseMapping {
    mapping: Arc<Mapping>,
    cert: Option<CertifiedII>,
}

/// A content-addressed memo of [`BaseMapping`]s keyed by
/// [`mapping_key`], bounded at [`MAPPING_MEMO_ENTRIES`] with LRU
/// eviction. It allocates on first insert.
#[derive(Default)]
pub(crate) struct MappingMemo {
    inner: Mutex<MemoInner>,
}

#[derive(Default)]
struct MemoInner {
    /// Each entry with the clock value of its last use.
    entries: HashMap<CacheKey, (BaseMapping, u64)>,
    clock: u64,
}

impl MappingMemo {
    fn get(&self, key: CacheKey) -> Option<BaseMapping> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let now = inner.clock;
        inner.entries.get_mut(&key).map(|(base, used)| {
            *used = now;
            base.clone()
        })
    }

    fn put(&self, key: CacheKey, base: BaseMapping) {
        let mut inner = lock(&self.inner);
        if inner.entries.len() >= MAPPING_MEMO_ENTRIES && !inner.entries.contains_key(&key) {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k);
            if let Some(k) = oldest {
                inner.entries.remove(&k);
            }
        }
        inner.clock += 1;
        let now = inner.clock;
        inner.entries.insert(key, (base, now));
    }
}

/// A compile spec's mapping after its strategy's post-pass.
struct Mapped {
    dfg: Dfg,
    mapping: Arc<Mapping>,
    cert: Option<CertifiedII>,
    /// False when the request's deadline cut an exact search short. The
    /// certificate (and, if the heuristic arm was cut, the mapping) may
    /// then differ from what a request without a deadline gets, so
    /// neither the memo nor the response cache keeps it.
    settled: bool,
}

/// The base mapping for `spec`: from the memo, or from `map_with` /
/// `certify` under the request's deadline. Returns it with its
/// [`Mapped::settled`] flag; only settled mappings are memoized, and a
/// mapper error (`deadline_exceeded` included) never is.
fn base_mapping(
    shared: &Shared,
    spec: &CompileSpec,
    dfg: &Dfg,
) -> Result<(BaseMapping, bool), SvcError> {
    let key = mapping_key(shared.config.canonical_hash(), spec);
    let hit = shared.mappings.get(key);
    shared.metrics.mapping_memo_event(hit.is_some());
    if let Some(base) = hit {
        return Ok((base, true));
    }
    let mut opts = spec.mapper_options();
    opts.deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let base = if spec.backend == Backend::Exact {
        let mut xopts = spec.exact_options();
        xopts.deadline = opts.deadline;
        let c = iced::exact::certify(dfg, &shared.config, &opts, &xopts)
            .map_err(|e| map_err_to_svc(e, dfg.name()))?;
        BaseMapping {
            mapping: Arc::new(c.mapping),
            cert: Some(c.certificate),
        }
    } else {
        let m = map_with(dfg, &shared.config, &opts).map_err(|e| map_err_to_svc(e, dfg.name()))?;
        BaseMapping {
            mapping: Arc::new(m),
            cert: None,
        }
    };
    // The heuristic mapper is complete-or-absent under a deadline (§10 of
    // DESIGN.md); the exact search instead returns its best so far, and
    // its certificate says when the deadline cut it short.
    let settled = base.cert.is_none_or(|c| c.proof != Proof::DeadlineCut);
    if settled {
        shared.mappings.put(key, base.clone());
    }
    Ok((base, settled))
}

/// Maps per the requested strategy (the `Toolchain::compile` recipe, but
/// with per-request deadline/II options threaded through): the memoized
/// base mapping plus the strategy's post-pass. For the exact backend the
/// mapping comes unchanged, with its minimum-II certificate.
fn compile_mapping(shared: &Shared, spec: &CompileSpec) -> Result<Mapped, SvcError> {
    let dfg = spec.source.dfg();
    let (base, settled) = base_mapping(shared, spec, &dfg)?;
    let mapping = match (spec.backend, spec.strategy) {
        (Backend::Exact, _) | (Backend::Heuristic, Strategy::Baseline) => base.mapping,
        (Backend::Heuristic, Strategy::BaselinePowerGated) => {
            Arc::new(power_gate_idle(&dfg, &base.mapping))
        }
        (Backend::Heuristic, Strategy::PerTileDvfs) => {
            Arc::new(relax_per_tile(&dfg, &base.mapping))
        }
        (Backend::Heuristic, Strategy::IcedIslands) => Arc::new(relax_islands(&dfg, &base.mapping)),
    };
    Ok(Mapped {
        dfg,
        mapping,
        cert: base.cert,
        settled,
    })
}

/// Renders a `compile` result, with whether the bytes are settled.
fn compile_result(shared: &Shared, spec: &CompileSpec) -> Result<(String, bool), SvcError> {
    let Mapped {
        dfg,
        mapping,
        cert,
        settled,
    } = compile_mapping(shared, spec)?;
    let stats = FabricStats::analyze(&mapping);
    let energy = EnergyBreakdown::account(
        &dfg,
        &mapping,
        &shared.model,
        spec.strategy.dvfs_support(),
        1000,
    );
    let bits = Bitstream::assemble(&dfg, &mapping);
    let mut o = crate::json::Obj::new()
        .str("kernel", dfg.name())
        .str("strategy", spec.strategy_name())
        .u64("nodes", dfg.node_count() as u64)
        .u64("edges", dfg.edge_count() as u64)
        .u64("ii", u64::from(mapping.ii()))
        .u64("makespan", mapping.makespan());
    if let Some(c) = cert {
        // Certified fields, present only on exact-backend responses. The
        // search is single-threaded and deterministic, so every field —
        // including nodes_explored — is byte-stable across runs.
        o = o
            .str("proof", c.proof.name())
            .u64("lower_bound", u64::from(c.lower_bound))
            .u64("nodes_explored", c.nodes_explored);
    }
    let rendered = o
        .f64("avg_dvfs_level", stats.average_dvfs_level())
        .f64("avg_utilization", stats.average_utilization())
        .f64("power_mw", energy.total_power_mw())
        .u64("bitstream_words", bits.words().len() as u64)
        .u64("bitstream_bytes", bits.total_bytes() as u64)
        .str("dfg_hash", &format!("{:016x}", dfg.canonical_hash()))
        .finish();
    Ok((rendered, settled))
}

/// Renders a `simulate` result, with whether the bytes are settled.
fn simulate_result(shared: &Shared, spec: &SimulateSpec) -> Result<(String, bool), SvcError> {
    let Mapped {
        dfg,
        mapping,
        settled,
        ..
    } = compile_mapping(shared, &spec.compile)?;
    let report = run_engine(&dfg, &mapping, spec.iterations, spec.seed)
        .map_err(|e| SvcError::with_entity("sim_error", e.to_string(), dfg.name()))?;
    let rendered = crate::json::Obj::new()
        .str("kernel", dfg.name())
        .str("strategy", spec.compile.strategy_name())
        .u64("ii", u64::from(mapping.ii()))
        .u64("iterations", report.iterations)
        .u64("cycles", report.cycles)
        .u64("ops_executed", report.ops_executed)
        .f64("fu_activity", report.fu_activity())
        .u64("fifo_peak", report.fifo_peak as u64)
        .finish();
    Ok((rendered, settled))
}

/// `Partition::table1` for `pipeline`, built once per daemon.
fn table1_partition(shared: &Shared, pipeline: &Pipeline) -> Result<Arc<Partition>, SvcError> {
    let hit = lock(&shared.partitions).get(pipeline.name).cloned();
    shared.metrics.partition_memo_event(hit.is_some());
    if let Some(partition) = hit {
        return Ok(partition);
    }
    let partition = Arc::new(
        Partition::table1(pipeline, &shared.config)
            .map_err(|e| map_err_to_svc(e, pipeline.name))?,
    );
    lock(&shared.partitions).insert(pipeline.name, Arc::clone(&partition));
    Ok(partition)
}

fn stream_result(shared: &Shared, spec: &StreamSpec) -> Result<String, SvcError> {
    let pipeline = Pipeline::by_name(spec.pipeline.as_str()).ok_or_else(|| {
        SvcError::with_entity("bad_request", "unknown pipeline", spec.pipeline.clone())
    })?;
    let partition = table1_partition(shared, &pipeline)?;
    // Graph-shaped workloads drive gcn and the generated sensor app;
    // matrix-shaped ones drive lu and stencil.
    let inputs: Vec<u64> = if matches!(spec.pipeline.as_str(), "gcn" | "sensor") {
        workloads::enzymes_like(spec.inputs, spec.seed)
            .iter()
            .map(|g| g.nnz())
            .collect()
    } else {
        workloads::suitesparse_like(spec.inputs, spec.seed)
            .iter()
            .map(|m| m.nnz as u64)
            .collect()
    };
    let report = simulate(&pipeline, &partition, &shared.model, &inputs, spec.policy);
    Ok(crate::json::Obj::new()
        .str("pipeline", &spec.pipeline)
        .str("policy", policy_name(spec.policy))
        .u64("inputs", report.inputs as u64)
        .f64("throughput", report.throughput())
        .f64("avg_power_mw", report.avg_power_mw())
        .f64("perf_per_watt", report.perf_per_watt())
        .f64("total_time_us", report.total_time_us)
        .f64("total_energy_nj", report.total_energy_nj)
        .u64("windows", report.samples.len() as u64)
        .finish())
}

/// A workerless `Shared` for reactor unit tests: inline verbs work, the
/// queue accepts pushes nobody drains, logging is disabled.
#[cfg(test)]
pub(crate) fn test_shared() -> Arc<Shared> {
    let (waker, _rx) = crate::poll::wake_pair().expect("wake pair");
    let cfg = ServiceConfig::default();
    Arc::new(Shared {
        config: cfg.cgra,
        model: PowerModel::asap7(),
        cache: ResultCache::new(cfg.cache_mb << 20, None),
        mappings: MappingMemo::default(),
        partitions: Mutex::new(HashMap::new()),
        queue: BoundedQueue::new(cfg.queue_cap),
        metrics: Metrics::new(),
        chaos: None,
        log: EventLog::disabled(),
        shutting: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        started: Instant::now(),
        threads: cfg.threads,
        queue_cap: cfg.queue_cap,
        pipeline_cap: cfg.pipeline,
        max_conns: cfg.max_conns,
        jobs_outstanding: AtomicUsize::new(0),
        completions: Mutex::new(Vec::new()),
        waker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Source;
    use iced::kernels::{Kernel, UnrollFactor};

    #[test]
    fn service_config_env_parsing_clamps() {
        assert_eq!(env_usize("ICED_SVC_DOES_NOT_EXIST", 7, 1, 10), 7);
        let cfg = ServiceConfig::default();
        assert_eq!(cfg.pipeline, 32);
        assert_eq!(cfg.max_conns, 4096);
    }

    #[test]
    fn batch_element_keys_match_standalone_verb_keys() {
        let cfg = CgraConfig::iced_prototype().canonical_hash();
        let spec = CompileSpec {
            source: Source::Named(Kernel::Fir, UnrollFactor::X1),
            strategy: Strategy::IcedIslands,
            backend: Backend::Heuristic,
            max_ii: None,
            deadline_ms: None,
        };
        let elem = BatchElem::Compile(spec.clone());
        assert_eq!(elem_key(cfg, &elem), compile_key(cfg, &spec));

        let sim = SimulateSpec {
            compile: spec.clone(),
            iterations: 500,
            seed: 3,
        };
        assert_eq!(
            elem_key(cfg, &BatchElem::Simulate(sim.clone())),
            simulate_key(cfg, &sim)
        );
        // The two verbs never collide, and serving knobs stay excluded.
        assert_ne!(compile_key(cfg, &spec), simulate_key(cfg, &sim));
        let with_deadline = CompileSpec {
            deadline_ms: Some(5000),
            ..spec.clone()
        };
        assert_eq!(compile_key(cfg, &spec), compile_key(cfg, &with_deadline));
    }

    #[test]
    fn exact_and_heuristic_requests_never_share_cache_keys() {
        let cfg = CgraConfig::iced_prototype().canonical_hash();
        let exact = CompileSpec {
            source: Source::Named(Kernel::Fir, UnrollFactor::X1),
            strategy: Strategy::Baseline,
            backend: Backend::Exact,
            max_ii: None,
            deadline_ms: None,
        };
        // The exact backend must not warm-hit any heuristic strategy's
        // entry for the same kernel — their response bytes differ.
        for strategy in Strategy::ALL {
            let heur = CompileSpec {
                strategy,
                backend: Backend::Heuristic,
                ..exact.clone()
            };
            assert_ne!(
                compile_key(cfg, &exact),
                compile_key(cfg, &heur),
                "exact collides with {}",
                strategy.name()
            );
        }
        // Different exact options are different certified responses.
        let tighter = CompileSpec {
            max_ii: Some(8),
            ..exact.clone()
        };
        assert_ne!(compile_key(cfg, &exact), compile_key(cfg, &tighter));
    }

    #[test]
    fn mapping_keys_follow_the_mapper_inputs_not_the_strategy() {
        let cfg = CgraConfig::iced_prototype().canonical_hash();
        let spec = |strategy, backend| CompileSpec {
            source: Source::Named(Kernel::Fft, UnrollFactor::X1),
            strategy,
            backend,
            max_ii: None,
            deadline_ms: None,
        };
        let baseline = mapping_key(cfg, &spec(Strategy::Baseline, Backend::Heuristic));
        let iced = mapping_key(cfg, &spec(Strategy::IcedIslands, Backend::Heuristic));
        assert_ne!(baseline, iced, "the two option sets map differently");
        for strategy in [Strategy::BaselinePowerGated, Strategy::PerTileDvfs] {
            assert_eq!(
                mapping_key(cfg, &spec(strategy, Backend::Heuristic)),
                baseline
            );
        }
        let exact = mapping_key(cfg, &spec(Strategy::Baseline, Backend::Exact));
        assert!(exact != baseline && exact != iced);
        let hurried = CompileSpec {
            deadline_ms: Some(5),
            ..spec(Strategy::Baseline, Backend::Heuristic)
        };
        assert_eq!(mapping_key(cfg, &hurried), baseline);
        let capped = CompileSpec {
            max_ii: Some(8),
            ..spec(Strategy::Baseline, Backend::Heuristic)
        };
        assert_ne!(mapping_key(cfg, &capped), baseline);
    }

    #[test]
    fn mapping_memo_evicts_the_least_recently_used_entry() {
        let dfg = Kernel::Fir.dfg(UnrollFactor::X1);
        let base = BaseMapping {
            mapping: Arc::new(
                map_with(&dfg, &CgraConfig::iced_prototype(), &Default::default()).unwrap(),
            ),
            cert: None,
        };
        let memo = MappingMemo::default();
        let key = |i: u64| CacheKey(i, !i);
        for i in 0..MAPPING_MEMO_ENTRIES as u64 {
            memo.put(key(i), base.clone());
        }
        assert!(memo.get(key(0)).is_some(), "a use refreshes entry 0");
        memo.put(key(1000), base.clone());
        assert!(memo.get(key(0)).is_some());
        assert!(memo.get(key(1)).is_none(), "entry 1 was the oldest");
        assert!(memo.get(key(1000)).is_some());
        assert_eq!(lock(&memo.inner).entries.len(), MAPPING_MEMO_ENTRIES);
    }
}
