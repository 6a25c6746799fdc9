//! The traced run: every workload's seeded inputs, and the certification
//! corpus, replayed through each layer's public functions, timed from here, with `iced-trace` counters
//! read from a `RecordingCollector`.
//!
//! The library replay runs twice on the same inputs, untraced and then
//! traced; the traced pass gives the per-layer numbers and the pair gives
//! the tracing overhead. The mapper runs with `threads: 1`, because its
//! counters repeat exactly only when it runs serially. The service layers
//! run on their own threads, which a thread overlay does not see, so they
//! are timed from the client and read from the daemons' `metrics`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use iced::arch::CgraConfig;
use iced::dfg::{text, Dfg};
use iced::exact::{certify, lower_bound};
use iced::kernels::pipelines::Pipeline;
use iced::kernels::workloads;
use iced::mapper::{
    check_dependencies, label_dvfs_levels, map_with, power_gate_idle, relax_islands,
    relax_per_tile, Bitstream, MapError, Mapping,
};
use iced::power::PowerModel;
use iced::sim::{run_engine, EnergyBreakdown, FabricStats};
use iced::streaming::{simulate, Partition};
use iced::trace::{ArgValue, Collector, Phase, RecordingCollector, SpanId};
use iced::Strategy;
use iced_service::json::{self, Value};
use iced_service::proto::parse_request;
use iced_service::{request_key, Client, ResultCache};

use crate::certify::{
    check as check_certified, companion_options, exact_options, heuristic_options, Verdict,
};
use crate::cold::{library_rejection, pass, start_daemon, stop};
use crate::inputs::{self, Op, ServiceInputs, Source, Spec};
use crate::stats::{mean, percentile};
use crate::warm::{check_hit, warm_up, Cluster};
use crate::{answer, Report, StepCpu};

/// Requests per loopback latency probe (healthz floor, direct and routed
/// hits); enough that p50 has thousands of samples either side.
const PROBE_REQUESTS: usize = 3000;
/// Repetitions of the sub-microsecond in-process service calls.
const INPROCESS_REPS: usize = 200;

/// Counters read from the trace, as `(phase, name)`.
const COUNTERS: [(Phase, &str); 6] = [
    (Phase::Mapper, "ii_attempts"),
    (Phase::Mapper, "commit_aborts"),
    (Phase::Mapper, "exact_refutations"),
    (Phase::Router, "dijkstra_expansions"),
    (Phase::Router, "routes_requested"),
    (Phase::Router, "route_failures"),
];

/// The process-wide collector of the traced replay. It hands every record
/// to a fresh `RecordingCollector` per replayed op, so memory stays
/// bounded by one op's records; records emitted between ops are dropped.
///
/// The mapper's router emits its counters only when a collector is
/// installed process-wide, so a thread overlay would miss them.
#[derive(Default)]
struct PerOp(Mutex<Option<Arc<RecordingCollector>>>);

impl PerOp {
    fn sink(&self) -> Option<Arc<RecordingCollector>> {
        self.0.lock().expect("per-op sink lock").clone()
    }

    fn set(&self, rec: Option<Arc<RecordingCollector>>) {
        *self.0.lock().expect("per-op sink lock") = rec;
    }
}

impl Collector for PerOp {
    fn enabled(&self) -> bool {
        true
    }
    fn span_begin(&self, phase: Phase, name: &str, args: &[(&str, ArgValue)]) -> SpanId {
        self.sink()
            .map_or(SpanId::NULL, |r| r.span_begin(phase, name, args))
    }
    fn span_end(&self, id: SpanId) {
        if let Some(r) = self.sink() {
            r.span_end(id);
        }
    }
    fn instant(&self, phase: Phase, name: &str, args: &[(&str, ArgValue)]) {
        if let Some(r) = self.sink() {
            r.instant(phase, name, args);
        }
    }
    fn complete(
        &self,
        phase: Phase,
        track: &str,
        name: &str,
        start: u64,
        dur: u64,
        args: &[(&str, ArgValue)],
    ) {
        if let Some(r) = self.sink() {
            r.complete(phase, track, name, start, dur, args);
        }
    }
    fn counter(&self, phase: Phase, name: &str, delta: u64) {
        if let Some(r) = self.sink() {
            r.counter(phase, name, delta);
        }
    }
}

/// Running sum of one layer's time per call.
#[derive(Debug, Default)]
struct Timer {
    total_s: f64,
    calls: u64,
}

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.total_s += t.elapsed().as_secs_f64();
        self.calls += 1;
        out
    }

    fn mean_us(&self) -> f64 {
        self.total_s * 1e6 / self.calls.max(1) as f64
    }

    fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

/// One library replay's timers, counters and answers.
#[derive(Debug, Default)]
struct Replay {
    parse: Timer,
    label: Timer,
    map: Timer,
    relax: Timer,
    bitstream: Timer,
    analyze: Timer,
    engine: Timer,
    account: Timer,
    partition: Timer,
    stream: Timer,
    lower_bound: Timer,
    arm: Timer,
    certify: Timer,
    nodes: Vec<f64>,
    cycles: u64,
    counters: [u64; COUNTERS.len()],
    /// `ii_attempts` of the `cold` maps alone, before `certify` runs.
    cold_ii_attempts: u64,
    /// Values that must repeat exactly, traced or not. `ii_sum` counts a
    /// rejected compile at the mapper's ceiling + 1, as `cold` does.
    ii_sum: u64,
    rejected: u64,
    power_mw: Vec<f64>,
    perf_per_watt: Vec<f64>,
    verdicts: Vec<Result<Verdict, String>>,
}

impl Replay {
    /// Runs `f` recording into a fresh collector when tracing, adding its
    /// counter totals.
    fn traced<T>(&mut self, sink: Option<&PerOp>, f: impl FnOnce(&mut Replay) -> T) -> T {
        let Some(sink) = sink else {
            return f(self);
        };
        let rec = Arc::new(RecordingCollector::new());
        sink.set(Some(rec.clone()));
        let out = f(self);
        sink.set(None);
        for (total, (phase, name)) in self.counters.iter_mut().zip(COUNTERS) {
            *total += rec.counter_total(phase, name);
        }
        out
    }

    fn counter(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|c| c.1 == name)
            .map_or(0, |i| self.counters[i])
    }

    fn certified_ii_sum(&self) -> u64 {
        self.verdicts
            .iter()
            .flatten()
            .map(|v| u64::from(v.ii))
            .sum()
    }

    fn optimal_share(&self) -> f64 {
        let optimal = self.verdicts.iter().flatten().filter(|v| v.optimal).count();
        optimal as f64 / self.verdicts.len().max(1) as f64
    }
}

/// Maps `dfg` as the service maps `op`: Algorithm 2 under the options
/// the service parses from the line, then the strategy's relaxation.
/// Labeling is timed again on its own at the achieved II.
fn map_strategy(
    r: &mut Replay,
    dfg: &Dfg,
    op: &Op,
    cfg: &CgraConfig,
) -> Result<Result<Mapping, MapError>, String> {
    let opts = op.mapper_options()?;
    let base = match r.map.time(|| map_with(dfg, cfg, &opts)) {
        Ok(m) => m,
        Err(e) => return Ok(Err(e)),
    };
    r.label.time(|| label_dvfs_levels(dfg, cfg, base.ii()));
    Ok(Ok(match op.compile_spec()?.strategy {
        Strategy::Baseline => base,
        Strategy::BaselinePowerGated => r.relax.time(|| power_gate_idle(dfg, &base)),
        Strategy::PerTileDvfs => r.relax.time(|| relax_per_tile(dfg, &base)),
        Strategy::IcedIslands => r.relax.time(|| relax_islands(dfg, &base)),
    }))
}

/// Replays one `cold` pass and one `certify` pass in process.
fn replay(
    cold: &ServiceInputs,
    corpus: &[(Dfg, bool)],
    on: Option<&PerOp>,
    report: &mut Report,
) -> Replay {
    let cfg = CgraConfig::iced_prototype();
    let model = PowerModel::asap7();
    let mut r = Replay::default();
    for op in &cold.ops {
        // `Partition::table1` maps with the default thread count, whose
        // counters do not repeat; stream ops are timed but not traced.
        let sink = on.filter(|_| !matches!(op.spec, Spec::Stream { .. }));
        let checked = r.traced(sink, |r| -> Result<(), String> {
            match &op.spec {
                Spec::Compile { kern, strategy } => {
                    let k = &cold.kerns[*kern];
                    let parsed;
                    let dfg = match &k.source {
                        Source::Inline(t) => {
                            parsed = r.parse.time(|| text::parse(t)).map_err(|e| e.to_string())?;
                            &parsed
                        }
                        Source::Named(..) => &k.dfg,
                    };
                    r.nodes.push(dfg.node_count() as f64);
                    let mapping = match map_strategy(r, dfg, op, &cfg)? {
                        Ok(m) => m,
                        // The typed rejection the service answers too;
                        // a Table-I kernel must always map.
                        Err(MapError::IiExceeded { max_ii })
                            if matches!(k.source, Source::Inline(_)) =>
                        {
                            r.rejected += 1;
                            r.ii_sum += u64::from(max_ii) + 1;
                            return Ok(());
                        }
                        Err(e) => return Err(format!("{}: {e}", dfg.name())),
                    };
                    r.analyze.time(|| FabricStats::analyze(&mapping));
                    let energy = r.account.time(|| {
                        EnergyBreakdown::account(
                            dfg,
                            &mapping,
                            &model,
                            strategy.dvfs_support(),
                            1000,
                        )
                    });
                    r.power_mw.push(energy.total_power_mw());
                    r.bitstream.time(|| Bitstream::assemble(dfg, &mapping));
                    let lb = lower_bound(dfg, &cfg);
                    if mapping.ii() < lb || !check_dependencies(dfg, &mapping) {
                        return Err(format!("{}: mapping fails its checks", dfg.name()));
                    }
                    r.ii_sum += u64::from(mapping.ii());
                }
                Spec::Simulate {
                    kern,
                    iterations,
                    seed,
                } => {
                    let dfg = &cold.kerns[*kern].dfg;
                    let mapping = map_strategy(r, dfg, op, &cfg)?
                        .map_err(|e| format!("{}: {e}", dfg.name()))?;
                    let rep = r
                        .engine
                        .time(|| run_engine(dfg, &mapping, *iterations, *seed))
                        .map_err(|e| format!("{}: engine: {e}", dfg.name()))?;
                    r.cycles += rep.cycles;
                }
                Spec::Stream { .. } => {
                    let spec = op.stream_spec()?;
                    let pl = Pipeline::by_name(&spec.pipeline).ok_or("unknown pipeline")?;
                    let part = r
                        .partition
                        .time(|| Partition::table1(&pl, &cfg))
                        .map_err(|e| e.to_string())?;
                    // The service's own input draw for the stream.
                    let units: Vec<u64> = if matches!(spec.pipeline.as_str(), "gcn" | "sensor") {
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
                    let rep = r
                        .stream
                        .time(|| simulate(&pl, &part, &model, &units, spec.policy));
                    r.perf_per_watt.push(rep.perf_per_watt());
                }
            }
            Ok(())
        });
        report.op(checked);
    }
    r.cold_ii_attempts = r.counter("ii_attempts");
    let (heur, companion) = (heuristic_options(), companion_options());
    let xopts = exact_options();
    for (dfg, _) in corpus {
        r.nodes.push(dfg.node_count() as f64);
        let c = r.traced(on, |r| {
            r.lower_bound.time(|| lower_bound(dfg, &cfg));
            r.arm.time(|| {
                let _ = map_with(dfg, &cfg, &heur);
                let _ = map_with(dfg, &cfg, &companion);
            });
            r.certify.time(|| certify(dfg, &cfg, &heur, &xopts))
        });
        let checked = c
            .as_ref()
            .map_err(|e| format!("{}: {e}", dfg.name()))
            .and_then(|c| check_certified(dfg, &cfg, c));
        report.op(checked);
        r.verdicts
            .push(c.as_ref().map(Verdict::of).map_err(|e| e.to_string()));
    }
    r
}

fn request(client: &mut Client, line: &str) -> Result<Value, String> {
    let line = client.request(line).map_err(|e| e.to_string())?;
    answer::parse(&line).map(|a| a.result)
}

/// Sums `count` and `total_us` of one histogram family over the work
/// verbs in a `metrics` result; returns the mean in ms.
fn family_mean_ms(metrics: &Value, family: &str) -> f64 {
    let (mut count, mut total_us) = (0u64, 0u64);
    for verb in ["compile", "simulate", "stream"] {
        if let Some(h) = metrics.get(family).and_then(|f| f.get(verb)) {
            count += h.get("count").and_then(Value::as_u64).unwrap_or(0);
            total_us += h.get("total_us").and_then(Value::as_u64).unwrap_or(0);
        }
    }
    total_us as f64 / 1e3 / count.max(1) as f64
}

/// p50 in µs of `n` closed-loop requests; each answer goes through `check`.
fn probe(
    client: &mut Client,
    n: usize,
    report: &mut Report,
    mut next: impl FnMut() -> (String, usize),
    check: impl Fn(&str, usize) -> Result<(), String>,
) -> f64 {
    let mut lat = Vec::with_capacity(n);
    for _ in 0..n {
        let (line, i) = next();
        let t = Instant::now();
        let r = client.request(&line);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        report.op(r.map_err(|e| e.to_string()).and_then(|l| check(&l, i)));
    }
    percentile(&mut lat, 0.5).unwrap_or(f64::NAN)
}

pub fn run(seed: u64, report: &mut Report) {
    let cold = inputs::cold(seed);
    let corpus = inputs::certify(seed);
    let warm = inputs::warm(seed);

    // The first untraced replay warms caches and lazy tables; the second
    // is the one timed against the traced replay. Its checks are not
    // counted again.
    let mut quiet = Report::default();
    replay(&cold, &corpus, None, &mut quiet);
    let t = Instant::now();
    let plain = replay(&cold, &corpus, None, &mut quiet);
    let untraced_s = t.elapsed().as_secs_f64();
    let sink = Arc::new(PerOp::default());
    if iced::trace::install(sink.clone()).is_err() {
        report.fail("a trace collector was already installed");
    }
    let t = Instant::now();
    let r = replay(&cold, &corpus, Some(&sink), report);
    let traced_s = t.elapsed().as_secs_f64();
    let same = |a: &Replay, b: &Replay| {
        a.ii_sum == b.ii_sum
            && a.rejected == b.rejected
            && a.power_mw == b.power_mw
            && a.perf_per_watt == b.perf_per_watt
            && a.verdicts == b.verdicts
            && a.cycles == b.cycles
    };
    if !same(&plain, &r) {
        report.fail("the traced replay answered differently from the untraced one");
    }

    let nodes: u64 = r.verdicts.iter().flatten().map(|v| v.nodes).sum();
    let lb_gap: u64 = r
        .verdicts
        .iter()
        .flatten()
        .map(|v| u64::from(v.ii - v.lower_bound))
        .sum();
    let proof_s = r.certify.total_s - r.arm.total_s;
    let expansions = r.counter("dijkstra_expansions");
    for (name, v) in [
        ("cold.ii_sum", r.ii_sum as f64),
        ("cold.rejected", r.rejected as f64),
        ("certify.ii_sum", r.certified_ii_sum() as f64),
        ("power.mw_mean", mean(&r.power_mw)),
        ("streaming.perf_per_watt_mean", mean(&r.perf_per_watt)),
        ("exact.optimal_share", r.optimal_share()),
        ("exact.nodes", nodes as f64),
        ("mapper.ii_attempts", r.counter("ii_attempts") as f64),
        ("mapper.dijkstra_expansions", expansions as f64),
        ("sim.cycles", r.cycles as f64),
    ] {
        report.quality(name, v);
    }

    report.metric("dfg.parse_us", r.parse.mean_us(), "us");
    report.metric("dfg.nodes_mean", mean(&r.nodes), "nodes");
    report.metric("mapper.label_us", r.label.mean_us(), "us");
    report.metric("mapper.map_ms", r.map.mean_ms(), "ms");
    report.metric("mapper.relax_us", r.relax.mean_us(), "us");
    report.metric("mapper.bitstream_us", r.bitstream.mean_us(), "us");
    report.metric(
        "mapper.ii_attempts",
        r.counter("ii_attempts") as f64,
        "count",
    );
    report.metric(
        "mapper.ii_attempts_per_map",
        r.cold_ii_attempts as f64 / r.map.calls.max(1) as f64,
        "attempts/map",
    );
    report.metric("mapper.dijkstra_expansions", expansions as f64, "count");
    report.metric(
        "mapper.route_failure_share",
        r.counter("route_failures") as f64 / r.counter("routes_requested").max(1) as f64,
        "share",
    );
    report.metric(
        "mapper.commit_aborts",
        r.counter("commit_aborts") as f64,
        "count",
    );
    report.metric("sim.analyze_us", r.analyze.mean_us(), "us");
    report.metric("sim.engine_ms", r.engine.mean_ms(), "ms");
    report.metric(
        "sim.mcycles_per_s",
        r.cycles as f64 / 1e6 / r.engine.total_s.max(f64::MIN_POSITIVE),
        "Mcycles/s",
    );
    report.metric("power.account_us", r.account.mean_us(), "us");
    report.metric("power.mw_mean", mean(&r.power_mw), "mW");
    report.metric("streaming.partition_ms", r.partition.mean_ms(), "ms");
    report.metric("streaming.simulate_us", r.stream.mean_us(), "us");
    report.metric(
        "streaming.perf_per_watt_mean",
        mean(&r.perf_per_watt),
        "perf/W",
    );
    report.metric("exact.lower_bound_us", r.lower_bound.mean_us(), "us");
    report.metric("exact.heuristic_arm_ms", r.arm.mean_ms(), "ms");
    report.metric("exact.certify_ms", r.certify.mean_ms(), "ms");
    report.metric("exact.nodes", nodes as f64, "count");
    report.metric(
        "exact.us_per_node",
        proof_s * 1e6 / nodes.max(1) as f64,
        "us",
    );
    report.metric(
        "exact.refutations",
        r.counter("exact_refutations") as f64,
        "count",
    );
    report.metric("exact.lb_gap_sum", lb_gap as f64, "cycles");
    report.metric("exact.optimal_share", r.optimal_share(), "share");
    service_layers(&cold, &warm, seed, report);
    report.metric(
        "trace.overhead_share",
        (traced_s - untraced_s) / untraced_s,
        "share",
    );
}

/// The daemon, cache and router layers, timed from outside.
fn service_layers(cold: &ServiceInputs, warm: &ServiceInputs, seed: u64, report: &mut Report) {
    let cfg = CgraConfig::iced_prototype().canonical_hash();

    // One cold pass through a fresh daemon: its queue and service
    // histograms, and the answers the cache-put timing stores.
    let server = start_daemon();
    let addr = server.local_addr().to_string();
    let answers = pass(&addr, cold, &mut StepCpu::default());
    let metrics = request(&mut Client::new(&addr), r#"{"verb":"metrics"}"#);
    stop(server);
    let cache = ResultCache::new(64 << 20, None);
    let mut put = Timer::default();
    let lib_cfg = CgraConfig::iced_prototype();
    for (op, (_, line)) in cold.ops.iter().zip(&answers) {
        let checked = line.as_ref().map_err(Clone::clone).and_then(|l| {
            if let Err(e) = answer::parse(l) {
                return match library_rejection(cold, op, l, &lib_cfg) {
                    Some(_) => Ok(()),
                    None => Err(e),
                };
            }
            let req = parse_request(&op.line).map_err(|e| e.error.render())?;
            let key = request_key(cfg, &req).ok_or("request has no cache key")?;
            put.time(|| cache.put(key, l.clone()));
            Ok(())
        });
        report.op(checked);
    }
    match metrics {
        Ok(m) => {
            report.metric(
                "service.queue_wait_ms",
                family_mean_ms(&m, "queue_wait"),
                "ms",
            );
            report.metric(
                "service.service_ms",
                family_mean_ms(&m, "service_time"),
                "ms",
            );
        }
        Err(e) => report.fail(&format!("cold daemon metrics: {e}")),
    }
    report.metric("service.cache_put_us", put.mean_us(), "us");

    // In-process request handling on the warm lines.
    let (mut parse, mut key, mut get) = (Timer::default(), Timer::default(), Timer::default());
    let reqs: Vec<_> = warm
        .ops
        .iter()
        .filter_map(|op| parse_request(&op.line).ok())
        .collect();
    let keys: Vec<_> = reqs.iter().filter_map(|r| request_key(cfg, r)).collect();
    if keys.len() != warm.ops.len() {
        report.fail("a warm request did not parse to a cache key");
    }
    for (k, op) in keys.iter().zip(&warm.ops) {
        cache.put(*k, op.line.clone());
    }
    for _ in 0..INPROCESS_REPS {
        for (op, req) in warm.ops.iter().zip(&reqs) {
            std::hint::black_box(
                parse
                    .time(|| parse_request(std::hint::black_box(&op.line)))
                    .is_ok(),
            );
            std::hint::black_box(key.time(|| request_key(cfg, std::hint::black_box(req))));
        }
        for k in &keys {
            std::hint::black_box(get.time(|| cache.get(*k)).is_some());
        }
    }
    report.metric("service.parse_us", parse.mean_us(), "us");
    report.metric("service.key_us", key.mean_us(), "us");
    report.metric("service.cache_get_us", get.mean_us(), "us");

    // Loopback probes: the inline floor and hits on one shard, then the
    // same hits through the router.
    let n = warm.ops.len() as u64;
    let mut rng = iced::fuzz::Rng::new(seed ^ 0x817);
    let shard = start_daemon();
    let mut direct = Client::new(&shard.local_addr().to_string());
    let shard_cold = warm_up(&mut direct, warm, &mut StepCpu::default());
    let healthz = r#"{"verb":"healthz"}"#.to_string();
    let floor = probe(
        &mut direct,
        PROBE_REQUESTS,
        report,
        || (healthz.clone(), 0),
        |l, _| {
            json::parse(l)
                .ok()
                .filter(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
                .map(|_| ())
                .ok_or_else(|| format!("healthz failed: {l}"))
        },
    );
    let shard_hit = probe(
        &mut direct,
        PROBE_REQUESTS,
        report,
        || {
            let i = rng.below(n) as usize;
            (warm.ops[i].line.clone(), i)
        },
        |l, i| check_hit(l, &shard_cold[i]),
    );
    drop(direct);
    stop(shard);

    let cluster = Cluster::start();
    let mut routed = Client::new(&cluster.addr());
    let cluster_cold = warm_up(&mut routed, warm, &mut StepCpu::default());
    let routed_hit = probe(
        &mut routed,
        PROBE_REQUESTS,
        report,
        || {
            let i = rng.below(n) as usize;
            (warm.ops[i].line.clone(), i)
        },
        |l, i| check_hit(l, &cluster_cold[i]),
    );
    let router_stats = request(&mut routed, r#"{"verb":"stats"}"#);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for s in &cluster.shards {
        match request(
            &mut Client::new(&s.local_addr().to_string()),
            r#"{"verb":"metrics"}"#,
        ) {
            Ok(m) => {
                let h = m.get("cache_hits").and_then(Value::as_u64).unwrap_or(0);
                hits += h;
                lookups += h + m.get("cache_misses").and_then(Value::as_u64).unwrap_or(0);
            }
            Err(e) => report.fail(&format!("shard metrics: {e}")),
        }
    }
    drop(routed);
    cluster.stop();
    for c in shard_cold
        .iter()
        .chain(&cluster_cold)
        .filter_map(|c| c.as_ref().err())
    {
        report.fail(&format!("warm-up: {c}"));
    }

    report.metric("service.inline_floor_us", floor, "us");
    report.metric("service.shard_hit_us", shard_hit, "us");
    report.metric("service.hit_over_floor_us", shard_hit - floor, "us");
    report.metric(
        "service.hit_share",
        hits as f64 / lookups.max(1) as f64,
        "share",
    );
    report.metric("router.hop_us", routed_hit - shard_hit, "us");
    match router_stats {
        Ok(s) => report.metric(
            "router.replications",
            s.get("replicated").and_then(Value::as_u64).unwrap_or(0) as f64,
            "count",
        ),
        Err(e) => report.fail(&format!("router stats: {e}")),
    }
}
