//! `warm`: cache hits through a router fronting two shards.

use std::time::Instant;

use iced::fuzz::Rng;
use iced_service::{Client, Router, RouterConfig, Server};

use crate::answer;
use crate::cold::{start_daemon, stop};
use crate::inputs::{self, ServiceInputs, Spec};
use crate::stats::Thinned;
use crate::{setup_median, Report, StepCpu, LATENCIES_KEPT};

/// Two shards behind one router, at library defaults.
pub struct Cluster {
    pub shards: Vec<Server>,
    pub router: Router,
}

impl Cluster {
    pub fn start() -> Cluster {
        let shards: Vec<Server> = (0..2).map(|_| start_daemon()).collect();
        let router = Router::start(RouterConfig {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .expect("router binds a loopback port");
        Cluster { shards, router }
    }

    pub fn addr(&self) -> String {
        self.router.local_addr().to_string()
    }

    pub fn stop(self) {
        self.router.shutdown();
        self.router.wait();
        self.shards.into_iter().for_each(stop);
    }
}

/// Sends each entry once, as a miss, timing each as the next step of
/// `cpu`, and returns the answers in order. An entry whose warm-up answer
/// is not a fresh `ok` has `Err`.
pub fn warm_up(
    client: &mut Client,
    s: &ServiceInputs,
    cpu: &mut StepCpu,
) -> Vec<Result<String, String>> {
    s.ops
        .iter()
        .map(|op| {
            let line = cpu
                .next(|| client.request(&op.line))
                .map_err(|e| e.to_string())?;
            match answer::parse(&line) {
                Ok(a) if !a.cached => answer::canonical(&line),
                Ok(_) => Err(format!("warm-up answered from cache: {line}")),
                Err(e) => Err(e),
            }
        })
        .collect()
}

/// Checks a hit against the canonical form of its cold answer.
pub fn check_hit(line: &str, cold: &Result<String, String>) -> Result<(), String> {
    let cold = cold.as_ref().map_err(|e| format!("no cold answer: {e}"))?;
    if !answer::parse(line)?.cached {
        return Err(format!("expected a hit: {line}"));
    }
    if &answer::canonical(line)? != cold {
        return Err(format!("hit differs from its cold answer: {line}"));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (setup_s, (s, cluster, mut client, cold)) = setup_median(
        |cpu| {
            let s = cpu.next(|| inputs::warm(seed));
            let cluster = cpu.next(Cluster::start);
            let mut client = Client::new(&cluster.addr());
            let cold = warm_up(&mut client, &s, cpu);
            (s, cluster, client, cold)
        },
        |(_, cluster, _, _)| cluster.stop(),
    );
    report.metric("setup_s", setup_s, "s");
    for c in cold.iter().filter_map(|c| c.as_ref().err()) {
        report.fail(&format!("warm-up: {c}"));
    }

    let mut rng = Rng::new(seed ^ 0x817);
    // Entry `i`'s hits are step `i` of `cpu`.
    let mut latencies = Thinned::new(LATENCIES_KEPT);
    let mut cpu = StepCpu::default();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let i = rng.below(s.ops.len() as u64) as usize;
        let t = Instant::now();
        let r = cpu.time(i, || client.request(&s.ops[i].line));
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        report.op(r
            .map_err(|e| e.to_string())
            .and_then(|l| check_hit(&l, &cold[i])));
    }
    drop(client);
    cluster.stop();

    // Σ II over the Table-I compile entries, from the answers every hit
    // was checked against.
    let ii_sum: u64 = s
        .ops
        .iter()
        .zip(&cold)
        .filter(|(op, _)| matches!(op.spec, Spec::Compile { .. }))
        .filter_map(|(_, l)| answer::parse(l.as_ref().ok()?).ok()?.u64("ii").ok())
        .sum();
    report.quality("ii_sum", ii_sum as f64);
    report.throughput_metrics(&latencies, &cpu);
    report.metric("ii_sum", ii_sum as f64, "cycles");
}
