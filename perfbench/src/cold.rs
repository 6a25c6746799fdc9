//! `cold`: every request misses the cache of a freshly started daemon.

use std::time::Instant;

use iced::arch::CgraConfig;
use iced::exact::lower_bound;
use iced::mapper::{map_with, relax_islands, MapError};
use iced::sim::run_engine;
use iced_service::{Client, Server, ServiceConfig};

use crate::answer;
use crate::inputs::{self, Op, ServiceInputs, Source, Spec};
use crate::stats::Thinned;
use crate::{setup_median, Report, StepCpu, LATENCIES_KEPT};

/// Starts the daemon exactly as a service user gets it: library defaults
/// on an ephemeral loopback port.
pub fn start_daemon() -> Server {
    Server::start(ServiceConfig::default()).expect("daemon binds a loopback port")
}

pub fn stop(server: Server) {
    server.shutdown();
    server.wait();
}

/// The II ceiling the mapper gave up at, when `line` is a typed
/// `map_error` for an inline `compile` that the library rejects too. That
/// is a correct answer: the fuzz contract accepts the rejection, since the
/// greedy placer cannot backtrack and a few generated kernels defeat it
/// below its ceiling. A Table-I kernel must always map.
pub fn library_rejection(s: &ServiceInputs, op: &Op, line: &str, cfg: &CgraConfig) -> Option<u32> {
    let Spec::Compile { kern, .. } = op.spec else {
        return None;
    };
    let k = &s.kerns[kern];
    if !matches!(k.source, Source::Inline(_))
        || answer::error_code(line).as_deref() != Some("map_error")
    {
        return None;
    }
    match map_with(&k.dfg, cfg, &op.mapper_options().ok()?) {
        Err(MapError::IiExceeded { max_ii }) => Some(max_ii),
        _ => None,
    }
}

/// Sends every op once over one connection, waiting for each answer and
/// timing op `i` as step `i` of `cpu`. Returns each op's latency in ms
/// and its answer line.
pub fn pass(
    addr: &str,
    s: &ServiceInputs,
    cpu: &mut StepCpu,
) -> Vec<(f64, Result<String, String>)> {
    let mut client = Client::new(addr);
    s.ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let t = Instant::now();
            let r = cpu.time(i, || client.request(&op.line).map_err(|e| e.to_string()));
            (t.elapsed().as_secs_f64() * 1e3, r)
        })
        .collect()
}

/// The line with its per-request parts neutralised; a typed error answer
/// is kept whole, since it carries none.
fn canonical_or_error(line: &Result<String, String>) -> Result<String, String> {
    let line = line.as_ref().map_err(Clone::clone)?;
    Ok(answer::canonical(line).unwrap_or_else(|_| line.clone()))
}

/// The answer-derived values that repeat exactly at one seed.
#[derive(Debug, Default, PartialEq)]
pub struct Quality {
    /// Σ II over every compile, a rejected one at the mapper's ceiling
    /// + 1, so that each rejection raises it.
    pub ii_sum: u64,
    /// Inline compiles the heuristic mapper rejected.
    pub rejected: u64,
    pub power_mw_mean: f64,
    pub perf_per_watt_mean: f64,
}

/// Checks one pass's answers against the program's own libraries. Returns
/// per-op verdicts and the pass's quality values.
fn check_first_pass(
    s: &ServiceInputs,
    lines: &[Result<String, String>],
) -> (Vec<Result<(), String>>, Quality) {
    let cfg = CgraConfig::iced_prototype();
    let mut lbs: Vec<Option<u32>> = vec![None; s.kerns.len()];
    let (mut ii_sum, mut power, mut ppw, mut rejected) = (0, Vec::new(), Vec::new(), 0);
    let verdicts = s
        .ops
        .iter()
        .zip(lines)
        .map(|(op, line)| {
            let line = line.as_ref().map_err(Clone::clone)?;
            let a = match answer::parse(line) {
                Ok(a) => a,
                Err(e) => {
                    let max_ii = library_rejection(s, op, line, &cfg).ok_or(e)?;
                    rejected += 1;
                    ii_sum += u64::from(max_ii) + 1;
                    return Ok(());
                }
            };
            match &op.spec {
                Spec::Compile { kern, .. } => {
                    let dfg = &s.kerns[*kern].dfg;
                    let lb = *lbs[*kern].get_or_insert_with(|| lower_bound(dfg, &cfg));
                    let ii = a.u64("ii")?;
                    if ii < u64::from(lb) {
                        return Err(format!("{}: II {ii} below lower bound {lb}", dfg.name()));
                    }
                    ii_sum += ii;
                    power.push(a.f64("power_mw")?);
                }
                Spec::Simulate {
                    kern,
                    iterations,
                    seed,
                } => {
                    let dfg = &s.kerns[*kern].dfg;
                    let base =
                        map_with(dfg, &cfg, &op.mapper_options()?).map_err(|e| e.to_string())?;
                    let mapping = relax_islands(dfg, &base);
                    let report = run_engine(dfg, &mapping, *iterations, *seed)
                        .map_err(|e| format!("{}: engine: {e}", dfg.name()))?;
                    let cycles = a.u64("cycles")?;
                    if cycles != report.cycles || a.u64("ii")? != u64::from(mapping.ii()) {
                        return Err(format!(
                            "{}: answered {cycles} cycles, the engine runs {}",
                            dfg.name(),
                            report.cycles
                        ));
                    }
                }
                Spec::Stream { .. } => {
                    let p = a.f64("perf_per_watt")?;
                    if p <= 0.0 || a.u64("inputs")? == 0 {
                        return Err(format!("degenerate stream answer: {}", op.line));
                    }
                    ppw.push(p);
                }
            }
            Ok(())
        })
        .collect();
    println!("perfbench: {rejected} inline compiles rejected, as the library rejects them");
    let q = Quality {
        ii_sum,
        rejected,
        power_mw_mean: crate::stats::mean(&power),
        perf_per_watt_mean: crate::stats::mean(&ppw),
    };
    (verdicts, q)
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (setup_s, (s, mut server)) = setup_median(
        |cpu| (cpu.next(|| inputs::cold(seed)), cpu.next(start_daemon)),
        |(_, server)| stop(server),
    );
    report.metric("setup_s", setup_s, "s");

    let mut latencies = Thinned::new(LATENCIES_KEPT);
    let mut cpu = StepCpu::default();
    // The first pass is checked against the libraries; later passes must
    // repeat its answers byte for byte.
    let mut first: Option<Vec<Result<String, String>>> = None;
    let t0 = Instant::now();
    loop {
        let addr = server.local_addr().to_string();
        let answers = pass(&addr, &s, &mut cpu);
        stop(server);
        let (latencies_ms, lines): (Vec<f64>, Vec<_>) = answers.into_iter().unzip();
        latencies_ms.into_iter().for_each(|l| latencies.push(l));
        match &first {
            None => {
                let (verdicts, q) = check_first_pass(&s, &lines);
                report.quality("ii_sum", q.ii_sum as f64);
                report.quality("rejected", q.rejected as f64);
                report.quality("power_mw_mean", q.power_mw_mean);
                report.quality("perf_per_watt_mean", q.perf_per_watt_mean);
                let canonical = lines
                    .iter()
                    .zip(verdicts)
                    .map(|(line, verdict)| {
                        report.op(verdict.clone());
                        verdict.and_then(|()| canonical_or_error(line))
                    })
                    .collect();
                first = Some(canonical);
            }
            Some(canon) => {
                for (line, then) in lines.iter().zip(canon) {
                    report.op(match (canonical_or_error(line), then) {
                        (Ok(now), Ok(then)) if &now == then => Ok(()),
                        (Ok(_), Ok(_)) => Err(format!("answer changed between passes: {line:?}")),
                        (Err(e), _) => Err(e),
                        (_, Err(e)) => Err(e.clone()),
                    });
                }
            }
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        server = start_daemon();
    }
    report.throughput_metrics(&latencies, &cpu);
    report.metric("ii_sum", report.quality_value("ii_sum"), "cycles");
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced::dfg::text;
    use iced::kernels::{Kernel, UnrollFactor};
    use iced::Strategy;
    use iced_service::json::Obj;
    use iced_service::proto::render_err;
    use iced_service::{SvcError, Verb};

    fn map_error() -> String {
        let err = SvcError::new("map_error", "no valid mapping found up to II = 1");
        render_err(0, None, Some(Verb::Compile), &err)
    }

    /// One `compile` of fir at an II ceiling of 1, which the library
    /// rejects too, with the kernel named or sent inline.
    fn fir_at_ii_1(inline: bool) -> ServiceInputs {
        let (k, uf) = (Kernel::Fir, UnrollFactor::X1);
        let dfg = k.dfg(uf);
        let (source, o) = if inline {
            let t = text::to_text(&dfg);
            (Source::Inline(t.clone()), Obj::new().str("dfg", &t))
        } else {
            let o = Obj::new().str("kernel", k.name()).u64("unroll", 1);
            (Source::Named(k, uf), o)
        };
        let strategy = Strategy::IcedIslands;
        let line = o
            .str("verb", "compile")
            .str("strategy", strategy.name())
            .u64("max_ii", 1)
            .finish();
        ServiceInputs {
            kerns: vec![inputs::Kern { dfg, source }],
            ops: vec![Op {
                line,
                spec: Spec::Compile { kern: 0, strategy },
            }],
        }
    }

    #[test]
    fn only_an_inline_compile_may_be_a_library_rejection() {
        let cfg = CgraConfig::iced_prototype();
        let inline = fir_at_ii_1(true);
        assert_eq!(
            library_rejection(&inline, &inline.ops[0], &map_error(), &cfg),
            Some(1)
        );
        let named = fir_at_ii_1(false);
        assert_eq!(
            library_rejection(&named, &named.ops[0], &map_error(), &cfg),
            None,
            "a Table-I kernel must always map"
        );
    }

    #[test]
    fn an_inline_compile_the_library_maps_is_not_a_rejection() {
        let s = inputs::cold(1);
        let cfg = CgraConfig::iced_prototype();
        let fewest = s.kerns.iter().map(|k| k.dfg.node_count()).min();
        let op = s
            .ops
            .iter()
            .find(|op| {
                matches!(op.spec, Spec::Compile { kern, .. }
                    if matches!(s.kerns[kern].source, Source::Inline(_))
                        && Some(s.kerns[kern].dfg.node_count()) == fewest)
            })
            .expect("an inline compile of the smallest kernel");
        assert_eq!(library_rejection(&s, op, &map_error(), &cfg), None);
    }
}
