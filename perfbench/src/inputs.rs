//! Seeded inputs for every workload. The program under test only ever
//! sees the request lines and DFGs built here.

use iced::dfg::{text, Dfg};
use iced::fuzz::{generate, GenOptions, Rng};
use iced::kernels::{Kernel, UnrollFactor};
use iced::mapper::MapperOptions;
use iced::Strategy;
use iced_service::json::Obj;
use iced_service::proto::{parse_request, CompileSpec, Payload, StreamSpec};

/// `iced-fuzz` kernels (default options) compiled inline per `cold` pass.
pub const COLD_FUZZ: usize = 64;
/// Loop iterations of every `simulate` request.
pub const SIM_ITERATIONS: u64 = 1000;
/// Seeded `simulate` entries in the `warm` set.
pub const WARM_SIMULATES: usize = 8;
/// Generated small kernels in the certification corpus, beside Table-I.
pub const CERTIFY_SMALL: usize = 150;
/// Node budget of every `certify` call: small enough that one pass of the
/// corpus takes about four seconds.
pub const CERTIFY_NODE_BUDGET: u64 = 60;

/// Streaming pipelines the service accepts, and the policies it runs.
const PIPELINES: [&str; 4] = ["gcn", "lu", "sensor", "stencil"];
const POLICIES: [&str; 3] = ["iced", "drips", "static"];

/// How a request refers to its kernel.
#[derive(Debug, Clone)]
pub enum Source {
    /// A suite kernel by name and unroll factor.
    Named(Kernel, UnrollFactor),
    /// The DFG in text form, sent inline.
    Inline(String),
}

/// A kernel a request names, or carries inline.
#[derive(Debug, Clone)]
pub struct Kern {
    /// The graph the service will build or parse.
    pub dfg: Dfg,
    /// How requests refer to it.
    pub source: Source,
}

/// What one request asks for, so its answer can be checked.
#[derive(Debug, Clone)]
pub enum Spec {
    /// `compile` of `kern` under `strategy`.
    Compile { kern: usize, strategy: Strategy },
    /// `simulate` of `kern` under the default strategy.
    Simulate {
        kern: usize,
        iterations: u64,
        seed: u64,
    },
    /// `stream` of a pipeline under a policy, with the default inputs.
    Stream {
        pipeline: &'static str,
        policy: &'static str,
        seed: u64,
    },
}

/// One request line and what it asks for.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request line sent to the service.
    pub line: String,
    /// What the line asks for.
    pub spec: Spec,
}

impl Op {
    fn payload(&self) -> Result<Payload, String> {
        parse_request(&self.line)
            .map(|r| r.payload)
            .map_err(|e| e.error.render())
    }

    /// The compile half of a `compile` or `simulate` line, as the service
    /// parses it.
    pub fn compile_spec(&self) -> Result<CompileSpec, String> {
        match self.payload()? {
            Payload::Compile(c) => Ok(c),
            Payload::Simulate(s) => Ok(s.compile),
            _ => Err(format!("not a compile or simulate line: {}", self.line)),
        }
    }

    /// The mapper options the service maps this line with, run serially:
    /// the mapper's counters repeat exactly only then, and every thread
    /// count gives the same mapping.
    pub fn mapper_options(&self) -> Result<MapperOptions, String> {
        Ok(MapperOptions {
            threads: 1,
            ..self.compile_spec()?.mapper_options()
        })
    }

    /// The payload of a `stream` line, as the service parses it.
    pub fn stream_spec(&self) -> Result<StreamSpec, String> {
        match self.payload()? {
            Payload::Stream(s) => Ok(s),
            _ => Err(format!("not a stream line: {}", self.line)),
        }
    }
}

/// A service workload: the kernels referenced, then the ops in order.
#[derive(Debug, Clone, Default)]
pub struct ServiceInputs {
    /// Kernels, indexed by [`Spec`].
    pub kerns: Vec<Kern>,
    /// Requests in the order they are sent.
    pub ops: Vec<Op>,
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The next `n` kernels `generate` accepts, drawing generator seeds from
/// `rng`. Seeds it rejects are skipped: they are not kernels.
fn fuzz_kernels(rng: &mut Rng, n: usize, opts: &GenOptions) -> Vec<Dfg> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if let Ok(d) = generate(rng.next_u64(), opts) {
            out.push(d);
        }
    }
    out
}

impl ServiceInputs {
    fn named(&mut self, k: Kernel, uf: UnrollFactor) -> usize {
        self.kerns.push(Kern {
            dfg: k.dfg(uf),
            source: Source::Named(k, uf),
        });
        self.kerns.len() - 1
    }

    fn inline(&mut self, dfg: Dfg) -> usize {
        let t = text::to_text(&dfg);
        self.kerns.push(Kern {
            dfg,
            source: Source::Inline(t),
        });
        self.kerns.len() - 1
    }

    /// The request fields naming kernel `i`.
    fn source(&self, i: usize, o: Obj) -> Obj {
        match &self.kerns[i].source {
            Source::Inline(t) => o.str("dfg", t),
            Source::Named(k, uf) => o
                .str("kernel", k.name())
                .u64("unroll", u64::from(uf.factor())),
        }
    }

    fn push(&mut self, spec: Spec) {
        let o = Obj::new();
        let line = match &spec {
            Spec::Compile { kern, strategy } => self
                .source(*kern, o.str("verb", "compile"))
                .str("strategy", strategy.name())
                .finish(),
            Spec::Simulate {
                kern,
                iterations,
                seed,
            } => self
                .source(*kern, o.str("verb", "simulate"))
                .u64("iterations", *iterations)
                .u64("seed", *seed)
                .finish(),
            Spec::Stream {
                pipeline,
                policy,
                seed,
            } => o
                .str("verb", "stream")
                .str("pipeline", pipeline)
                .str("policy", policy)
                .u64("seed", *seed)
                .finish(),
        };
        self.ops.push(Op { line, spec });
    }
}

/// `cold`: every Table-I kernel at ×1 and ×2 under the four strategies
/// (`compile`) and the default one (`simulate`), every pipeline under
/// every policy (`stream`), then the first [`COLD_FUZZ`] kernels a fixed
/// generator stream gives, inline — all with distinct cache keys, sent in
/// seeded order with seeded `simulate` and `stream` data.
///
/// The set of kernels does not depend on the seed. Op costs run from
/// 0.5 ms to 170 ms and the latency curve is steep around its median, so
/// seeded fuzz kernels shifted the median latency by up to half between
/// seeds.
pub fn cold(seed: u64) -> ServiceInputs {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let mut s = ServiceInputs::default();
    let sim_seed = rng.below(1 << 20);
    for k in Kernel::ALL {
        for uf in UnrollFactor::ALL {
            let kern = s.named(k, uf);
            for strategy in Strategy::ALL {
                s.push(Spec::Compile { kern, strategy });
            }
            s.push(Spec::Simulate {
                kern,
                iterations: SIM_ITERATIONS,
                seed: sim_seed,
            });
        }
    }
    for pipeline in PIPELINES {
        for policy in POLICIES {
            s.push(Spec::Stream {
                pipeline,
                policy,
                seed: sim_seed,
            });
        }
    }
    for d in fuzz_kernels(&mut Rng::new(0xC01D), COLD_FUZZ, &GenOptions::default()) {
        let kern = s.inline(d);
        s.push(Spec::Compile {
            kern,
            strategy: Strategy::IcedIslands,
        });
    }
    shuffle(&mut rng, &mut s.ops);
    s
}

/// `warm`: every Table-I kernel at ×1 and ×2 as a `compile` under the
/// default strategy, [`WARM_SIMULATES`] seeded `simulate`s, and one
/// `stream` per pipeline at a seeded policy. Every entry is distinct; the
/// measured phase replays them as hits in seeded order.
///
/// No entry carries its DFG inline: an inline hit re-parses and re-hashes
/// the whole graph and cost about 1.6 ms against 0.13 ms for a named one,
/// so a handful of them set the throughput, and the seeded graph sizes moved
/// it from seed to seed. `cold` sends the inline requests.
pub fn warm(seed: u64) -> ServiceInputs {
    let mut rng = Rng::new(seed ^ 0x3A53);
    let mut s = ServiceInputs::default();
    let sim_seed = rng.below(1 << 20);
    for k in Kernel::ALL {
        for uf in UnrollFactor::ALL {
            let kern = s.named(k, uf);
            s.push(Spec::Compile {
                kern,
                strategy: Strategy::IcedIslands,
            });
        }
    }
    let mut kernels = Kernel::ALL.to_vec();
    shuffle(&mut rng, &mut kernels);
    for k in kernels.into_iter().take(WARM_SIMULATES) {
        let kern = s.named(k, UnrollFactor::ALL[rng.below(2) as usize]);
        s.push(Spec::Simulate {
            kern,
            iterations: SIM_ITERATIONS,
            seed: sim_seed,
        });
    }
    for pipeline in PIPELINES {
        let policy = POLICIES[rng.below(POLICIES.len() as u64) as usize];
        s.push(Spec::Stream {
            pipeline,
            policy,
            seed: sim_seed,
        });
    }
    s
}

/// The certification corpus of the traced run: the Table-I kernels at ×1
/// plus the first [`CERTIFY_SMALL`] kernels `GenOptions::small()` accepts
/// from a fixed generator stream, in seeded order.
///
/// The corpus itself does not depend on the seed. One proof costs from
/// 0.05 ms to over a second depending on the kernel, so even dropping two
/// or three of sixty seeded kernels moved the pass time by 5 % or more
/// between seeds.
///
/// Each kernel comes with whether it is a Table-I kernel.
pub fn certify(seed: u64) -> Vec<(Dfg, bool)> {
    let mut corpus: Vec<(Dfg, bool)> = Kernel::ALL
        .into_iter()
        .map(|k| (k.dfg(UnrollFactor::X1), true))
        .collect();
    let small = fuzz_kernels(&mut Rng::new(0xCE27), CERTIFY_SMALL, &GenOptions::small());
    corpus.extend(small.into_iter().map(|d| (d, false)));
    shuffle(&mut Rng::new(seed ^ 0xCE27), &mut corpus);
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(s: &ServiceInputs) -> Vec<&str> {
        s.ops.iter().map(|o| o.line.as_str()).collect()
    }

    #[test]
    fn inputs_repeat_per_seed() {
        assert_eq!(lines(&cold(7)), lines(&cold(7)));
        assert_ne!(lines(&cold(7)), lines(&cold(8)));
        assert_ne!(lines(&warm(7)), lines(&warm(8)));
        assert_eq!(lines(&warm(7)), lines(&warm(7)));
        let names =
            |v: Vec<(Dfg, bool)>| v.iter().map(|d| d.0.name().to_string()).collect::<Vec<_>>();
        assert_eq!(names(certify(7)), names(certify(7)));
    }

    #[test]
    fn every_request_parses_and_keys_are_distinct() {
        let cfg = iced::arch::CgraConfig::iced_prototype().canonical_hash();
        for s in [cold(3), warm(3)] {
            let mut keys = std::collections::HashSet::new();
            for op in &s.ops {
                let req = iced_service::proto::parse_request(&op.line).expect("request parses");
                let key = iced_service::request_key(cfg, &req).expect("cacheable verb");
                assert!(keys.insert(key), "duplicate cache key for {}", op.line);
            }
        }
        let c = cold(3);
        assert_eq!(c.ops.len(), 21 * 2 * 5 + 12 + COLD_FUZZ);
    }
}
