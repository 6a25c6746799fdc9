//! Serial in-process certification, as a verifier user runs it: the
//! options and checks of the traced run's exact-layer replay.

use iced::arch::CgraConfig;
use iced::dfg::Dfg;
use iced::exact::{lower_bound, Certified, ExactOptions, Proof};
use iced::mapper::{check_dependencies, map_with, MapperOptions};

use crate::inputs::CERTIFY_NODE_BUDGET;

/// The options every `certify` call runs with: library defaults and the
/// benchmark's fixed node budget, no deadline.
pub fn exact_options() -> ExactOptions {
    ExactOptions {
        node_budget: CERTIFY_NODE_BUDGET,
        ..ExactOptions::default()
    }
}

/// The heuristic options every `certify` call races, serial: the
/// mapper's counters repeat exactly only then, and every thread count
/// gives the same mapping.
pub fn heuristic_options() -> MapperOptions {
    MapperOptions {
        threads: 1,
        ..MapperOptions::default()
    }
}

/// The complementary family `certify` races beside
/// [`heuristic_options`], serial.
pub fn companion_options() -> MapperOptions {
    MapperOptions {
        threads: 1,
        ..MapperOptions::baseline()
    }
}

/// What a verdict asserts; it must repeat exactly at one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub ii: u32,
    pub lower_bound: u32,
    pub nodes: u64,
    pub optimal: bool,
}

impl Verdict {
    pub fn of(c: &Certified) -> Verdict {
        Verdict {
            ii: c.certificate.ii,
            lower_bound: c.certificate.lower_bound,
            nodes: c.certificate.nodes_explored,
            optimal: c.certificate.proof == Proof::Optimal,
        }
    }
}

/// Checks a certified mapping: lower bound ≤ II ≤ the II of both
/// heuristic families, and every dependence is honoured.
pub fn check(dfg: &Dfg, cfg: &CgraConfig, c: &Certified) -> Result<(), String> {
    let ii = c.certificate.ii;
    let lb = lower_bound(dfg, cfg);
    if ii < lb || c.mapping.ii() != ii {
        return Err(format!(
            "{}: certified II {ii} against lower bound {lb}",
            dfg.name()
        ));
    }
    for (family, opts) in [
        ("dvfs-aware", heuristic_options()),
        ("baseline", companion_options()),
    ] {
        if let Ok(m) = map_with(dfg, cfg, &opts) {
            if m.ii() < ii {
                return Err(format!(
                    "{}: certified II {ii} above the {family} heuristic's {}",
                    dfg.name(),
                    m.ii()
                ));
            }
        }
    }
    if !check_dependencies(dfg, &c.mapping) {
        return Err(format!(
            "{}: certified mapping breaks a dependence",
            dfg.name()
        ));
    }
    Ok(())
}
