//! Certified-minimum-II exact modulo mapping for the ICED CGRA.
//!
//! The heuristic mapper ([`iced_mapper::map_with`]) returns *a* mapping;
//! it cannot say whether its II is the best possible one. This crate adds
//! the second opinion: a deterministic branch-and-bound search
//! ([`certify`]) that either produces a mapping **proven minimal** within
//! its declared decision space, or a typed refutation
//! ([`MapError::Infeasible`]) for every II it exhausted. The certified II
//! per kernel turns the benchmark corpus into a *quality* regression
//! suite — a heuristic change that widens the optimality gap now fails a
//! bench assertion instead of silently shipping slower schedules.
//!
//! # What exactly is certified
//!
//! The search explores the same decision space the heuristic engine
//! commits into, exhaustively:
//!
//! * one `(tile, FU start slot)` decision per DFG node, taken in the
//!   heuristic's cycle-first topological order;
//! * start slots drawn from a `2·II`-cycle window above each node's
//!   dynamic lower bound (modulo-ASAP ∨ routed-arrival constraints);
//! * every edge routed by the *shared* Dijkstra router (earliest-arrival,
//!   fixed edge order, identical register/link accounting) the moment its
//!   second endpoint is placed;
//! * all islands at nominal V/F (the all-normal schedule space — DVFS
//!   relabeling never lowers II, so the minimum II over this space is the
//!   minimum II overall for the machine model).
//!
//! A `CertifiedII { proof: Optimal }` therefore reads: *no assignment in
//! this space maps the kernel at any smaller II*. The space is the
//! heuristic's own commit discipline, so the certificate is exactly the
//! right yardstick for the heuristic — and the certification loop is
//! constructed so `certified II ≤ heuristic II` holds unconditionally.
//!
//! # Pruning
//!
//! Three admissible lower bounds gate the loop before any search
//! (RecMII, resource MII over FU/memory/multiplier capacity, and a
//! per-II routing-capacity bound from node degree vs. link slots — see
//! [`lower_bound`]); during search, a capacity propagation cut refutes
//! subtrees whose remaining nodes outnumber remaining FU slots, and
//! failed subtrees backjump over decision levels that provably did not
//! contribute to the conflict.
//!
//! # Budgets
//!
//! The search honors a node budget ([`ExactOptions::node_budget`],
//! cumulative over all IIs of one certification) and a wall-clock
//! deadline. Exhausting either degrades the result, never corrupts it:
//! with a heuristic fallback mapping in hand the certificate becomes
//! `proof: BestUnderBudget` for the node budget or `proof: DeadlineCut`
//! for the deadline (the mapping is the heuristic's, minimality
//! unproven); without one, [`MapError::BudgetExhausted`] /
//! [`MapError::DeadlineExceeded`] is returned. Budgets only truncate the
//! search — they never change which mapping a completed search finds, so
//! certified results are thread-count-, seed-, and budget-invariant
//! whenever the proof says `Optimal`. A node-budget answer repeats
//! exactly; a deadline-cut one depends on the clock and does not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod search;

use iced_arch::CgraConfig;
use iced_dfg::Dfg;
use iced_fault::{FaultMask, FaultPlan};
use iced_mapper::{map_with, map_with_faults, MapError, MapperOptions, Mapping};
use iced_trace::Phase;

use crate::search::{Limits, Search, Verdict};

/// Options controlling the exact search.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Give up (typed [`MapError::Infeasible`]) once the II exceeds this
    /// bound without the heuristic providing a fallback mapping.
    pub max_ii: u32,
    /// Lower bound on the first II searched (the engine still starts no
    /// lower than the admissible bounds).
    pub min_ii: u32,
    /// Search-tree decision budget, cumulative across every II attempted
    /// by one certification run. Exhausting it yields
    /// `proof: BestUnderBudget` (with a heuristic fallback) or
    /// [`MapError::BudgetExhausted`] (without).
    pub node_budget: u64,
    /// Conflict-driven backjumping. Disabling falls back to chronological
    /// backtracking; certificates and mappings are unchanged, only
    /// `nodes_explored` grows. Participates in the canonical hash because
    /// `nodes_explored` is reported in cached service responses.
    pub backjump: bool,
    /// Abort the search once this instant passes (checked between
    /// decisions). Excluded from [`ExactOptions::canonical_hash`] — like
    /// the heuristic's deadline it is a serving knob that can only
    /// truncate, never redirect, the search.
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            max_ii: 96,
            min_ii: 1,
            node_budget: 200_000,
            backjump: true,
            deadline: None,
        }
    }
}

impl ExactOptions {
    /// A stable content digest of the semantic options, for cache keys.
    /// `deadline` is deliberately excluded (see its field docs); every
    /// other field can change the reported certificate and participates.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = iced_hash::StableHasher::new();
        h.write_str("exact-options");
        h.write_str("max_ii");
        h.write_u32(self.max_ii);
        h.write_str("min_ii");
        h.write_u32(self.min_ii);
        h.write_str("node_budget");
        h.write_u64(self.node_budget);
        h.write_str("backjump");
        h.write_bool(self.backjump);
        h.finish()
    }
}

/// How strong the certificate is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// Every II below the result was exhaustively refuted: the mapping's
    /// II is the minimum over the declared decision space.
    Optimal,
    /// The node budget ran out mid-refutation; the mapping is the best
    /// one known (the heuristic's), minimality unproven. Repeatable: the
    /// same inputs give the same answer.
    BestUnderBudget,
    /// The deadline cut the refutation or a heuristic arm short; the
    /// mapping is valid but may differ from what an uncut run returns, so
    /// it must not be cached or replicated as *the* answer.
    DeadlineCut,
}

impl Proof {
    /// Stable lower-case name (wire format and bench reports).
    pub fn name(self) -> &'static str {
        match self {
            Proof::Optimal => "optimal",
            Proof::BestUnderBudget => "best_under_budget",
            Proof::DeadlineCut => "deadline_cut",
        }
    }
}

/// The certificate attached to a certified mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifiedII {
    /// II of the accompanying mapping.
    pub ii: u32,
    /// The admissible lower bound the search started from (certified II
    /// equals it whenever no refutation search was needed at all).
    pub lower_bound: u32,
    /// Search-tree decisions committed across every II attempted.
    pub nodes_explored: u64,
    /// Whether minimality was proven or budget-truncated.
    pub proof: Proof,
}

/// A mapping together with its optimality certificate.
#[derive(Debug, Clone)]
pub struct Certified {
    /// The mapping (the exact search's own when it beat the heuristic or
    /// proved the first feasible II; the heuristic's otherwise).
    pub mapping: Mapping,
    /// The certificate.
    pub certificate: CertifiedII,
}

/// The admissible lower bound on II for `dfg` on `cfg`: the maximum of
/// RecMII, resource MII (all FUs, SPM-connected FUs, multiplier FUs), and
/// the routing-capacity bound (a node of degree `d` needs `d − (II−1)`
/// link slots at a tile offering at most `links·II` per period).
///
/// Every component is admissible — no mapping can exist below the
/// returned II — so `certify` never searches below it.
pub fn lower_bound(dfg: &Dfg, cfg: &CgraConfig) -> u32 {
    lower_bound_masked(dfg, cfg, None).unwrap_or(u32::MAX)
}

fn lower_bound_masked(
    dfg: &Dfg,
    cfg: &CgraConfig,
    mask: Option<&FaultMask>,
) -> Result<u32, MapError> {
    let usable: Vec<_> = cfg
        .tiles()
        .filter(|&t| mask.is_none_or(|m| m.fu_usable(t)))
        .collect();
    if usable.is_empty() {
        return Err(MapError::MemoryPressure);
    }
    let mem_nodes = dfg.count_ops(|op| op.is_memory());
    let mul_nodes = dfg.count_ops(|op| op.class() == iced_dfg::OpcodeClass::Mul);
    let mem_tiles = usable.iter().filter(|&&t| cfg.is_memory_tile(t)).count();
    let mul_tiles = usable
        .iter()
        .filter(|&&t| cfg.tile_has_multiplier(t))
        .count();
    if (mem_nodes > 0 && mem_tiles == 0) || (mul_nodes > 0 && mul_tiles == 0) {
        return Err(MapError::MemoryPressure);
    }
    let res_mii = (dfg.node_count() as u32).div_ceil(usable.len() as u32);
    let mem_mii = if mem_nodes > 0 {
        (mem_nodes as u32).div_ceil(mem_tiles as u32)
    } else {
        0
    };
    let mul_mii = if mul_nodes > 0 {
        (mul_nodes as u32).div_ceil(mul_tiles as u32)
    } else {
        0
    };
    // Routing capacity: all of a node's off-tile transfers enter or leave
    // its tile over at most `links` directed links carrying II transfers
    // per period each, while at most II−1 other FU slots on the tile can
    // host same-tile neighbors. So degree d needs d − (II−1) ≤ links·II,
    // i.e. II ≥ ceil((d + 1) / (links + 1)). Degree counts *distinct*
    // non-self neighbors, not edges: parallel edges between one node pair
    // (a data edge plus loop-carried edges at several distances) share one
    // physical transfer per iteration — carried copies are buffered at the
    // destination — and a self-edge never leaves the tile at all.
    let links = usable
        .iter()
        .map(|&t| cfg.neighbors(t).count() as u32)
        .max()
        .unwrap_or(0);
    let route_mii = dfg
        .node_ids()
        .map(|n| {
            let deg_in = {
                let mut srcs: Vec<_> = dfg
                    .in_edges(n)
                    .map(|e| e.src())
                    .filter(|&s| s != n)
                    .collect();
                srcs.sort_unstable();
                srcs.dedup();
                srcs.len() as u32
            };
            let deg_out = {
                let mut dsts: Vec<_> = dfg
                    .out_edges(n)
                    .map(|e| e.dst())
                    .filter(|&d| d != n)
                    .collect();
                dsts.sort_unstable();
                dsts.dedup();
                dsts.len() as u32
            };
            (deg_in.max(deg_out) + 1).div_ceil(links + 1)
        })
        .max()
        .unwrap_or(1);
    Ok(dfg
        .rec_mii()
        .max(res_mii)
        .max(mem_mii)
        .max(mul_mii)
        .max(route_mii)
        .max(1))
}

/// Certifies the minimum II for `dfg` on `cfg`.
///
/// The certification loop is a sequential portfolio: the heuristic arm
/// runs first — the caller's `heur` options plus the complementary
/// strategy family (baseline spread vs DVFS-aware clustered), lower II
/// winning — and supplies the upper bound `H`; the exact search then
/// walks II upward from the admissible lower bound, either finding a
/// mapping below `H` (returned, `proof: Optimal`) or refuting every II
/// in `[lb, H)` — which certifies the heuristic's own mapping as
/// optimal. When `H` already equals the lower bound no search runs at
/// all.
///
/// # Errors
///
/// * [`MapError::Infeasible`] — every II up to `opts.max_ii` was refuted
///   and the heuristic found nothing either.
/// * [`MapError::BudgetExhausted`] / [`MapError::DeadlineExceeded`] — the
///   budget ran out with no mapping in hand.
/// * [`MapError::MemoryPressure`], [`MapError::Arch`], [`MapError::Dfg`]
///   — propagated structural failures.
pub fn certify(
    dfg: &Dfg,
    cfg: &CgraConfig,
    heur: &MapperOptions,
    opts: &ExactOptions,
) -> Result<Certified, MapError> {
    certify_inner(dfg, cfg, heur, opts, None, None)
}

/// [`certify`] on a partially dead fabric: resources excluded by `plan`
/// are never placed on or routed through, by either arm of the
/// portfolio. An empty plan is bit-identical to [`certify`].
pub fn certify_with_plan(
    dfg: &Dfg,
    cfg: &CgraConfig,
    heur: &MapperOptions,
    opts: &ExactOptions,
    plan: &FaultPlan,
) -> Result<Certified, MapError> {
    if plan.is_empty() {
        return certify(dfg, cfg, heur, opts);
    }
    let mask = plan.mask(cfg);
    certify_inner(dfg, cfg, heur, opts, Some(&mask), Some(plan))
}

fn certify_inner(
    dfg: &Dfg,
    cfg: &CgraConfig,
    heur: &MapperOptions,
    opts: &ExactOptions,
    mask: Option<&FaultMask>,
    plan: Option<&FaultPlan>,
) -> Result<Certified, MapError> {
    dfg.validate()?;
    let lb = lower_bound_masked(dfg, cfg, mask)?.max(opts.min_ii);
    let _span = iced_trace::span(
        Phase::Mapper,
        "certify",
        &[
            ("kernel", dfg.name().into()),
            ("lower_bound", u64::from(lb).into()),
        ],
    );
    // Heuristic arm: upper bound + fallback mapping. Neither strategy
    // family dominates the other on II — clustering wins on
    // recurrence-heavy kernels, spreading on broadcast-heavy ones — so
    // the arm is itself a two-entry portfolio: the caller's options plus
    // the complementary family, lower II wins (ties keep the caller's).
    // That makes the certified II a bound on every shipped heuristic
    // strategy, not just the one the caller picked. An arm's failure is
    // not fatal — the exact search may still find a mapping both missed.
    let mut companion = if heur.dvfs_aware {
        MapperOptions::baseline()
    } else {
        MapperOptions::default()
    };
    companion.max_ii = heur.max_ii;
    companion.min_ii = heur.min_ii;
    companion.island_budget = heur.island_budget;
    companion.threads = heur.threads;
    companion.deadline = heur.deadline;
    let mut upper: Option<Mapping> = None;
    let mut arm_cut = false;
    for arm in [heur, &companion] {
        let res = match plan {
            Some(p) => map_with_faults(dfg, cfg, arm, p).map(|d| d.mapping),
            None => map_with(dfg, cfg, arm),
        };
        match res {
            Ok(m) => {
                if upper.as_ref().is_none_or(|u| m.ii() < u.ii()) {
                    upper = Some(m);
                }
            }
            Err(MapError::IiExceeded { .. }) => {}
            Err(MapError::DeadlineExceeded) => arm_cut = true,
            Err(e) => return Err(e),
        }
    }
    let search_max = match &upper {
        // The heuristic's II is feasible by construction; only smaller
        // IIs are in question.
        Some(m) => m.ii().saturating_sub(1).min(opts.max_ii),
        None => opts.max_ii,
    };
    let limits = Limits {
        node_budget: opts.node_budget,
        deadline: opts.deadline,
        backjump: opts.backjump,
    };
    // A cut arm may have withheld the upper bound (or the tie-winning
    // mapping) an uncut run would use, so any answer is clock-dependent.
    let unless_arm_cut = |proof: Proof| if arm_cut { Proof::DeadlineCut } else { proof };
    let mut explored = 0u64;
    for ii in lb..=search_max {
        let verdict = Search::new(dfg, cfg, ii, &limits, mask)?.run(&mut explored);
        match verdict {
            Verdict::Feasible(mapping) => {
                return Ok(Certified {
                    mapping: *mapping,
                    certificate: CertifiedII {
                        ii,
                        lower_bound: lb,
                        nodes_explored: explored,
                        proof: unless_arm_cut(Proof::Optimal),
                    },
                });
            }
            Verdict::Refuted => continue,
            Verdict::Budget | Verdict::Deadline => {
                return match upper {
                    Some(mapping) => {
                        let ii = mapping.ii();
                        Ok(Certified {
                            mapping,
                            certificate: CertifiedII {
                                ii,
                                lower_bound: lb,
                                nodes_explored: explored,
                                proof: match verdict {
                                    Verdict::Budget => unless_arm_cut(Proof::BestUnderBudget),
                                    _ => Proof::DeadlineCut,
                                },
                            },
                        })
                    }
                    None => Err(if matches!(verdict, Verdict::Budget) {
                        MapError::BudgetExhausted {
                            budget: opts.node_budget,
                        }
                    } else {
                        MapError::DeadlineExceeded
                    }),
                };
            }
        }
    }
    // Every II in [lb, search_max] refuted (or the range was empty).
    match upper {
        Some(mapping) => {
            let ii = mapping.ii();
            Ok(Certified {
                mapping,
                certificate: CertifiedII {
                    ii,
                    lower_bound: lb,
                    nodes_explored: explored,
                    proof: unless_arm_cut(Proof::Optimal),
                },
            })
        }
        None => Err(MapError::Infeasible { ii: opts.max_ii }),
    }
}

/// Default node-count threshold below which `auto` picks the exact
/// backend ("exact when small, heuristic when big").
pub const DEFAULT_AUTO_MAX_NODES: usize = 12;

/// The `auto` threshold: `ICED_EXACT_AUTO_MAX_NODES` when set and
/// parseable, [`DEFAULT_AUTO_MAX_NODES`] otherwise.
pub fn auto_max_nodes() -> usize {
    std::env::var("ICED_EXACT_AUTO_MAX_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_AUTO_MAX_NODES)
}

/// Whether the `auto` strategy resolves to the exact backend for a
/// kernel of `node_count` nodes.
pub fn auto_prefers_exact(node_count: usize) -> bool {
    node_count <= auto_max_nodes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_dfg::{DfgBuilder, Opcode};

    fn chain(n: usize) -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let ids: Vec<_> = (0..n)
            .map(|i| b.node(Opcode::Add, format!("a{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        b.finish().unwrap()
    }

    fn ring(n: usize) -> Dfg {
        let mut b = DfgBuilder::new("ring");
        let ids: Vec<_> = (0..n)
            .map(|i| b.node(Opcode::Add, format!("r{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        b.carry(ids[n - 1], ids[0]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn routing_bound_ignores_parallel_and_self_edges() {
        // Found by the differential fuzzer (seed 0x7a80): a node fed by a
        // data edge plus two carried edges from the same producer, and a
        // carried self-edge, maps at II 1 — one physical transfer per
        // source per iteration, carried copies buffered at the
        // destination, self-edges never leaving the tile. The bound used
        // to count raw edge multiplicity and claimed II ≥ 2, which is
        // inadmissible.
        let mut b = DfgBuilder::new("parallel_edges");
        let phi = b.node(Opcode::Phi, "r0");
        let m1 = b.node(Opcode::Mul, "r1");
        let m2 = b.node(Opcode::Mul, "f2");
        b.data(phi, m1).unwrap();
        b.edge(m1, phi, iced_dfg::EdgeKind::loop_carried(4))
            .unwrap();
        b.data(m2, m1).unwrap();
        b.edge(phi, m1, iced_dfg::EdgeKind::loop_carried(2))
            .unwrap();
        b.edge(phi, m1, iced_dfg::EdgeKind::loop_carried(3))
            .unwrap();
        b.edge(m1, m1, iced_dfg::EdgeKind::loop_carried(4)).unwrap();
        let dfg = b.finish().unwrap();
        let cfg = CgraConfig::iced_prototype();
        let lb = lower_bound(&dfg, &cfg);
        let m = map_with(&dfg, &cfg, &MapperOptions::default()).unwrap();
        assert!(
            lb <= m.ii(),
            "bound {lb} exceeds achieved ii {} — inadmissible",
            m.ii()
        );
    }

    #[test]
    fn exact_options_hash_is_pinned() {
        // The cache contract: exact-strategy cache keys embed this digest,
        // so it must not drift silently. Bump deliberately with a schema
        // change, never accidentally.
        assert_eq!(
            ExactOptions::default().canonical_hash(),
            0xf6ee_32cc_9a31_2a11,
        );
    }

    #[test]
    fn deadline_does_not_change_the_hash() {
        let o = ExactOptions {
            deadline: Some(std::time::Instant::now()),
            ..ExactOptions::default()
        };
        assert_eq!(o.canonical_hash(), ExactOptions::default().canonical_hash());
    }

    #[test]
    fn every_semantic_field_changes_the_hash() {
        let base = ExactOptions::default().canonical_hash();
        for o in [
            ExactOptions {
                max_ii: 7,
                ..ExactOptions::default()
            },
            ExactOptions {
                min_ii: 3,
                ..ExactOptions::default()
            },
            ExactOptions {
                node_budget: 1,
                ..ExactOptions::default()
            },
            ExactOptions {
                backjump: false,
                ..ExactOptions::default()
            },
        ] {
            assert_ne!(o.canonical_hash(), base, "{o:?}");
        }
    }

    #[test]
    fn chain_certifies_at_ii_1() {
        let cfg = CgraConfig::iced_prototype();
        let c = certify(
            &chain(5),
            &cfg,
            &MapperOptions::baseline(),
            &ExactOptions::default(),
        )
        .unwrap();
        assert_eq!(c.certificate.ii, 1);
        assert_eq!(c.certificate.proof, Proof::Optimal);
        assert!(iced_mapper::check_dependencies(&chain(5), &c.mapping));
    }

    #[test]
    fn ring_certifies_at_rec_mii() {
        let cfg = CgraConfig::iced_prototype();
        let dfg = ring(4);
        let c = certify(
            &dfg,
            &cfg,
            &MapperOptions::baseline(),
            &ExactOptions::default(),
        )
        .unwrap();
        assert_eq!(c.certificate.ii, 4);
        assert_eq!(c.certificate.lower_bound, 4);
        assert_eq!(c.certificate.proof, Proof::Optimal);
    }

    #[test]
    fn zero_budget_with_heuristic_fallback_is_best_under_budget() {
        let cfg = CgraConfig::iced_prototype();
        // fft's heuristic II sits above its lower bound, so a refutation
        // search is needed — which the zero budget immediately truncates.
        let dfg = iced_kernels::Kernel::Fft.dfg(iced_kernels::UnrollFactor::X1);
        let opts = ExactOptions {
            node_budget: 0,
            ..ExactOptions::default()
        };
        let c = certify(&dfg, &cfg, &MapperOptions::baseline(), &opts).unwrap();
        assert!(c.certificate.lower_bound < c.certificate.ii);
        assert_eq!(c.certificate.proof, Proof::BestUnderBudget);
        assert_eq!(c.certificate.nodes_explored, 0);
    }

    #[test]
    fn deadline_truncation_reads_deadline_cut() {
        let cfg = CgraConfig::iced_prototype();
        // fft needs a refutation search (see the zero-budget test).
        let dfg = iced_kernels::Kernel::Fft.dfg(iced_kernels::UnrollFactor::X1);
        let expired = Some(std::time::Instant::now());
        // The search's deadline cuts the refutation; the heuristic arms,
        // with no deadline, supply the fallback.
        let search_cut = ExactOptions {
            deadline: expired,
            ..ExactOptions::default()
        };
        let c = certify(&dfg, &cfg, &MapperOptions::baseline(), &search_cut).unwrap();
        assert!(c.certificate.lower_bound < c.certificate.ii);
        assert_eq!(c.certificate.proof, Proof::DeadlineCut);
        assert_eq!(c.certificate.proof.name(), "deadline_cut");
        // The arms' deadline cuts them; the uncut search still answers
        // (on a kernel small enough to search from scratch), but not
        // necessarily as an uncut run would.
        let arms_cut = MapperOptions {
            deadline: expired,
            ..MapperOptions::baseline()
        };
        let c = certify(&chain(5), &cfg, &arms_cut, &ExactOptions::default()).unwrap();
        assert_eq!(c.certificate.proof, Proof::DeadlineCut);
        assert!(iced_mapper::check_dependencies(&chain(5), &c.mapping));
    }

    #[test]
    fn auto_threshold_dispatches_by_size() {
        assert!(auto_prefers_exact(1));
        assert!(auto_prefers_exact(DEFAULT_AUTO_MAX_NODES));
        assert!(!auto_prefers_exact(DEFAULT_AUTO_MAX_NODES + 1));
    }
}
