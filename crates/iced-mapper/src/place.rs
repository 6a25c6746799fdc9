//! Algorithm 2 — DVFS-aware modulo mapping.
//!
//! Nodes are placed in topological order onto the MRRG. For every node the
//! engine ranks candidate tiles by a cost estimate (routing distance, DVFS
//! mismatch against the node's Algorithm-1 label, island-opening and
//! congestion penalties), then attempts to *commit* candidates in cost
//! order: route all dependencies with the Dijkstra router, pick the
//! earliest phase-aligned FU slot, and reserve every resource. The first
//! candidate that commits wins; if none does, the II is incremented and the
//! whole mapping restarts (Algorithm 2's `II = II + 1` loop).
//!
//! Island DVFS levels are assigned on first use (Algorithm 2 lines 14–16):
//! the first node placed in an island fixes the island's level to the
//! node's label; later nodes may only join islands at least as fast as
//! their label (line 17). Routing through a not-yet-assigned island pins it
//! to `normal` — its crossbar was reserved at base-clock granularity, so a
//! slower clock could no longer honour the reservation. Unused islands are
//! power-gated in the final mapping.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use iced_arch::{CgraConfig, Dir, DvfsLevel, IslandId, Mrrg, TileId};
use iced_dfg::{Dfg, NodeId};
use iced_fault::FaultMask;
use iced_trace::Phase;

use crate::error::MapError;
use crate::labeling::label_dvfs_levels;
use crate::mapping::{Mapping, Placement, Route};
use crate::router::{arrival_lb, route, RouterScratch, Txn};

/// Options controlling the mapping engine.
#[derive(Debug, Clone)]
pub struct MapperOptions {
    /// Use Algorithm 1 labels and per-island DVFS assignment (ICED mode).
    /// When `false`, every label and island is pinned to `normal` — the
    /// paper's conventional *Baseline* mapper.
    pub dvfs_aware: bool,
    /// DVFS levels the mapper may assign to islands. Streaming-application
    /// kernel mapping restricts this to `{normal, relax}` (paper §IV-B).
    pub allowed_levels: Vec<DvfsLevel>,
    /// Give up once the II exceeds this bound.
    pub max_ii: u32,
    /// Lower bound on the starting II (e.g. to reproduce a sweep); the
    /// engine still starts no lower than `max(RecMII, ResMII)`.
    pub min_ii: u32,
    /// Restrict the mapper to the first `n` islands (row-major). Used by the
    /// streaming partitioner to map one kernel per island group; `None`
    /// means the whole fabric.
    pub island_budget: Option<usize>,
    /// Load-balance placements across tiles (conventional II-minimising
    /// mappers spread work to keep routing easy — the paper's Figure 1
    /// mapping uses a fresh tile per op). The DVFS-aware flow instead
    /// clusters, so whole islands can power-gate.
    pub spread: bool,
    /// Place recurrence-cycle nodes before their feeders (ablation knob;
    /// disabling reverts to plain topological order and typically costs
    /// II on recurrence-heavy kernels).
    pub cycle_first: bool,
    /// Retry each II with progressively conservative labels before
    /// escalating the II (ablation knob; disabling gives up DVFS quality
    /// whenever the most aggressive labeling fails).
    pub label_ladder: bool,
    /// Worker threads for the speculative portfolio search over
    /// `(II, label-rung)` attempts. `0` (the default) resolves the
    /// `ICED_MAP_THREADS` environment variable and falls back to the
    /// machine's available parallelism; `1` runs the exact serial
    /// escalation loop. Every thread count returns a bit-identical
    /// `Mapping`: a speculative success is only accepted once each attempt
    /// the serial loop would have tried first has failed.
    pub threads: usize,
    /// Abort the search once this instant passes. The deadline is checked
    /// *between* attempts — a running placement/routing attempt always
    /// finishes — so the II-escalation loop can no longer run unbounded
    /// under a serving deadline. `None` (the default) never aborts; an
    /// expired deadline surfaces as [`MapError::DeadlineExceeded`].
    /// Like `threads`, this knob never changes *which* mapping is
    /// produced when a mapping is produced at all, and is excluded from
    /// [`MapperOptions::canonical_hash`].
    pub deadline: Option<std::time::Instant>,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            dvfs_aware: true,
            allowed_levels: vec![DvfsLevel::Normal, DvfsLevel::Relax, DvfsLevel::Rest],
            max_ii: 96,
            min_ii: 1,
            island_budget: None,
            spread: false,
            cycle_first: true,
            label_ladder: true,
            threads: 0,
            deadline: None,
        }
    }
}

impl MapperOptions {
    /// Options for the conventional no-DVFS baseline mapper.
    pub fn baseline() -> Self {
        MapperOptions {
            dvfs_aware: false,
            allowed_levels: vec![DvfsLevel::Normal],
            spread: true,
            ..MapperOptions::default()
        }
    }

    /// A stable content digest of the *semantic* options, for cache keys.
    ///
    /// Only fields that can change the produced mapping participate:
    /// `threads` (bit-identical by the portfolio's determinism rule) and
    /// `deadline` (a per-request serving knob) are deliberately excluded,
    /// so a warm cache entry is valid for any thread count or deadline.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = iced_hash::StableHasher::new();
        h.write_str("mapper-options");
        h.write_str("dvfs_aware");
        h.write_bool(self.dvfs_aware);
        h.write_str("allowed_levels");
        h.write_usize(self.allowed_levels.len());
        for &l in &self.allowed_levels {
            h.write_u8(match l {
                DvfsLevel::PowerGated => 0,
                DvfsLevel::Rest => 1,
                DvfsLevel::Relax => 2,
                DvfsLevel::Normal => 3,
            });
        }
        h.write_str("max_ii");
        h.write_u32(self.max_ii);
        h.write_str("min_ii");
        h.write_u32(self.min_ii);
        h.write_str("island_budget");
        match self.island_budget {
            Some(n) => {
                h.write_bool(true);
                h.write_usize(n);
            }
            None => h.write_bool(false),
        }
        h.write_str("spread");
        h.write_bool(self.spread);
        h.write_str("cycle_first");
        h.write_bool(self.cycle_first);
        h.write_str("label_ladder");
        h.write_bool(self.label_ladder);
        h.finish()
    }

    /// Whether the configured deadline (if any) has passed.
    fn deadline_hit(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }
}

/// Maps `dfg` with the conventional (no-DVFS) strategy: minimise II, all
/// tiles at nominal V/F.
///
/// # Errors
///
/// See [`map_with`].
pub fn map_baseline(dfg: &Dfg, config: &CgraConfig) -> Result<Mapping, MapError> {
    map_with(dfg, config, &MapperOptions::baseline())
}

/// Maps `dfg` with the full ICED flow: Algorithm 1 labeling followed by
/// Algorithm 2 island-aware placement and routing.
///
/// # Errors
///
/// See [`map_with`].
pub fn map_dvfs_aware(dfg: &Dfg, config: &CgraConfig) -> Result<Mapping, MapError> {
    map_with(dfg, config, &MapperOptions::default())
}

/// Maps `dfg` onto `config` with explicit options.
///
/// # Errors
///
/// Returns [`MapError::IiExceeded`] when no mapping exists up to
/// `opts.max_ii`, or [`MapError::MemoryPressure`] when the kernel's
/// load/store count can never fit the SPM-connected column.
pub fn map_with(dfg: &Dfg, config: &CgraConfig, opts: &MapperOptions) -> Result<Mapping, MapError> {
    map_with_mask(dfg, config, opts, None)
}

/// [`map_with`] against a partially dead fabric: tiles/FUs/links excluded
/// by `mask` are never placed on or routed through. `None` (and the empty
/// mask) is bit-identical to the fault-free path — the mask only removes
/// candidates, it never reorders the surviving ones.
pub(crate) fn map_with_mask(
    dfg: &Dfg,
    config: &CgraConfig,
    opts: &MapperOptions,
    mask: Option<&FaultMask>,
) -> Result<Mapping, MapError> {
    let tiles_avail = usable_tiles(config, opts, mask).len();
    if tiles_avail == 0 {
        return Err(MapError::MemoryPressure);
    }
    let mem_nodes = dfg.count_ops(|op| op.is_memory());
    let mem_tiles = usable_tiles(config, opts, mask)
        .iter()
        .filter(|&&t| config.is_memory_tile(t))
        .count();
    if mem_nodes > 0 && mem_tiles == 0 {
        return Err(MapError::MemoryPressure);
    }
    let res_mii = (dfg.node_count() as u32).div_ceil(tiles_avail as u32);
    let mem_mii = if mem_nodes > 0 {
        (mem_nodes as u32).div_ceil(mem_tiles as u32)
    } else {
        0
    };
    let start_ii = dfg
        .rec_mii()
        .max(res_mii)
        .max(mem_mii)
        .max(opts.min_ii)
        .max(1);
    let threads = resolve_threads(opts);
    let _map_span = iced_trace::span(
        Phase::Mapper,
        "map",
        &[
            ("kernel", dfg.name().into()),
            ("start_ii", u64::from(start_ii).into()),
            ("max_ii", u64::from(opts.max_ii).into()),
            ("dvfs_aware", opts.dvfs_aware.into()),
            ("threads", (threads as u64).into()),
        ],
    );
    let outcome = if threads <= 1 || start_ii > opts.max_ii {
        map_serial(dfg, config, opts, start_ii, mask)
    } else {
        map_portfolio(dfg, config, opts, start_ii, threads, mask)
    };
    match outcome {
        SearchOutcome::Found(mapping) => {
            trace_mapped(&mapping, start_ii);
            Ok(mapping)
        }
        SearchOutcome::Deadline => {
            iced_trace::counter(Phase::Mapper, "map_deadline_aborts", 1);
            Err(MapError::DeadlineExceeded)
        }
        SearchOutcome::Exhausted => {
            iced_trace::counter(Phase::Mapper, "map_failures", 1);
            Err(MapError::IiExceeded {
                max_ii: opts.max_ii,
            })
        }
    }
}

/// How an attempt search ended: with a mapping, with the attempt space
/// exhausted up to `max_ii`, or aborted between attempts by the deadline.
enum SearchOutcome {
    Found(Mapping),
    Exhausted,
    Deadline,
}

/// Worker-thread count: an explicit `opts.threads` wins, then the
/// `ICED_MAP_THREADS` environment variable, then available parallelism.
fn resolve_threads(opts: &MapperOptions) -> usize {
    if opts.threads != 0 {
        return opts.threads;
    }
    if let Some(v) = std::env::var_os("ICED_MAP_THREADS") {
        if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The serial II-escalation loop (Algorithm 2's `II = II + 1`), also the
/// reference semantics the portfolio must reproduce.
fn map_serial(
    dfg: &Dfg,
    config: &CgraConfig,
    opts: &MapperOptions,
    start_ii: u32,
    mask: Option<&FaultMask>,
) -> SearchOutcome {
    let mut runner = AttemptRunner::default();
    for ii in start_ii..=opts.max_ii {
        let _ii_span =
            iced_trace::span(Phase::Mapper, "ii_attempt", &[("ii", u64::from(ii).into())]);
        iced_trace::counter(Phase::Mapper, "ii_attempts", 1);
        // Retry ladder: the greedy engine cannot backtrack across nodes, so
        // before paying an II increase it retries the same II with
        // progressively conservative labels (rest → relax, then all-normal).
        // The all-normal attempt makes the DVFS-aware mapper never slower
        // than the baseline at the same II — the paper's Fig. 4 property.
        let mut ladder = LabelLadder::new(dfg, config, opts, ii);
        for rung in 0..ladder.rungs() {
            if !ladder.active(rung) {
                continue;
            }
            // Abort between attempts, never inside one (so results stay
            // complete-or-absent, and a generous deadline cannot change
            // which mapping is found).
            if opts.deadline_hit() {
                return SearchOutcome::Deadline;
            }
            iced_trace::counter(Phase::Mapper, "label_attempts", 1);
            let (labels, spread) = ladder.rung(rung);
            if let Some(mapping) = runner.run(
                dfg,
                config,
                opts,
                ii,
                labels,
                spread,
                mask,
                CancelToken::none(),
            ) {
                return SearchOutcome::Found(mapping);
            }
        }
    }
    SearchOutcome::Exhausted
}

/// Speculative parallel search over the same attempt sequence. Attempts are
/// numbered globally — attempt `g` is `(II = start_ii + g / grid, rung =
/// g % grid)`, exactly the serial order — and claimed from a shared counter
/// by scoped worker threads.
fn map_portfolio(
    dfg: &Dfg,
    config: &CgraConfig,
    opts: &MapperOptions,
    start_ii: u32,
    threads: usize,
    mask: Option<&FaultMask>,
) -> SearchOutcome {
    let grid = LabelLadder::grid(opts);
    let total = (opts.max_ii - start_ii + 1) as usize * grid;
    let portfolio = Portfolio {
        dfg,
        cfg: config,
        opts,
        mask,
        start_ii,
        grid,
        total,
        next: AtomicUsize::new(0),
        best: AtomicUsize::new(usize::MAX),
        deadline_hit: AtomicBool::new(false),
        winner: Mutex::new(None),
    };
    let workers = threads.min(total).max(1);
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| portfolio.worker());
        }
        portfolio.worker();
    });
    let deadline = portfolio.deadline_hit.load(Ordering::Acquire);
    let winner = portfolio
        .winner
        .into_inner()
        .expect("portfolio winner lock");
    match winner {
        Some((_, mapping)) => SearchOutcome::Found(mapping),
        None if deadline => SearchOutcome::Deadline,
        None => SearchOutcome::Exhausted,
    }
}

/// Shared state of one portfolio search.
///
/// Determinism rule: a success at global index `s` may only be returned
/// once every attempt with index `< s` has *failed*. Workers enforce this
/// by never cancelling an attempt unless a strictly earlier one succeeded
/// (`best < idx`), so everything the serial loop would have executed before
/// the winner runs to completion here too; the final winner — the minimum
/// successful index — is then exactly the serial result. `best` doubles as
/// the cancellation signal for later speculative attempts and the claim
/// cutoff (no new attempt past a known success is started).
struct Portfolio<'a> {
    dfg: &'a Dfg,
    cfg: &'a CgraConfig,
    opts: &'a MapperOptions,
    mask: Option<&'a FaultMask>,
    start_ii: u32,
    grid: usize,
    total: usize,
    next: AtomicUsize,
    best: AtomicUsize,
    deadline_hit: AtomicBool,
    winner: Mutex<Option<(usize, Mapping)>>,
}

impl Portfolio<'_> {
    fn worker(&self) {
        let mut runner = AttemptRunner::default();
        let mut ladder: Option<(u32, LabelLadder)> = None;
        loop {
            // Same between-attempts deadline as the serial loop: a worker
            // mid-attempt always finishes (a strictly earlier success may
            // still cancel it), but no new attempt starts past the
            // deadline.
            if self.opts.deadline_hit() {
                self.deadline_hit.store(true, Ordering::Release);
                return;
            }
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.total || idx > self.best.load(Ordering::Acquire) {
                return;
            }
            let ii = self.start_ii + (idx / self.grid) as u32;
            let rung = idx % self.grid;
            if !matches!(&ladder, Some((lii, _)) if *lii == ii) {
                ladder = Some((ii, LabelLadder::new(self.dfg, self.cfg, self.opts, ii)));
            }
            let lad = &mut ladder.as_mut().expect("ladder just set").1;
            if !lad.active(rung) {
                continue;
            }
            if rung == 0 {
                iced_trace::counter(Phase::Mapper, "ii_attempts", 1);
            }
            iced_trace::counter(Phase::Mapper, "label_attempts", 1);
            let _attempt_span = iced_trace::span(
                Phase::Mapper,
                "ii_attempt",
                &[("ii", u64::from(ii).into()), ("rung", (rung as u64).into())],
            );
            let (labels, spread) = lad.rung(rung);
            let cancel = CancelToken {
                best: &self.best,
                idx,
            };
            if let Some(mapping) = runner.run(
                self.dfg, self.cfg, self.opts, ii, labels, spread, self.mask, cancel,
            ) {
                self.record(idx, mapping);
            }
        }
    }

    fn record(&self, idx: usize, mapping: Mapping) {
        let mut winner = self.winner.lock().expect("portfolio winner lock");
        if winner.as_ref().is_none_or(|&(best_idx, _)| idx < best_idx) {
            *winner = Some((idx, mapping));
            self.best.fetch_min(idx, Ordering::AcqRel);
        }
    }
}

/// Cooperative cancellation for speculative attempts: attempt `idx` stops
/// early once some strictly earlier attempt has succeeded. The winner
/// itself (`best == idx`) and every attempt before it are never cancelled
/// — required for the portfolio's determinism rule.
#[derive(Clone, Copy)]
struct CancelToken<'a> {
    best: &'a AtomicUsize,
    idx: usize,
}

impl CancelToken<'_> {
    fn none() -> CancelToken<'static> {
        static NEVER: AtomicUsize = AtomicUsize::new(usize::MAX);
        CancelToken {
            best: &NEVER,
            idx: 0,
        }
    }

    #[inline]
    fn cancelled(&self) -> bool {
        self.best.load(Ordering::Relaxed) < self.idx
    }
}

/// Per-worker attempt driver owning the reusable allocations: one `Mrrg`
/// (reset in place between rungs at the same II instead of reallocated)
/// and the router's scratch buffers (arena, visited bitvec, bucket spine).
#[derive(Default)]
struct AttemptRunner {
    mrrg: Option<Mrrg>,
    scratch: RouterScratch,
}

impl AttemptRunner {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        dfg: &Dfg,
        cfg: &CgraConfig,
        opts: &MapperOptions,
        ii: u32,
        labels: &[DvfsLevel],
        spread: bool,
        mask: Option<&FaultMask>,
        cancel: CancelToken<'_>,
    ) -> Option<Mapping> {
        let mut mrrg = match self.mrrg.take() {
            Some(mut m) if m.ii() == ii => {
                m.reset();
                m
            }
            _ => Mrrg::new(cfg, ii).expect("mapper II is always nonzero"),
        };
        if let Some(mask) = mask {
            apply_fault_mask(&mut mrrg, cfg, mask);
        }
        let mrrg = self.mrrg.insert(mrrg);
        let mut engine = Engine::new(
            dfg,
            cfg,
            opts,
            ii,
            labels,
            spread,
            mask,
            mrrg,
            &mut self.scratch,
            cancel,
        );
        engine.run()
    }
}

/// Pre-occupies every faulted resource for the whole II window so neither
/// placement nor routing can touch it: a dead FU can never fire, and a dead
/// or stuck link can never carry a value. Done once per attempt, right
/// after the MRRG is reset, so the search itself stays fault-oblivious.
fn apply_fault_mask(mrrg: &mut Mrrg, cfg: &CgraConfig, mask: &FaultMask) {
    let ii = mrrg.ii();
    for t in cfg.tiles() {
        if !mask.fu_usable(t) {
            mrrg.occupy_fu(t, 0, ii);
        }
        for d in Dir::ALL {
            if cfg.neighbor(t, d).is_some() && !mask.link_usable(t, d) {
                mrrg.occupy_link(t, d, 0, ii);
            }
        }
    }
}

/// Emits the final-mapping instant event: achieved II, how far the II
/// escalated, and the island DVFS-level histogram (the "level histogram"
/// part of the tentpole trace).
fn trace_mapped(mapping: &Mapping, start_ii: u32) {
    if !iced_trace::enabled() {
        return;
    }
    let mut hist = [0u64; 4];
    for &level in &mapping.island_levels {
        let slot = match level {
            DvfsLevel::Normal => 0,
            DvfsLevel::Relax => 1,
            DvfsLevel::Rest => 2,
            DvfsLevel::PowerGated => 3,
        };
        hist[slot] += 1;
    }
    iced_trace::counter(Phase::Mapper, "maps_succeeded", 1);
    iced_trace::instant(
        Phase::Mapper,
        "mapped",
        &[
            ("kernel", mapping.kernel().into()),
            ("ii", u64::from(mapping.ii()).into()),
            ("ii_escalations", u64::from(mapping.ii() - start_ii).into()),
            ("islands_normal", hist[0].into()),
            ("islands_relax", hist[1].into()),
            ("islands_rest", hist[2].into()),
            ("islands_gated", hist[3].into()),
        ],
    );
}

/// Tiles the mapper may place on: under the island budget, and — when a
/// fault mask is present — with a live FU (a tile with a dead FU may still
/// be routed *through*; the MRRG pre-occupation handles dead links).
fn usable_tiles(
    config: &CgraConfig,
    opts: &MapperOptions,
    mask: Option<&FaultMask>,
) -> Vec<TileId> {
    let live = |t: &TileId| mask.is_none_or(|m| m.fu_usable(*t));
    match opts.island_budget {
        None => config.tiles().filter(live).collect(),
        Some(n) => {
            let mut tiles = Vec::new();
            for island in config.islands().take(n) {
                tiles.extend(config.island_tiles(island).into_iter().filter(|t| live(t)));
            }
            tiles.sort_unstable();
            tiles
        }
    }
}

struct Engine<'a> {
    dfg: &'a Dfg,
    cfg: &'a CgraConfig,
    opts: &'a MapperOptions,
    ii: u32,
    labels: &'a [DvfsLevel],
    mrrg: &'a mut Mrrg,
    scratch: &'a mut RouterScratch,
    cancel: CancelToken<'a>,
    rates: Vec<u32>,
    island_assigned: Vec<Option<DvfsLevel>>,
    placements: Vec<Option<Placement>>,
    routes: Vec<Option<Route>>,
    tiles: Vec<TileId>,
    asap: Vec<u64>,
    on_cycle: Vec<bool>,
    virgin: Vec<bool>,
    spread: bool,
}

/// Cost-function weights. One mesh hop of input transport costs [`W_HOP`];
/// everything else is scaled relative to it. Transport dominates congestion
/// so recurrence chains stay tight (a scattered critical cycle cannot close
/// within the II); DVFS mismatch dominates transport so labeled nodes seek
/// matching islands before seeking proximity.
const W_HOP: u64 = 8;
const W_CARRY: u64 = 16;
const W_LEVEL: u64 = 48;
const W_OPEN: u64 = 6;
const W_MEM: u64 = 20;

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        dfg: &'a Dfg,
        cfg: &'a CgraConfig,
        opts: &'a MapperOptions,
        ii: u32,
        labels: &'a [DvfsLevel],
        spread: bool,
        mask: Option<&FaultMask>,
        mrrg: &'a mut Mrrg,
        scratch: &'a mut RouterScratch,
        cancel: CancelToken<'a>,
    ) -> Self {
        debug_assert_eq!(mrrg.ii(), ii);
        let mut engine = Engine {
            dfg,
            cfg,
            opts,
            ii,
            labels,
            mrrg,
            scratch,
            cancel,
            rates: vec![1; cfg.tile_count()],
            island_assigned: vec![None; cfg.island_count()],
            placements: vec![None; dfg.node_count()],
            routes: vec![None; dfg.edge_count()],
            tiles: usable_tiles(cfg, opts, mask),
            asap: Vec::new(),
            on_cycle: Vec::new(),
            virgin: vec![true; cfg.tile_count()],
            spread,
        };
        let mut on_cycle = vec![false; dfg.node_count()];
        for cycle in iced_dfg::recurrence::enumerate_cycles(dfg) {
            for n in cycle.nodes() {
                on_cycle[n.index()] = true;
            }
        }
        engine.on_cycle = on_cycle;
        engine.asap = engine.asap_times();
        engine
    }

    fn run(&mut self) -> Option<Mapping> {
        for node in self.placement_order() {
            if self.cancel.cancelled() {
                iced_trace::counter(Phase::Mapper, "attempts_cancelled", 1);
                return None;
            }
            if !self.place_node(node) {
                return None;
            }
        }
        Some(self.finish())
    }

    /// Placement order: recurrence-cycle nodes first (in topological order),
    /// then the remaining nodes topologically. Placing the II-critical
    /// cycles before their feeders lets the engine keep each cycle tight;
    /// feeders then route *towards* fixed consumers under a deadline instead
    /// of painting the cycle into a corner.
    fn placement_order(&self) -> Vec<NodeId> {
        let topo = self.dfg.topological_order();
        if !self.opts.cycle_first {
            return topo;
        }
        let mut order: Vec<NodeId> = topo
            .iter()
            .copied()
            .filter(|n| self.on_cycle[n.index()])
            .collect();
        order.extend(topo.iter().copied().filter(|n| !self.on_cycle[n.index()]));
        order
    }

    /// Modulo-scheduling ASAP times: the longest-path fixpoint of
    /// `σ(v) ≥ σ(u) + lat(u) − d·II` over all edges. For `II ≥ RecMII`
    /// there is no positive cycle, so Bellman–Ford converges.
    ///
    /// Latencies are *label-aware*: a node labeled `rest` occupies its tile
    /// for 4 base cycles, so its consumers — including II-critical cycles it
    /// feeds — must be scheduled late enough to absorb that. This is what
    /// lets slow feeders coexist with a tight recurrence cycle at the same
    /// II (the paper's Fig. 3(e)): the cycle simply starts a few cycles
    /// later and the prologue deepens, while the steady-state period is
    /// unchanged. Critical-cycle nodes are labeled `normal` (divisor 1), so
    /// the label-aware weights cannot create a positive cycle either.
    fn asap_times(&self) -> Vec<u64> {
        let n = self.dfg.node_count();
        let ii = self.ii as i64;
        let mut t = vec![0i64; n];
        for _ in 0..=n {
            let mut changed = false;
            for e in self.dfg.edges() {
                let lat = self.labels[e.src().index()]
                    .rate_divisor()
                    .expect("labels are active levels") as i64
                    * self.dfg.node(e.src()).op().latency() as i64;
                // One-cycle transport pad on edges leaving off-cycle nodes:
                // feeders rarely share a tile with their consumers, so the
                // schedule budgets one store-and-forward hop per feeder
                // level. Intra-cycle edges stay unpadded (they must chain
                // with overlapped hops anyway, and padding them would create
                // a positive cycle at II = RecMII).
                let pad = i64::from(!self.on_cycle[e.src().index()]);
                let w = lat + pad - e.kind().distance() as i64 * ii;
                let cand = t[e.src().index()] + w;
                if cand > t[e.dst().index()] {
                    t[e.dst().index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        t.into_iter().map(|x| x.max(0) as u64).collect()
    }

    /// The level an unassigned island would get for a node labeled `label`:
    /// the slowest allowed level that is at least as fast as the label and
    /// whose clock tessellates the II.
    fn usable_level(&self, label: DvfsLevel) -> DvfsLevel {
        let mut lvl = label;
        loop {
            let div = lvl.rate_divisor().expect("labels are active levels");
            if self.ii.is_multiple_of(div) && self.opts.allowed_levels.contains(&lvl) {
                return lvl;
            }
            if lvl == DvfsLevel::Normal {
                return DvfsLevel::Normal;
            }
            lvl = lvl.raised();
        }
    }

    fn place_node(&mut self, node: NodeId) -> bool {
        // Per-node label escalation: if a node cannot be committed anywhere
        // at its preferred level, retry it one level faster instead of
        // abandoning the whole attempt — Algorithm 1's labels guide the
        // mapping, "the final DVFS level of each DFG node can still be
        // adjusted by the heuristic mapping algorithm" (paper §IV-A).
        let mut label = self.labels[node.index()];
        loop {
            if self.try_place_at_label(node, label) {
                return true;
            }
            if label == DvfsLevel::Normal {
                break;
            }
            label = label.raised();
            iced_trace::counter(Phase::Mapper, "label_escalations", 1);
        }
        if iced_trace::enabled() {
            iced_trace::instant(
                Phase::Mapper,
                "no_candidate",
                &[
                    ("ii", u64::from(self.ii).into()),
                    ("node", (node.index() as u64).into()),
                    ("op", self.dfg.node(node).label().into()),
                    ("label", format!("{:?}", self.labels[node.index()]).into()),
                    ("asap", self.asap[node.index()].into()),
                ],
            );
        }
        false
    }

    fn try_place_at_label(&mut self, node: NodeId, label: DvfsLevel) -> bool {
        let op = self.dfg.node(node).op();
        let is_mem = op.is_memory();
        let needs_mul = op.class() == iced_dfg::OpcodeClass::Mul;
        let mut candidates: Vec<(u64, TileId)> = Vec::new();
        for &tile in &self.tiles {
            if is_mem && !self.cfg.is_memory_tile(tile) {
                continue;
            }
            if needs_mul && !self.cfg.tile_has_multiplier(tile) {
                continue;
            }
            if let Some(cost) = self.estimate(node, label, tile, is_mem) {
                candidates.push((cost, tile));
            }
        }
        candidates.sort_unstable_by_key(|&(c, t)| (c, t));
        iced_trace::counter(
            Phase::Mapper,
            "placement_candidates",
            candidates.len() as u64,
        );
        for (_, tile) in candidates {
            if self.cancel.cancelled() {
                return false;
            }
            if self.commit(node, label, tile) {
                iced_trace::counter(Phase::Mapper, "nodes_placed", 1);
                if iced_trace::detail_enabled() {
                    let p = self.placements[node.index()].expect("just placed");
                    iced_trace::instant(
                        Phase::Mapper,
                        "node_placed",
                        &[
                            ("ii", u64::from(self.ii).into()),
                            ("node", (node.index() as u64).into()),
                            ("tile", (p.tile.index() as u64).into()),
                            ("start", p.start.into()),
                            ("rate", u64::from(p.rate).into()),
                        ],
                    );
                }
                return true;
            }
        }
        false
    }

    fn estimate(&self, node: NodeId, label: DvfsLevel, tile: TileId, is_mem: bool) -> Option<u64> {
        let island = self.cfg.island_of(tile);
        let assigned = self.island_assigned[island.index()];
        let level = match assigned {
            Some(l) => {
                if label > l {
                    return None; // line 17: label must not exceed island level
                }
                l
            }
            None => self.usable_level(label),
        };
        let mut cost = 0u64;
        for e in self.dfg.in_edges(node) {
            if let Some(p) = self.placements[e.src().index()] {
                cost += W_HOP * self.cfg.manhattan(p.tile, tile) as u64;
            }
        }
        for e in self.dfg.out_edges(node) {
            match self.placements[e.dst().index()] {
                Some(p) => {
                    let w = if e.kind().is_loop_carried() {
                        W_CARRY
                    } else {
                        W_HOP
                    };
                    cost += w * self.cfg.manhattan(tile, p.tile) as u64;
                }
                None => {
                    // Second-order attraction: pull feeders towards the
                    // placed consumers of their (unplaced) consumer, so
                    // feeder chains land near the cycle they feed.
                    for e2 in self.dfg.out_edges(e.dst()) {
                        if let Some(p2) = self.placements[e2.dst().index()] {
                            cost += (W_HOP / 2) * self.cfg.manhattan(tile, p2.tile) as u64;
                        }
                    }
                }
            }
        }
        let label_div = label.rate_divisor().expect("active") as u64;
        let level_div = level.rate_divisor().expect("active") as u64;
        cost += W_LEVEL * label_div.saturating_sub(level_div);
        if assigned.is_none() {
            cost += W_OPEN;
        }
        if !is_mem && self.cfg.is_memory_tile(tile) {
            cost += W_MEM;
        }
        if self.spread {
            // Conventional mode: strongly prefer fresh tiles (one op per
            // tile where possible) — routing stays easy thanks to the
            // overlapped first hop, and this is how II-minimising mappers
            // behave (paper Fig. 1 uses a fresh tile per op).
            cost += W_HOP * self.mrrg.fu_busy_cycles(tile) as u64;
        } else {
            // Clustered mode: moderate load balancing — enough to keep
            // fan-in hotspots routable (half a hop per occupied FU slot),
            // low enough that proximity still packs islands for gating.
            cost += (W_HOP / 2) * self.mrrg.fu_busy_cycles(tile) as u64;
        }
        Some(cost)
    }

    /// Attempts to fully commit `node` on `tile`; on failure all
    /// reservations and island assignments are rolled back.
    fn commit(&mut self, node: NodeId, label: DvfsLevel, tile: TileId) -> bool {
        let island = self.cfg.island_of(tile);
        let mut txn = Txn::default();
        let mut opened: Vec<IslandId> = Vec::new();

        let level = match self.island_assigned[island.index()] {
            Some(l) => {
                if label > l {
                    return false;
                }
                l
            }
            None => {
                let l = self.usable_level(label);
                self.assign_island(island, l, &mut opened);
                l
            }
        };
        let rate = level.rate_divisor().expect("active level");

        // Egress capacity: each outgoing link of a tile at rate divisor `r`
        // carries one transfer per slow cycle, i.e. II/r per period. A node
        // whose fan-out exceeds the tile's total link budget can never route
        // all its consumers from here (consumers on the same tile need no
        // link, so this is conservative — it only pushes the node to a
        // faster island or another tile).
        let egress = self.dfg.out_edges(node).count() as u64;
        let link_budget: u64 =
            self.cfg.neighbors(tile).count() as u64 * (self.ii as u64 / rate as u64);
        if egress > link_budget {
            self.trace_abort(node, tile, "egress over link budget");
            return self.abort(txn, opened);
        }

        // Cycle nodes get one extra period of slack beyond their ASAP:
        // shifting a recurrence cycle later in absolute time only deepens
        // the prologue (steady state is unchanged), and the headroom lets
        // congested or slow-labeled feeder chains meet the cycle's read
        // deadlines instead of forcing an II increase.
        let slack = if self.on_cycle[node.index()] {
            self.ii as u64 + 4
        } else {
            0
        };
        let earliest = self.asap[node.index()] + slack;
        if let Some(why) = self.doomed(node, tile, rate, earliest) {
            iced_trace::counter(Phase::Mapper, "commits_pruned", 1);
            self.trace_abort(node, tile, why);
            return self.abort(txn, opened);
        }

        // Route placed-predecessor edges (both data and loop-carried).
        let mut in_routes: Vec<(usize, crate::router::FoundRoute, u32)> = Vec::new();
        let mut min_start = earliest as i64;
        for e in self.dfg.in_edges(node) {
            let Some(p) = self.placements[e.src().index()] else {
                continue; // carried edge from a not-yet-placed node
            };
            let ready = p.ready();
            let horizon =
                ready + 4 * self.cfg.manhattan(p.tile, tile) as u64 + 6 * self.ii as u64 + 32;
            let Some(found) = route(
                self.cfg,
                self.mrrg,
                &self.rates,
                &self.virgin,
                p.tile,
                ready,
                tile,
                None,
                horizon,
                &mut txn,
                self.scratch,
            ) else {
                self.trace_abort(node, tile, "in-route failed");
                return self.abort(txn, opened);
            };
            self.pin_route_islands(&found, &mut opened);
            let d = e.kind().distance();
            min_start = min_start.max(found.arrival as i64 - (d as i64 * self.ii as i64));
            in_routes.push((e.id().index(), found, d));
        }

        // Earliest phase-aligned FU slot with register holds extendable.
        let rate64 = rate as u64;
        let base = (min_start.max(0) as u64).div_ceil(rate64) * rate64;
        let mut chosen_start = None;
        for k in 0..(6 * self.ii as u64).div_ceil(rate64).max(4) {
            let start = base + k * rate64;
            if !self.mrrg.fu_free(tile, start, rate) {
                continue;
            }
            // Values wait at the consumer in per-port input FIFOs (the
            // tile's bypass buffers), so arrival order is the only
            // constraint here; the register file is charged for
            // route-through staging inside the router instead.
            let holds_ok = in_routes.iter().all(|(_, fr, d)| {
                let consume = start + *d as u64 * self.ii as u64;
                consume >= fr.arrival
            });
            if holds_ok {
                chosen_start = Some(start);
                break;
            }
        }
        let Some(start) = chosen_start else {
            self.trace_abort(node, tile, "no FU slot");
            return self.abort(txn, opened);
        };
        txn.occupy_fu(self.mrrg, tile, start, rate);
        let mut new_routes: Vec<(usize, Route)> = Vec::new();
        for (eid, fr, d) in &in_routes {
            let consume = start + *d as u64 * self.ii as u64;
            new_routes.push((
                *eid,
                Route {
                    edge: iced_dfg::EdgeId::from_index(*eid),
                    hops: fr.hops.clone(),
                    src_ready: fr.arrival.saturating_sub(hops_latency(fr)),
                    arrival: fr.arrival,
                    consume_at: consume,
                },
            ));
        }

        // Out-edges whose consumer is already placed: recurrence-closing
        // routes (loop-carried) and feeder routes into earlier-placed cycle
        // nodes (data), both bounded by the consumer's read deadline.
        // Tightest deadline first: the overlapped first hop is a scarce link
        // slot and must serve the most constrained consumer.
        let ready = start + rate64;
        let mut out_edges: Vec<(iced_dfg::EdgeId, Placement, u64)> = self
            .dfg
            .out_edges(node)
            .filter_map(|e| {
                self.placements[e.dst().index()].map(|p| {
                    let deadline = p.start + e.kind().distance() as u64 * self.ii as u64;
                    (e.id(), p, deadline)
                })
            })
            .collect();
        out_edges.sort_unstable_by_key(|&(id, _, deadline)| (deadline, id));
        for (eid, p, deadline) in out_edges {
            let e = self.dfg.edge(eid);
            let Some(found) = route(
                self.cfg,
                self.mrrg,
                &self.rates,
                &self.virgin,
                tile,
                ready,
                p.tile,
                Some(deadline),
                deadline,
                &mut txn,
                self.scratch,
            ) else {
                self.trace_abort(node, tile, "out-route failed");
                return self.abort(txn, opened);
            };
            self.pin_route_islands(&found, &mut opened);
            new_routes.push((
                e.id().index(),
                Route {
                    edge: e.id(),
                    hops: found.hops.clone(),
                    src_ready: ready,
                    arrival: found.arrival,
                    consume_at: deadline,
                },
            ));
        }

        // Success: persist.
        self.placements[node.index()] = Some(Placement { tile, start, rate });
        for (eid, r) in new_routes {
            self.routes[eid] = Some(r);
        }
        true
    }

    /// Why committing `node` on `tile` at rate divisor `rate` must fail,
    /// decided before any routing from FU occupancy and Manhattan lower
    /// bounds alone; `earliest` is the node's ASAP start plus its slack.
    ///
    /// * **No FU phase.** The slot search below tries at least `II/rate`
    ///   consecutive rate-aligned starts, i.e. every phase, and routing
    ///   reserves links and registers but never an FU. A tile with no free
    ///   phase now has none when the slot search runs.
    /// * **Deadline.** A route from `a` to `b` arrives no earlier than
    ///   [`arrival_lb`], `ready + max(manhattan(a, b) − 1, 0)`: the same
    ///   bound the router's root prune applies. So the op cannot start
    ///   before `start_lb` (its in-routes' bounds, aligned to the rate),
    ///   its value is not ready before `start_lb + rate`, and an out-route
    ///   to a placed consumer whose read deadline is below that bound plus
    ///   the distance cannot succeed.
    ///
    /// Either way the unpruned commit aborts later, after routing, through
    /// the same [`Engine::abort`] rollback, so pruning here never changes
    /// the mapping — it only skips the doomed in-route searches.
    fn doomed(&self, node: NodeId, tile: TileId, rate: u32, earliest: u64) -> Option<&'static str> {
        let ii = self.ii as u64;
        let r = rate as u64;
        if ii.is_multiple_of(r) && !(0..ii / r).any(|k| self.mrrg.fu_free(tile, k * r, rate)) {
            return Some("no FU phase");
        }
        let mut start_lb = earliest as i64;
        for e in self.dfg.in_edges(node) {
            if let Some(p) = self.placements[e.src().index()] {
                let arrival = arrival_lb(self.cfg, p.tile, p.ready(), tile) as i64;
                start_lb = start_lb.max(arrival - (e.kind().distance() as u64 * ii) as i64);
            }
        }
        let ready_lb = (start_lb.max(0) as u64).div_ceil(r) * r + r;
        let late = self.dfg.out_edges(node).any(|e| {
            self.placements[e.dst().index()].is_some_and(|p| {
                arrival_lb(self.cfg, tile, ready_lb, p.tile)
                    > p.start + e.kind().distance() as u64 * ii
            })
        });
        late.then_some("consumer deadline out of reach")
    }

    /// Records a commit abort as a detail trace event (one per attempt, so
    /// only with detail tracing on).
    fn trace_abort(&self, node: NodeId, tile: TileId, why: &'static str) {
        if iced_trace::detail_enabled() {
            iced_trace::instant(
                Phase::Mapper,
                "commit_aborted",
                &[
                    ("ii", u64::from(self.ii).into()),
                    ("node", (node.index() as u64).into()),
                    ("tile", (tile.index() as u64).into()),
                    ("reason", why.into()),
                ],
            );
        }
    }

    fn assign_island(&mut self, island: IslandId, level: DvfsLevel, opened: &mut Vec<IslandId>) {
        debug_assert!(self.island_assigned[island.index()].is_none());
        self.island_assigned[island.index()] = Some(level);
        let div = level.rate_divisor().expect("active level");
        for t in self.cfg.island_tiles(island) {
            self.rates[t.index()] = div;
            self.virgin[t.index()] = false;
        }
        opened.push(island);
    }

    /// Routing through an unassigned island reserved its links at base-clock
    /// granularity; pin such islands to normal.
    fn pin_route_islands(&mut self, found: &crate::router::FoundRoute, opened: &mut Vec<IslandId>) {
        for hop in &found.hops {
            let island = self.cfg.island_of(hop.from);
            if self.island_assigned[island.index()].is_none() {
                self.assign_island(island, DvfsLevel::Normal, opened);
            }
        }
    }

    fn abort(&mut self, txn: Txn, opened: Vec<IslandId>) -> bool {
        iced_trace::counter(Phase::Mapper, "commit_aborts", 1);
        txn.rollback(self.mrrg);
        for island in opened {
            self.island_assigned[island.index()] = None;
            for t in self.cfg.island_tiles(island) {
                self.rates[t.index()] = 1;
                self.virgin[t.index()] = true;
            }
        }
        false
    }

    fn finish(&mut self) -> Mapping {
        // ICED power-gates islands that host no work; the conventional
        // baseline has no DVFS support at all, so its unused islands keep
        // burning nominal power.
        let unused = if self.opts.dvfs_aware {
            DvfsLevel::PowerGated
        } else {
            DvfsLevel::Normal
        };
        let island_levels: Vec<DvfsLevel> = self
            .island_assigned
            .iter()
            .map(|a| a.unwrap_or(unused))
            .collect();
        let tile_levels: Vec<DvfsLevel> = self
            .cfg
            .tiles()
            .map(|t| island_levels[self.cfg.island_of(t).index()])
            .collect();
        Mapping {
            kernel: self.dfg.name().to_string(),
            config: self.cfg.clone(),
            ii: self.ii,
            placements: self
                .placements
                .iter()
                .map(|p| p.expect("all nodes placed on success"))
                .collect(),
            routes: self.routes.iter().flatten().cloned().collect(),
            island_levels,
            tile_levels,
        }
    }
}

fn hops_latency(fr: &crate::router::FoundRoute) -> u64 {
    fr.hops
        .first()
        .map(|h| fr.arrival.saturating_sub(h.depart))
        .unwrap_or(0)
}

/// The label sets attempted at one II, most aggressive first: `(full,
/// clustered)`, `(softened, clustered)`, `(all-normal, clustered)`, then
/// the same three label sets with spread placement. The spread rungs fall
/// back to load-balanced placement when clustering cannot reach this II;
/// the final rung is the conventional spread mapper itself (all-normal
/// labels), which guarantees the DVFS-aware flow is never slower than the
/// baseline at any II — the Fig. 4 property.
///
/// The ladder is lazy: softened / all-normal label vectors are only
/// materialised when their rung is actually attempted, so a first-rung
/// success allocates nothing beyond the full labeling. Duplicate rungs
/// (softened == full when no node is labeled rest; all-normal == softened
/// when no node is labeled below normal) are skipped via [`Self::active`],
/// mirroring the dedup of the eager attempt list this replaces.
struct LabelLadder {
    full: Vec<DvfsLevel>,
    /// `full` contains at least one `Rest` (softened differs from full).
    has_rest: bool,
    /// `full` contains a non-`Normal` label (all-normal differs from full
    /// and from softened).
    has_slow: bool,
    /// `Some(spread)` collapses the ladder to a single rung with that
    /// spread flag (dvfs-unaware mapping, or `label_ladder` disabled).
    single: Option<bool>,
    softened: Option<Vec<DvfsLevel>>,
    all_normal: Option<Vec<DvfsLevel>>,
}

impl LabelLadder {
    fn new(dfg: &Dfg, config: &CgraConfig, opts: &MapperOptions, ii: u32) -> LabelLadder {
        if !opts.dvfs_aware {
            return LabelLadder {
                full: vec![DvfsLevel::Normal; dfg.node_count()],
                has_rest: false,
                has_slow: false,
                single: Some(opts.spread),
                softened: None,
                all_normal: None,
            };
        }
        let full: Vec<DvfsLevel> = label_dvfs_levels(dfg, config, ii)
            .labels()
            .iter()
            .map(|&l| clamp_to_allowed(l, &opts.allowed_levels))
            .collect();
        let has_rest = full.contains(&DvfsLevel::Rest);
        let has_slow = full.iter().any(|&l| l != DvfsLevel::Normal);
        let single = if opts.label_ladder { None } else { Some(false) };
        LabelLadder {
            full,
            has_rest,
            has_slow,
            single,
            softened: None,
            all_normal: None,
        }
    }

    /// Rung-grid width for these options, independent of any particular
    /// labeling — the portfolio uses it to enumerate `(II, rung)` attempts
    /// without building a ladder first.
    fn grid(opts: &MapperOptions) -> usize {
        if opts.dvfs_aware && opts.label_ladder {
            6
        } else {
            1
        }
    }

    fn rungs(&self) -> usize {
        if self.single.is_some() {
            1
        } else {
            6
        }
    }

    /// Whether rung `r` would appear in the eager attempt list, i.e. is
    /// the first occurrence of its `(labels, spread)` pair.
    fn active(&self, r: usize) -> bool {
        if self.single.is_some() {
            return r == 0;
        }
        match r {
            0 | 3 => true,
            1 | 4 => self.has_rest,
            2 | 5 => self.has_slow,
            _ => false,
        }
    }

    /// Labels + spread flag for rung `r`, materialised on first use.
    fn rung(&mut self, r: usize) -> (&[DvfsLevel], bool) {
        if let Some(spread) = self.single {
            debug_assert_eq!(r, 0);
            return (&self.full, spread);
        }
        let LabelLadder {
            full,
            softened,
            all_normal,
            ..
        } = self;
        let labels: &[DvfsLevel] = match r % 3 {
            0 => full,
            1 => softened.get_or_insert_with(|| {
                full.iter()
                    .map(|&l| {
                        if l == DvfsLevel::Rest {
                            DvfsLevel::Relax
                        } else {
                            l
                        }
                    })
                    .collect()
            }),
            _ => all_normal.get_or_insert_with(|| vec![DvfsLevel::Normal; full.len()]),
        };
        (labels, r >= 3)
    }
}

fn clamp_to_allowed(label: DvfsLevel, allowed: &[DvfsLevel]) -> DvfsLevel {
    let mut lvl = label;
    loop {
        if allowed.contains(&lvl) {
            return lvl;
        }
        if lvl == DvfsLevel::Normal {
            return DvfsLevel::Normal;
        }
        lvl = lvl.raised();
    }
}

/// Checks that a finished mapping respects every dependency of `dfg`
/// (used by tests and the simulator's validation layer).
pub fn check_dependencies(dfg: &Dfg, mapping: &Mapping) -> bool {
    for e in dfg.edges() {
        let src = mapping.placement(e.src());
        let dst = mapping.placement(e.dst());
        let produced = src.ready();
        let consumed = dst.start + e.kind().distance() as u64 * mapping.ii() as u64;
        if consumed < produced {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_dfg::{DfgBuilder, Opcode};
    use std::collections::HashSet;

    fn ring(len: usize) -> Dfg {
        let mut b = DfgBuilder::new("ring");
        let ids: Vec<_> = (0..len)
            .map(|i| b.node(Opcode::Add, format!("r{i}")))
            .collect();
        b.data_chain(&ids).unwrap();
        b.carry(ids[len - 1], ids[0]).unwrap();
        b.finish().unwrap()
    }

    fn fir_like() -> Dfg {
        let mut b = DfgBuilder::new("fir");
        let x = b.node(Opcode::Load, "x");
        let c = b.node(Opcode::Load, "c");
        let m = b.node(Opcode::Mul, "xc");
        let phi = b.node(Opcode::Phi, "acc");
        let a1 = b.node(Opcode::Add, "a1");
        let a2 = b.node(Opcode::Add, "a2");
        let a3 = b.node(Opcode::Add, "a3");
        let st = b.node(Opcode::Store, "st");
        b.data(x, m).unwrap();
        b.data(c, m).unwrap();
        b.data(m, a1).unwrap();
        b.data(phi, a1).unwrap();
        b.data(a1, a2).unwrap();
        b.data(a2, a3).unwrap();
        b.data(a3, st).unwrap();
        b.carry(a3, phi).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn ring_maps_at_rec_mii() {
        let dfg = ring(4);
        let cfg = CgraConfig::square(4).unwrap();
        let m = map_baseline(&dfg, &cfg).unwrap();
        assert_eq!(m.ii(), 4);
        assert!(check_dependencies(&dfg, &m));
    }

    #[test]
    fn baseline_keeps_everything_normal() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let m = map_baseline(&dfg, &cfg).unwrap();
        for t in cfg.tiles() {
            assert_eq!(m.tile_level(t), DvfsLevel::Normal);
        }
        assert!(check_dependencies(&dfg, &m));
    }

    #[test]
    fn dvfs_aware_gates_unused_islands() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let m = map_dvfs_aware(&dfg, &cfg).unwrap();
        assert!(check_dependencies(&dfg, &m));
        // 8 nodes on a 36-tile fabric: most islands must be power-gated.
        let gated = cfg
            .islands()
            .filter(|&i| m.island_level(i) == DvfsLevel::PowerGated)
            .count();
        assert!(gated >= 4, "only {gated} islands gated");
    }

    #[test]
    fn dvfs_aware_matches_baseline_ii_on_kernel_set() {
        // The paper's Fig. 4 claim for 2x2 islands: no performance loss.
        let cfg = CgraConfig::iced_prototype();
        for dfg in [ring(4), ring(7), fir_like()] {
            let b = map_baseline(&dfg, &cfg).unwrap();
            let d = map_dvfs_aware(&dfg, &cfg).unwrap();
            assert_eq!(b.ii(), d.ii(), "kernel {}", dfg.name());
        }
    }

    #[test]
    fn memory_ops_stay_on_leftmost_column() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let m = map_dvfs_aware(&dfg, &cfg).unwrap();
        for node in dfg.nodes() {
            if node.op().is_memory() {
                let p = m.placement(node.id());
                assert!(cfg.is_memory_tile(p.tile), "{} on {}", node.label(), p.tile);
            }
        }
    }

    #[test]
    fn island_budget_restricts_tiles() {
        let dfg = ring(4);
        let cfg = CgraConfig::iced_prototype();
        let opts = MapperOptions {
            island_budget: Some(1),
            ..MapperOptions::default()
        };
        let m = map_with(&dfg, &cfg, &opts).unwrap();
        let allowed: HashSet<TileId> = cfg.island_tiles(IslandId(0)).into_iter().collect();
        for p in m.placements() {
            assert!(allowed.contains(&p.tile));
        }
    }

    #[test]
    fn too_small_fabric_raises_ii() {
        // 16 independent ops on a 2x2 fabric need II >= 4 by ResMII.
        let mut b = DfgBuilder::new("wide");
        let root = b.node(Opcode::Load, "r");
        for i in 0..15 {
            let n = b.node(Opcode::Add, format!("n{i}"));
            b.data(root, n).unwrap();
        }
        let dfg = b.finish().unwrap();
        let cfg = CgraConfig::square(2).unwrap();
        let m = map_baseline(&dfg, &cfg).unwrap();
        assert!(m.ii() >= 4);
        assert!(check_dependencies(&dfg, &m));
    }

    #[test]
    fn max_ii_is_respected() {
        let dfg = ring(8);
        let cfg = CgraConfig::square(2).unwrap();
        let opts = MapperOptions {
            max_ii: 2,
            ..MapperOptions::baseline()
        };
        assert!(matches!(
            map_with(&dfg, &cfg, &opts),
            Err(MapError::IiExceeded { max_ii: 2 })
        ));
    }

    #[test]
    fn heterogeneous_fabric_keeps_multiplies_on_mul_tiles() {
        let dfg = fir_like();
        let cfg = iced_arch::CgraConfig::builder(6, 6)
            .fu_layout(iced_arch::FuLayout::CheckerboardMul)
            .build()
            .unwrap();
        let m = map_dvfs_aware(&dfg, &cfg).unwrap();
        for node in dfg.nodes() {
            if node.op().class() == iced_dfg::OpcodeClass::Mul {
                let p = m.placement(node.id());
                assert!(
                    cfg.tile_has_multiplier(p.tile),
                    "{} on {}",
                    node.label(),
                    p.tile
                );
            }
        }
    }

    #[test]
    fn rest_labeled_nodes_land_on_slow_islands() {
        // Feeders off the critical path should end up on relax/rest islands.
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        let m = map_dvfs_aware(&dfg, &cfg).unwrap();
        let slow = cfg
            .islands()
            .filter(|&i| matches!(m.island_level(i), DvfsLevel::Rest | DvfsLevel::Relax))
            .count();
        assert!(slow >= 1, "expected at least one slow island");
    }

    /// Reference implementation of the eager attempt list the lazy
    /// [`LabelLadder`] replaced — kept as the oracle for its dedup rules.
    fn eager_attempts(
        dfg: &Dfg,
        config: &CgraConfig,
        opts: &MapperOptions,
        ii: u32,
    ) -> Vec<(Vec<DvfsLevel>, bool)> {
        let all_normal = vec![DvfsLevel::Normal; dfg.node_count()];
        if !opts.dvfs_aware {
            return vec![(all_normal, opts.spread)];
        }
        let full: Vec<DvfsLevel> = label_dvfs_levels(dfg, config, ii)
            .labels()
            .iter()
            .map(|&l| clamp_to_allowed(l, &opts.allowed_levels))
            .collect();
        if !opts.label_ladder {
            return vec![(full, false)];
        }
        let softened: Vec<DvfsLevel> = full
            .iter()
            .map(|&l| {
                if l == DvfsLevel::Rest {
                    DvfsLevel::Relax
                } else {
                    l
                }
            })
            .collect();
        let mut attempts = vec![(full.clone(), false)];
        for cand in [
            (softened.clone(), false),
            (all_normal.clone(), false),
            (full, true),
            (softened, true),
            (all_normal, true),
        ] {
            if !attempts.contains(&cand) {
                attempts.push(cand);
            }
        }
        attempts
    }

    #[test]
    fn lazy_ladder_matches_eager_attempt_list() {
        let cfg = CgraConfig::iced_prototype();
        let variants = [
            MapperOptions::default(),
            MapperOptions::baseline(),
            MapperOptions {
                label_ladder: false,
                ..MapperOptions::default()
            },
            MapperOptions {
                allowed_levels: vec![DvfsLevel::Normal, DvfsLevel::Relax],
                ..MapperOptions::default()
            },
        ];
        for dfg in [ring(4), ring(7), fir_like()] {
            for opts in &variants {
                for ii in 1..=8 {
                    let eager = eager_attempts(&dfg, &cfg, opts, ii);
                    let mut ladder = LabelLadder::new(&dfg, &cfg, opts, ii);
                    let mut lazy = Vec::new();
                    for r in 0..ladder.rungs() {
                        if ladder.active(r) {
                            let (labels, spread) = ladder.rung(r);
                            lazy.push((labels.to_vec(), spread));
                        }
                    }
                    assert_eq!(eager, lazy, "kernel {} ii {ii}", dfg.name());
                }
            }
        }
    }

    #[test]
    fn expired_deadline_aborts_between_attempts() {
        let dfg = fir_like();
        let cfg = CgraConfig::iced_prototype();
        // Already-expired deadline: the loop must abort before the first
        // attempt, in both the serial and portfolio paths.
        for threads in [1, 3] {
            let opts = MapperOptions {
                deadline: Some(std::time::Instant::now()),
                threads,
                ..MapperOptions::default()
            };
            assert!(
                matches!(map_with(&dfg, &cfg, &opts), Err(MapError::DeadlineExceeded)),
                "threads={threads}"
            );
        }
        // A generous deadline changes nothing.
        let opts = MapperOptions {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            threads: 1,
            ..MapperOptions::default()
        };
        let with_deadline = map_with(&dfg, &cfg, &opts).unwrap();
        let without = map_dvfs_aware(&dfg, &cfg).unwrap();
        assert!(with_deadline.result_eq(&without));
    }

    #[test]
    fn options_hash_is_pinned_and_ignores_serving_knobs() {
        // Cross-process stability contract (service disk cache).
        assert_eq!(
            MapperOptions::default().canonical_hash(),
            0xaddd_866a_3893_55f5
        );
        let base = MapperOptions::default();
        let serving = MapperOptions {
            threads: 7,
            deadline: Some(std::time::Instant::now()),
            ..MapperOptions::default()
        };
        assert_eq!(base.canonical_hash(), serving.canonical_hash());
        let semantic = [
            MapperOptions::baseline(),
            MapperOptions {
                max_ii: 32,
                ..MapperOptions::default()
            },
            MapperOptions {
                min_ii: 3,
                ..MapperOptions::default()
            },
            MapperOptions {
                island_budget: Some(2),
                ..MapperOptions::default()
            },
            MapperOptions {
                allowed_levels: vec![DvfsLevel::Normal, DvfsLevel::Relax],
                ..MapperOptions::default()
            },
            MapperOptions {
                cycle_first: false,
                ..MapperOptions::default()
            },
            MapperOptions {
                label_ladder: false,
                ..MapperOptions::default()
            },
        ];
        for v in &semantic {
            assert_ne!(base.canonical_hash(), v.canonical_hash(), "{v:?}");
        }
    }

    #[test]
    fn portfolio_matches_serial_mapping() {
        let cfg = CgraConfig::iced_prototype();
        for dfg in [ring(4), ring(7), fir_like()] {
            for base in [MapperOptions::default(), MapperOptions::baseline()] {
                let serial = map_with(
                    &dfg,
                    &cfg,
                    &MapperOptions {
                        threads: 1,
                        ..base.clone()
                    },
                )
                .unwrap();
                let parallel = map_with(&dfg, &cfg, &MapperOptions { threads: 3, ..base }).unwrap();
                assert!(
                    serial.result_eq(&parallel),
                    "kernel {} diverged across thread counts",
                    dfg.name()
                );
                assert!(check_dependencies(&dfg, &parallel));
            }
        }
    }

    #[test]
    fn portfolio_respects_max_ii() {
        let dfg = ring(8);
        let cfg = CgraConfig::square(2).unwrap();
        let opts = MapperOptions {
            max_ii: 2,
            threads: 4,
            ..MapperOptions::baseline()
        };
        assert!(matches!(
            map_with(&dfg, &cfg, &opts),
            Err(MapError::IiExceeded { max_ii: 2 })
        ));
    }

    #[test]
    fn thread_count_resolution_order() {
        // An explicit option beats everything (the env fallback is
        // process-global, so it is not exercised here).
        let explicit = MapperOptions {
            threads: 3,
            ..MapperOptions::default()
        };
        assert_eq!(resolve_threads(&explicit), 3);
        // threads = 0 resolves to *something* usable.
        assert!(resolve_threads(&MapperOptions::default()) >= 1);
    }
}
