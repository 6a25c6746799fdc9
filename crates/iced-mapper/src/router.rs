//! Dijkstra routing over the time-extended MRRG (Algorithm 2, line 18's
//! "shortest path between tiles").
//!
//! A value produced on tile `s` at base cycle `ready` travels to tile `d`
//! through mesh hops. Each hop out of a tile whose island runs at rate
//! divisor `r` occupies the directed link for one of the tile's slow cycles
//! (`r` base cycles, phase-aligned); waiting at a tile pins a register-file
//! slot per base cycle. The search minimises arrival time; reservations are
//! journalled in a [`Txn`] so a failed placement candidate can be rolled
//! back without rebuilding the MRRG.
//!
//! # Fast path
//!
//! The search state space is `tiles × [ready, limit]` (`limit` is the
//! arrival bound, see below) — small, dense, and integer-keyed — so the
//! classic heap-and-hash-set Dijkstra is replaced by cache-friendly flat
//! structures (the mapper spends most of its wall time here):
//!
//! * the **visited set** is a flat bitvec indexed
//!   `tile · span + (time − ready)` instead of a `HashSet<(TileId, u64)>`;
//! * the **frontier** is a monotone bucket queue keyed on the primary cost
//!   (arrival time for open routes, island-pinning aux for deadline
//!   routes). Every expansion strictly increases the primary key, so each
//!   bucket is sorted once on first entry and drained in `(secondary, idx)`
//!   order — exactly the pop order of the former
//!   `BinaryHeap<Reverse<((primary, secondary), idx)>>`, making the rewrite
//!   bit-identical to the heap version;
//! * arena, bitvec, and buckets live in a caller-owned [`RouterScratch`]
//!   reused across the thousands of `route` calls of one mapping attempt.
//!
//! # Admissible pruning
//!
//! Every hop moves one mesh step, and every hop after the overlapped first
//! one costs at least one base cycle. A state `(tile, time)` reached by a
//! hop can therefore arrive at `dst` no earlier than
//! `time + manhattan(tile, dst)`, and the root no earlier than
//! `ready + manhattan(src, dst) − 1`. Arrivals are bounded by
//! `limit = min(deadline, horizon)` (a hop must complete inside the
//! horizon), so the search never queues a state whose bound exceeds
//! `limit`, and gives up before queueing anything when the root's bound
//! does. A failed route then expands only the states that could still
//! succeed instead of flooding every reachable state up to the limit.
//!
//! The prune is bit-identical to the unpruned search. The bound is
//! consistent (it falls by at most one per hop while time rises by at least
//! one), so every descendant of a pruned state is pruned too, and no state
//! on any route the search could return is ever pruned. A pruned state's
//! only other effect would be its visited bit, which only ever blocks
//! states of the same `(tile, time)` — pruned ones. Surviving states keep
//! their keys and their relative arena order, so the `(primary, secondary,
//! idx)` pop order among them, and with it the returned route, is
//! unchanged.

use iced_arch::{CgraConfig, Dir, Mrrg, TileId};
use iced_trace::Phase;

use crate::mapping::Hop;

/// Journal of MRRG reservations that can be rolled back as a unit.
#[derive(Debug, Default)]
pub struct Txn {
    fu: Vec<(TileId, u64, u32)>,
    links: Vec<(TileId, Dir, u64, u32)>,
    regs: Vec<(TileId, u64, u64)>,
}

impl Txn {
    /// Occupies an FU window and journals it.
    pub fn occupy_fu(&mut self, m: &mut Mrrg, tile: TileId, start: u64, len: u32) {
        m.occupy_fu(tile, start, len);
        self.fu.push((tile, start, len));
    }

    /// Occupies a link window and journals it.
    pub fn occupy_link(&mut self, m: &mut Mrrg, tile: TileId, dir: Dir, start: u64, len: u32) {
        m.occupy_link(tile, dir, start, len);
        self.links.push((tile, dir, start, len));
    }

    /// Occupies register slots and journals them (no-op for `len == 0`).
    pub fn occupy_reg(&mut self, m: &mut Mrrg, tile: TileId, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        m.occupy_reg(tile, start, len);
        self.regs.push((tile, start, len));
    }

    /// Undoes every reservation in this journal.
    pub fn rollback(self, m: &mut Mrrg) {
        for (t, s, l) in self.fu.into_iter().rev() {
            m.release_fu(t, s, l);
        }
        for (t, d, s, l) in self.links.into_iter().rev() {
            m.release_link(t, d, s, l);
        }
        for (t, s, l) in self.regs.into_iter().rev() {
            m.release_reg(t, s, l);
        }
    }
}

/// A found route: arrival time plus the hops taken.
#[derive(Debug, Clone)]
pub struct FoundRoute {
    /// Base cycle the value reaches the destination tile.
    pub arrival: u64,
    /// Mesh hops taken, in order (empty for same-tile routes).
    pub hops: Vec<Hop>,
}

#[derive(Debug, Clone, Copy)]
struct SearchNode {
    tile: TileId,
    time: u64,
    /// Secondary cost: hop count plus penalties for pinning virgin islands
    /// and threading slow tiles (tie-break below arrival time).
    aux: u64,
    parent: usize, // index into the arena; usize::MAX for the root
    hop: Option<(TileId, Dir, u64, u32)>, // (from, dir, depart, len) that led here
}

/// Reusable search buffers: the node arena, the visited bitvec, and the
/// bucket-queue spine. One instance serves every `route` call of a mapping
/// attempt, so steady-state routing allocates nothing.
#[derive(Debug, Default)]
pub struct RouterScratch {
    arena: Vec<SearchNode>,
    visited: Vec<u64>,
    buckets: Vec<Vec<(u64, usize)>>,
}

/// Tests and sets bit `idx`; returns whether it was already set.
#[inline]
fn bit_test_set(words: &mut [u64], idx: usize) -> bool {
    let mask = 1u64 << (idx % 64);
    let w = &mut words[idx / 64];
    let was = *w & mask != 0;
    *w |= mask;
    was
}

#[inline]
fn bit_test(words: &[u64], idx: usize) -> bool {
    words[idx / 64] & (1u64 << (idx % 64)) != 0
}

/// Monotone bucket queue over `(primary, secondary, arena idx)`.
///
/// Exploits the Dijkstra invariant that every pushed key's primary strictly
/// exceeds the primary currently being drained (open routes: arrival time
/// strictly grows per hop; deadline routes: aux strictly grows per hop), so
/// a bucket can be sorted once when first entered and never receives a
/// late insert. Pop order is ascending `(primary, secondary, idx)` — the
/// exact order of the `BinaryHeap` this replaces.
struct BucketQueue<'a> {
    buckets: &'a mut Vec<Vec<(u64, usize)>>,
    cur: usize,
    pos: usize,
    live: usize,
}

impl<'a> BucketQueue<'a> {
    fn new(buckets: &'a mut Vec<Vec<(u64, usize)>>) -> Self {
        for b in buckets.iter_mut() {
            b.clear();
        }
        BucketQueue {
            buckets,
            cur: 0,
            pos: 0,
            live: 0,
        }
    }

    fn push(&mut self, primary: usize, secondary: u64, idx: usize) {
        debug_assert!(
            primary > self.cur || (primary == self.cur && self.pos == 0),
            "bucket queue requires monotone primary keys"
        );
        if self.buckets.len() <= primary {
            self.buckets.resize_with(primary + 1, Vec::new);
        }
        self.buckets[primary].push((secondary, idx));
        self.live += 1;
    }

    fn pop(&mut self) -> Option<usize> {
        while self.live > 0 {
            let bucket = &mut self.buckets[self.cur];
            if self.pos == 0 && bucket.len() > 1 {
                bucket.sort_unstable();
            }
            if self.pos < bucket.len() {
                let (_, idx) = bucket[self.pos];
                self.pos += 1;
                self.live -= 1;
                return Some(idx);
            }
            self.cur += 1;
            self.pos = 0;
        }
        None
    }
}

/// Finds the earliest-arrival route from (`src`, `ready`) to `dst`.
///
/// `rates[tile]` is each tile's DVFS rate divisor (1/2/4). `deadline`
/// bounds the arrival (used for loop-carried edges whose consumer is
/// already scheduled); `horizon` bounds the search in time. On success the
/// route's link and register reservations are committed into `mrrg` and
/// journalled in `txn`; the hold at the *destination* tile (arrival →
/// consume time) is the caller's responsibility because the consume time
/// may not be known yet.
///
/// `virgin[tile]` marks tiles whose island has no DVFS level assigned yet;
/// routing out of such a tile pins the island to `normal`, so among
/// equally fast paths the search prefers ones that pin fewer islands and
/// take fewer hops (especially through slow tiles, whose links are a scarce
/// one-transfer-per-period resource).
#[allow(clippy::too_many_arguments)]
pub fn route(
    cfg: &CgraConfig,
    mrrg: &mut Mrrg,
    rates: &[u32],
    virgin: &[bool],
    src: TileId,
    ready: u64,
    dst: TileId,
    deadline: Option<u64>,
    horizon: u64,
    txn: &mut Txn,
    scratch: &mut RouterScratch,
) -> Option<FoundRoute> {
    let mut expansions = 0u64;
    let found = search(
        cfg,
        mrrg,
        rates,
        virgin,
        src,
        ready,
        dst,
        deadline,
        horizon,
        txn,
        scratch,
        &mut expansions,
    );
    if iced_trace::enabled() {
        iced_trace::counter(Phase::Router, "routes_requested", 1);
        iced_trace::counter(Phase::Router, "dijkstra_expansions", expansions);
        match &found {
            Some(fr) => iced_trace::counter(Phase::Router, "hops_committed", fr.hops.len() as u64),
            None => iced_trace::counter(Phase::Router, "route_failures", 1),
        }
    }
    found
}

/// The earliest a value ready at `src` at `ready` can arrive at `dst`:
/// `ready + max(manhattan(src, dst) − 1, 0)`. The first hop overlaps the
/// producing op and every later hop costs at least one cycle, so no route
/// arrives earlier. The router's root prune and the placer's commit
/// precheck both use this one bound, which keeps them consistent.
pub(crate) fn arrival_lb(cfg: &CgraConfig, src: TileId, ready: u64, dst: TileId) -> u64 {
    ready + cfg.manhattan(src, dst).saturating_sub(1) as u64
}

#[allow(clippy::too_many_arguments)]
fn search(
    cfg: &CgraConfig,
    mrrg: &mut Mrrg,
    rates: &[u32],
    virgin: &[bool],
    src: TileId,
    ready: u64,
    dst: TileId,
    deadline: Option<u64>,
    horizon: u64,
    txn: &mut Txn,
    scratch: &mut RouterScratch,
    expansions: &mut u64,
) -> Option<FoundRoute> {
    if src == dst {
        if deadline.is_some_and(|d| ready > d) {
            return None;
        }
        return Some(FoundRoute {
            arrival: ready,
            hops: Vec::new(),
        });
    }
    let limit = deadline.map_or(horizon, |d| d.min(horizon));
    let to_go = |tile: TileId| cfg.manhattan(tile, dst) as u64;
    // The root's first hop may overlap the producing op, so its bound is
    // one cycle below that of a queued state (module doc, "Admissible
    // pruning").
    if arrival_lb(cfg, src, ready, dst) > limit {
        return None;
    }
    let doomed = |tile: TileId, time: u64| time + to_go(tile) > limit;
    let hop_aux = |from: TileId| -> u64 {
        let mut a = 1;
        if virgin[from.index()] {
            a += 8;
        }
        if from != src && rates[from.index()] > 1 {
            a += 4;
        }
        a
    };
    // Deadline routes have slack by construction (any on-time arrival is
    // equally good), so they minimise island-pinning first and time second;
    // open routes minimise arrival time (the consumer starts sooner).
    // Times are rebased to `ready` so open-route buckets start at 0.
    let key = |time: u64, aux: u64| -> (usize, u64) {
        if deadline.is_some() {
            (aux as usize, time)
        } else {
            ((time - ready) as usize, aux)
        }
    };
    let span = (limit - ready + 1) as usize;
    let vis = |tile: TileId, time: u64| -> usize { tile.index() * span + (time - ready) as usize };
    let RouterScratch {
        arena,
        visited,
        buckets,
    } = scratch;
    arena.clear();
    visited.clear();
    visited.resize((cfg.tile_count() * span).div_ceil(64), 0);
    let mut queue = BucketQueue::new(buckets);

    arena.push(SearchNode {
        tile: src,
        time: ready,
        aux: 0,
        parent: usize::MAX,
        hop: None,
    });
    let (p, s) = key(ready, 0);
    queue.push(p, s, 0);

    // First hop is overlapped with the producing operation: the FU output
    // drives the crossbar during the execution window [ready − r, ready),
    // so a neighbour receives the value at `ready` with no extra latency
    // (this is what lets the paper's Fig. 1 chain the critical cycle across
    // neighbouring tiles at II = RecMII).
    let r_src = rates[src.index()] as u64;
    if ready >= r_src {
        let window = ready - r_src;
        for (dir, nbr) in cfg.neighbors(src) {
            if !doomed(nbr, ready) && mrrg.link_free(src, dir, window, r_src as u32) {
                let aux = hop_aux(src);
                arena.push(SearchNode {
                    tile: nbr,
                    time: ready,
                    aux,
                    parent: 0,
                    hop: Some((src, dir, window, r_src as u32)),
                });
                let (p, s) = key(ready, aux);
                queue.push(p, s, arena.len() - 1);
            }
        }
    }

    while let Some(idx) = queue.pop() {
        *expansions += 1;
        let node = arena[idx];
        let time = node.time;
        if bit_test_set(visited, vis(node.tile, time)) {
            continue;
        }
        if node.tile == dst {
            debug_assert!(time <= limit, "pruning keeps every queued state on time");
            return Some(commit(cfg, mrrg, src, arena, idx, txn));
        }
        let r = rates[node.tile.index()] as u64;
        for (dir, nbr) in cfg.neighbors(node.tile) {
            // Earliest phase-aligned slow cycle >= current time with a free
            // link, holding the value in registers while waiting. The
            // producer's own tile holds its result in the FU output latch,
            // so waiting there is free and shared across fan-out edges.
            // Departures late enough to doom the arrival are never tried
            // (a later departure only arrives later).
            let mut w = time.div_ceil(r) * r;
            while !doomed(nbr, w + r) {
                if node.tile != src && !mrrg.reg_available(node.tile, time, w.saturating_sub(time))
                {
                    break; // cannot hold the value this long here
                }
                if mrrg.link_free(node.tile, dir, w, r as u32) {
                    let arrive = w + r;
                    if !bit_test(visited, vis(nbr, arrive)) {
                        let aux = node.aux + hop_aux(node.tile);
                        arena.push(SearchNode {
                            tile: nbr,
                            time: arrive,
                            aux,
                            parent: idx,
                            hop: Some((node.tile, dir, w, r as u32)),
                        });
                        let (p, s) = key(arrive, aux);
                        queue.push(p, s, arena.len() - 1);
                    }
                    break;
                }
                w += r;
            }
        }
    }
    None
}

/// Walks the parent chain, committing link occupancy and wait-holds.
fn commit(
    cfg: &CgraConfig,
    mrrg: &mut Mrrg,
    src: TileId,
    arena: &[SearchNode],
    goal: usize,
    txn: &mut Txn,
) -> FoundRoute {
    let mut chain = Vec::new();
    let mut idx = goal;
    while idx != usize::MAX {
        chain.push(idx);
        idx = arena[idx].parent;
    }
    chain.reverse();
    let mut hops = Vec::new();
    for pair in chain.windows(2) {
        let prev = arena[pair[0]];
        let cur = arena[pair[1]];
        let (from, dir, depart, len) = cur.hop.expect("non-root nodes carry hop info");
        // Hold at `from` while waiting for the link slot; free at the
        // producer's tile (FU output latch, shared by all fan-out edges).
        if from != src {
            txn.occupy_reg(mrrg, from, prev.time, depart.saturating_sub(prev.time));
        }
        txn.occupy_link(mrrg, from, dir, depart, len);
        let to = cfg.neighbor(from, dir).expect("hop used an existing link");
        hops.push(Hop {
            from,
            to,
            dir,
            depart,
            arrive: cur.time,
        });
    }
    FoundRoute {
        arrival: arena[goal].time,
        hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iced_arch::CgraConfig;

    fn setup(n: usize) -> (CgraConfig, Mrrg, Vec<u32>, Vec<bool>) {
        let cfg = CgraConfig::square(n).unwrap();
        let mrrg = Mrrg::new(&cfg, 4).unwrap();
        let rates = vec![1u32; cfg.tile_count()];
        let virgin = vec![false; cfg.tile_count()];
        (cfg, mrrg, rates, virgin)
    }

    #[test]
    fn straight_line_route_takes_manhattan_hops() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 3);
        let r = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            1,
            dst,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(r.hops.len(), 3);
        // First hop overlaps the producing cycle (arrival at (0,1) at time
        // 1), then one cycle per store-and-forward hop.
        assert_eq!(r.arrival, 3);
        assert_eq!(r.hops[0].dir, Dir::East);
    }

    #[test]
    fn same_tile_route_is_free() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let t = cfg.tile_at(1, 1);
        let r = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            t,
            7,
            t,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        assert!(r.hops.is_empty());
        assert_eq!(r.arrival, 7);
    }

    #[test]
    fn busy_link_forces_wait_or_detour() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 1);
        // Block the direct east link at every cycle of the period except 3.
        for c in 0..3 {
            mrrg.occupy_link(src, Dir::East, c, 1);
        }
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let r = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            0,
            dst,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        // Either waits for cycle 3 or detours south->east->north (3 hops).
        assert!(r.arrival >= 3 || r.hops.len() == 3, "arrival {}", r.arrival);
    }

    #[test]
    fn deadline_rejects_late_arrivals() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(3, 3);
        // Manhattan distance 6, ready at 0 → arrival >= 6 > deadline 3.
        assert!(route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            0,
            dst,
            Some(3),
            64,
            &mut txn,
            &mut scratch,
        )
        .is_none());
    }

    #[test]
    fn hopeless_deadline_fails_without_flooding() {
        let (cfg, mut mrrg, rates, virgin) = setup(6);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(5, 5);
        // Manhattan distance 10: the earliest arrival is ready + 9 = 13,
        // one past the deadline, so nothing is worth expanding.
        let mut expansions = 0;
        let found = search(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            4,
            dst,
            Some(12),
            64,
            &mut txn,
            &mut scratch,
            &mut expansions,
        );
        assert!(found.is_none());
        assert!(expansions <= 1, "{expansions} expansions");
        // One cycle later the same route exists and is found.
        let found = search(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            4,
            dst,
            Some(13),
            64,
            &mut txn,
            &mut scratch,
            &mut expansions,
        )
        .expect("deadline at the Manhattan bound is reachable");
        assert_eq!(found.arrival, 13);
    }

    #[test]
    fn random_deadline_routes_respect_bounds_and_repeat() {
        // splitmix64: a fixed, dependency-free stream.
        let mut state = 0x1CED_u64;
        let mut next = |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let cfg = CgraConfig::square(5).unwrap();
        // One scratch serves every case, as in a mapping attempt; each
        // answer is checked against a fresh scratch's.
        let mut shared = RouterScratch::default();
        let mut found_any = 0;
        for _ in 0..300 {
            let ii = 2 + next(6) as u32;
            let mut mrrg = Mrrg::new(&cfg, ii).unwrap();
            let rates: Vec<u32> = (0..cfg.tile_count())
                .map(|_| [1, 1, 2][next(3) as usize])
                .collect();
            let virgin: Vec<bool> = (0..cfg.tile_count()).map(|_| next(4) == 0).collect();
            for t in cfg.tiles() {
                for (dir, _) in cfg.neighbors(t) {
                    for c in 0..u64::from(ii) {
                        if next(3) == 0 && mrrg.link_free(t, dir, c, 1) {
                            mrrg.occupy_link(t, dir, c, 1);
                        }
                    }
                }
                if next(2) == 0 {
                    mrrg.occupy_reg(t, next(u64::from(ii)), 1 + next(3));
                }
            }
            let src = TileId(next(cfg.tile_count() as u64) as u16);
            let dst = TileId(next(cfg.tile_count() as u64) as u16);
            let ready = 2 + next(8);
            let deadline = ready + next(12);
            let attempt = |scratch: &mut RouterScratch, mrrg: &mut Mrrg| {
                let mut txn = Txn::default();
                let found = route(
                    &cfg,
                    mrrg,
                    &rates,
                    &virgin,
                    src,
                    ready,
                    dst,
                    Some(deadline),
                    deadline,
                    &mut txn,
                    scratch,
                );
                txn.rollback(mrrg);
                found
            };
            let first = attempt(&mut shared, &mut mrrg);
            let again = attempt(&mut RouterScratch::default(), &mut mrrg);
            match (&first, &again) {
                (Some(a), Some(b)) => {
                    let lb = ready + (cfg.manhattan(src, dst) as u64).saturating_sub(1);
                    assert!(
                        lb <= a.arrival && a.arrival <= deadline,
                        "arrival {} outside [{lb}, {deadline}]",
                        a.arrival
                    );
                    assert_eq!(a.arrival, b.arrival);
                    assert_eq!(a.hops, b.hops);
                    found_any += 1;
                }
                (None, None) => {}
                _ => panic!("same route call disagreed across scratches"),
            }
        }
        assert!(found_any > 50, "only {found_any} routes found");
    }

    #[test]
    fn ready_past_horizon_fails_cleanly() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 1);
        assert!(route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            80,
            dst,
            Some(3),
            3,
            &mut txn,
            &mut scratch,
        )
        .is_none());
    }

    #[test]
    fn slow_tile_departures_are_phase_aligned() {
        let cfg = CgraConfig::square(4).unwrap();
        let mut mrrg = Mrrg::new(&cfg, 4).unwrap();
        let mut rates = vec![1u32; cfg.tile_count()];
        let virgin = vec![false; cfg.tile_count()];
        let src = cfg.tile_at(0, 0);
        rates[src.index()] = 4; // rest tile
        let dst = cfg.tile_at(0, 1);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        // Value ready at 4 (one rest cycle in), link transfer spans 4..8.
        let r = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            4,
            dst,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(r.hops[0].depart % 4, 0);
        assert_eq!(r.arrival, r.hops[0].depart + 4);
    }

    #[test]
    fn rollback_restores_mrrg() {
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut txn = Txn::default();
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(0, 0);
        let dst = cfg.tile_at(0, 2);
        route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            0,
            dst,
            None,
            64,
            &mut txn,
            &mut scratch,
        )
        .unwrap();
        assert!(!mrrg.link_free(src, Dir::East, 0, 1));
        txn.rollback(&mut mrrg);
        assert!(mrrg.link_free(src, Dir::East, 0, 1));
        for t in cfg.tiles() {
            assert_eq!(mrrg.link_busy_cycles(t), 0);
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_searches() {
        // The same scratch must not leak visited/frontier state between
        // calls: two identical searches return identical routes.
        let (cfg, mut mrrg, rates, virgin) = setup(4);
        let mut scratch = RouterScratch::default();
        let src = cfg.tile_at(2, 0);
        let dst = cfg.tile_at(0, 2);
        let mut txn1 = Txn::default();
        let a = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            2,
            dst,
            None,
            64,
            &mut txn1,
            &mut scratch,
        )
        .unwrap();
        txn1.rollback(&mut mrrg);
        let mut txn2 = Txn::default();
        let b = route(
            &cfg,
            &mut mrrg,
            &rates,
            &virgin,
            src,
            2,
            dst,
            None,
            64,
            &mut txn2,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.arrival, b.arrival);
        assert_eq!(a.hops, b.hops);
    }
}
