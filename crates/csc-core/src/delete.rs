//! Decremental maintenance: edge deletion (Section V-C), batched.
//!
//! Deleting `(a, b)` removes the bipartite edge `(a_o, b_i)`. Unlike
//! insertion, a deletion can *grow* distances, which both invalidates
//! existing entries and creates brand-new hub relationships (a vertex can
//! become the highest-ranked one on a replacement shortest path it was
//! never maximal on before). The implementation repairs a whole *window*
//! of deletions at once — [`CscIndex::remove_edge`] is the one-edge
//! window — and splits the affected hubs into two regimes, classified
//! once per window:
//!
//! * **Count-repair hubs** — hubs `v` whose distance to every crossed
//!   endpoint is *unchanged* after the window (a surviving equally-short
//!   route splices into any path that crossed a deleted edge, so *every*
//!   distance from `v` is unchanged — the splicing argument applies to
//!   the last deleted edge on a path, so it survives batching). Such hubs
//!   can gain no new hub roles; they only lose the shortest paths that
//!   crossed deleted edges. Those are subtracted by **one** multi-source
//!   resumed BFS per hub side (`repair::multi_source_subtract`), merging
//!   the cones of every deleted edge the hub crosses: seeded with the
//!   hub's *pre-window* label entries at the deleted tails (the
//!   last-old-edge decomposition counts every vanished path exactly once;
//!   see the pass docs), propagating below-`v` suffix counts through a
//!   bucket queue, and decrementing each reached entry whose stored
//!   distance matches. An entry whose count reaches zero is removed.
//! * **Re-label hubs** — hubs whose distance to some crossed endpoint
//!   grew (detected exactly with pre/post-window BFS from the endpoints;
//!   the post sweeps are truncated at the pre-sweep eccentricity, which
//!   classifies every vertex without walking the post-deletion tail).
//!   Such a hub side is repaired inside its *affected region* only, once
//!   for the whole window, in descending rank order (below).
//!
//! **The affected region.** For a demoted forward side of hub `h` the
//! region `R_h` holds the vertices `x` with
//! `sd(h, a_o) + 1 + sd(b_i, x) ≤ d_L(h, x)` for some deleted edge
//! `(a_o, b_i)`: the left side is the shortest pre-window walk from `h`
//! to `x` over that edge, from the classification sweeps, and `d_L` is
//! the label distance over the hubs ranked at or above `h` (the hub cache
//! of `L_out(h)` against `L_in(x)`), read before any label changes. The
//! backward side mirrors it with `sd(x, a_o) + 1 + sd(b_i, h)` against
//! `d_L(x, h)`. Label distances never under-estimate, so `R_h` holds
//! every vertex some pre-window shortest path from `h` reaches over a
//! deleted edge. Every such vertex lies on a chain from the far end of
//! the last deleted edge its path crosses, each step one hop longer, so
//! the region is grown from each `b_i` (`a_o` backward) along those
//! steps, through vertices of any rank.
//!
//! **Exactness.** Outside `R_h` no pre-window shortest path from `h`
//! crossed a deleted edge, so none vanished, distances stayed, and —
//! the graph only lost edges — none appeared: `h`'s entries there are
//! final. Inside `R_h`, every post-window `h`-maximal shortest path
//! splits at its last vertex `p` outside `R_h`, and `h`'s entry
//! `(d_p, c_p)` there counts its prefixes exactly. So the re-label
//! removes `h`'s entries inside `R_h` and runs one
//! `repair::multi_source_pass` that never leaves `R_h`, seeded with
//! `(q, d_p + 1, c_p)` for each post-window edge `p -> q` from outside
//! into `R_h` below `h`: it re-inserts exactly `h`'s entries there, the
//! dual of the insertion engine's first-new-edge decomposition. The
//! descending rank order keeps the pass's pruning exact: it consults
//! only hubs ranked above `h`, which are unaffected, already re-labeled,
//! or only count-repaired (distances untouched).
//!
//! **Why the superset is safe.** `d_L` is exact on the pairs the
//! couple-skipped index covers, which includes every pair whose vertex
//! other than `h` ranks below `h`; elsewhere — a `V_out` vertex that
//! outranks everything on its path to `h` — it can only over-estimate.
//! An over-estimate only adds vertices to `R_h`, and the argument above
//! needs no more than "`R_h` contains every crossed vertex and not `h`":
//! a vertex added in excess has its entry removed and then re-inserted
//! unchanged. The same holds for a count-repair side demoted for
//! saturated counts (below), whose region is grown after the hubs above
//! it were repaired.
//!
//! **Cost.** The superset rule — evaluated against the union of the
//! window's edges, so each carrier list is scanned once per hub side, and
//! widened from "stored distance equals a crossing-path length" to "is
//! at least one" (see below) — removes every entry inside `R_h`, since
//! `d_L(h, x)` is at most `h`'s own entry at `x`. The same scan checks
//! whether any surviving entry borders a crossing walk below the hub (a
//! seed's `q` has a crossing length of at most `d_p + 1`); a side with no
//! such entry re-inserts nothing and its region is never grown. The
//! passes then walk the regions below their hubs instead of the hubs'
//! whole search spaces. A window whose grown regions together exceed
//! [`REBUILD_FALLBACK_REGION_MULTIPLE`] times the bipartite vertex count
//! stops growing them and rebuilds every label under the existing rank
//! order instead — exact by construction. On the `BENCH_delete.json`
//! workload that budget sends the windows of 8+ deletions to the
//! rebuild; single-edge and sparse windows take the region path.
//!
//! The crossing lengths come from plain BFS traversals from the edge
//! endpoints, not from index lookups: the couple-skipped index does not
//! cover `V_out`-source pairs whose maximum is the source itself, and an
//! over-estimated crossing length could silently skip a stale entry. The
//! sweeps run through the index's pooled
//! [`TraversalWorkspace`](csc_graph::TraversalWorkspace) (endpoints
//! shared by several window edges are swept once) and stay allocation-free
//! in the steady state.
//!
//! A count-repair pass that meets a saturated (24-bit-capped) count cannot
//! subtract reliably; the hub is then demoted to the re-label regime for
//! that side, preserving exactness.
//!
//! **Dominated leftovers.** Under the default redundancy strategy an
//! insertion that shortens a hub's distance to `x` may leave the old,
//! longer entry at `x` in place (the insertion pass is pruned before it
//! reaches `x`). Such an entry is harmless only while a shorter route
//! exists: if a later deletion removes that route and lengthens the
//! hub's distances, an entry still counting a path through the deleted
//! edge would undercut the true distance and report a phantom cycle. The
//! widened superset rule removes every such entry of a re-label hub — the
//! path it counts is at least as long as some crossing path — and the
//! region re-label restores whatever is still canonical. Count-repair hubs
//! keep their leftovers: their distances do not change, so the leftovers
//! stay dominated.
//!
//! Multi-edge windows are equivalent to the one-at-a-time path at the
//! query level (canonical entries are identical; the dominated leftovers
//! may differ, but label distances never under-estimate either way), and
//! single-edge windows take the identical code path from both
//! [`remove_edge`](CscIndex::remove_edge) and
//! [`apply_batch`](CscIndex::apply_batch), so the scalar/batch
//! label-identity contract is preserved by construction. The
//! `batch_equivalence` suite pins both down.

use crate::build::{build_labels, TraversalCounters};
use crate::config::UpdateStrategy;
use crate::error::CscError;
use crate::index::CscIndex;
use crate::invert::InvertedIndex;
use crate::repair::{
    fill_hub_cache, multi_source_pass, multi_source_subtract, Direction, Seed, SubtractOutcome,
};
use crate::stats::UpdateReport;
use csc_graph::bipartite::{in_vertex, is_in_vertex, out_vertex};
use csc_graph::{
    Csr, DiGraph, DistMap, GraphError, RankTable, SweepHandle, SweepMaps, VertexId, UNREACHED,
};
use csc_labeling::{HubCache, LabelSide, LabelingError, Labels, SearchState};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// When the affected regions of a window's re-label hub sides hold more
/// than this many vertices per bipartite vertex in total,
/// `repair_deletions` rebuilds every label from scratch under the
/// existing rank order instead of re-labeling the regions one by one.
const REBUILD_FALLBACK_REGION_MULTIPLE: usize = 6;

/// Window-level accounting the batch engine surfaces in
/// [`BatchReport`](crate::BatchReport).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DeletionRepairStats {
    /// Distinct (hub, side) repair passes across the window — subtraction
    /// passes plus region re-labels. The per-edge sum this replaces is
    /// `affected_hubs`-shaped and grows with the window size; this union
    /// does not.
    pub hub_union: usize,
    /// Hub caches filled (one per merged subtraction pass).
    pub cache_fills: usize,
    /// Seeds served by an already-filled hub cache — edges whose
    /// subtraction merged into an existing pass instead of refilling.
    pub cache_hits: usize,
}

/// The per-edge sweep handles resolved against the workspace pool: every
/// distance condition of the window reads through these six maps.
struct EdgeSweeps<'a> {
    ao: VertexId,
    bi: VertexId,
    /// `sd_pre(·, a_o)` (backward sweep, window edges still present).
    to_ao: &'a DistMap,
    /// `sd_pre(·, b_i)`.
    to_bi: &'a DistMap,
    /// `sd_pre(b_i, ·)`.
    from_bi: &'a DistMap,
    /// `sd_pre(a_o, ·)`.
    from_ao: &'a DistMap,
    /// `sd_post(·, b_i)`, truncated at `to_bi`'s eccentricity.
    to_bi_post: &'a DistMap,
    /// `sd_post(a_o, ·)`, truncated at `from_ao`'s eccentricity.
    from_ao_post: &'a DistMap,
}

/// Resolves each removed edge's six sweep handles against the map pool.
fn resolve_views<'a>(
    maps: SweepMaps<'a>,
    removals: &[(VertexId, VertexId)],
    pre: &HashMap<(u32, bool), SweepHandle>,
    post: &HashMap<(u32, bool), SweepHandle>,
) -> Vec<EdgeSweeps<'a>> {
    removals
        .iter()
        .map(|&(a, b)| {
            let (ao, bi) = (out_vertex(a), in_vertex(b));
            EdgeSweeps {
                ao,
                bi,
                to_ao: maps.map(pre[&(ao.0, false)]),
                to_bi: maps.map(pre[&(bi.0, false)]),
                from_bi: maps.map(pre[&(bi.0, true)]),
                from_ao: maps.map(pre[&(ao.0, true)]),
                to_bi_post: maps.map(post[&(bi.0, false)]),
                from_ao_post: maps.map(post[&(ao.0, true)]),
            }
        })
        .collect()
}

/// One deleted edge seen from a hub side: the crossing-walk length up to
/// and over the edge (`sd(h, a_o) + 1` for in-labels, `sd(b_i, h) + 1`
/// for out-labels), the far endpoint where the walk continues (`b_i`,
/// resp. `a_o`), and the pre-window distances onward from it (`sd(b_i, ·)`,
/// resp. `sd(·, a_o)`).
type Crossing<'a> = (u32, VertexId, &'a DistMap);

/// Collects the window's crossings for a hub side whose pass writes
/// `side`, skipping the deleted edges the hub does not reach. All
/// distances are pre-window.
fn crossings<'a>(views: &[EdgeSweeps<'a>], side: LabelSide, hub: VertexId) -> Vec<Crossing<'a>> {
    views
        .iter()
        .filter_map(|ev| {
            let (dh, start, onward) = match side {
                LabelSide::In => (ev.to_ao.get(hub), ev.bi, ev.from_bi),
                LabelSide::Out => (ev.from_bi.get(hub), ev.ao, ev.to_ao),
            };
            match dh {
                UNREACHED => None,
                dh => Some((dh + 1, start, onward)),
            }
        })
        .collect()
}

/// The length of the shortest pre-window walk between the hub and `x` that
/// crosses a deleted edge ([`UNREACHED`] when none does).
#[inline]
fn crossing_len(conds: &[Crossing<'_>], x: VertexId) -> u32 {
    conds
        .iter()
        .filter_map(|&(dh1, _, onward)| match onward.get(x) {
            UNREACHED => None,
            dx => Some(dh1 + dx),
        })
        .min()
        .unwrap_or(UNREACHED)
}

/// Grows hub side `(hub, direction)`'s affected region into `region`,
/// sorted on return: the vertices `x` whose shortest crossing walk is no
/// longer than the label distance `d_L` between the hub and `x` (see the
/// [module docs](self)). Growth starts at the deleted edges' far
/// endpoints (`b_i` forward, `a_o` backward) and follows the post-window
/// graph through admitted vertices of any rank, along the edges that
/// extend a shortest crossing walk by one: every vertex of the region a
/// crossing shortest path reaches lies on such a chain from the far end
/// of the last deleted edge the path crosses. Returns `false`, unfinished,
/// once the region would hold more than `budget` vertices.
#[allow(clippy::too_many_arguments)]
fn grow_region(
    graph: &DiGraph,
    labels: &Labels,
    state: &mut SearchState,
    cache: &mut HubCache,
    conds: &[Crossing<'_>],
    direction: Direction,
    hub: VertexId,
    rank: u32,
    budget: usize,
    region: &mut Vec<u32>,
) -> bool {
    let (own_side, side) = direction.sides();
    fill_hub_cache(labels, cache, hub, rank, own_side);
    // `x` is admitted unless a label route is strictly shorter than its
    // shortest crossing walk `cross`; the scan stops at the first such
    // route (the same prefix `covered_dist` scans).
    let admit = |x: VertexId, cross: u32| {
        !labels
            .side_of(x, side)
            .iter()
            .take_while(|e| e.hub_rank() <= rank)
            .any(|e| {
                cache
                    .get(e.hub_rank())
                    .is_some_and(|(dh, _)| dh + e.dist() < cross)
            })
    };
    // `state` marks every tested vertex, holding its crossing length;
    // admitted ones go to `region`, which doubles as the FIFO.
    state.reset();
    region.clear();
    for &(_, start, _) in conds {
        let cross = crossing_len(conds, start);
        if cross != UNREACHED && !state.visited(start) {
            state.visit(start, cross, 0);
            if admit(start, cross) {
                region.push(start.0);
            }
        }
    }
    let mut head = 0usize;
    while head < region.len() {
        if region.len() > budget {
            return false;
        }
        let w = VertexId(region[head]);
        head += 1;
        let next = state.dist[w.index()] + 1;
        let nbrs = match direction {
            Direction::Forward => graph.nbr_out(w),
            Direction::Backward => graph.nbr_in(w),
        };
        for &u in nbrs {
            let u = VertexId(u);
            if !state.visited(u) && crossing_len(conds, u) == next {
                state.visit(u, next, 0);
                if admit(u, next) {
                    region.push(u.0);
                }
            }
        }
    }
    if region.len() > budget {
        return false;
    }
    region.sort_unstable();
    true
}

/// One re-label hub side's work, prepared from the pre-window labels.
struct SideRepair {
    /// Phase B: the carriers whose entry is stale.
    stale: Vec<u32>,
    /// Phase C: the affected region, sorted, or `None` when no surviving
    /// entry can seed it — then the side re-inserts nothing.
    region: Option<Vec<u32>>,
}

/// Prepares hub side `(hub, direction)`: scans its carriers for stale
/// entries and, unless `filter_seeds` finds no surviving entry that could
/// seed the re-label, grows its region. Every Phase C seed crosses an edge
/// from a surviving carrier `p` to a region vertex `q` below the hub, and
/// since `q` lies on a crossing shortest path, its crossing length is at
/// most `d_p + 1`; the filter looks for such an edge. Returns `None` when
/// the region overran `budget`.
#[allow(clippy::too_many_arguments)]
fn prepare_side(
    graph: &DiGraph,
    ranks: &RankTable,
    labels: &Labels,
    inverted: &Option<InvertedIndex>,
    state: &mut SearchState,
    cache: &mut HubCache,
    views: &[EdgeSweeps<'_>],
    direction: Direction,
    hub: VertexId,
    rank: u32,
    filter_seeds: bool,
    budget: usize,
    report: &mut UpdateReport,
) -> Option<SideRepair> {
    let (_, side) = direction.sides();
    let conds = crossings(views, side, hub);
    let mut work = SideRepair {
        stale: Vec::new(),
        region: None,
    };
    if conds.is_empty() {
        return Some(work);
    }
    let mut seeded = !filter_seeds;
    // No crossing walk is shorter than the nearest deleted edge's.
    let nearest = conds
        .iter()
        .map(|&(dh1, _, _)| dh1)
        .min()
        .unwrap_or(UNREACHED);
    let mut scan = |p: u32| {
        let Some(e) = labels.entry_for(VertexId(p), side, rank) else {
            return;
        };
        if crossing_len(&conds, VertexId(p)) <= e.dist() {
            work.stale.push(p);
        } else if !seeded && e.dist() + 1 >= nearest {
            let onward = match direction {
                Direction::Forward => graph.nbr_out(VertexId(p)),
                Direction::Backward => graph.nbr_in(VertexId(p)),
            };
            seeded = onward.iter().any(|&q| {
                ranks.rank(VertexId(q)) > rank && crossing_len(&conds, VertexId(q)) <= e.dist() + 1
            });
        }
    };
    match inverted {
        Some(inv) => {
            report.carriers_indexed += 1;
            inv.carriers(side, rank).iter().for_each(|&p| scan(p));
        }
        None => {
            report.carriers_scanned += 1;
            (0..labels.vertex_count() as u32).for_each(scan);
        }
    }
    if seeded {
        let mut region = Vec::new();
        if !grow_region(
            graph,
            labels,
            state,
            cache,
            &conds,
            direction,
            hub,
            rank,
            budget,
            &mut region,
        ) {
            return None;
        }
        work.region = Some(region);
    }
    Some(work)
}

impl CscIndex {
    /// Removes the edge `(a, b)` from the graph and decrementally repairs
    /// the index (a one-edge window of the batched deletion engine).
    ///
    /// # Errors
    ///
    /// Graph errors (missing edge, out-of-range endpoints) leave the index
    /// untouched. A labeling capacity overflow mid-update poisons the index.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<UpdateReport, CscError> {
        self.check_ready()?;
        let n = self.original_vertex_count();
        for v in [a, b] {
            if v.index() >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n }.into());
            }
        }
        if !self.gb.graph().has_edge(out_vertex(a), in_vertex(b)) {
            return Err(GraphError::MissingEdge(a, b).into());
        }
        let start = Instant::now();
        let mut report = UpdateReport::default();
        if let Err(e) = self.repair_deletions(&[(a, b)], &mut report) {
            self.poison(format!("label overflow during remove_edge({a}, {b}): {e}"));
            return Err(e.into());
        }
        report.duration = start.elapsed();
        self.stats.deletions += 1;
        self.stats.entries_added += report.entries_inserted;
        self.stats.entries_removed += report.entries_removed;
        Ok(report)
    }

    /// Removes a window of original edges from the graph and repairs the
    /// index once for the lot (see the [module docs](self)). Every edge
    /// must be present and distinct — callers validate.
    pub(crate) fn repair_deletions(
        &mut self,
        removals: &[(VertexId, VertexId)],
        report: &mut UpdateReport,
    ) -> Result<DeletionRepairStats, LabelingError> {
        let mut stats = DeletionRepairStats::default();
        if removals.is_empty() {
            return Ok(stats);
        }
        let t_classify = Instant::now();

        // ---- Endpoint sweeps, pre and post window. -----------------------
        // Pre maps are keyed by (vertex, direction) so endpoints shared by
        // several window edges are swept once.
        let n = self.gb.graph().vertex_count();
        self.sweeps.ensure(n);
        self.sweeps.release_all();
        self.workspace.ensure(n);
        let mut pre: HashMap<(u32, bool), csc_graph::SweepHandle> = HashMap::new();
        {
            let CscIndex {
                ref gb,
                ref mut sweeps,
                ..
            } = *self;
            let graph = gb.graph();
            for &(a, b) in removals {
                let (ao, bi) = (out_vertex(a), in_vertex(b));
                for (v, forward) in [(ao, false), (ao, true), (bi, false), (bi, true)] {
                    pre.entry((v.0, forward))
                        .or_insert_with(|| sweeps.bfs(graph, v, forward));
                }
            }
        }
        for &(a, b) in removals {
            self.gb
                .remove_original_edge(a, b)
                .expect("caller verified the edge exists");
        }
        let mut post: HashMap<(u32, bool), csc_graph::SweepHandle> = HashMap::new();
        {
            let CscIndex {
                ref gb,
                ref mut sweeps,
                ..
            } = *self;
            let graph = gb.graph();
            for &(a, b) in removals {
                let (ao, bi) = (out_vertex(a), in_vertex(b));
                // Only the distances that can *grow* need a post sweep, and
                // truncating at the pre-sweep eccentricity still classifies
                // every vertex (unchanged distances are ≤ the bound; a
                // truncated vertex is by definition grown).
                for (v, forward) in [(bi, false), (ao, true)] {
                    post.entry((v.0, forward)).or_insert_with(|| {
                        let bound = sweeps.map(pre[&(v.0, forward)]).max_dist();
                        sweeps.bfs_bounded(graph, v, forward, bound)
                    });
                }
            }
        }

        // ---- Classify V_in hubs into the two regimes, once per window. ---
        // rank -> (forward grown, backward grown); BTreeMap so later phases
        // run in descending rank order (ascending rank value).
        let mut relabel: BTreeMap<u32, (bool, bool)> = BTreeMap::new();
        // rank -> (forward seeds, backward seeds) for the merged
        // subtraction passes, snapshotted from the pre-window labels.
        let mut subtract: BTreeMap<u32, (Vec<Seed>, Vec<Seed>)> = BTreeMap::new();
        {
            let graph = self.gb.graph();
            let (maps, _) = self.sweeps.split_mut();
            let views = resolve_views(maps, removals, &pre, &post);
            for v in 0..graph.vertex_count() {
                let vid = VertexId(v as u32);
                if !is_in_vertex(vid) {
                    continue;
                }
                let (mut cross_f, mut cross_b) = (false, false);
                let (mut grown_f, mut grown_b) = (false, false);
                for ev in &views {
                    let da = ev.to_ao.get(vid);
                    if da != UNREACHED && ev.to_bi.get(vid) == da + 1 {
                        cross_f = true;
                        grown_f |= ev.to_bi_post.get(vid) != da + 1;
                    }
                    let db = ev.from_bi.get(vid);
                    if db != UNREACHED && ev.from_ao.get(vid) == db + 1 {
                        cross_b = true;
                        grown_b |= ev.from_ao_post.get(vid) != db + 1;
                    }
                    if grown_f && grown_b {
                        // Both sides re-label: no seeds will be collected
                        // and the flags cannot change back — stop scanning.
                        break;
                    }
                }
                if !cross_f && !cross_b {
                    continue;
                }
                let rank = self.ranks.rank(vid);
                if grown_f || grown_b {
                    let flags = relabel.entry(rank).or_default();
                    flags.0 |= grown_f;
                    flags.1 |= grown_b;
                }
                // Unchanged-distance sides with a maximal crossing prefix
                // (an exact entry at the deleted tail) need count
                // subtraction; each crossing edge contributes one seed to
                // the hub's merged pass.
                if (cross_f && !grown_f) || (cross_b && !grown_b) {
                    for ev in &views {
                        if cross_f && !grown_f {
                            let da = ev.to_ao.get(vid);
                            if da != UNREACHED && ev.to_bi.get(vid) == da + 1 {
                                if let Some(e) = self.labels.entry_for(ev.ao, LabelSide::In, rank) {
                                    if e.dist() == da {
                                        let seeds = &mut subtract.entry(rank).or_default().0;
                                        seeds.push((ev.bi, e.dist() + 1, e.count()));
                                    }
                                }
                            }
                        }
                        if cross_b && !grown_b {
                            let db = ev.from_bi.get(vid);
                            if db != UNREACHED && ev.from_ao.get(vid) == db + 1 {
                                if let Some(e) = self.labels.entry_for(ev.bi, LabelSide::Out, rank)
                                {
                                    if e.dist() == db {
                                        let seeds = &mut subtract.entry(rank).or_default().1;
                                        seeds.push((ev.ao, e.dist() + 1, e.count()));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let t_region = Instant::now();
        report.classify_time += t_region - t_classify;

        // ---- Re-label preparation, from the pre-window labels. -----------
        // Per re-label hub side: its stale carriers (Phase B) and, when a
        // surviving entry borders it, its affected region (Phase C). A
        // window whose regions together exceed the budget rebuilds every
        // label from the current graph under the *existing* rank order
        // instead: exact by construction (it is the ground truth the
        // equivalence suites compare against), and cheaper once the
        // regions cover several copies of the graph. Dominated leftovers
        // vanish as a bonus. Growth stops as soon as the budget runs out.
        let budget = REBUILD_FALLBACK_REGION_MULTIPLE * self.gb.graph().vertex_count();
        // (rank, forward) -> work; ascending rank is descending importance.
        let mut sides: BTreeMap<(u32, bool), SideRepair> = BTreeMap::new();
        let mut region_total = 0usize;
        let mut overflow = false;
        {
            let graph = self.gb.graph();
            let (maps, _) = self.sweeps.split_mut();
            let views = resolve_views(maps, removals, &pre, &post);
            let (state, cache) = self.workspace.parts_mut();
            // Sides with the fewest carriers first: a window bound for the
            // fallback then overruns the budget before scanning the long
            // carrier lists of the top hubs.
            let mut order: Vec<(usize, u32, bool)> = Vec::new();
            for (&rank, &(fwd, bwd)) in &relabel {
                for (active, side) in [(fwd, LabelSide::In), (bwd, LabelSide::Out)] {
                    if active {
                        let carriers = self
                            .inverted
                            .as_ref()
                            .map_or(0, |inv| inv.carriers(side, rank).len());
                        order.push((carriers, rank, side == LabelSide::In));
                    }
                }
            }
            order.sort_unstable();
            for &(_, rank, forward) in &order {
                let direction = if forward {
                    Direction::Forward
                } else {
                    Direction::Backward
                };
                let Some(work) = prepare_side(
                    graph,
                    &self.ranks,
                    &self.labels,
                    &self.inverted,
                    state,
                    cache,
                    &views,
                    direction,
                    self.ranks.vertex_at_rank(rank),
                    rank,
                    true,
                    budget - region_total,
                    report,
                ) else {
                    overflow = true;
                    break;
                };
                region_total += work.region.as_ref().map_or(0, Vec::len);
                sides.insert((rank, forward), work);
            }
        }
        let mut region_time = t_region.elapsed();
        if overflow {
            return self.fall_back(report, region_time, stats, &relabel);
        }
        let t_subtract = Instant::now();

        let CscIndex {
            ref gb,
            ref ranks,
            ref mut labels,
            ref mut inverted,
            ref mut workspace,
            ref mut sweeps,
            ..
        } = *self;
        let graph = gb.graph();
        let (maps, buckets) = sweeps.split_mut();
        let views = resolve_views(maps, removals, &pre, &post);

        // ---- Phase A: merged count-repair passes (may demote). -----------
        let (state, cache) = workspace.parts_mut();
        let mut demoted_prep = Duration::ZERO;
        for (&rank, (fwd_seeds, bwd_seeds)) in &subtract {
            let vk = ranks.vertex_at_rank(rank);
            for (seeds, direction) in [
                (fwd_seeds, Direction::Forward),
                (bwd_seeds, Direction::Backward),
            ] {
                if seeds.is_empty() {
                    continue;
                }
                report.affected_hubs += 1;
                stats.hub_union += 1;
                stats.cache_fills += 1;
                stats.cache_hits += seeds.len() - 1;
                let outcome = multi_source_subtract(
                    graph, ranks, labels, inverted, state, cache, buckets, direction, rank, vk,
                    seeds, report,
                );
                if matches!(outcome, SubtractOutcome::Demote) && !overflow {
                    // Saturated counts: re-label this hub side. The hubs
                    // above it may already be repaired, which can only
                    // lengthen label distances: the region grows into a
                    // superset, which stays exact but voids the seed
                    // pre-check, so the region is always grown.
                    let t_prep = Instant::now();
                    match prepare_side(
                        graph,
                        ranks,
                        labels,
                        inverted,
                        state,
                        cache,
                        &views,
                        direction,
                        vk,
                        rank,
                        false,
                        budget - region_total,
                        report,
                    ) {
                        Some(work) => {
                            region_total += work.region.as_ref().map_or(0, Vec::len);
                            sides.insert((rank, direction == Direction::Forward), work);
                        }
                        None => overflow = true,
                    }
                    let flags = relabel.entry(rank).or_default();
                    match direction {
                        Direction::Forward => flags.0 = true,
                        Direction::Backward => flags.1 = true,
                    }
                    demoted_prep += t_prep.elapsed();
                }
            }
        }
        let t_relabel = Instant::now();
        report.subtract_time += t_relabel - t_subtract - demoted_prep;
        region_time += demoted_prep;
        if overflow {
            return self.fall_back(report, region_time, stats, &relabel);
        }
        report.affected_hubs += relabel.len();
        stats.hub_union += sides.len();

        // ---- Phase B: superset deletion for re-label hubs. ----------------
        // Every entry the preparation found stale goes: its stored distance
        // is at least a crossing-path length through *some* deleted edge.
        // Equality is the paper's rule, and it takes every entry inside the
        // side's region. A longer stored distance marks a dominated
        // leftover of an earlier insertion (redundancy strategy): it was
        // never canonical, but the path it counts may have crossed the
        // deleted edge, and once the hub's distances grow it would undercut
        // the true distance. Phase C restores every canonical entry.
        for (&(rank, forward), work) in &sides {
            let side = if forward {
                LabelSide::In
            } else {
                LabelSide::Out
            };
            for &x in &work.stale {
                labels.remove(VertexId(x), side, rank);
                if let Some(inv) = inverted {
                    inv.remove(side, rank, VertexId(x));
                }
                report.entries_removed += 1;
            }
        }

        // ---- Phase C: re-label each region, in descending rank order. -----
        // Outside its region a hub's entries are already final, so every
        // post-window hub-maximal shortest path into the region is seeded
        // at its last vertex p outside: one seed (q, d_p + 1, c_p) per
        // edge p -> q that enters the region below the hub. The pass never
        // leaves the region. It never cleans: mid-window label distances
        // are not final, so it runs as a redundancy-strategy pass (which
        // also enables couple skipping) under either strategy. A hub's
        // two sides write disjoint lists, so their order does not matter.
        let mut seeds: Vec<Seed> = Vec::new();
        for (&(rank, forward), work) in &sides {
            let Some(region) = &work.region else {
                continue;
            };
            let direction = if forward {
                Direction::Forward
            } else {
                Direction::Backward
            };
            let (_, side) = direction.sides();
            seeds.clear();
            for &q in region {
                let q = VertexId(q);
                debug_assert!(labels.entry_for(q, side, rank).is_none());
                if ranks.rank(q) <= rank {
                    continue;
                }
                let entering = if forward {
                    graph.nbr_in(q)
                } else {
                    graph.nbr_out(q)
                };
                for &p in entering {
                    if region.binary_search(&p).is_err() {
                        if let Some(e) = labels.entry_for(VertexId(p), side, rank) {
                            seeds.push((q, e.dist() + 1, e.count()));
                        }
                    }
                }
            }
            if seeds.is_empty() {
                continue;
            }
            multi_source_pass(
                graph,
                ranks,
                labels,
                inverted,
                state,
                cache,
                buckets,
                UpdateStrategy::Redundancy,
                direction,
                rank,
                ranks.vertex_at_rank(rank),
                &seeds,
                Some(region),
                report,
            )?;
        }
        report.relabel_time += region_time + t_relabel.elapsed();
        self.sweeps.release_all();
        Ok(stats)
    }

    /// Takes the rebuild fallback for a window whose regions overran the
    /// budget, charging the rebuild and the `region_time` spent growing
    /// regions to the re-label phase.
    fn fall_back(
        &mut self,
        report: &mut UpdateReport,
        region_time: Duration,
        mut stats: DeletionRepairStats,
        relabel: &BTreeMap<u32, (bool, bool)>,
    ) -> Result<DeletionRepairStats, LabelingError> {
        let t_rebuild = Instant::now();
        let result = self.rebuild_after_window(report);
        report.relabel_time += region_time + t_rebuild.elapsed();
        self.sweeps.release_all();
        stats.hub_union += relabel
            .values()
            .map(|&(f, b)| usize::from(f) + usize::from(b))
            .sum::<usize>();
        result.map(|()| stats)
    }

    /// The overwhelming-window fallback: rebuilds every label from the
    /// current (post-removal) graph under the existing rank order — the
    /// exact static construction, so the result is correct by definition —
    /// and swaps it in, refreshing the inverted index.
    fn rebuild_after_window(&mut self, report: &mut UpdateReport) -> Result<(), LabelingError> {
        let csr = Csr::from_digraph(self.gb.graph());
        let mut counters = TraversalCounters::default();
        let labels = build_labels(&csr, &self.ranks, &mut counters, self.config.parallelism)?;
        report.entries_removed += self.labels.total_entries();
        report.entries_inserted += labels.total_entries();
        report.vertices_visited += counters.dequeues;
        report.rebuild_fallbacks += 1;
        let keep_inverted = self.inverted.is_some() || self.config.maintain_inverted;
        self.labels = labels;
        self.inverted = keep_inverted.then(|| InvertedIndex::from_labels(&self.labels));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CscConfig, UpdateStrategy};
    use csc_graph::generators::{directed_cycle, gnm, layered_cycle};
    use csc_graph::traversal::shortest_cycle_oracle;
    use csc_graph::DiGraph;

    fn assert_queries_match(idx: &CscIndex, g: &DiGraph, context: &str) {
        for v in g.vertices() {
            assert_eq!(
                idx.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(g, v),
                "{context}: SCCnt({v})"
            );
        }
    }

    #[test]
    fn delete_breaks_the_only_cycle() {
        let g = directed_cycle(4);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert!(idx.query(VertexId(0)).is_some());
        let report = idx.remove_edge(VertexId(1), VertexId(2)).unwrap();
        assert!(report.entries_removed > 0);
        for v in g.vertices() {
            assert_eq!(idx.query(v), None, "no cycles remain");
        }
        assert_eq!(idx.original_edge_count(), 3);
        assert_eq!(idx.stats().deletions, 1);
    }

    #[test]
    fn delete_lengthens_shortest_cycles() {
        // Chorded cycle: 0..5 ring plus chord 3 -> 0. Removing the chord
        // restores the length-6 ring as the only cycle.
        let mut g = directed_cycle(6);
        g.try_add_edge(VertexId(3), VertexId(0)).unwrap();
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(VertexId(0)).unwrap().length, 4);
        idx.remove_edge(VertexId(3), VertexId(0)).unwrap();
        let g2 = directed_cycle(6);
        assert_queries_match(&idx, &g2, "after chord removal");
        assert_eq!(idx.query(VertexId(0)).unwrap().length, 6);
    }

    #[test]
    fn delete_reduces_parallel_count() {
        // Two parallel 3-cycles through 0; deleting one leaves the other.
        // This exercises the count-repair (subtraction) regime: distances
        // to the endpoints are unchanged for most hubs.
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(VertexId(0)).unwrap().count, 2);
        idx.remove_edge(VertexId(3), VertexId(4)).unwrap();
        let mut g2 = g.clone();
        g2.try_remove_edge(VertexId(3), VertexId(4)).unwrap();
        assert_queries_match(&idx, &g2, "after breaking one cycle");
        let c = idx.query(VertexId(0)).unwrap();
        assert_eq!((c.length, c.count), (3, 1));
    }

    #[test]
    fn graph_errors_leave_index_clean() {
        let mut idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        let before = idx.total_entries();
        assert!(matches!(
            idx.remove_edge(VertexId(0), VertexId(2)),
            Err(CscError::Graph(GraphError::MissingEdge(..)))
        ));
        assert!(matches!(
            idx.remove_edge(VertexId(0), VertexId(9)),
            Err(CscError::Graph(GraphError::VertexOutOfRange { .. }))
        ));
        assert_eq!(idx.total_entries(), before);
        assert!(!idx.is_poisoned());
        assert_eq!(idx.stats().deletions, 0);
    }

    #[test]
    fn random_deletions_match_oracle() {
        for seed in 0..4 {
            let mut g = gnm(20, 70, seed);
            let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
            let edges = g.edge_vec();
            // Delete every 4th edge, verifying after each.
            for (k, &(u, w)) in edges.iter().enumerate().filter(|(k, _)| k % 4 == 0) {
                g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
                idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
                assert_queries_match(&idx, &g, &format!("seed {seed} deletion {k}"));
            }
            if let Some(inv) = &idx.inverted {
                inv.validate_against(&idx.labels).unwrap();
            }
        }
    }

    #[test]
    fn deletions_without_inverted_index_fall_back_to_scan() {
        // The scalar path honors `with_inverted(false)` with a full-scan
        // carrier lookup (counted in the report); the batched path never
        // scans — it builds the inverted index on demand instead (see
        // `batch.rs`).
        let mut g = gnm(16, 50, 3);
        let config = CscConfig::default().with_inverted(false);
        let mut idx = CscIndex::build(&g, config).unwrap();
        assert!(idx.inverted.is_none());
        let edges = g.edge_vec();
        let mut scanned = 0;
        for &(u, w) in edges.iter().take(10) {
            g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
            let report = idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
            assert_eq!(report.carriers_indexed, 0);
            scanned += report.carriers_scanned;
            assert_queries_match(&idx, &g, "scan fallback");
        }
        assert!(scanned > 0, "re-label hubs exercised the scan fallback");
    }

    #[test]
    fn delete_then_reinsert_roundtrip() {
        // The paper's dynamic experiment: remove random edges, insert them
        // back, and the index must answer like the original graph.
        for seed in [11, 12] {
            let g = gnm(18, 60, seed);
            let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
            let edges = g.edge_vec();
            let removed: Vec<_> = edges.iter().step_by(3).copied().collect();
            for &(u, w) in &removed {
                idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
            }
            for &(u, w) in &removed {
                idx.insert_edge(VertexId(u), VertexId(w)).unwrap();
            }
            assert_queries_match(&idx, &g, &format!("seed {seed} roundtrip"));
        }
    }

    #[test]
    fn minimality_deletion_interplay() {
        let mut g = gnm(15, 45, 21);
        let config = CscConfig::default().with_update_strategy(UpdateStrategy::Minimality);
        let mut idx = CscIndex::build(&g, config).unwrap();
        let edges = g.edge_vec();
        for &(u, w) in edges.iter().take(12) {
            g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
            idx.remove_edge(VertexId(u), VertexId(w)).unwrap();
            assert_queries_match(&idx, &g, "minimality deletions");
        }
        idx.inverted
            .as_ref()
            .unwrap()
            .validate_against(&idx.labels)
            .unwrap();
    }

    #[test]
    fn saturated_counts_demote_to_relabel() {
        // 2^26 shortest cycles saturate the 24-bit counts; deleting an edge
        // must stay exact (demotion path) at the distance level.
        let widths = vec![2usize; 27];
        let g = layered_cycle(&widths);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let c = idx.query(VertexId(0)).unwrap();
        assert_eq!(c.length, widths.len() as u32);
        // Remove one edge of the first layer pair: cycles through vertex 0
        // halve (still saturated) and lengths stay identical.
        idx.remove_edge(VertexId(2), VertexId(4)).unwrap();
        let after = idx.query(VertexId(0)).unwrap();
        assert_eq!(after.length, widths.len() as u32);
        let oracle = shortest_cycle_oracle(&idx.original_graph(), VertexId(0)).unwrap();
        assert_eq!(after.length, oracle.0);
    }

    #[test]
    fn phase_timings_cover_the_deletion() {
        let g = gnm(24, 80, 7);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let (a, b) = g.edge_vec()[3];
        let report = idx.remove_edge(VertexId(a), VertexId(b)).unwrap();
        let phases = report.classify_time + report.subtract_time + report.relabel_time;
        assert!(phases > std::time::Duration::ZERO);
        assert!(phases <= report.duration, "phases nest inside the update");
        assert_eq!(report.carriers_scanned, 0, "default config is indexed");
    }

    #[test]
    fn dominated_leftover_does_not_outlive_its_cycle() {
        // Inserting (23, 11) leaves a dominated entry behind under the
        // redundancy strategy; removing (12, 22) then lengthens the hub's
        // distances, and the leftover must not survive as a phantom
        // 7-cycle through 11 and 12.
        let edges = [
            (1, 23),
            (8, 25),
            (11, 12),
            (12, 22),
            (17, 21),
            (19, 11),
            (20, 0),
            (21, 11),
            (22, 8),
            (22, 23),
            (23, 25),
            (24, 23),
            (25, 17),
        ];
        let mut g = DiGraph::from_edges(26, edges.to_vec());
        let mut scalar = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut batched = scalar.clone();
        let ops = [
            (false, 20, 0),
            (false, 19, 11),
            (true, 23, 11),
            (false, 12, 22),
        ];
        for (insert, a, b) in ops {
            let (a, b) = (VertexId(a), VertexId(b));
            let update = if insert {
                g.try_add_edge(a, b).unwrap();
                scalar.insert_edge(a, b).unwrap();
                crate::GraphUpdate::InsertEdge(a, b)
            } else {
                g.try_remove_edge(a, b).unwrap();
                scalar.remove_edge(a, b).unwrap();
                crate::GraphUpdate::RemoveEdge(a, b)
            };
            batched.apply_batch(&[update]).unwrap();
            assert_queries_match(&scalar, &g, &format!("scalar after {update:?}"));
            assert_queries_match(&batched, &g, &format!("batch after {update:?}"));
        }
        assert_eq!(scalar.query(VertexId(11)), None);
        assert_eq!(batched.query(VertexId(12)), None);
    }

    #[test]
    fn relabel_stays_inside_the_affected_region() {
        // Vertex 0 sits on 64 two-cycles, so it ranks first and its
        // search space is the whole graph. Deleting (65, 66) lengthens its
        // paths only to the tail 66 -> 67 -> 68 (the bypass
        // 0 -> 69 -> 70 -> 66 keeps the tail one hop further away), and
        // the cycle 0 -> 65 -> 66 -> 67 -> 68 -> 0 grows from 5 to 6 hops.
        let mut edges: Vec<(u32, u32)> = (1..=64).flat_map(|i| [(0, i), (i, 0)]).collect();
        edges.extend([(0, 65), (65, 66), (66, 67), (67, 68), (68, 0)]);
        edges.extend([(0, 69), (69, 70), (70, 66)]);
        let mut g = DiGraph::from_edges(71, edges);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(VertexId(67)).unwrap().length, 5);
        let report = idx.remove_edge(VertexId(65), VertexId(66)).unwrap();
        g.try_remove_edge(VertexId(65), VertexId(66)).unwrap();
        assert_queries_match(&idx, &g, "after the tail deletion");
        assert_eq!(idx.query(VertexId(67)).unwrap().length, 6);
        assert_eq!(report.rebuild_fallbacks, 0);
        assert!(
            report.vertices_visited <= 16,
            "the re-label walked {} vertices; a whole-cone sweep of vertex 0 walks every one",
            report.vertices_visited
        );
    }

    #[test]
    fn window_repair_matches_sequential_deletions() {
        // The windowed engine against one-at-a-time application of the
        // same removals, on every query.
        for seed in [3u64, 19, 40] {
            let g = gnm(22, 88, seed);
            let base = CscIndex::build(&g, CscConfig::default()).unwrap();
            let removals: Vec<(VertexId, VertexId)> = g
                .edge_vec()
                .iter()
                .step_by(5)
                .map(|&(u, w)| (VertexId(u), VertexId(w)))
                .collect();

            let mut windowed = base.clone();
            let mut report = UpdateReport::default();
            windowed.repair_deletions(&removals, &mut report).unwrap();
            let mut sequential = base;
            for &(u, w) in &removals {
                sequential.remove_edge(u, w).unwrap();
            }
            let g_final = sequential.original_graph();
            assert_eq!(windowed.original_graph(), g_final);
            for v in g_final.vertices() {
                assert_eq!(
                    windowed.query(v),
                    sequential.query(v),
                    "seed {seed}: SCCnt({v})"
                );
            }
            assert_queries_match(&windowed, &g_final, &format!("seed {seed} window"));
            if let Some(inv) = &windowed.inverted {
                inv.validate_against(&windowed.labels).unwrap();
            }
        }
    }
}
