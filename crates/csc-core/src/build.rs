//! CSC index construction: Algorithms 3–4 (bipartite hub labeling with
//! couple-vertex skipping).
//!
//! Only `V_in` vertices ever act as hubs: on any `v_o ~> v_i` path the
//! highest-ranked vertex is always an incoming vertex, because every
//! interior outgoing vertex is immediately preceded by its (higher-ranked)
//! couple and the source `v_o` is outranked by the target `v_i`. A hub's
//! forward BFS therefore only ever *queues* `V_in` vertices: when `w_i` is
//! dequeued and labeled, its couple `w_o` is labeled in the same step at
//! distance `+1` with the same count (every path into `w_o` runs through
//! `w_i`), and expansion continues from `w_o`'s out-neighbors. The backward
//! BFS mirrors this on `V_out`, with one special case: reaching the hub's
//! own couple `u_o` means a cycle closed back to the hub — the entry goes
//! into `L_out(u_o)` (this is exactly the entry a cycle query reads) and the
//! traversal prunes there, since the only backward continuation would
//! re-enter the hub.

use crate::config::ParallelismConfig;
use crate::parallel::par_map_indexed;
use csc_graph::bipartite::{couple, is_in_vertex};
use csc_graph::{Csr, DiGraph, RankTable, VertexId, WorkspacePool};
use csc_labeling::{HubCache, LabelEntry, LabelSide, LabelingError, Labels, SearchState, INF};

/// Adjacency access abstraction: the static build runs over a cache-friendly
/// [`Csr`] snapshot, while dynamic maintenance traverses the live
/// [`DiGraph`].
pub(crate) trait Adjacency {
    /// Out-neighbors of `v`.
    fn succ(&self, v: VertexId) -> &[u32];
    /// In-neighbors of `v`.
    fn pred(&self, v: VertexId) -> &[u32];
}

impl Adjacency for Csr {
    #[inline]
    fn succ(&self, v: VertexId) -> &[u32] {
        self.nbr_out(v)
    }
    #[inline]
    fn pred(&self, v: VertexId) -> &[u32] {
        self.nbr_in(v)
    }
}

impl Adjacency for DiGraph {
    #[inline]
    fn succ(&self, v: VertexId) -> &[u32] {
        self.nbr_out(v)
    }
    #[inline]
    fn pred(&self, v: VertexId) -> &[u32] {
        self.nbr_in(v)
    }
}

/// Counters for one or more traversals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TraversalCounters {
    pub inserted: usize,
    pub pruned: usize,
    pub dequeues: usize,
    pub canonical: usize,
    pub non_canonical: usize,
    pub saturated: usize,
}

impl TraversalCounters {
    /// Folds another counter set (e.g. one worker's compute-phase
    /// counters) into this one.
    pub(crate) fn merge(&mut self, other: &TraversalCounters) {
        self.inserted += other.inserted;
        self.pruned += other.pruned;
        self.dequeues += other.dequeues;
        self.canonical += other.canonical;
        self.non_canonical += other.non_canonical;
        self.saturated += other.saturated;
    }
}

/// One dequeued vertex of a buffered hub traversal: stands for the label
/// entry `(w, d, c)` plus — couple skipping — the couple's entry at
/// distance `d + 1`, exactly as the direct traversal would have written.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VisitGroup {
    w: VertexId,
    dw: u32,
    cw: u64,
    /// The prune scan tied (`d_idx == dw`) against the compute-time label
    /// view: the entry is non-canonical. Recomputed at commit time when
    /// validation is on.
    tie: bool,
}

/// The reusable couple-skipping traversal engine.
pub(crate) struct CoupleBfs {
    state: SearchState,
    cache: HubCache,
}

impl CoupleBfs {
    pub(crate) fn new(n: usize) -> Self {
        CoupleBfs {
            state: SearchState::new(n),
            cache: HubCache::new(n),
        }
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        self.state.ensure(n);
        self.cache.ensure(n);
    }

    /// Splits the workspace into its BFS state and hub cache (used by the
    /// plain — non-couple-skipping — maintenance passes).
    pub(crate) fn parts_mut(&mut self) -> (&mut SearchState, &mut HubCache) {
        (&mut self.state, &mut self.cache)
    }

    /// Heap bytes held by the BFS state and hub cache (memory-budget
    /// accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.state.heap_bytes() + self.cache.heap_bytes()
    }

    /// Appends one entry — hubs run in rank order, so each hub's rank
    /// exceeds every rank already in the list — and counts it. Returns the
    /// error on capacity overflow.
    #[allow(clippy::too_many_arguments)]
    fn write(
        labels: &mut Labels,
        counters: &mut TraversalCounters,
        v: VertexId,
        side: LabelSide,
        hub: VertexId,
        hub_rank: u32,
        dist: u32,
        count: u64,
    ) -> Result<(), LabelingError> {
        let entry =
            LabelEntry::new(hub_rank, dist, count).map_err(|source| LabelingError::Entry {
                hub,
                vertex: v,
                source,
            })?;
        if entry.count_saturated() {
            counters.saturated += 1;
        }
        labels.append(v, side, entry);
        counters.inserted += 1;
        Ok(())
    }

    /// Forward traversal from `hub` (must be a `V_in` vertex): produces the
    /// in-labels `(hub, d, c)` of every vertex for which `hub` is the
    /// highest-ranked vertex on at least one shortest `hub ~> ·` path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_in(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        labels: &mut Labels,
        counters: &mut TraversalCounters,
        hub: VertexId,
    ) -> Result<(), LabelingError> {
        debug_assert!(is_in_vertex(hub), "hubs must be incoming vertices");
        let hub_rank = ranks.rank(hub);

        // Scatter the hub's out-labels for the O(|label|) distance check.
        self.cache.begin();
        for e in labels.out_of(hub) {
            self.cache.put(e.hub_rank(), e.dist(), e.count());
        }
        self.cache.put(hub_rank, 0, 1);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        state.queue.push_back(hub.0);

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w); // always in V_in
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            // Shortest hub ~> w distance through strictly higher-ranked
            // hubs. Lists are rank-sorted and the cache never holds a rank
            // above the traversal hub's, so the scan stops at the prefix.
            let mut d_idx = INF;
            for e in labels.in_of(w) {
                if e.hub_rank() > hub_rank {
                    break;
                }
                if let Some((dh, _)) = self.cache.get(e.hub_rank()) {
                    d_idx = d_idx.min(dh + e.dist());
                }
            }
            if d_idx < dw {
                counters.pruned += 1;
                continue;
            }
            if d_idx == dw {
                counters.non_canonical += 2;
            } else {
                counters.canonical += 2;
            }

            // Label w and, via couple skipping, its outgoing couple.
            let wo = couple(w);
            Self::write(labels, counters, w, LabelSide::In, hub, hub_rank, dw, cw)?;
            Self::write(
                labels,
                counters,
                wo,
                LabelSide::In,
                hub,
                hub_rank,
                dw + 1,
                cw,
            )?;

            state.visit(wo, dw + 1, cw);
            for &u in graph.succ(wo) {
                let u = VertexId(u); // back in V_in
                if !state.visited(u) {
                    if hub_rank < ranks.rank(u) {
                        state.visit(u, dw + 2, cw);
                        state.queue.push_back(u.0);
                    }
                } else if state.dist[u.index()] == dw + 2 {
                    state.accumulate(u, cw);
                }
            }
        }
        Ok(())
    }

    /// Backward traversal from `hub` (a `V_in` vertex): produces out-labels.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_out(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        labels: &mut Labels,
        counters: &mut TraversalCounters,
        hub: VertexId,
    ) -> Result<(), LabelingError> {
        debug_assert!(is_in_vertex(hub), "hubs must be incoming vertices");
        let hub_rank = ranks.rank(hub);
        let hub_couple = couple(hub);

        self.cache.begin();
        for e in labels.in_of(hub) {
            self.cache.put(e.hub_rank(), e.dist(), e.count());
        }
        self.cache.put(hub_rank, 0, 1);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        counters.dequeues += 1;
        counters.canonical += 1;
        Self::write(labels, counters, hub, LabelSide::Out, hub, hub_rank, 0, 1)?;
        for &xo in graph.pred(hub) {
            let xo = VertexId(xo); // in V_out (self-loops are impossible)
            if hub_rank < ranks.rank(xo) {
                state.visit(xo, 1, 1);
                state.queue.push_back(xo.0);
            }
        }

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w); // always in V_out
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            let mut d_idx = INF;
            for e in labels.out_of(w) {
                if e.hub_rank() > hub_rank {
                    break;
                }
                if let Some((dh, _)) = self.cache.get(e.hub_rank()) {
                    d_idx = d_idx.min(e.dist() + dh);
                }
            }
            if d_idx < dw {
                counters.pruned += 1;
                continue;
            }

            Self::write(labels, counters, w, LabelSide::Out, hub, hub_rank, dw, cw)?;
            if w == hub_couple {
                // The traversal closed a cycle back onto the hub's couple:
                // this entry is the one SCCnt queries read. Continuing
                // backward would re-enter the hub, so prune here.
                counters.canonical += 1;
                continue;
            }
            if d_idx == dw {
                counters.non_canonical += 2;
            } else {
                counters.canonical += 2;
            }

            let wi = couple(w);
            Self::write(
                labels,
                counters,
                wi,
                LabelSide::Out,
                hub,
                hub_rank,
                dw + 1,
                cw,
            )?;
            state.visit(wi, dw + 1, cw);
            for &yo in graph.pred(wi) {
                let yo = VertexId(yo); // in V_out
                if !state.visited(yo) {
                    if hub_rank < ranks.rank(yo) {
                        state.visit(yo, dw + 2, cw);
                        state.queue.push_back(yo.0);
                    }
                } else if state.dist[yo.index()] == dw + 2 {
                    state.accumulate(yo, cw);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Buffered (compute/commit) form of the same traversals.
    //
    // `collect_in` / `collect_out` run the identical BFS against an
    // *immutable* label view and buffer the would-be writes;
    // `commit_in` / `commit_out` apply a buffer to the store. Within one
    // hub's traversal the direct form never reads its own writes (the
    // prune scan at a vertex runs before that vertex's write, couples are
    // never dequeued on their writing side, and the hub cache is
    // scattered once up front), so collect-then-commit over the same
    // label state is behaviorally identical to the direct form.
    //
    // The parallel build waves exploit this: a wave of hubs is
    // collected concurrently against the pre-wave labels, then committed
    // in rank order. Because a wave member's compute view may be missing
    // the writes of same-wave higher-ranked hubs, its pruning can only be
    // *weaker* than sequential (label writes only append entries, so
    // more committed labels mean more pruning, never less). Committing with
    // `validate: true` re-runs the prune scan against the
    // fully-committed prefix and drops every group the sequential pass
    // would have pruned; dropped groups take their whole buffered
    // subtree with them (coverage at a vertex extends to everything it
    // expanded to, at strictly smaller slack), so the surviving entries
    // — distances *and* counts — match the sequential execution exactly.
    // ------------------------------------------------------------------

    /// Buffered [`run_in`](Self::run_in): identical traversal, reads
    /// `labels` immutably, returns the visit groups instead of writing.
    pub(crate) fn collect_in(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        labels: &Labels,
        counters: &mut TraversalCounters,
        hub: VertexId,
    ) -> Vec<VisitGroup> {
        debug_assert!(is_in_vertex(hub), "hubs must be incoming vertices");
        let hub_rank = ranks.rank(hub);
        let mut groups = Vec::new();

        self.cache.begin();
        for e in labels.out_of(hub) {
            self.cache.put(e.hub_rank(), e.dist(), e.count());
        }
        self.cache.put(hub_rank, 0, 1);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        state.queue.push_back(hub.0);

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w);
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            let mut d_idx = INF;
            for e in labels.in_of(w) {
                if e.hub_rank() > hub_rank {
                    break;
                }
                if let Some((dh, _)) = self.cache.get(e.hub_rank()) {
                    d_idx = d_idx.min(dh + e.dist());
                }
            }
            if d_idx < dw {
                counters.pruned += 1;
                continue;
            }
            groups.push(VisitGroup {
                w,
                dw,
                cw,
                tie: d_idx == dw,
            });

            let wo = couple(w);
            state.visit(wo, dw + 1, cw);
            for &u in graph.succ(wo) {
                let u = VertexId(u);
                if !state.visited(u) {
                    if hub_rank < ranks.rank(u) {
                        state.visit(u, dw + 2, cw);
                        state.queue.push_back(u.0);
                    }
                } else if state.dist[u.index()] == dw + 2 {
                    state.accumulate(u, cw);
                }
            }
        }
        groups
    }

    /// Buffered [`run_out`](Self::run_out). The hub's own out-entry is
    /// not buffered (it is unconditional); [`commit_out`](Self::commit_out)
    /// writes it.
    pub(crate) fn collect_out(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        labels: &Labels,
        counters: &mut TraversalCounters,
        hub: VertexId,
    ) -> Vec<VisitGroup> {
        debug_assert!(is_in_vertex(hub), "hubs must be incoming vertices");
        let hub_rank = ranks.rank(hub);
        let hub_couple = couple(hub);
        let mut groups = Vec::new();

        self.cache.begin();
        for e in labels.in_of(hub) {
            self.cache.put(e.hub_rank(), e.dist(), e.count());
        }
        self.cache.put(hub_rank, 0, 1);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        counters.dequeues += 1;
        for &xo in graph.pred(hub) {
            let xo = VertexId(xo);
            if hub_rank < ranks.rank(xo) {
                state.visit(xo, 1, 1);
                state.queue.push_back(xo.0);
            }
        }

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w);
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            let mut d_idx = INF;
            for e in labels.out_of(w) {
                if e.hub_rank() > hub_rank {
                    break;
                }
                if let Some((dh, _)) = self.cache.get(e.hub_rank()) {
                    d_idx = d_idx.min(e.dist() + dh);
                }
            }
            if d_idx < dw {
                counters.pruned += 1;
                continue;
            }
            groups.push(VisitGroup {
                w,
                dw,
                cw,
                tie: d_idx == dw,
            });
            if w == hub_couple {
                // Cycle closure: the direct form prunes here too.
                continue;
            }

            let wi = couple(w);
            state.visit(wi, dw + 1, cw);
            for &yo in graph.pred(wi) {
                let yo = VertexId(yo);
                if !state.visited(yo) {
                    if hub_rank < ranks.rank(yo) {
                        state.visit(yo, dw + 2, cw);
                        state.queue.push_back(yo.0);
                    }
                } else if state.dist[yo.index()] == dw + 2 {
                    state.accumulate(yo, cw);
                }
            }
        }
        groups
    }

    /// Commits a [`collect_in`](Self::collect_in) buffer. With `validate`
    /// the prune scan re-runs against the *current* labels (using
    /// `cache` as scratch), dropping groups the sequential pass would
    /// have pruned — see the module notes above for why that reproduces
    /// the sequential output exactly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn commit_in(
        labels: &mut Labels,
        counters: &mut TraversalCounters,
        cache: &mut HubCache,
        hub: VertexId,
        hub_rank: u32,
        groups: &[VisitGroup],
        validate: bool,
    ) -> Result<(), LabelingError> {
        if validate {
            cache.begin();
            for e in labels.out_of(hub) {
                cache.put(e.hub_rank(), e.dist(), e.count());
            }
            cache.put(hub_rank, 0, 1);
        }
        for g in groups {
            let mut tie = g.tie;
            if validate {
                let mut d_idx = INF;
                for e in labels.in_of(g.w) {
                    if e.hub_rank() > hub_rank {
                        break;
                    }
                    if let Some((dh, _)) = cache.get(e.hub_rank()) {
                        d_idx = d_idx.min(dh + e.dist());
                    }
                }
                if d_idx < g.dw {
                    counters.pruned += 1;
                    continue;
                }
                tie = d_idx == g.dw;
            }
            if tie {
                counters.non_canonical += 2;
            } else {
                counters.canonical += 2;
            }
            Self::write(
                labels,
                counters,
                g.w,
                LabelSide::In,
                hub,
                hub_rank,
                g.dw,
                g.cw,
            )?;
            Self::write(
                labels,
                counters,
                couple(g.w),
                LabelSide::In,
                hub,
                hub_rank,
                g.dw + 1,
                g.cw,
            )?;
        }
        Ok(())
    }

    /// Commits a [`collect_out`](Self::collect_out) buffer, including the
    /// hub's unconditional self-entry.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn commit_out(
        labels: &mut Labels,
        counters: &mut TraversalCounters,
        cache: &mut HubCache,
        hub: VertexId,
        hub_rank: u32,
        groups: &[VisitGroup],
        validate: bool,
    ) -> Result<(), LabelingError> {
        let hub_couple = couple(hub);
        if validate {
            cache.begin();
            for e in labels.in_of(hub) {
                cache.put(e.hub_rank(), e.dist(), e.count());
            }
            cache.put(hub_rank, 0, 1);
        }
        counters.canonical += 1;
        Self::write(labels, counters, hub, LabelSide::Out, hub, hub_rank, 0, 1)?;
        for g in groups {
            let mut tie = g.tie;
            if validate {
                let mut d_idx = INF;
                for e in labels.out_of(g.w) {
                    if e.hub_rank() > hub_rank {
                        break;
                    }
                    if let Some((dh, _)) = cache.get(e.hub_rank()) {
                        d_idx = d_idx.min(e.dist() + dh);
                    }
                }
                if d_idx < g.dw {
                    counters.pruned += 1;
                    continue;
                }
                tie = d_idx == g.dw;
            }
            Self::write(
                labels,
                counters,
                g.w,
                LabelSide::Out,
                hub,
                hub_rank,
                g.dw,
                g.cw,
            )?;
            if g.w == hub_couple {
                counters.canonical += 1;
                continue;
            }
            if tie {
                counters.non_canonical += 2;
            } else {
                counters.canonical += 2;
            }
            Self::write(
                labels,
                counters,
                couple(g.w),
                LabelSide::Out,
                hub,
                hub_rank,
                g.dw + 1,
                g.cw,
            )?;
        }
        Ok(())
    }
}

/// A resumable run of the static construction (Algorithm 3): hubs are
/// processed in descending rank order, and [`advance`](Self::advance)
/// covers a bounded number of ranks per call. A cooperative caller — the
/// maintenance plane's rejuvenation rebuild — can therefore interleave
/// other work (accepting writes into its replay queue, publishing
/// snapshots) between chunks instead of disappearing into one monolithic
/// build. [`build_labels`] is the degenerate single-chunk driver, so the
/// static and rejuvenation builds share one code path.
pub(crate) struct LabelBuildTask {
    labels: Labels,
    bfs: CoupleBfs,
    counters: TraversalCounters,
    next_rank: u32,
    par: ParallelismConfig,
    /// Per-worker traversal workspaces for the wave-parallel path; lazily
    /// populated on first use, reused across waves and `advance` calls.
    pool: WorkspacePool<CoupleBfs>,
}

impl LabelBuildTask {
    /// Starts a build over `n` bipartite vertices.
    pub(crate) fn new(n: usize, par: ParallelismConfig) -> Result<Self, LabelingError> {
        let max = (csc_labeling::MAX_HUB_RANK as usize) + 1;
        if n > max {
            return Err(LabelingError::TooManyVertices { got: n, max });
        }
        Ok(LabelBuildTask {
            labels: Labels::new(n),
            bfs: CoupleBfs::new(n),
            counters: TraversalCounters::default(),
            next_rank: 0,
            par,
            pool: WorkspacePool::new(),
        })
    }

    /// `(ranks processed, ranks total)` — total is only meaningful against
    /// the rank table passed to [`advance`](Self::advance).
    pub(crate) fn ranks_done(&self) -> u32 {
        self.next_rank
    }

    /// Processes up to `rank_budget` further ranks of `ranks` over the
    /// adjacency snapshot `csr`. Returns `true` once every rank has been
    /// processed (construction complete). `csr` and `ranks` must be the
    /// same on every call of one task.
    ///
    /// With a parallelism width above one, ranks are processed in
    /// *waves* of `width` consecutive ranks: a wave's per-hub traversals
    /// are collected concurrently against the pre-wave labels, then
    /// committed in rank order (validated when `deterministic` is on, so
    /// the labels — and thus the serialized arenas — are identical at
    /// every width). Waves are aligned to absolute rank boundaries and a
    /// budget is rounded up to the next boundary, so a chunked build
    /// takes the exact same waves as a monolithic one.
    pub(crate) fn advance(
        &mut self,
        csr: &Csr,
        ranks: &RankTable,
        rank_budget: usize,
    ) -> Result<bool, LabelingError> {
        let width = self.par.width().max(1);
        if width <= 1 {
            let end = (self.next_rank as usize).saturating_add(rank_budget.max(1));
            let end = end.min(ranks.len()) as u32;
            while self.next_rank < end {
                let hub = ranks.vertex_at_rank(self.next_rank);
                if is_in_vertex(hub) {
                    self.bfs
                        .run_in(csr, ranks, &mut self.labels, &mut self.counters, hub)?;
                    self.bfs
                        .run_out(csr, ranks, &mut self.labels, &mut self.counters, hub)?;
                } else {
                    Self::vout_self_entries(&mut self.labels, &mut self.counters, hub, ranks)?;
                }
                self.next_rank += 1;
            }
            return Ok(self.next_rank as usize >= ranks.len());
        }

        let total = ranks.len();
        let requested = (self.next_rank as usize).saturating_add(rank_budget.max(1));
        let end = requested.div_ceil(width).saturating_mul(width).min(total);
        let n = csr.vertex_count();
        let validate = self.par.deterministic;

        while (self.next_rank as usize) < end {
            let wave_start = self.next_rank;
            let wave_end = ((wave_start as usize / width + 1) * width).min(total);
            let wave_len = wave_end - wave_start as usize;

            // Compute phase: each in-flight hub traverses against the
            // pre-wave labels with a worker-private workspace.
            let results = {
                let labels = &self.labels;
                let pool = &self.pool;
                par_map_indexed(width, wave_len, |i| {
                    let hub = ranks.vertex_at_rank(wave_start + i as u32);
                    if !is_in_vertex(hub) {
                        return None;
                    }
                    let mut ws = pool.checkout_with(|| CoupleBfs::new(n));
                    ws.ensure(n);
                    let mut counters = TraversalCounters::default();
                    let groups_in = ws.collect_in(csr, ranks, labels, &mut counters, hub);
                    let groups_out = ws.collect_out(csr, ranks, labels, &mut counters, hub);
                    Some((groups_in, groups_out, counters))
                })
            };

            // Commit phase: strictly ascending rank order restores the
            // sequential write order (and, validated, the sequential
            // write *set*).
            for (i, result) in results.into_iter().enumerate() {
                let hub = ranks.vertex_at_rank(wave_start + i as u32);
                match result {
                    Some((groups_in, groups_out, wave_counters)) => {
                        self.counters.merge(&wave_counters);
                        let hub_rank = wave_start + i as u32;
                        let (_, cache) = self.bfs.parts_mut();
                        CoupleBfs::commit_in(
                            &mut self.labels,
                            &mut self.counters,
                            cache,
                            hub,
                            hub_rank,
                            &groups_in,
                            validate,
                        )?;
                        let (_, cache) = self.bfs.parts_mut();
                        CoupleBfs::commit_out(
                            &mut self.labels,
                            &mut self.counters,
                            cache,
                            hub,
                            hub_rank,
                            &groups_out,
                            validate,
                        )?;
                    }
                    None => {
                        Self::vout_self_entries(&mut self.labels, &mut self.counters, hub, ranks)?;
                    }
                }
                self.next_rank += 1;
            }
        }
        Ok(self.next_rank as usize >= ranks.len())
    }

    /// `V_out` vertices never act as hubs for other vertices (Algorithm 3
    /// lines 6-8): self labels only.
    fn vout_self_entries(
        labels: &mut Labels,
        counters: &mut TraversalCounters,
        hub: VertexId,
        ranks: &RankTable,
    ) -> Result<(), LabelingError> {
        let r = ranks.rank(hub);
        let self_entry = LabelEntry::new(r, 0, 1).map_err(|source| LabelingError::Entry {
            hub,
            vertex: hub,
            source,
        })?;
        labels.append(hub, LabelSide::In, self_entry);
        labels.append(hub, LabelSide::Out, self_entry);
        counters.canonical += 2;
        counters.inserted += 2;
        Ok(())
    }

    /// Consumes the task, yielding the built labels and counters.
    pub(crate) fn finish(self) -> (Labels, TraversalCounters) {
        (self.labels, self.counters)
    }
}

/// Builds the full CSC label set for a bipartite graph under `ranks`
/// (Algorithm 3) in one go. Returns labels and traversal counters.
pub(crate) fn build_labels(
    csr: &Csr,
    ranks: &RankTable,
    counters: &mut TraversalCounters,
    par: ParallelismConfig,
) -> Result<Labels, LabelingError> {
    let mut task = LabelBuildTask::new(csr.vertex_count(), par)?;
    while !task.advance(csr, ranks, usize::MAX)? {}
    let (labels, built) = task.finish();
    *counters = built;
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::bipartite::{in_vertex, out_vertex, BipartiteGraph};
    use csc_graph::fixtures::{figure2, figure2_order, pv};
    use csc_graph::generators::directed_cycle;
    use csc_graph::OrderingStrategy;

    fn build_for(g: &DiGraph, order: OrderingStrategy) -> (Labels, RankTable) {
        let gb = BipartiteGraph::from_graph(g);
        let ranks = RankTable::build(g, order).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let labels =
            build_labels(&csr, &ranks, &mut counters, ParallelismConfig::default()).unwrap();
        labels.validate_sorted().unwrap();
        assert_eq!(
            counters.inserted,
            labels.total_entries(),
            "the build inserts exactly the stored entries"
        );
        (labels, ranks)
    }

    #[test]
    fn chunked_build_equals_monolithic() {
        let g = csc_graph::generators::gnm(30, 100, 8);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let whole =
            build_labels(&csr, &ranks, &mut counters, ParallelismConfig::default()).unwrap();

        let mut task =
            LabelBuildTask::new(csr.vertex_count(), ParallelismConfig::default()).unwrap();
        let mut chunks = 0;
        while !task.advance(&csr, &ranks, 7).unwrap() {
            chunks += 1;
            assert!(task.ranks_done() > 0 && (task.ranks_done() as usize) < ranks.len());
        }
        let (labels, chunk_counters) = task.finish();
        assert!(chunks > 2, "the budget actually chunked the build");
        assert_eq!(labels, whole);
        assert_eq!(chunk_counters, counters);
    }

    #[test]
    fn wave_parallel_build_matches_serial_at_any_width() {
        let g = csc_graph::generators::gnm(40, 160, 11);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let serial_par = ParallelismConfig {
            threads: 1,
            deterministic: true,
        };
        let mut serial_counters = TraversalCounters::default();
        let serial = build_labels(&csr, &ranks, &mut serial_counters, serial_par).unwrap();

        for threads in [2, 3, 4, 7] {
            let par = ParallelismConfig {
                threads,
                deterministic: true,
            };
            let mut counters = TraversalCounters::default();
            let labels = build_labels(&csr, &ranks, &mut counters, par).unwrap();
            labels.validate_sorted().unwrap();
            assert_eq!(labels, serial, "width {threads} diverged from serial");
            // The validated commit reproduces the serial write set, so the
            // write-side counters agree; only the traversal-shape counters
            // (dequeues / pruned) may differ across widths.
            assert_eq!(counters.inserted, labels.total_entries());
            assert_eq!(counters.canonical, serial_counters.canonical, "w{threads}");
            assert_eq!(
                counters.non_canonical, serial_counters.non_canonical,
                "w{threads}"
            );
        }
    }

    #[test]
    fn chunked_wave_build_equals_monolithic_wave_build() {
        let g = csc_graph::generators::gnm(30, 100, 8);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let par = ParallelismConfig {
            threads: 4,
            deterministic: true,
        };
        let mut counters = TraversalCounters::default();
        let whole = build_labels(&csr, &ranks, &mut counters, par).unwrap();

        // Budget 3 < width 4: each call rounds up to one whole wave, so
        // the chunked run takes the exact same waves as the monolithic
        // one — labels *and* counters agree.
        let mut task = LabelBuildTask::new(csr.vertex_count(), par).unwrap();
        while !task.advance(&csr, &ranks, 3).unwrap() {}
        let (labels, chunk_counters) = task.finish();
        assert_eq!(labels, whole);
        assert_eq!(chunk_counters, counters);
    }

    #[test]
    fn relaxed_commit_still_answers_queries_exactly() {
        // deterministic: false skips commit validation: the labels may
        // keep entries the sequential pass would have pruned, but every
        // survivor is strictly covered (see the collect/commit notes), so
        // cycle queries still read the exact serial answers.
        let g = csc_graph::generators::gnm(40, 160, 11);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let serial_par = ParallelismConfig {
            threads: 1,
            deterministic: true,
        };
        let mut c0 = TraversalCounters::default();
        let serial = build_labels(&csr, &ranks, &mut c0, serial_par).unwrap();

        let par = ParallelismConfig {
            threads: 4,
            deterministic: false,
        };
        let mut c1 = TraversalCounters::default();
        let relaxed = build_labels(&csr, &ranks, &mut c1, par).unwrap();
        relaxed.validate_sorted().unwrap();
        assert!(relaxed.total_entries() >= serial.total_entries());
        for v in g.vertices() {
            assert_eq!(
                relaxed.dist_count(out_vertex(v), in_vertex(v)),
                serial.dist_count(out_vertex(v), in_vertex(v)),
                "SCCnt({v:?}) diverged under relaxed commit"
            );
        }
    }

    #[test]
    fn triangle_cycle_entries() {
        let g = directed_cycle(3);
        let (labels, _) = build_for(&g, OrderingStrategy::Degree);
        // SCCnt(0) via labels: distance v_o ~> v_i must be 5 (= 2*3 - 1).
        let dc = labels
            .dist_count(out_vertex(VertexId(0)), in_vertex(VertexId(0)))
            .unwrap();
        assert_eq!((dc.dist, dc.count), (5, 1));
    }

    #[test]
    fn figure2_table_iii_entries() {
        // Table III: Lin(v7_i) = {(v1_i, 4, 2), (v7_i, 0, 1)};
        // Lout(v7_o) = {(v1_i, 7, 1), (v7_i, 11, 1), (v7_o, 0, 1)}.
        let g = figure2();
        let ranks = RankTable::from_order(&figure2_order()).bipartite_order();
        let csr = Csr::from_digraph(BipartiteGraph::from_graph(&g).graph());
        let mut counters = TraversalCounters::default();
        let labels =
            build_labels(&csr, &ranks, &mut counters, ParallelismConfig::default()).unwrap();

        let v7i = in_vertex(pv(7));
        let v7o = out_vertex(pv(7));
        let r = |v: VertexId| ranks.rank(v);

        let lin = labels.in_of(v7i);
        assert_eq!(lin.len(), 2, "Lin(v7_i): {lin:?}");
        assert_eq!(
            (lin[0].hub_rank(), lin[0].dist(), lin[0].count()),
            (r(in_vertex(pv(1))), 4, 2)
        );
        assert_eq!(
            (lin[1].hub_rank(), lin[1].dist(), lin[1].count()),
            (r(v7i), 0, 1)
        );

        let lout = labels.out_of(v7o);
        assert_eq!(lout.len(), 3, "Lout(v7_o): {lout:?}");
        assert_eq!(
            (lout[0].hub_rank(), lout[0].dist(), lout[0].count()),
            (r(in_vertex(pv(1))), 7, 1)
        );
        assert_eq!(
            (lout[1].hub_rank(), lout[1].dist(), lout[1].count()),
            (r(v7i), 11, 1)
        );
        assert_eq!(
            (lout[2].hub_rank(), lout[2].dist(), lout[2].count()),
            (r(v7o), 0, 1)
        );

        // Example 6: SCCnt(v7) = (11+1)/2 = 6 with count 2*1 + 1*1 = 3.
        let dc = labels.dist_count(v7o, in_vertex(pv(7))).unwrap();
        assert_eq!((dc.dist, dc.count), (11, 3));
    }

    #[test]
    fn only_vin_vertices_are_hubs() {
        let g = figure2();
        let (labels, ranks) = build_for(&g, OrderingStrategy::Degree);
        for v in 0..labels.vertex_count() as u32 {
            let v = VertexId(v);
            for e in labels.in_of(v).iter().chain(labels.out_of(v)) {
                let hub = ranks.vertex_at_rank(e.hub_rank());
                assert!(
                    is_in_vertex(hub) || hub == v,
                    "non-self V_out hub {hub:?} on {v:?}"
                );
            }
        }
    }

    #[test]
    fn couple_edge_label_exists() {
        // (v_i, 1, 1) must be in Lin(v_o) for every vertex (Section IV-B).
        let g = figure2();
        let (labels, ranks) = build_for(&g, OrderingStrategy::Degree);
        for v in g.vertices() {
            let (vi, vo) = (in_vertex(v), out_vertex(v));
            let e = labels
                .entry_for(vo, LabelSide::In, ranks.rank(vi))
                .unwrap_or_else(|| panic!("missing (v_i, 1, 1) in Lin({vo:?})"));
            assert_eq!((e.dist(), e.count()), (1, 1));
        }
    }
}
