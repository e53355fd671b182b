//! Immutable point-in-time query engines frozen from a [`CscIndex`].
//!
//! A [`SnapshotIndex`] packages everything the `SCCnt` read path needs —
//! the frozen query halves, the bipartite rank table, and the original
//! vertex count — with no interior mutability. Because it is immutable it
//! is `Sync` for free: share one behind an `Arc` across any number of
//! reader threads and every query runs lock-free, while the writer keeps
//! maintaining the mutable [`CscIndex`] elsewhere (see
//! [`ConcurrentIndex`](crate::ConcurrentIndex) for the publication
//! machinery).
//!
//! Queries evaluate on [`FrozenLabels`]: per original vertex `v`, one
//! immutable shared slice holding only the two lists a cycle query
//! intersects — `Lout(v_o)` directly followed by `Lin(v_i)` — driven by
//! the adaptive (branchless merge / galloping) kernel. This is the
//! paper's §IV-E index reduction applied where it is exact even after
//! updates: `SCCnt` never reads the other two halves, so they are never
//! copied. The equivalence of this path with `CscIndex::query` is
//! property-tested in `csc-labeling/tests/frozen_equivalence.rs`.
//!
//! [`SnapshotIndex::freeze`] copies every vertex's slice. A publication
//! ([`MaintenanceEngine::publish_from`](crate::MaintenanceEngine::publish_from))
//! instead starts from the snapshot it replaces: vertices whose query
//! halves did not change since then keep that snapshot's slice, and only
//! the changed ones are copied, so a publication copies in proportion to
//! what the updates touched (it still visits every vertex once). The rank
//! table is shared by `Arc` in the same way.

use crate::health::{HealthBaseline, IndexHealth};
use crate::index::CscIndex;
use csc_graph::{RankTable, VertexId};
use csc_labeling::{intersect_adaptive, CycleCount, DistCount, FrozenLabels, LabelSide};
use rayon::prelude::*;
use std::sync::Arc;

/// An immutable snapshot of a [`CscIndex`]'s query state.
///
/// Being immutable it is `Sync` for free: clone the `Arc` out of a
/// [`ConcurrentIndex`](crate::ConcurrentIndex) (or [`freeze`] one
/// directly) and query from any number of threads, lock-free.
///
/// ```
/// use csc_core::{CscConfig, CscIndex};
/// use csc_graph::{DiGraph, VertexId};
///
/// let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
/// let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
/// let snapshot = index.freeze();
///
/// // The snapshot pins its freeze point even as the index moves on.
/// index.remove_edge(VertexId(2), VertexId(0)).unwrap();
/// assert_eq!(snapshot.query(VertexId(0)).unwrap().length, 3);
/// assert_eq!(index.query(VertexId(0)), None);
/// ```
///
/// [`freeze`]: CscIndex::freeze
#[derive(Clone, Debug)]
pub struct SnapshotIndex {
    frozen: FrozenLabels,
    ranks: Arc<RankTable>,
    original_n: usize,
    updates_applied: u64,
    /// The source index's drift baseline at freeze time, so the snapshot
    /// can report its own [`health`](SnapshotIndex::health).
    baseline: HealthBaseline,
    /// `[in, out]` entries of the labelling this snapshot was frozen from
    /// (the slices hold only the query halves of it).
    source_entries: [usize; 2],
}

impl SnapshotIndex {
    /// Freezes the current state of `index`: per original vertex `v`,
    /// one slice with `Lout(v_o)` directly followed by `Lin(v_i)`, so each
    /// `SCCnt(v)` intersection reads one contiguous region. Shares
    /// nothing with earlier snapshots. `O(query-half entries + n)`.
    pub fn freeze(index: &CscIndex) -> Self {
        Self::assemble(index, FrozenLabels::freeze(&index.labels))
    }

    /// Publishes the current state of `index`, reusing `prev`'s slice for
    /// every vertex whose query halves did not change since `prev` was
    /// published — see [`FrozenLabels::publish`] for when `prev`
    /// qualifies. Equal to [`freeze`](Self::freeze) either way.
    pub(crate) fn publish(index: &mut CscIndex, prev: Option<&SnapshotIndex>) -> Self {
        let frozen = FrozenLabels::publish(&mut index.labels, prev.map(|p| &p.frozen));
        Self::assemble(index, frozen)
    }

    fn assemble(index: &CscIndex, frozen: FrozenLabels) -> Self {
        let labels = index.labels();
        let stats = index.stats();
        SnapshotIndex {
            frozen,
            ranks: Arc::clone(&index.ranks),
            original_n: index.original_vertex_count(),
            updates_applied: (stats.insertions + stats.deletions) as u64,
            baseline: *index.baseline(),
            source_entries: [
                labels.side_entries(LabelSide::In),
                labels.side_entries(LabelSide::Out),
            ],
        }
    }

    /// `SCCnt(v)` on the snapshot: length and count of the shortest cycles
    /// through `v`, or `None` if no cycle passes through `v`.
    ///
    /// Unlike [`CscIndex::query`] this returns `None` (rather than
    /// panicking) for out-of-range vertices: a reader may hold a snapshot
    /// frozen before `v` was added, and stale-but-safe is the contract
    /// here.
    #[inline]
    pub fn query(&self, v: VertexId) -> Option<CycleCount> {
        let dc = self.query_raw(v)?;
        debug_assert_eq!(dc.dist % 2, 1, "V_out ~> V_in distances are odd");
        Some(CycleCount::new(dc.dist.div_ceil(2), dc.count))
    }

    /// The raw bipartite `(distance, count)` behind [`query`](Self::query).
    #[inline]
    pub fn query_raw(&self, v: VertexId) -> Option<DistCount> {
        let (out, inn) = self.frozen.query_halves(v)?;
        intersect_adaptive(out, inn)
    }

    /// `SCCnt` for a batch of vertices, evaluated in parallel. Output order
    /// matches input order.
    pub fn query_batch(&self, vertices: &[VertexId]) -> Vec<Option<CycleCount>> {
        vertices.par_iter().map(|&v| self.query(v)).collect()
    }

    /// `SCCnt` for every vertex (an analytics sweep), in parallel.
    pub fn query_all(&self) -> Vec<Option<CycleCount>> {
        (0..self.original_n as u32)
            .into_par_iter()
            .map(|v| self.query(VertexId(v)))
            .collect()
    }

    /// Number of vertices in the snapshotted (original) graph.
    #[inline]
    pub fn original_vertex_count(&self) -> usize {
        self.original_n
    }

    /// The frozen labels. Only the query halves are stored:
    /// `out_of(v_o)` and `in_of(v_i)` per original vertex `v`; every other
    /// list reads as empty.
    pub fn labels(&self) -> &FrozenLabels {
        &self.frozen
    }

    /// The bipartite rank table at freeze time.
    pub fn ranks(&self) -> &RankTable {
        &self.ranks
    }

    /// Total label entries of the labelling the snapshot was frozen from
    /// (the snapshot stores the query half of them).
    pub fn total_entries(&self) -> usize {
        self.source_entries[0] + self.source_entries[1]
    }

    /// Snapshot size in bytes: every slice it references, shared with
    /// other snapshots or not, plus the per-vertex table.
    pub fn index_bytes(&self) -> usize {
        self.frozen.arena_bytes()
    }

    /// How many updates (`insert_edge` + `remove_edge`) the source index
    /// had applied when this snapshot was frozen. Monotone across
    /// republications, so readers can order snapshots.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// The snapshot's drift report against the baseline it was frozen
    /// with: per-side label growth of the source labelling and the
    /// bottom-ranked churn count. The maintenance-plane fields
    /// (`replay_queued`, `rebuilding`) are always idle here — a snapshot
    /// is a point in time, not a write plane.
    pub fn health(&self) -> IndexHealth {
        let total = self.total_entries();
        IndexHealth {
            total_entries: total,
            in_entries: self.source_entries[0],
            out_entries: self.source_entries[1],
            baseline_entries: self.baseline.entries,
            baseline_in_entries: self.baseline.in_entries,
            baseline_out_entries: self.baseline.out_entries,
            growth_percent: IndexHealth::growth(total, self.baseline.entries),
            churned_vertices: self.original_n.saturating_sub(self.baseline.vertices),
            rejuvenations: self.baseline.rejuvenations,
            replay_queued: 0,
            rebuilding: false,
            writes_rejected: 0,
            memory_bytes: 0,
            saturated: false,
            durability_degraded: false,
            wal_truncated_bytes: 0,
        }
    }
}

impl CscIndex {
    /// Freezes an immutable [`SnapshotIndex`] of the current state —
    /// shorthand for [`SnapshotIndex::freeze`].
    pub fn freeze(&self) -> SnapshotIndex {
        SnapshotIndex::freeze(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CscConfig;
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::traversal::shortest_cycle_oracle;

    #[test]
    fn snapshot_matches_live_index_everywhere() {
        let g = gnm(40, 160, 3);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        assert_eq!(snap.original_vertex_count(), 40);
        assert_eq!(snap.total_entries(), idx.total_entries());
        for v in g.vertices() {
            assert_eq!(snap.query(v), idx.query(v), "SCCnt({v})");
            assert_eq!(snap.query_raw(v), idx.query_raw(v));
            assert_eq!(
                snap.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, v)
            );
        }
    }

    #[test]
    fn snapshot_is_a_point_in_time() {
        let g = directed_cycle(6);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let before = idx.freeze();
        assert_eq!(before.updates_applied(), 0);
        idx.insert_edge(VertexId(3), VertexId(0)).unwrap();
        let after = idx.freeze();
        assert_eq!(after.updates_applied(), 1);
        // The old snapshot still answers from the pre-update state.
        assert_eq!(before.query(VertexId(0)).unwrap().length, 6);
        assert_eq!(after.query(VertexId(0)).unwrap().length, 4);
    }

    #[test]
    fn out_of_range_is_none_not_panic() {
        let idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        let snap = idx.freeze();
        assert_eq!(snap.query(VertexId(3)), None);
        assert_eq!(snap.query_raw(VertexId(99)), None);
    }

    #[test]
    fn batch_and_all_match_pointwise_queries() {
        let g = gnm(120, 500, 9);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        let all = snap.query_all();
        assert_eq!(all.len(), 120);
        for v in g.vertices() {
            assert_eq!(all[v.index()], idx.query(v), "query_all at {v}");
        }
        let some: Vec<VertexId> = g.vertices().step_by(7).collect();
        let batch = snap.query_batch(&some);
        for (v, got) in some.iter().zip(&batch) {
            assert_eq!(*got, idx.query(*v), "query_batch at {v}");
        }
    }

    #[test]
    fn snapshot_health_mirrors_index_plus_arena_state() {
        let g = gnm(24, 80, 11);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        idx.add_vertex();
        idx.insert_edge(VertexId(0), VertexId(24)).unwrap();
        idx.insert_edge(VertexId(24), VertexId(1)).unwrap();
        let snap = idx.freeze();
        let (sh, ih) = (snap.health(), idx.health());
        assert_eq!(sh.total_entries, ih.total_entries);
        assert_eq!(
            (sh.in_entries, sh.out_entries),
            (ih.in_entries, ih.out_entries)
        );
        assert_eq!(sh.baseline_entries, ih.baseline_entries);
        assert_eq!(sh.churned_vertices, 1);
        assert!(!sh.rebuilding && sh.replay_queued == 0);
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotIndex>();
    }
}
