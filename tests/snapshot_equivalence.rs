//! Every published snapshot is exactly a fresh freeze of the state it was
//! published from: the same query halves (`Lout(v_o)` then `Lin(v_i)` per
//! vertex), entry for entry, whatever path led there — mixed
//! insert/delete/add-vertex windows, a deletion window that falls back to
//! a full rebuild, an ordering migration and rejuvenation swap, an
//! in-place recovery, or a publication seeded by another index's
//! snapshot. A publication shares the previous snapshot's slices only
//! where it may. On a fresh build the snapshot holds exactly the entries
//! the §IV-E index reduction keeps.

use csc::graph::generators;
use csc::graph::traversal::shortest_cycle_oracle;
use csc::index::reduction;
use csc::prelude::*;
use proptest::prelude::*;

/// The published snapshot against a fresh freeze of the live index and
/// against the oracle on the live graph.
fn assert_published_equals_fresh(shared: &ConcurrentIndex, context: &str) {
    let published = shared.snapshot();
    let (fresh, graph) = shared.with_read(|idx| (idx.freeze(), idx.original_graph()));
    assert_eq!(published.labels(), fresh.labels(), "{context}: arena");
    assert_eq!(
        published.total_entries(),
        fresh.total_entries(),
        "{context}"
    );
    assert_eq!(published.health(), fresh.health(), "{context}: health");
    assert_eq!(published.labels().dead_fraction(), 0.0, "{context}");
    for v in graph.vertices() {
        assert_eq!(
            published.query(v).map(|c| (c.length, c.count)),
            shortest_cycle_oracle(&graph, v),
            "{context}: SCCnt({v})"
        );
    }
}

/// A window of `len` valid updates derived from `seed`: deletions of
/// present edges, insertions of absent ones, and now and then a new
/// vertex wired into the graph by the insertions after it.
fn window(graph: &DiGraph, seed: u64, len: usize) -> Vec<GraphUpdate> {
    let mut g = graph.clone();
    let mut s = seed;
    let mut ops = Vec::new();
    for _ in 0..len {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = g.vertex_count() as u64;
        let edges = g.edge_vec();
        if s.is_multiple_of(11) {
            g.add_vertex();
            ops.push(GraphUpdate::AddVertex);
        } else if s >> 63 == 1 && !edges.is_empty() {
            let (a, b) = edges[(s >> 20) as usize % edges.len()];
            let (a, b) = (VertexId(a), VertexId(b));
            g.try_remove_edge(a, b).unwrap();
            ops.push(GraphUpdate::RemoveEdge(a, b));
        } else {
            let a = VertexId(((s >> 8) % n) as u32);
            let b = VertexId(((s >> 36) % n) as u32);
            if a != b && !g.has_edge(a, b) {
                g.try_add_edge(a, b).unwrap();
                ops.push(GraphUpdate::InsertEdge(a, b));
            }
        }
    }
    ops
}

/// Applies one window through `shared` and checks its publication.
fn apply_and_check(shared: &ConcurrentIndex, seed: u64, len: usize, context: &str) -> BatchReport {
    let graph = shared.with_read(|idx| idx.original_graph());
    let report = shared.apply_batch(&window(&graph, seed, len)).unwrap();
    assert_published_equals_fresh(shared, context);
    report
}

/// How many vertices' slices `next` reused from `prev`.
fn shared_vertices(next: &SnapshotIndex, prev: &SnapshotIndex) -> usize {
    (0..next.original_vertex_count() as u32)
        .filter(|&v| next.labels().shares_couple(prev.labels(), VertexId(v)))
        .count()
}

#[test]
fn fresh_arena_holds_exactly_the_reduced_entries() {
    for seed in [1u64, 7, 23] {
        let g = generators::gnm(60, 240, seed);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        let report = reduction::analyze(&idx);
        assert_eq!(
            LabelStore::total_entries(snap.labels()),
            report.reduced_entries,
            "seed {seed}"
        );
        assert_eq!(snap.total_entries(), report.full_entries, "seed {seed}");
        assert_eq!(snap.index_bytes(), snap.labels().arena_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_publication_equals_a_fresh_freeze(
        n in 8usize..24,
        m_seed in any::<u64>(),
        windows in proptest::collection::vec((any::<u64>(), 1usize..6), 1..16),
    ) {
        let m = (m_seed as usize) % (3 * n) + n;
        let g = generators::gnm(n, m, m_seed);
        let config = CscConfig::default().with_snapshot_every(1);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        assert_published_equals_fresh(&shared, "initial publication");

        let (third, two_thirds) = (windows.len() / 3, 2 * windows.len() / 3);
        for (k, &(seed, len)) in windows.iter().enumerate() {
            apply_and_check(&shared, seed, len, &format!("window {k}"));
            if k == third {
                shared.rejuvenate().unwrap();
                assert_published_equals_fresh(&shared, "after the rejuvenation swap");
            }
            if k == two_thirds {
                shared.set_order(OrderingStrategy::DegreeProduct).unwrap();
                shared.refresh();
                assert_published_equals_fresh(&shared, "after set_order");
                shared.rejuvenate().unwrap();
                assert_published_equals_fresh(&shared, "after the migration swap");
            }
        }
        shared.recover().unwrap();
        assert_published_equals_fresh(&shared, "after recover_in_place");
    }

    #[test]
    fn publications_seeded_by_a_clone_equal_a_fresh_freeze(
        n in 8usize..20,
        m_seed in any::<u64>(),
        windows in proptest::collection::vec((any::<u64>(), 1usize..6), 1..6),
    ) {
        let m = (m_seed as usize) % (3 * n) + n;
        let g = generators::gnm(n, m, m_seed);
        let config = CscConfig::default().with_snapshot_every(1);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        for (k, &(seed, len)) in windows.iter().enumerate() {
            apply_and_check(&shared, seed, len, &format!("original window {k}"));
        }
        // A twin over a clone of the live index, which then diverges.
        let twin = ConcurrentIndex::new(shared.with_read(CscIndex::clone));
        assert_published_equals_fresh(&twin, "twin's first publication");
        for (k, &(seed, len)) in windows.iter().enumerate() {
            apply_and_check(&twin, seed ^ 0x5eed, len, &format!("twin window {k}"));
            apply_and_check(&shared, seed.rotate_left(7), len, &format!("original window {k}'"));
        }
        // An engine over another clone, seeded by each index's snapshot:
        // neither is its own publication, so nothing is shared.
        let mut engine = MaintenanceEngine::new(shared.with_read(CscIndex::clone));
        for seed_from in [shared.snapshot(), twin.snapshot()] {
            let published = engine.publish_from(Some(&seed_from));
            let fresh = engine.index().freeze();
            prop_assert_eq!(published.labels(), fresh.labels());
            prop_assert_eq!(shared_vertices(&published, &seed_from), 0);
        }
    }
}

#[test]
fn a_deletion_rebuild_fallback_republishes_every_vertex() {
    // Removing half of a dense graph in one window trips the from-scratch
    // rebuild fallback, which replaces the label store wholesale.
    let g = generators::gnm(16, 64, 31);
    let config = CscConfig::default().with_snapshot_every(1);
    let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
    apply_and_check(&shared, 3, 2, "warm-up window");
    let before = shared.snapshot();
    let graph = shared.with_read(|idx| idx.original_graph());
    let removals: Vec<GraphUpdate> = graph
        .edge_vec()
        .into_iter()
        .step_by(2)
        .map(|(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)))
        .collect();
    let report = shared.apply_batch(&removals).unwrap();
    assert!(
        report.repair.rebuild_fallbacks > 0,
        "the window must fall back"
    );
    assert_published_equals_fresh(&shared, "after the rebuild fallback");
    assert_eq!(shared_vertices(&shared.snapshot(), &before), 0);

    // Sharing resumes on the next window: an insertion leaves most
    // vertices untouched.
    let after = shared.snapshot();
    let graph = shared.with_read(|idx| idx.original_graph());
    let (a, b) = (0..16u32)
        .flat_map(|a| (0..16u32).map(move |b| (VertexId(a), VertexId(b))))
        .find(|&(a, b)| a != b && !graph.has_edge(a, b))
        .unwrap();
    shared
        .apply_batch(&[GraphUpdate::InsertEdge(a, b)])
        .unwrap();
    assert_published_equals_fresh(&shared, "after an insertion");
    assert!(shared_vertices(&shared.snapshot(), &after) > 0);
}
