//! Every published snapshot is exactly a fresh freeze of the state it was
//! published from: the same gathered query halves (`Lout(v_o)` then
//! `Lin(v_i)` per vertex), byte for byte, whatever path led there —
//! mixed insert/delete windows, a rejuvenation swap, or an in-place
//! recovery. On a fresh build the arena holds exactly the entries the
//! §IV-E index reduction keeps.

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
/// present edges and insertions of absent ones, alternating by seed bit.
fn window(graph: &DiGraph, seed: u64, len: usize) -> Vec<GraphUpdate> {
    let n = graph.vertex_count() as u64;
    let mut g = graph.clone();
    let mut s = seed;
    let mut ops = Vec::new();
    for _ in 0..len {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let edges = g.edge_vec();
        if s >> 63 == 1 && !edges.is_empty() {
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
        windows in proptest::collection::vec((any::<u64>(), 1usize..6), 1..8),
    ) {
        let m = (m_seed as usize) % (3 * n) + n;
        let g = generators::gnm(n, m, m_seed);
        let config = CscConfig::default().with_snapshot_every(1);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        assert_published_equals_fresh(&shared, "initial publication");

        let half = windows.len() / 2;
        for (k, &(seed, len)) in windows.iter().enumerate() {
            let graph = shared.with_read(|idx| idx.original_graph());
            shared.apply_batch(&window(&graph, seed, len)).unwrap();
            assert_published_equals_fresh(&shared, &format!("window {k}"));
            if k == half {
                shared.rejuvenate().unwrap();
                assert_published_equals_fresh(&shared, "after the rejuvenation swap");
            }
        }
        shared.recover().unwrap();
        assert_published_equals_fresh(&shared, "after recover_in_place");
    }
}
