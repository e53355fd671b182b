//! The three workloads, the inputs each derives from its seed, and the
//! pieces both the untraced and the traced run share: the paced reader,
//! the BFS oracle check, and the scratch directory.

use crate::stats::{Rng, Tally};
use csc_bench::datasets::{by_code, generate};
use csc_bench::experiments::stream_replay::build_trace;
use csc_core::{CscConfig, DurabilityConfig, FsyncPolicy, GraphUpdate, SnapshotIndex};
use csc_graph::{DiGraph, VertexId};
use csc_labeling::bfs_cycle::scc_count_bfs;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Where the reader's query vertices come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reads {
    /// Uniformly random vertices.
    Uniform,
    /// Nine in ten go to an endpoint of the last [`HOT_WINDOWS`] published
    /// windows (the accounts that just transacted); the rest are uniform.
    Recent,
}

/// Seed of the dataset analogs. Like the paper's fixed real datasets, the
/// graph stays the same from run to run; `--seed` draws the update
/// stream's order and mix, the query streams and the oracle sample.
pub const DATASET_SEED: u64 = 2022;

/// How many recently published windows make up the hot read set.
pub const HOT_WINDOWS: usize = 4;

/// The reader's sleep after each burst of queries.
pub const READER_SLEEP: Duration = Duration::from_millis(1);

/// What the update stream holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Insertions of held-out edges only.
    Inserts,
    /// Updates that alternate an insertion of a held-out edge with a
    /// deletion of a present one, so the edge count holds steady. Both
    /// pools start with this many edges, picked as
    /// `stream_replay::build_trace` picks them, and the edges cycle
    /// through them in a seeded order.
    Churn { pool: usize },
}

/// One workload: its dataset, stream, pacing and durability.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Dataset code of `csc_bench::datasets` and the scale it is generated at.
    pub dataset: &'static str,
    pub scale: f64,
    pub stream: Stream,
    /// Updates per `apply_batch` window.
    pub window: usize,
    /// Windows the measured stream holds; the writer stops early when
    /// time is up.
    pub windows: usize,
    /// Sleep after each window; zero makes the writer closed-loop.
    pub writer_sleep: Duration,
    /// Queries per reader burst.
    pub burst: usize,
    pub reads: Reads,
    /// Whether durability is attached while the workload is measured.
    pub durable: bool,
    pub checkpoint_every: u32,
    /// Windows applied to the built state after its checkpoint and before
    /// the crash: the WAL suffix recovery replays. Kept below
    /// `checkpoint_every`, so no cadence checkpoint cuts the suffix short.
    pub crash_tail: usize,
    /// Traced runs count work over exactly this many leading windows, so
    /// the work counters repeat for a given seed.
    pub counted_windows: usize,
}

pub const SPECS: [Spec; 3] = [
    // Reads over a snapshot arena far larger than L2, with a paced writer
    // keeping publication going; no deletions, no WAL while measured.
    Spec {
        name: "serve_read",
        dataset: "G04",
        scale: 0.3,
        stream: Stream::Inserts,
        window: 8,
        windows: 220,
        writer_sleep: Duration::from_millis(20),
        burst: 256,
        reads: Reads::Uniform,
        durable: false,
        checkpoint_every: 64,
        crash_tail: 4,
        counted_windows: 16,
    },
    // The fraud-screening shape: a closed-loop durable insert stream on a
    // heavy-tailed reciprocal graph, reads on the accounts that just
    // transacted. Publishing dominates the write.
    Spec {
        name: "insert_stream",
        dataset: "WKT",
        scale: 0.3,
        stream: Stream::Inserts,
        window: 8,
        windows: 952,
        writer_sleep: Duration::ZERO,
        burst: 64,
        reads: Reads::Recent,
        durable: true,
        checkpoint_every: 64,
        crash_tail: 8,
        counted_windows: 64,
    },
    // Half deletions: the per-hub deletion re-label dominates the write.
    // The only workload whose recovery replays deletions. A window holds
    // one insertion and one deletion: on this sparse graph, two deletions
    // in a window already send about half the windows down the
    // whole-index rebuild fallback, and one sends about one in eighteen
    // of this ring's windows there.
    Spec {
        name: "churn_recover",
        dataset: "G04",
        scale: 0.1,
        stream: Stream::Churn { pool: 128 },
        window: 2,
        windows: 1600,
        writer_sleep: Duration::ZERO,
        burst: 64,
        reads: Reads::Uniform,
        durable: true,
        checkpoint_every: 32,
        crash_tail: 16,
        counted_windows: 128,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// Pool width 1, a snapshot published after every window, and
    /// fsync on every WAL append.
    pub fn config(&self) -> CscConfig {
        CscConfig::default()
            .with_threads(1)
            .with_snapshot_every(1)
            .with_durability(DurabilityConfig {
                fsync: FsyncPolicy::Always,
                checkpoint_every: self.checkpoint_every,
                ..DurabilityConfig::default()
            })
    }
}

/// A run's inputs: the fixed graph, and the update stream and query
/// streams drawn from the seed.
pub struct Inputs {
    /// The graph the index is built on (the edges the stream and the
    /// crash tail insert removed).
    pub graph: DiGraph,
    /// The measured stream.
    pub windows: Vec<Vec<GraphUpdate>>,
    /// The crash tail: [`Spec::crash_tail`] windows that stay valid after
    /// any prefix of `windows`.
    pub tail: Vec<Vec<GraphUpdate>>,
    /// Distinct endpoints of each window, for [`Reads::Recent`].
    pub endpoints: Vec<Vec<u32>>,
    pub seed: u64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let dataset = by_code(spec.dataset).expect("workload names a known dataset");
        let full = generate(dataset, spec.scale, DATASET_SEED);
        let ops = spec.window * spec.windows;
        let tail_ops = spec.window * spec.crash_tail;
        let (base, tail, reserved) = fixed_tail(&full, spec.stream, tail_ops);
        let (graph, trace) = match spec.stream {
            Stream::Inserts => {
                let (graph, trace) = build_trace(&base, ops, ops, 100, seed);
                (graph, trace.into_iter().map(|op| op.update).collect())
            }
            Stream::Churn { pool } => balanced_churn(&base, &reserved, pool, ops, seed),
        };
        let windowed = |ops: &[GraphUpdate]| -> Vec<Vec<GraphUpdate>> {
            ops.chunks(spec.window)
                .map(<[GraphUpdate]>::to_vec)
                .collect()
        };
        let windows = windowed(&trace);
        let endpoints = windows
            .iter()
            .map(|w| {
                let mut ends: Vec<u32> = w
                    .iter()
                    .filter_map(|u| match *u {
                        GraphUpdate::InsertEdge(a, b) | GraphUpdate::RemoveEdge(a, b) => {
                            Some([a.0, b.0])
                        }
                        GraphUpdate::AddVertex => None,
                    })
                    .flatten()
                    .collect();
                ends.sort_unstable();
                ends.dedup();
                ends
            })
            .collect();
        Inputs {
            graph,
            windows,
            tail: windowed(&tail),
            endpoints,
            seed,
        }
    }

    pub fn queries<'a>(
        &'a self,
        spec: &Spec,
        stream: u64,
        published: &'a AtomicUsize,
    ) -> QueryGen<'a> {
        QueryGen {
            rng: Rng::new(self.seed ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d)),
            n: self.graph.vertex_count() as u64,
            recent: (spec.reads == Reads::Recent).then_some((&self.endpoints[..], published)),
        }
    }
}

/// The crash tail, fixed by the dataset rather than drawn from the seed,
/// so that every run recovers the same suffix. Its edges are spread
/// evenly over the edge list: `tail_ops` insertions, or on a churn stream
/// alternate insertions and deletions. Returns `full` without the edges
/// the tail inserts, the tail, and the edges it deletes, which the stream
/// must leave alone so that the tail stays valid after any of its prefixes.
fn fixed_tail(
    full: &DiGraph,
    stream: Stream,
    tail_ops: usize,
) -> (DiGraph, Vec<GraphUpdate>, Vec<(u32, u32)>) {
    let churn = matches!(stream, Stream::Churn { .. });
    let deletions = if churn { tail_ops / 2 } else { 0 };
    let mut edges = full.edge_vec();
    let inserted = take_spaced(&mut edges, tail_ops - deletions);
    let deleted = take_spaced(&mut edges, deletions);
    let mut base = full.clone();
    for &(a, b) in &inserted {
        base.try_remove_edge(VertexId(a), VertexId(b))
            .expect("tail edge exists");
    }
    let ins = inserted
        .iter()
        .map(|&(a, b)| GraphUpdate::InsertEdge(VertexId(a), VertexId(b)));
    let del = deleted
        .iter()
        .map(|&(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)));
    let tail = if churn {
        ins.zip(del).flat_map(|(i, d)| [i, d]).collect()
    } else {
        ins.collect()
    };
    (base, tail, deleted)
}

/// `ops` updates alternating insert and delete, none touching `reserved`.
/// The held-out pool is every `stride`-th edge of `g`; the deletion pool
/// is a disjoint sample of the rest. Both are shuffled by the seed and
/// used as queues: each update takes the edge at the front of one pool
/// and moves it to the back of the other, so the stream deletes every
/// edge of the ring once before it deletes any twice. Whether a deletion
/// takes the rebuild fallback depends on its edge, so drawing edges at
/// random instead would make the share of fallback windows, and with it
/// `visible_p90_ms`, swing by seed.
fn balanced_churn(
    g: &DiGraph,
    reserved: &[(u32, u32)],
    pool: usize,
    ops: usize,
    seed: u64,
) -> (DiGraph, Vec<GraphUpdate>) {
    let free = |edges: Vec<(u32, u32)>| edges.into_iter().filter(|e| !reserved.contains(e));
    let edges: Vec<(u32, u32)> = free(g.edge_vec()).collect();
    let stride = (edges.len() / pool.max(1)).max(1);
    let absent: Vec<(u32, u32)> = edges.iter().step_by(stride).copied().take(pool).collect();
    let mut graph = g.clone();
    for &(a, b) in &absent {
        graph
            .try_remove_edge(VertexId(a), VertexId(b))
            .expect("held-out edge exists");
    }
    let present: Vec<(u32, u32)> = free(graph.edge_vec())
        .step_by(stride.max(2))
        .take(pool)
        .collect();
    let mut rng = Rng::new(seed ^ 0x5eed_bead);
    let mut absent = shuffled(absent, &mut rng);
    let mut present = shuffled(present, &mut rng);
    let trace = (0..ops)
        .map(|k| {
            let insert = k.is_multiple_of(2);
            let (from, to) = if insert {
                (&mut absent, &mut present)
            } else {
                (&mut present, &mut absent)
            };
            let (a, b) = from.pop_front().expect("the pools never run dry");
            to.push_back((a, b));
            let (a, b) = (VertexId(a), VertexId(b));
            if insert {
                GraphUpdate::InsertEdge(a, b)
            } else {
                GraphUpdate::RemoveEdge(a, b)
            }
        })
        .collect();
    (graph, trace)
}

/// `items` in a random order, as a queue.
fn shuffled<T>(mut items: Vec<T>, rng: &mut Rng) -> VecDeque<T> {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
    items.into()
}

/// Removes `count` edges spread evenly over `edges` and returns them.
fn take_spaced(edges: &mut Vec<(u32, u32)>, count: usize) -> Vec<(u32, u32)> {
    let step = edges.len() / count.max(1);
    let picked: Vec<(u32, u32)> = (0..count).map(|i| edges[i * step + step / 2]).collect();
    edges.retain(|e| !picked.contains(e));
    picked
}

/// The reader's query stream.
pub struct QueryGen<'a> {
    rng: Rng,
    n: u64,
    /// Per-window endpoints and the count of windows published so far.
    recent: Option<(&'a [Vec<u32>], &'a AtomicUsize)>,
}

impl QueryGen<'_> {
    pub fn next_vertex(&mut self) -> VertexId {
        if let Some((endpoints, published)) = self.recent {
            let done = published.load(Ordering::Relaxed).min(endpoints.len());
            if done > 0 && self.rng.below(10) < 9 {
                let lo = done.saturating_sub(HOT_WINDOWS);
                let ends = &endpoints[lo + self.rng.below((done - lo) as u64) as usize];
                if !ends.is_empty() {
                    return VertexId(ends[self.rng.below(ends.len() as u64) as usize]);
                }
            }
        }
        VertexId(self.rng.below(self.n) as u32)
    }
}

/// Paced reader: bursts of `spec.burst` calls to `query`, then a fixed
/// sleep, until `stop` is set.
pub fn read_until(
    spec: &Spec,
    queries: &mut QueryGen<'_>,
    stop: &AtomicBool,
    mut query: impl FnMut(VertexId),
) {
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..spec.burst {
            query(queries.next_vertex());
        }
        std::thread::sleep(READER_SLEEP);
    }
}

/// Vertices of the oracle check: a fixed sample drawn from the seed.
pub const ORACLE_SAMPLE: usize = 256;

/// The graph a published state answers for, rebuilt from its edge list.
pub fn graph_of(n: usize, edges: impl Iterator<Item = (VertexId, VertexId)>) -> DiGraph {
    DiGraph::from_edges(n, edges.map(|(a, b)| (a.0, b.0)))
}

/// Compares `snapshot` with the BFS oracle on `graph` over the seeded
/// sample; every compared vertex counts as attempted, every mismatch as
/// failed.
pub fn oracle_check(snapshot: &SnapshotIndex, graph: &DiGraph, seed: u64) -> Tally {
    let mut rng = Rng::new(seed ^ 0x0_4ac1e);
    let n = graph.vertex_count() as u64;
    let mut tally = Tally::default();
    for _ in 0..ORACLE_SAMPLE {
        let v = VertexId(rng.below(n) as u32);
        tally.record(snapshot.query(v) == scc_count_bfs(graph, v));
    }
    tally
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves no empty parent behind; fails harmlessly while another
        // run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Copies the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
