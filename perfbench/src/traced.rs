//! The traced run: per-layer spans taken in the benchmark's own code
//! around calls into each module's public functions.
//!
//! The measured phase applies each window twice, to twin copies of the
//! built state: first through the untraced `ConcurrentIndex::apply_batch`,
//! then through the write path the benchmark composes itself from the
//! layers that call runs: `WriteAheadLog::append`,
//! `MaintenanceEngine::apply_batch` with durability detached,
//! `MaintenanceEngine::publish_from`, and the cadence checkpoint
//! (`CscIndex::to_bytes` + `wal::write_checkpoint` + log rotation), each
//! timed as a span. The untraced call on the same window is the reference
//! the spans are held against. The reader alternates between the two
//! states and times `ConcurrentIndex::snapshot` and `SnapshotIndex::query`
//! apart on the untraced one.
//!
//! Like the untraced run, it then applies the crash tail to the built
//! state in a directory of its own, drops it, and recovers the same way,
//! span by span: checkpoint load, log read, replay, re-anchor and the
//! final freeze. Untraced `ConcurrentIndex::open` calls alternate with the
//! composed recoveries, each on its own copy of the crashed directory.
//!
//! Work counters are taken over the first `Spec::counted_windows`
//! windows of the composed path and on the snapshot published after them,
//! so they repeat exactly for a given seed.

use crate::e2e::SETUP_REPS;
use crate::stats::{mean, median, ms, percentile, ratio, Metrics, Tally};
use crate::workload::{copy_dir, graph_of, oracle_check, read_until, Inputs, Spec, WorkDir};
use csc_core::wal::{self, WriteAheadLog};
use csc_core::{
    ConcurrentIndex, CscError, CscIndex, DurabilityConfig, FsyncPolicy, GraphUpdate,
    MaintenanceEngine, SnapshotIndex,
};
use csc_graph::bipartite::{in_vertex, out_vertex};
use csc_graph::{RankTable, VertexId};
use csc_labeling::LabelStore;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Query vertices drawn for the deterministic entries-scanned count.
const SCAN_SAMPLE: usize = 4096;
/// A full-freeze yardstick is timed after every this many windows.
const FREEZE_EVERY: usize = 8;
/// Pairs of untraced and composed recoveries; each side reports its median.
const RECOVER_PAIRS: usize = 3;

/// Times `f`, adding its duration to `span`.
fn span<R>(span: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *span += t.elapsed();
    r
}

/// Per-window span durations of the composed write path.
#[derive(Default)]
struct WindowSpans {
    wal_append: Duration,
    apply: Duration,
    publish: Duration,
    checkpoint: Duration,
}

impl WindowSpans {
    fn covered(&self) -> Duration {
        self.wal_append + self.apply + self.publish + self.checkpoint
    }
}

/// The composed write path: the layers `ConcurrentIndex::apply_batch`
/// runs, called one by one.
struct Pipeline<'a> {
    engine: MaintenanceEngine,
    prev: Arc<SnapshotIndex>,
    slot: &'a RwLock<Arc<SnapshotIndex>>,
    /// Durability directory and its log, when the workload is durable.
    log: Option<(PathBuf, WriteAheadLog)>,
    durability: DurabilityConfig,
    /// Windows logged since the last checkpoint, as the engine counts them.
    since_checkpoint: u32,
    seq: u64,
}

impl<'a> Pipeline<'a> {
    /// A pipeline whose last publish, `prev`, is already in `slot`.
    fn new(
        engine: MaintenanceEngine,
        prev: Arc<SnapshotIndex>,
        slot: &'a RwLock<Arc<SnapshotIndex>>,
        durability: DurabilityConfig,
    ) -> Self {
        Pipeline {
            engine,
            prev,
            slot,
            log: None,
            durability,
            since_checkpoint: 0,
            seq: 0,
        }
    }

    fn window(
        &mut self,
        window: &[GraphUpdate],
    ) -> Result<(WindowSpans, Result<csc_core::BatchReport, CscError>), CscError> {
        let mut s = WindowSpans::default();
        self.seq += 1;
        let seq = self.seq;
        if let Some((_, log)) = self.log.as_mut() {
            span(&mut s.wal_append, || log.append(seq, window))?;
        }
        let report = span(&mut s.apply, || self.engine.apply_batch(window));
        span(&mut s.publish, || {
            let next = Arc::new(self.engine.publish_from(Some(&self.prev)));
            *self
                .slot
                .write()
                .expect("reader never panics holding the slot") = next.clone();
            self.prev = next;
        });
        self.since_checkpoint += 1;
        if self.log.is_some() && self.since_checkpoint >= self.durability.checkpoint_every {
            span(&mut s.checkpoint, || self.checkpoint())?;
        }
        Ok((s, report))
    }

    /// `MaintenanceEngine::attach_durability`'s steps: a checkpoint of the
    /// current state and a fresh log behind it.
    fn attach(&mut self, dir: &Path) -> Result<(), CscError> {
        std::fs::create_dir_all(dir).map_err(|e| CscError::io("bench.workdir", &e))?;
        wal::write_checkpoint(dir, self.seq, &self.engine.index().to_bytes()?)?;
        let log = WriteAheadLog::create(&dir.join(wal::WAL_FILE), self.seq, self.durability.fsync)?;
        self.log = Some((dir.to_path_buf(), log));
        self.since_checkpoint = 0;
        Ok(())
    }

    /// `MaintenanceEngine::checkpoint`'s steps: serialize, write the
    /// checkpoint, rotate the log behind it, prune old generations.
    fn checkpoint(&mut self) -> Result<(), CscError> {
        let Some((dir, log)) = self.log.as_mut() else {
            return Ok(());
        };
        let bytes = self.engine.index().to_bytes()?;
        wal::write_checkpoint(dir, self.seq, &bytes)?;
        log.rotate(self.seq)?;
        wal::prune_checkpoints(dir, self.durability.keep_checkpoints as usize);
        self.since_checkpoint = 0;
        Ok(())
    }
}

/// Span durations of the composed recovery.
#[derive(Default)]
struct RecoverySpans {
    load: Duration,
    read: Duration,
    replay: Duration,
    reanchor: Duration,
    freeze: Duration,
    records: usize,
}

impl RecoverySpans {
    fn covered(&self) -> Duration {
        self.load + self.read + self.replay + self.reanchor + self.freeze
    }
}

/// `MaintenanceEngine::recover` + the first publish, step by step.
fn recover(
    dir: &Path,
    durability: &DurabilityConfig,
) -> Result<(RecoverySpans, SnapshotIndex), CscError> {
    let mut s = RecoverySpans::default();
    let (ckpt_seq, mut index) = span(&mut s.load, || {
        let (seq, path) = wal::list_checkpoints(dir)
            .into_iter()
            .next()
            .ok_or_else(|| CscError::corrupt("recovery", "no checkpoint"))?;
        Ok::<_, CscError>((seq, CscIndex::from_bytes(&wal::read_file(&path)?)?))
    })?;
    let log_path = dir.join(wal::WAL_FILE);
    let records = span(&mut s.read, || WriteAheadLog::read_all(&log_path))?.1;
    let records: Vec<_> = records.into_iter().filter(|r| r.seq > ckpt_seq).collect();
    s.records = records.len();
    span(&mut s.replay, || {
        records
            .iter()
            .try_for_each(|r| index.apply_batch(&r.updates).map(drop))
    })?;
    let last_seq = records.last().map_or(ckpt_seq, |r| r.seq);
    span(&mut s.reanchor, || {
        wal::write_checkpoint(dir, last_seq, &index.to_bytes()?)?;
        WriteAheadLog::create(&log_path, last_seq, durability.fsync)?;
        wal::prune_checkpoints(dir, durability.keep_checkpoints as usize);
        Ok::<_, CscError>(())
    })?;
    let snapshot = span(&mut s.freeze, || SnapshotIndex::freeze(&index));
    Ok((s, snapshot))
}

/// Label entries one `SCCnt(v)` intersects: |Lout(v_o)| + |Lin(v_i)|.
fn entries_scanned(snapshot: &SnapshotIndex, v: VertexId) -> usize {
    let labels = snapshot.labels();
    labels.out_of(out_vertex(v)).len() + labels.in_of(in_vertex(v)).len()
}

/// Mean label entries per bipartite vertex, by the decile of the vertex's
/// own rank (decile 0 holds the highest-ranked hubs).
fn rank_deciles(snapshot: &SnapshotIndex) -> [f64; 10] {
    let labels = snapshot.labels();
    let ranks = snapshot.ranks();
    let n = labels.vertex_count().min(ranks.len());
    let mut entries = [0usize; 10];
    let mut vertices = [0usize; 10];
    for b in 0..n as u32 {
        let v = VertexId(b);
        let decile = (ranks.rank(v) as usize * 10 / n).min(9);
        entries[decile] += labels.out_of(v).len() + labels.in_of(v).len();
        vertices[decile] += 1;
    }
    std::array::from_fn(|d| ratio(entries[d] as f64, vertices[d] as f64))
}

/// WAL bytes per update of `windows`, appended to a fresh unsynced log.
fn wal_bytes_per_update(path: &Path, windows: &[Vec<GraphUpdate>]) -> Result<f64, CscError> {
    let len = |p: &Path| std::fs::metadata(p).map(|m| m.len() as f64);
    let io = |e: std::io::Error| CscError::io("bench.wal_probe", &e);
    let mut log = WriteAheadLog::create(path, 0, FsyncPolicy::Never)?;
    let empty = len(path).map_err(io)?;
    for (i, w) in windows.iter().enumerate() {
        log.append(i as u64 + 1, w)?;
    }
    let updates: usize = windows.iter().map(Vec::len).sum();
    Ok(ratio(len(path).map_err(io)? - empty, updates as f64))
}

pub fn run(spec: &Spec, inputs: &Inputs, seconds: f64) -> Result<(Metrics, Tally), CscError> {
    let work = WorkDir::new(&format!("{}-traced", spec.name))
        .map_err(|e| CscError::io("bench.workdir", &e))?;
    let config = spec.config();
    let mut m = Metrics::default();
    let mut tally = Tally::default();

    // Set-up split: the ordering alone, then the whole build.
    let mut rank_ms = Vec::new();
    let mut index_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        black_box(RankTable::build(&inputs.graph, config.order));
        rank_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let index = CscIndex::build(&inputs.graph, config)?;
        index_ms.push(ms(t.elapsed()));
        built = Some(index);
    }
    let index = built.expect("at least one set-up");
    let build = index.stats().build;
    m.put("order.rank_ms", median(&mut rank_ms), "ms");
    m.put("build.index_ms", median(&mut index_ms), "ms");
    m.put("build.dequeues", build.dequeues as f64, "count");
    m.put(
        "build.pruned_frac",
        ratio(build.pruned as f64, build.dequeues as f64),
        "ratio",
    );
    m.put("build.entries", index.total_entries() as f64, "count");
    let (base, crash_base) = (index.clone(), index.clone());

    // The measured phase. Each window goes through the untraced
    // `ConcurrentIndex::apply_batch`, then through the composed path on a
    // twin of the same state, so every span sum has an untraced reference
    // on the same window, taken moments before.
    let ci = ConcurrentIndex::new(index);
    let mut engine = MaintenanceEngine::new(base);
    let first = Arc::new(engine.publish_from(None));
    let slot = RwLock::new(first.clone());
    let mut pipe = Pipeline::new(engine, first, &slot, config.durability);
    let dir = work.join("writes");
    std::fs::create_dir_all(&dir).map_err(|e| CscError::io("bench.workdir", &e))?;
    if spec.durable {
        ci.attach_durability(work.join("untraced"))?;
        pipe.attach(&dir)?;
    }

    let (mut acquire_ns, mut query_ns) = (Vec::new(), Vec::new());
    let mut untraced_ms = Vec::new();
    let mut windows_ms = Vec::new();
    let mut spans = Vec::new();
    let mut reports = Vec::new();
    let mut freeze_ms = Vec::new();
    let mut counted_bytes = 0usize;
    let stop = AtomicBool::new(false);
    let published = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let written = std::thread::scope(|s| {
        s.spawn(|| {
            // Queries alternate between the two states, so both writers
            // meet the same reader; the untraced side times its layers.
            let mut queries = inputs.queries(spec, 1, &published);
            let mut untraced = false;
            read_until(spec, &mut queries, &stop, |v| {
                untraced = !untraced;
                if untraced {
                    let t0 = Instant::now();
                    let snapshot = ci.snapshot();
                    let t1 = Instant::now();
                    black_box(snapshot.query(black_box(v)));
                    let t2 = Instant::now();
                    acquire_ns.push((t1 - t0).as_nanos() as f64);
                    query_ns.push((t2 - t1).as_nanos() as f64);
                } else {
                    let snapshot = slot
                        .read()
                        .expect("writer never panics holding the slot")
                        .clone();
                    black_box(snapshot.query(black_box(v)));
                }
            });
        });
        let result = (|| {
            for (i, w) in inputs.windows.iter().enumerate() {
                if i >= spec.counted_windows && Instant::now() >= deadline {
                    break;
                }
                let t = Instant::now();
                tally.record(ci.apply_batch(w).is_ok());
                untraced_ms.push(ms(t.elapsed()));
                let t = Instant::now();
                let (s, report) = pipe.window(w)?;
                windows_ms.push(ms(t.elapsed()));
                spans.push(s);
                tally.record(report.is_ok());
                reports.push(report.unwrap_or_default());
                published.store(i + 1, Ordering::Relaxed);
                if i < spec.counted_windows {
                    counted_bytes += pipe.prev.labels().arena_bytes();
                }
                if i + 1 == spec.counted_windows {
                    count_work(spec, inputs, &pipe, &dir, &mut m)?;
                }
                if (i + 1) % FREEZE_EVERY == 0 {
                    let t = Instant::now();
                    black_box(SnapshotIndex::freeze(pipe.engine.index()));
                    freeze_ms.push(ms(t.elapsed()));
                }
                if !spec.writer_sleep.is_zero() {
                    std::thread::sleep(spec.writer_sleep);
                }
            }
            Ok::<_, CscError>(())
        })();
        stop.store(true, Ordering::Relaxed);
        result
    });
    written?;
    m.put(
        "concurrent.acquire_ns_p50",
        percentile(&mut acquire_ns, 50.0),
        "ns",
    );
    m.put(
        "concurrent.acquire_ns_p99",
        percentile(&mut acquire_ns, 99.0),
        "ns",
    );
    m.put(
        "snapshot.query_ns_p50",
        percentile(&mut query_ns, 50.0),
        "ns",
    );
    m.put(
        "snapshot.query_ns_p99",
        percentile(&mut query_ns, 99.0),
        "ns",
    );
    let live = pipe.engine.index();
    let graph = graph_of(live.original_vertex_count(), live.original_edges());
    tally.add(oracle_check(&pipe.prev, &graph, inputs.seed));
    tally.add(oracle_check(&ci.snapshot(), &graph, inputs.seed));
    drop(pipe);
    drop(ci);

    // The crash tail on the built state, as in the untraced run.
    let dir = work.join("crashed");
    let mut engine = MaintenanceEngine::new(crash_base);
    let first = Arc::new(engine.publish_from(None));
    let slot = RwLock::new(first.clone());
    let mut pipe = Pipeline::new(engine, first, &slot, config.durability);
    pipe.attach(&dir)?;
    for w in &inputs.tail {
        tally.record(pipe.window(w)?.1.is_ok());
    }
    let crashed = pipe.engine.index();
    let graph = graph_of(crashed.original_vertex_count(), crashed.original_edges());
    drop(pipe);

    // Recovery re-anchors the directory it opens, so every recovery gets
    // its own copy. Alternating the two sides shares out the allocator's
    // and the page cache's warm-up between them.
    let copy = |name: String| {
        let to = work.join(&name);
        copy_dir(&dir, &to).map_err(|e| CscError::io("bench.copy", &e))?;
        Ok::<_, CscError>(to)
    };
    let mut untraced_recover_ms = Vec::with_capacity(RECOVER_PAIRS);
    let mut recoveries = Vec::with_capacity(RECOVER_PAIRS);
    for rep in 0..RECOVER_PAIRS {
        let untraced = copy(format!("untraced{rep}"))?;
        let t = Instant::now();
        let (reopened, _) = ConcurrentIndex::open(&untraced)?;
        black_box(reopened.snapshot());
        untraced_recover_ms.push(ms(t.elapsed()));
        drop(reopened);
        let (r, recovered) = recover(&copy(format!("traced{rep}"))?, &config.durability)?;
        if rep == 0 {
            tally.add(oracle_check(&recovered, &graph, inputs.seed));
        }
        recoveries.push(r);
    }

    let window_p50 = |f: &dyn Fn(&WindowSpans) -> Duration| {
        let mut v: Vec<f64> = spans.iter().map(|s| ms(f(s))).collect();
        median(&mut v)
    };
    m.put("snapshot.publish_ms_p50", window_p50(&|s| s.publish), "ms");
    m.put("batch.apply_ms_p50", window_p50(&|s| s.apply), "ms");
    m.put("wal.append_ms_p50", window_p50(&|s| s.wal_append), "ms");
    let mut checkpoint_ms: Vec<f64> = spans
        .iter()
        .filter(|s| !s.checkpoint.is_zero())
        .map(|s| ms(s.checkpoint))
        .collect();
    m.put("serial.checkpoint_ms", median(&mut checkpoint_ms), "ms");
    m.put("snapshot.freeze_ms", median(&mut freeze_ms), "ms");
    let repair_p50 = |f: &dyn Fn(&csc_core::UpdateReport) -> Duration| {
        let mut v: Vec<f64> = reports.iter().map(|r| ms(f(&r.repair))).collect();
        median(&mut v)
    };
    m.put("delete.classify_ms", repair_p50(&|r| r.classify_time), "ms");
    m.put("delete.subtract_ms", repair_p50(&|r| r.subtract_time), "ms");
    m.put("delete.relabel_ms", repair_p50(&|r| r.relabel_time), "ms");

    let counted = &reports[..spec.counted_windows];
    let sum = |f: &dyn Fn(&csc_core::BatchReport) -> usize| -> f64 {
        counted.iter().map(f).sum::<usize>() as f64
    };
    let windows = spec.counted_windows as f64;
    m.put(
        "batch.vertices_visited",
        sum(&|r| r.repair.vertices_visited) / windows,
        "count",
    );
    m.put(
        "batch.entries_changed",
        sum(&|r| r.repair.entries_inserted + r.repair.entries_updated + r.repair.entries_removed)
            / windows,
        "count",
    );
    let hits = sum(&|r| r.hub_cache_hits);
    m.put(
        "batch.hub_cache_hit_frac",
        ratio(hits, hits + sum(&|r| r.hub_cache_fills)),
        "ratio",
    );
    m.put(
        "batch.normalized_frac",
        ratio(
            sum(&|r| r.cancelled + r.rejected),
            sum(&|r| r.updates_submitted),
        ),
        "ratio",
    );
    m.put(
        "delete.rebuild_fallbacks",
        sum(&|r| r.repair.rebuild_fallbacks),
        "count",
    );
    m.put(
        "snapshot.publish_bytes",
        counted_bytes as f64 / windows,
        "B",
    );

    let recovery_p50 = |f: &dyn Fn(&RecoverySpans) -> Duration| {
        let mut v: Vec<f64> = recoveries.iter().map(|r| ms(f(r))).collect();
        median(&mut v)
    };
    m.put("wal.read_ms", recovery_p50(&|r| r.read), "ms");
    m.put("serial.load_ms", recovery_p50(&|r| r.load), "ms");
    m.put("serial.reanchor_ms", recovery_p50(&|r| r.reanchor), "ms");
    m.put("maintain.replay_ms", recovery_p50(&|r| r.replay), "ms");
    m.put(
        "maintain.records_replayed",
        recoveries[0].records as f64,
        "count",
    );
    m.put(
        "snapshot.recover_freeze_ms",
        recovery_p50(&|r| r.freeze),
        "ms",
    );

    // Attribution is held against the untraced call on the same window,
    // not against the composed path's own wall time, which the spans
    // cover by construction.
    let per_window = |traced: &dyn Fn(usize) -> f64| {
        let mut shares: Vec<f64> = (0..spans.len())
            .map(|i| ratio(traced(i), untraced_ms[i]))
            .collect();
        median(&mut shares)
    };
    m.put(
        "trace.unattributed_frac",
        1.0 - per_window(&|i| ms(spans[i].covered())),
        "ratio",
    );
    m.put(
        "trace.overhead_frac",
        per_window(&|i| windows_ms[i]) - 1.0,
        "ratio",
    );
    m.put(
        "trace.recover_unattributed_frac",
        1.0 - ratio(
            recovery_p50(&|r| r.covered()),
            median(&mut untraced_recover_ms),
        ),
        "ratio",
    );
    println!(
        "samples: {} windows, {} timed queries",
        spans.len(),
        query_ns.len()
    );
    Ok((m, tally))
}

/// The deterministic counters on the state after the counted windows.
fn count_work(
    spec: &Spec,
    inputs: &Inputs,
    pipe: &Pipeline,
    dir: &Path,
    m: &mut Metrics,
) -> Result<(), CscError> {
    let snapshot = &pipe.prev;
    let published = AtomicUsize::new(spec.counted_windows);
    let mut queries = inputs.queries(spec, 2, &published);
    let mut scanned: Vec<f64> = (0..SCAN_SAMPLE)
        .map(|_| entries_scanned(snapshot, queries.next_vertex()) as f64)
        .collect();
    m.put("frozen.entries_scanned_mean", mean(&scanned), "count");
    m.put(
        "frozen.entries_scanned_p99",
        percentile(&mut scanned, 99.0),
        "count",
    );
    for (d, size) in rank_deciles(snapshot).iter().enumerate() {
        m.put(format!("frozen.entries_rank_decile_{d}"), *size, "count");
    }
    m.put(
        "snapshot.dead_frac",
        snapshot.labels().dead_fraction(),
        "ratio",
    );
    let counted = &inputs.windows[..spec.counted_windows];
    m.put(
        "wal.bytes_per_update",
        wal_bytes_per_update(&dir.join("probe.log"), counted)?,
        "B",
    );
    m.put(
        "serial.checkpoint_mb",
        pipe.engine.index().to_bytes()?.len() as f64 / 1e6,
        "MB",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Stream, SPECS};

    /// The traced metrics that count work rather than time: for a given seed
    /// they must repeat exactly.
    const WORK_COUNTERS: [&str; 25] = [
        "build.dequeues",
        "build.pruned_frac",
        "build.entries",
        "frozen.entries_scanned_mean",
        "frozen.entries_scanned_p99",
        "frozen.entries_rank_decile_0",
        "frozen.entries_rank_decile_1",
        "frozen.entries_rank_decile_2",
        "frozen.entries_rank_decile_3",
        "frozen.entries_rank_decile_4",
        "frozen.entries_rank_decile_5",
        "frozen.entries_rank_decile_6",
        "frozen.entries_rank_decile_7",
        "frozen.entries_rank_decile_8",
        "frozen.entries_rank_decile_9",
        "snapshot.publish_bytes",
        "snapshot.dead_frac",
        "batch.vertices_visited",
        "batch.entries_changed",
        "batch.hub_cache_hit_frac",
        "batch.normalized_frac",
        "delete.rebuild_fallbacks",
        "wal.bytes_per_update",
        "serial.checkpoint_mb",
        "maintain.records_replayed",
    ];

    #[test]
    fn work_counters_repeat_for_a_seed() {
        for spec in SPECS {
            let smoke = Spec {
                scale: 0.03,
                windows: 24,
                checkpoint_every: 4,
                crash_tail: 2,
                counted_windows: 8,
                writer_sleep: Duration::ZERO,
                ..spec
            };
            let inputs = Inputs::generate(&smoke, 7);
            let (a, tally_a) = run(&smoke, &inputs, 0.0).expect("first smoke run");
            let (b, tally_b) = run(&smoke, &inputs, 0.0).expect("second smoke run");
            assert_eq!((tally_a.failed, tally_b.failed), (0, 0), "{}", spec.name);
            for name in WORK_COUNTERS {
                let (x, y) = (a.get(name), b.get(name));
                assert!(x.is_some(), "{}: {name} missing", spec.name);
                assert_eq!(x, y, "{}: {name} differs between runs", spec.name);
            }
            if let Stream::Churn { .. } = spec.stream {
                // The churn windows must reach the per-hub deletion repair,
                // not only the whole-index rebuild fallback.
                let fallbacks = a.get("delete.rebuild_fallbacks").unwrap_or_default();
                assert!(
                    fallbacks < smoke.counted_windows as f64,
                    "every counted churn window took the rebuild fallback"
                );
            }
        }
    }
}
