//! The untraced run: the end-to-end metrics a user of `ConcurrentIndex`
//! sees, with no timing inside the write path.

use crate::stats::{mean, median, percentile, Metrics, Tally};
use crate::workload::{copy_dir, graph_of, oracle_check, read_until, Inputs, Spec, WorkDir};
use csc_core::{ConcurrentIndex, CscError, CscIndex, GraphUpdate};
use csc_graph::VertexId;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Recoveries after each set-up, each from its own copy of the crashed
/// directory. `recover_s` is their mean over the run.
const RECOVERIES_PER_SETUP: usize = 2;

/// What the writer and the reader of one measured phase recorded.
struct Phase {
    /// Wall time of each `apply_batch` call, in ms.
    visible_ms: Vec<f64>,
    /// `index_bytes()` of each window's published snapshot.
    snapshot_bytes: Vec<f64>,
    /// Updates applied, and the writer's wall time.
    applied: usize,
    writer_wall: Duration,
    writes: Tally,
}

/// Applies `windows` through `ci` until they run out or `deadline`
/// passes, sleeping `spec.writer_sleep` after each; bumps `published`
/// once each window is visible.
fn write_until(
    spec: &Spec,
    ci: &ConcurrentIndex,
    windows: &[Vec<GraphUpdate>],
    deadline: Instant,
    published: &AtomicUsize,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        visible_ms: Vec::with_capacity(windows.len()),
        snapshot_bytes: Vec::with_capacity(windows.len()),
        applied: 0,
        writer_wall: Duration::ZERO,
        writes: Tally::default(),
    };
    for (i, window) in windows.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let result = ci.apply_batch(window);
        phase.visible_ms.push(t.elapsed().as_secs_f64() * 1e3);
        published.store(i + 1, Ordering::Relaxed);
        phase
            .snapshot_bytes
            .push(ci.snapshot().index_bytes() as f64);
        phase.writes.record(result.is_ok());
        if let Ok(report) = result {
            phase.applied += report.applied_updates();
        }
        if !spec.writer_sleep.is_zero() {
            std::thread::sleep(spec.writer_sleep);
        }
    }
    phase.writer_wall = start.elapsed();
    phase
}

/// The measured phase: the workload's reader calls `query` per query
/// vertex while the writer applies windows through `ci`, for `seconds`.
fn serve(
    spec: &Spec,
    inputs: &Inputs,
    ci: &ConcurrentIndex,
    seconds: f64,
    query: impl FnMut(VertexId) + Send,
) -> Phase {
    let published = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        s.spawn(|| read_until(spec, &mut inputs.queries(spec, 1, &published), &stop, query));
        let phase = write_until(spec, ci, &inputs.windows, deadline, &published);
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        stop.store(true, Ordering::Relaxed);
        phase
    })
}

pub fn run(spec: &Spec, inputs: &Inputs, seconds: f64) -> Result<(Metrics, Tally), CscError> {
    let work = WorkDir::new(spec.name).map_err(|e| CscError::io("bench.workdir", &e))?;
    let config = spec.config();

    // The host's speed drifts over seconds, so the set-ups and the
    // recoveries are spread over the run: a set-up and its recoveries
    // before the measured phase, after it, and at the end.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = |rep: usize| -> Result<(ConcurrentIndex, PathBuf), CscError> {
        let dir = work.join(&format!("setup{rep}"));
        let t = Instant::now();
        let ci = ConcurrentIndex::new(CscIndex::build(&inputs.graph, config)?);
        if spec.durable {
            ci.attach_durability(&dir)?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        Ok((ci, dir))
    };

    // Crash tail, on the first set-up's index: the checkpoint of the
    // built state, the tail's windows in the WAL behind it, then a drop
    // with no shutdown. Without durability in the measured phase,
    // attaching it writes the checkpoint.
    let mut tally = Tally::default();
    let (crashed, dir) = setup(0)?;
    if !spec.durable {
        crashed.attach_durability(&dir)?;
    }
    for window in &inputs.tail {
        tally.record(crashed.apply_batch(window).is_ok());
    }
    let crashed_graph =
        crashed.with_read(|idx| graph_of(idx.original_vertex_count(), idx.original_edges()));
    drop(crashed);
    let mut recover_s = Vec::with_capacity(SETUP_REPS * RECOVERIES_PER_SETUP);
    let mut recover = |tally: &mut Tally| -> Result<(), CscError> {
        for _ in 0..RECOVERIES_PER_SETUP {
            let copy = work.join(&format!("recovered{}", recover_s.len()));
            copy_dir(&dir, &copy).map_err(|e| CscError::io("bench.copy", &e))?;
            let t = Instant::now();
            let (recovered, _) = ConcurrentIndex::open(&copy)?;
            let snapshot = recovered.snapshot();
            recover_s.push(t.elapsed().as_secs_f64());
            if recover_s.len() == 1 {
                tally.add(oracle_check(&snapshot, &crashed_graph, inputs.seed));
            }
            drop(recovered);
            std::fs::remove_dir_all(&copy).map_err(|e| CscError::io("bench.copy", &e))?;
        }
        Ok(())
    };
    recover(&mut tally)?;

    let (ci, _) = setup(1)?;
    let mut query_us = Vec::new();
    let phase = serve(spec, inputs, &ci, seconds, |v| {
        let t = Instant::now();
        black_box(ci.query(black_box(v)));
        query_us.push(t.elapsed().as_secs_f64() * 1e6);
    });
    tally.add(phase.writes);
    let live_mb = ci.with_read(|idx| idx.memory_bytes()) as f64 / 1e6;
    let graph = ci.with_read(|idx| graph_of(idx.original_vertex_count(), idx.original_edges()));
    tally.add(oracle_check(&ci.snapshot(), &graph, inputs.seed));
    drop(ci);
    recover(&mut tally)?;
    setup(2)?;
    recover(&mut tally)?;

    let mut visible = phase.visible_ms;
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setup_s), "s");
    m.put("query_p50_us", percentile(&mut query_us, 50.0), "us");
    m.put("query_p99_us", percentile(&mut query_us, 99.0), "us");
    m.put("visible_p50_ms", percentile(&mut visible, 50.0), "ms");
    m.put("visible_p90_ms", percentile(&mut visible, 90.0), "ms");
    m.put(
        "updates_per_s",
        phase.applied as f64 / phase.writer_wall.as_secs_f64(),
        "1/s",
    );
    m.put("recover_s", mean(&recover_s), "s");
    let snapshot_bytes = phase.snapshot_bytes;
    m.put("snapshot_mb", mean(&snapshot_bytes) / 1e6, "MB");
    m.put("live_mb", live_mb, "MB");
    println!(
        "samples: {} windows, {} queries, {} updates applied",
        visible.len(),
        query_us.len(),
        phase.applied
    );
    Ok((m, tally))
}
