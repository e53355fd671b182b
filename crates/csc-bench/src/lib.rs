//! # csc-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! CSC paper's evaluation (Section VI):
//!
//! | Paper artifact | Module | `repro` subcommand |
//! |----------------|--------|--------------------|
//! | Table IV (datasets) | [`experiments::table4`] | `table4` |
//! | Figure 9 (index time & size) | [`experiments::fig9`] | `fig9` |
//! | Figure 10 (query time by degree cluster) | [`experiments::fig10`] | `fig10` |
//! | Figure 11 (incremental updates) | [`experiments::fig11`] | `fig11` |
//! | Figure 12 (decremental updates) | [`experiments::fig12`] | `fig12` |
//! | Figure 13 (fraud case study) | [`experiments::case_study`] | `case-study` |
//! | (extension) read scalability | [`experiments::throughput`] | `throughput` |
//! | (extension) batched stream replay | [`experiments::stream_replay`] | `stream-replay` |
//!
//! Beyond the paper artifacts, `benches/snapshot.rs` pits the frozen
//! snapshot read path against the nested-`Vec` live path and measures
//! reader throughput/latency under an active writer (results recorded in
//! the repo-root `BENCH_query.json`), `benches/batch.rs` replays a
//! timestamped update trace through `apply_batch` at batch sizes 1–512
//! (recorded in `BENCH_batch.json`), and the `kernel_probe` binary
//! attributes the read-path speedup between layout and kernel. See
//! `docs/BENCHMARKING.md` for how to run everything and read the outputs.
//!
//! The paper's nine SNAP/Konect graphs are replaced by seeded synthetic
//! analogs ([`datasets`]) because this environment has no network access
//! and the original builds take up to 61 hours; DESIGN.md §4 records the
//! substitution argument. Absolute numbers therefore differ from the
//! paper; EXPERIMENTS.md compares the *shapes* (who wins, by what factor,
//! where the trends bend).

pub mod datasets;
pub mod experiments;
pub mod measure;
pub mod table;
