//! # ruu-bench — the paper's experiments, regenerated
//!
//! One bench target per table/figure of the paper (run with
//! `cargo bench -p ruu-bench --bench <name>`):
//!
//! | Target | Paper content |
//! |---|---|
//! | `table1` | baseline statistics per Livermore loop |
//! | `table2` | RSTU sweep, 1 dispatch path |
//! | `table3` | RSTU sweep, 2 dispatch paths |
//! | `table4` | RUU sweep, full bypass |
//! | `table5` | RUU sweep, no bypass |
//! | `table6` | RUU sweep, limited (A future file) bypass |
//! | `figure3` | Tag Unit walkthrough |
//! | `ablation_*`, `speculation`, `precision_cost` | extension experiments |
//!
//! The library half holds the harness (workload sweeps), the paper's
//! published numbers ([`paper`]), and table formatting, so integration
//! tests can assert the *shape* of each reproduced result.
//!
//! Sweeps execute on the shared parallel [`ruu_engine::SweepEngine`]
//! (see [`harness::engine`]); set `RUU_BENCH_JOBS=1` to force serial
//! execution. Results are bit-identical for any worker count. Every
//! harness entry point returns `Result<_, ruu_engine::EngineError>`, and
//! every table reads the runs' `RunStats` (per-loop rows are the
//! engine's [`WorkloadRow`]s).

pub mod harness;
pub mod paper;
pub mod report;

pub use harness::{
    baseline_rows, cache_ablation, engine, predictor_ablation, stall_breakdown, sweep,
    sweep_serial, CacheAblationRow, PredictorAblationRow, SweepPoint,
};
pub use ruu_engine::WorkloadRow;
