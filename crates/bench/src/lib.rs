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
//! | `mechanism_spectrum`, `section4`, `per_loop` | the §3→§5 walk, the §4 schemes, per-loop speedups |
//! | `ablation_*`, `speculation`, `precision_cost` | extension experiments |
//!
//! The library half holds the harness (workload sweeps), the paper's
//! published numbers ([`paper`]), and table formatting, so integration
//! tests can assert the *shape* of each reproduced result.
//!
//! Each sweep, ablation and comparison target builds its experiment as a
//! list of labelled [`ruu_engine::Job`]s and runs it with one `run_grid`
//! call on the shared parallel [`ruu_engine::SweepEngine`] (see
//! [`harness::engine`]); the [`report`] functions print the resulting
//! [`ruu_engine::JobResult`]s.
//! Results are bit-identical for any worker count. Every harness entry
//! point that runs returns `Result<_, ruu_engine::EngineError>`, which a
//! target hands to [`or_exit`], and every table reads the runs'
//! `RunStats` (per-loop rows are the engine's [`ruu_engine::WorkloadRow`]s).

pub mod harness;
pub mod paper;
pub mod report;

pub use harness::{
    baseline_rows, cache_ablation, engine, predictor_ablation, sweep, sweep_serial,
    CacheAblationRow, PredictorAblationRow,
};

/// The value of `result`, or, on an error, `error: …` on stderr and exit
/// status 1: how every bench target stops on a failed run.
pub fn or_exit<T>(result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// Runs and prints one of the paper's sweep tables (Tables 2–6):
/// `make(entries)` under `config` at each window size `table` lists, next
/// to the paper's numbers, then the engine's stats line.
pub fn print_paper_sweep(
    title: &str,
    config: &ruu_sim_core::MachineConfig,
    table: &[(usize, f64, f64)],
    make: impl Fn(usize) -> ruu_issue::Mechanism,
) {
    let entries: Vec<usize> = table.iter().map(|&(e, ..)| e).collect();
    let grid = or_exit(engine().run_grid(&sweep(config, &entries, make)));
    print!("{}", report::format_sweep(title, &grid.jobs, table));
    println!();
    println!("{}", grid.stats);
}
