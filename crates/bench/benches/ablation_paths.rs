//! Ablation A1: how many RSTU/RUU→functional-unit data paths are worth
//! having? The paper measures 1 vs 2 for the RSTU (Tables 2–3) and argues
//! from instruction flow that more than one path barely helps when decode
//! fills the window at one instruction per cycle (§3.2.3.1). This sweep
//! extends the experiment to the RUU and to 4 paths.
//!
//! The whole (paths × mechanism) grid goes through one engine
//! [`ruu_engine::SweepEngine::run_grid`] call, so every cell runs in
//! parallel and each path count's simple-issue baseline is computed once.
//!
//! Run with `cargo bench -p ruu-bench --bench ablation_paths`.

use ruu_bench::{engine, or_exit, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let mut jobs = Vec::new();
    for paths in [1u32, 2, 4] {
        let cfg = MachineConfig::paper().with_dispatch_paths(paths);
        jobs.push(
            Job::new(Mechanism::Rstu { entries: 10 }, cfg.clone())
                .with_label(format!("RSTU(10), {paths} path(s)")),
        );
        jobs.push(
            Job::new(
                Mechanism::Ruu {
                    entries: 10,
                    bypass: Bypass::Full,
                },
                cfg,
            )
            .with_label(format!("RUU(10, bypass), {paths} path(s)")),
        );
    }
    let grid = or_exit(engine().run_grid(&jobs));
    print!(
        "{}",
        report::format_plain_sweep(
            "Ablation A1 — dispatch paths to the functional units",
            "configuration",
            &grid.jobs
        )
    );
    println!();
    println!(
        "Expectation (paper §3.2.3.1): the decode stage fills the window at ≤1 \
         instruction/cycle, so extra drain paths help only marginally."
    );
    println!("{}", grid.stats);
}
