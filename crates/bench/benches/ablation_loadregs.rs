//! Ablation A2: number of load registers. The paper used 6 and remarks
//! that 4 were sufficient for most cases (§5.1).
//!
//! The whole load-register grid goes through one engine
//! [`ruu_engine::SweepEngine::run_grid`] call, so every configuration's
//! suite runs in parallel.
//!
//! Run with `cargo bench -p ruu-bench --bench ablation_loadregs`.

use ruu_bench::{harness, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let jobs: Vec<Job> = [1usize, 2, 3, 4, 6, 8, 12]
        .iter()
        .map(|&lrs| {
            Job::new(
                Mechanism::Ruu {
                    entries: 15,
                    bypass: Bypass::Full,
                },
                MachineConfig::paper().with_load_registers(lrs),
            )
            .with_label(format!("{lrs} load registers"))
        })
        .collect();
    let grid = harness::engine().run_grid(&jobs).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let rows: Vec<(String, f64, f64)> = grid
        .jobs
        .iter()
        .map(|j| (j.label.clone(), j.speedup, j.issue_rate))
        .collect();
    print!(
        "{}",
        report::format_plain_sweep(
            "Ablation A2 — load registers (RUU, 15 entries, full bypass)",
            "configuration",
            &rows
        )
    );
    println!();
    println!("Expectation (paper §5.1): ~4 registers suffice; 6 never block issue.");
    println!("{}", grid.stats);
}
