//! Ablation A2: number of load registers. The paper used 6 and remarks
//! that 4 were sufficient for most cases (§5.1).
//!
//! The whole load-register grid goes through one engine
//! [`ruu_engine::SweepEngine::run_grid`] call, so every configuration's
//! suite runs in parallel.
//!
//! Run with `cargo bench -p ruu-bench --bench ablation_loadregs`.

use ruu_bench::{engine, or_exit, report};
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
    let grid = or_exit(engine().run_grid(&jobs));
    print!(
        "{}",
        report::format_plain_sweep(
            "Ablation A2 — load registers (RUU, 15 entries, full bypass)",
            "configuration",
            &grid.jobs
        )
    );
    println!();
    println!("Expectation (paper §5.1): ~4 registers suffice; 6 never block issue.");
    println!("{}", grid.stats);
}
