//! Ablation A3: width of the per-register NI/LI instance counters. The
//! paper used 3 bits (up to 7 in-flight instances of one register) and
//! reports that issue never blocked on an unavailable instance (§5.1).
//!
//! The whole counter-width grid goes through one engine
//! [`ruu_engine::SweepEngine::run_grid`] call, so every configuration's
//! suite runs in parallel.
//!
//! Run with `cargo bench -p ruu-bench --bench ablation_counters`.

use ruu_bench::{engine, or_exit, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let jobs: Vec<Job> = [1u32, 2, 3, 4]
        .iter()
        .map(|&bits| {
            Job::new(
                Mechanism::Ruu {
                    entries: 20,
                    bypass: Bypass::Full,
                },
                MachineConfig::paper().with_counter_bits(bits),
            )
            .with_label(format!(
                "{bits}-bit counters (max {} instances)",
                (1u32 << bits) - 1
            ))
        })
        .collect();
    let grid = or_exit(engine().run_grid(&jobs));
    print!(
        "{}",
        report::format_plain_sweep(
            "Ablation A3 — NI/LI counter width (RUU, 20 entries, full bypass)",
            "configuration",
            &grid.jobs
        )
    );
    println!();
    println!(
        "Expectation (paper §5.1): 3 bits never block; 1 bit serialises same-register writes."
    );
    println!("{}", grid.stats);
}
