//! Extension A6: the price of precision. The RSTU commits out of order
//! (imprecise); the RUU is the same hardware constrained to in-order
//! commit (precise). Their gap, per window size and bypass policy, is
//! what precise interrupts cost on this machine.
//!
//! Run with `cargo bench -p ruu-bench --bench precision_cost`.

use ruu_bench::{engine, or_exit};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let sizes = [4usize, 8, 10, 15, 20, 30];
    // One row of three jobs per window size: RSTU, RUU with and without bypass.
    let jobs: Vec<Job> = sizes
        .iter()
        .flat_map(|&entries| {
            [
                Mechanism::Rstu { entries },
                Mechanism::Ruu {
                    entries,
                    bypass: Bypass::Full,
                },
                Mechanism::Ruu {
                    entries,
                    bypass: Bypass::None,
                },
            ]
        })
        .map(|m| Job::new(m, cfg.clone()))
        .collect();
    let grid = or_exit(engine().run_grid(&jobs));

    println!("### Extension A6 — the cost of precise interrupts");
    println!("| entries | RSTU speedup | RUU (bypass) | precision cost | RUU (no bypass) |");
    println!("|---:|---:|---:|---:|---:|");
    for (entries, row) in sizes.iter().zip(grid.jobs.chunks(3)) {
        let (rstu, ruu, ruu_none) = (row[0].speedup, row[1].speedup, row[2].speedup);
        let cost = 100.0 * (1.0 - ruu / rstu);
        println!("| {entries} | {rstu:.3} | {ruu:.3} | {cost:.1}% | {ruu_none:.3} |");
    }
    println!();
    println!(
        "Expectation (paper §6.1): with bypass logic and a reasonable window, the \
         RUU approaches the unconstrained RSTU — precision is nearly free; without \
         bypass the aggravated dependencies cost much more."
    );
}
