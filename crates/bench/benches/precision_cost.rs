//! Extension A6: the price of precision. The RSTU commits out of order
//! (imprecise); the RUU is the same hardware constrained to in-order
//! commit (precise). Their gap, per window size and bypass policy, is
//! what precise interrupts cost on this machine.
//!
//! Run with `cargo bench -p ruu-bench --bench precision_cost`.

use ruu_bench::sweep;
use ruu_engine::EngineError;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), EngineError> {
    let cfg = MachineConfig::paper();
    let sizes = [4usize, 8, 10, 15, 20, 30];
    let (rstu, _) = sweep(&cfg, &sizes, |entries| Mechanism::Rstu { entries })?;
    let (ruu, _) = sweep(&cfg, &sizes, |entries| Mechanism::Ruu {
        entries,
        bypass: Bypass::Full,
    })?;
    let (ruu_none, _) = sweep(&cfg, &sizes, |entries| Mechanism::Ruu {
        entries,
        bypass: Bypass::None,
    })?;

    println!("### Extension A6 — the cost of precise interrupts");
    println!("| entries | RSTU speedup | RUU (bypass) | precision cost | RUU (no bypass) |");
    println!("|---:|---:|---:|---:|---:|");
    for i in 0..sizes.len() {
        let cost = 100.0 * (1.0 - ruu[i].speedup / rstu[i].speedup);
        println!(
            "| {} | {:.3} | {:.3} | {:.1}% | {:.3} |",
            sizes[i], rstu[i].speedup, ruu[i].speedup, cost, ruu_none[i].speedup
        );
    }
    println!();
    println!(
        "Expectation (paper §6.1): with bypass logic and a reasonable window, the \
         RUU approaches the unconstrained RSTU — precision is nearly free; without \
         bypass the aggravated dependencies cost much more."
    );
    Ok(())
}
