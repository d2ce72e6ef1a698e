//! Regenerates **Table 6** of the paper: the RUU with **limited bypass**
//! — a future file shadowing the 8 A registers, no other bypass.
//!
//! Run with `cargo bench -p ruu-bench --bench table6`.

use ruu_bench::{harness, paper, report};
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let entries: Vec<usize> = paper::TABLE6.iter().map(|&(e, ..)| e).collect();
    let (pts, stats) = harness::sweep(&cfg, &entries, |entries| Mechanism::Ruu {
        entries,
        bypass: Bypass::LimitedA,
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    print!(
        "{}",
        report::format_sweep(
            "Table 6 — RUU with limited bypass (A-register future file)",
            &pts,
            &paper::TABLE6
        )
    );
    println!();
    println!("{}", stats);
}
