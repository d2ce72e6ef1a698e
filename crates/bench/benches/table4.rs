//! Regenerates **Table 4** of the paper: the RUU **with bypass logic**.
//!
//! Run with `cargo bench -p ruu-bench --bench table4`.

use ruu_bench::{harness, paper, report};
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let entries: Vec<usize> = paper::TABLE4.iter().map(|&(e, ..)| e).collect();
    let (pts, stats) = harness::sweep(&cfg, &entries, |entries| Mechanism::Ruu {
        entries,
        bypass: Bypass::Full,
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    print!(
        "{}",
        report::format_sweep(
            "Table 4 — RUU with bypass logic (precise interrupts)",
            &pts,
            &paper::TABLE4
        )
    );
    println!();
    println!("{}", stats);
}
