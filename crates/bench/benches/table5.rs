//! Regenerates **Table 5** of the paper: the RUU **without bypass logic**
//! (reservation stations monitor the result bus and the RUU→register-file
//! bus only).
//!
//! Run with `cargo bench -p ruu-bench --bench table5`.

use ruu_bench::{harness, paper, report};
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let entries: Vec<usize> = paper::TABLE5.iter().map(|&(e, ..)| e).collect();
    let (pts, stats) = harness::sweep(&cfg, &entries, |entries| Mechanism::Ruu {
        entries,
        bypass: Bypass::None,
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    print!(
        "{}",
        report::format_sweep("Table 5 — RUU without bypass logic", &pts, &paper::TABLE5)
    );
    println!();
    println!("{}", report::format_engine_stats(&stats));
}
