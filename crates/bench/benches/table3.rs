//! Regenerates **Table 3** of the paper: the RSTU with two data paths to
//! the functional units.
//!
//! Run with `cargo bench -p ruu-bench --bench table3`.

use ruu_bench::{harness, paper, report};
use ruu_issue::Mechanism;
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper().with_dispatch_paths(2);
    let entries: Vec<usize> = paper::TABLE3.iter().map(|&(e, ..)| e).collect();
    let (pts, stats) = harness::sweep(&cfg, &entries, |entries| Mechanism::Rstu { entries })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    print!(
        "{}",
        report::format_sweep(
            "Table 3 — RSTU with 2 data paths to the functional units",
            &pts,
            &paper::TABLE3
        )
    );
    println!();
    println!("{}", stats);
}
