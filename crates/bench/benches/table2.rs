//! Regenerates **Table 2** of the paper: relative speedup and issue rate
//! of the RSTU (one dispatch path) vs. the number of RSTU entries.
//!
//! Run with `cargo bench -p ruu-bench --bench table2`.

use ruu_bench::{harness, paper, report};
use ruu_issue::Mechanism;
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let entries: Vec<usize> = paper::TABLE2.iter().map(|&(e, ..)| e).collect();
    let (pts, stats) = harness::sweep(&cfg, &entries, |entries| Mechanism::Rstu { entries })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    print!(
        "{}",
        report::format_sweep(
            "Table 2 — relative speedup and issue rate with a RSTU",
            &pts,
            &paper::TABLE2
        )
    );
    println!();
    println!("{}", stats);
}
