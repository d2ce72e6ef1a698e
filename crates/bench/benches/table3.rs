//! Regenerates **Table 3** of the paper: the RSTU with two data paths to
//! the functional units.
//!
//! Run with `cargo bench -p ruu-bench --bench table3`.

use ruu_bench::{paper, print_paper_sweep};
use ruu_issue::Mechanism;
use ruu_sim_core::MachineConfig;

fn main() {
    print_paper_sweep(
        "Table 3 — RSTU with 2 data paths to the functional units",
        &MachineConfig::paper().with_dispatch_paths(2),
        &paper::TABLE3,
        |entries| Mechanism::Rstu { entries },
    );
}
