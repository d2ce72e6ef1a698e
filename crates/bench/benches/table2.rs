//! Regenerates **Table 2** of the paper: relative speedup and issue rate
//! of the RSTU (one dispatch path) vs. the number of RSTU entries.
//!
//! Run with `cargo bench -p ruu-bench --bench table2`.

use ruu_bench::{paper, print_paper_sweep};
use ruu_issue::Mechanism;
use ruu_sim_core::MachineConfig;

fn main() {
    print_paper_sweep(
        "Table 2 — relative speedup and issue rate with a RSTU",
        &MachineConfig::paper(),
        &paper::TABLE2,
        |entries| Mechanism::Rstu { entries },
    );
}
