//! Regenerates **Table 5** of the paper: the RUU **without bypass logic**
//! (reservation stations monitor the result bus and the RUU→register-file
//! bus only).
//!
//! Run with `cargo bench -p ruu-bench --bench table5`.

use ruu_bench::{paper, print_paper_sweep};
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    print_paper_sweep(
        "Table 5 — RUU without bypass logic",
        &MachineConfig::paper(),
        &paper::TABLE5,
        |entries| Mechanism::Ruu {
            entries,
            bypass: Bypass::None,
        },
    );
}
