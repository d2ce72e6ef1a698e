//! Regenerates **Table 4** of the paper: the RUU **with bypass logic**.
//!
//! Run with `cargo bench -p ruu-bench --bench table4`.

use ruu_bench::{paper, print_paper_sweep};
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    print_paper_sweep(
        "Table 4 — RUU with bypass logic (precise interrupts)",
        &MachineConfig::paper(),
        &paper::TABLE4,
        |entries| Mechanism::Ruu {
            entries,
            bypass: Bypass::Full,
        },
    );
}
