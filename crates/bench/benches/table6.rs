//! Regenerates **Table 6** of the paper: the RUU with **limited bypass**
//! — a future file shadowing the 8 A registers, no other bypass.
//!
//! Run with `cargo bench -p ruu-bench --bench table6`.

use ruu_bench::{paper, print_paper_sweep};
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    print_paper_sweep(
        "Table 6 — RUU with limited bypass (A-register future file)",
        &MachineConfig::paper(),
        &paper::TABLE6,
        |entries| Mechanism::Ruu {
            entries,
            bypass: Bypass::LimitedA,
        },
    );
}
