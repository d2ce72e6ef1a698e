//! Ablation A4: result-bus count. The model architecture has a single
//! result bus (§2) where the real CRAY-1 had separate address/scalar
//! result paths — this sweep quantifies what the single bus costs.
//!
//! The whole (bus count × mechanism) grid goes through one engine
//! [`ruu_engine::SweepEngine::run_grid`] call, so every cell runs in
//! parallel and each bus count's simple-issue baseline is computed once.
//!
//! Run with `cargo bench -p ruu-bench --bench ablation_buses`.

use ruu_bench::{engine, or_exit, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let mut jobs = Vec::new();
    for buses in [1u32, 2, 3] {
        let cfg = MachineConfig::paper().with_result_buses(buses);
        jobs.push(
            Job::new(Mechanism::Simple, cfg.clone()).with_label(format!("simple, {buses} bus(es)")),
        );
        jobs.push(
            Job::new(
                Mechanism::Ruu {
                    entries: 15,
                    bypass: Bypass::Full,
                },
                cfg,
            )
            .with_label(format!("RUU(15, bypass), {buses} bus(es)")),
        );
    }
    let grid = or_exit(engine().run_grid(&jobs));
    print!(
        "{}",
        report::format_plain_sweep("Ablation A4 — result buses", "configuration", &grid.jobs)
    );
    println!();
    println!(
        "Note: speedups are relative to the 1-bus simple baseline within each bus count's \
         own sweep; compare issue rates across rows."
    );
    println!("{}", grid.stats);
}
