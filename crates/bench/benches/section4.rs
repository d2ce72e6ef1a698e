//! Extension A7 (paper §4): the Smith & Pleszkun in-order-issue precise
//! machines next to the imprecise baseline and the RUU. The §4 narrative
//! in one table:
//!
//! * the plain reorder buffer aggravates dependencies;
//! * bypass / history buffer / future file recover them (identical
//!   timing, different hardware);
//! * none of them issue out of order — the RUU does both at once (§5).
//!
//! Run with `cargo bench -p ruu-bench --bench section4`.

use ruu_bench::{engine, or_exit, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism, PreciseScheme};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let entries = 12;
    let rows: Vec<(String, Mechanism)> = vec![
        ("simple issue (imprecise)".into(), Mechanism::Simple),
        (
            format!("reorder buffer({entries}) — §4"),
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::ReorderBuffer,
                entries,
            },
        ),
        (
            format!("reorder buffer({entries}) + bypass — §4"),
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::ReorderBufferBypass,
                entries,
            },
        ),
        (
            format!("history buffer({entries}) — §4"),
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::HistoryBuffer,
                entries,
            },
        ),
        (
            format!("future file({entries}) — §4"),
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::FutureFile,
                entries,
            },
        ),
        (
            format!("RUU({entries}), bypass — §5"),
            Mechanism::Ruu {
                entries,
                bypass: Bypass::Full,
            },
        ),
    ];
    let jobs: Vec<Job> = rows
        .into_iter()
        .map(|(label, m)| Job::new(m, cfg.clone()).with_label(label))
        .collect();
    let grid = or_exit(engine().run_grid(&jobs));
    print!(
        "{}",
        report::format_plain_sweep(
            "Extension A7 — §4 precise-interrupt schemes vs. the RUU",
            "machine",
            &grid.jobs
        )
    );
    println!();
    println!(
        "Expectation: plain reorder buffer < 1.0 (aggravated dependencies); \
         bypass = history = future file ≈ 1.0 (precision without out-of-order \
         issue gains nothing on its own); RUU well above 1.0 (both at once)."
    );
}
