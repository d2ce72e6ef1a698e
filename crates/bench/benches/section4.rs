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

use ruu_bench::{harness, report};
use ruu_engine::EngineError;
use ruu_issue::{Bypass, Mechanism, PreciseScheme};
use ruu_sim_core::MachineConfig;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), EngineError> {
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
    let mut out = Vec::new();
    for (label, m) in rows {
        let (pts, _) = harness::sweep(&cfg, &[entries], |_| m)?;
        out.push((label, pts[0].speedup, pts[0].issue_rate));
    }
    print!(
        "{}",
        report::format_plain_sweep(
            "Extension A7 — §4 precise-interrupt schemes vs. the RUU",
            "machine",
            &out
        )
    );
    println!();
    println!(
        "Expectation: plain reorder buffer < 1.0 (aggravated dependencies); \
         bypass = history = future file ≈ 1.0 (precision without out-of-order \
         issue gains nothing on its own); RUU well above 1.0 (both at once)."
    );
    Ok(())
}
