//! Regenerates **Table 1** of the paper: per-loop statistics of the simple
//! issue mechanism on the Lawrence Livermore loops.
//!
//! Run with `cargo bench -p ruu-bench --bench table1`.

use ruu_bench::{baseline_rows, cache_ablation, predictor_ablation, report, stall_breakdown};
use ruu_engine::EngineError;
use ruu_issue::{Bypass, Mechanism, PredictorConfig};
use ruu_sim_core::{DCacheConfig, MachineConfig};

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), EngineError> {
    let cfg = MachineConfig::paper();
    let rows = baseline_rows(&cfg)?;
    println!("## Table 1 — statistics for the benchmark programs (simple issue)");
    println!();
    print!("{}", report::format_table1(&rows));
    println!();
    let stalls = stall_breakdown(&cfg, Mechanism::Simple)?;
    print!(
        "{}",
        report::format_stall_table("Where the cycles go (simple issue)", &stalls)
    );
    println!();
    let ablation = predictor_ablation(&cfg, 15)?;
    print!(
        "{}",
        report::format_predictor_ablation(
            "Predictor ablation — speculative RUU (15 entries), suite totals",
            &ablation
        )
    );
    println!();
    let mechanisms = [
        Mechanism::Simple,
        Mechanism::InOrderPrecise {
            scheme: ruu_issue::PreciseScheme::ReorderBufferBypass,
            entries: 15,
        },
        Mechanism::Rstu { entries: 15 },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
        Mechanism::SpecRuu {
            entries: 15,
            bypass: Bypass::Full,
            predictor: PredictorConfig::default(),
        },
    ];
    let dcaches: Vec<DCacheConfig> = ["64x2x4:5:1:4", "64x2x4:20:1:4"]
        .iter()
        .map(|s| DCacheConfig::parse(s).expect("ablation geometry"))
        .collect();
    let cache_rows = cache_ablation(&cfg, &mechanisms, &dcaches)?;
    print!(
        "{}",
        report::format_cache_ablation(
            "Data-cache ablation — suite totals, miss latency 5 vs 20 cycles",
            &cache_rows
        )
    );
    // The paper's motivating claim on a real memory path: sensitivity to
    // miss latency (cycles at 20 over cycles at 5), lower is better.
    let sensitivity: Vec<String> = cache_rows
        .chunks(3)
        .map(|g| {
            format!(
                "{} {:.3}x",
                g[0].mechanism,
                g[2].cycles as f64 / g[1].cycles as f64
            )
        })
        .collect();
    println!("miss-latency sensitivity: {}", sensitivity.join(", "));
    println!();
    println!(
        "Note: 'ours' runs hand-compiled kernels (DESIGN.md §1); absolute counts differ \
         from the paper's CFT-compiled code, shapes are compared in tests/shape_checks.rs."
    );
    Ok(())
}
