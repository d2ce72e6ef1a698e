//! Quick calibration snapshot: baseline Table 1 plus small sweeps of every
//! mechanism, for eyeballing the machine model against the paper.

use ruu_bench::{baseline_rows, harness, paper, report, sweep};
use ruu_engine::EngineError;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), EngineError> {
    let cfg = MachineConfig::paper();
    println!("== Table 1 (baseline) ==");
    print!("{}", report::format_table1(&baseline_rows(&cfg)?));
    println!(
        "baseline total cycles: {}",
        harness::engine().baseline_cycles(&cfg)?
    );

    let sizes = [3, 4, 6, 8, 10, 15, 20, 30, 50];
    let (rstu, _) = sweep(&cfg, &sizes, |entries| Mechanism::Rstu { entries })?;
    print!("{}", report::format_sweep("RSTU", &rstu, &paper::TABLE2));
    for (name, bypass, table) in [
        ("RUU full bypass", Bypass::Full, &paper::TABLE4),
        ("RUU no bypass", Bypass::None, &paper::TABLE5),
        ("RUU limited bypass", Bypass::LimitedA, &paper::TABLE6),
    ] {
        let (pts, _) = sweep(&cfg, &sizes, |entries| Mechanism::Ruu { entries, bypass })?;
        print!("{}", report::format_sweep(name, &pts, table));
    }
    Ok(())
}
