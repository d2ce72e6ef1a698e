//! Per-loop breakdown of the headline comparison (the paper reports only
//! suite totals for Tables 2–6; this target shows where each mechanism's
//! win comes from — and where it cannot win).
//!
//! Run with `cargo bench -p ruu-bench --bench per_loop`.

use ruu_bench::stall_breakdown;
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
    let mechanisms = [
        ("RSTU(15)", Mechanism::Rstu { entries: 15 }),
        (
            "RUU(15)",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::Full,
            },
        ),
        (
            "RUU(15) no-byp",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::None,
            },
        ),
        (
            "RUU(15) ltd",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::LimitedA,
            },
        ),
    ];

    println!("### Per-loop speedups over the simple baseline (window = 15)");
    print!("| loop | base IPC |");
    for (n, _) in &mechanisms {
        print!(" {n} |");
    }
    println!();
    print!("|---|---:|");
    for _ in &mechanisms {
        print!("---:|");
    }
    println!();

    let base = stall_breakdown(&cfg, Mechanism::Simple)?;
    let runs = mechanisms
        .iter()
        .map(|&(_, m)| stall_breakdown(&cfg, m))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, b) in base.iter().enumerate() {
        print!("| {} | {:.3} |", b.name, b.issue_rate());
        for rows in &runs {
            print!(" {:.2} |", b.cycles as f64 / rows[i].cycles as f64);
        }
        println!();
    }
    println!();
    println!(
        "Expectation: the independent-iteration loops (LLL1, 7, 12) gain the most; \
         the tight recurrences (LLL5, 11) are latency-bound and gain the least — \
         dependency structure, not the mechanism, sets their ceiling."
    );
    Ok(())
}
