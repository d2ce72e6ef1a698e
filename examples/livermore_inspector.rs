//! Inspect a Livermore kernel: disassembly, dynamic instruction mix, and
//! per-mechanism stall breakdown.
//!
//! ```sh
//! cargo run --release --example livermore_inspector [LLL1..LLL14]
//! ```

use ruu::issue::{Bypass, Mechanism};
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "LLL3".into());
    let w = livermore::by_name(&name)
        .ok_or_else(|| format!("unknown workload {name}; use LLL1..LLL14"))?;

    println!("{}", w.program.listing());

    let trace = w.golden_trace()?;
    println!("dynamic instructions: {}", trace.len());
    println!("{}", trace.mix());

    let cfg = MachineConfig::paper();
    for m in [
        Mechanism::Simple,
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
    ] {
        let r = m
            .build(&cfg)
            .run(&w.program, w.memory.clone(), w.inst_limit)?;
        println!(
            "--- {m}: {} cycles, IPC {:.3}, window peak {} ---",
            r.cycles,
            r.issue_rate(),
            r.stats.occupancy_peak
        );
        println!("{}", r.stats);
    }
    Ok(())
}
