//! Run one Livermore loop across every issue mechanism in the paper and
//! print the comparison — the paper's §3→§5 story on a single kernel.
//!
//! ```sh
//! cargo run --release --example issue_mechanism_comparison [LLL1..LLL14]
//! ```

use ruu::issue::{Bypass, Mechanism};
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "LLL7".into());
    let w = livermore::by_name(&name)
        .ok_or_else(|| format!("unknown workload {name}; use LLL1..LLL14"))?;
    println!("workload: {} — {}", w.name, w.description);

    let cfg = MachineConfig::paper();
    let mechanisms = [
        Mechanism::Simple,
        Mechanism::Tomasulo { rs_per_fu: 2 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 2,
            tags: 15,
        },
        Mechanism::RsPool { rs: 10, tags: 15 },
        Mechanism::Rstu { entries: 15 },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::LimitedA,
        },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::None,
        },
    ];

    let baseline = Mechanism::Simple
        .build(&cfg)
        .run(&w.program, w.memory.clone(), w.inst_limit)?
        .cycles;

    println!(
        "| {:<38} | {:>8} | {:>7} | {:>7} | precise |",
        "mechanism", "cycles", "speedup", "IPC"
    );
    for m in mechanisms {
        let r = m
            .build(&cfg)
            .run(&w.program, w.memory.clone(), w.inst_limit)?;
        w.verify(&r.memory)?;
        println!(
            "| {:<38} | {:>8} | {:>7.3} | {:>7.3} | {:>7} |",
            m.to_string(),
            r.cycles,
            r.speedup_vs(baseline),
            r.issue_rate(),
            if m.is_precise() { "yes" } else { "no" },
        );
    }
    Ok(())
}
