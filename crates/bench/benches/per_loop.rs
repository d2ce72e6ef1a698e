//! Per-loop breakdown of the headline comparison (the paper reports only
//! suite totals for Tables 2–6; this target shows where each mechanism's
//! win comes from — and where it cannot win).
//!
//! Run with `cargo bench -p ruu-bench --bench per_loop`.

use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;
use ruu_workloads::livermore;

fn main() {
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

    for w in livermore::all() {
        let base = Mechanism::Simple
            .build(&cfg)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .expect("baseline runs");
        print!("| {} | {:.3} |", w.name, base.issue_rate());
        for (_, m) in &mechanisms {
            let r = m
                .build(&cfg)
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .expect("mechanism runs");
            w.verify(&r.memory).expect("results verify");
            print!(" {:.2} |", base.cycles as f64 / r.cycles as f64);
        }
        println!();
    }
    println!();
    println!(
        "Expectation: the independent-iteration loops (LLL1, 7, 12) gain the most; \
         the tight recurrences (LLL5, 11) are latency-bound and gain the least — \
         dependency structure, not the mechanism, sets their ceiling."
    );
}
