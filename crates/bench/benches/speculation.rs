//! Extension A5 (paper §7, future work): conditional execution of
//! predicted paths in the RUU. Compares the blocking RUU (branches wait
//! in decode for their condition) against the speculative RUU with three
//! predictors, across window sizes.
//!
//! Run with `cargo bench -p ruu-bench --bench speculation`.

use ruu_exec::ArchState;
use ruu_issue::{Bypass, Mechanism, PredictorConfig};
use ruu_sim_core::{FlushAccountant, MachineConfig};
use ruu_workloads::livermore;

fn main() {
    let cfg = MachineConfig::paper();
    let suite = livermore::all();
    let baseline = {
        let mut c = 0;
        for w in &suite {
            c += Mechanism::Simple
                .build(&cfg)
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .expect("baseline runs")
                .cycles;
        }
        c
    };

    println!("### Extension A5 — speculative (conditional-mode) execution in the RUU");
    println!("| RUU entries | machine | speedup | issue rate | mispredict % | nullified |");
    println!("|---:|---|---:|---:|---:|---:|");
    for entries in [10usize, 20, 30] {
        // Blocking (paper) RUU reference point.
        let mut cycles = 0;
        let mut insts = 0;
        for w in &suite {
            let r = Mechanism::Ruu {
                entries,
                bypass: Bypass::Full,
            }
            .build(&cfg)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .expect("RUU runs");
            cycles += r.cycles;
            insts += r.instructions;
        }
        println!(
            "| {entries} | blocking RUU | {:.3} | {:.3} | — | — |",
            baseline as f64 / cycles as f64,
            insts as f64 / cycles as f64
        );

        for predictor in [
            PredictorConfig::AlwaysTaken,
            PredictorConfig::Btfn,
            PredictorConfig::default(),
        ] {
            let sim = Mechanism::SpecRuu {
                entries,
                bypass: Bypass::Full,
                predictor,
            }
            .build(&cfg);
            let mut cycles = 0;
            let mut insts = 0;
            let mut predicted = 0;
            let mut mispredicted = 0;
            // Each misprediction reports the entries it nullified as a flush.
            let mut flushes = FlushAccountant::default();
            for w in &suite {
                let r = sim
                    .run_observed(
                        ArchState::new(),
                        w.memory.clone(),
                        &w.program,
                        w.inst_limit,
                        &mut flushes,
                    )
                    .expect("speculative RUU runs");
                w.verify(&r.memory).expect("speculative result verifies");
                cycles += r.cycles;
                insts += r.instructions;
                predicted += r.stats.predicted_branches;
                mispredicted += r.stats.mispredicted_branches;
            }
            // The predictor's own name ("2-bit"), as the table has always shown.
            let name = predictor.build().name();
            let nullified = flushes.squashed();
            let mp = if predicted == 0 {
                0.0
            } else {
                100.0 * mispredicted as f64 / predicted as f64
            };
            println!(
                "| {entries} | spec RUU ({name}) | {:.3} | {:.3} | {mp:.1} | {nullified} |",
                baseline as f64 / cycles as f64,
                insts as f64 / cycles as f64
            );
        }
    }
    println!();
    println!(
        "Expectation (paper §7): prediction removes branch-condition waits; the RUU's \
         nullification makes recovery cheap, so speculation lifts the issue rate toward \
         the dead-cycle-only limit."
    );
}
