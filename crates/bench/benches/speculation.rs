//! Extension A5 (paper §7, future work): conditional execution of
//! predicted paths in the RUU. Compares the blocking RUU (branches wait
//! in decode for their condition) against the speculative RUU with three
//! predictors, across window sizes. The matched-cost rows charge both
//! machines the same redirect costs (taken 1 cycle, not taken 0), so the
//! speculative RUU's gain there is time saved waiting on conditions.
//!
//! Run with `cargo bench -p ruu-bench --bench speculation`.

use ruu_bench::{engine, or_exit};
use ruu_exec::ArchState;
use ruu_issue::{Bypass, Mechanism, PredictorConfig};
use ruu_sim_core::{FlushAccountant, MachineConfig};
use ruu_workloads::{livermore, Workload};

/// Prints one table row: `mechanism` under `cfg` over the suite, with its
/// speedup over `baseline` cycles. A failed run stops the target.
fn row(cfg: &MachineConfig, mechanism: Mechanism, label: &str, suite: &[Workload], baseline: u64) {
    let sim = mechanism.build(cfg);
    let mut cycles = 0;
    let mut insts = 0;
    let mut predicted = 0;
    let mut mispredicted = 0;
    // Each misprediction reports the entries it nullified as a flush.
    let mut flushes = FlushAccountant::default();
    for w in suite {
        let r = or_exit(
            sim.run_observed(
                ArchState::new(),
                w.memory.clone(),
                &w.program,
                w.inst_limit,
                &mut flushes,
            )
            .map_err(|e| format!("job {label} failed on {}: {e}", w.name)),
        );
        or_exit(
            w.verify(&r.memory)
                .map_err(|e| format!("job {label} wrong result on {}: {e}", w.name)),
        );
        cycles += r.cycles;
        insts += r.instructions;
        predicted += r.stats.predicted_branches;
        mispredicted += r.stats.mispredicted_branches;
    }
    let (mp, nullified) = match mechanism.predictor() {
        None => ("—".to_string(), "—".to_string()),
        Some(_) => (
            format!(
                "{:.1}",
                100.0 * mispredicted as f64 / predicted.max(1) as f64
            ),
            flushes.squashed().to_string(),
        ),
    };
    println!(
        "| {} | {label} | {:.3} | {:.3} | {mp} | {nullified} | {cycles} |",
        mechanism.window_entries().expect("an RUU has entries"),
        baseline as f64 / cycles as f64,
        insts as f64 / cycles as f64
    );
}

fn main() {
    let cfg = MachineConfig::paper();
    let matched = cfg.clone().with_branch_penalties(1, 0);
    let suite = livermore::all();
    let baseline = or_exit(engine().baseline_cycles(&cfg));

    println!("### Extension A5 — speculative (conditional-mode) execution in the RUU");
    println!(
        "| RUU entries | machine | speedup | issue rate | mispredict % | nullified | cycles |"
    );
    println!("|---:|---|---:|---:|---:|---:|---:|");
    for entries in [10usize, 20, 30] {
        let blocking = Mechanism::Ruu {
            entries,
            bypass: Bypass::Full,
        };
        let spec = |predictor| Mechanism::SpecRuu {
            entries,
            bypass: Bypass::Full,
            predictor,
        };
        row(&cfg, blocking, "blocking RUU", &suite, baseline);
        for predictor in [
            PredictorConfig::AlwaysTaken,
            PredictorConfig::Btfn,
            PredictorConfig::default(),
        ] {
            // The predictor's own name ("2-bit"), as the table has always shown.
            let label = format!("spec RUU ({})", predictor.build().name());
            row(&cfg, spec(predictor), &label, &suite, baseline);
        }
        let matched_spec = spec(PredictorConfig::default());
        row(
            &matched,
            blocking,
            "blocking RUU, matched costs",
            &suite,
            baseline,
        );
        row(
            &matched,
            matched_spec,
            "spec RUU (2-bit), matched costs",
            &suite,
            baseline,
        );
    }
    println!();
    println!(
        "Speedups are over the simple machine at the paper's costs. Matched costs: \
         every machine pays 1 cycle after a taken branch and 0 after a not-taken one, \
         guessed or known."
    );
    println!(
        "Expectation (paper §7): prediction removes branch-condition waits; the RUU's \
         nullification makes recovery cheap, so speculation lifts the issue rate toward \
         the dead-cycle-only limit."
    );
}
