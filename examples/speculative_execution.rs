//! The paper's §7 future work, built: conditional execution of predicted
//! branch paths in the RUU, with nullification on mispredictions.
//!
//! On LLL4 the speculative RUU's lead over the blocking RUU is mostly a
//! property of the timing model: `MachineConfig::spec_taken_bubble` (1) is
//! smaller than `branch_taken_penalty` (3), so a branch guessed taken costs
//! less than one whose condition is known at decode. CHANGES.md records the
//! measurement as a `FOUND:` note on `Machine::predict_branch`.
//!
//! ```sh
//! cargo run --release --example speculative_execution
//! ```

use ruu::exec::ArchState;
use ruu::issue::{Bypass, Mechanism, PredictorConfig};
use ruu::sim::{FlushAccountant, MachineConfig};
use ruu::workloads::livermore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::paper();
    let w = livermore::lll4();
    println!("workload: {} — {}", w.name, w.description);
    println!(
        "(the speculative machine reaches the inner-loop branch while the trip-count\n\
         decrement is still in flight, so it predicts the branch taken. The blocking\n\
         machine hardly waits for that condition; its extra cycles come from the\n\
         timing model, which charges a predicted-taken branch a {}-cycle bubble\n\
         (spec_taken_bubble) but a taken branch whose condition is already known\n\
         {} dead cycles (branch_taken_penalty). Guessing is modelled as cheaper\n\
         than knowing, so most of the gain below is that difference, not time\n\
         saved waiting on branch conditions.)\n",
        cfg.spec_taken_bubble, cfg.branch_taken_penalty
    );

    let blocking = Mechanism::Ruu {
        entries: 20,
        bypass: Bypass::Full,
    }
    .build(&cfg)
    .run(&w.program, w.memory.clone(), w.inst_limit)?;
    println!(
        "blocking RUU(20):            {:>7} cycles, IPC {:.3}",
        blocking.cycles,
        blocking.issue_rate()
    );

    for predictor in [
        PredictorConfig::AlwaysTaken,
        PredictorConfig::Btfn,
        PredictorConfig::default(),
    ] {
        let spec = Mechanism::SpecRuu {
            entries: 20,
            bypass: Bypass::Full,
            predictor,
        };
        // Each misprediction reports the entries it nullified as a flush.
        let mut flushes = FlushAccountant::default();
        let r = spec.build(&cfg).run_observed(
            ArchState::new(),
            w.memory.clone(),
            &w.program,
            w.inst_limit,
            &mut flushes,
        )?;
        w.verify(&r.memory)?; // speculation is architecturally invisible
        println!(
            "speculative RUU(20, {:<12}): {:>7} cycles, IPC {:.3}  \
             ({} predicted, {} mispredicted, {} nullified)",
            predictor.to_string(),
            r.cycles,
            r.issue_rate(),
            r.stats.predicted_branches,
            r.stats.mispredicted_branches,
            flushes.squashed(),
        );
    }
    Ok(())
}
