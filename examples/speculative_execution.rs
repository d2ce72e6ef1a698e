//! The paper's §7 future work, built: conditional execution of predicted
//! branch paths in the RUU, with nullification on mispredictions.
//!
//! ```sh
//! cargo run --release --example speculative_execution
//! ```

use ruu::issue::{AlwaysTaken, Btfn, Bypass, Mechanism, Predictor, SpecRuu, TwoBit};
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::paper();
    let w = livermore::lll11();
    println!("workload: {} — {}", w.name, w.description);
    println!(
        "(its branch condition depends on the loop counter chain, so the blocking\n\
         machine regularly parks the branch in the decode stage)\n"
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

    let mut predictors: Vec<Box<dyn Predictor>> = vec![
        Box::new(AlwaysTaken),
        Box::new(Btfn),
        Box::new(TwoBit::default()),
    ];
    for p in &mut predictors {
        let r = SpecRuu::new(cfg.clone(), 20, Bypass::Full).run(
            &w.program,
            w.memory.clone(),
            w.inst_limit,
            p.as_mut(),
        )?;
        w.verify(&r.run.memory)?; // speculation is architecturally invisible
        println!(
            "speculative RUU(20, {:<12}): {:>7} cycles, IPC {:.3}  \
             ({} predicted, {} mispredicted, {} nullified)",
            p.name(),
            r.run.cycles,
            r.run.issue_rate(),
            r.spec.predicted,
            r.spec.mispredicted,
            r.spec.nullified,
        );
    }
    Ok(())
}
