//! The §7 extension: an RUU with branch prediction and **conditional
//! (speculative) execution**.
//!
//! The paper closes by observing that the RUU "provides a very powerful
//! mechanism for nullifying instructions … the conditional execution of
//! instructions with a RUU is very easy" and that "there is no hard limit
//! to the number of branches that can be predicted" (§7). This module
//! builds that machine:
//!
//! * a conditional branch whose condition is not ready no longer parks in
//!   the decode stage — a [`Predictor`] picks a path and fetch continues;
//! * speculative instructions enter the RUU, execute, and forward results
//!   normally, but **cannot commit** past an unresolved branch, so the
//!   architectural state stays precise;
//! * on a misprediction, every younger RUU entry is nullified: the NI/LI
//!   instance counters, the A future file and the load registers are
//!   restored from the branch's snapshot, and fetch redirects to the
//!   correct path.
//!
//! Everything architectural is untouched by speculation, so the golden-
//! equivalence tests hold for this machine exactly as for the base RUU.
//! Both run on the shared out-of-order core; only the branch policy
//! differs.

use ruu_exec::{ArchState, Memory};
use ruu_isa::Program;
use ruu_sim_core::{MachineConfig, NullObserver, PipelineObserver, RunResult};

use crate::ooo::{expect_completed, Branches, Machine, OutOfOrder, Policy};
use crate::predict::{Predictor, PredictorConfig};
use crate::ruu::{Bypass, Ruu};
use crate::SimError;

/// Statistics specific to speculative execution.
#[derive(Debug, Clone, Default)]
pub struct SpecStats {
    /// Conditional branches whose outcome had to be predicted.
    pub predicted: u64,
    /// Predictions that turned out wrong.
    pub mispredicted: u64,
    /// Speculative instructions nullified by squashes.
    pub nullified: u64,
}

/// Result of a speculative run: the architectural [`RunResult`] plus
/// speculation statistics.
#[derive(Debug, Clone)]
pub struct SpecRunResult {
    /// The architectural result (instructions = committed instructions
    /// plus resolved branches, exactly as the non-speculative machines
    /// count).
    pub run: RunResult,
    /// Speculation counters.
    pub spec: SpecStats,
}

/// The speculative RUU simulator.
#[derive(Debug, Clone)]
pub struct SpecRuu {
    /// The same RUU with speculation turned off.
    ruu: Ruu,
    predictor: PredictorConfig,
}

impl SpecRuu {
    /// Creates a speculative RUU with `entries` window entries and the
    /// default predictor ([`PredictorConfig::default`], the paper-era
    /// 64-entry two-bit counter table).
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(config: MachineConfig, entries: usize, bypass: Bypass) -> Self {
        SpecRuu::with_predictor(config, entries, bypass, PredictorConfig::default())
    }

    /// As [`SpecRuu::new`], selecting the branch predictor the uniform
    /// [`crate::IssueSimulator`] entry points instantiate per run.
    ///
    /// # Panics
    /// Panics if `entries` is zero or `predictor` fails
    /// [`PredictorConfig::validate`].
    #[must_use]
    pub fn with_predictor(
        config: MachineConfig,
        entries: usize,
        bypass: Bypass,
        predictor: PredictorConfig,
    ) -> Self {
        if let Err(e) = predictor.validate() {
            panic!("invalid predictor configuration: {e}");
        }
        SpecRuu {
            ruu: Ruu::new(config, entries, bypass),
            predictor,
        }
    }

    /// The predictor configuration used by the trait-object entry points.
    #[must_use]
    pub fn predictor(&self) -> PredictorConfig {
        self.predictor
    }

    /// Runs `program` to completion under speculation with `predictor`.
    ///
    /// # Errors
    /// [`SimError::InstLimit`] if more than `limit` *architectural*
    /// instructions complete; [`SimError::Deadlock`] on lack of progress.
    pub fn run(
        &self,
        program: &Program,
        mem: Memory,
        limit: u64,
        predictor: &mut dyn Predictor,
    ) -> Result<SpecRunResult, SimError> {
        let state = ArchState::new();
        self.run_from_observed(state, mem, program, limit, predictor, &mut NullObserver)
    }

    /// As [`SpecRuu::run`], starting from an explicit architectural state
    /// (fetch starts at `state.pc`) and reporting every pipeline event to
    /// `obs` (including [`PipelineObserver::flush`] on each misprediction
    /// squash).
    ///
    /// # Errors
    /// As for [`SpecRuu::run`].
    pub fn run_from_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        predictor: &mut dyn Predictor,
        obs: &mut dyn PipelineObserver,
    ) -> Result<SpecRunResult, SimError> {
        let (cfg, policy) = (self.machine_config(), self.policy());
        let machine = Machine::new(cfg, policy, state, mem, program, limit, obs);
        let (outcome, spec) = machine.run(None, Some(predictor))?;
        Ok(SpecRunResult {
            run: expect_completed(outcome),
            spec,
        })
    }
}

impl OutOfOrder for SpecRuu {
    fn machine_config(&self) -> &MachineConfig {
        self.ruu.machine_config()
    }

    fn policy(&self) -> Policy {
        Policy {
            branches: Branches::Predict(self.predictor),
            ..self.ruu.policy()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{AlwaysTaken, Btfn, TwoBit};
    use crate::IssueSimulator;
    use ruu_exec::Trace;
    use ruu_isa::{Asm, Reg};

    fn cfg() -> MachineConfig {
        MachineConfig::paper()
    }

    fn loop_prog() -> Program {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 25);
        a.a_imm(Reg::a(1), 100);
        a.bind(top);
        a.ld_s(Reg::s(1), Reg::a(1), 0);
        a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
        a.st_s(Reg::s(2), Reg::a(1), 64);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn matches_golden_with_every_predictor() {
        let p = loop_prog();
        let g = Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap();
        let sim = SpecRuu::new(cfg(), 16, Bypass::Full);
        let mut preds: Vec<Box<dyn Predictor>> = vec![
            Box::new(AlwaysTaken),
            Box::new(Btfn),
            Box::new(TwoBit::default()),
        ];
        for p_ in &mut preds {
            let r = sim
                .run(&p, Memory::new(1 << 12), 1_000_000, p_.as_mut())
                .unwrap();
            assert_eq!(&r.run.state, g.final_state(), "{}", p_.name());
            assert_eq!(&r.run.memory, g.final_memory(), "{}", p_.name());
            assert_eq!(r.run.instructions, g.len() as u64, "{}", p_.name());
        }
    }

    #[test]
    fn speculation_beats_the_blocking_ruu_when_conditions_are_slow() {
        // The branch condition comes from a load, so the non-speculative
        // machine parks in decode every iteration while the predictor
        // sails through.
        let mut a = Asm::new("t");
        let top = a.new_label();
        let done = a.new_label();
        a.a_imm(Reg::a(1), 0); // index
        a.bind(top);
        a.ld_a(Reg::a(0), Reg::a(1), 600); // condition from memory (slow)
        a.ld_s(Reg::s(2), Reg::a(1), 200);
        a.f_mul(Reg::s(2), Reg::s(2), Reg::s(2));
        a.st_s(Reg::s(2), Reg::a(1), 400);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.br_az(done); // waits on the load in the blocking machine
        a.jump(top);
        a.bind(done);
        a.halt();
        let p = a.assemble().unwrap();
        let mut mem = Memory::new(1 << 12);
        for i in 0..40 {
            mem.write(600 + i, 1); // loop continues while nonzero
        }
        mem.write(640, 0);

        let base = Ruu::new(cfg(), 16, Bypass::Full)
            .run(&p, mem.clone(), 1_000_000)
            .unwrap();
        let mut pred = TwoBit::default();
        let spec = SpecRuu::new(cfg(), 16, Bypass::Full)
            .run(&p, mem.clone(), 1_000_000, &mut pred)
            .unwrap();
        assert_eq!(spec.run.state.regs, base.state.regs);
        assert_eq!(spec.run.memory, base.memory);
        assert!(
            spec.run.cycles < base.cycles,
            "spec {} vs blocking {}",
            spec.run.cycles,
            base.cycles
        );
        assert!(spec.spec.predicted > 0);
        // The exit iteration (br_az finally taken) is the misprediction.
        assert!(spec.spec.mispredicted >= 1);
        assert!(spec.spec.nullified > 0);
    }

    #[test]
    fn mispredictions_are_architecturally_invisible() {
        // An alternating, slowly-resolving branch direction defeats the
        // predictor regularly; the final state must still be golden.
        let mut a = Asm::new("t2");
        let top = a.new_label();
        let skip = a.new_label();
        a.a_imm(Reg::a(7), 20); // loop count in A7
        a.a_imm(Reg::a(1), 0);
        a.bind(top);
        a.ld_a(Reg::a(0), Reg::a(1), 500); // alternating 0/1, slow
        a.br_az(skip);
        a.s_imm(Reg::s(1), 7);
        a.st_s(Reg::s(1), Reg::a(1), 300);
        a.bind(skip);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(7), Reg::a(7), 1);
        a.a_add_imm(Reg::a(0), Reg::a(7), 0);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let mut mem = Memory::new(1 << 12);
        for i in 0..20 {
            mem.write(500 + i, i % 2);
        }
        let g = Trace::capture(&p, mem.clone(), 1_000_000).unwrap();
        for bypass in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            let mut pred = TwoBit::default();
            let r = SpecRuu::new(cfg(), 12, bypass)
                .run(&p, mem.clone(), 1_000_000, &mut pred)
                .unwrap();
            assert_eq!(&r.run.state, g.final_state(), "{bypass:?}");
            assert_eq!(&r.run.memory, g.final_memory(), "{bypass:?}");
            assert!(r.spec.mispredicted > 0, "{bypass:?} must mispredict");
        }
    }

    #[test]
    fn livermore_kernel_runs_speculatively_and_verifies() {
        let w = ruu_workloads::livermore::lll5();
        let mut pred = TwoBit::default();
        let r = SpecRuu::new(cfg(), 16, Bypass::Full)
            .run(&w.program, w.memory.clone(), w.inst_limit, &mut pred)
            .unwrap();
        w.verify(&r.run.memory).unwrap();
    }
}
