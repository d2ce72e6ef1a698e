//! The [`IssueSimulator`] trait: one object-safe, `Send` interface over
//! every cycle-level issue-mechanism simulator.
//!
//! [`crate::Mechanism::build`] returns a `Box<dyn IssueSimulator>` that
//! batch engines (`ruu-engine`) can hand to worker threads, hold in job
//! tables, and drive uniformly — without caring which mechanism is behind
//! it. Object safety is deliberate: the parallel sweep engine stores
//! heterogeneous simulators in one grid. `Send` is part of the contract
//! because jobs migrate to `std::thread::scope` workers.

use ruu_exec::{ArchState, Memory};
use ruu_isa::Program;
use ruu_sim_core::{MachineConfig, NullObserver, PipelineObserver, RunResult};

use crate::SimError;

/// A configured, runnable issue-mechanism simulator.
///
/// Implementations are cheap to construct (configuration only — no
/// per-run state), so a fresh one can be built per job. All per-run
/// state lives inside `run_observed`, which is why one simulator value
/// can serve many sequential runs and why `&self` suffices.
pub trait IssueSimulator: Send {
    /// The machine configuration this simulator was built with.
    fn config(&self) -> &MachineConfig;

    /// Runs `program` from an explicit architectural state (e.g. a
    /// restart after a precise interrupt), reporting every pipeline event
    /// to `obs`.
    ///
    /// # Errors
    /// [`SimError::InstLimit`] if more than `limit` dynamic instructions
    /// issue; [`SimError::Deadlock`] on internal lack of progress.
    fn run_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunResult, SimError>;

    /// As [`IssueSimulator::run_observed`], unobserved. The cores override
    /// it to run the same code compiled against [`NullObserver`].
    ///
    /// # Errors
    /// As for [`IssueSimulator::run_observed`].
    fn run_from(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
    ) -> Result<RunResult, SimError> {
        self.run_observed(state, mem, program, limit, &mut NullObserver)
    }

    /// Runs `program` to completion from zeroed registers.
    ///
    /// # Errors
    /// As for [`IssueSimulator::run_observed`].
    fn run(&self, program: &Program, mem: Memory, limit: u64) -> Result<RunResult, SimError> {
        self.run_from(ArchState::new(), mem, program, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::TwoBit;
    use crate::{
        Bypass, InOrderPrecise, Mechanism, PreciseScheme, Ruu, SimpleIssue, SpecRuu, TaggedSim,
        WindowKind,
    };
    use ruu_isa::{Asm, Reg};

    fn tiny_program() -> Program {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 7);
        a.a_add(Reg::a(2), Reg::a(1), Reg::a(1));
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn trait_objects_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn IssueSimulator>();
        assert_send::<Box<dyn IssueSimulator>>();
    }

    #[test]
    fn boxed_simulators_run_uniformly() {
        let cfg = MachineConfig::paper();
        let p = tiny_program();
        let sims: Vec<Box<dyn IssueSimulator>> = vec![
            Box::new(SimpleIssue::new(cfg.clone())),
            Box::new(TaggedSim::new(
                cfg.clone(),
                WindowKind::Merged { entries: 8 },
            )),
            Box::new(Ruu::new(cfg.clone(), 8, Bypass::Full)),
            Box::new(InOrderPrecise::new(
                cfg.clone(),
                PreciseScheme::FutureFile,
                8,
            )),
        ];
        for sim in &sims {
            assert_eq!(sim.config(), &cfg);
            let r = sim.run(&p, Memory::new(1 << 10), 1_000).unwrap();
            assert_eq!(r.state.reg(Reg::a(2)), 14);
        }
    }

    #[test]
    fn run_observed_satisfies_cycle_accounting() {
        use ruu_sim_core::CycleAccountant;
        let cfg = MachineConfig::paper();
        let p = tiny_program();
        let sims: Vec<Box<dyn IssueSimulator>> = vec![
            Box::new(SimpleIssue::new(cfg.clone())),
            Box::new(TaggedSim::new(
                cfg.clone(),
                WindowKind::Merged { entries: 8 },
            )),
            Box::new(Ruu::new(cfg.clone(), 8, Bypass::Full)),
            Box::new(InOrderPrecise::new(
                cfg.clone(),
                PreciseScheme::FutureFile,
                8,
            )),
            Box::new(SpecRuu::new(cfg.clone(), 8, Bypass::Full)),
        ];
        for sim in &sims {
            let mut acct = CycleAccountant::default();
            let r = sim
                .run_observed(ArchState::new(), Memory::new(1 << 10), &p, 1_000, &mut acct)
                .unwrap();
            acct.verify(r.cycles).unwrap();
        }
    }

    #[test]
    fn spec_ruu_trait_run_matches_inherent_run() {
        let cfg = MachineConfig::paper();
        let p = tiny_program();
        let sim = SpecRuu::new(cfg, 8, Bypass::Full);
        let mut pred = TwoBit::default();
        let inherent = sim.run(&p, Memory::new(1 << 10), 1_000, &mut pred).unwrap();
        let boxed: Box<dyn IssueSimulator> = Box::new(sim);
        let via_trait = IssueSimulator::run(&*boxed, &p, Memory::new(1 << 10), 1_000).unwrap();
        assert_eq!(inherent.run.cycles, via_trait.cycles);
        assert_eq!(inherent.run.state, via_trait.state);
    }

    #[test]
    fn default_run_matches_explicit_run_from() {
        let cfg = MachineConfig::paper();
        let p = tiny_program();
        for m in [
            Mechanism::Simple,
            Mechanism::Rstu { entries: 4 },
            Mechanism::Ruu {
                entries: 4,
                bypass: Bypass::Full,
            },
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::ReorderBuffer,
                entries: 4,
            },
        ] {
            let sim = m.build(&cfg);
            let a = sim.run(&p, Memory::new(1 << 10), 1_000).unwrap();
            let b = sim
                .run_from(ArchState::new(), Memory::new(1 << 10), &p, 1_000)
                .unwrap();
            assert_eq!(a.cycles, b.cycles, "{m}");
            assert_eq!(a.state, b.state, "{m}");
        }
    }
}
