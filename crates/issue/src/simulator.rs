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

/// The machine state when an injected interrupt is taken: on a precise
/// mechanism, updated by every instruction before the faulting one and by
/// none after it (nor by it).
#[derive(Debug, Clone)]
pub struct InterruptFrame {
    /// The register state, with `pc` at the faulting instruction.
    pub state: ArchState,
    /// The memory.
    pub memory: Memory,
    /// Program counter of the faulting instruction (restart point).
    pub resume_pc: u32,
    /// Dynamic instructions that updated state before the interrupt
    /// (branches excluded; they resolve without updating state).
    pub committed: u64,
    /// Cycle at which the interrupt was taken.
    pub cycle: u64,
}

/// Outcome of [`IssueSimulator::run_with_fault`].
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The program ran to completion: the designated instruction never
    /// reached its update point (it was a branch, or never reached).
    Completed(RunResult),
    /// The designated instruction reached the point where it would update
    /// state, and the interrupt was taken with this frame.
    Interrupted(InterruptFrame),
}

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
    /// would run: a core that does not predict raises it when decode
    /// would let instruction `limit + 1` through, a predicting core where
    /// its `limit + 1`-th architectural completion (a commit or a
    /// resolved branch) would happen, since the wrong-path work it
    /// fetches cannot be counted. [`SimError::Deadlock`] on internal lack
    /// of progress.
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

    /// As [`IssueSimulator::run_observed`], with an exception injected on
    /// dynamic instruction `fault` (0-based over the golden instruction
    /// stream, branches included). The interrupt is taken where that
    /// instruction would update state, before it does: at commit on the
    /// precise mechanisms, at completion on the others. A branch never
    /// updates state, and a Nop does only on the RUU, so faulting either
    /// elsewhere runs to completion.
    ///
    /// Both cores override this; the provided method injects nothing.
    ///
    /// # Errors
    /// As for [`IssueSimulator::run_observed`].
    fn run_with_fault(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        fault: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunOutcome, SimError> {
        let _ = fault;
        let r = self.run_observed(state, mem, program, limit, obs)?;
        Ok(RunOutcome::Completed(r))
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
    use crate::{Bypass, Mechanism, PreciseScheme, PredictorConfig};
    use ruu_isa::{Asm, Reg};

    fn tiny_program() -> Program {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 7);
        a.a_add(Reg::a(2), Reg::a(1), Reg::a(1));
        a.halt();
        a.assemble().unwrap()
    }

    /// One mechanism of each face and kind: the in-order baseline, an
    /// RSTU, an RUU, a §4 scheme and the speculative RUU.
    fn one_of_each() -> [Mechanism; 5] {
        [
            Mechanism::Simple,
            Mechanism::Rstu { entries: 8 },
            Mechanism::Ruu {
                entries: 8,
                bypass: Bypass::Full,
            },
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::ReorderBuffer,
                entries: 8,
            },
            Mechanism::SpecRuu {
                entries: 8,
                bypass: Bypass::Full,
                predictor: PredictorConfig::default(),
            },
        ]
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
        for m in one_of_each() {
            let sim = m.build(&cfg);
            assert_eq!(sim.config(), &cfg, "{m}");
            let r = sim.run(&p, Memory::new(1 << 10), 1_000).unwrap();
            assert_eq!(r.state.reg(Reg::a(2)), 14, "{m}");
        }
    }

    #[test]
    fn run_observed_satisfies_cycle_accounting() {
        use ruu_sim_core::CycleAccountant;
        let cfg = MachineConfig::paper();
        let p = tiny_program();
        for m in one_of_each() {
            let mut acct = CycleAccountant::default();
            let r = m
                .build(&cfg)
                .run_observed(ArchState::new(), Memory::new(1 << 10), &p, 1_000, &mut acct)
                .unwrap();
            acct.verify(r.cycles).unwrap();
        }
    }

    #[test]
    fn default_run_matches_explicit_run_from() {
        let cfg = MachineConfig::paper();
        let p = tiny_program();
        for m in one_of_each() {
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
