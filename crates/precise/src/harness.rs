//! The precise-interrupt check: inject, recover, compare, resume.

use ruu_exec::{golden_state_at, ArchState, Memory, Trace};
use ruu_isa::Program;
use ruu_issue::{Mechanism, RunOutcome, SimError};
use ruu_sim_core::{MachineConfig, NullObserver};

/// Outcome of one injected-exception experiment.
#[derive(Debug, Clone)]
pub struct PrecisionReport {
    /// Dynamic index of the faulting instruction.
    pub fault_seq: u64,
    /// The recovered register state equals the golden interpreter's state
    /// after exactly `fault_seq` instructions.
    pub state_precise: bool,
    /// The recovered memory equals the golden memory at the boundary.
    pub memory_precise: bool,
    /// The recovered pc equals the faulting instruction's pc.
    pub pc_precise: bool,
    /// The frame counts as committed exactly the golden non-branch
    /// instructions before `fault_seq`.
    pub committed_precise: bool,
    /// After resuming from the recovered state, the program's final state
    /// and memory equal an uninterrupted golden run.
    pub resume_exact: bool,
    /// Cycle at which the interrupt was taken.
    pub interrupt_cycle: u64,
}

impl PrecisionReport {
    /// `true` only if every check passed.
    #[must_use]
    pub fn all_precise(&self) -> bool {
        self.state_precise
            && self.memory_precise
            && self.pc_precise
            && self.committed_precise
            && self.resume_exact
    }
}

/// Error from a [`PrecisionCheck`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The underlying simulation failed.
    Sim(SimError),
    /// The designated instruction never reached its update point (e.g.
    /// the index was out of range or named a branch).
    FaultNeverTaken {
        /// The requested fault index.
        fault_seq: u64,
    },
    /// The golden interpreter could not execute the program.
    Golden(ruu_exec::ExecError),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Sim(e) => write!(f, "simulation failed: {e}"),
            CheckError::FaultNeverTaken { fault_seq } => {
                write!(f, "instruction {fault_seq} never reached its update point")
            }
            CheckError::Golden(e) => write!(f, "golden execution failed: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Configuration of a precise-interrupt experiment on one mechanism.
#[derive(Debug, Clone)]
pub struct PrecisionCheck {
    /// Machine configuration.
    pub config: MachineConfig,
    /// The mechanism under test.
    pub mechanism: Mechanism,
    /// Dynamic-instruction budget.
    pub inst_limit: u64,
}

impl PrecisionCheck {
    /// A check of `mechanism` on the paper's machine.
    #[must_use]
    pub fn new(mechanism: Mechanism) -> Self {
        PrecisionCheck {
            config: MachineConfig::paper(),
            mechanism,
            inst_limit: 10_000_000,
        }
    }

    /// Runs `program` with an exception injected at dynamic instruction
    /// `fault_seq`, checks the recovered state against the golden
    /// boundary, resumes, and checks the final state against `golden`,
    /// the caller's trace of `program` from `mem` (captured once for
    /// every machine and fault point it checks).
    ///
    /// # Errors
    /// See [`CheckError`].
    pub fn run(
        &self,
        program: &Program,
        mem: &Memory,
        golden: &Trace,
        fault_seq: u64,
    ) -> Result<PrecisionReport, CheckError> {
        let sim = self.mechanism.build(&self.config);
        let (start, limit, obs) = (ArchState::new(), self.inst_limit, &mut NullObserver);
        let outcome = sim.run_with_fault(start, mem.clone(), program, limit, fault_seq, obs);
        let RunOutcome::Interrupted(frame) = outcome.map_err(CheckError::Sim)? else {
            return Err(CheckError::FaultNeverTaken { fault_seq });
        };

        let (golden_state, golden_mem) =
            golden_state_at(program, mem.clone(), fault_seq).map_err(CheckError::Golden)?;
        let state_precise = frame.state.regs == golden_state.regs;
        let memory_precise = frame.memory == golden_mem;
        let pc_precise = frame.state.pc == golden_state.pc;

        // "Handle" the fault (the model fault needs no state change — a
        // page fault would map the page) and restart from the frame.
        let resumed = sim
            .run_from(frame.state, frame.memory, program, self.inst_limit)
            .map_err(CheckError::Sim)?;
        let resume_exact = resumed.state.regs == golden.final_state().regs
            && &resumed.memory == golden.final_memory();
        let before = golden.events().take(fault_seq as usize);
        let branches = before.filter(|e| e.inst.is_branch()).count() as u64;

        Ok(PrecisionReport {
            fault_seq,
            state_precise,
            memory_precise,
            pc_precise,
            committed_precise: frame.committed + branches == fault_seq,
            resume_exact,
            interrupt_cycle: frame.cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_issue::Bypass;
    use ruu_workloads::livermore;

    #[test]
    fn interrupts_on_a_livermore_loop_are_precise() {
        let w = livermore::lll5();
        let check = PrecisionCheck::new(Mechanism::Ruu {
            entries: 12,
            bypass: Bypass::Full,
        });
        let golden = w.golden_trace().unwrap();
        for fault_seq in [10, 57, 333] {
            let r = check
                .run(&w.program, &w.memory, &golden, fault_seq)
                .unwrap();
            assert!(r.all_precise(), "fault at {fault_seq}: {r:?}");
        }
    }

    #[test]
    fn all_bypass_modes_are_precise() {
        let w = livermore::lll12();
        let golden = w.golden_trace().unwrap();
        for bypass in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            let check = PrecisionCheck::new(Mechanism::Ruu { entries: 8, bypass });
            let r = check.run(&w.program, &w.memory, &golden, 101).unwrap();
            assert!(r.all_precise(), "{bypass:?}: {r:?}");
        }
    }

    #[test]
    fn speculative_faults_after_a_misprediction_are_precise() {
        // A branch in the loop body tests a loaded flag, so the
        // speculative RUU predicts it; the flags make it mispredict, and
        // each misprediction squashes sequence numbers that the golden
        // stream never had.
        use crate::{fault_points, FaultKind};
        use ruu_isa::{Asm, Reg};
        let mut a = Asm::new("t");
        let (top, skip) = (a.new_label(), a.new_label());
        a.a_imm(Reg::a(2), 12);
        a.a_imm(Reg::a(1), 0);
        a.bind(top);
        a.ld_a(Reg::a(0), Reg::a(1), 100);
        a.ld_s(Reg::s(1), Reg::a(1), 200);
        a.br_az(skip);
        a.f_add(Reg::s(2), Reg::s(2), Reg::s(1));
        a.st_s(Reg::s(2), Reg::a(1), 300);
        a.bind(skip);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(2), Reg::a(2), 1);
        a.a_add_imm(Reg::a(0), Reg::a(2), 0);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let mut mem = Memory::new(1 << 9);
        for i in 0..12 {
            mem.write(100 + i, u64::from(![3, 4, 9].contains(&i)));
            mem.write_f64(200 + i, i as f64);
        }
        let spec = Mechanism::SpecRuu {
            entries: 16,
            bypass: Bypass::Full,
            predictor: ruu_issue::PredictorConfig::default(),
        };
        let r = spec
            .build(&MachineConfig::paper())
            .run(&p, mem.clone(), 1_000)
            .unwrap();
        assert!(r.stats.mispredicted_branches >= 2, "{:?}", r.stats);
        let trace = Trace::capture(&p, mem.clone(), 1_000).unwrap();
        let check = PrecisionCheck::new(spec);
        for fault_seq in fault_points(&trace, FaultKind::Any) {
            let r = check.run(&p, &mem, &trace, fault_seq).unwrap();
            assert!(r.all_precise(), "fault at {fault_seq}: {r:?}");
        }
    }

    #[test]
    fn a_fault_on_a_nop_is_taken_by_the_ruu_only() {
        // A Nop takes no slot in a §4 buffer, so it never reaches the
        // commit where those machines take a fault; the RUU commits it
        // like any other instruction. `FaultKind::Any` leaves Nops out.
        use crate::FaultKind;
        use ruu_isa::{Asm, Reg};
        use ruu_issue::PreciseScheme;
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 3);
        a.nop(); // dynamic index 1
        a.a_add(Reg::a(2), Reg::a(1), Reg::a(1));
        a.halt();
        let p = a.assemble().unwrap();
        let mem = Memory::new(1 << 8);
        let golden = Trace::capture(&p, mem.clone(), 100).unwrap();
        let nop = golden.events().nth(1).unwrap().inst;
        assert!(!FaultKind::Any.applies_to(&nop));
        for scheme in [
            PreciseScheme::ReorderBuffer,
            PreciseScheme::HistoryBuffer,
            PreciseScheme::FutureFile,
        ] {
            let check = PrecisionCheck::new(Mechanism::InOrderPrecise { scheme, entries: 8 });
            let err = check.run(&p, &mem, &golden, 1).unwrap_err();
            assert_eq!(
                err,
                CheckError::FaultNeverTaken { fault_seq: 1 },
                "{scheme:?}"
            );
        }
        let check = PrecisionCheck::new(Mechanism::Ruu {
            entries: 8,
            bypass: Bypass::Full,
        });
        let r = check.run(&p, &mem, &golden, 1).unwrap();
        assert!(r.all_precise(), "{r:?}");
    }

    #[test]
    fn fault_on_branch_reports_never_taken() {
        // Dynamic index 6 in this program is the loop branch.
        let mut a = ruu_isa::Asm::new("t");
        let top = a.new_label();
        a.a_imm(ruu_isa::Reg::a(0), 3);
        a.bind(top);
        a.a_sub_imm(ruu_isa::Reg::a(0), ruu_isa::Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let check = PrecisionCheck::new(Mechanism::Ruu {
            entries: 8,
            bypass: Bypass::Full,
        });
        let mem = Memory::new(1 << 8);
        let golden = Trace::capture(&p, mem.clone(), 100).unwrap();
        let err = check.run(&p, &mem, &golden, 2).unwrap_err();
        assert!(matches!(err, CheckError::FaultNeverTaken { fault_seq: 2 }));
    }
}
