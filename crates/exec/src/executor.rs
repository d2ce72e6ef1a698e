//! The golden interpreter.

use std::fmt;

use ruu_isa::{semantics, Inst, Program};

use crate::memory::Memory;
use crate::state::ArchState;
use crate::trace::TraceEvent;

/// Errors from [`Executor::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter ran past the end of the program without
    /// reaching a `Halt`.
    PcOutOfRange {
        /// The out-of-range program counter.
        pc: u32,
    },
    /// The dynamic instruction limit was exceeded (infinite-loop guard).
    InstLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => {
                write!(f, "program counter {pc} ran past program end without halt")
            }
            ExecError::InstLimit { limit } => {
                write!(f, "dynamic instruction limit {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a completed [`Executor::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSummary {
    /// Dynamic instructions executed (the `Halt` itself is not counted,
    /// matching the paper's instruction counts which exclude machine
    /// idle/exchange overhead).
    pub instructions: u64,
}

/// Outcome of a single [`Executor::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction executed; the event describes it.
    Executed(TraceEvent),
    /// The program reached `Halt`.
    Halted,
}

/// One instruction [`Executor::execute`] ran: its pc, the instruction,
/// and for a branch whether it was taken (`false` for the rest).
pub(crate) struct Executed<'p> {
    pub(crate) pc: u32,
    pub(crate) inst: &'p Inst,
    pub(crate) taken: bool,
}

/// The golden architectural interpreter.
///
/// Executes instructions one at a time, strictly in program order, applying
/// the pure [`ruu_isa::semantics`] and updating an [`ArchState`] and a
/// [`Memory`]. Every timing simulator must converge to exactly the state
/// this interpreter computes.
#[derive(Debug, Clone)]
pub struct Executor {
    state: ArchState,
    mem: Memory,
    executed: u64,
    halted: bool,
}

impl Executor {
    /// Creates an interpreter with zeroed registers, `pc = 0`, and the
    /// given initial memory (workload data).
    #[must_use]
    pub fn new(mem: Memory) -> Self {
        Executor {
            state: ArchState::new(),
            mem,
            executed: 0,
            halted: false,
        }
    }

    /// Current architectural state.
    #[must_use]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Current memory contents.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Dynamic instructions executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// `true` once `Halt` has been reached.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Executes one instruction.
    ///
    /// # Errors
    /// Returns [`ExecError::PcOutOfRange`] if `pc` points past the end of
    /// the program.
    pub fn step(&mut self, program: &Program) -> Result<StepOutcome, ExecError> {
        Ok(match self.execute(program, u64::MAX)? {
            Some(done) => StepOutcome::Executed(TraceEvent {
                index: self.executed - 1,
                pc: done.pc,
                inst: *done.inst,
                taken: done.inst.is_branch().then_some(done.taken),
            }),
            None => StepOutcome::Halted,
        })
    }

    /// The one execute path every caller goes through: executes the
    /// instruction at `pc` and says where it was and, for a branch,
    /// whether it was taken; `None` once `Halt` is reached.
    ///
    /// Instruction `limit + 1` is refused: a program that executes exactly
    /// `limit` instructions and then halts runs here, as it does on every
    /// simulator. The limit is checked before the range, so a program
    /// that falls off its end past the limit reports the limit.
    #[inline(always)]
    pub(crate) fn execute<'p>(
        &mut self,
        program: &'p Program,
        limit: u64,
    ) -> Result<Option<Executed<'p>>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.state.pc;
        let inst = program.get(pc);
        if inst.is_some_and(Inst::is_halt) {
            self.halted = true;
            return Ok(None);
        }
        if self.executed >= limit {
            return Err(ExecError::InstLimit { limit });
        }
        let inst = inst.ok_or(ExecError::PcOutOfRange { pc })?;
        let s1 = inst.src1.map_or(0, |r| self.state.reg(r));
        let s2 = inst.src2.map_or(0, |r| self.state.reg(r));

        let mut taken = false;
        let mut next_pc = pc + 1;
        if inst.is_branch() {
            taken = semantics::branch_taken(inst.opcode, s1);
            if taken {
                next_pc = inst.target.expect("branch always has a target");
            }
        } else if inst.is_load() {
            let ea = semantics::effective_address(s1, inst.imm);
            self.state.set_reg(
                inst.dst.expect("load always has a destination"),
                self.mem.read(ea),
            );
        } else if inst.is_store() {
            let ea = semantics::effective_address(s1, inst.imm);
            self.mem.write(ea, s2);
        } else if let Some(dst) = inst.dst {
            self.state
                .set_reg(dst, semantics::alu_result(inst.opcode, s1, s2, inst.imm));
        }
        // `Nop` and result-less cases fall through with no state change.
        self.state.pc = next_pc;
        self.executed += 1;
        Ok(Some(Executed { pc, inst, taken }))
    }

    /// Runs until `Halt`, executing at most `limit` dynamic instructions.
    ///
    /// # Errors
    /// Returns [`ExecError::InstLimit`] if the program would execute more
    /// than `limit` instructions, or [`ExecError::PcOutOfRange`] if
    /// execution falls off the program.
    pub fn run(&mut self, program: &Program, limit: u64) -> Result<ExecSummary, ExecError> {
        while self.execute(program, limit)?.is_some() {}
        Ok(ExecSummary {
            instructions: self.executed,
        })
    }

    /// Runs exactly `n` more instructions (or fewer if `Halt` comes
    /// first); used to compute golden states at dynamic boundaries.
    ///
    /// # Errors
    /// Propagates [`ExecError::PcOutOfRange`].
    pub fn run_steps(&mut self, program: &Program, n: u64) -> Result<(), ExecError> {
        for _ in 0..n {
            if self.execute(program, u64::MAX)?.is_none() {
                break;
            }
        }
        Ok(())
    }

    /// The final state and memory, without copying either.
    pub(crate) fn into_parts(self) -> (ArchState, Memory) {
        (self.state, self.mem)
    }
}

/// Convenience: the golden architectural state and memory after executing
/// exactly `k` dynamic instructions of `program` from initial memory `mem`.
///
/// # Errors
/// Propagates [`ExecError::PcOutOfRange`].
pub fn golden_state_at(
    program: &Program,
    mem: Memory,
    k: u64,
) -> Result<(ArchState, Memory), ExecError> {
    let mut ex = Executor::new(mem);
    ex.run_steps(program, k)?;
    Ok(ex.into_parts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_isa::{Asm, Reg};

    fn mem() -> Memory {
        Memory::new(1 << 10)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 6);
        a.a_imm(Reg::a(2), 7);
        a.a_mul(Reg::a(3), Reg::a(1), Reg::a(2));
        a.halt();
        let p = a.assemble().unwrap();
        let mut ex = Executor::new(mem());
        let s = ex.run(&p, 100).unwrap();
        assert_eq!(s.instructions, 3);
        assert_eq!(ex.state().reg(Reg::a(3)), 42);
        assert!(ex.halted());
    }

    #[test]
    fn loop_executes_correct_count() {
        // sum k for k in 1..=5 using A1 as accumulator
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 5);
        a.a_imm(Reg::a(1), 0);
        a.bind(top);
        a.a_add(Reg::a(1), Reg::a(1), Reg::a(0));
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let mut ex = Executor::new(mem());
        let s = ex.run(&p, 1000).unwrap();
        assert_eq!(ex.state().reg(Reg::a(1)), 15);
        // 2 setup + 5 iterations * 3
        assert_eq!(s.instructions, 17);
    }

    #[test]
    fn loads_and_stores() {
        let mut m = mem();
        m.write(100, 11);
        m.write(101, 31);
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(2), 100);
        a.ld_s(Reg::s(1), Reg::a(2), 0);
        a.ld_s(Reg::s(2), Reg::a(2), 1);
        a.s_add(Reg::s(3), Reg::s(1), Reg::s(2));
        a.st_s(Reg::s(3), Reg::a(2), 2);
        a.halt();
        let p = a.assemble().unwrap();
        let mut ex = Executor::new(m);
        ex.run(&p, 100).unwrap();
        assert_eq!(ex.memory().read(102), 42);
    }

    #[test]
    fn float_pipeline() {
        let mut m = mem();
        m.write_f64(10, 2.0);
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 10);
        a.ld_s(Reg::s(1), Reg::a(1), 0);
        a.f_recip(Reg::s(2), Reg::s(1));
        a.f_mul(Reg::s(3), Reg::s(2), Reg::s(1)); // = 1.0
        a.st_s(Reg::s(3), Reg::a(1), 1);
        a.halt();
        let p = a.assemble().unwrap();
        let mut ex = Executor::new(m);
        ex.run(&p, 100).unwrap();
        assert_eq!(ex.memory().read_f64(11), 1.0);
    }

    #[test]
    fn falling_off_end_is_error() {
        let mut a = Asm::new("t");
        a.nop();
        let p = a.assemble().unwrap();
        let mut ex = Executor::new(mem());
        let err = ex.run(&p, 100).unwrap_err();
        assert_eq!(err, ExecError::PcOutOfRange { pc: 1 });
    }

    #[test]
    fn infinite_loop_hits_limit() {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.bind(top);
        a.jump(top);
        let p = a.assemble().unwrap();
        let mut ex = Executor::new(mem());
        let err = ex.run(&p, 10).unwrap_err();
        assert_eq!(err, ExecError::InstLimit { limit: 10 });
        assert_eq!(ex.executed(), 10, "instruction 11 never executed");
    }

    #[test]
    fn golden_state_at_boundary() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 1);
        a.a_imm(Reg::a(2), 2);
        a.a_imm(Reg::a(3), 3);
        a.halt();
        let p = a.assemble().unwrap();
        let (st, _) = golden_state_at(&p, mem(), 2).unwrap();
        assert_eq!(st.reg(Reg::a(1)), 1);
        assert_eq!(st.reg(Reg::a(2)), 2);
        assert_eq!(st.reg(Reg::a(3)), 0); // not yet executed
        assert_eq!(st.pc, 2);
    }

    #[test]
    fn step_after_halt_is_stable() {
        let mut a = Asm::new("t");
        a.halt();
        let p = a.assemble().unwrap();
        let mut ex = Executor::new(mem());
        assert_eq!(ex.step(&p).unwrap(), StepOutcome::Halted);
        assert_eq!(ex.step(&p).unwrap(), StepOutcome::Halted);
        assert_eq!(ex.executed(), 0);
    }

    #[test]
    fn branch_event_records_taken() {
        let mut a = Asm::new("t");
        let skip = a.new_label();
        a.a_imm(Reg::a(0), 0);
        a.br_az(skip);
        a.a_imm(Reg::a(1), 99); // skipped
        a.bind(skip);
        a.halt();
        let p = a.assemble().unwrap();
        let mut ex = Executor::new(mem());
        ex.step(&p).unwrap();
        let StepOutcome::Executed(ev) = ex.step(&p).unwrap() else {
            panic!("expected branch execution");
        };
        assert_eq!(ev.taken, Some(true));
        ex.run(&p, 10).unwrap();
        assert_eq!(ex.state().reg(Reg::a(1)), 0);
    }
}
