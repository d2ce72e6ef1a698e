//! Dynamic instruction traces and instruction-mix statistics.

use std::fmt;

use ruu_isa::{FuClass, Inst, Program};

use crate::executor::{ExecError, Executor};
use crate::memory::Memory;
use crate::state::ArchState;

/// One dynamically executed instruction, as recorded by the golden
/// interpreter.
///
/// The paper's methodology is trace-driven (§2.1: CRAY-1 simulator traces
/// fed to issue-logic simulators); our timing simulators are
/// execution-driven, but traces remain useful for instruction-mix
/// statistics and for cross-checking the committed instruction streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dynamic instruction index (0-based).
    pub index: u64,
    /// Program counter.
    pub pc: u32,
    /// The instruction.
    pub inst: Inst,
    /// Branch outcome, for branches.
    pub taken: Option<bool>,
}

/// Instruction-mix statistics over a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstMix {
    /// Dynamic instruction count per functional-unit class.
    pub per_fu: [u64; FuClass::ALL.len()],
    /// Number of branch instructions.
    pub branches: u64,
    /// Number of taken branches.
    pub taken_branches: u64,
    /// Number of loads.
    pub loads: u64,
    /// Number of stores.
    pub stores: u64,
    /// Total dynamic instructions.
    pub total: u64,
}

impl InstMix {
    /// Records one dynamic instruction.
    pub fn record(&mut self, ev: &TraceEvent) {
        self.add(&ev.inst, 1);
        if ev.taken == Some(true) {
            self.taken_branches += 1;
        }
    }

    /// Counts `n` executions of `inst`, leaving out whether a branch was
    /// taken.
    fn add(&mut self, inst: &Inst, n: u64) {
        self.total += n;
        if let Some(fu) = inst.fu_class() {
            self.per_fu[fu.index()] += n;
        }
        if inst.is_branch() {
            self.branches += n;
        }
        if inst.is_load() {
            self.loads += n;
        }
        if inst.is_store() {
            self.stores += n;
        }
    }

    /// Dynamic count for a functional-unit class.
    #[must_use]
    pub fn fu_count(&self, fu: FuClass) -> u64 {
        self.per_fu[fu.index()]
    }
}

impl fmt::Display for InstMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total {:>8}", self.total)?;
        for fu in FuClass::ALL {
            let n = self.fu_count(fu);
            if n > 0 {
                writeln!(f, "  {fu:<15} {n:>8}")?;
            }
        }
        writeln!(
            f,
            "  {:<15} {:>8} ({} taken)",
            "branches", self.branches, self.taken_branches
        )
    }
}

/// The record bit of a taken branch; the other 31 bits hold the pc.
const TAKEN: u32 = 1 << 31;

/// A complete dynamic trace of a program run, with the final golden state.
///
/// Each dynamic instruction is one `u32`: its pc, with the top bit set for
/// a taken branch. The pc names the instruction in a copy of the program,
/// so [`Trace::events`] rebuilds every [`TraceEvent`] from 4 bytes. The
/// outcome needs its own bit: a taken branch to `pc + 1` leads where a
/// fall-through does.
#[derive(Debug, Clone)]
pub struct Trace {
    records: Vec<u32>,
    insts: Box<[Inst]>,
    mix: InstMix,
    final_state: ArchState,
    final_memory: Memory,
}

impl Trace {
    /// Runs `program` on the golden interpreter, recording every dynamic
    /// instruction, executing at most `limit` instructions.
    ///
    /// # Errors
    /// Propagates interpreter errors ([`ExecError`]), as
    /// [`Executor::run`] raises them.
    ///
    /// # Panics
    /// If the program holds `2^31` instructions or more, whose pcs a
    /// record cannot hold.
    pub fn capture(program: &Program, mem: Memory, limit: u64) -> Result<Self, ExecError> {
        assert!(
            program.len() <= TAKEN as usize,
            "a trace record holds a 31-bit pc"
        );
        let mut ex = Executor::new(mem);
        let mut records = Vec::new();
        // Executions per pc: the mix is counted per static instruction.
        let mut runs = vec![0u64; program.len()];
        let mut mix = InstMix::default();
        while let Some(done) = ex.execute(program, limit)? {
            runs[done.pc as usize] += 1;
            mix.taken_branches += u64::from(done.taken);
            records.push(done.pc | if done.taken { TAKEN } else { 0 });
        }
        let insts: Box<[Inst]> = program.iter().copied().collect();
        for (inst, &n) in insts.iter().zip(&runs) {
            mix.add(inst, n);
        }
        let (final_state, final_memory) = ex.into_parts();
        Ok(Trace {
            records,
            insts,
            mix,
            final_state,
            final_memory,
        })
    }

    /// The dynamic instruction events, in program order, each rebuilt
    /// from its record.
    pub fn events(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        self.records.iter().enumerate().map(|(index, &r)| {
            let pc = r & !TAKEN;
            let inst = self.insts[pc as usize];
            TraceEvent {
                index: index as u64,
                pc,
                inst,
                taken: inst.is_branch().then_some(r & TAKEN != 0),
            }
        })
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no instructions executed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Instruction-mix statistics.
    #[must_use]
    pub fn mix(&self) -> &InstMix {
        &self.mix
    }

    /// Final architectural state.
    #[must_use]
    pub fn final_state(&self) -> &ArchState {
        &self.final_state
    }

    /// Final memory contents.
    #[must_use]
    pub fn final_memory(&self) -> &Memory {
        &self.final_memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_isa::{Asm, Reg};

    #[test]
    fn capture_records_mix_and_final_state() {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 3);
        a.a_imm(Reg::a(2), 100);
        a.bind(top);
        a.ld_s(Reg::s(1), Reg::a(2), 0);
        a.f_add(Reg::s(2), Reg::s(2), Reg::s(1));
        a.st_s(Reg::s(2), Reg::a(2), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::capture(&p, Memory::new(1 << 10), 10_000).unwrap();
        assert_eq!(t.len(), 2 + 3 * 5);
        assert_eq!(t.mix().loads, 3);
        assert_eq!(t.mix().stores, 3);
        assert_eq!(t.mix().branches, 3);
        assert_eq!(t.mix().taken_branches, 2);
        assert_eq!(t.mix().fu_count(FuClass::FloatAdd), 3);
        assert_eq!(t.final_state().reg(Reg::a(0)), 0);
    }

    #[test]
    fn events_are_indexed_sequentially() {
        let mut a = Asm::new("t");
        a.nop();
        a.nop();
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::capture(&p, Memory::new(8), 100).unwrap();
        let idx: Vec<u64> = t.events().map(|e| e.index).collect();
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn display_mix_nonempty() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 1);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::capture(&p, Memory::new(8), 100).unwrap();
        assert!(t.mix().to_string().contains("total"));
    }
}
