//! The **Register Update Unit** (paper §5–6, Figure 5).
//!
//! The RUU is the paper's contribution: the merged reservation-station /
//! tag-unit structure (RSTU) managed as a FIFO queue. Instructions enter at
//! the tail in program order, issue to the functional units out of order as
//! their operands arrive, and **commit in program order from the head**,
//! which makes interrupts precise (paper §4–5).
//!
//! Managing the window as a queue removes the associative tag search of
//! the RSTU: each register carries two small counters, *NI* (number of
//! instances in the RUU) and *LI* (latest instance); a tag is just the
//! register number appended with LI (paper §5.1).
//!
//! Three operand-bypass policies are modelled, matching the paper's three
//! evaluations:
//!
//! * [`Bypass::Full`] — source operands may be read from any executed RUU
//!   entry (Table 4);
//! * [`Bypass::None`] — no bypass: a consumer that missed the producer's
//!   result-bus broadcast waits until the value crosses the
//!   RUU→register-file bus at commit (Table 5, §6.2);
//! * [`Bypass::LimitedA`] — the A register file is shadowed by a *future
//!   file* updated from the result bus; all other files behave as
//!   [`Bypass::None`] (Table 6, §6.3).
//!
//! The RUU runs on the shared out-of-order core; it is the speculative
//! RUU ([`crate::SpecRuu`]) with speculation turned off, so unresolved
//! branches park in decode.

use ruu_exec::{ArchState, Memory};
use ruu_isa::Program;
use ruu_sim_core::{MachineConfig, RunResult};

use crate::ooo::{Branches, OutOfOrder, Policy, Stations, Update};
use crate::{IssueSimulator, SimError};

/// Operand-bypass policy of the RUU (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bypass {
    /// Associative bypass from every executed RUU entry (paper §6.1).
    Full,
    /// No bypass: reservation stations monitor the result bus *and* the
    /// RUU→register-file bus (paper §6.2).
    None,
    /// A future file shadows the 8 A registers; other files are
    /// un-bypassed (paper §6.3).
    LimitedA,
}

/// The machine state captured when an interrupt is taken. On the RUU it
/// is precise; on the tagged machines ([`crate::TaggedSim`]) it is
/// whatever state the out-of-order completions had reached.
#[derive(Debug, Clone)]
pub struct InterruptFrame {
    /// The register state. Precise on the RUU: every instruction before
    /// the faulting one has updated it; none after (nor the faulting
    /// one) has.
    pub state: ArchState,
    /// The memory. Precise on the RUU: committed stores only.
    pub memory: Memory,
    /// Program counter of the faulting instruction (restart point).
    pub resume_pc: u32,
    /// Dynamic instructions that updated state before the interrupt
    /// (branches excluded; they resolve in the issue stage).
    pub committed: u64,
    /// Cycle at which the interrupt was taken.
    pub cycle: u64,
}

/// Outcome of a `run_with_exception` ([`Ruu::run_with_exception`],
/// [`crate::TaggedSim::run_with_exception`]).
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The program ran to completion (the designated instruction never
    /// reached its update point — e.g. it was never reached).
    Completed(RunResult),
    /// The designated instruction reached the point where it would update
    /// state, and the interrupt was taken with this frame.
    Interrupted(InterruptFrame),
}

/// Configuration + entry point for the RUU simulator.
#[derive(Debug, Clone)]
pub struct Ruu {
    config: MachineConfig,
    entries: usize,
    bypass: Bypass,
}

impl OutOfOrder for Ruu {
    fn machine_config(&self) -> &MachineConfig {
        &self.config
    }

    fn policy(&self) -> Policy {
        Policy {
            stations: Stations::Queue {
                entries: self.entries,
                bypass: self.bypass,
            },
            update: Update::AtCommit,
            branches: Branches::Park,
        }
    }
}

impl Ruu {
    /// Creates an RUU simulator with `entries` window entries and the
    /// given bypass policy.
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(config: MachineConfig, entries: usize, bypass: Bypass) -> Self {
        assert!(entries > 0, "the RUU needs at least one entry");
        Ruu {
            config,
            entries,
            bypass,
        }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of RUU entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The bypass policy.
    #[must_use]
    pub fn bypass(&self) -> Bypass {
        self.bypass
    }

    /// Runs `program` to completion from zeroed registers.
    ///
    /// # Errors
    /// [`SimError::InstLimit`] if more than `limit` instructions issue;
    /// [`SimError::Deadlock`] on internal lack of progress (a bug).
    pub fn run(&self, program: &Program, mem: Memory, limit: u64) -> Result<RunResult, SimError> {
        self.run_from(ArchState::new(), mem, program, limit)
    }

    /// Runs `program` from an explicit architectural state (restart after
    /// an interrupt). [`IssueSimulator::run_observed`] does the same while
    /// reporting every pipeline event to an observer.
    ///
    /// # Errors
    /// As for [`Ruu::run`].
    pub fn run_from(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
    ) -> Result<RunResult, SimError> {
        IssueSimulator::run_from(self, state, mem, program, limit)
    }

    /// Runs `program`, injecting an exception on the dynamic instruction
    /// with sequence number `fault_seq` (0-based over *all* dynamic
    /// instructions, branches included). The exception is detected when
    /// the instruction reaches the head of the RUU, i.e. at the commit
    /// point, and the interrupt is precise.
    ///
    /// The designated instruction must not be a branch (branches resolve
    /// in the decode stage and cannot fault in this model).
    ///
    /// # Errors
    /// As for [`Ruu::run`].
    pub fn run_with_exception(
        &self,
        program: &Program,
        mem: Memory,
        limit: u64,
        fault_seq: u64,
    ) -> Result<RunOutcome, SimError> {
        self.run_faulting(program, mem, limit, fault_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_exec::Trace;
    use ruu_isa::{Asm, Reg};
    use ruu_sim_core::StallReason;

    fn cfg() -> MachineConfig {
        MachineConfig::paper()
    }

    fn run_bp(asm: &dyn Fn() -> Asm, entries: usize, bypass: Bypass) -> RunResult {
        let p = asm().assemble().unwrap();
        Ruu::new(cfg(), entries, bypass)
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap()
    }

    fn golden(asm: &dyn Fn() -> Asm) -> Trace {
        let p = asm().assemble().unwrap();
        Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap()
    }

    #[test]
    fn straight_line_matches_golden() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 6);
            a.a_imm(Reg::a(2), 7);
            a.a_mul(Reg::a(3), Reg::a(1), Reg::a(2));
            a.a_to_s(Reg::s(1), Reg::a(3));
            a.halt();
            a
        };
        let g = golden(&prog);
        for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            let r = run_bp(&prog, 8, bp);
            assert_eq!(r.instructions, g.len() as u64, "{bp:?}");
            assert_eq!(&r.state, g.final_state(), "{bp:?}");
            assert_eq!(&r.memory, g.final_memory(), "{bp:?}");
        }
    }

    #[test]
    fn out_of_order_execution_beats_simple_issue() {
        // A loop with a long-latency dependence chain plus independent
        // work: in steady state the RUU overlaps iterations while the
        // simple machine blocks in decode on every dependence.
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 30);
            a.a_imm(Reg::a(1), 100);
            // Any nonzero bit pattern works: the chain's latency, not the
            // value, is what the test measures (and it must fit the 22-bit
            // SImm field, which `assemble` now checks).
            a.s_imm(Reg::s(1), 1 << 20);
            a.bind(top);
            a.ld_s(Reg::s(2), Reg::a(1), 0);
            a.f_mul(Reg::s(3), Reg::s(2), Reg::s(1));
            a.f_add(Reg::s(4), Reg::s(3), Reg::s(1));
            a.st_s(Reg::s(4), Reg::a(1), 64);
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let simple = crate::SimpleIssue::new(cfg())
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        let ruu = run_bp(&prog, 16, Bypass::Full);
        assert!(
            ruu.cycles < simple.cycles,
            "RUU {} vs simple {}",
            ruu.cycles,
            simple.cycles
        );
        assert_eq!(ruu.state, simple.state);
    }

    #[test]
    fn no_bypass_pays_for_early_completing_producers() {
        // Producer completes long before the consumer issues, but commits
        // late (stuck behind a long recip at the head). The consumer is a
        // branch, so the wait blocks the decode stage itself: with full
        // bypass the condition is read from the RUU; without bypass the
        // branch waits for the RUU→register-file bus (paper §6.3).
        let prog = || {
            let mut a = Asm::new("t");
            let skip = a.new_label();
            a.f_recip(Reg::s(1), Reg::s(0)); // head, 14 cycles
            a.a_imm(Reg::a(0), 0); // completes fast, commits late
            a.nop();
            a.nop();
            a.br_az(skip); // reads A0
            a.nop(); // skipped
            a.bind(skip);
            a.halt();
            a
        };
        let full = run_bp(&prog, 16, Bypass::Full);
        let none = run_bp(&prog, 16, Bypass::None);
        let limited = run_bp(&prog, 16, Bypass::LimitedA);
        assert!(
            none.cycles > full.cycles,
            "none {} should exceed full {}",
            none.cycles,
            full.cycles
        );
        // The branch reads an A register: the future file recovers the
        // full-bypass timing.
        assert_eq!(limited.cycles, full.cycles);
        assert_eq!(full.state, none.state);
        assert_eq!(full.state, limited.state);
    }

    #[test]
    fn limited_bypass_does_not_cover_s_registers() {
        let prog = || {
            let mut a = Asm::new("t");
            let skip = a.new_label();
            a.f_recip(Reg::s(1), Reg::s(1)); // head blocker
            a.s_imm(Reg::s(0), 0); // fast producer, S file
            a.nop();
            a.nop();
            a.br_sz(skip); // consumer of S0: no future file for S
            a.nop(); // skipped
            a.bind(skip);
            a.halt();
            a
        };
        let full = run_bp(&prog, 16, Bypass::Full);
        let limited = run_bp(&prog, 16, Bypass::LimitedA);
        assert!(limited.cycles > full.cycles);
    }

    #[test]
    fn store_load_forwarding_avoids_memory_latency() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 100);
            a.s_imm(Reg::s(1), 77);
            a.st_s(Reg::s(1), Reg::a(1), 0);
            a.ld_s(Reg::s(2), Reg::a(1), 0); // same address: forwarded
            a.s_add(Reg::s(3), Reg::s(2), Reg::s(2));
            a.halt();
            a
        };
        let r = run_bp(&prog, 16, Bypass::Full);
        assert_eq!(r.stats.forwarded_loads, 1);
        assert_eq!(r.state.reg(Reg::s(3)), 154);
        assert_eq!(r.memory.read(100), 77);
    }

    #[test]
    fn loads_to_different_addresses_use_memory() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 100);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.ld_s(Reg::s(2), Reg::a(1), 1);
            a.halt();
            a
        };
        let r = run_bp(&prog, 16, Bypass::Full);
        assert_eq!(r.stats.forwarded_loads, 0);
    }

    #[test]
    fn window_full_blocks_issue() {
        let prog = || {
            let mut a = Asm::new("t");
            for i in 1..7 {
                a.f_recip(Reg::s(i), Reg::s(0));
            }
            a.halt();
            a
        };
        let r = run_bp(&prog, 3, Bypass::Full);
        assert!(r.stats.stalls(StallReason::WindowFull) > 0);
    }

    #[test]
    fn instance_limit_blocks_issue() {
        // 8 writes to the same register with 3-bit counters (max 7
        // in-flight instances): the 8th must stall while the window is
        // large enough to hold them all.
        let prog = || {
            let mut a = Asm::new("t");
            for _ in 0..8 {
                a.f_recip(Reg::s(1), Reg::s(0));
            }
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let r = Ruu::new(cfg(), 30, Bypass::Full)
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(r.stats.stalls(StallReason::RegInstanceLimit) > 0);
    }

    #[test]
    fn loop_with_memory_matches_golden_all_modes() {
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 10);
            a.a_imm(Reg::a(1), 200);
            a.s_imm(Reg::s(1), 1);
            a.bind(top);
            a.ld_s(Reg::s(2), Reg::a(1), 0);
            a.s_add(Reg::s(2), Reg::s(2), Reg::s(1));
            a.st_s(Reg::s(2), Reg::a(1), 0);
            a.st_s(Reg::s(2), Reg::a(1), 1);
            a.ld_s(Reg::s(3), Reg::a(1), 1);
            a.s_add(Reg::s(4), Reg::s(3), Reg::s(2));
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let g = golden(&prog);
        for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            for entries in [3, 4, 8, 30] {
                let r = run_bp(&prog, entries, bp);
                assert_eq!(r.instructions, g.len() as u64, "{bp:?}/{entries}");
                assert_eq!(&r.state, g.final_state(), "{bp:?}/{entries}");
                assert_eq!(&r.memory, g.final_memory(), "{bp:?}/{entries}");
            }
        }
    }

    #[test]
    fn bigger_window_is_not_slower() {
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 20);
            a.a_imm(Reg::a(1), 300);
            a.bind(top);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
            a.f_mul(Reg::s(3), Reg::s(1), Reg::s(1));
            a.st_s(Reg::s(3), Reg::a(1), 64);
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let small = run_bp(&prog, 4, Bypass::Full);
        let big = run_bp(&prog, 30, Bypass::Full);
        assert!(big.cycles <= small.cycles);
    }

    #[test]
    fn precise_interrupt_state_matches_golden_boundary() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 100);
            a.s_imm(Reg::s(1), 5);
            a.st_s(Reg::s(1), Reg::a(1), 0);
            a.f_recip(Reg::s(2), Reg::s(1));
            a.s_imm(Reg::s(3), 9); // completes before recip, commits after
            a.st_s(Reg::s(3), Reg::a(1), 1);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        // Fault on seq 4 (the s_imm S3).
        let outcome = Ruu::new(cfg(), 16, Bypass::Full)
            .run_with_exception(&p, Memory::new(1 << 12), 1_000_000, 4)
            .unwrap();
        let RunOutcome::Interrupted(frame) = outcome else {
            panic!("expected an interrupt");
        };
        let (gs, gm) = ruu_exec::golden_state_at(&p, Memory::new(1 << 12), 4).unwrap();
        assert_eq!(frame.state.regs, gs.regs);
        assert_eq!(frame.state.pc, gs.pc);
        assert_eq!(frame.memory, gm);
        assert_eq!(frame.committed, 4);
        // S3 must NOT be written, the later store must not have happened.
        assert_eq!(frame.state.reg(Reg::s(3)), 0);
        assert_eq!(frame.memory.read(101), 0);
        // But everything older must be architectural despite the pending recip.
        assert_eq!(frame.memory.read(100), 5);
    }

    #[test]
    fn resume_after_interrupt_reaches_golden_final_state() {
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(0), 6);
            a.a_imm(Reg::a(1), 400);
            a.bind(top);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.s_add(Reg::s(2), Reg::s(2), Reg::s(1));
            a.st_s(Reg::s(2), Reg::a(1), 8);
            a.a_add_imm(Reg::a(1), Reg::a(1), 1);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let g = golden(&prog);
        let sim = Ruu::new(cfg(), 10, Bypass::Full);
        let outcome = sim
            .run_with_exception(&p, Memory::new(1 << 12), 1_000_000, 12)
            .unwrap();
        let RunOutcome::Interrupted(frame) = outcome else {
            panic!("expected an interrupt");
        };
        // "Handle" the fault (nothing to do for this test) and resume.
        let resumed = sim
            .run_from(frame.state, frame.memory, &p, 1_000_000)
            .unwrap();
        assert_eq!(&resumed.state, g.final_state());
        assert_eq!(&resumed.memory, g.final_memory());
    }

    #[test]
    fn branch_condition_waits_without_deadlock_in_no_bypass() {
        // The branch condition chain goes through a B-register transfer —
        // the exact §6.3 pathology. Must terminate and match golden.
        let prog = || {
            let mut a = Asm::new("t");
            let top = a.new_label();
            a.a_imm(Reg::a(2), 3);
            a.bind(top);
            a.a_to_b(Reg::b(1), Reg::a(2));
            a.a_sub_imm(Reg::a(2), Reg::a(2), 1);
            a.b_to_a(Reg::a(0), Reg::b(1));
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            a
        };
        let g = golden(&prog);
        for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            let r = run_bp(&prog, 8, bp);
            assert_eq!(&r.state, g.final_state(), "{bp:?}");
        }
    }

    #[test]
    fn interrupt_never_taken_completes() {
        let prog = || {
            let mut a = Asm::new("t");
            a.a_imm(Reg::a(1), 1);
            a.halt();
            a
        };
        let p = prog().assemble().unwrap();
        let outcome = Ruu::new(cfg(), 8, Bypass::Full)
            .run_with_exception(&p, Memory::new(1 << 12), 1_000_000, 999)
            .unwrap();
        assert!(matches!(outcome, RunOutcome::Completed(_)));
    }
}
