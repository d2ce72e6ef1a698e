//! Machinery shared by the issue-mechanism simulators: register-instance
//! tags, reservation-station operands, the fetch frontend with branch dead
//! cycles, and per-cycle broadcast records.

use ruu_isa::{semantics, Inst, Program, Reg};
use ruu_sim_core::{MachineConfig, PipelineObserver, RunStats, StallReason};

/// A register-instance tag: names one in-flight producer of a register.
///
/// In the RUU the tag is the register number appended with the LI counter
/// (paper §5.1: an 11-bit tag = 8-bit register number + 3-bit instance).
/// The associative mechanisms (Tomasulo/RSTU) use a unique producer id; we
/// represent both with the producer's dynamic sequence number plus the
/// register, which subsumes either encoding (equality is what matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// The destination register.
    pub reg: Reg,
    /// Instance discriminator: the LI counter value (RUU) or the
    /// producer's dynamic sequence number (associative mechanisms).
    pub instance: u64,
}

/// A reservation-station source-operand field (paper §3.1: ready bit, tag
/// sub-field, content sub-field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The operand value is available.
    Ready(u64),
    /// Waiting for `Tag` to appear on a monitored bus.
    Waiting(Tag),
}

impl Operand {
    /// `true` once the value is available.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(self, Operand::Ready(_))
    }

    /// The value.
    ///
    /// # Panics
    /// Panics if the operand is still waiting.
    #[must_use]
    pub fn value(&self) -> u64 {
        match self {
            Operand::Ready(v) => *v,
            Operand::Waiting(t) => panic!("operand still waiting on {t:?}"),
        }
    }

    /// Gates in a broadcast: if waiting on `tag`, becomes ready with
    /// `value`. Returns `true` if the operand matched.
    pub fn gate(&mut self, tag: Tag, value: u64) -> bool {
        if let Operand::Waiting(t) = self {
            if *t == tag {
                *self = Operand::Ready(value);
                return true;
            }
        }
        false
    }
}

/// The (tag, value) pairs broadcast during the current cycle, across all
/// monitored buses (result bus and, for the RUU, the RUU→register-file
/// bus). Waiting stations and a waiting branch consult this.
#[derive(Debug, Clone, Default)]
pub struct Broadcasts {
    items: Vec<(Tag, u64)>,
}

impl Broadcasts {
    /// Clears the record at the start of a cycle.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Records a broadcast.
    pub fn push(&mut self, tag: Tag, value: u64) {
        self.items.push((tag, value));
    }

    /// The value broadcast for `tag` this cycle, if any.
    #[must_use]
    pub fn lookup(&self, tag: Tag) -> Option<u64> {
        self.items.iter().find(|(t, _)| *t == tag).map(|(_, v)| *v)
    }
}

/// A conditional branch parked in the decode/issue stage waiting for its
/// condition register (paper §6.3: "The branch instruction has to wait in
/// the decode and issue unit until the value of A0 appears on a bus").
#[derive(Debug, Clone, Copy)]
pub struct PendingBranch {
    /// The branch instruction.
    pub inst: Inst,
    /// Its program counter.
    pub pc: u32,
    /// How the condition value will arrive.
    pub cond: Operand,
}

/// The instruction-fetch frontend: tracks the program counter, the dead
/// cycles after branches, and program termination.
///
/// All non-speculative mechanisms share this behaviour (paper §2.2): one
/// instruction may enter decode/issue per cycle; after a branch resolves,
/// fetch redirect costs `branch_taken_penalty` (or
/// `branch_untaken_penalty`) dead cycles.
#[derive(Debug, Clone)]
pub struct Frontend {
    pc: u32,
    next_fetch_cycle: u64,
    halted: bool,
    pending_branch: Option<PendingBranch>,
}

/// What the frontend offers the decode/issue stage this cycle.
#[derive(Debug, Clone, Copy)]
pub enum FetchSlot {
    /// A fetched instruction at this pc, ready to decode.
    Inst(u32, Inst),
    /// Dead cycle following a branch.
    Dead,
    /// A parked conditional branch is waiting for its condition.
    BranchParked,
    /// The program has halted; nothing more will be fetched.
    Halted,
}

impl Frontend {
    /// A frontend starting at `pc = start`.
    #[must_use]
    pub fn new(start: u32) -> Self {
        Frontend {
            pc: start,
            next_fetch_cycle: 0,
            halted: false,
            pending_branch: None,
        }
    }

    /// Current program counter (next instruction to decode).
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// `true` once `Halt` has been decoded.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The parked branch, if any.
    #[must_use]
    pub fn pending_branch(&self) -> Option<&PendingBranch> {
        self.pending_branch.as_ref()
    }

    /// Mutable access to the parked branch's condition operand (for bus
    /// gating).
    pub fn pending_branch_mut(&mut self) -> Option<&mut PendingBranch> {
        self.pending_branch.as_mut()
    }

    /// What decode/issue sees at `cycle`.
    #[must_use]
    pub fn peek(&self, cycle: u64, program: &Program) -> FetchSlot {
        if self.halted {
            return FetchSlot::Halted;
        }
        if self.pending_branch.is_some() {
            return FetchSlot::BranchParked;
        }
        if cycle < self.next_fetch_cycle {
            return FetchSlot::Dead;
        }
        match program.get(self.pc) {
            Some(i) if i.is_halt() => FetchSlot::Halted,
            Some(i) => FetchSlot::Inst(self.pc, *i),
            None => FetchSlot::Halted, // running off the end halts; the
                                       // golden interpreter flags it as an
                                       // error so equivalence tests catch it
        }
    }

    /// Notes that decode consumed the instruction at the current pc
    /// (non-branch): advances to the next sequential instruction.
    pub fn advance(&mut self) {
        self.pc += 1;
    }

    /// Marks the program as halted (decode saw `Halt`).
    pub fn set_halted(&mut self) {
        self.halted = true;
    }

    /// Sends fetch to `pc` from `next_fetch_cycle` on, un-halting it (a
    /// predicted path may have decoded a `Halt` that turned out to be on
    /// the wrong path).
    pub fn redirect(&mut self, pc: u32, next_fetch_cycle: u64) {
        self.pc = pc;
        self.next_fetch_cycle = next_fetch_cycle;
        self.halted = false;
    }

    /// Parks a conditional branch whose condition is not yet available.
    pub fn park_branch(&mut self, pc: u32, inst: Inst, cond: Operand) {
        debug_assert!(self.pending_branch.is_none(), "branch already parked");
        self.pending_branch = Some(PendingBranch { inst, pc, cond });
    }

    /// Resolves a branch at `cycle`: redirects the pc and charges the dead
    /// cycles. Clears any parked branch. Returns whether it was taken.
    pub fn resolve_branch(
        &mut self,
        cycle: u64,
        inst: &Inst,
        cond_value: u64,
        config: &MachineConfig,
        stats: &mut RunStats,
    ) -> bool {
        let taken = semantics::branch_taken(inst.opcode, cond_value);
        stats.branches += 1;
        let penalty = if taken {
            stats.taken_branches += 1;
            self.pc = inst.target.expect("branch has a target");
            config.branch_taken_penalty
        } else {
            self.pc += 1;
            config.branch_untaken_penalty
        };
        self.next_fetch_cycle = cycle + 1 + penalty;
        self.pending_branch = None;
        taken
    }
}

/// Observes the end of one simulated cycle and advances the clock: the
/// occupancy statistics and the observer's `cycle_end` hook fire exactly
/// once per simulated cycle (the in-order machines report their in-flight
/// count as occupancy).
pub(crate) fn end_cycle(
    obs: &mut dyn PipelineObserver,
    stats: &mut RunStats,
    cycle: &mut u64,
    occ: u32,
) {
    stats.observe_occupancy(occ);
    obs.cycle_end(*cycle, occ);
    *cycle += 1;
}

/// Charges a stall to `stats` for the non-issuing cycle described by
/// `slot` (dead cycle vs parked branch), returning the reason charged so
/// callers can mirror it to a pipeline observer.
pub fn charge_frontend_stall(slot: &FetchSlot, stats: &mut RunStats) -> Option<StallReason> {
    let reason = match slot {
        FetchSlot::Dead => StallReason::DeadCycle,
        FetchSlot::BranchParked => StallReason::BranchWait,
        FetchSlot::Halted => StallReason::Drained,
        FetchSlot::Inst(..) => return None,
    };
    stats.stall(reason);
    Some(reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_isa::{Asm, Opcode};

    fn prog() -> Program {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.bind(top);
        a.a_imm(Reg::a(0), 0);
        a.br_an(top);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn operand_gating() {
        let t = Tag {
            reg: Reg::s(1),
            instance: 3,
        };
        let mut op = Operand::Waiting(t);
        assert!(!op.is_ready());
        assert!(!op.gate(
            Tag {
                reg: Reg::s(1),
                instance: 4
            },
            9
        ));
        assert!(op.gate(t, 9));
        assert_eq!(op.value(), 9);
        // Ready operands ignore further broadcasts.
        assert!(!op.gate(t, 10));
        assert_eq!(op.value(), 9);
    }

    #[test]
    fn broadcasts_lookup() {
        let mut b = Broadcasts::default();
        let t = Tag {
            reg: Reg::a(2),
            instance: 1,
        };
        assert_eq!(b.lookup(t), None);
        b.push(t, 5);
        assert_eq!(b.lookup(t), Some(5));
        b.clear();
        assert_eq!(b.lookup(t), None);
    }

    #[test]
    fn frontend_sequences_and_halts() {
        let p = prog();
        let mut f = Frontend::new(0);
        let FetchSlot::Inst(pc, i) = f.peek(0, &p) else {
            panic!("expected an instruction");
        };
        assert_eq!(pc, 0);
        assert_eq!(i.opcode, Opcode::AImm);
        f.advance();
        // Now at the branch
        let FetchSlot::Inst(_, br) = f.peek(1, &p) else {
            panic!("expected branch");
        };
        assert!(br.is_branch());
    }

    #[test]
    fn branch_resolution_charges_dead_cycles() {
        let p = prog();
        let cfg = MachineConfig::paper();
        let mut stats = RunStats::default();
        let mut f = Frontend::new(1);
        let br = p[1];
        // not taken (A0 == 0 means BrAN falls through)
        let taken = f.resolve_branch(10, &br, 0, &cfg, &mut stats);
        assert!(!taken);
        assert_eq!(f.pc(), 2);
        // dead until 10 + 1 + untaken penalty
        for c in 11..11 + cfg.branch_untaken_penalty {
            assert!(matches!(f.peek(c, &p), FetchSlot::Dead));
        }
        assert!(matches!(
            f.peek(11 + cfg.branch_untaken_penalty, &p),
            FetchSlot::Halted // pc 2 is Halt
        ));
        assert_eq!(stats.branches, 1);
        assert_eq!(stats.taken_branches, 0);
    }

    #[test]
    fn taken_branch_redirects() {
        let p = prog();
        let cfg = MachineConfig::paper();
        let mut stats = RunStats::default();
        let mut f = Frontend::new(1);
        let br = p[1];
        let taken = f.resolve_branch(5, &br, 1, &cfg, &mut stats);
        assert!(taken);
        assert_eq!(f.pc(), 0);
        assert!(matches!(f.peek(6, &p), FetchSlot::Dead));
        assert!(matches!(
            f.peek(6 + cfg.branch_taken_penalty, &p),
            FetchSlot::Inst(0, _)
        ));
    }

    #[test]
    fn parked_branch_blocks_fetch() {
        let p = prog();
        let mut f = Frontend::new(1);
        let br = p[1];
        f.park_branch(
            1,
            br,
            Operand::Waiting(Tag {
                reg: Reg::a(0),
                instance: 0,
            }),
        );
        assert!(matches!(f.peek(3, &p), FetchSlot::BranchParked));
    }
}
