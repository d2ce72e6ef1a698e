//! The associative (tagged) out-of-order mechanisms: Tomasulo, Tag Unit +
//! distributed reservation stations, the merged RS pool, and the RSTU.
//!
//! These mechanisms run on the shared out-of-order core, parameterised by
//! [`WindowKind`]: they differ only in *where reservation stations live*
//! and *how many tags exist*:
//!
//! * [`WindowKind::Distributed`] — classic Tomasulo (§3.1): per-functional-
//!   unit reservation stations, a tag for every register (conceptually 144
//!   tag-matching units — the expense the paper's Tag Unit removes);
//! * [`WindowKind::TagUnitDistributed`] — §3.2.1, Figure 2: a central Tag
//!   Unit holding tags only for *currently active* registers, with
//!   distributed reservation stations;
//! * [`WindowKind::Pooled`] — §3.2.2: the reservation stations merged into
//!   a common pool (freed at dispatch), Tag Unit unchanged;
//! * [`WindowKind::Merged`] — §3.2.3, Figure 4: the **RSTU**, where a
//!   reservation station and a tag are reserved together and released at
//!   writeback.
//!
//! All of them update the register file *as results complete* (out of
//! program order) — interrupts are **imprecise**, which is precisely what
//! the RUU (see [`crate::ruu`]) fixes. To keep the final architectural
//! state well-defined, a completing result updates the register file only
//! if it is the *latest* instance of its register (Tomasulo's
//! register-capture rule; the paper's "may update the register but may not
//! unlock it" wording is modelled this way so that stale instances never
//! clobber newer values).

use ruu_exec::Memory;
use ruu_isa::Program;
use ruu_sim_core::MachineConfig;

use crate::ooo::{Branches, OutOfOrder, Policy, Stations, Update};
use crate::ruu::RunOutcome;
use crate::SimError;

/// Window organisation of a tagged mechanism (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Classic Tomasulo: `rs_per_fu` reservation stations at each
    /// functional unit; every register is tagged (no tag limit).
    Distributed {
        /// Reservation stations per functional unit.
        rs_per_fu: usize,
    },
    /// Central Tag Unit (capacity `tags`) + distributed reservation
    /// stations.
    TagUnitDistributed {
        /// Reservation stations per functional unit.
        rs_per_fu: usize,
        /// Tag Unit entries.
        tags: usize,
    },
    /// Central Tag Unit + merged reservation-station pool (stations are
    /// released when the instruction dispatches to a unit).
    Pooled {
        /// Stations in the merged pool.
        rs: usize,
        /// Tag Unit entries.
        tags: usize,
    },
    /// The RSTU: one merged structure; an entry is both station and tag
    /// and is released at writeback.
    Merged {
        /// RSTU entries.
        entries: usize,
    },
}

impl WindowKind {
    /// How many results may be in flight, if the tags are limited.
    pub(crate) fn tag_capacity(self) -> Option<usize> {
        match self {
            WindowKind::Distributed { .. } => None,
            WindowKind::TagUnitDistributed { tags, .. } | WindowKind::Pooled { tags, .. } => {
                Some(tags)
            }
            WindowKind::Merged { entries } => Some(entries),
        }
    }
}

/// Cycle-level simulator for the tagged (imprecise) mechanisms.
#[derive(Debug, Clone)]
pub struct TaggedSim {
    config: MachineConfig,
    kind: WindowKind,
}

impl OutOfOrder for TaggedSim {
    fn machine_config(&self) -> &MachineConfig {
        &self.config
    }

    fn policy(&self) -> Policy {
        Policy {
            stations: Stations::Tagged(self.kind),
            update: Update::AtCompletion,
            branches: Branches::Park,
        }
    }
}

impl TaggedSim {
    /// Creates a simulator with the given machine configuration and
    /// window organisation.
    #[must_use]
    pub fn new(config: MachineConfig, kind: WindowKind) -> Self {
        TaggedSim { config, kind }
    }

    /// Runs `program`, taking an interrupt when the dynamic instruction
    /// `fault_seq` completes — the moment it would update state on these
    /// machines. The frame holds whatever state the machine had reached,
    /// which is generally *not* a program-order boundary: younger
    /// instructions may already have completed while older ones are still
    /// in flight (see `ruu_precise::imprecision`). A `Nop` or a branch
    /// never reaches that point, so faulting one runs to completion.
    ///
    /// # Errors
    /// As for [`crate::IssueSimulator::run`].
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
    use crate::IssueSimulator;
    use ruu_exec::Trace;
    use ruu_isa::{Asm, Reg};
    use ruu_sim_core::StallReason;

    fn cfg() -> MachineConfig {
        MachineConfig::paper()
    }

    fn all_kinds() -> Vec<WindowKind> {
        vec![
            WindowKind::Distributed { rs_per_fu: 3 },
            WindowKind::TagUnitDistributed {
                rs_per_fu: 3,
                tags: 12,
            },
            WindowKind::Pooled { rs: 8, tags: 12 },
            WindowKind::Merged { entries: 10 },
        ]
    }

    fn loop_prog() -> Asm {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 12);
        a.a_imm(Reg::a(1), 200);
        a.s_imm(Reg::s(1), 3);
        a.bind(top);
        a.ld_s(Reg::s(2), Reg::a(1), 0);
        a.f_add(Reg::s(3), Reg::s(2), Reg::s(1));
        a.st_s(Reg::s(3), Reg::a(1), 0);
        a.st_s(Reg::s(3), Reg::a(1), 32);
        a.ld_s(Reg::s(4), Reg::a(1), 32);
        a.s_add(Reg::s(5), Reg::s(4), Reg::s(4));
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        a
    }

    #[test]
    fn all_kinds_match_golden() {
        let p = loop_prog().assemble().unwrap();
        let g = Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap();
        for kind in all_kinds() {
            let r = TaggedSim::new(cfg(), kind)
                .run(&p, Memory::new(1 << 12), 1_000_000)
                .unwrap();
            assert_eq!(r.instructions, g.len() as u64, "{kind:?}");
            assert_eq!(&r.state, g.final_state(), "{kind:?}");
            assert_eq!(&r.memory, g.final_memory(), "{kind:?}");
        }
    }

    #[test]
    fn rstu_beats_simple_issue_on_ilp() {
        let p = loop_prog().assemble().unwrap();
        let simple = crate::SimpleIssue::new(cfg())
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        let rstu = TaggedSim::new(cfg(), WindowKind::Merged { entries: 20 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(rstu.cycles < simple.cycles);
    }

    #[test]
    fn waw_same_register_resolves_to_latest() {
        // Long-latency write followed by a fast write to the same
        // register: the fast one is younger and must win the final state.
        let mut a = Asm::new("t");
        a.f_recip(Reg::s(1), Reg::s(0)); // slow producer of S1 (inf)
        a.s_imm(Reg::s(1), 42); // fast, younger
        a.halt();
        let p = a.assemble().unwrap();
        for kind in all_kinds() {
            let r = TaggedSim::new(cfg(), kind)
                .run(&p, Memory::new(1 << 12), 1_000_000)
                .unwrap();
            assert_eq!(r.state.reg(Reg::s(1)), 42, "{kind:?}");
        }
    }

    #[test]
    fn stores_to_one_address_write_in_order() {
        // An older store whose data arrives late must not clobber a
        // younger store's value.
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 64);
        a.f_recip(Reg::s(1), Reg::s(0)); // S1 ready late
        a.st_s(Reg::s(1), Reg::a(1), 0); // older store, late data
        a.s_imm(Reg::s(2), 9);
        a.st_s(Reg::s(2), Reg::a(1), 0); // younger store, early data
        a.halt();
        let p = a.assemble().unwrap();
        let g = Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap();
        for kind in all_kinds() {
            let r = TaggedSim::new(cfg(), kind)
                .run(&p, Memory::new(1 << 12), 1_000_000)
                .unwrap();
            assert_eq!(r.memory.read(64), g.final_memory().read(64), "{kind:?}");
        }
    }

    #[test]
    fn rstu_small_window_stalls() {
        let p = loop_prog().assemble().unwrap();
        let r = TaggedSim::new(cfg(), WindowKind::Merged { entries: 3 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(r.stats.stalls(StallReason::WindowFull) > 0);
    }

    #[test]
    fn two_dispatch_paths_help_a_little() {
        let p = loop_prog().assemble().unwrap();
        let one = TaggedSim::new(cfg(), WindowKind::Merged { entries: 10 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        let two = TaggedSim::new(
            cfg().with_dispatch_paths(2),
            WindowKind::Merged { entries: 10 },
        )
        .run(&p, Memory::new(1 << 12), 1_000_000)
        .unwrap();
        assert!(two.cycles <= one.cycles);
    }

    #[test]
    fn interrupt_state_differs_from_every_program_order_boundary() {
        // A long-latency op followed by a fast store: when the fast store
        // completes, the long op has not — no program-order boundary
        // matches the machine state (S2 written, the older S1 not).
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 80);
        a.f_recip(Reg::s(1), Reg::s(0)); // seq 1: slow
        a.s_imm(Reg::s(2), 5); // seq 2
        a.st_s(Reg::s(2), Reg::a(1), 0); // seq 3: fast store
        a.halt();
        let p = a.assemble().unwrap();
        let outcome = TaggedSim::new(cfg(), WindowKind::Merged { entries: 8 })
            .run_with_exception(&p, Memory::new(1 << 12), 1_000_000, 3)
            .unwrap();
        let RunOutcome::Interrupted(frame) = outcome else {
            panic!("the store completes");
        };
        // The faulting store has not written memory, but the younger-
        // than-recip S2 is architectural while the older S1 is not.
        assert_eq!(frame.memory.read(80), 0);
        assert_eq!(frame.state.reg(Reg::s(2)), 5);
        for k in 0..=4 {
            let (gs, gm) = ruu_exec::golden_state_at(&p, Memory::new(1 << 12), k).unwrap();
            assert!(
                frame.state.regs != gs.regs || frame.memory != gm,
                "matches boundary {k}"
            );
        }
    }

    #[test]
    fn distributed_blocks_on_per_fu_stations() {
        // Three dependent float-adds fill a 1-deep FloatAdd RS while an
        // independent AddrAdd can still issue.
        let mut a = Asm::new("t");
        a.f_recip(Reg::s(1), Reg::s(0));
        a.f_add(Reg::s(2), Reg::s(1), Reg::s(1));
        a.f_add(Reg::s(3), Reg::s(2), Reg::s(2));
        a.a_imm(Reg::a(1), 7);
        a.halt();
        let p = a.assemble().unwrap();
        let r = TaggedSim::new(cfg(), WindowKind::Distributed { rs_per_fu: 1 })
            .run(&p, Memory::new(1 << 12), 1_000_000)
            .unwrap();
        assert!(r.stats.stalls(StallReason::WindowFull) > 0);
        assert_eq!(r.state.reg(Reg::a(1)), 7);
    }
}
