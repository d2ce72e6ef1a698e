//! Classic forward/backward dataflow over the 144-register file.
//!
//! Three analyses power the lints in [`crate::lint`](mod@crate::lint):
//!
//! * **may-be-uninitialized** (forward, union join): which registers can
//!   reach a read without an intervening write — flags reads of
//!   never-written registers;
//! * **liveness** (backward, union join): which registers may still be
//!   read on some path — exposed for diagnostics and tests;
//! * **reaching definitions** (forward, union join) with def→use
//!   chaining: which writes are never read at all, split into writes
//!   overwritten before use (dead) and writes still architecturally
//!   current at program exit (computed-but-unread).
//!
//! All lattices are powersets of the register file, represented as
//! three-word bitsets ([`RegSet`]); the fixpoints are round-robin
//! iterations over the basic blocks of a [`Cfg`] and terminate because
//! every transfer function is monotone on a finite lattice.

use ruu_isa::{Program, Reg, NUM_REGS};

use crate::cfg::Cfg;

const WORDS: usize = NUM_REGS.div_ceil(64);

/// A set of registers over all four files (A/S/B/T), as a bitset keyed
/// by [`Reg::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct RegSet([u64; WORDS]);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet([0; WORDS]);

    /// The set of all [`NUM_REGS`] registers.
    #[must_use]
    pub fn full() -> Self {
        let mut s = RegSet::EMPTY;
        for r in Reg::all() {
            s.insert(r);
        }
        s
    }

    /// Adds `r` to the set.
    pub fn insert(&mut self, r: Reg) {
        let i = r.index();
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Removes `r` from the set.
    pub fn remove(&mut self, r: Reg) {
        let i = r.index();
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// `true` if `r` is in the set.
    #[must_use]
    pub fn contains(&self, r: Reg) -> bool {
        let i = r.index();
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(other.0) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Removes every register of `other` from `self`.
    pub fn subtract(&mut self, other: &RegSet) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a &= !b;
        }
    }

    /// `true` if no register is in the set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Number of registers in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the members, in [`Reg::index`] order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        Reg::all().filter(|&r| self.contains(r))
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> Self {
        let mut s = RegSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

/// Per-block liveness solution (backward may-analysis).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `live_in[b]`: registers possibly read before being written on some
    /// path starting at block `b`'s entry.
    pub live_in: Vec<RegSet>,
    /// `live_out[b]`: union of successors' `live_in`.
    pub live_out: Vec<RegSet>,
}

/// Solves liveness over `cfg`. Unreachable blocks participate (their
/// reads keep registers live within themselves) but have no effect on
/// reachable blocks unless an edge leads back into the reachable region.
#[must_use]
pub fn liveness(program: &Program, cfg: &Cfg) -> Liveness {
    let nb = cfg.blocks().len();
    // Upward-exposed uses and kills per block.
    let mut uses = vec![RegSet::EMPTY; nb];
    let mut defs = vec![RegSet::EMPTY; nb];
    for b in cfg.blocks() {
        for pc in b.pcs() {
            let inst = program.get(pc).expect("pc in range");
            for s in inst.sources() {
                if !defs[b.id].contains(s) {
                    uses[b.id].insert(s);
                }
            }
            if let Some(d) = inst.dst {
                defs[b.id].insert(d);
            }
        }
    }
    let mut live_in = vec![RegSet::EMPTY; nb];
    let mut live_out = vec![RegSet::EMPTY; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in cfg.blocks().iter().rev() {
            let mut out = RegSet::EMPTY;
            for &s in &b.succs {
                out.union_with(&live_in[s]);
            }
            let mut inn = out;
            inn.subtract(&defs[b.id]);
            inn.union_with(&uses[b.id]);
            changed |= live_out[b.id].union_with(&out);
            changed |= live_in[b.id].union_with(&inn);
        }
    }
    Liveness { live_in, live_out }
}

/// A read of a possibly-uninitialized register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UninitRead {
    /// Pc of the reading instruction.
    pub pc: u32,
    /// The register read before any write on some path.
    pub reg: Reg,
}

/// Finds reads of registers that some path reaches without a prior write
/// (forward may-uninitialized analysis over reachable blocks only).
/// Registers in `assume_initialized` are treated as written at entry.
#[must_use]
pub fn uninit_reads(program: &Program, cfg: &Cfg, assume_initialized: &RegSet) -> Vec<UninitRead> {
    let nb = cfg.blocks().len();
    if nb == 0 {
        return Vec::new();
    }
    let mut entry = RegSet::full();
    entry.subtract(assume_initialized);
    // uninit_in[b]: registers possibly unwritten at block entry.
    let mut uninit_in = vec![RegSet::EMPTY; nb];
    uninit_in[0] = entry;
    let mut changed = true;
    while changed {
        changed = false;
        for b in cfg.blocks() {
            if !b.reachable {
                continue;
            }
            let mut state = uninit_in[b.id];
            for pc in b.pcs() {
                if let Some(d) = program.get(pc).expect("pc in range").dst {
                    state.remove(d);
                }
            }
            for &s in &b.succs {
                changed |= uninit_in[s].union_with(&state);
            }
        }
    }
    let mut found = Vec::new();
    for b in cfg.blocks() {
        if !b.reachable {
            continue;
        }
        let mut state = uninit_in[b.id];
        for pc in b.pcs() {
            let inst = program.get(pc).expect("pc in range");
            let mut seen: Option<Reg> = None;
            for s in inst.sources() {
                if state.contains(s) && seen != Some(s) {
                    found.push(UninitRead { pc, reg: s });
                    seen = Some(s);
                }
            }
            if let Some(d) = inst.dst {
                state.remove(d);
            }
        }
    }
    found
}

/// Def→use facts from reaching definitions: for every write (identified
/// by its pc), whether any read consumes it and whether it is still the
/// architecturally current value at some program exit.
#[derive(Debug, Clone)]
pub struct DefUse {
    /// `used[pc]`: the write at `pc` reaches at least one read.
    pub used: Vec<bool>,
    /// `at_exit[pc]`: the write at `pc` is the live-out definition of its
    /// register at some reachable exit (halt or program end).
    pub at_exit: Vec<bool>,
}

/// Solves reaching definitions over the reachable region and chains defs
/// to uses. Each pc defines at most one register, so a definition is
/// identified by its pc.
#[must_use]
pub fn def_use(program: &Program, cfg: &Cfg) -> DefUse {
    let n = program.len();
    let nb = cfg.blocks().len();
    // reach_in[b][reg.index()] = pcs of defs of `reg` reaching b's entry.
    let mut reach_in: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); NUM_REGS]; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in cfg.blocks() {
            if !b.reachable {
                continue;
            }
            let mut state = reach_in[b.id].clone();
            for pc in b.pcs() {
                if let Some(d) = program.get(pc).expect("pc in range").dst {
                    state[d.index()] = vec![pc];
                }
            }
            for &s in &b.succs {
                for (reg, defs) in state.iter().enumerate() {
                    for &pc in defs {
                        if !reach_in[s][reg].contains(&pc) {
                            reach_in[s][reg].push(pc);
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    let mut used = vec![false; n];
    let mut at_exit = vec![false; n];
    for b in cfg.blocks() {
        if !b.reachable {
            continue;
        }
        let mut state = reach_in[b.id].clone();
        for pc in b.pcs() {
            let inst = program.get(pc).expect("pc in range");
            for s in inst.sources() {
                for &def_pc in &state[s.index()] {
                    used[def_pc as usize] = true;
                }
            }
            if let Some(d) = inst.dst {
                state[d.index()] = vec![pc];
            }
        }
        if b.succs.is_empty() || b.falls_off_end {
            for defs in &state {
                for &def_pc in defs {
                    at_exit[def_pc as usize] = true;
                }
            }
        }
    }
    DefUse { used, at_exit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_isa::Asm;

    fn cfg_of(p: &Program) -> Cfg {
        Cfg::build(p)
    }

    #[test]
    fn regset_basics() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Reg::a(3));
        s.insert(Reg::t(63));
        assert!(s.contains(Reg::a(3)) && s.contains(Reg::t(63)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().count(), 2);
        s.remove(Reg::a(3));
        assert!(!s.contains(Reg::a(3)));
        assert_eq!(RegSet::full().len(), NUM_REGS);
    }

    #[test]
    fn uninit_read_found_and_cleared_by_write() {
        let mut a = Asm::new("t");
        a.s_add(Reg::s(1), Reg::s(2), Reg::s(3)); // S2, S3 unwritten
        a.s_add(Reg::s(4), Reg::s(1), Reg::s(1)); // S1 now written: clean
        a.halt();
        let p = a.assemble().unwrap();
        let cfg = cfg_of(&p);
        let reads = uninit_reads(&p, &cfg, &RegSet::EMPTY);
        let regs: Vec<Reg> = reads.iter().map(|u| u.reg).collect();
        assert_eq!(regs, vec![Reg::s(2), Reg::s(3)]);
        // Assuming them initialized silences the findings.
        let preset: RegSet = [Reg::s(2), Reg::s(3)].into_iter().collect();
        assert!(uninit_reads(&p, &cfg, &preset).is_empty());
    }

    #[test]
    fn loop_carried_write_is_initialized_after_first_iteration_only() {
        // The loop body reads S1 before the body's own write on iteration
        // one, so the may-uninit analysis still flags it.
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 2);
        a.bind(top);
        a.s_add(Reg::s(2), Reg::s(1), Reg::s(1));
        a.s_imm(Reg::s(1), 5);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let reads = uninit_reads(&p, &cfg_of(&p), &RegSet::EMPTY);
        assert!(reads.iter().any(|u| u.reg == Reg::s(1)));
    }

    #[test]
    fn liveness_sees_loop_carried_use() {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 3);
        a.bind(top);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let cfg = cfg_of(&p);
        let live = liveness(&p, &cfg);
        // A0 is live around the back edge.
        let body = cfg.block_of(1).id;
        assert!(live.live_in[body].contains(Reg::a(0)));
        assert!(live.live_out[body].contains(Reg::a(0)));
    }

    #[test]
    fn def_use_distinguishes_dead_and_unread_at_exit() {
        let mut a = Asm::new("t");
        a.s_imm(Reg::s(1), 1); // overwritten before any read: dead
        a.s_imm(Reg::s(1), 2); // read below
        a.s_add(Reg::s(2), Reg::s(1), Reg::s(1)); // S2 unread at halt
        a.halt();
        let p = a.assemble().unwrap();
        let du = def_use(&p, &cfg_of(&p));
        assert!(!du.used[0] && !du.at_exit[0]);
        assert!(du.used[1]);
        assert!(!du.used[2] && du.at_exit[2]);
    }

    #[test]
    fn loop_counter_write_has_a_use() {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 3);
        a.bind(top);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top); // reads A0: both writes are used
        a.halt();
        let p = a.assemble().unwrap();
        let du = def_use(&p, &cfg_of(&p));
        assert!(du.used[0] && du.used[1]);
    }
}
