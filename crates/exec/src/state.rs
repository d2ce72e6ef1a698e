//! Architectural register state.

use std::fmt;

use ruu_isa::{Reg, NUM_REGS};

/// The values of all 144 architectural registers.
#[derive(Clone, PartialEq, Eq)]
pub struct RegValues {
    vals: [u64; NUM_REGS],
}

impl RegValues {
    /// All-zero register file.
    #[must_use]
    pub fn new() -> Self {
        RegValues {
            vals: [0; NUM_REGS],
        }
    }

    /// The value of register `r`.
    #[must_use]
    #[inline]
    pub fn get(&self, r: Reg) -> u64 {
        self.vals[r.index()]
    }

    /// Sets register `r` to `v`.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u64) {
        self.vals[r.index()] = v;
    }

    /// Iterator over `(register, value)` for all non-zero registers.
    pub fn nonzero(&self) -> impl Iterator<Item = (Reg, u64)> + '_ {
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (Reg::from_index(i), v))
    }
}

impl Default for RegValues {
    fn default() -> Self {
        RegValues::new()
    }
}

impl fmt::Debug for RegValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegValues {{")?;
        let mut first = true;
        for (r, v) in self.nonzero() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, " {r}={v:#x}")?;
            first = false;
        }
        if first {
            write!(f, " all zero")?;
        }
        write!(f, " }}")
    }
}

/// A precise architectural state: register values plus program counter.
///
/// This is what "precise interrupt" means in the paper (§4): at any
/// interrupt, a state of this form must be recoverable such that all
/// instructions before `pc` have updated it and none after have.
/// (Memory is part of the precise state too; it lives in
/// [`crate::Memory`] and is compared alongside.)
#[derive(Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Register file contents.
    pub regs: RegValues,
    /// Program counter of the next instruction to execute.
    pub pc: u32,
}

impl ArchState {
    /// Initial state: all registers zero, `pc = 0`.
    #[must_use]
    pub fn new() -> Self {
        ArchState {
            regs: RegValues::new(),
            pc: 0,
        }
    }

    /// The value of register `r`.
    #[must_use]
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs.get(r)
    }

    /// Sets register `r` to `v`.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs.set(r, v);
    }
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState::new()
    }
}

impl fmt::Debug for ArchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArchState {{ pc: {}, regs: {:?} }}", self.pc, self.regs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut rv = RegValues::new();
        for r in Reg::all() {
            assert_eq!(rv.get(r), 0);
        }
        rv.set(Reg::t(63), 99);
        assert_eq!(rv.get(Reg::t(63)), 99);
        assert_eq!(rv.nonzero().count(), 1);
    }

    #[test]
    fn equality_by_contents() {
        let mut a = ArchState::new();
        let b = ArchState::new();
        assert_eq!(a, b);
        a.set_reg(Reg::s(1), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_nonempty() {
        let s = ArchState::new();
        assert!(!format!("{s:?}").is_empty());
    }
}
