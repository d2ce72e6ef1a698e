//! Programs: named, immutable instruction sequences.

use std::fmt;
use std::ops::Index;

use crate::inst::Inst;

/// An assembled program: a named, immutable sequence of instructions.
///
/// Program counters are indices into the sequence (`u32`); the fetch units
/// of all simulators and the golden interpreter walk the same sequence.
/// Construct programs with [`crate::Asm`], which resolves labels and
/// validates branch targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
}

impl Program {
    /// Creates a program from raw parts.
    ///
    /// Prefer [`crate::Asm::assemble`], which validates that every branch
    /// target is in range. This constructor asserts the same invariant.
    ///
    /// # Panics
    /// Panics if any branch target is out of range.
    #[must_use]
    pub fn from_parts(name: impl Into<String>, insts: Vec<Inst>) -> Self {
        let name = name.into();
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.target {
                assert!(
                    (t as usize) < insts.len(),
                    "{name}: branch at pc {pc} targets {t}, past end {}",
                    insts.len()
                );
            }
        }
        Program { name, insts }
    }

    /// The program's name (e.g. `"LLL3"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at `pc`, or `None` past the end.
    #[must_use]
    #[inline]
    pub fn get(&self, pc: u32) -> Option<&Inst> {
        self.insts.get(pc as usize)
    }

    /// Iterator over the static instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Inst> {
        self.insts.iter()
    }

    /// A full disassembly listing, one instruction per line.
    #[must_use]
    pub fn listing(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "; program {} ({} insts)", self.name, self.len());
        for (pc, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(out, "{pc:5}:  {inst}");
        }
        out
    }
}

impl Index<u32> for Program {
    type Output = Inst;

    fn index(&self, pc: u32) -> &Inst {
        &self.insts[pc as usize]
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Inst;
    type IntoIter = std::slice::Iter<'a, Inst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.listing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;
    use crate::reg::Reg;

    fn nop() -> Inst {
        Inst::new(Opcode::Nop, None, None, None, 0, None)
    }

    #[test]
    fn indexing_and_iteration() {
        let p = Program::from_parts("t", vec![nop(), nop()]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p[0].opcode, Opcode::Nop);
        assert_eq!(p.iter().count(), 2);
        assert!(p.get(2).is_none());
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn rejects_out_of_range_target() {
        let br = Inst::new(Opcode::Jump, None, None, None, 0, Some(9));
        let _ = Program::from_parts("bad", vec![br]);
    }

    #[test]
    fn listing_contains_every_pc() {
        let add = Inst::new(
            Opcode::AAdd,
            Some(Reg::a(1)),
            Some(Reg::a(2)),
            Some(Reg::a(3)),
            0,
            None,
        );
        let p = Program::from_parts("t", vec![add, nop()]);
        let l = p.listing();
        assert!(l.contains("0:"));
        assert!(l.contains("1:"));
        assert!(l.contains("a.add"));
    }
}
