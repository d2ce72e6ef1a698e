//! Decoded instructions with uniform operand accessors.

use std::fmt;

use crate::op::{FuClass, Opcode};
use crate::reg::Reg;

/// A decoded instruction.
///
/// `Inst` is deliberately a flat record rather than a sum type with
/// per-opcode payloads: the timing simulators need uniform access to
/// "destination register", "source registers", "functional unit" and
/// "branch target" regardless of opcode, and the golden semantics are a
/// single pure function over `(opcode, source values, immediate)` (see
/// [`crate::semantics`]).
///
/// Invariants (upheld by the [`crate::Asm`] constructors):
/// * `dst`/`src1`/`src2` register files match the opcode's conventions
///   (e.g. `AAdd` has all-A operands);
/// * conditional branches carry their implicit condition register
///   (`A0`/`S0`) in `src1`, so dependences on the condition are visible to
///   issue logic without special cases;
/// * loads use `src1` as the address base and stores use `src1` as the
///   address base and `src2` as the data source;
/// * `target` is `Some` exactly for branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Opcode.
    pub opcode: Opcode,
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// First source register (address base for memory ops; condition
    /// register for conditional branches).
    pub src1: Option<Reg>,
    /// Second source register (data source for stores).
    pub src2: Option<Reg>,
    /// Immediate operand (displacement for memory ops, shift count,
    /// immediate value); `0` when unused.
    pub imm: i64,
    /// Branch target (program counter), `Some` exactly for branches.
    pub target: Option<u32>,
}

impl Inst {
    /// Creates an instruction record.
    ///
    /// Most callers should use the typed [`crate::Asm`] methods instead,
    /// which validate operand conventions.
    #[must_use]
    pub fn new(
        opcode: Opcode,
        dst: Option<Reg>,
        src1: Option<Reg>,
        src2: Option<Reg>,
        imm: i64,
        target: Option<u32>,
    ) -> Self {
        Inst {
            opcode,
            dst,
            src1,
            src2,
            imm,
            target,
        }
    }

    /// The functional unit class this instruction executes on, or `None`
    /// for branches/`Nop`/`Halt` which resolve in the issue stage.
    #[must_use]
    #[inline]
    pub fn fu_class(&self) -> Option<FuClass> {
        self.opcode.fu_class()
    }

    /// Iterator over the source registers (0, 1 or 2 of them).
    #[inline]
    pub fn sources(&self) -> impl Iterator<Item = Reg> {
        self.src1.into_iter().chain(self.src2)
    }

    /// `true` if `r` is read by this instruction.
    #[must_use]
    pub fn reads(&self, r: Reg) -> bool {
        self.src1 == Some(r) || self.src2 == Some(r)
    }

    /// `true` if `r` is written by this instruction.
    #[must_use]
    pub fn writes(&self, r: Reg) -> bool {
        self.dst == Some(r)
    }

    /// `true` for any (conditional or unconditional) branch.
    #[must_use]
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.opcode.is_branch()
    }

    /// `true` for memory loads.
    #[must_use]
    #[inline]
    pub fn is_load(&self) -> bool {
        self.opcode.is_load()
    }

    /// `true` for memory stores.
    #[must_use]
    #[inline]
    pub fn is_store(&self) -> bool {
        self.opcode.is_store()
    }

    /// `true` for any memory operation.
    #[must_use]
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.opcode.is_mem()
    }

    /// `true` if this is the `Halt` pseudo-instruction.
    #[must_use]
    #[inline]
    pub fn is_halt(&self) -> bool {
        self.opcode == Opcode::Halt
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
            if self.src1.is_some() || self.src2.is_some() || self.uses_imm() {
                write!(f, ",")?;
            }
        }
        let mut first = self.dst.is_none();
        for s in self.sources() {
            if first {
                write!(f, " {s}")?;
                first = false;
            } else {
                write!(f, " {s},")?;
            }
        }
        // Trailing comma cleanup is cosmetic; keep the format simple and
        // unambiguous instead: print imm/target with explicit markers.
        if self.uses_imm() {
            write!(f, " #{}", self.imm)?;
        }
        if let Some(t) = self.target {
            write!(f, " ->{t}")?;
        }
        Ok(())
    }
}

impl Inst {
    /// `true` if the immediate field is meaningful for this opcode.
    #[must_use]
    pub fn uses_imm(&self) -> bool {
        use Opcode::*;
        matches!(
            self.opcode,
            AAddImm | ASubImm | AImm | SImm | SShl | SShr | LoadA | LoadS | StoreA | StoreS
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add() -> Inst {
        Inst::new(
            Opcode::AAdd,
            Some(Reg::a(1)),
            Some(Reg::a(2)),
            Some(Reg::a(3)),
            0,
            None,
        )
    }

    #[test]
    fn sources_iterates_both() {
        let i = add();
        let srcs: Vec<Reg> = i.sources().collect();
        assert_eq!(srcs, vec![Reg::a(2), Reg::a(3)]);
    }

    #[test]
    fn reads_writes() {
        let i = add();
        assert!(i.reads(Reg::a(2)));
        assert!(i.reads(Reg::a(3)));
        assert!(!i.reads(Reg::a(1)));
        assert!(i.writes(Reg::a(1)));
        assert!(!i.writes(Reg::a(2)));
    }

    #[test]
    fn display_is_nonempty_and_contains_mnemonic() {
        let i = add();
        let s = i.to_string();
        assert!(s.contains("a.add"));
        assert!(s.contains("A1"));
    }

    #[test]
    fn load_classification() {
        let ld = Inst::new(
            Opcode::LoadS,
            Some(Reg::s(1)),
            Some(Reg::a(2)),
            None,
            40,
            None,
        );
        assert!(ld.is_load() && ld.is_mem() && !ld.is_store());
        assert!(ld.uses_imm());
        assert_eq!(ld.fu_class(), Some(FuClass::Memory));
    }
}
