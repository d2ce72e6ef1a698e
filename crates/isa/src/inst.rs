//! Decoded instructions with uniform operand accessors.

use std::fmt;

use crate::op::{FuClass, Opcode, Operand};
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
/// Invariants (upheld by the one checked path that the [`crate::Asm`]
/// constructors and [`crate::text::parse`] build through):
/// * `dst`/`src1`/`src2` are present, and in the register files, that
///   [`Opcode::shape`] gives (e.g. `AAdd` has all-A operands);
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

/// The text syntax of [`crate::text`], with a branch target written
/// `L{pc}`: `st.s S2, A1, 3`, `br.an L7`.
impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.opcode.mnemonic())?;
        for (i, operand) in self.opcode.shape().operands.iter().enumerate() {
            f.write_str(if i == 0 { " " } else { ", " })?;
            let reg = match operand {
                Operand::Dst(_) => self.dst,
                Operand::Src1(_) => self.src1,
                Operand::Src2(_) => self.src2,
                Operand::Imm(_) => {
                    write!(f, "{}", self.imm)?;
                    continue;
                }
                Operand::Target(_) => {
                    f.write_str("L")?;
                    match self.target {
                        Some(t) => write!(f, "{t}")?,
                        None => f.write_str("?")?,
                    }
                    continue;
                }
            };
            // A hand-built `Inst` may lack an operand its shape names.
            match reg {
                Some(r) => write!(f, "{r}")?,
                None => f.write_str("?")?,
            }
        }
        Ok(())
    }
}

impl Inst {
    /// `true` if the immediate field is meaningful for this opcode.
    #[must_use]
    pub fn uses_imm(&self) -> bool {
        self.opcode
            .shape()
            .operands
            .iter()
            .any(|o| matches!(o, Operand::Imm(_)))
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

        // One exact line per operand shape: the text syntax, with a
        // branch target written `L{pc}`.
        let mut a = crate::Asm::new("shapes");
        let top = a.new_label();
        a.bind(top);
        a.a_add(Reg::a(1), Reg::a(2), Reg::a(3));
        a.a_sub_imm(Reg::a(1), Reg::a(2), -4);
        a.ld_s(Reg::s(1), Reg::a(2), 40);
        a.st_s(Reg::s(2), Reg::a(1), 3);
        a.a_imm(Reg::a(1), 5);
        a.a_to_b(Reg::b(63), Reg::a(1));
        a.br_an(top);
        a.jump(top);
        a.halt();
        let lines: Vec<String> = a.assemble().unwrap().iter().map(Inst::to_string).collect();
        let want = [
            "a.add A1, A2, A3",
            "a.subi A1, A2, -4",
            "ld.s S1, A2, 40",
            "st.s S2, A1, 3",
            "a.imm A1, 5",
            "mov.ab B63, A1",
            "br.an L0",
            "j L0",
            "halt",
        ];
        assert_eq!(lines, want);
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
