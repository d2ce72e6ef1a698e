//! A small typed assembler with labels and forward references.
//!
//! [`Asm`] exposes one method per opcode. Each builds its instruction
//! through one checked path that matches the operands against
//! [`Opcode::shape`] (e.g. `a_add` insists on A registers), so every
//! assembled [`Program`] satisfies the [`Inst`] invariants; the text
//! parser ([`crate::text`]) builds through the same path. Labels are
//! created with [`Asm::new_label`] (auto-named `L0`, `L1`, …) or
//! [`Asm::named_label`], placed with [`Asm::bind`], and resolved at
//! [`Asm::assemble`] time. All diagnostics — undefined labels, duplicate
//! bindings, constants that overflow their field — are reported
//! from `assemble` as typed [`AsmError`]s carrying the label name and the
//! offending instruction index.

use std::fmt;

use crate::inst::Inst;
use crate::op::{Opcode, Operand};
use crate::program::Program;
use crate::reg::Reg;

/// A branch-target label, created by [`Asm::new_label`] or
/// [`Asm::named_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// One written operand given to [`Asm::try_push`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arg {
    Reg(Reg),
    Imm(i64),
    Label(Label),
}

/// Errors reported by [`Asm::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label used as a branch target was never bound with [`Asm::bind`].
    UnboundLabel {
        /// The offending label's name (`L7` if auto-named).
        label: String,
        /// Instruction index of the branch that references it.
        pc: usize,
    },
    /// A label was bound at two different program counters.
    ReboundLabel {
        /// The offending label's name (`L7` if auto-named).
        label: String,
        /// Program counter of the first binding.
        first: u32,
        /// Program counter of the offending second binding.
        second: u32,
    },
    /// An immediate, displacement or branch target does not fit its
    /// signed field: 22 bits for `AImm`/`SImm` and branch targets, 16 for
    /// the register+constant forms (see [`Opcode::shape`]).
    ImmOutOfRange {
        /// Instruction index of the offending instruction.
        pc: usize,
        /// The constant that overflowed.
        value: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label, pc } => {
                write!(f, "branch to undefined label '{label}' at inst {pc}")
            }
            AsmError::ReboundLabel {
                label,
                first,
                second,
            } => write!(
                f,
                "label '{label}' bound twice: at pc {first} and again at pc {second}"
            ),
            AsmError::ImmOutOfRange { pc, value } => write!(
                f,
                "constant {value} at inst {pc} does not fit its encoding field"
            ),
        }
    }
}

impl std::error::Error for AsmError {}

/// Typed program assembler.
///
/// # Example
///
/// ```
/// use ruu_isa::{Asm, Reg};
///
/// let mut a = Asm::new("copy8");
/// let top = a.new_label();
/// a.a_imm(Reg::a(1), 0);   // src index
/// a.a_imm(Reg::a(0), 8);   // trip count
/// a.bind(top);
/// a.ld_s(Reg::s(1), Reg::a(1), 100);
/// a.st_s(Reg::s(1), Reg::a(1), 200);
/// a.a_add_imm(Reg::a(1), Reg::a(1), 1);
/// a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
/// a.br_an(top);
/// a.halt();
/// let p = a.assemble().unwrap();
/// assert_eq!(p.name(), "copy8");
/// ```
#[derive(Debug)]
pub struct Asm {
    name: String,
    insts: Vec<Inst>,
    /// label id -> bound pc
    bound: Vec<Option<u32>>,
    /// label id -> display name
    label_names: Vec<String>,
    /// (pc of branch, label id) fixups
    fixups: Vec<(usize, usize)>,
    /// Duplicate `bind` calls, reported as [`AsmError::ReboundLabel`]
    /// at assemble time: (label id, pc of the rejected second binding).
    rebinds: Vec<(usize, u32)>,
}

impl Asm {
    /// Creates an empty assembler for a program called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Asm {
            name: name.into(),
            insts: Vec::new(),
            bound: Vec::new(),
            label_names: Vec::new(),
            fixups: Vec::new(),
            rebinds: Vec::new(),
        }
    }

    /// Current program counter (index of the next instruction).
    #[must_use]
    pub fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Creates a fresh, unbound label auto-named `L0`, `L1`, ….
    pub fn new_label(&mut self) -> Label {
        let name = format!("L{}", self.bound.len());
        self.named_label(name)
    }

    /// Creates a fresh, unbound label with a display name that appears in
    /// assemble-time diagnostics (e.g. `branch to undefined label 'loop2'
    /// at inst 17`).
    pub fn named_label(&mut self, name: impl Into<String>) -> Label {
        self.bound.push(None);
        self.label_names.push(name.into());
        Label(self.bound.len() - 1)
    }

    /// Binds `label` to the current program counter. Binding the same
    /// label twice is reported as [`AsmError::ReboundLabel`] by
    /// [`Asm::assemble`] (the first binding wins until then).
    pub fn bind(&mut self, label: Label) {
        if self.bound[label.0].is_some() {
            self.rebinds.push((label.0, self.here()));
        } else {
            self.bound[label.0] = Some(self.here());
        }
    }

    /// Appends `opcode` with its written operands `args`, matched against
    /// [`Opcode::shape`]; panics with the shape error (see
    /// [`Asm::try_push`]).
    fn inst(&mut self, opcode: Opcode, args: &[Arg]) -> &mut Self {
        if let Err(e) = self.try_push(opcode, args) {
            panic!("{e}");
        }
        self
    }

    /// The one checked path every instruction is built through: matches
    /// `args` against `opcode`'s written operands, one for one and of the
    /// same kinds (callers build them from the shape; [`crate::text`]
    /// checks the count), checks each register's file, and appends the
    /// instruction. A conditional branch gets its condition register in
    /// `src1`; a target is a label, resolved by [`Asm::assemble`]. On a
    /// register in the wrong file nothing is appended.
    pub(crate) fn try_push(&mut self, opcode: Opcode, args: &[Arg]) -> Result<(), String> {
        let shape = opcode.shape();
        debug_assert_eq!(args.len(), shape.operands.len(), "{opcode} operand count");
        let cond = shape.cond.map(|file| Reg::new(file, 0));
        let mut inst = Inst::new(opcode, None, cond, None, 0, None);
        let mut label = None;
        for (&operand, &arg) in shape.operands.iter().zip(args) {
            match (operand, arg) {
                (Operand::Imm(_), Arg::Imm(v)) => inst.imm = v,
                // Target 0 is a placeholder patched in `assemble`.
                (Operand::Target(_), Arg::Label(l)) => (label, inst.target) = (Some(l), Some(0)),
                (Operand::Dst(file) | Operand::Src1(file) | Operand::Src2(file), Arg::Reg(r)) => {
                    let (slot, what) = match operand {
                        Operand::Dst(_) => (&mut inst.dst, "dst"),
                        Operand::Src1(_) if opcode.is_mem() => (&mut inst.src1, "base"),
                        Operand::Src1(_) => (&mut inst.src1, "src1"),
                        _ if opcode.is_store() => (&mut inst.src2, "data"),
                        _ => (&mut inst.src2, "src2"),
                    };
                    if r.file() != file {
                        return Err(format!(
                            "{what} operand must be an {file} register, got {r}"
                        ));
                    }
                    *slot = Some(r);
                }
                _ => unreachable!("{opcode}: {arg:?} given for its {operand:?} operand"),
            }
        }
        if let Some(l) = label {
            self.fixups.push((self.insts.len(), l.0));
        }
        self.insts.push(inst);
        Ok(())
    }

    // ----- address (A) operations ------------------------------------

    /// `Ai = Aj + Ak`
    pub fn a_add(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::AAdd, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Ai = Aj - Ak`
    pub fn a_sub(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::ASub, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Ai = Aj + imm`
    pub fn a_add_imm(&mut self, d: Reg, j: Reg, imm: i64) -> &mut Self {
        self.inst(Opcode::AAddImm, &[Arg::Reg(d), Arg::Reg(j), Arg::Imm(imm)])
    }

    /// `Ai = Aj - imm`
    pub fn a_sub_imm(&mut self, d: Reg, j: Reg, imm: i64) -> &mut Self {
        self.inst(Opcode::ASubImm, &[Arg::Reg(d), Arg::Reg(j), Arg::Imm(imm)])
    }

    /// `Ai = Aj * Ak` (address multiply)
    pub fn a_mul(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::AMul, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Ai = imm`
    pub fn a_imm(&mut self, d: Reg, imm: i64) -> &mut Self {
        self.inst(Opcode::AImm, &[Arg::Reg(d), Arg::Imm(imm)])
    }

    // ----- scalar (S) integer/logical operations ---------------------

    /// `Si = Sj + Sk` (integer)
    pub fn s_add(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::SAdd, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Si = Sj - Sk` (integer)
    pub fn s_sub(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::SSub, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Si = imm`
    pub fn s_imm(&mut self, d: Reg, imm: i64) -> &mut Self {
        self.inst(Opcode::SImm, &[Arg::Reg(d), Arg::Imm(imm)])
    }

    /// `Si = Sj & Sk`
    pub fn s_and(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::SAnd, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Si = Sj | Sk`
    pub fn s_or(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::SOr, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Si = Sj ^ Sk`
    pub fn s_xor(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::SXor, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Si = Sj << imm`
    pub fn s_shl(&mut self, d: Reg, j: Reg, imm: i64) -> &mut Self {
        self.inst(Opcode::SShl, &[Arg::Reg(d), Arg::Reg(j), Arg::Imm(imm)])
    }

    /// `Si = Sj >> imm` (logical)
    pub fn s_shr(&mut self, d: Reg, j: Reg, imm: i64) -> &mut Self {
        self.inst(Opcode::SShr, &[Arg::Reg(d), Arg::Reg(j), Arg::Imm(imm)])
    }

    /// `Ai = popcount(Sj)`
    pub fn s_pop(&mut self, d: Reg, j: Reg) -> &mut Self {
        self.inst(Opcode::SPop, &[Arg::Reg(d), Arg::Reg(j)])
    }

    /// `Ai = leading_zeros(Sj)`
    pub fn s_lz(&mut self, d: Reg, j: Reg) -> &mut Self {
        self.inst(Opcode::SLz, &[Arg::Reg(d), Arg::Reg(j)])
    }

    // ----- floating point ---------------------------------------------

    /// `Si = Sj +f Sk`
    pub fn f_add(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::FAdd, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Si = Sj -f Sk`
    pub fn f_sub(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::FSub, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Si = Sj *f Sk`
    pub fn f_mul(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        self.inst(Opcode::FMul, &[Arg::Reg(d), Arg::Reg(j), Arg::Reg(k)])
    }

    /// `Si = 1/Sj` (reciprocal approximation)
    pub fn f_recip(&mut self, d: Reg, j: Reg) -> &mut Self {
        self.inst(Opcode::FRecip, &[Arg::Reg(d), Arg::Reg(j)])
    }

    // ----- register transfers -----------------------------------------

    /// `Bjk = Ai`
    pub fn a_to_b(&mut self, d: Reg, src: Reg) -> &mut Self {
        self.inst(Opcode::AtoB, &[Arg::Reg(d), Arg::Reg(src)])
    }

    /// `Ai = Bjk`
    pub fn b_to_a(&mut self, d: Reg, src: Reg) -> &mut Self {
        self.inst(Opcode::BtoA, &[Arg::Reg(d), Arg::Reg(src)])
    }

    /// `Tjk = Si`
    pub fn s_to_t(&mut self, d: Reg, src: Reg) -> &mut Self {
        self.inst(Opcode::StoT, &[Arg::Reg(d), Arg::Reg(src)])
    }

    /// `Si = Tjk`
    pub fn t_to_s(&mut self, d: Reg, src: Reg) -> &mut Self {
        self.inst(Opcode::TtoS, &[Arg::Reg(d), Arg::Reg(src)])
    }

    /// `Si = Ai`
    pub fn a_to_s(&mut self, d: Reg, src: Reg) -> &mut Self {
        self.inst(Opcode::AtoS, &[Arg::Reg(d), Arg::Reg(src)])
    }

    /// `Ai = Sj`
    pub fn s_to_a(&mut self, d: Reg, src: Reg) -> &mut Self {
        self.inst(Opcode::StoA, &[Arg::Reg(d), Arg::Reg(src)])
    }

    // ----- memory -------------------------------------------------------

    /// `Ai = mem[Ah + disp]`
    pub fn ld_a(&mut self, d: Reg, base: Reg, disp: i64) -> &mut Self {
        self.inst(
            Opcode::LoadA,
            &[Arg::Reg(d), Arg::Reg(base), Arg::Imm(disp)],
        )
    }

    /// `Si = mem[Ah + disp]`
    pub fn ld_s(&mut self, d: Reg, base: Reg, disp: i64) -> &mut Self {
        self.inst(
            Opcode::LoadS,
            &[Arg::Reg(d), Arg::Reg(base), Arg::Imm(disp)],
        )
    }

    /// `mem[Ah + disp] = Ai`
    pub fn st_a(&mut self, src: Reg, base: Reg, disp: i64) -> &mut Self {
        self.inst(
            Opcode::StoreA,
            &[Arg::Reg(src), Arg::Reg(base), Arg::Imm(disp)],
        )
    }

    /// `mem[Ah + disp] = Si`
    pub fn st_s(&mut self, src: Reg, base: Reg, disp: i64) -> &mut Self {
        self.inst(
            Opcode::StoreS,
            &[Arg::Reg(src), Arg::Reg(base), Arg::Imm(disp)],
        )
    }

    // ----- control flow ---------------------------------------------------

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::Jump, &[Arg::Label(label)])
    }

    /// Branch to `label` if `A0 == 0`.
    pub fn br_az(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::BrAZ, &[Arg::Label(label)])
    }

    /// Branch to `label` if `A0 != 0`.
    pub fn br_an(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::BrAN, &[Arg::Label(label)])
    }

    /// Branch to `label` if `A0 >= 0` (signed).
    pub fn br_ap(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::BrAP, &[Arg::Label(label)])
    }

    /// Branch to `label` if `A0 < 0` (signed).
    pub fn br_am(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::BrAM, &[Arg::Label(label)])
    }

    /// Branch to `label` if `S0 == 0`.
    pub fn br_sz(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::BrSZ, &[Arg::Label(label)])
    }

    /// Branch to `label` if `S0 != 0`.
    pub fn br_sn(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::BrSN, &[Arg::Label(label)])
    }

    /// Branch to `label` if `S0 >= 0` (signed).
    pub fn br_sp(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::BrSP, &[Arg::Label(label)])
    }

    /// Branch to `label` if `S0 < 0` (signed).
    pub fn br_sm(&mut self, label: Label) -> &mut Self {
        self.inst(Opcode::BrSM, &[Arg::Label(label)])
    }

    /// No operation.
    pub fn nop(&mut self) -> &mut Self {
        self.inst(Opcode::Nop, &[])
    }

    /// Terminate the program.
    pub fn halt(&mut self) -> &mut Self {
        self.inst(Opcode::Halt, &[])
    }

    /// Resolves labels, validates every constant against its field (the
    /// widths of [`Opcode::shape`]), and produces the [`Program`].
    ///
    /// # Errors
    /// * [`AsmError::ReboundLabel`] if a label was [`Asm::bind`]-ed at
    ///   two different program counters;
    /// * [`AsmError::UnboundLabel`] if a branch references a label that
    ///   was never bound — the message names the label and the branch's
    ///   instruction index;
    /// * [`AsmError::ImmOutOfRange`] if an immediate, displacement or
    ///   branch target overflows its field.
    pub fn assemble(mut self) -> Result<Program, AsmError> {
        if let Some(&(label, second)) = self.rebinds.first() {
            return Err(AsmError::ReboundLabel {
                label: self.label_names[label].clone(),
                first: self.bound[label].expect("rebound labels have a first binding"),
                second,
            });
        }
        for &(pc, label) in &self.fixups {
            match self.bound[label] {
                Some(target) => self.insts[pc].target = Some(target),
                None => {
                    return Err(AsmError::UnboundLabel {
                        label: self.label_names[label].clone(),
                        pc,
                    })
                }
            }
        }
        for (pc, inst) in self.insts.iter().enumerate() {
            check_constant(pc, inst)?;
        }
        Ok(Program::from_parts(self.name, self.insts))
    }
}

/// Checks the constant `inst` (at `pc`) carries, if any, against the
/// signed width of its field in [`Opcode::shape`].
fn check_constant(pc: usize, inst: &Inst) -> Result<(), AsmError> {
    for &operand in inst.opcode.shape().operands {
        let (value, bits) = match operand {
            Operand::Imm(bits) => (inst.imm, bits),
            Operand::Target(bits) => (i64::from(inst.target.expect("branch has a target")), bits),
            _ => continue,
        };
        let half = 1i64 << (bits - 1);
        if !(-half..half).contains(&value) {
            return Err(AsmError::ImmOutOfRange { pc, value });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new("t");
        let fwd = a.new_label();
        let back = a.new_label();
        a.bind(back);
        a.a_imm(Reg::a(0), 1);
        a.br_az(fwd); // forward reference
        a.br_an(back); // backward reference
        a.bind(fwd);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p[1].target, Some(3));
        assert_eq!(p[2].target, Some(0));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new("t");
        let l = a.new_label();
        a.jump(l);
        let err = a.assemble().unwrap_err();
        assert!(matches!(err, AsmError::UnboundLabel { pc: 0, .. }));
        assert_eq!(err.to_string(), "branch to undefined label 'L0' at inst 0");
    }

    #[test]
    fn undefined_label_diagnostic_carries_name_and_pc() {
        let mut a = Asm::new("t");
        let loop2 = a.named_label("loop2");
        for _ in 0..17 {
            a.nop();
        }
        a.br_an(loop2); // inst 17, label never bound
        a.halt();
        let err = a.assemble().unwrap_err();
        assert_eq!(
            err,
            AsmError::UnboundLabel {
                label: "loop2".into(),
                pc: 17
            }
        );
        assert_eq!(
            err.to_string(),
            "branch to undefined label 'loop2' at inst 17"
        );
    }

    #[test]
    fn double_bind_is_an_assemble_error() {
        let mut a = Asm::new("t");
        let l = a.named_label("top");
        a.bind(l);
        a.nop();
        a.bind(l);
        a.jump(l);
        let err = a.assemble().unwrap_err();
        assert_eq!(
            err,
            AsmError::ReboundLabel {
                label: "top".into(),
                first: 0,
                second: 1
            }
        );
        assert!(err.to_string().contains("'top' bound twice"));
    }

    #[test]
    fn out_of_range_displacement_is_an_assemble_error() {
        // Load/store displacements are 16-bit fields; 1 << 20 overflows.
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 0);
        a.ld_s(Reg::s(1), Reg::a(1), 1 << 20);
        a.halt();
        let err = a.assemble().unwrap_err();
        assert_eq!(
            err,
            AsmError::ImmOutOfRange {
                pc: 1,
                value: 1 << 20
            }
        );
        assert!(err.to_string().contains("at inst 1"));
    }

    #[test]
    fn out_of_range_immediate_is_an_assemble_error() {
        // AImm immediates are 22-bit signed; 1 << 30 overflows.
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 1 << 30);
        a.halt();
        let err = a.assemble().unwrap_err();
        assert!(matches!(err, AsmError::ImmOutOfRange { pc: 0, .. }));
    }

    #[test]
    fn constant_fields_accept_exactly_their_signed_width() {
        // Each instruction is checked as built, so a branch target of
        // 2^21 needs no program that long.
        let check = |inst: Inst, value: i64, fits: bool| {
            let want = if fits {
                Ok(())
            } else {
                Err(AsmError::ImmOutOfRange { pc: 7, value })
            };
            assert_eq!(check_constant(7, &inst), want, "{inst:?}");
        };
        let (s1, a1) = (Some(Reg::s(1)), Some(Reg::a(1)));
        let forms = [
            (22, Inst::new(Opcode::SImm, s1, None, None, 0, None)),
            (16, Inst::new(Opcode::LoadS, s1, a1, None, 0, None)),
            (16, Inst::new(Opcode::StoreS, None, a1, s1, 0, None)),
            (16, Inst::new(Opcode::AAddImm, a1, a1, None, 0, None)),
        ];
        for (bits, inst) in forms {
            let (max, min) = ((1i64 << (bits - 1)) - 1, -(1i64 << (bits - 1)));
            for (imm, fits) in [(max, true), (max + 1, false), (min, true), (min - 1, false)] {
                check(Inst { imm, ..inst }, imm, fits);
            }
        }
        // A target is an unsigned instruction index: its least value is 0.
        let max = (1u32 << 21) - 1;
        for (t, fits) in [(max, true), (max + 1, false), (0, true), (u32::MAX, false)] {
            let jump = Inst::new(Opcode::Jump, None, None, None, 0, Some(t));
            check(jump, i64::from(t), fits);
        }
    }

    #[test]
    fn conditional_branches_carry_condition_register() {
        let mut a = Asm::new("t");
        let l = a.new_label();
        a.bind(l);
        a.br_an(l);
        a.br_sm(l);
        let p = a.assemble().unwrap();
        assert_eq!(p[0].src1, Some(Reg::a(0)));
        assert_eq!(p[1].src1, Some(Reg::s(0)));
    }

    #[test]
    fn jump_has_no_condition_source() {
        let mut a = Asm::new("t");
        let l = a.new_label();
        a.bind(l);
        a.jump(l);
        let p = a.assemble().unwrap();
        assert_eq!(p[0].src1, None);
        assert_eq!(p[0].sources().count(), 0);
    }

    #[test]
    #[should_panic(expected = "must be an A register")]
    fn operand_file_checked() {
        let mut a = Asm::new("t");
        a.a_add(Reg::a(1), Reg::s(1), Reg::a(2));
    }

    #[test]
    fn file_errors_name_the_operand() {
        let mut a = Asm::new("t");
        let mut err = |op, args: &[Arg]| a.try_push(op, args).unwrap_err();
        let (a1, s1) = (Arg::Reg(Reg::a(1)), Arg::Reg(Reg::s(1)));
        assert_eq!(
            err(Opcode::SPop, &[s1, s1]),
            "dst operand must be an A register, got S1"
        );
        assert_eq!(
            err(Opcode::FRecip, &[s1, a1]),
            "src1 operand must be an S register, got A1"
        );
        assert_eq!(
            err(Opcode::SAdd, &[s1, s1, a1]),
            "src2 operand must be an S register, got A1"
        );
        assert_eq!(
            err(Opcode::LoadS, &[s1, s1, Arg::Imm(0)]),
            "base operand must be an A register, got S1"
        );
        assert_eq!(
            err(Opcode::StoreS, &[a1, a1, Arg::Imm(0)]),
            "data operand must be an S register, got A1"
        );
        assert!(a.assemble().unwrap().is_empty(), "nothing is appended");
    }

    #[test]
    fn store_operand_layout() {
        let mut a = Asm::new("t");
        a.st_s(Reg::s(3), Reg::a(2), 100);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p[0].src1, Some(Reg::a(2))); // base
        assert_eq!(p[0].src2, Some(Reg::s(3))); // data
        assert_eq!(p[0].dst, None);
        assert_eq!(p[0].imm, 100);
    }

    #[test]
    fn here_tracks_pc() {
        let mut a = Asm::new("t");
        assert_eq!(a.here(), 0);
        a.nop();
        a.nop();
        assert_eq!(a.here(), 2);
    }
}
