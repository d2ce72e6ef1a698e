//! A small typed assembler with labels and forward references.
//!
//! [`Asm`] exposes one method per opcode; each method validates the operand
//! register files (e.g. `a_add` insists on A registers) so that every
//! assembled [`Program`] satisfies the [`Inst`] invariants. Labels are
//! created with [`Asm::new_label`] (auto-named `L0`, `L1`, …) or
//! [`Asm::named_label`], placed with [`Asm::bind`], and resolved at
//! [`Asm::assemble`] time. All diagnostics — undefined labels, duplicate
//! bindings, constants that overflow their field — are reported
//! from `assemble` as typed [`AsmError`]s carrying the label name and the
//! offending instruction index.

use std::fmt;

use crate::inst::Inst;
use crate::op::Opcode;
use crate::program::Program;
use crate::reg::{Reg, RegFile};

/// A branch-target label, created by [`Asm::new_label`] or
/// [`Asm::named_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

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
    /// the register+constant forms (see [`Asm::assemble`]).
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

    fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    fn push_branch(&mut self, opcode: Opcode, cond: Option<Reg>, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label.0));
        // Target 0 is a placeholder patched in `assemble`.
        self.push(Inst::new(opcode, None, cond, None, 0, Some(0)))
    }

    fn check(file: RegFile, r: Reg, what: &str) {
        assert!(
            r.file() == file,
            "{what} operand must be an {file} register, got {r}"
        );
    }

    // ----- address (A) operations ------------------------------------

    /// `Ai = Aj + Ak`
    pub fn a_add(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::A, j, "src1");
        Self::check(RegFile::A, k, "src2");
        self.push(Inst::new(Opcode::AAdd, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Ai = Aj - Ak`
    pub fn a_sub(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::A, j, "src1");
        Self::check(RegFile::A, k, "src2");
        self.push(Inst::new(Opcode::ASub, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Ai = Aj + imm`
    pub fn a_add_imm(&mut self, d: Reg, j: Reg, imm: i64) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::A, j, "src1");
        self.push(Inst::new(
            Opcode::AAddImm,
            Some(d),
            Some(j),
            None,
            imm,
            None,
        ))
    }

    /// `Ai = Aj - imm`
    pub fn a_sub_imm(&mut self, d: Reg, j: Reg, imm: i64) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::A, j, "src1");
        self.push(Inst::new(
            Opcode::ASubImm,
            Some(d),
            Some(j),
            None,
            imm,
            None,
        ))
    }

    /// `Ai = Aj * Ak` (address multiply)
    pub fn a_mul(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::A, j, "src1");
        Self::check(RegFile::A, k, "src2");
        self.push(Inst::new(Opcode::AMul, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Ai = imm`
    pub fn a_imm(&mut self, d: Reg, imm: i64) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        self.push(Inst::new(Opcode::AImm, Some(d), None, None, imm, None))
    }

    // ----- scalar (S) integer/logical operations ---------------------

    /// `Si = Sj + Sk` (integer)
    pub fn s_add(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        Self::check(RegFile::S, k, "src2");
        self.push(Inst::new(Opcode::SAdd, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Si = Sj - Sk` (integer)
    pub fn s_sub(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        Self::check(RegFile::S, k, "src2");
        self.push(Inst::new(Opcode::SSub, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Si = imm`
    pub fn s_imm(&mut self, d: Reg, imm: i64) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        self.push(Inst::new(Opcode::SImm, Some(d), None, None, imm, None))
    }

    /// `Si = Sj & Sk`
    pub fn s_and(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        Self::check(RegFile::S, k, "src2");
        self.push(Inst::new(Opcode::SAnd, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Si = Sj | Sk`
    pub fn s_or(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        Self::check(RegFile::S, k, "src2");
        self.push(Inst::new(Opcode::SOr, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Si = Sj ^ Sk`
    pub fn s_xor(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        Self::check(RegFile::S, k, "src2");
        self.push(Inst::new(Opcode::SXor, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Si = Sj << imm`
    pub fn s_shl(&mut self, d: Reg, j: Reg, imm: i64) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        self.push(Inst::new(Opcode::SShl, Some(d), Some(j), None, imm, None))
    }

    /// `Si = Sj >> imm` (logical)
    pub fn s_shr(&mut self, d: Reg, j: Reg, imm: i64) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        self.push(Inst::new(Opcode::SShr, Some(d), Some(j), None, imm, None))
    }

    /// `Ai = popcount(Sj)`
    pub fn s_pop(&mut self, d: Reg, j: Reg) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::S, j, "src1");
        self.push(Inst::new(Opcode::SPop, Some(d), Some(j), None, 0, None))
    }

    /// `Ai = leading_zeros(Sj)`
    pub fn s_lz(&mut self, d: Reg, j: Reg) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::S, j, "src1");
        self.push(Inst::new(Opcode::SLz, Some(d), Some(j), None, 0, None))
    }

    // ----- floating point ---------------------------------------------

    /// `Si = Sj +f Sk`
    pub fn f_add(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        Self::check(RegFile::S, k, "src2");
        self.push(Inst::new(Opcode::FAdd, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Si = Sj -f Sk`
    pub fn f_sub(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        Self::check(RegFile::S, k, "src2");
        self.push(Inst::new(Opcode::FSub, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Si = Sj *f Sk`
    pub fn f_mul(&mut self, d: Reg, j: Reg, k: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        Self::check(RegFile::S, k, "src2");
        self.push(Inst::new(Opcode::FMul, Some(d), Some(j), Some(k), 0, None))
    }

    /// `Si = 1/Sj` (reciprocal approximation)
    pub fn f_recip(&mut self, d: Reg, j: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::S, j, "src1");
        self.push(Inst::new(Opcode::FRecip, Some(d), Some(j), None, 0, None))
    }

    // ----- register transfers -----------------------------------------

    /// `Bjk = Ai`
    pub fn a_to_b(&mut self, d: Reg, src: Reg) -> &mut Self {
        Self::check(RegFile::B, d, "dst");
        Self::check(RegFile::A, src, "src1");
        self.push(Inst::new(Opcode::AtoB, Some(d), Some(src), None, 0, None))
    }

    /// `Ai = Bjk`
    pub fn b_to_a(&mut self, d: Reg, src: Reg) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::B, src, "src1");
        self.push(Inst::new(Opcode::BtoA, Some(d), Some(src), None, 0, None))
    }

    /// `Tjk = Si`
    pub fn s_to_t(&mut self, d: Reg, src: Reg) -> &mut Self {
        Self::check(RegFile::T, d, "dst");
        Self::check(RegFile::S, src, "src1");
        self.push(Inst::new(Opcode::StoT, Some(d), Some(src), None, 0, None))
    }

    /// `Si = Tjk`
    pub fn t_to_s(&mut self, d: Reg, src: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::T, src, "src1");
        self.push(Inst::new(Opcode::TtoS, Some(d), Some(src), None, 0, None))
    }

    /// `Si = Ai`
    pub fn a_to_s(&mut self, d: Reg, src: Reg) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::A, src, "src1");
        self.push(Inst::new(Opcode::AtoS, Some(d), Some(src), None, 0, None))
    }

    /// `Ai = Sj`
    pub fn s_to_a(&mut self, d: Reg, src: Reg) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::S, src, "src1");
        self.push(Inst::new(Opcode::StoA, Some(d), Some(src), None, 0, None))
    }

    // ----- memory -------------------------------------------------------

    /// `Ai = mem[Ah + disp]`
    pub fn ld_a(&mut self, d: Reg, base: Reg, disp: i64) -> &mut Self {
        Self::check(RegFile::A, d, "dst");
        Self::check(RegFile::A, base, "base");
        self.push(Inst::new(
            Opcode::LoadA,
            Some(d),
            Some(base),
            None,
            disp,
            None,
        ))
    }

    /// `Si = mem[Ah + disp]`
    pub fn ld_s(&mut self, d: Reg, base: Reg, disp: i64) -> &mut Self {
        Self::check(RegFile::S, d, "dst");
        Self::check(RegFile::A, base, "base");
        self.push(Inst::new(
            Opcode::LoadS,
            Some(d),
            Some(base),
            None,
            disp,
            None,
        ))
    }

    /// `mem[Ah + disp] = Ai`
    pub fn st_a(&mut self, src: Reg, base: Reg, disp: i64) -> &mut Self {
        Self::check(RegFile::A, src, "data");
        Self::check(RegFile::A, base, "base");
        self.push(Inst::new(
            Opcode::StoreA,
            None,
            Some(base),
            Some(src),
            disp,
            None,
        ))
    }

    /// `mem[Ah + disp] = Si`
    pub fn st_s(&mut self, src: Reg, base: Reg, disp: i64) -> &mut Self {
        Self::check(RegFile::S, src, "data");
        Self::check(RegFile::A, base, "base");
        self.push(Inst::new(
            Opcode::StoreS,
            None,
            Some(base),
            Some(src),
            disp,
            None,
        ))
    }

    // ----- control flow ---------------------------------------------------

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::Jump, None, label)
    }

    /// Branch to `label` if `A0 == 0`.
    pub fn br_az(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::BrAZ, Some(Reg::a(0)), label)
    }

    /// Branch to `label` if `A0 != 0`.
    pub fn br_an(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::BrAN, Some(Reg::a(0)), label)
    }

    /// Branch to `label` if `A0 >= 0` (signed).
    pub fn br_ap(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::BrAP, Some(Reg::a(0)), label)
    }

    /// Branch to `label` if `A0 < 0` (signed).
    pub fn br_am(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::BrAM, Some(Reg::a(0)), label)
    }

    /// Branch to `label` if `S0 == 0`.
    pub fn br_sz(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::BrSZ, Some(Reg::s(0)), label)
    }

    /// Branch to `label` if `S0 != 0`.
    pub fn br_sn(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::BrSN, Some(Reg::s(0)), label)
    }

    /// Branch to `label` if `S0 >= 0` (signed).
    pub fn br_sp(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::BrSP, Some(Reg::s(0)), label)
    }

    /// Branch to `label` if `S0 < 0` (signed).
    pub fn br_sm(&mut self, label: Label) -> &mut Self {
        self.push_branch(Opcode::BrSM, Some(Reg::s(0)), label)
    }

    /// No operation.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::new(Opcode::Nop, None, None, None, 0, None))
    }

    /// Terminate the program.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::new(Opcode::Halt, None, None, None, 0, None))
    }

    /// Resolves labels, validates every constant against its field, and
    /// produces the [`Program`].
    ///
    /// The fields are those of the paper's two-parcel instructions (§2):
    /// a pure immediate or a branch target gets 22 signed bits (the CRAY
    /// `jkm` field); the register+constant forms (`AAddImm`, `ASubImm`,
    /// `SShl`, `SShr`, loads and stores) name two registers in the first
    /// parcel, which leaves 16.
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
/// signed width of its field (see [`Asm::assemble`]).
fn check_constant(pc: usize, inst: &Inst) -> Result<(), AsmError> {
    use Opcode::*;
    let (value, bits) = match inst.opcode {
        AImm | SImm => (inst.imm, 22),
        AAddImm | ASubImm | SShl | SShr | LoadA | LoadS | StoreA | StoreS => (inst.imm, 16),
        op if op.is_branch() => (i64::from(inst.target.expect("branch has a target")), 22),
        _ => return Ok(()),
    };
    let half = 1i64 << (bits - 1);
    if (-half..half).contains(&value) {
        Ok(())
    } else {
        Err(AsmError::ImmOutOfRange { pc, value })
    }
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
