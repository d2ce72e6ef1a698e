//! Opcodes, their operand shapes and their mapping onto functional-unit
//! classes.
//!
//! The opcode set is the subset of the CRAY-1 scalar unit needed to compile
//! the Lawrence Livermore loops, plus register transfers between all four
//! files. Default latencies are the CRAY-1 functional unit times in clock
//! periods (CRAY-1 Hardware Reference Manual; paper §2).
//!
//! [`Opcode::shape`] is the one statement of each opcode's operands: their
//! written order, register files and constant widths. The assembler's
//! checks, the text syntax and [`crate::Inst`]'s `Display` all read it.

use std::fmt;

use crate::reg::RegFile;

/// Functional-unit classes of the model architecture (paper Figure 1).
///
/// Every non-branch opcode executes on exactly one class. All units are
/// fully pipelined: a unit can accept one new operation per cycle, and an
/// operation's result appears on the result bus `latency` cycles after
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// 24-bit address integer add/subtract (CRAY-1: 2 clocks).
    AddrAdd,
    /// Address integer multiply (6 clocks).
    AddrMul,
    /// 64-bit scalar integer add/subtract (3 clocks).
    ScalarAdd,
    /// Scalar logical: and/or/xor/merge (1 clock).
    ScalarLogical,
    /// Scalar shift (2 clocks for single-register shifts).
    ScalarShift,
    /// Population count / leading-zero count (3 clocks).
    PopLz,
    /// Floating-point add/subtract (6 clocks).
    FloatAdd,
    /// Floating-point multiply (7 clocks).
    FloatMul,
    /// Floating-point reciprocal approximation (14 clocks).
    Recip,
    /// Memory port: scalar loads complete in 11 clocks; stores produce no
    /// register result.
    Memory,
    /// Inter-file register transfers and immediate loads (1 clock).
    Transfer,
}

impl FuClass {
    /// All functional-unit classes, in a fixed order (used to index
    /// per-unit tables and distributed reservation-station pools).
    pub const ALL: [FuClass; 11] = [
        FuClass::AddrAdd,
        FuClass::AddrMul,
        FuClass::ScalarAdd,
        FuClass::ScalarLogical,
        FuClass::ScalarShift,
        FuClass::PopLz,
        FuClass::FloatAdd,
        FuClass::FloatMul,
        FuClass::Recip,
        FuClass::Memory,
        FuClass::Transfer,
    ];

    /// Stable index of this class within [`FuClass::ALL`].
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FuClass::AddrAdd => 0,
            FuClass::AddrMul => 1,
            FuClass::ScalarAdd => 2,
            FuClass::ScalarLogical => 3,
            FuClass::ScalarShift => 4,
            FuClass::PopLz => 5,
            FuClass::FloatAdd => 6,
            FuClass::FloatMul => 7,
            FuClass::Recip => 8,
            FuClass::Memory => 9,
            FuClass::Transfer => 10,
        }
    }

    /// CRAY-1 unit time in clock periods (paper §2; DESIGN.md §3).
    ///
    /// The timing simulators take latencies from a
    /// `MachineConfig`, which defaults to these values.
    #[must_use]
    pub fn default_latency(self) -> u64 {
        match self {
            FuClass::AddrAdd => 2,
            FuClass::AddrMul => 6,
            FuClass::ScalarAdd => 3,
            FuClass::ScalarLogical => 1,
            FuClass::ScalarShift => 2,
            FuClass::PopLz => 3,
            FuClass::FloatAdd => 6,
            FuClass::FloatMul => 7,
            FuClass::Recip => 14,
            FuClass::Memory => 11,
            FuClass::Transfer => 1,
        }
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::AddrAdd => "addr-add",
            FuClass::AddrMul => "addr-mul",
            FuClass::ScalarAdd => "scalar-add",
            FuClass::ScalarLogical => "scalar-logical",
            FuClass::ScalarShift => "scalar-shift",
            FuClass::PopLz => "pop-lz",
            FuClass::FloatAdd => "float-add",
            FuClass::FloatMul => "float-mul",
            FuClass::Recip => "recip",
            FuClass::Memory => "memory",
            FuClass::Transfer => "transfer",
        };
        f.write_str(s)
    }
}

/// One written operand of an instruction, in the order the text syntax
/// and the [`crate::Asm`] constructors take them (see [`Opcode::shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The destination register ([`crate::Inst::dst`]), in this file.
    Dst(RegFile),
    /// The first source ([`crate::Inst::src1`]; a memory op's base).
    Src1(RegFile),
    /// The second source ([`crate::Inst::src2`]; a store's data).
    Src2(RegFile),
    /// The constant ([`crate::Inst::imm`]: immediate, shift count or
    /// displacement), in a signed field of this many bits.
    Imm(u32),
    /// The branch target ([`crate::Inst::target`]), in a signed field of
    /// this many bits.
    Target(u32),
}

/// An opcode's operand shape: what its instructions carry and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// The written operands, in text order.
    pub operands: &'static [Operand],
    /// A conditional branch's implicit condition register: register 0 of
    /// this file (`A0` or `S0`), carried in `src1` but never written.
    pub cond: Option<RegFile>,
}

/// The instruction opcodes of the model architecture.
///
/// Operand conventions (stated per opcode by [`Opcode::shape`]; see
/// [`crate::Inst`]):
/// * three-register ops: `dst = src1 op src2`;
/// * reg-immediate ops: `dst = src1 op imm`;
/// * loads: `dst = mem[src1 + imm]`;
/// * stores: `mem[src1 + imm] = src2`, written `data, base, disp`;
/// * conditional branches implicitly read `A0` or `S0`, which the
///   constructors materialise as `src1` so the dependence is explicit;
/// * `Halt` terminates the program (a convenience for simulation; the
///   CRAY-1 would use an exchange sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// `Ai = Aj + Ak`
    AAdd,
    /// `Ai = Aj - Ak`
    ASub,
    /// `Ai = Aj + imm`
    AAddImm,
    /// `Ai = Aj - imm`
    ASubImm,
    /// `Ai = Aj * Ak` (address multiply)
    AMul,
    /// `Ai = imm` (immediate load)
    AImm,
    /// `Si = Sj + Sk` (integer)
    SAdd,
    /// `Si = Sj - Sk` (integer)
    SSub,
    /// `Si = imm`
    SImm,
    /// `Si = Sj & Sk`
    SAnd,
    /// `Si = Sj | Sk`
    SOr,
    /// `Si = Sj ^ Sk`
    SXor,
    /// `Si = Sj << imm`
    SShl,
    /// `Si = Sj >> imm` (logical)
    SShr,
    /// `Ai = popcount(Sj)`
    SPop,
    /// `Ai = leading_zeros(Sj)`
    SLz,
    /// `Si = Sj +f Sk` (floating add)
    FAdd,
    /// `Si = Sj -f Sk` (floating subtract)
    FSub,
    /// `Si = Sj *f Sk` (floating multiply)
    FMul,
    /// `Si = reciprocal_approximation(Sj)`
    FRecip,
    /// `Bjk = Ai`
    AtoB,
    /// `Ai = Bjk`
    BtoA,
    /// `Tjk = Si`
    StoT,
    /// `Si = Tjk`
    TtoS,
    /// `Si = Ai` (address-to-scalar transfer)
    AtoS,
    /// `Ai = Sj` (scalar-to-address transfer)
    StoA,
    /// `Ai = mem[Ah + imm]`
    LoadA,
    /// `Si = mem[Ah + imm]`
    LoadS,
    /// `mem[Ah + imm] = Ai`
    StoreA,
    /// `mem[Ah + imm] = Si`
    StoreS,
    /// Unconditional jump to `target`.
    Jump,
    /// Branch to `target` if `A0 == 0`.
    BrAZ,
    /// Branch to `target` if `A0 != 0`.
    BrAN,
    /// Branch to `target` if `A0 >= 0` (signed).
    BrAP,
    /// Branch to `target` if `A0 < 0` (signed).
    BrAM,
    /// Branch to `target` if `S0 == 0`.
    BrSZ,
    /// Branch to `target` if `S0 != 0`.
    BrSN,
    /// Branch to `target` if `S0 >= 0` (signed).
    BrSP,
    /// Branch to `target` if `S0 < 0` (signed).
    BrSM,
    /// No operation (issues, occupies a slot, writes nothing).
    Nop,
    /// Terminate the program.
    Halt,
}

impl Opcode {
    /// Every opcode, in declaration order.
    pub const ALL: [Opcode; 41] = {
        use Opcode::*;
        [
            AAdd, ASub, AAddImm, ASubImm, AMul, AImm, SAdd, SSub, SImm, SAnd, SOr, SXor, SShl,
            SShr, SPop, SLz, FAdd, FSub, FMul, FRecip, AtoB, BtoA, StoT, TtoS, AtoS, StoA, LoadA,
            LoadS, StoreA, StoreS, Jump, BrAZ, BrAN, BrAP, BrAM, BrSZ, BrSN, BrSP, BrSM, Nop, Halt,
        ]
    };

    /// The opcode written `mnemonic`, if any (the inverse of
    /// [`Opcode::mnemonic`]).
    #[must_use]
    pub fn from_mnemonic(mnemonic: &str) -> Option<Opcode> {
        Self::ALL.into_iter().find(|op| op.mnemonic() == mnemonic)
    }

    /// This opcode's operand shape.
    ///
    /// A constant gets the field of the paper's two-parcel instructions
    /// (§2): a pure immediate or a branch target gets 22 signed bits (the
    /// CRAY `jkm` field); the register+constant forms name two registers
    /// in the first parcel, which leaves 16.
    #[must_use]
    pub fn shape(self) -> Shape {
        use Opcode::*;
        use Operand::{Dst, Imm, Src1, Src2, Target};
        use RegFile::{A, B, S, T};
        let operands: &'static [Operand] = match self {
            AAdd | ASub | AMul => &[Dst(A), Src1(A), Src2(A)],
            SAdd | SSub | SAnd | SOr | SXor | FAdd | FSub | FMul => &[Dst(S), Src1(S), Src2(S)],
            AAddImm | ASubImm | LoadA => &[Dst(A), Src1(A), Imm(16)],
            SShl | SShr => &[Dst(S), Src1(S), Imm(16)],
            LoadS => &[Dst(S), Src1(A), Imm(16)],
            StoreA => &[Src2(A), Src1(A), Imm(16)],
            StoreS => &[Src2(S), Src1(A), Imm(16)],
            AImm => &[Dst(A), Imm(22)],
            SImm => &[Dst(S), Imm(22)],
            SPop | SLz | StoA => &[Dst(A), Src1(S)],
            FRecip => &[Dst(S), Src1(S)],
            AtoB => &[Dst(B), Src1(A)],
            BtoA => &[Dst(A), Src1(B)],
            StoT => &[Dst(T), Src1(S)],
            TtoS => &[Dst(S), Src1(T)],
            AtoS => &[Dst(S), Src1(A)],
            Jump | BrAZ | BrAN | BrAP | BrAM | BrSZ | BrSN | BrSP | BrSM => &[Target(22)],
            Nop | Halt => &[],
        };
        let cond = match self {
            BrAZ | BrAN | BrAP | BrAM => Some(A),
            BrSZ | BrSN | BrSP | BrSM => Some(S),
            _ => None,
        };
        Shape { operands, cond }
    }

    /// The functional unit class that executes this opcode.
    ///
    /// Branches, `Nop` and `Halt` are resolved in the decode/issue stage
    /// and never visit a functional unit; they return `None`.
    #[must_use]
    #[inline]
    pub fn fu_class(self) -> Option<FuClass> {
        use Opcode::*;
        Some(match self {
            AAdd | ASub | AAddImm | ASubImm => FuClass::AddrAdd,
            AMul => FuClass::AddrMul,
            SAdd | SSub => FuClass::ScalarAdd,
            SAnd | SOr | SXor => FuClass::ScalarLogical,
            SShl | SShr => FuClass::ScalarShift,
            SPop | SLz => FuClass::PopLz,
            FAdd | FSub => FuClass::FloatAdd,
            FMul => FuClass::FloatMul,
            FRecip => FuClass::Recip,
            LoadA | LoadS | StoreA | StoreS => FuClass::Memory,
            AImm | SImm | AtoB | BtoA | StoT | TtoS | AtoS | StoA => FuClass::Transfer,
            Jump | BrAZ | BrAN | BrAP | BrAM | BrSZ | BrSN | BrSP | BrSM | Nop | Halt => {
                return None
            }
        })
    }

    /// `true` for any (conditional or unconditional) branch.
    #[must_use]
    #[inline]
    pub fn is_branch(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Jump | BrAZ | BrAN | BrAP | BrAM | BrSZ | BrSN | BrSP | BrSM
        )
    }

    /// `true` for conditional branches (those that read `A0`/`S0`).
    #[must_use]
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        use Opcode::*;
        matches!(self, BrAZ | BrAN | BrAP | BrAM | BrSZ | BrSN | BrSP | BrSM)
    }

    /// `true` for memory loads.
    #[must_use]
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::LoadA | Opcode::LoadS)
    }

    /// `true` for memory stores.
    #[must_use]
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::StoreA | Opcode::StoreS)
    }

    /// `true` for any memory operation.
    #[must_use]
    #[inline]
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            AAdd => "a.add",
            ASub => "a.sub",
            AAddImm => "a.addi",
            ASubImm => "a.subi",
            AMul => "a.mul",
            AImm => "a.imm",
            SAdd => "s.add",
            SSub => "s.sub",
            SImm => "s.imm",
            SAnd => "s.and",
            SOr => "s.or",
            SXor => "s.xor",
            SShl => "s.shl",
            SShr => "s.shr",
            SPop => "s.pop",
            SLz => "s.lz",
            FAdd => "f.add",
            FSub => "f.sub",
            FMul => "f.mul",
            FRecip => "f.recip",
            AtoB => "mov.ab",
            BtoA => "mov.ba",
            StoT => "mov.st",
            TtoS => "mov.ts",
            AtoS => "mov.as",
            StoA => "mov.sa",
            LoadA => "ld.a",
            LoadS => "ld.s",
            StoreA => "st.a",
            StoreS => "st.s",
            Jump => "j",
            BrAZ => "br.az",
            BrAN => "br.an",
            BrAP => "br.ap",
            BrAM => "br.am",
            BrSZ => "br.sz",
            BrSN => "br.sn",
            BrSP => "br.sp",
            BrSM => "br.sm",
            Nop => "nop",
            Halt => "halt",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_index_matches_all_order() {
        for (i, fu) in FuClass::ALL.iter().enumerate() {
            assert_eq!(fu.index(), i);
        }
    }

    #[test]
    fn branches_have_no_fu() {
        assert!(Opcode::BrAZ.fu_class().is_none());
        assert!(Opcode::Jump.fu_class().is_none());
        assert!(Opcode::Halt.fu_class().is_none());
        assert!(Opcode::Nop.fu_class().is_none());
    }

    #[test]
    fn cray_latencies() {
        assert_eq!(FuClass::AddrAdd.default_latency(), 2);
        assert_eq!(FuClass::FloatMul.default_latency(), 7);
        assert_eq!(FuClass::Recip.default_latency(), 14);
        assert_eq!(FuClass::Memory.default_latency(), 11);
    }

    #[test]
    fn memory_classification() {
        assert!(Opcode::LoadS.is_load() && Opcode::LoadS.is_mem());
        assert!(Opcode::StoreA.is_store() && Opcode::StoreA.is_mem());
        assert!(!Opcode::FAdd.is_mem());
    }

    #[test]
    fn all_lists_every_opcode_once_in_order() {
        for (i, op) in Opcode::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op}");
        }
    }

    #[test]
    fn shapes_agree_with_the_classification() {
        for op in Opcode::ALL {
            let shape = op.shape();
            let has = |want: fn(&Operand) -> bool| shape.operands.iter().any(want);
            assert_eq!(shape.cond.is_some(), op.is_cond_branch(), "{op}");
            assert_eq!(
                has(|o| matches!(o, Operand::Target(_))),
                op.is_branch(),
                "{op}"
            );
            // Everything that executes on a unit but a store writes a result.
            let writes = op.fu_class().is_some() && !op.is_store();
            assert_eq!(has(|o| matches!(o, Operand::Dst(_))), writes, "{op}");
        }
    }

    #[test]
    fn branch_classification() {
        assert!(Opcode::Jump.is_branch() && !Opcode::Jump.is_cond_branch());
        assert!(Opcode::BrSN.is_branch() && Opcode::BrSN.is_cond_branch());
        assert!(!Opcode::Nop.is_branch());
    }
}
