//! Pure functional semantics of every opcode.
//!
//! These functions are the single source of truth for what instructions
//! *mean*. The golden interpreter (`ruu-exec`) and every timing simulator
//! (`ruu-issue`) call into them, so a simulator can only diverge from the
//! architectural result by mis-ordering or mis-routing operands — exactly
//! the class of bug the golden-equivalence tests are designed to catch.

use crate::op::Opcode;
use crate::value;

/// Computes the result value of a non-memory, non-branch instruction.
///
/// `s1`/`s2` are the values of `src1`/`src2` (0 if absent), `imm` the
/// immediate field. Memory operations are excluded because their result
/// depends on memory state; see [`effective_address`].
///
/// # Panics
/// Panics if called with a branch, memory, `Nop` or `Halt` opcode — those
/// have no ALU result.
#[must_use]
#[inline]
pub fn alu_result(op: Opcode, s1: u64, s2: u64, imm: i64) -> u64 {
    use Opcode::*;
    match op {
        AAdd | SAdd => s1.wrapping_add(s2),
        ASub | SSub => s1.wrapping_sub(s2),
        AAddImm => s1.wrapping_add(imm as u64),
        ASubImm => s1.wrapping_sub(imm as u64),
        AMul => s1.wrapping_mul(s2),
        AImm | SImm => imm as u64,
        SAnd => s1 & s2,
        SOr => s1 | s2,
        SXor => s1 ^ s2,
        SShl => s1.wrapping_shl((imm as u32) & 63),
        SShr => s1.wrapping_shr((imm as u32) & 63),
        SPop => u64::from(s1.count_ones()),
        SLz => u64::from(s1.leading_zeros()),
        FAdd => float_op(s1, s2, |a, b| a + b),
        FSub => float_op(s1, s2, |a, b| a - b),
        FMul => float_op(s1, s2, |a, b| a * b),
        FRecip => float_op(s1, 0, |a, _| recip_approx(a)),
        AtoB | BtoA | StoT | TtoS | AtoS | StoA => s1,
        LoadA | LoadS | StoreA | StoreS | Jump | BrAZ | BrAN | BrAP | BrAM | BrSZ | BrSN | BrSP
        | BrSM | Nop | Halt => {
            panic!("opcode {op} has no ALU result")
        }
    }
}

/// The NaN that `∞ − ∞` and `0 × ∞` make: the x86-64 default NaN.
const DEFAULT_NAN: u64 = 0xFFF8_0000_0000_0000;

/// The bit that makes a NaN quiet.
const QUIET_NAN: u64 = 1 << 51;

/// `op` on the words `s1` and `s2` as doubles, with every NaN result
/// fixed. Rust leaves open which payload a NaN result carries, and the
/// compiler may swap the operands of `+` and `*`, so two inlined copies
/// of one operation (the golden interpreter's and a core's) could
/// disagree when both operands are NaN. Here a NaN result is `s1` if it
/// is a NaN, else `s2`, quieted, else [`DEFAULT_NAN`]: what an x86-64
/// host gives with the operands in that order.
#[inline]
fn float_op(s1: u64, s2: u64, op: impl Fn(f64, f64) -> f64) -> u64 {
    let r = op(value::as_f64(s1), value::as_f64(s2));
    if !r.is_nan() {
        value::from_f64(r)
    } else if value::as_f64(s1).is_nan() {
        s1 | QUIET_NAN
    } else if value::as_f64(s2).is_nan() {
        s2 | QUIET_NAN
    } else {
        DEFAULT_NAN
    }
}

/// The CRAY-1 reciprocal-approximation semantics.
///
/// The real unit produced a 30-bit-accurate approximation that software
/// refined with one Newton iteration. We model the full-precision
/// reciprocal: the experiments measure latency and dependences, not
/// numerics, and the workload kernels follow the approximation with the
/// CRAY-convention refinement multiplies anyway.
#[must_use]
pub fn recip_approx(x: f64) -> f64 {
    1.0 / x
}

/// Effective address of a memory operation: `base + displacement`, in
/// 64-bit words (the machine is word-addressed, paper §2).
#[must_use]
#[inline]
pub fn effective_address(base: u64, imm: i64) -> u64 {
    base.wrapping_add(imm as u64)
}

/// Whether a branch with opcode `op` is taken, given the value of its
/// condition register (`A0`/`S0`; ignored for `Jump`).
///
/// # Panics
/// Panics if `op` is not a branch.
#[must_use]
#[inline]
pub fn branch_taken(op: Opcode, cond: u64) -> bool {
    use Opcode::*;
    match op {
        Jump => true,
        BrAZ | BrSZ => cond == 0,
        BrAN | BrSN => cond != 0,
        BrAP | BrSP => value::as_i64(cond) >= 0,
        BrAM | BrSM => value::as_i64(cond) < 0,
        _ => panic!("opcode {op} is not a branch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_ops() {
        assert_eq!(alu_result(Opcode::AAdd, 2, 3, 0), 5);
        assert_eq!(alu_result(Opcode::ASub, 2, 3, 0), u64::MAX); // wraps
        assert_eq!(alu_result(Opcode::AMul, 7, 6, 0), 42);
        assert_eq!(alu_result(Opcode::AAddImm, 10, 0, -4), 6);
        assert_eq!(alu_result(Opcode::AImm, 0, 0, 99), 99);
    }

    #[test]
    fn logical_and_shift() {
        assert_eq!(alu_result(Opcode::SAnd, 0b1100, 0b1010, 0), 0b1000);
        assert_eq!(alu_result(Opcode::SOr, 0b1100, 0b1010, 0), 0b1110);
        assert_eq!(alu_result(Opcode::SXor, 0b1100, 0b1010, 0), 0b0110);
        assert_eq!(alu_result(Opcode::SShl, 1, 0, 4), 16);
        assert_eq!(alu_result(Opcode::SShr, 16, 0, 4), 1);
    }

    #[test]
    fn pop_and_lz() {
        assert_eq!(alu_result(Opcode::SPop, 0b1011, 0, 0), 3);
        assert_eq!(alu_result(Opcode::SLz, 1, 0, 0), 63);
    }

    #[test]
    fn float_ops() {
        let a = value::from_f64(1.5);
        let b = value::from_f64(2.0);
        assert_eq!(value::as_f64(alu_result(Opcode::FAdd, a, b, 0)), 3.5);
        assert_eq!(value::as_f64(alu_result(Opcode::FMul, a, b, 0)), 3.0);
        assert_eq!(value::as_f64(alu_result(Opcode::FRecip, b, 0, 0)), 0.5);
    }

    #[test]
    fn nan_results_are_fixed() {
        let (x, y) = (0xFFFF_FFFF_FFFF_48A3, 0x7FF0_0000_0000_0001);
        let inf = value::from_f64(f64::INFINITY);
        for op in [Opcode::FAdd, Opcode::FSub, Opcode::FMul] {
            assert_eq!(alu_result(op, x, y, 0), x, "{op}: the first NaN");
            assert_eq!(alu_result(op, y, x, 0), y | QUIET_NAN, "{op}: quieted");
            assert_eq!(alu_result(op, 0, y, 0), y | QUIET_NAN, "{op}");
        }
        assert_eq!(alu_result(Opcode::FSub, inf, inf, 0), DEFAULT_NAN);
        assert_eq!(alu_result(Opcode::FMul, 0, inf, 0), DEFAULT_NAN);
        assert_eq!(alu_result(Opcode::FRecip, y, 0, 0), y | QUIET_NAN);
    }

    #[test]
    fn transfers_pass_through() {
        assert_eq!(alu_result(Opcode::AtoS, 77, 0, 0), 77);
        assert_eq!(alu_result(Opcode::BtoA, 1234, 0, 0), 1234);
    }

    #[test]
    fn branch_conditions() {
        assert!(branch_taken(Opcode::Jump, 0));
        assert!(branch_taken(Opcode::BrAZ, 0));
        assert!(!branch_taken(Opcode::BrAZ, 1));
        assert!(branch_taken(Opcode::BrAN, 5));
        assert!(branch_taken(Opcode::BrAM, value::from_i64(-1)));
        assert!(!branch_taken(Opcode::BrAM, 0));
        assert!(branch_taken(Opcode::BrSP, 0));
        assert!(!branch_taken(Opcode::BrSP, value::from_i64(-7)));
    }

    #[test]
    fn effective_address_wraps() {
        assert_eq!(effective_address(100, 28), 128);
        assert_eq!(effective_address(10, -4), 6);
    }

    #[test]
    #[should_panic(expected = "no ALU result")]
    fn loads_have_no_alu_result() {
        let _ = alu_result(Opcode::LoadS, 0, 0, 0);
    }
}
