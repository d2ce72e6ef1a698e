//! # ruu-isa — a CRAY-1-like scalar instruction set architecture
//!
//! This crate defines the model architecture of Sohi's RUU paper (§2): a
//! scalar machine in the spirit of the CRAY-1 scalar unit, with four
//! register files (8 A, 8 S, 64 B, 64 T — 144 registers total), multiple
//! pipelined functional units with CRAY-1 unit times, a single result bus,
//! and branches that test `A0`/`S0` by convention.
//!
//! It provides:
//!
//! * [`Reg`] — typed register names over the four files;
//! * [`Opcode`] / [`FuClass`] — the instruction set and its mapping onto
//!   functional units;
//! * [`Inst`] — a decoded instruction with uniform operand accessors, which
//!   is what both the golden interpreter and the timing simulators consume;
//! * [`Program`] and the [`Asm`] assembler with labels and forward
//!   references;
//! * [`semantics`] — pure functions giving every opcode's meaning, shared
//!   by the interpreter and by the reservation stations of the timing
//!   simulators (execution-driven simulation).
//!
//! ## Example
//!
//! ```
//! use ruu_isa::{Asm, Reg};
//!
//! // for k = 10 .. 0 { S1 += k } , computed with A registers
//! let mut a = Asm::new("sum");
//! let top = a.new_label();
//! a.a_imm(Reg::a(0), 10);
//! a.s_imm(Reg::s(1), 0);
//! a.bind(top);
//! a.a_to_s(Reg::s(2), Reg::a(0));
//! a.s_add(Reg::s(1), Reg::s(1), Reg::s(2));
//! a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
//! a.br_an(top);
//! a.halt();
//! let program = a.assemble().expect("valid program");
//! assert_eq!(program.len(), 7);
//! ```

pub mod asm;
pub mod inst;
pub mod op;
pub mod program;
pub mod reg;
pub mod semantics;
pub mod text;
pub mod value;

pub use asm::{Asm, AsmError, Label};
pub use inst::Inst;
pub use op::{FuClass, Opcode};
pub use program::Program;
pub use reg::{Reg, RegFile, NUM_REGS};
