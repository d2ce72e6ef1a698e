//! # ruu-precise — precise-interrupt verification (paper §4–5)
//!
//! The paper's central claim is that the RUU implements **precise
//! interrupts** while still issuing out of order: at any instruction-
//! generated trap (page fault, arithmetic exception), a machine state is
//! recoverable in which every instruction before the faulting one — and
//! none after — has updated the architectural state.
//!
//! This crate turns that claim into executable checks:
//!
//! * [`PrecisionCheck`] — inject an exception at an arbitrary dynamic
//!   instruction of any program running on any mechanism (precise ones:
//!   the RUU, the speculative RUU, the §4 schemes); verify the recovered
//!   state equals the golden interpreter's state at that exact boundary;
//!   then *resume* from the recovered state and verify the final state is
//!   unchanged by the interruption (full restartability, the virtual-
//!   memory requirement of §1);
//! * [`imprecision`] — the counter-demonstration: the RSTU (and the other
//!   out-of-order-commit mechanisms) can be caught in states that match
//!   *no* program-order boundary;
//! * [`fault_points`] — helpers for choosing faultable dynamic
//!   instructions (loads for page faults, float ops for arithmetic
//!   exceptions).

pub mod faults;
pub mod harness;
pub mod imprecision;

pub use faults::{fault_points, FaultKind};
pub use harness::{PrecisionCheck, PrecisionReport};
