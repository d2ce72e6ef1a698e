//! # ruu-issue — the instruction-issue mechanisms of the RUU paper
//!
//! Cycle-level, execution-driven simulators of every issue mechanism the
//! paper discusses:
//!
//! | Mechanism | Paper | Type |
//! |---|---|---|
//! | Simple in-order, blocking issue | §2.2, Table 1 | [`Mechanism::Simple`] (in-order core) |
//! | Tomasulo: distributed stations, a tag per register | §3.1 | [`Mechanism::Tomasulo`] |
//! | Tag Unit + distributed stations | §3.2.1 | [`Mechanism::TagUnitDistributed`] |
//! | Tag Unit + merged station pool | §3.2.2 | [`Mechanism::RsPool`] |
//! | RSTU | §3.2.3, Tables 2–3 | [`Mechanism::Rstu`] |
//! | In-order issue, precise: reorder buffer (± bypass), history buffer, future file | §4 | [`Mechanism::InOrderPrecise`] (in-order core), [`PreciseScheme`] |
//! | RUU, with full / no / limited bypass | §5–6, Tables 4–6 | [`Mechanism::Ruu`], [`Bypass`] |
//! | Speculative RUU: branch prediction + nullification | §7 | [`Mechanism::SpecRuu`], [`PredictorConfig`] |
//!
//! [`Mechanism`] names each of them with its sizing parameters, and
//! [`Mechanism::build`] builds it behind the uniform [`IssueSimulator`]
//! interface, which also injects faults
//! ([`IssueSimulator::run_with_fault`]). The tagged mechanisms, the RUU
//! and the speculative RUU are one out-of-order core that differs only by
//! where stations and tags live, when results update state, and what
//! happens to unresolved branches.
//!
//! The other two rows are one in-order core ([`inorder`]). The baseline
//! is the in-order core without a commit stage: results retire as they
//! complete. The §4 schemes add an in-order commit stage through a buffer
//! of `entries` slots, and differ only in whether a result is readable at
//! completion or at commit.
//!
//! All simulators share the [`ruu_sim_core::MachineConfig`] machine model
//! and compute real operand values in their reservation stations
//! (execution-driven), so each one's final architectural state is checked
//! against the golden interpreter.

use std::fmt;

mod common;
pub mod inorder;
pub mod mechanism;
mod ooo;
pub mod simulator;
pub mod tag_unit;

pub use inorder::PreciseScheme;
pub use mechanism::Mechanism;
pub use ooo::Bypass;
pub use ruu_predict::PredictorConfig;
pub use simulator::{InterruptFrame, IssueSimulator, RunOutcome};
pub use tag_unit::{TagRetirement, TagUnitModel, TuEntry};

/// Errors from the timing simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// More than `limit` dynamic instructions issued (infinite-loop
    /// guard).
    InstLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// The simulator made no forward progress for an implausible number of
    /// cycles (internal deadlock guard; indicates a simulator bug).
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InstLimit { limit } => {
                write!(f, "dynamic instruction limit {limit} exceeded")
            }
            SimError::Deadlock { cycle } => {
                write!(f, "no forward progress near cycle {cycle} (simulator bug)")
            }
        }
    }
}

impl std::error::Error for SimError {}
