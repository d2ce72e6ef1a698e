//! # ruu-issue — the instruction-issue mechanisms of the RUU paper
//!
//! Cycle-level, execution-driven simulators of every issue mechanism the
//! paper discusses:
//!
//! | Mechanism | Paper | Type |
//! |---|---|---|
//! | Simple in-order, blocking issue | §2.2, Table 1 | [`SimpleIssue`] |
//! | Tomasulo: distributed stations, a tag per register | §3.1 | [`TaggedSim`], [`WindowKind::Distributed`] |
//! | Tag Unit + distributed stations | §3.2.1 | [`TaggedSim`], [`WindowKind::TagUnitDistributed`] |
//! | Tag Unit + merged station pool | §3.2.2 | [`TaggedSim`], [`WindowKind::Pooled`] |
//! | RSTU | §3.2.3, Tables 2–3 | [`TaggedSim`], [`WindowKind::Merged`] |
//! | In-order issue, precise: reorder buffer (± bypass), history buffer, future file | §4 | [`InOrderPrecise`] |
//! | RUU, with full / no / limited bypass | §5–6, Tables 4–6 | [`Ruu`], [`Bypass`] |
//! | Speculative RUU: branch prediction + nullification | §7 | [`SpecRuu`] |
//!
//! [`Mechanism`] names each of them with its sizing parameters and builds
//! it behind the uniform [`IssueSimulator`] interface. The tagged
//! mechanisms, the RUU and the speculative RUU are one out-of-order core
//! that differs only by where stations and tags live, when results update
//! state, and what happens to unresolved branches.
//!
//! All simulators share the [`ruu_sim_core::MachineConfig`] machine model
//! and compute real operand values in their reservation stations
//! (execution-driven), so each one's final architectural state is checked
//! against the golden interpreter.

use std::fmt;

pub mod common;
pub mod mechanism;
mod ooo;
pub mod predict;
pub mod reorder;
pub mod ruu;
pub mod simple;
pub mod simulator;
pub mod spec_ruu;
pub mod tag_unit;
pub mod tagged;

pub use common::{Broadcasts, FetchSlot, Frontend, Operand, PendingBranch, Tag};
pub use mechanism::Mechanism;
pub use predict::{
    AlwaysTaken, Bimodal, Btfn, Gshare, LocalPag, PredictError, Predictor, PredictorConfig,
    TageLite, TwoBit,
};
pub use reorder::{InOrderPrecise, PreciseScheme};
pub use ruu::{Bypass, InterruptFrame, RunOutcome, Ruu};
pub use simple::SimpleIssue;
pub use simulator::IssueSimulator;
pub use spec_ruu::{SpecRunResult, SpecRuu, SpecStats};
pub use tag_unit::{TagRetirement, TagUnitModel, TuEntry};
pub use tagged::{TaggedSim, WindowKind};

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
