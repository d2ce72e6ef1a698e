//! # ruu-sim-core — timing-simulation substrate
//!
//! Shared building blocks for the cycle-level issue-mechanism simulators in
//! `ruu-issue`:
//!
//! * [`MachineConfig`] — latencies, branch penalties, bus widths and other
//!   machine parameters of the model architecture (paper §2, Figure 1);
//! * [`SlotReservation`] — future-cycle slot booking, used for the single
//!   result bus (reserved at dispatch time, paper §3.1/§5.1);
//! * [`FuPool`] — the fully pipelined functional units, each able to accept
//!   one operation per cycle;
//! * [`LoadRegUnit`] — the *load registers* of paper §3.2.1.2: memory
//!   disambiguation by exact address match, with store→load and load→load
//!   data forwarding;
//! * [`DCache`] / [`DCacheConfig`] — the data-cache timing model that
//!   retires the §2.2 perfect-memory idealization: set-associative LRU
//!   lookup with hit/miss latencies and bounded outstanding misses, with
//!   a bit-identical `Perfect` default;
//! * [`RunStats`] / [`RunResult`] — issue-rate accounting and stall
//!   breakdowns common to every simulator, and the one counter set the
//!   engine, the bench tables and the reports read (suite totals via
//!   [`RunStats::absorb`], MPKI and hit rate via its methods);
//! * [`PipelineObserver`] — per-cycle pipeline event hooks (fetch, issue,
//!   dispatch, complete, commit, flush, stall, cycle end) with the
//!   [`CycleAccountant`], [`FlushAccountant`] and [`ChromeTraceObserver`]
//!   implementations;
//! * [`JsonWriter`] — the std-only JSON writer behind Chrome traces and
//!   sweep reports.

mod bus;
mod cache;
mod config;
mod fu;
mod json;
mod loadregs;
mod observe;
mod stats;

pub use bus::SlotReservation;
pub use cache::{CachePlan, CacheStats, DCache, DCacheConfig, DCacheError};
pub use config::MachineConfig;
pub use fu::FuPool;
pub use json::JsonWriter;
pub use loadregs::{LoadRegUnit, LrOutcome, MemOpKind, OpId};
pub use observe::{
    AccountingViolation, ChromeTraceObserver, CycleAccountant, FlushAccountant, FlushViolation,
    NullObserver, PipelineObserver, Tee,
};
pub use stats::{RunResult, RunStats, StallReason};
