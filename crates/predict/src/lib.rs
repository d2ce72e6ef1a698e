//! # ruu-predict — branch prediction for the §7 extension
//!
//! The paper closes by observing that the RUU "provides a very powerful
//! mechanism for nullifying instructions", making conditional execution
//! down a predicted path easy (§7), and cites Smith's branch-prediction
//! study (the paper's reference \[6\]). Once the speculative RUU exists,
//! the issue-logic bottleneck moves to the front end — so prediction
//! deserves its own subsystem rather than a corner of `ruu-issue`.
//!
//! This crate holds:
//!
//! * the [`Predictor`] trait and the classic static/counter predictors
//!   ([`AlwaysTaken`], [`Btfn`], [`TwoBit`]) that previously lived in
//!   `ruu-issue` (re-exported there for compatibility);
//! * a predictor zoo ([`zoo`]): [`Gshare`], the two-level
//!   local-history [`LocalPag`], and the tagged [`TageLite`];
//! * a set-associative branch target buffer ([`Btb`]);
//! * [`PredictorConfig`], the `Copy` configuration value the issue layer
//!   and sweep engine understand, with CLI parsing and typed validation
//!   ([`PredictError`]) instead of constructor panics;
//! * a trace-driven CBP-style evaluation harness ([`cbp`]) that replays
//!   per-branch outcome streams extracted from the golden `ruu-exec`
//!   trace through any predictor — no pipeline simulation required —
//!   and reports accuracy, MPKI and per-site top offenders.

use std::fmt;

pub mod btb;
pub mod cbp;
pub mod config;
pub mod zoo;

pub use btb::Btb;
pub use cbp::{BranchEvent, BranchStream, BtbStats, CbpResult, SiteStats};
pub use config::{PredictError, PredictorConfig};
pub use zoo::{Gshare, LocalPag, TageLite};

/// A direction predictor for conditional branches.
pub trait Predictor {
    /// Predicts whether the branch at `pc` (jumping to `target`) is
    /// taken.
    fn predict(&mut self, pc: u32, target: u32) -> bool;

    /// Trains the predictor with the branch's actual outcome.
    fn update(&mut self, pc: u32, taken: bool);

    /// Short display name for reports.
    fn name(&self) -> &'static str;
}

impl fmt::Debug for dyn Predictor + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Predictor({})", self.name())
    }
}

/// Predict every conditional branch taken — surprisingly strong on loop
/// code.
#[derive(Debug, Clone, Default)]
pub struct AlwaysTaken;

impl Predictor for AlwaysTaken {
    fn predict(&mut self, _pc: u32, _target: u32) -> bool {
        true
    }

    fn update(&mut self, _pc: u32, _taken: bool) {}

    fn name(&self) -> &'static str {
        "always-taken"
    }
}

/// Backward-taken / forward-not-taken: static prediction by branch
/// direction.
#[derive(Debug, Clone, Default)]
pub struct Btfn;

impl Predictor for Btfn {
    fn predict(&mut self, pc: u32, target: u32) -> bool {
        target <= pc
    }

    fn update(&mut self, _pc: u32, _taken: bool) {}

    fn name(&self) -> &'static str {
        "btfn"
    }
}

/// Smith's 2-bit saturating-counter table, indexed by low pc bits.
#[derive(Debug, Clone)]
pub struct TwoBit {
    table: Vec<u8>,
    mask: u32,
}

impl TwoBit {
    /// A table of `entries` counters (power of two), initialised to
    /// weakly taken.
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two. Use
    /// [`PredictorConfig::validate`] to reject bad sizes with a typed
    /// error before construction.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "predictor table size must be a power of two"
        );
        TwoBit {
            table: vec![2; entries],
            mask: (entries - 1) as u32,
        }
    }
}

impl Default for TwoBit {
    fn default() -> Self {
        TwoBit::new(64)
    }
}

impl Predictor for TwoBit {
    fn predict(&mut self, pc: u32, _target: u32) -> bool {
        self.table[(pc & self.mask) as usize] >= 2
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let c = &mut self.table[(pc & self.mask) as usize];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn name(&self) -> &'static str {
        "2-bit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken() {
        let mut p = AlwaysTaken;
        assert!(p.predict(10, 2));
        assert!(p.predict(10, 20));
    }

    #[test]
    fn btfn_predicts_by_direction() {
        let mut p = Btfn;
        assert!(p.predict(10, 2), "backward taken");
        assert!(!p.predict(10, 20), "forward not taken");
    }

    #[test]
    fn two_bit_saturates_and_hysteresis() {
        let mut p = TwoBit::new(16);
        // initial: weakly taken
        assert!(p.predict(5, 0));
        p.update(5, false);
        assert!(!p.predict(5, 0), "one not-taken flips weak counter");
        p.update(5, true);
        p.update(5, true);
        assert!(p.predict(5, 0));
        // one not-taken does not flip a strong counter
        p.update(5, true);
        p.update(5, false);
        assert!(p.predict(5, 0));
    }

    #[test]
    fn two_bit_entries_are_independent() {
        let mut p = TwoBit::new(16);
        p.update(0, false);
        p.update(0, false);
        assert!(!p.predict(0, 0));
        assert!(p.predict(1, 0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn table_size_validated() {
        let _ = TwoBit::new(10);
    }

    #[test]
    fn trait_object_debug_shows_name() {
        let mut p = TwoBit::default();
        let d: &mut dyn Predictor = &mut p;
        assert_eq!(format!("{d:?}"), "Predictor(2-bit)");
    }
}
