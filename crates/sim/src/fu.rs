//! The pool of pipelined functional units.
//!
//! The model architecture (paper Figure 1) has one unit per
//! [`FuClass`]; every unit is fully pipelined, so a unit accepts at most
//! one new operation per cycle and an operation's result is ready
//! `latency` cycles later (the result-bus slot is booked separately, see
//! [`crate::SlotReservation`]).

use ruu_isa::FuClass;

/// Tracks per-cycle acceptance of the functional units.
#[derive(Debug, Clone)]
pub struct FuPool {
    last_accept: [Option<u64>; FuClass::ALL.len()],
}

impl FuPool {
    /// A pool with all units idle.
    #[must_use]
    pub fn new() -> Self {
        FuPool {
            last_accept: [None; FuClass::ALL.len()],
        }
    }

    /// `true` if unit `fu` can accept an operation at `cycle` (it has not
    /// already accepted one this cycle).
    #[must_use]
    #[inline]
    pub fn can_accept(&self, fu: FuClass, cycle: u64) -> bool {
        self.last_accept[fu.index()] != Some(cycle)
    }

    /// Records that unit `fu` accepted an operation at `cycle`.
    ///
    /// # Panics
    /// Panics if the unit already accepted an operation this cycle (caller
    /// must check [`FuPool::can_accept`] first).
    #[inline]
    pub fn accept(&mut self, fu: FuClass, cycle: u64) {
        assert!(
            self.can_accept(fu, cycle),
            "functional unit {fu} accepted twice in cycle {cycle}"
        );
        self.last_accept[fu.index()] = Some(cycle);
    }
}

impl Default for FuPool {
    fn default() -> Self {
        FuPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_accept_per_cycle_per_unit() {
        let mut p = FuPool::new();
        assert!(p.can_accept(FuClass::FloatAdd, 3));
        p.accept(FuClass::FloatAdd, 3);
        assert!(!p.can_accept(FuClass::FloatAdd, 3));
        // other units unaffected
        assert!(p.can_accept(FuClass::FloatMul, 3));
        // next cycle fine (pipelined)
        assert!(p.can_accept(FuClass::FloatAdd, 4));
    }

    #[test]
    #[should_panic(expected = "accepted twice")]
    fn double_accept_panics() {
        let mut p = FuPool::new();
        p.accept(FuClass::Memory, 1);
        p.accept(FuClass::Memory, 1);
    }
}
