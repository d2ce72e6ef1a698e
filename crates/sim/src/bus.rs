//! Future-cycle slot reservation (the result bus).
//!
//! In the model architecture the result bus is reserved *at dispatch time*
//! (paper §3.1, §5.1: "The RUU reserves the result bus when it issues an
//! instruction to the functional units"): an instruction with latency `L`
//! dispatched at cycle `t` books the bus for cycle `t + L`, and dispatch
//! stalls if that future slot is already taken.
//!
//! The table is a ring indexed by cycle. Each slot remembers the cycle it
//! counts, so a cycle that has passed hands its slot on to the cycle one
//! ring length later, and the ring doubles whenever a booking would land
//! on a slot that a cycle still to come holds. Its size therefore follows
//! the furthest the machine books ahead, not the length of the run.

/// Slots in a fresh table (grown on demand).
const INITIAL_SLOTS: usize = 32;

/// Books up to `capacity` slots per future cycle.
#[derive(Debug, Clone)]
pub struct SlotReservation {
    capacity: u32,
    /// `(cycle, bookings)`: slot `cycle % len` counts `cycle`.
    slots: Vec<(u64, u32)>,
}

impl SlotReservation {
    /// Creates a reservation table with `capacity` slots per cycle.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "slot capacity must be positive");
        SlotReservation {
            capacity,
            slots: vec![(0, 0); INITIAL_SLOTS],
        }
    }

    /// Slots per cycle.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    #[inline]
    fn index(&self, cycle: u64) -> usize {
        cycle as usize & (self.slots.len() - 1)
    }

    /// `true` if a slot at `cycle` is still available.
    #[must_use]
    #[inline]
    pub fn available(&self, cycle: u64) -> bool {
        self.booked_at(cycle) < self.capacity
    }

    /// Books a slot at `cycle` if one is available. `now` is the current
    /// cycle: bookings before it are history, and the table may forget
    /// them, so callers must never ask about a cycle before a `now` they
    /// have passed.
    #[inline]
    pub fn try_reserve(&mut self, now: u64, cycle: u64) -> bool {
        debug_assert!(cycle >= now, "booking cycle {cycle} is in the past ({now})");
        loop {
            let i = self.index(cycle);
            let (held, n) = self.slots[i];
            if held == cycle {
                if n == self.capacity {
                    return false;
                }
                self.slots[i].1 += 1;
                return true;
            }
            if n == 0 || held < now {
                self.slots[i] = (cycle, 1);
                return true;
            }
            self.grow(now);
        }
    }

    /// Doubles the ring, keeping the bookings from `now` on. Two of them
    /// never share a slot: they had different slots in the smaller ring.
    fn grow(&mut self, now: u64) {
        let mut slots = vec![(0, 0); self.slots.len() * 2];
        let mask = slots.len() - 1;
        for &(cycle, n) in &self.slots {
            if n > 0 && cycle >= now {
                slots[cycle as usize & mask] = (cycle, n);
            }
        }
        self.slots = slots;
    }

    /// Number of slots booked at `cycle`.
    #[must_use]
    #[inline]
    pub fn booked_at(&self, cycle: u64) -> u32 {
        match self.slots[self.index(cycle)] {
            (held, n) if held == cycle => n,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn single_capacity_excludes_second_booking() {
        let mut b = SlotReservation::new(1);
        assert!(b.try_reserve(0, 10));
        assert!(!b.try_reserve(0, 10));
        assert!(b.try_reserve(0, 11));
        assert!(!b.available(10));
        assert!(b.available(12));
    }

    #[test]
    fn multi_capacity() {
        let mut b = SlotReservation::new(2);
        assert!(b.try_reserve(0, 5));
        assert!(b.try_reserve(0, 5));
        assert!(!b.try_reserve(0, 5));
        assert_eq!(b.booked_at(5), 2);
    }

    #[test]
    fn passed_cycles_free_their_slots_and_future_ones_grow_the_ring() {
        let mut b = SlotReservation::new(1);
        let len = INITIAL_SLOTS as u64;
        assert!(b.try_reserve(0, 3));
        // Cycle 3 has passed by `now = 4`: 3 + len reuses its slot.
        assert!(b.try_reserve(4, 3 + len));
        assert_eq!(b.slots.len(), INITIAL_SLOTS);
        // Cycle 3 + len is still to come: 3 + 2 * len must not alias it.
        assert!(b.try_reserve(4, 3 + 2 * len));
        assert!(b.slots.len() > INITIAL_SLOTS);
        assert_eq!(b.booked_at(3 + len), 1);
        assert_eq!(b.booked_at(3 + 2 * len), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = SlotReservation::new(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The ring answers like an ordered map of every booking ever
        /// made, for every cycle from the present on, while the present
        /// moves forward and bookings reach past the ring's first size.
        #[test]
        fn ring_agrees_with_an_ordered_map(
            seed in 0u64..u64::MAX,
            capacity in 1u32..=3,
            horizon in 1u64..(8 * INITIAL_SLOTS as u64),
            steps in 1usize..800,
        ) {
            let mut rng = proptest::TestRng::new(&seed.to_string());
            let mut ring = SlotReservation::new(capacity);
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut now = 0u64;
            for _ in 0..steps {
                now += rng.next_u64() % 3;
                let cycle = now + rng.next_u64() % (horizon + 1);
                let booked = model.get(&cycle).copied().unwrap_or(0);
                match rng.next_u64() % 3 {
                    0 => prop_assert_eq!(ring.available(cycle), booked < capacity),
                    1 => prop_assert_eq!(ring.booked_at(cycle), booked),
                    _ => {
                        let free = booked < capacity;
                        prop_assert_eq!(ring.try_reserve(now, cycle), free);
                        if free {
                            *model.entry(cycle).or_insert(0) += 1;
                        }
                    }
                }
            }
            for cycle in now..=now + horizon {
                prop_assert_eq!(ring.booked_at(cycle), model.get(&cycle).copied().unwrap_or(0));
            }
        }
    }
}
