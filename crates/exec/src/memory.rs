//! Word-addressed data memory.

use std::fmt;

/// Word-addressed 64-bit data memory.
///
/// The model architecture assumes no memory bank conflicts and instruction
/// fetch that always hits the instruction buffers (paper §2.2), so data
/// memory is a flat array of 64-bit words. The capacity must be a power of
/// two; addresses are masked into range, which keeps memory access total
/// (important for randomly generated programs in property tests) while
/// staying deterministic — the golden interpreter and every simulator mask
/// identically.
#[derive(Clone, PartialEq, Eq)]
pub struct Memory {
    words: Vec<u64>,
    mask: u64,
}

impl Memory {
    /// Creates a zeroed memory of `words` 64-bit words.
    ///
    /// # Panics
    /// Panics if `words` is not a power of two.
    #[must_use]
    pub fn new(words: usize) -> Self {
        assert!(
            words.is_power_of_two(),
            "memory size must be a power of two, got {words}"
        );
        Memory {
            words: vec![0; words],
            mask: (words - 1) as u64,
        }
    }

    /// Capacity in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` if capacity is zero (never: capacity is a power of two ≥ 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The canonical (masked) form of an address: the word every access
    /// to `addr` actually touches. Address-comparison hardware (the load
    /// registers) must compare canonical addresses, or two aliases of one
    /// word would escape disambiguation.
    #[must_use]
    #[inline]
    pub fn canonicalize(&self, addr: u64) -> u64 {
        addr & self.mask
    }

    /// Reads the word at `addr` (masked into range).
    #[must_use]
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        self.words[(addr & self.mask) as usize]
    }

    /// Writes the word at `addr` (masked into range).
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        self.words[(addr & self.mask) as usize] = value;
    }

    /// Writes a floating-point value (bit pattern) at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write(addr, value.to_bits());
    }

    /// Reads a floating-point value (bit pattern) at `addr`.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read(addr))
    }

    /// Fills `len` consecutive words starting at `base` by evaluating `f`
    /// on each index (workload data initialisation).
    ///
    /// Addresses are masked like every other access, so a span that runs
    /// past capacity silently wraps and overwrites low memory. Layout
    /// code should prefer [`Memory::try_fill`], which rejects that.
    pub fn fill_with(&mut self, base: u64, len: u64, mut f: impl FnMut(u64) -> u64) {
        for i in 0..len {
            self.write(base + i, f(i));
        }
    }

    /// Like [`Memory::fill_with`], but refuses a span that would wrap
    /// past capacity and alias earlier words.
    ///
    /// # Errors
    /// Returns [`FillWraps`] — and writes nothing — if `base + len`
    /// exceeds the capacity (including `base` itself out of range, whose
    /// masked writes would land elsewhere).
    pub fn try_fill(
        &mut self,
        base: u64,
        len: u64,
        f: impl FnMut(u64) -> u64,
    ) -> Result<(), FillWraps> {
        let capacity = self.words.len() as u64;
        if base.checked_add(len).is_none_or(|end| end > capacity) {
            return Err(FillWraps {
                base,
                len,
                capacity,
            });
        }
        self.fill_with(base, len, f);
        Ok(())
    }

    /// Iterator over `(address, value)` for all non-zero words — used to
    /// compare memories cheaply in tests.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(a, &v)| (a as u64, v))
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nz = self.nonzero().count();
        write!(f, "Memory({} words, {nz} nonzero)", self.words.len())
    }
}

/// A [`Memory::try_fill`] span wrapped past capacity: writing it with
/// masked addresses would alias earlier words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillWraps {
    /// First word of the rejected span.
    pub base: u64,
    /// Length of the rejected span, in words.
    pub len: u64,
    /// Memory capacity, in words.
    pub capacity: u64,
}

impl fmt::Display for FillWraps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "span of {} words at {} wraps past the {}-word capacity and would alias low memory",
            self.len, self.base, self.capacity
        )
    }
}

impl std::error::Error for FillWraps {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new(64);
        m.write(10, 42);
        assert_eq!(m.read(10), 42);
        assert_eq!(m.read(11), 0);
    }

    #[test]
    fn addresses_are_masked() {
        let mut m = Memory::new(64);
        m.write(64 + 3, 7);
        assert_eq!(m.read(3), 7);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Memory::new(100);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new(8);
        m.write_f64(1, 2.75);
        assert_eq!(m.read_f64(1), 2.75);
    }

    #[test]
    fn fill_with_and_nonzero() {
        let mut m = Memory::new(16);
        m.fill_with(4, 3, |i| i + 1);
        let nz: Vec<_> = m.nonzero().collect();
        assert_eq!(nz, vec![(4, 1), (5, 2), (6, 3)]);
    }

    #[test]
    fn try_fill_rejects_wrapping_spans() {
        let mut m = Memory::new(16);
        // In-range span succeeds, including one that ends exactly at
        // capacity.
        assert_eq!(m.try_fill(12, 4, |i| i + 1), Ok(()));
        assert_eq!(m.read(15), 4);
        // A span past capacity is refused and writes nothing...
        let err = m.try_fill(14, 4, |_| 99).unwrap_err();
        assert_eq!(
            err,
            FillWraps {
                base: 14,
                len: 4,
                capacity: 16
            }
        );
        assert!(err.to_string().contains("wraps past the 16-word capacity"));
        assert_eq!(m.read(0), 0, "no wrapped write corrupted low memory");
        assert_eq!(m.read(14), 3, "no partial write before the check");
        // ...as is a base already out of range, and u64 overflow.
        assert!(m.try_fill(16, 1, |_| 1).is_err());
        assert!(m.try_fill(u64::MAX, 2, |_| 1).is_err());
        // `fill_with` keeps its documented wrap-through behaviour.
        m.fill_with(14, 4, |i| 100 + i);
        assert_eq!(m.read(1), 103);
    }

    #[test]
    fn equality_is_by_contents() {
        let mut a = Memory::new(8);
        let mut b = Memory::new(8);
        assert_eq!(a, b);
        a.write(0, 1);
        assert_ne!(a, b);
        b.write(0, 1);
        assert_eq!(a, b);
    }
}
