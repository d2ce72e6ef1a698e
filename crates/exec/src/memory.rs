//! Word-addressed data memory.

use std::fmt;

/// Words per page: the unit in which [`Memory`] allocates storage.
const PAGE_WORDS: usize = 512;

/// One page of memory.
type Page = [u64; PAGE_WORDS];

/// Word-addressed 64-bit data memory.
///
/// The model architecture assumes no memory bank conflicts and instruction
/// fetch that always hits the instruction buffers (paper §2.2), so data
/// memory is a flat array of 64-bit words. The capacity must be a power of
/// two; addresses are masked into range, which keeps memory access total
/// (important for randomly generated programs in property tests) while
/// staying deterministic — the golden interpreter and every simulator mask
/// identically.
///
/// The array is stored as a table of 512-word pages in which an absent
/// page reads as zeros: a new memory holds no page, and the first write
/// into a page allocates it. Cloning, comparing and dropping a memory
/// therefore cost what it holds, not its capacity. Equality is by
/// contents, so an absent page equals a held page of zeros.
#[derive(Clone)]
pub struct Memory {
    pages: Vec<Option<Box<Page>>>,
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
            pages: vec![None; words.div_ceil(PAGE_WORDS)],
            mask: (words - 1) as u64,
        }
    }

    /// Capacity in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mask as usize + 1
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
        let a = (addr & self.mask) as usize;
        match &self.pages[a / PAGE_WORDS] {
            Some(page) => page[a % PAGE_WORDS],
            None => 0,
        }
    }

    /// Writes the word at `addr` (masked into range).
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let a = (addr & self.mask) as usize;
        let page = self.pages[a / PAGE_WORDS].get_or_insert_with(zero_page);
        page[a % PAGE_WORDS] = value;
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
        let capacity = self.len() as u64;
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
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p * PAGE_WORDS, page.as_deref()?)))
            .flat_map(|(base, page)| {
                page.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0)
                    .map(move |(i, &v)| ((base + i) as u64, v))
            })
    }

    /// Number of pages holding storage.
    #[cfg(test)]
    pub(crate) fn pages_held(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

/// A freshly allocated page of zeros, out of line so that
/// [`Memory::write`] stays small enough to inline.
#[cold]
#[inline(never)]
fn zero_page() -> Box<Page> {
    Box::new([0; PAGE_WORDS])
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.mask == other.mask
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => a == b,
                    (Some(held), None) | (None, Some(held)) => held.iter().all(|&v| v == 0),
                    (None, None) => true,
                })
    }
}

impl Eq for Memory {}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nz = self.nonzero().count();
        write!(f, "Memory({} words, {nz} nonzero)", self.len())
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
    use proptest::prelude::*;

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

    #[test]
    fn writes_hold_only_their_pages() {
        let mut m = Memory::new(1 << 16);
        assert_eq!(m.pages_held(), 0);
        let clone = m.clone();
        m.write(3, 1);
        m.write(511, 2);
        m.write(512, 0);
        m.write(40_000, 3);
        m.write((1 << 16) + 7, 4); // masked onto page 0
        assert_eq!(m.pages_held(), 3);
        assert_eq!(m.read(7), 4);
        assert_eq!(m.read(20_000), 0, "an absent page reads as zeros");
        assert_eq!(clone.pages_held(), 0, "a clone owns its pages");
        assert_eq!(m.clone().pages_held(), 3);
    }

    #[test]
    fn a_held_page_of_zeros_equals_an_absent_one() {
        let mut m = Memory::new(1 << 10);
        m.write(600, 9);
        m.write(600, 0);
        assert_eq!(m.pages_held(), 1);
        assert_eq!(m, Memory::new(1 << 10));
        assert_eq!(Memory::new(1 << 10), m);
        assert_ne!(m, Memory::new(1 << 11));
    }

    /// The flat array [`Memory`] models: one `u64` per word.
    #[derive(Clone, PartialEq)]
    struct Flat(Vec<u64>);

    impl Flat {
        fn at(&self, addr: u64) -> usize {
            (addr % self.0.len() as u64) as usize
        }

        fn nonzero(&self) -> Vec<(u64, u64)> {
            (0u64..)
                .zip(&self.0)
                .filter(|&(_, &v)| v != 0)
                .map(|(a, &v)| (a, v))
                .collect()
        }

        fn debug(&self) -> String {
            let words = self.0.len();
            format!("Memory({words} words, {} nonzero)", self.nonzero().len())
        }
    }

    /// A paged memory and its flat model, driven by one op stream.
    #[derive(Clone)]
    struct Pair {
        mem: Memory,
        flat: Flat,
    }

    impl Pair {
        fn new(words: usize) -> Self {
            Pair {
                mem: Memory::new(words),
                flat: Flat(vec![0; words]),
            }
        }

        fn check(&self) {
            assert_eq!(self.mem.len(), self.flat.0.len());
            assert_eq!(self.mem.nonzero().collect::<Vec<_>>(), self.flat.nonzero());
            assert_eq!(format!("{:?}", self.mem), self.flat.debug());
            let mut fresh = Pair::new(self.flat.0.len());
            assert_eq!(self.mem == fresh.mem, self.flat == fresh.flat);
            fresh.mem.write(0, 0);
            assert_eq!(fresh.mem, Memory::new(self.flat.0.len()));
            assert_eq!(self.mem == fresh.mem, self.flat == fresh.flat);
        }
    }

    /// splitmix64: the op stream of one property case.
    struct Ops(u64);

    impl Ops {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// An address: anywhere in `u64`, in range, near the top of
        /// memory, or across the first page boundaries.
        fn addr(&mut self, words: usize) -> u64 {
            let r = self.next();
            match r % 4 {
                0 => self.next(),
                1 => self.next() % words as u64,
                2 => (words as u64).wrapping_sub(1 + r % 600),
                _ => self.next() % 1200,
            }
        }

        /// A value, zero a quarter of the time.
        fn value(&mut self) -> u64 {
            let v = self.next();
            if v.is_multiple_of(4) {
                0
            } else {
                v
            }
        }
    }

    proptest! {
        #[test]
        fn paged_memory_matches_a_flat_array(log_words in 0u32..=17, seed in 0u64..u64::MAX) {
            let words = 1usize << log_words;
            let mut ops = Ops(seed);
            let mut pairs = [Pair::new(words), Pair::new(words)];
            for step in 0..300 {
                let i = (ops.next() % 2) as usize;
                let j = (ops.next() % 2) as usize;
                let side = &mut pairs[i];
                match ops.next() % 8 {
                    0..=3 => {
                        let (addr, v) = (ops.addr(words), ops.value());
                        side.mem.write(addr, v);
                        let at = side.flat.at(addr);
                        side.flat.0[at] = v;
                    }
                    4 => {
                        let addr = ops.addr(words);
                        prop_assert_eq!(side.mem.read(addr), side.flat.0[side.flat.at(addr)]);
                        prop_assert_eq!(side.mem.canonicalize(addr), side.flat.at(addr) as u64);
                    }
                    5 => {
                        let (base, len) = (ops.addr(words), ops.next() % 700);
                        let fill = |k: u64| if k.is_multiple_of(3) { 0 } else { k + 1 };
                        let fits = base.checked_add(len).is_some_and(|end| end <= words as u64);
                        prop_assert_eq!(side.mem.try_fill(base, len, fill).is_ok(), fits);
                        if fits {
                            for k in 0..len {
                                let at = side.flat.at(base + k);
                                side.flat.0[at] = fill(k);
                            }
                        }
                    }
                    6 => pairs[i] = pairs[j].clone(),
                    _ => {
                        // Zero every word side `j` holds: side `i` keeps
                        // the pages it allocated, now holding zeros.
                        for (addr, _) in pairs[j].flat.nonzero() {
                            pairs[i].mem.write(addr, 0);
                            pairs[i].flat.0[addr as usize] = 0;
                        }
                    }
                }
                if step % 50 == 0 {
                    pairs.iter().for_each(Pair::check);
                }
                let [a, b] = &pairs;
                prop_assert_eq!(a.mem == b.mem, a.flat == b.flat, "step {}", step);
                prop_assert_eq!(b.mem == a.mem, a.flat == b.flat, "step {}", step);
            }
            pairs.iter().for_each(Pair::check);
        }
    }
}
