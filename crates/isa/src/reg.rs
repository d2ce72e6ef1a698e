//! Register names for the four CRAY-1-style register files.
//!
//! The model architecture has 8 A (address), 8 S (scalar), 64 B (address
//! backup) and 64 T (scalar backup) registers — 144 in total (paper §2).
//! The size of this register space is the whole motivation for the paper's
//! Tag Unit: associating tag-matching hardware with *every* register (as in
//! classic Tomasulo) would need 144 tag matchers (§3.1).

use std::fmt;

/// Number of A (address) registers.
pub const NUM_A: u8 = 8;
/// Number of S (scalar) registers.
pub const NUM_S: u8 = 8;
/// Number of B (address backup) registers.
pub const NUM_B: u8 = 64;
/// Number of T (scalar backup) registers.
pub const NUM_T: u8 = 64;
/// Total number of architectural registers (8 + 8 + 64 + 64).
pub const NUM_REGS: usize = (NUM_A + NUM_S) as usize + (NUM_B + NUM_T) as usize;

/// Which of the four register files a register belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegFile {
    /// Address registers `A0..A7`. Branch conditions test `A0`.
    A,
    /// Scalar registers `S0..S7`. Branch conditions test `S0`.
    S,
    /// Address backup registers `B0..B63`.
    B,
    /// Scalar backup registers `T0..T63`.
    T,
}

impl RegFile {
    /// Number of registers in this file.
    #[must_use]
    pub fn len(self) -> u8 {
        match self {
            RegFile::A => NUM_A,
            RegFile::S => NUM_S,
            RegFile::B => NUM_B,
            RegFile::T => NUM_T,
        }
    }

    /// Register files are never empty; provided for clippy-completeness.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }
}

impl fmt::Display for RegFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            RegFile::A => 'A',
            RegFile::S => 'S',
            RegFile::B => 'B',
            RegFile::T => 'T',
        };
        write!(f, "{c}")
    }
}

/// A typed architectural register name, e.g. `A3`, `S0`, `B17`, `T63`.
///
/// `Reg` values are always valid: the constructors panic on out-of-range
/// indices, so every `Reg` held by an [`crate::Inst`] names a real register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg {
    file: RegFile,
    num: u8,
}

impl Reg {
    /// Creates a register in `file` with index `num`.
    ///
    /// # Panics
    /// Panics if `num` is out of range for the file.
    #[must_use]
    pub fn new(file: RegFile, num: u8) -> Self {
        assert!(
            num < file.len(),
            "register index {num} out of range for file {file}"
        );
        Reg { file, num }
    }

    /// Address register `A{num}` (0..8).
    ///
    /// # Panics
    /// Panics if `num >= 8`.
    #[must_use]
    pub fn a(num: u8) -> Self {
        Reg::new(RegFile::A, num)
    }

    /// Scalar register `S{num}` (0..8).
    ///
    /// # Panics
    /// Panics if `num >= 8`.
    #[must_use]
    pub fn s(num: u8) -> Self {
        Reg::new(RegFile::S, num)
    }

    /// Address backup register `B{num}` (0..64).
    ///
    /// # Panics
    /// Panics if `num >= 64`.
    #[must_use]
    pub fn b(num: u8) -> Self {
        Reg::new(RegFile::B, num)
    }

    /// Scalar backup register `T{num}` (0..64).
    ///
    /// # Panics
    /// Panics if `num >= 64`.
    #[must_use]
    pub fn t(num: u8) -> Self {
        Reg::new(RegFile::T, num)
    }

    /// The register file this register belongs to.
    #[must_use]
    pub fn file(self) -> RegFile {
        self.file
    }

    /// The index within its file (e.g. `3` for `A3`).
    #[must_use]
    #[inline]
    pub fn num(self) -> u8 {
        self.num
    }

    /// Flat index in `0..NUM_REGS`, laid out as `A0..A7, S0..S7, B0..B63,
    /// T0..T63`. Used to index per-register tables (busy bits, NI/LI
    /// counters, the architectural register file).
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        let base = match self.file {
            RegFile::A => 0,
            RegFile::S => NUM_A as usize,
            RegFile::B => (NUM_A + NUM_S) as usize,
            RegFile::T => (NUM_A + NUM_S + NUM_B) as usize,
        };
        base + self.num as usize
    }

    /// Inverse of [`Reg::index`].
    ///
    /// # Panics
    /// Panics if `index >= NUM_REGS`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        assert!(index < NUM_REGS, "flat register index {index} out of range");
        let a = NUM_A as usize;
        let s = a + NUM_S as usize;
        let b = s + NUM_B as usize;
        if index < a {
            Reg::a(index as u8)
        } else if index < s {
            Reg::s((index - a) as u8)
        } else if index < b {
            Reg::b((index - s) as u8)
        } else {
            Reg::t((index - b) as u8)
        }
    }

    /// Iterator over every architectural register, in flat-index order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..NUM_REGS).map(Reg::from_index)
    }

    /// `true` for registers in the A file.
    #[must_use]
    #[inline]
    pub fn is_a(self) -> bool {
        self.file == RegFile::A
    }

    /// `true` for registers in the S file.
    #[must_use]
    pub fn is_s(self) -> bool {
        self.file == RegFile::S
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.file, self.num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_roundtrip() {
        for i in 0..NUM_REGS {
            assert_eq!(Reg::from_index(i).index(), i);
        }
    }

    #[test]
    fn flat_layout_matches_files() {
        assert_eq!(Reg::a(0).index(), 0);
        assert_eq!(Reg::a(7).index(), 7);
        assert_eq!(Reg::s(0).index(), 8);
        assert_eq!(Reg::s(7).index(), 15);
        assert_eq!(Reg::b(0).index(), 16);
        assert_eq!(Reg::b(63).index(), 79);
        assert_eq!(Reg::t(0).index(), 80);
        assert_eq!(Reg::t(63).index(), 143);
    }

    #[test]
    fn total_register_count_is_144() {
        assert_eq!(NUM_REGS, 144);
        assert_eq!(Reg::all().count(), 144);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_file_range_checked() {
        let _ = Reg::a(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn b_file_range_checked() {
        let _ = Reg::b(64);
    }

    #[test]
    fn display() {
        assert_eq!(Reg::a(0).to_string(), "A0");
        assert_eq!(Reg::s(7).to_string(), "S7");
        assert_eq!(Reg::b(12).to_string(), "B12");
        assert_eq!(Reg::t(63).to_string(), "T63");
    }

    #[test]
    fn ordering_follows_flat_index() {
        let mut all: Vec<Reg> = Reg::all().collect();
        all.sort();
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }
}
