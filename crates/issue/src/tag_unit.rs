//! A register-transfer-level model of the **Tag Unit** (paper §3.2.1,
//! Figure 3).
//!
//! The Tag Unit consolidates tags from all *currently active* destination
//! registers into one small structure, so tag-matching hardware is paid
//! for only per in-flight instruction rather than per architectural
//! register (144 in this machine). Each entry holds:
//!
//! | Tag number | Register number | Tag free | Latest copy |
//! |---|---|---|---|
//!
//! This model is didactic — the out-of-order core behind
//! [`crate::Mechanism::TagUnitDistributed`] and [`crate::Mechanism::RsPool`]
//! implements the same bookkeeping inline — and exists to reproduce the
//! paper's Figure 3 walkthrough exactly (see the `figure3` bench target
//! and `examples/tag_unit_walkthrough.rs`).

use std::fmt;

use ruu_isa::Reg;

/// One Tag Unit entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuEntry {
    /// The register this tag names, or `None` if the tag is free
    /// (rendered `NIL` as in the paper's Figure 3).
    pub register: Option<Reg>,
    /// `true` if the tag is available for use by the issue logic.
    pub free: bool,
    /// `true` if this tag is the latest tag for its register (the holder
    /// has the *key* to *unlock* — clear the busy bit of — the register).
    pub latest: bool,
}

impl TuEntry {
    fn free_entry() -> Self {
        TuEntry {
            register: None,
            free: true,
            latest: true,
        }
    }
}

/// The result of a tag arriving back at the Tag Unit with its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagRetirement {
    /// Which register the value should be forwarded to.
    pub register: Reg,
    /// Whether this tag was the latest copy — only then may the register's
    /// busy bit be cleared ("unlocked").
    pub unlock: bool,
}

/// The Tag Unit: a pool of tags for currently active destination
/// registers.
///
/// # Example (the paper's Figure 3)
///
/// ```
/// use ruu_isa::Reg;
/// use ruu_issue::TagUnitModel;
///
/// let mut tu = TagUnitModel::figure3();
/// // Issue I1: S4 <- S0 + S7 (S0 busy, S7 free).
/// let dst = tu.acquire_dest(Reg::s(4)).expect("a tag is free");
/// assert_eq!(dst, 3);                              // gets free tag 3
/// assert_eq!(tu.source_tag(Reg::s(0)), Some(2));   // latest tag for S0
/// assert_eq!(tu.source_tag(Reg::s(7)), None);      // S7 not busy
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagUnitModel {
    entries: Vec<TuEntry>,
}

impl TagUnitModel {
    /// A Tag Unit with `n` tags, all free.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "the tag unit needs at least one tag");
        TagUnitModel {
            entries: vec![TuEntry::free_entry(); n],
        }
    }

    /// The exact initial state of the paper's Figure 3: six tags, with
    /// tag 1 = A0 (latest), tag 2 = S0 (latest), tag 3 free, tag 4 = S4
    /// (latest), tag 5 = S0 (not latest), tag 6 = S3 (latest).
    #[must_use]
    pub fn figure3() -> Self {
        let e = |reg: Reg, latest: bool| TuEntry {
            register: Some(reg),
            free: false,
            latest,
        };
        TagUnitModel {
            entries: vec![
                e(Reg::a(0), true),
                e(Reg::s(0), true),
                TuEntry::free_entry(),
                e(Reg::s(4), true),
                e(Reg::s(0), false),
                e(Reg::s(3), true),
            ],
        }
    }

    /// Number of tags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the unit holds no tags (never: size is validated > 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The entry for tag number `tag` (1-based, as in the paper).
    ///
    /// # Panics
    /// Panics if `tag` is out of range.
    #[must_use]
    pub fn entry(&self, tag: usize) -> TuEntry {
        self.entries[tag - 1]
    }

    /// `true` if `reg` is busy, i.e. some live tag names it. (A register
    /// "must be free if it does not have an entry in the TU".)
    #[must_use]
    pub fn is_busy(&self, reg: Reg) -> bool {
        self.entries
            .iter()
            .any(|e| !e.free && e.register == Some(reg))
    }

    /// The latest tag (1-based) for a busy source register, or `None` if
    /// the register is not busy (its value can be read from the register
    /// file).
    #[must_use]
    pub fn source_tag(&self, reg: Reg) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| !e.free && e.latest && e.register == Some(reg))
            .map(|i| i + 1)
    }

    /// Acquires a new tag (1-based) for destination register `reg`. If
    /// the register already has a latest tag, that tag is informed it "may
    /// update the register but may not unlock it" (its latest-copy bit
    /// clears). Returns `None` — issue blocks — if the unit is full.
    pub fn acquire_dest(&mut self, reg: Reg) -> Option<usize> {
        let slot = self.entries.iter().position(|e| e.free)?;
        if let Some(old) = self.source_tag(reg) {
            self.entries[old - 1].latest = false;
        }
        self.entries[slot] = TuEntry {
            register: Some(reg),
            free: false,
            latest: true,
        };
        Some(slot + 1)
    }

    /// A result bearing `tag` (1-based) arrived at the Tag Unit: the tag
    /// is released and the unit says where to forward the value and
    /// whether the register may be unlocked.
    ///
    /// # Panics
    /// Panics if `tag` is free or out of range (a protocol violation).
    pub fn retire(&mut self, tag: usize) -> TagRetirement {
        let e = self.entries[tag - 1];
        assert!(!e.free, "tag {tag} retired while free");
        let register = e.register.expect("busy tag names a register");
        self.entries[tag - 1] = TuEntry::free_entry();
        TagRetirement {
            register,
            unlock: e.latest,
        }
    }

    /// Number of free tags.
    #[must_use]
    pub fn free_tags(&self) -> usize {
        self.entries.iter().filter(|e| e.free).count()
    }
}

impl fmt::Display for TagUnitModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| Tag | Register | Tag Free | Latest Copy |")?;
        writeln!(f, "|-----|----------|----------|-------------|")?;
        for (i, e) in self.entries.iter().enumerate() {
            let reg = e
                .register
                .map_or_else(|| "NIL".to_string(), |r| r.to_string());
            writeln!(
                f,
                "| {:>3} | {:>8} | {:>8} | {:>11} |",
                i + 1,
                reg,
                if e.free { "Y" } else { "N" },
                if e.latest { "Y" } else { "N" },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The complete Figure 3 walkthrough from paper §3.2.1.1.
    #[test]
    fn figure3_walkthrough() {
        let mut tu = TagUnitModel::figure3();

        // Initial state sanity.
        assert!(tu.is_busy(Reg::a(0)));
        assert!(tu.is_busy(Reg::s(0)));
        assert!(tu.is_busy(Reg::s(4)));
        assert!(!tu.is_busy(Reg::s(7)), "S7 has no entry, so it is free");
        assert_eq!(tu.free_tags(), 1);

        // Decode I1: S4 <- S0 + S7.
        // "it attempts to get a new tag for the destination register S4
        //  from the TU and obtains tag 3"
        let dst = tu.acquire_dest(Reg::s(4)).unwrap();
        assert_eq!(dst, 3);
        // "the old tag (4) is updated to indicate that it no longer
        //  represents the latest copy"
        assert!(!tu.entry(4).latest);
        assert!(!tu.entry(4).free);
        // "the latest tag for S0 (tag 2) must be obtained from the TU"
        assert_eq!(tu.source_tag(Reg::s(0)), Some(2));
        // S7's contents are read from the register file directly.
        assert_eq!(tu.source_tag(Reg::s(7)), None);

        // I1 completes: result forwarded to all RS with tag 3 and to the
        // TU; tag 3 is the latest tag for S4, so S4's busy bit resets.
        let ret = tu.retire(3);
        assert_eq!(ret.register, Reg::s(4));
        assert!(ret.unlock);
        // "Tag 3 is then marked free and is available for reuse"
        assert!(tu.entry(3).free);
    }

    #[test]
    fn second_instance_does_not_unlock() {
        let mut tu = TagUnitModel::new(4);
        let t1 = tu.acquire_dest(Reg::s(1)).unwrap();
        let t2 = tu.acquire_dest(Reg::s(1)).unwrap();
        assert_ne!(t1, t2);
        assert_eq!(tu.source_tag(Reg::s(1)), Some(t2));
        // Old instance completes first: may update but not unlock.
        let r1 = tu.retire(t1);
        assert!(!r1.unlock);
        assert!(tu.is_busy(Reg::s(1)));
        // Latest completes: unlock.
        let r2 = tu.retire(t2);
        assert!(r2.unlock);
        assert!(!tu.is_busy(Reg::s(1)));
    }

    #[test]
    fn blocks_when_full() {
        let mut tu = TagUnitModel::new(2);
        assert!(tu.acquire_dest(Reg::a(1)).is_some());
        assert!(tu.acquire_dest(Reg::a(2)).is_some());
        assert_eq!(tu.acquire_dest(Reg::a(3)), None);
        tu.retire(1);
        assert!(tu.acquire_dest(Reg::a(3)).is_some());
    }

    #[test]
    fn display_renders_nil_for_free_tags() {
        let tu = TagUnitModel::figure3();
        let s = tu.to_string();
        assert!(s.contains("NIL"));
        assert!(s.contains("S4"));
    }

    #[test]
    #[should_panic(expected = "retired while free")]
    fn retiring_free_tag_panics() {
        let mut tu = TagUnitModel::new(2);
        tu.retire(1);
    }
}
