//! The predictor zoo: dynamic predictors beyond Smith's 2-bit table.
//!
//! Everything here is deterministic — no randomness, no wall-clock — so
//! replays and parallel sweeps are bit-reproducible. Each predictor keeps
//! its speculation history in `update` only: on the pipelined machine a
//! prediction may be consulted several cycles before the branch resolves,
//! and folding history at update time keeps the two paths (CBP replay,
//! where predict/update are adjacent, and the speculative RUU, where they
//! are not) behaviourally consistent.

use crate::Predictor;

/// McFarling's gshare: a counter table indexed by pc XOR global branch
/// history.
///
/// The global history register shifts on every `update` (i.e. at branch
/// resolution), so in-flight predictions on the speculative machine see
/// slightly stale history — the classic delayed-update simplification.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u32,
    history: u32,
    hist_mask: u32,
}

impl Gshare {
    /// A table of `entries` counters (power of two) with
    /// `min(log2(entries), 12)` bits of global history.
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "predictor table size must be a power of two"
        );
        let hist_bits = (entries.trailing_zeros()).min(12);
        Gshare {
            table: vec![2; entries],
            mask: (entries - 1) as u32,
            history: 0,
            hist_mask: if hist_bits == 0 {
                0
            } else {
                (1u32 << hist_bits) - 1
            },
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc ^ (self.history & self.hist_mask)) & self.mask) as usize
    }
}

impl Predictor for Gshare {
    fn predict(&mut self, pc: u32, _target: u32) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.table[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | u32::from(taken);
    }

    fn name(&self) -> &'static str {
        "gshare"
    }
}

/// A two-level local-history predictor (Yeh & Patt's PAg): a per-branch
/// history table feeding one shared pattern table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct LocalPag {
    /// Per-branch local histories, indexed by low pc bits.
    lht: Vec<u16>,
    lht_mask: u32,
    /// Shared pattern table of 2-bit counters, indexed by local history.
    pattern: Vec<u8>,
    pattern_mask: u16,
}

impl LocalPag {
    /// Number of per-branch history registers (the workloads have few
    /// static branch sites, so a small first level suffices).
    const LHT_ENTRIES: usize = 64;

    /// A pattern table of `entries` counters (power of two); the local
    /// history length is `min(log2(entries), 14)` bits.
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "predictor table size must be a power of two"
        );
        let hist_bits = (entries.trailing_zeros()).min(14);
        LocalPag {
            lht: vec![0; Self::LHT_ENTRIES],
            lht_mask: (Self::LHT_ENTRIES - 1) as u32,
            pattern: vec![2; entries],
            pattern_mask: if hist_bits == 0 {
                0
            } else {
                ((1u32 << hist_bits) - 1) as u16
            },
        }
    }

    fn pattern_index(&self, pc: u32) -> usize {
        usize::from(self.lht[(pc & self.lht_mask) as usize] & self.pattern_mask)
    }
}

impl Predictor for LocalPag {
    fn predict(&mut self, pc: u32, _target: u32) -> bool {
        self.pattern[self.pattern_index(pc)] >= 2
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let i = self.pattern_index(pc);
        let c = &mut self.pattern[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        let h = &mut self.lht[(pc & self.lht_mask) as usize];
        *h = (*h << 1) | u16::from(taken);
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

/// One entry of a tagged history table.
#[derive(Debug, Clone, Copy, Default)]
struct TagEntry {
    tag: u16,
    /// 3-bit counter, taken when `>= 4`. The all-zero entry is "never
    /// allocated": real allocations always set a nonzero tag (see
    /// [`TageLite::tag_of`]).
    ctr: u8,
    /// 2-bit usefulness counter; `0` makes the entry an allocation victim.
    useful: u8,
}

/// A small tagged geometric-history predictor in the TAGE family
/// (Seznec & Michaud), scaled down for this repo's kernel traces.
///
/// Components:
/// * a **base bimodal** table whose cold entries are primed with the
///   static backward-taken/forward-not-taken hint the first time a pc is
///   seen (classic static-hint priming — on once-through loop kernels the
///   cold-start policy, not history capacity, dominates accuracy);
/// * three **tagged tables** indexed by pc folded with geometrically
///   increasing global-history lengths ([`TageLite::HIST_LENS`]), with
///   8-bit tags, 3-bit prediction counters and 2-bit useful counters;
/// * the standard machinery: longest-matching table provides the
///   prediction, next match (or base) is the alternate; newly allocated
///   weak providers defer to the alternate while the adaptive
///   `use_alt_on_na` counter says so; on a misprediction an entry is
///   allocated in a longer table whose victim has `useful == 0`,
///   otherwise the candidates' useful counters decay.
#[derive(Debug, Clone)]
pub struct TageLite {
    /// Base bimodal counters; `COLD` marks never-touched entries so the
    /// first access can prime them from the branch direction.
    base: Vec<u8>,
    base_mask: u32,
    tables: Vec<Vec<TagEntry>>,
    table_mask: u32,
    ghist: u64,
    /// 4-bit counter; `>= 8` means a weak newly-allocated provider defers
    /// to its alternate prediction.
    use_alt_on_na: u8,
}

/// Where a TAGE lookup found its prediction.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    /// Longest matching tagged table, if any.
    provider: Option<usize>,
    /// Prediction of the provider entry (valid when `provider.is_some()`).
    provider_pred: bool,
    /// `true` when the provider entry is weak and has never proven useful.
    provider_weak_new: bool,
    /// The alternate prediction: next matching table, or the base.
    alt_pred: bool,
    /// Per-table (index, tag) pairs for this pc/history.
    slots: [(usize, u16); TageLite::HIST_LENS.len()],
}

impl TageLite {
    /// Global-history lengths of the tagged tables, shortest first.
    pub const HIST_LENS: [u32; 3] = [4, 8, 16];
    const COLD: u8 = 0xff;

    /// A TAGE-lite with a base bimodal of `entries` counters (power of
    /// two) and three tagged tables of `max(entries / 4, 16)` entries.
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "predictor table size must be a power of two"
        );
        let tagged = (entries / 4).max(16);
        TageLite {
            base: vec![Self::COLD; entries],
            base_mask: (entries - 1) as u32,
            tables: vec![vec![TagEntry::default(); tagged]; Self::HIST_LENS.len()],
            table_mask: (tagged - 1) as u32,
            ghist: 0,
            use_alt_on_na: 8,
        }
    }

    /// XOR-folds the low `len` history bits down to `bits` bits.
    fn fold(hist: u64, len: u32, bits: u32) -> u32 {
        let mut h = hist & ((1u64 << len) - 1);
        let mut folded = 0u64;
        while h != 0 {
            folded ^= h & ((1u64 << bits) - 1);
            h >>= bits;
        }
        folded as u32
    }

    fn index_of(&self, pc: u32, t: usize) -> usize {
        let f = Self::fold(self.ghist, Self::HIST_LENS[t], self.table_mask.count_ones());
        ((pc ^ (pc >> 4) ^ f.rotate_left(t as u32)) & self.table_mask) as usize
    }

    /// 12-bit nonzero tag (0 is reserved for never-allocated entries).
    ///
    /// The low 6 bits are pure pc so nearby branch sites can never alias
    /// onto each other's entries (cross-site aliasing is what pollutes a
    /// small-program trace); the high 6 bits fold the table's history.
    fn tag_of(&self, pc: u32, t: usize) -> u16 {
        let f = Self::fold(self.ghist, Self::HIST_LENS[t], 6);
        let tag = (((pc ^ (pc >> 6)) & 0x3f) | (f << 6)) as u16;
        if tag == 0 {
            0xa5
        } else {
            tag
        }
    }

    fn base_index(&self, pc: u32) -> usize {
        (pc & self.base_mask) as usize
    }

    /// Reads (priming if cold) the base counter's prediction.
    fn base_pred(&mut self, pc: u32, target: u32) -> bool {
        let i = self.base_index(pc);
        if self.base[i] == Self::COLD {
            // Static BTFN hint as the cold-start prior.
            self.base[i] = if target <= pc { 2 } else { 1 };
        }
        self.base[i] >= 2
    }

    fn lookup(&mut self, pc: u32, target: u32) -> Lookup {
        let mut slots = [(0usize, 0u16); Self::HIST_LENS.len()];
        for (t, slot) in slots.iter_mut().enumerate() {
            *slot = (self.index_of(pc, t), self.tag_of(pc, t));
        }
        let base = self.base_pred(pc, target);
        let mut provider = None;
        let mut alt = None;
        for t in (0..Self::HIST_LENS.len()).rev() {
            let (i, tag) = slots[t];
            if self.tables[t][i].tag == tag {
                if provider.is_none() {
                    provider = Some(t);
                } else if alt.is_none() {
                    alt = Some(t);
                    break;
                }
            }
        }
        let alt_pred = match alt {
            Some(t) => self.tables[t][slots[t].0].ctr >= 4,
            None => base,
        };
        let (provider_pred, provider_weak_new) = match provider {
            Some(t) => {
                let e = self.tables[t][slots[t].0];
                (e.ctr >= 4, e.useful == 0 && (e.ctr == 3 || e.ctr == 4))
            }
            None => (base, false),
        };
        Lookup {
            provider,
            provider_pred,
            provider_weak_new,
            alt_pred,
            slots,
        }
    }

    fn final_pred(&self, l: &Lookup) -> bool {
        if l.provider.is_some() && l.provider_weak_new && self.use_alt_on_na >= 8 {
            l.alt_pred
        } else if l.provider.is_some() {
            l.provider_pred
        } else {
            l.alt_pred
        }
    }

    fn bump3(c: &mut u8, taken: bool) {
        if taken {
            *c = (*c + 1).min(7);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

impl Predictor for TageLite {
    fn predict(&mut self, pc: u32, target: u32) -> bool {
        let l = self.lookup(pc, target);
        self.final_pred(&l)
    }

    fn update(&mut self, pc: u32, taken: bool) {
        // Recompute the lookup with the pre-update history — identical to
        // the predict-time view in trace replay, and a deterministic
        // delayed-history approximation on the pipelined machine. The
        // target is unknown here, so a still-cold base entry is seeded
        // from the outcome instead of the static hint.
        let i = self.base_index(pc);
        if self.base[i] == Self::COLD {
            self.base[i] = if taken { 2 } else { 1 };
        }
        let l = self.lookup(pc, 0);
        let pred = self.final_pred(&l);

        // Adapt the weak-new policy whenever provider and alternate
        // disagree on a weak newly-allocated entry.
        if l.provider.is_some() && l.provider_weak_new && l.provider_pred != l.alt_pred {
            if l.alt_pred == taken {
                self.use_alt_on_na = (self.use_alt_on_na + 1).min(15);
            } else {
                self.use_alt_on_na = self.use_alt_on_na.saturating_sub(1);
            }
        }

        // Train the provider (and its usefulness); always keep the base
        // trained so the alternate stays reliable.
        if let Some(t) = l.provider {
            let (idx, _) = l.slots[t];
            let e = &mut self.tables[t][idx];
            Self::bump3(&mut e.ctr, taken);
            if l.provider_pred != l.alt_pred {
                if l.provider_pred == taken {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        let b = &mut self.base[i];
        if taken {
            *b = (*b + 1).min(3);
        } else {
            *b = b.saturating_sub(1);
        }

        // Allocate on a misprediction, in a table with longer history
        // than the provider; decay usefulness when every victim resists.
        let provider_rank = l.provider.map_or(-1i32, |t| t as i32);
        if pred != taken && provider_rank < (Self::HIST_LENS.len() as i32 - 1) {
            let start = (provider_rank + 1) as usize;
            let mut allocated = false;
            for t in start..Self::HIST_LENS.len() {
                let (idx, tag) = l.slots[t];
                let e = &mut self.tables[t][idx];
                if e.useful == 0 {
                    *e = TagEntry {
                        tag,
                        ctr: if taken { 4 } else { 3 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for t in start..Self::HIST_LENS.len() {
                    let (idx, _) = l.slots[t];
                    let e = &mut self.tables[t][idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        self.ghist = (self.ghist << 1) | u64::from(taken);
    }

    fn name(&self) -> &'static str {
        "tage-lite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoBit;

    /// Drives `pred` through `pattern` repeated `reps` times at one site,
    /// returning the misprediction count.
    fn run_pattern(pred: &mut dyn Predictor, pc: u32, pattern: &[bool], reps: usize) -> u64 {
        let mut miss = 0;
        for _ in 0..reps {
            for &taken in pattern {
                if pred.predict(pc, pc.wrapping_sub(4)) != taken {
                    miss += 1;
                }
                pred.update(pc, taken);
            }
        }
        miss
    }

    #[test]
    fn gshare_history_separates_contexts() {
        // An alternating branch defeats a per-pc counter (it predicts
        // taken every time from the weak-taken oscillation) but is a
        // 1-bit history pattern gshare learns perfectly after warmup.
        let mut gs = Gshare::new(1024);
        let mut tb = TwoBit::new(1024);
        let alt: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let g = run_pattern(&mut gs, 40, &alt, 1);
        let t = run_pattern(&mut tb, 40, &alt, 1);
        assert!(g < t, "gshare {g} must beat two-bit {t} on alternation");
        // Fully warmed up, gshare stops missing entirely.
        let g2 = run_pattern(&mut gs, 40, &alt, 1);
        assert_eq!(g2, 0, "warm gshare is perfect on a period-2 pattern");
    }

    #[test]
    fn gshare_small_table_aliases() {
        // With a 2-entry table every (pc, history) context collapses onto
        // two counters, so two branches with opposite biases interfere.
        let mut gs = Gshare::new(2);
        for _ in 0..32 {
            gs.predict(0, 0);
            gs.update(0, true);
            gs.predict(1, 0);
            gs.update(1, false);
        }
        assert!(
            gs.table.iter().any(|&c| c == 1 || c == 2),
            "aliased counters are pulled both ways: {:?}",
            gs.table
        );
    }

    #[test]
    fn gshare_fold_uses_only_configured_history() {
        let mut a = Gshare::new(16); // 4 history bits
        let mut b = Gshare::new(16);
        // Histories differing only in bit 5 index identically.
        for &t in &[true, false, true, true, false, true] {
            a.update(9, t);
        }
        for &t in &[false, false, true, true, false, true] {
            b.update(9, t);
        }
        assert_eq!(a.index(9), b.index(9));
    }

    #[test]
    fn local_learns_per_site_periodic_patterns() {
        let mut lp = LocalPag::new(1024);
        let mut tb = TwoBit::new(1024);
        // Period-3 pattern: taken, taken, not-taken.
        let p: Vec<bool> = (0..60).map(|i| i % 3 != 2).collect();
        let l = run_pattern(&mut lp, 21, &p, 1);
        let t = run_pattern(&mut tb, 21, &p, 1);
        assert!(l < t, "local {l} must beat two-bit {t} on period-3");
        assert_eq!(run_pattern(&mut lp, 21, &p, 1), 0, "warm local is perfect");
    }

    #[test]
    fn local_histories_are_per_site() {
        let mut lp = LocalPag::new(256);
        // Site A alternates; site B is always taken. A per-site history
        // keeps B's pattern-table context saturated-taken.
        for i in 0..40 {
            lp.predict(3, 0);
            lp.update(3, i % 2 == 0);
            lp.predict(4, 0);
            lp.update(4, true);
        }
        assert!(lp.predict(4, 0), "site B stays predicted taken");
    }

    #[test]
    fn tage_base_is_primed_with_the_static_hint() {
        let mut t = TageLite::new(512);
        assert!(t.predict(50, 10), "cold backward branch predicted taken");
        assert!(
            !t.predict(60, 90),
            "cold forward branch predicted not taken"
        );
    }

    #[test]
    fn tage_allocates_and_provides_on_history_patterns() {
        let mut t = TageLite::new(512);
        let alt: Vec<bool> = (0..128).map(|i| i % 2 == 0).collect();
        let first = run_pattern(&mut t, 33, &alt, 1);
        let warm = run_pattern(&mut t, 33, &alt, 1);
        assert!(
            warm < first,
            "tagged tables must learn the alternation: first {first}, warm {warm}"
        );
        assert!(
            t.tables.iter().flatten().any(|e| e.tag != 0),
            "mispredictions must have allocated tagged entries"
        );
    }

    #[test]
    fn tage_useful_bits_protect_providers() {
        let mut t = TageLite::new(512);
        let alt: Vec<bool> = (0..256).map(|i| i % 2 == 0).collect();
        run_pattern(&mut t, 33, &alt, 2);
        // A warmed-up alternation has providers that repeatedly beat the
        // (taken-oscillating) base — their useful counters must be set.
        assert!(
            t.tables.iter().flatten().any(|e| e.useful > 0),
            "correct providers that disagree with the alternate gain usefulness"
        );
    }

    #[test]
    fn tage_weak_new_providers_defer_to_altpred() {
        let t = TageLite::new(512);
        assert!(t.use_alt_on_na >= 8, "starts in the conservative regime");
        let l = Lookup {
            provider: Some(1),
            provider_pred: true,
            provider_weak_new: true,
            alt_pred: false,
            slots: [(0, 1); TageLite::HIST_LENS.len()],
        };
        assert!(!t.final_pred(&l), "weak new provider defers to alternate");
        let mut t2 = t.clone();
        t2.use_alt_on_na = 0;
        assert!(t2.final_pred(&l), "trusting regime uses the provider");
    }

    #[test]
    fn fold_is_stable_and_bounded() {
        for len in [1u32, 4, 8, 16, 63] {
            for bits in [4u32, 8] {
                let f = TageLite::fold(0xdead_beef_cafe_f00d, len, bits);
                assert!(f < (1 << bits));
                assert_eq!(f, TageLite::fold(0xdead_beef_cafe_f00d, len, bits));
            }
        }
    }
}
