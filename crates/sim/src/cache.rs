//! A configurable **data-cache timing model** — retiring the paper's
//! perfect-memory idealization.
//!
//! Paper §2.2 assumes "no memory bank conflicts" and a fixed data-memory
//! latency: every simulator charges a constant `mem_latency` for a load
//! that goes to memory. [`DCacheConfig::Perfect`] reproduces exactly that
//! machine — it is the default, and keeps every calibrated cycle count
//! bit-identical. A finite [`DCacheConfig::Cache`] replaces the constant
//! with a set-associative, LRU-replaced cache lookup: hits cost
//! `hit_latency`, misses cost `miss_latency`, and a bounded
//! outstanding-miss tracker (MSHR-style) limits how many fills may be in
//! flight at once.
//!
//! The cache is **timing-only**: architectural values always come from
//! [`Memory`](../../ruu_exec/struct.Memory.html), so golden-trace
//! equivalence is untouched — only *when* a load's value appears changes.
//! Addresses are canonicalized (masked to the memory size) before
//! indexing, so the cache and the load registers agree about aliased
//! addresses.

use std::fmt;

/// Data-cache configuration: the paper's perfect memory, or a finite
/// set-associative cache.
///
/// Parsed from / displayed as a `GEOM` string (see
/// [`DCacheConfig::parse`]), validated like
/// `PredictorConfig` — every geometry parameter must be a power of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DCacheConfig {
    /// The §2.2 idealization: every load that goes to memory costs the
    /// configured memory-unit latency, no state, no conflicts. The
    /// default.
    #[default]
    Perfect,
    /// A finite set-associative cache with LRU replacement and a bounded
    /// outstanding-miss tracker.
    Cache {
        /// Number of sets (power of two).
        sets: usize,
        /// Associativity: lines per set (power of two).
        ways: usize,
        /// Line size in memory words (power of two).
        line_words: usize,
        /// Cycles from dispatch to data on a hit.
        hit_latency: u64,
        /// Cycles from dispatch to data on a miss (≥ `hit_latency`).
        miss_latency: u64,
        /// Outstanding-miss (MSHR) entries; a load that misses while all
        /// are busy cannot start.
        mshrs: usize,
    },
}

/// Why a [`DCacheConfig`] failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DCacheError {
    /// A geometry parameter must be a power of two.
    NotPowerOfTwo {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        got: usize,
    },
    /// A parameter must be at least one.
    Zero {
        /// Which parameter.
        what: &'static str,
    },
    /// The miss latency may not undercut the hit latency.
    MissFasterThanHit {
        /// Configured hit latency.
        hit: u64,
        /// Configured miss latency.
        miss: u64,
    },
    /// The `GEOM` string is not `perfect` or `SETSxWAYSxLINE[:...]`.
    BadGeometry {
        /// The spec as given.
        spec: String,
    },
    /// A numeric field did not parse.
    BadNumber {
        /// Which field.
        what: &'static str,
        /// The offending text.
        got: String,
    },
}

impl fmt::Display for DCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DCacheError::NotPowerOfTwo { what, got } => {
                write!(f, "dcache {what} must be a power of two, got {got}")
            }
            DCacheError::Zero { what } => write!(f, "dcache {what} must be at least 1"),
            DCacheError::MissFasterThanHit { hit, miss } => {
                write!(f, "dcache miss latency {miss} must be >= hit latency {hit}")
            }
            DCacheError::BadGeometry { spec } => write!(
                f,
                "bad dcache geometry {spec:?} (want `perfect` or \
                 `SETSxWAYSxLINE[:MISS[:HIT[:MSHRS]]]`, e.g. `64x4x4:20`)"
            ),
            DCacheError::BadNumber { what, got } => {
                write!(f, "bad dcache {what}: {got:?} is not a number")
            }
        }
    }
}

impl std::error::Error for DCacheError {}

impl DCacheConfig {
    /// Default hit latency when the `GEOM` string leaves it out.
    pub const DEFAULT_HIT_LATENCY: u64 = 1;
    /// Default miss latency when the `GEOM` string leaves it out.
    pub const DEFAULT_MISS_LATENCY: u64 = 20;
    /// Default MSHR count when the `GEOM` string leaves it out.
    pub const DEFAULT_MSHRS: usize = 4;

    /// `true` for the perfect-memory idealization.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        matches!(self, DCacheConfig::Perfect)
    }

    /// Parses a `GEOM` string: `perfect`, or
    /// `SETSxWAYSxLINE[:MISS[:HIT[:MSHRS]]]` (e.g. `64x4x4:20`).
    ///
    /// # Errors
    /// Returns a [`DCacheError`] describing the malformed or invalid
    /// field; a parsed config is always valid.
    pub fn parse(spec: &str) -> Result<Self, DCacheError> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("perfect") {
            return Ok(DCacheConfig::Perfect);
        }
        let mut parts = spec.split(':');
        let geom = parts.next().unwrap_or_default();
        let dims: Vec<&str> = geom.split('x').collect();
        let [s, w, l] = dims.as_slice() else {
            return Err(DCacheError::BadGeometry { spec: spec.into() });
        };
        let dim = |what, text: &str| {
            text.parse::<usize>().map_err(|_| DCacheError::BadNumber {
                what,
                got: text.into(),
            })
        };
        let lat = |what, text: &str| {
            text.parse::<u64>().map_err(|_| DCacheError::BadNumber {
                what,
                got: text.into(),
            })
        };
        let sets = dim("sets", s)?;
        let ways = dim("ways", w)?;
        let line_words = dim("line size", l)?;
        let miss_latency = parts
            .next()
            .map(|t| lat("miss latency", t))
            .transpose()?
            .unwrap_or(Self::DEFAULT_MISS_LATENCY);
        let hit_latency = parts
            .next()
            .map(|t| lat("hit latency", t))
            .transpose()?
            .unwrap_or(Self::DEFAULT_HIT_LATENCY);
        let mshrs = parts
            .next()
            .map(|t| dim("mshrs", t))
            .transpose()?
            .unwrap_or(Self::DEFAULT_MSHRS);
        if parts.next().is_some() {
            return Err(DCacheError::BadGeometry { spec: spec.into() });
        }
        let cfg = DCacheConfig::Cache {
            sets,
            ways,
            line_words,
            hit_latency,
            miss_latency,
            mshrs,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks every parameter; [`DCacheConfig::parse`] never returns an
    /// invalid config, but a hand-built one is checked here (and by
    /// [`DCache::new`]).
    ///
    /// # Errors
    /// The first violated constraint.
    pub fn validate(&self) -> Result<(), DCacheError> {
        let DCacheConfig::Cache {
            sets,
            ways,
            line_words,
            hit_latency,
            miss_latency,
            mshrs,
        } = *self
        else {
            return Ok(());
        };
        for (what, got) in [("sets", sets), ("ways", ways), ("line size", line_words)] {
            if got == 0 {
                return Err(DCacheError::Zero { what });
            }
            if !got.is_power_of_two() {
                return Err(DCacheError::NotPowerOfTwo { what, got });
            }
        }
        if mshrs == 0 {
            return Err(DCacheError::Zero { what: "mshrs" });
        }
        if hit_latency == 0 {
            return Err(DCacheError::Zero {
                what: "hit latency",
            });
        }
        if miss_latency < hit_latency {
            return Err(DCacheError::MissFasterThanHit {
                hit: hit_latency,
                miss: miss_latency,
            });
        }
        Ok(())
    }
}

impl fmt::Display for DCacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DCacheConfig::Perfect => write!(f, "perfect"),
            DCacheConfig::Cache {
                sets,
                ways,
                line_words,
                hit_latency,
                miss_latency,
                mshrs,
            } => write!(
                f,
                "{sets}x{ways}x{line_words}:{miss_latency}:{hit_latency}:{mshrs}"
            ),
        }
    }
}

/// Hit/miss counters of one [`DCache`] over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads that consulted the cache.
    pub accesses: u64,
    /// Loads served from a resident, filled line (includes merges into an
    /// in-flight fill, counted separately in `mshr_hits`).
    pub hits: u64,
    /// Loads that started a fresh line fill.
    pub misses: u64,
    /// The subset of `hits` that merged into an outstanding fill.
    pub mshr_hits: u64,
}

/// What one cache lookup would do at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePlan {
    /// The line is resident and filled: data after `latency` cycles.
    Hit {
        /// Cycles until data.
        latency: u64,
    },
    /// The line is being filled by an outstanding miss; this load merges
    /// into it and gets data when the fill lands.
    MshrHit {
        /// Cycles until data.
        latency: u64,
    },
    /// A fresh miss: an MSHR is free, so a fill starts now.
    Miss {
        /// Cycles until data.
        latency: u64,
    },
    /// Every MSHR is busy: the access cannot start this cycle.
    Blocked,
}

impl CachePlan {
    /// Cycles until data, or `None` when [`CachePlan::Blocked`].
    #[must_use]
    pub fn latency(self) -> Option<u64> {
        match self {
            CachePlan::Hit { latency }
            | CachePlan::MshrHit { latency }
            | CachePlan::Miss { latency } => Some(latency),
            CachePlan::Blocked => None,
        }
    }

    /// `true` for a resident line (plain hit or MSHR merge).
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, CachePlan::Hit { .. } | CachePlan::MshrHit { .. })
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU stamp: the access clock when this line was last touched.
    last_use: u64,
    /// Cycle the fill lands; accesses before this merge into the fill.
    ready_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct Geometry {
    sets: usize,
    ways: usize,
    /// log2 of the line size in words (validated a power of two).
    line_shift: u32,
    hit_latency: u64,
    miss_latency: u64,
}

/// The runtime data cache: one per simulator run, consulted at the single
/// point each simulator charges its memory latency.
///
/// Under [`DCacheConfig::Perfect`] every call is a fixed-latency hit and
/// no state exists, so the perfect machine's timing is bit-identical to
/// the pre-cache simulators.
#[derive(Debug, Clone)]
pub struct DCache {
    geom: Option<Geometry>,
    perfect_latency: u64,
    word_mask: u64,
    lines: Vec<Line>,
    /// `ready_at` of each outstanding-miss register; an entry is free once
    /// its cycle has passed.
    mshrs: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl DCache {
    /// Builds the runtime cache for one run. `perfect_latency` is the
    /// machine's memory-unit latency (charged verbatim under
    /// [`DCacheConfig::Perfect`]); `memory_words` is the backing memory
    /// size, used to canonicalize addresses exactly like
    /// `Memory::canonicalize`.
    ///
    /// # Panics
    /// Panics if the config fails [`DCacheConfig::validate`] or
    /// `memory_words` is not a power of two.
    #[must_use]
    pub fn new(config: &DCacheConfig, perfect_latency: u64, memory_words: u64) -> Self {
        config.validate().expect("validated dcache config");
        assert!(
            memory_words.is_power_of_two(),
            "memory size must be a power of two"
        );
        let (geom, lines, mshrs) = match *config {
            DCacheConfig::Perfect => (None, Vec::new(), Vec::new()),
            DCacheConfig::Cache {
                sets,
                ways,
                line_words,
                hit_latency,
                miss_latency,
                mshrs,
            } => (
                Some(Geometry {
                    sets,
                    ways,
                    line_shift: line_words.trailing_zeros(),
                    hit_latency,
                    miss_latency,
                }),
                vec![Line::default(); sets * ways],
                vec![0u64; mshrs],
            ),
        };
        DCache {
            geom,
            perfect_latency,
            word_mask: memory_words - 1,
            lines,
            mshrs,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// `true` when a finite cache is modelled (i.e. not
    /// [`DCacheConfig::Perfect`]).
    #[must_use]
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.geom.is_some()
    }

    /// This run's hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set a word address indexes, after canonicalization — `None`
    /// under [`DCacheConfig::Perfect`].
    #[must_use]
    pub fn set_of(&self, addr: u64) -> Option<usize> {
        let g = self.geom?;
        Some(self.locate(addr, &g).0)
    }

    /// The way currently holding a word address, if resident — `None`
    /// under [`DCacheConfig::Perfect`] or when the line is absent.
    #[must_use]
    pub fn way_of(&self, addr: u64) -> Option<usize> {
        let g = self.geom?;
        let (set, tag) = self.locate(addr, &g);
        self.find_way(&g, set, tag)
    }

    /// The set and tag of a word address: canonicalized exactly like
    /// `Memory::canonicalize`, with the offset-in-line bits dropped.
    #[inline]
    fn locate(&self, addr: u64, g: &Geometry) -> (usize, u64) {
        let ln = (addr & self.word_mask) >> g.line_shift;
        let set = (ln as usize) & (g.sets - 1);
        let tag = ln >> g.sets.trailing_zeros();
        (set, tag)
    }

    /// The way of `set` holding `tag`, if resident.
    #[inline]
    fn find_way(&self, g: &Geometry, set: usize, tag: u64) -> Option<usize> {
        let base = set * g.ways;
        self.lines[base..base + g.ways]
            .iter()
            .position(|line| line.valid && line.tag == tag)
    }

    /// What a lookup at `cycle` costs, given the way of `set` that
    /// [`DCache::find_way`] found.
    #[inline]
    fn plan_way(&self, g: &Geometry, set: usize, way: Option<usize>, cycle: u64) -> CachePlan {
        match way {
            Some(w) => {
                let ready_at = self.lines[set * g.ways + w].ready_at;
                if ready_at > cycle {
                    CachePlan::MshrHit {
                        latency: (ready_at - cycle).max(g.hit_latency),
                    }
                } else {
                    CachePlan::Hit {
                        latency: g.hit_latency,
                    }
                }
            }
            None if self.mshrs.iter().any(|&busy_until| busy_until <= cycle) => CachePlan::Miss {
                latency: g.miss_latency,
            },
            None => CachePlan::Blocked,
        }
    }

    /// What a load of `addr` dispatched at `cycle` would cost — pure: no
    /// state changes. Call [`DCache::access`] once the load actually
    /// dispatches.
    #[must_use]
    #[inline]
    pub fn plan(&self, addr: u64, cycle: u64) -> CachePlan {
        let Some(g) = self.geom else {
            return CachePlan::Hit {
                latency: self.perfect_latency,
            };
        };
        let (set, tag) = self.locate(addr, &g);
        self.plan_way(&g, set, self.find_way(&g, set, tag), cycle)
    }

    /// The earliest cycle at which an outstanding-miss register frees —
    /// the first cycle an access that [`DCache::plan`] reports as
    /// [`CachePlan::Blocked`] could start. Pure; `None` under
    /// [`DCacheConfig::Perfect`], which never blocks.
    #[must_use]
    #[inline]
    pub fn next_fill(&self) -> Option<u64> {
        self.mshrs.iter().min().copied()
    }

    /// Performs the load of `addr` at `cycle`: updates LRU state, starts a
    /// fill on a miss, counts statistics. Returns the same plan
    /// [`DCache::plan`] reported for the same arguments.
    #[inline]
    pub fn access(&mut self, addr: u64, cycle: u64) -> CachePlan {
        let Some(g) = self.geom else {
            return CachePlan::Hit {
                latency: self.perfect_latency,
            };
        };
        let (set, tag) = self.locate(addr, &g);
        let way = self.find_way(&g, set, tag);
        let plan = self.plan_way(&g, set, way, cycle);
        let base = set * g.ways;
        match plan {
            CachePlan::Hit { .. } | CachePlan::MshrHit { .. } => {
                self.clock += 1;
                self.stats.accesses += 1;
                self.stats.hits += 1;
                if matches!(plan, CachePlan::MshrHit { .. }) {
                    self.stats.mshr_hits += 1;
                }
                let way = way.expect("a planned hit has a resident line");
                self.lines[base + way].last_use = self.clock;
            }
            CachePlan::Miss { .. } => {
                self.clock += 1;
                self.stats.accesses += 1;
                self.stats.misses += 1;
                let slot = self
                    .mshrs
                    .iter()
                    .position(|&busy_until| busy_until <= cycle)
                    .expect("a planned miss has a free MSHR");
                self.mshrs[slot] = cycle + g.miss_latency;
                // Victim: an invalid way if any, else the least recently
                // used (ties broken by way index — deterministic).
                let victim = (0..g.ways)
                    .find(|&w| !self.lines[base + w].valid)
                    .unwrap_or_else(|| {
                        (0..g.ways)
                            .min_by_key(|&w| self.lines[base + w].last_use)
                            .expect("ways >= 1")
                    });
                self.lines[base + victim] = Line {
                    tag,
                    valid: true,
                    last_use: self.clock,
                    ready_at: cycle + g.miss_latency,
                };
            }
            // Not an access: the caller must retry.
            CachePlan::Blocked => {}
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(miss: u64) -> DCacheConfig {
        DCacheConfig::Cache {
            sets: 4,
            ways: 2,
            line_words: 4,
            hit_latency: 1,
            miss_latency: miss,
            mshrs: 2,
        }
    }

    #[test]
    fn perfect_is_a_fixed_latency_hit() {
        let mut c = DCache::new(&DCacheConfig::Perfect, 11, 1 << 10);
        for cycle in 0..100 {
            assert_eq!(c.access(cycle * 97, cycle), CachePlan::Hit { latency: 11 });
        }
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.is_finite());
        assert_eq!(c.next_fill(), None);
    }

    #[test]
    fn miss_then_hit_on_the_same_line() {
        let mut c = DCache::new(&small(20), 11, 1 << 10);
        assert_eq!(c.access(64, 0), CachePlan::Miss { latency: 20 });
        // Same line, after the fill lands: a plain hit.
        assert_eq!(c.access(65, 30), CachePlan::Hit { latency: 1 });
        // Before the fill lands: merges into the outstanding fill.
        let mut c = DCache::new(&small(20), 11, 1 << 10);
        assert_eq!(c.access(64, 0), CachePlan::Miss { latency: 20 });
        assert_eq!(c.access(67, 5), CachePlan::MshrHit { latency: 15 });
        assert_eq!(c.stats().mshr_hits, 1);
    }

    #[test]
    fn bounded_mshrs_block_a_third_concurrent_miss() {
        let mut c = DCache::new(&small(20), 11, 1 << 10);
        assert_eq!(c.access(0, 0), CachePlan::Miss { latency: 20 });
        assert_eq!(c.access(64, 3), CachePlan::Miss { latency: 20 });
        // Two fills in flight, two MSHRs: a third distinct line blocks
        // until the first fill lands.
        assert_eq!(c.next_fill(), Some(20));
        for cycle in 4..20 {
            assert_eq!(c.plan(128, cycle), CachePlan::Blocked);
        }
        assert_eq!(c.access(128, 1), CachePlan::Blocked);
        // Blocked attempts are not accesses.
        assert_eq!(c.stats().accesses, 2);
        // Once a fill lands its MSHR frees.
        assert_eq!(c.access(128, 20), CachePlan::Miss { latency: 20 });
    }

    #[test]
    fn lru_evicts_the_least_recently_used_way() {
        // 1 set x 2 ways x 1-word lines: three distinct words thrash.
        let cfg = DCacheConfig::Cache {
            sets: 1,
            ways: 2,
            line_words: 1,
            hit_latency: 1,
            miss_latency: 4,
            mshrs: 4,
        };
        let mut c = DCache::new(&cfg, 11, 1 << 10);
        assert!(matches!(c.access(1, 0), CachePlan::Miss { .. }));
        assert!(matches!(c.access(2, 10), CachePlan::Miss { .. }));
        // Touch 1 so 2 becomes LRU; 3 must evict 2, not 1.
        assert!(matches!(c.access(1, 20), CachePlan::Hit { .. }));
        assert!(matches!(c.access(3, 30), CachePlan::Miss { .. }));
        assert!(matches!(c.access(1, 40), CachePlan::Hit { .. }));
        assert!(matches!(c.access(2, 50), CachePlan::Miss { .. }));
    }

    #[test]
    fn aliased_addresses_index_the_same_set_and_way() {
        let words = 1u64 << 10;
        let mut c = DCache::new(&small(20), 11, words);
        c.access(100, 0);
        assert_eq!(c.set_of(100), c.set_of(100 + words));
        assert_eq!(c.way_of(100), c.way_of(100 + words));
        assert!(c.way_of(100 + words).is_some());
        // The alias is a hit: it is the same memory word.
        assert!(c.plan(100 + words, 40).is_hit());
    }

    /// Every line size a geometry may have, 4-way and 8-set.
    fn line_sizes(miss: u64) -> impl Iterator<Item = (usize, DCacheConfig)> {
        [1usize, 2, 4, 8, 16].into_iter().map(move |line_words| {
            let cfg = DCacheConfig::Cache {
                sets: 8,
                ways: 4,
                line_words,
                hit_latency: 1,
                miss_latency: miss,
                mshrs: 2,
            };
            (line_words, cfg)
        })
    }

    #[test]
    fn plan_matches_access() {
        for (line_words, cfg) in line_sizes(7) {
            let mut c = DCache::new(&cfg, 11, 1 << 10);
            let mut cycle = 0;
            let mut blocked = 0;
            for i in 0..400u64 {
                let addr = (i * 37) % (48 * line_words as u64);
                let planned = c.plan(addr, cycle);
                assert_eq!(planned, c.access(addr, cycle), "{line_words}-word lines");
                blocked += u64::from(planned == CachePlan::Blocked);
                cycle += 3;
            }
            let s = c.stats();
            assert_eq!(s.accesses, s.hits + s.misses);
            assert_eq!(s.accesses + blocked, 400);
            assert!(s.hits > 0 && s.misses > 0, "{line_words}-word lines");
        }
    }

    #[test]
    fn set_and_way_follow_the_line_number_at_every_line_size() {
        let words = 1u64 << 10;
        for (line_words, cfg) in line_sizes(4) {
            let line_words = line_words as u64;
            let mut c = DCache::new(&cfg, 11, words);
            for i in 0..300u64 {
                // every third address is an alias past the memory size
                let addr = (i * 53) % 300 + (i % 3) * words;
                let line = (addr % words) / line_words;
                assert_eq!(
                    c.set_of(addr),
                    Some(line as usize % 8),
                    "{line_words}: {addr}"
                );
                // one access at a time, each after the last fill landed
                if c.access(addr, i * 10).latency().is_none() {
                    panic!("{line_words}-word lines: a lone miss never blocks");
                }
                let way = c.way_of(addr);
                assert!(
                    way.is_some(),
                    "{line_words}: {addr} resident after its access"
                );
                // every word of the line shares its way ...
                for w in line * line_words..(line + 1) * line_words {
                    assert_eq!(c.way_of(w), way, "{line_words}: word {w} of line {line}");
                }
                // ... and the next line of the same set, resident or not,
                // is not in it
                let next = (line + 8) * line_words % words;
                assert_ne!(c.way_of(next), way, "{line_words}: {next} aliases {addr}");
            }
        }
    }

    #[test]
    fn parse_roundtrips_display() {
        for spec in ["perfect", "64x4x4:20:1:4", "8x1x2:5:2:1", "16x2x8:20:1:4"] {
            let c = DCacheConfig::parse(spec).unwrap();
            assert_eq!(DCacheConfig::parse(&c.to_string()).unwrap(), c, "{spec}");
        }
        // Shorthand forms fill in defaults.
        assert_eq!(
            DCacheConfig::parse("64x4x4").unwrap(),
            DCacheConfig::Cache {
                sets: 64,
                ways: 4,
                line_words: 4,
                hit_latency: DCacheConfig::DEFAULT_HIT_LATENCY,
                miss_latency: DCacheConfig::DEFAULT_MISS_LATENCY,
                mshrs: DCacheConfig::DEFAULT_MSHRS,
            }
        );
        assert_eq!(
            DCacheConfig::parse("64x4x4:5").unwrap(),
            DCacheConfig::Cache {
                sets: 64,
                ways: 4,
                line_words: 4,
                hit_latency: DCacheConfig::DEFAULT_HIT_LATENCY,
                miss_latency: 5,
                mshrs: DCacheConfig::DEFAULT_MSHRS,
            }
        );
    }

    #[test]
    fn non_power_of_two_is_a_typed_error_not_a_panic() {
        assert_eq!(
            DCacheConfig::parse("3x4x4"),
            Err(DCacheError::NotPowerOfTwo {
                what: "sets",
                got: 3
            })
        );
        assert_eq!(
            DCacheConfig::parse("4x4x6"),
            Err(DCacheError::NotPowerOfTwo {
                what: "line size",
                got: 6
            })
        );
        assert_eq!(
            DCacheConfig::parse("4x0x4"),
            Err(DCacheError::Zero { what: "ways" })
        );
        assert!(matches!(
            DCacheConfig::parse("64x4"),
            Err(DCacheError::BadGeometry { .. })
        ));
        assert!(matches!(
            DCacheConfig::parse("64x4xq"),
            Err(DCacheError::BadNumber { .. })
        ));
        assert_eq!(
            DCacheConfig::parse("4x4x4:1:5"),
            Err(DCacheError::MissFasterThanHit { hit: 5, miss: 1 })
        );
    }

    #[test]
    fn default_is_perfect() {
        assert!(DCacheConfig::default().is_perfect());
        assert_eq!(DCacheConfig::default().to_string(), "perfect");
    }
}
