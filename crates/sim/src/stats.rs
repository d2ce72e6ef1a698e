//! Run statistics shared by every issue-mechanism simulator.

use std::fmt;

use ruu_exec::{ArchState, Memory};

/// Why the decode/issue stage could not issue an instruction this cycle.
///
/// The categories follow the paper's discussion: operand waits (data
/// dependencies, §2.2/§3), structural waits (window full, functional unit
/// or result-bus conflicts), the per-register instance limit of the NI/LI
/// counters (§5.1), load-register exhaustion (§3.2.1.2), branch-condition
/// waits and the dead cycles that follow every branch (§2.2, §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// A source operand was not available (in-order mechanisms only).
    OperandsNotReady,
    /// The destination register was busy (in-order mechanisms only).
    DestinationBusy,
    /// The target functional unit could not accept the instruction. No
    /// core reports it today: every unit is pipelined, and the in-order
    /// decode stage issues at most one instruction a cycle.
    FuBusy,
    /// No result-bus slot at the completion cycle.
    BusConflict,
    /// The window (reservation stations / tag unit / RSTU / RUU) was full.
    WindowFull,
    /// No free load register for a memory operation.
    LoadRegFull,
    /// The NI counter for the destination register was saturated.
    RegInstanceLimit,
    /// A branch was waiting in decode/issue for its condition value.
    BranchWait,
    /// Dead cycle after a branch (instruction fetch redirect).
    DeadCycle,
    /// Fetch stalled while the pipeline repaired a branch misprediction
    /// (squash + redirect, §7 speculative machines only).
    MispredictRepair,
    /// The data cache could not start the access (all outstanding-miss
    /// registers busy). Never charged under `DCacheConfig::Perfect`.
    MemStall,
    /// Nothing left to issue (program drained, pipeline emptying).
    Drained,
}

impl StallReason {
    /// All reasons, for iteration in reports.
    pub const ALL: [StallReason; 12] = [
        StallReason::OperandsNotReady,
        StallReason::DestinationBusy,
        StallReason::FuBusy,
        StallReason::BusConflict,
        StallReason::WindowFull,
        StallReason::LoadRegFull,
        StallReason::RegInstanceLimit,
        StallReason::BranchWait,
        StallReason::DeadCycle,
        StallReason::MispredictRepair,
        StallReason::MemStall,
        StallReason::Drained,
    ];

    #[inline]
    pub(crate) fn idx(self) -> usize {
        match self {
            StallReason::OperandsNotReady => 0,
            StallReason::DestinationBusy => 1,
            StallReason::FuBusy => 2,
            StallReason::BusConflict => 3,
            StallReason::WindowFull => 4,
            StallReason::LoadRegFull => 5,
            StallReason::RegInstanceLimit => 6,
            StallReason::BranchWait => 7,
            StallReason::DeadCycle => 8,
            StallReason::MispredictRepair => 9,
            StallReason::MemStall => 10,
            StallReason::Drained => 11,
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallReason::OperandsNotReady => "operands-not-ready",
            StallReason::DestinationBusy => "destination-busy",
            StallReason::FuBusy => "fu-busy",
            StallReason::BusConflict => "bus-conflict",
            StallReason::WindowFull => "window-full",
            StallReason::LoadRegFull => "load-reg-full",
            StallReason::RegInstanceLimit => "reg-instance-limit",
            StallReason::BranchWait => "branch-wait",
            StallReason::DeadCycle => "dead-cycle",
            StallReason::MispredictRepair => "mispredict-repair",
            StallReason::MemStall => "mem-stall",
            StallReason::Drained => "drained",
        };
        f.write_str(s)
    }
}

/// Counters accumulated during a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    stall_cycles: [u64; StallReason::ALL.len()],
    /// Cycles in which an instruction issued from decode.
    pub issue_cycles: u64,
    /// Dynamic branches issued.
    pub branches: u64,
    /// Dynamic taken branches.
    pub taken_branches: u64,
    /// Sum over cycles of window occupancy (for mean occupancy).
    pub occupancy_sum: u64,
    /// Peak window occupancy observed.
    pub occupancy_peak: u32,
    /// Loads satisfied by forwarding from the load registers rather than
    /// memory.
    pub forwarded_loads: u64,
    /// Conditional branches whose direction was actually predicted
    /// (speculative machines only; zero elsewhere).
    pub predicted_branches: u64,
    /// Predicted branches that resolved against the prediction and forced
    /// a squash (speculative machines only; zero elsewhere).
    pub mispredicted_branches: u64,
    /// Data-cache accesses (loads that consulted a finite `DCache`; zero
    /// under `DCacheConfig::Perfect`).
    pub dcache_accesses: u64,
    /// Data-cache hits (including merges into an outstanding fill).
    pub dcache_hits: u64,
    /// Data-cache misses that started a fresh line fill.
    pub dcache_misses: u64,
}

impl RunStats {
    /// Records a stalled decode/issue cycle.
    #[inline]
    pub fn stall(&mut self, reason: StallReason) {
        self.stall_cycles[reason.idx()] += 1;
    }

    /// Stall cycles attributed to `reason`.
    #[must_use]
    pub fn stalls(&self, reason: StallReason) -> u64 {
        self.stall_cycles[reason.idx()]
    }

    /// Total stalled decode/issue cycles.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Records the window occupancy at the start of a cycle.
    #[inline]
    pub fn observe_occupancy(&mut self, occ: u32) {
        self.occupancy_sum += u64::from(occ);
        self.occupancy_peak = self.occupancy_peak.max(occ);
    }

    /// Records `n` cycles that each stalled for `reason` with `occ`
    /// instructions in flight: the same counts as `n` calls to
    /// [`RunStats::stall`] and [`RunStats::observe_occupancy`].
    #[inline]
    pub fn idle_span(&mut self, n: u64, reason: StallReason, occ: u32) {
        if n == 0 {
            return;
        }
        self.stall_cycles[reason.idx()] += n;
        self.occupancy_sum += n * u64::from(occ);
        self.occupancy_peak = self.occupancy_peak.max(occ);
    }

    /// Mean window occupancy over a run of `cycles` cycles, or `None`
    /// for an empty (zero-cycle) run.
    #[must_use]
    pub fn mean_occupancy(&self, cycles: u64) -> Option<f64> {
        if cycles == 0 {
            None
        } else {
            Some(self.occupancy_sum as f64 / cycles as f64)
        }
    }

    /// Branch mispredictions per 1000 of `instructions`.
    #[must_use]
    pub fn branch_mpki(&self, instructions: u64) -> f64 {
        per_kilo(self.mispredicted_branches, instructions)
    }

    /// Data-cache misses per 1000 of `instructions`.
    #[must_use]
    pub fn dcache_mpki(&self, instructions: u64) -> f64 {
        per_kilo(self.dcache_misses, instructions)
    }

    /// Fraction of data-cache accesses that hit (`0.0` for an idle cache).
    #[must_use]
    pub fn dcache_hit_rate(&self) -> f64 {
        if self.dcache_accesses == 0 {
            0.0
        } else {
            self.dcache_hits as f64 / self.dcache_accesses as f64
        }
    }

    /// Adds another run's counters into this one (suite totals). The
    /// peak occupancy is the larger of the two peaks.
    pub fn absorb(&mut self, other: &RunStats) {
        for (into, from) in self.stall_cycles.iter_mut().zip(other.stall_cycles) {
            *into += from;
        }
        self.issue_cycles += other.issue_cycles;
        self.branches += other.branches;
        self.taken_branches += other.taken_branches;
        self.occupancy_sum += other.occupancy_sum;
        self.occupancy_peak = self.occupancy_peak.max(other.occupancy_peak);
        self.forwarded_loads += other.forwarded_loads;
        self.predicted_branches += other.predicted_branches;
        self.mispredicted_branches += other.mispredicted_branches;
        self.dcache_accesses += other.dcache_accesses;
        self.dcache_hits += other.dcache_hits;
        self.dcache_misses += other.dcache_misses;
    }
}

/// `events` per 1000 `instructions` (`0.0` for an empty run).
fn per_kilo(events: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        events as f64 * 1000.0 / instructions as f64
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "issue cycles     {:>10}", self.issue_cycles)?;
        for r in StallReason::ALL {
            let n = self.stalls(r);
            if n > 0 {
                writeln!(f, "stall {r:<22} {n:>10}")?;
            }
        }
        writeln!(
            f,
            "branches         {:>10} ({} taken)",
            self.branches, self.taken_branches
        )?;
        if self.predicted_branches > 0 {
            writeln!(
                f,
                "predicted        {:>10} ({} mispredicted)",
                self.predicted_branches, self.mispredicted_branches
            )?;
        }
        writeln!(f, "forwarded loads  {:>10}", self.forwarded_loads)?;
        if self.dcache_accesses > 0 {
            writeln!(
                f,
                "dcache           {:>10} accesses ({} hits, {} misses)",
                self.dcache_accesses, self.dcache_hits, self.dcache_misses
            )?;
        }
        let cycles = self.issue_cycles + self.total_stalls();
        match self.mean_occupancy(cycles) {
            Some(mean) => writeln!(
                f,
                "occupancy        {mean:>10.2} mean / {} peak",
                self.occupancy_peak
            )?,
            None => writeln!(f, "occupancy        {:>10} (empty run)", "-")?,
        }
        Ok(())
    }
}

/// The result of a completed simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total clock cycles from first fetch to last commit.
    pub cycles: u64,
    /// Dynamic instructions executed (and, for precise machines,
    /// committed).
    pub instructions: u64,
    /// Final architectural state (registers + pc).
    pub state: ArchState,
    /// Final memory contents.
    pub memory: Memory,
    /// Detailed counters.
    pub stats: RunStats,
}

impl RunResult {
    /// Instructions per cycle — the paper's "instruction issue rate" — or
    /// `None` for an empty (zero-cycle) run.
    #[must_use]
    pub fn try_issue_rate(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(self.instructions as f64 / self.cycles as f64)
        }
    }

    /// Instructions per cycle. Returns the NaN-free sentinel `0.0` for a
    /// zero-cycle run; use [`RunResult::try_issue_rate`] to distinguish an
    /// empty run from a genuinely zero rate.
    #[must_use]
    pub fn issue_rate(&self) -> f64 {
        self.try_issue_rate().unwrap_or(0.0)
    }

    /// Speedup of this run relative to a baseline cycle count for the same
    /// instruction stream (the paper's "relative speedup" against the
    /// simple issue mechanism of Table 1), or `None` for an empty run.
    #[must_use]
    pub fn try_speedup_vs(&self, baseline_cycles: u64) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(baseline_cycles as f64 / self.cycles as f64)
        }
    }

    /// Speedup relative to `baseline_cycles`. Returns the NaN-free
    /// sentinel `0.0` for a zero-cycle run; use
    /// [`RunResult::try_speedup_vs`] to distinguish that case.
    #[must_use]
    pub fn speedup_vs(&self, baseline_cycles: u64) -> f64 {
        self.try_speedup_vs(baseline_cycles).unwrap_or(0.0)
    }

    /// Mean window occupancy over the run, or `None` for an empty run.
    #[must_use]
    pub fn mean_occupancy(&self) -> Option<f64> {
        self.stats.mean_occupancy(self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_accounting() {
        let mut s = RunStats::default();
        s.stall(StallReason::FuBusy);
        s.stall(StallReason::FuBusy);
        s.stall(StallReason::DeadCycle);
        assert_eq!(s.stalls(StallReason::FuBusy), 2);
        assert_eq!(s.total_stalls(), 3);
        assert!(s.to_string().contains("fu-busy"));
    }

    #[test]
    fn occupancy_tracking() {
        let mut s = RunStats::default();
        s.observe_occupancy(2);
        s.observe_occupancy(6);
        assert_eq!(s.occupancy_sum, 8);
        assert_eq!(s.occupancy_peak, 6);
    }

    #[test]
    fn idle_span_counts_like_its_cycles() {
        let mut spanned = RunStats::default();
        let mut stepped = RunStats::default();
        for (n, reason, occ) in [
            (3, StallReason::BranchWait, 5),
            (4, StallReason::MemStall, 2),
            (1, StallReason::BranchWait, 0),
        ] {
            spanned.idle_span(n, reason, occ);
            for _ in 0..n {
                stepped.stall(reason);
                stepped.observe_occupancy(occ);
            }
        }
        assert_eq!(spanned, stepped);
        assert_eq!(spanned.stalls(StallReason::BranchWait), 4);
        assert_eq!(spanned.occupancy_sum, 3 * 5 + 4 * 2);
        assert_eq!(spanned.occupancy_peak, 5);
        // An empty span changes nothing, not even the peak.
        spanned.idle_span(0, StallReason::Drained, 9);
        assert_eq!(spanned, stepped);
    }

    #[test]
    fn rates() {
        let r = RunResult {
            cycles: 200,
            instructions: 100,
            state: ArchState::new(),
            memory: Memory::new(8),
            stats: RunStats::default(),
        };
        assert!((r.issue_rate() - 0.5).abs() < 1e-12);
        assert!((r.speedup_vs(400) - 2.0).abs() < 1e-12);
        assert!((r.try_issue_rate().unwrap() - 0.5).abs() < 1e-12);
        assert!((r.try_speedup_vs(400).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_runs_have_no_rates() {
        let r = RunResult {
            cycles: 0,
            instructions: 0,
            state: ArchState::new(),
            memory: Memory::new(8),
            stats: RunStats::default(),
        };
        assert_eq!(r.try_issue_rate(), None);
        assert_eq!(r.try_speedup_vs(400), None);
        assert_eq!(r.mean_occupancy(), None);
        // The legacy helpers keep their documented NaN-free sentinel.
        assert_eq!(r.issue_rate(), 0.0);
        assert_eq!(r.speedup_vs(400), 0.0);
    }

    #[test]
    fn absorb_sums_counters_and_keeps_the_mean_occupancy() {
        // Three cycles: one issue, then an operand stall, then a drain.
        let mut run = RunStats {
            issue_cycles: 1,
            ..RunStats::default()
        };
        run.stall(StallReason::OperandsNotReady);
        run.stall(StallReason::Drained);
        for occ in [1, 1, 0] {
            run.observe_occupancy(occ);
        }
        let mean = run.mean_occupancy(3).expect("nonzero cycles");
        assert!((mean - 2.0 / 3.0).abs() < 1e-12);

        let mut total = RunStats::default();
        total.absorb(&run);
        total.absorb(&run);
        assert_eq!(total.issue_cycles, 2);
        assert_eq!(total.stalls(StallReason::Drained), 2);
        assert_eq!(total.total_stalls(), 4);
        assert_eq!(total.occupancy_peak, 1);
        assert_eq!(total.mean_occupancy(6), Some(mean));
    }

    #[test]
    fn mpki_and_hit_rate_have_one_definition() {
        let s = RunStats {
            mispredicted_branches: 3,
            dcache_accesses: 8,
            dcache_hits: 6,
            dcache_misses: 2,
            ..RunStats::default()
        };
        assert_eq!(s.branch_mpki(1500), 2.0);
        assert_eq!(s.dcache_mpki(500), 4.0);
        assert_eq!(s.dcache_hit_rate(), 0.75);
        // Empty runs and idle caches report zero, never NaN.
        assert_eq!(s.branch_mpki(0), 0.0);
        assert_eq!(RunStats::default().dcache_hit_rate(), 0.0);
    }

    #[test]
    fn occupancy_in_display_and_mean() {
        let mut s = RunStats {
            issue_cycles: 2,
            ..RunStats::default()
        };
        s.stall(StallReason::Drained);
        s.observe_occupancy(2);
        s.observe_occupancy(4);
        s.observe_occupancy(6);
        assert_eq!(s.mean_occupancy(3), Some(4.0));
        assert_eq!(s.mean_occupancy(0), None);
        let shown = s.to_string();
        assert!(shown.contains("occupancy"));
        assert!(shown.contains("6 peak"));
    }
}
