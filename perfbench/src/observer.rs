//! The counting [`PipelineObserver`]: the benchmark's only view inside a
//! simulation.
//!
//! It tallies the events that set the host cost of a simulator: result
//! broadcasts and the window occupancy each one must scan, dispatches,
//! commits, flushes, per-reason stalls and data-cache accesses. The
//! simulators keep their own [`RunStats`]; [`Counts::check`] requires the
//! two to agree, so a traced unit whose events and statistics disagree
//! fails.

use ruu_isa::{FuClass, Program};
use ruu_sim_core::{MachineConfig, PipelineObserver, RunStats, StallReason};

/// Event totals of one or more observed runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles (`cycle_end` events).
    pub cycles: u64,
    /// Instructions accepted by decode/issue, wrong-path ones included.
    pub issues: u64,
    /// Instructions sent to a functional unit, forwarded loads included.
    pub dispatches: u64,
    /// Result-bus completions: each one is a broadcast that an
    /// associative window matches against every waiting operand.
    pub broadcasts: u64,
    /// Σ over broadcasts of the window occupancy in the broadcast's
    /// cycle: the operand-gating work of an associative wakeup.
    pub wakeup_scans: u64,
    /// In-order commits (none for the mechanisms that do not commit).
    pub commits: u64,
    /// Pipeline flushes, one per repaired misprediction.
    pub flushes: u64,
    /// Window entries discarded by flushes.
    pub squashed: u64,
    /// Σ over cycles of window occupancy.
    pub occupancy_sum: u64,
    /// Stall cycles per reason, in [`StallReason::ALL`] order.
    pub stalls: [u64; StallReason::ALL.len()],
    /// Loads dispatched to the memory unit, forwarded ones included.
    pub load_dispatches: u64,
    /// Loads served by memory rather than by load-register forwarding.
    pub memory_loads: u64,
    /// Finite data-cache accesses (`mem_access` events).
    pub dcache_accesses: u64,
    /// The subset of `dcache_accesses` that hit a resident line.
    pub dcache_hits: u64,
}

impl Counts {
    /// Stall cycles charged to `reason`.
    #[must_use]
    pub fn stall(&self, reason: StallReason) -> u64 {
        self.stalls[reason_index(reason)]
    }

    /// Loads satisfied by forwarding from the load registers.
    #[must_use]
    pub fn forwarded_loads(&self) -> u64 {
        self.load_dispatches - self.memory_loads
    }

    /// Data-cache accesses that missed.
    #[must_use]
    pub fn dcache_misses(&self) -> u64 {
        self.dcache_accesses - self.dcache_hits
    }

    /// Adds `weight` copies of `other` (a unit the sweep grid runs
    /// `weight` times).
    pub fn add_scaled(&mut self, other: &Counts, weight: u64) {
        self.cycles += other.cycles * weight;
        self.issues += other.issues * weight;
        self.dispatches += other.dispatches * weight;
        self.broadcasts += other.broadcasts * weight;
        self.wakeup_scans += other.wakeup_scans * weight;
        self.commits += other.commits * weight;
        self.flushes += other.flushes * weight;
        self.squashed += other.squashed * weight;
        self.occupancy_sum += other.occupancy_sum * weight;
        for (into, from) in self.stalls.iter_mut().zip(other.stalls) {
            *into += from * weight;
        }
        self.load_dispatches += other.load_dispatches * weight;
        self.memory_loads += other.memory_loads * weight;
        self.dcache_accesses += other.dcache_accesses * weight;
        self.dcache_hits += other.dcache_hits * weight;
    }

    /// Checks these events against the statistics the simulator kept for
    /// the same run of `cycles` cycles.
    ///
    /// A speculative machine counts a forwarding decision when the load's
    /// address is matched, but the observer sees the forwarded load only
    /// when it dispatches; a wrong-path load squashed in between is in
    /// the statistics alone. So forwarded loads must agree exactly when
    /// nothing was squashed, and otherwise may only fall short.
    ///
    /// # Errors
    /// Names the first counter on which the two disagree.
    pub fn check(&self, stats: &RunStats, cycles: u64) -> Result<(), String> {
        let forwarded = self.forwarded_loads();
        if forwarded > stats.forwarded_loads
            || (self.squashed == 0 && forwarded != stats.forwarded_loads)
        {
            return Err(format!(
                "observer counted forwarded_loads = {forwarded}, RunStats = {}",
                stats.forwarded_loads
            ));
        }
        let mut pairs = vec![
            ("cycles".to_string(), self.cycles, cycles),
            (
                "occupancy_sum".into(),
                self.occupancy_sum,
                stats.occupancy_sum,
            ),
            (
                "dcache_accesses".into(),
                self.dcache_accesses,
                stats.dcache_accesses,
            ),
            ("dcache_hits".into(), self.dcache_hits, stats.dcache_hits),
            (
                "dcache_misses".into(),
                self.dcache_misses(),
                stats.dcache_misses,
            ),
            (
                "mispredicts".into(),
                self.flushes,
                stats.mispredicted_branches,
            ),
        ];
        for r in StallReason::ALL {
            pairs.push((format!("stall {r}"), self.stall(r), stats.stalls(r)));
        }
        match pairs
            .into_iter()
            .find(|(_, observed, kept)| observed != kept)
        {
            None => Ok(()),
            Some((what, observed, kept)) => Err(format!(
                "observer counted {what} = {observed}, RunStats = {kept}"
            )),
        }
    }
}

fn reason_index(reason: StallReason) -> usize {
    StallReason::ALL
        .iter()
        .position(|&r| r == reason)
        .expect("StallReason::ALL lists every reason")
}

/// A [`PipelineObserver`] that counts events (see [`Counts`]).
///
/// Telling a forwarded load from a memory load needs the instruction
/// behind each sequence number, so the observer maps `issue` events to the
/// pc of the preceding `fetch`, which every simulator reports first. Under
/// a finite cache a memory load is one that consulted the cache; under
/// perfect memory it is one dispatched with the memory unit's latency,
/// which differs from the forwarding latency in every configuration the
/// benchmark runs.
#[derive(Debug)]
pub struct CountingObserver<'p> {
    program: &'p Program,
    memory_latency: u64,
    finite_dcache: bool,
    last_fetch_pc: u32,
    /// Whether each sequence number is a load.
    is_load: Vec<bool>,
    completes_this_cycle: u64,
    counts: Counts,
    /// `(word address, cycle)` of every cache access, when recording.
    accesses: Option<Vec<(u64, u64)>>,
}

impl<'p> CountingObserver<'p> {
    /// An observer for one run of `program` under `config`; with
    /// `record_accesses` it also keeps the data-cache address stream.
    #[must_use]
    pub fn new(program: &'p Program, config: &MachineConfig, record_accesses: bool) -> Self {
        CountingObserver {
            program,
            memory_latency: config.fu_latency(FuClass::Memory),
            finite_dcache: !config.dcache.is_perfect(),
            last_fetch_pc: 0,
            is_load: Vec::new(),
            completes_this_cycle: 0,
            counts: Counts::default(),
            accesses: record_accesses.then(Vec::new),
        }
    }

    /// The counts and the recorded `(address, cycle)` access stream
    /// (empty unless recording).
    #[must_use]
    pub fn finish(self) -> (Counts, Vec<(u64, u64)>) {
        (self.counts, self.accesses.unwrap_or_default())
    }
}

impl PipelineObserver for CountingObserver<'_> {
    fn fetch(&mut self, _cycle: u64, pc: u32) {
        self.last_fetch_pc = pc;
    }

    fn issue(&mut self, _cycle: u64, seq: u64) {
        self.counts.issues += 1;
        let i = seq as usize;
        if i >= self.is_load.len() {
            self.is_load.resize(i + 1, false);
        }
        self.is_load[i] = self
            .program
            .get(self.last_fetch_pc)
            .is_some_and(|inst| inst.is_load());
    }

    fn dispatch(&mut self, cycle: u64, seq: u64, fu: FuClass, complete_at: u64) {
        self.counts.dispatches += 1;
        if fu == FuClass::Memory && self.is_load.get(seq as usize).copied().unwrap_or(false) {
            self.counts.load_dispatches += 1;
            if !self.finite_dcache && complete_at - cycle == self.memory_latency {
                self.counts.memory_loads += 1;
            }
        }
    }

    fn complete(&mut self, _cycle: u64, _seq: u64) {
        self.counts.broadcasts += 1;
        self.completes_this_cycle += 1;
    }

    fn commit(&mut self, _cycle: u64, _seq: u64) {
        self.counts.commits += 1;
    }

    fn flush(&mut self, _cycle: u64, squashed: u64) {
        self.counts.flushes += 1;
        self.counts.squashed += squashed;
    }

    fn stall(&mut self, _cycle: u64, reason: StallReason) {
        self.counts.stalls[reason_index(reason)] += 1;
    }

    fn mem_access(&mut self, cycle: u64, addr: u64, hit: bool, _latency: u64) {
        self.counts.dcache_accesses += 1;
        self.counts.dcache_hits += u64::from(hit);
        self.counts.memory_loads += 1;
        if let Some(stream) = &mut self.accesses {
            stream.push((addr, cycle));
        }
    }

    fn cycle_end(&mut self, _cycle: u64, occupancy: u32) {
        // Every simulator reports the occupancy its completion phase saw,
        // so the broadcasts of this cycle scanned exactly that many entries.
        let occ = u64::from(occupancy);
        self.counts.cycles += 1;
        self.counts.occupancy_sum += occ;
        self.counts.wakeup_scans += self.completes_this_cycle * occ;
        self.completes_this_cycle = 0;
    }
}
