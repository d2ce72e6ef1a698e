//! Per-cycle pipeline observability.
//!
//! Every issue-mechanism simulator exposes its canonical pipeline events
//! through the [`PipelineObserver`] trait: an observer is handed to
//! `IssueSimulator::run_observed` (in `ruu-issue`) and receives one
//! callback per event as the simulated machine advances. The hooks mirror
//! the paper's cycle accounting: in any cycle the decode/issue stage either
//! issues an instruction or stalls for exactly one [`StallReason`], so
//!
//! ```text
//! cycles == issue_cycles + Σ stall_cycles
//! ```
//!
//! — the invariant [`CycleAccountant`] enforces. [`FlushAccountant`] ties
//! every squash to a recorded misprediction, and [`ChromeTraceObserver`]
//! writes Chrome `trace_event` JSON for `chrome://tracing` (driven by the
//! `ruu-sim trace` subcommand). The suite totals the engine and the bench
//! tables report come from each run's `RunStats`, not from an observer;
//! the workspace tests check that the two agree.
//!
//! All per-cycle hooks have no-op defaults, so an observer implements
//! only what it needs. The cores compile their unobserved entry points
//! against the null observer, whose empty hooks inline away; observed
//! runs pay one virtual call per event. The one bulk hook,
//! [`PipelineObserver::idle_span`], replays a stretch of idle cycles as
//! per-cycle calls unless an observer counts it in one step.

use std::fmt;

use ruu_isa::FuClass;

use crate::json::JsonWriter;
use crate::stats::StallReason;

/// Receiver for the canonical pipeline events of one simulation run.
///
/// Cycle numbers are nondecreasing across calls. `seq` is the dynamic
/// instruction sequence number as counted by the emitting simulator
/// (speculative machines number squashed instructions too).
pub trait PipelineObserver {
    /// An instruction was presented to the decode/issue stage this cycle.
    /// Fires at most once per cycle (one instruction decoded per cycle).
    fn fetch(&mut self, _cycle: u64, _pc: u32) {}

    /// The decode/issue stage accepted an instruction (into the window,
    /// or straight to a functional unit in the in-order machines).
    fn issue(&mut self, _cycle: u64, _seq: u64) {}

    /// An instruction left the window for functional unit `fu`; its result
    /// appears on the result bus at `complete_at`.
    fn dispatch(&mut self, _cycle: u64, _seq: u64, _fu: FuClass, _complete_at: u64) {}

    /// A functional-unit result came back over the result bus.
    fn complete(&mut self, _cycle: u64, _seq: u64) {}

    /// An instruction retired its result to the architectural state.
    fn commit(&mut self, _cycle: u64, _seq: u64) {}

    /// Speculative state was squashed (mispredict repair); `squashed` is
    /// the number of in-flight window entries discarded.
    fn flush(&mut self, _cycle: u64, _squashed: u64) {}

    /// The decode/issue stage could not issue this cycle.
    fn stall(&mut self, _cycle: u64, _reason: StallReason) {}

    /// A load consulted a finite data cache (`DCacheConfig::Cache`): the
    /// canonical word address, whether the line was resident, and the
    /// cycles until the data arrives. Never fires under
    /// `DCacheConfig::Perfect`, keeping the perfect machine's event
    /// stream identical to the pre-cache simulators.
    fn mem_access(&mut self, _cycle: u64, _addr: u64, _hit: bool, _latency: u64) {}

    /// A simulated cycle ended with `occupancy` instructions in the
    /// window (in-flight count for the windowless in-order machines).
    /// Every simulated cycle ends once: either through this hook, or
    /// inside an [`PipelineObserver::idle_span`].
    fn cycle_end(&mut self, _cycle: u64, _occupancy: u32) {}

    /// The `n` cycles `from..from + n` were idle: in each, decode stalled
    /// for `reason`, the instruction at `pc` (if any) was presented to
    /// it, nothing else happened, and the cycle ended with `occupancy`
    /// instructions in flight. A core reports such a stretch in one call
    /// instead of stepping through it.
    ///
    /// The default replays the span as the per-cycle `fetch`, `stall` and
    /// `cycle_end` calls, so an observer that only implements those sees
    /// exactly the stream a cycle-by-cycle run produces. Observers that
    /// only count override it with an O(1) update.
    fn idle_span(
        &mut self,
        from: u64,
        n: u64,
        pc: Option<u32>,
        reason: StallReason,
        occupancy: u32,
    ) {
        for cycle in from..from + n {
            if let Some(pc) = pc {
                self.fetch(cycle, pc);
            }
            self.stall(cycle, reason);
            self.cycle_end(cycle, occupancy);
        }
    }
}

/// Observer that ignores every event; used by the unobserved `run` /
/// `run_from` entry points. An idle span costs it nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl PipelineObserver for NullObserver {
    fn idle_span(&mut self, _: u64, _: u64, _: Option<u32>, _: StallReason, _: u32) {}
}

/// Fans every event out to two observers (e.g. a [`CycleAccountant`]
/// alongside a [`ChromeTraceObserver`]).
pub struct Tee<'a> {
    a: &'a mut dyn PipelineObserver,
    b: &'a mut dyn PipelineObserver,
}

impl<'a> Tee<'a> {
    /// Pairs two observers.
    pub fn new(a: &'a mut dyn PipelineObserver, b: &'a mut dyn PipelineObserver) -> Self {
        Tee { a, b }
    }
}

impl PipelineObserver for Tee<'_> {
    fn fetch(&mut self, cycle: u64, pc: u32) {
        self.a.fetch(cycle, pc);
        self.b.fetch(cycle, pc);
    }
    fn issue(&mut self, cycle: u64, seq: u64) {
        self.a.issue(cycle, seq);
        self.b.issue(cycle, seq);
    }
    fn dispatch(&mut self, cycle: u64, seq: u64, fu: FuClass, complete_at: u64) {
        self.a.dispatch(cycle, seq, fu, complete_at);
        self.b.dispatch(cycle, seq, fu, complete_at);
    }
    fn complete(&mut self, cycle: u64, seq: u64) {
        self.a.complete(cycle, seq);
        self.b.complete(cycle, seq);
    }
    fn commit(&mut self, cycle: u64, seq: u64) {
        self.a.commit(cycle, seq);
        self.b.commit(cycle, seq);
    }
    fn flush(&mut self, cycle: u64, squashed: u64) {
        self.a.flush(cycle, squashed);
        self.b.flush(cycle, squashed);
    }
    fn stall(&mut self, cycle: u64, reason: StallReason) {
        self.a.stall(cycle, reason);
        self.b.stall(cycle, reason);
    }
    fn mem_access(&mut self, cycle: u64, addr: u64, hit: bool, latency: u64) {
        self.a.mem_access(cycle, addr, hit, latency);
        self.b.mem_access(cycle, addr, hit, latency);
    }
    fn cycle_end(&mut self, cycle: u64, occupancy: u32) {
        self.a.cycle_end(cycle, occupancy);
        self.b.cycle_end(cycle, occupancy);
    }
    /// Each side takes the span its own way: a counting observer in O(1),
    /// a recording one through the default replay.
    fn idle_span(
        &mut self,
        from: u64,
        n: u64,
        pc: Option<u32>,
        reason: StallReason,
        occupancy: u32,
    ) {
        self.a.idle_span(from, n, pc, reason, occupancy);
        self.b.idle_span(from, n, pc, reason, occupancy);
    }
}

/// Cycle-accounting report for a run that violated the identity
/// `cycles == issue_cycles + Σ stall_cycles`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountingViolation {
    /// Total cycles the run reported.
    pub cycles: u64,
    /// Issue events the accountant observed.
    pub issue_cycles: u64,
    /// Stall events observed, per reason (indexed like
    /// [`StallReason::ALL`]).
    pub stall_cycles: [u64; StallReason::ALL.len()],
    /// Cycle ends observed, inside idle spans included (should equal
    /// `cycles`).
    pub cycles_seen: u64,
}

impl AccountingViolation {
    /// Total observed stall events across all reasons.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }
}

impl fmt::Display for AccountingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle accounting violated: cycles={} but issue_cycles={} + stalls={} = {} \
             ({} cycle ends;",
            self.cycles,
            self.issue_cycles,
            self.total_stalls(),
            self.issue_cycles + self.total_stalls(),
            self.cycles_seen,
        )?;
        for r in StallReason::ALL {
            let n = self.stall_cycles[r.idx()];
            if n > 0 {
                write!(f, " {r}={n}")?;
            }
        }
        write!(f, ")")
    }
}

impl std::error::Error for AccountingViolation {}

/// Observer that enforces the cycle-accounting identity: every simulated
/// cycle must be attributed to exactly one issue or one stall.
///
/// Attach it via `run_observed`, then call [`CycleAccountant::check`] with
/// the run's cycle count: in debug builds a violation panics (so tests and
/// development runs fail loudly); in release builds the structured
/// [`AccountingViolation`] report is returned for the caller to handle.
#[derive(Debug, Default, Clone)]
pub struct CycleAccountant {
    issue_cycles: u64,
    stall_cycles: [u64; StallReason::ALL.len()],
    cycles_seen: u64,
}

impl CycleAccountant {
    /// Issue events observed so far.
    #[must_use]
    pub fn issue_cycles(&self) -> u64 {
        self.issue_cycles
    }

    /// Stall events observed so far for `reason`.
    #[must_use]
    pub fn stalls(&self, reason: StallReason) -> u64 {
        self.stall_cycles[reason.idx()]
    }

    /// Stall events observed so far, across all reasons.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Cycle ends observed so far, inside idle spans included.
    #[must_use]
    pub fn cycles_seen(&self) -> u64 {
        self.cycles_seen
    }

    /// Verifies the identity against a run's final cycle count without
    /// panicking; returns the structured report on violation.
    ///
    /// Both equalities must hold: the attributed events must sum to
    /// `cycles`, and the observer must have seen every cycle end exactly
    /// once, through `cycle_end` or inside an `idle_span` (catching
    /// simulators that drop or double-count cycles).
    pub fn verify(&self, cycles: u64) -> Result<(), AccountingViolation> {
        if self.issue_cycles + self.total_stalls() == cycles && self.cycles_seen == cycles {
            Ok(())
        } else {
            Err(AccountingViolation {
                cycles,
                issue_cycles: self.issue_cycles,
                stall_cycles: self.stall_cycles,
                cycles_seen: self.cycles_seen,
            })
        }
    }

    /// Like [`CycleAccountant::verify`], but panics on violation in debug
    /// builds.
    pub fn check(&self, cycles: u64) -> Result<(), AccountingViolation> {
        match self.verify(cycles) {
            Ok(()) => Ok(()),
            Err(v) => {
                if cfg!(debug_assertions) {
                    panic!("{v}");
                }
                Err(v)
            }
        }
    }
}

impl PipelineObserver for CycleAccountant {
    fn issue(&mut self, _cycle: u64, _seq: u64) {
        self.issue_cycles += 1;
    }
    fn stall(&mut self, _cycle: u64, reason: StallReason) {
        self.stall_cycles[reason.idx()] += 1;
    }
    fn cycle_end(&mut self, _cycle: u64, _occupancy: u32) {
        self.cycles_seen += 1;
    }
    fn idle_span(&mut self, _: u64, n: u64, _: Option<u32>, reason: StallReason, _: u32) {
        self.stall_cycles[reason.idx()] += n;
        self.cycles_seen += n;
    }
}

/// Flush-accounting report for a run whose squashes did not line up with
/// its recorded mispredictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushViolation {
    /// Flush events observed.
    pub flushes: u64,
    /// Mispredicted branches the run reported.
    pub mispredicted: u64,
    /// `MispredictRepair` stall cycles observed.
    pub repair_stalls: u64,
    /// Repair stalls the misprediction count implies
    /// (`flushes * (penalty + 1)`).
    pub expected_repair_stalls: u64,
}

impl fmt::Display for FlushViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flush accounting violated: {} flushes vs {} recorded mispredictions; \
             {} mispredict-repair stalls vs {} expected",
            self.flushes, self.mispredicted, self.repair_stalls, self.expected_repair_stalls,
        )
    }
}

impl std::error::Error for FlushViolation {}

/// Observer that ties every pipeline flush back to a recorded branch
/// misprediction.
///
/// A speculative machine may only squash state because a predicted branch
/// resolved the other way, and each squash must stall fetch for exactly
/// the redirect window (`mispredict_penalty + 1` cycles, charged as
/// [`StallReason::MispredictRepair`]). [`FlushAccountant::verify`] checks
/// both identities against the run's reported misprediction count:
///
/// ```text
/// flushes       == mispredicted_branches
/// repair_stalls == flushes * (mispredict_penalty + 1)
/// ```
#[derive(Debug, Default, Clone)]
pub struct FlushAccountant {
    flushes: u64,
    squashed: u64,
    repair_stalls: u64,
}

impl FlushAccountant {
    /// Flush events observed so far.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Total window entries squashed across all flushes.
    #[must_use]
    pub fn squashed(&self) -> u64 {
        self.squashed
    }

    /// `MispredictRepair` stall cycles observed so far.
    #[must_use]
    pub fn repair_stalls(&self) -> u64 {
        self.repair_stalls
    }

    /// Verifies that every flush is attributable to a recorded
    /// misprediction and paid for with exactly one redirect window of
    /// repair stalls.
    pub fn verify(&self, mispredicted: u64, mispredict_penalty: u64) -> Result<(), FlushViolation> {
        let expected_repair = self.flushes * (mispredict_penalty + 1);
        if self.flushes == mispredicted && self.repair_stalls == expected_repair {
            Ok(())
        } else {
            Err(FlushViolation {
                flushes: self.flushes,
                mispredicted,
                repair_stalls: self.repair_stalls,
                expected_repair_stalls: expected_repair,
            })
        }
    }
}

impl PipelineObserver for FlushAccountant {
    fn flush(&mut self, _cycle: u64, squashed: u64) {
        self.flushes += 1;
        self.squashed += squashed;
    }
    fn stall(&mut self, _cycle: u64, reason: StallReason) {
        if reason == StallReason::MispredictRepair {
            self.repair_stalls += 1;
        }
    }
}

/// One buffered Chrome `trace_event`.
#[derive(Debug, Clone)]
enum TraceEvent {
    /// Complete ("X") duration event on a functional-unit track.
    Span {
        ts: u64,
        dur: u64,
        tid: u32,
        name: String,
    },
    /// Instant ("i") event (commits, flushes, stalls).
    Instant { ts: u64, tid: u32, name: String },
    /// Counter ("C") sample of window occupancy.
    Counter { ts: u64, value: u32 },
}

impl TraceEvent {
    fn ts(&self) -> u64 {
        match self {
            TraceEvent::Span { ts, .. }
            | TraceEvent::Instant { ts, .. }
            | TraceEvent::Counter { ts, .. } => *ts,
        }
    }
}

/// Observer that records a Chrome `trace_event` timeline: one track
/// ("thread") per functional-unit class carrying a span per dispatched
/// instruction, instant markers for commits/flushes/stalls, and a counter
/// track sampling window occupancy each cycle.
///
/// [`ChromeTraceObserver::to_json`] serializes the buffered events —
/// sorted by timestamp, one simulated cycle per microsecond — into a JSON
/// document that loads directly in `chrome://tracing` (or any Perfetto
/// viewer).
#[derive(Debug, Default, Clone)]
pub struct ChromeTraceObserver {
    events: Vec<TraceEvent>,
}

/// Track id for instant commit markers.
const TID_COMMIT: u32 = 90;
/// Track id for flush markers.
const TID_FLUSH: u32 = 91;
/// Track id for stall markers.
const TID_STALL: u32 = 92;

impl ChromeTraceObserver {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChromeTraceObserver::default()
    }

    /// Number of buffered trace events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as Chrome `trace_event` JSON. Events are
    /// emitted in nondecreasing timestamp order; metadata (track names)
    /// precedes them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut order: Vec<&TraceEvent> = self.events.iter().collect();
        order.sort_by_key(|e| e.ts());

        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit").string("ms");
        w.key("traceEvents").begin_array();
        let tracks = FuClass::ALL
            .into_iter()
            .map(|fu| (fu_tid(fu), format!("fu {fu}")))
            .chain([
                (TID_COMMIT, "commit".to_string()),
                (TID_FLUSH, "flush".to_string()),
                (TID_STALL, "stall".to_string()),
            ]);
        for (tid, name) in tracks {
            w.begin_object();
            w.key("ph").string("M");
            w.key("name").string("thread_name");
            w.key("pid").u64(1);
            w.key("tid").u64(tid.into());
            w.key("args").begin_object().key("name").string(&name);
            w.end_object().end_object();
        }
        for ev in order {
            w.begin_object();
            match ev {
                TraceEvent::Span { ts, dur, tid, name } => {
                    w.key("ph").string("X");
                    w.key("name").string(name);
                    w.key("cat").string("fu");
                    w.key("pid").u64(1);
                    w.key("tid").u64((*tid).into());
                    w.key("ts").u64(*ts);
                    w.key("dur").u64(*dur);
                }
                TraceEvent::Instant { ts, tid, name } => {
                    w.key("ph").string("i");
                    w.key("name").string(name);
                    w.key("cat").string("pipe");
                    w.key("s").string("t");
                    w.key("pid").u64(1);
                    w.key("tid").u64((*tid).into());
                    w.key("ts").u64(*ts);
                }
                TraceEvent::Counter { ts, value } => {
                    w.key("ph").string("C");
                    w.key("name").string("window occupancy");
                    w.key("pid").u64(1);
                    w.key("tid").u64(0);
                    w.key("ts").u64(*ts);
                    w.key("args")
                        .begin_object()
                        .key("entries")
                        .u64((*value).into());
                    w.end_object();
                }
            }
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

fn fu_tid(fu: FuClass) -> u32 {
    fu.index() as u32 + 1
}

impl PipelineObserver for ChromeTraceObserver {
    fn dispatch(&mut self, cycle: u64, seq: u64, fu: FuClass, complete_at: u64) {
        self.events.push(TraceEvent::Span {
            ts: cycle,
            dur: complete_at.saturating_sub(cycle).max(1),
            tid: fu_tid(fu),
            name: format!("#{seq} {fu}"),
        });
    }
    fn commit(&mut self, cycle: u64, seq: u64) {
        self.events.push(TraceEvent::Instant {
            ts: cycle,
            tid: TID_COMMIT,
            name: format!("commit #{seq}"),
        });
    }
    fn flush(&mut self, cycle: u64, squashed: u64) {
        self.events.push(TraceEvent::Instant {
            ts: cycle,
            tid: TID_FLUSH,
            name: format!("flush ({squashed} squashed)"),
        });
    }
    fn stall(&mut self, cycle: u64, reason: StallReason) {
        self.events.push(TraceEvent::Instant {
            ts: cycle,
            tid: TID_STALL,
            name: reason.to_string(),
        });
    }
    fn cycle_end(&mut self, cycle: u64, occupancy: u32) {
        self.events.push(TraceEvent::Counter {
            ts: cycle,
            value: occupancy,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(obs: &mut dyn PipelineObserver) {
        // Cycle 0: issue an instruction that occupies the scalar adder.
        obs.fetch(0, 0);
        obs.issue(0, 0);
        obs.dispatch(0, 0, FuClass::ScalarAdd, 3);
        obs.cycle_end(0, 1);
        // Cycle 1: stall on the busy destination.
        obs.stall(1, StallReason::OperandsNotReady);
        obs.cycle_end(1, 1);
        // Cycle 2: drain.
        obs.complete(2, 0);
        obs.commit(2, 0);
        obs.stall(2, StallReason::Drained);
        obs.cycle_end(2, 0);
    }

    #[test]
    fn accountant_accepts_balanced_runs() {
        let mut acc = CycleAccountant::default();
        drive(&mut acc);
        assert_eq!(acc.issue_cycles(), 1);
        assert_eq!(acc.total_stalls(), 2);
        assert!(acc.verify(3).is_ok());
        assert!(acc.check(3).is_ok());
    }

    #[test]
    fn accountant_reports_unattributed_cycles() {
        let mut acc = CycleAccountant::default();
        drive(&mut acc);
        let v = acc.verify(4).expect_err("one cycle is unattributed");
        assert_eq!(v.cycles, 4);
        assert_eq!(v.issue_cycles + v.total_stalls(), 3);
        assert!(v.to_string().contains("cycle accounting violated"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cycle accounting violated")]
    fn accountant_check_panics_in_debug() {
        let mut acc = CycleAccountant::default();
        drive(&mut acc);
        let _ = acc.check(4);
    }

    #[test]
    fn flush_accountant_ties_flushes_to_mispredictions() {
        let mut acc = FlushAccountant::default();
        // One mispredict with penalty 3: the flush plus 4 repair stalls.
        acc.flush(10, 5);
        for c in 10..14 {
            acc.stall(c, StallReason::MispredictRepair);
        }
        acc.stall(14, StallReason::DeadCycle); // unrelated stall, ignored
        assert_eq!(acc.flushes(), 1);
        assert_eq!(acc.squashed(), 5);
        assert_eq!(acc.repair_stalls(), 4);
        assert!(acc.verify(1, 3).is_ok());
        // A flush without a recorded misprediction is a violation.
        let v = acc.verify(0, 3).expect_err("unattributed flush");
        assert!(v.to_string().contains("flush accounting violated"));
        // So is a repair window of the wrong width.
        assert!(acc.verify(1, 2).is_err());
    }

    #[test]
    fn tee_duplicates_events() {
        let mut acc = CycleAccountant::default();
        let mut flush = FlushAccountant::default();
        {
            let mut tee = Tee::new(&mut acc, &mut flush);
            drive(&mut tee);
            // Cycle 3: a squash and its first repair cycle.
            tee.flush(3, 2);
            tee.stall(3, StallReason::MispredictRepair);
            tee.cycle_end(3, 0);
        }
        assert!(acc.verify(4).is_ok());
        assert_eq!(acc.stalls(StallReason::MispredictRepair), 1);
        assert_eq!(flush.flushes(), 1);
        assert_eq!(flush.repair_stalls(), 1);
    }

    /// Records the per-cycle calls and leaves `idle_span` to the default
    /// replay.
    #[derive(Debug, Default, PartialEq)]
    struct Recorder(Vec<(&'static str, u64, u64)>);

    impl PipelineObserver for Recorder {
        fn fetch(&mut self, cycle: u64, pc: u32) {
            self.0.push(("fetch", cycle, pc.into()));
        }
        fn stall(&mut self, cycle: u64, reason: StallReason) {
            self.0.push(("stall", cycle, reason.idx() as u64));
        }
        fn cycle_end(&mut self, cycle: u64, occupancy: u32) {
            self.0.push(("cycle_end", cycle, occupancy.into()));
        }
    }

    /// The per-cycle calls an idle span stands for.
    fn step_through(
        obs: &mut dyn PipelineObserver,
        from: u64,
        n: u64,
        pc: Option<u32>,
        reason: StallReason,
        occupancy: u32,
    ) {
        for cycle in from..from + n {
            if let Some(pc) = pc {
                obs.fetch(cycle, pc);
            }
            obs.stall(cycle, reason);
            obs.cycle_end(cycle, occupancy);
        }
    }

    const SPANS: [(u64, u64, Option<u32>, StallReason, u32); 3] = [
        (4, 3, Some(17), StallReason::OperandsNotReady, 2),
        (7, 5, None, StallReason::DeadCycle, 1),
        (12, 1, None, StallReason::Drained, 0),
    ];

    #[test]
    fn idle_span_default_replays_the_cycles() {
        let (mut spanned, mut stepped) = (Recorder::default(), Recorder::default());
        for (from, n, pc, reason, occ) in SPANS {
            spanned.idle_span(from, n, pc, reason, occ);
            step_through(&mut stepped, from, n, pc, reason, occ);
        }
        assert_eq!(spanned.0.len(), 3 * 3 + 5 * 2 + 2);
        assert_eq!(spanned, stepped);
    }

    #[test]
    fn accountant_counts_an_idle_span_like_its_cycles() {
        let (mut spanned, mut stepped) = (CycleAccountant::default(), CycleAccountant::default());
        drive(&mut spanned);
        drive(&mut stepped);
        for (from, n, pc, reason, occ) in SPANS {
            spanned.idle_span(from, n, pc, reason, occ);
            step_through(&mut stepped, from, n, pc, reason, occ);
        }
        assert_eq!(format!("{spanned:?}"), format!("{stepped:?}"));
        assert!(spanned.verify(3 + 3 + 5 + 1).is_ok());
    }

    #[test]
    fn tee_hands_the_span_to_each_side() {
        let mut acc = CycleAccountant::default();
        let mut rec = Recorder::default();
        {
            let mut tee = Tee::new(&mut acc, &mut rec);
            for (from, n, pc, reason, occ) in SPANS {
                tee.idle_span(from, n, pc, reason, occ);
            }
        }
        let mut stepped = Recorder::default();
        for (from, n, pc, reason, occ) in SPANS {
            step_through(&mut stepped, from, n, pc, reason, occ);
        }
        assert_eq!(rec, stepped);
        assert_eq!(acc.cycles_seen(), 9);
        assert_eq!(acc.stalls(StallReason::DeadCycle), 5);
    }

    #[test]
    fn an_empty_idle_span_is_a_no_op() {
        let mut rec = Recorder::default();
        let mut acc = CycleAccountant::default();
        for obs in [
            &mut rec as &mut dyn PipelineObserver,
            &mut acc,
            &mut NullObserver,
        ] {
            obs.idle_span(9, 0, Some(3), StallReason::WindowFull, 4);
        }
        assert!(rec.0.is_empty());
        assert_eq!(
            format!("{acc:?}"),
            format!("{:?}", CycleAccountant::default())
        );
    }

    #[test]
    fn chrome_trace_is_sorted_and_balanced() {
        let mut tr = ChromeTraceObserver::new();
        drive(&mut tr);
        assert!(!tr.is_empty());
        let json = tr.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("window occupancy"));
        // Timestamps are emitted in nondecreasing order.
        let mut last = 0u64;
        for part in json.split("\"ts\":").skip(1) {
            let digits: String = part.chars().take_while(char::is_ascii_digit).collect();
            let ts: u64 = digits.parse().expect("ts is an integer");
            assert!(ts >= last, "timestamps must be sorted");
            last = ts;
        }
    }
}
