//! A trace-driven, CBP-style predictor evaluation harness.
//!
//! Championship Branch Prediction contests evaluate predictors by
//! replaying recorded per-branch outcome streams — no pipeline model, no
//! timing, just `predict → compare → update` per dynamic branch. This
//! module does the same against streams extracted from the golden
//! `ruu-exec` interpreter trace (modelled on the `cbp-experiments`
//! harness from the related-work set): any [`Predictor`] can be scored in
//! microseconds, and the ranking carries over to the speculative RUU,
//! whose flushes are exactly the mispredictions of the branches it had
//! to guess.

use ruu_exec::Trace;

use crate::{Btb, Predictor};

/// One dynamic branch from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// Dynamic instruction index in the source trace.
    pub index: u64,
    /// Branch pc.
    pub pc: u32,
    /// Decoded target.
    pub target: u32,
    /// Actual outcome.
    pub taken: bool,
    /// `true` for conditional branches (direction-predicted), `false`
    /// for unconditional jumps (BTB-only).
    pub conditional: bool,
}

/// The per-branch outcome stream of one workload.
#[derive(Debug, Clone, Default)]
pub struct BranchStream {
    /// Branch events in dynamic order.
    pub events: Vec<BranchEvent>,
    /// Total dynamic instructions in the source trace (for MPKI).
    pub instructions: u64,
}

impl BranchStream {
    /// Extracts the branch stream from a golden trace.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let events = trace
            .events()
            .iter()
            .filter(|ev| ev.inst.is_branch())
            .map(|ev| BranchEvent {
                index: ev.index,
                pc: ev.pc,
                target: ev.inst.target.expect("branch has a decoded target"),
                taken: ev.taken.unwrap_or(true),
                conditional: ev.inst.opcode.is_cond_branch(),
            })
            .collect();
        BranchStream {
            events,
            instructions: trace.len() as u64,
        }
    }

    /// Number of conditional branch events.
    #[must_use]
    pub fn cond_branches(&self) -> u64 {
        self.events.iter().filter(|e| e.conditional).count() as u64
    }

    /// Distinct conditional branch pcs in the stream.
    #[must_use]
    pub fn cond_sites(&self) -> usize {
        let mut pcs: Vec<u32> = self
            .events
            .iter()
            .filter(|e| e.conditional)
            .map(|e| e.pc)
            .collect();
        pcs.sort_unstable();
        pcs.dedup();
        pcs.len()
    }
}

/// Per-branch-site accuracy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteStats {
    /// Branch pc.
    pub pc: u32,
    /// Dynamic executions.
    pub executed: u64,
    /// Taken outcomes.
    pub taken: u64,
    /// Mispredicted executions.
    pub mispredicted: u64,
}

/// BTB target-lookup statistics (taken branches only: a not-taken branch
/// never needs the target).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Taken-branch lookups performed.
    pub lookups: u64,
    /// Lookups that returned the correct target.
    pub hits: u64,
}

impl BtbStats {
    /// Hit rate (1 for an unused BTB).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// The replay result for one predictor over one stream.
#[derive(Debug, Clone)]
pub struct CbpResult {
    /// Predictor display name.
    pub predictor: String,
    /// Dynamic instructions in the source trace.
    pub instructions: u64,
    /// Conditional branches replayed.
    pub cond_branches: u64,
    /// Unconditional branches seen (BTB-only).
    pub uncond_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// BTB statistics, when a BTB was replayed alongside.
    pub btb: Option<BtbStats>,
    /// Per-site breakdown, ascending pc.
    pub sites: Vec<SiteStats>,
}

impl CbpResult {
    /// Direction-prediction accuracy (1 when there was nothing to
    /// predict).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.cond_branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// Mispredictions per 1000 instructions.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// The `n` worst sites by misprediction count (ties broken by pc).
    #[must_use]
    pub fn top_offenders(&self, n: usize) -> Vec<&SiteStats> {
        let mut sites: Vec<&SiteStats> = self.sites.iter().collect();
        sites.sort_by_key(|s| (std::cmp::Reverse(s.mispredicted), s.pc));
        sites.truncate(n);
        sites
    }

    /// Merges another result (same predictor, different workload) into
    /// this one. Site tables are concatenated, so `sites` is only
    /// meaningful per workload.
    pub fn absorb(&mut self, other: &CbpResult) {
        self.instructions += other.instructions;
        self.cond_branches += other.cond_branches;
        self.uncond_branches += other.uncond_branches;
        self.mispredicts += other.mispredicts;
        self.btb = match (self.btb, other.btb) {
            (Some(a), Some(b)) => Some(BtbStats {
                lookups: a.lookups + b.lookups,
                hits: a.hits + b.hits,
            }),
            (a, b) => a.or(b),
        };
    }
}

/// Replays `stream` through `predictor` (direction only).
#[must_use]
pub fn evaluate(stream: &BranchStream, predictor: &mut dyn Predictor) -> CbpResult {
    replay(stream, predictor, None)
}

/// Replays `stream` through `predictor` and `btb` together.
#[must_use]
pub fn evaluate_with_btb(
    stream: &BranchStream,
    predictor: &mut dyn Predictor,
    btb: &mut Btb,
) -> CbpResult {
    replay(stream, predictor, Some(btb))
}

fn replay(
    stream: &BranchStream,
    predictor: &mut dyn Predictor,
    btb: Option<&mut Btb>,
) -> CbpResult {
    let mut out = CbpResult {
        predictor: predictor.name().to_string(),
        instructions: stream.instructions,
        cond_branches: 0,
        uncond_branches: 0,
        mispredicts: 0,
        btb: btb.as_ref().map(|_| BtbStats::default()),
        sites: Vec::new(),
    };
    let mut btb = btb;
    for ev in &stream.events {
        if let Some(b) = btb.as_deref_mut() {
            // The BTB serves fetch redirection, so only taken branches
            // exercise it; allocation is also on taken (classic policy).
            if ev.taken {
                let stats = out.btb.as_mut().expect("stats follow the btb");
                stats.lookups += 1;
                if b.lookup(ev.pc) == Some(ev.target) {
                    stats.hits += 1;
                }
                b.insert(ev.pc, ev.target);
            }
        }
        if !ev.conditional {
            out.uncond_branches += 1;
            continue;
        }
        out.cond_branches += 1;
        let predicted = predictor.predict(ev.pc, ev.target);
        predictor.update(ev.pc, ev.taken);
        let miss = predicted != ev.taken;
        if miss {
            out.mispredicts += 1;
        }
        let site = match out.sites.iter_mut().find(|s| s.pc == ev.pc) {
            Some(s) => s,
            None => {
                out.sites.push(SiteStats {
                    pc: ev.pc,
                    executed: 0,
                    taken: 0,
                    mispredicted: 0,
                });
                out.sites.last_mut().expect("just pushed")
            }
        };
        site.executed += 1;
        site.taken += u64::from(ev.taken);
        site.mispredicted += u64::from(miss);
    }
    out.sites.sort_by_key(|s| s.pc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlwaysTaken, Btfn, TwoBit};
    use ruu_exec::Memory;
    use ruu_isa::{Asm, Reg};

    fn counted_loop(n: i64) -> BranchStream {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), n);
        a.bind(top);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let trace = Trace::capture(&p, Memory::new(1 << 10), 100_000).unwrap();
        BranchStream::from_trace(&trace)
    }

    #[test]
    fn stream_extraction_counts_branches() {
        let s = counted_loop(10);
        assert_eq!(s.events.len(), 10, "one conditional branch per trip");
        assert_eq!(s.cond_branches(), 10);
        assert_eq!(s.cond_sites(), 1);
        assert_eq!(s.events.iter().filter(|e| e.taken).count(), 9);
        // sub + branch per trip, plus the imm (halt is not traced).
        assert_eq!(s.instructions, 1 + 2 * 10);
    }

    #[test]
    fn always_taken_misses_exactly_the_exit() {
        let s = counted_loop(25);
        let mut p = AlwaysTaken;
        let r = evaluate(&s, &mut p);
        assert_eq!(r.mispredicts, 1);
        assert_eq!(r.cond_branches, 25);
        assert!((r.accuracy() - 24.0 / 25.0).abs() < 1e-12);
        assert!((r.mpki() - 1000.0 / 51.0).abs() < 1e-9);
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].mispredicted, 1);
        assert_eq!(r.top_offenders(3)[0].pc, r.sites[0].pc);
    }

    #[test]
    fn jump_is_btb_only() {
        let mut a = Asm::new("t");
        let top = a.new_label();
        let body = a.new_label();
        a.a_imm(Reg::a(0), 5);
        a.bind(top);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.jump(body); // unconditional, in-loop
        a.bind(body);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let trace = Trace::capture(&p, Memory::new(1 << 10), 100_000).unwrap();
        let s = BranchStream::from_trace(&trace);
        let mut pred = Btfn;
        let mut btb = Btb::new(16, 2);
        let r = evaluate_with_btb(&s, &mut pred, &mut btb);
        assert_eq!(r.uncond_branches, 5);
        assert_eq!(r.cond_branches, 5);
        let btb_stats = r.btb.unwrap();
        // Every taken branch looks up; first sight of each site misses.
        assert_eq!(btb_stats.lookups, 5 + 4);
        assert_eq!(btb_stats.hits, btb_stats.lookups - 2);
        assert!(btb_stats.hit_rate() > 0.7);
    }

    #[test]
    fn absorb_sums_suite_totals() {
        let a = counted_loop(10);
        let b = counted_loop(30);
        let mut p = TwoBit::default();
        let mut total = evaluate(&a, &mut p);
        let rb = evaluate(&b, &mut p);
        total.absorb(&rb);
        assert_eq!(total.cond_branches, 40);
        assert_eq!(total.instructions, a.instructions + b.instructions);
        assert_eq!(total.mispredicts, 2, "one exit each; the site is warm");
    }

    #[test]
    fn replay_is_deterministic() {
        let s = counted_loop(40);
        let mut p1 = TwoBit::default();
        let mut p2 = TwoBit::default();
        let r1 = evaluate(&s, &mut p1);
        let r2 = evaluate(&s, &mut p2);
        assert_eq!(r1.mispredicts, r2.mispredicts);
        assert_eq!(r1.sites, r2.sites);
    }
}
