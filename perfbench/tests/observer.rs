//! The benchmark's own checks: the counting observer agrees with every
//! simulator's `RunStats`, a cycle-accounting violation is a failed unit,
//! the sweep grid is the one the benchmark describes, and the synthetic
//! inputs follow the seed.

use perfbench::bench::{cached_config, Plan, Tally, WorkloadKind};
use perfbench::inputs::{Inputs, SYNTH_TARGET_INSTRUCTIONS};
use perfbench::units::{run_observed, UnitFailure};
use ruu_exec::{ArchState, Memory};
use ruu_isa::{FuClass, Program};
use ruu_issue::{Bypass, IssueSimulator, Mechanism, PreciseScheme, PredictorConfig, SimError};
use ruu_sim_core::{MachineConfig, PipelineObserver, RunResult, StallReason};

fn every_mechanism() -> Vec<Mechanism> {
    let precise = |scheme| Mechanism::InOrderPrecise { scheme, entries: 8 };
    let spec = |predictor| Mechanism::SpecRuu {
        entries: 15,
        bypass: Bypass::Full,
        predictor,
    };
    let mut v = vec![
        Mechanism::Simple,
        Mechanism::Tomasulo { rs_per_fu: 2 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 2,
            tags: 12,
        },
        Mechanism::RsPool { rs: 8, tags: 12 },
        Mechanism::Rstu { entries: 15 },
        precise(PreciseScheme::ReorderBuffer),
        precise(PreciseScheme::ReorderBufferBypass),
        precise(PreciseScheme::HistoryBuffer),
        precise(PreciseScheme::FutureFile),
        spec(PredictorConfig::default()),
        spec(PredictorConfig::Gshare { entries: 1024 }),
    ];
    for bypass in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
        v.push(Mechanism::Ruu {
            entries: 15,
            bypass,
        });
    }
    v
}

#[test]
fn counting_observer_agrees_with_run_stats_for_every_mechanism() {
    let inputs = Inputs::build(1, true).expect("inputs build");
    // LLL1, LLL14 (gather/scatter through the load registers) and the
    // first synthetic program whose memory traffic hits a few words.
    let hot_synth = 14 + 3;
    let picks = [0, 13, hot_synth];
    let (mut forwarded, mut mispredicts, mut hits, mut misses) = (0, 0, 0, 0);
    for config in [MachineConfig::paper(), cached_config()] {
        for m in every_mechanism() {
            let sim = m.build(&config);
            for &p in &picks {
                let input = &inputs.programs[p];
                let o = run_observed(sim.as_ref(), input, false)
                    .unwrap_or_else(|e| panic!("{m} on {}: {e}", input.workload.name));
                let (c, s) = (&o.counts, &o.result.stats);
                assert_eq!(c.occupancy_sum, s.occupancy_sum, "{m}");
                if c.squashed == 0 {
                    assert_eq!(c.forwarded_loads(), s.forwarded_loads, "{m}");
                } else {
                    assert!(c.forwarded_loads() <= s.forwarded_loads, "{m}");
                }
                assert_eq!(c.dcache_hits, s.dcache_hits, "{m}");
                assert_eq!(c.dcache_misses(), s.dcache_misses, "{m}");
                assert_eq!(c.flushes, s.mispredicted_branches, "{m}");
                for r in StallReason::ALL {
                    assert_eq!(c.stall(r), s.stalls(r), "{m}: {r}");
                }
                forwarded += s.forwarded_loads;
                mispredicts += s.mispredicted_branches;
                hits += s.dcache_hits;
                misses += s.dcache_misses;
            }
        }
    }
    assert!(forwarded > 0, "no run forwarded a load");
    assert!(mispredicts > 0, "no run mispredicted");
    assert!(hits > 0 && misses > 0, "the cache was not exercised");
}

/// Passes every event through except the first `cycle_end`.
struct DropsFirstCycle<'a> {
    inner: &'a mut dyn PipelineObserver,
    dropped: bool,
}

impl PipelineObserver for DropsFirstCycle<'_> {
    fn fetch(&mut self, cycle: u64, pc: u32) {
        self.inner.fetch(cycle, pc);
    }
    fn issue(&mut self, cycle: u64, seq: u64) {
        self.inner.issue(cycle, seq);
    }
    fn dispatch(&mut self, cycle: u64, seq: u64, fu: FuClass, complete_at: u64) {
        self.inner.dispatch(cycle, seq, fu, complete_at);
    }
    fn complete(&mut self, cycle: u64, seq: u64) {
        self.inner.complete(cycle, seq);
    }
    fn commit(&mut self, cycle: u64, seq: u64) {
        self.inner.commit(cycle, seq);
    }
    fn flush(&mut self, cycle: u64, squashed: u64) {
        self.inner.flush(cycle, squashed);
    }
    fn stall(&mut self, cycle: u64, reason: StallReason) {
        self.inner.stall(cycle, reason);
    }
    fn mem_access(&mut self, cycle: u64, addr: u64, hit: bool, latency: u64) {
        self.inner.mem_access(cycle, addr, hit, latency);
    }
    fn cycle_end(&mut self, cycle: u64, occupancy: u32) {
        if self.dropped {
            self.inner.cycle_end(cycle, occupancy);
        } else {
            self.dropped = true;
        }
    }
}

/// A simulator that loses one cycle's accounting.
struct LosesACycle(Box<dyn IssueSimulator>);

impl IssueSimulator for LosesACycle {
    fn config(&self) -> &MachineConfig {
        self.0.config()
    }

    fn run_from(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
    ) -> Result<RunResult, SimError> {
        self.0.run_from(state, mem, program, limit)
    }

    fn run_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunResult, SimError> {
        let mut lossy = DropsFirstCycle {
            inner: obs,
            dropped: false,
        };
        self.0.run_observed(state, mem, program, limit, &mut lossy)
    }
}

#[test]
fn a_cycle_accounting_violation_is_a_failed_unit() {
    let inputs = Inputs::build(1, false).expect("inputs build");
    let ruu = Mechanism::Ruu {
        entries: 15,
        bypass: Bypass::Full,
    };
    let sim = LosesACycle(ruu.build(&MachineConfig::paper()));
    let outcome = run_observed(&sim, &inputs.programs[0], false);
    assert!(
        matches!(outcome, Err(UnitFailure::Accounting(_))),
        "{:?}",
        outcome.err()
    );
    let mut tally = Tally::default();
    assert!(tally.record(|| "lossy".into(), outcome).is_none());
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    assert!(!tally.correct());
}

#[test]
fn sweep_grid_has_thirty_duplicate_jobs() {
    let plan = Plan::build(WorkloadKind::SweepGrid, 1).expect("plan builds");
    let programs = plan.inputs.programs.len();
    assert_eq!(programs, 14);
    assert_eq!(plan.jobs.len(), 2 * 3 * 16);
    assert_eq!(plan.duplicate_jobs(), 30);
    // The distinct units, weighted, are exactly the grid's units.
    assert_eq!(plan.units.len(), (96 - 30) * programs);
    let weighted: u64 = plan.units.iter().map(|u| u.weight).sum();
    assert_eq!(weighted, (96 * programs) as u64);
}

#[test]
fn synthetic_batch_follows_the_seed() {
    let a = Inputs::build(7, true).expect("inputs build");
    let b = Inputs::build(7, true).expect("inputs build");
    let c = Inputs::build(8, true).expect("inputs build");
    let programs = |i: &Inputs| -> Vec<Program> {
        i.programs
            .iter()
            .map(|p| p.workload.program.clone())
            .collect()
    };
    assert_eq!(programs(&a), programs(&b));
    assert_ne!(programs(&a), programs(&c));
    let livermore: u64 = a.programs[..14].iter().map(|p| p.instructions()).sum();
    assert!(a.instructions() - livermore >= SYNTH_TARGET_INSTRUCTIONS);
    for p in &a.programs[14..] {
        p.workload
            .verify(p.golden.final_memory())
            .expect("a synthetic program's checks are its golden memory");
    }
}
