//! Sweep harness: runs the Livermore suite under any mechanism and
//! aggregates the paper's metrics.
//!
//! Since the `ruu-engine` rewire, all sweeps execute on a shared
//! [`SweepEngine`]: the Livermore suite is assembled once per process,
//! jobs fan out across a scoped worker pool, and simple-issue baseline
//! cycles are memoized per machine configuration. Worker count defaults
//! to the host's hardware threads and can be pinned with the
//! `RUU_BENCH_JOBS` environment variable (`1` recovers serial
//! execution). Numbers are bit-identical for any worker count.
//!
//! Every entry point comes in two flavours: a `try_*` function returning
//! `Result<_, HarnessError>` (workload-verification failures and
//! simulator errors are typed, not panics) and a thin panicking shim
//! with the legacy name, kept for the existing bench targets.

use std::fmt;
use std::sync::OnceLock;

use ruu_engine::{EngineError, EngineStats, Job, SweepEngine};
use ruu_exec::{ArchState, ExecError};
use ruu_issue::{Mechanism, SimError};
use ruu_sim_core::{DCacheConfig, MachineConfig, StallHistogram};
use ruu_workloads::{livermore, VerifyError};

/// A typed failure from a harness run.
#[derive(Debug, Clone)]
pub enum HarnessError {
    /// The simulator failed (instruction limit, deadlock guard).
    Sim {
        /// Mechanism (job label) that failed.
        mechanism: String,
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying simulator error.
        err: SimError,
    },
    /// A simulation completed but its memory image failed the workload's
    /// mirror verification.
    Verify {
        /// Mechanism (job label) that failed.
        mechanism: String,
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying verification error.
        err: VerifyError,
    },
    /// The golden interpreter failed while capturing the trace the
    /// dataflow-limit bound is derived from.
    Golden {
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying interpreter error.
        err: ExecError,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Sim {
                mechanism,
                workload,
                err,
            } => write!(f, "{mechanism} failed on {workload}: {err}"),
            HarnessError::Verify {
                mechanism,
                workload,
                err,
            } => write!(f, "{mechanism} wrong result on {workload}: {err}"),
            HarnessError::Golden { workload, err } => {
                write!(f, "golden trace for {workload} failed: {err}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<EngineError> for HarnessError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Sim { job, workload, err } => HarnessError::Sim {
                mechanism: job,
                workload,
                err,
            },
            EngineError::Verify { job, workload, err } => HarnessError::Verify {
                mechanism: job,
                workload,
                err,
            },
            EngineError::Golden { workload, err } => HarnessError::Golden { workload, err },
        }
    }
}

/// The process-wide sweep engine: Livermore suite assembled once,
/// baseline cycles memoized across every table and ablation target.
pub fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let workers = std::env::var("RUU_BENCH_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        SweepEngine::livermore().with_workers(workers)
    })
}

/// One row of a Table-1-style baseline report.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Loop name.
    pub name: &'static str,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Clock cycles to execute.
    pub cycles: u64,
    /// Static dataflow-limit lower bound on cycles
    /// (`ruu_analysis::dataflow_bound` over the golden trace).
    pub dataflow_bound: u64,
}

impl BaselineRow {
    /// Instructions per cycle, or `None` for a zero-cycle row.
    #[must_use]
    pub fn try_issue_rate(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(self.instructions as f64 / self.cycles as f64)
        }
    }

    /// Instructions per cycle. A zero-cycle row reports `0.0` (never
    /// NaN); use [`BaselineRow::try_issue_rate`] to distinguish that
    /// sentinel from a genuine rate.
    #[must_use]
    pub fn issue_rate(&self) -> f64 {
        self.try_issue_rate().unwrap_or(0.0)
    }

    /// Percentage of the dataflow limit this run achieved
    /// (`100 * dataflow_bound / cycles`), or `None` for a zero-cycle
    /// row. 100% means the machine ran at the dependence-imposed limit.
    #[must_use]
    pub fn pct_of_limit(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(100.0 * self.dataflow_bound as f64 / self.cycles as f64)
        }
    }
}

/// One point of a mechanism sweep (Tables 2–6 style).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Window entries.
    pub entries: usize,
    /// Total cycles over the suite.
    pub cycles: u64,
    /// Total instructions over the suite.
    pub instructions: u64,
    /// Speedup relative to the baseline suite cycles.
    pub speedup: f64,
    /// Aggregate instructions per cycle.
    pub issue_rate: f64,
}

/// Per-workload stall breakdown for one mechanism: where the decode/
/// issue stage spent every non-issuing cycle.
#[derive(Debug, Clone)]
pub struct StallBreakdownRow {
    /// Workload name.
    pub name: &'static str,
    /// Cycles to execute it.
    pub cycles: u64,
    /// The run's stall histogram (issue cycles, per-reason stalls,
    /// mean occupancy).
    pub hist: StallHistogram,
}

/// Runs `mechanism` over the Livermore suite with a [`StallHistogram`]
/// attached, returning one breakdown row per workload (suite order).
///
/// # Errors
/// Propagates the first failing workload as a [`HarnessError`].
pub fn try_stall_breakdown(
    config: &MachineConfig,
    mechanism: Mechanism,
) -> Result<Vec<StallBreakdownRow>, HarnessError> {
    let label = mechanism.to_string();
    let sim = mechanism.build(config);
    let mut rows = Vec::new();
    for w in engine().suite() {
        let mut hist = StallHistogram::default();
        let r = sim
            .run_observed(
                ArchState::new(),
                w.memory.clone(),
                &w.program,
                w.inst_limit,
                &mut hist,
            )
            .map_err(|err| HarnessError::Sim {
                mechanism: label.clone(),
                workload: w.name,
                err,
            })?;
        w.verify(&r.memory).map_err(|err| HarnessError::Verify {
            mechanism: label.clone(),
            workload: w.name,
            err,
        })?;
        rows.push(StallBreakdownRow {
            name: w.name,
            cycles: r.cycles,
            hist,
        });
    }
    Ok(rows)
}

/// Panicking shim over [`try_stall_breakdown`] for bench targets.
///
/// # Panics
/// Panics on any simulator or verification failure.
#[must_use]
pub fn stall_breakdown(config: &MachineConfig, mechanism: Mechanism) -> Vec<StallBreakdownRow> {
    try_stall_breakdown(config, mechanism).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the baseline (simple issue) over the full Livermore suite,
/// returning per-loop rows plus a `Total` row (paper Table 1).
///
/// # Errors
/// Propagates the first failing loop as a [`HarnessError`].
pub fn try_baseline_rows(config: &MachineConfig) -> Result<Vec<BaselineRow>, HarnessError> {
    let mut rows: Vec<BaselineRow> = engine()
        .workload_rows(Mechanism::Simple, config)?
        .into_iter()
        .map(|r| BaselineRow {
            name: r.name,
            instructions: r.instructions,
            cycles: r.cycles,
            dataflow_bound: r.dataflow_bound,
        })
        .collect();
    let total_i = rows.iter().map(|r| r.instructions).sum();
    let total_c = rows.iter().map(|r| r.cycles).sum();
    let total_b = rows.iter().map(|r| r.dataflow_bound).sum();
    rows.push(BaselineRow {
        name: "Total",
        instructions: total_i,
        cycles: total_c,
        dataflow_bound: total_b,
    });
    Ok(rows)
}

/// Panicking shim over [`try_baseline_rows`] for bench targets.
///
/// # Panics
/// Panics on any simulator or verification failure.
#[must_use]
pub fn baseline_rows(config: &MachineConfig) -> Vec<BaselineRow> {
    try_baseline_rows(config).unwrap_or_else(|e| panic!("{e}"))
}

/// Total baseline cycles over the suite (the denominator of every
/// "relative speedup" in the paper), memoized per configuration.
///
/// # Errors
/// Propagates the first failing loop as a [`HarnessError`].
pub fn try_baseline_total_cycles(config: &MachineConfig) -> Result<u64, HarnessError> {
    Ok(engine().baseline_cycles(config)?)
}

/// Panicking shim over [`try_baseline_total_cycles`].
///
/// # Panics
/// Panics on any simulator or verification failure.
#[must_use]
pub fn baseline_total_cycles(config: &MachineConfig) -> u64 {
    try_baseline_total_cycles(config).unwrap_or_else(|e| panic!("{e}"))
}

/// Sweeps a mechanism over window sizes on the shared engine, also
/// returning the engine's execution stats (wall clock, units/sec).
///
/// # Errors
/// Propagates the first failing (mechanism, workload) unit.
pub fn try_sweep_report(
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Result<(Vec<SweepPoint>, EngineStats), HarnessError> {
    let jobs: Vec<Job> = entries_list
        .iter()
        .map(|&entries| Job::new(make(entries), config.clone()))
        .collect();
    let report = engine().run_grid(&jobs)?;
    let points = entries_list
        .iter()
        .zip(&report.jobs)
        .map(|(&entries, j)| SweepPoint {
            entries,
            cycles: j.cycles,
            instructions: j.instructions,
            speedup: j.speedup,
            issue_rate: j.issue_rate,
        })
        .collect();
    Ok((points, report.stats))
}

/// Sweeps a mechanism over window sizes, reporting paper-style speedup
/// (vs. the simple-issue baseline) and aggregate issue rate.
///
/// # Errors
/// Propagates the first failing (mechanism, workload) unit.
pub fn try_sweep(
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Result<Vec<SweepPoint>, HarnessError> {
    try_sweep_report(config, entries_list, make).map(|(points, _)| points)
}

/// Panicking shim over [`try_sweep`] for bench targets.
///
/// # Panics
/// Panics on any simulator or verification failure.
#[must_use]
pub fn sweep(
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Vec<SweepPoint> {
    try_sweep(config, entries_list, make).unwrap_or_else(|e| panic!("{e}"))
}

/// The legacy serial sweep: a plain loop of one-shot simulator runs, with
/// its own baseline pass and no engine, no pool, and no caches. Kept as the
/// independent reference the `engine_determinism` integration test
/// compares the parallel engine against bit-for-bit.
///
/// # Panics
/// Panics on any simulator or verification failure (the historical
/// behaviour).
#[must_use]
pub fn sweep_serial(
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Vec<SweepPoint> {
    fn run_suite(
        mechanism: Mechanism,
        config: &MachineConfig,
        suite: &[ruu_workloads::Workload],
    ) -> (u64, u64) {
        let mut cycles = 0;
        let mut insts = 0;
        let sim = mechanism.build(config);
        for w in suite {
            let r = sim
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", mechanism, w.name));
            w.verify(&r.memory)
                .unwrap_or_else(|e| panic!("{} wrong result on {}: {e}", mechanism, w.name));
            cycles += r.cycles;
            insts += r.instructions;
        }
        (cycles, insts)
    }

    let suite = livermore::all();
    let (baseline, _) = run_suite(Mechanism::Simple, config, &suite);
    entries_list
        .iter()
        .map(|&entries| {
            let (cycles, instructions) = run_suite(make(entries), config, &suite);
            SweepPoint {
                entries,
                cycles,
                instructions,
                speedup: baseline as f64 / cycles as f64,
                issue_rate: instructions as f64 / cycles as f64,
            }
        })
        .collect()
}

/// One row of the speculative-RUU predictor-ablation table: the same
/// machine, swept across the predictor zoo. `cbp_mispredicts` comes from
/// the trace-driven CBP replay (every conditional branch, no pipeline);
/// the remaining columns are the pipeline's own numbers, where only
/// branches whose condition was still unresolved at issue consult the
/// predictor.
#[derive(Debug, Clone)]
pub struct PredictorAblationRow {
    /// Canonical predictor label (`NAME[:size]`).
    pub predictor: String,
    /// Total CBP-replay mispredictions over the 14 loops.
    pub cbp_mispredicts: u64,
    /// Pipeline predictions actually consulted.
    pub predicts: u64,
    /// Pipeline mispredictions (each one a flush).
    pub mispredicts: u64,
    /// Cycles spent in mispredict-repair stalls.
    pub flush_cycles: u64,
    /// Total cycles over the suite.
    pub cycles: u64,
    /// Total instructions over the suite.
    pub instructions: u64,
    /// Speedup over the simple-issue baseline.
    pub speedup: f64,
}

/// Sweeps the speculative RUU (at `entries` window entries) across the
/// whole predictor zoo.
///
/// # Errors
/// Propagates simulator, verification, and golden-trace failures.
pub fn try_predictor_ablation(
    config: &MachineConfig,
    entries: usize,
) -> Result<Vec<PredictorAblationRow>, HarnessError> {
    use ruu_predict::cbp::{evaluate, BranchStream};
    use ruu_predict::PredictorConfig;

    let zoo = PredictorConfig::zoo();
    let jobs: Vec<Job> = zoo
        .iter()
        .map(|&predictor| {
            Job::new(
                Mechanism::SpecRuu {
                    entries,
                    bypass: ruu_issue::Bypass::Full,
                    predictor,
                },
                config.clone(),
            )
        })
        .collect();
    let report = engine().run_grid(&jobs)?;

    let mut streams = Vec::new();
    for w in livermore::all() {
        let trace = w.golden_trace().map_err(|err| HarnessError::Golden {
            workload: w.name,
            err,
        })?;
        streams.push(BranchStream::from_trace(&trace));
    }

    Ok(zoo
        .iter()
        .zip(&report.jobs)
        .map(|(&p, j)| {
            let cbp_mispredicts = streams
                .iter()
                .map(|s| {
                    // Fresh predictor per loop, the CBP convention.
                    let mut pred = p.build();
                    evaluate(s, pred.as_mut()).mispredicts
                })
                .sum();
            let b = j.branch.unwrap_or_default();
            PredictorAblationRow {
                predictor: p.to_string(),
                cbp_mispredicts,
                predicts: b.predicts,
                mispredicts: b.mispredicts,
                flush_cycles: b.flush_cycles,
                cycles: j.cycles,
                instructions: j.instructions,
                speedup: j.speedup,
            }
        })
        .collect())
}

/// Panicking shim over [`try_predictor_ablation`].
#[must_use]
pub fn predictor_ablation(config: &MachineConfig, entries: usize) -> Vec<PredictorAblationRow> {
    try_predictor_ablation(config, entries).unwrap_or_else(|e| panic!("{e}"))
}

/// One row of the data-cache ablation table: one mechanism under one
/// data-cache timing model, suite totals.
#[derive(Debug, Clone)]
pub struct CacheAblationRow {
    /// Mechanism label.
    pub mechanism: String,
    /// Cache model label (`perfect` or the canonical geometry spec).
    pub dcache: String,
    /// Total cycles over the suite.
    pub cycles: u64,
    /// Total instructions over the suite (the MPKI denominator).
    pub instructions: u64,
    /// Cycle ratio vs. the same mechanism under the perfect memory — the
    /// price this mechanism pays for the real memory path.
    pub slowdown: f64,
    /// Speedup vs. the simple-issue baseline *under the same memory
    /// model* (the engine memoizes the baseline per configuration).
    pub speedup: f64,
    /// Aggregate cache counters (`None` under the perfect memory).
    pub cache: Option<ruu_engine::CacheSummary>,
}

/// Runs every `mechanism` under the perfect memory and then each finite
/// cache model in `dcaches`, in one engine grid. Rows come back grouped
/// by mechanism, perfect first, so each group's `slowdown` column reads
/// as a degradation curve.
///
/// # Errors
/// Propagates the first failing (mechanism, workload) unit.
pub fn try_cache_ablation(
    config: &MachineConfig,
    mechanisms: &[Mechanism],
    dcaches: &[DCacheConfig],
) -> Result<Vec<CacheAblationRow>, HarnessError> {
    let mut variants = vec![DCacheConfig::Perfect];
    variants.extend(dcaches.iter().copied());
    let jobs: Vec<Job> = mechanisms
        .iter()
        .flat_map(|&m| {
            variants
                .iter()
                .map(move |&dc| Job::new(m, config.clone().with_dcache(dc)))
        })
        .collect();
    let report = engine().run_grid(&jobs)?;
    let mut rows = Vec::new();
    for (mi, m) in mechanisms.iter().enumerate() {
        let base = report.jobs[mi * variants.len()].cycles;
        for (vi, dc) in variants.iter().enumerate() {
            let j = &report.jobs[mi * variants.len() + vi];
            rows.push(CacheAblationRow {
                mechanism: m.to_string(),
                dcache: dc.to_string(),
                cycles: j.cycles,
                instructions: j.instructions,
                slowdown: j.cycles as f64 / base as f64,
                speedup: j.speedup,
                cache: j.cache,
            });
        }
    }
    Ok(rows)
}

/// Panicking shim over [`try_cache_ablation`].
#[must_use]
pub fn cache_ablation(
    config: &MachineConfig,
    mechanisms: &[Mechanism],
    dcaches: &[DCacheConfig],
) -> Vec<CacheAblationRow> {
    try_cache_ablation(config, mechanisms, dcaches).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_issue::Bypass;

    #[test]
    fn baseline_rows_cover_all_loops() {
        let rows = baseline_rows(&MachineConfig::paper());
        assert_eq!(rows.len(), 15);
        assert_eq!(rows[14].name, "Total");
        let sum: u64 = rows[..14].iter().map(|r| r.instructions).sum();
        assert_eq!(sum, rows[14].instructions);
        // Every row respects the dataflow-limit sandwich:
        // instructions <= bound <= cycles.
        for r in &rows {
            assert!(r.dataflow_bound >= r.instructions, "{}", r.name);
            assert!(r.cycles >= r.dataflow_bound, "{}", r.name);
            let pct = r.pct_of_limit().expect("nonzero cycles");
            assert!(pct > 0.0 && pct <= 100.0, "{}: {pct}", r.name);
        }
    }

    #[test]
    fn predictor_ablation_reflects_cbp_wins_in_cycles() {
        let cfg = MachineConfig::paper();
        let rows = predictor_ablation(&cfg, 15);
        assert_eq!(rows.len(), 7, "one row per zoo predictor");
        let find = |name: &str| {
            rows.iter()
                .find(|r| r.predictor.starts_with(name))
                .unwrap_or_else(|| panic!("{name} row exists"))
        };
        let twobit = find("twobit:64");
        let tage = find("tage");
        // The zoo's headline: TAGE-lite beats the calibrated default both
        // in trace-replay mispredictions and in actual pipeline cycles.
        assert!(tage.cbp_mispredicts < twobit.cbp_mispredicts);
        assert!(tage.cycles < twobit.cycles);
        for r in &rows {
            assert!(r.predicts > 0, "{}: predictor consulted", r.predictor);
            assert_eq!(
                r.flush_cycles,
                r.mispredicts * (cfg.mispredict_penalty + 1),
                "{}: every flush charges penalty+1 repair cycles",
                r.predictor
            );
        }
    }

    #[test]
    fn sweep_reports_relative_speedup() {
        let cfg = MachineConfig::paper();
        let pts = sweep(&cfg, &[10], |entries| Mechanism::Ruu {
            entries,
            bypass: Bypass::Full,
        });
        assert_eq!(pts.len(), 1);
        assert!(pts[0].speedup > 0.5 && pts[0].speedup < 3.0);
    }

    #[test]
    fn try_sweep_surfaces_errors_instead_of_panicking() {
        // An impossible mechanism size: a 0-entry RSTU deadlocks issue
        // immediately, which the simulator reports as an error the
        // harness must surface (not panic on).
        let cfg = MachineConfig::paper();
        let result = try_sweep(&cfg, &[0], |entries| Mechanism::Rstu { entries });
        assert!(matches!(result, Err(HarnessError::Sim { .. })));
    }

    #[test]
    fn baseline_total_matches_rows() {
        let cfg = MachineConfig::paper();
        let rows = baseline_rows(&cfg);
        assert_eq!(baseline_total_cycles(&cfg), rows[14].cycles);
    }

    #[test]
    fn zero_cycle_row_has_no_rate() {
        let row = BaselineRow {
            name: "empty",
            instructions: 0,
            cycles: 0,
            dataflow_bound: 0,
        };
        assert_eq!(row.try_issue_rate(), None);
        assert_eq!(row.issue_rate(), 0.0); // documented sentinel, not NaN
        assert_eq!(row.pct_of_limit(), None);
    }

    #[test]
    fn stall_breakdown_accounts_for_every_cycle() {
        let cfg = MachineConfig::paper();
        let rows = stall_breakdown(
            &cfg,
            Mechanism::Ruu {
                entries: 10,
                bypass: Bypass::Full,
            },
        );
        assert_eq!(rows.len(), engine().suite().len());
        for row in &rows {
            assert_eq!(
                row.cycles,
                row.hist.issue_cycles() + row.hist.total_stalls(),
                "cycle accounting on {}",
                row.name
            );
            assert_eq!(
                row.hist.cycles(),
                row.cycles,
                "cycle_end count {}",
                row.name
            );
        }
    }
}
