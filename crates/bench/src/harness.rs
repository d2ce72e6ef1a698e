//! Sweep harness: runs the Livermore suite under any mechanism and
//! aggregates the paper's metrics.
//!
//! Since the `ruu-engine` rewire, all sweeps execute on a shared
//! [`SweepEngine`]: the Livermore suite is assembled once per process,
//! jobs fan out across a scoped worker pool (one worker per hardware
//! thread), and each distinct simulation unit, baselines included, runs
//! once per process. Numbers are bit-identical for any worker count.
//!
//! Every entry point that runs returns `Result<_, EngineError>`:
//! simulator, verification and golden-trace failures are typed, not
//! panics. The per-workload rows are the engine's [`WorkloadRow`]s, whose
//! `RunStats` carry every counter the tables print.

use std::sync::OnceLock;

use ruu_engine::{EngineError, Job, JobResult, SweepEngine, WorkloadRow};
use ruu_issue::Mechanism;
use ruu_sim_core::{DCacheConfig, MachineConfig, RunStats};
use ruu_workloads::livermore;

/// The process-wide sweep engine: Livermore suite assembled once, unit
/// results memoized across every table and ablation target.
pub fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(SweepEngine::livermore)
}

/// Runs the baseline (simple issue) over the full Livermore suite,
/// returning per-loop rows plus a `Total` row (paper Table 1).
///
/// # Errors
/// Propagates the first failing loop.
pub fn baseline_rows(config: &MachineConfig) -> Result<Vec<WorkloadRow>, EngineError> {
    let mut rows = engine().workload_rows(Mechanism::Simple, config)?;
    rows.push(WorkloadRow::total("Total", &rows));
    Ok(rows)
}

/// The jobs of a window sweep: `make(entries)` under `config` for each
/// entry count, in order. Run them with one `run_grid` call; each
/// result's speedup is over the simple-issue baseline under `config`.
#[must_use]
pub fn sweep(
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Vec<Job> {
    entries_list
        .iter()
        .map(|&entries| Job::new(make(entries), config.clone()))
        .collect()
}

/// The legacy serial sweep: a plain loop of one-shot simulator runs, with
/// its own baseline pass and no engine, no pool, and no caches. Kept as the
/// independent reference the `engine_determinism` integration test
/// compares the parallel engine against bit-for-bit.
///
/// The loop computes cycles and instructions only: each result's
/// `dataflow_bound`, `efficiency` and `stats` are left at zero.
///
/// # Panics
/// Panics on any simulator or verification failure (the historical
/// behaviour).
#[must_use]
pub fn sweep_serial(
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Vec<JobResult> {
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
            let mechanism = make(entries);
            let (cycles, instructions) = run_suite(mechanism, config, &suite);
            JobResult {
                label: mechanism.to_string(),
                mechanism: mechanism.to_string(),
                entries: mechanism.window_entries(),
                cycles,
                instructions,
                baseline_cycles: baseline,
                speedup: baseline as f64 / cycles as f64,
                issue_rate: instructions as f64 / cycles as f64,
                dataflow_bound: 0,
                efficiency: 0.0,
                stats: RunStats::default(),
                speculative: mechanism.predictor().is_some(),
                finite_dcache: !config.dcache.is_perfect(),
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
    /// Total CBP-replay mispredictions over the 14 loops.
    pub cbp_mispredicts: u64,
    /// The pipeline run, labelled with the canonical predictor label
    /// (`NAME[:size]`); its counters hold the predictions consulted, the
    /// mispredictions and the mispredict-repair stall cycles.
    pub job: JobResult,
}

/// Sweeps the speculative RUU (at `entries` window entries) across the
/// whole predictor zoo.
///
/// # Errors
/// Propagates simulator, verification, and golden-trace failures.
pub fn predictor_ablation(
    config: &MachineConfig,
    entries: usize,
) -> Result<Vec<PredictorAblationRow>, EngineError> {
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
            .with_label(predictor.to_string())
        })
        .collect();
    let report = engine().run_grid(&jobs)?;

    let streams: Vec<BranchStream> = engine()
        .golden_traces()?
        .iter()
        .map(BranchStream::from_trace)
        .collect();

    Ok(zoo
        .iter()
        .zip(report.jobs)
        .map(|(&p, job)| {
            let cbp_mispredicts = streams
                .iter()
                .map(|s| {
                    // Fresh predictor per loop, the CBP convention.
                    let mut pred = p.build();
                    evaluate(s, pred.as_mut()).mispredicts
                })
                .sum();
            PredictorAblationRow {
                cbp_mispredicts,
                job,
            }
        })
        .collect())
}

/// One row of the data-cache ablation table: one mechanism under one
/// data-cache timing model, suite totals.
#[derive(Debug, Clone)]
pub struct CacheAblationRow {
    /// The data-cache timing model.
    pub dcache: DCacheConfig,
    /// Cycle ratio vs. the same mechanism under the perfect memory — the
    /// price this mechanism pays for the real memory path.
    pub slowdown: f64,
    /// The run, labelled with the mechanism. Its speedup is over the
    /// simple-issue baseline *under the same memory model*, and its
    /// data-cache counters are zero under the perfect memory.
    pub job: JobResult,
}

/// Runs every `mechanism` under the perfect memory and then each finite
/// cache model in `dcaches`, in one engine grid. Rows come back grouped
/// by mechanism, perfect first, so each group's `slowdown` column reads
/// as a degradation curve.
///
/// # Errors
/// Propagates the first failing (mechanism, workload) unit.
pub fn cache_ablation(
    config: &MachineConfig,
    mechanisms: &[Mechanism],
    dcaches: &[DCacheConfig],
) -> Result<Vec<CacheAblationRow>, EngineError> {
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
    for group in report.jobs.chunks(variants.len()) {
        for (job, &dcache) in group.iter().zip(&variants) {
            rows.push(CacheAblationRow {
                dcache,
                slowdown: job.cycles as f64 / group[0].cycles as f64,
                job: job.clone(),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_issue::Bypass;
    use ruu_sim_core::{StallReason, MISPREDICT_PENALTY};

    #[test]
    fn baseline_rows_cover_all_loops() {
        let rows = baseline_rows(&MachineConfig::paper()).expect("baseline runs");
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
        let rows = predictor_ablation(&cfg, 15).expect("ablation runs");
        assert_eq!(rows.len(), 7, "one row per zoo predictor");
        let find = |name: &str| {
            rows.iter()
                .find(|r| r.job.label.starts_with(name))
                .unwrap_or_else(|| panic!("{name} row exists"))
        };
        let twobit = find("twobit:64");
        let tage = find("tage");
        // The zoo's headline: TAGE-lite beats the calibrated default both
        // in trace-replay mispredictions and in actual pipeline cycles.
        assert!(tage.cbp_mispredicts < twobit.cbp_mispredicts);
        assert!(tage.job.cycles < twobit.job.cycles);
        for r in &rows {
            assert!(
                r.job.stats.predicted_branches > 0,
                "{}: predictor consulted",
                r.job.label
            );
            assert_eq!(
                r.job.stats.stalls(StallReason::MispredictRepair),
                r.job.stats.mispredicted_branches * (MISPREDICT_PENALTY + 1),
                "{}: every flush charges penalty+1 repair cycles",
                r.job.label
            );
        }
    }

    #[test]
    fn sweep_reports_relative_speedup() {
        let cfg = MachineConfig::paper();
        let pts = engine()
            .run_grid(&sweep(&cfg, &[10], |entries| Mechanism::Ruu {
                entries,
                bypass: Bypass::Full,
            }))
            .expect("sweep runs")
            .jobs;
        assert_eq!(pts.len(), 1);
        assert!(pts[0].speedup > 0.5 && pts[0].speedup < 3.0);
    }

    #[test]
    fn sweep_surfaces_errors_instead_of_panicking() {
        // A run that fails at run time comes back as an error: one loop's
        // instruction limit is too low for it to finish.
        let mut suite = livermore::all();
        suite[0].inst_limit = 1;
        let engine = SweepEngine::new(suite).with_workers(1);
        let cfg = MachineConfig::paper();
        let result = engine.run_grid(&sweep(&cfg, &[10], |entries| Mechanism::Rstu { entries }));
        assert!(matches!(result, Err(EngineError::Sim { .. })));
        // A window no instruction could issue through is refused when the
        // simulator is built, before any sweep runs it.
        let built = std::panic::catch_unwind(|| Mechanism::Rstu { entries: 0 }.build(&cfg));
        assert!(built.is_err(), "a 0-entry RSTU built");
    }

    #[test]
    fn baseline_total_matches_rows() {
        let cfg = MachineConfig::paper();
        let rows = baseline_rows(&cfg).expect("baseline runs");
        let total = engine().baseline_cycles(&cfg).expect("baseline runs");
        assert_eq!(total, rows[14].cycles);
    }

    #[test]
    fn stall_breakdown_accounts_for_every_cycle() {
        let cfg = MachineConfig::paper();
        let rows = engine()
            .workload_rows(
                Mechanism::Ruu {
                    entries: 10,
                    bypass: Bypass::Full,
                },
                &cfg,
            )
            .expect("breakdown runs");
        assert_eq!(rows.len(), engine().suite().len());
        for row in &rows {
            assert_eq!(
                row.cycles,
                row.stats.issue_cycles + row.stats.total_stalls(),
                "cycle accounting on {}",
                row.name
            );
        }
    }
}
