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
//! Every entry point returns `Result<_, EngineError>`: simulator,
//! verification and golden-trace failures are typed, not panics. The
//! per-workload rows are the engine's [`WorkloadRow`]s, whose `RunStats`
//! carry every counter the tables print.

use std::sync::OnceLock;

use ruu_engine::{EngineError, EngineStats, Job, SweepEngine, WorkloadRow};
use ruu_issue::Mechanism;
use ruu_sim_core::{DCacheConfig, MachineConfig, RunStats};
use ruu_workloads::livermore;

/// The process-wide sweep engine: Livermore suite assembled once,
/// baseline cycles memoized across every table and ablation target.
///
/// # Panics
/// Panics if `RUU_BENCH_JOBS` is set to anything but a worker count.
pub fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let jobs = std::env::var("RUU_BENCH_JOBS").ok();
        let workers = parse_workers(jobs.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        SweepEngine::livermore().with_workers(workers)
    })
}

/// Parses the `RUU_BENCH_JOBS` worker count (unset = `0`, one worker
/// per hardware thread).
fn parse_workers(value: Option<&str>) -> Result<usize, String> {
    value.map_or(Ok(0), |v| {
        v.parse()
            .map_err(|_| format!("RUU_BENCH_JOBS must be a worker count, got {v:?}"))
    })
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

/// Runs `mechanism` over the Livermore suite, returning one row per
/// workload (suite order) whose counters break every cycle down into
/// issue and per-reason stall cycles.
///
/// # Errors
/// Propagates the first failing workload.
pub fn stall_breakdown(
    config: &MachineConfig,
    mechanism: Mechanism,
) -> Result<Vec<WorkloadRow>, EngineError> {
    engine().workload_rows(mechanism, config)
}

/// Runs the baseline (simple issue) over the full Livermore suite,
/// returning per-loop rows plus a `Total` row (paper Table 1).
///
/// # Errors
/// Propagates the first failing loop.
pub fn baseline_rows(config: &MachineConfig) -> Result<Vec<WorkloadRow>, EngineError> {
    let mut rows = stall_breakdown(config, Mechanism::Simple)?;
    rows.push(WorkloadRow::total("Total", &rows));
    Ok(rows)
}

/// Sweeps a mechanism over window sizes on the shared engine, reporting
/// paper-style speedup (vs. the simple-issue baseline) and aggregate
/// issue rate, plus the engine's execution stats (wall clock, units/sec).
///
/// # Errors
/// Propagates the first failing (mechanism, workload) unit.
pub fn sweep(
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Result<(Vec<SweepPoint>, EngineStats), EngineError> {
    sweep_on(engine(), config, entries_list, make)
}

/// [`sweep`] on an explicit engine.
fn sweep_on(
    engine: &SweepEngine,
    config: &MachineConfig,
    entries_list: &[usize],
    make: impl Fn(usize) -> Mechanism,
) -> Result<(Vec<SweepPoint>, EngineStats), EngineError> {
    let jobs: Vec<Job> = entries_list
        .iter()
        .map(|&entries| Job::new(make(entries), config.clone()))
        .collect();
    let report = engine.run_grid(&jobs)?;
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
    /// Total cycles over the suite.
    pub cycles: u64,
    /// Speedup over the simple-issue baseline.
    pub speedup: f64,
    /// The pipeline's counters over the suite (predictions consulted,
    /// mispredictions, mispredict-repair stall cycles).
    pub stats: RunStats,
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
        })
        .collect();
    let report = engine().run_grid(&jobs)?;

    let mut streams = Vec::new();
    for w in livermore::all() {
        let trace = w.golden_trace().map_err(|err| EngineError::Golden {
            workload: w.name,
            err,
        })?;
        streams.push(BranchStream::from_trace(&trace));
    }

    Ok(zoo
        .iter()
        .zip(report.jobs)
        .map(|(&p, j)| {
            let cbp_mispredicts = streams
                .iter()
                .map(|s| {
                    // Fresh predictor per loop, the CBP convention.
                    let mut pred = p.build();
                    evaluate(s, pred.as_mut()).mispredicts
                })
                .sum();
            PredictorAblationRow {
                predictor: p.to_string(),
                cbp_mispredicts,
                cycles: j.cycles,
                speedup: j.speedup,
                stats: j.stats,
            }
        })
        .collect())
}

/// One row of the data-cache ablation table: one mechanism under one
/// data-cache timing model, suite totals.
#[derive(Debug, Clone)]
pub struct CacheAblationRow {
    /// Mechanism label.
    pub mechanism: String,
    /// The data-cache timing model.
    pub dcache: DCacheConfig,
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
    /// The runs' counters over the suite (data-cache accesses, hits and
    /// misses are zero under the perfect memory).
    pub stats: RunStats,
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
    for (group, m) in report.jobs.chunks(variants.len()).zip(mechanisms) {
        for (j, &dcache) in group.iter().zip(&variants) {
            rows.push(CacheAblationRow {
                mechanism: m.to_string(),
                dcache,
                cycles: j.cycles,
                instructions: j.instructions,
                slowdown: j.cycles as f64 / group[0].cycles as f64,
                speedup: j.speedup,
                stats: j.stats.clone(),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_issue::Bypass;
    use ruu_sim_core::StallReason;

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
            assert!(
                r.stats.predicted_branches > 0,
                "{}: predictor consulted",
                r.predictor
            );
            assert_eq!(
                r.stats.stalls(StallReason::MispredictRepair),
                r.stats.mispredicted_branches * (cfg.mispredict_penalty + 1),
                "{}: every flush charges penalty+1 repair cycles",
                r.predictor
            );
        }
    }

    #[test]
    fn sweep_reports_relative_speedup() {
        let cfg = MachineConfig::paper();
        let (pts, _) = sweep(&cfg, &[10], |entries| Mechanism::Ruu {
            entries,
            bypass: Bypass::Full,
        })
        .expect("sweep runs");
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
        let result = sweep_on(&engine, &cfg, &[10], |entries| Mechanism::Rstu { entries });
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
        let rows = stall_breakdown(
            &cfg,
            Mechanism::Ruu {
                entries: 10,
                bypass: Bypass::Full,
            },
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

    #[test]
    fn worker_count_parser_rejects_a_bad_value() {
        assert_eq!(parse_workers(None), Ok(0));
        assert_eq!(parse_workers(Some("3")), Ok(3));
        let err = parse_workers(Some("abc")).expect_err("not a number");
        assert!(err.contains("RUU_BENCH_JOBS"), "{err}");
        assert!(err.contains("\"abc\""), "{err}");
        assert!(parse_workers(Some("-1")).is_err());
    }
}
