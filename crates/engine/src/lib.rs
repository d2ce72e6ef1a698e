//! # ruu-engine — the parallel batch-simulation engine
//!
//! Every paper table and ablation is a *grid* of independent simulations:
//! (mechanism, machine configuration, workload) triples whose results are
//! aggregated into speedup/issue-rate rows. The legacy
//! `ruu_bench::harness::sweep` ran that grid serially, re-assembling the
//! Livermore suite and re-running the simple-issue baseline on every
//! call. This crate turns the grid into an explicit job list executed by
//! a [`SweepEngine`]:
//!
//! * the workload suite is assembled **once** and shared via
//!   `Arc<[Workload]>`;
//! * independent (job × workload) units run across a
//!   `std::thread::scope` worker pool (work-stealing over an atomic
//!   counter — no external dependencies);
//! * baseline (simple-issue) cycles are **memoized per configuration**
//!   in a [`MachineConfig`]-keyed memo, so repeated sweeps over the
//!   same machine never pay for the baseline twice;
//! * per-workload **dataflow-limit lower bounds**
//!   (`ruu_analysis::dataflow_bound` over each golden trace) are
//!   memoized the same way, so every [`JobResult`] reports how close
//!   the mechanism came to the best any issue logic could do;
//! * each unit runs unobserved; a job's counters are its runs'
//!   `RunStats` summed with `RunStats::absorb`, the one counter set the
//!   JSON report and every bench table read;
//! * results come back as a [`SweepReport`]: per-job cycles,
//!   instructions, speedup and counters plus wall-clock and throughput
//!   engine stats, serializable to JSON with a hand-rolled std-only
//!   writer.
//!
//! Determinism is a hard guarantee: per-job numbers are aggregated in
//! workload order from per-unit integer results, so a run with 8 workers
//! is **bit-identical** to a run with 1 (asserted by the workspace's
//! `engine_determinism` test). Only the wall-clock stats vary.
//!
//! The enabling API is `ruu_issue`'s
//! [`IssueSimulator`](ruu_issue::IssueSimulator) trait:
//! [`Mechanism::build`] yields a `Box<dyn IssueSimulator>` (`Send`), so
//! one worker loop drives every mechanism uniformly.
//!
//! ```
//! use ruu_engine::{Job, SweepEngine};
//! use ruu_issue::{Bypass, Mechanism};
//! use ruu_sim_core::MachineConfig;
//!
//! let engine = SweepEngine::livermore().with_workers(2);
//! let jobs: Vec<Job> = [4, 8]
//!     .iter()
//!     .map(|&entries| {
//!         Job::new(
//!             Mechanism::Ruu { entries, bypass: Bypass::Full },
//!             MachineConfig::paper(),
//!         )
//!     })
//!     .collect();
//! let report = engine.run_grid(&jobs)?;
//! assert_eq!(report.jobs.len(), 2);
//! assert!(report.jobs[1].speedup >= report.jobs[0].speedup);
//! # Ok::<(), ruu_engine::EngineError>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ruu_analysis::dataflow_bound;
use ruu_exec::{ExecError, Trace};
use ruu_issue::{Mechanism, SimError};
use ruu_sim_core::{JsonWriter, MachineConfig, RunStats, StallReason};
use ruu_workloads::{livermore, VerifyError, Workload};

/// The JSON writer, which lives in `ruu-sim-core` so the Chrome trace
/// observer can share it; re-exported here for report consumers.
pub mod json {
    pub use ruu_sim_core::JsonWriter;
}

/// A failure while executing one (job × workload) simulation unit.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// The simulator itself failed (instruction limit, deadlock guard).
    Sim {
        /// Label of the failing job.
        job: String,
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying simulator error.
        err: SimError,
    },
    /// The simulation completed but produced wrong architectural results.
    Verify {
        /// Label of the failing job.
        job: String,
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying verification error.
        err: VerifyError,
    },
    /// The golden interpreter failed while capturing the trace that the
    /// dataflow-limit bound is computed from.
    Golden {
        /// Workload the failure occurred on.
        workload: &'static str,
        /// The underlying interpreter error.
        err: ExecError,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sim { job, workload, err } => {
                write!(f, "job {job} failed on {workload}: {err}")
            }
            EngineError::Verify { job, workload, err } => {
                write!(f, "job {job} wrong result on {workload}: {err}")
            }
            EngineError::Golden { workload, err } => {
                write!(f, "golden trace for {workload} failed: {err}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One point of a batch grid: a mechanism under a machine configuration,
/// run over the engine's whole workload suite.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display label (defaults to the mechanism's `Display` form).
    pub label: String,
    /// The issue mechanism to simulate.
    pub mechanism: Mechanism,
    /// The machine configuration to simulate it under.
    pub config: MachineConfig,
}

impl Job {
    /// A job labelled with the mechanism's display name.
    #[must_use]
    pub fn new(mechanism: Mechanism, config: MachineConfig) -> Self {
        Job {
            label: mechanism.to_string(),
            mechanism,
            config,
        }
    }

    /// Replaces the display label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Aggregated results of one [`Job`] over the suite.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label.
    pub label: String,
    /// The mechanism's display form.
    pub mechanism: String,
    /// The mechanism's window-entry count, when it has one.
    pub entries: Option<usize>,
    /// Total cycles over the suite.
    pub cycles: u64,
    /// Total dynamic instructions over the suite.
    pub instructions: u64,
    /// Simple-issue baseline cycles under the same configuration.
    pub baseline_cycles: u64,
    /// Speedup relative to the baseline (paper-style).
    pub speedup: f64,
    /// Aggregate instructions per cycle.
    pub issue_rate: f64,
    /// Total dataflow-limit lower bound over the suite: the fewest
    /// cycles any issue mechanism could take under this configuration's
    /// latencies, from `ruu_analysis::dataflow_bound` over each
    /// workload's golden trace.
    pub dataflow_bound: u64,
    /// Fraction of the dataflow limit achieved
    /// (`dataflow_bound / cycles`, in `(0, 1]`).
    pub efficiency: f64,
    /// The runs' counters summed over the suite: per-reason stall
    /// cycles (with the issue cycles they account for every simulated
    /// cycle), branch predictions and data-cache accesses.
    pub stats: RunStats,
    /// Whether the mechanism speculates past branches; the JSON report
    /// then carries a `branch` object.
    pub speculative: bool,
    /// Whether the configuration has a finite data cache; the JSON
    /// report then carries a `cache` object (the perfect default's loads
    /// never consult a cache).
    pub finite_dcache: bool,
}

/// Engine-side execution statistics for one grid run.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs in the grid.
    pub jobs: usize,
    /// (job × workload) units executed, including baseline fills.
    pub units: usize,
    /// Wall-clock time for the whole grid.
    pub wall: Duration,
    /// Jobs completed per wall-clock second.
    pub jobs_per_sec: f64,
    /// Simulation units completed per wall-clock second.
    pub units_per_sec: f64,
}

/// The sweep footer: `engine: J jobs (U units) on W workers in …`.
impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine: {} jobs ({} units) on {} workers in {:.1?} ({:.1} jobs/s, {:.1} units/s)",
            self.jobs, self.units, self.workers, self.wall, self.jobs_per_sec, self.units_per_sec
        )
    }
}

/// Everything a grid run produced: per-job results plus engine stats.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One entry per input job, in input order.
    pub jobs: Vec<JobResult>,
    /// Execution statistics (wall-clock dependent; excluded from
    /// determinism comparisons).
    pub stats: EngineStats,
}

impl SweepReport {
    /// Serializes the report to JSON (hand-rolled, std-only writer).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("engine").begin_object();
        w.key("workers").u64(self.stats.workers as u64);
        w.key("jobs").u64(self.stats.jobs as u64);
        w.key("units").u64(self.stats.units as u64);
        w.key("wall_ms").f64(self.stats.wall.as_secs_f64() * 1e3);
        w.key("jobs_per_sec").f64(self.stats.jobs_per_sec);
        w.key("units_per_sec").f64(self.stats.units_per_sec);
        w.end_object();
        w.key("jobs").begin_array();
        for j in &self.jobs {
            w.begin_object();
            w.key("label").string(&j.label);
            w.key("mechanism").string(&j.mechanism);
            match j.entries {
                Some(e) => w.key("entries").u64(e as u64),
                None => w.key("entries").f64(f64::NAN), // renders as null
            };
            w.key("cycles").u64(j.cycles);
            w.key("instructions").u64(j.instructions);
            w.key("baseline_cycles").u64(j.baseline_cycles);
            w.key("speedup").f64(j.speedup);
            w.key("issue_rate").f64(j.issue_rate);
            w.key("dataflow_bound").u64(j.dataflow_bound);
            w.key("efficiency").f64(j.efficiency);
            let s = &j.stats;
            w.key("stalls").begin_object();
            for reason in StallReason::ALL {
                if s.stalls(reason) > 0 {
                    w.key(&reason.to_string()).u64(s.stalls(reason));
                }
            }
            w.end_object();
            if j.speculative {
                w.key("branch").begin_object();
                w.key("predicts").u64(s.predicted_branches);
                w.key("mispredicts").u64(s.mispredicted_branches);
                w.key("mpki").f64(s.branch_mpki(j.instructions));
                w.key("flush_cycles")
                    .u64(s.stalls(StallReason::MispredictRepair));
                w.end_object();
            }
            if j.finite_dcache {
                w.key("cache").begin_object();
                w.key("accesses").u64(s.dcache_accesses);
                w.key("hits").u64(s.dcache_hits);
                w.key("misses").u64(s.dcache_misses);
                w.key("hit_rate").f64(s.dcache_hit_rate());
                w.key("mpki").f64(s.dcache_mpki(j.instructions));
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Per-workload numbers for one (mechanism, config) pair — the shape of
/// the paper's Table 1.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// The workload's name.
    pub name: &'static str,
    /// Cycles to execute it.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Dataflow-limit lower bound on cycles under the run's
    /// configuration (see `ruu_analysis::dataflow_bound`).
    pub dataflow_bound: u64,
    /// The run's counters (issue and stall cycles, occupancy, branch
    /// and data-cache counts).
    pub stats: RunStats,
}

impl WorkloadRow {
    /// One row named `name` holding the sums of `rows` (suite totals).
    #[must_use]
    pub fn total(name: &'static str, rows: &[WorkloadRow]) -> WorkloadRow {
        let mut total = WorkloadRow {
            name,
            cycles: 0,
            instructions: 0,
            dataflow_bound: 0,
            stats: RunStats::default(),
        };
        for r in rows {
            total.cycles += r.cycles;
            total.instructions += r.instructions;
            total.dataflow_bound += r.dataflow_bound;
            total.stats.absorb(&r.stats);
        }
        total
    }

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
    /// NaN); use [`WorkloadRow::try_issue_rate`] to distinguish that
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

/// The parallel batch-simulation engine. See the crate docs.
#[derive(Debug)]
pub struct SweepEngine {
    suite: Arc<[Workload]>,
    workers: usize,
    baseline_cache: Mutex<HashMap<MachineConfig, u64>>,
    /// The suite's golden traces (suite order), captured on the first
    /// bound fill and kept: they do not depend on the configuration.
    traces: OnceLock<Result<Vec<Trace>, EngineError>>,
    bound_cache: Mutex<HashMap<MachineConfig, Arc<Vec<u64>>>>,
}

impl SweepEngine {
    /// An engine over an explicit workload suite, with one worker per
    /// available hardware thread.
    #[must_use]
    pub fn new(suite: impl Into<Arc<[Workload]>>) -> Self {
        SweepEngine {
            suite: suite.into(),
            workers: default_workers(),
            baseline_cache: Mutex::new(HashMap::new()),
            traces: OnceLock::new(),
            bound_cache: Mutex::new(HashMap::new()),
        }
    }

    /// An engine over the full 14-loop Livermore suite (assembled once,
    /// shared by every job).
    #[must_use]
    pub fn livermore() -> Self {
        SweepEngine::new(livermore::all())
    }

    /// Sets the worker-thread count (`0` = one per hardware thread).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        self
    }

    /// The shared workload suite.
    #[must_use]
    pub fn suite(&self) -> &[Workload] {
        &self.suite
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `n_units` independent units of `f` across the worker pool,
    /// returning results in unit order regardless of scheduling.
    fn run_pool<T, F>(&self, n_units: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers.min(n_units).max(1);
        if workers == 1 {
            return (0..n_units).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n_units).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_units {
                        break;
                    }
                    let out = f(i);
                    *slots[i].lock().expect("result slot lock") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot lock")
                    .expect("every unit index was claimed and completed")
            })
            .collect()
    }

    /// Runs one (mechanism, config, workload) triple and verifies the
    /// result against the workload's mirror computation. Returns cycles,
    /// instructions and the run's counters (integers, so aggregation
    /// stays worker-count independent).
    fn run_unit(
        label: &str,
        mechanism: Mechanism,
        config: &MachineConfig,
        w: &Workload,
    ) -> Result<(u64, u64, RunStats), EngineError> {
        let r = mechanism
            .build(config)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .map_err(|err| EngineError::Sim {
                job: label.to_string(),
                workload: w.name,
                err,
            })?;
        w.verify(&r.memory).map_err(|err| EngineError::Verify {
            job: label.to_string(),
            workload: w.name,
            err,
        })?;
        Ok((r.cycles, r.instructions, r.stats))
    }

    /// Fills `memo` for every configuration in `configs` it lacks: one
    /// pooled pass of `unit` over all missing (config × workload index)
    /// pairs, whose per-config results (suite order) `fold` turns into
    /// the memoized value. Returns the number of units it ran; the first
    /// failing unit (in unit order) aborts the fill.
    fn fill_memo<V, T: Send>(
        &self,
        memo: &Mutex<HashMap<MachineConfig, V>>,
        configs: &[&MachineConfig],
        unit: impl Fn(&MachineConfig, usize) -> Result<T, EngineError> + Sync,
        fold: impl Fn(Vec<T>) -> V,
    ) -> Result<usize, EngineError> {
        let missing: Vec<&MachineConfig> = {
            let memo = memo.lock().expect("memo lock");
            let mut seen: Vec<&MachineConfig> = Vec::new();
            for &c in configs {
                if !memo.contains_key(c) && !seen.contains(&c) {
                    seen.push(c);
                }
            }
            seen
        };
        let per_cfg = self.suite.len();
        let n_units = missing.len() * per_cfg;
        let mut outs = self
            .run_pool(n_units, |i| unit(missing[i / per_cfg], i % per_cfg))
            .into_iter();
        let mut memo = memo.lock().expect("memo lock");
        for &cfg in &missing {
            let results = outs.by_ref().take(per_cfg).collect::<Result<_, _>>()?;
            memo.insert(cfg.clone(), fold(results));
        }
        Ok(n_units)
    }

    /// Fills the baseline memo for every configuration in `configs`.
    /// Returns the number of simulation units it had to execute.
    fn ensure_baselines(&self, configs: &[&MachineConfig]) -> Result<usize, EngineError> {
        self.fill_memo(
            &self.baseline_cache,
            configs,
            |cfg, w| {
                Self::run_unit("baseline(simple)", Mechanism::Simple, cfg, &self.suite[w])
                    .map(|u| u.0)
            },
            |cycles| cycles.into_iter().sum(),
        )
    }

    /// The suite's golden traces, in suite order: captured across the
    /// pool on the first call, then kept for the engine's lifetime.
    fn golden_traces(&self) -> Result<&[Trace], EngineError> {
        self.traces
            .get_or_init(|| {
                self.run_pool(self.suite.len(), |i| {
                    let w = &self.suite[i];
                    w.golden_trace().map_err(|err| EngineError::Golden {
                        workload: w.name,
                        err,
                    })
                })
                .into_iter()
                .collect()
            })
            .as_deref()
            .map_err(Clone::clone)
    }

    /// Fills the dataflow-bound memo for every configuration in
    /// `configs`. Bounds are static analysis over each workload's
    /// golden trace, not simulation units, so fills are **not** counted
    /// in [`EngineStats::units`].
    fn ensure_bounds(&self, configs: &[&MachineConfig]) -> Result<(), EngineError> {
        let traces = self.golden_traces()?;
        self.fill_memo(
            &self.bound_cache,
            configs,
            |cfg, w| Ok(dataflow_bound(&traces[w], cfg).bound),
            Arc::new,
        )
        .map(drop)
    }

    /// Per-workload dataflow-limit lower bounds (suite order) under
    /// `config` — the fewest cycles *any* issue mechanism could take,
    /// limited only by true RAW dependences and functional-unit
    /// latencies. Memoized per configuration for the engine's lifetime.
    ///
    /// # Errors
    /// Propagates a golden-interpreter failure as
    /// [`EngineError::Golden`].
    pub fn dataflow_bounds(&self, config: &MachineConfig) -> Result<Arc<Vec<u64>>, EngineError> {
        self.ensure_bounds(&[config])?;
        let cache = self.bound_cache.lock().expect("bound cache lock");
        Ok(Arc::clone(
            cache.get(config).expect("ensure_bounds filled this key"),
        ))
    }

    /// Total simple-issue cycles over the suite under `config` — the
    /// denominator of every paper-style speedup. Memoized per
    /// configuration for the engine's lifetime.
    ///
    /// # Errors
    /// Propagates the first failing unit's [`EngineError`].
    pub fn baseline_cycles(&self, config: &MachineConfig) -> Result<u64, EngineError> {
        self.ensure_baselines(&[config])?;
        let cache = self.baseline_cache.lock().expect("baseline cache lock");
        Ok(*cache.get(config).expect("ensure_baselines filled this key"))
    }

    /// Executes a job grid across the worker pool.
    ///
    /// Results are aggregated per job in workload order from integer
    /// per-unit results, so the numbers are identical for any worker
    /// count; only [`SweepReport::stats`] is timing-dependent.
    ///
    /// # Errors
    /// The first failing unit (in deterministic unit order) aborts the
    /// report with its [`EngineError`].
    pub fn run_grid(&self, jobs: &[Job]) -> Result<SweepReport, EngineError> {
        let start = Instant::now();
        let configs: Vec<&MachineConfig> = jobs.iter().map(|j| &j.config).collect();
        let baseline_units = self.ensure_baselines(&configs)?;
        self.ensure_bounds(&configs)?;

        let per_job = self.suite.len();
        let n_units = jobs.len() * per_job;
        let outs = self.run_pool(n_units, |i| {
            let job = &jobs[i / per_job];
            let w = &self.suite[i % per_job];
            Self::run_unit(&job.label, job.mechanism, &job.config, w)
        });

        let cache = self.baseline_cache.lock().expect("baseline cache lock");
        let bound_cache = self.bound_cache.lock().expect("bound cache lock");
        let mut results = Vec::with_capacity(jobs.len());
        for (ji, job) in jobs.iter().enumerate() {
            let mut cycles = 0u64;
            let mut instructions = 0u64;
            let mut stats = RunStats::default();
            for out in &outs[ji * per_job..(ji + 1) * per_job] {
                let (c, n, s) = out.as_ref().map_err(Clone::clone)?;
                cycles += c;
                instructions += n;
                stats.absorb(s);
            }
            let baseline_cycles = *cache
                .get(&job.config)
                .expect("ensure_baselines covered every job config");
            let dataflow_bound: u64 = bound_cache
                .get(&job.config)
                .expect("ensure_bounds covered every job config")
                .iter()
                .sum();
            results.push(JobResult {
                label: job.label.clone(),
                mechanism: job.mechanism.to_string(),
                entries: job.mechanism.window_entries(),
                cycles,
                instructions,
                baseline_cycles,
                speedup: baseline_cycles as f64 / cycles as f64,
                issue_rate: instructions as f64 / cycles as f64,
                dataflow_bound,
                efficiency: dataflow_bound as f64 / cycles as f64,
                stats,
                speculative: job.mechanism.predictor().is_some(),
                finite_dcache: !job.config.dcache.is_perfect(),
            });
        }
        drop(cache);
        drop(bound_cache);

        let wall = start.elapsed();
        let units = n_units + baseline_units;
        let secs = wall.as_secs_f64();
        Ok(SweepReport {
            jobs: results,
            stats: EngineStats {
                workers: self.workers,
                jobs: jobs.len(),
                units,
                wall,
                jobs_per_sec: if secs > 0.0 {
                    jobs.len() as f64 / secs
                } else {
                    0.0
                },
                units_per_sec: if secs > 0.0 { units as f64 / secs } else { 0.0 },
            },
        })
    }

    /// Runs one (mechanism, config) pair over the suite, returning
    /// per-workload rows (paper Table-1 shape), computed in parallel.
    ///
    /// # Errors
    /// The first failing workload (in suite order) aborts with its
    /// [`EngineError`].
    pub fn workload_rows(
        &self,
        mechanism: Mechanism,
        config: &MachineConfig,
    ) -> Result<Vec<WorkloadRow>, EngineError> {
        let label = mechanism.to_string();
        let bounds = self.dataflow_bounds(config)?;
        let outs = self.run_pool(self.suite.len(), |i| {
            let w = &self.suite[i];
            Self::run_unit(&label, mechanism, config, w).map(|(cycles, instructions, stats)| {
                WorkloadRow {
                    name: w.name,
                    cycles,
                    instructions,
                    dataflow_bound: bounds[i],
                    stats,
                }
            })
        });
        outs.into_iter().collect()
    }
}

/// One worker per available hardware thread (1 if unknown).
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_exec::Memory;
    use ruu_isa::{Asm, Reg};
    use ruu_issue::Bypass;

    /// A tiny two-workload suite so tests stay fast.
    fn mini_suite() -> Vec<Workload> {
        let mut suite = Vec::new();
        for (name, trips) in [("mini1", 4u64), ("mini2", 7u64)] {
            let mut a = Asm::new(name);
            let top = a.new_label();
            a.a_imm(Reg::a(0), trips as i64);
            a.a_imm(Reg::a(1), 64);
            a.bind(top);
            a.ld_s(Reg::s(1), Reg::a(1), 0);
            a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
            a.st_s(Reg::s(2), Reg::a(1), 1);
            a.a_add_imm(Reg::a(1), Reg::a(1), 2);
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            a.br_an(top);
            a.halt();
            let program = a.assemble().expect("mini kernel assembles");
            let memory = Memory::new(1 << 12);
            let trace =
                ruu_exec::Trace::capture(&program, memory.clone(), 10_000).expect("golden runs");
            let checks: Vec<(u64, u64)> = (0..trips)
                .map(|i| {
                    let addr = 64 + 2 * i + 1;
                    (addr, trace.final_memory().read(addr))
                })
                .collect();
            suite.push(Workload {
                name,
                description: "engine test kernel",
                program,
                memory,
                checks,
                inst_limit: 10_000,
                lint_waivers: Vec::new(),
            });
        }
        suite
    }

    fn ruu_job(entries: usize) -> Job {
        Job::new(
            Mechanism::Ruu {
                entries,
                bypass: Bypass::Full,
            },
            MachineConfig::paper(),
        )
    }

    #[test]
    fn grid_results_match_serial_reference() {
        let engine = SweepEngine::new(mini_suite()).with_workers(4);
        let jobs = vec![
            ruu_job(4),
            ruu_job(8),
            Job::new(Mechanism::Simple, MachineConfig::paper()),
        ];
        let report = engine.run_grid(&jobs).expect("grid runs");

        // Serial reference: straight loop over the same triples.
        let suite = mini_suite();
        for (job, res) in jobs.iter().zip(&report.jobs) {
            let mut cycles = 0;
            let mut insts = 0;
            for w in &suite {
                let r = job
                    .mechanism
                    .build(&job.config)
                    .run(&w.program, w.memory.clone(), w.inst_limit)
                    .expect("reference run");
                cycles += r.cycles;
                insts += r.instructions;
            }
            assert_eq!(res.cycles, cycles, "{}", job.label);
            assert_eq!(res.instructions, insts, "{}", job.label);
        }
        // The simple-issue job is its own baseline.
        assert_eq!(report.jobs[2].speedup.to_bits(), 1f64.to_bits());
    }

    #[test]
    fn baseline_cache_is_memoized() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let cfg = MachineConfig::paper();
        let a = engine.baseline_cycles(&cfg).expect("baseline");
        let b = engine.baseline_cycles(&cfg).expect("baseline (cached)");
        assert_eq!(a, b);
        // Second grid over the same config schedules no baseline units.
        let r1 = engine.run_grid(&[ruu_job(4)]).expect("grid");
        assert_eq!(r1.stats.units, engine.suite().len());
        // A new config forces a baseline fill.
        let other = cfg.clone().with_result_buses(2);
        let r2 = engine
            .run_grid(&[Job::new(Mechanism::Rstu { entries: 4 }, other)])
            .expect("grid");
        assert_eq!(r2.stats.units, 2 * engine.suite().len());
    }

    #[test]
    fn bounds_of_every_config_come_from_one_capture() {
        let engine = SweepEngine::livermore().with_workers(2);
        let slow = MachineConfig::paper().with_fu_latency(ruu_isa::FuClass::FloatAdd, 9);
        let mut bounds = Vec::new();
        let mut captures = Vec::new();
        for cfg in [MachineConfig::paper(), slow] {
            let fresh: Vec<u64> = engine
                .suite()
                .iter()
                .map(|w| dataflow_bound(&w.golden_trace().expect("golden runs"), &cfg).bound)
                .collect();
            let memo = engine.dataflow_bounds(&cfg).expect("bounds");
            assert_eq!(*memo, fresh);
            bounds.push(memo);
            captures.push(engine.golden_traces().expect("kept").as_ptr());
        }
        assert_eq!(captures[0], captures[1], "one capture serves both");
        assert_ne!(bounds[0], bounds[1], "the configurations bound differently");
    }

    #[test]
    fn worker_count_does_not_change_numbers() {
        let jobs = vec![ruu_job(3), ruu_job(6), ruu_job(12)];
        let serial = SweepEngine::new(mini_suite())
            .with_workers(1)
            .run_grid(&jobs)
            .expect("serial grid");
        let parallel = SweepEngine::new(mini_suite())
            .with_workers(4)
            .run_grid(&jobs)
            .expect("parallel grid");
        for (a, b) in serial.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            assert_eq!(a.issue_rate.to_bits(), b.issue_rate.to_bits());
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn job_stalls_account_for_every_cycle() {
        // Each issue cycle issues exactly one instruction, so per job
        // cycles == instructions + Σ stall_cycles — the same identity the
        // CycleAccountant enforces per run, here over the aggregate.
        let engine = SweepEngine::new(mini_suite()).with_workers(4);
        let jobs = vec![
            Job::new(Mechanism::Simple, MachineConfig::paper()),
            ruu_job(4),
            Job::new(Mechanism::Rstu { entries: 6 }, MachineConfig::paper()),
        ];
        let report = engine.run_grid(&jobs).expect("grid runs");
        for j in &report.jobs {
            assert_eq!(
                j.cycles,
                j.instructions + j.stats.total_stalls(),
                "cycle accounting for {}",
                j.label
            );
            assert_eq!(j.stats.issue_cycles, j.instructions, "{}", j.label);
            assert!(j.stats.total_stalls() > 0, "{} reports no stalls", j.label);
        }
    }

    #[test]
    fn speculative_jobs_report_branch_stats() {
        use ruu_issue::PredictorConfig;
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let cfg = MachineConfig::paper();
        let jobs = vec![
            ruu_job(8),
            Job::new(
                Mechanism::SpecRuu {
                    entries: 8,
                    bypass: Bypass::Full,
                    predictor: PredictorConfig::default(),
                },
                cfg.clone(),
            ),
        ];
        let report = engine.run_grid(&jobs).expect("grid");
        assert!(
            !report.jobs[0].speculative,
            "non-speculative jobs carry no branch stats"
        );
        assert!(report.jobs[1].speculative);
        let b = &report.jobs[1].stats;
        // The mini kernels' loop condition is computed right before the
        // branch, so the speculative machine must actually predict, and
        // the two-bit counter misses each loop exit.
        assert!(b.predicted_branches > 0);
        assert!(b.mispredicted_branches > 0 && b.mispredicted_branches <= b.predicted_branches);
        assert_eq!(
            b.stalls(StallReason::MispredictRepair),
            b.mispredicted_branches * (ruu_sim_core::MISPREDICT_PENALTY + 1),
            "every flush costs exactly one redirect window"
        );
        assert!(b.branch_mpki(report.jobs[1].instructions) > 0.0);

        // The JSON report carries the `branch` object for the
        // speculative job only.
        let json = report.to_json();
        for key in [
            "\"branch\":",
            "\"predicts\":",
            "\"mispredicts\":",
            "\"mpki\":",
            "\"flush_cycles\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"branch\":").count(), 1);
    }

    #[test]
    fn finite_dcache_jobs_report_cache_stats() {
        use ruu_sim_core::DCacheConfig;
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let finite = MachineConfig::paper()
            .with_dcache(DCacheConfig::parse("16x2x2:20").expect("geometry parses"));
        let jobs = vec![ruu_job(8), Job::new(Mechanism::Simple, finite)];
        let report = engine.run_grid(&jobs).expect("grid");
        assert!(
            !report.jobs[0].finite_dcache,
            "perfect-memory jobs carry no cache stats"
        );
        assert!(report.jobs[1].finite_dcache);
        let c = &report.jobs[1].stats;
        assert!(
            c.dcache_accesses > 0,
            "the mini kernels load every iteration"
        );
        assert_eq!(c.dcache_hits + c.dcache_misses, c.dcache_accesses);
        assert!(c.dcache_misses > 0, "a cold cache must miss at least once");
        assert!((0.0..=1.0).contains(&c.dcache_hit_rate()));
        assert!(c.dcache_mpki(report.jobs[1].instructions) > 0.0);

        // The JSON report carries the `cache` object for the finite job
        // only.
        let json = report.to_json();
        for key in [
            "\"cache\":",
            "\"accesses\":",
            "\"hits\":",
            "\"misses\":",
            "\"hit_rate\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"cache\":").count(), 1);
    }

    #[test]
    fn report_serializes_to_json() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let report = engine.run_grid(&[ruu_job(4)]).expect("grid");
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"engine\":",
            "\"workers\":",
            "\"wall_ms\":",
            "\"jobs_per_sec\":",
            "\"label\":",
            "\"cycles\":",
            "\"speedup\":",
            "\"dataflow_bound\":",
            "\"efficiency\":",
            "\"entries\":4",
            "\"stalls\":",
            "\"drained\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn workload_rows_cover_the_suite_in_order() {
        let engine = SweepEngine::new(mini_suite()).with_workers(4);
        let rows = engine
            .workload_rows(Mechanism::Simple, &MachineConfig::paper())
            .expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "mini1");
        assert_eq!(rows[1].name, "mini2");
        let total: u64 = rows.iter().map(|r| r.cycles).sum();
        assert_eq!(
            total,
            engine
                .baseline_cycles(&MachineConfig::paper())
                .expect("baseline")
        );
    }

    #[test]
    fn zero_cycle_row_has_no_rate() {
        let row = WorkloadRow {
            name: "empty",
            cycles: 0,
            instructions: 0,
            dataflow_bound: 0,
            stats: RunStats::default(),
        };
        assert_eq!(row.try_issue_rate(), None);
        assert_eq!(row.issue_rate(), 0.0); // documented sentinel, not NaN
        assert_eq!(row.pct_of_limit(), None);
    }

    #[test]
    fn total_row_sums_the_suite() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let rows = engine
            .workload_rows(Mechanism::Simple, &MachineConfig::paper())
            .expect("rows");
        let total = WorkloadRow::total("Total", &rows);
        assert_eq!(total.name, "Total");
        assert_eq!(total.cycles, rows[0].cycles + rows[1].cycles);
        assert_eq!(
            total.dataflow_bound,
            rows[0].dataflow_bound + rows[1].dataflow_bound
        );
        assert_eq!(
            total.stats.issue_cycles,
            rows[0].stats.issue_cycles + rows[1].stats.issue_cycles
        );
        for r in rows.iter().chain([&total]) {
            assert_eq!(
                r.cycles,
                r.stats.issue_cycles + r.stats.total_stalls(),
                "{}",
                r.name
            );
        }
    }

    #[test]
    fn cycles_never_beat_the_dataflow_bound() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let jobs = vec![
            Job::new(Mechanism::Simple, MachineConfig::paper()),
            ruu_job(8),
        ];
        let report = engine.run_grid(&jobs).expect("grid");
        for j in &report.jobs {
            assert!(
                j.cycles >= j.dataflow_bound,
                "{} beat the dataflow limit: {} < {}",
                j.label,
                j.cycles,
                j.dataflow_bound
            );
            assert!(j.efficiency > 0.0 && j.efficiency <= 1.0, "{}", j.label);
        }
        // The bound is mechanism-independent, so the larger window can
        // only close the gap, never widen it past the limit.
        assert_eq!(report.jobs[0].dataflow_bound, report.jobs[1].dataflow_bound);

        // Per-workload rows carry the same per-config bounds, and the
        // bound is at least the dynamic instruction count (decode is
        // one per cycle).
        let rows = engine
            .workload_rows(Mechanism::Simple, &MachineConfig::paper())
            .expect("rows");
        let total: u64 = rows.iter().map(|r| r.dataflow_bound).sum();
        assert_eq!(total, report.jobs[0].dataflow_bound);
        for r in &rows {
            assert!(r.cycles >= r.dataflow_bound, "{}", r.name);
            assert!(r.dataflow_bound >= r.instructions, "{}", r.name);
        }
    }

    #[test]
    fn errors_carry_job_and_workload() {
        let mut suite = mini_suite();
        // An absurdly low instruction limit forces SimError::InstLimit.
        suite[1].inst_limit = 1;
        let engine = SweepEngine::new(suite).with_workers(2);
        let err = engine.run_grid(&[ruu_job(4)]).expect_err("limit trips");
        match err {
            EngineError::Sim { workload, .. } => assert_eq!(workload, "mini2"),
            other => panic!("unexpected error {other}"),
        }
    }
}
