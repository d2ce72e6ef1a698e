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
//!   in a [`MachineConfig`]-keyed cache, so repeated sweeps over the
//!   same machine never pay for the baseline twice;
//! * per-workload **dataflow-limit lower bounds**
//!   (`ruu_analysis::dataflow_bound` over each golden trace) are
//!   memoized the same way, so every [`JobResult`] reports how close
//!   the mechanism came to the best any issue logic could do;
//! * results come back as a [`SweepReport`]: per-job cycles,
//!   instructions, and speedup plus wall-clock and throughput engine
//!   stats, serializable to JSON with a hand-rolled std-only writer.
//!
//! Determinism is a hard guarantee: per-job numbers are aggregated in
//! workload order from per-unit integer results, so a run with 8 workers
//! is **bit-identical** to a run with 1 (asserted by the workspace's
//! `engine_determinism` test). Only the wall-clock stats vary.
//!
//! The enabling API is `ruu_issue`'s [`IssueSimulator`] trait:
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
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ruu_analysis::dataflow_bound;
use ruu_exec::{ArchState, ExecError};
use ruu_issue::{Mechanism, SimError};
use ruu_sim_core::{JsonWriter, MachineConfig, StallHistogram, StallReason};
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

/// Branch-prediction totals for one speculative job over the suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchSummary {
    /// Conditional branches whose direction was predicted.
    pub predicts: u64,
    /// Predictions that resolved wrong and forced a squash.
    pub mispredicts: u64,
    /// Fetch cycles lost to misprediction repair
    /// ([`StallReason::MispredictRepair`]).
    pub flush_cycles: u64,
}

impl BranchSummary {
    /// Mispredictions per 1000 instructions.
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / instructions as f64
        }
    }
}

/// Data-cache totals for one job over the suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Loads that consulted the cache.
    pub accesses: u64,
    /// Accesses satisfied by a resident line (including merges into an
    /// outstanding fill).
    pub hits: u64,
    /// Accesses that started a fresh line fill.
    pub misses: u64,
}

impl CacheSummary {
    /// Misses per 1000 instructions.
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Fraction of accesses that hit (`0.0` for an idle cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
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
    /// Decode/issue stall cycles over the suite: the nonzero
    /// [`StallReason`] counters, in `StallReason::ALL` order. Together
    /// with the issue cycles these account for every simulated cycle
    /// (`cycles == instructions + Σ stalls` for the non-speculative
    /// mechanisms the engine runs).
    pub stalls: Vec<(StallReason, u64)>,
    /// Branch-prediction totals, for jobs whose mechanism speculates
    /// (`None` for every non-speculative mechanism).
    pub branch: Option<BranchSummary>,
    /// Data-cache totals, for jobs whose configuration carries a finite
    /// `DCacheConfig` (`None` under the perfect default, whose loads
    /// never consult a cache).
    pub cache: Option<CacheSummary>,
}

impl JobResult {
    /// Total stall cycles across all reasons.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.stalls.iter().map(|&(_, n)| n).sum()
    }
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
            w.key("stalls").begin_object();
            for &(reason, n) in &j.stalls {
                w.key(&reason.to_string()).u64(n);
            }
            w.end_object();
            if let Some(b) = j.branch {
                w.key("branch").begin_object();
                w.key("predicts").u64(b.predicts);
                w.key("mispredicts").u64(b.mispredicts);
                w.key("mpki").f64(b.mpki(j.instructions));
                w.key("flush_cycles").u64(b.flush_cycles);
                w.end_object();
            }
            if let Some(c) = j.cache {
                w.key("cache").begin_object();
                w.key("accesses").u64(c.accesses);
                w.key("hits").u64(c.hits);
                w.key("misses").u64(c.misses);
                w.key("hit_rate").f64(c.hit_rate());
                w.key("mpki").f64(c.mpki(j.instructions));
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
}

/// The parallel batch-simulation engine. See the crate docs.
#[derive(Debug)]
pub struct SweepEngine {
    suite: Arc<[Workload]>,
    workers: usize,
    baseline_cache: Mutex<HashMap<MachineConfig, u64>>,
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
    /// instructions, the run's per-reason stall histogram and its branch
    /// summary (integer counters, so aggregation stays worker-count
    /// independent).
    fn run_unit(
        label: &str,
        mechanism: Mechanism,
        config: &MachineConfig,
        w: &Workload,
    ) -> Result<(u64, u64, StallHistogram, BranchSummary, CacheSummary), EngineError> {
        let sim = mechanism.build(config);
        let mut hist = StallHistogram::default();
        let r = sim
            .run_observed(
                ArchState::new(),
                w.memory.clone(),
                &w.program,
                w.inst_limit,
                &mut hist,
            )
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
        let branch = BranchSummary {
            predicts: r.stats.predicted_branches,
            mispredicts: r.stats.mispredicted_branches,
            flush_cycles: r.stats.stalls(StallReason::MispredictRepair),
        };
        let cache = CacheSummary {
            accesses: r.stats.dcache_accesses,
            hits: r.stats.dcache_hits,
            misses: r.stats.dcache_misses,
        };
        Ok((r.cycles, r.instructions, hist, branch, cache))
    }

    /// Fills the baseline cache for every configuration in `configs`
    /// (one pooled pass over all missing config × workload units).
    /// Returns the number of units it had to execute.
    fn ensure_baselines(&self, configs: &[&MachineConfig]) -> Result<usize, EngineError> {
        let missing: Vec<&MachineConfig> = {
            let cache = self.baseline_cache.lock().expect("baseline cache lock");
            let mut seen: Vec<&MachineConfig> = Vec::new();
            for &c in configs {
                if !cache.contains_key(c) && !seen.contains(&c) {
                    seen.push(c);
                }
            }
            seen
        };
        if missing.is_empty() {
            return Ok(0);
        }
        let per_cfg = self.suite.len();
        let n_units = missing.len() * per_cfg;
        let outs = self.run_pool(n_units, |i| {
            let cfg = missing[i / per_cfg];
            let w = &self.suite[i % per_cfg];
            Self::run_unit("baseline(simple)", Mechanism::Simple, cfg, w)
        });
        let mut cache = self.baseline_cache.lock().expect("baseline cache lock");
        for (ci, &cfg) in missing.iter().enumerate() {
            let mut cycles = 0u64;
            for out in &outs[ci * per_cfg..(ci + 1) * per_cfg] {
                cycles += out.as_ref().map_err(Clone::clone)?.0;
            }
            cache.insert(cfg.clone(), cycles);
        }
        Ok(n_units)
    }

    /// Fills the dataflow-bound cache for every configuration in
    /// `configs`. Bounds are static analysis over each workload's
    /// golden trace, not simulation units, so fills are **not** counted
    /// in [`EngineStats::units`].
    fn ensure_bounds(&self, configs: &[&MachineConfig]) -> Result<(), EngineError> {
        let missing: Vec<&MachineConfig> = {
            let cache = self.bound_cache.lock().expect("bound cache lock");
            let mut seen: Vec<&MachineConfig> = Vec::new();
            for &c in configs {
                if !cache.contains_key(c) && !seen.contains(&c) {
                    seen.push(c);
                }
            }
            seen
        };
        if missing.is_empty() {
            return Ok(());
        }
        let per_cfg = self.suite.len();
        let outs = self.run_pool(missing.len() * per_cfg, |i| {
            let cfg = missing[i / per_cfg];
            let w = &self.suite[i % per_cfg];
            w.golden_trace()
                .map(|t| dataflow_bound(&t, cfg).bound)
                .map_err(|err| EngineError::Golden {
                    workload: w.name,
                    err,
                })
        });
        let mut cache = self.bound_cache.lock().expect("bound cache lock");
        for (ci, &cfg) in missing.iter().enumerate() {
            let mut bounds = Vec::with_capacity(per_cfg);
            for out in &outs[ci * per_cfg..(ci + 1) * per_cfg] {
                bounds.push(*out.as_ref().map_err(Clone::clone)?);
            }
            cache.insert(cfg.clone(), Arc::new(bounds));
        }
        Ok(())
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
            let mut stalls = StallHistogram::default();
            let mut branch = BranchSummary::default();
            let mut dcache = CacheSummary::default();
            for out in &outs[ji * per_job..(ji + 1) * per_job] {
                let (c, n, h, b, dc) = out.as_ref().map_err(Clone::clone)?;
                cycles += c;
                instructions += n;
                stalls.absorb(h);
                branch.predicts += b.predicts;
                branch.mispredicts += b.mispredicts;
                branch.flush_cycles += b.flush_cycles;
                dcache.accesses += dc.accesses;
                dcache.hits += dc.hits;
                dcache.misses += dc.misses;
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
                stalls: stalls.rows(),
                branch: job.mechanism.predictor().map(|_| branch),
                cache: (!job.config.dcache.is_perfect()).then_some(dcache),
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
            Self::run_unit(&label, mechanism, config, w).map(|(c, n, _, _, _)| (w.name, c, n))
        });
        outs.into_iter()
            .zip(bounds.iter())
            .map(|(out, &dataflow_bound)| {
                out.map(|(name, cycles, instructions)| WorkloadRow {
                    name,
                    cycles,
                    instructions,
                    dataflow_bound,
                })
            })
            .collect()
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
            assert_eq!(a.stalls, b.stalls);
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
                j.instructions + j.total_stalls(),
                "cycle accounting for {}",
                j.label
            );
            assert!(!j.stalls.is_empty(), "{} reports no stalls", j.label);
            assert!(j.stalls.iter().all(|&(_, n)| n > 0));
            assert!(j.stalls.len() <= StallReason::ALL.len());
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
            report.jobs[0].branch.is_none(),
            "non-speculative jobs carry no branch stats"
        );
        let b = report.jobs[1]
            .branch
            .expect("speculative job has branch stats");
        // The mini kernels' loop condition is computed right before the
        // branch, so the speculative machine must actually predict, and
        // the two-bit counter misses each loop exit.
        assert!(b.predicts > 0);
        assert!(b.mispredicts > 0 && b.mispredicts <= b.predicts);
        assert_eq!(
            b.flush_cycles,
            b.mispredicts * (cfg.mispredict_penalty + 1),
            "every flush costs exactly one redirect window"
        );
        assert!(b.mpki(report.jobs[1].instructions) > 0.0);

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
            report.jobs[0].cache.is_none(),
            "perfect-memory jobs carry no cache stats"
        );
        let c = report.jobs[1].cache.expect("finite-dcache job has stats");
        assert!(c.accesses > 0, "the mini kernels load every iteration");
        assert_eq!(c.hits + c.misses, c.accesses);
        assert!(c.misses > 0, "a cold cache must miss at least once");
        assert!((0.0..=1.0).contains(&c.hit_rate()));
        assert!(c.mpki(report.jobs[1].instructions) > 0.0);

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
