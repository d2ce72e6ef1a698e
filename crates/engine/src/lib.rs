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
//! * every unit's result is kept in one **unit memo** for the engine's
//!   lifetime, keyed by (mechanism, configuration, workload): baseline
//!   (simple-issue) cycles are its `Simple` entries, and a duplicate
//!   job, in one call or across calls, is simulated once;
//! * a window sweep stops simulating where the window stops mattering:
//!   a run of an RSTU, RUU, speculative RUU or §4 buffer that never
//!   stalled on a full window ([`StallReason::WindowFull`]) answers
//!   every larger size of that mechanism, configuration and workload,
//!   exactly ([`EngineStats::reused`] counts the answered units);
//! * per-workload **dataflow-limit lower bounds**
//!   (`ruu_analysis::dataflow_bound` over each golden trace) are
//!   memoized per [`MachineConfig`], so every [`JobResult`] reports how
//!   close the mechanism came to the best any issue logic could do;
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
    /// (job × workload) units answered, including baseline fills.
    pub units: usize,
    /// Units answered from the unit memo rather than simulated: ones an
    /// earlier call or an earlier request of this one ran, and ones a
    /// saturated run at a smaller window size answers.
    pub reused: usize,
    /// Wall-clock time for the whole grid.
    pub wall: Duration,
    /// Jobs completed per wall-clock second.
    pub jobs_per_sec: f64,
    /// Simulated units (`units - reused`) per wall-clock second.
    pub units_per_sec: f64,
}

/// The sweep footer: `engine: J jobs (U units, R reused) on W workers in …`.
impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine: {} jobs ({} units, {} reused) on {} workers in {:.1?} ({:.1} jobs/s, {:.1} units/s)",
            self.jobs,
            self.units,
            self.reused,
            self.workers,
            self.wall,
            self.jobs_per_sec,
            self.units_per_sec
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
        w.key("reused_units").u64(self.stats.reused as u64);
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

/// One simulated unit: cycles, instructions and the run's counters
/// (integers, so aggregation stays worker-count independent).
#[derive(Debug, Clone)]
struct Unit {
    cycles: u64,
    instructions: u64,
    stats: RunStats,
}

impl Unit {
    /// The run never stalled on a full window, so its window size was
    /// never a parameter of it.
    fn saturated(&self) -> bool {
        self.stats.stalls(StallReason::WindowFull) == 0
    }
}

/// Why a unit failed, before the requesting job's label is attached.
#[derive(Debug, Clone)]
enum Failure {
    Sim(SimError),
    Verify(VerifyError),
}

impl Failure {
    fn into_error(self, job: &str, workload: &'static str) -> EngineError {
        let job = job.to_string();
        match self {
            Failure::Sim(err) => EngineError::Sim { job, workload, err },
            Failure::Verify(err) => EngineError::Verify { job, workload, err },
        }
    }
}

/// A mechanism split into its family and its size: for the mechanisms
/// whose only size is one entry count, the mechanism with that count
/// erased and the count; any other mechanism is its own family, with no
/// size.
fn family_and_size(m: Mechanism) -> (Mechanism, Option<usize>) {
    let mut family = m;
    let size = match &mut family {
        Mechanism::Rstu { entries }
        | Mechanism::Ruu { entries, .. }
        | Mechanism::SpecRuu { entries, .. }
        | Mechanism::InOrderPrecise { entries, .. } => Some(std::mem::take(entries)),
        Mechanism::Simple
        | Mechanism::Tomasulo { .. }
        | Mechanism::TagUnitDistributed { .. }
        | Mechanism::RsPool { .. } => None,
    };
    (family, size)
}

/// The memoized runs of one (family, configuration, workload): the unit
/// at each size run, and the smallest size whose run was saturated.
#[derive(Debug, Default)]
struct Runs {
    by_size: HashMap<Option<usize>, Unit>,
    saturated: Option<usize>,
}

impl Runs {
    /// The unit at `size`: its own run, or a saturated run at a size no
    /// larger.
    fn get(&self, size: Option<usize>) -> Option<&Unit> {
        match (self.by_size.get(&size), self.saturated, size) {
            (Some(unit), ..) => Some(unit),
            (None, Some(n), Some(m)) if n <= m => self.by_size.get(&Some(n)),
            _ => None,
        }
    }

    fn insert(&mut self, size: Option<usize>, unit: Unit) {
        if let Some(n) = size.filter(|_| unit.saturated()) {
            self.saturated = Some(self.saturated.map_or(n, |s| s.min(n)));
        }
        self.by_size.insert(size, unit);
    }
}

/// Every unit the engine has simulated, by configuration, then (family,
/// workload index), then size.
#[derive(Debug, Default)]
struct UnitMemo(HashMap<MachineConfig, HashMap<(Mechanism, usize), Runs>>);

impl UnitMemo {
    fn get(&self, mechanism: Mechanism, config: &MachineConfig, workload: usize) -> Option<&Unit> {
        let (family, size) = family_and_size(mechanism);
        self.0.get(config)?.get(&(family, workload))?.get(size)
    }

    fn insert(
        &mut self,
        mechanism: Mechanism,
        config: &MachineConfig,
        workload: usize,
        unit: Unit,
    ) {
        let (family, size) = family_and_size(mechanism);
        let runs = self.0.entry(config.clone()).or_default();
        runs.entry((family, workload))
            .or_default()
            .insert(size, unit);
    }
}

/// A unit to answer: a mechanism under a configuration on the workload
/// at this index of the suite.
type Request<'a> = (Mechanism, &'a MachineConfig, usize);

/// The parallel batch-simulation engine. See the crate docs.
#[derive(Debug)]
pub struct SweepEngine {
    suite: Arc<[Workload]>,
    workers: usize,
    units: Mutex<UnitMemo>,
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
            units: Mutex::new(UnitMemo::default()),
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

    /// Simulates one (mechanism, config, workload) triple and verifies
    /// the result against the workload's mirror computation.
    fn simulate(
        mechanism: Mechanism,
        config: &MachineConfig,
        w: &Workload,
    ) -> Result<Unit, Failure> {
        let r = mechanism
            .build(config)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .map_err(Failure::Sim)?;
        w.verify(&r.memory).map_err(Failure::Verify)?;
        Ok(Unit {
            cycles: r.cycles,
            instructions: r.instructions,
            stats: r.stats,
        })
    }

    /// Answers each request, in request order, from the unit memo where
    /// it can and by simulation where it must, and memoizes every unit
    /// that succeeded. Returns the answers and the number of units
    /// simulated.
    ///
    /// The requests the memo cannot answer yet are grouped by (family,
    /// config, workload). One worker simulates a group's mechanisms in
    /// ascending size order and stops at the first saturated run, which
    /// answers the group's larger sizes (DESIGN.md §5b says why that is
    /// exact). A duplicate request is simulated once; a failed unit is
    /// not memoized.
    fn answer(&self, requests: &[Request<'_>]) -> (Vec<Result<Unit, Failure>>, usize) {
        let mut groups: Vec<(&MachineConfig, usize, Vec<Mechanism>)> = Vec::new();
        let mut group_of: HashMap<(Mechanism, &MachineConfig, usize), usize> = HashMap::new();
        {
            let memo = self.units.lock().expect("unit memo lock");
            for &(mechanism, config, workload) in requests {
                if memo.get(mechanism, config, workload).is_some() {
                    continue;
                }
                let family = family_and_size(mechanism).0;
                let g = *group_of
                    .entry((family, config, workload))
                    .or_insert_with(|| {
                        groups.push((config, workload, Vec::new()));
                        groups.len() - 1
                    });
                if !groups[g].2.contains(&mechanism) {
                    groups[g].2.push(mechanism);
                }
            }
        }
        let runs = self.run_pool(groups.len(), |g| {
            let (config, workload, ref mechanisms) = groups[g];
            let mut mechanisms = mechanisms.clone();
            mechanisms.sort_unstable_by_key(|&m| family_and_size(m).1);
            let mut out: Vec<(Mechanism, Result<Unit, Failure>)> = Vec::new();
            for m in mechanisms {
                let unit = Self::simulate(m, config, &self.suite[workload]);
                let saturated = unit.as_ref().is_ok_and(Unit::saturated);
                out.push((m, unit));
                if saturated {
                    break;
                }
            }
            out
        });
        let simulated = runs.iter().map(Vec::len).sum();

        let mut memo = self.units.lock().expect("unit memo lock");
        for (&(config, workload, _), outs) in groups.iter().zip(&runs) {
            for (m, out) in outs {
                if let Ok(unit) = out {
                    memo.insert(*m, config, workload, unit.clone());
                }
            }
        }
        let answers = requests
            .iter()
            .map(
                |&(m, config, workload)| match memo.get(m, config, workload) {
                    Some(unit) => Ok(unit.clone()),
                    None => {
                        let g = group_of[&(family_and_size(m).0, config, workload)];
                        let failed = runs[g].iter().find(|(run, _)| *run == m);
                        let failure = failed.and_then(|(_, out)| out.as_ref().err());
                        Err(failure.expect("a unit the memo lacks failed").clone())
                    }
                },
            )
            .collect();
        (answers, simulated)
    }

    /// The suite's golden traces, in suite order: captured across the
    /// pool on the first call, then kept for the engine's lifetime.
    ///
    /// # Errors
    /// Propagates a golden-interpreter failure as
    /// [`EngineError::Golden`].
    pub fn golden_traces(&self) -> Result<&[Trace], EngineError> {
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
    /// `configs` it lacks, in one pooled pass over the missing
    /// (config × workload) pairs. Bounds are static analysis over each
    /// workload's golden trace, not simulation units, so fills are
    /// **not** counted in [`EngineStats::units`].
    fn ensure_bounds(&self, configs: &[&MachineConfig]) -> Result<(), EngineError> {
        let missing: Vec<&MachineConfig> = {
            let memo = self.bound_cache.lock().expect("bound cache lock");
            configs
                .iter()
                .copied()
                .filter(|c| !memo.contains_key(*c))
                .collect()
        };
        if missing.is_empty() {
            return Ok(());
        }
        let traces = self.golden_traces()?;
        let per_cfg = self.suite.len();
        let bounds = self.run_pool(missing.len() * per_cfg, |i| {
            dataflow_bound(&traces[i % per_cfg], missing[i / per_cfg]).bound
        });
        let mut memo = self.bound_cache.lock().expect("bound cache lock");
        for (cfg, bounds) in missing.iter().zip(bounds.chunks(per_cfg)) {
            memo.insert((*cfg).clone(), Arc::new(bounds.to_vec()));
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
    /// denominator of every paper-style speedup: the sum of the
    /// `Simple` units in the unit memo, simulated on first use.
    ///
    /// # Errors
    /// Propagates the first failing unit's [`EngineError`].
    pub fn baseline_cycles(&self, config: &MachineConfig) -> Result<u64, EngineError> {
        let requests: Vec<Request<'_>> = (0..self.suite.len())
            .map(|w| (Mechanism::Simple, config, w))
            .collect();
        let (answers, _) = self.answer(&requests);
        answers
            .into_iter()
            .zip(self.suite.iter())
            .map(|(out, w)| {
                out.map(|u| u.cycles)
                    .map_err(|f| f.into_error(BASELINE, w.name))
            })
            .sum()
    }

    /// Executes a job grid across the worker pool.
    ///
    /// Each (job × workload) unit, and each baseline unit a job's
    /// configuration lacks, is answered from the unit memo or simulated
    /// (see the crate docs). Results are aggregated per job in workload
    /// order from integer per-unit results, so the numbers are identical
    /// for any worker count; only [`SweepReport::stats`] is
    /// timing-dependent.
    ///
    /// # Errors
    /// The first failing unit (in deterministic unit order, baseline
    /// units first) aborts the report with its [`EngineError`].
    pub fn run_grid(&self, jobs: &[Job]) -> Result<SweepReport, EngineError> {
        let start = Instant::now();
        let per_job = self.suite.len();
        let mut configs: Vec<&MachineConfig> = Vec::new();
        for job in jobs {
            if !configs.contains(&&job.config) {
                configs.push(&job.config);
            }
        }
        // Baseline fills: the simple-issue units the memo lacks.
        let fills: Vec<Request<'_>> = {
            let memo = self.units.lock().expect("unit memo lock");
            configs
                .iter()
                .flat_map(|&c| (0..per_job).map(move |w| (Mechanism::Simple, c, w)))
                .filter(|&(m, c, w)| memo.get(m, c, w).is_none())
                .collect()
        };
        let units = jobs
            .iter()
            .flat_map(|j| (0..per_job).map(move |w| (j.mechanism, &j.config, w)));
        let requests: Vec<Request<'_>> = fills.iter().copied().chain(units).collect();
        let (mut answers, simulated) = self.answer(&requests);
        let job_answers = answers.split_off(fills.len());
        for (&(_, _, w), out) in fills.iter().zip(answers) {
            out.map_err(|f| f.into_error(BASELINE, self.suite[w].name))?;
        }
        self.ensure_bounds(&configs)?;

        let memo = self.units.lock().expect("unit memo lock");
        let bound_cache = self.bound_cache.lock().expect("bound cache lock");
        let mut results = Vec::with_capacity(jobs.len());
        for (job, outs) in jobs.iter().zip(job_answers.chunks(per_job)) {
            let mut cycles = 0u64;
            let mut instructions = 0u64;
            let mut stats = RunStats::default();
            for (out, w) in outs.iter().zip(self.suite.iter()) {
                let u = out
                    .as_ref()
                    .map_err(|f| f.clone().into_error(&job.label, w.name))?;
                cycles += u.cycles;
                instructions += u.instructions;
                stats.absorb(&u.stats);
            }
            let baseline_cycles = (0..per_job)
                .map(|w| {
                    memo.get(Mechanism::Simple, &job.config, w)
                        .expect("the baseline fill covered every job config")
                        .cycles
                })
                .sum();
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
        drop(memo);
        drop(bound_cache);

        let wall = start.elapsed();
        let units = requests.len();
        let secs = wall.as_secs_f64();
        let rate = |n: usize| if secs > 0.0 { n as f64 / secs } else { 0.0 };
        Ok(SweepReport {
            jobs: results,
            stats: EngineStats {
                workers: self.workers,
                jobs: jobs.len(),
                units,
                reused: units - simulated,
                wall,
                jobs_per_sec: rate(jobs.len()),
                units_per_sec: rate(simulated),
            },
        })
    }

    /// Runs one (mechanism, config) pair over the suite, returning
    /// per-workload rows (paper Table-1 shape), answered from the unit
    /// memo or simulated in parallel.
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
        let requests: Vec<Request<'_>> = (0..self.suite.len())
            .map(|w| (mechanism, config, w))
            .collect();
        let (answers, _) = self.answer(&requests);
        answers
            .into_iter()
            .zip(self.suite.iter())
            .zip(bounds.iter())
            .map(|((out, w), &dataflow_bound)| {
                let u = out.map_err(|f| f.into_error(&label, w.name))?;
                Ok(WorkloadRow {
                    name: w.name,
                    cycles: u.cycles,
                    instructions: u.instructions,
                    dataflow_bound,
                    stats: u.stats,
                })
            })
            .collect()
    }
}

/// The job label a failing baseline unit reports.
const BASELINE: &str = "baseline(simple)";

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
    fn baseline_units_are_memoized() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let cfg = MachineConfig::paper();
        let a = engine.baseline_cycles(&cfg).expect("baseline");
        let b = engine.baseline_cycles(&cfg).expect("baseline (cached)");
        assert_eq!(a, b);
        // Second grid over the same config schedules no baseline units.
        let r1 = engine.run_grid(&[ruu_job(4)]).expect("grid");
        assert_eq!(r1.stats.units, engine.suite().len());
        assert_eq!(r1.stats.reused, 0);
        // A new config forces a baseline fill.
        let other = cfg.clone().with_result_buses(2);
        let r2 = engine
            .run_grid(&[Job::new(Mechanism::Rstu { entries: 4 }, other)])
            .expect("grid");
        assert_eq!(r2.stats.units, 2 * engine.suite().len());
        assert_eq!(r2.stats.reused, 0);
    }

    #[test]
    fn duplicate_units_are_simulated_once() {
        let engine = SweepEngine::new(mini_suite()).with_workers(2);
        let n = engine.suite().len();
        let simple = Job::new(Mechanism::Simple, MachineConfig::paper());
        let jobs = [ruu_job(4), ruu_job(4).with_label("again"), simple];
        let report = engine.run_grid(&jobs).expect("grid");
        // The baseline fill, three jobs; the copy and the simple-issue
        // job are answered by the first job and the fill.
        assert_eq!(report.stats.units, 4 * n);
        assert_eq!(report.stats.reused, 2 * n);
        assert_eq!(report.jobs[0].stats, report.jobs[1].stats);
        assert_eq!(report.jobs[2].cycles, report.jobs[2].baseline_cycles);
        // A later call simulates none of them again.
        let again = engine.run_grid(&jobs).expect("grid");
        assert_eq!((again.stats.units, again.stats.reused), (3 * n, 3 * n));
    }

    #[test]
    fn saturated_runs_answer_every_larger_size() {
        let sizes: Vec<usize> = (1..=24).collect();
        let jobs: Vec<Job> = sizes.iter().map(|&e| ruu_job(e)).collect();
        let suite = mini_suite();
        // Per workload, the sizes up to the first whose direct run never
        // found the window full are simulated; it answers the rest.
        let mut simulated = suite.len(); // the baseline fill
        for w in &suite {
            let full = |entries| {
                let r = ruu_job(entries)
                    .mechanism
                    .build(&MachineConfig::paper())
                    .run(&w.program, w.memory.clone(), w.inst_limit)
                    .expect("direct run");
                r.stats.stalls(StallReason::WindowFull)
            };
            let first = sizes.iter().position(|&e| full(e) == 0).expect("saturates");
            simulated += first + 1;
        }
        assert!(simulated < suite.len() * (sizes.len() + 1));
        let whole = SweepEngine::new(mini_suite()).with_workers(2);
        let report = whole.run_grid(&jobs).expect("grid");
        assert_eq!(report.stats.units - report.stats.reused, simulated);
        // One call per size answers from the memo alike.
        let piecewise = SweepEngine::new(mini_suite()).with_workers(1);
        let mut ran = 0;
        for (job, whole) in jobs.iter().zip(&report.jobs) {
            let r = piecewise.run_grid(std::slice::from_ref(job)).expect("job");
            ran += r.stats.units - r.stats.reused;
            assert_eq!(
                (r.jobs[0].cycles, &r.jobs[0].stats),
                (whole.cycles, &whole.stats)
            );
        }
        assert_eq!(ran, simulated);
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
