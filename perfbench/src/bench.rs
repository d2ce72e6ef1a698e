//! The three workloads, the passes that time them, and the metrics they
//! report.
//!
//! A *unit* is one fresh simulator running one program under one machine
//! configuration, so every unit starts with empty modelled caches and
//! predictors; no warmed statistic is reported. A *pass* runs every unit
//! of a workload once (`ooo-wide`, `inorder-cached`) or the whole sweep
//! grid once (`sweep-grid`). End-to-end metrics come from untraced passes;
//! the traced run adds the counting observer and spans and reports the
//! per-layer metrics.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ruu_analysis::dataflow_bound;
use ruu_engine::{EngineError, Job, SweepEngine, SweepReport};
use ruu_isa::FuClass;
use ruu_issue::{Bypass, Mechanism, PreciseScheme, PredictorConfig};
use ruu_predict::cbp::evaluate_with_btb;
use ruu_predict::{BranchStream, Btb, TwoBit};
use ruu_sim_core::{DCache, DCacheConfig, MachineConfig, RunStats, StallReason};

use crate::inputs::Inputs;
use crate::observer::Counts;
use crate::trace::Tracer;
use crate::units::{run_observed, run_timed, UnitFailure, UnitSpec};
use crate::{allowed_cpus, ns_since, pin_thread, process_cpu_ns, thread_cpu_ns};

/// Data-cache geometry of the cached configurations: the one CI's
/// `cachesim` step uses (64 sets × 2 ways × 4-word lines, 20-cycle miss).
pub const DCACHE_GEOMETRY: &str = "64x2x4:20";
/// Engine worker threads of the traced `sweep-grid` passes: `nproc` of the
/// reference host. Timed passes run the engine on one worker: two busy
/// threads on a shared 2-vCPU host measured whatever else ran there too.
pub const SWEEP_WORKERS: usize = 2;
/// Fewest timed passes a run makes, however long one pass takes.
pub const MIN_PASSES: usize = 3;
/// Issue-logic families, as named by the `issue.*` metrics.
pub const FAMILIES: [&str; 5] = ["simple", "tagged", "ruu", "spec_ruu", "reorder"];
/// Shortest time the predictor and cache replays are timed for.
const MIN_REPLAY: Duration = Duration::from_millis(20);
/// Most failure messages one run keeps.
const MAX_ERRORS: usize = 32;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// RUU, speculative RUU and RSTU at 30 and 50 entries under perfect
    /// memory: host time goes to the O(window) wakeup, `pos` scans and
    /// dispatch sort.
    OooWide,
    /// In-order issue and 4–8-entry machines under a finite data cache:
    /// windows are tiny, so host time goes to the frontend, FU and bus
    /// booking, the load registers and the cache path.
    InorderCached,
    /// The engine path `ruu-sim sweep` runs: a 96-job grid with JSON
    /// output, timed job by job on one engine.
    SweepGrid,
}

impl WorkloadKind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::OooWide,
        WorkloadKind::InorderCached,
        WorkloadKind::SweepGrid,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::OooWide => "ooo-wide",
            WorkloadKind::InorderCached => "inorder-cached",
            WorkloadKind::SweepGrid => "sweep-grid",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Most host threads the workload simulates on, traced or not.
    #[must_use]
    pub fn workers(self, traced: bool) -> usize {
        match self {
            WorkloadKind::SweepGrid if traced => SWEEP_WORKERS,
            _ => 1,
        }
    }
}

/// The paper machine with the [`DCACHE_GEOMETRY`] data cache.
#[must_use]
pub fn cached_config() -> MachineConfig {
    let dcache = DCacheConfig::parse(DCACHE_GEOMETRY).expect("the benchmark's geometry is valid");
    MachineConfig::paper().with_dcache(dcache)
}

/// The issue-logic family of `m` (see [`FAMILIES`]).
#[must_use]
pub fn family(m: &Mechanism) -> &'static str {
    match m {
        Mechanism::Simple => "simple",
        Mechanism::Tomasulo { .. }
        | Mechanism::TagUnitDistributed { .. }
        | Mechanism::RsPool { .. }
        | Mechanism::Rstu { .. } => "tagged",
        Mechanism::Ruu { .. } => "ruu",
        Mechanism::SpecRuu { .. } => "spec_ruu",
        Mechanism::InOrderPrecise { .. } => "reorder",
    }
}

/// Everything a workload runs, built before timing starts.
#[derive(Debug)]
pub struct Plan {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Its programs and their golden runs.
    pub inputs: Inputs,
    /// Machine configurations the units index.
    pub configs: Vec<MachineConfig>,
    /// For the serial workloads, the units of one pass. For `sweep-grid`,
    /// the grid's distinct units, each weighted by how many jobs run it;
    /// only the traced run replays them one by one.
    pub units: Vec<UnitSpec>,
    /// The sweep grid (empty for the serial workloads).
    pub jobs: Vec<Job>,
}

impl Plan {
    /// Builds the inputs and units of `kind` under `seed`. The seed picks
    /// the synthetic programs; `sweep-grid` runs the fixed Livermore suite.
    ///
    /// # Errors
    /// As [`Inputs::build`].
    pub fn build(kind: WorkloadKind, seed: u64) -> Result<Plan, String> {
        let full = Bypass::Full;
        let spec = |entries| Mechanism::SpecRuu {
            entries,
            bypass: full,
            predictor: PredictorConfig::default(),
        };
        match kind {
            WorkloadKind::OooWide => {
                let mut mechanisms = Vec::new();
                for entries in [30, 50] {
                    mechanisms.push(Mechanism::Ruu {
                        entries,
                        bypass: full,
                    });
                    mechanisms.push(spec(entries));
                    mechanisms.push(Mechanism::Rstu { entries });
                }
                let inputs = Inputs::build(seed, true)?;
                Ok(Plan::serial(
                    kind,
                    inputs,
                    MachineConfig::paper(),
                    &mechanisms,
                ))
            }
            WorkloadKind::InorderCached => {
                let precise = |scheme| Mechanism::InOrderPrecise { scheme, entries: 8 };
                let mechanisms = [
                    Mechanism::Simple,
                    precise(PreciseScheme::ReorderBufferBypass),
                    precise(PreciseScheme::HistoryBuffer),
                    precise(PreciseScheme::FutureFile),
                    Mechanism::Ruu {
                        entries: 4,
                        bypass: full,
                    },
                ];
                let inputs = Inputs::build(seed, true)?;
                Ok(Plan::serial(kind, inputs, cached_config(), &mechanisms))
            }
            WorkloadKind::SweepGrid => {
                let inputs = Inputs::build(seed, false)?;
                let configs = vec![MachineConfig::paper(), cached_config()];
                let mut jobs = Vec::new();
                let mut units = Vec::new();
                for (c, config) in configs.iter().enumerate() {
                    let mut distinct: Vec<(Mechanism, u64)> = Vec::new();
                    for make in [
                        (|_| Mechanism::Simple) as fn(usize) -> Mechanism,
                        |entries| Mechanism::Ruu {
                            entries,
                            bypass: Bypass::Full,
                        },
                        |entries| Mechanism::SpecRuu {
                            entries,
                            bypass: Bypass::Full,
                            predictor: PredictorConfig::default(),
                        },
                    ] {
                        for entries in (3..=48).step_by(3) {
                            let m = make(entries);
                            jobs.push(Job::new(m, config.clone()));
                            match distinct.iter_mut().find(|(d, _)| *d == m) {
                                Some((_, weight)) => *weight += 1,
                                None => distinct.push((m, 1)),
                            }
                        }
                    }
                    for (mechanism, weight) in distinct {
                        units.extend((0..inputs.programs.len()).map(|program| UnitSpec {
                            mechanism,
                            config: c,
                            program,
                            weight,
                        }));
                    }
                }
                Ok(Plan {
                    kind,
                    inputs,
                    configs,
                    units,
                    jobs,
                })
            }
        }
    }

    fn serial(
        kind: WorkloadKind,
        inputs: Inputs,
        config: MachineConfig,
        mechanisms: &[Mechanism],
    ) -> Plan {
        let programs = inputs.programs.len();
        let units = mechanisms
            .iter()
            .flat_map(|&mechanism| {
                (0..programs).map(move |program| UnitSpec {
                    mechanism,
                    config: 0,
                    program,
                    weight: 1,
                })
            })
            .collect();
        Plan {
            kind,
            inputs,
            configs: vec![config],
            units,
            jobs: Vec::new(),
        }
    }

    /// Grid jobs that repeat an earlier job's (mechanism, configuration).
    #[must_use]
    pub fn duplicate_jobs(&self) -> u64 {
        if self.jobs.is_empty() {
            return 0;
        }
        let distinct = self.units.len() / self.inputs.programs.len();
        (self.jobs.len() - distinct) as u64
    }

    /// Dynamic instructions one pass simulates.
    #[must_use]
    pub fn pass_instructions(&self) -> u64 {
        self.units
            .iter()
            .map(|u| self.inputs.programs[u.program].instructions() * u.weight)
            .sum()
    }

    /// `mechanism/dcache/program` label of a unit.
    #[must_use]
    pub fn unit_label(&self, u: &UnitSpec) -> String {
        format!(
            "{}/{}/{}",
            u.mechanism,
            self.configs[u.config].dcache,
            self.inputs.programs[u.program].workload.name
        )
    }

    /// The data-cache models the plan simulates, comma-separated.
    #[must_use]
    pub fn dcache_label(&self) -> String {
        let models: Vec<String> = self.configs.iter().map(|c| c.dcache.to_string()).collect();
        models.join(",")
    }

    /// What each piece a pass times simulates: its dynamic instructions
    /// and the `ns_per_inst_*` sample it counts towards. A piece is a unit
    /// of a serial pass or a job of a grid pass; a sample is a mechanism,
    /// on `sweep-grid` a mechanism family under one data cache.
    #[must_use]
    pub fn pieces(&self) -> Vec<(u64, String)> {
        if self.jobs.is_empty() {
            return self
                .units
                .iter()
                .map(|u| {
                    let instructions = self.inputs.programs[u.program].instructions();
                    (instructions, u.mechanism.to_string())
                })
                .collect();
        }
        let suite: u64 = self.inputs.programs.iter().map(|p| p.instructions()).sum();
        self.jobs
            .iter()
            .map(|j| {
                (
                    suite,
                    format!("{}/{}", family(&j.mechanism), j.config.dcache),
                )
            })
            .collect()
    }

    /// Simulation units one grid pass runs, baseline fills included.
    fn grid_units(&self) -> u64 {
        ((self.jobs.len() + self.configs.len()) * self.inputs.programs.len()) as u64
    }
}

/// Units attempted and failed, plus every other correctness problem.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Simulation units attempted.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// What went wrong (the first [`MAX_ERRORS`] messages).
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one unit's outcome: an error is a failed unit.
    pub fn record<T>(
        &mut self,
        label: impl FnOnce() -> String,
        outcome: Result<T, UnitFailure>,
    ) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.note(format!("{}: {e}", label()));
                None
            }
        }
    }

    /// Records a correctness problem that is not one unit's failure.
    pub fn note(&mut self, what: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in &other.errors {
            self.note(e.clone());
        }
    }

    /// No unit failed and nothing else went wrong.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// One timed pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall-clock ns of the whole pass.
    pub wall_ns: u64,
    /// Host CPU ns of the whole pass, every thread included.
    pub cpu_ns: u64,
    /// Host CPU ns of each piece: each unit's `run` call in a serial pass,
    /// each job's `run_grid` and `to_json` calls in a grid pass.
    pub piece_ns: Vec<u64>,
    /// Cycles of each unit, or of each grid job: must repeat exactly.
    pub fingerprint: Vec<u64>,
    /// Simulated cycles, each unit counted `weight` times.
    pub cycles: u64,
    /// Units the pass ran (for a grid pass, the engine's own count).
    pub units: u64,
    /// Outcomes.
    pub tally: Tally,
}

/// Runs every unit of `plan` once, untraced.
fn serial_pass(plan: &Plan) -> Pass {
    let start = Instant::now();
    let cpu = thread_cpu_ns();
    let mut pass = Pass::default();
    for u in &plan.units {
        let sim = u.mechanism.build(&plan.configs[u.config]);
        let outcome = run_timed(sim.as_ref(), &plan.inputs.programs[u.program]);
        let (ns, cycles) = pass
            .tally
            .record(|| plan.unit_label(u), outcome)
            .map_or((0, 0), |(ns, r)| (ns, r.cycles));
        pass.piece_ns.push(ns);
        pass.fingerprint.push(cycles);
        pass.cycles += cycles * u.weight;
        pass.units += 1;
    }
    pass.wall_ns = ns_since(start);
    pass.cpu_ns = thread_cpu_ns() - cpu;
    pass
}

/// Runs the sweep grid once on a fresh one-worker engine, one timed
/// `run_grid` call per job, report JSON included. Short pieces let each
/// job's fastest run fall between bursts of other tenants' load; the
/// engine's memos carry over from one call to the next, as they do within
/// one call over the whole grid.
fn grid_pass(plan: &Plan) -> Pass {
    let start = Instant::now();
    let cpu = thread_cpu_ns();
    let engine = SweepEngine::livermore().with_workers(1);
    let mut pass = Pass::default();
    let mut instructions = 0;
    for job in &plan.jobs {
        let jobs = std::slice::from_ref(job);
        let piece = thread_cpu_ns();
        let outcome = engine.run_grid(jobs).map(|report| {
            let json = report.to_json();
            (report, json)
        });
        pass.piece_ns.push(thread_cpu_ns() - piece);
        let outcome = outcome.as_ref().map(|(r, json)| (r, json.as_str()));
        instructions += record_grid(plan, 1, outcome, &mut pass);
    }
    pass.wall_ns = ns_since(start);
    pass.cpu_ns = thread_cpu_ns() - cpu;
    check_grid(plan, plan.grid_units(), instructions, &mut pass);
    pass
}

/// Adds one grid report of `jobs` jobs to `pass`: its units and its jobs'
/// cycles. Returns the instructions it simulated.
fn record_grid(
    plan: &Plan,
    jobs: usize,
    outcome: Result<(&SweepReport, &str), &EngineError>,
    pass: &mut Pass,
) -> u64 {
    let (report, json) = match outcome {
        Ok(ok) => ok,
        Err(e) => {
            let units = (jobs * plan.inputs.programs.len()) as u64;
            pass.tally.attempted += units;
            pass.tally.failed += units;
            pass.tally.note(format!("sweep grid: {e}"));
            return 0;
        }
    };
    pass.units += report.stats.units as u64;
    pass.tally.attempted += report.stats.units as u64;
    pass.fingerprint
        .extend(report.jobs.iter().map(|j| j.cycles));
    pass.cycles += report.jobs.iter().map(|j| j.cycles).sum::<u64>();
    if !(json.starts_with('{') && json.ends_with('}') && json.contains("\"jobs\":[")) {
        pass.tally.note("sweep report JSON is malformed".into());
    }
    report.jobs.iter().map(|j| j.instructions).sum()
}

/// Checks that a grid pass ran the units and instructions the plan holds.
fn check_grid(plan: &Plan, expected_units: u64, instructions: u64, pass: &mut Pass) {
    if pass.units != expected_units {
        pass.tally.note(format!(
            "sweep grid ran {} units, expected {expected_units}",
            pass.units
        ));
    }
    if instructions != plan.pass_instructions() {
        pass.tally.note(format!(
            "sweep grid simulated {instructions} instructions, expected {}",
            plan.pass_instructions()
        ));
    }
}

fn untraced_pass(plan: &Plan) -> Pass {
    match plan.kind {
        WorkloadKind::SweepGrid => grid_pass(plan),
        _ => serial_pass(plan),
    }
}

/// Calls `pass` until `budget` would be exceeded by one more pass of the
/// last one's length, and at least `min` times.
fn repeat<T>(budget: Duration, min: usize, mut pass: impl FnMut() -> (T, u64)) -> Vec<(T, u64)> {
    let start = Instant::now();
    let mut out: Vec<(T, u64)> = Vec::new();
    while out.len() < min
        || start.elapsed() + Duration::from_nanos(out.last().map_or(0, |p| p.1)) <= budget
    {
        out.push(pass());
    }
    out
}

/// One checked, untimed pass, so page faults, allocator growth and the
/// first thread spawns do not land in a timed pass.
fn warm_up(plan: &Plan, tally: &mut Tally) {
    tally.absorb(&untraced_pass(plan).tally);
}

fn check_repeatable(passes: &[Pass], tally: &mut Tally, what: &str) {
    if passes
        .windows(2)
        .any(|w| w[0].fingerprint != w[1].fingerprint)
    {
        tally.note(format!("{what}: simulated cycles differ between passes"));
    }
}

/// Linear-interpolated `q`-quantile (NaN for no samples).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (NaN for no samples).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident memory of this process, in MiB (Linux `VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What each set-up cost.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Host seconds of each whole set-up.
    pub setup_s: Vec<f64>,
    /// Host ns spent building programs, per set-up.
    pub build_ns: Vec<f64>,
    /// Host ns spent in the golden interpreter, per set-up.
    pub golden_ns: Vec<f64>,
    /// Golden instructions one set-up interprets.
    pub golden_instructions: u64,
}

impl SetupTimes {
    /// Adds one set-up of `secs` that built `inputs`.
    pub fn record(&mut self, secs: f64, inputs: &Inputs) {
        self.setup_s.push(secs);
        self.build_ns.push(inputs.build_ns as f64);
        self.golden_ns.push(inputs.golden_ns as f64);
        self.golden_instructions = inputs.instructions();
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// An exact count (compared for equality) rather than a measurement.
    pub exact: bool,
}

/// Per-unit result of an untraced run.
#[derive(Debug, Clone)]
pub struct UnitRow {
    /// `mechanism/dcache/program`.
    pub label: String,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Host CPU ns per simulated instruction of the fastest run.
    pub ns_per_inst: f64,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// `(metric, reason)` for metrics this workload cannot measure; they
    /// are reported as 0.
    pub unavailable: Vec<(String, String)>,
    /// Units attempted and failed.
    pub tally: Tally,
    /// Wall-clock ms of each untraced pass.
    pub pass_ms: Vec<f64>,
    /// Host CPU ms of each untraced pass.
    pub pass_cpu_ms: Vec<f64>,
    /// Wall-clock ms of each traced pass.
    pub traced_pass_ms: Vec<f64>,
    /// Host CPU ms of each traced pass.
    pub traced_pass_cpu_ms: Vec<f64>,
    /// Per-unit results (untraced serial workloads).
    pub units: Vec<UnitRow>,
}

impl Outcome {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, value, false);
    }

    fn count(&mut self, name: &str, unit: &'static str, value: u64) {
        self.push(name, unit, value as f64, true);
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64, exact: bool) {
        if value.is_finite() {
            self.metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
                exact,
            });
        } else {
            self.missing(name, unit, exact, "undefined: its base is zero");
        }
    }

    fn missing(&mut self, name: &str, unit: &'static str, exact: bool, reason: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: 0.0,
            exact,
        });
        self.unavailable
            .push((name.to_string(), reason.to_string()));
    }
}

/// The untraced run: timed passes for `budget`, reported as the
/// end-to-end metrics.
#[must_use]
pub fn untraced_run(plan: &Plan, budget: Duration, setup: &SetupTimes) -> Outcome {
    let mut out = Outcome::default();
    warm_up(plan, &mut out.tally);
    // Other tenants load each vCPU on its own, often for minutes, so the
    // passes take turns on each CPU the process may use: each piece's
    // fastest run can then come from whichever was quieter.
    let cpus = allowed_cpus();
    let mut turn = 0;
    let passes: Vec<Pass> = repeat(budget, MIN_PASSES, || {
        if !cpus.is_empty() {
            pin_thread(&[cpus[turn % cpus.len()]]);
            turn += 1;
        }
        let p = untraced_pass(plan);
        let ns = p.wall_ns;
        (p, ns)
    })
    .into_iter()
    .map(|(p, _)| p)
    .collect();
    pin_thread(&cpus);
    check_repeatable(&passes, &mut out.tally, "untraced passes");
    for p in &passes {
        out.tally.absorb(&p.tally);
    }

    // Interference from other tenants only ever adds time, so each piece's
    // fastest run is the steadiest estimate of its own cost, and their sum
    // that of the pass.
    let pieces = plan.pieces();
    let fastest: Vec<f64> = (0..pieces.len())
        .map(|i| {
            let ns: Vec<f64> = passes.iter().map(|p| p.piece_ns[i] as f64).collect();
            quantile(&ns, 0.0)
        })
        .collect();
    let cpu_ns: f64 = fastest.iter().sum();
    let instructions = plan.pass_instructions() as f64;
    // One sample per mechanism, over all its programs: the p90 then
    // catches a gain for one mechanism that costs another, and does not
    // hang on which short programs a seed drew.
    let mut samples: Vec<(&str, f64, u64)> = Vec::new();
    for ((inst, key), &ns) in pieces.iter().zip(&fastest) {
        match samples.iter_mut().find(|s| s.0 == key) {
            Some(s) => {
                s.1 += ns;
                s.2 += inst;
            }
            None => samples.push((key, ns, *inst)),
        }
    }
    let per_inst: Vec<f64> = samples
        .iter()
        .map(|&(_, ns, inst)| ns / inst as f64)
        .collect();
    if plan.jobs.is_empty() {
        for (i, u) in plan.units.iter().enumerate() {
            out.units.push(UnitRow {
                label: plan.unit_label(u),
                instructions: pieces[i].0,
                cycles: passes[0].fingerprint[i],
                ns_per_inst: fastest[i] / pieces[i].0 as f64,
            });
        }
    }
    out.pass_ms = passes.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
    out.pass_cpu_ms = passes.iter().map(|p| p.cpu_ns as f64 / 1e6).collect();

    out.put("setup_s", "s", median(&setup.setup_s));
    out.put("cpu_s", "s", cpu_ns / 1e9);
    out.put("sim_mips", "MIPS", instructions / (cpu_ns / 1e3));
    out.put("ns_per_inst_p50", "ns", quantile(&per_inst, 0.5));
    out.put("ns_per_inst_p90", "ns", quantile(&per_inst, 0.9));
    match peak_rss_mb() {
        Some(mb) => out.put("peak_rss_mb", "MB", mb),
        None => out.missing("peak_rss_mb", "MB", false, "no /proc/self/status VmHWM"),
    }
    out.count("sim_cycles", "cycles", passes[0].cycles);
    let ok = out.tally.attempted - out.tally.failed;
    out.put("ok_ratio", "ratio", ok as f64 / out.tally.attempted as f64);
    out
}

/// A traced unit, reduced to what the per-layer metrics need.
#[derive(Debug, Clone)]
struct UnitObs {
    cycles: u64,
    instructions: u64,
    stats: RunStats,
    counts: Counts,
    accesses: Vec<(u64, u64)>,
}

/// Runs every unit of `plan` once with the counting observer, one
/// `issue.<family>` span per unit.
fn observed_pass(
    plan: &Plan,
    tracer: &mut Tracer,
    record_accesses: bool,
    tally: &mut Tally,
) -> Vec<Option<UnitObs>> {
    let mut out = Vec::with_capacity(plan.units.len());
    for u in &plan.units {
        let sim = u.mechanism.build(&plan.configs[u.config]);
        let id = tracer.begin(&format!("issue.{}", family(&u.mechanism)));
        let outcome = run_observed(
            sim.as_ref(),
            &plan.inputs.programs[u.program],
            record_accesses,
        );
        tracer.end(id);
        let label = || format!("{} (traced)", plan.unit_label(u));
        out.push(tally.record(label, outcome).map(|o| UnitObs {
            cycles: o.result.cycles,
            instructions: o.result.instructions,
            stats: o.result.stats,
            counts: o.counts,
            accesses: o.accesses,
        }));
    }
    out
}

/// Host time of each engine call in one traced grid pass.
#[derive(Debug, Clone, Copy, Default)]
struct EngineLayer {
    baseline_ns: u64,
    bound_ns: u64,
    grid_ns: u64,
    json_ns: u64,
    json_bytes: u64,
    grid_units: u64,
}

/// The sweep grid on a fresh engine, with a span around each public
/// call: baselines and bounds first, so `engine.grid` holds only jobs.
fn traced_grid_pass(plan: &Plan, tracer: &mut Tracer) -> (Pass, EngineLayer) {
    let root = tracer.begin("pass.traced");
    let start = Instant::now();
    let cpu = process_cpu_ns();
    let engine = SweepEngine::livermore().with_workers(SWEEP_WORKERS);
    let id = tracer.begin("engine.baseline");
    let baselines: Result<Vec<u64>, EngineError> = plan
        .configs
        .iter()
        .map(|c| engine.baseline_cycles(c))
        .collect();
    let baseline_ns = tracer.end(id);
    let id = tracer.begin("engine.bound");
    let bounds: Result<Vec<_>, EngineError> = plan
        .configs
        .iter()
        .map(|c| engine.dataflow_bounds(c))
        .collect();
    let bound_ns = tracer.end(id);
    let id = tracer.begin("engine.grid");
    let report = engine.run_grid(&plan.jobs);
    let grid_ns = tracer.end(id);
    let id = tracer.begin("json.serialize");
    let json = report
        .as_ref()
        .map(SweepReport::to_json)
        .unwrap_or_default();
    let json_ns = tracer.end(id);
    let mut pass = Pass {
        wall_ns: ns_since(start),
        cpu_ns: process_cpu_ns() - cpu,
        ..Pass::default()
    };
    tracer.end(root);

    let baseline_units = (plan.configs.len() * plan.inputs.programs.len()) as u64;
    pass.tally.attempted += baseline_units;
    if let Err(e) = baselines.and(bounds.map(|_| ())) {
        pass.tally.failed += baseline_units;
        pass.tally.note(format!("engine baselines and bounds: {e}"));
    }
    let grid_units = (plan.jobs.len() * plan.inputs.programs.len()) as u64;
    let outcome = report.as_ref().map(|r| (r, json.as_str()));
    let instructions = record_grid(plan, plan.jobs.len(), outcome, &mut pass);
    check_grid(plan, grid_units, instructions, &mut pass);
    let layer = EngineLayer {
        baseline_ns,
        bound_ns,
        grid_ns,
        json_ns,
        json_bytes: json.len() as u64,
        grid_units: pass.units,
    };
    (pass, layer)
}

/// Replays every program's golden branch stream through a fresh two-bit
/// predictor and BTB; host ns per branch.
fn predictor_replay(plan: &Plan) -> f64 {
    let streams: Vec<BranchStream> = plan
        .inputs
        .programs
        .iter()
        .map(|p| BranchStream::from_trace(&p.golden))
        .collect();
    let branches: u64 = streams.iter().map(|s| s.events.len() as u64).sum();
    let start = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || start.elapsed() < MIN_REPLAY {
        for s in &streams {
            black_box(evaluate_with_btb(
                s,
                &mut TwoBit::default(),
                &mut Btb::new(64, 4),
            ));
        }
        reps += 1;
    }
    ns_since(start) as f64 / (reps * branches) as f64
}

/// Replays each finite-cache unit's recorded address stream through a
/// fresh [`DCache`], checking it reproduces the run's hits and misses;
/// host ns per access, or `None` when no unit used a finite cache.
fn dcache_replay(plan: &Plan, observed: &[Option<UnitObs>], tally: &mut Tally) -> Option<f64> {
    let streams: Vec<(&UnitSpec, &UnitObs)> = plan
        .units
        .iter()
        .zip(observed)
        .filter_map(|(u, o)| Some((u, o.as_ref()?)))
        .filter(|(u, _)| !plan.configs[u.config].dcache.is_perfect())
        .collect();
    let accesses: u64 = streams.iter().map(|(_, o)| o.accesses.len() as u64).sum();
    if accesses == 0 {
        return None;
    }
    let start = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || start.elapsed() < MIN_REPLAY {
        for (u, o) in &streams {
            let config = &plan.configs[u.config];
            let words = plan.inputs.programs[u.program].workload.memory.len() as u64;
            let mut cache = DCache::new(&config.dcache, config.fu_latency(FuClass::Memory), words);
            for &(addr, cycle) in &o.accesses {
                black_box(cache.access(addr, cycle));
            }
            let s = cache.stats();
            if reps == 0 && (s.accesses, s.hits) != (o.counts.dcache_accesses, o.counts.dcache_hits)
            {
                tally.note(format!(
                    "{}: cache replay disagrees with the run",
                    plan.unit_label(u)
                ));
            }
        }
        reps += 1;
    }
    Some(ns_since(start) as f64 / (reps * accesses) as f64)
}

/// Per-family sums over traced units.
#[derive(Debug, Clone, Copy, Default)]
struct FamilySum {
    present: bool,
    host_ns: u64,
    instructions: u64,
    cycles: u64,
    issues: u64,
}

/// The traced run: untraced reference passes alternating with traced
/// passes for two thirds of `budget`, the replay layers, and the per-layer
/// metrics; `sweep-grid` then replays its distinct units one by one.
/// Alternating puts other tenants' load on both kinds of pass alike, so
/// `trace.overhead` compares like with like.
#[must_use]
pub fn traced_run(
    plan: &Plan,
    budget: Duration,
    setup: &SetupTimes,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    warm_up(plan, &mut out.tally);
    let mut refs: Vec<Pass> = Vec::new();
    let mut tally = Tally::default();
    let mut first: Option<Vec<Option<UnitObs>>> = None;
    let mut layers: Vec<EngineLayer> = Vec::new();
    repeat(budget * 2 / 3, 1, || {
        let id = tracer.begin("pass.untraced");
        let reference = untraced_pass(plan);
        tracer.end(id);
        let (cpu_ns, wall_ns) = if plan.kind == WorkloadKind::SweepGrid {
            let (pass, layer) = traced_grid_pass(plan, tracer);
            tally.absorb(&pass.tally);
            if pass.fingerprint != reference.fingerprint {
                tally.note("traced grid pass simulated different cycles".into());
            }
            layers.push(layer);
            (pass.cpu_ns, pass.wall_ns)
        } else {
            let id = tracer.begin("pass.traced");
            let start = Instant::now();
            let cpu = thread_cpu_ns();
            let observed = observed_pass(plan, tracer, first.is_none(), &mut tally);
            let cpu_ns = thread_cpu_ns() - cpu;
            let wall_ns = ns_since(start);
            tracer.end(id);
            let changed = observed
                .iter()
                .zip(&reference.fingerprint)
                .any(|(o, &untraced)| o.as_ref().is_some_and(|o| o.cycles != untraced));
            if changed {
                tally.note("the observer changed simulated cycles".into());
            }
            if first.is_none() {
                first = Some(observed);
            }
            (cpu_ns, wall_ns)
        };
        out.traced_pass_ms.push(wall_ns as f64 / 1e6);
        out.traced_pass_cpu_ms.push(cpu_ns as f64 / 1e6);
        let ns = reference.wall_ns + wall_ns;
        refs.push(reference);
        ((), ns)
    });
    check_repeatable(&refs, &mut out.tally, "untraced passes");
    for p in &refs {
        out.tally.absorb(&p.tally);
    }
    out.pass_ms = refs.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
    out.pass_cpu_ms = refs.iter().map(|p| p.cpu_ns as f64 / 1e6).collect();

    let (unit_ns, observed, engine) = if plan.kind == WorkloadKind::SweepGrid {
        let id = tracer.begin("serial.untraced");
        let serial = serial_pass(plan);
        tracer.end(id);
        tally.absorb(&serial.tally);
        if serial.cycles != refs[0].cycles {
            tally.note(format!(
                "unit-by-unit replay simulated {} cycles, the engine {}",
                serial.cycles, refs[0].cycles
            ));
        }
        let id = tracer.begin("serial.observed");
        let observed = observed_pass(plan, tracer, true, &mut tally);
        tracer.end(id);
        (serial.piece_ns, observed, Some(layers))
    } else {
        let unit_ns = (0..plan.units.len())
            .map(|i| {
                let ns: Vec<f64> = refs.iter().map(|p| p.piece_ns[i] as f64).collect();
                median(&ns) as u64
            })
            .collect();
        (unit_ns, first.expect("at least one traced pass"), None)
    };

    let id = tracer.begin("analysis.bound");
    let start = Instant::now();
    let bounds: Vec<Vec<u64>> = plan
        .configs
        .iter()
        .map(|c| {
            plan.inputs
                .programs
                .iter()
                .map(|p| dataflow_bound(&p.golden, c).bound)
                .collect()
        })
        .collect();
    let bound_ns = ns_since(start);
    tracer.end(id);
    let id = tracer.begin("predict.replay");
    let predict_ns = predictor_replay(plan);
    tracer.end(id);
    let id = tracer.begin("dcache.replay");
    let dcache_ns = dcache_replay(plan, &observed, &mut tally);
    tracer.end(id);

    let mut counts = Counts::default();
    let mut families = [FamilySum::default(); FAMILIES.len()];
    let (mut host_ns, mut predicts, mut mispredicts) = (0u64, 0u64, 0u64);
    for ((u, o), &ns) in plan.units.iter().zip(&observed).zip(&unit_ns) {
        let Some(o) = o else { continue };
        let w = u.weight;
        if o.cycles < bounds[u.config][u.program] {
            tally.note(format!("{} beat its dataflow bound", plan.unit_label(u)));
        }
        counts.add_scaled(&o.counts, w);
        predicts += o.stats.predicted_branches * w;
        mispredicts += o.stats.mispredicted_branches * w;
        host_ns += ns * w;
        let f = &mut families[FAMILIES
            .iter()
            .position(|&n| n == family(&u.mechanism))
            .expect("FAMILIES covers every mechanism")];
        f.present = true;
        f.host_ns += ns * w;
        f.instructions += o.instructions * w;
        f.cycles += o.cycles * w;
        f.issues += o.counts.issues * w;
    }
    out.tally.absorb(&tally);

    let workload = plan.kind.name();
    let golden_ns = median(&setup.golden_ns);
    out.put("workloads.build_ms", "ms", median(&setup.build_ns) / 1e6);
    out.put("exec.golden_ms", "ms", golden_ns / 1e6);
    out.put(
        "exec.golden_mips",
        "MIPS",
        setup.golden_instructions as f64 / (golden_ns / 1e3),
    );
    out.put("analysis.bound_ms", "ms", bound_ns as f64 / 1e6);
    for (name, f) in FAMILIES.iter().zip(&families) {
        let metric = |what: &str| format!("issue.{name}.{what}");
        if f.present {
            out.put(&metric("host_ms"), "ms", f.host_ns as f64 / 1e6);
            out.put(
                &metric("ns_per_inst"),
                "ns",
                f.host_ns as f64 / f.instructions as f64,
            );
            out.put(
                &metric("ns_per_cycle"),
                "ns",
                f.host_ns as f64 / f.cycles as f64,
            );
        } else {
            let reason = format!("{workload} runs no {name} units");
            out.missing(&metric("host_ms"), "ms", false, &reason);
            out.missing(&metric("ns_per_inst"), "ns", false, &reason);
            out.missing(&metric("ns_per_cycle"), "ns", false, &reason);
        }
    }
    let spec = families[3];
    if spec.present {
        out.put(
            "issue.spec_ruu.useful_ratio",
            "ratio",
            spec.instructions as f64 / spec.issues as f64,
        );
    } else {
        let reason = format!("{workload} runs no spec_ruu units");
        out.missing("issue.spec_ruu.useful_ratio", "ratio", false, &reason);
    }

    out.put(
        "window.occupancy_mean",
        "entries",
        counts.occupancy_sum as f64 / counts.cycles as f64,
    );
    out.count("window.broadcasts", "count", counts.broadcasts);
    out.count("window.wakeup_scans", "count", counts.wakeup_scans);
    out.count("window.dispatches", "count", counts.dispatches);
    out.count("window.commits", "count", counts.commits);
    out.put(
        "window.ns_per_wakeup_scan",
        "ns",
        host_ns as f64 / counts.wakeup_scans as f64,
    );
    for r in StallReason::ALL {
        out.count(&format!("stall.{r}"), "cycles", counts.stall(r));
    }

    out.count("memory.forwarded_loads", "count", counts.forwarded_loads());
    if plan.configs.iter().any(|c| !c.dcache.is_perfect()) {
        out.count("dcache.accesses", "count", counts.dcache_accesses);
        out.count("dcache.hits", "count", counts.dcache_hits);
        out.count("dcache.misses", "count", counts.dcache_misses());
        out.put(
            "dcache.hit_rate",
            "ratio",
            counts.dcache_hits as f64 / counts.dcache_accesses as f64,
        );
    } else {
        let reason = "perfect memory: loads never consult a cache";
        out.missing("dcache.accesses", "count", true, reason);
        out.missing("dcache.hits", "count", true, reason);
        out.missing("dcache.misses", "count", true, reason);
        out.missing("dcache.hit_rate", "ratio", false, reason);
    }
    out.count(
        "dcache.mem_stall_cycles",
        "cycles",
        counts.stall(StallReason::MemStall),
    );
    match dcache_ns {
        Some(ns) => out.put("dcache.replay_ns_per_access", "ns", ns),
        None => out.missing(
            "dcache.replay_ns_per_access",
            "ns",
            false,
            "no unit used a finite cache",
        ),
    }

    if spec.present {
        out.count("predict.predicts", "count", predicts);
        out.count("predict.mispredicts", "count", mispredicts);
        out.count(
            "predict.flush_cycles",
            "cycles",
            counts.stall(StallReason::MispredictRepair),
        );
        out.count("predict.squashed", "count", counts.squashed);
    } else {
        let reason = format!("{workload} runs no speculative units");
        out.missing("predict.predicts", "count", true, &reason);
        out.missing("predict.mispredicts", "count", true, &reason);
        out.missing("predict.flush_cycles", "cycles", true, &reason);
        out.missing("predict.squashed", "count", true, &reason);
    }
    out.put("predict.replay_ns_per_branch", "ns", predict_ns);

    match engine {
        Some(layers) => {
            let med = |f: fn(&EngineLayer) -> u64| {
                median(&layers.iter().map(|l| f(l) as f64).collect::<Vec<_>>())
            };
            let grid_ns = med(|l| l.grid_ns);
            out.count("engine.units", "count", refs[0].units);
            out.count(
                "engine.baseline_units",
                "count",
                refs[0].units - layers[0].grid_units,
            );
            out.count("engine.duplicate_jobs", "count", plan.duplicate_jobs());
            out.put("engine.baseline_ms", "ms", med(|l| l.baseline_ns) / 1e6);
            out.put("engine.bound_ms", "ms", med(|l| l.bound_ns) / 1e6);
            out.put("engine.grid_ms", "ms", grid_ns / 1e6);
            out.put(
                "engine.worker_util",
                "ratio",
                host_ns as f64 / (grid_ns * SWEEP_WORKERS as f64),
            );
            out.put("json.serialize_ms", "ms", med(|l| l.json_ns) / 1e6);
            out.count("json.bytes", "bytes", layers[0].json_bytes);
        }
        None => {
            let reason = format!("{workload} does not run the sweep engine");
            for (name, unit, exact) in [
                ("engine.units", "count", true),
                ("engine.baseline_units", "count", true),
                ("engine.duplicate_jobs", "count", true),
                ("engine.baseline_ms", "ms", false),
                ("engine.bound_ms", "ms", false),
                ("engine.grid_ms", "ms", false),
                ("engine.worker_util", "ratio", false),
                ("json.serialize_ms", "ms", false),
                ("json.bytes", "bytes", true),
            ] {
                out.missing(name, unit, exact, &reason);
            }
        }
    }
    out.put("pass.wall_ms", "ms", median(&out.pass_ms));
    let overhead = median(&out.traced_pass_cpu_ms) / median(&out.pass_cpu_ms);
    out.put("trace.overhead", "ratio", overhead);
    out
}
