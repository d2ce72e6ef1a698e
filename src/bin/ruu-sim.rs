//! `ruu-sim` — command-line driver for the issue-mechanism simulators.
//!
//! ```text
//! ruu-sim <mechanism> [workload] [--entries N] [--paths N] [--loadregs N]
//!               [--predictor NAME[:SIZE]]
//! ruu-sim sweep --mechanism <name> --entries A:B[:STEP]|N,N,...
//!               [--jobs N] [--json] [--paths N] [--loadregs N] [--buses N]
//!               [--predictor NAME[:SIZE]] [--dcache GEOM]
//! ruu-sim cachesim [--mechanism <name>] [--entries N] [--dcache GEOM]
//!               [--all-loops | LLL1..LLL14 | file.s]
//! ruu-sim cbp [--predictor NAME[:SIZE]]... [--loop <LLL1..LLL14|file.s> |
//!               --all-loops] [--json] [--top N]
//! ruu-sim trace --mechanism <name> --loop <LLL1..LLL14|file.s> --out FILE
//!               [--entries N]
//! ruu-sim lint [--all-loops | LLL1..LLL14 | file.s] [--deny-warnings]
//!              [--branch-sites]
//! ruu-sim analyze [--all-loops | LLL1..LLL14 | file.s] [--mechanism <name>]
//!                 [--entries N]
//!
//! mechanisms: simple | tomasulo | tagunit | rspool | rstu |
//!             ruu | ruu-bypass | ruu-nobypass | ruu-limited |
//!             reorder | reorder-bypass | history | future | spec(-ruu)
//! workload:   LLL1..LLL14 | all | file.s   (default: all)
//! predictors: always-taken | btfn | twobit[:N] | bimodal[:N] | gshare[:N] |
//!             local[:N] | tage[:N]
//! ```
//!
//! Every subcommand reads its command line through one parser, [`Flags`].
//! A malformed command line or a bad value exits 1 with a message.
//!
//! The `sweep` subcommand runs a window-size grid over the full Livermore
//! suite on the parallel `ruu-engine` (`--jobs 0` = one worker per
//! hardware thread), printing paper-style speedup/issue-rate rows or,
//! with `--json`, the engine's full [`ruu::engine::SweepReport`].
//! `--dcache GEOM` swaps the perfect data memory for a finite cache
//! (`SETSxWAYSxLINE[:MISS[:HIT[:MSHRS]]]`, e.g. `64x4x4:20`); each row
//! then carries the aggregate cache statistics.
//!
//! The `cachesim` subcommand runs one mechanism per loop under both the
//! perfect memory and a finite `--dcache` geometry, reporting the cycle
//! cost of the real memory path next to hit rate and load MPKI — the
//! quickest way to see what §2.2's perfect-memory idealization hides.
//!
//! The `cbp` subcommand is the trace-driven predictor championship: it
//! replays each workload's golden branch stream (from `ruu::exec`)
//! through the selected predictors — the whole `ruu::predict` zoo by
//! default — alongside a 64-set/4-way BTB, and reports per-predictor
//! accuracy, MPKI, and BTB hit rate (per-site worst offenders for a
//! single `--loop`). No timing simulator runs; this measures the
//! predictors themselves.
//!
//! The `trace` subcommand runs one workload with a
//! [`ruu::sim::ChromeTraceObserver`] attached and writes Chrome
//! `trace_event` JSON (open in `chrome://tracing` or Perfetto). A
//! [`ruu::sim::CycleAccountant`] rides along; the command fails (nonzero
//! exit) if the run violates `cycles == issue + Σ stalls`.
//!
//! The `lint` subcommand runs the `ruu::analysis` static lints (CFG
//! shape, uninitialized reads, dead writes, memory footprint) over the
//! selected workloads, honouring each workload's inline waivers. Errors
//! always exit nonzero; `--deny-warnings` makes warnings (and stale
//! waivers) fatal too.
//!
//! The `analyze` subcommand prints the per-loop **dataflow-limit lower
//! bound** (latency-weighted RAW critical path of the golden trace) next
//! to the cycles a chosen mechanism actually achieves, and fails if any
//! run beats the bound — that would be a simulator bug.

use std::process::ExitCode;
use std::str::FromStr;

use ruu::analysis::{apply_waivers, branch_sites, dataflow_bound, lint, LintOptions, Severity};
use ruu::engine::json::JsonWriter;
use ruu::engine::{Job, SweepEngine};
use ruu::exec::{ArchState, Memory};
use ruu::isa::text;
use ruu::issue::{Bypass, IssueSimulator, Mechanism, PreciseScheme, PredictorConfig};
use ruu::predict::cbp::{evaluate_with_btb, BranchStream, BtbStats, CbpResult};
use ruu::predict::Btb;
use ruu::sim::{
    ChromeTraceObserver, CycleAccountant, DCacheConfig, MachineConfig, PipelineObserver, RunResult,
    RunStats, StallReason, Tee,
};
use ruu::workloads::{livermore, Workload};

/// One subcommand's command line after parsing: each flag with its value
/// and each positional (named `""`), in the order given. A switch has an
/// empty value.
struct Flags(Vec<(&'static str, String)>);

impl Flags {
    /// Parses `args` against one subcommand's grammar: each flag listed
    /// in `values` (separated by spaces) takes the next argument as its
    /// value, the `switches` take none, and at most `positionals`
    /// arguments may stand alone.
    fn parse(
        args: &[String],
        values: &'static str,
        switches: &'static str,
        positionals: usize,
    ) -> Result<Flags, String> {
        let mut found = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if let Some(flag) = values.split_whitespace().find(|f| f == arg) {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                found.push((flag, value.clone()));
            } else if let Some(switch) = switches.split_whitespace().find(|s| s == arg) {
                found.push((switch, String::new()));
            } else if arg.starts_with('-') {
                return Err(format!("unknown option {arg}\n{}", usage()));
            } else if found.iter().filter(|(f, _)| f.is_empty()).count() == positionals {
                return Err(format!("unexpected argument {arg}\n{}", usage()));
            } else {
                found.push(("", arg.clone()));
            }
        }
        Ok(Flags(found))
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `switch` was given.
    fn has(&self, switch: &str) -> bool {
        self.value(switch).is_some()
    }

    /// Every value given for `flag`, in order, each read by `read`.
    fn all<T>(
        &self,
        flag: &str,
        read: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.0
            .iter()
            .filter(|(f, _)| *f == flag)
            .map(|(_, v)| read(v))
            .collect()
    }

    /// The last value given for `flag`, read by `read`; every earlier
    /// value must read too.
    fn last<T>(
        &self,
        flag: &str,
        read: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        Ok(self.all(flag, read)?.pop())
    }

    /// The last value given for `flag` as a number.
    fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.last(flag, |v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a number, got {v:?}"))
        })
    }

    /// As [`Flags::number`], for a count that must be at least 1.
    fn count<T: FromStr + PartialEq + From<u8>>(&self, flag: &str) -> Result<Option<T>, String> {
        let n = self.number(flag)?;
        if n == Some(T::from(0)) {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }

    /// The value of `flag`, which `sub` cannot run without.
    fn required(&self, flag: &str, sub: &str) -> Result<&str, String> {
        self.value(flag)
            .ok_or_else(|| format!("{sub} needs {flag}\n{}", usage()))
    }

    /// The window size: `--entries N`, 15 if not given.
    fn entries(&self) -> Result<usize, String> {
        Ok(self.count("--entries")?.unwrap_or(15))
    }

    /// The speculative RUU's predictor: the last `--predictor`, or the
    /// calibrated default.
    fn predictor(&self) -> Result<PredictorConfig, String> {
        Ok(self.last("--predictor", predictor)?.unwrap_or_default())
    }

    /// The workloads chosen by the last of `--all-loops`, `--loop NAME`
    /// and a positional name (all loops if none is given).
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        let sel = self.0.iter().rev().find_map(|(f, v)| match *f {
            "--all-loops" => Some("all"),
            "--loop" | "" => Some(v.as_str()),
            _ => None,
        });
        let sel = sel.unwrap_or("all");
        if sel.eq_ignore_ascii_case("all") {
            Ok(livermore::all())
        } else if std::path::Path::new(sel)
            .extension()
            .is_some_and(|e| e == "s")
        {
            // An assembly file in the `ruu::isa::text` syntax; runs against a
            // zeroed memory with no result checks.
            let src = std::fs::read_to_string(sel).map_err(|e| format!("{sel}: {e}"))?;
            let program = text::parse(&src).map_err(|e| format!("{sel}: {e}"))?;
            Ok(vec![Workload {
                name: "custom",
                description: "user assembly file",
                program,
                memory: Memory::new(1 << 16),
                checks: Vec::new(),
                inst_limit: 100_000_000,
                lint_waivers: Vec::new(),
            }])
        } else {
            livermore::by_name(sel)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload {sel}"))
        }
    }
}

fn predictor(spec: &str) -> Result<PredictorConfig, String> {
    PredictorConfig::parse(spec).map_err(|e| e.to_string())
}

fn dcache(spec: &str) -> Result<DCacheConfig, String> {
    DCacheConfig::parse(spec).map_err(|e| e.to_string())
}

/// The paper's machine with the `--paths`, `--loadregs`, `--buses` and
/// `--dcache` overrides that were given.
fn machine_config(flags: &Flags) -> Result<MachineConfig, String> {
    let mut cfg = MachineConfig::paper();
    if let Some(paths) = flags.count("--paths")? {
        cfg = cfg.with_dispatch_paths(paths);
    }
    if let Some(n) = flags.count("--loadregs")? {
        cfg = cfg.with_load_registers(n);
    }
    if let Some(n) = flags.count("--buses")? {
        cfg = cfg.with_result_buses(n);
    }
    if let Some(d) = flags.last("--dcache", dcache)? {
        cfg = cfg.with_dcache(d);
    }
    Ok(cfg)
}

/// Maps a CLI mechanism name (sized by `entries`, at least 1; the
/// speculative machine additionally takes `predictor`) to a [`Mechanism`].
fn mechanism_by_name(
    name: &str,
    entries: usize,
    predictor: PredictorConfig,
) -> Result<Mechanism, String> {
    let e = entries;
    let ruu = |bypass| Mechanism::Ruu { entries: e, bypass };
    let precise = |scheme| Mechanism::InOrderPrecise { scheme, entries: e };
    Ok(match name {
        "simple" => Mechanism::Simple,
        "tomasulo" => Mechanism::Tomasulo {
            rs_per_fu: e / 4 + 1,
        },
        "tagunit" => Mechanism::TagUnitDistributed {
            rs_per_fu: e / 4 + 1,
            tags: e,
        },
        "rspool" => Mechanism::RsPool { rs: e, tags: e },
        "rstu" => Mechanism::Rstu { entries: e },
        "ruu" | "ruu-bypass" => ruu(Bypass::Full),
        "ruu-nobypass" => ruu(Bypass::None),
        "ruu-limited" => ruu(Bypass::LimitedA),
        "reorder" => precise(PreciseScheme::ReorderBuffer),
        "reorder-bypass" => precise(PreciseScheme::ReorderBufferBypass),
        "history" => precise(PreciseScheme::HistoryBuffer),
        "future" => precise(PreciseScheme::FutureFile),
        "spec" | "spec-ruu" => Mechanism::SpecRuu {
            entries: e,
            bypass: Bypass::Full,
            predictor,
        },
        other => return Err(format!("unknown mechanism {other}\n{}", usage())),
    })
}

fn usage() -> String {
    "usage: ruu-sim <simple|tomasulo|tagunit|rspool|rstu|ruu|ruu-bypass|ruu-nobypass|\n     ruu-limited|reorder|reorder-bypass|history|future|spec|spec-ruu>\n     [LLL1..LLL14|all|file.s] [--entries N] [--paths N] [--loadregs N]\n     [--predictor NAME[:SIZE]]\n   or: ruu-sim sweep --mechanism <name> --entries A:B[:STEP]|N,N,...\n     [--jobs N] [--json] [--paths N] [--loadregs N] [--buses N]\n     [--predictor NAME[:SIZE]] [--dcache GEOM]\n   or: ruu-sim cachesim [--mechanism <name>] [--entries N] [--dcache GEOM]\n     [--all-loops|LLL1..LLL14|file.s]\n   or: ruu-sim cbp [--predictor NAME[:SIZE]]... [--loop LLL1..LLL14|file.s | --all-loops]\n     [--json] [--top N]\n   or: ruu-sim trace --mechanism <name> --loop <LLL1..LLL14|file.s> --out FILE\n     [--entries N]\n   or: ruu-sim lint [--all-loops|LLL1..LLL14|file.s] [--deny-warnings] [--branch-sites]\n   or: ruu-sim analyze [--all-loops|LLL1..LLL14|file.s] [--mechanism <name>] [--entries N]\n\npredictors: always-taken | btfn | twobit[:N] | bimodal[:N] | gshare[:N] |\n            local[:N] | tage[:N]   (cbp default: the whole zoo)\ndcache:     perfect | SETSxWAYSxLINE[:MISS[:HIT[:MSHRS]]]  (e.g. 64x4x4:20)\n-h, --help  print this usage (also after any subcommand)"
        .to_string()
}

/// Runs `w` on `sim` (reporting every pipeline event to `obs`, if given)
/// and checks its result, naming the workload in any error.
fn run_verified(
    sim: &dyn IssueSimulator,
    w: &Workload,
    obs: Option<&mut dyn PipelineObserver>,
) -> Result<RunResult, String> {
    let (mem, limit) = (w.memory.clone(), w.inst_limit);
    let run = match obs {
        Some(obs) => sim.run_observed(ArchState::new(), mem, &w.program, limit, obs),
        None => sim.run(&w.program, mem, limit),
    };
    let r = run.map_err(|e| format!("{}: {e}", w.name))?;
    w.verify(&r.memory)
        .map_err(|e| format!("{}: {e}", w.name))?;
    Ok(r)
}

/// Parses a window-size grid: `A:B` (inclusive range), `A:B:STEP`, or a
/// comma-separated list `N,N,...`.
fn parse_entries_spec(spec: &str) -> Result<Vec<usize>, String> {
    let bad = || format!("bad --entries spec {spec:?} (want A:B, A:B:STEP, or N,N,...)");
    let sep = if spec.contains(':') { ':' } else { ',' };
    let nums: Vec<usize> = spec
        .split(sep)
        .map(|p| if sep == ',' { p.trim() } else { p })
        .map(|p| p.parse().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let list: Vec<usize> = match (sep, nums.as_slice()) {
        (',', _) => nums,
        (_, &[lo, hi]) if lo <= hi => (lo..=hi).collect(),
        (_, &[lo, hi, step]) if lo <= hi && step > 0 => (lo..=hi).step_by(step).collect(),
        _ => return Err(bad()),
    };
    if list.contains(&0) {
        return Err(bad());
    }
    Ok(list)
}

/// Runs one mechanism over the selected workloads, one row per workload.
/// Flags may come before or after the mechanism and workload names.
fn run_suite(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, "--entries --predictor --paths --loadregs", "", 2)?;
    // The first positional names the mechanism; any second one, the workload.
    let first = flags.0.iter().position(|(f, _)| f.is_empty());
    let (_, name) = flags.0.remove(first.ok_or_else(usage)?);
    let cfg = machine_config(&flags)?;
    let suite = flags.workloads()?;
    let sim = mechanism_by_name(&name, flags.entries()?, flags.predictor()?)?.build(&cfg);

    println!(
        "| {:<8} | {:>12} | {:>10} | {:>6} |",
        "loop", "instructions", "cycles", "IPC"
    );
    let mut total_i = 0u64;
    let mut total_c = 0u64;
    for w in &suite {
        let r = run_verified(sim.as_ref(), w, None)?;
        let (insts, cycles) = (r.instructions, r.cycles);
        total_i += insts;
        total_c += cycles;
        println!(
            "| {:<8} | {insts:>12} | {cycles:>10} | {:>6.3} |",
            w.name,
            insts as f64 / cycles as f64
        );
    }
    println!(
        "| {:<8} | {total_i:>12} | {total_c:>10} | {:>6.3} |",
        "total",
        total_i as f64 / total_c as f64
    );
    Ok(())
}

fn run_sweep(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        "--mechanism --entries --predictor --jobs --paths --loadregs --buses --dcache",
        "--json",
        0,
    )?;
    let name = flags.required("--mechanism", "sweep")?;
    let entries = parse_entries_spec(flags.required("--entries", "sweep")?)?;
    let jobs = flags.number("--jobs")?.unwrap_or(0);
    let predictor = flags.predictor()?;
    let cfg = machine_config(&flags)?;

    let grid: Vec<Job> = entries
        .iter()
        .map(|&e| {
            Ok(Job::new(
                mechanism_by_name(name, e, predictor)?,
                cfg.clone(),
            ))
        })
        .collect::<Result<_, String>>()?;

    let engine = SweepEngine::livermore().with_workers(jobs);
    let report = engine.run_grid(&grid).map_err(|e| e.to_string())?;

    if flags.has("--json") {
        println!("{}", report.to_json());
        return Ok(());
    }
    println!(
        "| {:>7} | {:>10} | {:>12} | {:>7} | {:>6} |",
        "entries", "cycles", "instructions", "speedup", "IPC"
    );
    for j in &report.jobs {
        println!(
            "| {:>7} | {:>10} | {:>12} | {:>7.3} | {:>6.3} |",
            j.entries.map_or_else(|| "-".to_string(), |e| e.to_string()),
            j.cycles,
            j.instructions,
            j.speedup,
            j.issue_rate,
        );
        let s = &j.stats;
        if j.speculative {
            println!(
                "          branch: {} predicted, {} mispredicted ({:.3} MPKI), {} repair cycles",
                s.predicted_branches,
                s.mispredicted_branches,
                s.branch_mpki(j.instructions),
                s.stalls(StallReason::MispredictRepair)
            );
        }
        if j.finite_dcache {
            println!(
                "          cache: {} accesses, {} misses ({:.1}% hit, {:.3} MPKI)",
                s.dcache_accesses,
                s.dcache_misses,
                100.0 * s.dcache_hit_rate(),
                s.dcache_mpki(j.instructions)
            );
        }
    }
    println!("{}", report.stats);
    Ok(())
}

/// Runs one workload under one mechanism with a Chrome-trace observer and
/// a cycle accountant attached, writing the trace JSON to `--out`.
fn run_trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "--mechanism --loop --out --entries", "", 0)?;
    let name = flags.required("--mechanism", "trace")?;
    flags.required("--loop", "trace")?;
    let path = flags.required("--out", "trace")?;
    let suite = flags.workloads()?;
    let [w] = suite.as_slice() else {
        return Err("trace wants exactly one workload (e.g. --loop LLL3)".to_string());
    };

    let cfg = machine_config(&flags)?;
    let sim = mechanism_by_name(name, flags.entries()?, PredictorConfig::default())?.build(&cfg);

    let mut trace = ChromeTraceObserver::default();
    let mut acct = CycleAccountant::default();
    let r = run_verified(sim.as_ref(), w, Some(&mut Tee::new(&mut trace, &mut acct)))?;

    std::fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "trace: {name} on {}: {} instructions in {} cycles -> {path}",
        w.name, r.instructions, r.cycles
    );
    acct.verify(r.cycles).map_err(|v| v.to_string())?;
    println!(
        "accounting ok: {} issue + {} stall cycles = {} cycles",
        acct.issue_cycles(),
        acct.total_stalls(),
        r.cycles
    );
    Ok(())
}

/// Per-loop cache behaviour of one mechanism under one finite `--dcache`
/// geometry, next to the perfect-memory cycles the paper's §2.2
/// idealization would report for the same machine.
fn run_cachesim(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "--mechanism --entries --dcache", "--all-loops", 1)?;
    let suite = flags.workloads()?;
    let dcache = flags
        .last("--dcache", dcache)?
        .map_or_else(|| dcache("64x2x4:20"), Ok)?;
    if dcache.is_perfect() {
        return Err(
            "cachesim wants a finite --dcache geometry (SETSxWAYSxLINE[:MISS[:HIT[:MSHRS]]])"
                .to_string(),
        );
    }
    let name = flags.value("--mechanism").unwrap_or("ruu");
    let mechanism = mechanism_by_name(name, flags.entries()?, PredictorConfig::default())?;
    let perfect = mechanism.build(&MachineConfig::paper());
    let cached = mechanism.build(&MachineConfig::paper().with_dcache(dcache));

    println!("cachesim: {name} under {dcache}");
    println!(
        "| {:<8} | {:>10} | {:>10} | {:>8} | {:>9} | {:>8} | {:>7} |",
        "loop", "perfect", "cached", "slowdown", "accesses", "hit rate", "MPKI"
    );
    let (mut perfect_cycles, mut cycles, mut instructions) = (0, 0, 0);
    let mut total = RunStats::default();
    for w in &suite {
        let base = run_verified(perfect.as_ref(), w, None)?;
        let r = run_verified(cached.as_ref(), w, None)?;
        perfect_cycles += base.cycles;
        cycles += r.cycles;
        instructions += r.instructions;
        total.absorb(&r.stats);
        print_cachesim_row(w.name, base.cycles, r.cycles, &r.stats, r.instructions);
    }
    print_cachesim_row("total", perfect_cycles, cycles, &total, instructions);
    Ok(())
}

/// One `cachesim` table row: perfect vs cached cycles and the cache's
/// counters over `instructions`.
fn print_cachesim_row(name: &str, perfect: u64, cached: u64, s: &RunStats, instructions: u64) {
    println!(
        "| {name:<8} | {perfect:>10} | {cached:>10} | {:>7.3}x | {:>9} | {:>7.1}% | {:>7.3} |",
        cached as f64 / perfect as f64,
        s.dcache_accesses,
        100.0 * s.dcache_hit_rate(),
        s.dcache_mpki(instructions),
    );
}

/// CBP-style trace-driven predictor evaluation: replays the golden
/// `ruu::exec` branch stream of each selected workload through each
/// selected predictor (plus a 64-set/4-way BTB), reporting accuracy,
/// MPKI, BTB hit rate, and — for a single workload — the worst sites.
fn run_cbp(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "--predictor --loop --top", "--all-loops --json", 0)?;
    let mut predictors = flags.all("--predictor", predictor)?;
    if predictors.is_empty() {
        predictors = PredictorConfig::zoo();
    }
    let top = flags.number("--top")?.unwrap_or(3);
    let suite = flags.workloads()?;

    // Extract each workload's branch stream once; every predictor
    // replays the same events.
    let mut streams = Vec::new();
    for w in &suite {
        let trace = w.golden_trace().map_err(|e| format!("{}: {e}", w.name))?;
        streams.push((w.name, BranchStream::from_trace(&trace)));
    }

    // Per predictor: fresh state per workload (CBP convention — traces
    // are independent), totals absorbed across the suite.
    let mut rows: Vec<(PredictorConfig, CbpResult, Vec<CbpResult>)> = Vec::new();
    for cfg in &predictors {
        let mut total: Option<CbpResult> = None;
        let mut per_loop = Vec::new();
        for (_, stream) in &streams {
            let mut p = cfg.build();
            let mut btb = Btb::new(64, 4);
            let r = evaluate_with_btb(stream, p.as_mut(), &mut btb);
            match &mut total {
                Some(t) => t.absorb(&r),
                None => total = Some(r.clone()),
            }
            per_loop.push(r);
        }
        let total = total.ok_or("cbp needs at least one workload")?;
        rows.push((*cfg, total, per_loop));
    }

    if flags.has("--json") {
        let mut jw = JsonWriter::new();
        jw.begin_object();
        jw.key("workloads").begin_array();
        for (name, _) in &streams {
            jw.string(name);
        }
        jw.end_array();
        jw.key("predictors").begin_array();
        for (cfg, total, per_loop) in &rows {
            jw.begin_object();
            jw.key("predictor").string(&cfg.to_string());
            jw.key("instructions").u64(total.instructions);
            jw.key("cond_branches").u64(total.cond_branches);
            jw.key("mispredicts").u64(total.mispredicts);
            jw.key("accuracy").f64(total.accuracy());
            jw.key("mpki").f64(total.mpki());
            if let Some(b) = &total.btb {
                jw.key("btb_hit_rate").f64(b.hit_rate());
            }
            jw.key("per_loop").begin_array();
            for ((name, _), r) in streams.iter().zip(per_loop) {
                jw.begin_object();
                jw.key("loop").string(name);
                jw.key("cond_branches").u64(r.cond_branches);
                jw.key("mispredicts").u64(r.mispredicts);
                jw.key("accuracy").f64(r.accuracy());
                jw.key("mpki").f64(r.mpki());
                jw.end_object();
            }
            jw.end_array();
            jw.end_object();
        }
        jw.end_array();
        jw.end_object();
        println!("{}", jw.finish());
        return Ok(());
    }

    println!(
        "| {:<14} | {:>8} | {:>8} | {:>8} | {:>7} | {:>7} |",
        "predictor", "cond br", "miss", "accuracy", "MPKI", "BTB hit"
    );
    for (cfg, total, _) in &rows {
        println!(
            "| {:<14} | {:>8} | {:>8} | {:>7.2}% | {:>7.3} | {:>6.1}% |",
            cfg.to_string(),
            total.cond_branches,
            total.mispredicts,
            100.0 * total.accuracy(),
            total.mpki(),
            100.0 * total.btb.as_ref().map_or(1.0, BtbStats::hit_rate),
        );
    }
    if streams.len() == 1 && top > 0 {
        for (cfg, total, _) in &rows {
            let worst = total.top_offenders(top);
            if worst.iter().all(|s| s.mispredicted == 0) {
                continue;
            }
            println!("worst sites for {cfg}:");
            for s in worst {
                println!(
                    "  pc {:>4}: {} executed, {} taken, {} mispredicted",
                    s.pc, s.executed, s.taken, s.mispredicted
                );
            }
        }
    }
    println!(
        "cbp: {} predictor(s) x {} workload(s), {} instructions replayed",
        rows.len(),
        streams.len(),
        rows.first().map_or(0, |(_, t, _)| t.instructions),
    );
    Ok(())
}

/// Statically lints the selected workloads, honouring inline waivers.
/// Errors are always fatal; `--deny-warnings` makes warnings fatal too.
fn run_lint(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "", "--all-loops --deny-warnings --branch-sites", 1)?;
    let suite = flags.workloads()?;
    if flags.has("--branch-sites") {
        // Static branch-site census: the upper bound on the per-site
        // tables the dynamic `cbp` replay can produce.
        println!(
            "| {:<8} | {:>5} | {:>4} | {:>6} | {:>8} | {:>11} |",
            "loop", "sites", "cond", "uncond", "backward", "unreachable"
        );
        let mut total = 0usize;
        for w in &suite {
            let c = branch_sites(&w.program);
            total += c.sites.len();
            println!(
                "| {:<8} | {:>5} | {:>4} | {:>6} | {:>8} | {:>11} |",
                w.name,
                c.sites.len(),
                c.conditional(),
                c.unconditional(),
                c.backward(),
                c.unreachable(),
            );
        }
        println!(
            "branch-sites: {} workload(s), {total} site(s) total",
            suite.len()
        );
        return Ok(());
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut waived = 0usize;
    for w in &suite {
        let opts = LintOptions::for_memory(w.memory.len() as u64);
        let findings = lint(&w.program, &opts);
        let total = findings.len();
        let (rest, stale) = apply_waivers(findings, &w.lint_waivers);
        waived += total - rest.len();
        for f in &rest {
            println!("{}: {f}", w.name);
            match f.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
        for i in stale {
            let wv = &w.lint_waivers[i];
            println!(
                "{}: warning[stale-waiver]: waiver for {} at pc {:?} matched no finding ({})",
                w.name, wv.kind, wv.pc, wv.reason
            );
            warnings += 1;
        }
    }
    println!(
        "lint: {} workload(s), {errors} error(s), {warnings} warning(s), {waived} waived",
        suite.len()
    );
    let deny_warnings = flags.has("--deny-warnings");
    if errors > 0 || (deny_warnings && warnings > 0) {
        return Err(if deny_warnings {
            "lint failed (--deny-warnings)".to_string()
        } else {
            "lint failed".to_string()
        });
    }
    Ok(())
}

/// Prints the per-workload dataflow-limit bound next to the cycles one
/// mechanism achieves; fails if any run beats the bound.
fn run_analyze(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "--mechanism --entries", "--all-loops", 1)?;
    let suite = flags.workloads()?;
    let cfg = machine_config(&flags)?;
    let name = flags.value("--mechanism").unwrap_or("ruu");
    let sim = mechanism_by_name(name, flags.entries()?, PredictorConfig::default())?.build(&cfg);

    println!(
        "| {:<8} | {:>12} | {:>10} | {:>10} | {:>10} | {:>10} |",
        "loop", "instructions", "crit path", "bound", "cycles", "% of limit"
    );
    let mut violations = 0usize;
    for w in &suite {
        let trace = w.golden_trace().map_err(|e| format!("{}: {e}", w.name))?;
        let b = dataflow_bound(&trace, &cfg);
        let r = run_verified(sim.as_ref(), w, None)?;
        if r.cycles < b.bound {
            violations += 1;
        }
        println!(
            "| {:<8} | {:>12} | {:>10} | {:>10} | {:>10} | {:>9.1}% |",
            w.name,
            b.instructions,
            b.critical_path,
            b.bound,
            r.cycles,
            100.0 * b.efficiency(r.cycles).unwrap_or(0.0),
        );
    }
    if violations > 0 {
        return Err(format!(
            "{violations} run(s) beat the dataflow bound — simulator bug (cycles >= dataflow_bound must hold)"
        ));
    }
    println!(
        "ok: cycles >= dataflow_bound for {} ({} workload(s))",
        name,
        suite.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{}", usage());
        return Ok(());
    }
    let (sub, rest) = args.split_first().ok_or_else(usage)?;
    let subcommand: fn(&[String]) -> Result<(), String> = match sub.as_str() {
        "sweep" => run_sweep,
        "trace" => run_trace,
        "cachesim" => run_cachesim,
        "cbp" => run_cbp,
        "lint" => run_lint,
        "analyze" => run_analyze,
        _ => return run_suite(&args),
    };
    subcommand(rest)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
