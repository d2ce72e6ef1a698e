//! `ruu-sim` — command-line driver for the issue-mechanism simulators.
//!
//! ```text
//! ruu-sim <mechanism> [workload] [--entries N] [--paths N] [--loadregs N]
//!               [--predictor NAME[:SIZE]]
//! ruu-sim sweep --mechanism <name> --entries A:B[:STEP]|N,N,...
//!               [--jobs N] [--json] [--paths N] [--loadregs N] [--buses N]
//!               [--predictor NAME[:SIZE]] [--dcache GEOM]
//! ruu-sim cachesim [--mechanism <name>] [--entries N] [--dcache GEOM]
//!               [--loop <LLL1..LLL14|file.s> | --all-loops]
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

use ruu::analysis::{apply_waivers, branch_sites, dataflow_bound, lint, LintOptions, Severity};
use ruu::engine::json::JsonWriter;
use ruu::engine::{Job, SweepEngine};
use ruu::exec::{ArchState, Memory};
use ruu::isa::text;
use ruu::issue::{Bypass, Mechanism, PreciseScheme, PredictorConfig};
use ruu::predict::cbp::{evaluate_with_btb, BranchStream, BtbStats, CbpResult};
use ruu::predict::Btb;
use ruu::sim::{
    ChromeTraceObserver, CycleAccountant, DCacheConfig, MachineConfig, RunStats, StallReason, Tee,
};
use ruu::workloads::{livermore, Workload};

struct Options {
    mechanism: String,
    workload: String,
    entries: usize,
    paths: u32,
    loadregs: usize,
    predictor: PredictorConfig,
}

/// Maps a CLI mechanism name (sized by `entries`; the speculative machine
/// additionally takes `predictor`) to a [`Mechanism`].
fn mechanism_by_name(
    name: &str,
    entries: usize,
    predictor: PredictorConfig,
) -> Result<Mechanism, String> {
    // The simulator constructors assert on degenerate sizes; reject them
    // here so the CLI exits with a message instead of panicking.
    if entries == 0 {
        return Err("--entries must be at least 1".to_string());
    }
    let e = entries;
    let m = match name {
        "simple" => Mechanism::Simple,
        "tomasulo" => Mechanism::Tomasulo {
            rs_per_fu: e.max(1) / 4 + 1,
        },
        "tagunit" => Mechanism::TagUnitDistributed {
            rs_per_fu: e.max(1) / 4 + 1,
            tags: e,
        },
        "rspool" => Mechanism::RsPool { rs: e, tags: e },
        "rstu" => Mechanism::Rstu { entries: e },
        "ruu" | "ruu-bypass" => Mechanism::Ruu {
            entries: e,
            bypass: Bypass::Full,
        },
        "ruu-nobypass" => Mechanism::Ruu {
            entries: e,
            bypass: Bypass::None,
        },
        "ruu-limited" => Mechanism::Ruu {
            entries: e,
            bypass: Bypass::LimitedA,
        },
        "reorder" => Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBuffer,
            entries: e,
        },
        "reorder-bypass" => Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBufferBypass,
            entries: e,
        },
        "history" => Mechanism::InOrderPrecise {
            scheme: PreciseScheme::HistoryBuffer,
            entries: e,
        },
        "future" => Mechanism::InOrderPrecise {
            scheme: PreciseScheme::FutureFile,
            entries: e,
        },
        "spec" | "spec-ruu" => Mechanism::SpecRuu {
            entries: e,
            bypass: Bypass::Full,
            predictor,
        },
        other => return Err(format!("unknown mechanism {other}\n{}", usage())),
    };
    Ok(m)
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mechanism = args.next().ok_or_else(usage)?;
    let mut opts = Options {
        mechanism,
        workload: "all".into(),
        entries: 15,
        paths: 1,
        loadregs: 6,
        predictor: PredictorConfig::default(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--entries" => {
                opts.entries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--entries needs a number")?;
            }
            "--predictor" => {
                let spec = args.next().ok_or("--predictor needs NAME[:SIZE]")?;
                opts.predictor = PredictorConfig::parse(&spec).map_err(|e| e.to_string())?;
            }
            "--paths" => {
                opts.paths = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--paths needs a number")?;
            }
            "--loadregs" => {
                opts.loadregs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--loadregs needs a number")?;
            }
            w if !w.starts_with('-') => opts.workload = w.to_string(),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn usage() -> String {
    "usage: ruu-sim <simple|tomasulo|tagunit|rspool|rstu|ruu|ruu-bypass|ruu-nobypass|\n     ruu-limited|reorder|reorder-bypass|history|future|spec|spec-ruu>\n     [LLL1..LLL14|all|file.s] [--entries N] [--paths N] [--loadregs N]\n     [--predictor NAME[:SIZE]]\n   or: ruu-sim sweep --mechanism <name> --entries A:B[:STEP]|N,N,...\n     [--jobs N] [--json] [--paths N] [--loadregs N] [--buses N]\n     [--predictor NAME[:SIZE]] [--dcache GEOM]\n   or: ruu-sim cachesim [--mechanism <name>] [--entries N] [--dcache GEOM]\n     [--all-loops|LLL1..LLL14|file.s]\n   or: ruu-sim cbp [--predictor NAME[:SIZE]]... [--loop LLL1..LLL14|file.s | --all-loops]\n     [--json] [--top N]\n   or: ruu-sim trace --mechanism <name> --loop <LLL1..LLL14|file.s> --out FILE\n     [--entries N]\n   or: ruu-sim lint [--all-loops|LLL1..LLL14|file.s] [--deny-warnings] [--branch-sites]\n   or: ruu-sim analyze [--all-loops|LLL1..LLL14|file.s] [--mechanism <name>] [--entries N]\n\npredictors: always-taken | btfn | twobit[:N] | bimodal[:N] | gshare[:N] |\n            local[:N] | tage[:N]   (cbp default: the whole zoo)\ndcache:     perfect | SETSxWAYSxLINE[:MISS[:HIT[:MSHRS]]]  (e.g. 64x4x4:20)\n-h, --help  print this usage (also after any subcommand)"
        .to_string()
}

fn workloads(sel: &str) -> Result<Vec<Workload>, String> {
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

/// Parses a window-size grid: `A:B` (inclusive range), `A:B:STEP`, or a
/// comma-separated list `N,N,...`.
fn parse_entries_spec(spec: &str) -> Result<Vec<usize>, String> {
    let bad = |s: &str| format!("bad --entries spec {s:?} (want A:B, A:B:STEP, or N,N,...)");
    if spec.contains(':') {
        let parts: Vec<&str> = spec.split(':').collect();
        let (lo, hi, step) = match parts.as_slice() {
            [a, b] => (a, b, "1"),
            [a, b, s] => (a, b, *s),
            _ => return Err(bad(spec)),
        };
        let lo: usize = lo.parse().map_err(|_| bad(spec))?;
        let hi: usize = hi.parse().map_err(|_| bad(spec))?;
        let step: usize = step.parse().map_err(|_| bad(spec))?;
        if lo == 0 || hi < lo || step == 0 {
            return Err(bad(spec));
        }
        Ok((lo..=hi).step_by(step).collect())
    } else {
        let list: Vec<usize> = spec
            .split(',')
            .map(|p| p.trim().parse().map_err(|_| bad(spec)))
            .collect::<Result<_, _>>()?;
        if list.is_empty() || list.contains(&0) {
            return Err(bad(spec));
        }
        Ok(list)
    }
}

fn run_sweep(mut args: std::env::Args) -> Result<(), String> {
    let mut mechanism: Option<String> = None;
    let mut entries_spec: Option<String> = None;
    let mut jobs: usize = 0;
    let mut json = false;
    let mut paths: u32 = 1;
    let mut loadregs: usize = 6;
    let mut buses: u32 = 1;
    let mut predictor = PredictorConfig::default();
    let mut dcache = DCacheConfig::Perfect;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mechanism" => mechanism = Some(args.next().ok_or("--mechanism needs a name")?),
            "--entries" => entries_spec = Some(args.next().ok_or("--entries needs a spec")?),
            "--predictor" => {
                let spec = args.next().ok_or("--predictor needs NAME[:SIZE]")?;
                predictor = PredictorConfig::parse(&spec).map_err(|e| e.to_string())?;
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--jobs needs a number")?;
            }
            "--json" => json = true,
            "--paths" => {
                paths = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--paths needs a number")?;
            }
            "--loadregs" => {
                loadregs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--loadregs needs a number")?;
            }
            "--buses" => {
                buses = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--buses needs a number")?;
            }
            "--dcache" => {
                let spec = args.next().ok_or("--dcache needs a geometry")?;
                dcache = DCacheConfig::parse(&spec).map_err(|e| e.to_string())?;
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    let name = mechanism.ok_or_else(|| format!("sweep needs --mechanism\n{}", usage()))?;
    let spec = entries_spec.ok_or_else(|| format!("sweep needs --entries\n{}", usage()))?;
    let entries = parse_entries_spec(&spec)?;
    let cfg = MachineConfig::paper()
        .with_dispatch_paths(paths)
        .with_load_registers(loadregs)
        .with_result_buses(buses)
        .with_dcache(dcache);

    let grid: Vec<Job> = entries
        .iter()
        .map(|&e| {
            Ok(Job::new(
                mechanism_by_name(&name, e, predictor)?,
                cfg.clone(),
            ))
        })
        .collect::<Result<_, String>>()?;

    let engine = SweepEngine::livermore().with_workers(jobs);
    let report = engine.run_grid(&grid).map_err(|e| e.to_string())?;

    if json {
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
fn run_trace(mut args: std::env::Args) -> Result<(), String> {
    let mut mechanism: Option<String> = None;
    let mut sel: Option<String> = None;
    let mut out: Option<String> = None;
    let mut entries: usize = 15;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mechanism" => mechanism = Some(args.next().ok_or("--mechanism needs a name")?),
            "--loop" => sel = Some(args.next().ok_or("--loop needs a workload name")?),
            "--out" => out = Some(args.next().ok_or("--out needs a file path")?),
            "--entries" => {
                entries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--entries needs a number")?;
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    let name = mechanism.ok_or_else(|| format!("trace needs --mechanism\n{}", usage()))?;
    let sel = sel.ok_or_else(|| format!("trace needs --loop\n{}", usage()))?;
    let path = out.ok_or_else(|| format!("trace needs --out\n{}", usage()))?;
    let suite = workloads(&sel)?;
    let [w] = suite.as_slice() else {
        return Err("trace wants exactly one workload (e.g. --loop LLL3)".to_string());
    };

    let cfg = MachineConfig::paper();
    let sim = mechanism_by_name(&name, entries, PredictorConfig::default())?.build(&cfg);

    let mut trace = ChromeTraceObserver::default();
    let mut acct = CycleAccountant::default();
    let mut tee = Tee::new(&mut trace, &mut acct);
    let r = sim
        .run_observed(
            ArchState::new(),
            w.memory.clone(),
            &w.program,
            w.inst_limit,
            &mut tee,
        )
        .map_err(|e| format!("{}: {e}", w.name))?;
    w.verify(&r.memory)
        .map_err(|e| format!("{}: {e}", w.name))?;

    std::fs::write(&path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
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
fn run_cachesim(mut args: std::env::Args) -> Result<(), String> {
    let mut name = "ruu".to_string();
    let mut entries: usize = 15;
    let mut spec = "64x2x4:20".to_string();
    let mut pending: Option<&str> = None;
    let suite = select_workloads(&mut args, &mut |arg| {
        match pending.take() {
            Some("--mechanism") => {
                name = arg.to_string();
                return Ok(true);
            }
            Some("--entries") => {
                entries = arg.parse().map_err(|_| "--entries needs a number")?;
                return Ok(true);
            }
            Some("--dcache") => {
                spec = arg.to_string();
                return Ok(true);
            }
            _ => {}
        }
        Ok(match arg {
            "--mechanism" => {
                pending = Some("--mechanism");
                true
            }
            "--entries" => {
                pending = Some("--entries");
                true
            }
            "--dcache" => {
                pending = Some("--dcache");
                true
            }
            _ => false,
        })
    })?;
    let dcache = DCacheConfig::parse(&spec).map_err(|e| e.to_string())?;
    if dcache.is_perfect() {
        return Err(
            "cachesim wants a finite --dcache geometry (SETSxWAYSxLINE[:MISS[:HIT[:MSHRS]]])"
                .to_string(),
        );
    }
    let mechanism = mechanism_by_name(&name, entries, PredictorConfig::default())?;
    let perfect_cfg = MachineConfig::paper();
    let cached_cfg = perfect_cfg.clone().with_dcache(dcache);

    println!("cachesim: {name} under {dcache}");
    println!(
        "| {:<8} | {:>10} | {:>10} | {:>8} | {:>9} | {:>8} | {:>7} |",
        "loop", "perfect", "cached", "slowdown", "accesses", "hit rate", "MPKI"
    );
    let (mut perfect_cycles, mut cycles, mut instructions) = (0, 0, 0);
    let mut total = RunStats::default();
    for w in &suite {
        let run = |cfg: &MachineConfig| {
            mechanism
                .build(cfg)
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .map_err(|e| format!("{}: {e}", w.name))
        };
        let base = run(&perfect_cfg)?;
        let r = run(&cached_cfg)?;
        w.verify(&r.memory)
            .map_err(|e| format!("{}: {e}", w.name))?;
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
fn run_cbp(mut args: std::env::Args) -> Result<(), String> {
    let mut predictors: Vec<PredictorConfig> = Vec::new();
    let mut sel: Option<String> = None;
    let mut json = false;
    let mut top: usize = 3;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--predictor" => {
                let spec = args.next().ok_or("--predictor needs NAME[:SIZE]")?;
                predictors.push(PredictorConfig::parse(&spec).map_err(|e| e.to_string())?);
            }
            "--loop" => sel = Some(args.next().ok_or("--loop needs a workload name")?),
            "--all-loops" => sel = Some("all".to_string()),
            "--json" => json = true,
            "--top" => {
                top = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--top needs a number")?;
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    if predictors.is_empty() {
        predictors = PredictorConfig::zoo();
    }
    let suite = workloads(sel.as_deref().unwrap_or("all"))?;

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

    if json {
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

/// Workload selection shared by `lint` and `analyze`: `--all-loops` or a
/// positional workload name / `.s` file (default: all loops).
fn select_workloads(
    args: &mut std::env::Args,
    flag: &mut impl FnMut(&str) -> Result<bool, String>,
) -> Result<Vec<Workload>, String> {
    let mut sel: Option<String> = None;
    for arg in args.by_ref() {
        match arg.as_str() {
            "--all-loops" => sel = Some("all".to_string()),
            other => {
                if !flag(other)? {
                    if other.starts_with('-') {
                        return Err(format!("unknown option {other}\n{}", usage()));
                    }
                    sel = Some(other.to_string());
                }
            }
        }
    }
    workloads(sel.as_deref().unwrap_or("all"))
}

/// Statically lints the selected workloads, honouring inline waivers.
/// Errors are always fatal; `--deny-warnings` makes warnings fatal too.
fn run_lint(mut args: std::env::Args) -> Result<(), String> {
    let mut deny_warnings = false;
    let mut branch_view = false;
    let suite = select_workloads(&mut args, &mut |arg| {
        Ok(match arg {
            "--deny-warnings" => {
                deny_warnings = true;
                true
            }
            "--branch-sites" => {
                branch_view = true;
                true
            }
            _ => false,
        })
    })?;

    if branch_view {
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
fn run_analyze(mut args: std::env::Args) -> Result<(), String> {
    let mut name = "ruu".to_string();
    let mut entries: usize = 15;
    let mut pending: Option<&str> = None;
    let suite = select_workloads(&mut args, &mut |arg| {
        match pending.take() {
            Some("--mechanism") => {
                name = arg.to_string();
                return Ok(true);
            }
            Some("--entries") => {
                entries = arg.parse().map_err(|_| "--entries needs a number")?;
                return Ok(true);
            }
            _ => {}
        }
        Ok(match arg {
            "--mechanism" => {
                pending = Some("--mechanism");
                true
            }
            "--entries" => {
                pending = Some("--entries");
                true
            }
            _ => false,
        })
    })?;
    let cfg = MachineConfig::paper();
    let mechanism = mechanism_by_name(&name, entries, PredictorConfig::default())?;

    println!(
        "| {:<8} | {:>12} | {:>10} | {:>10} | {:>10} | {:>10} |",
        "loop", "instructions", "crit path", "bound", "cycles", "% of limit"
    );
    let mut violations = 0usize;
    for w in &suite {
        let trace = w.golden_trace().map_err(|e| format!("{}: {e}", w.name))?;
        let b = dataflow_bound(&trace, &cfg);
        let sim = mechanism.build(&cfg);
        let r = sim
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .map_err(|e| format!("{}: {e}", w.name))?;
        w.verify(&r.memory)
            .map_err(|e| format!("{}: {e}", w.name))?;
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
    if std::env::args().skip(1).any(|a| a == "-h" || a == "--help") {
        println!("{}", usage());
        return Ok(());
    }
    type Subcommand = fn(std::env::Args) -> Result<(), String>;
    let sub: Option<Subcommand> = match std::env::args().nth(1).as_deref() {
        Some("sweep") => Some(run_sweep),
        Some("trace") => Some(run_trace),
        Some("cachesim") => Some(run_cachesim),
        Some("cbp") => Some(run_cbp),
        Some("lint") => Some(run_lint),
        Some("analyze") => Some(run_analyze),
        _ => None,
    };
    if let Some(sub) = sub {
        let mut args = std::env::args();
        args.next(); // program name
        args.next(); // the subcommand
        return sub(args);
    }
    let opts = parse_args()?;
    let cfg = MachineConfig::paper()
        .with_dispatch_paths(opts.paths)
        .with_load_registers(opts.loadregs);
    let suite = workloads(&opts.workload)?;

    let e = opts.entries;
    let mechanism = mechanism_by_name(&opts.mechanism, e, opts.predictor)?;

    println!(
        "| {:<8} | {:>12} | {:>10} | {:>6} |",
        "loop", "instructions", "cycles", "IPC"
    );
    let mut total_i = 0u64;
    let mut total_c = 0u64;
    for w in &suite {
        let sim = mechanism.build(&cfg);
        let r = sim
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .map_err(|e| format!("{}: {e}", w.name))?;
        w.verify(&r.memory)
            .map_err(|e| format!("{}: {e}", w.name))?;
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

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
