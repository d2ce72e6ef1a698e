//! `perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//! [--out FILE] [--git-rev REV] [--rustc VERSION] [--source-digest HEX]`
//!
//! Builds the workload's inputs several times (their median is
//! `setup_s`), measures for `--seconds`, prints a summary on stderr and,
//! as the last line of stdout, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--out` it also writes the
//! full result file: provenance, per-pass and per-unit times, metrics the
//! workload cannot measure (with the reason), and the traced run's spans.
//! `perfbench/run.py` builds this binary and passes the provenance.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::bench::{self, Outcome, Plan, SetupTimes, WorkloadKind};
use perfbench::thread_cpu_ns;
use perfbench::trace::Tracer;
use ruu_engine::json::JsonWriter;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

#[derive(Debug)]
struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    git_rev: String,
    rustc: String,
    source_digest: String,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, false, None);
    let mut git_rev = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut source_digest = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
                workload = Some(WorkloadKind::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                );
            }
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(format!("--seconds must be 1..=600, got {value:?}")),
            },
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
            "--out" => out = Some(value),
            "--git-rev" => git_rev = value,
            "--rustc" => rustc = value,
            "--source-digest" => source_digest = value,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| "--workload is required".to_string())?,
        seed: seed.ok_or_else(|| "--seed is required".to_string())?,
        seconds: seconds.ok_or_else(|| "--seconds is required".to_string())?,
        trace,
        out,
        git_rev,
        rustc,
        source_digest,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut setup = SetupTimes::default();
    let mut plan = None;
    for _ in 0..SETUP_REPS {
        drop(plan.take());
        let id = tracer.begin("setup");
        let cpu = thread_cpu_ns();
        let p = Plan::build(args.workload, args.seed)?;
        setup.record((thread_cpu_ns() - cpu) as f64 / 1e9, &p.inputs);
        tracer.end(id);
        plan = Some(p);
    }
    let plan = plan.expect("SETUP_REPS is positive");
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        bench::traced_run(&plan, budget, &setup, &mut tracer)
    } else {
        bench::untraced_run(&plan, budget, &setup)
    };
    print_summary(args, &plan, &outcome);
    if let Some(path) = &args.out {
        let path = std::path::Path::new(path);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let doc = result_file(args, &plan, &outcome, args.trace.then_some(&tracer));
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

fn print_summary(args: &Args, plan: &Plan, o: &Outcome) {
    eprintln!(
        "perfbench {} seed={} trace={}: {} programs, {} instructions per pass, \
         {} untraced + {} traced passes, {} units attempted, {} failed",
        plan.kind.name(),
        args.seed,
        u8::from(args.trace),
        plan.inputs.programs.len(),
        plan.pass_instructions(),
        o.pass_ms.len(),
        o.traced_pass_ms.len(),
        o.tally.attempted,
        o.tally.failed,
    );
    for m in &o.metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, reason) in &o.unavailable {
        eprintln!("  unavailable: {name}: {reason}");
    }
    for e in &o.tally.errors {
        eprintln!("  error: {e}");
    }
}

fn write_metrics(w: &mut JsonWriter, o: &Outcome, with_kind: bool) {
    w.begin_object();
    for m in &o.metrics {
        w.key(&m.name).begin_object();
        w.key("value").f64(m.value);
        w.key("unit").string(m.unit);
        if with_kind {
            w.key("kind")
                .string(if m.exact { "exact" } else { "measured" });
        }
        w.end_object();
    }
    w.end_object();
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(o: &Outcome) -> String {
    let mut w = JsonWriter::new();
    write_metrics(&mut w, o, false);
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.tally.correct(),
        o.tally.attempted,
        o.tally.failed,
        w.finish()
    )
}

fn result_file(args: &Args, plan: &Plan, o: &Outcome, tracer: Option<&Tracer>) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("provenance").begin_object();
    w.key("workload").string(plan.kind.name());
    w.key("seed").u64(args.seed);
    w.key("seconds").u64(args.seconds);
    w.key("trace").u64(u64::from(args.trace));
    w.key("git_rev").string(&args.git_rev);
    w.key("source_digest").string(&args.source_digest);
    w.key("rustc").string(&args.rustc);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    w.key("nproc").u64(nproc as u64);
    w.key("workers").u64(plan.kind.workers(args.trace) as u64);
    w.key("dcache").string(&plan.dcache_label());
    w.key("programs").u64(plan.inputs.programs.len() as u64);
    w.key("pass_instructions").u64(plan.pass_instructions());
    w.end_object();
    w.key("attempted").u64(o.tally.attempted);
    w.key("failed").u64(o.tally.failed);
    w.key("errors").begin_array();
    for e in &o.tally.errors {
        w.string(e);
    }
    w.end_array();
    w.key("metrics");
    write_metrics(&mut w, o, true);
    w.key("unavailable").begin_object();
    for (name, reason) in &o.unavailable {
        w.key(name).string(reason);
    }
    w.end_object();
    for (key, passes) in [
        ("pass_ms", &o.pass_ms),
        ("pass_cpu_ms", &o.pass_cpu_ms),
        ("traced_pass_ms", &o.traced_pass_ms),
        ("traced_pass_cpu_ms", &o.traced_pass_cpu_ms),
    ] {
        w.key(key).begin_array();
        for &ms in passes {
            w.f64(ms);
        }
        w.end_array();
    }
    w.key("units").begin_array();
    for u in &o.units {
        w.begin_object();
        w.key("unit").string(&u.label);
        w.key("instructions").u64(u.instructions);
        w.key("cycles").u64(u.cycles);
        w.key("ns_per_inst").f64(u.ns_per_inst);
        w.end_object();
    }
    w.end_array();
    if let Some(t) = tracer {
        w.key("layers").begin_object();
        for (name, l) in t.layers() {
            w.key(&name).begin_object();
            w.key("count").u64(l.count);
            w.key("total_ms").f64(l.total_ns as f64 / 1e6);
            w.key("self_ms").f64(l.self_ns as f64 / 1e6);
            w.end_object();
        }
        w.end_object();
        w.key("spans").begin_array();
        for s in t.spans() {
            w.begin_object();
            w.key("name").string(&s.name);
            if let Some(p) = s.parent {
                w.key("parent").u64(p as u64);
            }
            w.key("start_us").f64(s.start_ns as f64 / 1e3);
            w.key("dur_us").f64(s.dur_ns as f64 / 1e3);
            w.end_object();
        }
        w.end_array();
    }
    w.end_object();
    let mut doc = w.finish();
    // Booleans are not part of the writer's vocabulary; splice one in.
    doc.insert_str(1, &format!("\"correct\":{},", o.tally.correct()));
    doc
}
