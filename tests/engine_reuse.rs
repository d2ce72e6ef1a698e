//! The engine's unit memo against direct runs.
//!
//! `SweepEngine` simulates each distinct (mechanism, configuration,
//! workload) unit once, and lets a run of a single-size mechanism that
//! never stalled on a full window (`StallReason::WindowFull`) answer every
//! larger size of it (DESIGN.md §5b). This test runs a grid over the
//! Livermore loops and random programs, with every single-size mechanism
//! family at 1..=24 entries (across the size at which each saturates) and
//! duplicate jobs, under four machines, and checks:
//!
//! * every `JobResult` equals the sum of direct `Mechanism::build(..)
//!   .run(..)` runs, once for an engine given the whole grid in one call
//!   and once for an engine called job by job;
//! * every unit the rule answers from a smaller size is that size's run in
//!   full: cycles, instructions, `RunStats`, final state and memory, and
//!   an FNV hash of the per-cycle observer stream, all direct;
//! * `units - reused` is the number of units the rule leaves to simulate.

use std::collections::HashMap;

use ruu::engine::{Job, JobResult, SweepEngine};
use ruu::exec::{ArchState, Trace};
use ruu::isa::FuClass;
use ruu::issue::{Bypass, Mechanism, PreciseScheme, PredictorConfig};
use ruu::sim::{DCacheConfig, MachineConfig, PipelineObserver, RunResult, StallReason};
use ruu::workloads::synth::{random_program, SynthConfig};
use ruu::workloads::{livermore, Workload};

/// The window sizes of every family: from sizes that fill on every
/// workload to sizes past saturation on most.
const SIZES: std::ops::RangeInclusive<usize> = 1..=24;

/// Instruction limit of the random programs (they halt well before it).
const SYNTH_LIMIT: u64 = 500_000;

/// The Livermore loops plus random programs, two with their memory
/// traffic on a handful of hot addresses.
fn suite() -> Vec<Workload> {
    let mut suite = livermore::all();
    for (name, seed, hot_addresses) in [
        ("synth-7", 7, false),
        ("synth-31", 31, false),
        ("synth-7-hot", 7, true),
        ("synth-58-hot", 58, true),
    ] {
        let synth = SynthConfig {
            hot_addresses,
            ..SynthConfig::default()
        };
        let (program, memory) = random_program(seed, &synth);
        let golden = Trace::capture(&program, memory.clone(), SYNTH_LIMIT).expect("golden runs");
        suite.push(Workload {
            name,
            description: "random program",
            checks: golden.final_memory().nonzero().collect(),
            program,
            memory,
            inst_limit: SYNTH_LIMIT,
            lint_waivers: Vec::new(),
        });
    }
    suite
}

fn machines() -> Vec<MachineConfig> {
    let cache = |g: &str| DCacheConfig::parse(g).expect("valid geometry");
    let slow = MachineConfig::paper().with_dcache(cache("64x2x4:200"));
    vec![
        MachineConfig::paper(),
        MachineConfig::paper().with_dcache(cache("16x2x2:20")),
        slow.clone(),
        slow.with_fu_latency(FuClass::FloatMul, 40)
            .with_result_buses(2),
    ]
}

/// Every mechanism whose only size is one entry count, as a function of
/// that count: the RSTU, the RUU, the speculative RUU and the four §4
/// schemes.
fn families() -> Vec<fn(usize) -> Mechanism> {
    vec![
        |entries| Mechanism::Rstu { entries },
        |entries| Mechanism::Ruu {
            entries,
            bypass: Bypass::Full,
        },
        |entries| Mechanism::SpecRuu {
            entries,
            bypass: Bypass::Full,
            predictor: PredictorConfig::default(),
        },
        |entries| Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBuffer,
            entries,
        },
        |entries| Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBufferBypass,
            entries,
        },
        |entries| Mechanism::InOrderPrecise {
            scheme: PreciseScheme::HistoryBuffer,
            entries,
        },
        |entries| Mechanism::InOrderPrecise {
            scheme: PreciseScheme::FutureFile,
            entries,
        },
    ]
}

/// Each family at every size under every machine, family by family in
/// ascending size, plus jobs that repeat earlier ones: a simple-issue job
/// (the baseline's own units) and two sizes of the first family.
fn grid() -> Vec<Job> {
    let mut jobs = Vec::new();
    for config in machines() {
        for family in families() {
            for entries in SIZES {
                jobs.push(Job::new(family(entries), config.clone()));
            }
        }
        jobs.push(Job::new(Mechanism::Simple, config.clone()));
        for entries in [2, 20] {
            jobs.push(Job::new(families()[0](entries), config.clone()).with_label("again"));
        }
    }
    jobs
}

/// FNV-1a over a kind byte and the little-endian arguments of every
/// callback. An idle span is hashed as the one call the core makes: the
/// per-cycle stream is its default replay, so equal hashes mean equal
/// per-cycle streams, without hashing millions of stalled cycles.
struct StreamHash(u64);

impl StreamHash {
    fn event(&mut self, kind: u8, args: &[u64]) {
        let bytes = args.iter().flat_map(|a| a.to_le_bytes());
        for b in std::iter::once(kind).chain(bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl PipelineObserver for StreamHash {
    fn fetch(&mut self, cycle: u64, pc: u32) {
        self.event(0, &[cycle, pc.into()]);
    }
    fn issue(&mut self, cycle: u64, seq: u64) {
        self.event(1, &[cycle, seq]);
    }
    fn dispatch(&mut self, cycle: u64, seq: u64, fu: FuClass, complete_at: u64) {
        self.event(2, &[cycle, seq, fu.index() as u64, complete_at]);
    }
    fn complete(&mut self, cycle: u64, seq: u64) {
        self.event(3, &[cycle, seq]);
    }
    fn commit(&mut self, cycle: u64, seq: u64) {
        self.event(4, &[cycle, seq]);
    }
    fn flush(&mut self, cycle: u64, squashed: u64) {
        self.event(5, &[cycle, squashed]);
    }
    fn stall(&mut self, cycle: u64, reason: StallReason) {
        self.event(6, &[cycle, reason_index(reason)]);
    }
    fn mem_access(&mut self, cycle: u64, addr: u64, hit: bool, latency: u64) {
        self.event(7, &[cycle, addr, hit.into(), latency]);
    }
    fn cycle_end(&mut self, cycle: u64, occupancy: u32) {
        self.event(8, &[cycle, occupancy.into()]);
    }
    fn idle_span(&mut self, from: u64, n: u64, pc: Option<u32>, reason: StallReason, occ: u32) {
        let pc = pc.map_or(u64::MAX, u64::from);
        self.event(9, &[from, n, pc, reason_index(reason), occ.into()]);
    }
}

fn reason_index(reason: StallReason) -> u64 {
    let index = StallReason::ALL.iter().position(|&r| r == reason);
    index.expect("every reason is listed") as u64
}

/// `f` over `items` on a few threads (thread `t` takes every `t`-th
/// item), results in item order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let f = &f;
    let parts: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || items.iter().skip(t).step_by(threads).map(f).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    (0..items.len())
        .map(|i| parts[i % threads].next().expect("one result per item"))
        .collect()
}

/// A unit: a machine index, a mechanism and a workload index.
type Unit = (usize, Mechanism, usize);

/// One direct, unobserved run.
fn direct(m: Mechanism, config: &MachineConfig, w: &Workload) -> RunResult {
    m.build(config)
        .run(&w.program, w.memory.clone(), w.inst_limit)
        .unwrap_or_else(|e| panic!("{m} on {}: {e}", w.name))
}

/// One direct run under the hashing observer, with its stream's hash.
fn observed(m: Mechanism, config: &MachineConfig, w: &Workload) -> (RunResult, u64) {
    let mut hash = StreamHash(0xcbf2_9ce4_8422_2325);
    let r = m
        .build(config)
        .run_observed(
            ArchState::new(),
            w.memory.clone(),
            &w.program,
            w.inst_limit,
            &mut hash,
        )
        .unwrap_or_else(|e| panic!("{m} on {}: {e}", w.name));
    (r, hash.0)
}

fn assert_same_run(a: &(RunResult, u64), b: &(RunResult, u64), what: &str) {
    let ((a, a_hash), (b, b_hash)) = (a, b);
    assert_eq!(a.cycles, b.cycles, "cycles of {what}");
    assert_eq!(a.instructions, b.instructions, "instructions of {what}");
    assert_eq!(a.stats, b.stats, "counters of {what}");
    assert_eq!(a.state.regs, b.state.regs, "registers of {what}");
    assert_eq!(a.state.pc, b.state.pc, "pc of {what}");
    assert!(a.memory == b.memory, "memory of {what}");
    assert_eq!(a_hash, b_hash, "event stream of {what}");
}

#[test]
fn memoized_and_saturated_units_equal_direct_runs() {
    let suite = suite();
    let jobs = grid();
    let configs = machines();
    let machine = |job: &Job| configs.iter().position(|c| *c == job.config).unwrap();

    // Direct runs of every distinct unit, simple-issue baselines included.
    let mut units: Vec<Unit> = Vec::new();
    for job in &jobs {
        for w in 0..suite.len() {
            let unit = (machine(job), job.mechanism, w);
            if !units.contains(&unit) {
                units.push(unit);
            }
        }
    }
    let results = par_map(&units, |&(c, m, w)| direct(m, &configs[c], &suite[w]));
    let runs: HashMap<Unit, RunResult> = units.into_iter().zip(results).collect();

    // The rule, from the direct runs: in each family, machine and
    // workload, the sizes up to the first whose run never found the
    // window full are simulated, and that run answers the larger sizes.
    let families = families();
    let mut simulated = configs.len() * suite.len(); // baseline fills
    let mut saturated = Vec::new(); // (machine, family, workload, size)
    for c in 0..configs.len() {
        for (f, family) in families.iter().enumerate() {
            for w in 0..suite.len() {
                let full = |n| {
                    runs[&(c, family(n), w)]
                        .stats
                        .stalls(StallReason::WindowFull)
                };
                match SIZES.clone().find(|&n| full(n) == 0) {
                    Some(n) => {
                        simulated += n - SIZES.start() + 1;
                        saturated.push((c, f, w, n));
                    }
                    None => simulated += SIZES.count(),
                }
            }
        }
    }
    // Each unit a saturated run answers is, in full, that run.
    let reused = par_map(&saturated, |&(c, f, w, n)| {
        let (config, workload) = (&configs[c], &suite[w]);
        let by = observed(families[f](n), config, workload);
        for m in n + 1..=*SIZES.end() {
            let at = families[f](m);
            let what = format!("{at} on {} under {}", workload.name, config.dcache);
            assert_same_run(&by, &observed(at, config, workload), &what);
        }
        SIZES.end() - n
    });
    assert!(
        reused.iter().sum::<usize>() > 0 && simulated > configs.len() * suite.len(),
        "the grid spans saturation"
    );

    let check = |results: &[JobResult]| {
        for (job, r) in jobs.iter().zip(results) {
            let c = machine(job);
            let units = (0..suite.len()).map(|w| &runs[&(c, job.mechanism, w)]);
            let cycles: u64 = units.clone().map(|u| u.cycles).sum();
            let instructions: u64 = units.clone().map(|u| u.instructions).sum();
            let mut stats = ruu::sim::RunStats::default();
            units.for_each(|u| stats.absorb(&u.stats));
            let what = format!("{} under {}", job.mechanism, job.config.dcache);
            assert_eq!(r.cycles, cycles, "{what}");
            assert_eq!(r.instructions, instructions, "{what}");
            assert_eq!(r.stats, stats, "{what}");
            let baseline: u64 = (0..suite.len())
                .map(|w| runs[&(c, Mechanism::Simple, w)].cycles)
                .sum();
            assert_eq!(r.baseline_cycles, baseline, "{what}");
        }
    };

    // One call on three workers.
    let engine = SweepEngine::new(suite.clone()).with_workers(3);
    let report = engine.run_grid(&jobs).expect("grid runs");
    check(&report.jobs);
    let units = (jobs.len() + configs.len()) * suite.len();
    assert_eq!(report.stats.units, units);
    assert_eq!(report.stats.units - report.stats.reused, simulated);

    // One call per job: the memo carries each unit over.
    let engine = SweepEngine::new(suite.clone());
    let mut results = Vec::new();
    let (mut answered, mut ran) = (0, 0);
    for job in &jobs {
        let report = engine
            .run_grid(std::slice::from_ref(job))
            .expect("job runs");
        answered += report.stats.units;
        ran += report.stats.units - report.stats.reused;
        results.extend(report.jobs);
    }
    check(&results);
    assert_eq!(answered, units);
    assert_eq!(ran, simulated);

    // A repeated grid simulates nothing.
    let again = engine.run_grid(&jobs).expect("grid runs");
    assert_eq!(again.stats.reused, jobs.len() * suite.len());
}
