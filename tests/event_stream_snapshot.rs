//! Event-stream snapshot: a hash of every observer callback, and the
//! run's `RunStats`, for every `Mechanism` on the 14 Livermore loops
//! under five machines, plus the speculative RUUs on 16 random programs
//! (which mispredict far more often than the loops do) under each.
//!
//! The hashing observer overrides only the per-cycle hooks, so a core
//! that reports a stretch of idle cycles through `idle_span` reaches it
//! through the default replay: the hash pins the per-cycle stream the
//! core would have produced one cycle at a time, and the `RunStats` pin
//! what the core counts for itself. Both must survive any change to how
//! a core steps through its cycles.
//!
//! Each unit also runs unobserved, and must end in the same cycles,
//! instructions, `RunStats`, state and memory as the observed run: the
//! two entry points may be compiled separately.
//!
//! The snapshot lives in `tests/snapshots/event_stream.txt`, one
//! tab-separated row per (machine, mechanism, program). To print the rows
//! the current tree produces, run
//! `cargo test --test event_stream_snapshot -- --ignored --nocapture`.

use ruu::exec::{ArchState, Memory};
use ruu::isa::FuClass;
use ruu::isa::Program;
use ruu::issue::{Bypass, Mechanism, PreciseScheme, PredictorConfig};
use ruu::sim::{DCacheConfig, MachineConfig, PipelineObserver, StallReason};
use ruu::workloads::livermore;
use ruu::workloads::synth::{random_program, SynthConfig};

const SNAPSHOT: &str = include_str!("snapshots/event_stream.txt");

/// Instruction limit of the random programs (they always halt well
/// before it).
const SYNTH_LIMIT: u64 = 500_000;

/// FNV-1a over a kind byte and the little-endian arguments of every
/// callback.
struct StreamHash {
    hash: u64,
    events: u64,
}

impl StreamHash {
    fn new() -> Self {
        StreamHash {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }

    fn event(&mut self, kind: u8, args: &[u64]) {
        self.events += 1;
        self.bytes(&[kind]);
        for a in args {
            self.bytes(&a.to_le_bytes());
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn reason_index(reason: StallReason) -> u64 {
    StallReason::ALL
        .iter()
        .position(|&r| r == reason)
        .expect("every reason is listed") as u64
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
}

fn machines() -> [(&'static str, MachineConfig); 5] {
    let cache = |g: &str| DCacheConfig::parse(g).expect("valid geometry");
    [
        ("perfect", MachineConfig::paper()),
        (
            "64x2x4:20",
            MachineConfig::paper().with_dcache(cache("64x2x4:20")),
        ),
        (
            "long-latency",
            MachineConfig::paper()
                .with_dcache(cache("64x2x4:200"))
                .with_fu_latency(FuClass::FloatMul, 40)
                .with_result_buses(2),
        ),
        // One-bit LI counters: a register's tag aliases after two renames.
        (
            "counter-bits-1",
            MachineConfig::paper().with_counter_bits(1),
        ),
        // One outstanding miss on a direct-mapped cache: loads that miss
        // behind a fill stall on `MemStall` until it lands.
        (
            "16x1x4:30:1:1",
            MachineConfig::paper().with_dcache(cache("16x1x4:30:1:1")),
        ),
    ]
}

/// Every `Mechanism` variant, every bypass policy and every precise
/// scheme, at the sizes the snapshots and reports use.
fn mechanisms() -> Vec<Mechanism> {
    let precise = |scheme| Mechanism::InOrderPrecise { scheme, entries: 8 };
    vec![
        Mechanism::Simple,
        precise(PreciseScheme::ReorderBuffer),
        precise(PreciseScheme::ReorderBufferBypass),
        precise(PreciseScheme::HistoryBuffer),
        precise(PreciseScheme::FutureFile),
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBufferBypass,
            entries: 1,
        },
        Mechanism::Tomasulo { rs_per_fu: 2 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 2,
            tags: 12,
        },
        Mechanism::RsPool { rs: 8, tags: 12 },
        Mechanism::Rstu { entries: 15 },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::None,
        },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::LimitedA,
        },
        Mechanism::Ruu {
            entries: 50,
            bypass: Bypass::Full,
        },
        Mechanism::SpecRuu {
            entries: 15,
            bypass: Bypass::Full,
            predictor: PredictorConfig::TwoBit { entries: 64 },
        },
        Mechanism::SpecRuu {
            entries: 30,
            bypass: Bypass::LimitedA,
            predictor: PredictorConfig::Tage { entries: 512 },
        },
    ]
}

/// The row of one unit: runs it observed and unobserved, and checks that
/// both runs end alike.
fn row(
    machine: &str,
    m: &Mechanism,
    cfg: &MachineConfig,
    name: &str,
    program: &Program,
    mem: &Memory,
    limit: u64,
) -> String {
    let sim = m.build(cfg);
    let mut obs = StreamHash::new();
    let r = sim
        .run_observed(ArchState::new(), mem.clone(), program, limit, &mut obs)
        .unwrap_or_else(|e| panic!("{m} on {machine} failed on {name}: {e}"));
    let plain = sim
        .run(program, mem.clone(), limit)
        .unwrap_or_else(|e| panic!("{m} on {machine} failed unobserved on {name}: {e}"));
    let unit = format!("{m} on {machine}, {name}");
    assert_eq!(plain.cycles, r.cycles, "{unit}: unobserved cycles");
    assert_eq!(plain.instructions, r.instructions, "{unit}: instructions");
    assert_eq!(plain.stats, r.stats, "{unit}: unobserved RunStats");
    assert_eq!(plain.state, r.state, "{unit}: unobserved final state");
    assert_eq!(plain.memory, r.memory, "{unit}: unobserved final memory");
    format!(
        "{machine}\t{m}\t{name}\tcycles={}\tinsts={}\tevents={}\thash={:016x}\t{:?}",
        r.cycles, r.instructions, obs.events, obs.hash, r.stats
    )
}

/// The random programs of the speculative rows: the default generator,
/// every other seed with all memory traffic on a few hot addresses.
fn synth_programs() -> Vec<(String, Program, Memory)> {
    (0..16u64)
        .map(|seed| {
            let cfg = SynthConfig {
                hot_addresses: seed % 2 == 1,
                ..SynthConfig::default()
            };
            let (program, mem) = random_program(seed, &cfg);
            (format!("synth-{seed}"), program, mem)
        })
        .collect()
}

/// One row per (machine, mechanism, loop), then one per (machine,
/// speculative mechanism, random program), in a fixed order.
fn rows() -> Vec<String> {
    let loops = livermore::all();
    let mut rows = Vec::new();
    for (machine, cfg) in machines() {
        for m in mechanisms() {
            for w in &loops {
                rows.push(row(
                    machine,
                    &m,
                    &cfg,
                    w.name,
                    &w.program,
                    &w.memory,
                    w.inst_limit,
                ));
            }
        }
    }
    let programs = synth_programs();
    for (machine, cfg) in machines() {
        for m in mechanisms() {
            if !matches!(m, Mechanism::SpecRuu { .. }) {
                continue;
            }
            for (name, program, mem) in &programs {
                rows.push(row(machine, &m, &cfg, name, program, mem, SYNTH_LIMIT));
            }
        }
    }
    rows
}

#[test]
fn every_event_stream_matches_the_snapshot() {
    let want: Vec<&str> = SNAPSHOT.lines().collect();
    let got = rows();
    assert_eq!(got.len(), want.len(), "row count");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want, "event stream or RunStats drifted");
    }
}

#[test]
#[ignore = "prints the snapshot rows of the current tree"]
fn print_event_stream_rows() {
    for row in rows() {
        println!("{row}");
    }
}

/// Counts the cycles a core ends one at a time and those it reports in
/// idle spans.
#[derive(Default)]
struct SpanCount {
    stepped: u64,
    spanned: u64,
    spans: u64,
}

impl PipelineObserver for SpanCount {
    fn cycle_end(&mut self, _: u64, _: u32) {
        self.stepped += 1;
    }
    fn idle_span(&mut self, _: u64, n: u64, _: Option<u32>, _: StallReason, _: u32) {
        self.spanned += n;
        self.spans += 1;
    }
}

/// Behind a 200-cycle miss every core spends most of its time waiting;
/// each must report at least a quarter of its cycles as idle spans, and
/// every cycle must end exactly once, stepped or spanned.
#[test]
fn every_core_skips_idle_cycles_behind_long_misses() {
    let loops = livermore::all();
    let (_, cfg) = machines()[2].clone();
    for m in mechanisms() {
        let sim = m.build(&cfg);
        let mut obs = SpanCount::default();
        let mut cycles = 0;
        for w in &loops {
            let r = sim
                .run_observed(
                    ArchState::new(),
                    w.memory.clone(),
                    &w.program,
                    w.inst_limit,
                    &mut obs,
                )
                .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name));
            cycles += r.cycles;
        }
        assert_eq!(obs.stepped + obs.spanned, cycles, "{m}: cycles ended");
        assert!(
            obs.spanned * 4 > cycles,
            "{m}: only {} of {cycles} cycles in {} idle spans",
            obs.spanned,
            obs.spans
        );
    }
}
