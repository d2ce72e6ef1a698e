//! The cycle-accounting invariant, enforced end to end: for every issue
//! mechanism, over every Livermore loop and over random synthetic
//! programs,
//!
//! ```text
//! cycles == issue_cycles + Σ stall_cycles
//! ```
//!
//! with exactly one `cycle_end` observation per simulated cycle — and
//! attaching an observer never changes the simulated numbers. Also the
//! golden check that the Chrome-trace observer emits valid,
//! monotonically-timestamped `trace_event` JSON.

use std::collections::HashMap;

use proptest::prelude::*;

use ruu::exec::ArchState;
use ruu::issue::{Bypass, IssueSimulator, Mechanism, PreciseScheme, PredictorConfig};
use ruu::sim::{
    ChromeTraceObserver, CycleAccountant, DCacheConfig, FlushAccountant, MachineConfig,
    PipelineObserver, StallReason, Tee,
};
use ruu::workloads::livermore;
use ruu::workloads::synth::{random_program, SynthConfig};

const LIMIT: u64 = 1_000_000;

/// One representative of each of the six simulator families.
fn all_simulators(cfg: &MachineConfig, entries: usize) -> Vec<(String, Box<dyn IssueSimulator>)> {
    let mechanisms = [
        Mechanism::Simple,
        Mechanism::Tomasulo {
            rs_per_fu: entries / 4 + 1,
        },
        Mechanism::Rstu { entries },
        Mechanism::Ruu {
            entries,
            bypass: Bypass::Full,
        },
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBuffer,
            entries,
        },
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::FutureFile,
            entries,
        },
    ];
    let mut sims: Vec<(String, Box<dyn IssueSimulator>)> = mechanisms
        .into_iter()
        .map(|m| (m.to_string(), m.build(cfg)))
        .collect();
    // The speculative machine under its default predictor and again under
    // history-based ones: the accounting identity must hold for every
    // predictor choice, since mispredict-repair stalls are just relabelled
    // dead cycles.
    for predictor in [
        PredictorConfig::default(),
        PredictorConfig::Btfn,
        PredictorConfig::Gshare { entries: 1024 },
        PredictorConfig::Tage { entries: 512 },
    ] {
        let m = Mechanism::SpecRuu {
            entries,
            bypass: Bypass::Full,
            predictor,
        };
        sims.push((m.to_string(), m.build(cfg)));
    }
    sims
}

/// Besides the identity, the observer stream must agree with the run's
/// own `RunStats` — the counters the engine and every report read — on
/// issue cycles and on every stall reason, with and without a data cache.
#[test]
fn identity_holds_for_every_mechanism_on_every_livermore_loop() {
    let cached = DCacheConfig::parse("64x2x4:20").expect("valid geometry");
    for cfg in [
        MachineConfig::paper(),
        MachineConfig::paper().with_dcache(cached),
    ] {
        for w in livermore::all() {
            for (name, sim) in all_simulators(&cfg, 15) {
                let mut acct = CycleAccountant::default();
                let r = sim
                    .run_observed(
                        ArchState::new(),
                        w.memory.clone(),
                        &w.program,
                        w.inst_limit,
                        &mut acct,
                    )
                    .unwrap_or_else(|e| panic!("{name} failed on {}: {e}", w.name));
                w.verify(&r.memory)
                    .unwrap_or_else(|e| panic!("{name} wrong result on {}: {e}", w.name));
                acct.verify(r.cycles)
                    .unwrap_or_else(|v| panic!("{name} on {}: {v}", w.name));
                let at = format!("{name} on {} under {}", w.name, cfg.dcache);
                assert_eq!(acct.issue_cycles(), r.stats.issue_cycles, "{at}");
                for reason in StallReason::ALL {
                    assert_eq!(
                        acct.stalls(reason),
                        r.stats.stalls(reason),
                        "{at}: {reason}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_flush_is_an_attributed_misprediction() {
    // Flush accounting: on every loop, under every predictor in the zoo,
    // the speculative machine's flush count equals its misprediction
    // count, and every flush charges exactly `penalty + 1` cycles of
    // mispredict-repair stall (the squash cycle plus the redirect
    // penalty). An unattributed flush — or a repair window of the wrong
    // width — fails here.
    let cfg = MachineConfig::paper();
    for w in livermore::all() {
        for predictor in PredictorConfig::zoo() {
            let m = Mechanism::SpecRuu {
                entries: 15,
                bypass: Bypass::Full,
                predictor,
            };
            let sim = m.build(&cfg);
            let mut acct = FlushAccountant::default();
            let r = sim
                .run_observed(
                    ArchState::new(),
                    w.memory.clone(),
                    &w.program,
                    w.inst_limit,
                    &mut acct,
                )
                .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name));
            w.verify(&r.memory)
                .unwrap_or_else(|e| panic!("{m} wrong result on {}: {e}", w.name));
            acct.verify(r.stats.mispredicted_branches)
                .unwrap_or_else(|v| panic!("{m} on {}: {v}", w.name));
        }
    }
}

#[test]
fn observation_does_not_change_the_simulation() {
    let cfg = MachineConfig::paper();
    let w = livermore::by_name("LLL3").expect("LLL3 exists");
    for (name, sim) in all_simulators(&cfg, 12) {
        let plain = sim
            .run_from(ArchState::new(), w.memory.clone(), &w.program, w.inst_limit)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut acct = CycleAccountant::default();
        let observed = sim
            .run_observed(
                ArchState::new(),
                w.memory.clone(),
                &w.program,
                w.inst_limit,
                &mut acct,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(plain.cycles, observed.cycles, "{name} cycles");
        assert_eq!(plain.instructions, observed.instructions, "{name} insts");
        assert_eq!(plain.state, observed.state, "{name} state");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identity_holds_on_random_programs(
        seed in 0u64..10_000,
        entries in 2usize..20,
        loadregs in 1usize..7,
        mem_ops in proptest::bool::ANY,
    ) {
        let synth = SynthConfig {
            segments: 3,
            block_len: 8,
            max_trips: 6,
            mem_ops,
            hot_addresses: false,
        };
        let (program, mem) = random_program(seed, &synth);
        let cfg = MachineConfig::paper().with_load_registers(loadregs);
        for (name, sim) in all_simulators(&cfg, entries) {
            let mut acct = CycleAccountant::default();
            let r = sim
                .run_observed(ArchState::new(), mem.clone(), &program, LIMIT, &mut acct)
                .unwrap_or_else(|e| panic!("{name} failed on seed {seed}: {e}"));
            let v = acct.verify(r.cycles);
            prop_assert!(v.is_ok(), "{} on seed {}: {}", name, seed, v.unwrap_err());
        }
    }
}

// ---- Chrome trace golden checks ---------------------------------------

/// Minimal JSON scanner: accepts exactly the grammar of RFC 8259 values
/// (no escapes beyond the writer's repertoire required). Returns the rest
/// of the input after one complete value.
fn skip_json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    let Some((_, c)) = chars.next() else {
        return Err("unexpected end of input".to_string());
    };
    match c {
        '{' => skip_json_container(&s[1..], '}', true),
        '[' => skip_json_container(&s[1..], ']', false),
        '"' => skip_json_string(s),
        't' => s.strip_prefix("true").ok_or("bad literal".to_string()),
        'f' => s.strip_prefix("false").ok_or("bad literal".to_string()),
        'n' => s.strip_prefix("null").ok_or("bad literal".to_string()),
        '-' | '0'..='9' => {
            let end = s
                .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
                .unwrap_or(s.len());
            Ok(&s[end..])
        }
        other => Err(format!("unexpected character {other:?}")),
    }
}

fn skip_json_string(s: &str) -> Result<&str, String> {
    let mut it = s[1..].char_indices();
    while let Some((i, c)) = it.next() {
        match c {
            '\\' => {
                it.next();
            }
            '"' => return Ok(&s[1 + i + 1..]),
            _ => {}
        }
    }
    Err("unterminated string".to_string())
}

fn skip_json_container(mut s: &str, close: char, keyed: bool) -> Result<&str, String> {
    s = s.trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Ok(rest);
    }
    loop {
        if keyed {
            s = s.trim_start();
            if !s.starts_with('"') {
                return Err("object key must be a string".to_string());
            }
            s = skip_json_string(s)?.trim_start();
            s = s.strip_prefix(':').ok_or("missing ':'".to_string())?;
        }
        s = skip_json_value(s)?.trim_start();
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return s
                .strip_prefix(close)
                .ok_or(format!("missing {close:?} or ','"));
        }
    }
}

fn assert_valid_json(json: &str) {
    let rest = skip_json_value(json).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
    assert!(rest.trim().is_empty(), "trailing garbage after JSON value");
}

#[test]
fn chrome_trace_is_valid_and_monotonically_timestamped() {
    let cfg = MachineConfig::paper();
    let w = livermore::by_name("LLL5").expect("LLL5 exists");
    let sim = Mechanism::Ruu {
        entries: 15,
        bypass: Bypass::Full,
    }
    .build(&cfg);
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
        .expect("run completes");
    acct.verify(r.cycles).expect("accounting holds");

    let json = trace.to_json();
    assert_valid_json(&json);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"window occupancy\""));

    // Timestamps must be nondecreasing in emission order, and at least
    // one per event kind must be present.
    let mut last_ts = 0u64;
    let mut count = 0usize;
    for chunk in json.split("\"ts\":").skip(1) {
        let end = chunk
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(chunk.len());
        let ts: u64 = chunk[..end].parse().expect("ts is an integer");
        assert!(ts >= last_ts, "timestamps regress: {ts} after {last_ts}");
        last_ts = ts;
        count += 1;
    }
    assert!(count > 100, "trace has real volume, got {count} events");
    for kind in [
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"ph\":\"C\"",
        "\"ph\":\"M\"",
    ] {
        assert!(json.contains(kind), "missing event kind {kind}");
    }
}

#[test]
fn spec_trace_records_flushes() {
    // The speculative RUU on a mispredicting workload must emit flush
    // instants on its dedicated track.
    let cfg = MachineConfig::paper();
    let w = livermore::by_name("LLL5").expect("LLL5 exists");
    let sim = Mechanism::SpecRuu {
        entries: 15,
        bypass: Bypass::Full,
        predictor: PredictorConfig::default(),
    }
    .build(&cfg);
    let mut trace = ChromeTraceObserver::default();
    let r = sim
        .run_observed(
            ArchState::new(),
            w.memory.clone(),
            &w.program,
            w.inst_limit,
            &mut trace,
        )
        .expect("run completes");
    assert!(r.cycles > 0);
    let json = trace.to_json();
    assert_valid_json(&json);
    assert!(json.contains("\"flush\""), "speculative run shows no flush");
}

#[test]
fn memory_state_is_identical_under_observation() {
    // Drive one synthetic memory-heavy program through every simulator
    // both ways; the architectural memory image must not notice the
    // observer.
    let synth = SynthConfig {
        segments: 4,
        block_len: 10,
        max_trips: 5,
        mem_ops: true,
        hot_addresses: true,
    };
    let (program, mem) = random_program(7, &synth);
    let cfg = MachineConfig::paper();
    for (name, sim) in all_simulators(&cfg, 10) {
        let plain = sim
            .run_from(ArchState::new(), mem.clone(), &program, LIMIT)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut acct = CycleAccountant::default();
        let observed = sim
            .run_observed(ArchState::new(), mem.clone(), &program, LIMIT, &mut acct)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(plain.memory, observed.memory, "{name} memory");
        assert_eq!(
            acct.cycles_seen(),
            observed.cycles,
            "{name} cycle_end count"
        );
    }
}

/// Records `complete` and `commit` events for the in-order-commit check.
#[derive(Default)]
struct CommitLog {
    completed_at: HashMap<u64, u64>,
    commits: Vec<(u64, u64)>,
}

impl PipelineObserver for CommitLog {
    fn complete(&mut self, cycle: u64, seq: u64) {
        self.completed_at.insert(seq, cycle);
    }

    fn commit(&mut self, cycle: u64, seq: u64) {
        self.commits.push((cycle, seq));
    }
}

#[test]
fn in_order_commit_is_ordered_and_complete() {
    // Every in-order-commit mechanism: commits arrive in ascending
    // sequence order, each after its instruction completed, and every
    // instruction that survives (is not squashed) commits exactly once —
    // the commit count equals the architectural non-branch count.
    let cfg = MachineConfig::paper();
    let bypass = |bypass| Mechanism::Ruu {
        entries: 12,
        bypass,
    };
    let mut mechanisms = vec![
        bypass(Bypass::Full),
        bypass(Bypass::None),
        bypass(Bypass::LimitedA),
    ];
    for predictor in [PredictorConfig::default(), PredictorConfig::Btfn] {
        mechanisms.push(Mechanism::SpecRuu {
            entries: 12,
            bypass: Bypass::Full,
            predictor,
        });
    }
    for scheme in [
        PreciseScheme::ReorderBuffer,
        PreciseScheme::ReorderBufferBypass,
        PreciseScheme::HistoryBuffer,
        PreciseScheme::FutureFile,
    ] {
        mechanisms.push(Mechanism::InOrderPrecise {
            scheme,
            entries: 12,
        });
    }
    let mut programs: Vec<_> = livermore::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.program, w.memory, w.inst_limit))
        .collect();
    for seed in 0..4 {
        let (p, mem) = random_program(seed, &SynthConfig::default());
        programs.push((format!("synth seed {seed}"), p, mem, LIMIT));
    }
    for m in mechanisms {
        let sim = m.build(&cfg);
        for (name, program, mem, limit) in &programs {
            let mut log = CommitLog::default();
            let r = sim
                .run_observed(ArchState::new(), mem.clone(), program, *limit, &mut log)
                .unwrap_or_else(|e| panic!("{m} failed on {name}: {e}"));
            for pair in log.commits.windows(2) {
                assert!(
                    pair[0].1 < pair[1].1,
                    "{m} on {name}: commit of #{} after #{}",
                    pair[1].1,
                    pair[0].1
                );
            }
            for &(cycle, seq) in &log.commits {
                let done = log.completed_at.get(&seq).copied();
                assert!(
                    done.is_some_and(|d| d <= cycle),
                    "{m} on {name}: #{seq} committed at {cycle}, completed at {done:?}"
                );
            }
            assert_eq!(
                log.commits.len() as u64,
                r.instructions - r.stats.branches,
                "{m} on {name}: every surviving instruction commits exactly once"
            );
        }
    }
}
