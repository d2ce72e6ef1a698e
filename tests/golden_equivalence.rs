//! The master correctness property: every issue mechanism, at every
//! window size, produces exactly the architectural result of the golden
//! interpreter on every Livermore loop — and every loop's result matches
//! its independent Rust mirror.
//!
//! Timing may differ wildly between mechanisms; architecture must not.

use ruu::exec::{ExecError, Executor, Memory, Trace};
use ruu::isa::{Asm, Program, Reg};
use ruu::issue::{Bypass, Mechanism, PreciseScheme, PredictorConfig, SimError};
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;

fn mechanisms() -> Vec<Mechanism> {
    let mut v = vec![
        Mechanism::Simple,
        Mechanism::Tomasulo { rs_per_fu: 2 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 2,
            tags: 12,
        },
        Mechanism::RsPool { rs: 8, tags: 12 },
    ];
    for entries in [3, 10, 30] {
        v.push(Mechanism::Rstu { entries });
        for bypass in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            v.push(Mechanism::Ruu { entries, bypass });
        }
    }
    v
}

#[test]
fn every_mechanism_matches_golden_on_every_loop() {
    let cfg = MachineConfig::paper();
    for w in livermore::all() {
        let golden = w.golden_trace().expect("golden run succeeds");
        for m in mechanisms() {
            let r = m
                .build(&cfg)
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{m} failed on {}: {e}", w.name));
            assert_eq!(
                r.instructions,
                golden.len() as u64,
                "{m} on {}: instruction count",
                w.name
            );
            assert_eq!(
                &r.state.regs,
                &golden.final_state().regs,
                "{m} on {}: registers",
                w.name
            );
            assert_eq!(
                &r.memory,
                golden.final_memory(),
                "{m} on {}: memory",
                w.name
            );
            w.verify(&r.memory)
                .unwrap_or_else(|e| panic!("{m} on {}: mirror: {e}", w.name));
        }
    }
}

#[test]
fn speculative_ruu_matches_golden_on_every_loop() {
    let cfg = MachineConfig::paper();
    let spec = Mechanism::SpecRuu {
        entries: 15,
        bypass: Bypass::Full,
        predictor: PredictorConfig::default(),
    };
    for w in livermore::all() {
        let golden = w.golden_trace().expect("golden run succeeds");
        let r = spec
            .build(&cfg)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap_or_else(|e| panic!("spec RUU failed on {}: {e}", w.name));
        assert_eq!(r.instructions, golden.len() as u64, "{}", w.name);
        assert_eq!(&r.state.regs, &golden.final_state().regs, "{}", w.name);
        assert_eq!(&r.memory, golden.final_memory(), "{}", w.name);
        w.verify(&r.memory).unwrap();
        assert_eq!(
            r.stats.branches,
            golden.mix().branches,
            "{}: resolved branch count",
            w.name
        );
    }
}

#[test]
fn tiny_windows_still_converge() {
    // Degenerate sizes exercise every stall path but must stay correct.
    let cfg = MachineConfig::paper();
    let w = livermore::lll2();
    let golden = w.golden_trace().unwrap();
    for m in [
        Mechanism::Rstu { entries: 1 },
        Mechanism::Ruu {
            entries: 1,
            bypass: Bypass::Full,
        },
        Mechanism::Ruu {
            entries: 2,
            bypass: Bypass::None,
        },
        Mechanism::Tomasulo { rs_per_fu: 1 },
    ] {
        let r = m
            .build(&cfg)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap_or_else(|e| panic!("{m}: {e}"));
        assert_eq!(&r.state.regs, &golden.final_state().regs, "{m}");
        assert_eq!(&r.memory, golden.final_memory(), "{m}");
    }
}

#[test]
fn one_load_register_is_slow_but_correct() {
    let cfg = MachineConfig::paper().with_load_registers(1);
    let w = livermore::lll13(); // scatter/gather heavy
    let golden = w.golden_trace().unwrap();
    let r = Mechanism::Ruu {
        entries: 10,
        bypass: Bypass::Full,
    }
    .build(&cfg)
    .run(&w.program, w.memory.clone(), w.inst_limit)
    .unwrap();
    assert_eq!(&r.memory, golden.final_memory());
}

#[test]
fn narrow_instance_counters_are_slow_but_correct() {
    let cfg = MachineConfig::paper().with_counter_bits(1);
    let w = livermore::lll9();
    let golden = w.golden_trace().unwrap();
    let r = Mechanism::Ruu {
        entries: 20,
        bypass: Bypass::Full,
    }
    .build(&cfg)
    .run(&w.program, w.memory.clone(), w.inst_limit)
    .unwrap();
    assert_eq!(&r.state.regs, &golden.final_state().regs);
    assert_eq!(&r.memory, golden.final_memory());
}

#[test]
fn extra_buses_and_paths_preserve_results() {
    let cfg = MachineConfig::paper()
        .with_result_buses(2)
        .with_dispatch_paths(2);
    let w = livermore::lll8();
    let golden = w.golden_trace().unwrap();
    for m in [
        Mechanism::Simple,
        Mechanism::Rstu { entries: 12 },
        Mechanism::Ruu {
            entries: 12,
            bypass: Bypass::Full,
        },
    ] {
        let r = m
            .build(&cfg)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        assert_eq!(&r.memory, golden.final_memory(), "{m}");
    }
}

#[test]
fn memory_is_shared_ground_truth() {
    // Two mechanisms given the same memory image end with identical
    // images even though their store timings differ by hundreds of
    // cycles.
    let cfg = MachineConfig::paper();
    let w = livermore::lll10();
    let a = Mechanism::Simple
        .build(&cfg)
        .run(&w.program, w.memory.clone(), w.inst_limit)
        .unwrap();
    let b = Mechanism::Ruu {
        entries: 25,
        bypass: Bypass::None,
    }
    .build(&cfg)
    .run(&w.program, w.memory.clone(), w.inst_limit)
    .unwrap();
    assert_eq!(a.memory, b.memory);
    assert!(!Memory::new(8).is_empty()); // Memory sanity helper
}

/// Straight-line code, and a loop whose branch the speculative RUU
/// predicts: each with its dynamic instruction count (`Halt` excluded).
fn limit_programs() -> Vec<(Program, u64)> {
    let mut a = Asm::new("straight");
    for k in 1..=3 {
        a.a_imm(Reg::a(k), i64::from(k));
    }
    a.halt();
    let straight = a.assemble().expect("assembles");

    let mut a = Asm::new("loop");
    let top = a.new_label();
    a.a_imm(Reg::a(0), 3);
    a.a_imm(Reg::a(1), 0);
    a.bind(top);
    a.a_add(Reg::a(1), Reg::a(1), Reg::a(0));
    a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
    a.br_an(top);
    a.halt();
    let looped = a.assemble().expect("assembles");
    vec![(straight, 3), (looped, 2 + 3 * 3)]
}

#[test]
fn a_program_of_exactly_limit_instructions_runs_everywhere() {
    // The limit bounds the instructions executed: a program that
    // executes exactly `limit` and then halts completes on the golden
    // interpreter, in a golden trace and on every simulator, and one
    // that needs one more is stopped by both golden paths and by every
    // simulator.
    let cfg = MachineConfig::paper();
    let mut every = mechanisms();
    for scheme in [
        PreciseScheme::ReorderBuffer,
        PreciseScheme::ReorderBufferBypass,
        PreciseScheme::HistoryBuffer,
        PreciseScheme::FutureFile,
    ] {
        every.push(Mechanism::InOrderPrecise { scheme, entries: 4 });
    }
    for predictor in [
        PredictorConfig::AlwaysTaken,
        PredictorConfig::Btfn,
        PredictorConfig::default(),
    ] {
        every.push(Mechanism::SpecRuu {
            entries: 10,
            bypass: Bypass::Full,
            predictor,
        });
    }
    let mem = Memory::new(1 << 10);
    for (p, n) in limit_programs() {
        let name = p.name();
        let golden = Executor::new(mem.clone()).run(&p, n);
        assert_eq!(golden.map(|s| s.instructions), Ok(n), "{name}");
        let trace = Trace::capture(&p, mem.clone(), n);
        assert_eq!(trace.map(|t| t.len() as u64), Ok(n), "{name}");
        let over = Err(ExecError::InstLimit { limit: n - 1 });
        assert_eq!(Executor::new(mem.clone()).run(&p, n - 1).map(drop), over);
        assert_eq!(Trace::capture(&p, mem.clone(), n - 1).map(drop), over);
        for m in &every {
            let r = m.build(&cfg).run(&p, mem.clone(), n);
            assert_eq!(r.map(|r| r.instructions), Ok(n), "{m} on {name}");
            let r = m.build(&cfg).run(&p, mem.clone(), n - 1);
            assert_eq!(
                r.map(drop),
                Err(SimError::InstLimit { limit: n - 1 }),
                "{m} on {name}"
            );
        }
    }
}
