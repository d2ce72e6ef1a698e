//! The out-of-order mechanisms, built by `Mechanism::build`: the RUU and
//! its bypass policies (paper §5–6), the tagged machines (§3), the
//! speculative RUU (§7), fault injection, and the sizes no instruction
//! could issue through.

use std::panic::catch_unwind;

use ruu_exec::{golden_state_at, ArchState, Memory, Trace};
use ruu_isa::{Asm, Program, Reg};
use ruu_issue::{Bypass, IssueSimulator, Mechanism, PredictorConfig, RunOutcome};
use ruu_sim_core::{FlushAccountant, MachineConfig, NullObserver, RunResult, StallReason};

fn cfg() -> MachineConfig {
    MachineConfig::paper()
}

fn ruu(entries: usize, bypass: Bypass) -> Box<dyn IssueSimulator> {
    Mechanism::Ruu { entries, bypass }.build(&cfg())
}

fn run_bp(asm: &dyn Fn() -> Asm, entries: usize, bypass: Bypass) -> RunResult {
    let p = asm().assemble().unwrap();
    ruu(entries, bypass)
        .run(&p, Memory::new(1 << 12), 1_000_000)
        .unwrap()
}

fn golden(asm: &dyn Fn() -> Asm) -> Trace {
    let p = asm().assemble().unwrap();
    Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap()
}

// ---- the RUU -----------------------------------------------------------

#[test]
fn straight_line_matches_golden() {
    let prog = || {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 6);
        a.a_imm(Reg::a(2), 7);
        a.a_mul(Reg::a(3), Reg::a(1), Reg::a(2));
        a.a_to_s(Reg::s(1), Reg::a(3));
        a.halt();
        a
    };
    let g = golden(&prog);
    for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
        let r = run_bp(&prog, 8, bp);
        assert_eq!(r.instructions, g.len() as u64, "{bp:?}");
        assert_eq!(&r.state, g.final_state(), "{bp:?}");
        assert_eq!(&r.memory, g.final_memory(), "{bp:?}");
    }
}

#[test]
fn out_of_order_execution_beats_simple_issue() {
    // A loop with a long-latency dependence chain plus independent
    // work: in steady state the RUU overlaps iterations while the
    // simple machine blocks in decode on every dependence.
    let prog = || {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 30);
        a.a_imm(Reg::a(1), 100);
        // Any nonzero bit pattern works: the chain's latency, not the
        // value, is what the test measures (and it must fit the 22-bit
        // SImm field, which `assemble` checks).
        a.s_imm(Reg::s(1), 1 << 20);
        a.bind(top);
        a.ld_s(Reg::s(2), Reg::a(1), 0);
        a.f_mul(Reg::s(3), Reg::s(2), Reg::s(1));
        a.f_add(Reg::s(4), Reg::s(3), Reg::s(1));
        a.st_s(Reg::s(4), Reg::a(1), 64);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        a
    };
    let p = prog().assemble().unwrap();
    let simple = Mechanism::Simple
        .build(&cfg())
        .run(&p, Memory::new(1 << 12), 1_000_000)
        .unwrap();
    let ruu = run_bp(&prog, 16, Bypass::Full);
    assert!(
        ruu.cycles < simple.cycles,
        "RUU {} vs simple {}",
        ruu.cycles,
        simple.cycles
    );
    assert_eq!(ruu.state, simple.state);
}

#[test]
fn no_bypass_pays_for_early_completing_producers() {
    // Producer completes long before the consumer issues, but commits
    // late (stuck behind a long recip at the head). The consumer is a
    // branch, so the wait blocks the decode stage itself: with full
    // bypass the condition is read from the RUU; without bypass the
    // branch waits for the RUU→register-file bus (paper §6.3).
    let prog = || {
        let mut a = Asm::new("t");
        let skip = a.new_label();
        a.f_recip(Reg::s(1), Reg::s(0)); // head, 14 cycles
        a.a_imm(Reg::a(0), 0); // completes fast, commits late
        a.nop();
        a.nop();
        a.br_az(skip); // reads A0
        a.nop(); // skipped
        a.bind(skip);
        a.halt();
        a
    };
    let full = run_bp(&prog, 16, Bypass::Full);
    let none = run_bp(&prog, 16, Bypass::None);
    let limited = run_bp(&prog, 16, Bypass::LimitedA);
    assert!(
        none.cycles > full.cycles,
        "none {} should exceed full {}",
        none.cycles,
        full.cycles
    );
    // The branch reads an A register: the future file recovers the
    // full-bypass timing.
    assert_eq!(limited.cycles, full.cycles);
    assert_eq!(full.state, none.state);
    assert_eq!(full.state, limited.state);
}

#[test]
fn limited_bypass_does_not_cover_s_registers() {
    let prog = || {
        let mut a = Asm::new("t");
        let skip = a.new_label();
        a.f_recip(Reg::s(1), Reg::s(1)); // head blocker
        a.s_imm(Reg::s(0), 0); // fast producer, S file
        a.nop();
        a.nop();
        a.br_sz(skip); // consumer of S0: no future file for S
        a.nop(); // skipped
        a.bind(skip);
        a.halt();
        a
    };
    let full = run_bp(&prog, 16, Bypass::Full);
    let limited = run_bp(&prog, 16, Bypass::LimitedA);
    assert!(limited.cycles > full.cycles);
}

#[test]
fn store_load_forwarding_avoids_memory_latency() {
    let prog = || {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 100);
        a.s_imm(Reg::s(1), 77);
        a.st_s(Reg::s(1), Reg::a(1), 0);
        a.ld_s(Reg::s(2), Reg::a(1), 0); // same address: forwarded
        a.s_add(Reg::s(3), Reg::s(2), Reg::s(2));
        a.halt();
        a
    };
    let r = run_bp(&prog, 16, Bypass::Full);
    assert_eq!(r.stats.forwarded_loads, 1);
    assert_eq!(r.state.reg(Reg::s(3)), 154);
    assert_eq!(r.memory.read(100), 77);
}

#[test]
fn loads_to_different_addresses_use_memory() {
    let prog = || {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 100);
        a.ld_s(Reg::s(1), Reg::a(1), 0);
        a.ld_s(Reg::s(2), Reg::a(1), 1);
        a.halt();
        a
    };
    let r = run_bp(&prog, 16, Bypass::Full);
    assert_eq!(r.stats.forwarded_loads, 0);
}

#[test]
fn window_full_blocks_issue() {
    let prog = || {
        let mut a = Asm::new("t");
        for i in 1..7 {
            a.f_recip(Reg::s(i), Reg::s(0));
        }
        a.halt();
        a
    };
    let r = run_bp(&prog, 3, Bypass::Full);
    assert!(r.stats.stalls(StallReason::WindowFull) > 0);
}

#[test]
fn instance_limit_blocks_issue() {
    // 8 writes to the same register with 3-bit counters (max 7
    // in-flight instances): the 8th must stall while the window is
    // large enough to hold them all.
    let prog = || {
        let mut a = Asm::new("t");
        for _ in 0..8 {
            a.f_recip(Reg::s(1), Reg::s(0));
        }
        a.halt();
        a
    };
    let r = run_bp(&prog, 30, Bypass::Full);
    assert!(r.stats.stalls(StallReason::RegInstanceLimit) > 0);
}

#[test]
fn loop_with_memory_matches_golden_all_modes() {
    let prog = || {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 10);
        a.a_imm(Reg::a(1), 200);
        a.s_imm(Reg::s(1), 1);
        a.bind(top);
        a.ld_s(Reg::s(2), Reg::a(1), 0);
        a.s_add(Reg::s(2), Reg::s(2), Reg::s(1));
        a.st_s(Reg::s(2), Reg::a(1), 0);
        a.st_s(Reg::s(2), Reg::a(1), 1);
        a.ld_s(Reg::s(3), Reg::a(1), 1);
        a.s_add(Reg::s(4), Reg::s(3), Reg::s(2));
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        a
    };
    let g = golden(&prog);
    for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
        for entries in [3, 4, 8, 30] {
            let r = run_bp(&prog, entries, bp);
            assert_eq!(r.instructions, g.len() as u64, "{bp:?}/{entries}");
            assert_eq!(&r.state, g.final_state(), "{bp:?}/{entries}");
            assert_eq!(&r.memory, g.final_memory(), "{bp:?}/{entries}");
        }
    }
}

#[test]
fn bigger_window_is_not_slower() {
    let prog = || {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 20);
        a.a_imm(Reg::a(1), 300);
        a.bind(top);
        a.ld_s(Reg::s(1), Reg::a(1), 0);
        a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
        a.f_mul(Reg::s(3), Reg::s(1), Reg::s(1));
        a.st_s(Reg::s(3), Reg::a(1), 64);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        a
    };
    let small = run_bp(&prog, 4, Bypass::Full);
    let big = run_bp(&prog, 30, Bypass::Full);
    assert!(big.cycles <= small.cycles);
}

#[test]
fn precise_interrupt_state_matches_golden_boundary() {
    let mut a = Asm::new("t");
    a.a_imm(Reg::a(1), 100);
    a.s_imm(Reg::s(1), 5);
    a.st_s(Reg::s(1), Reg::a(1), 0);
    a.f_recip(Reg::s(2), Reg::s(1));
    a.s_imm(Reg::s(3), 9); // completes before recip, commits after
    a.st_s(Reg::s(3), Reg::a(1), 1);
    a.halt();
    let p = a.assemble().unwrap();
    // Fault on seq 4 (the s_imm S3).
    let mem = Memory::new(1 << 12);
    let outcome = ruu(16, Bypass::Full)
        .run_with_fault(ArchState::new(), mem, &p, 1_000_000, 4, &mut NullObserver)
        .unwrap();
    let RunOutcome::Interrupted(frame) = outcome else {
        panic!("expected an interrupt");
    };
    let (gs, gm) = golden_state_at(&p, Memory::new(1 << 12), 4).unwrap();
    assert_eq!(frame.state.regs, gs.regs);
    assert_eq!(frame.state.pc, gs.pc);
    assert_eq!(frame.memory, gm);
    assert_eq!(frame.committed, 4);
    // S3 must NOT be written, the later store must not have happened.
    assert_eq!(frame.state.reg(Reg::s(3)), 0);
    assert_eq!(frame.memory.read(101), 0);
    // But everything older must be architectural despite the pending recip.
    assert_eq!(frame.memory.read(100), 5);
}

#[test]
fn resume_after_interrupt_reaches_golden_final_state() {
    let prog = || {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 6);
        a.a_imm(Reg::a(1), 400);
        a.bind(top);
        a.ld_s(Reg::s(1), Reg::a(1), 0);
        a.s_add(Reg::s(2), Reg::s(2), Reg::s(1));
        a.st_s(Reg::s(2), Reg::a(1), 8);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        a
    };
    let p = prog().assemble().unwrap();
    let g = golden(&prog);
    let sim = ruu(10, Bypass::Full);
    let mem = Memory::new(1 << 12);
    let outcome = sim
        .run_with_fault(ArchState::new(), mem, &p, 1_000_000, 12, &mut NullObserver)
        .unwrap();
    let RunOutcome::Interrupted(frame) = outcome else {
        panic!("expected an interrupt");
    };
    // "Handle" the fault (nothing to do for this test) and resume.
    let resumed = sim
        .run_from(frame.state, frame.memory, &p, 1_000_000)
        .unwrap();
    assert_eq!(&resumed.state, g.final_state());
    assert_eq!(&resumed.memory, g.final_memory());
}

#[test]
fn branch_condition_waits_without_deadlock_in_no_bypass() {
    // The branch condition chain goes through a B-register transfer —
    // the exact §6.3 pathology. Must terminate and match golden.
    let prog = || {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(2), 3);
        a.bind(top);
        a.a_to_b(Reg::b(1), Reg::a(2));
        a.a_sub_imm(Reg::a(2), Reg::a(2), 1);
        a.b_to_a(Reg::a(0), Reg::b(1));
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        a
    };
    let g = golden(&prog);
    for bp in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
        let r = run_bp(&prog, 8, bp);
        assert_eq!(&r.state, g.final_state(), "{bp:?}");
    }
}

#[test]
fn interrupt_never_taken_completes() {
    let mut a = Asm::new("t");
    a.a_imm(Reg::a(1), 1);
    a.halt();
    let p = a.assemble().unwrap();
    let mem = Memory::new(1 << 12);
    let outcome = ruu(8, Bypass::Full)
        .run_with_fault(ArchState::new(), mem, &p, 1_000_000, 999, &mut NullObserver)
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Completed(_)));
}

// ---- the tagged machines -------------------------------------------------

fn all_kinds() -> Vec<Mechanism> {
    vec![
        Mechanism::Tomasulo { rs_per_fu: 3 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 3,
            tags: 12,
        },
        Mechanism::RsPool { rs: 8, tags: 12 },
        Mechanism::Rstu { entries: 10 },
    ]
}

fn tagged_loop() -> Program {
    let mut a = Asm::new("t");
    let top = a.new_label();
    a.a_imm(Reg::a(0), 12);
    a.a_imm(Reg::a(1), 200);
    a.s_imm(Reg::s(1), 3);
    a.bind(top);
    a.ld_s(Reg::s(2), Reg::a(1), 0);
    a.f_add(Reg::s(3), Reg::s(2), Reg::s(1));
    a.st_s(Reg::s(3), Reg::a(1), 0);
    a.st_s(Reg::s(3), Reg::a(1), 32);
    a.ld_s(Reg::s(4), Reg::a(1), 32);
    a.s_add(Reg::s(5), Reg::s(4), Reg::s(4));
    a.a_add_imm(Reg::a(1), Reg::a(1), 1);
    a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
    a.br_an(top);
    a.halt();
    a.assemble().unwrap()
}

fn run_on(m: Mechanism, machine: &MachineConfig, p: &Program) -> RunResult {
    m.build(machine)
        .run(p, Memory::new(1 << 12), 1_000_000)
        .unwrap()
}

#[test]
fn all_kinds_match_golden() {
    let p = tagged_loop();
    let g = Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap();
    for m in all_kinds() {
        let r = run_on(m, &cfg(), &p);
        assert_eq!(r.instructions, g.len() as u64, "{m}");
        assert_eq!(&r.state, g.final_state(), "{m}");
        assert_eq!(&r.memory, g.final_memory(), "{m}");
    }
}

#[test]
fn rstu_beats_simple_issue_on_ilp() {
    let p = tagged_loop();
    let simple = run_on(Mechanism::Simple, &cfg(), &p);
    let rstu = run_on(Mechanism::Rstu { entries: 20 }, &cfg(), &p);
    assert!(rstu.cycles < simple.cycles);
}

#[test]
fn waw_same_register_resolves_to_latest() {
    // Long-latency write followed by a fast write to the same
    // register: the fast one is younger and must win the final state.
    let mut a = Asm::new("t");
    a.f_recip(Reg::s(1), Reg::s(0)); // slow producer of S1 (inf)
    a.s_imm(Reg::s(1), 42); // fast, younger
    a.halt();
    let p = a.assemble().unwrap();
    for m in all_kinds() {
        let r = run_on(m, &cfg(), &p);
        assert_eq!(r.state.reg(Reg::s(1)), 42, "{m}");
    }
}

#[test]
fn stores_to_one_address_write_in_order() {
    // An older store whose data arrives late must not clobber a
    // younger store's value.
    let mut a = Asm::new("t");
    a.a_imm(Reg::a(1), 64);
    a.f_recip(Reg::s(1), Reg::s(0)); // S1 ready late
    a.st_s(Reg::s(1), Reg::a(1), 0); // older store, late data
    a.s_imm(Reg::s(2), 9);
    a.st_s(Reg::s(2), Reg::a(1), 0); // younger store, early data
    a.halt();
    let p = a.assemble().unwrap();
    let g = Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap();
    for m in all_kinds() {
        let r = run_on(m, &cfg(), &p);
        assert_eq!(r.memory.read(64), g.final_memory().read(64), "{m}");
    }
}

#[test]
fn rstu_small_window_stalls() {
    let r = run_on(Mechanism::Rstu { entries: 3 }, &cfg(), &tagged_loop());
    assert!(r.stats.stalls(StallReason::WindowFull) > 0);
}

#[test]
fn two_dispatch_paths_help_a_little() {
    let p = tagged_loop();
    let rstu = Mechanism::Rstu { entries: 10 };
    let one = run_on(rstu, &cfg(), &p);
    let two = run_on(rstu, &cfg().with_dispatch_paths(2), &p);
    assert!(two.cycles <= one.cycles);
}

#[test]
fn interrupt_state_differs_from_every_program_order_boundary() {
    // A long-latency op followed by a fast store: when the fast store
    // completes, the long op has not — no program-order boundary
    // matches the machine state (S2 written, the older S1 not).
    let mut a = Asm::new("t");
    a.a_imm(Reg::a(1), 80);
    a.f_recip(Reg::s(1), Reg::s(0)); // seq 1: slow
    a.s_imm(Reg::s(2), 5); // seq 2
    a.st_s(Reg::s(2), Reg::a(1), 0); // seq 3: fast store
    a.halt();
    let p = a.assemble().unwrap();
    let mem = Memory::new(1 << 12);
    let outcome = Mechanism::Rstu { entries: 8 }
        .build(&cfg())
        .run_with_fault(ArchState::new(), mem, &p, 1_000_000, 3, &mut NullObserver)
        .unwrap();
    let RunOutcome::Interrupted(frame) = outcome else {
        panic!("the store completes");
    };
    // The faulting store has not written memory, but the younger-
    // than-recip S2 is architectural while the older S1 is not.
    assert_eq!(frame.memory.read(80), 0);
    assert_eq!(frame.state.reg(Reg::s(2)), 5);
    for k in 0..=4 {
        let (gs, gm) = golden_state_at(&p, Memory::new(1 << 12), k).unwrap();
        assert!(
            frame.state.regs != gs.regs || frame.memory != gm,
            "matches boundary {k}"
        );
    }
}

#[test]
fn distributed_blocks_on_per_fu_stations() {
    // Three dependent float-adds fill a 1-deep FloatAdd RS while an
    // independent AddrAdd can still issue.
    let mut a = Asm::new("t");
    a.f_recip(Reg::s(1), Reg::s(0));
    a.f_add(Reg::s(2), Reg::s(1), Reg::s(1));
    a.f_add(Reg::s(3), Reg::s(2), Reg::s(2));
    a.a_imm(Reg::a(1), 7);
    a.halt();
    let p = a.assemble().unwrap();
    let r = run_on(Mechanism::Tomasulo { rs_per_fu: 1 }, &cfg(), &p);
    assert!(r.stats.stalls(StallReason::WindowFull) > 0);
    assert_eq!(r.state.reg(Reg::a(1)), 7);
}

#[test]
fn windows_without_a_station_or_tag_are_rejected() {
    // Nothing could ever issue into these: they must not build, rather
    // than run into the deadlock guard.
    for m in [
        Mechanism::Rstu { entries: 0 },
        Mechanism::RsPool { rs: 0, tags: 8 },
        Mechanism::RsPool { rs: 8, tags: 0 },
        Mechanism::Tomasulo { rs_per_fu: 0 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 2,
            tags: 0,
        },
        Mechanism::Ruu {
            entries: 0,
            bypass: Bypass::Full,
        },
        Mechanism::InOrderPrecise {
            scheme: ruu_issue::PreciseScheme::HistoryBuffer,
            entries: 0,
        },
        // Nor may a predictor table that fails validation.
        Mechanism::SpecRuu {
            entries: 8,
            bypass: Bypass::Full,
            predictor: PredictorConfig::TwoBit { entries: 63 },
        },
    ] {
        assert!(catch_unwind(|| m.build(&cfg())).is_err(), "{m} built");
    }
}

// ---- the speculative RUU -------------------------------------------------

fn spec_ruu(entries: usize, bypass: Bypass) -> Box<dyn IssueSimulator> {
    Mechanism::SpecRuu {
        entries,
        bypass,
        predictor: PredictorConfig::default(),
    }
    .build(&cfg())
}

/// Runs `sim` observed by a [`FlushAccountant`], which counts the
/// entries each misprediction nullifies.
fn run_counting_flushes(
    sim: &dyn IssueSimulator,
    p: &Program,
    mem: Memory,
) -> (RunResult, FlushAccountant) {
    let mut flushes = FlushAccountant::default();
    let r = sim
        .run_observed(ArchState::new(), mem, p, 1_000_000, &mut flushes)
        .unwrap();
    (r, flushes)
}

#[test]
fn matches_golden_with_every_predictor() {
    let mut a = Asm::new("t");
    let top = a.new_label();
    a.a_imm(Reg::a(0), 25);
    a.a_imm(Reg::a(1), 100);
    a.bind(top);
    a.ld_s(Reg::s(1), Reg::a(1), 0);
    a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
    a.st_s(Reg::s(2), Reg::a(1), 64);
    a.a_add_imm(Reg::a(1), Reg::a(1), 1);
    a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
    a.br_an(top);
    a.halt();
    let p = a.assemble().unwrap();
    let g = Trace::capture(&p, Memory::new(1 << 12), 1_000_000).unwrap();
    for predictor in [
        PredictorConfig::AlwaysTaken,
        PredictorConfig::Btfn,
        PredictorConfig::default(),
    ] {
        let r = Mechanism::SpecRuu {
            entries: 16,
            bypass: Bypass::Full,
            predictor,
        }
        .build(&cfg())
        .run(&p, Memory::new(1 << 12), 1_000_000)
        .unwrap();
        assert_eq!(&r.state, g.final_state(), "{predictor}");
        assert_eq!(&r.memory, g.final_memory(), "{predictor}");
        assert_eq!(r.instructions, g.len() as u64, "{predictor}");
    }
}

#[test]
fn speculation_beats_the_blocking_ruu_when_conditions_are_slow() {
    // The branch condition comes from a load, so the non-speculative
    // machine parks in decode every iteration while the predictor
    // sails through.
    let mut a = Asm::new("t");
    let top = a.new_label();
    let done = a.new_label();
    a.a_imm(Reg::a(1), 0); // index
    a.bind(top);
    a.ld_a(Reg::a(0), Reg::a(1), 600); // condition from memory (slow)
    a.ld_s(Reg::s(2), Reg::a(1), 200);
    a.f_mul(Reg::s(2), Reg::s(2), Reg::s(2));
    a.st_s(Reg::s(2), Reg::a(1), 400);
    a.a_add_imm(Reg::a(1), Reg::a(1), 1);
    a.br_az(done); // waits on the load in the blocking machine
    a.jump(top);
    a.bind(done);
    a.halt();
    let p = a.assemble().unwrap();
    let mut mem = Memory::new(1 << 12);
    for i in 0..40 {
        mem.write(600 + i, 1); // loop continues while nonzero
    }
    mem.write(640, 0);

    let base = ruu(16, Bypass::Full)
        .run(&p, mem.clone(), 1_000_000)
        .unwrap();
    let (spec, flushes) = run_counting_flushes(&*spec_ruu(16, Bypass::Full), &p, mem);
    assert_eq!(spec.state.regs, base.state.regs);
    assert_eq!(spec.memory, base.memory);
    assert!(
        spec.cycles < base.cycles,
        "spec {} vs blocking {}",
        spec.cycles,
        base.cycles
    );
    assert!(spec.stats.predicted_branches > 0);
    // The exit iteration (br_az finally taken) is the misprediction.
    assert!(spec.stats.mispredicted_branches >= 1);
    assert!(flushes.squashed() > 0);
}

#[test]
fn mispredictions_are_architecturally_invisible() {
    // An alternating, slowly-resolving branch direction defeats the
    // predictor regularly; the final state must still be golden.
    let mut a = Asm::new("t2");
    let top = a.new_label();
    let skip = a.new_label();
    a.a_imm(Reg::a(7), 20); // loop count in A7
    a.a_imm(Reg::a(1), 0);
    a.bind(top);
    a.ld_a(Reg::a(0), Reg::a(1), 500); // alternating 0/1, slow
    a.br_az(skip);
    a.s_imm(Reg::s(1), 7);
    a.st_s(Reg::s(1), Reg::a(1), 300);
    a.bind(skip);
    a.a_add_imm(Reg::a(1), Reg::a(1), 1);
    a.a_sub_imm(Reg::a(7), Reg::a(7), 1);
    a.a_add_imm(Reg::a(0), Reg::a(7), 0);
    a.br_an(top);
    a.halt();
    let p = a.assemble().unwrap();
    let mut mem = Memory::new(1 << 12);
    for i in 0..20 {
        mem.write(500 + i, i % 2);
    }
    let g = Trace::capture(&p, mem.clone(), 1_000_000).unwrap();
    for bypass in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
        let r = spec_ruu(12, bypass)
            .run(&p, mem.clone(), 1_000_000)
            .unwrap();
        assert_eq!(&r.state, g.final_state(), "{bypass:?}");
        assert_eq!(&r.memory, g.final_memory(), "{bypass:?}");
        assert!(
            r.stats.mispredicted_branches > 0,
            "{bypass:?} must mispredict"
        );
    }
}

#[test]
fn livermore_kernel_runs_speculatively_and_verifies() {
    let w = ruu_workloads::livermore::lll5();
    let r = spec_ruu(16, Bypass::Full)
        .run(&w.program, w.memory.clone(), w.inst_limit)
        .unwrap();
    w.verify(&r.memory).unwrap();
}
