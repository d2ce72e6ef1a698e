//! A golden trace keeps one 4-byte record per dynamic instruction and
//! rebuilds its events from the program. These tests pin the rebuilt
//! events, the instruction mix and the length to a step-by-step replay on
//! the interpreter.

use proptest::prelude::*;

use ruu::exec::{Executor, InstMix, Memory, StepOutcome, Trace, TraceEvent};
use ruu::isa::{Asm, Program, Reg};
use ruu::workloads::livermore;
use ruu::workloads::synth::{random_program, SynthConfig};

/// Captures `program` and checks the trace against what
/// [`Executor::step`] yields one instruction at a time.
fn assert_replays(program: &Program, mem: Memory, limit: u64) -> Trace {
    let name = program.name();
    let trace = Trace::capture(program, mem.clone(), limit).expect("golden runs");
    let mut ex = Executor::new(mem);
    let mut stepped: Vec<TraceEvent> = Vec::new();
    let mut mix = InstMix::default();
    while let StepOutcome::Executed(ev) = ex.step(program).expect("runs to its halt") {
        mix.record(&ev);
        stepped.push(ev);
    }
    assert_eq!(trace.len(), trace.events().len(), "{name}");
    assert_eq!(trace.events().collect::<Vec<_>>(), stepped, "{name}");
    assert_eq!(trace.mix(), &mix, "{name}");
    assert_eq!(trace.final_state(), ex.state(), "{name}");
    assert_eq!(trace.final_memory(), ex.memory(), "{name}");
    trace
}

#[test]
fn every_livermore_trace_replays_step_by_step() {
    for w in livermore::all() {
        assert_replays(&w.program, w.memory.clone(), w.inst_limit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_program_traces_replay_step_by_step(
        seed in 0u64..100_000,
        segments in 2usize..12,
        block_len in 4usize..20,
        mem_ops in proptest::bool::ANY,
        hot_addresses in proptest::bool::ANY,
    ) {
        let cfg = SynthConfig {
            segments,
            block_len,
            max_trips: 8,
            mem_ops,
            hot_addresses,
        };
        let (program, mem) = random_program(seed, &cfg);
        assert_replays(&program, mem, 1_000_000);
    }
}

#[test]
fn a_branch_to_the_next_pc_keeps_its_outcome() {
    // Taken or not, the branch leads to pc 2: only the record's outcome
    // bit tells the two runs apart.
    for (cond, taken) in [(0, true), (1, false)] {
        let mut a = Asm::new("next");
        let next = a.new_label();
        a.a_imm(Reg::a(0), cond);
        a.br_az(next);
        a.bind(next);
        a.halt();
        let p = a.assemble().expect("assembles");
        let t = assert_replays(&p, Memory::new(8), 10);
        let branch = t.events().nth(1).expect("two instructions ran");
        assert_eq!((branch.pc, branch.taken), (1, Some(taken)));
        assert_eq!(branch.inst.target, Some(2));
        assert_eq!(t.events().next().map(|e| e.taken), Some(None));
        assert_eq!(t.mix().taken_branches, u64::from(taken));
    }
}
