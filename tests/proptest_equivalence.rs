//! Property-based golden equivalence: thousands of random (but always
//! terminating) programs through every mechanism must reproduce the
//! golden interpreter exactly, and speculation must stay architecturally
//! invisible.

use proptest::prelude::*;

use ruu::exec::Trace;
use ruu::issue::{Bypass, Mechanism, PredictorConfig};
use ruu::sim::MachineConfig;
use ruu::workloads::synth::{random_program, SynthConfig};

const LIMIT: u64 = 500_000;

fn synth_cfg(segments: usize, block_len: usize, mem_ops: bool) -> SynthConfig {
    SynthConfig {
        segments,
        block_len,
        max_trips: 6,
        mem_ops,
        hot_addresses: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_match_golden_everywhere(
        seed in 0u64..10_000,
        entries in 2usize..24,
        segments in 2usize..8,
        block_len in 4usize..20,
        mem_ops in proptest::bool::ANY,
    ) {
        let (program, mem) = random_program(seed, &synth_cfg(segments, block_len, mem_ops));
        let golden = Trace::capture(&program, mem.clone(), LIMIT).expect("golden runs");
        let cfg = MachineConfig::paper();
        for m in [
            Mechanism::Simple,
            Mechanism::Rstu { entries },
            Mechanism::Tomasulo { rs_per_fu: entries / 4 + 1 },
            Mechanism::Ruu { entries, bypass: Bypass::Full },
            Mechanism::Ruu { entries, bypass: Bypass::None },
            Mechanism::Ruu { entries, bypass: Bypass::LimitedA },
        ] {
            let r = m.build(&cfg).run(&program, mem.clone(), LIMIT)
                .unwrap_or_else(|e| panic!("{m} failed on seed {seed}: {e}"));
            prop_assert_eq!(r.instructions, golden.len() as u64, "{} count", m);
            prop_assert_eq!(&r.state.regs, &golden.final_state().regs, "{} regs", m);
            prop_assert_eq!(&r.memory, golden.final_memory(), "{} memory", m);
        }
    }

    /// Same-address memory traffic is where the load registers earn
    /// their keep: hammer a four-word window with every mechanism.
    #[test]
    fn hot_address_programs_match_golden_everywhere(
        seed in 0u64..10_000,
        entries in 2usize..20,
        loadregs in 1usize..7,
    ) {
        let cfg_s = SynthConfig { hot_addresses: true, ..SynthConfig::default() };
        let (program, mem) = random_program(seed, &cfg_s);
        let golden = Trace::capture(&program, mem.clone(), LIMIT).expect("golden runs");
        let cfg = MachineConfig::paper().with_load_registers(loadregs);
        for m in [
            Mechanism::Rstu { entries },
            Mechanism::Ruu { entries, bypass: Bypass::Full },
            Mechanism::Ruu { entries, bypass: Bypass::None },
        ] {
            let r = m.build(&cfg).run(&program, mem.clone(), LIMIT)
                .unwrap_or_else(|e| panic!("{m} failed on hot seed {seed}: {e}"));
            prop_assert_eq!(&r.state.regs, &golden.final_state().regs, "{} regs", m);
            prop_assert_eq!(&r.memory, golden.final_memory(), "{} memory", m);
        }
    }

    #[test]
    fn speculation_is_architecturally_invisible(
        seed in 0u64..10_000,
        entries in 2usize..24,
        counter_bits in 1u32..5,
    ) {
        let (program, mem) = random_program(seed, &synth_cfg(6, 10, true));
        let golden = Trace::capture(&program, mem.clone(), LIMIT).expect("golden runs");
        let cfg = MachineConfig::paper().with_counter_bits(counter_bits);
        for bypass in [Bypass::Full, Bypass::None, Bypass::LimitedA] {
            let spec = Mechanism::SpecRuu {
                entries,
                bypass,
                predictor: PredictorConfig::default(),
            };
            let r = spec
                .build(&cfg)
                .run(&program, mem.clone(), LIMIT)
                .unwrap_or_else(|e| {
                    panic!("spec {bypass:?} failed on seed {seed}, {counter_bits}-bit LI: {e}")
                });
            prop_assert_eq!(&r.state.regs, &golden.final_state().regs);
            prop_assert_eq!(&r.memory, golden.final_memory());
            prop_assert_eq!(r.instructions, golden.len() as u64);
        }
    }

    #[test]
    fn machine_variations_preserve_architecture(
        seed in 0u64..10_000,
        buses in 1u32..3,
        paths in 1u32..3,
        loadregs in 1usize..8,
        counter_bits in 1u32..5,
    ) {
        let (program, mem) = random_program(seed, &synth_cfg(5, 10, true));
        let golden = Trace::capture(&program, mem.clone(), LIMIT).expect("golden runs");
        let cfg = MachineConfig::paper()
            .with_result_buses(buses)
            .with_dispatch_paths(paths)
            .with_load_registers(loadregs)
            .with_counter_bits(counter_bits);
        let r = Mechanism::Ruu { entries: 12, bypass: Bypass::Full }
            .build(&cfg).run(&program, mem.clone(), LIMIT)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        prop_assert_eq!(&r.state.regs, &golden.final_state().regs);
        prop_assert_eq!(&r.memory, golden.final_memory());
    }
}
