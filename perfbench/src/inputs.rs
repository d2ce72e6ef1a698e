//! Benchmark inputs: the 14 Livermore loops plus a seeded batch of
//! synthetic programs, each with the golden trace its runs are checked
//! against.

use std::sync::OnceLock;
use std::time::Instant;

use ruu_exec::{Memory, Trace};
use ruu_isa::Program;
use ruu_workloads::synth::{random_program, SynthConfig};
use ruu_workloads::{livermore, Workload};

use crate::ns_since;

/// Golden instructions the synthetic batch grows to: about half the
/// Livermore suite. Programs are added until the batch reaches it, so the
/// seed changes the programs but hardly the amount of work.
pub const SYNTH_TARGET_INSTRUCTIONS: u64 = 48_000;
/// Most synthetic programs one batch may hold.
pub const MAX_SYNTH_PROGRAMS: usize = 64;
/// Golden-interpreter limit for one synthetic program.
const SYNTH_GOLDEN_LIMIT: u64 = 1_000_000;

/// One program with its golden run.
#[derive(Debug, Clone)]
pub struct Input {
    /// The program, its initial memory and its checks.
    pub workload: Workload,
    /// The golden interpreter's trace, final state and final memory.
    pub golden: Trace,
}

impl Input {
    /// Dynamic instructions of the golden run.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.golden.len() as u64
    }
}

/// Every program of a workload, with what building them cost.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Livermore loops first, in suite order, then the synthetic batch.
    pub programs: Vec<Input>,
    /// Host ns spent assembling programs and their data
    /// (`livermore::all`, `synth::random_program`).
    pub build_ns: u64,
    /// Host ns spent in the golden interpreter (`Trace::capture`).
    pub golden_ns: u64,
}

impl Inputs {
    /// The Livermore suite, plus the synthetic batch of `seed` when
    /// `synthetic` is set.
    ///
    /// # Errors
    /// A golden run that fails, or a Livermore mirror that disagrees with
    /// its golden run.
    pub fn build(seed: u64, synthetic: bool) -> Result<Inputs, String> {
        let t = Instant::now();
        let suite = livermore::all();
        let mut build_ns = ns_since(t);
        let mut golden_ns = 0;
        let mut programs = Vec::with_capacity(suite.len() + 24);
        for workload in suite {
            let t = Instant::now();
            let golden = workload
                .golden_trace()
                .map_err(|e| format!("golden run of {}: {e}", workload.name))?;
            golden_ns += ns_since(t);
            workload.verify(golden.final_memory()).map_err(|e| {
                format!(
                    "{} mirror disagrees with its golden run: {e}",
                    workload.name
                )
            })?;
            programs.push(Input { workload, golden });
        }
        if synthetic {
            let mut total = 0;
            for i in 0..MAX_SYNTH_PROGRAMS {
                if total >= SYNTH_TARGET_INSTRUCTIONS {
                    break;
                }
                let t = Instant::now();
                let (program, memory) =
                    random_program(synth_seed(seed, i as u64), &synth_config(i));
                build_ns += ns_since(t);
                let t = Instant::now();
                let golden = Trace::capture(&program, memory.clone(), SYNTH_GOLDEN_LIMIT)
                    .map_err(|e| format!("golden run of {}: {e}", synth_name(i)))?;
                golden_ns += ns_since(t);
                total += golden.len() as u64;
                let workload = synth_workload(i, program, memory, &golden);
                programs.push(Input { workload, golden });
            }
            if total < SYNTH_TARGET_INSTRUCTIONS {
                return Err(format!(
                    "{MAX_SYNTH_PROGRAMS} synthetic programs hold only {total} instructions"
                ));
            }
        }
        Ok(Inputs {
            programs,
            build_ns,
            golden_ns,
        })
    }

    /// Dynamic instructions over every program.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.programs.iter().map(Input::instructions).sum()
    }
}

/// Generator settings of synthetic program `i`: loop-heavy programs of a
/// few thousand instructions; every fourth one concentrates its memory
/// traffic on a few words, so load-register forwarding is exercised.
fn synth_config(i: usize) -> SynthConfig {
    SynthConfig {
        segments: 16,
        block_len: 16,
        max_trips: 32,
        mem_ops: true,
        hot_addresses: i % 4 == 3,
    }
}

/// Generator seed of synthetic program `i` under benchmark seed `seed`.
fn synth_seed(seed: u64, i: u64) -> u64 {
    // SplitMix64 over (seed, i): neighbouring seeds give unrelated programs.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `Workload::name` is `&'static str`; the names are made once.
fn synth_name(i: usize) -> &'static str {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        (0..MAX_SYNTH_PROGRAMS)
            .map(|i| &*Box::leak(format!("synth-{i:02}").into_boxed_str()))
            .collect()
    })[i]
}

/// Wraps a synthetic program as a [`Workload`] whose checks are every
/// word of its golden final memory.
fn synth_workload(i: usize, program: Program, memory: Memory, golden: &Trace) -> Workload {
    let fin = golden.final_memory();
    Workload {
        name: synth_name(i),
        description: "seeded synth::random_program; checked against its golden run",
        program,
        memory,
        checks: (0..fin.len() as u64).map(|a| (a, fin.read(a))).collect(),
        inst_limit: 4 * golden.len() as u64 + 10_000,
        lint_waivers: Vec::new(),
    }
}
