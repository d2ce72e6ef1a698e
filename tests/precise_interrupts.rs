//! End-to-end precise-interrupt properties (the paper's central claim),
//! as one matrix over the mechanisms: at *any* faultable dynamic
//! instruction of *any* program, every precise machine (the RUU under each
//! bypass policy, the speculative RUU, the four §4 schemes) recovers a
//! state equal to the golden program-order boundary and resumes to the
//! exact golden final state, while every other machine is demonstrably
//! caught in a state that matches no boundary.

use proptest::prelude::*;

use ruu::exec::Trace;
use ruu::issue::{Bypass, Mechanism, PreciseScheme, PredictorConfig};
use ruu::precise::{fault_points, imprecision, FaultKind, PrecisionCheck};
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;
use ruu::workloads::synth::{random_program, SynthConfig};

/// The precise half of the matrix, each with `entries` window or buffer
/// entries.
fn precise_machines(entries: usize) -> Vec<Mechanism> {
    let ruu = |bypass| Mechanism::Ruu { entries, bypass };
    let spec_ruu = |predictor| Mechanism::SpecRuu {
        entries,
        bypass: Bypass::Full,
        predictor,
    };
    let section4 = |scheme| Mechanism::InOrderPrecise { scheme, entries };
    vec![
        ruu(Bypass::Full),
        ruu(Bypass::None),
        ruu(Bypass::LimitedA),
        spec_ruu(PredictorConfig::default()),
        spec_ruu(PredictorConfig::Gshare { entries: 1024 }),
        section4(PreciseScheme::ReorderBuffer),
        section4(PreciseScheme::ReorderBufferBypass),
        section4(PreciseScheme::HistoryBuffer),
        section4(PreciseScheme::FutureFile),
    ]
}

/// The imprecise half: the baseline and the four tagged machines.
fn imprecise_machines() -> [Mechanism; 5] {
    [
        Mechanism::Simple,
        Mechanism::Tomasulo { rs_per_fu: 3 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 3,
            tags: 10,
        },
        Mechanism::RsPool { rs: 6, tags: 10 },
        Mechanism::Rstu { entries: 8 },
    ]
}

#[test]
fn the_matrix_splits_as_is_precise_does() {
    for m in precise_machines(12) {
        assert!(m.is_precise(), "{m}");
    }
    for m in imprecise_machines() {
        assert!(!m.is_precise(), "{m}");
    }
}

/// Checks every precise machine, each with `entries` entries, at the
/// first, the second, a third, the middle and the last of the `kind` fault
/// points of every Livermore loop that has any, and returns the loops that
/// had none.
fn check_the_suite(kind: FaultKind, entries: usize) -> Vec<&'static str> {
    let mut without = Vec::new();
    for w in livermore::all() {
        let trace = w.golden_trace().unwrap();
        let points = fault_points(&trace, kind);
        if points.is_empty() {
            without.push(w.name);
            continue;
        }
        let n = points.len();
        let picks = [0, 1.min(n - 1), n / 3, n / 2, n - 1].map(|i| points[i]);
        for m in precise_machines(entries) {
            let check = PrecisionCheck::new(m);
            for seq in picks {
                let r = check
                    .run(&w.program, &w.memory, &trace, seq)
                    .unwrap_or_else(|e| panic!("{m} on {} at {seq}: {e}", w.name));
                assert!(r.all_precise(), "{m} on {} at {seq}: {r:?}", w.name);
            }
        }
    }
    without
}

#[test]
fn page_faults_are_precise_across_the_suite() {
    let without = check_the_suite(FaultKind::PageFault, 12);
    assert!(without.is_empty(), "every loop has loads or stores");
}

#[test]
fn arithmetic_faults_are_precise() {
    // A deep window: 20 entries, against the page faults' 12.
    let without = check_the_suite(FaultKind::Arithmetic, 20);
    // The particle-in-cell loops only move and index.
    assert_eq!(without, ["LLL13", "LLL14"]);
}

#[test]
fn every_imprecise_mechanism_is_caught() {
    let cfg = MachineConfig::paper();
    for m in imprecise_machines() {
        let e = imprecision::demonstrate(&cfg, m).unwrap();
        assert!(e.is_imprecise(), "{m} should be imprecise");
    }
    for m in precise_machines(8) {
        let e = imprecision::demonstrate(&cfg, m).unwrap();
        assert!(
            !e.is_imprecise(),
            "{m} was caught: {:?}",
            e.boundary_matches
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The precise-interrupt property on random programs at random fault
    /// points and window sizes, on every precise machine.
    #[test]
    fn random_fault_points_are_precise(
        seed in 0u64..10_000,
        entries in 2usize..20,
        pick in 0usize..1000,
    ) {
        let (program, mem) = random_program(seed, &SynthConfig::default());
        let trace = Trace::capture(&program, mem.clone(), 500_000).expect("golden runs");
        let points = fault_points(&trace, FaultKind::Any);
        prop_assume!(!points.is_empty());
        let seq = points[pick % points.len()];
        for m in precise_machines(entries) {
            let mut check = PrecisionCheck::new(m);
            check.inst_limit = 500_000;
            let r = check.run(&program, &mem, &trace, seq)
                .unwrap_or_else(|e| panic!("{m}, seed {seed}, fault {seq}: {e}"));
            prop_assert!(r.all_precise(), "{} seed {} fault {}: {:?}", m, seed, seq, r);
        }
    }
}
