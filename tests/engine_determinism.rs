//! Determinism and trait-equivalence guarantees for the parallel sweep
//! engine.
//!
//! The engine promises that worker count is a pure throughput knob: the
//! numbers in a [`ruu::engine::SweepReport`] are bit-identical whether the
//! grid runs on one thread or many, and identical to the legacy serial
//! sweep loop it replaced. Separately, every boxed simulator produced by
//! [`ruu::issue::Mechanism::build`] must reproduce the golden
//! interpreter's architectural result, so the trait objects are safe to
//! run on arbitrary worker threads.

use ruu::engine::{Job, SweepEngine};
use ruu::issue::{Bypass, Mechanism};
use ruu::sim::MachineConfig;
use ruu::workloads::livermore;

fn table4_jobs(entries: &[usize]) -> Vec<Job> {
    let cfg = MachineConfig::paper();
    entries
        .iter()
        .map(|&e| {
            Job::new(
                Mechanism::Ruu {
                    entries: e,
                    bypass: Bypass::Full,
                },
                cfg.clone(),
            )
        })
        .collect()
}

/// jobs=4 must be byte-identical to jobs=1: same cycles/instructions, and
/// bit-identical f64 speedups and issue rates (compared via `to_bits`, not
/// an epsilon).
#[test]
fn parallel_grid_is_bit_identical_to_serial_grid() {
    let jobs = table4_jobs(&[3, 5, 8, 13, 21]);
    let serial = SweepEngine::livermore()
        .with_workers(1)
        .run_grid(&jobs)
        .expect("serial grid runs");
    let parallel = SweepEngine::livermore()
        .with_workers(4)
        .run_grid(&jobs)
        .expect("parallel grid runs");
    assert_eq!(serial.stats.workers, 1);
    assert_eq!(parallel.stats.workers, 4);
    assert_eq!(serial.jobs.len(), parallel.jobs.len());
    for (s, p) in serial.jobs.iter().zip(&parallel.jobs) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.cycles, p.cycles, "{}", s.label);
        assert_eq!(s.instructions, p.instructions, "{}", s.label);
        assert_eq!(s.baseline_cycles, p.baseline_cycles, "{}", s.label);
        assert_eq!(s.speedup.to_bits(), p.speedup.to_bits(), "{}", s.label);
        assert_eq!(
            s.issue_rate.to_bits(),
            p.issue_rate.to_bits(),
            "{}",
            s.label
        );
    }
}

/// The speculative machine on the engine, once per zoo predictor: worker
/// count must not change a single number, including the per-job branch
/// summary (predicts, mispredicts, repair cycles). Branch-history state
/// lives inside each job's own predictor instance, so cross-thread
/// scheduling has nothing to leak.
#[test]
fn speculative_grid_is_deterministic_for_every_predictor() {
    use ruu::issue::PredictorConfig;
    let cfg = MachineConfig::paper();
    let jobs: Vec<Job> = PredictorConfig::zoo()
        .into_iter()
        .map(|predictor| {
            Job::new(
                Mechanism::SpecRuu {
                    entries: 15,
                    bypass: Bypass::Full,
                    predictor,
                },
                cfg.clone(),
            )
        })
        .collect();
    let serial = SweepEngine::livermore()
        .with_workers(1)
        .run_grid(&jobs)
        .expect("serial grid runs");
    let parallel = SweepEngine::livermore()
        .with_workers(4)
        .run_grid(&jobs)
        .expect("parallel grid runs");
    assert_eq!(serial.jobs.len(), parallel.jobs.len());
    for (s, p) in serial.jobs.iter().zip(&parallel.jobs) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.cycles, p.cycles, "{}", s.label);
        assert_eq!(s.instructions, p.instructions, "{}", s.label);
        assert_eq!(s.speedup.to_bits(), p.speedup.to_bits(), "{}", s.label);
        assert!(
            s.speculative,
            "{}: speculative job has branch stats",
            s.label
        );
        assert_eq!(s.stats, p.stats, "{}", s.label);
        let predicts = s.stats.predicted_branches;
        assert!(predicts > 0, "{}: predictor never consulted", s.label);
    }
}

/// Finite-dcache jobs on the engine: worker count must not change a
/// single number, including the per-job cache summary — the JSON report
/// of a parallel run must be byte-identical to the serial run's. Cache
/// state lives inside each unit's own `DCache` instance, so cross-thread
/// scheduling has nothing to leak.
#[test]
fn finite_dcache_grid_is_deterministic_across_worker_counts() {
    use ruu::sim::DCacheConfig;
    let jobs: Vec<Job> = ["16x1x2:25:3:1", "64x2x4:20", "256x4x8:40:2:8"]
        .iter()
        .map(|spec| {
            Job::new(
                Mechanism::Ruu {
                    entries: 15,
                    bypass: Bypass::Full,
                },
                MachineConfig::paper()
                    .with_dcache(DCacheConfig::parse(spec).expect("test geometry")),
            )
        })
        .collect();
    let serial = SweepEngine::livermore()
        .with_workers(1)
        .run_grid(&jobs)
        .expect("serial grid runs");
    let parallel = SweepEngine::livermore()
        .with_workers(4)
        .run_grid(&jobs)
        .expect("parallel grid runs");
    assert_eq!(serial.jobs.len(), parallel.jobs.len());
    for (s, p) in serial.jobs.iter().zip(&parallel.jobs) {
        assert_eq!(s.cycles, p.cycles, "{}", s.label);
        assert!(
            s.finite_dcache,
            "{}: finite-dcache job has cache stats",
            s.label
        );
        assert_eq!(s.stats, p.stats, "{}", s.label);
        let sc = &s.stats;
        assert!(sc.dcache_accesses > 0, "{}: cache never consulted", s.label);
        assert_eq!(
            sc.dcache_hits + sc.dcache_misses,
            sc.dcache_accesses,
            "{}",
            s.label
        );
    }
    // The serialized reports carry identical per-job `cache` objects
    // (only the wall-clock engine stats may differ).
    let strip = |json: &str| {
        let jobs_at = json.find("\"jobs\":[").expect("report has a jobs array");
        json[jobs_at..].to_string()
    };
    assert_eq!(strip(&serial.to_json()), strip(&parallel.to_json()));
    assert_eq!(serial.to_json().matches("\"cache\":").count(), jobs.len());
}

/// The engine-backed sweep must reproduce the legacy serial sweep loop
/// (`ruu_bench::harness::sweep_serial`) exactly. This pins the API
/// redesign to the old behaviour: same suite order, same aggregation,
/// same speedup arithmetic.
#[test]
fn engine_sweep_matches_legacy_serial_sweep() {
    use ruu::engine::JobResult;
    let entries = [4usize, 9, 16];
    let cfg = MachineConfig::paper();
    let make = |e: usize| Mechanism::Ruu {
        entries: e,
        bypass: Bypass::Full,
    };

    let legacy = ruu_bench::sweep_serial(&cfg, &entries, make);

    let report = SweepEngine::livermore()
        .with_workers(4)
        .run_grid(&table4_jobs(&entries))
        .expect("grid runs");
    let engine_points: Vec<&JobResult> = report.jobs.iter().collect();

    assert_eq!(legacy.len(), engine_points.len());
    for (l, e) in legacy.iter().zip(engine_points) {
        assert_eq!(l.entries, e.entries);
        assert_eq!(l.cycles, e.cycles);
        assert_eq!(l.speedup.to_bits(), e.speedup.to_bits());
        assert_eq!(l.issue_rate.to_bits(), e.issue_rate.to_bits());
    }
}

/// Every trait object out of `Mechanism::build` must produce exactly the
/// golden interpreter's architectural result — registers and memory checks
/// — on a Livermore loop. This is the object-safety contract the engine's
/// worker threads rely on.
#[test]
fn every_built_simulator_matches_golden() {
    let cfg = MachineConfig::paper();
    let mechanisms = [
        Mechanism::Simple,
        Mechanism::Tomasulo { rs_per_fu: 2 },
        Mechanism::TagUnitDistributed {
            rs_per_fu: 2,
            tags: 12,
        },
        Mechanism::RsPool { rs: 8, tags: 12 },
        Mechanism::Rstu { entries: 10 },
        Mechanism::Ruu {
            entries: 10,
            bypass: Bypass::Full,
        },
        Mechanism::Ruu {
            entries: 10,
            bypass: Bypass::None,
        },
        Mechanism::InOrderPrecise {
            scheme: ruu::issue::PreciseScheme::ReorderBuffer,
            entries: 10,
        },
        Mechanism::InOrderPrecise {
            scheme: ruu::issue::PreciseScheme::FutureFile,
            entries: 10,
        },
    ];
    for w in [livermore::lll1(), livermore::lll5(), livermore::lll11()] {
        let golden = w.golden_trace().expect("golden run succeeds");
        for m in &mechanisms {
            let sim = m.build(&cfg);
            let r = sim
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
                .unwrap_or_else(|e| panic!("{m} on {}: {e}", w.name));
        }
    }
}
