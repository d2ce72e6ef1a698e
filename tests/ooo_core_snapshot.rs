//! Calibrated per-loop cycle snapshot for the out-of-order cores, over
//! the configurations `tests/dcache_timing.rs` does not pin: the limited
//! bypass, the Tag Unit and RS-pool organisations, the speculative RUU
//! without bypass and with a different predictor, two dispatch paths, and
//! every out-of-order family under a finite data cache.
//!
//! Besides the per-loop cycles, each row pins the suite totals of
//! `forwarded_loads` and `mispredicted_branches`, which move with the
//! memory pipeline and the speculation machinery without always moving
//! cycles.

use ruu::issue::{Bypass, Mechanism, PredictorConfig};
use ruu::sim::{DCacheConfig, MachineConfig};
use ruu::workloads::livermore;

/// The machine variant a snapshot row runs on.
#[derive(Debug, Clone, Copy)]
enum Machine {
    /// `MachineConfig::paper()`.
    Paper,
    /// The paper machine with two dispatch paths.
    TwoPaths,
    /// The paper machine behind a `64x2x4:20` data cache.
    Cached,
}

impl Machine {
    fn config(self) -> MachineConfig {
        match self {
            Machine::Paper => MachineConfig::paper(),
            Machine::TwoPaths => MachineConfig::paper().with_dispatch_paths(2),
            Machine::Cached => MachineConfig::paper()
                .with_dcache(DCacheConfig::parse("64x2x4:20").expect("valid geometry")),
        }
    }
}

struct Row {
    machine: Machine,
    mechanism: Mechanism,
    cycles: [u64; 14],
    forwarded_loads: u64,
    mispredicted_branches: u64,
}

fn ruu(bypass: Bypass) -> Mechanism {
    Mechanism::Ruu {
        entries: 15,
        bypass,
    }
}

fn spec_ruu(bypass: Bypass, predictor: PredictorConfig) -> Mechanism {
    Mechanism::SpecRuu {
        entries: 15,
        bypass,
        predictor,
    }
}

const TAG_UNIT: Mechanism = Mechanism::TagUnitDistributed {
    rs_per_fu: 2,
    tags: 12,
};
const RS_POOL: Mechanism = Mechanism::RsPool { rs: 8, tags: 12 };

/// Captured from the tree before the three out-of-order cores were
/// merged into one; every number must survive any refactor of them.
fn calibrated() -> Vec<Row> {
    let row = |machine, mechanism, cycles, forwarded_loads, mispredicted_branches| Row {
        machine,
        mechanism,
        cycles,
        forwarded_loads,
        mispredicted_branches,
    };
    vec![
        row(
            Machine::Paper,
            ruu(Bypass::LimitedA),
            [
                10222, 12025, 16040, 6993, 13954, 14873, 8141, 10031, 13824, 9640, 14307, 15617,
                16539, 15600,
            ],
            1300,
            0,
        ),
        row(
            Machine::Paper,
            TAG_UNIT,
            [
                9628, 10051, 18536, 6669, 13947, 14268, 9326, 9341, 9947, 10147, 16902, 15615,
                18495, 18249,
            ],
            1299,
            0,
        ),
        row(
            Machine::Paper,
            RS_POOL,
            [
                8628, 10079, 15036, 6682, 15933, 14317, 7378, 7810, 7244, 10415, 14306, 15615,
                16257, 15977,
            ],
            1299,
            0,
        ),
        row(
            Machine::Paper,
            spec_ruu(Bypass::None, PredictorConfig::default()),
            [
                14035, 14219, 18241, 8914, 14961, 17122, 12466, 10954, 14139, 11575, 14317, 18871,
                20166, 20906,
            ],
            2623,
            64,
        ),
        row(
            Machine::Paper,
            spec_ruu(Bypass::Full, PredictorConfig::Gshare { entries: 1024 }),
            [
                10222, 12003, 16040, 6973, 13954, 14613, 8869, 8781, 8440, 9640, 14307, 15617,
                16539, 15600,
            ],
            1347,
            9,
        ),
        row(
            Machine::TwoPaths,
            Mechanism::Rstu { entries: 15 },
            [
                7234, 9572, 14036, 6669, 12960, 14268, 6035, 6292, 6347, 7565, 14306, 15615, 14577,
                14838,
            ],
            1299,
            0,
        ),
        row(
            Machine::Cached,
            Mechanism::Tomasulo { rs_per_fu: 2 },
            [
                8751, 10952, 18045, 7573, 14947, 14587, 9350, 12864, 12503, 14307, 23075, 18224,
                23739, 24475,
            ],
            697,
            0,
        ),
        row(
            Machine::Cached,
            TAG_UNIT,
            [
                8751, 10952, 18045, 7573, 14947, 14587, 9350, 12864, 12503, 14307, 23075, 18224,
                23739, 24475,
            ],
            697,
            0,
        ),
        row(
            Machine::Cached,
            RS_POOL,
            [
                7738, 9615, 15046, 6691, 15934, 14182, 7131, 9574, 9457, 11585, 14953, 15630,
                21839, 22789,
            ],
            2015,
            0,
        ),
        row(
            Machine::Cached,
            Mechanism::Rstu { entries: 15 },
            [
                7233, 9595, 14296, 6691, 14458, 14182, 6386, 8369, 8463, 9907, 14953, 15630, 21831,
                22193,
            ],
            2018,
            0,
        ),
        row(
            Machine::Cached,
            ruu(Bypass::Full),
            [
                10132, 12253, 16550, 8640, 14950, 15717, 9405, 11675, 9961, 10551, 15279, 16278,
                22501, 22186,
            ],
            1915,
            0,
        ),
        row(
            Machine::Cached,
            ruu(Bypass::None),
            [
                16839, 14770, 22800, 21666, 20169, 27582, 10687, 17760, 15933, 12874, 26321, 20501,
                24106, 25609,
            ],
            189,
            0,
        ),
        row(
            Machine::Cached,
            ruu(Bypass::LimitedA),
            [
                11830, 12922, 17302, 8667, 14950, 15717, 12441, 14512, 10271, 10551, 15279, 16278,
                22501, 22186,
            ],
            1770,
            0,
        ),
        row(
            Machine::Cached,
            spec_ruu(Bypass::Full, PredictorConfig::default()),
            [
                10132, 12214, 16550, 8639, 14950, 15551, 9405, 11675, 9961, 10551, 15279, 16278,
                22501, 22186,
            ],
            1915,
            5,
        ),
    ]
}

#[test]
fn every_out_of_order_core_reproduces_its_calibrated_snapshot() {
    let loops = livermore::all();
    for row in calibrated() {
        let cfg = row.machine.config();
        let m = row.mechanism;
        let (mut forwarded, mut mispredicted) = (0, 0);
        for (w, &cycles) in loops.iter().zip(row.cycles.iter()) {
            let r = m
                .run(&cfg, &w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{m} ({:?}) failed on {}: {e}", row.machine, w.name));
            assert_eq!(
                r.cycles, cycles,
                "{m} ({:?}) on {}: cycle count drifted from the calibration",
                row.machine, w.name
            );
            forwarded += r.stats.forwarded_loads;
            mispredicted += r.stats.mispredicted_branches;
        }
        assert_eq!(
            forwarded, row.forwarded_loads,
            "{m} ({:?}): forwarded loads over the suite",
            row.machine
        );
        assert_eq!(
            mispredicted, row.mispredicted_branches,
            "{m} ({:?}): mispredicted branches over the suite",
            row.machine
        );
    }
}
