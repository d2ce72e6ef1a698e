//! Calibrated per-loop cycle snapshot for the in-order machines: the
//! imprecise baseline and all four Smith & Pleszkun precise schemes at
//! one, four and eight buffer entries, under perfect memory, the
//! `64x2x4:20` data cache and the MSHR-starved `16x1x4:30:1:1` cache,
//! plus a long-latency machine whose result-bus bookings reach hundreds
//! of cycles ahead.
//!
//! Besides the per-loop cycles, each row pins the suite total of every
//! [`StallReason`], in [`StallReason::ALL`] order. The totals lock in
//! the order of the issue-stage checks (operands, destination, unit,
//! memory, bus, buffer) and the `WindowFull` and `MemStall` paths, which
//! a refactor can move without moving a single cycle count.

use ruu::isa::FuClass;
use ruu::issue::{Mechanism, PreciseScheme};
use ruu::sim::{DCacheConfig, MachineConfig, StallReason};
use ruu::workloads::livermore;

/// The memory system a snapshot row runs behind.
#[derive(Debug, Clone, Copy)]
enum Cache {
    /// `MachineConfig::paper()`'s perfect memory.
    Perfect,
    /// A `64x2x4:20` data cache.
    Cached,
    /// A `16x1x4:30:1:1` data cache with one outstanding-miss register.
    Starved,
    /// A `64x2x4:200` data cache, a 40-cycle floating-point multiplier and
    /// two result buses: bus bookings land up to ~200 cycles ahead.
    LongLatency,
}

impl Cache {
    fn config(self) -> MachineConfig {
        let geometry = match self {
            Cache::Perfect => return MachineConfig::paper(),
            Cache::Cached => "64x2x4:20",
            Cache::Starved => "16x1x4:30:1:1",
            Cache::LongLatency => {
                return MachineConfig::paper()
                    .with_dcache(DCacheConfig::parse("64x2x4:200").expect("valid geometry"))
                    .with_fu_latency(FuClass::FloatMul, 40)
                    .with_result_buses(2)
            }
        };
        MachineConfig::paper().with_dcache(DCacheConfig::parse(geometry).expect("valid geometry"))
    }
}

struct Row {
    cache: Cache,
    mechanism: Mechanism,
    cycles: [u64; 14],
    stalls: [u64; StallReason::ALL.len()],
}

const SIMPLE: Mechanism = Mechanism::Simple;

fn precise(scheme: PreciseScheme, entries: usize) -> Mechanism {
    Mechanism::InOrderPrecise { scheme, entries }
}

/// Captured from the tree before the two in-order simulators were
/// merged into one; every number must survive any refactor of them.
fn calibrated() -> Vec<Row> {
    let row = |cache, mechanism, cycles, stalls| Row {
        cache,
        mechanism,
        cycles,
        stalls,
    };
    vec![
        row(
            Cache::Perfect,
            SIMPLE,
            [
                19614, 19913, 35051, 16307, 30854, 33774, 18610, 20018, 19399, 15347, 35094, 36408,
                32769, 31169,
            ],
            [229448, 0, 0, 723, 0, 0, 0, 68, 25493, 0, 0, 82],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::ReorderBuffer, 1),
            [
                36037, 50070, 48064, 26566, 52747, 55186, 33173, 34831, 36242, 38740, 62376, 65002,
                56002, 50542,
            ],
            [181665, 0, 0, 9644, 320185, 0, 0, 68, 25493, 0, 0, 10],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::ReorderBuffer, 4),
            [
                21619, 24868, 35051, 16369, 35835, 34213, 19366, 24385, 23152, 19373, 41594, 42905,
                41725, 36865,
            ],
            [278130, 8, 0, 294, 4668, 0, 0, 124, 25493, 0, 0, 90],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::ReorderBuffer, 8),
            [
                21619, 22892, 35051, 16369, 35835, 34213, 19366, 24385, 23145, 19373, 41594, 42905,
                41725, 36865,
            ],
            [280818, 8, 0, 291, 0, 0, 0, 124, 25493, 0, 0, 90],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::ReorderBufferBypass, 1),
            [
                36037, 50070, 48064, 26566, 52747, 55186, 33173, 34831, 36242, 38740, 62376, 65002,
                56002, 50542,
            ],
            [181665, 0, 0, 9644, 320185, 0, 0, 68, 25493, 0, 0, 10],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::ReorderBufferBypass, 4),
            [
                20821, 21875, 35051, 16342, 30857, 33825, 18618, 20252, 19556, 15865, 37698, 39008,
                35848, 31170,
            ],
            [221671, 0, 0, 914, 20028, 0, 0, 68, 25493, 0, 0, 99],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::ReorderBufferBypass, 8),
            [
                19619, 19915, 35051, 16311, 30855, 33777, 18611, 20019, 19400, 15348, 35095, 36410,
                32770, 31170,
            ],
            [229448, 0, 0, 724, 1, 0, 0, 68, 25493, 0, 0, 104],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::HistoryBuffer, 1),
            [
                36037, 50070, 48064, 26566, 52747, 55186, 33173, 34831, 36242, 38740, 62376, 65002,
                56002, 50542,
            ],
            [181665, 0, 0, 9644, 320185, 0, 0, 68, 25493, 0, 0, 10],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::HistoryBuffer, 4),
            [
                20821, 21875, 35051, 16342, 30857, 33825, 18618, 20252, 19556, 15865, 37698, 39008,
                35848, 31170,
            ],
            [221671, 0, 0, 914, 20028, 0, 0, 68, 25493, 0, 0, 99],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::HistoryBuffer, 8),
            [
                19619, 19915, 35051, 16311, 30855, 33777, 18611, 20019, 19400, 15348, 35095, 36410,
                32770, 31170,
            ],
            [229448, 0, 0, 724, 1, 0, 0, 68, 25493, 0, 0, 104],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::FutureFile, 1),
            [
                36037, 50070, 48064, 26566, 52747, 55186, 33173, 34831, 36242, 38740, 62376, 65002,
                56002, 50542,
            ],
            [181665, 0, 0, 9644, 320185, 0, 0, 68, 25493, 0, 0, 10],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::FutureFile, 4),
            [
                20821, 21875, 35051, 16342, 30857, 33825, 18618, 20252, 19556, 15865, 37698, 39008,
                35848, 31170,
            ],
            [221671, 0, 0, 914, 20028, 0, 0, 68, 25493, 0, 0, 99],
        ),
        row(
            Cache::Perfect,
            precise(PreciseScheme::FutureFile, 8),
            [
                19619, 19915, 35051, 16311, 30855, 33777, 18611, 20019, 19400, 15348, 35095, 36410,
                32770, 31170,
            ],
            [229448, 0, 0, 724, 1, 0, 0, 68, 25493, 0, 0, 104],
        ),
        row(
            Cache::Cached,
            SIMPLE,
            [
                19049, 19852, 31310, 22180, 27127, 28785, 17766, 24187, 27507, 24707, 35095, 30251,
                41125, 35596,
            ],
            [241062, 0, 0, 9319, 0, 0, 0, 68, 25493, 0, 0, 82],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::ReorderBuffer, 1),
            [
                27845, 34832, 37582, 28870, 42318, 37440, 28963, 43152, 49700, 50440, 48736, 45196,
                71690, 52898,
            ],
            [168094, 0, 0, 16748, 280736, 0, 0, 68, 25493, 0, 0, 10],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::ReorderBuffer, 4),
            [
                21847, 22812, 31310, 22271, 31371, 29563, 19291, 28554, 33953, 28083, 41919, 37073,
                50081, 44912,
            ],
            [300084, 8, 0, 7531, 1197, 0, 0, 124, 25493, 0, 0, 90],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::ReorderBuffer, 8),
            [
                21847, 22812, 31310, 22271, 31371, 29563, 19291, 28554, 33953, 28083, 41919, 37073,
                50081, 44912,
            ],
            [301281, 8, 0, 7531, 0, 0, 0, 124, 25493, 0, 0, 90],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::ReorderBufferBypass, 1),
            [
                27845, 34832, 37582, 28870, 42318, 37440, 28963, 43152, 49700, 50440, 48736, 45196,
                71690, 52898,
            ],
            [168094, 0, 0, 16748, 280736, 0, 0, 68, 25493, 0, 0, 10],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::ReorderBufferBypass, 4),
            [
                20249, 20849, 31310, 22242, 28631, 28836, 18363, 24313, 27657, 25095, 36725, 32851,
                45094, 39537,
            ],
            [239774, 0, 0, 8891, 18919, 0, 0, 68, 25493, 0, 0, 94],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::ReorderBufferBypass, 8),
            [
                19052, 19854, 31310, 22184, 27128, 28788, 17767, 24188, 27508, 24708, 35096, 30253,
                41126, 35597,
            ],
            [241062, 0, 0, 9319, 0, 0, 0, 68, 25493, 0, 0, 104],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::HistoryBuffer, 1),
            [
                27845, 34832, 37582, 28870, 42318, 37440, 28963, 43152, 49700, 50440, 48736, 45196,
                71690, 52898,
            ],
            [168094, 0, 0, 16748, 280736, 0, 0, 68, 25493, 0, 0, 10],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::HistoryBuffer, 4),
            [
                20249, 20849, 31310, 22242, 28631, 28836, 18363, 24313, 27657, 25095, 36725, 32851,
                45094, 39537,
            ],
            [239774, 0, 0, 8891, 18919, 0, 0, 68, 25493, 0, 0, 94],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::HistoryBuffer, 8),
            [
                19052, 19854, 31310, 22184, 27128, 28788, 17767, 24188, 27508, 24708, 35096, 30253,
                41126, 35597,
            ],
            [241062, 0, 0, 9319, 0, 0, 0, 68, 25493, 0, 0, 104],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::FutureFile, 1),
            [
                27845, 34832, 37582, 28870, 42318, 37440, 28963, 43152, 49700, 50440, 48736, 45196,
                71690, 52898,
            ],
            [168094, 0, 0, 16748, 280736, 0, 0, 68, 25493, 0, 0, 10],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::FutureFile, 4),
            [
                20249, 20849, 31310, 22242, 28631, 28836, 18363, 24313, 27657, 25095, 36725, 32851,
                45094, 39537,
            ],
            [239774, 0, 0, 8891, 18919, 0, 0, 68, 25493, 0, 0, 94],
        ),
        row(
            Cache::Cached,
            precise(PreciseScheme::FutureFile, 8),
            [
                19052, 19854, 31310, 22184, 27128, 28788, 17767, 24188, 27508, 24708, 35096, 30253,
                41126, 35597,
            ],
            [241062, 0, 0, 9319, 0, 0, 0, 68, 25493, 0, 0, 104],
        ),
        row(
            Cache::Starved,
            SIMPLE,
            [
                21069, 69782, 83099, 32638, 73666, 64029, 25629, 43375, 51527, 41867, 78645, 33511,
                85260, 65732,
            ],
            [405827, 0, 0, 19815, 0, 0, 0, 68, 25493, 0, 210031, 82],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::ReorderBuffer, 1),
            [
                29865, 82674, 86102, 36430, 90576, 73886, 33863, 53742, 64720, 63440, 92936, 48456,
                100373, 81305,
            ],
            [248497, 0, 0, 30313, 329898, 0, 0, 68, 25493, 0, 195576, 10],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::ReorderBuffer, 4),
            [
                23867, 73749, 83099, 32681, 79634, 65253, 29291, 49380, 54673, 45503, 85469, 40333,
                94216, 74418,
            ],
            [476279, 8, 0, 19386, 1197, 0, 0, 124, 25493, 0, 200476, 90],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::ReorderBuffer, 8),
            [
                23867, 73749, 83099, 32681, 79634, 65253, 29291, 49380, 54673, 45503, 85469, 40333,
                94216, 74418,
            ],
            [477476, 8, 0, 19386, 0, 0, 0, 124, 25493, 0, 200476, 90],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::ReorderBufferBypass, 1),
            [
                29865, 82674, 86102, 36430, 90576, 73886, 33863, 53742, 64720, 63440, 92936, 48456,
                100373, 81305,
            ],
            [248497, 0, 0, 30313, 329898, 0, 0, 68, 25493, 0, 195576, 10],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::ReorderBufferBypass, 4),
            [
                22269, 69784, 83099, 32652, 73667, 64080, 26226, 43381, 51528, 41868, 80925, 36111,
                88121, 67755,
            ],
            [405827, 0, 0, 19815, 11694, 0, 0, 68, 25493, 0, 209962, 94],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::ReorderBufferBypass, 8),
            [
                21072, 69784, 83099, 32642, 73667, 64032, 25630, 43376, 51528, 41868, 78646, 33513,
                85261, 65733,
            ],
            [405827, 0, 0, 19815, 0, 0, 0, 68, 25493, 0, 210031, 104],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::HistoryBuffer, 1),
            [
                29865, 82674, 86102, 36430, 90576, 73886, 33863, 53742, 64720, 63440, 92936, 48456,
                100373, 81305,
            ],
            [248497, 0, 0, 30313, 329898, 0, 0, 68, 25493, 0, 195576, 10],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::HistoryBuffer, 4),
            [
                22269, 69784, 83099, 32652, 73667, 64080, 26226, 43381, 51528, 41868, 80925, 36111,
                88121, 67755,
            ],
            [405827, 0, 0, 19815, 11694, 0, 0, 68, 25493, 0, 209962, 94],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::HistoryBuffer, 8),
            [
                21072, 69784, 83099, 32642, 73667, 64032, 25630, 43376, 51528, 41868, 78646, 33513,
                85261, 65733,
            ],
            [405827, 0, 0, 19815, 0, 0, 0, 68, 25493, 0, 210031, 104],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::FutureFile, 1),
            [
                29865, 82674, 86102, 36430, 90576, 73886, 33863, 53742, 64720, 63440, 92936, 48456,
                100373, 81305,
            ],
            [248497, 0, 0, 30313, 329898, 0, 0, 68, 25493, 0, 195576, 10],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::FutureFile, 4),
            [
                22269, 69784, 83099, 32652, 73667, 64080, 26226, 43381, 51528, 41868, 80925, 36111,
                88121, 67755,
            ],
            [405827, 0, 0, 19815, 11694, 0, 0, 68, 25493, 0, 209962, 94],
        ),
        row(
            Cache::Starved,
            precise(PreciseScheme::FutureFile, 8),
            [
                21072, 69784, 83099, 32642, 73667, 64032, 25630, 43376, 51528, 41868, 78646, 33513,
                85261, 65733,
            ],
            [405827, 0, 0, 19815, 0, 0, 0, 68, 25493, 0, 210031, 104],
        ),
        // Captured before the result-bus table and the event map became
        // cycle-indexed rings.
        row(
            Cache::LongLatency,
            SIMPLE,
            [
                77955, 89396, 108773, 150168, 104036, 132046, 88737, 132019, 214267, 211907,
                151120, 87956, 278885, 257536,
            ],
            [1949459, 0, 0, 1186, 0, 0, 0, 68, 25493, 0, 0, 82],
        ),
        row(
            Cache::LongLatency,
            precise(PreciseScheme::ReorderBuffer, 8),
            [
                80745, 92852, 108773, 150802, 109206, 133696, 91868, 144222, 264964, 215283,
                158594, 95753, 288121, 266852,
            ],
            [2066317, 8, 0, 1186, 0, 0, 0, 124, 25493, 0, 0, 90],
        ),
        row(
            Cache::LongLatency,
            precise(PreciseScheme::ReorderBufferBypass, 8),
            [
                77958, 89398, 108773, 150172, 104037, 132049, 88738, 132020, 214268, 211908,
                151121, 87958, 278886, 257537,
            ],
            [1949459, 0, 0, 1186, 0, 0, 0, 68, 25493, 0, 0, 104],
        ),
        row(
            Cache::LongLatency,
            precise(PreciseScheme::HistoryBuffer, 4),
            [
                79155, 90812, 108773, 150770, 106466, 132097, 89679, 132145, 214566, 212295,
                153724, 90556, 283413, 261477,
            ],
            [1943188, 0, 0, 1187, 27385, 0, 0, 68, 25493, 0, 0, 94],
        ),
        row(
            Cache::LongLatency,
            precise(PreciseScheme::FutureFile, 4),
            [
                79155, 90812, 108773, 150770, 106466, 132097, 89679, 132145, 214566, 212295,
                153724, 90556, 283413, 261477,
            ],
            [1943188, 0, 0, 1187, 27385, 0, 0, 68, 25493, 0, 0, 94],
        ),
    ]
}

#[test]
fn every_in_order_machine_reproduces_its_calibrated_snapshot() {
    let loops = livermore::all();
    for row in calibrated() {
        let cfg = row.cache.config();
        let m = row.mechanism;
        let sim = m.build(&cfg);
        let mut stalls = [0u64; StallReason::ALL.len()];
        for (w, &cycles) in loops.iter().zip(row.cycles.iter()) {
            let r = sim
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{m} ({:?}) failed on {}: {e}", row.cache, w.name));
            assert_eq!(
                r.cycles, cycles,
                "{m} ({:?}) on {}: cycle count drifted from the calibration",
                row.cache, w.name
            );
            for (total, reason) in stalls.iter_mut().zip(StallReason::ALL) {
                *total += r.stats.stalls(reason);
            }
        }
        for ((reason, got), want) in StallReason::ALL.iter().zip(stalls).zip(row.stalls) {
            assert_eq!(
                got, want,
                "{m} ({:?}): {reason:?} stall cycles over the suite",
                row.cache
            );
        }
    }
}
