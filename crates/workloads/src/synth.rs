//! Synthetic program generators: random (but always-terminating) programs
//! for property tests, and dependency-chain microkernels for ablation
//! benches.

use ruu_exec::Memory;
use ruu_isa::{Asm, Program, Reg, RegFile};

use crate::layout::Lcg;

/// Parameters for [`random_program`].
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of segments (straight-line blocks or counted loops).
    pub segments: usize,
    /// Instructions per block / loop body.
    pub block_len: usize,
    /// Maximum loop trip count.
    pub max_trips: u32,
    /// Whether to include loads and stores.
    pub mem_ops: bool,
    /// Concentrate all memory traffic on a handful of addresses (a fixed
    /// base register and tiny displacements), maximising load-register
    /// matches, forwarding chains and write-after-read hazards.
    pub hot_addresses: bool,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            segments: 6,
            block_len: 12,
            max_trips: 6,
            mem_ops: true,
            hot_addresses: false,
        }
    }
}

// `A0` is reserved for loop counters and `S0` is left alone so generated
// branch behaviour stays comprehensible.
fn a_reg(rng: &mut Lcg) -> Reg {
    Reg::a(1 + rng.next_below(7) as u8)
}

fn s_reg(rng: &mut Lcg) -> Reg {
    Reg::s(1 + rng.next_below(7) as u8)
}

/// Tracks pending (written-but-not-yet-read) register values during
/// generation so every program is `ruu_analysis::lint`-clean by
/// construction: a destination whose pending value would be silently
/// overwritten (a dead write) is read as a source first, `B`/`T`
/// registers are only read after being written, and [`drain`] stores
/// every still-pending value to memory before `halt` so nothing is left
/// unread at exit. Asserted over random seeds by this module's proptest.
#[derive(Debug, Default, Clone, Copy)]
struct Pending {
    a: u8,
    s: u8,
    b: u8,
    t: u8,
    b_written: u8,
    t_written: u8,
}

impl Pending {
    fn mask(&self, file: RegFile) -> u8 {
        match file {
            RegFile::A => self.a,
            RegFile::S => self.s,
            RegFile::B => self.b,
            RegFile::T => self.t,
        }
    }

    fn is_pending(&self, r: Reg) -> bool {
        self.mask(r.file()) & (1 << r.num()) != 0
    }

    fn read(&mut self, r: Reg) {
        let clear = !(1u8 << r.num());
        match r.file() {
            RegFile::A => self.a &= clear,
            RegFile::S => self.s &= clear,
            RegFile::B => self.b &= clear,
            RegFile::T => self.t &= clear,
        }
    }

    fn write(&mut self, r: Reg) {
        let bit = 1u8 << r.num();
        match r.file() {
            RegFile::A => self.a |= bit,
            RegFile::S => self.s |= bit,
            RegFile::B => {
                self.b |= bit;
                self.b_written |= bit;
            }
            RegFile::T => {
                self.t |= bit;
                self.t_written |= bit;
            }
        }
    }
}

/// Picks a register number in `lo..8` whose bit in `mask` is clear,
/// scanning from a random start so the choice stays varied. `None` when
/// every candidate is pending.
fn pick_clean(rng: &mut Lcg, mask: u8, lo: u8) -> Option<u8> {
    let span = 8 - lo;
    let start = rng.next_below(u64::from(span)) as u8;
    (0..span)
        .map(|k| lo + (start + k) % span)
        .find(|&n| mask & (1 << n) == 0)
}

/// Picks a random set bit of `mask` (which must be nonzero).
fn pick_set(rng: &mut Lcg, mask: u8) -> u8 {
    let start = rng.next_below(8) as u8;
    (0..8u8)
        .map(|k| (start + k) % 8)
        .find(|&n| mask & (1 << n) != 0)
        .expect("pick_set on nonzero mask")
}

/// Memory operand: in hot mode everything goes through `A7` with 4 word
/// addresses; otherwise any base register with a 32-word window.
fn mem_operand(rng: &mut Lcg, cfg: &SynthConfig) -> (Reg, i64) {
    if cfg.hot_addresses {
        (Reg::a(7), rng.next_below(4) as i64)
    } else {
        (a_reg(rng), rng.next_below(32) as i64)
    }
}

/// Fallback A-file op when a clean destination is required but none is
/// available: a three-operand add that reads its own destination first,
/// so no pending value is lost.
fn fallback_a(a: &mut Asm, rng: &mut Lcg, p: &mut Pending) {
    let (d, k) = (a_reg(rng), a_reg(rng));
    p.read(d);
    p.read(k);
    a.a_add(d, d, k);
    p.write(d);
}

/// S-file counterpart of [`fallback_a`].
fn fallback_s(a: &mut Asm, rng: &mut Lcg, p: &mut Pending) {
    let (d, k) = (s_reg(rng), s_reg(rng));
    p.read(d);
    p.read(k);
    a.s_add(d, d, k);
    p.write(d);
}

/// Reads a written `B` register (preferring a pending one) back into a
/// clean `A` register, or falls back to plain arithmetic.
fn b_to_a_or_fallback(a: &mut Asm, rng: &mut Lcg, p: &mut Pending) {
    if p.b_written == 0 {
        return fallback_a(a, rng, p);
    }
    let Some(ad) = pick_clean(rng, p.a, 1) else {
        return fallback_a(a, rng, p);
    };
    let bs = pick_set(rng, if p.b != 0 { p.b } else { p.b_written });
    p.read(Reg::b(bs));
    a.b_to_a(Reg::a(ad), Reg::b(bs));
    p.write(Reg::a(ad));
}

/// `T`-file counterpart of [`b_to_a_or_fallback`].
fn t_to_s_or_fallback(a: &mut Asm, rng: &mut Lcg, p: &mut Pending) {
    if p.t_written == 0 {
        return fallback_s(a, rng, p);
    }
    let Some(sd) = pick_clean(rng, p.s, 1) else {
        return fallback_s(a, rng, p);
    };
    let ts = pick_set(rng, if p.t != 0 { p.t } else { p.t_written });
    p.read(Reg::t(ts));
    a.t_to_s(Reg::s(sd), Reg::t(ts));
    p.write(Reg::s(sd));
}

/// Emits one random non-branch instruction, keeping the pending-value
/// invariants (see [`Pending`]).
fn random_inst(a: &mut Asm, rng: &mut Lcg, cfg: &SynthConfig, p: &mut Pending) {
    let choices = if cfg.mem_ops { 16 } else { 14 };
    match rng.next_below(choices) {
        op @ (0 | 1 | 3) => {
            let (d, mut j, k) = (a_reg(rng), a_reg(rng), a_reg(rng));
            if p.is_pending(d) {
                j = d; // use the pending value instead of killing it
            }
            p.read(j);
            p.read(k);
            match op {
                0 => a.a_add(d, j, k),
                1 => a.a_sub(d, j, k),
                _ => a.a_mul(d, j, k),
            };
            p.write(d);
        }
        2 => {
            let (d, mut j) = (a_reg(rng), a_reg(rng));
            if p.is_pending(d) {
                j = d;
            }
            p.read(j);
            a.a_add_imm(d, j, rng.next_below(64) as i64);
            p.write(d);
        }
        4 => {
            // Immediate loads read nothing, so they need a clean dest.
            let imm = rng.next_below(1 << 12) as i64;
            match pick_clean(rng, p.a, 1) {
                Some(d) => {
                    a.a_imm(Reg::a(d), imm);
                    p.write(Reg::a(d));
                }
                None => {
                    let d = a_reg(rng);
                    p.read(d);
                    a.a_add_imm(d, d, imm & 63);
                    p.write(d);
                }
            }
        }
        op @ (5 | 6 | 9) => {
            let (d, mut j, k) = (s_reg(rng), s_reg(rng), s_reg(rng));
            if p.is_pending(d) {
                j = d;
            }
            p.read(j);
            p.read(k);
            match (op, rng.next_below(3)) {
                (5, _) => a.s_add(d, j, k),
                (6, _) => a.s_sub(d, j, k),
                (_, 0) => a.f_add(d, j, k),
                (_, 1) => a.f_sub(d, j, k),
                _ => a.f_mul(d, j, k),
            };
            p.write(d);
        }
        7 => {
            let (d, mut j, k) = (s_reg(rng), s_reg(rng), s_reg(rng));
            if p.is_pending(d) {
                j = d;
            }
            p.read(j);
            p.read(k);
            match rng.next_below(3) {
                0 => a.s_and(d, j, k),
                1 => a.s_or(d, j, k),
                _ => a.s_xor(d, j, k),
            };
            p.write(d);
        }
        8 => {
            let (d, mut j) = (s_reg(rng), s_reg(rng));
            if p.is_pending(d) {
                j = d;
            }
            p.read(j);
            let sh = rng.next_below(16) as i64;
            if rng.next_below(2) == 0 {
                a.s_shl(d, j, sh);
            } else {
                a.s_shr(d, j, sh);
            }
            p.write(d);
        }
        10 => {
            let imm = rng.next_below(1 << 16) as i64;
            match pick_clean(rng, p.s, 1) {
                Some(d) => {
                    a.s_imm(Reg::s(d), imm);
                    p.write(Reg::s(d));
                }
                None => fallback_s(a, rng, p),
            }
        }
        11 => {
            // transfers to/from the backup files
            match rng.next_below(4) {
                0 => match pick_clean(rng, p.b, 0) {
                    Some(bd) => {
                        let s = a_reg(rng);
                        p.read(s);
                        a.a_to_b(Reg::b(bd), s);
                        p.write(Reg::b(bd));
                    }
                    None => b_to_a_or_fallback(a, rng, p),
                },
                1 => b_to_a_or_fallback(a, rng, p),
                2 => match pick_clean(rng, p.t, 0) {
                    Some(td) => {
                        let s = s_reg(rng);
                        p.read(s);
                        a.s_to_t(Reg::t(td), s);
                        p.write(Reg::t(td));
                    }
                    None => t_to_s_or_fallback(a, rng, p),
                },
                _ => t_to_s_or_fallback(a, rng, p),
            }
        }
        12 => match pick_clean(rng, p.s, 1) {
            Some(sd) => {
                let s = a_reg(rng);
                p.read(s);
                a.a_to_s(Reg::s(sd), s);
                p.write(Reg::s(sd));
            }
            None => fallback_s(a, rng, p),
        },
        13 => match pick_clean(rng, p.a, 1) {
            Some(ad) => {
                let s = s_reg(rng);
                p.read(s);
                a.s_to_a(Reg::a(ad), s);
                p.write(Reg::a(ad));
            }
            None => fallback_a(a, rng, p),
        },
        14 => {
            let (base, disp) = mem_operand(rng, cfg);
            match pick_clean(rng, p.s, 1) {
                Some(d) => {
                    p.read(base);
                    a.ld_s(Reg::s(d), base, disp);
                    p.write(Reg::s(d));
                }
                None => {
                    // Store instead: no destination needed.
                    let src = s_reg(rng);
                    p.read(src);
                    p.read(base);
                    a.st_s(src, base, disp);
                }
            }
        }
        _ => {
            let src = s_reg(rng);
            let (base, disp) = mem_operand(rng, cfg);
            p.read(src);
            p.read(base);
            a.st_s(src, base, disp);
        }
    }
}

/// Reads back every still-pending register value through stores, so no
/// write is dead or unread at halt. Memory is wrapping scratch for
/// synthetic programs — these stores exist purely to *use* the values.
fn drain(a: &mut Asm, rng: &mut Lcg, cfg: &SynthConfig, p: &mut Pending) {
    // Pending S values go straight to memory.
    for n in 0..8u8 {
        if p.s & (1 << n) != 0 {
            let (base, disp) = mem_operand(rng, cfg);
            p.read(Reg::s(n));
            p.read(base);
            a.st_s(Reg::s(n), base, disp);
        }
    }
    // Pending T values come back through S1 (clean after the pass
    // above), then go to memory.
    for n in 0..8u8 {
        if p.t & (1 << n) != 0 {
            p.read(Reg::t(n));
            a.t_to_s(Reg::s(1), Reg::t(n));
            p.write(Reg::s(1));
            let (base, disp) = mem_operand(rng, cfg);
            p.read(Reg::s(1));
            p.read(base);
            a.st_s(Reg::s(1), base, disp);
        }
    }
    // Pending A values pass through S1 so the store base can stay in
    // the configured address window.
    for n in 0..8u8 {
        if p.a & (1 << n) != 0 {
            p.read(Reg::a(n));
            a.a_to_s(Reg::s(1), Reg::a(n));
            p.write(Reg::s(1));
            let (base, disp) = mem_operand(rng, cfg);
            p.read(Reg::s(1));
            p.read(base);
            a.st_s(Reg::s(1), base, disp);
        }
    }
    // Pending B values come back through A0 (always clean between
    // segments), then through S1 to memory.
    for n in 0..8u8 {
        if p.b & (1 << n) != 0 {
            p.read(Reg::b(n));
            a.b_to_a(Reg::a(0), Reg::b(n));
            p.write(Reg::a(0));
            p.read(Reg::a(0));
            a.a_to_s(Reg::s(1), Reg::a(0));
            p.write(Reg::s(1));
            let (base, disp) = mem_operand(rng, cfg);
            p.read(Reg::s(1));
            p.read(base);
            a.st_s(Reg::s(1), base, disp);
        }
    }
    debug_assert_eq!((p.a, p.s, p.b, p.t), (0, 0, 0, 0));
}

/// Generates a random, always-terminating program plus an initial memory.
///
/// Structure: a sequence of segments, each either a straight-line block
/// or a counted loop (`A0` counter, body free of writes to `A0` and of
/// inner branches), so every generated program halts. Generation tracks
/// pending register values (written but not yet read) and drains them
/// before `halt`, so the output is `ruu_analysis::lint`-clean by
/// construction.
#[must_use]
pub fn random_program(seed: u64, cfg: &SynthConfig) -> (Program, Memory) {
    let mut rng = Lcg::new(seed);
    let mut a = Asm::new(format!("synth-{seed:#x}"));
    let mut p = Pending::default();
    let mut mem = Memory::new(1 << 12);
    for i in 0..256 {
        mem.write(i, rng.next_u64() >> 8);
    }
    // Seed some registers so arithmetic has varied inputs. In hot mode
    // `A7` is pinned instead, so every memory op lands in one tiny
    // window.
    for i in 1..8u8 {
        if cfg.hot_addresses && i == 7 {
            a.a_imm(Reg::a(7), 64);
        } else {
            a.a_imm(Reg::a(i), rng.next_below(1 << 10) as i64);
        }
        p.write(Reg::a(i));
        a.s_imm(Reg::s(i), rng.next_below(1 << 20) as i64);
        p.write(Reg::s(i));
    }
    for _ in 0..cfg.segments {
        if rng.next_below(2) == 0 {
            for _ in 0..cfg.block_len {
                random_inst(&mut a, &mut rng, cfg, &mut p);
            }
        } else {
            let trips = 1 + rng.next_below(u64::from(cfg.max_trips)) as i64;
            let top = a.new_label();
            // A0 is clean here: the previous loop's closing branch read
            // it, and nothing else touches it.
            a.a_imm(Reg::a(0), trips);
            p.write(Reg::a(0));
            a.bind(top);
            for _ in 0..cfg.block_len {
                random_inst(&mut a, &mut rng, cfg, &mut p);
            }
            p.read(Reg::a(0));
            a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
            p.write(Reg::a(0));
            a.br_an(top);
            p.read(Reg::a(0));
        }
    }
    drain(&mut a, &mut rng, cfg, &mut p);
    a.halt();
    (a.assemble().expect("synthetic programs assemble"), mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ruu_analysis::{lint, LintOptions};
    use ruu_exec::Trace;

    #[test]
    fn random_programs_terminate_on_golden() {
        for seed in 0..20 {
            let (p, mem) = random_program(seed, &SynthConfig::default());
            let t =
                Trace::capture(&p, mem, 1_000_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (p1, _) = random_program(7, &SynthConfig::default());
        let (p2, _) = random_program(7, &SynthConfig::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn hot_addresses_collide() {
        let cfg = SynthConfig {
            hot_addresses: true,
            ..SynthConfig::default()
        };
        let (p, mem) = random_program(11, &cfg);
        let t = Trace::capture(&p, mem, 1_000_000).unwrap();
        // nearly all memory traffic lands in a handful of words
        use std::collections::HashMap;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for ev in t.events() {
            if let Some(ea) = ev.ea {
                *counts.entry(ea).or_default() += 1;
            }
        }
        if !counts.is_empty() {
            let top4: u64 = {
                let mut v: Vec<u64> = counts.values().copied().collect();
                v.sort_unstable_by(|a, b| b.cmp(a));
                v.iter().take(4).sum()
            };
            let total: u64 = counts.values().sum();
            assert!(top4 * 2 >= total, "hot addresses should dominate");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite guarantee: generated programs are lint-clean by
        /// construction. Default [`LintOptions`] (no memory bound —
        /// synthetic programs use memory as wrapping scratch, so the
        /// footprint check does not apply).
        #[test]
        fn random_programs_are_lint_clean(
            seed in 0u64..1_000_000,
            hot in proptest::bool::ANY,
            mem_ops in proptest::bool::ANY,
        ) {
            let cfg = SynthConfig {
                hot_addresses: hot,
                mem_ops,
                ..SynthConfig::default()
            };
            let (p, _) = random_program(seed, &cfg);
            let findings = lint(&p, &LintOptions::default());
            prop_assert!(
                findings.is_empty(),
                "seed {seed} (hot={hot}, mem_ops={mem_ops}): {findings:?}"
            );
        }
    }
}
