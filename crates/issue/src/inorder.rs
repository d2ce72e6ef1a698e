//! The in-order machines: the paper's simple-issue baseline (§2.2,
//! Table 1) and the Smith & Pleszkun precise-interrupt schemes (§4; their
//! reference \[5\]).
//!
//! Both are a CRAY-1-style in-order, blocking decode/issue stage: an
//! instruction issues only when (i) its source registers are readable,
//! (ii) its destination register is not busy, (iii) its functional unit
//! can accept it, and (iv) a result-bus slot is free at its completion
//! cycle. While an instruction waits, everything behind it waits too —
//! the degradation the out-of-order mechanisms exist to remove. Every
//! unit is pipelined and decode issues at most one instruction a cycle,
//! so (iii) always holds and the core does not check it.
//!
//! **The baseline is the in-order core without a commit stage.**
//! [`crate::Mechanism::Simple`] retires results as they complete, out of
//! program order, so its interrupts are *imprecise*, like the CRAY-1
//! scalar unit it models. [`crate::Mechanism::InOrderPrecise`] adds a
//! buffer of `entries` slots and an in-order commit stage, one commit per
//! cycle over the buffer→register-file path:
//!
//! * [`PreciseScheme::ReorderBuffer`] — results wait in a reorder buffer
//!   and update the register file in program order. A source register
//!   cannot be read until its producer *commits*, so the buffer
//!   "aggravates data dependencies" (§4);
//! * [`PreciseScheme::ReorderBufferBypass`] — same, but issue may read a
//!   completed value out of the buffer (expensive associative search +
//!   data paths), removing the aggravation;
//! * [`PreciseScheme::HistoryBuffer`] — results go straight to the
//!   register file (as in the imprecise baseline) while old values are
//!   banked for undo; performance equals the bypassed reorder buffer at
//!   the cost of a register-file read port;
//! * [`PreciseScheme::FutureFile`] — a second, eagerly-updated register
//!   file feeds issue while the architectural file is updated in order;
//!   again the performance of the bypassed buffer, for a duplicated
//!   register file.
//!
//! All four issue **in program order** (they fix interrupts, not
//! dependencies); the RUU's point (§5) is that one structure can do both.
//! The `section4` bench puts these machines next to the RUU.
//!
//! Because issue is in-order and blocking, the whole timing of an
//! instruction is fixed at issue: completion is `issue + latency`, and
//! commit is `max(completion, previous commit + 1)`. In-order issue with
//! readable operands also makes eager architectural update safe, so the
//! values are computed at issue too.
//!
//! The same fixed timing tells a stalled decode stage when it can next
//! move: each check that blocks issue names the first cycle its cause can
//! clear, and the core ends the cycles before that (or before the next
//! completion or commit, whichever comes first) as one idle span. A
//! completion or commit inside the stall cannot clear it, so the core
//! replays the stall at that cycle without deciding it again.

use std::collections::VecDeque;

use ruu_exec::{ArchState, Memory};
use ruu_isa::{semantics, FuClass, Program, Reg, NUM_REGS};
use ruu_sim_core::{
    DCache, MachineConfig, NullObserver, PipelineObserver, RunResult, RunStats, SlotReservation,
    StallReason,
};

use crate::common::{end_cycle, idle_cycles, FetchSlot, Frontend, Operand, Tag};
use crate::{InterruptFrame, IssueSimulator, RunOutcome, SimError};

/// Which Smith & Pleszkun structure guarantees precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreciseScheme {
    /// Simple reorder buffer: sources readable at producer *commit*.
    ReorderBuffer,
    /// Reorder buffer with bypass paths: sources readable at producer
    /// *completion*.
    ReorderBufferBypass,
    /// History buffer: register file updated at completion, old values
    /// banked; sources readable at completion.
    HistoryBuffer,
    /// Future file: issue reads the eagerly-updated future file; sources
    /// readable at completion.
    FutureFile,
}

impl PreciseScheme {
    /// `true` if a consumer may read its operand as soon as the producer
    /// completes (rather than commits).
    #[must_use]
    pub fn reads_at_completion(self) -> bool {
        !matches!(self, PreciseScheme::ReorderBuffer)
    }

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PreciseScheme::ReorderBuffer => "reorder-buffer",
            PreciseScheme::ReorderBufferBypass => "reorder-buffer+bypass",
            PreciseScheme::HistoryBuffer => "history-buffer",
            PreciseScheme::FutureFile => "future-file",
        }
    }
}

/// The in-order simulator: the baseline without a commit stage when
/// `buffer` is `None`, a §4 scheme with a buffer of `entries` slots when it
/// is `Some((scheme, entries))`.
#[derive(Debug, Clone)]
pub(crate) struct InOrder {
    pub(crate) config: MachineConfig,
    pub(crate) buffer: Option<(PreciseScheme, usize)>,
}

impl InOrder {
    /// [`run`], with the fault hook armed on instruction `fault`, if any.
    /// The baseline calls it with a constant `None` buffer: the inlined
    /// copy it gets has no commit stage at all.
    #[inline(always)]
    fn outcome<O: PipelineObserver + ?Sized>(
        &self,
        fault: Option<u64>,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut O,
    ) -> Result<(RunResult, bool), SimError> {
        match self.buffer {
            None => run(&self.config, None, fault, state, mem, program, limit, obs),
            b => run(&self.config, b, fault, state, mem, program, limit, obs),
        }
    }
}

impl IssueSimulator for InOrder {
    fn config(&self) -> &MachineConfig {
        &self.config
    }

    fn run_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunResult, SimError> {
        Ok(self.outcome(None, state, mem, program, limit, obs)?.0)
    }

    fn run_from(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
    ) -> Result<RunResult, SimError> {
        let obs = &mut NullObserver;
        Ok(self.outcome(None, state, mem, program, limit, obs)?.0)
    }

    fn run_with_fault(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        fault: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunOutcome, SimError> {
        let (r, interrupted) = self.outcome(Some(fault), state, mem, program, limit, obs)?;
        if !interrupted {
            return Ok(RunOutcome::Completed(r));
        }
        Ok(RunOutcome::Interrupted(InterruptFrame {
            resume_pc: r.state.pc,
            committed: r.instructions,
            cycle: r.cycles,
            state: r.state,
            memory: r.memory,
        }))
    }
}

/// A value an issued instruction overwrote: an interrupt taken before the
/// instruction reaches its update point puts it back.
#[derive(Debug, Clone, Copy)]
enum Overwritten {
    Reg(Reg, u64),
    Word(u64, u64),
}

/// Runs `program` on the in-order core, with an in-order commit stage
/// through a buffer of `entries` slots when `buffer` is
/// `Some((scheme, entries))`. Inlined into each call in [`InOrder`], so
/// the baseline, which passes a constant `None`, pays nothing for the
/// commit stage it does not have, nor does a run with a constant `None`
/// `fault` for the fault hook; it is compiled against [`NullObserver`]
/// for unobserved runs and against `dyn PipelineObserver` for observed
/// ones.
///
/// The core updates state as it issues. Instruction `fault` takes the
/// interrupt where it would update state, before it does (at commit, or
/// at completion on the baseline); every issued instruction that has not
/// reached that point then puts back the value it overwrote, youngest
/// first. On the §4 schemes those are a suffix in program order. The run
/// stops there and returns `true` with the machine at the interrupt: the
/// cycle, the instructions that updated state, and the state, with `pc`
/// at the faulting instruction, and memory. A run that drains returns
/// `false`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run<O: PipelineObserver + ?Sized>(
    cfg: &MachineConfig,
    buffer: Option<(PreciseScheme, usize)>,
    fault: Option<u64>,
    mut state: ArchState,
    mut mem: Memory,
    program: &Program,
    limit: u64,
    obs: &mut O,
) -> Result<(RunResult, bool), SimError> {
    let mut frontend = Frontend::new(state.pc);
    // Cycle at which each register's value becomes *readable*: at commit
    // for the plain reorder buffer, at completion otherwise.
    let mut reg_ready = [0u64; NUM_REGS];
    let reads_at_commit = buffer.is_some_and(|(scheme, _)| !scheme.reads_at_completion());
    let mut bus = SlotReservation::new(cfg.result_buses);
    let mut dcache = DCache::new(
        &cfg.dcache,
        cfg.fu_latency(FuClass::Memory),
        mem.len() as u64,
    );
    let mut stats = RunStats::default();
    let mut cycle: u64 = 0;
    let mut issued: u64 = 0;
    let mut last_commit: u64 = 0;
    // (completion cycle, seq) and (commit cycle, seq) of every in-flight
    // instruction. The completion list is in seq order and `next_done` is
    // its earliest cycle; every cycle something completes is stepped, so
    // what completes at `cycle` leaves in (cycle, seq) order. Commit times
    // rise with seq, so the commit list is a FIFO whose length is the
    // buffer occupancy; without a buffer the in-flight count is the
    // occupancy.
    let mut pending_complete: Vec<(u64, u64)> = Vec::new();
    let mut next_done = u64::MAX;
    let mut pending_commit: VecDeque<(u64, u64)> = VecDeque::new();
    // The stall decode is held in until its wake cycle, and the pc
    // presented to it meanwhile: (reason, wake, pc).
    let mut held: Option<(StallReason, u64, Option<u32>)> = None;
    // Hook state: (update cycle, seq, value overwritten) per issued instruction,
    // the faulting one's (update cycle, seq, pc), and the Nops issued after it.
    let mut undo: VecDeque<(u64, u64, Overwritten)> = VecDeque::new();
    let mut faulting: Option<(u64, u64, u32)> = None;
    let mut younger_nops: u64 = 0;

    'run: loop {
        if let Some((at, k, pc)) = faulting.filter(|&(at, _, _)| at <= cycle) {
            let mut committed = issued - stats.branches - younger_nops;
            for &(_, _, old) in undo.iter().rev().filter(|u| (u.0, u.1) >= (at, k)) {
                committed -= 1;
                match old {
                    Overwritten::Reg(r, v) => state.set_reg(r, v),
                    Overwritten::Word(ea, v) => mem.write(ea, v),
                }
            }
            state.pc = pc;
            let r = RunResult {
                cycles: cycle,
                instructions: committed,
                state,
                memory: mem,
                stats,
            };
            return Ok((r, true));
        }
        if next_done <= cycle {
            next_done = u64::MAX;
            pending_complete.retain(|&(done_at, seq)| {
                if done_at <= cycle {
                    obs.complete(cycle, seq);
                    return false;
                }
                next_done = next_done.min(done_at);
                true
            });
        }
        while let Some(&(commit_at, seq)) = pending_commit.front() {
            if commit_at > cycle {
                break;
            }
            obs.commit(cycle, seq);
            pending_commit.pop_front();
        }
        let occ = match buffer {
            Some(_) => pending_commit.len(),
            None => pending_complete.len(),
        } as u32;

        // The stall reason, if decode cannot issue, and the first cycle at
        // which its cause can clear. Checks run in order and each one that
        // passes keeps passing, so until that cycle decode stalls for the
        // same reason (`cycle + 1` where that cannot be promised). A
        // completion or commit before then changes nothing decode sees:
        // that cycle replays the held stall instead of deciding it again.
        let replay = held.filter(|&(_, wake, _)| cycle < wake);
        let stall = 'issue: {
            if let Some((reason, wake, pc)) = replay {
                let drained = pending_complete.is_empty() && pending_commit.is_empty();
                if reason == StallReason::Drained && drained {
                    break 'run;
                }
                if let Some(pc) = pc {
                    obs.fetch(cycle, pc);
                }
                break 'issue Some((reason, wake));
            }
            let (pc, inst, parked) = match frontend.peek(cycle, program) {
                FetchSlot::Inst(pc, inst) => {
                    if issued >= limit {
                        return Err(SimError::InstLimit { limit });
                    }
                    obs.fetch(cycle, pc);
                    (pc, inst, false)
                }
                FetchSlot::BranchParked => {
                    let pc = frontend.pending_branch().expect("branch is parked").pc;
                    (pc, &program[pc], true)
                }
                FetchSlot::Dead => {
                    break 'issue Some((StallReason::DeadCycle, frontend.next_fetch_cycle()))
                }
                // The frontend is empty, but issued instructions may still
                // be completing or committing: attribute the drain tail
                // instead of dropping it.
                FetchSlot::Halted if pending_complete.is_empty() && pending_commit.is_empty() => {
                    break 'run
                }
                FetchSlot::Halted => break 'issue Some((StallReason::Drained, u64::MAX)),
            };

            if inst.is_branch() {
                let cond_reg = inst.src1;
                if let Some(r) = cond_reg.filter(|r| reg_ready[r.index()] > cycle) {
                    if !parked {
                        let cond = Operand::Waiting(Tag {
                            reg: r,
                            instance: 0,
                        });
                        frontend.park_branch(pc, *inst, cond);
                    }
                    break 'issue Some((StallReason::BranchWait, reg_ready[r.index()]));
                }
                let v = cond_reg.map_or(0, |r| state.reg(r));
                frontend.resolve_branch(cycle, inst, v, cfg, &mut stats);
                obs.issue(cycle, issued);
                break 'issue None;
            }
            // Nop: issues unconditionally, touches nothing.
            let Some(fu) = inst.fu_class() else {
                younger_nops += u64::from(fault.is_some() && faulting.is_some());
                obs.issue(cycle, issued);
                frontend.advance();
                break 'issue None;
            };

            // (i) sources readable
            let ready = |r: Option<Reg>| r.map_or(0, |r| reg_ready[r.index()]);
            let readable = ready(inst.src1).max(ready(inst.src2));
            if readable > cycle {
                break 'issue Some((StallReason::OperandsNotReady, readable));
            }
            // (ii) destination not busy: one outstanding write per
            // register keeps every machine's bookkeeping a plain busy bit
            let written = inst.dst.map(|d| reg_ready[d.index()]);
            if let Some(at) = written.filter(|&at| at > cycle) {
                break 'issue Some((StallReason::DestinationBusy, at));
            }
            // A load's port and latency come from the data cache (the
            // perfect cache answers with the fixed memory-unit latency);
            // everything else runs at its unit's fixed latency.
            let s1 = inst.src1.map_or(0, |r| state.reg(r));
            let ea = semantics::effective_address(s1, inst.imm);
            let load_ea = inst.is_load().then(|| mem.canonicalize(ea));
            let lat = match load_ea {
                Some(ea) => match dcache.plan(ea, cycle).latency() {
                    Some(lat) => lat,
                    // every outstanding-miss register busy: the blocking
                    // decode stage stalls in place until one frees
                    None => {
                        let free = dcache.next_fill().expect("only a finite cache blocks");
                        break 'issue Some((StallReason::MemStall, free));
                    }
                },
                None => cfg.fu_latency(fu),
            };
            let complete = cycle + lat;
            // (iv) a result-bus slot at completion
            if inst.dst.is_some() && !bus.available(complete) {
                break 'issue Some((StallReason::BusConflict, cycle + 1));
            }
            // (v) a free buffer slot
            if buffer.is_some_and(|(_, entries)| pending_commit.len() >= entries) {
                break 'issue Some((StallReason::WindowFull, cycle + 1));
            }

            // Issue. Timing:
            if inst.dst.is_some() {
                bus.try_reserve(cycle, complete);
            }
            if let Some(ea) = load_ea {
                if dcache.is_finite() {
                    let plan = dcache.access(ea, cycle);
                    obs.mem_access(cycle, ea, plan.is_hit(), lat);
                }
            }
            let commit = complete.max(last_commit + 1);
            if let Some(d) = inst.dst {
                reg_ready[d.index()] = if reads_at_commit { commit } else { complete };
            }
            obs.issue(cycle, issued);
            obs.dispatch(cycle, issued, fu, complete);
            pending_complete.push((complete, issued));
            next_done = next_done.min(complete);
            if buffer.is_some() {
                last_commit = commit;
                pending_commit.push_back((commit, issued));
            }

            // Function:
            let s2 = inst.src2.map_or(0, |r| state.reg(r));
            if fault.is_some() {
                let at = if buffer.is_some() { commit } else { complete };
                if fault == Some(issued) {
                    faulting = Some((at, issued, pc));
                }
                while undo.front().is_some_and(|u| u.0 <= cycle) {
                    undo.pop_front();
                }
                let old = match inst.dst {
                    Some(d) => Overwritten::Reg(d, state.reg(d)),
                    None => Overwritten::Word(ea, mem.read(ea)),
                };
                // Putting back the baseline's updates, not a suffix, is
                // exact: a register has one outstanding write
                // (`DestinationBusy`), and stores, all of the memory unit's
                // fixed latency, complete in program order.
                debug_assert!(
                    buffer.is_some()
                        || undo.iter().all(|u| match (u.2, old) {
                            (Overwritten::Reg(r, _), Overwritten::Reg(d, _)) =>
                                r != d || u.0 <= cycle,
                            (Overwritten::Word(..), Overwritten::Word(..)) => u.0 <= at,
                            _ => true,
                        })
                );
                undo.push_back((at, issued, old));
            }
            if inst.is_load() {
                state.set_reg(inst.dst.expect("load writes a register"), mem.read(ea));
            } else if inst.is_store() {
                mem.write(ea, s2);
            } else if let Some(d) = inst.dst {
                state.set_reg(d, semantics::alu_result(inst.opcode, s1, s2, inst.imm));
            }
            frontend.advance();
            None
        };

        match stall {
            Some((reason, _)) => {
                stats.stall(reason);
                obs.stall(cycle, reason);
            }
            None => {
                issued += 1;
                stats.issue_cycles += 1;
            }
        }
        end_cycle(obs, &mut stats, &mut cycle, occ);

        // Until the stall's cause clears and nothing completes or commits,
        // every cycle repeats this one.
        held = match stall {
            Some((reason, wake)) if wake > cycle => {
                Some(replay.unwrap_or_else(|| (reason, wake, frontend.presented(cycle, program))))
            }
            _ => None,
        };
        if let Some((reason, wake, pc)) = held {
            let commits = pending_commit.front().map_or(u64::MAX, |e| e.0);
            let until = wake.min(next_done).min(commits);
            if until > cycle {
                idle_cycles(obs, &mut stats, &mut cycle, until, pc, reason, occ);
            }
        }
    }

    state.pc = frontend.pc();
    let cs = dcache.stats();
    stats.dcache_accesses = cs.accesses;
    stats.dcache_hits = cs.hits;
    stats.dcache_misses = cs.misses;
    let r = RunResult {
        cycles: cycle,
        instructions: issued,
        state,
        memory: mem,
        stats,
    };
    Ok((r, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mechanism;
    use ruu_isa::{Asm, Reg};
    use ruu_workloads::livermore;

    fn cfg() -> MachineConfig {
        MachineConfig::paper()
    }

    fn precise(scheme: PreciseScheme, entries: usize) -> Box<dyn IssueSimulator> {
        Mechanism::InOrderPrecise { scheme, entries }.build(&cfg())
    }

    fn run_simple(asm: Asm) -> RunResult {
        let p = asm.assemble().unwrap();
        Mechanism::Simple
            .build(&MachineConfig::paper())
            .run(&p, Memory::new(1 << 12), 100_000)
            .unwrap()
    }

    #[test]
    fn independent_instructions_issue_every_cycle() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 1);
        a.a_imm(Reg::a(2), 2);
        a.a_imm(Reg::a(3), 3);
        a.halt();
        let r = run_simple(a);
        assert_eq!(r.instructions, 3);
        // issue cycles 0,1,2; transfers complete at 1,2,3
        assert_eq!(r.cycles, 3);
        assert_eq!(r.state.reg(Reg::a(3)), 3);
    }

    #[test]
    fn raw_dependence_blocks_issue() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 5); // issues @0, A1 ready @1
        a.a_add(Reg::a(2), Reg::a(1), Reg::a(1)); // issues @1, A2 ready @3
        a.a_add(Reg::a(3), Reg::a(2), Reg::a(2)); // waits: issues @3, ready @5
        a.halt();
        let r = run_simple(a);
        assert_eq!(r.state.reg(Reg::a(3)), 20);
        assert_eq!(r.cycles, 5);
        assert_eq!(r.stats.stalls(StallReason::OperandsNotReady), 1);
    }

    #[test]
    fn waw_blocks_issue() {
        let mut a = Asm::new("t");
        a.f_add(Reg::s(1), Reg::s(0), Reg::s(0)); // @0, S1 ready @6
        a.a_imm(Reg::a(1), 1); // @1, independent
        a.s_imm(Reg::s(1), 7); // WAW on S1: must wait until @6
        a.halt();
        let r = run_simple(a);
        assert!(r.stats.stalls(StallReason::DestinationBusy) > 0);
        assert_eq!(r.state.reg(Reg::s(1)), 7);
    }

    #[test]
    fn result_bus_conflict_delays_issue() {
        // Two ops that would complete in the same cycle on one bus:
        // f.add (lat 6) @0 completes @6; s.add (lat 3) would complete @6
        // if issued @3.
        let mut a = Asm::new("t");
        a.f_add(Reg::s(1), Reg::s(0), Reg::s(0));
        a.a_imm(Reg::a(1), 1);
        a.a_imm(Reg::a(2), 2);
        a.s_add(Reg::s(2), Reg::s(3), Reg::s(4)); // would issue @3 → completes @6: conflict
        a.halt();
        let r = run_simple(a);
        assert_eq!(r.stats.stalls(StallReason::BusConflict), 1);
    }

    #[test]
    fn taken_branch_costs_dead_cycles() {
        // A 2-iteration loop; measure that dead cycles appear.
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 2);
        a.bind(top);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let r = run_simple(a);
        assert_eq!(r.instructions, 5);
        assert_eq!(r.stats.branches, 2);
        assert_eq!(r.stats.taken_branches, 1);
        assert!(
            r.stats.stalls(StallReason::DeadCycle) >= MachineConfig::paper().branch_taken_penalty
        );
    }

    #[test]
    fn branch_waits_for_condition() {
        let mut a = Asm::new("t");
        let out = a.new_label();
        a.ld_a(Reg::a(0), Reg::a(1), 0); // A0 ready @11
        a.br_az(out); // must wait for the load
        a.nop();
        a.bind(out);
        a.halt();
        let r = run_simple(a);
        assert!(r.stats.stalls(StallReason::BranchWait) >= 9);
    }

    #[test]
    fn memory_roundtrip_and_final_state() {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 64);
        a.s_imm(Reg::s(1), 9);
        a.st_s(Reg::s(1), Reg::a(1), 0);
        a.ld_s(Reg::s(2), Reg::a(1), 0);
        a.halt();
        let r = run_simple(a);
        assert_eq!(r.state.reg(Reg::s(2)), 9);
        assert_eq!(r.memory.read(64), 9);
    }

    #[test]
    fn matches_golden_interpreter() {
        // A small loop with loads, stores, floats and branches.
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 8);
        a.a_imm(Reg::a(1), 128);
        a.s_imm(Reg::s(1), 3);
        a.bind(top);
        a.st_s(Reg::s(1), Reg::a(1), 0);
        a.ld_s(Reg::s(2), Reg::a(1), 0);
        a.s_add(Reg::s(1), Reg::s(1), Reg::s(2));
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();

        let golden = ruu_exec::Trace::capture(&p, Memory::new(1 << 12), 100_000).unwrap();
        let r = Mechanism::Simple
            .build(&MachineConfig::paper())
            .run(&p, Memory::new(1 << 12), 100_000)
            .unwrap();
        assert_eq!(r.instructions, golden.len() as u64);
        assert_eq!(&r.state, golden.final_state());
        assert_eq!(&r.memory, golden.final_memory());
    }

    fn all_schemes() -> [PreciseScheme; 4] {
        [
            PreciseScheme::ReorderBuffer,
            PreciseScheme::ReorderBufferBypass,
            PreciseScheme::HistoryBuffer,
            PreciseScheme::FutureFile,
        ]
    }

    #[test]
    fn all_schemes_match_golden_on_a_kernel() {
        let w = livermore::lll5();
        let g = w.golden_trace().unwrap();
        for scheme in all_schemes() {
            let r = precise(scheme, 8)
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert_eq!(&r.state.regs, &g.final_state().regs, "{}", scheme.name());
            assert_eq!(&r.memory, g.final_memory(), "{}", scheme.name());
            w.verify(&r.memory).unwrap();
        }
    }

    #[test]
    fn plain_reorder_buffer_aggravates_dependencies() {
        // Paper §4: "the value of a register cannot be read till it has
        // been updated by the reorder buffer". A consumer right behind a
        // long-latency producer pays extra commit-wait cycles.
        let mut a = Asm::new("t");
        a.f_recip(Reg::s(1), Reg::s(0)); // long
        a.s_imm(Reg::s(2), 3); // quick, commits behind the recip
        a.s_add(Reg::s(3), Reg::s(2), Reg::s(2)); // consumer of the quick one
        a.halt();
        let p = a.assemble().unwrap();
        let plain = precise(PreciseScheme::ReorderBuffer, 8)
            .run(&p, Memory::new(1 << 8), 1000)
            .unwrap();
        let bypass = precise(PreciseScheme::ReorderBufferBypass, 8)
            .run(&p, Memory::new(1 << 8), 1000)
            .unwrap();
        assert!(
            plain.cycles > bypass.cycles,
            "plain {} should exceed bypassed {}",
            plain.cycles,
            bypass.cycles
        );
        assert_eq!(plain.state.regs, bypass.state.regs);
    }

    #[test]
    fn bypass_history_and_future_file_perform_identically() {
        // Paper §4: the three full-visibility schemes have the same
        // performance (they differ in hardware cost, not timing).
        let w = livermore::lll1();
        let runs: Vec<u64> = [
            PreciseScheme::ReorderBufferBypass,
            PreciseScheme::HistoryBuffer,
            PreciseScheme::FutureFile,
        ]
        .into_iter()
        .map(|s| {
            precise(s, 10)
                .run(&w.program, w.memory.clone(), w.inst_limit)
                .unwrap()
                .cycles
        })
        .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn bypassed_buffer_costs_little_over_the_imprecise_baseline() {
        // Paper §4: "with a bypass mechanism, the issue rate of the
        // machine is not degraded considerably if the size of the buffer
        // is reasonably large".
        let w = livermore::lll12();
        let base = Mechanism::Simple
            .build(&cfg())
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        let rb = precise(PreciseScheme::ReorderBufferBypass, 12)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        let ratio = rb.cycles as f64 / base.cycles as f64;
        assert!(
            ratio < 1.10,
            "bypassed reorder buffer should cost <10% over baseline, got {ratio:.3}"
        );
    }

    #[test]
    fn tiny_buffer_throttles_issue() {
        let w = livermore::lll7();
        let small = precise(PreciseScheme::ReorderBufferBypass, 1)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        let big = precise(PreciseScheme::ReorderBufferBypass, 16)
            .run(&w.program, w.memory.clone(), w.inst_limit)
            .unwrap();
        assert!(small.cycles > big.cycles);
        assert!(small.stats.stalls(StallReason::WindowFull) > 0);
        assert_eq!(small.state.regs, big.state.regs);
    }

    #[test]
    fn the_baseline_takes_each_fault_where_the_instruction_completes() {
        // Every instruction with a unit reaches its update point; what the
        // interrupt puts back is checked by the hook's debug assertions.
        let w = livermore::lll7();
        let trace = w.golden_trace().unwrap();
        let sim = Mechanism::Simple.build(&cfg());
        let faultable = trace.events().filter(|ev| ev.inst.fu_class().is_some());
        for ev in faultable.step_by(13) {
            let (mem, obs) = (w.memory.clone(), &mut ruu_sim_core::NullObserver);
            let outcome = sim
                .run_with_fault(ArchState::new(), mem, &w.program, 1_000_000, ev.index, obs)
                .unwrap();
            let RunOutcome::Interrupted(frame) = outcome else {
                panic!("instruction {} completes", ev.index);
            };
            assert_eq!(frame.resume_pc, ev.pc);
        }
    }

    #[test]
    fn nops_younger_than_the_fault_have_not_committed() {
        // Both Nops issue while the reciprocal, instruction 1, is still in
        // flight; only instruction 0 has updated state when it faults.
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 1);
        a.f_recip(Reg::s(1), Reg::s(0));
        a.nop();
        a.nop();
        a.halt();
        let p = a.assemble().unwrap();
        let sims = all_schemes().into_iter().map(|s| precise(s, 8));
        for sim in sims.chain([Mechanism::Simple.build(&cfg())]) {
            let (mem, obs) = (Memory::new(1 << 8), &mut ruu_sim_core::NullObserver);
            let outcome = sim
                .run_with_fault(ArchState::new(), mem, &p, 100, 1, obs)
                .unwrap();
            let RunOutcome::Interrupted(frame) = outcome else {
                panic!("the reciprocal completes");
            };
            assert_eq!(frame.committed, 1);
        }
    }

    #[test]
    fn scheme_names_are_distinct() {
        let mut names: Vec<&str> = all_schemes().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
