//! The one out-of-order core behind the tagged mechanisms
//! ([`crate::TaggedSim`]: Tomasulo, Tag Unit, RS pool, RSTU), the RUU
//! ([`crate::Ruu`]) and the speculative RUU ([`crate::SpecRuu`]).
//!
//! The paper's dynamic mechanisms differ only in *where reservation
//! stations live and how many tags exist* (§3.2); the RUU is an RSTU
//! managed as a queue (§5), and §7 speculation is that same RUU plus
//! nullification. The core therefore has one window-entry type, one event
//! map, one memory pipeline (address generation → load registers → data
//! cache → forwarding), one dispatch select and one run loop, and a
//! [`Policy`] with three axes picks the mechanism:
//!
//! * [`Stations`] — where stations and tags live. The tagged kinds size
//!   their stations and tags by [`WindowKind`], name a result by its
//!   producer's sequence number, and let the register file capture the
//!   latest instance as it completes. The RUU is a FIFO of `entries`
//!   slots whose tags are the register number plus an LI counter, bounded
//!   by NI counters (§5.1), with one of three [`Bypass`] read policies.
//! * [`Update`] — when results update state: as they complete (stores
//!   write memory at execute, behind [`Machine::store_may_exec`]) or in
//!   program order at commit, which makes interrupts precise (§4–5).
//! * [`Branches`] — what happens to an unresolved branch: it parks in
//!   decode until its condition arrives (§6.3), or a predictor picks a
//!   path and wrong-path work is nullified (§7).
//!
//! Each cycle runs, in order: completions, address generation, forwarded
//! loads, dispatch (memory first, then by age — §5.1), commit, branch
//! resolution, decode/issue.

use std::collections::{BTreeMap, VecDeque};

use ruu_exec::{ArchState, Memory};
use ruu_isa::{semantics, FuClass, Inst, Program, Reg, NUM_REGS};
use ruu_sim_core::{
    DCache, FuPool, LoadRegUnit, LrOutcome, MachineConfig, MemOpKind, NullObserver,
    PipelineObserver, RunResult, RunStats, SlotReservation, StallReason,
};

use crate::common::{end_cycle, Broadcasts, FetchSlot, Frontend, Operand, Tag};
use crate::predict::{Predictor, PredictorConfig};
use crate::ruu::{Bypass, InterruptFrame, RunOutcome};
use crate::simulator::IssueSimulator;
use crate::spec_ruu::SpecStats;
use crate::tagged::WindowKind;
use crate::SimError;

/// Where reservation stations and tags live.
#[derive(Debug, Clone, Copy)]
pub enum Stations {
    /// Associative stations and tags sized by the [`WindowKind`].
    Tagged(WindowKind),
    /// The RUU: a FIFO queue of `entries` slots with NI/LI counters.
    Queue {
        /// Queue entries.
        entries: usize,
        /// Operand read policy for results still in the queue.
        bypass: Bypass,
    },
}

/// When a result updates architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// As it completes, out of program order (imprecise).
    AtCompletion,
    /// In program order from the head of the queue (precise).
    AtCommit,
}

/// What happens to a branch whose condition is not yet available.
#[derive(Debug, Clone, Copy)]
pub enum Branches {
    /// It parks in decode; fetch waits for the condition.
    Park,
    /// A predictor built from this configuration picks the path.
    Predict(PredictorConfig),
}

/// The mechanism the core simulates. The tagged stations update state at
/// completion and the queue at commit; those are the two pairings the
/// paper's mechanisms use.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Where stations and tags live.
    pub stations: Stations,
    /// When results update state.
    pub update: Update,
    /// What happens to unresolved branches.
    pub branches: Branches,
}

/// The three public faces of the core. Each supplies its machine
/// configuration and policy; the [`IssueSimulator`] impl below serves all of them.
pub trait OutOfOrder: Send {
    /// The machine configuration.
    fn machine_config(&self) -> &MachineConfig;
    /// The mechanism.
    fn policy(&self) -> Policy;

    /// Runs `program` from zeroed registers, taking an interrupt when the
    /// dynamic instruction `fault_seq` reaches the point where it would
    /// update state.
    fn run_faulting(
        &self,
        program: &Program,
        mem: Memory,
        limit: u64,
        fault_seq: u64,
    ) -> Result<RunOutcome, SimError> {
        let (cfg, policy, state) = (self.machine_config(), self.policy(), ArchState::new());
        Machine::new(cfg, policy, state, mem, program, limit, &mut NullObserver)
            .run(Some(fault_seq), None)
            .map(|(outcome, _)| outcome)
    }
}

/// Unwraps the result of a run that had no fault injected.
pub fn expect_completed(outcome: RunOutcome) -> RunResult {
    match outcome {
        RunOutcome::Completed(r) => r,
        RunOutcome::Interrupted(_) => unreachable!("no fault was injected"),
    }
}

/// A predicting mechanism run through the uniform interface builds a fresh
/// predictor from its configuration, so `&self` runs stay independent and
/// repeatable.
impl<T: OutOfOrder> IssueSimulator for T {
    fn config(&self) -> &MachineConfig {
        self.machine_config()
    }

    fn run_observed(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
        obs: &mut dyn PipelineObserver,
    ) -> Result<RunResult, SimError> {
        let policy = self.policy();
        let mut owned = match policy.branches {
            Branches::Predict(p) => Some(p.build()),
            Branches::Park => None,
        };
        let predictor = owned.as_deref_mut().map(|p| p as &mut dyn Predictor);
        let cfg = self.machine_config();
        Machine::new(cfg, policy, state, mem, program, limit, obs)
            .run(None, predictor)
            .map(|(outcome, _)| expect_completed(outcome))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemPhase {
    /// Not a memory operation.
    NotMem,
    /// In the address-generation queue, not yet matched against the load
    /// registers.
    AwaitingLr,
    /// Load, no match: waiting to dispatch to the memory unit.
    ToMemory,
    /// Load, matched a pending operation: waiting for its data.
    AwaitingData,
    /// Load with data in hand: waiting for a result-bus slot.
    Forwarding,
    /// Store with its address recorded: waiting for data + memory port.
    StorePending,
}

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    pc: u32,
    inst: Inst,
    dst_tag: Option<Tag>,
    ops: [Operand; 2],
    /// Left its station for a unit (or booked the bus, for a forwarded
    /// load).
    dispatched: bool,
    executed: bool,
    result: Option<u64>,
    ea: Option<u64>,
    mem_phase: MemPhase,
    lr_provider: bool,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// The entry's result appears on the result bus (ALU op or load).
    Finish(u64),
    /// A store's address+data have been handed to the memory port.
    StoreExec(u64),
}

impl Event {
    fn seq(self) -> u64 {
        match self {
            Event::Finish(s) | Event::StoreExec(s) => s,
        }
    }
}

/// A branch fetched under [`Branches::Predict`], kept for resolution and
/// misprediction repair. Branches whose condition was known at decode get
/// a record too (`assumed_taken` = the actual outcome, so only predicted
/// ones can mispredict): a branch only counts architecturally when it reaches the
/// front of the record queue, i.e. when it is itself on the correct path.
#[derive(Debug, Clone)]
struct BranchRecord {
    seq: u64,
    pc: u32,
    inst: Inst,
    assumed_taken: bool,
    cond: Operand,
    /// pc of the *other* path, fetched on misprediction.
    repair_pc: u32,
    /// LI counters at prediction time (only issue advances LI, and every
    /// post-branch issue is squashed, so restoring is exact).
    li: [u64; NUM_REGS],
    /// A future file at prediction time (restoring is conservative: a
    /// legitimate older broadcast in between re-arrives via the commit
    /// bus, so a stale-invalid entry only delays, never corrupts).
    ff: [Option<u64>; 8],
}

/// Per-run state of the out-of-order core.
pub struct Machine<'a> {
    cfg: &'a MachineConfig,
    program: &'a Program,
    policy: Policy,
    limit: u64,
    fault_seq: Option<u64>,
    predictor: Option<&'a mut dyn Predictor>,
    obs: &'a mut dyn PipelineObserver,

    cycle: u64,
    arch: ArchState,
    mem: Memory,
    /// Tagged rename state: the latest in-flight producer per register
    /// (`None` = the register file value is current).
    reg_latest: [Option<Tag>; NUM_REGS],
    /// Queue rename state (§5.1): instances in the RUU and the latest
    /// instance per register, plus the A future file (§6.3; `None` =
    /// invalid).
    ni: [u32; NUM_REGS],
    li: [u64; NUM_REGS],
    ff: [Option<u64>; 8],
    /// In-flight instructions, oldest first.
    window: VecDeque<Entry>,
    branches: VecDeque<BranchRecord>,
    mem_queue: VecDeque<u64>,
    forward_queue: Vec<u64>,
    events: BTreeMap<u64, Vec<Event>>,
    lr: LoadRegUnit,
    fus: FuPool,
    bus: SlotReservation,
    dcache: DCache,
    frontend: Frontend,
    broadcasts: Broadcasts,
    stats: RunStats,
    spec: SpecStats,
    /// Fetch-stall cycles strictly before this cycle are misprediction
    /// repair (squash + redirect) rather than ordinary branch bubbles.
    repair_until: u64,

    /// Next dynamic sequence number (branches included).
    seq: u64,
    /// Instructions that have updated state (branches excluded; they
    /// count in `stats.branches` as they resolve).
    committed: u64,
    events_scheduled: u64,
    last_progress: (u64, u64, u64),
    last_progress_cycle: u64,
}

impl<'a> Machine<'a> {
    /// A machine about to run `program` from `state`.
    pub fn new(
        cfg: &'a MachineConfig,
        policy: Policy,
        state: ArchState,
        mem: Memory,
        program: &'a Program,
        limit: u64,
        obs: &'a mut dyn PipelineObserver,
    ) -> Self {
        let dcache = DCache::new(
            &cfg.dcache,
            cfg.fu_latency(FuClass::Memory),
            mem.len() as u64,
        );
        Machine {
            cfg,
            program,
            policy,
            limit,
            fault_seq: None,
            predictor: None,
            obs,
            cycle: 0,
            frontend: Frontend::new(state.pc),
            arch: state,
            mem,
            reg_latest: [None; NUM_REGS],
            ni: [0; NUM_REGS],
            li: [0; NUM_REGS],
            ff: [None; 8],
            window: VecDeque::new(),
            branches: VecDeque::new(),
            mem_queue: VecDeque::new(),
            forward_queue: Vec::new(),
            events: BTreeMap::new(),
            lr: LoadRegUnit::new(cfg.load_registers),
            fus: FuPool::new(),
            bus: SlotReservation::new(cfg.result_buses),
            dcache,
            broadcasts: Broadcasts::default(),
            stats: RunStats::default(),
            spec: SpecStats::default(),
            repair_until: 0,
            seq: 0,
            committed: 0,
            events_scheduled: 0,
            last_progress: (0, 0, 0),
            last_progress_cycle: 0,
        }
    }

    fn tag_mask(&self) -> u64 {
        (1u64 << self.cfg.counter_bits) - 1
    }

    /// Architectural completions: committed instructions plus resolved
    /// branches.
    fn completed(&self) -> u64 {
        self.committed + self.stats.branches
    }

    fn pos(&self, seq: u64) -> usize {
        self.window
            .iter()
            .position(|e| e.seq == seq)
            .expect("entry for live seq is in the window")
    }

    fn stall(&mut self, reason: StallReason) {
        self.stats.stall(reason);
        self.obs.stall(self.cycle, reason);
    }

    fn schedule(&mut self, cycle: u64, ev: Event) {
        self.events_scheduled += 1;
        self.events.entry(cycle).or_default().push(ev);
    }

    // ---- broadcast & wake ---------------------------------------------

    /// A (tag, value) pair appears on a bus: waiting stations, a parked
    /// branch and predicted branches gate it in.
    fn gate(&mut self, tag: Tag, value: u64) {
        self.broadcasts.push(tag, value);
        for e in &mut self.window {
            for op in &mut e.ops {
                op.gate(tag, value);
            }
        }
        if let Some(pb) = self.frontend.pending_branch_mut() {
            pb.cond.gate(tag, value);
        }
        for b in &mut self.branches {
            b.cond.gate(tag, value);
        }
    }

    /// A broadcast on the result bus. The tagged register file captures
    /// the latest instance of a register (Tomasulo's register-capture
    /// rule, so stale instances never clobber newer values); the RUU's A
    /// future file mirrors the result bus.
    fn broadcast_result(&mut self, tag: Tag, value: u64) {
        self.gate(tag, value);
        let r = tag.reg;
        match self.policy.stations {
            Stations::Tagged(_) => {
                if self.reg_latest[r.index()] == Some(tag) {
                    self.arch.set_reg(r, value);
                    self.reg_latest[r.index()] = None;
                }
            }
            Stations::Queue { .. } => {
                if r.is_a() && tag.instance == (self.li[r.index()] & self.tag_mask()) {
                    self.ff[r.num() as usize] = Some(value);
                }
            }
        }
    }

    /// `seq`'s data is ready: loads that matched it in the load registers
    /// queue for a result-bus slot.
    fn wake_forwarded_loads(&mut self, seq: u64, value: u64) {
        for w in self.lr.provider_ready(seq, value) {
            let i = self.pos(w);
            let e = &mut self.window[i];
            debug_assert_eq!(e.mem_phase, MemPhase::AwaitingData);
            e.result = Some(value);
            e.mem_phase = MemPhase::Forwarding;
            self.forward_queue.push(w);
            self.stats.forwarded_loads += 1;
        }
    }

    /// The fault hook: the interrupt frame if entry `i` is the designated
    /// faulting instruction. It fires where the instruction would update
    /// state, before it does.
    fn fault(&self, i: usize) -> Option<InterruptFrame> {
        let fault_seq = self.fault_seq?;
        let e = &self.window[i];
        if e.seq != fault_seq {
            return None;
        }
        let mut state = self.arch.clone();
        state.pc = e.pc;
        Some(InterruptFrame {
            state,
            memory: self.mem.clone(),
            resume_pc: e.pc,
            committed: self.committed,
            cycle: self.cycle,
        })
    }

    /// Entry `e`, just taken out of the window, updates architectural
    /// state.
    fn retire(&mut self, e: Entry) {
        if e.inst.is_store() {
            let ea = e.ea.expect("executed store has an address");
            self.mem.write(ea, e.ops[1].value());
            self.lr.retire(e.seq);
        }
        if self.policy.update == Update::AtCommit {
            if let Some(tag) = e.dst_tag {
                // The RUU→register-file bus: stations listen, the future
                // file does not.
                let v = e.result.expect("executed producer has a result");
                self.arch.set_reg(tag.reg, v);
                self.ni[tag.reg.index()] -= 1;
                self.gate(tag, v);
            }
            self.obs.commit(self.cycle, e.seq);
        }
        self.committed += 1;
    }

    // ---- phase 1: completions -------------------------------------------

    #[inline(never)]
    fn phase_completions(&mut self) -> Option<InterruptFrame> {
        let evs = self.events.remove(&self.cycle)?;
        let at_completion = self.policy.update == Update::AtCompletion;
        for ev in evs {
            let seq = ev.seq();
            let i = self.pos(seq);
            if at_completion {
                if let Some(frame) = self.fault(i) {
                    return Some(frame);
                }
            }
            self.obs.complete(self.cycle, seq);
            let e = &mut self.window[i];
            e.executed = true;
            match ev {
                Event::Finish(_) => {
                    let (dst_tag, value, is_load) = (e.dst_tag, e.result, e.inst.is_load());
                    let was_provider = e.lr_provider;
                    if let Some(tag) = dst_tag {
                        let v = value.expect("finished producer has a result");
                        self.broadcast_result(tag, v);
                    }
                    if is_load {
                        if was_provider {
                            let v = value.expect("finished load has data");
                            self.wake_forwarded_loads(seq, v);
                        }
                        self.lr.retire(seq);
                    }
                }
                Event::StoreExec(_) => {
                    let data = e.ops[1].value();
                    self.wake_forwarded_loads(seq, data);
                }
            }
            if at_completion {
                let e = self.window.remove(i).expect("completing entry is live");
                self.retire(e);
            }
        }
        None
    }

    // ---- phase 2: memory address generation (in program order) --------

    #[inline(never)]
    fn phase_addr_gen(&mut self) {
        let Some(&seq) = self.mem_queue.front() else {
            return;
        };
        let i = self.pos(seq);
        let e = &self.window[i];
        if !e.ops[0].is_ready() {
            return;
        }
        let kind = if e.inst.is_load() {
            MemOpKind::Load
        } else {
            MemOpKind::Store
        };
        // Canonicalize so the load registers compare the word actually
        // touched; raw effective addresses may alias one memory word.
        let ea = self
            .mem
            .canonicalize(semantics::effective_address(e.ops[0].value(), e.inst.imm));
        let Some(outcome) = self.lr.process(seq, kind, ea) else {
            return; // no free load register; retry next cycle
        };
        self.mem_queue.pop_front();
        let e = &mut self.window[i];
        e.ea = Some(ea);
        match outcome {
            LrOutcome::ToMemory => {
                e.mem_phase = MemPhase::ToMemory;
                e.lr_provider = true;
            }
            LrOutcome::Forwarded { value } => {
                e.result = Some(value);
                e.mem_phase = MemPhase::Forwarding;
                self.forward_queue.push(seq);
                self.stats.forwarded_loads += 1;
            }
            LrOutcome::WaitOn { .. } => e.mem_phase = MemPhase::AwaitingData,
            LrOutcome::StoreRecorded => e.mem_phase = MemPhase::StorePending,
        }
    }

    // ---- phase 3: forwarded-load broadcasts -----------------------------

    #[inline(never)]
    fn phase_forwards(&mut self) {
        let lat = self.cfg.forward_latency;
        let queue = std::mem::take(&mut self.forward_queue);
        let mut remaining = Vec::new();
        for seq in queue {
            if self.bus.try_reserve(self.cycle + lat) {
                // Booking the bus is this load's dispatch: its station
                // frees in the dispatch-released organisations.
                let i = self.pos(seq);
                self.window[i].dispatched = true;
                self.obs
                    .dispatch(self.cycle, seq, FuClass::Memory, self.cycle + lat);
                self.schedule(self.cycle + lat, Event::Finish(seq));
            } else {
                remaining.push(seq);
            }
        }
        self.forward_queue = remaining;
    }

    // ---- phase 4: dispatch to the functional units ------------------------

    /// A store that writes memory as it executes may hand its data to
    /// memory only when every older memory operation that will *read
    /// architectural memory* has sampled it (dispatched), and every older
    /// store has already done so — the memory port preserves program
    /// order. Without the first condition a younger store could clobber
    /// the word an older, bus-stalled load is about to read (WAR through
    /// memory).
    fn store_may_exec(&self, seq: u64) -> bool {
        !self.window.iter().any(|e| {
            e.seq < seq
                && !e.dispatched
                && matches!(e.mem_phase, MemPhase::ToMemory | MemPhase::StorePending)
        })
    }

    #[inline(never)]
    fn phase_dispatch(&mut self) {
        // Distributed organisations have a private path from each unit's
        // stations; the others share `dispatch_paths` ports.
        let mut paths = match self.policy.stations {
            Stations::Tagged(
                WindowKind::Distributed { .. } | WindowKind::TagUnitDistributed { .. },
            ) => u32::MAX,
            _ => self.cfg.dispatch_paths,
        };
        let stores_wait = self.policy.update == Update::AtCompletion;
        let mut candidates: Vec<(bool, u64)> = Vec::new();
        for e in &self.window {
            if e.dispatched {
                continue;
            }
            let ready = e.ops[0].is_ready() && e.ops[1].is_ready();
            match e.mem_phase {
                MemPhase::ToMemory => candidates.push((true, e.seq)),
                MemPhase::StorePending if ready && (!stores_wait || self.store_may_exec(e.seq)) => {
                    candidates.push((true, e.seq));
                }
                MemPhase::NotMem if ready && e.inst.fu_class().is_some() => {
                    candidates.push((false, e.seq));
                }
                _ => {}
            }
        }
        // Load/store priority first, then age (paper §5.1).
        candidates.sort_by_key(|&(is_mem, seq)| (!is_mem, seq));

        for (_, seq) in candidates {
            if paths == 0 {
                break;
            }
            let i = self.pos(seq);
            let e = &self.window[i];
            match e.mem_phase {
                MemPhase::ToMemory => {
                    let ea = e.ea.expect("address generated");
                    let plan = self.dcache.plan(ea, self.cycle);
                    let Some(lat) = plan.latency() else {
                        continue; // every outstanding-miss register busy: retry
                    };
                    if self.fus.can_accept(FuClass::Memory, self.cycle)
                        && self.bus.available(self.cycle + lat)
                    {
                        self.fus.accept(FuClass::Memory, self.cycle);
                        self.bus.try_reserve(self.cycle + lat);
                        let v = self.mem.read(ea);
                        let e = &mut self.window[i];
                        e.result = Some(v);
                        e.dispatched = true;
                        self.obs
                            .dispatch(self.cycle, seq, FuClass::Memory, self.cycle + lat);
                        if self.dcache.is_finite() {
                            let plan = self.dcache.access(ea, self.cycle);
                            self.obs.mem_access(self.cycle, ea, plan.is_hit(), lat);
                        }
                        self.schedule(self.cycle + lat, Event::Finish(seq));
                        paths -= 1;
                    }
                }
                MemPhase::StorePending if self.fus.can_accept(FuClass::Memory, self.cycle) => {
                    self.fus.accept(FuClass::Memory, self.cycle);
                    self.window[i].dispatched = true;
                    let done = self.cycle + self.cfg.store_exec_latency;
                    self.obs.dispatch(self.cycle, seq, FuClass::Memory, done);
                    self.schedule(done, Event::StoreExec(seq));
                    paths -= 1;
                }
                MemPhase::NotMem => {
                    let fu = e.inst.fu_class().expect("ALU entry has a unit");
                    let lat = self.cfg.fu_latency(fu);
                    if self.fus.can_accept(fu, self.cycle) && self.bus.available(self.cycle + lat) {
                        self.fus.accept(fu, self.cycle);
                        self.bus.try_reserve(self.cycle + lat);
                        let e = &mut self.window[i];
                        let v = semantics::alu_result(
                            e.inst.opcode,
                            e.ops[0].value(),
                            e.ops[1].value(),
                            e.inst.imm,
                        );
                        e.result = Some(v);
                        e.dispatched = true;
                        self.obs.dispatch(self.cycle, seq, fu, self.cycle + lat);
                        self.schedule(self.cycle + lat, Event::Finish(seq));
                        paths -= 1;
                    }
                }
                _ => {}
            }
        }
    }

    // ---- phase 5: in-order commit ------------------------------------------

    /// Commit from the head of the queue, gated on the oldest unresolved
    /// predicted branch: a speculative instruction may execute but never
    /// update architectural state.
    #[inline(never)]
    fn phase_commit(&mut self) -> Option<InterruptFrame> {
        let spec_boundary = self.branches.front().map(|b| b.seq);
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.window.front() else {
                break;
            };
            if !head.executed || spec_boundary.is_some_and(|b| head.seq > b) {
                break;
            }
            if let Some(frame) = self.fault(0) {
                // Precise interrupt: the faulting instruction does not
                // update any state; everything older already has.
                return Some(frame);
            }
            let head = self.window.pop_front().expect("head exists");
            self.retire(head);
        }
        None
    }

    // ---- phase 6: predicted-branch resolution ---------------------------

    /// Resolves the oldest predicted branches whose condition is available.
    #[inline(never)]
    fn phase_resolve_branches(&mut self) {
        while let Some(b) = self.branches.front() {
            if !b.cond.is_ready() {
                break;
            }
            let b = self.branches.pop_front().expect("front exists");
            let actual = semantics::branch_taken(b.inst.opcode, b.cond.value());
            if b.inst.opcode.is_cond_branch() {
                self.predictor
                    .as_deref_mut()
                    .expect("a predicting core has a predictor")
                    .update(b.pc, actual);
            }
            self.stats.branches += 1;
            if actual {
                self.stats.taken_branches += 1;
            }
            if actual != b.assumed_taken {
                self.spec.mispredicted += 1;
                self.stats.mispredicted_branches += 1;
                self.squash(&b);
                break; // younger branches were squashed with everything else
            }
        }
    }

    /// Nullifies every instruction younger than the mispredicted branch
    /// (paper §7: identify conditional instructions "and prevent them
    /// from being committed until they are proven to be from a correct
    /// path" — here they are removed outright).
    fn squash(&mut self, b: &BranchRecord) {
        // Youngest first: the load registers require that order.
        let squashed = self.window.len() - self.window.partition_point(|e| e.seq <= b.seq);
        self.spec.nullified += squashed as u64;
        self.obs.flush(self.cycle, squashed as u64);
        for _ in 0..squashed {
            let e = self.window.pop_back().expect("squashed entry is live");
            self.lr.squash(e.seq);
            // Undo the instance the squashed instruction acquired. (NI is
            // repaired per entry rather than snapshot-restored: older
            // instructions may have committed since the prediction, and
            // their NI decrements must survive the squash.)
            if let Some(tag) = e.dst_tag {
                self.ni[tag.reg.index()] -= 1;
            }
        }
        self.mem_queue.retain(|&s| s <= b.seq);
        self.forward_queue.retain(|&s| s <= b.seq);
        for evs in self.events.values_mut() {
            evs.retain(|ev| ev.seq() <= b.seq);
        }
        self.events.retain(|_, evs| !evs.is_empty());
        self.branches.clear(); // all younger than b

        // Restore the rename state from the branch's snapshot.
        self.li = b.li;
        self.ff = b.ff;

        // Redirect fetch to the repair path. The current cycle and the
        // `mispredict_penalty` cycles after it are all charged as
        // misprediction repair: `repair_stalls == flushes * (penalty + 1)`
        // is the invariant `FlushAccountant` checks.
        self.repair_until = self.cycle + 1 + self.cfg.mispredict_penalty;
        self.frontend.redirect(b.repair_pc, self.repair_until);
    }

    // ---- phase 7: decode / issue ----------------------------------------

    /// A source operand: a value, or the tag of its in-flight producer.
    fn read_operand(&self, r: Reg) -> Operand {
        let tag = match self.policy.stations {
            Stations::Tagged(_) => match self.reg_latest[r.index()] {
                None => return Operand::Ready(self.arch.reg(r)),
                Some(tag) => tag,
            },
            Stations::Queue { .. } => {
                if self.ni[r.index()] == 0 {
                    return Operand::Ready(self.arch.reg(r));
                }
                Tag {
                    reg: r,
                    instance: self.li[r.index()] & self.tag_mask(),
                }
            }
        };
        if let Some(v) = self.broadcasts.lookup(tag) {
            return Operand::Ready(v);
        }
        let Stations::Queue { bypass, .. } = self.policy.stations else {
            return Operand::Waiting(tag);
        };
        let bypassed = match bypass {
            Bypass::None => None,
            Bypass::Full => self
                .window
                .iter()
                .find(|e| e.dst_tag == Some(tag) && e.executed)
                .map(|e| e.result.expect("executed producer has a result")),
            Bypass::LimitedA => r.is_a().then(|| self.ff[r.num() as usize]).flatten(),
        };
        bypassed.map_or(Operand::Waiting(tag), Operand::Ready)
    }

    /// The stall that keeps `inst` out of the window this cycle, if any.
    fn issue_blocked(&self, inst: &Inst) -> Option<StallReason> {
        let full = match self.policy.stations {
            Stations::Queue { entries, .. } => self.window.len() >= entries,
            Stations::Tagged(kind) => {
                let stations_in_use = |fu: Option<FuClass>| {
                    self.window
                        .iter()
                        .filter(|e| {
                            !e.dispatched && fu.is_none_or(|f| e.inst.fu_class() == Some(f))
                        })
                        .count()
                };
                // A Nop occupies no station.
                kind.tag_capacity().is_some_and(|t| self.window.len() >= t)
                    || inst.fu_class().is_some_and(|fu| match kind {
                        WindowKind::Distributed { rs_per_fu }
                        | WindowKind::TagUnitDistributed { rs_per_fu, .. } => {
                            stations_in_use(Some(fu)) >= rs_per_fu
                        }
                        WindowKind::Pooled { rs, .. } => stations_in_use(None) >= rs,
                        WindowKind::Merged { .. } => false, // covered by the tags
                    })
            }
        };
        if full {
            return Some(StallReason::WindowFull);
        }
        if let (Stations::Queue { .. }, Some(d)) = (self.policy.stations, inst.dst) {
            if self.ni[d.index()] >= self.cfg.max_instances() {
                return Some(StallReason::RegInstanceLimit);
            }
        }
        if inst.is_mem() && self.lr.is_full() {
            return Some(StallReason::LoadRegFull);
        }
        None
    }

    /// Acquires a fresh instance of destination register `d`.
    fn rename(&mut self, d: Reg, seq: u64) -> Tag {
        match self.policy.stations {
            Stations::Tagged(_) => {
                let tag = Tag {
                    reg: d,
                    instance: seq,
                };
                self.reg_latest[d.index()] = Some(tag);
                tag
            }
            Stations::Queue { .. } => {
                self.ni[d.index()] += 1;
                self.li[d.index()] += 1;
                if d.is_a() {
                    self.ff[d.num() as usize] = None;
                }
                Tag {
                    reg: d,
                    instance: self.li[d.index()] & self.tag_mask(),
                }
            }
        }
    }

    /// Counts `seq` as issued this cycle.
    fn count_issue(&mut self) {
        self.obs.issue(self.cycle, self.seq);
        self.seq += 1;
        self.stats.issue_cycles += 1;
    }

    /// A branch resolved in decode: redirect fetch and count it.
    fn resolve_in_decode(&mut self, inst: &Inst, cond: u64) {
        self.frontend
            .resolve_branch(self.cycle, inst, cond, self.cfg, &mut self.stats);
        self.count_issue();
    }

    /// Decodes a branch under [`Branches::Predict`]: fetch follows the
    /// actual outcome if the condition is already known, the predictor's
    /// guess otherwise. Either way the branch is *counted* only when it
    /// reaches the front of the record queue — it may itself be sitting
    /// on an older branch's wrong path.
    fn predict_branch(&mut self, pc: u32, inst: Inst, cond: Operand) {
        let target = inst.target.expect("branch has a target");
        let (assumed_taken, speculative) = match cond {
            Operand::Ready(v) => (semantics::branch_taken(inst.opcode, v), false),
            Operand::Waiting(_) => {
                self.spec.predicted += 1;
                self.stats.predicted_branches += 1;
                let predictor = self
                    .predictor
                    .as_deref_mut()
                    .expect("a predicting core has a predictor");
                (predictor.predict(pc, target), true)
            }
        };
        let (next_pc, repair_pc, bubble) = match (assumed_taken, speculative) {
            (true, true) => (target, pc + 1, self.cfg.spec_taken_bubble),
            (true, false) => (target, pc + 1, self.cfg.branch_taken_penalty),
            (false, true) => (pc + 1, target, 0),
            (false, false) => (pc + 1, target, self.cfg.branch_untaken_penalty),
        };
        self.branches.push_back(BranchRecord {
            seq: self.seq,
            pc,
            inst,
            assumed_taken,
            cond,
            repair_pc,
            li: self.li,
            ff: self.ff,
        });
        self.count_issue();
        self.frontend.redirect(next_pc, self.cycle + 1 + bubble);
    }

    #[inline(never)]
    fn phase_issue(&mut self) -> Result<(), SimError> {
        match self.frontend.peek(self.cycle, self.program) {
            FetchSlot::Halted => {
                self.frontend.set_halted();
                self.stall(StallReason::Drained);
            }
            FetchSlot::Dead if self.cycle < self.repair_until => {
                self.stall(StallReason::MispredictRepair);
            }
            FetchSlot::Dead => self.stall(StallReason::DeadCycle),
            FetchSlot::BranchParked => {
                let pb = *self.frontend.pending_branch().expect("branch is parked");
                if pb.cond.is_ready() {
                    self.resolve_in_decode(&pb.inst, pb.cond.value());
                } else {
                    self.stall(StallReason::BranchWait);
                }
            }
            FetchSlot::Inst(pc, inst) => {
                // A predicting machine counts architectural completions;
                // the others count what decode has let through.
                let counted = match self.policy.branches {
                    Branches::Park => self.seq,
                    Branches::Predict(_) => self.completed(),
                };
                if counted >= self.limit {
                    return Err(SimError::InstLimit { limit: self.limit });
                }
                self.obs.fetch(self.cycle, pc);
                if inst.is_branch() {
                    let cond = inst
                        .src1
                        .map_or(Operand::Ready(0), |r| self.read_operand(r));
                    match (self.policy.branches, cond) {
                        (Branches::Predict(_), _) => self.predict_branch(pc, inst, cond),
                        (Branches::Park, Operand::Ready(v)) => self.resolve_in_decode(&inst, v),
                        (Branches::Park, Operand::Waiting(_)) => {
                            self.frontend.park_branch(pc, inst, cond);
                            self.stall(StallReason::BranchWait);
                        }
                    }
                    return Ok(());
                }
                if let Some(reason) = self.issue_blocked(&inst) {
                    self.stall(reason);
                    return Ok(());
                }
                self.issue(pc, inst);
            }
        }
        Ok(())
    }

    /// Puts `inst` into the window: reads its operands (value or tag) and
    /// acquires its destination instance.
    fn issue(&mut self, pc: u32, inst: Inst) {
        let ops = [
            inst.src1
                .map_or(Operand::Ready(0), |r| self.read_operand(r)),
            inst.src2
                .map_or(Operand::Ready(0), |r| self.read_operand(r)),
        ];
        let seq = self.seq;
        let dst_tag = inst.dst.map(|d| self.rename(d, seq));
        let is_mem = inst.is_mem();
        let nop = inst.fu_class().is_none();
        if nop && matches!(self.policy.stations, Stations::Tagged(_)) {
            // A tagged Nop takes no station and has nothing to update.
            self.committed += 1;
        } else {
            self.window.push_back(Entry {
                seq,
                pc,
                inst,
                dst_tag,
                ops,
                dispatched: nop,
                executed: nop,
                result: None,
                ea: None,
                mem_phase: if is_mem {
                    MemPhase::AwaitingLr
                } else {
                    MemPhase::NotMem
                },
                lr_provider: false,
            });
            if is_mem {
                self.mem_queue.push_back(seq);
            }
        }
        self.count_issue();
        self.frontend.advance();
    }

    // ---- the run loop -----------------------------------------------------

    fn drained(&self) -> bool {
        self.frontend.halted()
            && self.window.is_empty()
            && self.branches.is_empty()
            && self.mem_queue.is_empty()
            && self.forward_queue.is_empty()
            && self.events.is_empty()
    }

    /// One cycle; `Some` if it took the injected interrupt.
    ///
    /// The phases are `#[inline(never)]`: inlined together into the run
    /// loop they exhaust LLVM's inlining budget for it, the window
    /// iterators inside them stop being inlined, and small windows ran
    /// about 10% slower per cycle.
    fn step(&mut self) -> Result<Option<InterruptFrame>, SimError> {
        if let Some(frame) = self.phase_completions() {
            return Ok(Some(frame));
        }
        self.phase_addr_gen();
        self.phase_forwards();
        self.phase_dispatch();
        if self.policy.update == Update::AtCommit {
            if let Some(frame) = self.phase_commit() {
                return Ok(Some(frame));
            }
        }
        self.phase_resolve_branches();
        self.phase_issue()?;
        Ok(None)
    }

    /// Runs to completion, or until dynamic instruction `fault_seq`
    /// reaches the point where it would update state (the fault hook).
    /// A predicting policy needs `predictor`.
    pub fn run(
        mut self,
        fault_seq: Option<u64>,
        predictor: Option<&'a mut dyn Predictor>,
    ) -> Result<(RunOutcome, SpecStats), SimError> {
        self.fault_seq = fault_seq;
        self.predictor = predictor;
        loop {
            self.broadcasts.clear();
            let occ = self.window.len() as u32;
            if let Some(frame) = self.step()? {
                return Ok((RunOutcome::Interrupted(frame), self.spec));
            }

            let progress = (self.seq, self.completed(), self.events_scheduled);
            if progress != self.last_progress {
                self.last_progress = progress;
                self.last_progress_cycle = self.cycle;
            } else if self.cycle - self.last_progress_cycle > 100_000 {
                // Nothing issued, completed, or entered the pipelines for
                // far longer than any latency in the machine: a bug.
                return Err(SimError::Deadlock { cycle: self.cycle });
            }

            end_cycle(self.obs, &mut self.stats, &mut self.cycle, occ);
            if self.drained() {
                break;
            }
            // Keep the reservation table small on long runs.
            if self.cycle.is_multiple_of(4096) {
                self.bus.release_before(self.cycle);
            }
        }
        let mut state = self.arch.clone();
        state.pc = self.frontend.pc();
        let cs = self.dcache.stats();
        self.stats.dcache_accesses = cs.accesses;
        self.stats.dcache_hits = cs.hits;
        self.stats.dcache_misses = cs.misses;
        let result = RunResult {
            cycles: self.cycle,
            instructions: self.completed(),
            state,
            memory: self.mem,
            stats: self.stats,
        };
        Ok((RunOutcome::Completed(result), self.spec))
    }
}
