//! The out-of-order simulator, [`OutOfOrder`]: one core behind the tagged
//! mechanisms (Tomasulo, Tag Unit, RS pool, RSTU), the RUU and the
//! speculative RUU.
//!
//! The paper's dynamic mechanisms differ only in *where reservation
//! stations live and how many tags exist* (§3.2); the RUU is an RSTU
//! managed as a queue (§5), and §7 speculation is that same RUU plus
//! nullification. The core therefore has one window-entry type, one event
//! wheel, one memory pipeline (address generation → load registers → data
//! cache → forwarding), one dispatch select and one run loop, and one
//! [`Stations`] value picks the mechanism:
//!
//! * [`Stations::Tagged`] sizes stations and tags, names a result by its
//!   producer's sequence number, and lets the register file capture the
//!   latest instance as it completes. Results update
//!   state as they complete, out of program order (stores write memory at
//!   execute, behind [`Machine::oldest_memory_op`]), and an unresolved
//!   branch parks in decode until its condition arrives.
//! * [`Stations::Queue`] is the RUU: a FIFO of `entries` slots whose tags
//!   are the register number plus an LI counter, bounded by NI counters
//!   (§5.1), with one of three [`Bypass`] read policies. Results update
//!   state in program order at commit, which makes interrupts precise
//!   (§4–5). An unresolved branch parks in decode (§6.3), or, given a
//!   predictor, the predictor picks a path and wrong-path work is
//!   nullified (§7).
//!
//! Each cycle runs, in order: completions, address generation, forwarded
//! loads, dispatch (memory first, then by age — §5.1), commit, branch
//! resolution, decode/issue.
//!
//! The work of a cycle follows its events, not the size of the window.
//! The window is a ring indexed by sequence number; a consumer that issues
//! waiting on a tag registers with the tag's producer, so a broadcast
//! gates only those waiters; entries join age-ordered ready lists as their
//! last operand arrives, and dispatch scans those lists oldest first until
//! the dispatch paths run out; completion events sit in a timing wheel
//! indexed by cycle.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use ruu_exec::{ArchState, Memory};
use ruu_isa::{semantics, FuClass, Inst, Program, Reg, NUM_REGS};
use ruu_predict::{Predictor, PredictorConfig};
use ruu_sim_core::{
    DCache, FuPool, LoadRegUnit, LrOutcome, MachineConfig, MemOpKind, NullObserver,
    PipelineObserver, RunResult, RunStats, SlotReservation, StallReason, COMMIT_WIDTH,
    FORWARD_LATENCY, MISPREDICT_PENALTY, SPEC_TAKEN_BUBBLE, STORE_EXEC_LATENCY,
};

use crate::common::{end_cycle, idle_cycles, FetchSlot, Frontend, Operand, Tag};
use crate::simulator::{InterruptFrame, IssueSimulator, RunOutcome};
use crate::SimError;

/// Cycles without progress (nothing issued, completed or scheduled) after
/// which a run is declared deadlocked.
const DEADLOCK_CYCLES: u64 = 100_000;

/// Operand-bypass policy of the RUU (paper §6). Managing the RSTU as a
/// FIFO queue removes its associative tag search: each register carries
/// two small counters, *NI* (number of instances in the RUU) and *LI*
/// (latest instance), and a tag is the register number appended with LI
/// (§5.1). What a consumer that missed its producer's result-bus
/// broadcast may read is the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bypass {
    /// Associative bypass from every executed RUU entry (§6.1, Table 4).
    Full,
    /// No bypass: reservation stations monitor the result bus *and* the
    /// RUU→register-file bus, so a consumer that missed the broadcast
    /// waits until the value crosses it at commit (§6.2, Table 5).
    None,
    /// A future file, updated from the result bus, shadows the 8 A
    /// registers; other files are un-bypassed (§6.3, Table 6).
    LimitedA,
}

/// The mechanism the core simulates: where reservation stations and tags
/// live, which also fixes when results update state and what happens to
/// a branch whose condition is not yet available.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stations {
    /// A tagged mechanism (paper §3). Results update state as they
    /// complete, out of program order (imprecise), and the register file
    /// captures only a register's latest instance. Unresolved branches
    /// park in decode.
    Tagged {
        /// Results that may be in flight (`usize::MAX`: Tomasulo tags
        /// every register).
        tags: usize,
        /// Where the reservation stations live.
        rs: Rs,
    },
    /// The RUU: a FIFO queue of `entries` slots with NI/LI counters.
    /// Results update state in program order from its head (precise).
    Queue {
        /// Queue entries.
        entries: usize,
        /// Operand read policy for results still in the queue.
        bypass: Bypass,
        /// With a predictor built from this configuration, unresolved
        /// branches follow its guess (see [`Machine::squash`] for the
        /// repair); without one they park in decode.
        predictor: Option<PredictorConfig>,
    },
}

/// The reservation stations of a tagged mechanism.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rs {
    /// This many at each unit, each with a private dispatch path (§3.1).
    PerUnit(usize),
    /// This many in one pool sharing the dispatch paths (§3.2.2).
    Pooled(usize),
    /// One per tag, sharing the dispatch paths: the RSTU (§3.2.3).
    Merged,
}

/// Cycle-level simulator of the out-of-order mechanisms: a machine
/// configuration and the mechanism [`crate::Mechanism::build`] derived.
#[derive(Debug, Clone)]
pub(crate) struct OutOfOrder {
    pub(crate) config: MachineConfig,
    pub(crate) stations: Stations,
}

/// Unobserved runs are compiled against [`NullObserver`], so its no-op
/// hooks vanish; observed runs go through `dyn PipelineObserver`.
impl IssueSimulator for OutOfOrder {
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
        let mut m = Machine::new(&self.config, self.stations, state, mem, program, limit, obs);
        m.run(None)?;
        Ok(m.result())
    }

    fn run_from(
        &self,
        state: ArchState,
        mem: Memory,
        program: &Program,
        limit: u64,
    ) -> Result<RunResult, SimError> {
        let obs = &mut NullObserver;
        let mut m = Machine::new(&self.config, self.stations, state, mem, program, limit, obs);
        m.run(None)?;
        Ok(m.result())
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
        let mut m = Machine::new(&self.config, self.stations, state, mem, program, limit, obs);
        Ok(match m.run(Some(fault))? {
            Some(seq) => RunOutcome::Interrupted(m.interrupt_frame(seq)),
            None => RunOutcome::Completed(m.result()),
        })
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

/// One in-flight instruction. It borrows its instruction from the
/// program rather than copying it.
#[derive(Debug, Clone)]
struct Entry<'a> {
    seq: u64,
    pc: u32,
    inst: &'a Inst,
    /// Its unit, decided at issue (`None` for a Nop, which needs none).
    fu: Option<FuClass>,
    dst_tag: Option<Tag>,
    ops: [Operand; 2],
    /// Left its station for a unit (or booked the bus, for a forwarded
    /// load).
    dispatched: bool,
    executed: bool,
    /// The cycle its result was on the result bus: meaningful once it has
    /// executed.
    done_at: u64,
    /// The value it produces: meaningful once it has dispatched, or once
    /// its load has data in hand (`MemPhase::Forwarding`).
    result: u64,
    /// Effective address: meaningful once it has left
    /// `MemPhase::AwaitingLr`.
    ea: u64,
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

/// The pending events by cycle: slot `c % len` holds the events of cycle
/// `c`, for every cycle from the current one to one ring length ahead.
/// The current cycle's slot is drained before anything new is scheduled,
/// and a schedule further ahead than the ring reaches doubles it, so its
/// size follows the longest latency in flight. Slot vectors are reused.
struct EventWheel {
    slots: Vec<Vec<Event>>,
    pending: usize,
}

impl EventWheel {
    fn new() -> Self {
        EventWheel {
            slots: (0..32).map(|_| Vec::new()).collect(),
            pending: 0,
        }
    }

    #[inline]
    fn index(&self, cycle: u64) -> usize {
        cycle as usize & (self.slots.len() - 1)
    }

    /// Schedules `ev` for `cycle`, strictly after `now`.
    #[inline]
    fn schedule(&mut self, now: u64, cycle: u64, ev: Event) {
        while cycle - now >= self.slots.len() as u64 {
            self.grow(now);
        }
        let i = self.index(cycle);
        self.slots[i].push(ev);
        self.pending += 1;
    }

    /// Doubles the ring, keeping each pending event's cycle.
    #[cold]
    fn grow(&mut self, now: u64) {
        let mut slots: Vec<Vec<Event>> = (0..self.slots.len() * 2).map(|_| Vec::new()).collect();
        let mask = slots.len() - 1;
        for c in now..now + self.slots.len() as u64 {
            let i = self.index(c);
            slots[c as usize & mask] = std::mem::take(&mut self.slots[i]);
        }
        self.slots = slots;
    }

    /// Takes the events due at `now`; hand the vector back with
    /// [`EventWheel::recycle`].
    fn take_due(&mut self, now: u64) -> Vec<Event> {
        let i = self.index(now);
        let due = std::mem::take(&mut self.slots[i]);
        self.pending -= due.len();
        due
    }

    fn recycle(&mut self, now: u64, mut due: Vec<Event>) {
        due.clear();
        let i = self.index(now);
        self.slots[i] = due;
    }

    /// Drops every pending event `keep` rejects.
    fn retain(&mut self, mut keep: impl FnMut(&Event) -> bool) {
        for evs in &mut self.slots {
            let before = evs.len();
            evs.retain(&mut keep);
            self.pending -= before - evs.len();
        }
    }

    fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// `true` if an event is due at `now`.
    #[inline]
    fn is_due(&self, now: u64) -> bool {
        !self.slots[self.index(now)].is_empty()
    }

    /// The first cycle from `now` on with an event due, if any is pending.
    /// Every pending event lies less than a ring length ahead of `now`.
    fn next_due(&self, now: u64) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        (now..now + self.slots.len() as u64).find(|&c| !self.slots[self.index(c)].is_empty())
    }
}

/// A consumer waiting for a tag's broadcast.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    /// Source operand `.1` of window entry `.0`.
    Operand(u64, usize),
    /// The condition of the predicted branch with this sequence number.
    Branch(u64),
}

/// One window slot: the entry, and the consumers waiting for its result
/// (the waiter vector is reused from entry to entry).
struct Slot<'a> {
    entry: Option<Entry<'a>>,
    waiters: Vec<Waiter>,
}

/// The in-flight instructions, indexed by sequence number: slot
/// `seq % len` holds entry `seq`. Branches and tagged Nops take a sequence
/// number but no entry, and the tagged kinds remove entries out of order
/// as they complete, so the ring has holes; `head` is the oldest live
/// entry and `tail` one past the youngest. A push further from `head` than
/// the ring reaches doubles it.
struct Window<'a> {
    slots: Vec<Slot<'a>>,
    head: u64,
    tail: u64,
    live: usize,
}

impl<'a> Window<'a> {
    fn new() -> Self {
        Window {
            slots: Self::empty_slots(32),
            head: 0,
            tail: 0,
            live: 0,
        }
    }

    fn empty_slots(n: usize) -> Vec<Slot<'a>> {
        (0..n)
            .map(|_| Slot {
                entry: None,
                waiters: Vec::new(),
            })
            .collect()
    }

    #[inline]
    fn index(&self, seq: u64) -> usize {
        seq as usize & (self.slots.len() - 1)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Entry `seq`, if it is live: its slot may hold nothing, or another
    /// entry the same ring length away.
    #[inline]
    fn get(&self, seq: u64) -> Option<&Entry<'a>> {
        self.slots[self.index(seq)]
            .entry
            .as_ref()
            .filter(|e| e.seq == seq)
    }

    #[inline]
    fn get_mut(&mut self, seq: u64) -> Option<&mut Entry<'a>> {
        let i = self.index(seq);
        self.slots[i].entry.as_mut().filter(|e| e.seq == seq)
    }

    #[inline]
    fn entry(&self, seq: u64) -> &Entry<'a> {
        self.get(seq).expect("entry for live seq is in the window")
    }

    #[inline]
    fn entry_mut(&mut self, seq: u64) -> &mut Entry<'a> {
        self.get_mut(seq)
            .expect("entry for live seq is in the window")
    }

    /// The oldest entry.
    fn front(&self) -> Option<&Entry<'a>> {
        self.get(self.head)
    }

    /// Live entries, oldest first.
    fn iter(&self) -> impl Iterator<Item = &Entry<'a>> {
        (self.head..self.tail).filter_map(|seq| self.get(seq))
    }

    /// Appends `e`, younger than every entry in the window. Forced inline:
    /// an out-of-line push costs a copy of the 104-byte entry per issued
    /// instruction, where inline the entry is written into its slot.
    #[inline(always)]
    fn push(&mut self, e: Entry<'a>) {
        if self.live == 0 {
            (self.head, self.tail) = (e.seq, e.seq);
        }
        debug_assert!(e.seq >= self.tail, "window entries arrive in age order");
        while e.seq - self.head >= self.slots.len() as u64 {
            let mut slots = Self::empty_slots(self.slots.len() * 2);
            let mask = slots.len() - 1;
            for seq in self.head..self.tail {
                let i = self.index(seq);
                std::mem::swap(&mut slots[seq as usize & mask], &mut self.slots[i]);
            }
            self.slots = slots;
        }
        let i = self.index(e.seq);
        debug_assert!(
            self.slots[i].waiters.is_empty(),
            "a fresh entry has no waiters"
        );
        self.tail = e.seq + 1;
        self.slots[i].entry = Some(e);
        self.live += 1;
    }

    /// Drops entry `seq` from the window.
    fn remove(&mut self, seq: u64) {
        let i = self.index(seq);
        debug_assert!(self.slots[i].entry.is_some(), "removed entry is live");
        self.slots[i].entry = None;
        self.live -= 1;
        while self.head < self.tail && self.slots[self.index(self.head)].entry.is_none() {
            self.head += 1;
        }
    }

    /// Takes the youngest entry out if it is younger than `seq`.
    fn pop_younger_than(&mut self, seq: u64) -> Option<Entry<'a>> {
        while self.tail > self.head && self.tail - 1 > seq {
            self.tail -= 1;
            let i = self.index(self.tail);
            self.slots[i].waiters.clear();
            if let Some(e) = self.slots[i].entry.take() {
                self.live -= 1;
                return Some(e);
            }
        }
        None
    }

    /// Registers `w` as waiting for the result of live entry `producer`.
    #[inline]
    fn add_waiter(&mut self, producer: u64, w: Waiter) {
        debug_assert!(self.get(producer).is_some(), "a waited-on producer is live");
        let i = self.index(producer);
        self.slots[i].waiters.push(w);
    }

    /// `true` if a consumer waits for `producer`'s result. The producer
    /// may have just left the window: nothing is pushed in between, so its
    /// slot is still its own.
    #[inline]
    fn has_waiters(&self, producer: u64) -> bool {
        !self.slots[self.index(producer)].waiters.is_empty()
    }

    /// Takes `producer`'s waiters; hand the vector back with
    /// [`Window::recycle_waiters`]. As for [`Window::has_waiters`], the
    /// producer may have just left the window.
    #[inline]
    fn take_waiters(&mut self, producer: u64) -> Vec<Waiter> {
        let i = self.index(producer);
        std::mem::take(&mut self.slots[i].waiters)
    }

    #[inline]
    fn recycle_waiters(&mut self, producer: u64, mut waiters: Vec<Waiter>) {
        waiters.clear();
        let i = self.index(producer);
        self.slots[i].waiters = waiters;
    }
}

// The ready lists are short, so inserting into and removing from them
// shifts their entries by hand: `Vec::{insert, remove}` call out to
// `memmove`.

/// Inserts `seq` into an age-ordered ready list.
#[inline]
fn insert_by_age(list: &mut Vec<u64>, seq: u64) {
    list.push(seq);
    let mut i = list.len() - 1;
    while i > 0 && list[i - 1] > seq {
        list[i] = list[i - 1];
        i -= 1;
    }
    list[i] = seq;
}

/// Takes `list[i]` out of an age-ordered ready list, keeping the order.
#[inline]
fn remove_in_order(list: &mut Vec<u64>, i: usize) {
    for j in i + 1..list.len() {
        list[j - 1] = list[j];
    }
    list.pop();
}

/// An operand of `e` just arrived: `e` joins its ready list if that was
/// the last thing it waited for.
#[inline]
fn wake(e: &Entry, mem_ready: &mut Vec<u64>, alu_ready: &mut Vec<u64>) {
    if e.dispatched || !(e.ops[0].is_ready() && e.ops[1].is_ready()) {
        return;
    }
    match e.mem_phase {
        MemPhase::NotMem => insert_by_age(alu_ready, e.seq),
        MemPhase::StorePending => insert_by_age(mem_ready, e.seq),
        _ => {}
    }
}

/// A branch fetched by a predicting core, kept for resolution and
/// misprediction repair. Branches whose condition was known at decode get
/// a record too (`assumed_taken` = the actual outcome, so only predicted
/// ones can mispredict): a branch only counts architecturally when it reaches the
/// front of the record queue, i.e. when it is itself on the correct path.
/// The LI counters need no snapshot: only issue advances them, and every
/// entry issued after the branch is still in the window when it
/// mispredicts, so [`Machine::squash`] undoes each one's increment.
#[derive(Debug, Clone)]
struct BranchRecord {
    seq: u64,
    pc: u32,
    inst: Inst,
    assumed_taken: bool,
    cond: Operand,
    /// pc of the *other* path, fetched on misprediction.
    repair_pc: u32,
    /// The A future file at prediction time, kept only under
    /// [`Bypass::LimitedA`], the one policy that reads it (restoring is
    /// conservative: a legitimate older broadcast in between re-arrives
    /// via the commit bus, so a stale-invalid entry only delays, never
    /// corrupts).
    ff: Option<[Option<u64>; 8]>,
}

/// Per-run state of the out-of-order core, reporting to an observer of
/// type `O`.
pub(crate) struct Machine<'a, O: PipelineObserver + ?Sized> {
    cfg: &'a MachineConfig,
    program: &'a Program,
    stations: Stations,
    limit: u64,
    /// The entry the fault hook fires on: the core's sequence number of
    /// the golden instruction the fault names (see [`Machine::squash`]).
    fault_seq: Option<u64>,
    /// Built from the queue's predictor configuration, fresh for each
    /// run, so the runs of one simulator stay independent and repeatable.
    /// `Some` exactly on a predicting core.
    predictor: Option<Box<dyn Predictor>>,
    obs: &'a mut O,

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
    /// The LI bits a queue tag carries.
    tag_mask: u64,
    /// Queue rename state: the entry producing the latest instance of
    /// each register (meaningful while the register's NI is non-zero).
    producer: [u64; NUM_REGS],
    /// In-flight instructions.
    window: Window<'a>,
    /// Undispatched entries per unit (the tagged kinds' stations in use).
    busy_stations: [usize; FuClass::ALL.len()],
    /// Entries ready to leave for a unit, oldest first: loads with an
    /// address, stores with address and data, and everything else with
    /// both operands. Memory operations dispatch first (§5.1).
    mem_ready: Vec<u64>,
    alu_ready: Vec<u64>,
    /// On a tagged core, the loads and stores that will read
    /// or write architectural memory, in program order; an entry leaves
    /// when it reaches the front dispatched (see
    /// [`Machine::oldest_memory_op`]).
    mem_order: VecDeque<u64>,
    branches: VecDeque<BranchRecord>,
    mem_queue: VecDeque<u64>,
    forward_queue: Vec<u64>,
    events: EventWheel,
    lr: LoadRegUnit,
    fus: FuPool,
    bus: SlotReservation,
    dcache: DCache,
    frontend: Frontend,
    stats: RunStats,
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

impl<'a, O: PipelineObserver + ?Sized> Machine<'a, O> {
    /// A machine about to run `program` from `state`.
    pub(crate) fn new(
        cfg: &'a MachineConfig,
        stations: Stations,
        state: ArchState,
        mem: Memory,
        program: &'a Program,
        limit: u64,
        obs: &'a mut O,
    ) -> Self {
        let dcache = DCache::new(
            &cfg.dcache,
            cfg.fu_latency(FuClass::Memory),
            mem.len() as u64,
        );
        Machine {
            cfg,
            program,
            stations,
            limit,
            fault_seq: None,
            predictor: match stations {
                Stations::Queue {
                    predictor: Some(p), ..
                } => Some(p.build()),
                _ => None,
            },
            obs,
            cycle: 0,
            frontend: Frontend::new(state.pc),
            arch: state,
            mem,
            reg_latest: [None; NUM_REGS],
            ni: [0; NUM_REGS],
            li: [0; NUM_REGS],
            ff: [None; 8],
            tag_mask: (1u64 << cfg.counter_bits) - 1,
            producer: [0; NUM_REGS],
            window: Window::new(),
            busy_stations: [0; FuClass::ALL.len()],
            mem_ready: Vec::new(),
            alu_ready: Vec::new(),
            mem_order: VecDeque::new(),
            branches: VecDeque::new(),
            mem_queue: VecDeque::new(),
            forward_queue: Vec::new(),
            events: EventWheel::new(),
            lr: LoadRegUnit::new(cfg.load_registers),
            fus: FuPool::new(),
            bus: SlotReservation::new(cfg.result_buses),
            dcache,
            stats: RunStats::default(),
            repair_until: 0,
            seq: 0,
            committed: 0,
            events_scheduled: 0,
            last_progress: (0, 0, 0),
            last_progress_cycle: 0,
        }
    }

    /// Results update state at commit, in program order (the queue), not
    /// as they complete (the tagged kinds).
    fn commits(&self) -> bool {
        matches!(self.stations, Stations::Queue { .. })
    }

    /// Architectural completions: committed instructions plus resolved
    /// branches.
    fn completed(&self) -> u64 {
        self.committed + self.stats.branches
    }

    fn schedule(&mut self, cycle: u64, ev: Event) {
        debug_assert!(
            cycle > self.cycle,
            "event for cycle {cycle} scheduled in cycle {}",
            self.cycle
        );
        self.events_scheduled += 1;
        self.events.schedule(self.cycle, cycle, ev);
    }

    /// Marks forwarded load `seq` as having booked the bus, its dispatch:
    /// its station frees.
    fn mark_dispatched(&mut self, seq: u64) {
        self.window.entry_mut(seq).dispatched = true;
        self.busy_stations[FuClass::Memory.index()] -= 1;
    }

    // ---- broadcast & wake ---------------------------------------------

    /// The entry that produces `tag`, the latest instance of its register
    /// (the only kind of tag a consumer is handed at issue).
    fn producer_of(&self, tag: Tag) -> u64 {
        match self.stations {
            Stations::Tagged { .. } => tag.instance,
            Stations::Queue { .. } => self.producer[tag.reg.index()],
        }
    }

    /// `producer`'s result `(tag, value)` appears on a bus: the consumers
    /// registered with it and a parked branch gate it in.
    #[inline(always)]
    fn gate(&mut self, producer: u64, tag: Tag, value: u64) {
        if let Some(pb) = self.frontend.pending_branch_mut() {
            pb.cond.gate(tag, value);
        }
        if !self.window.has_waiters(producer) {
            return;
        }
        let waiters = self.window.take_waiters(producer);
        for &w in &waiters {
            // A waiter squashed since it registered is gone: sequence
            // numbers are never reused, so it is simply not found.
            match w {
                Waiter::Operand(seq, i) => {
                    if let Some(e) = self.window.get_mut(seq) {
                        if e.ops[i].gate(tag, value) {
                            wake(e, &mut self.mem_ready, &mut self.alu_ready);
                        }
                    }
                }
                Waiter::Branch(seq) => {
                    let k = self.branches.partition_point(|b| b.seq < seq);
                    if let Some(b) = self.branches.get_mut(k).filter(|b| b.seq == seq) {
                        b.cond.gate(tag, value);
                    }
                }
            }
        }
        self.window.recycle_waiters(producer, waiters);
    }

    /// A broadcast on the result bus. The tagged register file captures
    /// the latest instance of a register (Tomasulo's register-capture
    /// rule, so stale instances never clobber newer values); the RUU's A
    /// future file mirrors the result bus.
    fn broadcast_result(&mut self, producer: u64, tag: Tag, value: u64) {
        self.gate(producer, tag, value);
        let r = tag.reg;
        match self.stations {
            Stations::Tagged { .. } => {
                if self.reg_latest[r.index()] == Some(tag) {
                    self.arch.set_reg(r, value);
                    self.reg_latest[r.index()] = None;
                }
            }
            Stations::Queue { .. } => {
                if r.is_a() && tag.instance == (self.li[r.index()] & self.tag_mask) {
                    self.ff[r.num() as usize] = Some(value);
                }
            }
        }
    }

    /// `seq`'s data is ready: loads that matched it in the load registers
    /// queue for a result-bus slot.
    fn wake_forwarded_loads(&mut self, seq: u64, value: u64) {
        for w in self.lr.provider_ready(seq, value) {
            let e = self.window.entry_mut(w);
            debug_assert_eq!(e.mem_phase, MemPhase::AwaitingData);
            e.result = value;
            e.mem_phase = MemPhase::Forwarding;
            self.forward_queue.push(w);
            self.stats.forwarded_loads += 1;
        }
    }

    /// The state an interrupt taken on entry `seq` sees.
    pub(crate) fn interrupt_frame(self, seq: u64) -> InterruptFrame {
        let pc = self.window.entry(seq).pc;
        let mut state = self.arch;
        state.pc = pc;
        InterruptFrame {
            state,
            memory: self.mem,
            resume_pc: pc,
            committed: self.committed,
            cycle: self.cycle,
        }
    }

    /// Entry `seq` leaves the window and updates architectural state.
    #[inline(always)]
    fn retire(&mut self, seq: u64) {
        let e = self.window.entry(seq);
        debug_assert!(e.executed, "a retiring entry has executed");
        // A retiring store has executed, so its address is recorded.
        let store = (e.mem_phase == MemPhase::StorePending).then(|| (e.ea, e.ops[1].value()));
        debug_assert_eq!(store.is_some(), e.inst.is_store());
        let dst = e.dst_tag.map(|tag| (tag, e.result));
        self.window.remove(seq);
        if let Some((ea, data)) = store {
            self.mem.write(ea, data);
            self.lr.retire(seq);
        }
        if self.commits() {
            if let Some((tag, v)) = dst {
                // The RUU→register-file bus: stations listen, the future
                // file does not.
                self.arch.set_reg(tag.reg, v);
                self.ni[tag.reg.index()] -= 1;
                self.gate(seq, tag, v);
            }
            self.obs.commit(self.cycle, seq);
        }
        self.committed += 1;
    }

    // ---- phase 1: completions -------------------------------------------

    /// The entry the injected interrupt is taken on, if one faults.
    fn phase_completions(&mut self) -> Option<u64> {
        if !self.events.is_due(self.cycle) {
            return None;
        }
        let evs = self.events.take_due(self.cycle);
        let at_completion = !self.commits();
        for &ev in &evs {
            let seq = ev.seq();
            if at_completion && self.fault_seq == Some(seq) {
                return Some(seq);
            }
            self.obs.complete(self.cycle, seq);
            let e = self.window.entry_mut(seq);
            e.executed = true;
            e.done_at = self.cycle;
            match ev {
                Event::Finish(_) => {
                    debug_assert!(e.dispatched, "a finished entry has its result");
                    // Stores finish as `StoreExec`, so a finishing memory
                    // operation is a load.
                    let is_load = e.mem_phase != MemPhase::NotMem;
                    let (dst_tag, value) = (e.dst_tag, e.result);
                    let was_provider = e.lr_provider;
                    if let Some(tag) = dst_tag {
                        self.broadcast_result(seq, tag, value);
                    }
                    if is_load {
                        if was_provider {
                            self.wake_forwarded_loads(seq, value);
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
                self.retire(seq);
            }
        }
        self.events.recycle(self.cycle, evs);
        None
    }

    // ---- phase 2: memory address generation (in program order) --------

    fn phase_addr_gen(&mut self) {
        let Some(&seq) = self.mem_queue.front() else {
            return;
        };
        let e = self.window.entry(seq);
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
        let e = self.window.entry_mut(seq);
        e.ea = ea;
        match outcome {
            LrOutcome::ToMemory => {
                e.mem_phase = MemPhase::ToMemory;
                e.lr_provider = true;
                insert_by_age(&mut self.mem_ready, seq);
            }
            LrOutcome::Forwarded { value } => {
                e.result = value;
                e.mem_phase = MemPhase::Forwarding;
                self.forward_queue.push(seq);
                self.stats.forwarded_loads += 1;
            }
            LrOutcome::WaitOn { .. } => e.mem_phase = MemPhase::AwaitingData,
            LrOutcome::StoreRecorded => {
                e.mem_phase = MemPhase::StorePending;
                wake(e, &mut self.mem_ready, &mut self.alu_ready);
            }
        }
        if matches!(outcome, LrOutcome::ToMemory | LrOutcome::StoreRecorded) && !self.commits() {
            self.mem_order.push_back(seq);
        }
    }

    // ---- phase 3: forwarded-load broadcasts -----------------------------

    fn phase_forwards(&mut self) {
        if self.forward_queue.is_empty() {
            return;
        }
        let done = self.cycle + FORWARD_LATENCY;
        let mut queue = std::mem::take(&mut self.forward_queue);
        queue.retain(|&seq| {
            if !self.bus.try_reserve(self.cycle, done) {
                return true;
            }
            // Booking the bus is this load's dispatch: its station frees
            // in the dispatch-released organisations.
            self.mark_dispatched(seq);
            self.obs.dispatch(self.cycle, seq, FuClass::Memory, done);
            self.schedule(done, Event::Finish(seq));
            false
        });
        self.forward_queue = queue;
    }

    // ---- phase 4: dispatch to the functional units ------------------------

    /// A store that writes memory as it executes may hand its data to
    /// memory only when every older memory operation that will *read
    /// architectural memory* has sampled it (dispatched), and every older
    /// store has already done so — the memory port preserves program
    /// order. Without the first condition a younger store could clobber
    /// the word an older, bus-stalled load is about to read (WAR through
    /// memory). Such a store may go only if it is the oldest undispatched
    /// load or store bound for memory, which this returns.
    fn oldest_memory_op(&mut self) -> Option<u64> {
        while let Some(&seq) = self.mem_order.front() {
            if self.window.get(seq).is_some_and(|e| !e.dispatched) {
                return Some(seq);
            }
            self.mem_order.pop_front();
        }
        None
    }

    fn phase_dispatch(&mut self) {
        // `mem_order` is cleaned lazily, so a cycle with nothing ready
        // may put that off too.
        if self.mem_ready.is_empty() && self.alu_ready.is_empty() {
            return;
        }
        // Distributed organisations have a private path from each unit's
        // stations; the others share `dispatch_paths` ports.
        let mut paths = match self.stations {
            Stations::Tagged {
                rs: Rs::PerUnit(_), ..
            } => u32::MAX,
            _ => self.cfg.dispatch_paths,
        };
        // Decided once, before anything dispatches this cycle.
        let oldest = if self.commits() {
            None
        } else {
            self.oldest_memory_op()
        };
        // Load/store priority first, then age (paper §5.1), until the
        // paths run out.
        let mut i = 0;
        while paths > 0 && i < self.mem_ready.len() {
            if self.dispatch_mem(self.mem_ready[i], oldest) {
                remove_in_order(&mut self.mem_ready, i);
                paths -= 1;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while paths > 0 && i < self.alu_ready.len() {
            if self.dispatch_alu(self.alu_ready[i]) {
                remove_in_order(&mut self.alu_ready, i);
                paths -= 1;
            } else {
                i += 1;
            }
        }
    }

    /// Sends ready load or store `seq` to the memory unit if the unit, the
    /// data cache and the result bus allow; `true` if it went, leaving its
    /// station. A store that writes memory as it executes must be
    /// `oldest`.
    fn dispatch_mem(&mut self, seq: u64, oldest: Option<u64>) -> bool {
        let (cycle, stores_wait) = (self.cycle, !self.commits());
        let e = self.window.entry_mut(seq);
        debug_assert_ne!(e.mem_phase, MemPhase::AwaitingLr, "address generated");
        let ea = e.ea;
        let load = if e.mem_phase == MemPhase::ToMemory {
            let plan = self.dcache.plan(ea, cycle);
            let Some(lat) = plan.latency() else {
                return false; // every outstanding-miss register busy: retry
            };
            let done = cycle + lat;
            if !self.fus.can_accept(FuClass::Memory, cycle) || !self.bus.try_reserve(cycle, done) {
                return false;
            }
            e.result = self.mem.read(ea);
            Some(lat)
        } else {
            if (stores_wait && oldest != Some(seq)) || !self.fus.can_accept(FuClass::Memory, cycle)
            {
                return false;
            }
            None
        };
        self.fus.accept(FuClass::Memory, cycle);
        e.dispatched = true;
        self.busy_stations[FuClass::Memory.index()] -= 1;
        let Some(lat) = load else {
            let done = cycle + STORE_EXEC_LATENCY;
            self.obs.dispatch(cycle, seq, FuClass::Memory, done);
            self.schedule(done, Event::StoreExec(seq));
            return true;
        };
        let done = cycle + lat;
        self.obs.dispatch(cycle, seq, FuClass::Memory, done);
        if self.dcache.is_finite() {
            let plan = self.dcache.access(ea, cycle);
            self.obs.mem_access(cycle, ea, plan.is_hit(), lat);
        }
        self.schedule(done, Event::Finish(seq));
        true
    }

    /// Sends ready ALU operation `seq` to its unit if the unit and the
    /// result bus allow; `true` if it went, leaving its station.
    fn dispatch_alu(&mut self, seq: u64) -> bool {
        let cycle = self.cycle;
        let e = self.window.entry_mut(seq);
        let fu = e.fu.expect("an ALU entry has a unit");
        let done = cycle + self.cfg.fu_latency(fu);
        if !self.fus.can_accept(fu, cycle) || !self.bus.try_reserve(cycle, done) {
            return false;
        }
        self.fus.accept(fu, cycle);
        e.result = semantics::alu_result(
            e.inst.opcode,
            e.ops[0].value(),
            e.ops[1].value(),
            e.inst.imm,
        );
        e.dispatched = true;
        self.busy_stations[fu.index()] -= 1;
        self.obs.dispatch(cycle, seq, fu, done);
        self.schedule(done, Event::Finish(seq));
        true
    }

    // ---- phase 5: in-order commit ------------------------------------------

    /// Commit from the head of the queue, gated on the oldest unresolved
    /// predicted branch: a speculative instruction may execute but never
    /// update architectural state. The entry the injected interrupt is
    /// taken on, if one faults.
    fn phase_commit(&mut self) -> Option<u64> {
        let spec_boundary = self.branches.front().map(|b| b.seq);
        for _ in 0..COMMIT_WIDTH {
            let Some(head) = self.window.front() else {
                break;
            };
            let seq = head.seq;
            if !head.executed || spec_boundary.is_some_and(|b| seq > b) {
                break;
            }
            if self.fault_seq == Some(seq) {
                // Precise interrupt: the faulting instruction does not
                // update any state; everything older already has.
                return Some(seq);
            }
            self.retire(seq);
        }
        None
    }

    // ---- phase 6: predicted-branch resolution ---------------------------

    /// Resolves the oldest predicted branches whose condition is available.
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
                self.stats.mispredicted_branches += 1;
                self.squash(&b);
                break; // younger branches were squashed with everything else
            }
        }
    }

    /// Nullifies every instruction younger than the mispredicted branch
    /// (paper §7: identify conditional instructions "and prevent them
    /// from being committed until they are proven to be from a correct
    /// path" — here they are removed outright). Only the A future file is
    /// restored from the branch's snapshot: each squashed entry gives back
    /// its NI/LI instance and its station, the load registers drop the
    /// squashed operations youngest first, and fetch redirects to the other
    /// path.
    fn squash(&mut self, b: &BranchRecord) {
        // Youngest first: the load registers require that order.
        let mut squashed = 0;
        while let Some(e) = self.window.pop_younger_than(b.seq) {
            squashed += 1;
            self.lr.squash(e.seq);
            // Undo the instance the squashed instruction acquired. (NI is
            // repaired per entry rather than snapshot-restored: older
            // instructions may have committed since the prediction, and
            // their NI decrements must survive the squash. Every entry
            // issued after the branch is squashed here, so undoing each
            // LI increment restores LI exactly.)
            if let Some(tag) = e.dst_tag {
                self.ni[tag.reg.index()] -= 1;
                self.li[tag.reg.index()] -= 1;
            }
            if !e.dispatched {
                let fu = e.fu.expect("an undispatched entry has a unit");
                self.busy_stations[fu.index()] -= 1;
            }
        }
        self.obs.flush(self.cycle, squashed);
        // Sequence numbers are never reused, so the golden instruction a
        // fault names moves past the ones squashed here.
        if let Some(f) = self.fault_seq.filter(|&f| f > b.seq) {
            self.fault_seq = Some(f + self.seq - b.seq - 1);
        }
        let younger = |list: &mut Vec<u64>| list.truncate(list.partition_point(|&s| s <= b.seq));
        younger(&mut self.mem_ready);
        younger(&mut self.alu_ready);
        self.mem_queue.retain(|&s| s <= b.seq);
        self.forward_queue.retain(|&s| s <= b.seq);
        self.events.retain(|ev| ev.seq() <= b.seq);
        self.branches.clear(); // all younger than b

        // Restore the future file from the branch's snapshot. A register
        // with instances left has its latest one older than the branch, so
        // its producer is the youngest surviving entry that writes it.
        if let Some(ff) = b.ff {
            self.ff = ff;
        }
        for e in self.window.iter() {
            if let Some(tag) = e.dst_tag {
                self.producer[tag.reg.index()] = e.seq;
            }
        }

        // Redirect fetch to the repair path. The current cycle and the
        // `MISPREDICT_PENALTY` cycles after it are all charged as
        // misprediction repair: `repair_stalls == flushes * (penalty + 1)`
        // is the invariant `FlushAccountant` checks.
        self.repair_until = self.cycle + 1 + MISPREDICT_PENALTY;
        self.frontend.redirect(b.repair_pc, self.repair_until);
    }

    // ---- phase 7: decode / issue ----------------------------------------

    /// A source operand: a value, or the tag of its in-flight producer.
    ///
    /// Decode sees a result broadcast on the result bus this cycle (the
    /// stations monitor it). A tagged register's latest instance has not
    /// been broadcast yet: register capture clears `reg_latest` as it is.
    /// On the RUU the producer's entry holds the result, and the bypass
    /// policy says which results may be read there besides this cycle's;
    /// the commit bus never carries a result read here, because the
    /// latest instance committing drops NI to 0.
    #[inline(always)]
    fn read_operand(&self, r: Reg) -> Operand {
        let Stations::Queue { bypass, .. } = self.stations else {
            return self.reg_latest[r.index()]
                .map_or(Operand::Ready(self.arch.reg(r)), Operand::Waiting);
        };
        if self.ni[r.index()] == 0 {
            return Operand::Ready(self.arch.reg(r));
        }
        let tag = Tag {
            reg: r,
            instance: self.li[r.index()] & self.tag_mask,
        };
        let bypassed = if bypass == Bypass::LimitedA && r.is_a() {
            // The future file mirrors the result bus.
            self.ff[r.num() as usize]
        } else {
            let cycle = self.cycle;
            self.window
                .get(self.producer[r.index()])
                .filter(|e| e.executed && (bypass == Bypass::Full || e.done_at == cycle))
                .map(|e| {
                    debug_assert_eq!(e.dst_tag, Some(tag));
                    e.result
                })
        };
        bypassed.map_or(Operand::Waiting(tag), Operand::Ready)
    }

    /// The stall that keeps `inst` out of the window this cycle, if any.
    fn issue_blocked(&self, inst: &Inst) -> Option<StallReason> {
        let full = match self.stations {
            Stations::Queue { entries, .. } => self.window.len() >= entries,
            Stations::Tagged { tags, rs } => {
                // A Nop occupies no station.
                self.window.len() >= tags
                    || inst.fu_class().is_some_and(|fu| match rs {
                        Rs::PerUnit(n) => self.busy_stations[fu.index()] >= n,
                        Rs::Pooled(n) => self.busy_stations.iter().sum::<usize>() >= n,
                        Rs::Merged => false, // covered by the tags
                    })
            }
        };
        if full {
            return Some(StallReason::WindowFull);
        }
        if let (Stations::Queue { .. }, Some(d)) = (self.stations, inst.dst) {
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
        match self.stations {
            Stations::Tagged { .. } => {
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
                self.producer[d.index()] = seq;
                if d.is_a() {
                    self.ff[d.num() as usize] = None;
                }
                Tag {
                    reg: d,
                    instance: self.li[d.index()] & self.tag_mask,
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

    /// Decodes a branch on a predicting core: fetch follows the
    /// actual outcome if the condition is already known, the predictor's
    /// guess otherwise. Either way the branch is *counted* only when it
    /// reaches the front of the record queue — it may itself be sitting
    /// on an older branch's wrong path.
    fn predict_branch(&mut self, pc: u32, inst: Inst, cond: Operand) {
        let target = inst.target.expect("branch has a target");
        let (assumed_taken, speculative) = match cond {
            Operand::Ready(v) => (semantics::branch_taken(inst.opcode, v), false),
            Operand::Waiting(_) => {
                self.stats.predicted_branches += 1;
                let predictor = self
                    .predictor
                    .as_deref_mut()
                    .expect("a predicting core has a predictor");
                (predictor.predict(pc, target), true)
            }
        };
        let (next_pc, repair_pc, bubble) = match (assumed_taken, speculative) {
            (true, true) => (target, pc + 1, SPEC_TAKEN_BUBBLE),
            (true, false) => (target, pc + 1, self.cfg.branch_taken_penalty),
            (false, true) => (pc + 1, target, 0),
            (false, false) => (pc + 1, target, self.cfg.branch_untaken_penalty),
        };
        if let Operand::Waiting(tag) = cond {
            let producer = self.producer_of(tag);
            self.window.add_waiter(producer, Waiter::Branch(self.seq));
        }
        self.branches.push_back(BranchRecord {
            seq: self.seq,
            pc,
            inst,
            assumed_taken,
            cond,
            repair_pc,
            ff: matches!(
                self.stations,
                Stations::Queue {
                    bypass: Bypass::LimitedA,
                    ..
                }
            )
            .then_some(self.ff),
        });
        self.count_issue();
        self.frontend.redirect(next_pc, self.cycle + 1 + bubble);
    }

    /// Decodes what fetch offers this cycle; the stall reason if nothing
    /// issued.
    fn phase_issue(&mut self) -> Result<Option<StallReason>, SimError> {
        let stall = match self.frontend.peek(self.cycle, self.program) {
            FetchSlot::Halted => {
                self.frontend.set_halted();
                Some(StallReason::Drained)
            }
            FetchSlot::Dead if self.cycle < self.repair_until => {
                Some(StallReason::MispredictRepair)
            }
            FetchSlot::Dead => Some(StallReason::DeadCycle),
            FetchSlot::BranchParked => {
                let pb = *self.frontend.pending_branch().expect("branch is parked");
                if pb.cond.is_ready() {
                    self.resolve_in_decode(&pb.inst, pb.cond.value());
                    None
                } else {
                    Some(StallReason::BranchWait)
                }
            }
            FetchSlot::Inst(pc, inst) => {
                // A core that does not predict counts what decode lets
                // through; a predicting one counts completions in `step`.
                if self.predictor.is_none() && self.seq >= self.limit {
                    return Err(SimError::InstLimit { limit: self.limit });
                }
                self.obs.fetch(self.cycle, pc);
                if inst.is_branch() {
                    let cond = inst
                        .src1
                        .map_or(Operand::Ready(0), |r| self.read_operand(r));
                    match cond {
                        _ if self.predictor.is_some() => {
                            self.predict_branch(pc, *inst, cond);
                            None
                        }
                        Operand::Ready(v) => {
                            self.resolve_in_decode(inst, v);
                            None
                        }
                        Operand::Waiting(_) => {
                            self.frontend.park_branch(pc, *inst, cond);
                            Some(StallReason::BranchWait)
                        }
                    }
                } else if let Some(reason) = self.issue_blocked(inst) {
                    Some(reason)
                } else {
                    self.issue(pc, inst);
                    None
                }
            }
        };
        if let Some(reason) = stall {
            self.stats.stall(reason);
            self.obs.stall(self.cycle, reason);
        }
        Ok(stall)
    }

    /// Puts `inst` into the window: reads its operands (value or tag) and
    /// acquires its destination instance.
    fn issue(&mut self, pc: u32, inst: &'a Inst) {
        let ops = [
            inst.src1
                .map_or(Operand::Ready(0), |r| self.read_operand(r)),
            inst.src2
                .map_or(Operand::Ready(0), |r| self.read_operand(r)),
        ];
        let seq = self.seq;
        let producer = |op: Operand| match op {
            Operand::Waiting(tag) => Some(self.producer_of(tag)),
            Operand::Ready(_) => None,
        };
        let producers = [producer(ops[0]), producer(ops[1])];
        let dst_tag = inst.dst.map(|d| self.rename(d, seq));
        let is_mem = inst.is_mem();
        let fu = inst.fu_class();
        if fu.is_none() && matches!(self.stations, Stations::Tagged { .. }) {
            // A tagged Nop takes no station and has nothing to update.
            self.committed += 1;
        } else {
            let nop = fu.is_none();
            self.window.push(Entry {
                seq,
                pc,
                inst,
                fu,
                dst_tag,
                ops,
                dispatched: nop,
                executed: nop,
                done_at: 0,
                result: 0,
                ea: 0,
                mem_phase: if is_mem {
                    MemPhase::AwaitingLr
                } else {
                    MemPhase::NotMem
                },
                lr_provider: false,
            });
            for (i, producer) in producers.into_iter().enumerate() {
                if let Some(p) = producer {
                    self.window.add_waiter(p, Waiter::Operand(seq, i));
                }
            }
            if let Some(fu) = fu {
                self.busy_stations[fu.index()] += 1;
                if is_mem {
                    self.mem_queue.push_back(seq);
                } else if ops.iter().all(Operand::is_ready) {
                    self.alu_ready.push(seq);
                }
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

    /// One cycle: breaks with the entry it took the injected interrupt on,
    /// and otherwise continues with decode's stall reason, if nothing
    /// issued.
    #[inline(always)]
    fn step(&mut self) -> Result<ControlFlow<u64, Option<StallReason>>, SimError> {
        if let Some(seq) = self.phase_completions() {
            return Ok(ControlFlow::Break(seq));
        }
        self.phase_addr_gen();
        self.phase_forwards();
        self.phase_dispatch();
        if self.commits() {
            if let Some(seq) = self.phase_commit() {
                return Ok(ControlFlow::Break(seq));
            }
        }
        self.phase_resolve_branches();
        // A predicting core cannot count wrong-path work at fetch, so it
        // stops in the cycle of its `limit + 1`-th commit or resolution.
        if self.predictor.is_some() && self.completed() > self.limit {
            return Err(SimError::InstLimit { limit: self.limit });
        }
        Ok(ControlFlow::Continue(self.phase_issue()?))
    }

    /// The cycle up to which every cycle would repeat the one just ended,
    /// in which decode stalled for `reason`; `None` if the next cycle may
    /// differ. Nothing may be ready to dispatch, generate an address,
    /// resolve or commit, so only a due event (or, for a dead cycle, the
    /// clock) can change anything, and decode must be blocked on a cause
    /// only those clear. The span stops where the deadlock check would
    /// fire.
    fn idle_until(&self, reason: StallReason) -> Option<u64> {
        let dead = match reason {
            StallReason::DeadCycle | StallReason::MispredictRepair => true,
            StallReason::WindowFull
            | StallReason::RegInstanceLimit
            | StallReason::LoadRegFull
            | StallReason::BranchWait
            | StallReason::Drained => false,
            _ => return None,
        };
        let addr_ready = |&seq: &u64| self.window.entry(seq).ops[0].is_ready();
        let can_commit = self.commits()
            && self.window.front().is_some_and(|head| {
                head.executed && self.branches.front().is_none_or(|b| head.seq <= b.seq)
            });
        if !self.mem_ready.is_empty()
            || !self.alu_ready.is_empty()
            || !self.forward_queue.is_empty()
            || self.mem_queue.front().is_some_and(addr_ready)
            || self.branches.front().is_some_and(|b| b.cond.is_ready())
            || can_commit
        {
            return None;
        }
        let mut until = self.events.next_due(self.cycle).unwrap_or(u64::MAX);
        if dead {
            // A squash redirects fetch to `repair_until`, so repair stalls
            // last exactly as long as the dead cycles.
            until = until.min(self.frontend.next_fetch_cycle());
        }
        until = until.min(self.last_progress_cycle + DEADLOCK_CYCLES + 1);
        (until > self.cycle).then_some(until)
    }

    /// Runs until the machine drains (`None`), or until golden dynamic
    /// instruction `fault` reaches the point where it would update state
    /// (the fault hook): `Some` of its entry.
    pub(crate) fn run(&mut self, fault: Option<u64>) -> Result<Option<u64>, SimError> {
        self.fault_seq = fault;
        loop {
            let occ = self.window.len() as u32;
            let stall = match self.step()? {
                ControlFlow::Break(seq) => return Ok(Some(seq)),
                ControlFlow::Continue(stall) => stall,
            };

            let progress = (self.seq, self.completed(), self.events_scheduled);
            if progress != self.last_progress {
                self.last_progress = progress;
                self.last_progress_cycle = self.cycle;
            } else if self.cycle - self.last_progress_cycle > DEADLOCK_CYCLES {
                // Nothing issued, completed, or entered the pipelines for
                // far longer than any latency in the machine: a bug.
                return Err(SimError::Deadlock { cycle: self.cycle });
            }

            end_cycle(self.obs, &mut self.stats, &mut self.cycle, occ);
            if self.drained() {
                return Ok(None);
            }
            let Some(reason) = stall else { continue };
            if let Some(until) = self.idle_until(reason) {
                let pc = self.frontend.presented(self.cycle, self.program);
                let occ = self.window.len() as u32;
                idle_cycles(
                    self.obs,
                    &mut self.stats,
                    &mut self.cycle,
                    until,
                    pc,
                    reason,
                    occ,
                );
            }
        }
    }

    /// The result of a run that drained.
    pub(crate) fn result(mut self) -> RunResult {
        let cs = self.dcache.stats();
        self.stats.dcache_accesses = cs.accesses;
        self.stats.dcache_hits = cs.hits;
        self.stats.dcache_misses = cs.misses;
        let instructions = self.completed();
        let mut state = self.arch;
        state.pc = self.frontend.pc();
        RunResult {
            cycles: self.cycle,
            instructions,
            state,
            memory: self.mem,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_isa::{Asm, Opcode};

    const NOP: Inst = Inst {
        opcode: Opcode::Nop,
        dst: None,
        src1: None,
        src2: None,
        imm: 0,
        target: None,
    };

    fn nop(seq: u64) -> Entry<'static> {
        Entry {
            seq,
            pc: 0,
            inst: &NOP,
            fu: None,
            dst_tag: None,
            ops: [Operand::Ready(0); 2],
            dispatched: true,
            executed: true,
            done_at: 0,
            result: 0,
            ea: 0,
            mem_phase: MemPhase::NotMem,
            lr_provider: false,
        }
    }

    #[test]
    fn window_ring_keeps_holes_and_grows_past_its_first_size() {
        let mut w = Window::new();
        let first = w.slots.len() as u64;
        // Every third sequence number takes no entry, like a branch.
        let seqs: Vec<u64> = (0..3 * first).filter(|s| s % 3 != 2).collect();
        for &s in &seqs {
            w.push(nop(s));
        }
        assert!(w.slots.len() > first as usize);
        assert_eq!(w.len(), seqs.len());
        assert!(w.get(2).is_none());
        assert_eq!(w.iter().map(|e| e.seq).collect::<Vec<_>>(), seqs);
        // Out-of-order removal keeps the head on the oldest live entry.
        w.remove(1);
        assert_eq!(w.front().map(|e| e.seq), Some(0));
        w.remove(0);
        assert_eq!(w.front().map(|e| e.seq), Some(3));
        // A squash takes the entries younger than the branch, youngest
        // first.
        let branch = 3 * first - 10;
        let squashed: Vec<u64> =
            std::iter::from_fn(|| w.pop_younger_than(branch).map(|e| e.seq)).collect();
        let younger: Vec<u64> = seqs.iter().rev().copied().filter(|&s| s > branch).collect();
        assert_eq!(squashed, younger);
        assert!(w.iter().all(|e| e.seq < branch));
        assert_eq!(w.len(), seqs.len() - 2 - younger.len());
    }

    #[test]
    fn event_wheel_grows_without_losing_or_reordering_events() {
        let mut wheel = EventWheel::new();
        let first = wheel.slots.len() as u64;
        let now = 5;
        let cycles = [now + 1, now + first - 1, now + 1, now + 3 * first];
        for (k, &cycle) in cycles.iter().enumerate() {
            wheel.schedule(now, cycle, Event::Finish(k as u64));
        }
        assert!(wheel.slots.len() > first as usize);
        assert_eq!(wheel.next_due(now), Some(now + 1));
        let mut fired = Vec::new();
        for c in now..=now + 3 * first {
            if c > now + first {
                assert_eq!(wheel.next_due(c), Some(now + 3 * first), "from {c}");
            }
            let due = wheel.take_due(c);
            fired.extend(due.iter().map(|ev| (c, ev.seq())));
            wheel.recycle(c, due);
        }
        let want = [
            (now + 1, 0),
            (now + 1, 2),
            (now + first - 1, 1),
            (now + 3 * first, 3),
        ];
        assert_eq!(fired, want);
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_due(now + 3 * first), None);
    }

    #[test]
    fn ready_lists_stay_in_age_order() {
        let mut list = Vec::new();
        for seq in [7, 3, 9, 5, 1, 8] {
            insert_by_age(&mut list, seq);
        }
        assert_eq!(list, [1, 3, 5, 7, 8, 9]);
        // Dispatch takes entries from anywhere in the list.
        remove_in_order(&mut list, 2);
        assert_eq!(list, [1, 3, 7, 8, 9]);
        remove_in_order(&mut list, 0);
        remove_in_order(&mut list, 3);
        assert_eq!(list, [3, 7, 8]);
        insert_by_age(&mut list, 4);
        assert_eq!(list, [3, 4, 7, 8]);
    }

    /// Issue, completion, dispatch and commit cycles by sequence number.
    #[derive(Default)]
    struct Timeline {
        issued: Vec<(u64, u64)>,
        dispatched: Vec<(u64, u64)>,
        completed: Vec<(u64, u64)>,
        committed: Vec<(u64, u64)>,
    }

    impl Timeline {
        fn at(events: &[(u64, u64)], seq: u64) -> u64 {
            events
                .iter()
                .find(|&&(s, _)| s == seq)
                .map(|&(_, cycle)| cycle)
                .expect("the event happened")
        }
    }

    impl PipelineObserver for Timeline {
        fn issue(&mut self, cycle: u64, seq: u64) {
            self.issued.push((seq, cycle));
        }
        fn dispatch(&mut self, cycle: u64, seq: u64, _: FuClass, _: u64) {
            self.dispatched.push((seq, cycle));
        }
        fn complete(&mut self, cycle: u64, seq: u64) {
            self.completed.push((seq, cycle));
        }
        fn commit(&mut self, cycle: u64, seq: u64) {
            self.committed.push((seq, cycle));
        }
    }

    /// Runs, on the RUU under `bypass`, a producer of S1 (seq 1) that
    /// completes while an older load holds up commit, and two consumers:
    /// seq 3, decoded in the producer's completion cycle, and seq 4,
    /// decoded one cycle later. Returns the cycles at which the two
    /// consumers dispatch and the cycle at which the producer commits.
    fn same_cycle_consumers(bypass: Bypass) -> (u64, u64, u64) {
        let mut a = Asm::new("result-bus");
        a.ld_s(Reg::s(7), Reg::a(0), 0); // seq 0: holds the head for 11 cycles
        a.s_imm(Reg::s(1), 5); // seq 1: the producer
        a.nop(); // seq 2
        a.s_add(Reg::s(2), Reg::s(1), Reg::s(1)); // seq 3
        a.s_add(Reg::s(3), Reg::s(1), Reg::s(1)); // seq 4
        a.halt();
        let program = a.assemble().unwrap();
        let sim = crate::Mechanism::Ruu {
            entries: 10,
            bypass,
        }
        .build(&MachineConfig::paper());
        let mut t = Timeline::default();
        let r = sim
            .run_observed(ArchState::new(), Memory::new(16), &program, 100, &mut t)
            .unwrap();
        assert_eq!(r.state.reg(Reg::s(2)), 10);
        assert_eq!(r.state.reg(Reg::s(3)), 10);
        let done = Timeline::at(&t.completed, 1);
        assert_eq!(
            Timeline::at(&t.issued, 3),
            done,
            "seq 3 decodes as seq 1 completes"
        );
        assert_eq!(Timeline::at(&t.issued, 4), done + 1);
        let commit = Timeline::at(&t.committed, 1);
        assert!(commit > done + 2, "the load holds up the producer's commit");
        (
            Timeline::at(&t.dispatched, 3),
            Timeline::at(&t.dispatched, 4),
            commit,
        )
    }

    #[test]
    fn a_result_on_the_result_bus_reaches_a_consumer_decoded_that_cycle() {
        // Without a bypass to S registers, a consumer decoded in its
        // producer's completion cycle takes the value off the result bus;
        // one decoded a cycle later missed it and waits for the commit
        // bus.
        for bypass in [Bypass::None, Bypass::LimitedA] {
            let (first, second, commit) = same_cycle_consumers(bypass);
            assert!(first < commit, "{bypass:?}: seq 3 reads the result bus");
            assert!(
                second > commit,
                "{bypass:?}: seq 4 waits for the commit bus"
            );
        }
        // The full bypass serves both from the producer's entry.
        let (first, second, commit) = same_cycle_consumers(Bypass::Full);
        assert!(first < commit && second < commit);
    }
}
