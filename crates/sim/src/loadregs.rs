//! Load registers: memory disambiguation and forwarding (paper §3.2.1.2).
//!
//! The load registers hold the addresses of "currently active" memory
//! locations. Memory operations present their addresses **in program
//! order** (the caller enforces this: "if the address of a load/store
//! operation is unavailable, subsequent load/store instructions are not
//! allowed to proceed"). Each operation is matched associatively against
//! the load registers:
//!
//! * a **load** that matches a busy entry is *not* submitted to memory —
//!   its data comes from the entry's current *provider* (a pending store's
//!   data, or a pending load's memory response) when that data is known;
//! * a **load** with no match allocates an entry, goes to memory, and
//!   becomes the entry's provider;
//! * a **store** that matches updates the entry's provider to itself; with
//!   no match it allocates an entry;
//! * an operation blocks (and the caller must retry) when no entry is free.
//!
//! An entry is freed when every operation that touched it has retired
//! ("a load register is free if there are no pending load or store
//! instructions to the memory address").
//!
//! The registers and their definer stacks are allocated once per unit: a
//! register with no pending operation is free, and taking it again only
//! clears its stack.

use std::collections::VecDeque;

/// Identifier of a dynamic memory operation (the simulators use the
/// dynamic instruction sequence number).
pub type OpId = u64;

/// Whether a memory operation reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// A memory read.
    Load,
    /// A memory write.
    Store,
}

/// What the load-register unit decided for a processed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrOutcome {
    /// Load: no pending operation on this address — submit to memory.
    /// The load is now the address's provider.
    ToMemory,
    /// Load: the address's current data is already known; forward it.
    Forwarded {
        /// The forwarded data value.
        value: u64,
    },
    /// Load: wait until `provider`'s data is announced via
    /// [`LoadRegUnit::provider_ready`].
    WaitOn {
        /// The operation that will produce this load's data.
        provider: OpId,
    },
    /// Store: recorded; the store is now the address's provider.
    StoreRecorded,
}

#[derive(Debug, Clone, Default)]
struct Entry {
    addr: u64,
    /// Operations (loads and stores) still pending on this address; the
    /// register is free when this is zero.
    count: u32,
    /// Pending data definers for this address, oldest first; the last is
    /// the current provider. Empty means the architectural memory is
    /// current. A stack (rather than one slot) so that squashing a
    /// speculative store reverts to the still-pending older definer, and
    /// retiring an old definer leaves a newer one in charge.
    providers: Vec<OpId>,
}

/// A data definer's value, once announced, and the loads waiting for it.
#[derive(Debug, Clone, Default)]
struct ProviderState {
    value: Option<u64>,
    waiters: Vec<OpId>,
}

/// One pending operation: its load register, its kind, its provider
/// state if it defines the address's data, and the provider it waits on
/// if it is a matched load.
#[derive(Debug, Clone)]
struct Op {
    slot: usize,
    kind: MemOpKind,
    provider: Option<ProviderState>,
    waits_on: Option<OpId>,
}

/// The load-register unit (paper §3.2.1.2 and §5.1; 6 entries by default).
///
/// Pending operations live in a ring indexed by id: `ops[i]` is operation
/// `base + i`. Operations arrive in program order, so the ring only grows
/// at the back; ids that are not memory operations, and operations that
/// retired out of order, leave holes, and the front advances past holes.
#[derive(Debug, Clone)]
pub struct LoadRegUnit {
    entries: Vec<Entry>,
    /// Registers with a pending operation.
    busy: usize,
    ops: VecDeque<Option<Op>>,
    base: OpId,
    /// One past the newest operation processed.
    next: OpId,
}

impl LoadRegUnit {
    /// Creates a unit with `n` load registers.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "at least one load register is required");
        LoadRegUnit {
            entries: vec![Entry::default(); n],
            busy: 0,
            ops: VecDeque::new(),
            base: 0,
            next: 0,
        }
    }

    /// Number of free load registers.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.entries.iter().filter(|e| e.count == 0).count()
    }

    /// `true` if every load register is busy.
    #[must_use]
    #[inline]
    pub fn is_full(&self) -> bool {
        self.busy == self.entries.len()
    }

    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.count > 0 && e.addr == addr)
    }

    /// Drops one pending operation from register `slot`, freeing it when
    /// none is left.
    #[inline]
    fn release(&mut self, slot: usize) {
        let entry = &mut self.entries[slot];
        entry.count -= 1;
        if entry.count == 0 {
            self.busy -= 1;
        }
    }

    #[inline]
    fn op_mut(&mut self, op: OpId) -> Option<&mut Op> {
        let i = usize::try_from(op.checked_sub(self.base)?).ok()?;
        self.ops.get_mut(i)?.as_mut()
    }

    /// Takes pending operation `op` out of the ring.
    #[inline]
    fn take_op(&mut self, op: OpId) -> Option<Op> {
        let i = usize::try_from(op.checked_sub(self.base)?).ok()?;
        let taken = self.ops.get_mut(i)?.take();
        while let Some(None) = self.ops.front() {
            self.ops.pop_front();
            self.base += 1;
        }
        taken
    }

    /// Presents operation `op` (with known effective address `addr`) to
    /// the load registers. Must be called in program order across memory
    /// operations, exactly once per operation.
    ///
    /// Returns `None` if the operation needs a new entry but none is free;
    /// the caller must retry next cycle (issue is blocked, paper
    /// §3.2.1.2).
    ///
    /// # Panics
    /// Panics if `op` is not younger than every operation already
    /// processed — a duplicate would silently corrupt the entry's
    /// pending-operation count, so the protocol check is always on, not
    /// just in debug builds.
    #[inline]
    pub fn process(&mut self, op: OpId, kind: MemOpKind, addr: u64) -> Option<LrOutcome> {
        assert!(
            op >= self.next,
            "op {op} processed twice by the load registers"
        );
        let slot = match self.find(addr) {
            Some(slot) => slot,
            None => {
                let slot = self.entries.iter().position(|e| e.count == 0)?;
                let entry = &mut self.entries[slot];
                entry.addr = addr;
                entry.providers.clear();
                self.busy += 1;
                slot
            }
        };
        let entry = &mut self.entries[slot];
        entry.count += 1;
        let current = entry.providers.last().copied();
        let defines = kind == MemOpKind::Store || current.is_none();
        if defines {
            entry.providers.push(op);
        }
        let (outcome, waits_on) = match (kind, current) {
            (MemOpKind::Store, _) => (LrOutcome::StoreRecorded, None),
            (MemOpKind::Load, None) => (LrOutcome::ToMemory, None),
            (MemOpKind::Load, Some(p)) => {
                let ps = self
                    .op_mut(p)
                    .and_then(|o| o.provider.as_mut())
                    .expect("live provider has state");
                match ps.value {
                    Some(value) => (LrOutcome::Forwarded { value }, None),
                    None => {
                        ps.waiters.push(op);
                        (LrOutcome::WaitOn { provider: p }, Some(p))
                    }
                }
            }
        };
        if self.ops.is_empty() {
            self.base = op;
        }
        let gap = op - (self.base + self.ops.len() as u64);
        self.ops.extend((0..gap).map(|_| None));
        self.ops.push_back(Some(Op {
            slot,
            kind,
            provider: defines.then(ProviderState::default),
            waits_on,
        }));
        self.next = op + 1;
        Some(outcome)
    }

    /// Announces that `provider`'s data value is now known (a store's
    /// operands became ready, or a load's memory response arrived).
    /// Returns the loads that were waiting on it; each receives `value`.
    ///
    /// # Panics
    /// Panics if `provider` is not a live provider, or if its value was
    /// already announced — waiters attached between the two announcements
    /// would observe the wrong one, so the check is always on.
    #[inline]
    pub fn provider_ready(&mut self, provider: OpId, value: u64) -> Vec<OpId> {
        let ps = self
            .op_mut(provider)
            .and_then(|o| o.provider.as_mut())
            .expect("provider_ready called for unknown provider");
        assert!(ps.value.is_none(), "provider {provider} announced twice");
        ps.value = Some(value);
        std::mem::take(&mut ps.waiters)
    }

    /// Removes a *speculative* operation that is being nullified (branch
    /// misprediction squash). Any waiter of `op` is necessarily younger
    /// (providers are assigned in program order) and is being squashed by
    /// the same event — callers must squash in descending sequence order
    /// (youngest first) so waiters disappear before their providers; `op`
    /// is also dropped from its provider's waiter list. A no-op if `op`
    /// was never processed.
    ///
    /// # Panics
    /// Panics if `op` still has unwoken waiters — squashing a provider
    /// before its (younger) waiters is the out-of-order squash the
    /// contract forbids, and would strand those waiters forever; the
    /// check is always on.
    #[inline]
    pub fn squash(&mut self, op: OpId) {
        let Some(squashed) = self.take_op(op) else {
            return;
        };
        if let Some(ps) = &squashed.provider {
            assert!(
                ps.waiters.is_empty() || ps.value.is_some(),
                "unwoken waiters of a squashed provider must be squashed too"
            );
        }
        if let Some(ps) = squashed
            .waits_on
            .and_then(|p| self.op_mut(p))
            .and_then(|o| o.provider.as_mut())
        {
            ps.waiters.retain(|w| *w != op);
        }
        let entry = &mut self.entries[squashed.slot];
        assert!(entry.count > 0, "a pending op's register is busy");
        entry.providers.retain(|p| *p != op);
        self.release(squashed.slot);
    }

    /// Marks `op` as finished with the memory system (its broadcast is
    /// done / its memory write is performed). Frees the entry once no
    /// operation is pending on the address.
    ///
    /// # Panics
    /// Panics if `op` was never processed.
    #[inline]
    pub fn retire(&mut self, op: OpId) {
        let Op { slot, kind, .. } = self.take_op(op).expect("retire called for unprocessed op");
        let entry = &mut self.entries[slot];
        assert!(entry.count > 0, "a pending op's register is busy");
        match kind {
            // A retiring store has written the architectural memory: it
            // leaves the definer stack, and so does everything *older*
            // beneath it — an older pending load's data is now stale with
            // respect to memory and must not be forwarded to new readers.
            // (Its already-attached waiters are older than the store and
            // correctly keep its value.)
            MemOpKind::Store => {
                if let Some(idx) = entry.providers.iter().position(|p| *p == op) {
                    entry.providers.drain(..=idx);
                }
            }
            // A retiring load changed nothing; newer definers (if any)
            // stay in charge.
            MemOpKind::Load => entry.providers.retain(|p| *p != op),
        }
        self.release(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_with_no_match_goes_to_memory() {
        let mut lr = LoadRegUnit::new(2);
        assert_eq!(
            lr.process(1, MemOpKind::Load, 100),
            Some(LrOutcome::ToMemory)
        );
        assert_eq!(lr.free_count(), 1);
        lr.provider_ready(1, 42);
        lr.retire(1);
        assert_eq!(lr.free_count(), 2);
    }

    #[test]
    fn load_after_pending_store_waits_then_forwards() {
        let mut lr = LoadRegUnit::new(2);
        assert_eq!(
            lr.process(1, MemOpKind::Store, 100),
            Some(LrOutcome::StoreRecorded)
        );
        assert_eq!(
            lr.process(2, MemOpKind::Load, 100),
            Some(LrOutcome::WaitOn { provider: 1 })
        );
        let woken = lr.provider_ready(1, 7);
        assert_eq!(woken, vec![2]);
        // a later load sees the value immediately
        assert_eq!(
            lr.process(3, MemOpKind::Load, 100),
            Some(LrOutcome::Forwarded { value: 7 })
        );
        lr.retire(1);
        lr.retire(2);
        lr.retire(3);
        assert!(lr.free_count() == 2);
    }

    #[test]
    fn load_load_sharing() {
        let mut lr = LoadRegUnit::new(1);
        assert_eq!(lr.process(1, MemOpKind::Load, 5), Some(LrOutcome::ToMemory));
        assert_eq!(
            lr.process(2, MemOpKind::Load, 5),
            Some(LrOutcome::WaitOn { provider: 1 })
        );
        assert_eq!(lr.provider_ready(1, 11), vec![2]);
        lr.retire(1);
        lr.retire(2);
    }

    #[test]
    fn newer_store_overrides_provider_without_disturbing_waiters() {
        let mut lr = LoadRegUnit::new(1);
        lr.process(1, MemOpKind::Store, 9); // S1
        assert_eq!(
            lr.process(2, MemOpKind::Load, 9),
            Some(LrOutcome::WaitOn { provider: 1 })
        );
        lr.process(3, MemOpKind::Store, 9); // S2 becomes provider
                                            // L4 must get S2's data, not S1's
        assert_eq!(
            lr.process(4, MemOpKind::Load, 9),
            Some(LrOutcome::WaitOn { provider: 3 })
        );
        // S1 ready: only L2 wakes, with S1's value
        assert_eq!(lr.provider_ready(1, 100), vec![2]);
        // S2 ready: only L4 wakes
        assert_eq!(lr.provider_ready(3, 200), vec![4]);
        for op in [1, 2, 3, 4] {
            lr.retire(op);
        }
        assert_eq!(lr.free_count(), 1);
    }

    #[test]
    fn blocks_when_full() {
        let mut lr = LoadRegUnit::new(1);
        lr.process(1, MemOpKind::Load, 1);
        assert_eq!(lr.process(2, MemOpKind::Load, 2), None); // different addr, no free LR
        assert!(lr.is_full());
        // same address still matches, no new entry needed
        assert_eq!(
            lr.process(3, MemOpKind::Load, 1),
            Some(LrOutcome::WaitOn { provider: 1 })
        );
    }

    #[test]
    fn retired_provider_makes_memory_current() {
        let mut lr = LoadRegUnit::new(1);
        lr.process(1, MemOpKind::Store, 4);
        lr.process(2, MemOpKind::Load, 4); // waits on store
        lr.provider_ready(1, 5);
        lr.retire(1); // store committed; memory now current
                      // entry still busy (load 2 pending) but provider cleared:
        assert_eq!(lr.process(3, MemOpKind::Load, 4), Some(LrOutcome::ToMemory));
        lr.provider_ready(3, 5);
        lr.retire(2);
        lr.retire(3);
        assert_eq!(lr.free_count(), 1);
    }

    #[test]
    fn squash_restores_the_unit() {
        let mut lr = LoadRegUnit::new(2);
        lr.process(1, MemOpKind::Store, 7); // older store, survives
        lr.process(2, MemOpKind::Load, 7); // waits on 1
        lr.process(3, MemOpKind::Store, 7); // speculative, squashed
        lr.process(4, MemOpKind::Load, 7); // waits on 3, squashed
                                           // Squash youngest-first.
        lr.squash(4);
        lr.squash(3);
        // The older store's waiter is intact and provider-ship reverts.
        assert_eq!(lr.provider_ready(1, 9), vec![2]);
        // A new load sees the old store's data, not the squashed one's.
        assert_eq!(
            lr.process(5, MemOpKind::Load, 7),
            Some(LrOutcome::Forwarded { value: 9 })
        );
        lr.retire(1);
        lr.retire(2);
        lr.retire(5);
        assert_eq!(lr.free_count(), 2);
    }

    #[test]
    fn squash_after_an_out_of_order_retire_skips_the_holes() {
        let mut lr = LoadRegUnit::new(3);
        assert_eq!(lr.process(2, MemOpKind::Load, 7), Some(LrOutcome::ToMemory));
        assert_eq!(lr.process(5, MemOpKind::Load, 8), Some(LrOutcome::ToMemory));
        lr.process(6, MemOpKind::Store, 7);
        assert_eq!(
            lr.process(9, MemOpKind::Load, 7),
            Some(LrOutcome::WaitOn { provider: 6 })
        );
        // The younger load to 8 finishes first: a hole between 2 and 6.
        lr.provider_ready(5, 50);
        lr.retire(5);
        assert_eq!(lr.free_count(), 2);
        // A mispredict squashes 9 and 6, youngest first; 9 leaves its
        // provider's waiter list, and 6 leaves the definer stack.
        lr.squash(9);
        lr.squash(6);
        lr.squash(5); // already retired: a no-op
        assert_eq!(lr.provider_ready(2, 20), Vec::<OpId>::new());
        assert_eq!(
            lr.process(10, MemOpKind::Load, 7),
            Some(LrOutcome::Forwarded { value: 20 })
        );
        lr.retire(2);
        lr.retire(10);
        assert_eq!(lr.free_count(), 3);
        // The ring is empty again; younger operations start a new one.
        assert_eq!(
            lr.process(40, MemOpKind::Load, 7),
            Some(LrOutcome::ToMemory)
        );
        assert_eq!(lr.ops.len(), 1);
    }

    #[test]
    fn freed_registers_are_reused_without_stale_providers() {
        let mut lr = LoadRegUnit::new(2);
        // One register holds a store whose data is known, and is freed by
        // retiring it; the other holds a load still waiting for memory,
        // and is freed by squashing it.
        assert_eq!(
            lr.process(1, MemOpKind::Store, 10),
            Some(LrOutcome::StoreRecorded)
        );
        lr.provider_ready(1, 7);
        assert_eq!(
            lr.process(2, MemOpKind::Load, 20),
            Some(LrOutcome::ToMemory)
        );
        assert!(lr.is_full());
        lr.retire(1);
        lr.squash(2);
        assert_eq!(lr.free_count(), 2);
        // New addresses take both registers. Each load goes to memory
        // rather than forwarding from or waiting on an old provider, and
        // becomes the provider of the next load to its address.
        assert_eq!(
            lr.process(3, MemOpKind::Load, 30),
            Some(LrOutcome::ToMemory)
        );
        assert_eq!(
            lr.process(4, MemOpKind::Load, 40),
            Some(LrOutcome::ToMemory)
        );
        assert!(lr.is_full());
        assert_eq!(
            lr.process(5, MemOpKind::Load, 30),
            Some(LrOutcome::WaitOn { provider: 3 })
        );
        assert_eq!(
            lr.process(6, MemOpKind::Load, 40),
            Some(LrOutcome::WaitOn { provider: 4 })
        );
        // The old addresses no longer hold a register.
        assert_eq!(lr.process(7, MemOpKind::Load, 10), None);
        assert_eq!(lr.process(7, MemOpKind::Load, 20), None);
    }

    #[test]
    fn squash_of_sole_op_frees_entry() {
        let mut lr = LoadRegUnit::new(1);
        lr.process(1, MemOpKind::Load, 3);
        assert!(lr.is_full());
        lr.squash(1);
        assert_eq!(lr.free_count(), 1);
        // unknown op squash is a no-op
        lr.squash(99);
    }

    /// Randomized protocol check: drive the unit with arbitrary
    /// interleavings of processing, data arrival, retirement (stores
    /// retiring in program order, as every precise machine does) and
    /// mispredict-style squashes of a youngest suffix of the in-flight
    /// operations, and assert every surviving load observes exactly the
    /// value of the last earlier *non-squashed* store to its address —
    /// or initial memory if there is none.
    #[test]
    fn randomized_protocol_preserves_program_order_semantics() {
        use std::collections::HashMap;

        #[derive(Clone, Copy, PartialEq)]
        enum St {
            NotProcessed,
            /// Data pending from this provider (self for stores and
            /// memory loads, an older op for matched loads).
            WaitingData(OpId),
            HasValue(u64),
            Retired,
            /// Removed by a squash; excluded from program semantics.
            Squashed,
        }
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for round in 0..300u32 {
            let n_ops = 4 + (next() % 12) as usize;
            let mut lr = LoadRegUnit::new(2 + (next() % 3) as usize);
            // program: (is_store, addr, store value)
            let ops: Vec<(bool, u64, u64)> = (0..n_ops)
                .map(|i| (next() % 2 == 0, next() % 3, 1000 + i as u64))
                .collect();
            let initial = |addr: u64| 500 + addr;
            // the value a load at position i must observe, given which ops
            // have been squashed out of the program so far
            let expected = |i: usize, st: &[St]| -> u64 {
                ops[..i]
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(j, (is_store, a, _))| {
                        *is_store && *a == ops[i].1 && st[*j] != St::Squashed
                    })
                    .map_or(initial(ops[i].1), |(_, (_, _, v))| *v)
            };
            let mut st = vec![St::NotProcessed; n_ops];
            let mut mem: HashMap<u64, u64> = HashMap::new(); // applied at store retire
            let mut sampled: HashMap<usize, u64> = HashMap::new(); // ToMemory reads
            let mut processed = 0usize;
            let mut guard = 0;
            while st.iter().any(|s| !matches!(s, St::Retired | St::Squashed)) {
                assert_eq!(lr.is_full(), lr.free_count() == 0, "round {round}");
                guard += 1;
                assert!(guard < 20_000, "driver wedged in round {round}");
                match next() % 8 {
                    // process the next op in program order
                    0..=2 if processed < n_ops => {
                        let i = processed;
                        let (is_store, addr, _) = ops[i];
                        let kind = if is_store {
                            MemOpKind::Store
                        } else {
                            MemOpKind::Load
                        };
                        let Some(out) = lr.process(i as OpId, kind, addr) else {
                            continue; // unit full; do something else
                        };
                        processed += 1;
                        st[i] = match out {
                            LrOutcome::StoreRecorded => St::WaitingData(i as OpId),
                            LrOutcome::ToMemory => {
                                // No pending store on the address, so all
                                // earlier same-address stores retired: the
                                // memory sample is program-order correct.
                                let v = mem.get(&addr).copied().unwrap_or(initial(addr));
                                assert_eq!(v, expected(i, &st), "ToMemory load {i} round {round}");
                                sampled.insert(i, v);
                                St::WaitingData(i as OpId)
                            }
                            LrOutcome::Forwarded { value } => {
                                assert_eq!(
                                    value,
                                    expected(i, &st),
                                    "forwarded load {i} round {round}"
                                );
                                St::HasValue(value)
                            }
                            LrOutcome::WaitOn { provider } => St::WaitingData(provider),
                        };
                    }
                    0..=2 => continue, // nothing left to process
                    // a self-provider's data becomes known (store operands
                    // ready / memory response back)
                    3 | 4 => {
                        let ready: Vec<usize> = (0..processed)
                            .filter(|&i| st[i] == St::WaitingData(i as OpId))
                            .collect();
                        if ready.is_empty() {
                            continue;
                        }
                        let i = ready[(next() % ready.len() as u64) as usize];
                        let v = if ops[i].0 { ops[i].2 } else { sampled[&i] };
                        for w in lr.provider_ready(i as OpId, v) {
                            let w = w as usize;
                            assert_eq!(v, expected(w, &st), "woken load {w} round {round}");
                            st[w] = St::HasValue(v);
                        }
                        st[i] = St::HasValue(v);
                    }
                    // retire: loads with data any time; stores in program
                    // order once their data is known (squashed stores no
                    // longer gate anything)
                    5 | 6 => {
                        let pick: Vec<usize> = (0..processed)
                            .filter(|&i| matches!(st[i], St::HasValue(_)))
                            .filter(|&i| {
                                !ops[i].0
                                    || ops[..i].iter().enumerate().all(|(j, o)| {
                                        !o.0 || matches!(st[j], St::Retired | St::Squashed)
                                    })
                            })
                            .collect();
                        if pick.is_empty() {
                            continue;
                        }
                        let i = pick[(next() % pick.len() as u64) as usize];
                        lr.retire(i as OpId);
                        if ops[i].0 {
                            mem.insert(ops[i].1, ops[i].2);
                        }
                        st[i] = St::Retired;
                    }
                    // mispredict repair: squash a random youngest suffix of
                    // the in-flight ops, youngest first, as every precise
                    // machine's recovery sequence does
                    _ => {
                        let mut max_k = 0;
                        for i in (0..processed).rev() {
                            if matches!(st[i], St::Retired | St::Squashed) {
                                break;
                            }
                            max_k += 1;
                        }
                        if max_k == 0 {
                            continue;
                        }
                        let k = 1 + (next() % max_k) as usize;
                        for i in ((processed - k)..processed).rev() {
                            lr.squash(i as OpId);
                            st[i] = St::Squashed;
                        }
                    }
                }
            }
            assert_eq!(lr.free_count(), lr.entries.len(), "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown provider")]
    fn provider_ready_for_nonprovider_panics() {
        let mut lr = LoadRegUnit::new(1);
        lr.process(1, MemOpKind::Store, 4);
        lr.process(2, MemOpKind::Load, 4);
        lr.provider_ready(2, 0); // the waiting load is not a provider
    }

    #[test]
    #[should_panic(expected = "processed twice")]
    fn double_process_is_rejected_in_release_builds_too() {
        let mut lr = LoadRegUnit::new(2);
        lr.process(1, MemOpKind::Load, 3);
        lr.process(1, MemOpKind::Load, 3);
    }

    #[test]
    #[should_panic(expected = "announced twice")]
    fn double_announce_is_rejected_in_release_builds_too() {
        let mut lr = LoadRegUnit::new(2);
        lr.process(1, MemOpKind::Store, 3);
        lr.provider_ready(1, 7);
        lr.provider_ready(1, 7);
    }

    #[test]
    #[should_panic(expected = "squashed too")]
    fn out_of_order_squash_is_rejected_in_release_builds_too() {
        let mut lr = LoadRegUnit::new(2);
        lr.process(1, MemOpKind::Store, 4);
        lr.process(2, MemOpKind::Load, 4); // waits on 1
        lr.squash(1); // oldest-first squash strands the waiting load
    }
}
