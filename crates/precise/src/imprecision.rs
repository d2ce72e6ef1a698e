//! The counter-demonstration: out-of-order-commit mechanisms are
//! imprecise.
//!
//! A mechanism is *imprecise* if the machine can be observed (at an
//! exception) in a state that matches **no** program-order boundary: some
//! younger instruction has updated architectural state while an older one
//! has not (paper §1, §4). The RSTU — the paper's best performer before
//! the RUU — fails exactly this way, which is the entire motivation for
//! constraining it into the RUU.

use ruu_exec::{golden_state_at, ArchState, Memory};
use ruu_isa::{Asm, Program, Reg};
use ruu_issue::{InterruptFrame, Mechanism, RunOutcome, SimError};
use ruu_sim_core::{MachineConfig, NullObserver};

/// Evidence that a mechanism reached a state matching no program-order
/// boundary.
#[derive(Debug, Clone)]
pub struct ImprecisionEvidence {
    /// The probed dynamic instruction (a younger instruction that
    /// executed early).
    pub probe_seq: u64,
    /// For each boundary `k` (0..=n), whether the observed state equals
    /// the golden state after exactly `k` instructions.
    pub boundary_matches: Vec<bool>,
}

impl ImprecisionEvidence {
    /// `true` if *no* boundary matched — the state was irrecoverable by
    /// program-order semantics.
    #[must_use]
    pub fn is_imprecise(&self) -> bool {
        !self.boundary_matches.iter().any(|&m| m)
    }
}

/// A program crafted so that a fast store (dynamic index 3) executes
/// while an older, slow register write (index 1) is still in flight.
#[must_use]
pub fn witness_program() -> (Program, Memory, u64) {
    let mut a = Asm::new("imprecision-witness");
    a.a_imm(Reg::a(1), 80); // 0
    a.f_recip(Reg::s(1), Reg::s(0)); // 1: slow (14 cycles)
    a.s_imm(Reg::s(2), 5); // 2: fast
    a.st_s(Reg::s(2), Reg::a(1), 0); // 3: fast store — the probe
    a.halt();
    (
        a.assemble().expect("witness assembles"),
        Memory::new(1 << 8),
        3,
    )
}

/// Runs `mechanism` on the witness program, takes an interrupt at the
/// moment the probe store would update memory, and compares the
/// interrupted machine state against every program-order boundary.
///
/// # Errors
/// Propagates simulator errors.
pub fn demonstrate(
    config: &MachineConfig,
    mechanism: Mechanism,
) -> Result<ImprecisionEvidence, SimError> {
    let (program, mem, probe_seq) = witness_program();
    let (start, obs) = (ArchState::new(), &mut NullObserver);
    let sim = mechanism.build(config);
    let outcome = sim.run_with_fault(start, mem.clone(), &program, 100_000, probe_seq, obs)?;
    let RunOutcome::Interrupted(InterruptFrame { state, memory, .. }) = outcome else {
        panic!("the probe store executes");
    };
    let n = program.len() as u64 - 1; // exclude Halt
    let mut boundary_matches = Vec::new();
    for k in 0..=n {
        let (gs, gm) = golden_state_at(&program, mem.clone(), k).expect("witness runs on golden");
        boundary_matches.push(state.regs == gs.regs && memory == gm);
    }
    Ok(ImprecisionEvidence {
        probe_seq,
        boundary_matches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rstu_is_imprecise() {
        let e = demonstrate(&MachineConfig::paper(), Mechanism::Rstu { entries: 8 }).unwrap();
        assert!(e.is_imprecise(), "matches: {:?}", e.boundary_matches);
    }

    #[test]
    fn tomasulo_is_imprecise() {
        let e = demonstrate(
            &MachineConfig::paper(),
            Mechanism::Tomasulo { rs_per_fu: 3 },
        )
        .unwrap();
        assert!(e.is_imprecise());
    }

    #[test]
    fn rs_pool_is_imprecise() {
        let e = demonstrate(
            &MachineConfig::paper(),
            Mechanism::RsPool { rs: 6, tags: 8 },
        )
        .unwrap();
        assert!(e.is_imprecise());
    }
}
