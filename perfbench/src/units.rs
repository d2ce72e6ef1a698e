//! One simulation unit — a fresh simulator for one (mechanism, machine
//! configuration, program) — and the checks on what it produced.

use std::fmt;

use ruu_exec::ArchState;
use ruu_issue::{IssueSimulator, Mechanism, SimError};
use ruu_sim_core::{AccountingViolation, CycleAccountant, RunResult, Tee};
use ruu_workloads::VerifyError;

use crate::inputs::Input;
use crate::observer::{CountingObserver, Counts};
use crate::thread_cpu_ns;

/// A unit of a workload's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSpec {
    /// The issue mechanism.
    pub mechanism: Mechanism,
    /// Index into the plan's machine configurations.
    pub config: usize,
    /// Index into the plan's programs.
    pub program: usize,
    /// How many times the workload runs this unit per pass (the sweep
    /// grid runs duplicate jobs; every other unit runs once).
    pub weight: u64,
}

/// Why a unit failed.
#[derive(Debug, Clone)]
pub enum UnitFailure {
    /// The simulator returned an error.
    Sim(SimError),
    /// Final memory disagrees with the program's checks (the Livermore
    /// mirror, or a synthetic program's golden memory).
    Mirror(VerifyError),
    /// The run disagrees with the golden run on the named item.
    Golden(&'static str),
    /// The cycle-accounting identity did not hold.
    Accounting(AccountingViolation),
    /// The counting observer disagrees with the simulator's statistics.
    Observer(String),
}

impl fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitFailure::Sim(e) => write!(f, "simulator error: {e}"),
            UnitFailure::Mirror(e) => write!(f, "check failed: {e}"),
            UnitFailure::Golden(what) => write!(f, "{what} differs from the golden run"),
            UnitFailure::Accounting(v) => write!(f, "{v}"),
            UnitFailure::Observer(e) => write!(f, "{e}"),
        }
    }
}

/// Checks a finished run against the program's checks and golden run.
///
/// # Errors
/// The first disagreement found.
pub fn verify(input: &Input, r: &RunResult) -> Result<(), UnitFailure> {
    input
        .workload
        .verify(&r.memory)
        .map_err(UnitFailure::Mirror)?;
    if r.instructions != input.instructions() {
        return Err(UnitFailure::Golden("instruction count"));
    }
    if r.state != *input.golden.final_state() {
        return Err(UnitFailure::Golden("final architectural state"));
    }
    if r.memory != *input.golden.final_memory() {
        return Err(UnitFailure::Golden("final memory"));
    }
    Ok(())
}

/// Runs `input` once, untraced; returns the host CPU ns of the
/// `IssueSimulator::run` call and its verified result.
///
/// # Errors
/// The simulator's error, or a failed check.
pub fn run_timed(sim: &dyn IssueSimulator, input: &Input) -> Result<(u64, RunResult), UnitFailure> {
    let w = &input.workload;
    let mem = w.memory.clone();
    let t = thread_cpu_ns();
    let r = sim.run(&w.program, mem, w.inst_limit);
    let ns = thread_cpu_ns() - t;
    let r = r.map_err(UnitFailure::Sim)?;
    verify(input, &r)?;
    Ok((ns, r))
}

/// A traced unit's outcome.
#[derive(Debug, Clone)]
pub struct Observed {
    /// The verified result.
    pub result: RunResult,
    /// What the counting observer saw.
    pub counts: Counts,
    /// The data-cache `(address, cycle)` stream, when recorded.
    pub accesses: Vec<(u64, u64)>,
}

/// Runs `input` once with the counting observer and a [`CycleAccountant`]
/// attached.
///
/// # Errors
/// The simulator's error, a failed check, a cycle-accounting violation, or
/// an observer that disagrees with the simulator's statistics.
pub fn run_observed(
    sim: &dyn IssueSimulator,
    input: &Input,
    record_accesses: bool,
) -> Result<Observed, UnitFailure> {
    let w = &input.workload;
    let mut counter = CountingObserver::new(&w.program, sim.config(), record_accesses);
    let mut accountant = CycleAccountant::default();
    let mem = w.memory.clone();
    let r = {
        let mut both = Tee::new(&mut counter, &mut accountant);
        sim.run_observed(ArchState::new(), mem, &w.program, w.inst_limit, &mut both)
    };
    let result = r.map_err(UnitFailure::Sim)?;
    accountant
        .verify(result.cycles)
        .map_err(UnitFailure::Accounting)?;
    let (counts, accesses) = counter.finish();
    counts
        .check(&result.stats, result.cycles)
        .map_err(UnitFailure::Observer)?;
    verify(input, &result)?;
    Ok(Observed {
        result,
        counts,
        accesses,
    })
}
