//! A uniform front-end over every issue mechanism, for sweeps and
//! comparisons.

use std::fmt;

use ruu_exec::Memory;
use ruu_isa::Program;
use ruu_sim_core::{MachineConfig, RunResult};

use crate::predict::PredictorConfig;
use crate::reorder::{InOrderPrecise, PreciseScheme};
use crate::ruu::{Bypass, Ruu};
use crate::simple::SimpleIssue;
use crate::simulator::IssueSimulator;
use crate::spec_ruu::SpecRuu;
use crate::tagged::{TaggedSim, WindowKind};
use crate::SimError;

/// Any of the paper's issue mechanisms, with its sizing parameters.
///
/// # Example
///
/// ```
/// use ruu_exec::Memory;
/// use ruu_isa::{Asm, Reg};
/// use ruu_issue::{Bypass, Mechanism};
/// use ruu_sim_core::MachineConfig;
///
/// let mut a = Asm::new("t");
/// a.a_imm(Reg::a(1), 3);
/// a.a_add(Reg::a(2), Reg::a(1), Reg::a(1));
/// a.halt();
/// let p = a.assemble()?;
///
/// let m = Mechanism::Ruu { entries: 10, bypass: Bypass::Full };
/// let r = m.run(&MachineConfig::paper(), &p, Memory::new(1 << 10), 10_000)?;
/// assert_eq!(r.state.reg(Reg::a(2)), 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// In-order blocking issue (paper Table 1 baseline).
    Simple,
    /// Classic Tomasulo: distributed reservation stations, per-register
    /// tags (paper §3.1).
    Tomasulo {
        /// Reservation stations per functional unit.
        rs_per_fu: usize,
    },
    /// Tag Unit + distributed reservation stations (paper §3.2.1).
    TagUnitDistributed {
        /// Reservation stations per functional unit.
        rs_per_fu: usize,
        /// Tag Unit capacity.
        tags: usize,
    },
    /// Tag Unit + merged reservation-station pool (paper §3.2.2).
    RsPool {
        /// Stations in the merged pool.
        rs: usize,
        /// Tag Unit capacity.
        tags: usize,
    },
    /// The RSTU (paper §3.2.3, Tables 2–3).
    Rstu {
        /// RSTU entries.
        entries: usize,
    },
    /// The RUU (paper §5–6, Tables 4–6).
    Ruu {
        /// RUU entries.
        entries: usize,
        /// Bypass policy.
        bypass: Bypass,
    },
    /// A Smith & Pleszkun in-order-issue precise machine (paper §4).
    InOrderPrecise {
        /// Precision scheme.
        scheme: PreciseScheme,
        /// Buffer entries.
        entries: usize,
    },
    /// The speculative RUU (paper §7): RUU plus branch prediction and
    /// conditional execution.
    SpecRuu {
        /// RUU entries.
        entries: usize,
        /// Bypass policy.
        bypass: Bypass,
        /// Branch predictor.
        predictor: PredictorConfig,
    },
}

impl Mechanism {
    /// Builds a ready-to-run simulator for this mechanism — the factory
    /// behind every uniform driver (sweep engines, the CLI, tests).
    ///
    /// The returned trait object is `Send`, so it can be handed to a
    /// worker thread; construction is configuration-only and cheap.
    #[must_use]
    pub fn build(&self, config: &MachineConfig) -> Box<dyn IssueSimulator> {
        match *self {
            Mechanism::Simple => Box::new(SimpleIssue::new(config.clone())),
            Mechanism::Tomasulo { rs_per_fu } => Box::new(TaggedSim::new(
                config.clone(),
                WindowKind::Distributed { rs_per_fu },
            )),
            Mechanism::TagUnitDistributed { rs_per_fu, tags } => Box::new(TaggedSim::new(
                config.clone(),
                WindowKind::TagUnitDistributed { rs_per_fu, tags },
            )),
            Mechanism::RsPool { rs, tags } => Box::new(TaggedSim::new(
                config.clone(),
                WindowKind::Pooled { rs, tags },
            )),
            Mechanism::Rstu { entries } => Box::new(TaggedSim::new(
                config.clone(),
                WindowKind::Merged { entries },
            )),
            Mechanism::Ruu { entries, bypass } => {
                Box::new(Ruu::new(config.clone(), entries, bypass))
            }
            Mechanism::InOrderPrecise { scheme, entries } => {
                Box::new(InOrderPrecise::new(config.clone(), scheme, entries))
            }
            Mechanism::SpecRuu {
                entries,
                bypass,
                predictor,
            } => Box::new(SpecRuu::with_predictor(
                config.clone(),
                entries,
                bypass,
                predictor,
            )),
        }
    }

    /// Runs `program` under this mechanism — a convenience wrapper over
    /// [`Mechanism::build`] for one-shot runs.
    ///
    /// # Errors
    /// Propagates the simulator's [`SimError`].
    pub fn run(
        &self,
        config: &MachineConfig,
        program: &Program,
        mem: Memory,
        limit: u64,
    ) -> Result<RunResult, SimError> {
        self.build(config).run(program, mem, limit)
    }

    /// The mechanism's primary window-sizing parameter, when it has one
    /// (RSTU/RUU/reorder-buffer entries, RS-pool stations). Sweep
    /// reports key rows by this value.
    #[must_use]
    pub fn window_entries(&self) -> Option<usize> {
        match *self {
            Mechanism::Simple
            | Mechanism::Tomasulo { .. }
            | Mechanism::TagUnitDistributed { .. } => None,
            Mechanism::RsPool { rs, .. } => Some(rs),
            Mechanism::Rstu { entries }
            | Mechanism::Ruu { entries, .. }
            | Mechanism::InOrderPrecise { entries, .. }
            | Mechanism::SpecRuu { entries, .. } => Some(entries),
        }
    }

    /// Whether this mechanism implements precise interrupts.
    #[must_use]
    pub fn is_precise(&self) -> bool {
        matches!(
            self,
            Mechanism::Ruu { .. } | Mechanism::InOrderPrecise { .. } | Mechanism::SpecRuu { .. }
        )
    }

    /// The branch predictor this mechanism speculates with, when it
    /// speculates at all.
    #[must_use]
    pub fn predictor(&self) -> Option<PredictorConfig> {
        match *self {
            Mechanism::SpecRuu { predictor, .. } => Some(predictor),
            _ => None,
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Mechanism::Simple => write!(f, "simple"),
            Mechanism::Tomasulo { rs_per_fu } => write!(f, "tomasulo(rs/fu={rs_per_fu})"),
            Mechanism::TagUnitDistributed { rs_per_fu, tags } => {
                write!(f, "tag-unit(rs/fu={rs_per_fu},tags={tags})")
            }
            Mechanism::RsPool { rs, tags } => write!(f, "rs-pool(rs={rs},tags={tags})"),
            Mechanism::Rstu { entries } => write!(f, "rstu({entries})"),
            Mechanism::Ruu { entries, bypass } => {
                write!(f, "ruu({entries},{})", bypass_name(bypass))
            }
            Mechanism::InOrderPrecise { scheme, entries } => {
                write!(f, "{}({entries})", scheme.name())
            }
            Mechanism::SpecRuu {
                entries,
                bypass,
                predictor,
            } => write!(f, "spec-ruu({entries},{},{predictor})", bypass_name(bypass)),
        }
    }
}

fn bypass_name(bypass: Bypass) -> &'static str {
    match bypass {
        Bypass::Full => "bypass",
        Bypass::None => "no-bypass",
        Bypass::LimitedA => "limited-bypass",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_isa::{Asm, Reg};

    fn all() -> Vec<Mechanism> {
        vec![
            Mechanism::Simple,
            Mechanism::Tomasulo { rs_per_fu: 2 },
            Mechanism::TagUnitDistributed {
                rs_per_fu: 2,
                tags: 8,
            },
            Mechanism::RsPool { rs: 6, tags: 8 },
            Mechanism::Rstu { entries: 8 },
            Mechanism::Ruu {
                entries: 8,
                bypass: Bypass::Full,
            },
            Mechanism::Ruu {
                entries: 8,
                bypass: Bypass::None,
            },
            Mechanism::Ruu {
                entries: 8,
                bypass: Bypass::LimitedA,
            },
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::ReorderBuffer,
                entries: 8,
            },
            Mechanism::InOrderPrecise {
                scheme: PreciseScheme::FutureFile,
                entries: 8,
            },
            Mechanism::SpecRuu {
                entries: 8,
                bypass: Bypass::Full,
                predictor: PredictorConfig::default(),
            },
            Mechanism::SpecRuu {
                entries: 8,
                bypass: Bypass::Full,
                predictor: PredictorConfig::Gshare { entries: 1024 },
            },
        ]
    }

    #[test]
    fn every_mechanism_agrees_with_golden() {
        let mut a = Asm::new("t");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 5);
        a.a_imm(Reg::a(1), 50);
        a.bind(top);
        a.ld_s(Reg::s(1), Reg::a(1), 0);
        a.f_add(Reg::s(2), Reg::s(1), Reg::s(2));
        a.st_s(Reg::s(2), Reg::a(1), 0);
        a.a_add_imm(Reg::a(1), Reg::a(1), 1);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let p = a.assemble().unwrap();
        let g = ruu_exec::Trace::capture(&p, Memory::new(1 << 10), 100_000).unwrap();
        for m in all() {
            let r = m
                .run(&MachineConfig::paper(), &p, Memory::new(1 << 10), 100_000)
                .unwrap();
            assert_eq!(&r.state, g.final_state(), "{m}");
            assert_eq!(&r.memory, g.final_memory(), "{m}");
            assert_eq!(r.instructions, g.len() as u64, "{m}");
        }
    }

    #[test]
    fn display_names_are_distinct() {
        let names: Vec<String> = all().iter().map(ToString::to_string).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn precision_classification() {
        assert!(Mechanism::Ruu {
            entries: 4,
            bypass: Bypass::Full
        }
        .is_precise());
        assert!(!Mechanism::Rstu { entries: 4 }.is_precise());
        assert!(!Mechanism::Simple.is_precise());
    }
}
