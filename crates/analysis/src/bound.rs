//! The dataflow-limit lower bound on cycles.
//!
//! The paper's central claim is that better issue logic moves a machine
//! closer to what the program's *data dependences* allow. This module
//! computes that limit for a concrete run: the critical path of the
//! latency-weighted RAW dependence graph over the **dynamic** instruction
//! stream recorded by the golden interpreter ([`Trace`]).
//!
//! Why this is a true lower bound for every simulator in the workspace:
//!
//! * it is computed over the dynamic trace, so only instructions that
//!   actually execute contribute (a static critical path over the
//!   program text would over-count unexecuted paths and *not* be a
//!   bound);
//! * each edge uses the **minimum achievable** producer latency under the
//!   given [`MachineConfig`]: loads take the lesser of the memory latency
//!   and the constant [`FORWARD_LATENCY`] because load-register
//!   forwarding can satisfy a load without a memory trip, and branches /
//!   `Nop` / `Halt` (which resolve in the issue stage) contribute zero —
//!   so no simulator can complete a value earlier than the graph does;
//! * only true (RAW) register dependences are included. Omitting memory
//!   carried dependences, WAW/WAR hazards, structural hazards (one result
//!   bus, FU conflicts) and branch penalties only *lowers* the critical
//!   path, which keeps the bound valid;
//! * the machine decodes one instruction per cycle, so the dynamic
//!   instruction count is itself a lower bound; the reported bound is the
//!   maximum of the two.
//!
//! Any simulator reporting `cycles < bound` has a correctness bug — the
//! cross-check suite (`tests/dataflow_bound.rs`) asserts this for every
//! mechanism over every Livermore loop and over random synth programs.

use ruu_exec::Trace;
use ruu_isa::{FuClass, Inst, NUM_REGS};
use ruu_sim_core::{MachineConfig, FORWARD_LATENCY};

/// The dataflow limit of one dynamic run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataflowBound {
    /// Length (in cycles) of the latency-weighted RAW critical path.
    pub critical_path: u64,
    /// Dynamic instruction count (a second bound: one decode per cycle).
    pub instructions: u64,
    /// The dataflow-limit lower bound on cycles:
    /// `max(critical_path, instructions)`.
    pub bound: u64,
}

impl DataflowBound {
    /// `bound / cycles`: how close an achieved cycle count comes to the
    /// dataflow limit (1.0 = at the limit). Returns `None` for
    /// `cycles == 0`.
    #[must_use]
    pub fn efficiency(&self, cycles: u64) -> Option<f64> {
        if cycles == 0 {
            None
        } else {
            #[allow(clippy::cast_precision_loss)]
            Some(self.bound as f64 / cycles as f64)
        }
    }
}

/// Minimum achievable producer latency of one dynamic instruction.
fn min_latency(inst: &Inst, config: &MachineConfig) -> u64 {
    match inst.fu_class() {
        // Branches, Nop, Halt resolve in the issue stage.
        None => 0,
        // A load may be satisfied from the load registers (forwarding)
        // instead of memory; take whichever path is faster.
        Some(FuClass::Memory) if inst.is_load() => {
            config.fu_latency(FuClass::Memory).min(FORWARD_LATENCY)
        }
        Some(fu) => config.fu_latency(fu),
    }
}

/// Computes the dataflow-limit lower bound of `trace` under `config`.
#[must_use]
pub fn dataflow_bound(trace: &Trace, config: &MachineConfig) -> DataflowBound {
    // ready[r] = earliest cycle at which register r's current value can
    // exist, given only RAW dependences and minimum latencies.
    let mut ready = [0u64; NUM_REGS];
    let mut critical_path = 0u64;
    for ev in trace.events() {
        let start = ev
            .inst
            .sources()
            .map(|r| ready[r.index()])
            .max()
            .unwrap_or(0);
        let done = start + min_latency(&ev.inst, config);
        if let Some(d) = ev.inst.dst {
            ready[d.index()] = done;
        }
        critical_path = critical_path.max(done);
    }
    let instructions = trace.len() as u64;
    DataflowBound {
        critical_path,
        instructions,
        bound: critical_path.max(instructions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_exec::Memory;
    use ruu_isa::{Asm, Reg};

    fn bound_of(a: Asm) -> DataflowBound {
        let p = a.assemble().unwrap();
        let t = Trace::capture(&p, Memory::new(1 << 8), 100_000).unwrap();
        dataflow_bound(&t, &MachineConfig::paper())
    }

    #[test]
    fn serial_chain_is_latency_times_length() {
        let mut a = Asm::new("chain");
        a.s_imm(Reg::s(1), 3);
        for _ in 0..10 {
            a.f_add(Reg::s(1), Reg::s(1), Reg::s(1)); // FloatAdd latency 6
        }
        a.halt();
        let b = bound_of(a);
        // One SImm producer plus ten chained FloatAdds at 6 cycles each.
        let simm_latency =
            MachineConfig::paper().fu_latency(ruu_isa::Opcode::SImm.fu_class().unwrap());
        assert_eq!(b.critical_path, simm_latency + 10 * 6);
        assert_eq!(b.bound, b.critical_path);
    }

    #[test]
    fn independent_ops_are_bounded_by_decode_width() {
        let mut a = Asm::new("ind");
        for i in 0..20 {
            a.s_imm(Reg::s(1 + (i % 7) as u8), i);
        }
        a.halt();
        let b = bound_of(a);
        assert_eq!(b.instructions, 20);
        // No chain longer than one op, so the decode bound dominates.
        assert_eq!(b.bound, 20);
    }

    #[test]
    fn loads_use_forwarding_latency_when_cheaper() {
        let mut a = Asm::new("ld");
        a.ld_s(Reg::s(1), Reg::a(1), 0);
        a.f_add(Reg::s(2), Reg::s(1), Reg::s(1));
        a.halt();
        let b = bound_of(a);
        let cfg = MachineConfig::paper();
        // FORWARD_LATENCY (1) < memory latency (11): chain is 1 + 6.
        assert_eq!(
            b.critical_path,
            FORWARD_LATENCY + cfg.fu_latency(FuClass::FloatAdd)
        );
    }

    #[test]
    fn branches_contribute_no_latency() {
        let mut a = Asm::new("br");
        let top = a.new_label();
        a.a_imm(Reg::a(0), 5);
        a.bind(top);
        a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
        a.br_an(top);
        a.halt();
        let b = bound_of(a);
        let cfg = MachineConfig::paper();
        let imm = cfg.fu_latency(ruu_isa::Opcode::AImm.fu_class().unwrap());
        let dec = cfg.fu_latency(ruu_isa::Opcode::ASubImm.fu_class().unwrap());
        // AImm then five chained decrements; branches add nothing.
        assert_eq!(b.critical_path, imm + 5 * dec);
        assert_eq!(b.instructions, 1 + 5 * 2);
        assert_eq!(b.bound, b.instructions.max(b.critical_path));
    }

    #[test]
    fn efficiency_is_bound_over_cycles() {
        let b = DataflowBound {
            critical_path: 50,
            instructions: 40,
            bound: 50,
        };
        assert_eq!(b.efficiency(100), Some(0.5));
        assert_eq!(b.efficiency(0), None);
    }
}
