//! Choosing where to fault.

use ruu_exec::Trace;

/// The kind of instruction-generated trap being modelled (paper §1: "an
/// imprecise interrupt can be caused by instruction-generated traps such
/// as arithmetic exceptions and page faults").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A page fault: faults on loads and stores. The common case in a
    /// virtual-memory machine, and the reason interrupts *must* be
    /// precise (§1).
    PageFault,
    /// An arithmetic exception: faults on floating-point operations.
    Arithmetic,
    /// Any non-branch instruction that uses a functional unit may fault
    /// (the most general check). A `Nop` is left out, and the machines
    /// differ on it: the §4 schemes give it no buffer slot, so it never
    /// reaches their commit and a fault on it is never taken
    /// ([`CheckError::FaultNeverTaken`](crate::harness::CheckError::FaultNeverTaken)),
    /// while the RUU commits it and takes the fault precisely.
    Any,
}

impl FaultKind {
    /// Whether a dynamic instruction of this opcode class can raise this
    /// fault.
    #[must_use]
    pub fn applies_to(self, inst: &ruu_isa::Inst) -> bool {
        use ruu_isa::FuClass;
        match self {
            FaultKind::PageFault => inst.is_mem(),
            FaultKind::Arithmetic => matches!(
                inst.fu_class(),
                Some(FuClass::FloatAdd | FuClass::FloatMul | FuClass::Recip)
            ),
            FaultKind::Any => !inst.is_branch() && inst.fu_class().is_some(),
        }
    }
}

/// All dynamic instruction indices in `trace` at which a `kind` fault can
/// be injected. (Branches resolve in the decode stage of this model and
/// never fault.)
#[must_use]
pub fn fault_points(trace: &Trace, kind: FaultKind) -> Vec<u64> {
    trace
        .events()
        .filter(|ev| kind.applies_to(&ev.inst))
        .map(|ev| ev.index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruu_exec::Memory;
    use ruu_isa::{Asm, Reg};

    fn trace() -> Trace {
        let mut a = Asm::new("t");
        a.a_imm(Reg::a(1), 64); // 0
        a.ld_s(Reg::s(1), Reg::a(1), 0); // 1: load
        a.f_add(Reg::s(2), Reg::s(1), Reg::s(1)); // 2: float
        a.st_s(Reg::s(2), Reg::a(1), 1); // 3: store
        a.halt();
        let p = a.assemble().unwrap();
        Trace::capture(&p, Memory::new(1 << 8), 100).unwrap()
    }

    #[test]
    fn page_faults_hit_memory_ops() {
        assert_eq!(fault_points(&trace(), FaultKind::PageFault), vec![1, 3]);
    }

    #[test]
    fn arithmetic_hits_float_ops() {
        assert_eq!(fault_points(&trace(), FaultKind::Arithmetic), vec![2]);
    }

    #[test]
    fn any_hits_everything_with_a_unit() {
        assert_eq!(fault_points(&trace(), FaultKind::Any), vec![0, 1, 2, 3]);
    }
}
