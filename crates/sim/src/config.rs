//! Machine-wide configuration of the model architecture.

use ruu_isa::FuClass;

use crate::cache::DCacheConfig;

/// Instructions the RUU may commit (retire to the register file) per
/// cycle over the RUU→register-file bus.
pub const COMMIT_WIDTH: u32 = 1;

/// Fetch bubble after a predicted-taken branch in the speculative
/// machine (§7 extension): the cost of redirecting fetch to a predicted
/// target. A taken branch whose condition is known at decode pays
/// [`MachineConfig::branch_taken_penalty`] instead (DESIGN.md §3).
pub const SPEC_TAKEN_BUBBLE: u64 = 1;

/// Dead cycles charged when a misprediction is repaired (§7 extension),
/// after the cycle that detects it: a flush stalls decode for
/// `MISPREDICT_PENALTY + 1` cycles.
pub const MISPREDICT_PENALTY: u64 = 3;

/// Cycles from "forwarding data known" to its result-bus broadcast for
/// loads satisfied from the load registers rather than memory.
pub const FORWARD_LATENCY: u64 = 1;

/// Cycles for a store to be considered executed (address/data handed to
/// the memory port) once dispatched; the architectural memory write
/// itself happens at completion (RSTU) or commit (RUU).
pub const STORE_EXEC_LATENCY: u64 = 1;

/// Parameters of the model architecture (paper §2, DESIGN.md §3).
///
/// The defaults reproduce the paper's machine: CRAY-1 functional-unit
/// times, a single result bus, one instruction decoded per cycle, six load
/// registers, 3-bit NI/LI instance counters, and branch dead cycles after
/// every branch.
///
/// `MachineConfig` is a plain, public-field record: it is the experiment
/// knob surface, and the sweep harnesses construct many variants of it.
/// Chainable `with_*` builders are the preferred way to derive variants
/// (`MachineConfig::paper().with_result_buses(2).with_load_registers(4)`);
/// they validate their arguments where direct mutation cannot. What the
/// paper's machine fixes and no experiment varies is a constant instead:
/// [`COMMIT_WIDTH`], [`FORWARD_LATENCY`], [`STORE_EXEC_LATENCY`],
/// [`SPEC_TAKEN_BUBBLE`] and [`MISPREDICT_PENALTY`].
///
/// `Hash`/`Eq` let sweep engines key memoization caches (e.g. the
/// per-config baseline-cycles cache in `ruu-engine`) by configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Latency (clock periods from dispatch to result-bus appearance) per
    /// functional-unit class, indexed by [`FuClass::index`].
    pub latency: [u64; FuClass::ALL.len()],
    /// Dead cycles after a taken branch before the next instruction can
    /// enter the decode/issue stage.
    pub branch_taken_penalty: u64,
    /// Dead cycles after a not-taken conditional branch.
    pub branch_untaken_penalty: u64,
    /// Number of results the result bus can carry per cycle. The model
    /// architecture has exactly one (paper §2: "only one functional unit
    /// can output data onto the result bus in any clock cycle").
    pub result_buses: u32,
    /// Instructions the window (RSTU/RUU) may send to the functional units
    /// per cycle — the "data paths" of paper Table 3.
    pub dispatch_paths: u32,
    /// Number of load registers (paper §5.1 uses 6; 4 sufficed).
    pub load_registers: usize,
    /// Width in bits of the per-register NI/LI instance counters
    /// (paper §5.1 uses 3: up to 7 simultaneous instances).
    pub counter_bits: u32,
    /// Data-cache timing model. [`DCacheConfig::Perfect`] (the default)
    /// reproduces the paper's §2.2 idealization — a fixed memory latency,
    /// no conflicts — bit-identically; a finite cache makes load latency
    /// depend on locality. Timing-only: architectural values always come
    /// from `Memory`.
    pub dcache: DCacheConfig,
}

impl MachineConfig {
    /// The paper's model architecture.
    #[must_use]
    pub fn paper() -> Self {
        let mut latency = [0; FuClass::ALL.len()];
        for fu in FuClass::ALL {
            latency[fu.index()] = fu.default_latency();
        }
        MachineConfig {
            latency,
            branch_taken_penalty: 3,
            branch_untaken_penalty: 1,
            result_buses: 1,
            dispatch_paths: 1,
            load_registers: 6,
            counter_bits: 3,
            dcache: DCacheConfig::Perfect,
        }
    }

    /// Latency of a functional-unit class under this configuration.
    #[must_use]
    #[inline]
    pub fn fu_latency(&self, fu: FuClass) -> u64 {
        self.latency[fu.index()]
    }

    /// Maximum simultaneous instances of one destination register the
    /// NI/LI counters allow: `2^counter_bits - 1` (paper §5.1).
    #[must_use]
    pub fn max_instances(&self) -> u32 {
        (1u32 << self.counter_bits) - 1
    }

    /// Returns a copy with a different number of dispatch paths
    /// (paper Table 3 uses 2).
    #[must_use]
    pub fn with_dispatch_paths(mut self, paths: u32) -> Self {
        assert!(paths >= 1, "at least one dispatch path is required");
        self.dispatch_paths = paths;
        self
    }

    /// Returns a copy with a different number of load registers.
    #[must_use]
    pub fn with_load_registers(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one load register is required");
        self.load_registers = n;
        self
    }

    /// Returns a copy with a different NI/LI counter width.
    #[must_use]
    pub fn with_counter_bits(mut self, bits: u32) -> Self {
        assert!(
            (1..=8).contains(&bits),
            "counter width must be 1..=8 bits, got {bits}"
        );
        self.counter_bits = bits;
        self
    }

    /// Returns a copy with a different result-bus count (ablation A4).
    #[must_use]
    pub fn with_result_buses(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one result bus is required");
        self.result_buses = n;
        self
    }

    /// Returns a copy with different taken/not-taken branch penalties.
    #[must_use]
    pub fn with_branch_penalties(mut self, taken: u64, untaken: u64) -> Self {
        self.branch_taken_penalty = taken;
        self.branch_untaken_penalty = untaken;
        self
    }

    /// Returns a copy with one functional-unit class's latency replaced.
    #[must_use]
    pub fn with_fu_latency(mut self, fu: FuClass, cycles: u64) -> Self {
        assert!(cycles >= 1, "a functional unit needs at least one cycle");
        self.latency[fu.index()] = cycles;
        self
    }

    /// Returns a copy with a different data-cache timing model.
    ///
    /// # Panics
    /// Panics if the config fails [`DCacheConfig::validate`] — the
    /// builders validate where direct mutation cannot.
    #[must_use]
    pub fn with_dcache(mut self, dcache: DCacheConfig) -> Self {
        if let Err(e) = dcache.validate() {
            panic!("invalid dcache config: {e}");
        }
        self.dcache = dcache;
        self
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = MachineConfig::paper();
        assert_eq!(c.fu_latency(FuClass::FloatMul), 7);
        assert_eq!(c.result_buses, 1);
        assert_eq!(c.load_registers, 6);
        assert_eq!(c.max_instances(), 7);
    }

    #[test]
    fn builders() {
        let c = MachineConfig::paper()
            .with_dispatch_paths(2)
            .with_load_registers(4)
            .with_counter_bits(2)
            .with_result_buses(2);
        assert_eq!(c.dispatch_paths, 2);
        assert_eq!(c.load_registers, 4);
        assert_eq!(c.max_instances(), 3);
        assert_eq!(c.result_buses, 2);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn counter_bits_validated() {
        let _ = MachineConfig::paper().with_counter_bits(0);
    }

    #[test]
    fn default_dcache_is_perfect() {
        assert!(MachineConfig::paper().dcache.is_perfect());
    }

    #[test]
    fn with_dcache_swaps_the_model() {
        let dc = DCacheConfig::parse("64x4x4:20").unwrap();
        let c = MachineConfig::paper().with_dcache(dc);
        assert_eq!(c.dcache, dc);
    }

    #[test]
    #[should_panic(expected = "invalid dcache config")]
    fn with_dcache_validates() {
        let _ = MachineConfig::paper().with_dcache(DCacheConfig::Cache {
            sets: 3,
            ways: 1,
            line_words: 1,
            hit_latency: 1,
            miss_latency: 2,
            mshrs: 1,
        });
    }
}
