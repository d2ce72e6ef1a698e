//! A software logic analyser on the RUU's ports: issue, dispatch,
//! result-bus and commit activity, cycle by cycle, rendered as a
//! pipeline diagram. The log is a small [`PipelineObserver`] attached to
//! an ordinary observed run.
//!
//! ```sh
//! cargo run --release --example pipeline_trace
//! ```

use std::collections::HashSet;

use ruu::exec::{ArchState, Memory};
use ruu::isa::{Asm, FuClass, Program, Reg};
use ruu::issue::{Bypass, Mechanism};
use ruu::sim::{MachineConfig, PipelineObserver};

/// One cycle of activity on the RUU's ports.
#[derive(Debug, Default)]
struct CycleRow {
    cycle: u64,
    occupancy: u32,
    /// pc of the instruction that entered the RUU (or resolved, for a
    /// branch) this cycle.
    issued_pc: Option<u32>,
    dispatched: Vec<u64>,
    finished: Vec<u64>,
    committed: Vec<u64>,
}

/// Logs the first `capacity` cycles of a run of `program`.
struct PortLog<'a> {
    program: &'a Program,
    rows: Vec<CycleRow>,
    current: CycleRow,
    last_fetched_pc: u32,
    /// Dynamic instructions that are stores: they complete at the memory
    /// port, not on the result bus.
    stores: HashSet<u64>,
    capacity: usize,
}

impl<'a> PortLog<'a> {
    fn new(program: &'a Program, capacity: usize) -> Self {
        PortLog {
            program,
            rows: Vec::new(),
            current: CycleRow::default(),
            last_fetched_pc: 0,
            stores: HashSet::new(),
            capacity,
        }
    }
}

impl PipelineObserver for PortLog<'_> {
    fn fetch(&mut self, _cycle: u64, pc: u32) {
        self.last_fetched_pc = pc;
    }

    fn issue(&mut self, _cycle: u64, seq: u64) {
        // A parked branch issues when it resolves; nothing is fetched
        // while it waits, so the last fetched pc is still its own.
        let pc = self.last_fetched_pc;
        self.current.issued_pc = Some(pc);
        if self.program[pc].is_store() {
            self.stores.insert(seq);
        }
    }

    fn dispatch(&mut self, _cycle: u64, seq: u64, _fu: FuClass, _complete_at: u64) {
        self.current.dispatched.push(seq);
    }

    fn complete(&mut self, _cycle: u64, seq: u64) {
        if !self.stores.contains(&seq) {
            self.current.finished.push(seq);
        }
    }

    fn commit(&mut self, _cycle: u64, seq: u64) {
        self.current.committed.push(seq);
    }

    fn cycle_end(&mut self, cycle: u64, occupancy: u32) {
        let row = std::mem::take(&mut self.current);
        if self.rows.len() < self.capacity {
            self.rows.push(CycleRow {
                cycle,
                occupancy,
                ..row
            });
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A short block with a long-latency reciprocal, dependent work, and
    // independent work that overtakes it inside the RUU.
    let mut a = Asm::new("demo");
    a.a_imm(Reg::a(1), 64); // 0
    a.ld_s(Reg::s(1), Reg::a(1), 0); // 1: load (11 cycles)
    a.f_recip(Reg::s(2), Reg::s(1)); // 2: recip (14 cycles), needs the load
    a.f_mul(Reg::s(3), Reg::s(2), Reg::s(1)); // 3: needs the recip
    a.a_imm(Reg::a(2), 7); // 4: independent
    a.a_add(Reg::a(3), Reg::a(2), Reg::a(2)); // 5: independent
    a.st_s(Reg::s(3), Reg::a(1), 1); // 6: store the result
    a.halt();
    let program = a.assemble()?;
    println!("{program}");

    let mut mem = Memory::new(1 << 8);
    mem.write_f64(64, 4.0);

    let ruu = Mechanism::Ruu {
        entries: 8,
        bypass: Bypass::Full,
    }
    .build(&MachineConfig::paper());
    let mut log = PortLog::new(&program, 64);
    let result = ruu.run_observed(ArchState::new(), mem, &program, 10_000, &mut log)?;

    println!(
        "{} instructions in {} cycles (IPC {:.3})\n",
        result.instructions,
        result.cycles,
        result.issue_rate()
    );
    println!("cycle | occ | issue | dispatch   | result bus | commit");
    println!("------+-----+-------+------------+------------+-----------");
    let fmt = |v: &[u64]| {
        v.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    for c in &log.rows {
        println!(
            "{:>5} | {:>3} | {:>5} | {:>10} | {:>10} | {:>9}",
            c.cycle,
            c.occupancy,
            c.issued_pc.map_or(String::new(), |pc| format!("pc{pc}")),
            fmt(&c.dispatched),
            fmt(&c.finished),
            fmt(&c.committed),
        );
    }
    println!();
    println!(
        "Read it like the paper's Figure 5: instructions enter in order \
         (issue), leave for the functional units out of order (dispatch — \
         watch 4 and 5 overtake 2 and 3), broadcast on the single result \
         bus, and commit strictly in order — the precise-interrupt \
         guarantee."
    );
    Ok(())
}
