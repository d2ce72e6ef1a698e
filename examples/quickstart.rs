//! Quickstart: assemble a small program, run it on the golden interpreter
//! and on the RUU, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ruu::exec::{Memory, Trace};
use ruu::isa::{Asm, Reg};
use ruu::issue::{Bypass, Mechanism};
use ruu::sim::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A dot product over 64 elements, in CRAY-1-flavoured scalar code:
    // loop count in A0, pointers in A1, accumulator in S1.
    let mut a = Asm::new("dot64");
    let top = a.new_label();
    a.s_imm(Reg::s(1), 0);
    a.a_imm(Reg::a(1), 0);
    a.a_imm(Reg::a(0), 64);
    a.bind(top);
    a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
    a.ld_s(Reg::s(2), Reg::a(1), 0x100); // x[k]
    a.ld_s(Reg::s(3), Reg::a(1), 0x200); // y[k]
    a.f_mul(Reg::s(2), Reg::s(2), Reg::s(3));
    a.f_add(Reg::s(1), Reg::s(1), Reg::s(2));
    a.a_add_imm(Reg::a(1), Reg::a(1), 1);
    a.br_an(top);
    a.st_s(Reg::s(1), Reg::a(1), 0x300); // result
    a.halt();
    let program = a.assemble()?;

    println!("{program}");

    // Initial data.
    let mut mem = Memory::new(1 << 12);
    for k in 0..64 {
        mem.write_f64(0x100 + k, 0.5);
        mem.write_f64(0x200 + k, 2.0);
    }

    // Golden run (architectural reference).
    let trace = Trace::capture(&program, mem.clone(), 100_000)?;
    println!(
        "golden: {} dynamic instructions, result = {}",
        trace.len(),
        trace.final_memory().read_f64(0x300 + 64)
    );
    println!("instruction mix:\n{}", trace.mix());

    // Timing run on the paper's machine with a 15-entry RUU.
    let ruu = Mechanism::Ruu {
        entries: 15,
        bypass: Bypass::Full,
    }
    .build(&MachineConfig::paper());
    let r = ruu.run(&program, mem, 100_000)?;
    assert_eq!(&r.state.regs, &trace.final_state().regs);
    println!(
        "RUU(15, bypass): {} cycles, issue rate {:.3} instructions/cycle",
        r.cycles,
        r.issue_rate()
    );
    println!("stall breakdown:\n{}", r.stats);
    Ok(())
}
