//! Write a program in the textual assembly syntax, parse it, and run it
//! on several machines — no Rust builder code required.
//!
//! ```sh
//! cargo run --release --example custom_assembly
//! ```
//!
//! (The same syntax can be fed to the CLI: `ruu-sim ruu myprog.s`.)

use ruu::exec::{Memory, Trace};
use ruu::isa::text;
use ruu::issue::{Bypass, Mechanism};
use ruu::sim::MachineConfig;

const SOURCE: &str = r"
; 32-step first-order recurrence followed by a reduction, with the
; loop count in A7 and the branch test value computed into A0.
.name recurrence
    a.imm  A1, 1
    a.imm  A7, 32
    a.imm  A0, 32
    a.imm  A2, 0
    ld.s   S1, A2, 0x400      ; carried x[0]
top:
    a.subi A7, A7, 1
    a.addi A0, A7, 0
    ld.s   S2, A1, 0x500      ; y[i]
    ld.s   S3, A1, 0x600      ; z[i]
    f.sub  S2, S2, S1
    f.mul  S1, S3, S2
    st.s   S1, A1, 0x400
    a.addi A1, A1, 1
    br.an  top
    halt
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = text::parse(SOURCE)?;
    println!("{}", text::emit(&program));

    let mut mem = Memory::new(1 << 12);
    for i in 0..40 {
        mem.write_f64(0x400 + i, 0.25);
        mem.write_f64(0x500 + i, 0.75);
        mem.write_f64(0x600 + i, 0.5);
    }

    let golden = Trace::capture(&program, mem.clone(), 100_000)?;
    println!("golden: {} dynamic instructions", golden.len());

    let cfg = MachineConfig::paper();
    for m in [
        Mechanism::Simple,
        Mechanism::Rstu { entries: 12 },
        Mechanism::Ruu {
            entries: 12,
            bypass: Bypass::Full,
        },
    ] {
        let r = m.build(&cfg).run(&program, mem.clone(), 100_000)?;
        assert_eq!(&r.state.regs, &golden.final_state().regs);
        println!("{m:<24} {:>6} cycles, IPC {:.3}", r.cycles, r.issue_rate());
    }
    Ok(())
}
