//! Round-trip properties of the ISA's textual assembly, over the full
//! Livermore suite, branch-target edge cases and random programs.

use proptest::prelude::*;

use ruu::isa::{text, Asm, Reg};
use ruu::workloads::livermore;
use ruu::workloads::synth::{random_program, SynthConfig};

#[test]
fn backward_branch_to_address_zero_roundtrips() {
    let mut a = Asm::new("back0");
    let top = a.new_label();
    a.bind(top); // pc 0
    a.a_imm(Reg::a(0), 1);
    a.a_sub_imm(Reg::a(0), Reg::a(0), 1);
    a.br_an(top);
    a.halt();
    let p = a.assemble().unwrap();
    assert_eq!(p[2].target, Some(0));
    let back = text::parse(&text::emit(&p)).unwrap();
    assert_eq!(back, p);
}

#[test]
fn branch_to_self_roundtrips() {
    let mut a = Asm::new("selfloop");
    a.a_imm(Reg::a(0), 0);
    let here = a.new_label();
    a.bind(here); // pc 1
    a.br_an(here); // a conditional branch targeting its own pc
    a.halt();
    let p = a.assemble().unwrap();
    assert_eq!(p[1].target, Some(1));
    let back = text::parse(&text::emit(&p)).unwrap();
    assert_eq!(back, p);
}

#[test]
fn every_livermore_kernel_survives_text_roundtrip() {
    for w in livermore::all() {
        let src = text::emit(&w.program);
        let back =
            text::parse(&src).unwrap_or_else(|e| panic!("{} failed to re-parse: {e}", w.name));
        assert_eq!(w.program, back, "{}", w.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_survive_text_roundtrip(seed in 0u64..100_000) {
        let (p, _) = random_program(seed, &SynthConfig::default());
        let src = text::emit(&p);
        let back = text::parse(&src).expect("emit output parses");
        prop_assert_eq!(p, back);
    }
}
