//! Textual assembly: a parser and emitter for the mnemonic syntax used
//! throughout the documentation.
//!
//! ```text
//! ; dot product                (comments run to end of line)
//! .name dot                    (optional program name)
//!     s.imm  S1, 0
//!     a.imm  A1, 0
//!     a.imm  A0, 64
//! top:
//!     a.subi A0, A0, 1
//!     ld.s   S2, A1, 0x100     ; dst, base, displacement
//!     ld.s   S3, A1, 0x200
//!     f.mul  S2, S2, S3
//!     f.add  S1, S1, S2
//!     a.addi A1, A1, 1
//!     br.an  top
//!     halt
//! ```
//!
//! Each line's operands are read by [`Opcode::shape`], in the order the
//! [`crate::Asm`] constructors take them (stores are
//! `st.s data, base, disp`); conditional branches name only their target
//! (the condition register is `A0`/`S0` by the machine's convention).
//! [`parse`] builds through the assembler's checked path, so a register
//! in the wrong file is a [`ParseError`], never a panic. [`emit`] writes
//! each instruction with [`crate::Inst`]'s `Display`, and
//! `parse(emit(p))` reproduces `p` exactly.

use std::collections::HashMap;
use std::fmt;

use crate::asm::{Arg, Asm, AsmError, Label};
use crate::op::{Opcode, Operand};
use crate::program::Program;
use crate::reg::{Reg, RegFile};

/// A parse failure, with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let mut chars = tok.chars();
    let file = match chars.next() {
        Some('A' | 'a') => RegFile::A,
        Some('S' | 's') => RegFile::S,
        Some('B' | 'b') => RegFile::B,
        Some('T' | 't') => RegFile::T,
        _ => return Err(err(line, format!("bad register '{tok}'"))),
    };
    let n: u8 = chars
        .as_str()
        .parse()
        .map_err(|_| err(line, format!("bad register number in {tok}")))?;
    if n >= file.len() {
        return Err(err(line, format!("register {tok} out of range")));
    }
    Ok(Reg::new(file, n))
}

/// A decimal or `0x` hexadecimal constant, optionally negated by one
/// leading `-`.
fn parse_imm(tok: &str, line: usize) -> Result<i64, ParseError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let (radix, digits) = match body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        Some(hex) => (16, hex),
        None => (10, body),
    };
    // `from_str_radix` takes a sign of its own, which would read `--5`
    // as 5.
    let v = if neg && digits.starts_with(['+', '-']) {
        None
    } else {
        i64::from_str_radix(digits, radix).ok()
    }
    .ok_or_else(|| err(line, format!("bad immediate {tok}")))?;
    Ok(if neg { -v } else { v })
}

/// Parses a program in the textual syntax.
///
/// # Errors
/// Returns the first [`ParseError`] encountered (unknown mnemonic, bad
/// operand, undefined label, ...).
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let mut asm = Asm::new("asm");
    let mut name: Option<String> = None;
    let mut labels: HashMap<String, Label> = HashMap::new();
    let mut bound: Vec<String> = Vec::new();
    // Each label first seen as a branch target, with that line, in source
    // order: an undefined label is reported where it is first used.
    let mut first_uses: Vec<(String, usize)> = Vec::new();
    // The source line of each instruction, to place what `assemble` finds.
    let mut inst_lines: Vec<usize> = Vec::new();

    // The assembler wants a fresh label id per name; create lazily.
    fn label_for(asm: &mut Asm, labels: &mut HashMap<String, Label>, name: &str) -> Label {
        if let Some(&l) = labels.get(name) {
            l
        } else {
            let l = asm.new_label();
            labels.insert(name.to_string(), l);
            l
        }
    }

    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix(".name") {
            name = Some(rest.trim().to_string());
            continue;
        }
        if let Some(label) = text.strip_suffix(':') {
            let label = label.trim();
            if bound.iter().any(|b| b == label) {
                return Err(err(line, format!("label {label} defined twice")));
            }
            bound.push(label.to_string());
            let l = label_for(&mut asm, &mut labels, label);
            asm.bind(l);
            continue;
        }

        let mut parts = text.splitn(2, char::is_whitespace);
        let mnemonic = parts.next().expect("nonempty line has a first token");
        let rest = parts.next().unwrap_or("").trim();
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let opcode = Opcode::from_mnemonic(mnemonic)
            .ok_or_else(|| err(line, format!("unknown mnemonic {mnemonic}")))?;
        let operands = opcode.shape().operands;
        if ops.len() != operands.len() {
            return Err(err(
                line,
                format!(
                    "{mnemonic} expects {} operand(s), got {}",
                    operands.len(),
                    ops.len()
                ),
            ));
        }
        let mut args = Vec::with_capacity(ops.len());
        for (operand, tok) in operands.iter().zip(&ops) {
            args.push(match operand {
                Operand::Imm(_) => Arg::Imm(parse_imm(tok, line)?),
                Operand::Target(_) => {
                    if !labels.contains_key(*tok) {
                        first_uses.push((tok.to_string(), line));
                    }
                    Arg::Label(label_for(&mut asm, &mut labels, tok))
                }
                Operand::Dst(_) | Operand::Src1(_) | Operand::Src2(_) => {
                    Arg::Reg(parse_reg(tok, line)?)
                }
            });
        }
        asm.try_push(opcode, &args)
            .map_err(|e| err(line, format!("{mnemonic}: {e}")))?;
        inst_lines.push(line);
    }

    // Check every referenced label was bound before assembling, to report
    // the name rather than an internal id.
    if let Some((label, line)) = first_uses.iter().find(|(l, _)| !bound.contains(l)) {
        return Err(err(*line, format!("label {label} is never defined")));
    }
    let program = asm.assemble().map_err(|e| {
        let line = match e {
            AsmError::ImmOutOfRange { pc, .. } | AsmError::UnboundLabel { pc, .. } => {
                inst_lines[pc]
            }
            AsmError::ReboundLabel { .. } => unreachable!("a second definition is refused above"),
        };
        err(line, format!("assembly failed: {e}"))
    })?;
    Ok(match name {
        Some(n) => Program::from_parts(n, program.iter().copied().collect()),
        None => program,
    })
}

/// Emits a program in the textual syntax; `parse(&emit(p))` reproduces
/// `p` exactly (the name is carried in a `.name` directive, and each
/// branch target gets a label `L{pc}`).
#[must_use]
pub fn emit(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut targets: Vec<u32> = program.iter().filter_map(|i| i.target).collect();
    targets.sort_unstable();
    targets.dedup();

    let mut out = String::new();
    let _ = writeln!(out, ".name {}", program.name());
    for (pc, inst) in program.iter().enumerate() {
        if targets.binary_search(&(pc as u32)).is_ok() {
            let _ = writeln!(out, "L{pc}:");
        }
        let _ = writeln!(out, "    {inst}");
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::inst::Inst;

    const DOT: &str = r"
; dot product over 8 elements
.name dot8
    s.imm  S1, 0
    a.imm  A1, 0
    a.imm  A0, 8
top:
    a.subi A0, A0, 1
    ld.s   S2, A1, 0x100
    ld.s   S3, A1, 0x200
    f.mul  S2, S2, S3
    f.add  S1, S1, S2
    a.addi A1, A1, 1
    br.an  top
    halt
";

    #[test]
    fn parses_a_program() {
        let p = parse(DOT).unwrap();
        assert_eq!(p.name(), "dot8");
        assert_eq!(p.len(), 11);
        assert_eq!(p[3].opcode, Opcode::ASubImm);
        assert_eq!(p[9].target, Some(3));
    }

    #[test]
    fn parse_executes_correctly() {
        let p = parse(DOT).unwrap();
        let mut mem = ruu_memless_stub();
        for k in 0..8 {
            mem.write_f64(0x100 + k, 2.0);
            mem.write_f64(0x200 + k, 3.0);
        }
        let t = crate_trace(&p, mem);
        assert_eq!(f64::from_bits(t), 48.0);
    }

    // Minimal local helpers to avoid a circular dev-dependency on
    // ruu-exec: a tiny interpreter specialised for the test program.
    struct MiniMem {
        words: Vec<u64>,
    }
    impl MiniMem {
        fn write_f64(&mut self, a: u64, v: f64) {
            self.words[a as usize] = v.to_bits();
        }
    }
    fn ruu_memless_stub() -> MiniMem {
        MiniMem {
            words: vec![0; 1 << 12],
        }
    }
    fn crate_trace(p: &Program, mem: MiniMem) -> u64 {
        use crate::semantics;
        let mut regs = [0u64; crate::reg::NUM_REGS];
        let mut pc = 0u32;
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 10_000, "runaway test program");
            let i = &p[pc];
            if i.is_halt() {
                break;
            }
            let s1 = i.src1.map_or(0, |r| regs[r.index()]);
            let s2 = i.src2.map_or(0, |r| regs[r.index()]);
            if i.is_branch() {
                if semantics::branch_taken(i.opcode, s1) {
                    pc = i.target.unwrap();
                } else {
                    pc += 1;
                }
                continue;
            }
            if i.is_load() {
                let ea = semantics::effective_address(s1, i.imm);
                regs[i.dst.unwrap().index()] = mem.words[ea as usize];
            } else if let Some(d) = i.dst {
                regs[d.index()] = semantics::alu_result(i.opcode, s1, s2, i.imm);
            }
            pc += 1;
        }
        regs[Reg::s(1).index()]
    }

    #[test]
    fn emit_parse_roundtrip() {
        let p = parse(DOT).unwrap();
        let text = emit(&p);
        let q = parse(&text).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn roundtrip_covers_every_operand_shape() {
        let mut a = Asm::new("shapes");
        let top = a.new_label();
        a.bind(top);
        a.a_add(Reg::a(1), Reg::a(2), Reg::a(3));
        a.a_sub_imm(Reg::a(1), Reg::a(1), -4);
        a.a_imm(Reg::a(4), 0x1000);
        a.s_imm(Reg::s(5), -9);
        a.s_shl(Reg::s(5), Reg::s(5), 3);
        a.s_pop(Reg::a(5), Reg::s(5));
        a.f_recip(Reg::s(6), Reg::s(5));
        a.a_to_b(Reg::b(63), Reg::a(1));
        a.t_to_s(Reg::s(7), Reg::t(17));
        a.ld_a(Reg::a(6), Reg::a(4), 12);
        a.st_a(Reg::a(6), Reg::a(4), -12);
        a.st_s(Reg::s(7), Reg::a(4), 99);
        a.br_sm(top);
        a.jump(top);
        a.nop();
        a.halt();
        let p = a.assemble().unwrap();
        let q = parse(&emit(&p)).unwrap();
        assert_eq!(p, q);

        // Every opcode, with its constant at both edges of its field and
        // its target at both ends of the program. (A target's upper edge,
        // 2^21 - 1, needs a program that long; `check_constant`'s own
        // test covers it.)
        let mut a = Asm::new("every-opcode");
        let (top, end) = (a.new_label(), a.new_label());
        a.bind(top);
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
            let operands = op.shape().operands;
            let constants = match operands.last() {
                Some(&Operand::Imm(bits)) => {
                    let half = 1i64 << (bits - 1);
                    vec![Arg::Imm(-half), Arg::Imm(half - 1)]
                }
                Some(Operand::Target(_)) => vec![Arg::Label(top), Arg::Label(end)],
                _ => vec![Arg::Imm(0)],
            };
            for constant in constants {
                let args: Vec<Arg> = (0u8..)
                    .zip(operands)
                    .map(|(i, operand)| match *operand {
                        Operand::Dst(f) | Operand::Src1(f) | Operand::Src2(f) => {
                            Arg::Reg(Reg::new(f, i + 1))
                        }
                        Operand::Imm(_) | Operand::Target(_) => constant,
                    })
                    .collect();
                a.try_push(op, &args).unwrap();
            }
        }
        a.bind(end);
        a.halt();
        let p = a.assemble().unwrap();
        let used: HashSet<Opcode> = p.iter().map(|i| i.opcode).collect();
        assert_eq!(used.len(), Opcode::ALL.len());
        assert_eq!(parse(&emit(&p)).unwrap(), p);

        // Each instruction's `Display` line is a line of the text syntax.
        for inst in &p {
            let inst = Inst {
                target: inst.target.map(|_| 0),
                ..*inst
            };
            let back = parse(&format!("L0:\n    {inst}\n")).unwrap();
            assert_eq!(back[0], inst, "{inst}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("  a.add A1, A2\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("expects 3"));

        let e = parse("\n\n  frobnicate A1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown mnemonic"));

        let e = parse("  a.add A1, A2, S3\n").unwrap_err();
        assert!(e.message.contains("must be an A register"), "{e}");

        // Malformed operands: an empty one, a non-ASCII one, a doubled sign.
        for (source, what) in [
            ("a.add A1, , A2", "bad register"),
            ("a.imm \u{e9}1, 3", "bad register"),
            ("a.imm A1, --5", "bad immediate"),
        ] {
            let e = parse(&format!("  {source}\n")).unwrap_err();
            assert_eq!(e.line, 1, "{source}: {e}");
            assert!(e.message.contains(what), "{source}: {e}");
        }
    }

    #[test]
    fn undefined_label_is_reported_by_name() {
        let e = parse("  j nowhere\n").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn the_first_undefined_label_is_reported_where_it_is_first_used() {
        let source = "\
    j alpha
    j beta
    j gamma
    j beta
alpha:
    j delta
    halt
";
        // Labels live in a hash map, whose order changes from map to map.
        for _ in 0..20 {
            let e = parse(source).unwrap_err();
            assert_eq!(e.to_string(), "line 2: label beta is never defined");
        }
        let e = parse("  j alpha\n  j beta\n  j gamma\n  halt\n").unwrap_err();
        assert_eq!(e.to_string(), "line 1: label alpha is never defined");
    }

    #[test]
    fn a_constant_too_wide_is_reported_on_its_own_line() {
        let e = parse("  a.imm A1, 3\n\n  a.imm A1, 99999999\n  halt\n").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("99999999"), "{e}");
        let e = parse("top:\n  a.addi A1, A1, 40000\n  br.an top\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn double_label_rejected() {
        let e = parse("x:\nx:\n  halt\n").unwrap_err();
        assert!(e.message.contains("defined twice"));
    }
}
