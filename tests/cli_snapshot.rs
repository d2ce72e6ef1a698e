//! CLI snapshot: the stdout of `ruu-sim` for one command line per
//! subcommand, pinned byte for byte in `tests/snapshots/cli.txt`.
//!
//! Each section of the snapshot is the command line after `$ ruu-sim`,
//! then what it printed. `<asm>` and `<out>` in a command line stand for
//! a two-line `.s` file and the trace file, both in a scratch directory.
//! Three parts of the output are not pinned as
//! printed: the sweep's wall-clock `engine:` line and JSON `engine`
//! object are left out, the `trace` output path is masked as `<out>`,
//! and the trace file itself is pinned by its FNV-1a hash.
//!
//! Print the current sections with
//! `cargo test --test cli_snapshot -- --ignored --nocapture`.

use std::path::Path;
use std::process::Command;

const SNAPSHOT: &str = include_str!("snapshots/cli.txt");

/// Runs `ruu-sim` on the words of `line`, with `<asm>` and `<out>` standing
/// for the scratch `.s` file and trace file, asserts it succeeded, and
/// returns its stdout with the trace file's path masked as `<out>`.
fn ruu_sim(line: &str, asm: &str, out: &str) -> String {
    let args: Vec<&str> = line
        .split_whitespace()
        .map(|a| match a {
            "<asm>" => asm,
            "<out>" => out,
            a => a,
        })
        .collect();
    let run = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
        .args(&args)
        .output()
        .expect("run ruu-sim");
    assert!(
        run.status.success(),
        "ruu-sim {line} failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    String::from_utf8(run.stdout)
        .expect("stdout is UTF-8")
        .replace(out, "<out>")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned command lines, in snapshot order.
const LINES: [&str; 11] = [
    "ruu LLL3 --entries 8 --paths 2 --loadregs 4",
    "ruu <asm>",
    "sweep --mechanism spec-ruu --predictor tage --entries 4,8 --buses 2 --dcache 64x2x4:20 --jobs 1",
    "sweep --mechanism spec-ruu --predictor tage --entries 4,8 --buses 2 --dcache 64x2x4:20 --jobs 1 --json",
    "cachesim LLL3 --mechanism reorder --entries 4 --dcache 16x1x2:30",
    "cbp --loop LLL3 --predictor gshare:1024 --predictor twobit --top 2",
    "cbp --loop LLL3 --predictor gshare:1024 --predictor twobit --top 2 --json",
    "trace --mechanism ruu --loop LLL3 --entries 8 --out <out>",
    "lint LLL7",
    "lint --all-loops --branch-sites",
    "analyze LLL3 --mechanism simple",
];

/// Every pinned section, in snapshot order.
fn sections() -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_snapshot");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let asm = dir.join("two-lines.s");
    std::fs::write(&asm, "    a.imm A1, 3\n    halt\n").expect("write .s file");
    let asm = asm.to_str().expect("UTF-8 path");
    let trace = dir.join("lll3.trace.json");
    let out = trace.to_str().expect("UTF-8 path");

    let mut text = String::new();
    for line in LINES {
        let mut stdout = ruu_sim(line, asm, out);
        if line.starts_with("sweep") {
            // The wall-clock engine stats vary from run to run.
            stdout = match stdout.find("\"jobs\":[") {
                Some(jobs) => stdout[jobs..].to_string(),
                None => stdout
                    .lines()
                    .filter(|l| !l.starts_with("engine:"))
                    .map(|l| format!("{l}\n"))
                    .collect(),
            };
        }
        if line.starts_with("trace") {
            let written = std::fs::read(&trace).expect("trace file written");
            stdout += &format!(
                "trace file: {} bytes, fnv1a {:016x}\n",
                written.len(),
                fnv1a(&written)
            );
        }
        text += &format!("$ ruu-sim {line}\n{stdout}");
    }
    text
}

#[test]
fn cli_output_matches_the_snapshot() {
    let now = sections();
    let mut now_lines = now.lines();
    for (i, want) in SNAPSHOT.lines().enumerate() {
        assert_eq!(now_lines.next(), Some(want), "snapshot line {}", i + 1);
    }
    assert_eq!(now_lines.next(), None, "output runs past the snapshot");
}

#[test]
#[ignore = "prints the snapshot of the current tree"]
fn print_cli_snapshot() {
    print!("{}", sections());
}
