//! `ruu-sim -h`/`--help` prints the usage and succeeds, at top level and
//! after every subcommand; a malformed command line or a bad value exits
//! 1 with a message, never a panic.

use std::process::Command;

#[test]
fn help_prints_usage_and_succeeds_everywhere() {
    let prefixes: [&[&str]; 8] = [
        &[],
        &["ruu"],
        &["sweep"],
        &["trace"],
        &["cachesim"],
        &["cbp"],
        &["lint"],
        &["analyze"],
    ];
    for prefix in prefixes {
        for flag in ["-h", "--help"] {
            let out = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
                .args(prefix)
                .arg(flag)
                .output()
                .expect("run ruu-sim");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "ruu-sim {prefix:?} {flag} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.starts_with("usage: ruu-sim"),
                "ruu-sim {prefix:?} {flag} printed:\n{stdout}"
            );
            assert!(stdout.contains("ruu-sim sweep"), "{prefix:?} {flag}");
        }
    }
}

/// Malformed command lines and bad values, each with the text its error
/// message must contain.
const BAD_COMMAND_LINES: [(&[&str], &str); 20] = [
    (&["ruu", "LLL1", "--bogus"], "unknown option --bogus"),
    (&["sweep", "--bogus"], "unknown option --bogus"),
    (&["cachesim", "--bogus"], "unknown option --bogus"),
    (&["cbp", "--bogus"], "unknown option --bogus"),
    (&["trace", "--bogus"], "unknown option --bogus"),
    (&["lint", "--bogus"], "unknown option --bogus"),
    (&["analyze", "--bogus"], "unknown option --bogus"),
    (
        &["cachesim", "LLL3", "--entries"],
        "--entries needs a value",
    ),
    (&["analyze", "--mechanism"], "--mechanism needs a value"),
    (&["ruu", "LLL1", "LLL2"], "unexpected argument LLL2"),
    (&["lint", "LLL1", "LLL2"], "unexpected argument LLL2"),
    (&["cbp", "LLL1"], "unexpected argument LLL1"),
    (
        &["ruu", "LLL1", "--entries", "x"],
        "--entries needs a number",
    ),
    (
        &["ruu", "LLL1", "--entries", "0"],
        "--entries must be at least 1",
    ),
    (
        &["ruu", "LLL1", "--paths", "0"],
        "--paths must be at least 1",
    ),
    (
        &["ruu", "LLL1", "--loadregs", "0"],
        "--loadregs must be at least 1",
    ),
    (
        &[
            "sweep",
            "--mechanism",
            "ruu",
            "--entries",
            "4",
            "--paths",
            "0",
        ],
        "--paths must be at least 1",
    ),
    (
        &[
            "sweep",
            "--mechanism",
            "ruu",
            "--entries",
            "4",
            "--loadregs",
            "0",
        ],
        "--loadregs must be at least 1",
    ),
    (
        &[
            "sweep",
            "--mechanism",
            "ruu",
            "--entries",
            "4",
            "--buses",
            "0",
        ],
        "--buses must be at least 1",
    ),
    (
        &["cachesim", "LLL3", "--entries", "0"],
        "--entries must be at least 1",
    ),
];

#[test]
fn unknown_options_still_fail() {
    for (args, message) in BAD_COMMAND_LINES {
        let out = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
            .args(args)
            .output()
            .expect("run ruu-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "ruu-sim {args:?} must exit 1; stderr:\n{stderr}"
        );
        assert!(
            stderr.starts_with(&format!("error: {message}")),
            "ruu-sim {args:?} printed:\n{stderr}"
        );
    }
}

#[test]
fn flags_may_come_before_the_mechanism() {
    let stdout = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
            .args(args)
            .output()
            .expect("run ruu-sim");
        assert!(
            out.status.success(),
            "ruu-sim {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(
        stdout(&["--entries", "4", "ruu", "LLL3"]),
        stdout(&["ruu", "LLL3", "--entries", "4"])
    );
}
