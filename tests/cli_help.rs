//! `ruu-sim -h`/`--help` prints the usage and succeeds, at top level and
//! after every subcommand.

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

#[test]
fn unknown_options_still_fail() {
    let out = Command::new(env!("CARGO_BIN_EXE_ruu-sim"))
        .args(["sweep", "--bogus"])
        .output()
        .expect("run ruu-sim");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --bogus"));
}
