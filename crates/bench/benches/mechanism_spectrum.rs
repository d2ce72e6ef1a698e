//! The full §3 design walk: Tomasulo → Tag Unit + distributed RS →
//! merged RS pool → RSTU → RUU, at matched hardware budgets. This is the
//! paper's §3 narrative as one table.
//!
//! Run with `cargo bench -p ruu-bench --bench mechanism_spectrum`.

use ruu_bench::{engine, or_exit, report};
use ruu_engine::Job;
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;

fn main() {
    let cfg = MachineConfig::paper();
    let mechanisms = [
        ("simple issue (Table 1 baseline)", Mechanism::Simple),
        (
            "Tomasulo, 2 RS/unit (§3.1)",
            Mechanism::Tomasulo { rs_per_fu: 2 },
        ),
        (
            "Tag Unit + distributed RS (§3.2.1)",
            Mechanism::TagUnitDistributed {
                rs_per_fu: 2,
                tags: 15,
            },
        ),
        (
            "Tag Unit + RS pool (§3.2.2)",
            Mechanism::RsPool { rs: 10, tags: 15 },
        ),
        ("RSTU, 15 entries (§3.2.3)", Mechanism::Rstu { entries: 15 }),
        (
            "RUU, 15 entries, bypass (§5)",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::Full,
            },
        ),
        (
            "RUU, 15 entries, no bypass (§6.2)",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::None,
            },
        ),
        (
            "RUU, 15 entries, limited bypass (§6.3)",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::LimitedA,
            },
        ),
    ];
    let jobs: Vec<Job> = mechanisms
        .into_iter()
        .map(|(label, m)| Job::new(m, cfg.clone()).with_label(label))
        .collect();
    let grid = or_exit(engine().run_grid(&jobs));
    print!(
        "{}",
        report::format_plain_sweep(
            "The §3→§5 design spectrum on the Livermore suite",
            "mechanism",
            &grid.jobs
        )
    );
}
