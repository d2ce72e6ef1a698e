//! Report snapshot: the numbers every report layer derives from the
//! simulators' counters, pinned byte for byte.
//!
//! * The `jobs` array of `SweepReport::to_json()` for a fixed grid of
//!   in-order, out-of-order and speculative machines under perfect memory
//!   and a `64x2x4:20` data cache. The grid reaches every `stalls`,
//!   `branch` and `cache` object the engine emits. The wall-clock
//!   `engine` object is left out.
//! * The text of the bench harness's stall, predictor-ablation and
//!   data-cache-ablation tables for the calls the `table1` target makes.
//!
//! The snapshots live in `tests/snapshots/`. The JSON file holds one job
//! per line; the line breaks are the only difference from the report.

use ruu::engine::{Job, SweepEngine};
use ruu::issue::{Bypass, Mechanism, PreciseScheme, PredictorConfig};
use ruu::sim::{DCacheConfig, MachineConfig};
use ruu_bench::{cache_ablation, engine, predictor_ablation, report};

const JOBS: &str = include_str!("snapshots/report_jobs.json");
const TABLES: &str = include_str!("snapshots/table1_reports.md");

fn grid() -> Vec<Job> {
    let spec = |predictor| Mechanism::SpecRuu {
        entries: 15,
        bypass: Bypass::Full,
        predictor,
    };
    let mechanisms = [
        Mechanism::Simple,
        Mechanism::Rstu { entries: 15 },
        Mechanism::Ruu {
            entries: 8,
            bypass: Bypass::Full,
        },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
        spec(PredictorConfig::TwoBit { entries: 64 }),
        spec(PredictorConfig::Tage { entries: 512 }),
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBuffer,
            entries: 4,
        },
    ];
    let cached = MachineConfig::paper()
        .with_dcache(DCacheConfig::parse("64x2x4:20").expect("valid geometry"));
    [MachineConfig::paper(), cached]
        .iter()
        .flat_map(|cfg| mechanisms.iter().map(|&m| Job::new(m, cfg.clone())))
        .collect()
}

#[test]
fn sweep_report_jobs_match_the_snapshot() {
    let report = SweepEngine::livermore()
        .with_workers(2)
        .run_grid(&grid())
        .expect("grid runs");
    let json = report.to_json();
    let jobs = &json[json.find("\"jobs\":[").expect("report has a jobs array")..];
    let one_job_per_line = jobs.replace(",{\"label\"", ",\n{\"label\"");
    assert_eq!(one_job_per_line, JOBS.trim_end());
}

#[test]
fn table1_report_tables_match_the_snapshot() {
    let cfg = MachineConfig::paper();
    let mut text = String::new();
    let stalls = engine()
        .workload_rows(Mechanism::Simple, &cfg)
        .expect("breakdown runs");
    text += &report::format_stall_table("Where the cycles go (simple issue)", &stalls);
    let ablation = predictor_ablation(&cfg, 15).expect("ablation runs");
    text += &report::format_predictor_ablation(
        "Predictor ablation — speculative RUU (15 entries), suite totals",
        &ablation,
    );
    let mechanisms = [
        Mechanism::Simple,
        Mechanism::InOrderPrecise {
            scheme: PreciseScheme::ReorderBufferBypass,
            entries: 15,
        },
        Mechanism::Rstu { entries: 15 },
        Mechanism::Ruu {
            entries: 15,
            bypass: Bypass::Full,
        },
        Mechanism::SpecRuu {
            entries: 15,
            bypass: Bypass::Full,
            predictor: PredictorConfig::default(),
        },
    ];
    let dcaches: Vec<DCacheConfig> = ["64x2x4:5:1:4", "64x2x4:20:1:4"]
        .iter()
        .map(|s| DCacheConfig::parse(s).expect("ablation geometry"))
        .collect();
    let rows = cache_ablation(&cfg, &mechanisms, &dcaches).expect("ablation runs");
    text += &report::format_cache_ablation(
        "Data-cache ablation — suite totals, miss latency 5 vs 20 cycles",
        &rows,
    );
    assert_eq!(text, TABLES);
}
