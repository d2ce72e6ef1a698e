//! Table formatting for the bench targets: measured values printed next
//! to the paper's published numbers.

use crate::harness::{CacheAblationRow, PredictorAblationRow, SweepPoint};
use crate::paper;
use ruu_engine::WorkloadRow;
use ruu_sim_core::StallReason;

/// Formats a Table-1-style report (per-loop baseline statistics) with the
/// paper's numbers alongside.
#[must_use]
pub fn format_table1(rows: &[WorkloadRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Loop   | insts (ours) | cycles (ours) | rate (ours) | dflow bound | % of limit | insts (paper) | cycles (paper) | rate (paper) |"
    );
    let _ = writeln!(
        out,
        "|--------|-------------:|--------------:|------------:|------------:|-----------:|--------------:|---------------:|-------------:|"
    );
    for row in rows {
        let p = paper::TABLE1.iter().find(|(n, ..)| *n == row.name);
        let (pi, pc, pr) = p.map_or((0, 0, 0.0), |&(_, i, c, r)| (i, c, r));
        let _ = writeln!(
            out,
            "| {:<6} | {:>12} | {:>13} | {:>11.3} | {:>11} | {:>9.1}% | {:>13} | {:>14} | {:>12.3} |",
            row.name,
            row.instructions,
            row.cycles,
            row.issue_rate(),
            row.dataflow_bound,
            row.pct_of_limit().unwrap_or(0.0),
            pi,
            pc,
            pr,
        );
    }
    out
}

/// Formats a sweep table (Tables 2–6 style) with the paper's numbers
/// alongside.
#[must_use]
pub fn format_sweep(
    title: &str,
    points: &[SweepPoint],
    paper_table: &[(usize, f64, f64)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = writeln!(
        out,
        "| Entries | speedup (ours) | rate (ours) | speedup (paper) | rate (paper) |"
    );
    let _ = writeln!(
        out,
        "|--------:|---------------:|------------:|----------------:|-------------:|"
    );
    for p in points {
        let (ps, pr) = paper::lookup(paper_table, p.entries).unwrap_or((f64::NAN, f64::NAN));
        let _ = writeln!(
            out,
            "| {:>7} | {:>14.3} | {:>11.3} | {:>15.3} | {:>12.3} |",
            p.entries, p.speedup, p.issue_rate, ps, pr,
        );
    }
    out
}

/// Formats the speculative-RUU predictor-ablation table: CBP-replay
/// mispredictions next to the pipeline's prediction counts, repair
/// cycles, and the resulting cycles/speedup, one row per zoo predictor.
#[must_use]
pub fn format_predictor_ablation(title: &str, rows: &[PredictorAblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = writeln!(
        out,
        "| Predictor | CBP miss | predicts | mispredicts | repair cycles | cycles | speedup |"
    );
    let _ = writeln!(
        out,
        "|-----------|---------:|---------:|------------:|--------------:|-------:|--------:|"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "| {:<9} | {:>8} | {:>8} | {:>11} | {:>13} | {:>6} | {:>7.3} |",
            r.predictor,
            r.cbp_mispredicts,
            r.stats.predicted_branches,
            r.stats.mispredicted_branches,
            r.stats.stalls(StallReason::MispredictRepair),
            r.cycles,
            r.speedup,
        );
    }
    out
}

/// Formats the data-cache ablation table: per mechanism, the perfect
/// memory followed by each finite cache model, with the cycle price
/// (`slowdown`) each mechanism pays for the real memory path.
#[must_use]
pub fn format_cache_ablation(title: &str, rows: &[CacheAblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = writeln!(
        out,
        "| Mechanism | dcache | cycles | slowdown | speedup | hit rate | MPKI |"
    );
    let _ = writeln!(
        out,
        "|-----------|--------|-------:|---------:|--------:|---------:|-----:|"
    );
    let mut last = "";
    for r in rows {
        let label = if r.mechanism == last {
            ""
        } else {
            &r.mechanism
        };
        last = &r.mechanism;
        let (hit_rate, mpki) = if r.dcache.is_perfect() {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!("{:.1}%", 100.0 * r.stats.dcache_hit_rate()),
                format!("{:.1}", r.stats.dcache_mpki(r.instructions)),
            )
        };
        let _ = writeln!(
            out,
            "| {:<18} | {:<14} | {:>7} | {:>7.3}x | {:>7.3} | {hit_rate:>8} | {mpki:>4} |",
            label,
            r.dcache.to_string(),
            r.cycles,
            r.slowdown,
            r.speedup,
        );
    }
    out
}

/// Formats a per-workload stall-breakdown table for one mechanism: one
/// column per stall reason that occurs anywhere in the suite, plus a
/// `Total` row. Cycle counts, not percentages, so rows can be checked
/// against `cycles == issue + Σ stalls` by eye.
#[must_use]
pub fn format_stall_table(title: &str, rows: &[WorkloadRow]) -> String {
    use std::fmt::Write as _;
    let reasons: Vec<StallReason> = StallReason::ALL
        .into_iter()
        .filter(|&r| rows.iter().any(|row| row.stats.stalls(r) > 0))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = write!(out, "| Loop   | cycles | issue |");
    for r in &reasons {
        let _ = write!(out, " {r} |");
    }
    let _ = writeln!(out, " mean occ |");
    let _ = write!(out, "|--------|-------:|------:|");
    for r in &reasons {
        let _ = write!(out, "{:-<width$}:|", "", width = r.to_string().len());
    }
    let _ = writeln!(out, "---------:|");
    let total = WorkloadRow::total("Total", rows);
    for row in rows.iter().chain([&total]) {
        let s = &row.stats;
        let _ = write!(
            out,
            "| {:<6} | {:>6} | {:>5} |",
            row.name, row.cycles, s.issue_cycles
        );
        for r in &reasons {
            let _ = write!(
                out,
                " {:>width$} |",
                s.stalls(*r),
                width = r.to_string().len()
            );
        }
        let mean = s.mean_occupancy(row.cycles).unwrap_or(0.0);
        let _ = writeln!(out, " {mean:>8.2} |");
    }
    out
}

/// Formats the engine's execution statistics for a sweep footer.
#[must_use]
pub fn format_engine_stats(stats: &ruu_engine::EngineStats) -> String {
    format!(
        "engine: {} jobs ({} units) on {} workers in {:.1?} ({:.1} jobs/s, {:.1} units/s)",
        stats.jobs, stats.units, stats.workers, stats.wall, stats.jobs_per_sec, stats.units_per_sec,
    )
}

/// Formats a plain sweep table with no paper reference (ablations).
#[must_use]
pub fn format_plain_sweep(title: &str, header: &str, rows: &[(String, f64, f64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = writeln!(out, "| {header} | speedup | issue rate |");
    let _ = writeln!(out, "|---|---:|---:|");
    for (label, speedup, rate) in rows {
        let _ = writeln!(out, "| {label} | {speedup:.3} | {rate:.3} |");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_formatting_includes_paper_columns() {
        let rows = vec![WorkloadRow {
            name: "LLL1",
            instructions: 100,
            cycles: 250,
            dataflow_bound: 125,
            stats: ruu_sim_core::RunStats::default(),
        }];
        let s = format_table1(&rows);
        assert!(s.contains("LLL1"));
        assert!(s.contains("7217")); // paper column
        assert!(s.contains("0.400")); // our rate
        assert!(s.contains("% of limit"));
        assert!(s.contains("50.0%")); // 125 / 250 of the dataflow limit
    }

    #[test]
    fn stall_table_lists_active_reasons_and_total() {
        let rows = crate::harness::stall_breakdown(
            &ruu_sim_core::MachineConfig::paper(),
            ruu_issue::Mechanism::Simple,
        )
        .expect("breakdown runs");
        let s = format_stall_table("Where the cycles go", &rows);
        assert!(s.contains("operands-not-ready"));
        assert!(s.contains("drained"));
        assert!(s.contains("| Total"));
        assert!(s.contains("mean occ"));
    }

    #[test]
    fn sweep_formatting_includes_paper_lookup() {
        let pts = vec![SweepPoint {
            entries: 10,
            cycles: 1000,
            instructions: 700,
            speedup: 1.5,
            issue_rate: 0.7,
        }];
        let s = format_sweep("Table 2", &pts, &paper::TABLE2);
        assert!(s.contains("1.642")); // paper speedup at 10 entries
        assert!(s.contains("1.500"));
    }
}
