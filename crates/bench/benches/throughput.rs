//! Host simulation throughput (criterion): how fast each cycle-level
//! simulator executes guest instructions on this machine. Not a paper
//! experiment — an engineering benchmark for the simulators themselves.
//!
//! Run with `cargo bench -p ruu-bench --bench throughput`.

use criterion::{criterion_group, criterion_main, Criterion};
use ruu_issue::{Bypass, Mechanism};
use ruu_sim_core::MachineConfig;
use ruu_workloads::livermore;

fn sim_throughput(c: &mut Criterion) {
    let cfg = MachineConfig::paper();
    let w = livermore::lll7();
    let mut group = c.benchmark_group("simulate-lll7");
    for (name, m) in [
        ("simple", Mechanism::Simple),
        ("rstu-15", Mechanism::Rstu { entries: 15 }),
        (
            "ruu-15-bypass",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::Full,
            },
        ),
        (
            "ruu-15-nobypass",
            Mechanism::Ruu {
                entries: 15,
                bypass: Bypass::None,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                m.build(&cfg)
                    .run(&w.program, w.memory.clone(), w.inst_limit)
                    .expect("kernel runs")
            })
        });
    }
    group.finish();
}

fn golden_throughput(c: &mut Criterion) {
    let w = livermore::lll7();
    c.bench_function("golden-interpreter-lll7", |b| {
        b.iter(|| {
            ruu_exec::Trace::capture(&w.program, w.memory.clone(), w.inst_limit)
                .expect("kernel runs")
        })
    });
}

criterion_group!(benches, sim_throughput, golden_throughput);
criterion_main!(benches);
