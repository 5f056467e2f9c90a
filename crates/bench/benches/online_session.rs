//! Experiment D6 — online end-to-end: the complete §4.2 workflow (UDP
//! textual Stethoscope, query thread, stream monitor, sampling, coloring)
//! measured wall-to-wall, with the EDT pacing on and off, plus the
//! multi-server session (§3.2) over the same intake.
//!
//! Every `online/end_to_end/*`, `online/query/*` and `multi/query/*` row
//! is written to the benchmark ledger with the host's CPU count.

use criterion::{criterion_group, take_reports, BenchmarkId, Criterion};
use stetho_bench::catalog;
use stetho_bench::ledger::{int, ledger_path, num, text, Ledger};
use stetho_core::{MultiServerSession, OnlineConfig, OnlineSession, ServerSpec};
use stetho_tpch::queries;

fn bench_online(c: &mut Criterion) {
    let cat = catalog(0.002);
    let mut group = c.benchmark_group("online/end_to_end");
    group.sample_size(10);
    for pacing in [0u64, 150] {
        group.bench_with_input(
            BenchmarkId::new("pacing_ms", pacing),
            &pacing,
            |b, &pacing| {
                b.iter(|| {
                    let cfg = OnlineConfig {
                        pacing_ms: pacing,
                        partitions: 2,
                        workers: 2,
                        ..Default::default()
                    };
                    let out =
                        OnlineSession::run(std::sync::Arc::clone(&cat), queries::Q6, &cfg).unwrap();
                    std::fs::remove_file(&cfg.dot_path).ok();
                    std::fs::remove_file(&cfg.trace_path).ok();
                    out.events.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_online_queries(c: &mut Criterion) {
    let cat = catalog(0.002);
    let mut group = c.benchmark_group("online/query");
    group.sample_size(10);
    for (name, sql) in [("figure1", queries::FIGURE1), ("q1", queries::Q1)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &sql, |b, sql| {
            b.iter(|| {
                let cfg = OnlineConfig {
                    pacing_ms: 0,
                    ..Default::default()
                };
                let out = OnlineSession::run(std::sync::Arc::clone(&cat), sql, &cfg).unwrap();
                std::fs::remove_file(&cfg.dot_path).ok();
                std::fs::remove_file(&cfg.trace_path).ok();
                out.result_rows
            })
        });
    }
    group.finish();
}

/// Two servers, FIGURE1 and Q6, streaming to one textual Stethoscope.
fn bench_multi_server(c: &mut Criterion) {
    let cat = catalog(0.002);
    let server = |name: &str, sql: &str| ServerSpec {
        name: name.into(),
        catalog: std::sync::Arc::clone(&cat),
        sql: sql.into(),
        filter: None,
    };
    let mut group = c.benchmark_group("multi/query");
    group.sample_size(10);
    group.bench_function("figure1_q6", |b| {
        b.iter(|| {
            let specs = vec![
                server("figure1", queries::FIGURE1),
                server("q6", queries::Q6),
            ];
            MultiServerSession::run(specs).unwrap().len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_online, bench_online_queries, bench_multi_server
}

fn main() {
    benches();
    let path = ledger_path();
    let mut ledger = Ledger::load(&path);
    // Recorded per row: the file-wide context describes the host the
    // engine rows came from, which need not be this one.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for report in take_reports() {
        let scenario = match report.name.split_once('/') {
            Some(("online", rest)) => rest,
            Some(("multi", _)) => report.name.as_str(),
            _ => continue,
        };
        ledger.put(
            &report.name,
            vec![
                ("bench".to_string(), text("online_session")),
                ("scenario".to_string(), text(scenario)),
                ("host_cpus".to_string(), int(cpus as i64)),
                ("mean_ns".to_string(), num(report.mean_ns)),
                ("mean_ms".to_string(), num(report.mean_ns / 1e6)),
            ],
        );
    }
    ledger.save(&path).expect("ledger writes");
    eprintln!(
        "[ledger] wrote {} entries to {}",
        ledger.len(),
        path.display()
    );
}
