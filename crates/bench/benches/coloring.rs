//! Experiments A1 / A2 / X1 / C2 — the run-time coloring algorithms:
//! pair-elision over sample-buffer snapshots (A1), the user-threshold
//! streaming variant (A2), and the §6 gradient extension (X1). C2
//! (color-coded monitoring) is the combination measured end-to-end in
//! `online_session`.
//!
//! `coloring/ingest_per_event/*` prices the online monitor's per-event
//! coloring step both ways — re-diffing a sample-buffer snapshot versus
//! the incremental `ElisionWindow` — and writes both rows to the
//! benchmark ledger.

use std::collections::HashMap;

use criterion::{criterion_group, take_reports, BenchmarkId, Criterion, Throughput};
use stetho_bench::ledger::{int, ledger_path, num, text, Ledger};
use stetho_bench::synthetic_trace;
use stetho_core::{
    ColorState, ElisionWindow, GradientColoring, PairElision, ThresholdColoring, Transition,
};
use stetho_profiler::SampleBuffer;

/// The online monitor's default sample capacity.
const WINDOW: usize = 256;
/// Events in the per-event ingest trace: a 1301-instruction plan.
const INGEST_EVENTS: usize = 2602;

fn bench_pair_elision(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring/pair_elision");
    for size in [64usize, 256, 1024, 4096] {
        let buffer = synthetic_trace(size / 2, 4, 7);
        group.throughput(Throughput::Elements(buffer.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &buffer, |b, buf| {
            b.iter(|| PairElision.analyse(buf).len())
        });
    }
    group.finish();
}

fn bench_pair_elision_changes(c: &mut Criterion) {
    // The per-event online path: re-analysing the window after each
    // arrival (what §4.2 does against the sample buffer).
    let window = synthetic_trace(128, 4, 7);
    c.bench_function("coloring/pair_elision_changes_256", |b| {
        b.iter(|| PairElision.changes(&window).len())
    });
}

fn bench_ingest_per_event(c: &mut Criterion) {
    let events = synthetic_trace(INGEST_EVENTS / 2, 4, 7);
    let mut group = c.benchmark_group("coloring/ingest_per_event");
    group.throughput(Throughput::Elements(events.len() as u64));
    // Before: push, snapshot the window, diff it against the painted
    // canvas, repaint.
    group.bench_function("snapshot_diff", |b| {
        b.iter(|| {
            let mut sample = SampleBuffer::new(WINDOW);
            let mut painted: HashMap<usize, ColorState> = HashMap::new();
            let mut repaints = 0usize;
            for e in &events {
                sample.push(e.clone());
                for ch in PairElision.diff(&sample.snapshot(), &painted) {
                    repaints += 1;
                    if ch.state == ColorState::Uncolored {
                        painted.remove(&ch.pc);
                    } else {
                        painted.insert(ch.pc, ch.state);
                    }
                }
            }
            repaints
        })
    });
    // After: the incremental window reports what each push moved.
    group.bench_function("window", |b| {
        b.iter(|| {
            let mut window = ElisionWindow::new(WINDOW);
            events
                .iter()
                .map(|e| {
                    window
                        .push(e.pc, e.status)
                        .iter()
                        .filter_map(Transition::repaint)
                        .count()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_threshold(c: &mut Criterion) {
    let events = synthetic_trace(5_000, 4, 9);
    let mut group = c.benchmark_group("coloring/threshold");
    group.throughput(Throughput::Elements(events.len() as u64));
    for threshold in [100u64, 1_000, 10_000] {
        let mut probe = ThresholdColoring::new(threshold);
        let flagged = events
            .iter()
            .filter_map(|e| probe.on_event(e))
            .filter(|c| matches!(c.state, stetho_core::ColorState::Red))
            .count();
        eprintln!("[threshold_coloring] {threshold}µs flags {flagged} instructions");
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &t| {
                b.iter(|| {
                    let mut alg = ThresholdColoring::new(t);
                    events.iter().filter_map(|e| alg.on_event(e)).count()
                })
            },
        );
    }
    group.finish();
}

fn bench_gradient(c: &mut Criterion) {
    let events = synthetic_trace(5_000, 4, 9);
    c.bench_function("coloring/gradient", |b| {
        b.iter(|| {
            let mut g = GradientColoring::new();
            events.iter().filter_map(|e| g.on_event(e)).count()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pair_elision, bench_pair_elision_changes, bench_ingest_per_event,
              bench_threshold, bench_gradient
}

fn main() {
    benches();
    let path = ledger_path();
    let mut ledger = Ledger::load(&path);
    // Recorded per row: the file-wide context describes the host the
    // engine rows came from, which need not be this one.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for report in take_reports() {
        let Some(path) = report.name.strip_prefix("coloring/ingest_per_event/") else {
            continue;
        };
        ledger.put(
            &report.name,
            vec![
                ("bench".to_string(), text("coloring")),
                ("path".to_string(), text(path)),
                ("window".to_string(), int(WINDOW as i64)),
                ("host_cpus".to_string(), int(cpus as i64)),
                ("events_per_iter".to_string(), int(INGEST_EVENTS as i64)),
                ("mean_ns".to_string(), num(report.mean_ns)),
                (
                    "ns_per_event".to_string(),
                    num(report.mean_ns / INGEST_EVENTS as f64),
                ),
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
