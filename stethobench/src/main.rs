//! stethobench — end-to-end and per-layer benchmark of the Stethoscope
//! pipeline, driven through the public `stethoscope` API.
//!
//! ```text
//! cargo run --release --manifest-path stethobench/Cargo.toml -- \
//!     --workload online-q1 --seed 1 --seconds 35 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics;
//! with `--trace 1` it first runs the workload untraced for a third of
//! the time, then alternates traced units with a re-drive of every
//! layer, and reports per-layer metrics derived from the spans. Human
//! readable lines go to stdout first; the last line is one JSON object.
//! A wrong output exits 1, a benchmark failure exits 2.

mod fixture;
mod layers;
mod script;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stethoscope::engine::{Interpreter, VecSink};
use stethoscope::sql::compile_with;
use stethoscope::tpch::{generate_catalog, TpchConfig};

use fixture::{compile_options, profiled_parallel, SQL};
use layers::{redrive, LayerCounts, MODULES};
use stats::{peak_rss_mb, udp_rcvbuf_errors, Samples};
use trace::Tracer;
use workload::{run_for, Ctx, Spec, Tally, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("stethobench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
    /// In the final JSON line (the others are printed for the reader).
    json: bool,
}

#[derive(Default)]
struct Report(Vec<Metric>);

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.push(name.into(), value, unit, n, true);
    }

    fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.push(name.into(), value, unit, n, false);
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, n: usize, json: bool) {
        self.0.push(Metric {
            name,
            value,
            unit,
            n,
            json,
        });
    }

    fn print(&self, correct: bool, attempted: u64, failed: u64) -> Result<(), String> {
        let mut json = String::new();
        for m in &self.0 {
            println!("{:<42} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.n);
            if m.json {
                if !m.value.is_finite() {
                    return Err(format!("metric {} is {} (no samples?)", m.name, m.value));
                }
                let sep = if json.is_empty() { "" } else { ", " };
                let _ = write!(
                    json,
                    "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                );
            }
        }
        println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}");
        Ok(())
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let dir = out_dir().join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_in(spec, args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(spec: &Spec, args: &Args, dir: &Path) -> Result<bool, String> {
    println!(
        "workload {} seed {} seconds {} trace {} cpus {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // The second seed first, so that its catalog is gone before set-up.
    let other = seed_counts(spec, args.seed.wrapping_add(1))?;
    let mut setup_s = Samples::default();
    let mut fx = None;
    for _ in 0..SETUPS {
        // Free the previous fixture first, so peak memory holds one.
        drop(fx.take());
        let t = Instant::now();
        fx = Some(fixture::build(spec, args.seed, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fx = fx.expect("SETUPS > 0");
    let mine = (fx.plan.len(), fx.events.len());
    println!(
        "seed {}: {} instructions, {} events; seed {}: {} instructions, {} events",
        args.seed,
        mine.0,
        mine.1,
        args.seed.wrapping_add(1),
        other.0,
        other.1
    );
    let setup_peak = peak_rss_mb().unwrap_or(f64::NAN);
    let mut wrong = Vec::new();
    if mine != other {
        wrong.push("a second seed changes the plan size or event count".to_string());
    }

    let ctx = Ctx {
        spec,
        fx: &fx,
        seed: args.seed,
        dir,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let rcvbuf_before = udp_rcvbuf_errors();
    let mut report = Report::default();
    let (tally, layer_wrong) = if args.trace {
        traced(&ctx, budget, &mut report)?
    } else {
        let mut tally = Tally::default();
        run_for(&ctx, budget, 0, &mut tally, &mut Tracer::new(false), |_| {});
        end_to_end(&mut report, &setup_s, &tally);
        (tally, Vec::new())
    };
    let rcvbuf_delta = match (rcvbuf_before, udp_rcvbuf_errors()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64,
        _ => f64::NAN,
    };
    report.note("setup_peak_rss_mb", setup_peak, "MiB", 1);
    report.note("sessions_attempted", tally.attempted as f64, "count", 1);
    report.note("sessions_failed", tally.failed as f64, "count", 1);
    report.note(
        "session_fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "1",
        tally.attempted as usize,
    );
    report.note("events_attempted", tally.events_expected as f64, "count", 1);
    report.note(
        "events_delivered",
        tally.events_delivered as f64,
        "count",
        1,
    );
    report.note("kernel_udp_rcvbuf_errors_delta", rcvbuf_delta, "count", 1);

    wrong.extend(tally.wrong.iter().cloned());
    wrong.extend(layer_wrong);
    for w in &wrong {
        eprintln!("WRONG: {w}");
    }
    let correct = wrong.is_empty();
    report.print(correct, tally.attempted, tally.failed)?;
    Ok(correct)
}

/// Plan size and event count of one profiled run at `seed`.
fn seed_counts(spec: &Spec, seed: u64) -> Result<(usize, usize), String> {
    let catalog = std::sync::Arc::new(generate_catalog(&TpchConfig {
        scale_factor: spec.scale_factor,
        seed,
    }));
    let plan = compile_with(&catalog, SQL, &compile_options(spec.partitions))
        .map_err(|e| format!("compile at seed {seed}: {e}"))?
        .plan;
    let sink = VecSink::new();
    Interpreter::new(catalog)
        .execute(&plan, &profiled_parallel(&sink))
        .map_err(|e| format!("execute at seed {seed}: {e}"))?;
    Ok((plan.len(), sink.len()))
}

fn end_to_end(report: &mut Report, setup_s: &Samples, t: &Tally) {
    report.add("setup_s", setup_s.median(), "s", setup_s.len());
    report.add(
        "session_ms_p50",
        t.session_ms.median(),
        "ms",
        t.session_ms.len(),
    );
    report.add(
        "session_ms_p90",
        t.session_ms.pct(0.9),
        "ms",
        t.session_ms.len(),
    );
    report.add(
        "events_delivered_ratio",
        t.events_delivered as f64 / t.events_expected.max(1) as f64,
        "1",
        t.attempted as usize,
    );
    report.add(
        "session_ok_ratio",
        1.0 - t.failed as f64 / t.attempted.max(1) as f64,
        "1",
        t.attempted as usize,
    );
    report.add("load_ms_p50", t.load_ms.median(), "ms", t.load_ms.len());
    report.add(
        "action_ms_p50",
        t.action_ms.median(),
        "ms",
        t.action_ms.len(),
    );
    report.add(
        "action_ms_p90",
        t.action_ms.pct(0.9),
        "ms",
        t.action_ms.len(),
    );
    // About 1% of actions on the reference host are hit by preemption
    // from other tenants, so p99 jumps between runs: it is printed for
    // the 150 ms budget, and p90 is the bounded tail metric.
    report.note(
        "action_ms_p99",
        t.action_ms.pct(0.99),
        "ms",
        t.action_ms.len(),
    );
    report.add("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB", 1);
}

/// Layers on the blocking path of one online session.
const SESSION_LAYERS: [&str; 14] = [
    "sql.compile",
    "mal.verify",
    "dot.plan_to_dot",
    "engine.execute",
    "profiler.encode",
    "profiler.decode",
    "profiler.tracefile_write",
    "dot.parse",
    "layout.layout",
    "layout.write_svg",
    "layout.parse_svg",
    "zvtm.from_scene",
    "core.map",
    "core.ingest",
];

/// Layers of a load, from files on disk to the first frame.
const LOAD_LAYERS: [&str; 8] = [
    "profiler.tracefile_read",
    "dot.parse",
    "layout.layout",
    "layout.write_svg",
    "layout.parse_svg",
    "zvtm.from_scene",
    "core.map",
    "zvtm.render",
];

/// The traced run: untraced units for a third of the budget, then
/// traced units each followed by a re-drive of every layer.
fn traced(
    ctx: &Ctx,
    budget: Duration,
    report: &mut Report,
) -> Result<(Tally, Vec<String>), String> {
    let mut plain = Tally::default();
    let next = run_for(
        ctx,
        budget / 3,
        0,
        &mut plain,
        &mut Tracer::new(false),
        |_| {},
    );

    let mut tr = Tracer::new(true);
    let mut traced = Tally::default();
    let mut counts = LayerCounts::default();
    let mut wrong = Vec::new();
    run_for(ctx, budget - budget / 3, next, &mut traced, &mut tr, |tr| {
        if let Err(e) = redrive(ctx.spec, ctx.fx, ctx.dir, tr, &mut counts) {
            wrong.push(format!("re-drive: {e}"));
        }
    });
    let spans = out_dir().join(format!("spans-{}-seed{}.jsonl", ctx.spec.name, ctx.seed));
    tr.write_jsonl(&spans, ctx.spec.name)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!("spans written to {}", spans.display());

    let selfs = tr.self_ms();
    let med = |name: &str| selfs.get(name).map_or(f64::NAN, Samples::median);
    let n = |name: &str| selfs.get(name).map_or(0, Samples::len);
    let iters = n("redrive");

    for (metric, span) in [
        ("sql.compile_ms", "sql.compile"),
        ("mal.verify_ms", "mal.verify"),
        ("engine.execute_ms", "engine.execute"),
        ("engine.execute_unprofiled_ms", "engine.execute_unprofiled"),
        ("profiler.tracefile_write_ms", "profiler.tracefile_write"),
        ("profiler.tracefile_read_ms", "profiler.tracefile_read"),
        ("dot.plan_to_dot_ms", "dot.plan_to_dot"),
        ("dot.parse_ms", "dot.parse"),
        ("layout.layout_ms", "layout.layout"),
        ("layout.write_svg_ms", "layout.write_svg"),
        ("layout.parse_svg_ms", "layout.parse_svg"),
        ("zvtm.from_scene_ms", "zvtm.from_scene"),
        ("core.map_ms", "core.map"),
        ("zvtm.render_ms", "zvtm.render"),
    ] {
        report.add(metric, med(span), "ms", n(span));
    }
    report.add(
        "engine.profiling_overhead_ratio",
        med("engine.execute") / med("engine.execute_unprofiled") - 1.0,
        "1",
        iters,
    );
    for m in MODULES {
        let v = counts.module_usec.get(m).map_or(f64::NAN, Samples::median);
        report.add(format!("engine.usec.{m}"), v, "us", iters);
    }
    let per = |span: &str, count: usize| med(span) * 1e3 / count.max(1) as f64;
    report.add(
        "profiler.encode_us_per_event",
        per("profiler.encode", counts.events),
        "us",
        iters,
    );
    report.add(
        "profiler.decode_us_per_frame",
        per("profiler.decode", counts.frames),
        "us",
        iters,
    );
    report.add(
        "core.ingest_us_per_event",
        per("core.ingest", counts.events),
        "us",
        iters,
    );
    report.add(
        "core.replay_step_us",
        per("core.replay_forward", counts.events),
        "us",
        iters,
    );
    report.add(
        "core.seek_back_us",
        per("core.replay_back", counts.step_backs),
        "us",
        iters,
    );
    report.add(
        "core.session_step_us",
        med("core.session_step") * 1e3,
        "us",
        n("core.session_step"),
    );
    report.add(
        "zvtm.edt_advance_us",
        med("zvtm.edt_advance") * 1e3,
        "us",
        n("zvtm.edt_advance"),
    );
    report.add(
        "profiler.udp_delivered_ratio",
        counts.udp_received as f64 / counts.udp_sent.max(1) as f64,
        "1",
        iters,
    );
    report.add(
        "profiler.udp_rcvbuf_errors",
        counts.udp_rcvbuf_errors as f64,
        "count",
        iters,
    );

    // Coverage: how much of each end-to-end median of the traced phase
    // the layer self times of the same phase account for; the rest is
    // unattributed.
    let medians = |names: &[&'static str]| names.iter().map(|l| (*l, med(l))).collect::<Vec<_>>();
    let load_parts = medians(&LOAD_LAYERS);
    let session_parts = if ctx.spec.online() {
        medians(&SESSION_LAYERS)
    } else {
        let mut p = load_parts.clone();
        p.push(("offline.restore", med("offline.restore")));
        p.push((
            "actions (chunk x mean action)",
            ctx.spec.chunk as f64 * traced.action_ms.mean(),
        ));
        p
    };
    let sum = |parts: &[(&str, f64)]| parts.iter().map(|(_, v)| v).sum::<f64>();
    let session_p50 = traced.session_ms.median();
    let load_p50 = traced.load_ms.median();
    let blocking = sum(&session_parts);
    report.add(
        "core.session_unattributed_ms",
        session_p50 - blocking,
        "ms",
        traced.session_ms.len(),
    );
    report.add(
        "core.load_unattributed_ms",
        load_p50 - sum(&load_parts),
        "ms",
        traced.load_ms.len(),
    );
    report.add(
        "core.action_unattributed_ms",
        med("offline.action"),
        "ms",
        n("offline.action"),
    );
    report.add(
        "bench.session_coverage_ratio",
        blocking / session_p50,
        "1",
        traced.session_ms.len(),
    );
    report.add(
        "bench.trace_overhead_ratio",
        session_p50 / plain.session_ms.median() - 1.0,
        "1",
        traced.session_ms.len(),
    );
    coverage_table("session_ms_p50", session_p50, &session_parts);
    coverage_table("load_ms_p50", load_p50, &load_parts);
    action_coverage(&tr);

    let mut all = plain;
    all.absorb(traced);
    let sessions = all.attempted as usize;
    for (metric, v) in [
        ("profiler.transport_lost", all.transport_lost),
        ("profiler.backpressure_dropped", all.backpressure_dropped),
        ("profiler.samples_dropped", all.samples_dropped),
        ("zvtm.edt_enqueued", all.edt_enqueued),
        ("zvtm.edt_coalesced", all.edt_coalesced),
        ("core.synthesized_dones", all.synthesized_dones),
        ("core.lost_instructions", all.lost_instructions),
        ("dot.degraded_sessions", all.degraded_sessions),
        (
            "core.sessions_without_live_scene",
            all.sessions_without_live_scene,
        ),
    ] {
        report.add(metric, v as f64, "count", sessions);
    }
    Ok((all, wrong))
}

fn coverage_table(title: &str, total: f64, parts: &[(&str, f64)]) {
    println!("coverage of {title} = {total:.3} ms");
    let mut sum = 0.0;
    for (name, v) in parts {
        sum += v;
        println!("  {name:<36} {v:>10.3} ms {:>6.1}%", 100.0 * v / total);
    }
    println!(
        "  {:<36} {:>10.3} ms {:>6.1}%",
        "(unattributed)",
        total - sum,
        100.0 * (total - sum) / total
    );
}

/// Actions mix steps, seeks and camera moves, so they are broken down
/// by mean: the means of a parent's children add up to its own mean.
fn action_coverage(tr: &Tracer) {
    let totals = tr.total_ms();
    let actions = tr
        .self_ms()
        .get("offline.action")
        .map_or(0, Samples::len)
        .max(1) as f64;
    let mean = |names: &[&str]| {
        names
            .iter()
            .map(|n| totals.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
            / actions
    };
    coverage_table(
        "mean action",
        mean(&["offline.action"]),
        &[
            (
                "core.session_* + zvtm.camera",
                mean(&[
                    "core.session_step",
                    "core.session_step_back",
                    "core.session_seek",
                    "zvtm.camera",
                ]),
            ),
            ("zvtm.edt_advance", mean(&["zvtm.edt_advance"])),
            ("zvtm.render", mean(&["zvtm.render"])),
        ],
    );
}
