//! Online analysis demo (§4.2 / §5) — the full multi-threaded workflow
//! over real UDP: the textual Stethoscope listens in its own thread, the
//! query runs in another, the monitor splits dot from trace content,
//! samples the stream, and colors long-running instructions with both
//! §4.2.1 algorithms while the query executes.
//!
//! Run with: `cargo run --release --example online_monitor`
//!
//! Pass `--verify` to statically check the plan (malcheck) and print
//! the rendered report before executing it.
//!
//! Pass `--metrics-addr <host:port>` to serve the self-observability
//! registry as Prometheus text exposition while the session runs (the
//! final exposition is also self-scraped and printed), and
//! `--chaos <seed>` to route the stream through the deterministic
//! hostile chaos link instead of clean UDP.

use std::sync::Arc;

use stethoscope::core::{OnlineConfig, OnlineSession};
use stethoscope::obsv::{scrape, MetricsServer, Registry};
use stethoscope::profiler::ChaosConfig;
use stethoscope::tpch::{generate_catalog, queries, TpchConfig};
use stethoscope::zvtm::render::render_svg_frame;

fn main() {
    let catalog = Arc::new(generate_catalog(&TpchConfig::sf(0.005)));
    println!(
        "catalog: {} lineitem rows",
        catalog.table("lineitem").unwrap().rows()
    );

    // The §5 "long running query": a 3-way join + aggregation, compiled
    // with mitosis and executed on the multi-core dataflow scheduler.
    let mut cfg = OnlineConfig {
        partitions: 4,
        workers: 4,
        pacing_ms: 150, // the paper's render pacing
        sample_capacity: 512,
        threshold_usec: Some(500),
        ..Default::default()
    };
    if let Some(seed) = stethoscope::arg_value("chaos") {
        let seed: u64 = seed.parse().expect("--chaos takes a numeric seed");
        println!("chaos link enabled (hostile schedule, seed {seed})");
        cfg.chaos = Some(ChaosConfig::hostile(seed));
    }
    let mut metrics_server = match stethoscope::arg_value("metrics-addr") {
        Some(addr) => {
            let registry = Arc::new(Registry::new());
            cfg.metrics = Some(Arc::clone(&registry));
            let server =
                MetricsServer::serve(registry, addr.as_str()).expect("bind the metrics endpoint");
            println!("serving metrics at http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };
    if stethoscope::verify_requested() {
        // The session compiles its own plan; check the same compilation
        // up front so a broken plan never reaches the scheduler.
        use stethoscope::sql::{compile_with, CompileOptions};
        let q = compile_with(
            &catalog,
            queries::LONG_RUNNING,
            &CompileOptions::with_partitions(cfg.partitions),
        )
        .expect("long-running query compiles");
        stethoscope::verify_plan("long-running-mitosis-4", &q.plan);
    }
    println!(
        "running online session over UDP (pacing {} ms)...",
        cfg.pacing_ms
    );
    let out = OnlineSession::run(Arc::clone(&catalog), queries::LONG_RUNNING, &cfg)
        .expect("online session");

    println!("\n--- session summary ---");
    println!("plan           : {} instructions", out.plan.len());
    println!("trace events   : {}", out.events.len());
    println!("result rows    : {}", out.result_rows);
    println!("elapsed        : {:?}", out.elapsed);
    println!(
        "edt            : {} enqueued, {} dispatched, peak backlog {}",
        out.edt_stats.enqueued, out.edt_stats.dispatched, out.edt_stats.max_queue
    );
    println!("samples dropped: {}", out.samples_dropped);
    println!("{}", out.transport);
    println!(
        "progress       : {}/{} instructions done ({} levels deep)",
        out.progress.done, out.progress.total, out.progress.depth_levels
    );

    // Progress/coloring outcome of the pair-elision algorithm.
    let red = out
        .final_states
        .values()
        .filter(|s| matches!(s, stethoscope::core::ColorState::Red))
        .count();
    let green = out
        .final_states
        .values()
        .filter(|s| matches!(s, stethoscope::core::ColorState::Green))
        .count();
    println!("\npair-elision final states: {red} red, {green} green");

    // Threshold algorithm: instructions over 500 µs.
    let mut costly: Vec<usize> = out
        .threshold_states
        .iter()
        .filter(|(_, s)| matches!(s, stethoscope::core::ColorState::Red))
        .map(|(&pc, _)| pc)
        .collect();
    costly.sort_unstable();
    println!("threshold (>500µs) flagged pcs: {costly:?}");
    for pc in costly.iter().take(5) {
        if let Some(stmt) = out.map.label_of_pc(*pc) {
            println!("  pc {pc:>3}: {stmt}");
        }
    }

    // Multi-core utilisation of the run (§5 online demo).
    use stethoscope::core::analysis::{thread_utilisation, threads::observed_concurrency};
    println!("\n--- multi-core utilisation ---");
    for t in thread_utilisation(&out.events) {
        println!(
            "  thread {:>2}: {:>4} instructions, {:>10} µs busy ({:5.1}%)",
            t.thread,
            t.instructions,
            t.busy_usec,
            t.utilisation * 100.0
        );
    }
    println!(
        "observed concurrency: {}",
        observed_concurrency(&out.events)
    );

    // Final frame of the colored plan.
    let out_dir = std::path::PathBuf::from("target/stethoscope-demo");
    std::fs::create_dir_all(&out_dir).unwrap();
    let frame = out_dir.join("online_final.svg");
    std::fs::write(&frame, render_svg_frame(&out.space)).unwrap();
    println!("\nwrote {}", frame.display());

    // Self-scrape the endpoint so the final exposition lands on stdout
    // (the CI smoke job parses the block between the markers).
    if let Some(server) = metrics_server.as_mut() {
        let body = scrape(server.local_addr()).expect("self-scrape the metrics endpoint");
        println!("\n--- metrics exposition begin ---");
        print!("{body}");
        println!("--- metrics exposition end ---");
        server.stop();
    }
}
