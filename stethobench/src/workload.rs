//! The workloads and their end-to-end unit of work.
//!
//! * `online-q1` — `OnlineSession::run` of Q1 with mitosis(8) at SF 0.05
//!   over real loopback UDP: the engine is the largest layer, and the
//!   dot burst overflows the socket buffer, so engine, shutdown and
//!   transport changes show here.
//! * `online-wide` — Q1 with mitosis(96) (1301 instructions, the paper's
//!   claim-5 size) at SF 0.002 over the in-memory link with a clean
//!   chaos schedule: same codec, reassembly and session code, no faults.
//!   Plan-to-scene and per-event ingest dominate; engine work is small.
//! * `offline-wide` — `OfflineSession::load_files` of the same 1301-node
//!   plan's recorded dot and trace files plus the scripted interaction.
//!   No engine and no transport run.
//!
//! Online sessions are followed by a reopen of the files the session
//! wrote (load to first frame plus a few scripted actions), so every
//! workload reports the load and action metrics.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stethoscope::core::{OnlineConfig, OnlineOutcome, OnlineSession};
use stethoscope::profiler::{ChaosConfig, EventStatus};
use stethoscope::zvtm::Color;

use crate::fixture::{Fixture, SQL, WORKERS};
use crate::script::{reopen, ReopenError, Reopened};
use crate::stats::Samples;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    OnlineUdp,
    OnlineMemory,
    Offline,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub scale_factor: f64,
    pub partitions: usize,
    pub kind: Kind,
    /// Scripted actions per reopen.
    pub chunk: usize,
}

pub const PACING_MS: u64 = 150;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "online-q1",
        scale_factor: 0.05,
        partitions: 8,
        kind: Kind::OnlineUdp,
        chunk: 16,
    },
    Spec {
        name: "online-wide",
        scale_factor: 0.002,
        partitions: 96,
        kind: Kind::OnlineMemory,
        chunk: 16,
    },
    Spec {
        name: "offline-wide",
        scale_factor: 0.002,
        partitions: 96,
        kind: Kind::Offline,
        chunk: 40,
    },
];

impl Spec {
    pub fn online(&self) -> bool {
        self.kind != Kind::Offline
    }
}

/// End-to-end samples and counts over one phase of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub session_ms: Samples,
    pub load_ms: Samples,
    pub action_ms: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub events_delivered: u64,
    pub events_expected: u64,
    pub edt_enqueued: u64,
    pub edt_coalesced: u64,
    pub synthesized_dones: u64,
    pub lost_instructions: u64,
    pub degraded_sessions: u64,
    pub sessions_without_live_scene: u64,
    pub transport_lost: u64,
    pub backpressure_dropped: u64,
    pub samples_dropped: u64,
    /// Wrong outputs; any entry fails the run.
    pub wrong: Vec<String>,
}

impl Tally {
    pub fn absorb(&mut self, o: Tally) {
        self.session_ms.extend(&o.session_ms);
        self.load_ms.extend(&o.load_ms);
        self.action_ms.extend(&o.action_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.events_delivered += o.events_delivered;
        self.events_expected += o.events_expected;
        self.edt_enqueued += o.edt_enqueued;
        self.edt_coalesced += o.edt_coalesced;
        self.synthesized_dones += o.synthesized_dones;
        self.lost_instructions += o.lost_instructions;
        self.degraded_sessions += o.degraded_sessions;
        self.sessions_without_live_scene += o.sessions_without_live_scene;
        self.transport_lost += o.transport_lost;
        self.backpressure_dropped += o.backpressure_dropped;
        self.samples_dropped += o.samples_dropped;
        self.wrong.extend(o.wrong);
    }
}

/// Everything a unit of work needs.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub fx: &'a Fixture,
    pub seed: u64,
    pub dir: &'a Path,
}

/// Run units until `budget` has elapsed; unit `k` is numbered from
/// `first`. Returns the next unit number.
pub fn run_for(
    ctx: &Ctx,
    budget: Duration,
    first: usize,
    tally: &mut Tally,
    tr: &mut Tracer,
    mut after: impl FnMut(&mut Tracer),
) -> usize {
    let end = Instant::now() + budget;
    let mut k = first;
    while Instant::now() < end {
        tr.iteration = k;
        let root = tr.open("iteration");
        unit(ctx, k, tally, tr);
        after(tr);
        tr.close(root);
        k += 1;
    }
    k
}

/// One end-to-end unit: an online session plus a reopen of what it
/// wrote, or one offline session.
pub fn unit(ctx: &Ctx, k: usize, tally: &mut Tally, tr: &mut Tracer) {
    match ctx.spec.kind {
        Kind::OnlineUdp | Kind::OnlineMemory => online_unit(ctx, k, tally, tr),
        Kind::Offline => offline_unit(ctx, k, tally, tr),
    }
}

fn online_unit(ctx: &Ctx, k: usize, tally: &mut Tally, tr: &mut Tracer) {
    let plan_len = ctx.fx.plan.len();
    let cfg = OnlineConfig {
        partitions: ctx.spec.partitions,
        workers: WORKERS,
        pacing_ms: PACING_MS,
        dot_path: ctx.dir.join("session.dot"),
        trace_path: ctx.dir.join("session.trace"),
        chaos: (ctx.spec.kind == Kind::OnlineMemory).then(|| ChaosConfig::clean(ctx.seed)),
        ..Default::default()
    };
    tally.attempted += 1;
    tally.events_expected += 2 * plan_len as u64;
    let started = Instant::now();
    let out = tr.time("online.session", || {
        OnlineSession::run(Arc::clone(&ctx.fx.catalog), SQL, &cfg)
    });
    tally.session_ms.push_ms(started.elapsed());
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!("session {k} failed: {e}");
            tally.failed += 1;
            return;
        }
    };
    let real_events = out.events.len() - out.synthesized_dones;
    tally.events_delivered += real_events as u64;
    tally.edt_enqueued += out.edt_stats.enqueued;
    tally.edt_coalesced += out.edt_stats.coalesced;
    tally.synthesized_dones += out.synthesized_dones as u64;
    tally.lost_instructions += out.progress.lost as u64;
    tally.degraded_sessions += u64::from(out.dot_degraded);
    // A live scene recolors about once per delivered event; a scene
    // that only appeared after the trace ended recolors next to nothing.
    tally.sessions_without_live_scene += u64::from(2 * out.edt_stats.enqueued < real_events as u64);
    tally.transport_lost += out.transport.lost;
    tally.backpressure_dropped += out.transport.dropped_backpressure;
    tally.samples_dropped += out.samples_dropped;
    if let Err(e) = check_online(ctx.fx, &out) {
        tally.wrong.push(format!("session {k}: {e}"));
        return;
    }

    let complete = real_events == 2 * plan_len;
    if let Err(e) = reopen(
        &cfg.dot_path,
        &cfg.trace_path,
        plan_len,
        complete,
        ctx.spec.chunk,
        k,
        ctx.seed,
        &mut tally.load_ms,
        &mut tally.action_ms,
        tr,
    ) {
        let (ReopenError::Load(e) | ReopenError::Wrong(e)) = e;
        tally.wrong.push(format!("reopen after session {k}: {e}"));
    }
}

/// The online correctness gate. The outcome exposes the result's row
/// count, not its cells; the cells are compared bit for bit wherever the
/// benchmark runs the engine itself (set-up and the traced re-drive).
fn check_online(fx: &Fixture, out: &OnlineOutcome) -> Result<(), String> {
    if out.plan.len() != fx.plan.len() {
        return Err(format!(
            "plan has {} instructions, expected {}",
            out.plan.len(),
            fx.plan.len()
        ));
    }
    if out.result_rows != fx.oracle.rows() {
        return Err(format!(
            "{} result rows, reference has {}",
            out.result_rows,
            fx.oracle.rows()
        ));
    }
    if out.progress.fraction != 1.0 {
        return Err(format!("progress ended at {}", out.progress.fraction));
    }
    if out.progress.done + out.progress.lost != out.plan.len() {
        return Err(format!(
            "progress covers {} done + {} lost of {}",
            out.progress.done,
            out.progress.lost,
            out.plan.len()
        ));
    }
    for e in out.events.iter().filter(|e| e.status == EventStatus::Done) {
        if let Some(g) = out.map.shape_of_pc(e.pc) {
            if out.space.glyph(g).color == Color::RED {
                return Err(format!("pc {} is RED after its done was received", e.pc));
            }
        }
    }
    Ok(())
}

fn offline_unit(ctx: &Ctx, k: usize, tally: &mut Tally, tr: &mut Tracer) {
    let plan_len = ctx.fx.plan.len();
    tally.attempted += 1;
    tally.events_expected += 2 * plan_len as u64;
    let r = reopen(
        &ctx.fx.dot_path,
        &ctx.fx.trace_path,
        plan_len,
        true,
        ctx.spec.chunk,
        k,
        ctx.seed,
        &mut tally.load_ms,
        &mut tally.action_ms,
        tr,
    );
    match r {
        Ok(Reopened {
            elapsed,
            events,
            edt_enqueued,
            edt_coalesced,
        }) => {
            tally.session_ms.push_ms(elapsed);
            tally.events_delivered += events as u64;
            tally.edt_enqueued += edt_enqueued;
            tally.edt_coalesced += edt_coalesced;
        }
        Err(ReopenError::Load(e)) => {
            eprintln!("offline session {k} failed: {e}");
            tally.failed += 1;
        }
        Err(ReopenError::Wrong(e)) => tally.wrong.push(format!("offline session {k}: {e}")),
    }
}
