//! The traced re-drive: each layer's public entry point called once
//! per iteration on the workload's plan and recorded events, inside a
//! span named after the layer.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stethoscope::core::{ColorState, PairElision, ProgressModel, ReplayController, TraceDotMap};
use stethoscope::dot::{parse_dot, plan_to_dot, LabelStyle};
use stethoscope::engine::{Interpreter, VecSink};
use stethoscope::layout::{layout, parse_svg, write_svg, LayoutOptions};
use stethoscope::profiler::reassembly::DEFAULT_REORDER_WINDOW;
use stethoscope::profiler::tracefile::TraceWriter;
use stethoscope::profiler::wire::{encode_frame, Frame, FrameBody};
use stethoscope::profiler::{
    format_event, EventStatus, ProfilerEmitter, SampleBuffer, StreamDecoder, StreamItem,
    StreamRecvError, TextualStethoscope, TraceEvent, TraceFile,
};
use stethoscope::sql::compile_with;
use stethoscope::zvtm::{EventDispatchThread, VirtualSpace};

use crate::fixture::{
    compile_options, profiled_parallel, same_bits, unprofiled_parallel, Fixture, SQL,
};
use crate::script::STEP_BACKS;
use crate::stats::{udp_rcvbuf_errors, Samples};
use crate::trace::Tracer;
use crate::workload::{Spec, PACING_MS};

/// Modules whose summed instruction time the report breaks out.
pub const MODULES: [&str; 5] = ["group", "mat", "algebra", "aggr", "batcalc"];
/// How long the standalone UDP replay waits for the end of the trace.
const UDP_DEADLINE: Duration = Duration::from_millis(500);
/// `OnlineConfig`'s default sample-buffer capacity.
const SAMPLE_CAPACITY: usize = 256;

/// Counts from the re-drive (times live in the tracer's spans).
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub events: usize,
    pub frames: usize,
    /// Per-iteration summed instruction µs per module of [`MODULES`].
    pub module_usec: HashMap<&'static str, Samples>,
    pub udp_sent: u64,
    pub udp_received: u64,
    pub udp_rcvbuf_errors: u64,
    /// Step-backs per re-drive.
    pub step_backs: usize,
}

/// One re-drive of every layer. Errors are wrong outputs.
pub fn redrive(
    spec: &Spec,
    fx: &Fixture,
    dir: &std::path::Path,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    let root = tr.open("redrive");
    let r = redrive_inner(spec, fx, dir, tr, counts);
    tr.close(root);
    r
}

fn redrive_inner(
    spec: &Spec,
    fx: &Fixture,
    dir: &std::path::Path,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    // SQL → MAL.
    let plan = tr
        .time("sql.compile", || {
            compile_with(&fx.catalog, SQL, &compile_options(spec.partitions))
        })
        .map_err(|e| format!("compile: {e}"))?
        .plan;
    if plan != fx.plan {
        return Err("recompiled plan differs from the set-up plan".into());
    }
    black_box(tr.time("mal.verify", || plan.verify()));
    let dot_text = tr.time("dot.plan_to_dot", || {
        plan_to_dot(&plan, LabelStyle::FullStatement)
    });

    // Engine, profiled and not, checked bit for bit against the reference.
    let interp = Interpreter::new(Arc::clone(&fx.catalog));
    let sink = VecSink::new();
    let out = tr
        .time("engine.execute", || {
            interp.execute(&plan, &profiled_parallel(&sink))
        })
        .map_err(|e| format!("execute: {e}"))?;
    same_bits(&fx.oracle, out.result.as_ref().ok_or("no result set")?)
        .map_err(|e| format!("profiled execute: {e}"))?;
    let events = sink.take();
    if events.len() != fx.events.len() {
        return Err(format!(
            "{} events, set-up run had {}",
            events.len(),
            fx.events.len()
        ));
    }
    let mut usec: HashMap<&'static str, f64> = MODULES.iter().map(|m| (*m, 0.0)).collect();
    for e in events.iter().filter(|e| e.status == EventStatus::Done) {
        if let Some(v) = usec.get_mut(plan.instructions[e.pc].module.as_str()) {
            *v += e.usec as f64;
        }
    }
    for (m, v) in usec {
        counts.module_usec.entry(m).or_default().push(v);
    }
    let out = tr
        .time("engine.execute_unprofiled", || {
            interp.execute(&plan, &unprofiled_parallel())
        })
        .map_err(|e| format!("unprofiled execute: {e}"))?;
    same_bits(&fx.oracle, out.result.as_ref().ok_or("no result set")?)
        .map_err(|e| format!("unprofiled execute: {e}"))?;

    // Profiler: wire encode and decode, trace file write and read.
    let frames: Vec<String> = tr.time("profiler.encode", || {
        events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                encode_frame(&Frame {
                    seq: i as u64,
                    body: FrameBody::Event {
                        line: format_event(e),
                    },
                })
            })
            .collect()
    });
    let source = SocketAddr::from((Ipv4Addr::LOCALHOST, 9));
    let decoded = tr.time("profiler.decode", || {
        let mut dec = StreamDecoder::new(DEFAULT_REORDER_WINDOW);
        let mut out = Vec::with_capacity(frames.len());
        for f in &frames {
            dec.decode(source, f, &mut out);
        }
        dec.flush_all(&mut out);
        out
    });
    let decoded_events = decoded
        .iter()
        .filter(|i| matches!(i, StreamItem::Event { .. }))
        .count();
    if decoded_events != events.len() {
        return Err(format!(
            "decoded {decoded_events} of {} events",
            events.len()
        ));
    }
    counts.events = events.len();
    counts.frames = frames.len();
    let trace_path = dir.join("redrive.trace");
    tr.time("profiler.tracefile_write", || -> std::io::Result<()> {
        let mut w = TraceWriter::create(&trace_path)?;
        for e in &events {
            w.write_event(e)?;
        }
        w.flush()
    })
    .map_err(|e| format!("trace write: {e}"))?;
    let read = tr
        .time("profiler.tracefile_read", || {
            TraceFile::new(&fx.trace_path).read()
        })
        .map_err(|e| format!("trace read: {e}"))?;
    if read != fx.events {
        return Err("trace file read back differs from the recorded events".into());
    }

    // dot → layout → SVG → scene → glyphs.
    let graph = tr
        .time("dot.parse", || parse_dot(&dot_text))
        .map_err(|e| format!("parse dot: {e}"))?;
    let laid = tr.time("layout.layout", || {
        layout(&graph, &LayoutOptions::default())
    });
    let svg = tr.time("layout.write_svg", || write_svg(&laid));
    let scene = tr
        .time("layout.parse_svg", || parse_svg(&svg))
        .map_err(|e| format!("parse svg: {e}"))?;
    if scene.nodes.len() != plan.len() {
        return Err(format!(
            "scene has {} nodes for {} instructions",
            scene.nodes.len(),
            plan.len()
        ));
    }
    let (mut space, glyphs) = tr.time("zvtm.from_scene", || VirtualSpace::from_scene(&scene));
    let map = tr.time("core.map", || {
        let mut map = TraceDotMap::from_scene(&scene);
        map.attach_glyphs(&glyphs);
        map
    });

    // The online monitor's per-event work.
    tr.time("core.ingest", || ingest(&plan, &map, &mut space, &events));

    // Offline replay cursor: a forward pass, then step-backs from the end.
    let mut replay = ReplayController::new(events);
    tr.time("core.replay_forward", || {
        while replay.step_forward().is_some() {}
    });
    counts.step_backs = STEP_BACKS.min(replay.len());
    tr.time("core.replay_back", || {
        for _ in 0..counts.step_backs {
            black_box(replay.step_backward());
        }
    });

    let span = tr.open("profiler.udp_replay");
    let r = udp_replay(fx, counts);
    tr.close(span);
    r
}

/// Re-drive the online monitor's per-event sequence through public
/// calls: progress, sample buffer push and snapshot, pair-elision diff,
/// EDT enqueue and paced dispatch.
fn ingest(
    plan: &stethoscope::mal::Plan,
    map: &TraceDotMap,
    space: &mut VirtualSpace,
    events: &[TraceEvent],
) {
    let mut progress = ProgressModel::new(plan);
    let mut sample = SampleBuffer::new(SAMPLE_CAPACITY);
    let mut edt = EventDispatchThread::new(PACING_MS);
    let mut last: HashMap<usize, ColorState> = HashMap::new();
    let started = Instant::now();
    for e in events {
        progress.on_event(e);
        sample.push(e.clone());
        let snapshot = sample.snapshot();
        let now_ms = started.elapsed().as_millis() as u64;
        for c in PairElision.diff(&snapshot, &last) {
            if let Some(g) = map.shape_of_pc(c.pc) {
                edt.enqueue(g, c.state.fill(), now_ms);
            }
            if c.state == ColorState::Uncolored {
                last.remove(&c.pc);
            } else {
                last.insert(c.pc, c.state);
            }
        }
        edt.advance_into(now_ms, space);
    }
    black_box(progress.snapshot());
}

/// Stream the recorded dot and events from a standalone emitter to a
/// textual Stethoscope over loopback UDP and count what arrives.
fn udp_replay(fx: &Fixture, counts: &mut LayerCounts) -> Result<(), String> {
    let before = udp_rcvbuf_errors();
    let mut steth = TextualStethoscope::bind().map_err(|e| format!("bind: {e}"))?;
    let rx = steth.start();
    let addr = steth.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let emitter = ProfilerEmitter::connect(addr).map_err(|e| format!("connect: {e}"))?;
    emitter
        .send_dot(&fx.plan.name, &fx.dot_text)
        .map_err(|e| format!("send dot: {e}"))?;
    for e in &fx.events {
        emitter.emit(e).map_err(|e| format!("emit: {e}"))?;
    }
    emitter
        .send_end_of_trace()
        .map_err(|e| format!("eot: {e}"))?;
    let deadline = Instant::now() + UDP_DEADLINE;
    let mut received = 0u64;
    while Instant::now() < deadline {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(StreamItem::Event { .. }) => received += 1,
            Ok(StreamItem::EndOfTrace { .. }) => break,
            Ok(_) | Err(StreamRecvError::Timeout) => {}
            Err(StreamRecvError::Closed) => break,
        }
    }
    steth.stop();
    while let Ok(item) = rx.try_recv() {
        if matches!(item, StreamItem::Event { .. }) {
            received += 1;
        }
    }
    drop(emitter);
    counts.udp_sent += fx.events.len() as u64;
    counts.udp_received += received;
    if let (Some(a), Some(b)) = (before, udp_rcvbuf_errors()) {
        counts.udp_rcvbuf_errors += b.saturating_sub(a);
    }
    Ok(())
}
