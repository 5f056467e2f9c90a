//! The offline session colors through an unbounded [`ElisionWindow`]
//! that follows the replay cursor. Over random forward / back / seek
//! scripts, its EDT enqueue sequence and `node_state` must match the
//! reference path: [`ReplayController::current_colors`] re-analysed
//! after every action and diffed against the previous round, with every
//! analysed change repainting (an uncolored one too) and pcs that drop
//! out of the prefix reverting to the default fill. Each round's
//! repaints are taken in pc order.

use std::collections::HashMap;

use proptest::prelude::*;

use stetho_core::{ColorState, OfflineSession, ReplayController};
use stetho_profiler::TraceEvent;
use stetho_zvtm::{Color, GlyphId};

const NODES: usize = 10;

#[derive(Debug, Clone, Copy)]
enum Action {
    Step,
    StepBack,
    Seek(usize),
    RunToEnd,
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Step),
        Just(Action::Step),
        Just(Action::StepBack),
        (0usize..200).prop_map(Action::Seek),
        Just(Action::RunToEnd),
    ]
}

/// Random starts, dones and immediate pairs over `NODES` pcs (plus one
/// pc without a node, which must color nothing).
fn arb_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0usize..NODES + 1, 0u8..3), 0..90).prop_map(|steps| {
        let mut out = Vec::new();
        for (pc, kind) in steps {
            let clk = out.len() as u64;
            if kind != 1 {
                out.push(TraceEvent::start(clk, pc, 0, clk, 0, "f.g();"));
            }
            if kind != 0 {
                out.push(TraceEvent::done(clk + 1, pc, 0, clk + 1, 1, 0, "f.g();"));
            }
        }
        out
    })
}

fn session(events: Vec<TraceEvent>) -> OfflineSession {
    let mut dot = String::from("digraph p {\n");
    for pc in 0..NODES {
        dot.push_str(&format!("n{pc} [label=\"f.g();\"];\n"));
    }
    dot.push_str("}\n");
    let graph = stetho_dot::parse_dot(&dot).unwrap();
    OfflineSession::from_parts(graph, events).unwrap()
}

/// The reference round: full re-analysis of the applied prefix.
fn reference_round(
    s: &OfflineSession,
    replay: &ReplayController,
    last: &mut HashMap<usize, ColorState>,
    enqueued: &mut Vec<(GlyphId, Color)>,
) {
    let states = replay.current_colors();
    let mut pcs: Vec<usize> = states.keys().chain(last.keys()).copied().collect();
    pcs.sort_unstable();
    pcs.dedup();
    for pc in pcs {
        let fill = match states.get(&pc) {
            Some(&state) if last.get(&pc) != Some(&state) => {
                last.insert(pc, state);
                state.fill()
            }
            Some(_) => continue,
            None => {
                last.remove(&pc);
                Color::DEFAULT_FILL
            }
        };
        if let Some(glyph) = s.map.shape_of_pc(pc) {
            enqueued.push((glyph, fill));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn enqueue_sequence_matches_full_reanalysis(
        events in arb_trace(),
        script in proptest::collection::vec(arb_action(), 1..60),
    ) {
        let mut s = session(events.clone());
        let mut replay = ReplayController::new(events);
        let mut last: HashMap<usize, ColorState> = HashMap::new();
        let mut expected = Vec::new();
        for action in script {
            match action {
                Action::Step => {
                    s.step();
                    replay.step_forward();
                }
                Action::StepBack => {
                    s.step_back();
                    replay.step_backward();
                }
                Action::Seek(i) => {
                    s.seek(i);
                    replay.seek(i);
                }
                Action::RunToEnd => {
                    s.run_to_end();
                    replay.seek(replay.len());
                }
            }
            reference_round(&s, &replay, &mut last, &mut expected);
            for pc in 0..=NODES {
                prop_assert_eq!(
                    s.node_state(pc),
                    last.get(&pc).copied().unwrap_or(ColorState::Uncolored),
                    "pc {} after {:?}", pc, action
                );
            }
        }
        // The session clock never advanced, so the queue still holds
        // every request in enqueue order.
        let got: Vec<(GlyphId, Color)> =
            s.edt.flush().iter().map(|d| (d.op.glyph, d.op.color)).collect();
        prop_assert_eq!(got, expected);
    }
}
