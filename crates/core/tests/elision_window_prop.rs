//! Equivalence properties for [`ElisionWindow`], the incremental form of
//! the §4.2.1 pair-elision algorithm, against its reference oracle:
//! [`PairElision`] re-run over a [`SampleBuffer`] snapshot.
//!
//! * After every push, the window's repaints equal
//!   `PairElision::diff(&snapshot, &prev)` exactly, pc order included,
//!   for capacities {1, 2, 3, 8, 256}, and it counts the same evictions.
//! * A canvas adopted only after `k` events resyncs with one full diff
//!   and then stays in step.
//! * Replaying to arbitrary prefixes, forward or back, reports exactly
//!   the pcs whose analysed state moved.
//!
//! Streams are adversarial: random pcs and statuses, so they carry
//! duplicates, orphan `done`s and missing events, mixed with immediate
//! start/done pairs so elision actually happens.

use std::collections::HashMap;

use proptest::prelude::*;

use stetho_core::{ColorState, ElisionWindow, PairElision, Transition};
use stetho_profiler::{EventStatus, SampleBuffer, TraceEvent};

const CAPACITIES: [usize; 5] = [1, 2, 3, 8, 256];

/// One generated stream step: a lone start, a lone done, or an
/// immediate start/done pair.
fn arb_stream() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0usize..10, 0u8..3), 0..300).prop_map(|steps| {
        let mut out = Vec::new();
        for (pc, kind) in steps {
            let clk = out.len() as u64;
            if kind != 1 {
                out.push(TraceEvent::start(clk, pc, 0, clk, 0, ""));
            }
            if kind != 0 {
                out.push(TraceEvent::done(clk + 1, pc, 0, clk + 1, 1, 0, ""));
            }
        }
        out
    })
}

fn paint(prev: &mut HashMap<usize, ColorState>, changes: &[stetho_core::color::ColorChange]) {
    for c in changes {
        if c.state == ColorState::Uncolored {
            prev.remove(&c.pc);
        } else {
            prev.insert(c.pc, c.state);
        }
    }
}

/// Option-level transitions between two analyses, ordered by pc.
fn oracle_transitions(
    before: &HashMap<usize, ColorState>,
    after: &HashMap<usize, ColorState>,
) -> Vec<Transition> {
    let mut pcs: Vec<usize> = before.keys().chain(after.keys()).copied().collect();
    pcs.sort_unstable();
    pcs.dedup();
    pcs.into_iter()
        .map(|pc| Transition {
            pc,
            before: before.get(&pc).copied(),
            after: after.get(&pc).copied(),
        })
        .filter(|t| t.before != t.after)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_repaints_equal_snapshot_diff(stream in arb_stream()) {
        for cap in CAPACITIES {
            let mut window = ElisionWindow::new(cap);
            let mut sample = SampleBuffer::new(cap);
            let mut prev: HashMap<usize, ColorState> = HashMap::new();
            for (i, e) in stream.iter().enumerate() {
                sample.push(e.clone());
                let expected = PairElision.diff(&sample.snapshot(), &prev);
                let got: Vec<_> = window
                    .push(e.pc, e.status)
                    .iter()
                    .filter_map(Transition::repaint)
                    .collect();
                prop_assert_eq!(&got, &expected, "capacity {} event {}", cap, i);
                paint(&mut prev, &got);
                prop_assert_eq!(window.evicted(), sample.dropped());
                prop_assert_eq!(window.len(), sample.len());
            }
            prop_assert_eq!(window.states(), PairElision.analyse(&sample.snapshot()));
        }
    }

    #[test]
    fn late_canvas_resyncs_with_one_full_diff(stream in arb_stream(), k in 0usize..400) {
        for cap in CAPACITIES {
            let mut window = ElisionWindow::new(cap);
            let mut sample = SampleBuffer::new(cap);
            // Nothing is painted until the scene appears after `k`
            // events; pushes before that move the window only.
            let mut prev: HashMap<usize, ColorState> = HashMap::new();
            for (i, e) in stream.iter().enumerate() {
                sample.push(e.clone());
                let moved = window.push(e.pc, e.status);
                if i < k {
                    continue;
                }
                let expected = PairElision.diff(&sample.snapshot(), &prev);
                let got = if i == k {
                    window.diff(&prev)
                } else {
                    moved.iter().filter_map(Transition::repaint).collect()
                };
                prop_assert_eq!(&got, &expected, "capacity {} event {} (k={})", cap, i, k);
                paint(&mut prev, &got);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn replay_to_reports_exact_prefix_transitions(
        stream in arb_stream(),
        targets in proptest::collection::vec(0usize..700, 1..24),
    ) {
        let mut window = ElisionWindow::unbounded();
        let mut at = 0usize;
        for target in targets {
            // Alternate long seeks with single steps either way.
            for target in [target, target + 1, target.saturating_sub(1)] {
                let before = PairElision.analyse(&stream[..at.min(stream.len())]);
                let got = window.replay_to(&stream, target);
                at = target.min(stream.len());
                let after = PairElision.analyse(&stream[..at]);
                prop_assert_eq!(window.len(), at);
                prop_assert_eq!(&got, &oracle_transitions(&before, &after), "seek to {}", target);
                prop_assert_eq!(window.states(), after);
            }
        }
        // Stepping back one event at a time walks through every prefix.
        while at > 0 {
            let before = window.states();
            at -= 1;
            let got = window.replay_to(&stream, at);
            let after = PairElision.analyse(&stream[..at]);
            prop_assert_eq!(&got, &oracle_transitions(&before, &after), "step back to {}", at);
        }
        prop_assert!(window.is_empty());
        prop_assert!(window.replay_to(&stream, 0).is_empty());
    }
}

/// The paper's worked example, one event at a time through a window.
#[test]
fn worked_example_pushed_event_by_event() {
    let stream = [
        (1, EventStatus::Start),
        (1, EventStatus::Done),
        (2, EventStatus::Start),
        (2, EventStatus::Done),
        (3, EventStatus::Start),
        (4, EventStatus::Start),
    ];
    let mut window = ElisionWindow::new(256);
    let mut last = Vec::new();
    for (pc, status) in stream {
        last = window.push(pc, status);
    }
    // The sixth event moves pc 3 from undecided to RED and mentions pc 4.
    assert_eq!(
        last,
        vec![
            Transition {
                pc: 3,
                before: Some(ColorState::Uncolored),
                after: Some(ColorState::Red),
            },
            Transition {
                pc: 4,
                before: None,
                after: Some(ColorState::Uncolored),
            },
        ]
    );
    assert_eq!(window.state(1), Some(ColorState::Uncolored));
    assert_eq!(window.state(2), Some(ColorState::Uncolored));
    assert_eq!(window.state(3), Some(ColorState::Red));
    assert_eq!(window.state(9), None);
}

/// A pc evicted from a tiny window reverts to the default fill.
#[test]
fn eviction_reverts_a_red_that_slides_out() {
    let mut window = ElisionWindow::new(2);
    window.push(3, EventStatus::Start);
    let red = window.push(4, EventStatus::Start);
    assert_eq!(red[0].repaint().map(|c| c.state), Some(ColorState::Red));
    let moved = window.push(5, EventStatus::Start);
    assert_eq!(window.evicted(), 1);
    let repaints: Vec<_> = moved.iter().filter_map(Transition::repaint).collect();
    assert_eq!(
        repaints.len(),
        2,
        "pc 3 reverts, pc 4 turns RED: {repaints:?}"
    );
    assert_eq!(
        (repaints[0].pc, repaints[0].state),
        (3, ColorState::Uncolored)
    );
    assert_eq!((repaints[1].pc, repaints[1].state), (4, ColorState::Red));
}
