//! The offline interaction script and the "reopen" unit that plays a
//! chunk of it against an `OfflineSession` loaded from files.
//!
//! The script over a trace of `n` events is: a forward step through
//! every event with 32 camera moves spread over it, 256 step-backs, 16
//! seeks to seeded positions each followed by two camera moves, and a
//! final rewind (so the script can be played cyclically). Camera moves
//! come in zoom-in / pan / zoom-out / pan-back groups of four, so the
//! camera keeps returning to the fitted view.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use stethoscope::core::{ColorState, OfflineSession};

use crate::stats::Samples;
use crate::trace::Tracer;

/// Frame size of every rendered frame.
pub const FRAME: (usize, usize) = (1280, 800);
/// EDT clock advance after each action: the paper's pacing budget.
pub const ADVANCE_MS: u64 = 150;

const FORWARD_MOVES: usize = 32;
pub const STEP_BACKS: usize = 256;
const SEEKS: usize = 16;
/// 1/φ: chunk starts `k / φ mod 1` spread evenly over the script for
/// any number of chunks.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    Step,
    StepBack,
    Seek(usize),
    Zoom(f64),
    Pan(f64, f64),
}

pub struct Script {
    actions: Vec<Action>,
    /// Replay cursor before each action.
    pos_before: Vec<usize>,
}

/// splitmix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [lo, hi).
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Moves {
    rng: Rng,
    k: usize,
    zoom: f64,
    pan: (f64, f64),
}

impl Moves {
    fn next(&mut self) -> Action {
        let a = match self.k % 4 {
            0 => {
                self.zoom = self.rng.range(0.4, 0.8);
                Action::Zoom(self.zoom)
            }
            1 => {
                self.pan = (self.rng.range(-300.0, 300.0), self.rng.range(-300.0, 300.0));
                Action::Pan(self.pan.0, self.pan.1)
            }
            2 => Action::Zoom(1.0 / self.zoom),
            _ => Action::Pan(-self.pan.0, -self.pan.1),
        };
        self.k += 1;
        a
    }
}

impl Script {
    pub fn new(n: usize, seed: u64) -> Script {
        let mut rng = Rng::new(seed ^ 0x5C21_9700);
        let mut moves = Moves {
            rng: Rng::new(rng.next()),
            k: 0,
            zoom: 1.0,
            pan: (0.0, 0.0),
        };
        let mut actions = Vec::with_capacity(n + STEP_BACKS + 3 * SEEKS + FORWARD_MOVES + 1);
        let every = (n / FORWARD_MOVES).max(1);
        for i in 0..n {
            actions.push(Action::Step);
            if (i + 1) % every == 0 && (i + 1) / every <= FORWARD_MOVES {
                actions.push(moves.next());
            }
        }
        actions.extend(std::iter::repeat_n(Action::StepBack, STEP_BACKS));
        for _ in 0..SEEKS {
            actions.push(Action::Seek((rng.next() % (n as u64 + 1)) as usize));
            actions.push(moves.next());
            actions.push(moves.next());
        }
        actions.push(Action::Seek(0));

        let mut pos = 0usize;
        let mut pos_before = Vec::with_capacity(actions.len());
        for a in &actions {
            pos_before.push(pos);
            pos = match *a {
                Action::Step => (pos + 1).min(n),
                Action::StepBack => pos.saturating_sub(1),
                Action::Seek(i) => i,
                Action::Zoom(_) | Action::Pan(..) => pos,
            };
        }
        Script {
            actions,
            pos_before,
        }
    }

    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Where chunk number `k` starts.
    pub fn chunk_start(&self, k: usize) -> usize {
        ((k as f64 * GOLDEN).fract() * self.len() as f64) as usize % self.len()
    }

    /// Put a freshly loaded session into the state the script leaves it
    /// in just before action `at`.
    fn restore(&self, s: &mut OfflineSession, at: usize) {
        s.seek(self.pos_before[at]);
        for a in &self.actions[..at] {
            apply_camera(s, *a);
        }
    }
}

fn apply_camera(s: &mut OfflineSession, a: Action) {
    match a {
        Action::Zoom(f) => s.camera.zoom(f),
        Action::Pan(dx, dy) => s.camera.pan(dx, dy),
        _ => {}
    }
}

fn apply(s: &mut OfflineSession, a: Action, tr: &mut Tracer) {
    match a {
        Action::Step => {
            tr.time("core.session_step", || black_box(s.step()));
        }
        Action::StepBack => tr.time("core.session_step_back", || s.step_back()),
        Action::Seek(i) => tr.time("core.session_seek", || s.seek(i)),
        Action::Zoom(_) | Action::Pan(..) => tr.time("zvtm.camera", || apply_camera(s, a)),
    }
}

/// Why a reopen failed: the files did not load (a failed session), or
/// the loaded session showed a wrong output.
pub enum ReopenError {
    Load(String),
    Wrong(String),
}

/// What one reopen measured.
pub struct Reopened {
    /// Load plus the scripted actions (correctness checks excluded).
    pub elapsed: Duration,
    pub events: usize,
    pub edt_enqueued: u64,
    pub edt_coalesced: u64,
}

/// Load `dot` + `trace` to the first rendered frame, then play `chunk`
/// actions of the seeded script from chunk start `k`, each followed by
/// an EDT advance and one frame. Afterwards (untimed) check the §3.3
/// dot/trace contract and, when `complete` says the trace holds every
/// event of a `plan_len`-instruction plan, that replaying to the end
/// leaves every instruction done and no node RED.
#[allow(clippy::too_many_arguments)]
pub fn reopen(
    dot: &Path,
    trace: &Path,
    plan_len: usize,
    complete: bool,
    chunk: usize,
    k: usize,
    seed: u64,
    load_ms: &mut Samples,
    action_ms: &mut Samples,
    tr: &mut Tracer,
) -> Result<Reopened, ReopenError> {
    let started = Instant::now();
    let load = tr.open("offline.load");
    let mut s =
        OfflineSession::load_files(dot, trace).map_err(|e| ReopenError::Load(e.to_string()))?;
    black_box(s.render_frame(FRAME.0, FRAME.1));
    tr.close(load);
    load_ms.push_ms(started.elapsed());

    let script = Script::new(s.replay.len(), seed);
    let start = script.chunk_start(k);
    tr.time("offline.restore", || script.restore(&mut s, start));
    for i in 0..chunk {
        let a = script.actions[(start + i) % script.len()];
        let t = Instant::now();
        let id = tr.open("offline.action");
        apply(&mut s, a, tr);
        tr.time("zvtm.edt_advance", || s.advance_ms(ADVANCE_MS));
        tr.time("zvtm.render", || {
            black_box(s.render_frame(FRAME.0, FRAME.1))
        });
        tr.close(id);
        action_ms.push_ms(t.elapsed());
    }
    let elapsed = started.elapsed();
    let out = Reopened {
        elapsed,
        events: s.replay.len(),
        edt_enqueued: s.edt.stats.enqueued,
        edt_coalesced: s.edt.stats.coalesced,
    };

    let bad = s.verify_contract();
    if !bad.is_empty() {
        return Err(ReopenError::Wrong(format!(
            "dot/trace contract violated at pcs {bad:?}"
        )));
    }
    if complete {
        s.run_to_end();
        for pc in 0..plan_len {
            if s.replay.node(pc).dones == 0 {
                return Err(ReopenError::Wrong(format!(
                    "replay ended with pc {pc} not done"
                )));
            }
            if s.node_state(pc) == ColorState::Red {
                return Err(ReopenError::Wrong(format!("replay ended with pc {pc} RED")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_shape_and_cursor() {
        let s = Script::new(1000, 7);
        let steps = s.actions.iter().filter(|a| **a == Action::Step).count();
        let backs = s.actions.iter().filter(|a| **a == Action::StepBack).count();
        let moves = s
            .actions
            .iter()
            .filter(|a| matches!(a, Action::Zoom(_) | Action::Pan(..)))
            .count();
        assert_eq!((steps, backs, moves), (1000, STEP_BACKS, 64));
        assert_eq!(s.actions.last(), Some(&Action::Seek(0)));
        // The forward pass ends at the last event, the step-backs undo 256.
        let first_back = s
            .actions
            .iter()
            .position(|a| *a == Action::StepBack)
            .unwrap();
        assert_eq!(s.pos_before[first_back], 1000);
        assert_eq!(s.pos_before[first_back + STEP_BACKS], 1000 - STEP_BACKS);
    }

    #[test]
    fn script_is_seeded() {
        assert_eq!(Script::new(500, 1).actions, Script::new(500, 1).actions);
        assert_ne!(Script::new(500, 1).actions, Script::new(500, 2).actions);
    }

    #[test]
    fn chunk_starts_cover_the_script() {
        let s = Script::new(300, 3);
        let mut hit = [false; 10];
        for k in 0..100 {
            hit[s.chunk_start(k) * 10 / s.len()] = true;
        }
        assert!(hit.iter().all(|h| *h));
    }
}
