//! The run-time coloring algorithms of §4.2.1 (plus the §6 gradient
//! extension).
//!
//! "A node is colored RED or GREEN based on the instruction status of
//! `start` or `done` respectively. ... A consecutive `start` and `done`
//! event status for the same instruction, with presence of more
//! instructions afterwards, indicates that the instruction under
//! analysis executed in least time. Hence, it is not a costly
//! instruction. All such instructions are not colored. An instruction
//! which does not appear in a sequence of pairs of `start` and `done`
//! event is colored."
//!
//! The paper's worked example (fields `{status, pc}`):
//! `{start,1},{done,1},{start,2},{done,2},{start,3},{start,4}` — the
//! first four statements stay uncolored (two immediate pairs), the fifth
//! (`pc=3`) is colored RED. The sixth is the last event in the buffer,
//! so its fate is not yet decidable ("presence of more instructions
//! afterwards") — it stays pending until more of the stream arrives.
//!
//! # Incremental elision
//!
//! [`PairElision`] re-analyses a whole buffer snapshot; online that is
//! O(window) per arriving event. [`ElisionWindow`] keeps the same
//! answer in O(1) per event, because pairing is local: a `start` at
//! position `i` pairs exactly when `i + 1` is a `done` of the same pc,
//! whatever came before. A pc's color is therefore fixed by its latest
//! *setting* event — an elided pair (uncolored), a pair ending the
//! window (GREEN), or an unpaired start with later events (RED) — plus
//! whether an unpaired `done` follows a RED. Pushing one event (and
//! evicting the oldest) can change only three pcs: the pushed event's,
//! the evicted event's, and that of the previous last event, whose
//! "last" or "more after" status flips. Removing the last event (an
//! offline step back) likewise touches only its own pc and that of the
//! new last event.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};
use stetho_profiler::{EventStatus, TraceEvent};
use stetho_zvtm::Color;

/// Visual state of one plan node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ColorState {
    /// Not colored (default fill).
    Uncolored,
    /// Executing — `start` seen, still running (or long-running).
    Red,
    /// Finished after having been highlighted.
    Green,
    /// Gradient fill for the §6 extension (duration-scaled).
    Gradient {
        /// Interpolation position 0..=1 between cheap and costly.
        t: f64,
    },
}

impl ColorState {
    /// The concrete fill for rendering.
    pub fn fill(&self) -> Color {
        match self {
            ColorState::Uncolored => Color::DEFAULT_FILL,
            ColorState::Red => Color::RED,
            ColorState::Green => Color::GREEN,
            ColorState::Gradient { t } => Color::lerp(Color::DEFAULT_FILL, Color::RED, *t),
        }
    }
}

/// One coloring decision: node `pc` changes to `state`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColorChange {
    /// The plan node.
    pub pc: usize,
    /// Its new visual state.
    pub state: ColorState,
}

/// How one pc's analysed state moved across an [`ElisionWindow`] edit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// The plan node.
    pub pc: usize,
    /// State before the edit; `None` when the window did not mention
    /// the pc.
    pub before: Option<ColorState>,
    /// State after the edit; `None` when the window no longer mentions
    /// the pc.
    pub after: Option<ColorState>,
}

impl Transition {
    /// The repaint this transition needs under [`PairElision::diff`]'s
    /// rule that an unmentioned pc counts as [`ColorState::Uncolored`];
    /// `None` when the fill does not change.
    pub fn repaint(&self) -> Option<ColorChange> {
        let after = self.after.unwrap_or(ColorState::Uncolored);
        (self.before.unwrap_or(ColorState::Uncolored) != after).then_some(ColorChange {
            pc: self.pc,
            state: after,
        })
    }
}

/// The §4.2.1 pair-elision algorithm over a (sampled) event buffer.
///
/// Stateless with respect to the stream: it is re-run over the current
/// [`stetho_profiler::SampleBuffer`] snapshot each round, exactly like
/// the original which analyses "the buffer content". Sessions use the
/// incremental [`ElisionWindow`]; this stays as its reference oracle.
#[derive(Debug, Clone, Default)]
pub struct PairElision;

impl PairElision {
    /// Analyse a buffer snapshot; returns the color per pc mentioned in
    /// the buffer. The final event is *pending* (not classifiable yet)
    /// unless it completes a pair whose start is present.
    pub fn analyse(&self, buffer: &[TraceEvent]) -> HashMap<usize, ColorState> {
        let mut out: HashMap<usize, ColorState> = HashMap::new();
        let mut i = 0;
        while i < buffer.len() {
            let e = &buffer[i];
            match e.status {
                EventStatus::Start => {
                    // Immediate pair with more instructions after it?
                    let paired = i + 1 < buffer.len()
                        && buffer[i + 1].status == EventStatus::Done
                        && buffer[i + 1].pc == e.pc;
                    if paired {
                        let more_after = i + 2 < buffer.len();
                        if more_after {
                            // Fast instruction: elided, not colored.
                            out.insert(e.pc, ColorState::Uncolored);
                            i += 2;
                            continue;
                        }
                        // The pair ends the buffer: classifiable as done.
                        out.insert(e.pc, ColorState::Green);
                        i += 2;
                        continue;
                    }
                    let is_last = i + 1 == buffer.len();
                    if is_last {
                        // Undecidable yet; leave existing state alone.
                        out.entry(e.pc).or_insert(ColorState::Uncolored);
                    } else {
                        // Unpaired start with later activity: costly,
                        // color RED.
                        out.insert(e.pc, ColorState::Red);
                    }
                    i += 1;
                }
                EventStatus::Done => {
                    // A done arriving for an instruction colored RED
                    // earlier turns it GREEN.
                    let was_red = matches!(out.get(&e.pc), Some(ColorState::Red));
                    if was_red {
                        out.insert(e.pc, ColorState::Green);
                    } else {
                        out.entry(e.pc).or_insert(ColorState::Uncolored);
                    }
                    i += 1;
                }
            }
        }
        out
    }

    /// Like [`Self::analyse`] but returning only the nodes that must
    /// visibly change (RED/GREEN), ordered by pc — what gets queued on
    /// the EDT.
    ///
    /// Note this cannot *revert* a node: `Uncolored` results are
    /// filtered out, so a previously-RED node whose pair completes and
    /// elides (or slides out of the sample window) keeps its stale
    /// fill. Sessions that track per-round state should use
    /// [`Self::diff`] or an [`ElisionWindow`] instead.
    pub fn changes(&self, buffer: &[TraceEvent]) -> Vec<ColorChange> {
        let mut v: Vec<ColorChange> = self
            .analyse(buffer)
            .into_iter()
            .filter(|(_, s)| !matches!(s, ColorState::Uncolored))
            .map(|(pc, state)| ColorChange { pc, state })
            .collect();
        v.sort_by_key(|c| c.pc);
        v
    }

    /// Analyse a buffer snapshot and diff it against the previous
    /// round's states, returning every node whose visual state changed
    /// — including reverts to [`ColorState::Uncolored`].
    ///
    /// Two revert paths exist that [`Self::changes`] silently drops:
    /// a pc whose new analysis is `Uncolored` (its start/done pair now
    /// sits adjacent in the buffer and elides), and a pc the analysis
    /// no longer mentions at all (its events slid out of the bounded
    /// sample window). Both must repaint to the default fill or the
    /// node shows a stale RED forever. A pc absent from `prev` is
    /// treated as `Uncolored`, so no change is emitted for nodes that
    /// were never painted.
    pub fn diff(
        &self,
        buffer: &[TraceEvent],
        prev: &HashMap<usize, ColorState>,
    ) -> Vec<ColorChange> {
        diff_states(&self.analyse(buffer), prev)
    }
}

/// The repaints that take a canvas painted as `prev` to `analysed`
/// (see [`PairElision::diff`]), ordered by pc.
fn diff_states(
    analysed: &HashMap<usize, ColorState>,
    prev: &HashMap<usize, ColorState>,
) -> Vec<ColorChange> {
    let mut v: Vec<ColorChange> = analysed
        .iter()
        .filter(|(pc, state)| prev.get(pc).copied().unwrap_or(ColorState::Uncolored) != **state)
        .map(|(&pc, &state)| ColorChange { pc, state })
        .collect();
    for (&pc, &state) in prev {
        if state != ColorState::Uncolored && !analysed.contains_key(&pc) {
            v.push(ColorChange {
                pc,
                state: ColorState::Uncolored,
            });
        }
    }
    v.sort_by_key(|c| c.pc);
    v
}

/// One pc's events in an [`ElisionWindow`], reduced to what its color
/// depends on.
#[derive(Debug, Clone, Default)]
struct PcTokens {
    /// Events of this pc in the window.
    events: usize,
    /// Positions of the pc's setting events, oldest first, with the
    /// state each sets: an elided pair (uncolored), a pair that ends
    /// the window (GREEN), an unpaired start with later events (RED).
    /// A pair sits at its start's position.
    sets: VecDeque<(u64, ColorState)>,
    /// Positions of the pc's unpaired `done`s, oldest first.
    dones: VecDeque<u64>,
}

impl PcTokens {
    /// The color [`PairElision::analyse`] gives this pc: the latest
    /// setting event wins, except that a later unpaired `done` turns a
    /// RED GREEN; with no setting event the pc is mentioned but
    /// uncolored.
    fn state(&self) -> ColorState {
        match self.sets.back() {
            None => ColorState::Uncolored,
            Some(&(at, ColorState::Red)) if self.dones.back().is_some_and(|&d| d > at) => {
                ColorState::Green
            }
            Some(&(_, state)) => state,
        }
    }
}

/// A bounded sample window that keeps the §4.2.1 pair-elision colors of
/// its content up to date in O(1) per event pushed, evicted or stepped
/// back (see the module docs for why three pcs at most can change).
///
/// At every point [`ElisionWindow::states`] equals
/// [`PairElision::analyse`] over the window's events, and the
/// transitions an edit returns are exactly the pcs whose analysed state
/// it changed. The window stores `(pc, status)` pairs only, and counts
/// the events it evicts like [`stetho_profiler::SampleBuffer`] does.
#[derive(Debug, Clone)]
pub struct ElisionWindow {
    events: VecDeque<(usize, EventStatus)>,
    /// Stream position of `events[0]`.
    base: u64,
    capacity: usize,
    evicted: u64,
    pcs: HashMap<usize, PcTokens>,
    /// `(pc, state before the edit)` for every pc the current edit has
    /// touched, in touch order.
    journal: Vec<(usize, Option<ColorState>)>,
}

impl ElisionWindow {
    /// A window holding at most `capacity` events, evicting the oldest.
    /// Capacity 0 is clamped to 1, as in the sample buffer.
    pub fn new(capacity: usize) -> Self {
        ElisionWindow {
            events: VecDeque::new(),
            base: 0,
            capacity: capacity.max(1),
            evicted: 0,
            pcs: HashMap::new(),
            journal: Vec::new(),
        }
    }

    /// A window that never evicts (offline replay over a whole prefix).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Number of events in the window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the window holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted so far — the sampling loss.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The analysed state of `pc`, or `None` when no event of it is in
    /// the window.
    pub fn state(&self, pc: usize) -> Option<ColorState> {
        self.pcs.get(&pc).map(PcTokens::state)
    }

    /// Every pc's analysed state — equal to [`PairElision::analyse`]
    /// over the window's events.
    pub fn states(&self) -> HashMap<usize, ColorState> {
        self.pcs.iter().map(|(&pc, t)| (pc, t.state())).collect()
    }

    /// Full diff of the window against a canvas painted as `prev`, with
    /// [`PairElision::diff`]'s result. O(window + prev): meant for the
    /// first round after a scene appears, when the canvas is not yet in
    /// step with the window.
    pub fn diff(&self, prev: &HashMap<usize, ColorState>) -> Vec<ColorChange> {
        diff_states(&self.states(), prev)
    }

    /// Append one event, evicting the oldest when full. Returns the pcs
    /// whose state changed, ordered by pc.
    pub fn push(&mut self, pc: usize, status: EventStatus) -> Vec<Transition> {
        self.append(pc, status);
        if self.events.len() > self.capacity {
            self.evict_front();
        }
        self.take_transitions()
    }

    /// For an unbounded window that holds `trace[..self.len()]`: move it
    /// to hold `trace[..target]` by pushing or popping the difference.
    /// Returns the net transitions of the whole move, ordered by pc.
    pub fn replay_to(&mut self, trace: &[TraceEvent], target: usize) -> Vec<Transition> {
        let target = target.min(trace.len());
        while self.events.len() > target {
            self.remove_back();
        }
        for e in &trace[self.events.len()..target] {
            self.append(e.pc, e.status);
        }
        self.take_transitions()
    }

    fn at(&self, pos: u64) -> Option<(usize, EventStatus)> {
        let i = usize::try_from(pos.checked_sub(self.base)?).ok()?;
        self.events.get(i).copied()
    }

    /// Is the event at `pos` a `done` paired with the start just before
    /// it?
    fn paired_done(&self, pos: u64) -> bool {
        match (self.at(pos), pos.checked_sub(1).and_then(|p| self.at(p))) {
            (Some((pc, EventStatus::Done)), Some((prev, EventStatus::Start))) => pc == prev,
            _ => false,
        }
    }

    fn note(&mut self, pc: usize) {
        let before = self.state(pc);
        self.journal.push((pc, before));
    }

    fn tokens(&mut self, pc: usize) -> &mut PcTokens {
        self.pcs.entry(pc).or_default()
    }

    fn append(&mut self, pc: usize, status: EventStatus) {
        let at = self.base + self.events.len() as u64;
        self.note(pc);
        let mut consumed = false;
        if let Some(&(last_pc, last_status)) = self.events.back() {
            self.note(last_pc);
            match last_status {
                // The start that ended the window either pairs with this
                // done (a pair ending the window) or now has later
                // events without its done (RED).
                EventStatus::Start => {
                    consumed = status == EventStatus::Done && pc == last_pc;
                    let state = if consumed {
                        ColorState::Green
                    } else {
                        ColorState::Red
                    };
                    self.tokens(last_pc).sets.push_back((at - 1, state));
                }
                // The pair that ended the window has more after it now:
                // elided.
                EventStatus::Done if self.paired_done(at - 1) => {
                    if let Some(set) = self.tokens(last_pc).sets.back_mut() {
                        set.1 = ColorState::Uncolored;
                    }
                }
                EventStatus::Done => {}
            }
        }
        let t = self.tokens(pc);
        t.events += 1;
        if status == EventStatus::Done && !consumed {
            t.dones.push_back(at);
        }
        self.events.push_back((pc, status));
    }

    fn evict_front(&mut self) {
        let Some(&(pc, _)) = self.events.front() else {
            return;
        };
        let at = self.base;
        self.note(pc);
        let t = self.tokens(pc);
        // The oldest event is its pc's oldest too, so any token it
        // carries sits at the front of that pc's lists. When it was a
        // pair's start, its done now stands alone at the front, before
        // every setting event, where it cannot change the color.
        if t.sets.front().is_some_and(|&(p, _)| p == at) {
            t.sets.pop_front();
        }
        if t.dones.front() == Some(&at) {
            t.dones.pop_front();
        }
        t.events -= 1;
        if t.events == 0 {
            self.pcs.remove(&pc);
        }
        self.events.pop_front();
        self.base += 1;
        self.evicted += 1;
    }

    fn remove_back(&mut self) {
        let Some(&(pc, status)) = self.events.back() else {
            return;
        };
        let at = self.base + self.events.len() as u64 - 1;
        self.note(pc);
        let paired = self.paired_done(at);
        let t = self.tokens(pc);
        if paired {
            // The pair loses its done; its start ends the window again,
            // undecided.
            t.sets.pop_back();
        } else if status == EventStatus::Done {
            t.dones.pop_back();
        }
        t.events -= 1;
        if t.events == 0 {
            self.pcs.remove(&pc);
        }
        self.events.pop_back();
        if paired {
            return;
        }
        // The previous event now ends the window.
        let Some(&(last_pc, last_status)) = self.events.back() else {
            return;
        };
        self.note(last_pc);
        match last_status {
            // An unpaired start is undecided again.
            EventStatus::Start => {
                self.tokens(last_pc).sets.pop_back();
            }
            // An elided pair becomes a pair ending the window.
            EventStatus::Done if self.paired_done(at - 1) => {
                if let Some(set) = self.tokens(last_pc).sets.back_mut() {
                    set.1 = ColorState::Green;
                }
            }
            EventStatus::Done => {}
        }
    }

    /// Close the current edit: every touched pc whose state differs
    /// from the one noted before its first touch, ordered by pc.
    fn take_transitions(&mut self) -> Vec<Transition> {
        let mut journal = std::mem::take(&mut self.journal);
        // Stable sort + dedup keeps each pc's earliest note.
        journal.sort_by_key(|&(pc, _)| pc);
        journal.dedup_by_key(|&mut (pc, _)| pc);
        let out = journal
            .iter()
            .filter_map(|&(pc, before)| {
                let after = self.state(pc);
                (before != after).then_some(Transition { pc, before, after })
            })
            .collect();
        journal.clear();
        self.journal = journal;
        out
    }
}

/// The second §4.2.1 algorithm: "another algorithm which allows the user
/// to specify an instruction execution threshold time". Tracks running
/// instructions across calls (streaming, not buffer-bound).
#[derive(Debug, Clone)]
pub struct ThresholdColoring {
    /// Threshold in microseconds.
    pub threshold_usec: u64,
    running: HashMap<usize, u64>, // pc -> start clk
    states: HashMap<usize, ColorState>,
}

impl ThresholdColoring {
    /// New with a user threshold.
    pub fn new(threshold_usec: u64) -> Self {
        ThresholdColoring {
            threshold_usec,
            running: HashMap::new(),
            states: HashMap::new(),
        }
    }

    /// Feed one event; returns a state change if one occurred.
    pub fn on_event(&mut self, e: &TraceEvent) -> Option<ColorChange> {
        match e.status {
            EventStatus::Start => {
                self.running.insert(e.pc, e.clk);
                None
            }
            EventStatus::Done => {
                self.running.remove(&e.pc);
                let state = if e.usec >= self.threshold_usec {
                    // Costly: highlight RED (it stays highlighted so the
                    // analyst can find it later).
                    ColorState::Red
                } else {
                    ColorState::Uncolored
                };
                let prev = self
                    .states
                    .insert(e.pc, state)
                    .unwrap_or(ColorState::Uncolored);
                (prev != state).then_some(ColorChange { pc: e.pc, state })
            }
        }
    }

    /// Poll at current stream time: instructions running longer than the
    /// threshold turn RED before their `done` arrives.
    pub fn on_tick(&mut self, now_clk: u64) -> Vec<ColorChange> {
        let mut changes = Vec::new();
        for (&pc, &started) in &self.running {
            if now_clk.saturating_sub(started) >= self.threshold_usec
                && self.states.get(&pc) != Some(&ColorState::Red)
            {
                changes.push(ColorChange {
                    pc,
                    state: ColorState::Red,
                });
            }
        }
        for c in &changes {
            self.states.insert(c.pc, c.state);
        }
        changes.sort_by_key(|c| c.pc);
        changes
    }

    /// Current state of a node.
    pub fn state(&self, pc: usize) -> ColorState {
        self.states
            .get(&pc)
            .copied()
            .unwrap_or(ColorState::Uncolored)
    }
}

/// The §6 future-work extension: "gradient coloring of graph nodes to
/// display a range of execution times". Durations map onto a
/// default-fill→RED ramp, scaled by the observed maximum.
#[derive(Debug, Clone, Default)]
pub struct GradientColoring {
    max_usec: u64,
    durations: HashMap<usize, u64>,
}

impl GradientColoring {
    /// Empty gradient state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one event; `done` events update the node's gradient. A new
    /// maximum rescales every previously colored node, so callers should
    /// re-render from [`Self::state`] rather than caching the change.
    pub fn on_event(&mut self, e: &TraceEvent) -> Option<ColorChange> {
        if e.status != EventStatus::Done {
            return None;
        }
        self.max_usec = self.max_usec.max(e.usec.max(1));
        self.durations.insert(e.pc, e.usec);
        Some(ColorChange {
            pc: e.pc,
            state: self.state(e.pc),
        })
    }

    /// Current gradient of a node, rescaled to the latest maximum.
    pub fn state(&self, pc: usize) -> ColorState {
        match self.durations.get(&pc) {
            Some(&usec) => ColorState::Gradient {
                t: usec as f64 / self.max_usec.max(1) as f64,
            },
            None => ColorState::Uncolored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(status: EventStatus, pc: usize) -> TraceEvent {
        TraceEvent {
            event: 0,
            status,
            pc,
            thread: 0,
            clk: 0,
            usec: 0,
            rss: 0,
            stmt: format!("X_{pc} := algebra.select(X_0);"),
        }
    }

    fn start(pc: usize) -> TraceEvent {
        ev(EventStatus::Start, pc)
    }

    fn done(pc: usize) -> TraceEvent {
        ev(EventStatus::Done, pc)
    }

    /// The paper's own worked example, verbatim.
    #[test]
    fn paper_worked_example() {
        let buffer = vec![start(1), done(1), start(2), done(2), start(3), start(4)];
        let states = PairElision.analyse(&buffer);
        assert_eq!(states[&1], ColorState::Uncolored, "pc=1 paired, elided");
        assert_eq!(states[&2], ColorState::Uncolored, "pc=2 paired, elided");
        assert_eq!(states[&3], ColorState::Red, "pc=3 unpaired start → RED");
        assert_eq!(
            states[&4],
            ColorState::Uncolored,
            "pc=4 is the buffer's last event — not classifiable yet"
        );
    }

    #[test]
    fn done_after_red_turns_green() {
        let buffer = vec![start(3), start(4), done(3), start(5)];
        let states = PairElision.analyse(&buffer);
        assert_eq!(states[&3], ColorState::Green, "red instruction finished");
        assert_eq!(states[&4], ColorState::Red);
    }

    #[test]
    fn trailing_pair_is_green_not_elided() {
        // A pair at the very end has no "more instructions afterwards";
        // the instruction demonstrably completed, so it shows GREEN.
        let buffer = vec![start(1), done(1)];
        let states = PairElision.analyse(&buffer);
        assert_eq!(states[&1], ColorState::Green);
    }

    #[test]
    fn empty_and_single_event_buffers() {
        assert!(PairElision.analyse(&[]).is_empty());
        let states = PairElision.analyse(&[start(0)]);
        assert_eq!(states[&0], ColorState::Uncolored, "lone start pending");
    }

    #[test]
    fn changes_are_sorted_and_filtered() {
        let buffer = vec![start(9), start(2), done(9), start(5)];
        let changes = PairElision.changes(&buffer);
        // 9: red then done→green; 2: red; 5: last event pending.
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].pc, 2);
        assert_eq!(changes[0].state, ColorState::Red);
        assert_eq!(changes[1].pc, 9);
        assert_eq!(changes[1].state, ColorState::Green);
    }

    #[test]
    fn diff_reverts_stale_red_when_pair_elides() {
        // Regression: round 1 sees an unpaired start → pc=3 RED. Round 2
        // the done arrived and more events follow, so the pair elides to
        // Uncolored — but `changes()` filters Uncolored and the node
        // stayed RED on screen forever.
        let round1 = vec![start(3), start(4)];
        let mut prev: HashMap<usize, ColorState> = HashMap::new();
        for c in PairElision.diff(&round1, &prev) {
            prev.insert(c.pc, c.state);
        }
        assert_eq!(prev.get(&3), Some(&ColorState::Red));
        let round2 = vec![start(3), done(3), start(4), done(4), start(5)];
        let changes = PairElision.diff(&round2, &prev);
        let for3 = changes.iter().find(|c| c.pc == 3).expect("revert for pc=3");
        assert_eq!(
            for3.state,
            ColorState::Uncolored,
            "elided pair must repaint to the default fill"
        );
    }

    #[test]
    fn diff_reverts_red_node_that_slid_out_of_window() {
        // Regression: the sample buffer is bounded; once pc=3's events
        // fall off the front, the analysis no longer mentions it and the
        // stale RED had nothing to overwrite it.
        let prev: HashMap<usize, ColorState> = [(3, ColorState::Red)].into_iter().collect();
        let window = vec![start(7), start(8), done(7), start(9)];
        let changes = PairElision.diff(&window, &prev);
        let for3 = changes.iter().find(|c| c.pc == 3).expect("revert for pc=3");
        assert_eq!(for3.state, ColorState::Uncolored);
        // Unmentioned *uncolored* nodes generate no churn.
        let quiet: HashMap<usize, ColorState> = [(2, ColorState::Uncolored)].into_iter().collect();
        assert!(PairElision.diff(&window, &quiet).iter().all(|c| c.pc != 2));
    }

    #[test]
    fn diff_emits_nothing_when_states_are_stable() {
        let buffer = vec![start(3), start(4)];
        let mut prev: HashMap<usize, ColorState> = HashMap::new();
        for c in PairElision.diff(&buffer, &prev) {
            prev.insert(c.pc, c.state);
        }
        assert!(
            PairElision.diff(&buffer, &prev).is_empty(),
            "same buffer, same prev → no repaints"
        );
    }

    #[test]
    fn interleaved_parallel_trace_colors_overlapping() {
        // Two instructions overlapping (parallel execution): both are
        // unpaired starts → both RED while running.
        let buffer = vec![start(1), start(2), done(1), done(2), start(3)];
        let states = PairElision.analyse(&buffer);
        assert_eq!(states[&1], ColorState::Green);
        assert_eq!(states[&2], ColorState::Green);
    }

    #[test]
    fn color_state_fill_mapping() {
        assert_eq!(ColorState::Red.fill(), Color::RED);
        assert_eq!(ColorState::Green.fill(), Color::GREEN);
        assert_eq!(ColorState::Uncolored.fill(), Color::DEFAULT_FILL);
        let g0 = ColorState::Gradient { t: 0.0 }.fill();
        assert_eq!(g0, Color::DEFAULT_FILL);
        let g1 = ColorState::Gradient { t: 1.0 }.fill();
        assert_eq!(g1, Color::RED);
    }

    #[test]
    fn threshold_marks_slow_done_events() {
        let mut t = ThresholdColoring::new(100);
        let mut e = done(4);
        e.usec = 250;
        let c = t.on_event(&e).unwrap();
        assert_eq!(c.state, ColorState::Red);
        let mut fast = done(5);
        fast.usec = 10;
        assert!(
            t.on_event(&fast).is_none(),
            "uncolored → uncolored is no change"
        );
        assert_eq!(t.state(5), ColorState::Uncolored);
    }

    #[test]
    fn threshold_tick_flags_long_running_before_done() {
        let mut t = ThresholdColoring::new(1000);
        let mut s = start(7);
        s.clk = 0;
        t.on_event(&s);
        assert!(t.on_tick(500).is_empty(), "not over threshold yet");
        let changes = t.on_tick(1500);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].pc, 7);
        assert_eq!(changes[0].state, ColorState::Red);
        // Second tick: already red, no repeat.
        assert!(t.on_tick(2000).is_empty());
    }

    #[test]
    fn gradient_scales_with_max() {
        let mut g = GradientColoring::new();
        let mut e1 = done(1);
        e1.usec = 10;
        let c1 = g.on_event(&e1).unwrap();
        assert_eq!(
            c1.state,
            ColorState::Gradient { t: 1.0 },
            "first is the max"
        );
        let mut e2 = done(2);
        e2.usec = 100;
        g.on_event(&e2).unwrap();
        match g.state(1) {
            ColorState::Gradient { t } => assert_eq!(t, 0.1, "rescaled to the new max"),
            other => panic!("unexpected {other:?}"),
        }
        match g.state(2) {
            ColorState::Gradient { t } => assert_eq!(t, 1.0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(g.on_event(&start(3)).is_none());
    }
}
