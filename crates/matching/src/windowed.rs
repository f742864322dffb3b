//! Streaming windowed decoding over round-structured decoding graphs.
//!
//! A real-time decoder cannot wait for the full syndrome history: rounds
//! keep arriving while old corrections must already be committed (the
//! Surf-Deformer scenario — a cosmic ray lands mid-computation and the
//! code deforms while measurement keeps running). The [`WindowedDecoder`]
//! decodes overlapping round-windows `[t, t + w)`:
//!
//! 1. every detector carries a *round* label; each window decodes the
//!    sub-graph of its rounds through an inner [`Decoder`] built by a
//!    caller-supplied factory (MWPM, union-find, anything);
//! 2. only the matches touching the *commit region* (the first `commit`
//!    rounds of the window) are final; the remaining rounds are lookahead
//!    context that the next window re-decodes;
//! 3. a committed match whose path crosses the commit boundary leaves a
//!    half-explained chain behind — the crossing is recorded and the
//!    partner detector's defect is flipped before the next window runs
//!    (the "artificial time boundary" carry);
//! 4. edges leaving the window towards not-yet-streamed rounds become
//!    zero-observable *open-boundary* edges, so a defect whose partner is
//!    still in the future can park against the future boundary instead of
//!    forcing a wrong spatial match.
//!
//! The trick that makes this work through the *opaque* [`Decoder`] trait
//! (which returns only an observable-flip mask, never the matching
//! itself) is observable-bit instrumentation: in each window sub-graph,
//! committed edges keep their real observable bits, non-committed edges
//! are zeroed, and every committed edge that crosses the commit cut
//! additionally sets a private high bit identifying the detector the
//! residual defect must be carried to. One `decode` call then returns the
//! committed observable parity *and* the full carry set.
//!
//! With the window at least `2·d` rounds (commit `d`, lookahead `d`) the
//! committed corrections coincide with the full-history batch decode —
//! `crates/sim/tests/streaming_equivalence.rs` proves the logical outcome
//! bit-identical — while `w = rounds` reduces exactly to the inner
//! decoder and `w = 1` degenerates to greedy round-by-round commitment.
//!
//! # One plan path
//!
//! Every decoder serves its windows from a [`RoundModelSource`]: a
//! materialised graph ([`new`](WindowedDecoder::new),
//! [`from_epochs`](WindowedDecoder::from_epochs)) is wrapped in a
//! round-indexed graph source, and a periodic model is passed directly
//! ([`from_source`](WindowedDecoder::from_source)). On top of that one
//! source, the decoder is built for very long, mostly-silent streams (the
//! 10⁵–10⁶ round availability horizons of the cosmic-ray ride-through
//! scenario) without costing dense feeds anything:
//!
//! * **Lazy window plans.** A window's sub-graph and inner decoder are
//!   built on first use, and windows whose instrumented sub-graphs are
//!   structurally identical (the steady state between geometry epochs —
//!   almost all of a long stream) *share* one inner decoder. A 10⁵-round
//!   session compiles a handful of backends instead of tens of thousands.
//! * **Plan memo.** Resolved plans are kept by window index and shared by
//!   every session of the decoder, so sibling sessions over one horizon
//!   resolve each window once. Once the memo holds 1024 plans, the
//!   resolving session drops every plan below its own commit frontier; a
//!   lagging session that still needs one re-resolves its (cheap) shell
//!   over the same shared backend, so eviction never changes a result.
//! * **Fast-forward.** Sessions track which rounds have ever seen a
//!   nonzero defect word (including carry targets). A ready window whose
//!   rounds are all clean must decode to an empty matching with zero
//!   observable flips, so it is committed trivially without touching the
//!   backend — the skip is *exact*, not approximate.
//! * **Bulk advance.** [`WindowedSession::advance_silent`] feeds `n`
//!   defect-free rounds in one call, letting sparse samplers jump from
//!   event to event in O(windows touched) instead of O(rounds).
//! * **Bounded sessions.** A session keeps its defect and dirty state
//!   only for in-flight rounds, pruned at the commit frontier, so its
//!   resident memory is O(in-flight windows + events), independent of
//!   the horizon.
//!
//! Decoders serve *sessions only*: there is no whole-history decode entry
//! point, since the full graph of a periodic source is never materialised.
//! A caller holding a whole syndrome history runs the inner backend on the
//! full graph directly, or streams the history through a session.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use surf_pauli::BitBatch;

use crate::decoder::{DecodeWorkspace, Decoder};
use crate::graph::DecodingGraph;
use crate::source::{GraphSource, RoundModelSource, SourceEdge};

/// Factory building the inner decoder backend over each window sub-graph.
pub type DecoderFactory = Box<dyn Fn(DecodingGraph) -> Box<dyn Decoder> + Send + Sync>;

/// Resolved window plans a decoder keeps before a resolving session drops
/// the ones below its commit frontier (see the module docs). Large enough
/// to hold every window of a few-thousand-round horizon, so sibling
/// sessions over one compiled model never re-resolve a window; small
/// enough that a 10⁶-round stream keeps a bounded memo.
const PLAN_MEMO_CAP: usize = 1024;

/// A plan resolution panics only on a carry-bit overflow, which leaves
/// the window undecodable for every session alike.
const POISONED: &str = "plan table poisoned by a panicking plan resolution";

/// One geometry epoch's share of a spliced decoding graph: a
/// locally-indexed sub-graph plus the translation of its local detector
/// ids into the stream's global detector space.
///
/// This is the graph-swap input of in-stream adaptive deformation: the
/// pre- and post-deformation models are compiled separately (the late one
/// only exists once the deformation is decided), each carrying the
/// detector-remap shim's `global_of` table. Edges that straddle the
/// deformation boundary — the merge detectors comparing pre-deformation
/// stabilizer values with the first post-deformation super-stabilizer
/// measurement — live in the late epoch's piece and reference early
/// detectors through the same table.
#[derive(Clone, Debug)]
pub struct GraphEpoch {
    /// The epoch's sub-graph over local node ids.
    pub graph: DecodingGraph,
    /// Round label of each local node.
    pub rounds_of: Vec<u32>,
    /// Local node id → global detector id.
    pub global_of: Vec<u32>,
}

/// Shape of the sliding window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Rounds decoded together, `[t, t + window)`.
    pub window: u32,
    /// Rounds committed per window (the step between windows). Must be
    /// `1..=window`; the tail `window - commit` rounds are lookahead.
    pub commit: u32,
}

impl WindowConfig {
    /// A window of `window` rounds committing half of it per step (the
    /// classic "commit d, look ahead d" split for `window = 2·d`).
    pub fn new(window: u32) -> Self {
        assert!(window > 0, "window must be at least one round");
        WindowConfig {
            window,
            commit: (window / 2).max(1),
        }
    }

    /// Overrides the commit step.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= commit <= window`.
    pub fn with_commit(mut self, commit: u32) -> Self {
        assert!(
            (1..=self.window).contains(&commit),
            "commit {commit} outside 1..={}",
            self.window
        );
        self.commit = commit;
        self
    }
}

/// One window's bookkeeping: its sub-graph decoder (possibly shared with
/// structurally identical windows) plus the translation between global
/// detectors and window-local node ids.
struct WindowPlan {
    /// Window detectors in global ids; local node `i` = `globals[i]`.
    globals: Vec<u32>,
    /// Inner decoder over the instrumented window sub-graph.
    decoder: Arc<dyn Decoder>,
    /// Carry instrumentation: `(observable bit, global detector)` — if the
    /// decode result has the bit set, the detector's defect is flipped
    /// before the next window.
    carries: Vec<(u32, u32)>,
}

/// The lazily filled plan state shared by every session of a decoder.
struct PlanTable {
    factory: DecoderFactory,
    /// The plan memo, keyed by window index and capped by
    /// [`PLAN_MEMO_CAP`].
    resolved: HashMap<usize, Arc<WindowPlan>>,
    /// Distinct inner decoders built so far, most recently used first;
    /// a candidate window whose instrumented sub-graph equals a canonical
    /// decoder's graph reuses it instead of compiling a new backend.
    canon: Vec<Arc<dyn Decoder>>,
}

/// A streaming decoder: decodes overlapping round-windows of a decoding
/// model whose detectors carry round labels, committing matches in each
/// window's commit region and carrying boundary defects forward.
///
/// Decoding happens through [`session`](WindowedDecoder::session)s, the
/// round-by-round feed used by `surf_sim`'s streaming experiments and the
/// decode service; one decoder serves any number of concurrent sessions.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use surf_matching::{DecodingGraph, MwpmDecoder, WindowConfig, WindowedDecoder};
///
/// // Two detectors in consecutive rounds joined by a measurement edge
/// // (cheaper than the boundaries, so the matching is unique).
/// let mut g = DecodingGraph::new(2);
/// g.add_edge(0, None, 1e-2, 1);
/// g.add_edge(0, Some(1), 5e-2, 0);
/// g.add_edge(1, None, 1e-2, 0);
/// let windowed = Arc::new(WindowedDecoder::new(
///     g,
///     vec![0, 1],
///     1,
///     WindowConfig::new(1),
///     Box::new(|wg| Box::new(MwpmDecoder::new(wg))),
/// ));
/// // The measurement-error pair is matched across the window cut: the
/// // first window commits the pair edge and carries the residual defect
/// // into round 1, where it cancels the sampled one.
/// let mut session = windowed.session(1);
/// session.push_round(0, &[0], &[1]);
/// session.push_round(1, &[1], &[1]);
/// assert_eq!(session.finish(), vec![0]);
/// ```
pub struct WindowedDecoder {
    source: Arc<dyn RoundModelSource>,
    /// One past the largest round label.
    total_rounds: u32,
    obs_mask: u64,
    num_observables: u32,
    config: WindowConfig,
    plans: Mutex<PlanTable>,
}

impl WindowedDecoder {
    /// Builds a windowed decoder over `graph`, whose detector `i` belongs
    /// to round `rounds_of[i]`, with `num_observables` real observable
    /// bits (bits above them are reserved for carry instrumentation) and
    /// an inner backend built per window by `factory`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds_of` does not match the graph, plus everything
    /// [`from_source`](WindowedDecoder::from_source) checks.
    pub fn new(
        graph: DecodingGraph,
        rounds_of: Vec<u32>,
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        WindowedDecoder::from_source(
            Arc::new(GraphSource::new(graph, rounds_of)),
            num_observables,
            config,
            factory,
        )
    }

    /// Builds a windowed decoder over epoch pieces spliced into one
    /// `num_detectors`-wide global space — the graph-swap path of
    /// in-stream adaptive deformation.
    ///
    /// Every epoch's edges and round labels are translated through its
    /// [`GraphEpoch::global_of`] table, so a window straddling the
    /// deformation round decodes against the spliced multi-epoch graph
    /// and its commit-cut carry bits land on translated (global) detector
    /// ids — residual defects flow correctly from pre- into
    /// post-deformation windows.
    ///
    /// # Panics
    ///
    /// Panics if a global detector is left without a round label, labelled
    /// inconsistently across epochs, or out of range — plus everything
    /// [`WindowedDecoder::new`] checks.
    pub fn from_epochs(
        num_detectors: usize,
        epochs: &[GraphEpoch],
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        let mut graph = DecodingGraph::new(num_detectors);
        let mut rounds_of = vec![u32::MAX; num_detectors];
        for (i, epoch) in epochs.iter().enumerate() {
            assert_eq!(
                epoch.global_of.len(),
                epoch.graph.num_nodes(),
                "epoch {i}: one global id per local node required"
            );
            assert_eq!(
                epoch.rounds_of.len(),
                epoch.graph.num_nodes(),
                "epoch {i}: one round label per local node required"
            );
            for (local, (&global, &round)) in
                epoch.global_of.iter().zip(&epoch.rounds_of).enumerate()
            {
                let slot = &mut rounds_of[global as usize];
                assert!(
                    *slot == u32::MAX || *slot == round,
                    "epoch {i}: detector {global} (local {local}) relabelled \
                     from round {slot} to {round}"
                );
                *slot = round;
            }
            for edge in epoch.graph.edges() {
                graph.add_edge(
                    epoch.global_of[edge.a] as usize,
                    edge.b.map(|b| epoch.global_of[b] as usize),
                    edge.probability,
                    edge.observables,
                );
            }
        }
        assert!(
            rounds_of.iter().all(|&r| r != u32::MAX),
            "every global detector needs a round label from some epoch"
        );
        WindowedDecoder::new(graph, rounds_of, num_observables, config, factory)
    }

    /// Builds a windowed decoder over a round-indexed model source: window
    /// detectors and candidate edges are asked of `source` on demand.
    ///
    /// A carry-bit overflow — a window needing more than the
    /// `64 - num_observables` available carry bits, only possible for very
    /// wide time-cuts (d ≤ 9 surface-code memories fit easily) — panics
    /// on first decode of the offending window.
    ///
    /// # Panics
    ///
    /// Panics if `num_observables` is outside `1..=63`, or if the window
    /// config is degenerate (its fields are public, so a struct literal
    /// can bypass the [`WindowConfig`] constructor checks).
    pub fn from_source(
        source: Arc<dyn RoundModelSource>,
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        assert!(
            (1..64).contains(&num_observables),
            "num_observables {num_observables} outside 1..=63"
        );
        // commit = 0 would produce infinitely many windows; commit >
        // window would leave rounds that belong to no window (silently
        // undecoded defects).
        assert!(config.window > 0, "window must be at least one round");
        assert!(
            (1..=config.window).contains(&config.commit),
            "commit {} outside 1..={}",
            config.commit,
            config.window
        );
        WindowedDecoder {
            total_rounds: source.total_rounds(),
            source,
            obs_mask: (1u64 << num_observables) - 1,
            num_observables,
            config,
            plans: Mutex::new(PlanTable {
                factory,
                resolved: HashMap::new(),
                canon: Vec::new(),
            }),
        }
    }

    /// Number of distinct inner decoder backends compiled so far: one per
    /// *structurally distinct* window, on demand. Useful for asserting
    /// (and benchmarking) plan sharing.
    pub fn compiled_backends(&self) -> usize {
        self.plans.lock().expect(POISONED).canon.len()
    }

    /// Number of resolved window plans the memo currently holds — at most
    /// 1024 plus the windows between the slowest and the fastest live
    /// session, on arbitrarily long streams.
    pub fn live_plans(&self) -> usize {
        self.plans.lock().expect(POISONED).resolved.len()
    }

    /// `(start, end, cut)` of window `index`: it decodes rounds
    /// `[start, end)` and commits matches whose earlier endpoint is below
    /// `cut` (`u32::MAX` for the last window, which commits everything).
    fn window_bounds(&self, index: usize) -> (u32, u32, u32) {
        let start = index as u32 * self.config.commit;
        let end = start
            .saturating_add(self.config.window)
            .min(self.total_rounds);
        let cut = if index + 1 == self.num_windows() {
            u32::MAX
        } else {
            start + self.config.commit
        };
        (start, end, cut)
    }

    /// Resolves window `index`'s plan for a session whose commit frontier
    /// is `index`: a memo hit, or a fresh plan over a (possibly shared)
    /// backend. A full memo first drops every plan below `index`.
    fn plan(&self, index: usize) -> Arc<WindowPlan> {
        let mut table = self.plans.lock().expect(POISONED);
        if let Some(plan) = table.resolved.get(&index) {
            return Arc::clone(plan);
        }
        let (globals, window_graph, carries) = self.build_parts(index);
        let table = &mut *table;
        let plan = Arc::new(WindowPlan {
            globals,
            decoder: Self::canon_decoder(&mut table.canon, &table.factory, window_graph),
            carries,
        });
        if table.resolved.len() >= PLAN_MEMO_CAP {
            table.resolved.retain(|&i, _| i >= index);
        }
        table.resolved.insert(index, Arc::clone(&plan));
        plan
    }

    /// Finds (or compiles) the canonical shared backend for a window
    /// sub-graph — the structural-sharing core of the plan table.
    fn canon_decoder(
        canon: &mut Vec<Arc<dyn Decoder>>,
        factory: &DecoderFactory,
        window_graph: DecodingGraph,
    ) -> Arc<dyn Decoder> {
        match canon.iter().position(|c| {
            c.graph().num_nodes() == window_graph.num_nodes()
                && c.graph().edges() == window_graph.edges()
        }) {
            Some(i) => {
                // Move the hit to the front: neighbouring windows
                // overwhelmingly share the steady-state graph.
                let decoder = canon.remove(i);
                canon.insert(0, Arc::clone(&decoder));
                decoder
            }
            None => {
                let decoder: Arc<dyn Decoder> = Arc::from(factory(window_graph));
                canon.insert(0, Arc::clone(&decoder));
                decoder
            }
        }
    }

    /// Window `index`'s detectors (ascending), instrumented sub-graph and
    /// carry table: detectors and candidate edges come from the model
    /// source, visited in the order the materialised graph stores them, so
    /// the plan is the same whichever source kind serves it.
    fn build_parts(&self, index: usize) -> (Vec<u32>, DecodingGraph, Vec<(u32, u32)>) {
        let (start, end, cut) = self.window_bounds(index);
        let mut globals: Vec<u32> = Vec::new();
        self.source.detectors_in(start..end, &mut globals);
        globals.sort_unstable();
        let mut edges: Vec<SourceEdge> = Vec::new();
        self.source.window_edges(start..end, &mut edges);
        let (window_graph, carries) = self.assemble_window(start, end, cut, &globals, &edges);
        (globals, window_graph, carries)
    }

    /// Builds the instrumented sub-graph (and carry table) of one window
    /// over `globals` (ascending) from a candidate edge set.
    ///
    /// Edge placement rules (rounds `ra <= rb` of the endpoints):
    /// * `ra < start` — already committed by an earlier window: skipped;
    /// * `ra >= end` — belongs to a later window: skipped;
    /// * otherwise the edge is *committed* iff `ra < cut`. Committed edges
    ///   keep their real observables; if `rb >= cut` the edge crosses the
    ///   commit boundary and additionally sets the carry bit of endpoint
    ///   `b`. Non-committed edges are pure lookahead (observables 0).
    /// * An endpoint with `rb >= end` is not a window node: the edge
    ///   becomes a boundary edge from `a` (an open time boundary when not
    ///   committed).
    fn assemble_window(
        &self,
        start: u32,
        end: u32,
        cut: u32,
        globals: &[u32],
        edges: &[SourceEdge],
    ) -> (DecodingGraph, Vec<(u32, u32)>) {
        let num_observables = self.num_observables;
        let local_of = |det: u32| {
            globals
                .binary_search(&det)
                .expect("window edge endpoints are window detectors")
        };
        let mut window_graph = DecodingGraph::new(globals.len());
        let mut carries: Vec<(u32, u32)> = Vec::new();
        let carry_bit_of = |target: u32, carries: &mut Vec<(u32, u32)>| -> u64 {
            let bit = match carries.iter().find(|&&(_, t)| t == target) {
                Some(&(bit, _)) => bit,
                None => {
                    let bit = num_observables + carries.len() as u32;
                    assert!(
                        bit < 64,
                        "window [{start}, {end}) needs more than {} carry bits",
                        64 - num_observables
                    );
                    carries.push((bit, target));
                    bit
                }
            };
            1u64 << bit
        };
        for edge in edges {
            let ra = self.source.detector_round(edge.a);
            match edge.b {
                None => {
                    // Space-boundary edge: lives entirely in round `ra`.
                    if !(start..end).contains(&ra) {
                        continue;
                    }
                    let obs = if ra < cut {
                        edge.observables & self.obs_mask
                    } else {
                        0
                    };
                    window_graph.add_edge(local_of(edge.a), None, edge.probability, obs);
                }
                Some(b) => {
                    let rb = self.source.detector_round(b);
                    // Order endpoints by round so `lo` is the committing side.
                    let (lo, hi, rlo, rhi) = if ra <= rb {
                        (edge.a, b, ra, rb)
                    } else {
                        (b, edge.a, rb, ra)
                    };
                    if rlo < start || rlo >= end {
                        continue;
                    }
                    let committed = rlo < cut;
                    let mut obs = 0u64;
                    if committed {
                        obs = edge.observables & self.obs_mask;
                        if rhi >= cut {
                            obs |= carry_bit_of(hi, &mut carries);
                        }
                    }
                    if rhi < end {
                        window_graph.add_edge(
                            local_of(lo),
                            Some(local_of(hi)),
                            edge.probability,
                            obs,
                        );
                    } else {
                        // Partner not yet streamed: open time boundary.
                        window_graph.add_edge(local_of(lo), None, edge.probability, obs);
                    }
                }
            }
        }
        (window_graph, carries)
    }

    /// The sliding-window shape.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Number of distinct round labels (one past the largest).
    pub fn total_rounds(&self) -> u32 {
        self.total_rounds
    }

    /// Number of windows the history is decoded in.
    pub fn num_windows(&self) -> usize {
        if self.total_rounds <= self.config.window {
            1
        } else {
            1 + (self.total_rounds - self.config.window).div_ceil(self.config.commit) as usize
        }
    }

    /// Starts a streaming session over up to `lanes` parallel shots; feed
    /// it rounds in order via [`WindowedSession::push_round`]. The session
    /// holds the decoder through the [`Arc`], so it can outlive the scope
    /// (e.g. a daemon request handler) that opened it and move freely
    /// across threads.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=64`.
    pub fn session(self: &Arc<Self>, lanes: usize) -> WindowedSession {
        assert!(
            (1..=BitBatch::LANES).contains(&lanes),
            "lanes {lanes} out of range 1..={}",
            BitBatch::LANES
        );
        WindowedSession {
            decoder: Arc::clone(self),
            defects: HashMap::new(),
            dirty: Vec::new(),
            lane_mask: BitBatch::mask_for(lanes),
            lanes,
            filled_rounds: 0,
            next_plan: 0,
            observables: vec![0u64; lanes],
            predictions: Vec::new(),
            window_batch: BitBatch::with_lanes(0, lanes),
            workspace: DecodeWorkspace::default(),
        }
    }

    /// One past the last round that is final after `windows_committed`
    /// windows: every round below it has its corrections committed.
    pub fn commit_horizon(&self, windows_committed: usize) -> u32 {
        if windows_committed >= self.num_windows() {
            self.total_rounds
        } else {
            windows_committed as u32 * self.config.commit
        }
    }
}

/// An in-flight streaming decode over up to 64 parallel shots.
///
/// Rounds are pushed in order; as soon as all rounds of the next window
/// have arrived, the window is decoded and its commit region is final —
/// the *commit latency* is one window of rounds, not the whole experiment.
///
/// The session owns its decoder through an [`Arc`] and keeps only the
/// state of in-flight rounds: residual defect words and the rounds that
/// ever held one are pruned at the commit frontier, so resident memory is
/// O(in-flight windows + events) whatever the horizon. Both live in
/// containers that keep their capacity when entries go, so once they reach
/// their high-water marks the steady-state feed performs zero heap
/// allocations; neither container's iteration order reaches a result.
pub struct WindowedSession {
    decoder: Arc<WindowedDecoder>,
    /// Nonzero residual defect words of in-flight rounds, by global
    /// detector (lane `b` = shot `b`).
    defects: HashMap<u32, u64>,
    /// In-flight rounds that have ever held a nonzero defect word in any
    /// lane (pushed or carried), ascending. Sticky and conservative — a
    /// missing round *proves* the round is defect-free, so a ready window
    /// none of whose rounds is listed commits without touching the
    /// backend (empty matching, zero flips).
    dirty: Vec<u32>,
    lane_mask: u64,
    lanes: usize,
    /// Rounds `0..filled_rounds` have been pushed.
    filled_rounds: u32,
    /// First plan not yet decoded.
    next_plan: usize,
    /// Per-lane committed observable masks.
    observables: Vec<u64>,
    /// Scratch for the inner `decode_batch_with` calls.
    predictions: Vec<u64>,
    /// Reusable window sub-batch (reshaped per window, allocated once).
    window_batch: BitBatch,
    /// The session's decode arena, threaded into every backend call; one
    /// slab per session, reused across windows and epochs.
    workspace: DecodeWorkspace,
}

impl WindowedSession {
    /// Number of parallel shot lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of windows already committed.
    pub fn windows_committed(&self) -> usize {
        self.next_plan
    }

    /// Rounds `0..filled_rounds()` have been pushed.
    pub fn filled_rounds(&self) -> u32 {
        self.filled_rounds
    }

    /// Per-lane committed observable masks accumulated so far.
    pub fn observables(&self) -> &[u64] {
        &self.observables
    }

    /// Feeds the detector words of `round` (`detectors[i]`'s word is
    /// `words[i]`; lane `b` = shot `b`) and decodes every window whose
    /// rounds are now complete. Detectors left out are defect-free.
    ///
    /// # Panics
    ///
    /// Panics if rounds arrive out of order or a detector does not belong
    /// to `round`.
    pub fn push_round(&mut self, round: u32, detectors: &[u32], words: &[u64]) {
        assert_eq!(round, self.filled_rounds, "rounds must be pushed in order");
        assert_eq!(detectors.len(), words.len(), "one word per detector");
        let mut fired = false;
        for (&det, &word) in detectors.iter().zip(words) {
            assert_eq!(
                self.decoder.source.detector_round(det),
                round,
                "detector {det} does not belong to round {round}"
            );
            let masked = word & self.lane_mask;
            if masked != 0 {
                fired = true;
                self.flip(det, masked);
            }
        }
        if fired {
            self.mark_dirty(round);
        }
        self.filled_rounds = round + 1;
        self.drain_ready();
    }

    /// Feeds `rounds` defect-free rounds in one step — equivalent to that
    /// many empty [`push_round`](Self::push_round) calls, but the windows
    /// that become ready and are proven clean commit without invoking the
    /// backend, so skipping a long silent stretch costs O(windows), not
    /// O(rounds · backend).
    ///
    /// # Panics
    ///
    /// Panics if the advance runs past the end of the stream.
    pub fn advance_silent(&mut self, rounds: u32) {
        let total = self.decoder.total_rounds;
        let target = self
            .filled_rounds
            .checked_add(rounds)
            .expect("advance_silent round overflow");
        assert!(
            target <= total,
            "advance_silent past the stream end: {} + {rounds} > {total}",
            self.filled_rounds
        );
        self.filled_rounds = target;
        self.drain_ready();
    }

    /// Completes the stream and returns the per-lane predicted
    /// observable-flip masks.
    ///
    /// # Panics
    ///
    /// Panics if not all rounds have been pushed.
    pub fn finish(self) -> Vec<u64> {
        let total = self.decoder.total_rounds;
        assert_eq!(
            self.filled_rounds, total,
            "stream ended early: {} of {total} rounds pushed",
            self.filled_rounds
        );
        debug_assert_eq!(self.next_plan, self.decoder.num_windows());
        self.observables
    }

    /// XORs a nonzero `word` into `det`'s residual defect word, dropping
    /// the entry once it cancels to zero.
    fn flip(&mut self, det: u32, word: u64) {
        match self.defects.entry(det) {
            Entry::Occupied(mut slot) => {
                *slot.get_mut() ^= word;
                if *slot.get() == 0 {
                    slot.remove();
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(word);
            }
        }
    }

    fn mark_dirty(&mut self, round: u32) {
        if let Err(at) = self.dirty.binary_search(&round) {
            self.dirty.insert(at, round);
        }
    }

    fn window_is_clean(&self, start: u32, end: u32) -> bool {
        let first = self.dirty.partition_point(|&r| r < start);
        self.dirty.get(first).is_none_or(|&r| r >= end)
    }

    /// Decodes every plan whose window is fully streamed, skipping the
    /// windows proven clean by the dirty record — exact, because an
    /// all-zero window batch decodes to an empty matching with zero
    /// observable flips and no carries. Then drops the session state the
    /// committed windows leave behind.
    fn drain_ready(&mut self) {
        let decoder = Arc::clone(&self.decoder);
        let committed_from = self.next_plan;
        while self.next_plan < decoder.num_windows() {
            let (start, end, _cut) = decoder.window_bounds(self.next_plan);
            if end > self.filled_rounds {
                break;
            }
            if !self.window_is_clean(start, end) {
                let plan = decoder.plan(self.next_plan);
                self.decode_plan(&decoder, &plan);
            }
            self.next_plan += 1;
        }
        if self.next_plan > committed_from {
            // Committed windows never re-read their defects or dirty
            // marks: carry targets always land at or above the next
            // window's start.
            let frontier = decoder.commit_horizon(self.next_plan);
            self.defects
                .retain(|&det, _| decoder.source.detector_round(det) >= frontier);
            let committed = self.dirty.partition_point(|&r| r < frontier);
            self.dirty.drain(..committed);
        }
    }

    /// Decodes window `plan` against the residual defect words, XOR-ing
    /// each lane's committed observables into `observables` and applying
    /// carry flips back into `defects`. `window_batch` is session-owned
    /// scratch (reshaped here), reused across the whole stream; the
    /// backend call goes through [`Decoder::decode_batch_with`] with the
    /// session's single [`DecodeWorkspace`], so every buffer — lane
    /// extraction, Dijkstra state, blossom tables, peeling forest —
    /// persists across windows and epochs and the steady-state decode
    /// performs zero heap allocations.
    fn decode_plan(&mut self, decoder: &WindowedDecoder, plan: &WindowPlan) {
        if plan.globals.is_empty() {
            return;
        }
        self.window_batch.reset_rows(plan.globals.len());
        for (local, global) in plan.globals.iter().enumerate() {
            let word = self.defects.get(global).copied().unwrap_or(0);
            self.window_batch.set_word(local, word);
        }
        plan.decoder.decode_batch_with(
            &self.window_batch,
            &mut self.predictions,
            &mut self.workspace,
        );
        for lane in 0..self.predictions.len() {
            let prediction = self.predictions[lane];
            self.observables[lane] ^= prediction & decoder.obs_mask;
            if prediction & !decoder.obs_mask != 0 {
                for &(bit, target) in &plan.carries {
                    if (prediction >> bit) & 1 == 1 {
                        self.flip(target, 1u64 << lane);
                        // A carry re-dirties its target round, which may
                        // sit arbitrarily far ahead (open-boundary commits
                        // carry into not-yet-streamed rounds).
                        self.mark_dirty(decoder.source.detector_round(target));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MwpmDecoder, UnionFindDecoder};

    fn mwpm_factory() -> DecoderFactory {
        Box::new(|g| Box::new(MwpmDecoder::new(g)))
    }

    /// A time strip: one detector per round, measurement-error edges
    /// between consecutive rounds, time boundaries at both ends, the
    /// observable on the initial boundary edge. Interior edges are
    /// strictly cheaper than boundary edges so matchings are unique.
    fn time_strip(rounds: usize) -> (DecodingGraph, Vec<u32>) {
        let mut g = DecodingGraph::new(rounds);
        g.add_edge(0, None, 1e-2, 1);
        for t in 0..rounds - 1 {
            g.add_edge(t, Some(t + 1), 5e-2, 0);
        }
        g.add_edge(rounds - 1, None, 1e-2, 0);
        (g, (0..rounds as u32).collect())
    }

    fn windowed(rounds: usize, config: WindowConfig) -> Arc<WindowedDecoder> {
        let (g, r) = time_strip(rounds);
        Arc::new(WindowedDecoder::new(g, r, 1, config, mwpm_factory()))
    }

    /// Streams a whole syndrome history through a fresh one-lane session
    /// of a decoder whose round `t` holds exactly detector `t` (every
    /// graph in this module); duplicate detectors cancel pairwise.
    fn stream(d: &Arc<WindowedDecoder>, syndrome: &[usize]) -> u64 {
        let mut session = d.session(1);
        for t in 0..d.total_rounds() {
            let word = syndrome.iter().filter(|&&s| s == t as usize).count() as u64 & 1;
            session.push_round(t, &[t], &[word]);
        }
        session.finish()[0]
    }

    #[test]
    fn full_window_is_one_plan() {
        let d = windowed(6, WindowConfig::new(6));
        assert_eq!(d.num_windows(), 1);
        assert_eq!(d.total_rounds(), 6);
        let full = MwpmDecoder::new(time_strip(6).0);
        for s in [vec![], vec![0], vec![2, 3], vec![0, 5], vec![1, 2, 4]] {
            assert_eq!(stream(&d, &s), full.decode(&s), "syndrome {s:?}");
        }
    }

    #[test]
    fn window_count_follows_commit_step() {
        // 8 rounds, window 4, commit 2: windows [0,4) [2,6) [4,8).
        let d = windowed(8, WindowConfig::new(4));
        assert_eq!(d.num_windows(), 3);
        // Greedy single-round windows: one per round.
        assert_eq!(windowed(8, WindowConfig::new(1)).num_windows(), 8);
    }

    #[test]
    fn window_bounds_match_the_eager_sweep() {
        // The closed-form window arithmetic must reproduce the reference
        // sweep (start += commit until the window reaches the end) for
        // every shape, including commit == window and window > total.
        for total in [1u32, 2, 5, 8, 9, 16] {
            for window in 1..=total + 2 {
                for commit in 1..=window {
                    let d = windowed(total as usize, WindowConfig { window, commit });
                    let mut expected = Vec::new();
                    let mut start = 0u32;
                    loop {
                        let end = (start + window).min(total);
                        let last = end == total;
                        let cut = if last { u32::MAX } else { start + commit };
                        expected.push((start, end, cut));
                        if last {
                            break;
                        }
                        start += commit;
                    }
                    assert_eq!(
                        d.num_windows(),
                        expected.len(),
                        "t={total} w={window} c={commit}"
                    );
                    for (i, &want) in expected.iter().enumerate() {
                        assert_eq!(
                            d.window_bounds(i),
                            want,
                            "t={total} w={window} c={commit} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cross_cut_pair_is_carried_and_cancelled() {
        // A measurement-error pair split across every possible cut must
        // still decode to "no logical flip", even at w = 1 (the pair edge
        // is cheaper than any boundary, so every window commits it and
        // carries the residual defect into the partner's round).
        for w in 1..=6u32 {
            let d = windowed(6, WindowConfig::new(w));
            for t in 0..5 {
                assert_eq!(stream(&d, &[t, t + 1]), 0, "pair at {t}, window {w}");
            }
        }
        // Lone boundary defects need at least one round of lookahead to
        // tell "my partner is in the future" from "I came from the
        // boundary"; from w = 2 on they match the full decode.
        for w in 2..=6u32 {
            let d = windowed(6, WindowConfig::new(w));
            assert_eq!(stream(&d, &[0]), 1, "window {w}");
            assert_eq!(stream(&d, &[5]), 0, "window {w}");
        }
    }

    #[test]
    fn greedy_single_round_windows_chain_forward() {
        // The documented w = 1 degeneracy: with no lookahead a lone
        // defect prefers the cheap cross-cut edge and the chain walks to
        // the far time boundary — a *valid* correction (every defect is
        // explained) that differs from the full decode's left-boundary
        // match. This pins the greedy semantics.
        let d = windowed(6, WindowConfig::new(1));
        assert_eq!(stream(&d, &[0]), 0);
        assert_eq!(stream(&d, &[5]), 0);
    }

    #[test]
    fn duplicates_cancel_pairwise() {
        let d = windowed(5, WindowConfig::new(2));
        assert_eq!(stream(&d, &[3, 3]), 0);
        assert_eq!(stream(&d, &[0, 2, 0]), stream(&d, &[2]));
    }

    #[test]
    fn batch_matches_scalar() {
        // Lanes are independent: a five-lane session commits, per lane,
        // exactly what a one-lane session fed that lane's syndrome does.
        let d = windowed(7, WindowConfig::new(3));
        let syndromes = [vec![], vec![0], vec![1, 2], vec![0, 6], vec![2, 3, 5]];
        let mut session = d.session(syndromes.len());
        for t in 0..7u32 {
            let mut word = 0u64;
            for (lane, s) in syndromes.iter().enumerate() {
                if s.contains(&(t as usize)) {
                    word |= 1 << lane;
                }
            }
            session.push_round(t, &[t], &[word]);
        }
        let predictions = session.finish();
        for (lane, s) in syndromes.iter().enumerate() {
            assert_eq!(predictions[lane], stream(&d, s), "lane {lane}: {s:?}");
        }
    }

    #[test]
    fn session_streams_round_by_round() {
        let d = windowed(6, WindowConfig::new(4));
        let mut session = d.session(2);
        // Lane 0: pair {1, 2}; lane 1: initial-boundary defect {0}.
        let per_round: [&[(u32, u64)]; 6] =
            [&[(0, 0b10)], &[(1, 0b01)], &[(2, 0b01)], &[], &[], &[]];
        for (round, entries) in per_round.iter().enumerate() {
            let detectors: Vec<u32> = entries.iter().map(|&(d, _)| d).collect();
            let words: Vec<u64> = entries.iter().map(|&(_, w)| w).collect();
            session.push_round(round as u32, &detectors, &words);
        }
        assert_eq!(session.windows_committed(), d.num_windows());
        assert_eq!(session.finish(), vec![0, 1]);
    }

    #[test]
    fn early_windows_commit_before_stream_ends() {
        let d = windowed(9, WindowConfig::new(3));
        let mut session = d.session(1);
        session.push_round(0, &[0], &[1]);
        session.push_round(1, &[1], &[1]);
        assert_eq!(session.windows_committed(), 0);
        session.push_round(2, &[2], &[0]);
        // Window [0, 3) is complete: its commit region is final.
        assert_eq!(session.windows_committed(), 1);
    }

    #[test]
    #[should_panic(expected = "pushed in order")]
    fn out_of_order_round_panics() {
        let d = windowed(4, WindowConfig::new(2));
        d.session(1).push_round(1, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "stream ended early")]
    fn early_finish_panics() {
        let d = windowed(4, WindowConfig::new(2));
        let mut session = d.session(1);
        session.push_round(0, &[0], &[0]);
        session.finish();
    }

    #[test]
    fn from_epochs_splices_to_the_monolithic_graph() {
        // Split the 6-round time strip at round 3: the cross-boundary
        // measurement edge (2–3) lives in the late piece and references
        // the early detector through the remap table. Decodes must match
        // the monolithic construction bit for bit.
        let (full, rounds) = time_strip(6);
        let mut early = DecodingGraph::new(3);
        early.add_edge(0, None, 1e-2, 1);
        early.add_edge(0, Some(1), 5e-2, 0);
        early.add_edge(1, Some(2), 5e-2, 0);
        // Late piece: local 0 = global 2 (the early-side endpoint of the
        // boundary edge), locals 1..=3 = globals 3..=5.
        let mut late = DecodingGraph::new(4);
        late.add_edge(0, Some(1), 5e-2, 0);
        late.add_edge(1, Some(2), 5e-2, 0);
        late.add_edge(2, Some(3), 5e-2, 0);
        late.add_edge(3, None, 1e-2, 0);
        let epochs = [
            GraphEpoch {
                graph: early,
                rounds_of: vec![0, 1, 2],
                global_of: vec![0, 1, 2],
            },
            GraphEpoch {
                graph: late,
                rounds_of: vec![2, 3, 4, 5],
                global_of: vec![2, 3, 4, 5],
            },
        ];
        for window in [1u32, 2, 3, 6] {
            let spliced = Arc::new(WindowedDecoder::from_epochs(
                6,
                &epochs,
                1,
                WindowConfig::new(window),
                mwpm_factory(),
            ));
            let mono = Arc::new(WindowedDecoder::new(
                full.clone(),
                rounds.clone(),
                1,
                WindowConfig::new(window),
                mwpm_factory(),
            ));
            for s in [vec![], vec![0], vec![2, 3], vec![0, 5], vec![1, 4]] {
                assert_eq!(stream(&spliced, &s), stream(&mono, &s), "w={window} {s:?}");
            }
        }
    }

    #[test]
    fn from_epochs_carries_across_the_boundary() {
        // A measurement-error pair straddling the epoch boundary must be
        // matched through the cross-epoch edge and carried across commit
        // cuts: no logical flip at any window size.
        let mut early = DecodingGraph::new(2);
        early.add_edge(0, None, 1e-2, 1);
        early.add_edge(0, Some(1), 5e-2, 0);
        let mut late = DecodingGraph::new(3);
        late.add_edge(0, Some(1), 5e-2, 0);
        late.add_edge(1, Some(2), 5e-2, 0);
        late.add_edge(2, None, 1e-2, 0);
        let epochs = [
            GraphEpoch {
                graph: early,
                rounds_of: vec![0, 1],
                global_of: vec![0, 1],
            },
            GraphEpoch {
                graph: late,
                rounds_of: vec![1, 2, 3],
                global_of: vec![1, 2, 3],
            },
        ];
        for window in 1..=4u32 {
            let d = Arc::new(WindowedDecoder::from_epochs(
                4,
                &epochs,
                1,
                WindowConfig::new(window),
                mwpm_factory(),
            ));
            assert_eq!(stream(&d, &[1, 2]), 0, "boundary pair, window {window}");
            assert_eq!(stream(&d, &[2, 3]), 0, "late pair, window {window}");
        }
    }

    #[test]
    #[should_panic(expected = "relabelled")]
    fn from_epochs_rejects_inconsistent_round_labels() {
        let mut g = DecodingGraph::new(1);
        g.add_edge(0, None, 1e-2, 0);
        let epochs = [
            GraphEpoch {
                graph: g.clone(),
                rounds_of: vec![0],
                global_of: vec![0],
            },
            GraphEpoch {
                graph: g,
                rounds_of: vec![1],
                global_of: vec![0],
            },
        ];
        WindowedDecoder::from_epochs(1, &epochs, 1, WindowConfig::new(1), mwpm_factory());
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn commit_above_window_panics() {
        WindowConfig::new(2).with_commit(3);
    }

    #[test]
    fn session_outlives_its_scope_and_is_send() {
        let rounds = 8u32;
        let decoder = windowed(rounds as usize, WindowConfig::new(4));
        let mut session = {
            // The session keeps the decoder alive through its own Arc, so
            // it escapes the block that opened it.
            let handle = Arc::clone(&decoder);
            handle.session(2)
        };
        // Lane 0 carries the syndrome {1, 2}; lane 1 the syndrome {0}.
        for t in 0..rounds {
            let word = match t {
                0 => 0b10,
                1 | 2 => 0b01,
                _ => 0,
            };
            session.push_round(t, &[t], &[word]);
        }
        assert_eq!(session.filled_rounds(), rounds);
        // Sessions are Send: finish on another thread.
        let got = std::thread::spawn(move || session.finish()).join().unwrap();
        assert_eq!(got, vec![stream(&decoder, &[1, 2]), stream(&decoder, &[0])]);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn commit_horizon_tracks_committed_windows() {
        // 8 rounds, window 4, commit 2: windows end at rounds 4, 6, 8 but
        // each *commits* only its first 2 rounds (the last commits to the
        // end of time).
        let d = windowed(8, WindowConfig::new(4));
        assert_eq!(d.commit_horizon(0), 0);
        assert_eq!(d.commit_horizon(1), 2);
        assert_eq!(d.commit_horizon(2), 4);
        assert_eq!(d.commit_horizon(3), 8);
        assert_eq!(d.commit_horizon(99), 8);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn struct_literal_config_is_revalidated() {
        // Public fields can bypass the WindowConfig constructors; the
        // decoder must still refuse a commit step of zero (it would loop
        // forever) or one beyond the window (it would skip rounds).
        let (g, r) = time_strip(4);
        WindowedDecoder::new(
            g,
            r,
            1,
            WindowConfig {
                window: 2,
                commit: 0,
            },
            mwpm_factory(),
        );
    }

    #[test]
    fn sparse_decodes_bit_identically_to_eager() {
        // The lazy window plans must reproduce the retired eager
        // per-window construction's node order, edge order and
        // instrumentation exactly. Pinned: the eager decoder's results for
        // these inputs, one bitmask per (rounds, window) whose bit `i` is
        // syndrome `i`'s flip.
        const EAGER: [[u8; 6]; 3] = [
            [0, 0b01_0010, 0b01_0010, 0b01_0010, 0b01_0010, 0b01_0010],
            [0, 0b01_0010, 0b01_0010, 0b01_0010, 0b01_0010, 0b01_0010],
            [0, 0b01_0010, 0b01_0010, 0b01_0010, 0b01_0010, 0b01_0010],
        ];
        for (rounds, masks) in [5usize, 8, 12].into_iter().zip(EAGER) {
            for (window, mask) in (1..=6u32).zip(masks) {
                let d = windowed(rounds, WindowConfig::new(window));
                let last = rounds - 1;
                let syndromes = [
                    vec![],
                    vec![0],
                    vec![last],
                    vec![1, 2],
                    vec![0, last],
                    vec![2, 3, last - 1],
                ];
                for (i, s) in syndromes.iter().enumerate() {
                    assert_eq!(
                        stream(&d, s),
                        u64::from(mask >> i & 1),
                        "rounds={rounds} w={window} {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn structurally_identical_windows_share_one_backend() {
        // A long uniform time strip has three distinct window shapes: the
        // first (initial boundary + observable), the steady-state
        // interior, and the final (cut = MAX, end boundary). A stream
        // dirtying every one of the 14 windows compiles exactly those
        // three backends (the retired eager path paid one per window).
        let d = windowed(30, WindowConfig::new(4));
        assert_eq!(d.num_windows(), 14);
        assert_eq!(d.compiled_backends(), 0, "plans are lazy");
        assert_eq!(stream(&d, &(0..30).collect::<Vec<_>>()), 0);
        assert_eq!(d.compiled_backends(), 3);
        assert_eq!(d.live_plans(), 14, "the memo keeps a short horizon");
    }

    #[test]
    fn second_session_resolves_no_plan_again() {
        // Sibling sessions over one short decoder share the plan memo:
        // once the first session has resolved every window, the second
        // hits the memo for each one — the very same plans, no backend
        // compiled and no plan rebuilt.
        let d = windowed(30, WindowConfig::new(4));
        let every_round: Vec<usize> = (0..30).collect();
        assert_eq!(stream(&d, &every_round), 0);
        let memo = |d: &WindowedDecoder| -> Vec<(usize, Arc<WindowPlan>)> {
            let table = d.plans.lock().unwrap();
            let mut plans: Vec<_> = table
                .resolved
                .iter()
                .map(|(&i, p)| (i, Arc::clone(p)))
                .collect();
            plans.sort_unstable_by_key(|&(i, _)| i);
            plans
        };
        let before = memo(&d);
        let backends = d.compiled_backends();
        assert_eq!(before.len(), d.num_windows());
        assert_eq!(stream(&d, &every_round), 0);
        let after = memo(&d);
        assert_eq!(d.compiled_backends(), backends);
        assert_eq!(d.live_plans(), before.len());
        for ((i, a), (j, b)) in before.iter().zip(&after) {
            assert_eq!(i, j);
            assert!(Arc::ptr_eq(a, b), "window {i} was resolved again");
        }
    }

    #[test]
    fn canonical_backends_decode_an_all_zero_window_to_zero() {
        // The premise of fast-forward: every canonical backend decodes an
        // all-zero window to zero observable flips and zero carries, in
        // every lane, so skipping a clean window is exact.
        let uf_factory = || -> DecoderFactory { Box::new(|g| Box::new(UnionFindDecoder::new(g))) };
        for make in [mwpm_factory as fn() -> DecoderFactory, uf_factory] {
            for (rounds, window) in [(6usize, 6u32), (30, 4), (9, 2)] {
                let (g, r) = time_strip(rounds);
                let d = Arc::new(WindowedDecoder::new(
                    g,
                    r,
                    1,
                    WindowConfig::new(window),
                    make(),
                ));
                stream(&d, &(0..rounds).collect::<Vec<_>>());
                let canon = d.plans.lock().unwrap().canon.clone();
                assert!(!canon.is_empty());
                for backend in canon {
                    let zeros = BitBatch::zeros(backend.graph().num_nodes());
                    let mut predictions = Vec::new();
                    backend.decode_batch(&zeros, &mut predictions);
                    assert!(predictions.iter().all(|&p| p == 0), "{predictions:?}");
                }
            }
        }
    }

    #[test]
    fn advance_silent_matches_empty_pushes() {
        let rounds = 20usize;
        let d = windowed(rounds, WindowConfig::new(4));
        let mut bulk = d.session(2);
        let mut dense = d.session(2);
        // A defect pair mid-stream, silence elsewhere.
        for t in 0..rounds as u32 {
            let word = if t == 9 || t == 10 { 0b01 } else { 0 };
            dense.push_round(t, &[t], &[word]);
        }
        bulk.advance_silent(9);
        bulk.push_round(9, &[9], &[0b01]);
        bulk.push_round(10, &[10], &[0b01]);
        bulk.advance_silent(rounds as u32 - 11);
        assert_eq!(bulk.windows_committed(), dense.windows_committed());
        assert_eq!(bulk.finish(), dense.finish());
    }

    #[test]
    fn fast_forward_skips_clean_windows_exactly() {
        // Defects confined to one window of a long stream: the session
        // decodes only the windows overlapping the event (and any
        // carries), yet commits what the retired eager decoder — which
        // decoded every window — did for the same input (pinned: 0).
        let d = windowed(40, WindowConfig::new(4));
        for pair_at in [0usize, 13, 21, 38] {
            assert_eq!(stream(&d, &[pair_at, pair_at + 1]), 0, "pair at {pair_at}");
        }
        // Only the windows near the touched rounds resolved a plan, over
        // three distinct backends.
        assert_eq!(d.compiled_backends(), 3);
        assert!(d.live_plans() < d.num_windows());
    }

    #[test]
    fn carry_propagates_across_a_skipped_stretch() {
        // A cross-cut pair right after a long silent stretch: the carry
        // produced by the committing window re-dirties the partner round,
        // so fast-forwarding must not skip the follow-up window that
        // consumes the carry.
        let rounds = 32usize;
        let d = windowed(rounds, WindowConfig::new(2).with_commit(1));
        let mut session = d.session(1);
        session.advance_silent(20);
        // Pair split exactly across the commit cut of window [20, 22).
        session.push_round(20, &[20], &[1]);
        session.push_round(21, &[21], &[1]);
        session.advance_silent(rounds as u32 - 22);
        assert_eq!(
            session.finish(),
            vec![0],
            "pair must cancel through the carry"
        );
        // Same but the defect-free twin: everything skips, no flip.
        let mut quiet = d.session(1);
        quiet.advance_silent(rounds as u32);
        assert_eq!(quiet.windows_committed(), d.num_windows());
        assert_eq!(quiet.finish(), vec![0]);
    }

    #[test]
    fn committed_plans_are_evicted_on_long_sparse_streams() {
        // A 10⁵-round stream with a defect pair every 37 rounds resolves
        // a few plans per event — several thousand in all, far past the
        // memo cap. Once the memo is full, the resolving session drops
        // every plan below its commit frontier, so the memo stays bounded
        // by the cap, never O(windows).
        let rounds = 100_000u32;
        let d = windowed(rounds as usize, WindowConfig::new(4));
        let mut session = d.session(1);
        let mut max_live = 0usize;
        let mut t = 0u32;
        while t + 2 <= rounds {
            session.push_round(t, &[t], &[1]);
            session.push_round(t + 1, &[t + 1], &[1]);
            let silent = 35.min(rounds - t - 2);
            session.advance_silent(silent);
            t += 2 + silent;
            max_live = max_live.max(d.live_plans());
        }
        session.advance_silent(rounds - t);
        assert!(
            (PLAN_MEMO_CAP / 2..=PLAN_MEMO_CAP).contains(&max_live),
            "memo high-water {max_live}, cap {PLAN_MEMO_CAP}"
        );
        assert!(d.live_plans() <= PLAN_MEMO_CAP);
        // The events did force plan resolution, and eviction leaves the
        // shared backends alone.
        assert!((1..=4).contains(&d.compiled_backends()));
        assert_eq!(session.finish(), vec![0], "each pair cancels locally");
    }

    #[test]
    #[should_panic(expected = "past the stream end")]
    fn advance_silent_past_the_end_panics() {
        let d = windowed(4, WindowConfig::new(2));
        d.session(1).advance_silent(5);
    }
}
