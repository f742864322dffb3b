//! `react`: strike → session ready on the new geometry.
//!
//! A d=5 sparse session (periodic model) holds `HISTORY` rounds of
//! pushed syndrome. Each op takes the next strike of a seeded corpus,
//! runs one detection pass over the device (`DefectDetector::detect`),
//! re-plans the geometry (`Deformer::replan`), reads the planned patch's
//! distance (`Patch::distance`) and recompiles the live session onto the
//! new timeline, replaying its history (`DecodeSession::replan`). No
//! steady-state decode runs.
//!
//! The corpus holds a radius-1 and a radius-2 strike centred on every
//! qubit of the patch, each with its own fixed detector draws; the seed
//! orders it, so every seed times the same mix of strikes.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_deformer::prelude::*;
use surf_deformer::sim::SessionError;

use crate::bench::{Checked, Limit, Phase, Throughput, Workload};
use crate::trace::{Tracer, OP};

const D: usize = 5;
/// Enlargement budget per side.
const BUDGET: usize = 2;
const LANES: usize = 64;
/// Rounds the live session holds when strikes hit.
const HISTORY: u32 = 300;
const ROUNDS: u32 = 1_000;
/// Rounds from the strike to the new geometry.
const REACTION: u32 = 2;
/// Re-planned timelines the check compares against upfront compiles.
const CHECKED_PLANS: usize = 3;
/// Strike `i` of the corpus is always detected by the stream seeded with
/// `DETECTOR_SEED ^ i`, so each strike costs the same on every pass and
/// under every seed; the seed only orders the corpus.
const DETECTOR_SEED: u64 = 0xDE7EC7;

pub struct React;

pub struct State {
    seed: u64,
    patch: Patch,
    /// Every qubit a deformer with `BUDGET` may use: what detection scans.
    device: Vec<Coord>,
    config: SessionConfig,
    session: DecodeSession,
    /// The syndrome rounds the session holds.
    history: Vec<Vec<u64>>,
    deformer: Deformer,
    detector: DefectDetector,
    /// Strike footprints.
    corpus: Vec<DefectMap>,
    /// Corpus indices in the seed's order.
    order: Vec<usize>,
    next: usize,
    /// The first timelines the phase planned, for the check.
    planned: Vec<PatchTimeline>,
}

/// The radius-1 and radius-2 strikes centred on every qubit of `patch`,
/// over the `device` qubits.
fn corpus(patch: &Patch, device: &[Coord]) -> Vec<DefectMap> {
    let mut centres = patch.data_qubits();
    centres.extend(patch.syndrome_qubits());
    [1u32, 2]
        .iter()
        .flat_map(|&radius| {
            let model = CosmicRayModel {
                event_rate_per_qubit_round: 0.0,
                duration_rounds: 0,
                region_radius: radius as _,
                defect_error_rate: 0.5,
            };
            centres.iter().map(move |&c| {
                DefectMap::from_qubits(model.affected_region(c, device), model.defect_error_rate)
            })
        })
        .collect()
}

/// Samples the first `HISTORY` rounds of the unstruck patch's syndrome.
fn sample_history(session: &DecodeSession, seed: u64) -> Vec<Vec<u64>> {
    let mut stream = session.round_stream();
    stream.begin(&mut StdRng::seed_from_u64(seed ^ 0x4157_0511), LANES);
    let mut rounds = Vec::with_capacity(HISTORY as usize);
    while let Some(slice) = stream.next_round() {
        if slice.round >= HISTORY {
            break;
        }
        rounds.push(slice.words.to_vec());
    }
    rounds
}

/// Pushes `history` with `push_round`. A history pushed with
/// `push_round_sparse` cannot be re-planned onto a timeline with a new
/// epoch: the detector ids of its rounds change, and `replan` reports
/// `GeometryDiverged`.
fn feed(session: &mut DecodeSession, history: &[Vec<u64>]) -> Result<(), SessionError> {
    history
        .iter()
        .try_for_each(|words| session.push_round(words).map(drop))
}

/// The timeline that deploys `deformed` `REACTION` rounds after the
/// strike, keeping the true defects it still contains.
fn timeline(patch: &Patch, deformed: &Patch, truth: &DefectMap) -> PatchTimeline {
    let kept: DefectMap = truth
        .iter()
        .filter(|(q, _)| deformed.contains_data(*q) || deformed.contains_syndrome(*q))
        .map(|(q, info)| (q, info.error_rate))
        .collect();
    let mut timeline = PatchTimeline::fixed(patch.clone(), DefectMap::new());
    timeline.push_epoch(HISTORY + REACTION, deformed.clone(), kept);
    timeline
}

impl State {
    /// One reaction: whether the plan's reported distance matches the
    /// planned patch, and the layers the plan added.
    fn react(&mut self, tr: &mut Tracer) -> Result<(bool, usize), String> {
        let entry = self.order[self.next % self.order.len()];
        self.next += 1;
        let truth = &self.corpus[entry];
        let mut rng = StdRng::seed_from_u64(DETECTOR_SEED ^ entry as u64);
        let (detector, device) = (&self.detector, &self.device);
        let detected = tr.span("defects.detect", || {
            detector.detect(truth, device, &mut rng)
        });
        let deformer = &mut self.deformer;
        let report = tr
            .span("core.replan", || deformer.replan(&detected))
            .map_err(|e| format!("replan: {e:?}"))?;
        let planned = deformer.patch();
        let distance = tr.span("lattice.distance", || planned.distance());
        let plan = timeline(&self.patch, planned, truth);
        if self.planned.len() < CHECKED_PLANS {
            self.planned.push(plan.clone());
        }
        let session = &mut self.session;
        tr.span("sim.session.replan", || session.replan(plan))
            .map_err(|e| format!("session replan: {e}"))?;
        Ok((
            report.distance == distance,
            report.layers_added.iter().sum(),
        ))
    }
}

impl Workload for React {
    type State = State;
    const LATENCY: &'static str = "react";

    fn setup(&self, seed: u64, counts: &mut BTreeMap<&'static str, f64>) -> State {
        let patch = Patch::rotated(D);
        let b = BUDGET as i32;
        let footprint = Patch::rectangle_at(-b, -b, D + 2 * BUDGET, D + 2 * BUDGET);
        let mut device = footprint.data_qubits();
        device.extend(footprint.syndrome_qubits());
        let corpus = corpus(&patch, &device);
        // Fisher–Yates: the seed orders the corpus.
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let config = SessionConfig::new(
            PatchTimeline::fixed(patch.clone(), DefectMap::new()),
            Basis::Z,
            ROUNDS,
        )
        .with_window(WindowConfig::new(2 * D as u32))
        .with_sparse(true);
        let started = Instant::now();
        let mut session = config.open(LANES);
        counts.insert("sim.model.open_s", started.elapsed().as_secs_f64());
        let history = sample_history(&session, seed);
        feed(&mut session, &history).expect("history fits the session's layout");
        State {
            seed,
            history,
            deformer: Deformer::with_budget(patch.clone(), EnlargeBudget::uniform(BUDGET)),
            patch,
            device,
            config,
            session,
            detector: DefectDetector::paper_imprecise(),
            corpus,
            order,
            next: 0,
            planned: Vec::new(),
        }
    }

    fn run(&self, state: &mut State, limit: Limit, tr: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let mut meter = Throughput::start();
        while !limit.reached(meter.started(), phase.steps) {
            let op = tr.enter();
            let started = Instant::now();
            let outcome = state.react(tr);
            let ended = Instant::now();
            tr.exit(op, OP);
            phase.steps += 1;
            phase.attempted += 1;
            match outcome {
                Ok((true, layers)) => phase.count("core.replan.layers_added", layers as f64),
                Ok((false, _)) => {
                    eprintln!(
                        "reaction {}: reported distance differs from the plan",
                        phase.steps
                    );
                    phase.failed += 1;
                }
                Err(e) => {
                    eprintln!("reaction {}: {e}", phase.steps);
                    phase.failed += 1;
                }
            }
            phase
                .latencies_us
                .push((ended - started).as_secs_f64() * 1e6);
            // The recompile replays the history: LANES × HISTORY shot-rounds.
            meter.add(LANES as u64 * u64::from(HISTORY), ended);
        }
        let (wall_s, shot_rounds, rate) = meter.finish();
        phase.wall_s = wall_s;
        phase.shot_rounds = shot_rounds;
        phase.shot_rounds_per_s = rate;
        phase
    }

    /// A re-planned session and one compiled upfront with the same
    /// timeline, fed the same history and further rounds, must give equal
    /// outputs round by round and equal final predictions.
    fn check(&self, state: State, _phase: &Phase) -> Checked {
        let mut checked = Checked::default();
        let State {
            seed,
            config,
            session,
            history,
            planned,
            ..
        } = state;
        let live_plan = session.config().timeline.clone();
        let mut cases: Vec<(DecodeSession, PatchTimeline)> = Vec::new();
        for plan in planned {
            let mut replanned = config.open(LANES);
            let ready =
                feed(&mut replanned, &history).and_then(|()| replanned.replan(plan.clone()));
            match ready {
                Ok(()) => cases.push((replanned, plan)),
                Err(e) => checked.expect(false, &format!("re-planning a fresh session: {e}")),
            }
        }
        cases.push((session, live_plan));
        for (replanned, plan) in cases {
            let outcome = compare_with_upfront(&config, replanned, plan, &history, seed);
            checked.expect(
                outcome == Ok(true),
                &format!("replanned session vs upfront compile: {outcome:?}"),
            );
        }
        checked
    }
}

/// Feeds `replanned` and a session compiled upfront with `plan` the same
/// further rounds; `Ok(true)` when every output and the final
/// predictions agree.
fn compare_with_upfront(
    config: &SessionConfig,
    mut replanned: DecodeSession,
    plan: PatchTimeline,
    history: &[Vec<u64>],
    seed: u64,
) -> Result<bool, SessionError> {
    let mut upfront = SessionConfig {
        timeline: plan,
        ..config.clone()
    }
    .open(LANES);
    feed(&mut upfront, history)?;
    let mut stream = upfront.round_stream();
    stream.begin(&mut StdRng::seed_from_u64(seed ^ 0xF0_11_0E), LANES);
    let mut same = true;
    while let Some(slice) = stream.next_round() {
        if slice.round < HISTORY {
            continue;
        }
        same &= replanned.push_round(slice.words)? == upfront.push_round(slice.words)?;
    }
    Ok(same && replanned.finish()? == upfront.finish()?)
}
