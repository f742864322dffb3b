//! `availability` and `deform_stream`: a d=5 memory under seeded strikes
//! and the adaptive deformation timeline, decoded in 64-lane batches.
//!
//! * `availability` streams a 10⁵-round horizon through the sparse path:
//!   the periodic model, `SparseRoundStream`, `push_round_sparse` and
//!   `advance_silent` (silent windows fast-forward).
//! * `deform_stream` streams a 2 000-round horizon through the dense
//!   eager path: the monolithic model, `RoundStream` and `push_round`.
//!
//! One step is one call that feeds the session rounds.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_deformer::prelude::*;
use surf_deformer::sim::SessionError;

use crate::bench::{Checked, Limit, Phase, Throughput, Workload};
use crate::trace::{Tracer, OP};

const D: usize = 5;
/// Window of 2d rounds committing d per step.
const WINDOW: u32 = 2 * D as u32;
const LANES: usize = 64;
/// Strikes per horizon, each healing after `DURATION` rounds.
const STRIKES: usize = 4;
const DURATION: u32 = 40;
/// Rounds between a strike (or heal) and the new geometry.
const REACTION: u32 = 2;
/// The imprecise detector's draws do not depend on the seed (the
/// `fig14b_streamed` binary's fixed stream). Its false positives shape
/// every epoch's geometry, so seeded draws would make some seeds decode
/// an enlarged patch for most of the horizon and others not.
const DETECTOR_SEED: u64 = 0x14BB;
/// `deform_stream` batches replayed through the sparse path by the check.
const CHECK_BATCHES: u64 = 2;
/// Rounds of `availability`'s first batch replayed densely by the check.
const CHECK_ROUNDS: u32 = 4_000;

/// Which feed path a streaming workload times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    Availability,
    DeformStream,
}

impl Stream {
    fn rounds(self) -> u32 {
        match self {
            Stream::Availability => 100_000,
            Stream::DeformStream => 2_000,
        }
    }

    fn sparse(self) -> bool {
        self == Stream::Availability
    }
}

pub struct State {
    config: SessionConfig,
    session: DecodeSession,
    seed: u64,
    /// Per-lane committed observables of batch 0 after `CHECK_ROUNDS`
    /// rounds (`availability`), recorded by the timed phase.
    snapshot: Option<Vec<u64>>,
    /// Failure counts of the batches the timed phase completed.
    failures: Vec<u64>,
}

/// The RNG of batch `batch` under `seed`.
fn batch_rng(seed: u64, batch: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ batch)
}

/// Lane-packs observable 0 of every lane.
fn packed(observables: &[u64]) -> u64 {
    observables
        .iter()
        .enumerate()
        .fold(0, |acc, (lane, &mask)| acc | (mask & 1) << lane)
}

/// Where the strikes land, in order: interior data and syndrome qubits,
/// an edge and a corner. Every seed strikes the same sites in the same
/// order, so every seed's timeline passes through the same geometries.
const SITES: [(i32, i32); STRIKES] = [(5, 5), (4, 6), (1, 5), (9, 9)];

/// One radius-1 strike on each of `SITES`, each healing after `DURATION`
/// rounds. Strike `i` lands at a seeded round within a twentieth of the
/// horizon of round `(i + 1) * rounds / (STRIKES + 1)`: stratified, so
/// every seed spends about the same rounds on each epoch's geometry.
fn strikes(seed: u64, rounds: u32) -> DefectSchedule {
    let patch = Patch::rotated(D);
    let mut universe = patch.data_qubits();
    universe.extend(patch.syndrome_qubits());
    let model = CosmicRayModel {
        event_rate_per_qubit_round: 0.0,
        duration_rounds: u64::from(DURATION),
        region_radius: 1,
        defect_error_rate: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_57A1);
    let spacing = rounds / (STRIKES as u32 + 1);
    let jitter = rounds / 20;
    DefectSchedule::from_episodes(SITES.iter().zip(1u32..).map(|(&(x, y), i)| {
        let start = i * spacing - jitter / 2 + rng.gen_range(0..jitter);
        DefectEpisode::temporary(
            start,
            start + DURATION,
            DefectMap::from_qubits(
                model.affected_region(Coord::new(x, y), &universe),
                model.defect_error_rate,
            ),
        )
    }))
}

/// Feeds batches to forks of a compiled session, timing every call.
struct Feed<'a> {
    /// Sparse path (`push_round_sparse` + `advance_silent`) or dense.
    sparse: bool,
    tr: &'a mut Tracer,
    phase: &'a mut Phase,
    meter: &'a mut Throughput,
    limit: Limit,
    /// Windows the current batch's session has committed.
    windows: u32,
}

impl Feed<'_> {
    fn stopped(&self) -> bool {
        self.limit.reached(self.meter.started(), self.phase.steps)
    }

    /// Times one push; it is a commit if it committed a window.
    fn push(
        &mut self,
        session: &mut DecodeSession,
        detectors: Option<&[u32]>,
        words: &[u64],
    ) -> Result<(), SessionError> {
        let open = self.tr.enter();
        let started = Instant::now();
        let out = match detectors {
            Some(detectors) => session.push_round_sparse(detectors, words),
            None => session.push_round(words),
        };
        let ended = Instant::now();
        let committed = out
            .as_ref()
            .map_or(0, |o| o.windows_committed - self.windows);
        self.tr.exit(
            open,
            if committed > 0 {
                "sim.session.push_commit"
            } else {
                "sim.session.push_buffer"
            },
        );
        let out = out?;
        self.phase.steps += 1;
        if committed > 0 {
            self.phase
                .latencies_us
                .push((ended - started).as_secs_f64() * 1e6);
            self.phase
                .count("sim.session.windows_decoded", f64::from(committed));
        }
        self.windows = out.windows_committed;
        self.meter.add(LANES as u64, ended);
        Ok(())
    }

    /// Advances up to `rounds` silent rounds. A window completing inside
    /// the stretch was fast-forwarded unless an event landed in it: window
    /// `k` starts at round `k * commit`, and `last_event` is the latest
    /// round pushed so far.
    fn advance(
        &mut self,
        session: &mut DecodeSession,
        rounds: u32,
        last_event: Option<u32>,
    ) -> Result<(), SessionError> {
        let filled = session.filled_rounds();
        let out = self.tr.span("sim.session.advance_silent", || {
            session.advance_silent(rounds)
        })?;
        let now = Instant::now();
        let step = out.round + 1 - filled;
        self.phase.steps += 1;
        self.phase
            .count("sim.session.advance_silent.rounds", f64::from(step));
        let commit = session.config().window.commit;
        for k in self.windows..out.windows_committed {
            let saw_event = last_event.is_some_and(|r| r >= k * commit);
            self.phase.count(
                if saw_event {
                    "sim.session.windows_decoded"
                } else {
                    "sim.session.windows_fast_forwarded"
                },
                1.0,
            );
        }
        self.windows = out.windows_committed;
        self.meter.add(LANES as u64 * u64::from(step), now);
        Ok(())
    }

    /// Streams batch `batch` of `base` to completion and returns its
    /// failure count, or `None` when the limit stopped it first. With
    /// `snapshot` given, the sparse path records every lane's committed
    /// observables once `CHECK_ROUNDS` rounds are in.
    fn batch(
        &mut self,
        base: &DecodeSession,
        seed: u64,
        batch: u64,
        snapshot: Option<&mut Option<Vec<u64>>>,
    ) -> Result<Option<u64>, SessionError> {
        let op = self.tr.enter();
        let mut session = self.tr.span("sim.session.fork", || base.fork(LANES));
        self.windows = 0;
        let result = if self.sparse {
            self.sparse_batch(&mut session, seed, batch, snapshot)
        } else {
            self.dense_batch(&mut session, seed, batch)
        };
        let result = match result {
            Ok(Some(truth)) => self
                .tr
                .span("sim.session.finish", || session.finish())
                .map(|predictions| Some(u64::from((packed(&predictions) ^ truth).count_ones()))),
            Ok(None) => Ok(None),
            Err(e) => Err(e),
        };
        self.tr.exit(op, OP);
        result
    }

    /// Feeds every round of one sparse batch; returns the true observables.
    fn sparse_batch(
        &mut self,
        session: &mut DecodeSession,
        seed: u64,
        batch: u64,
        mut snapshot: Option<&mut Option<Vec<u64>>>,
    ) -> Result<Option<u64>, SessionError> {
        let mut rng = batch_rng(seed, batch);
        let mut stream = self.tr.span("sim.sampler.begin", || {
            let mut stream = session.sparse_round_stream();
            stream.begin(&mut rng, LANES);
            stream
        });
        let total = session.total_rounds();
        let check_at = snapshot.as_ref().map(|_| CHECK_ROUNDS.min(total));
        let mut last_event = None;
        loop {
            if self.stopped() {
                return Ok(None);
            }
            let open = self.tr.enter();
            let event = stream.next_event();
            self.tr.exit(open, "sim.sampler.next");
            let target = event.as_ref().map_or(total, |e| e.round);
            while session.filled_rounds() < target {
                let filled = session.filled_rounds();
                let gap = match check_at {
                    Some(at) if filled < at => (target - filled).min(at - filled),
                    _ => target - filled,
                };
                self.advance(session, gap, last_event)?;
                if check_at == Some(session.filled_rounds()) {
                    if let Some(slot) = snapshot.as_deref_mut() {
                        *slot = Some(session.observables().to_vec());
                    }
                }
            }
            let Some(event) = event else {
                break;
            };
            self.phase.count("sim.sampler.event_rounds", 1.0);
            self.push(session, Some(event.detectors), event.words)?;
            last_event = Some(event.round);
            if check_at == Some(session.filled_rounds()) {
                if let Some(slot) = snapshot.as_deref_mut() {
                    *slot = Some(session.observables().to_vec());
                }
            }
        }
        Ok(Some(stream.true_observables()))
    }

    /// Feeds every round of one dense batch; returns the true observables.
    fn dense_batch(
        &mut self,
        session: &mut DecodeSession,
        seed: u64,
        batch: u64,
    ) -> Result<Option<u64>, SessionError> {
        let mut rng = batch_rng(seed, batch);
        let mut stream = self.tr.span("sim.sampler.begin", || {
            let mut stream = session.round_stream();
            stream.begin(&mut rng, LANES);
            stream
        });
        loop {
            if self.stopped() {
                return Ok(None);
            }
            let open = self.tr.enter();
            let slice = stream.next_round();
            self.tr.exit(open, "sim.sampler.next");
            let Some(slice) = slice else {
                break;
            };
            self.phase.count("sim.sampler.event_rounds", 1.0);
            self.push(session, None, slice.words)?;
        }
        Ok(Some(stream.true_observables()))
    }
}

impl Workload for Stream {
    type State = State;
    const LATENCY: &'static str = "commit";

    fn setup(&self, seed: u64, counts: &mut BTreeMap<&'static str, f64>) -> State {
        let rounds = self.rounds();
        let schedule = strikes(seed, rounds);
        let started = Instant::now();
        let (timeline, passes) = PatchTimeline::adaptive_schedule(
            Patch::rotated(D),
            DefectMap::new(),
            EnlargeBudget::uniform(2),
            &schedule,
            &DefectDetector::paper_imprecise(),
            REACTION,
            rounds,
            &mut StdRng::seed_from_u64(DETECTOR_SEED),
        );
        counts.insert("core.adaptive_schedule_s", started.elapsed().as_secs_f64());
        counts.insert(
            "core.replan.layers_added",
            passes
                .iter()
                .map(|p| p.report.layers_added.iter().sum::<usize>() as f64)
                .sum(),
        );
        let config = SessionConfig::new(timeline, Basis::Z, rounds)
            .with_window(WindowConfig::new(WINDOW))
            .with_schedule(schedule)
            .with_sparse(self.sparse());
        let started = Instant::now();
        let session = config.open(LANES);
        counts.insert("sim.model.open_s", started.elapsed().as_secs_f64());
        State {
            config,
            session,
            seed,
            snapshot: None,
            failures: Vec::new(),
        }
    }

    fn run(&self, state: &mut State, limit: Limit, tr: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let mut meter = Throughput::start();
        let mut feed = Feed {
            sparse: self.sparse(),
            tr,
            phase: &mut phase,
            meter: &mut meter,
            limit,
            windows: 0,
        };
        for batch in 0.. {
            let snapshot = (batch == 0 && self.sparse()).then_some(&mut state.snapshot);
            match feed.batch(&state.session, state.seed, batch, snapshot) {
                Ok(Some(failures)) => state.failures.push(failures),
                // Cut by the limit.
                Ok(None) => break,
                Err(e) => {
                    eprintln!("batch {batch}: {e}");
                    feed.phase.failed += 1;
                    if feed.stopped() {
                        break;
                    }
                }
            }
        }
        phase.attempted = phase.steps + phase.failed;
        let (wall_s, shot_rounds, rate) = meter.finish();
        phase.wall_s = wall_s;
        phase.shot_rounds = shot_rounds;
        phase.shot_rounds_per_s = rate;
        phase
    }

    fn check(&self, state: State, _phase: &Phase) -> Checked {
        let mut checked = Checked::default();
        match self {
            // The timed path is dense: replay the first batches through
            // the sparse path and compare failure counts.
            Stream::DeformStream => {
                let sparse = state.config.clone().with_sparse(true).open(LANES);
                for batch in 0..CHECK_BATCHES {
                    let dense = match state.failures.get(batch as usize) {
                        Some(&f) => Ok(f),
                        None => untimed_batch(&state.session, state.seed, batch, false, None),
                    };
                    let other = untimed_batch(&sparse, state.seed, batch, true, None);
                    checked.expect(
                        matches!((&dense, &other), (Ok(a), Ok(b)) if a == b),
                        &format!("batch {batch}: dense {dense:?} vs sparse {other:?} failures"),
                    );
                }
            }
            // The timed path is sparse: replay the first rounds of batch 0
            // densely and compare every lane's committed observables.
            Stream::Availability => {
                let mut sparse = Ok(state.snapshot);
                if matches!(sparse, Ok(None)) {
                    // The timed phase stopped short of `CHECK_ROUNDS`.
                    let mut slot = None;
                    sparse = untimed_batch(&state.session, state.seed, 0, true, Some(&mut slot))
                        .map(|_| slot);
                }
                let dense = dense_observables(&state.session, state.seed);
                checked.expect(
                    matches!((&sparse, &dense), (Ok(Some(a)), Ok(b)) if a == b),
                    &format!(
                        "batch 0 after {CHECK_ROUNDS} rounds: sparse and dense committed \
                         observables differ ({:?} vs {:?})",
                        sparse.map(|v| v.map(|v| packed(&v))),
                        dense.map(|v| packed(&v))
                    ),
                );
            }
        }
        checked
    }
}

/// Failure count of batch `batch` of `base`, untimed.
fn untimed_batch(
    base: &DecodeSession,
    seed: u64,
    batch: u64,
    sparse: bool,
    snapshot: Option<&mut Option<Vec<u64>>>,
) -> Result<u64, SessionError> {
    let mut phase = Phase::default();
    let mut meter = Throughput::start();
    let mut feed = Feed {
        sparse,
        tr: &mut Tracer::new(false),
        phase: &mut phase,
        meter: &mut meter,
        limit: Limit::Steps(u64::MAX),
        windows: 0,
    };
    let failures = feed.batch(base, seed, batch, snapshot)?;
    Ok(failures.expect("an unlimited batch completes"))
}

/// Every lane's committed observables after the first `CHECK_ROUNDS`
/// rounds of batch 0 of `base`, pushed densely.
fn dense_observables(base: &DecodeSession, seed: u64) -> Result<Vec<u64>, SessionError> {
    let mut session = base.fork(LANES);
    let mut stream = session.round_stream();
    stream.begin(&mut batch_rng(seed, 0), LANES);
    while let Some(slice) = stream.next_round() {
        if slice.round >= CHECK_ROUNDS {
            break;
        }
        session.push_round(slice.words)?;
    }
    Ok(session.observables().to_vec())
}
