//! Criterion micro-benchmarks for event-driven streaming: the
//! rounds-per-second of a long d=5 stream through a freshly built
//! windowed decoder, fed every round (`dense_feed`) vs fed only its firing
//! rounds with silent stretches skipped in bulk (`event_feed`), plus the
//! worst-case per-window commit latency of a pre-built decoder.
//!
//! Both feeds share one decoder path: lazily resolved, structurally
//! shared window plans, and clean windows fast-forwarded without touching
//! the backend. The dense feed pays one push per round and, at 64 lanes,
//! decodes nearly every window; the event feed jumps from event to event,
//! which at low lane counts skips the mostly-clean windows outright — the
//! gap that makes 10⁵-round availability sweeps tractable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_matching::{WindowConfig, WindowedDecoder};
use surf_sim::{
    DecoderKind, DecoderPrior, DetectorModel, NoiseParams, QubitNoise, RoundStream,
    SparseRoundStream,
};

const D: usize = 5;
/// A long horizon: hundreds of windows, a handful of distinct shapes.
const ROUNDS: u32 = 2048;

fn decoding_model(rounds: u32) -> DetectorModel {
    let patch = Patch::rotated(D);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
}

fn build(model: &DetectorModel) -> Arc<WindowedDecoder> {
    Arc::new(WindowedDecoder::new(
        model.graph.clone(),
        model.detector_rounds.clone(),
        1,
        WindowConfig::new(2 * D as u32),
        DecoderKind::Mwpm.factory(),
    ))
}

/// Streams the whole horizon once: build the decoder, feed it, finish.
/// Building inside the timed loop charges each run its plan resolution.
fn bench_rounds_per_sec(c: &mut Criterion) {
    let model = decoding_model(ROUNDS);
    let mut group = c.benchmark_group("sparse_streaming_rounds_per_sec");
    group.sample_size(10);
    for lanes in [1usize, 64] {
        group.bench_with_input(
            BenchmarkId::new("dense_feed", lanes),
            &lanes,
            |b, &lanes| {
                let mut stream = RoundStream::new(&model);
                let mut rng = StdRng::seed_from_u64(31);
                b.iter(|| {
                    let decoder = build(&model);
                    stream.begin(&mut rng, lanes);
                    let mut session = decoder.session(lanes);
                    while let Some(slice) = stream.next_round() {
                        session.push_round(slice.round, slice.detectors, slice.words);
                    }
                    std::hint::black_box(session.finish());
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("event_feed", lanes),
            &lanes,
            |b, &lanes| {
                let mut events = SparseRoundStream::new(&model);
                let mut rng = StdRng::seed_from_u64(31);
                b.iter(|| {
                    let decoder = build(&model);
                    events.begin(&mut rng, lanes);
                    let total = events.total_rounds();
                    let mut session = decoder.session(lanes);
                    let mut filled = 0u32;
                    while let Some(event) = events.next_event() {
                        if event.round > filled {
                            session.advance_silent(event.round - filled);
                        }
                        session.push_round(event.round, event.detectors, event.words);
                        filled = event.round + 1;
                    }
                    if filled < total {
                        session.advance_silent(total - filled);
                    }
                    std::hint::black_box(session.finish());
                });
            },
        );
    }
    group.finish();
}

/// Worst-case wall-clock of the single push that completes (and decodes)
/// one window — the real-time latency bound — through a pre-built
/// decoder fed every round. A dirty window decodes through its shared
/// backend; a clean one commits in O(1).
fn bench_worst_commit_latency(c: &mut Criterion) {
    let rounds = 200u32;
    let model = decoding_model(rounds);
    let mut group = c.benchmark_group("sparse_commit_latency");
    let decoder = build(&model);
    let mut stream = RoundStream::new(&model);
    let mut rng = StdRng::seed_from_u64(17);
    group.bench_with_input(
        BenchmarkId::new("worst_commit", "dense_feed"),
        &(),
        |b, _| {
            b.iter(|| {
                stream.begin(&mut rng, 64);
                let mut session = decoder.session(64);
                let mut worst = Duration::ZERO;
                while let Some(slice) = stream.next_round() {
                    let before = session.windows_committed();
                    let t0 = Instant::now();
                    session.push_round(slice.round, slice.detectors, slice.words);
                    let dt = t0.elapsed();
                    if session.windows_committed() > before && dt > worst {
                        worst = dt;
                    }
                }
                std::hint::black_box(session.finish());
                std::hint::black_box(worst)
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_rounds_per_sec, bench_worst_commit_latency);
criterion_main!(benches);
