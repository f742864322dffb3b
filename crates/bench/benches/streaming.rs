//! Criterion micro-benchmarks for the streaming decode subsystem:
//! round-major sampling + windowed decoding against the full-batch path,
//! and the per-window commit latency as a function of window size (the
//! metric a real-time decoder must keep below the round cadence).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_matching::{Decoder, WindowConfig, WindowedDecoder};
use surf_sim::{
    BitBatch, DecoderKind, DecoderPrior, DetectorModel, NoiseParams, QubitNoise, RoundStream,
};

fn decoding_model(d: usize, rounds: u32) -> DetectorModel {
    let patch = Patch::rotated(d);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
}

fn windowed(model: &DetectorModel, window: u32) -> Arc<WindowedDecoder> {
    Arc::new(WindowedDecoder::new(
        model.graph.clone(),
        model.detector_rounds.clone(),
        1,
        WindowConfig::new(window),
        DecoderKind::Mwpm.factory(),
    ))
}

/// Detector ids of each round, ascending: the round-major feed order.
fn round_layout(model: &DetectorModel) -> Vec<Vec<u32>> {
    let mut layout = vec![Vec::new(); model.total_rounds() as usize];
    for (det, &round) in model.detector_rounds.iter().enumerate() {
        layout[round as usize].push(det as u32);
    }
    layout
}

/// Feeds one pre-sampled whole-history batch round by round through a
/// fresh session and returns its per-lane committed observables.
fn stream_batch(
    streamer: &Arc<WindowedDecoder>,
    layout: &[Vec<u32>],
    batch: &BitBatch,
    words: &mut Vec<u64>,
) -> Vec<u64> {
    let mut session = streamer.session(batch.lanes());
    for (round, detectors) in layout.iter().enumerate() {
        words.clear();
        words.extend(detectors.iter().map(|&d| batch.words()[d as usize]));
        session.push_round(round as u32, detectors, words);
    }
    session.finish()
}

/// Full-batch decode vs streamed (round-major feed + windowed decode) on
/// the same pre-sampled 64-shot batches.
fn bench_streamed_vs_batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_throughput_64_shots");
    for d in [3usize, 5] {
        let rounds = 2 * d as u32;
        let model = decoding_model(d, rounds);
        let sampler = model.batch_sampler();
        let mut rng = StdRng::seed_from_u64(5);
        let batches: Vec<BitBatch> = (0..8)
            .map(|_| {
                let mut b = BitBatch::zeros(model.num_detectors);
                sampler.sample_into(&mut rng, &mut b);
                b
            })
            .collect();
        let full = DecoderKind::Mwpm.build(model.graph.clone());
        let mut predictions = Vec::new();
        group.bench_with_input(BenchmarkId::new("full_batch", d), &d, |b, _| {
            b.iter(|| {
                for batch in &batches {
                    full.decode_batch(batch, &mut predictions);
                    std::hint::black_box(&predictions);
                }
            });
        });
        let layout = round_layout(&model);
        let mut words = Vec::new();
        for window in [2 * d as u32, rounds + 1] {
            let streamer = windowed(&model, window);
            let label = if window > rounds {
                "window_full"
            } else {
                "window_2d"
            };
            group.bench_with_input(BenchmarkId::new(label, d), &d, |b, _| {
                b.iter(|| {
                    for batch in &batches {
                        std::hint::black_box(stream_batch(&streamer, &layout, batch, &mut words));
                    }
                });
            });
        }
        // End-to-end streamed pipeline: sample round-major and feed the
        // session as rounds "arrive".
        let streamer = windowed(&model, 2 * d as u32);
        let mut stream = RoundStream::new(&model);
        let mut stream_rng = StdRng::seed_from_u64(6);
        group.bench_with_input(BenchmarkId::new("sample_and_stream", d), &d, |b, _| {
            b.iter(|| {
                stream.begin(&mut stream_rng, 64);
                let mut session = streamer.session(64);
                while let Some(slice) = stream.next_round() {
                    session.push_round(slice.round, slice.detectors, slice.words);
                }
                std::hint::black_box(session.finish());
            });
        });
    }
    group.finish();
}

/// Commit latency: the wall-clock cost of the single `push_round` that
/// completes (and therefore decodes) one window, per window size. This is
/// the latency bound a hardware syndrome link sees between delivering a
/// round and learning the committed correction of the oldest rounds.
fn bench_commit_latency(c: &mut Criterion) {
    let d = 5usize;
    let rounds = 20u32;
    let model = decoding_model(d, rounds);
    let mut group = c.benchmark_group("commit_latency_per_window");
    for window in [2u32, 6, 10, 21] {
        let streamer = windowed(&model, window);
        let mut stream = RoundStream::new(&model);
        let mut rng = StdRng::seed_from_u64(9);
        group.bench_with_input(BenchmarkId::new("commit", window), &window, |b, _| {
            b.iter(|| {
                stream.begin(&mut rng, 64);
                let mut session = streamer.session(64);
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
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_streamed_vs_batch_throughput,
    bench_commit_latency
);
criterion_main!(benches);
