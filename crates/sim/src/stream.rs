//! Round-major syndrome streaming.
//!
//! Batch sampling (`BatchSampler`) fills the whole experiment's detector
//! history at once — shot-major. Real-time decoding consumes the same
//! data *round-major*: all detectors of round `t` must be handed to the
//! decoder before round `t + 1` exists. A [`WideRoundStream`] bridges the
//! two. Each `begin` samples one batch of shot lanes through the sparse
//! sampler, then replays it in either of two shapes:
//!
//! * [`next_round`](WideRoundStream::next_round) emits *every* round in
//!   the order a hardware syndrome link would deliver it, silent detectors
//!   zero-filled from the model's round layout — the feed for
//!   `DecodeSession::push_round`;
//! * [`next_event`](WideRoundStream::next_event) emits only the rounds
//!   that fired, in ascending order — the feed for
//!   `DecodeSession::push_round_sparse`, with `advance_silent` over the
//!   gaps, so a batch costs O(firings) instead of O(rounds · detectors).
//!
//! Both shapes are exact. The sparse samplers consume the RNG
//! draw-for-draw like [`BatchSampler::sample_into`] and
//! [`BatchSampler::sample_wide_into`], so a streamed experiment is
//! bit-for-bit reproducible against `MemoryExperiment::run_basis` with the
//! same seed. The oracle is the sampler's own parity suite
//! (`sparse_sampling_matches_dense_bit_for_bit`,
//! `wide_sparse_matches_wide_dense_bit_for_bit`); this module's tests
//! check both replay shapes against the dense batch.
//!
//! # Widths
//!
//! A width-`N` stream carries `64·N` lanes. Sub-word `j` draws from
//! `rngs[j]` in a 64-lane stream's exact draw order, so it replays what a
//! 64-lane stream seeded from stream `j` would emit. [`RoundStream`] is
//! the `N = 1` instance, with a scalar face: `begin(rng, lanes)` and
//! `true_observables() -> u64`.
//!
//! # Periodic sources
//!
//! A stream over a [`PeriodicModel`] samples straight from the compressed
//! per-round template and reads round layouts by index arithmetic, in
//! both shapes: resident state is O(epochs + firings), not O(rounds),
//! which is what makes 10⁶-round horizons stream.

use std::sync::Arc;

use rand::Rng;
use surf_matching::RoundModelSource;

use crate::model::DetectorModel;
use crate::periodic::{PeriodicEvent, PeriodicModel, PeriodicScratch};
use crate::sampler::{BatchSampler, SparseBatch};

/// A monolithic model's sampler and round layout, built once per compiled
/// model by [`RoundSource::of_model`].
pub(crate) struct MonoRounds {
    sampler: BatchSampler,
    /// Round label of each detector.
    rounds_of: Vec<u32>,
    /// Detector ids sorted by (round, id); round `r` owns
    /// `order[round_start[r]..round_start[r + 1]]`.
    order: Vec<u32>,
    round_start: Vec<usize>,
}

impl MonoRounds {
    /// `round`'s detector ids, ascending.
    pub(crate) fn round(&self, round: u32) -> &[u32] {
        &self.order[self.round_start[round as usize]..self.round_start[round as usize + 1]]
    }
}

/// The compiled model behind a stream or a session family: which
/// detectors each round owns, and how to sample them. Clones share the
/// model by [`Arc`], so a session hands out streams without rebuilding
/// either.
#[derive(Clone)]
pub(crate) enum RoundSource {
    /// A whole-horizon [`DetectorModel`] with its O(rounds) round table.
    Mono(Arc<MonoRounds>),
    /// A compressed periodic template, served by index arithmetic —
    /// O(epochs) resident regardless of the horizon.
    Periodic(Arc<PeriodicModel>),
}

impl RoundSource {
    /// Builds `model`'s sampler and round layout.
    pub(crate) fn of_model(model: &DetectorModel) -> Self {
        let rounds_of = model.detector_rounds.clone();
        let mut round_start = vec![0usize; model.total_rounds() as usize + 1];
        for &r in &rounds_of {
            round_start[r as usize + 1] += 1;
        }
        for r in 1..round_start.len() {
            round_start[r] += round_start[r - 1];
        }
        let mut order: Vec<u32> = (0..model.num_detectors as u32).collect();
        order.sort_by_key(|&d| rounds_of[d as usize]);
        RoundSource::Mono(Arc::new(MonoRounds {
            sampler: model.batch_sampler(),
            rounds_of,
            order,
            round_start,
        }))
    }

    /// One past the largest round label (noisy rounds plus the readout).
    pub(crate) fn total_rounds(&self) -> u32 {
        match self {
            RoundSource::Mono(m) => (m.round_start.len() - 1) as u32,
            RoundSource::Periodic(pm) => RoundModelSource::total_rounds(&**pm),
        }
    }

    /// Number of detectors over the whole horizon.
    pub(crate) fn num_detectors(&self) -> usize {
        match self {
            RoundSource::Mono(m) => m.rounds_of.len(),
            RoundSource::Periodic(pm) => pm.num_detectors(),
        }
    }

    /// The round `det` belongs to, or `None` for an id outside the model.
    pub(crate) fn detector_round(&self, det: u32) -> Option<u32> {
        if det as usize >= self.num_detectors() {
            return None;
        }
        Some(match self {
            RoundSource::Mono(m) => m.rounds_of[det as usize],
            RoundSource::Periodic(pm) => RoundModelSource::detector_round(&**pm, det),
        })
    }

    /// Number of detectors in `round` — O(1) and allocation-free.
    pub(crate) fn detector_count(&self, round: u32) -> usize {
        match self {
            RoundSource::Mono(m) => {
                m.round_start[round as usize + 1] - m.round_start[round as usize]
            }
            RoundSource::Periodic(pm) => pm.detector_count_in_round(round),
        }
    }

    /// `round`'s detector ids in ascending order: borrowed from the table
    /// on the monolithic path, written into `buf` on the periodic one.
    pub(crate) fn detectors<'a>(&'a self, round: u32, buf: &'a mut Vec<u32>) -> &'a [u32] {
        match self {
            RoundSource::Mono(m) => m.round(round),
            RoundSource::Periodic(pm) => {
                buf.clear();
                pm.detectors_in(round..round + 1, buf);
                buf
            }
        }
    }
}

/// The detectors of one round of a stream batch and their firing words.
#[derive(Debug)]
pub struct RoundSlice<'a> {
    /// The QEC round (final-readout comparisons appear as round `rounds`).
    pub round: u32,
    /// Global detector indices, ascending: every detector of the round
    /// from [`next_round`](WideRoundStream::next_round), only those firing
    /// in some lane from [`next_event`](WideRoundStream::next_event).
    pub detectors: &'a [u32],
    /// 64-lane firing words, sub-word-major: sub-word `j`'s words, aligned
    /// with `detectors`, are [`words_of(j)`](Self::words_of). On a 64-lane
    /// stream this is simply one word per detector.
    pub words: &'a [u64],
}

impl RoundSlice<'_> {
    /// The 64-lane firing words of sub-word `j`, aligned with
    /// [`detectors`](Self::detectors). Sub-word `j` of a wide stream
    /// carries exactly the shots of its `j`-th seed stream, so a striped
    /// consumer feeds it to an ordinary 64-lane session.
    pub fn words_of(&self, j: usize) -> &[u64] {
        let k = self.detectors.len();
        &self.words[j * k..(j + 1) * k]
    }
}

/// A reusable round-major sampler over `64·N` shot lanes: one sparse
/// sample per [`begin_wide`](Self::begin_wide), replayed as
/// [`RoundSlice`]s — every round through
/// [`next_round`](Self::next_round), firing rounds only through
/// [`next_event`](Self::next_event). See the [`RoundStream`] and
/// [`SparseRoundStream`] examples.
pub struct WideRoundStream<const N: usize> {
    source: RoundSource,
    /// One past the largest round label.
    total_rounds: u32,
    /// Touched-set sampling scratch per sub-word (zero rows on a periodic
    /// source, which samples through `periodic`).
    sparse: [SparseBatch; N],
    periodic: [PeriodicScratch; N],
    /// Per-sub-word firings of the current batch, sorted by (round, det).
    fired: [Vec<PeriodicEvent>; N],
    lanes: usize,
    true_observables: [u64; N],
    /// Detectors firing in any sub-word, sorted by (round, id).
    dets: Vec<u32>,
    /// Firing words, one row of `N` sub-word words per entry of `dets`
    /// (`words[N·i + j]`; 0 where sub-word `j` did not fire).
    words: Vec<u64>,
    /// `(round, start offset into dets)` per firing round.
    events: Vec<(u32, u32)>,
    /// Next event to emit.
    event: usize,
    /// Next round [`next_round`](Self::next_round) emits.
    round: u32,
    /// Reused layout buffer of `next_round`, and the sub-word-major words
    /// of the emitted slice.
    round_dets: Vec<u32>,
    round_words: Vec<u64>,
}

/// The 64-lane stream. It serves both the dense and the event-driven feed.
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use surf_defects::DefectMap;
/// use surf_lattice::{Basis, Patch};
/// use surf_sim::{DecoderPrior, DetectorModel, NoiseParams, QubitNoise, RoundStream};
///
/// let patch = Patch::rotated(3);
/// let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
/// let model = DetectorModel::build(&patch, Basis::Z, 3, &noise, DecoderPrior::Informed);
/// let mut stream = RoundStream::new(&model);
/// let mut rng = StdRng::seed_from_u64(7);
/// stream.begin(&mut rng, 64);
/// let mut rounds = 0;
/// while let Some(slice) = stream.next_round() {
///     rounds += 1;
///     assert_eq!(slice.round + 1, rounds);
/// }
/// assert_eq!(rounds, 4); // 3 noisy rounds + the readout comparison
/// ```
pub type RoundStream = WideRoundStream<1>;
/// The 64-lane stream, named for its event-driven use
/// ([`next_event`](WideRoundStream::next_event)).
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use surf_defects::DefectMap;
/// use surf_lattice::{Basis, Patch};
/// use surf_sim::{DecoderPrior, DetectorModel, NoiseParams, QubitNoise, SparseRoundStream};
///
/// let patch = Patch::rotated(3);
/// let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
/// let model = DetectorModel::build(&patch, Basis::Z, 3, &noise, DecoderPrior::Informed);
/// let mut stream = SparseRoundStream::new(&model);
/// let mut rng = StdRng::seed_from_u64(7);
/// stream.begin(&mut rng, 64);
/// let mut last = None;
/// while let Some(event) = stream.next_event() {
///     assert!(last < Some(event.round), "events ascend");
///     assert!(!event.detectors.is_empty(), "only firing rounds are emitted");
///     last = Some(event.round);
/// }
/// ```
pub type SparseRoundStream = WideRoundStream<1>;
/// The width-`N` stream, named for its event-driven use.
pub type WideSparseRoundStream<const N: usize> = WideRoundStream<N>;

impl<const N: usize> WideRoundStream<N> {
    /// Builds a stream over `model`'s channels and detector rounds (a
    /// [`TimelineModel`](crate::TimelineModel)'s `model` streams every
    /// epoch in one batch).
    pub fn new(model: &DetectorModel) -> Self {
        Self::over(RoundSource::of_model(model))
    }

    /// Builds a stream straight over a [`PeriodicModel`] template: no
    /// O(rounds) table is ever materialised, and each batch samples the
    /// compressed channels in the monolithic RNG draw order, so both
    /// replay shapes match a stream over the equivalent monolithic model
    /// bit for bit.
    pub fn for_periodic(model: Arc<PeriodicModel>) -> Self {
        Self::over(RoundSource::Periodic(model))
    }

    /// A stream sharing `source`'s sampler and layout.
    pub(crate) fn over(source: RoundSource) -> Self {
        let rows = match &source {
            RoundSource::Mono(m) => m.rounds_of.len(),
            RoundSource::Periodic(_) => 0,
        };
        let total_rounds = source.total_rounds();
        WideRoundStream {
            source,
            total_rounds,
            sparse: std::array::from_fn(|_| SparseBatch::new(rows)),
            periodic: std::array::from_fn(|_| PeriodicScratch::default()),
            fired: std::array::from_fn(|_| Vec::new()),
            lanes: 0,
            true_observables: [0; N],
            dets: Vec::new(),
            words: Vec::new(),
            events: Vec::new(),
            event: 0,
            round: total_rounds,
            round_dets: Vec::new(),
            round_words: Vec::new(),
        }
    }

    /// Number of rounds each batch spans (noisy rounds plus the final
    /// readout comparison).
    pub fn total_rounds(&self) -> u32 {
        self.total_rounds
    }

    /// Samples a fresh batch of `lanes` shots (sub-word `j` from
    /// `rngs[j]`) and rewinds both replay cursors. Sub-word `j` consumes
    /// exactly the RNG sequence of a 64-lane
    /// [`BatchSampler::sample_into`] call, so streamed experiments
    /// reproduce batch experiments bit for bit.
    pub fn begin_wide<R: Rng>(&mut self, rngs: &mut [R; N], lanes: usize) {
        self.lanes = lanes;
        match &self.source {
            RoundSource::Mono(m) => {
                self.true_observables = m.sampler.sample_sparse_wide(rngs, lanes, &mut self.sparse);
                for (batch, fired) in self.sparse.iter().zip(&mut self.fired) {
                    fired.clear();
                    fired.extend(batch.touched().iter().filter_map(|&det| {
                        let word = batch.word(det as usize);
                        (word != 0).then(|| PeriodicEvent {
                            round: m.rounds_of[det as usize],
                            det,
                            word,
                        })
                    }));
                    fired.sort_unstable_by_key(|e| (e.round, e.det));
                }
            }
            RoundSource::Periodic(pm) => {
                // One scalar template pass per sub-word: the wide
                // sampler's draw order is exactly this.
                for (j, (rng, fired)) in rngs.iter_mut().zip(&mut self.fired).enumerate() {
                    fired.clear();
                    let sub_lanes = lanes.saturating_sub(64 * j).min(64);
                    self.true_observables[j] = if sub_lanes == 0 {
                        0
                    } else {
                        pm.sample_sparse_into(rng, sub_lanes, &mut self.periodic[j], fired)
                    };
                }
            }
        }
        self.index_firings();
        self.event = 0;
        self.round = 0;
    }

    /// Merges the sub-words' sorted firings into one ascending (round,
    /// id) event list with one word row per firing detector.
    fn index_firings(&mut self) {
        self.dets.clear();
        self.words.clear();
        self.events.clear();
        // Cursor into each sub-word's firings.
        let mut next = [0usize; N];
        while let Some((round, det)) = self
            .fired
            .iter()
            .zip(&next)
            .filter_map(|(fired, &at)| fired.get(at).map(|e| (e.round, e.det)))
            .min()
        {
            if self.events.last().map(|&(r, _)| r) != Some(round) {
                self.events.push((round, self.dets.len() as u32));
            }
            self.dets.push(det);
            for (fired, at) in self.fired.iter().zip(&mut next) {
                let word = match fired.get(*at) {
                    Some(e) if e.det == det => {
                        *at += 1;
                        e.word
                    }
                    _ => 0,
                };
                self.words.push(word);
            }
        }
    }

    /// The round of event `e` and its span in `dets` (`N`-fold in
    /// `words`).
    fn event_span(&self, e: usize) -> (u32, std::ops::Range<usize>) {
        let (round, start) = self.events[e];
        let end = self
            .events
            .get(e + 1)
            .map_or(self.dets.len(), |&(_, s)| s as usize);
        (round, start as usize..end)
    }

    /// Emits the next firing round of the current batch, or `None` when
    /// the batch is exhausted (call `begin` again). Every emitted slice
    /// fires in at least one lane; rounds between consecutive events are
    /// syndrome-silent across all lanes. On a wide stream a sub-word's
    /// [`words_of`](RoundSlice::words_of) may be all zero when only other
    /// sub-words fired — a striped 64-lane consumer pushes it as a silent
    /// round.
    pub fn next_event(&mut self) -> Option<RoundSlice<'_>> {
        if self.event >= self.events.len() {
            return None;
        }
        let (round, span) = self.event_span(self.event);
        self.event += 1;
        self.round = round + 1;
        let rows = &self.words[N * span.start..N * span.end];
        self.round_words.clear();
        for j in 0..N {
            self.round_words
                .extend(rows.iter().skip(j).step_by(N).copied());
        }
        Some(RoundSlice {
            round,
            detectors: &self.dets[span],
            words: &self.round_words,
        })
    }

    /// Emits the next round of the current batch — every detector of the
    /// round, silent ones as zero words — or `None` when the batch is
    /// exhausted (call `begin` again).
    pub fn next_round(&mut self) -> Option<RoundSlice<'_>> {
        let round = self.round;
        if round >= self.total_rounds {
            return None;
        }
        self.round += 1;
        // The round's event, if it fired (an empty span otherwise).
        let span = match self.events.get(self.event) {
            Some(&(r, _)) if r == round => {
                self.event += 1;
                self.event_span(self.event - 1).1
            }
            _ => 0..0,
        };
        let detectors = self.source.detectors(round, &mut self.round_dets);
        let k = detectors.len();
        self.round_words.clear();
        self.round_words.resize(N * k, 0);
        let rows = self.words[N * span.start..N * span.end].chunks_exact(N);
        // Both lists ascend: walk the firing detectors into the layout.
        let mut i = 0;
        for (&det, row) in self.dets[span].iter().zip(rows) {
            while detectors[i] != det {
                i += 1;
            }
            for (j, &word) in row.iter().enumerate() {
                self.round_words[j * k + i] = word;
            }
        }
        Some(RoundSlice {
            round,
            detectors,
            words: &self.round_words,
        })
    }

    /// True observable-flip words of the current batch, one per sub-word.
    pub fn true_observables_wide(&self) -> [u64; N] {
        self.true_observables
    }

    /// Active lane count of the current batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of sub-words holding at least one active lane.
    pub fn active_words(&self) -> usize {
        self.lanes.div_ceil(64)
    }
}

impl WideRoundStream<1> {
    /// Samples a fresh batch of `lanes` (at most 64) shots from `rng`;
    /// see [`begin_wide`](Self::begin_wide).
    pub fn begin<R: Rng>(&mut self, rng: &mut R, lanes: usize) {
        self.begin_wide(std::array::from_mut(rng), lanes);
    }

    /// The true observable-flip word of the current batch (ground truth
    /// for failure counting; conceptually the final logical readout).
    pub fn true_observables(&self) -> u64 {
        self.true_observables[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DecoderPrior;
    use crate::noise::{NoiseParams, QubitNoise};
    use crate::timeline::TimelineModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use surf_defects::DefectMap;
    use surf_lattice::{Basis, Patch};
    use surf_pauli::{BitBatch, WideBatch};

    fn model(d: usize, rounds: u32, p: f64) -> DetectorModel {
        let patch = Patch::rotated(d);
        let noise = QubitNoise::new(NoiseParams::uniform(p), DefectMap::new());
        DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
    }

    fn rngs<const N: usize>(seed: u64) -> [StdRng; N] {
        std::array::from_fn(|j| StdRng::seed_from_u64(seed + j as u64))
    }

    /// One dense sample from seed streams `seed + j`: the detector batch,
    /// the observable words and the RNG states it leaves behind.
    struct Oracle<const N: usize> {
        batch: WideBatch<N>,
        obs: [u64; N],
        rngs: [StdRng; N],
    }

    /// The 64-lane oracle, drawn through [`BatchSampler::sample_into`].
    fn scalar_oracle(sampler: &BatchSampler, seed: u64, lanes: usize) -> Oracle<1> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = BitBatch::zeros(sampler.num_detectors());
        batch.set_lanes(lanes);
        let obs = sampler.sample_into(&mut rng, &mut batch);
        Oracle {
            batch,
            obs: [obs],
            rngs: [rng],
        }
    }

    /// The width-`N` oracle, drawn through
    /// [`BatchSampler::sample_wide_into`].
    fn wide_oracle<const N: usize>(sampler: &BatchSampler, seed: u64, lanes: usize) -> Oracle<N> {
        let mut rngs = rngs::<N>(seed);
        let mut batch = WideBatch::<N>::zeros(sampler.num_detectors());
        batch.set_lanes(lanes);
        let obs = sampler.sample_wide_into(&mut rngs, &mut batch);
        Oracle { batch, obs, rngs }
    }

    /// Samples `stream` at `(seed, lanes)` twice and checks both replay
    /// shapes against the dense oracle: `next_round` emits every detector
    /// once, in round order, with the oracle's words; `next_event` emits
    /// exactly the rounds and detectors that fired. The stream must also
    /// leave each RNG where the oracle left it.
    fn assert_replays<const N: usize>(
        stream: &mut WideRoundStream<N>,
        mut oracle: Oracle<N>,
        rounds_of: &[u32],
        seed: u64,
        lanes: usize,
    ) {
        let mut sampled = rngs::<N>(seed);
        stream.begin_wide(&mut sampled, lanes);
        assert_eq!(stream.lanes(), lanes);
        assert_eq!(stream.true_observables_wide(), oracle.obs, "seed {seed}");
        for (a, b) in sampled.iter_mut().zip(oracle.rngs.iter_mut()) {
            assert_eq!(
                a.gen::<u64>(),
                b.gen::<u64>(),
                "RNG state after seed {seed}"
            );
        }
        let mut seen = vec![false; rounds_of.len()];
        let mut firing = Vec::new();
        let mut last = None;
        while let Some(slice) = stream.next_round() {
            assert!(last < Some(slice.round), "rounds must ascend");
            last = Some(slice.round);
            assert_eq!(slice.words.len(), N * slice.detectors.len());
            for (i, &d) in slice.detectors.iter().enumerate() {
                assert_eq!(rounds_of[d as usize], slice.round, "detector {d}");
                assert!(!seen[d as usize], "detector {d} emitted twice");
                seen[d as usize] = true;
                let got: [u64; N] = std::array::from_fn(|j| slice.words_of(j)[i]);
                let want: [u64; N] = std::array::from_fn(|j| oracle.batch.word_at(d as usize, j));
                assert_eq!(got, want, "seed {seed} round {} detector {d}", slice.round);
                if got != [0; N] {
                    firing.push((slice.round, d, got));
                }
            }
        }
        assert_eq!(last, Some(stream.total_rounds() - 1));
        assert!(seen.iter().all(|&s| s), "every detector emitted once");

        stream.begin_wide(&mut rngs::<N>(seed), lanes);
        let mut events = Vec::new();
        let mut last = None;
        while let Some(event) = stream.next_event() {
            assert!(last < Some(event.round), "events must ascend");
            last = Some(event.round);
            assert!(
                !event.detectors.is_empty(),
                "only firing rounds are emitted"
            );
            for (i, &d) in event.detectors.iter().enumerate() {
                let row: [u64; N] = std::array::from_fn(|j| event.words_of(j)[i]);
                events.push((event.round, d, row));
            }
        }
        assert_eq!(events, firing, "seed {seed}: events are the firing rows");
    }

    #[test]
    fn rounds_partition_all_detectors() {
        let m = model(3, 4, 1e-2);
        let stream = RoundStream::new(&m);
        assert_eq!(stream.total_rounds(), 5);
        let mut buf = Vec::new();
        let mut all: Vec<u32> = (0..5)
            .flat_map(|r| stream.source.detectors(r, &mut buf).to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..m.num_detectors as u32).collect::<Vec<_>>());
    }

    #[test]
    fn replay_reconstructs_the_batch_exactly() {
        let m = model(3, 5, 0.03);
        let mut stream = RoundStream::new(&m);
        let oracle = scalar_oracle(&m.batch_sampler(), 99, 64);
        assert_replays(&mut stream, oracle, &m.detector_rounds, 99, 64);
    }

    #[test]
    fn sparse_stream_matches_dense_stream_bit_for_bit() {
        let m = model(3, 6, 1e-3);
        let sampler = m.batch_sampler();
        let mut stream = SparseRoundStream::new(&m);
        for (seed, lanes) in [(99u64, 64usize), (7, 64), (13, 5)] {
            let oracle = scalar_oracle(&sampler, seed, lanes);
            let obs = oracle.obs[0];
            assert_replays(&mut stream, oracle, &m.detector_rounds, seed, lanes);
            stream.begin(&mut StdRng::seed_from_u64(seed), lanes);
            assert_eq!(stream.true_observables(), obs);
        }
    }

    #[test]
    fn wide_stream_replays_base_streams_bit_for_bit() {
        // Sub-word j of a 256-lane stream is the 64-lane `sample_into`
        // batch of seed stream j; inactive sub-words stay silent.
        let m = model(3, 5, 1e-3);
        let sampler = m.batch_sampler();
        let mut wide = WideRoundStream::<4>::new(&m);
        for &lanes in &[256usize, 140, 64] {
            wide.begin_wide(&mut rngs::<4>(55), lanes);
            let active = lanes.div_ceil(64);
            assert_eq!(wide.active_words(), active);
            let bases: Vec<Oracle<1>> = (0..active)
                .map(|j| scalar_oracle(&sampler, 55 + j as u64, (lanes - 64 * j).min(64)))
                .collect();
            for (j, base) in bases.iter().enumerate() {
                assert_eq!(
                    wide.true_observables_wide()[j],
                    base.obs[0],
                    "lanes {lanes} word {j}"
                );
            }
            while let Some(slice) = wide.next_round() {
                for (j, base) in bases.iter().enumerate() {
                    let want: Vec<u64> = slice
                        .detectors
                        .iter()
                        .map(|&d| base.batch.word(d as usize))
                        .collect();
                    assert_eq!(
                        slice.words_of(j),
                        want,
                        "lanes {lanes} round {}",
                        slice.round
                    );
                }
                for j in active..4 {
                    assert!(slice.words_of(j).iter().all(|&w| w == 0));
                }
            }
        }
    }

    #[test]
    fn wide_sparse_stream_matches_wide_dense_stream() {
        let m = model(3, 6, 1e-3);
        let sampler = m.batch_sampler();
        let mut stream = WideSparseRoundStream::<4>::new(&m);
        for (seed, lanes) in [(99u64, 256usize), (7, 256), (13, 130)] {
            let oracle = wide_oracle::<4>(&sampler, seed, lanes);
            assert_replays(&mut stream, oracle, &m.detector_rounds, seed, lanes);
        }
    }

    fn periodic_pair(rounds: u32, p: f64) -> (TimelineModel, Arc<PeriodicModel>) {
        use surf_defects::DefectSchedule;
        use surf_deformer_core::PatchTimeline;
        let timeline = PatchTimeline::fixed(Patch::rotated(3), DefectMap::new());
        let mono = TimelineModel::build_scheduled(
            &timeline,
            Basis::Z,
            rounds,
            NoiseParams::uniform(p),
            &DefectSchedule::new(),
            DecoderPrior::Informed,
        );
        let per = PeriodicModel::build(
            &timeline,
            Basis::Z,
            rounds,
            NoiseParams::uniform(p),
            &DefectSchedule::new(),
            DecoderPrior::Informed,
        )
        .expect("horizon long enough to compress");
        (mono, Arc::new(per))
    }

    /// A stream over the periodic template replays the dense batch of
    /// the equivalent monolithic model's sampler.
    fn assert_periodic_replays<const N: usize>(rounds: u32, p: f64, cases: &[(u64, usize)]) {
        let (mono, per) = periodic_pair(rounds, p);
        let sampler = mono.model.batch_sampler();
        let mut stream = WideRoundStream::<N>::for_periodic(per);
        assert_eq!(stream.total_rounds(), mono.model.total_rounds());
        for &(seed, lanes) in cases {
            let oracle = wide_oracle::<N>(&sampler, seed, lanes);
            assert_replays(
                &mut stream,
                oracle,
                &mono.model.detector_rounds,
                seed,
                lanes,
            );
        }
    }

    #[test]
    fn periodic_sparse_stream_matches_monolithic_bit_for_bit() {
        assert_periodic_replays::<1>(48, 1e-3, &[(99, 64), (7, 64), (13, 5)]);
    }

    #[test]
    fn periodic_dense_streams_match_monolithic() {
        assert_periodic_replays::<1>(40, 0.02, &[(11, 64)]);
    }

    #[test]
    fn periodic_wide_sparse_stream_matches_monolithic() {
        assert_periodic_replays::<4>(48, 1e-3, &[(99, 256), (7, 130), (13, 64)]);
    }

    #[test]
    fn periodic_wide_dense_stream_matches_monolithic() {
        assert_periodic_replays::<2>(40, 5e-3, &[(3, 128)]);
    }

    #[test]
    fn begin_resets_for_the_next_batch() {
        let m = model(3, 3, 0.05);
        let mut stream = RoundStream::new(&m);
        let mut rng = StdRng::seed_from_u64(5);
        stream.begin(&mut rng, 64);
        while stream.next_round().is_some() {}
        assert!(stream.next_round().is_none());
        stream.begin(&mut rng, 7);
        assert_eq!(stream.lanes(), 7);
        let slice = stream.next_round().expect("fresh batch streams again");
        assert_eq!(slice.round, 0);
        for &w in slice.words {
            assert_eq!(w & !0b111_1111, 0, "inactive lanes must stay clean");
        }
    }
}
