//! The harness shared by every workload: timed phases, set-up repeats,
//! the traced/untraced split, process counters and the metric report.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};

/// How many times a run builds its set-up; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Wall-clock length of one throughput slice.
const SLICE: Duration = Duration::from_secs(1);

/// When a timed phase stops.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this much wall-clock time.
    For(Duration),
    /// After exactly this many steps (replays an earlier phase's work).
    Steps(u64),
}

impl Limit {
    /// `true` once a phase that started at `started` and has done `steps`
    /// steps must stop.
    pub fn reached(&self, started: Instant, steps: u64) -> bool {
        match *self {
            Limit::For(d) => started.elapsed() >= d,
            Limit::Steps(n) => steps >= n,
        }
    }
}

/// Shot-rounds per second over consecutive wall-clock slices; the
/// reported rate is the median slice, so a burst of outside load moves
/// one slice rather than the whole figure.
pub struct Throughput {
    started: Instant,
    slice_start: Instant,
    slice_work: u64,
    work: u64,
    rates: Vec<f64>,
}

impl Throughput {
    pub fn start() -> Throughput {
        let now = Instant::now();
        Throughput {
            started: now,
            slice_start: now,
            slice_work: 0,
            work: 0,
            rates: Vec::new(),
        }
    }

    /// Adds `work` shot-rounds finished by `now`.
    pub fn add(&mut self, work: u64, now: Instant) {
        self.work += work;
        self.slice_work += work;
        let elapsed = now - self.slice_start;
        if elapsed >= SLICE {
            self.rates
                .push(self.slice_work as f64 / elapsed.as_secs_f64());
            self.slice_start = now;
            self.slice_work = 0;
        }
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// Ends the phase: `(wall seconds, shot-rounds, rate)`.
    pub fn finish(self) -> (f64, u64, f64) {
        let wall = self.started.elapsed().as_secs_f64();
        let rate = if self.rates.is_empty() {
            self.work as f64 / wall
        } else {
            stats::median(&self.rates)
        };
        (wall, self.work, rate)
    }
}

/// What one timed phase did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Steps taken (the unit [`Limit::Steps`] counts).
    pub steps: u64,
    pub wall_s: f64,
    /// Shot-rounds decoded (or replayed) in the phase.
    pub shot_rounds: u64,
    /// Median-slice shot-rounds per second.
    pub shot_rounds_per_s: f64,
    /// The workload's op latencies, µs.
    pub latencies_us: Vec<f64>,
    /// Ops attempted and failed inside the phase.
    pub attempted: u64,
    pub failed: u64,
    /// Counts the harness keeps beside the spans, by per-layer name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Phase {
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }
}

/// Outcome of the output checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    type State;
    /// Meaning of the latency samples, as named in the metric table.
    const LATENCY: &'static str;

    /// Builds everything the timed phase needs from `seed`. Set-up
    /// metrics (planning, compile) go into `counts`.
    fn setup(&self, seed: u64, counts: &mut BTreeMap<&'static str, f64>) -> Self::State;
    /// Runs the timed phase until `limit`.
    fn run(&self, state: &mut Self::State, limit: Limit, tr: &mut Tracer) -> Phase;
    /// Checks the phase's outputs, outside the timed region.
    fn check(&self, state: Self::State, phase: &Phase) -> Checked;
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value (sample counts, percentile levels).
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// Everything one run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

/// Builds the set-up [`SETUP_REPEATS`] times, keeping the last; returns
/// it with the median set-up time.
fn timed_setup<W: Workload>(w: &W, seed: u64) -> (W::State, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so repeats do not stack memory.
        drop(kept.take());
        let started = Instant::now();
        kept = Some(w.setup(seed, &mut BTreeMap::new()));
        times.push(started.elapsed().as_secs_f64());
    }
    let state = kept.expect("at least one set-up");
    (state, stats::median(&times))
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end<W: Workload>(w: &W, seed: u64, seconds: f64) -> Report {
    let (mut state, setup_s) = timed_setup(w, seed);
    let phase = w.run(
        &mut state,
        Limit::For(Duration::from_secs_f64(seconds)),
        &mut Tracer::new(false),
    );
    // Read before the checks, whose reference runs are not the workload.
    let peak_rss_mb = peak_rss_mb();
    let checked = w.check(state, &phase);
    let mut metrics = vec![
        metric(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUP_REPEATS} set-ups"),
        ),
        metric(
            "peak_rss_mb",
            peak_rss_mb,
            "MB",
            "VmHWM after the timed phase".into(),
        ),
        metric(
            "shot_rounds_per_s",
            phase.shot_rounds_per_s,
            "1/s",
            format!(
                "{} shot-rounds in {:.2} s, median {:.1}-s slice",
                phase.shot_rounds,
                phase.wall_s,
                SLICE.as_secs_f64()
            ),
        ),
    ];
    // Every end-to-end metric is always reported; a phase without a
    // single timed op is a failed run.
    let lat = stats::summarize(&phase.latencies_us).unwrap_or(Summary {
        n: 0,
        p50: 0.0,
        tail_level: 50.0,
        tail: 0.0,
        beyond: 0,
    });
    let what = W::LATENCY;
    metrics.push(metric(
        "latency_p50_us",
        lat.p50,
        "us",
        format!("{what}_p50, n={}", lat.n),
    ));
    metrics.push(metric(
        "latency_tail_us",
        lat.tail,
        "us",
        format!(
            "{what}_p{}, n={}, {} beyond",
            lat.tail_level, lat.n, lat.beyond
        ),
    ));
    Report {
        attempted: phase.attempted + checked.attempted,
        failed: phase.failed + checked.failed + u64::from(lat.n == 0),
        metrics,
        notes: Vec::new(),
    }
}

/// Trace coverage below this share of the timed wall-clock is flagged.
const COVERAGE_TARGET: f64 = 0.95;

/// The traced run: an untraced phase of half the time, then the same
/// steps again with every library call inside a span. Reports the
/// per-layer metrics, coverage and tracing overhead, and writes the spans
/// to `spans_out`.
pub fn per_layer<W: Workload>(
    w: &W,
    seed: u64,
    seconds: f64,
    names: &[&'static str],
    spans_out: &Path,
) -> Report {
    let mut state = w.setup(seed, &mut BTreeMap::new());
    let plain = w.run(
        &mut state,
        Limit::For(Duration::from_secs_f64(seconds / 2.0)),
        &mut Tracer::new(false),
    );
    let mut checked = w.check(state, &plain);

    let mut counts = BTreeMap::new();
    let mut state = w.setup(seed, &mut counts);
    let mut tr = Tracer::new(true);
    let cpu_before = process_cpu_s();
    let traced = w.run(&mut state, Limit::Steps(plain.steps), &mut tr);
    let cpu_s = process_cpu_s() - cpu_before;
    let again = w.check(state, &traced);
    checked.attempted += again.attempted;
    checked.failed += again.failed;

    let spans = tr.spans();
    let self_s = trace::layer_self_seconds(spans);
    let library_s: f64 = self_s
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, s)| s)
        .sum();
    let coverage = library_s / traced.wall_s;
    let overhead = traced.wall_s / plain.wall_s;

    let mut values: BTreeMap<&'static str, f64> = counts;
    for (name, v) in &traced.counts {
        *values.entry(name).or_default() += v;
    }
    // `+ 0.0` turns the empty sum's -0.0 into 0.0.
    let busy = |name: &str| trace::durations_of(spans, name).iter().sum::<f64>() * 1e-9 + 0.0;
    let calls = |name: &str| trace::durations_of(spans, name).len() as f64;
    let p50 = |name: &str| stats::median(&trace::durations_of(spans, name));
    let derived: [(&'static str, f64); 22] = [
        ("core.replan.calls", calls("core.replan")),
        ("core.replan.busy_s", busy("core.replan")),
        ("core.replan.p50_ms", p50("core.replan") * 1e-6),
        ("lattice.distance.calls", calls("lattice.distance")),
        ("lattice.distance.p50_us", p50("lattice.distance") * 1e-3),
        ("defects.detect.busy_s", busy("defects.detect")),
        (
            "sim.sampler.busy_s",
            busy("sim.sampler.begin") + busy("sim.sampler.next"),
        ),
        (
            "sim.session.push_commit.calls",
            calls("sim.session.push_commit"),
        ),
        (
            "sim.session.push_commit.busy_s",
            busy("sim.session.push_commit"),
        ),
        (
            "sim.session.push_buffer.busy_s",
            busy("sim.session.push_buffer"),
        ),
        (
            "sim.session.push_buffer.p50_us",
            p50("sim.session.push_buffer") * 1e-3,
        ),
        (
            "sim.session.advance_silent.busy_s",
            busy("sim.session.advance_silent"),
        ),
        ("sim.session.replan.calls", calls("sim.session.replan")),
        ("sim.session.replan.busy_s", busy("sim.session.replan")),
        (
            "sim.session.replan.p50_ms",
            p50("sim.session.replan") * 1e-6,
        ),
        ("service.client.send_busy_s", busy("service.client.send")),
        ("service.client.recv_wait_s", busy("service.client.recv")),
        ("service.wire.codec_s", busy("service.wire.codec")),
        ("process.cpu_s", cpu_s),
        ("process.cpu_util", cpu_s / traced.wall_s),
        ("trace.coverage", coverage),
        ("trace.overhead", overhead),
    ];
    values.extend(derived);
    let decoded = values
        .get("sim.session.windows_decoded")
        .copied()
        .unwrap_or(0.0);
    let skipped = values
        .get("sim.session.windows_fast_forwarded")
        .copied()
        .unwrap_or(0.0);
    let share = if decoded + skipped > 0.0 {
        skipped / (decoded + skipped)
    } else {
        0.0
    };
    values.insert("sim.session.fast_forward_share", share);
    for (layer, s) in &self_s {
        values.insert(layer_self_name(layer), *s);
    }

    let (dominant, dominant_s) = self_s
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(l, s)| (*l, *s))
        .unwrap_or(("none", 0.0));
    values.insert("trace.dominant_share", dominant_s / traced.wall_s);

    let mut notes = vec![
        format!(
            "traced {} steps: {} spans, {:.3} s traced vs {:.3} s untraced",
            traced.steps,
            spans.len(),
            traced.wall_s,
            plain.wall_s
        ),
        format!(
            "dominant layer: {dominant} ({:.1}% of timed wall-clock)",
            100.0 * dominant_s / traced.wall_s
        ),
    ];
    for (layer, s) in &self_s {
        notes.push(format!(
            "  self time {layer:<12} {s:>9.4} s  {:>5.1}%",
            100.0 * s / traced.wall_s
        ));
    }
    notes.push(match trace::write_tsv(spans, spans_out) {
        Ok(()) => format!("spans written to {}", spans_out.display()),
        Err(e) => format!("could not write spans to {}: {e}", spans_out.display()),
    });
    if coverage < COVERAGE_TARGET {
        notes.push(format!(
            "WARNING: trace.coverage {:.3} is below the {COVERAGE_TARGET} target: \
             part of the timed wall-clock is in no library span",
            coverage
        ));
    }
    let metrics = names
        .iter()
        .map(|&name| {
            metric(
                name,
                values.get(name).copied().unwrap_or(0.0),
                unit_of(name),
                String::new(),
            )
        })
        .collect();
    Report {
        attempted: plain.attempted + traced.attempted + checked.attempted,
        failed: plain.failed + traced.failed + checked.failed,
        metrics,
        notes,
    }
}

/// Per-layer metric name of a layer's self time.
fn layer_self_name(layer: &str) -> &'static str {
    match layer {
        "core" => "core.self_s",
        "lattice" => "lattice.self_s",
        "defects" => "defects.self_s",
        "sim.model" => "sim.model.self_s",
        "sim.sampler" => "sim.sampler.self_s",
        "sim.session" => "sim.session.self_s",
        "service" => "service.self_s",
        _ => "bench.self_s",
    }
}

/// The unit a per-layer metric is reported in, read off its name.
fn unit_of(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or(name);
    if last.ends_with("_s") {
        "s"
    } else if last.ends_with("_ms") {
        "ms"
    } else if last.ends_with("_us") {
        "us"
    } else if last.starts_with("bytes") {
        "B"
    } else if matches!(
        last,
        "coverage" | "overhead" | "cpu_util" | "fast_forward_share" | "dominant_share"
    ) {
        "ratio"
    } else {
        "count"
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process (all threads), seconds.
fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (USER_HZ = 100
    // on Linux); the command name in field 2 may hold spaces, so split
    // after its closing parenthesis.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_follow_metric_names() {
        assert_eq!(unit_of("core.replan.busy_s"), "s");
        assert_eq!(unit_of("core.replan.p50_ms"), "ms");
        assert_eq!(unit_of("lattice.distance.p50_us"), "us");
        assert_eq!(unit_of("service.wire.bytes_out"), "B");
        assert_eq!(unit_of("trace.coverage"), "ratio");
        assert_eq!(unit_of("core.replan.calls"), "count");
        assert_eq!(unit_of("sim.session.self_s"), "s");
    }

    #[test]
    fn step_limits_count_steps() {
        let now = Instant::now();
        assert!(!Limit::Steps(3).reached(now, 2));
        assert!(Limit::Steps(3).reached(now, 3));
        assert!(Limit::For(Duration::ZERO).reached(now, 0));
    }

    #[test]
    fn process_counters_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
