//! End-to-end and per-layer benchmark of the surf-deformer stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <availability|deform_stream|react|daemon> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the library sees only the
//! generated inputs and is driven through its public API, with each call
//! timed from outside. `--trace 0` times the workload untraced and reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics of a
//! traced run. Human-readable lines come first; the last line of standard
//! output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Outputs are checked outside the timed region, and a mismatch or a
//! library error counts as a failed op.

mod bench;
mod react;
mod service;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Report, Workload};

/// Every per-layer metric, in report order.
const PER_LAYER: &[&str] = &[
    "core.replan.calls",
    "core.replan.busy_s",
    "core.replan.p50_ms",
    "core.replan.layers_added",
    "core.adaptive_schedule_s",
    "lattice.distance.calls",
    "lattice.distance.p50_us",
    "defects.detect.busy_s",
    "sim.model.open_s",
    "sim.sampler.busy_s",
    "sim.sampler.event_rounds",
    "sim.session.push_commit.calls",
    "sim.session.push_commit.busy_s",
    "sim.session.windows_decoded",
    "sim.session.push_buffer.busy_s",
    "sim.session.push_buffer.p50_us",
    "sim.session.advance_silent.busy_s",
    "sim.session.advance_silent.rounds",
    "sim.session.windows_fast_forwarded",
    "sim.session.fast_forward_share",
    "sim.session.replan.calls",
    "sim.session.replan.busy_s",
    "sim.session.replan.p50_ms",
    "service.client.send_busy_s",
    "service.client.recv_wait_s",
    "service.wire.codec_s",
    "service.wire.frames_out",
    "service.wire.frames_in",
    "service.wire.bytes_out",
    "service.wire.bytes_in",
    "service.daemon.open_s",
    "service.daemon.queue_depth_max",
    "service.daemon.error_frames",
    "core.self_s",
    "lattice.self_s",
    "defects.self_s",
    "sim.model.self_s",
    "sim.sampler.self_s",
    "sim.session.self_s",
    "service.self_s",
    "bench.self_s",
    "process.cpu_s",
    "process.cpu_util",
    "trace.coverage",
    "trace.overhead",
    "trace.dominant_share",
];

const WORKLOADS: [&str; 4] = ["availability", "deform_stream", "react", "daemon"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn execute<W: Workload>(w: &W, args: &Args) -> Report {
    if args.trace {
        // Spans go next to the build output, which version control ignores.
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let spans_out = PathBuf::from(target)
            .join("perfbench-spans")
            .join(format!("{}-{}.tsv", args.workload, args.seed));
        bench::per_layer(w, args.seed, args.seconds, PER_LAYER, &spans_out)
    } else {
        bench::end_to_end(w, args.seed, args.seconds)
    }
}

/// The result line: a JSON object with every metric at full precision.
fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = match args.workload.as_str() {
        "availability" => execute(&stream::Stream::Availability, &args),
        "deform_stream" => execute(&stream::Stream::DeformStream, &args),
        "react" => execute(&react::React, &args),
        "daemon" => execute(&service::Service, &args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "ops attempted {} failed {}",
        report.attempted, report.failed
    );
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
