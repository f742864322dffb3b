//! In-memory span tracing around the benchmark's calls into the library.
//!
//! A span records one call: its name, start and end (ns since the tracer
//! was made), the span that was open when it started (its parent) and the
//! id of the op it belongs to. Spans stay in memory until the run ends.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Name of the root span around one benchmark op. Its self time is the
/// harness's own bookkeeping, not any library layer.
pub const OP: &str = "bench.op";

/// The layers a span name can belong to, longest prefix first.
const LAYERS: [&str; 8] = [
    "sim.sampler",
    "sim.session",
    "sim.model",
    "core",
    "lattice",
    "defects",
    "service",
    "bench",
];

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op this span belongs to (shared by every span of one op).
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started but not ended; hand it back to
/// [`Tracer::exit`].
#[must_use]
pub struct Open {
    index: usize,
}

/// Records spans when enabled.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose name is fixed when it closes (a push is a
    /// commit or a buffer only once it has returned).
    pub fn enter(&mut self) -> Option<Open> {
        if !self.on {
            return None;
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: OP,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(index);
        Some(Open { index })
    }

    /// Closes `open` under `name`. Spans close innermost first.
    pub fn exit(&mut self, open: Option<Open>, name: &'static str) {
        let Some(Open { index }) = open else {
            return;
        };
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        let span = &mut self.spans[index];
        span.name = name;
        span.end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter();
        let out = f();
        self.exit(open, name);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The layer a span name belongs to (`"bench"` if none matches).
fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|layer| {
            name.strip_prefix(*layer)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
        .copied()
        .unwrap_or("bench")
}

/// Self time per layer, in seconds, over every layer of [`LAYERS`].
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(layer_of(span.name)).or_default() += self_ns as f64 * 1e-9;
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Writes every span as one tab-separated line: op id, span index,
/// parent index (`-` for a root), name, start and end in ns.
pub fn write_tsv(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(OP, 0, 100, None),
            span("sim.session.push", 10, 40, Some(0)),
            span("sim.sampler.next", 50, 60, Some(0)),
            // A grandchild: counts against its parent, not the root.
            span("core.replan", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = [
            span(OP, 0, 100, None),
            span("service.client.recv", 10, 50, Some(0)),
            span("service.wire.codec", 30, 70, Some(0)),
            // Runs past its parent's end: only the part inside counts.
            span("service.client.send", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn layers_match_whole_name_components() {
        assert_eq!(layer_of("sim.session.push_commit"), "sim.session");
        assert_eq!(layer_of("sim.model.open"), "sim.model");
        assert_eq!(layer_of("core.replan"), "core");
        assert_eq!(layer_of("service.wire.codec"), "service");
        assert_eq!(layer_of("corex.replan"), "bench");
        assert_eq!(layer_of(OP), "bench");
    }

    #[test]
    fn tracer_nests_spans_and_shares_op_ids() {
        let mut tr = Tracer::new(true);
        for _ in 0..2 {
            let op = tr.enter();
            tr.span("defects.detect", || ());
            let push = tr.enter();
            tr.exit(push, "sim.session.push_buffer");
            tr.exit(op, OP);
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "sim.session.push_buffer");
        assert_eq!((spans[0].op, spans[2].op, spans[3].op), (1, 1, 2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.enter();
        assert_eq!(tr.span("core.replan", || 7), 7);
        tr.exit(open, OP);
        assert!(tr.spans().is_empty());
    }
}
