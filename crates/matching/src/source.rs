//! Round-indexed model sources for windowed decoding.
//!
//! A [`RoundModelSource`] serves the decoding-relevant slice of a detector
//! model on demand — which detectors live in a round range and which merged
//! graph edges a window over that range must consider. It is the one seam
//! every [`WindowedDecoder`](crate::WindowedDecoder) builds its windows
//! through. A materialised [`DecodingGraph`] (the monolithic path,
//! including epoch-spliced [`GraphEpoch`](crate::GraphEpoch) graphs) is
//! served by `GraphSource` through a round-major detector index; a periodic
//! model implements this trait by index arithmetic and stays O(epochs)
//! resident regardless of the horizon.
//!
//! The contract is *bit-identity*: for any window, the edges yielded by
//! [`window_edges`](RoundModelSource::window_edges) must be exactly the
//! edges (same merged probabilities, same order) that the monolithic
//! spliced graph would enumerate for that window's detectors, so window
//! plans built either way are interchangeable.

use std::ops::Range;

use crate::graph::DecodingGraph;

/// One merged decoding-graph edge served by a [`RoundModelSource`].
///
/// Mirrors [`Edge`](crate::Edge) but with `u32` detector ids (model sources
/// can span horizons whose detector count exceeds what a pre-built graph
/// would ever hold) and without the cached weight — windows recompute
/// weights when assembling their local graphs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourceEdge {
    /// First endpoint (a global detector id).
    pub a: u32,
    /// Second endpoint, or `None` for the boundary.
    pub b: Option<u32>,
    /// Merged firing probability (XOR-combined across parallel mechanisms,
    /// exactly as [`DecodingGraph::add_edge`](crate::DecodingGraph::add_edge)
    /// combines them).
    pub probability: f64,
    /// Observable mask.
    pub observables: u64,
}

impl SourceEdge {
    /// Views a materialised graph edge as a source edge (the adapter
    /// `GraphSource` serves its edges through).
    pub fn from_graph_edge(e: &crate::graph::Edge) -> SourceEdge {
        SourceEdge {
            a: e.a as u32,
            b: e.b.map(|b| b as u32),
            probability: e.probability,
            observables: e.observables,
        }
    }
}

/// A detector model addressable by round, serving windows on demand.
///
/// All detector ids are global (whole-horizon) ids; rounds run from `0`
/// to `total_rounds() - 1` inclusive.
pub trait RoundModelSource: Send + Sync {
    /// One past the last detector round (final-readout detectors included).
    fn total_rounds(&self) -> u32;

    /// Total number of detectors over the whole horizon.
    fn num_detectors(&self) -> usize;

    /// The round detector `det` becomes available at.
    fn detector_round(&self, det: u32) -> u32;

    /// Appends the detector ids of every round in `rounds`, grouped by
    /// round in ascending round order and ascending id within each round.
    fn detectors_in(&self, rounds: Range<u32>, out: &mut Vec<u32>);

    /// Appends every merged graph edge a window over `rounds` must
    /// consider: at least all edges whose earlier endpoint's round falls in
    /// `rounds`, ordered exactly as the monolithic epoch-spliced graph
    /// orders them (ascending graph epoch, then first-contribution order).
    /// Edges entirely outside the range may be included; the window
    /// assembler drops them.
    fn window_edges(&self, rounds: Range<u32>, out: &mut Vec<SourceEdge>);
}

/// A materialised decoding graph served as a [`RoundModelSource`]: the
/// graph, each detector's round label, and a round-major detector index,
/// so a window finds its detectors in O(window) instead of scanning the
/// whole graph.
pub(crate) struct GraphSource {
    graph: DecodingGraph,
    rounds_of: Vec<u32>,
    /// All detectors sorted by `(round, detector)`.
    dets: Vec<u32>,
    /// `dets[round_start[r]..round_start[r + 1]]` are round `r`'s
    /// detectors in ascending id order.
    round_start: Vec<u32>,
}

impl GraphSource {
    /// Indexes `graph`, whose detector `i` belongs to round `rounds_of[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds_of` does not hold one label per detector.
    pub(crate) fn new(graph: DecodingGraph, rounds_of: Vec<u32>) -> Self {
        assert_eq!(
            rounds_of.len(),
            graph.num_nodes(),
            "one round label per detector required"
        );
        let total_rounds = rounds_of.iter().map(|&r| r + 1).max().unwrap_or(0);
        let mut dets: Vec<u32> = (0..graph.num_nodes() as u32).collect();
        dets.sort_unstable_by_key(|&d| (rounds_of[d as usize], d));
        let mut round_start = vec![0u32; total_rounds as usize + 1];
        for &r in &rounds_of {
            round_start[r as usize + 1] += 1;
        }
        for r in 0..total_rounds as usize {
            round_start[r + 1] += round_start[r];
        }
        GraphSource {
            graph,
            rounds_of,
            dets,
            round_start,
        }
    }

    fn dets_in(&self, rounds: Range<u32>) -> &[u32] {
        &self.dets[self.round_start[rounds.start as usize] as usize
            ..self.round_start[rounds.end as usize] as usize]
    }
}

impl RoundModelSource for GraphSource {
    fn total_rounds(&self) -> u32 {
        self.round_start.len() as u32 - 1
    }

    fn num_detectors(&self) -> usize {
        self.graph.num_nodes()
    }

    fn detector_round(&self, det: u32) -> u32 {
        self.rounds_of[det as usize]
    }

    fn detectors_in(&self, rounds: Range<u32>, out: &mut Vec<u32>) {
        out.extend_from_slice(self.dets_in(rounds));
    }

    /// Every edge incident to a detector of `rounds`, in ascending edge-id
    /// order — the order the graph stores them.
    fn window_edges(&self, rounds: Range<u32>, out: &mut Vec<SourceEdge>) {
        let mut edge_ids: Vec<usize> = Vec::new();
        for &det in self.dets_in(rounds) {
            edge_ids.extend_from_slice(self.graph.incident(det as usize));
        }
        edge_ids.sort_unstable();
        edge_ids.dedup();
        let edges = self.graph.edges();
        out.extend(
            edge_ids
                .iter()
                .map(|&id| SourceEdge::from_graph_edge(&edges[id])),
        );
    }
}
