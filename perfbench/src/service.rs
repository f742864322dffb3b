//! `daemon`: an in-process decode daemon on a unix socket, driven over
//! one connection by one client thread.
//!
//! Set-up binds the daemon (`Daemon::bind` + `Daemon::run` on its own
//! thread, `WORKERS` decode workers), samples every session's syndrome
//! words, connects once and opens `SESSIONS` d=3 sparse sessions. The
//! timed loop is closed: each session keeps one `Push` of `CHUNK` rounds
//! outstanding and sends the next when its `Corrections` arrive; every
//! session sends one `Inject` (a radius-1 strike) after `INJECT_AT`
//! rounds. Frames are built and parsed with `encode_frame` /
//! `decode_frame`, so codec, send and receive-wait time separately.
//!
//! The check closes every session and compares its `Closed` flips with a
//! direct `DecodeSession` fed the same words and the same strike.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_deformer::prelude::*;
use surf_deformer::service::{decode_frame, encode_frame, Frame, WireDefect, MAX_FRAME_LEN};

use crate::bench::{Checked, Limit, Phase, Throughput, Workload};
use crate::trace::{Tracer, OP};

const SESSIONS: usize = 8;
const D: u16 = 3;
const LANES: u8 = 64;
/// Noisy rounds per session. A session that has pushed them all closes,
/// and its slot opens a new session over the same words.
const ROUNDS: u32 = 32_000;
/// Rounds per `Push` frame.
const CHUNK: usize = 4;
/// Rounds a session pushes before its `Inject`.
const INJECT_AT: usize = 64;
/// A `Stats` request rides along with every this many pushes of a slot.
const STATS_EVERY: u64 = 64;
/// Decode workers: one per core, at most two.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub struct Service;

/// One of the `SESSIONS` concurrent session slots the client drives.
/// Incarnation `j` of slot `k` is session id `k + 1 + j * SESSIONS`.
struct Slot {
    /// Detector words of every round, in the layout `Opened` announced.
    rounds: Vec<Vec<u64>>,
    /// The strike every incarnation injects after `INJECT_AT` rounds.
    strike: Vec<WireDefect>,
    /// The live incarnation, whether it is still open, and the rounds it
    /// has been sent.
    id: u32,
    open: bool,
    sent: usize,
    pushes: u64,
    /// Send time and round count of the outstanding push.
    in_flight: Option<(Instant, usize)>,
    /// Flips served by every incarnation that closed complete.
    complete: Vec<u64>,
    /// Rounds sent to, and flips served by, an incarnation closed early.
    partial: Option<(usize, u64)>,
}

fn slot_of(session: u32) -> usize {
    (session as usize - 1) % SESSIONS
}

pub struct State {
    daemon: Option<JoinHandle<io::Result<()>>>,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    slots: Vec<Slot>,
    /// `Close` frames sent whose `Closed` has not arrived.
    closing: usize,
    /// `Inject` frames sent.
    injects: u64,
    wire: Wire,
}

/// Frames and bytes on the wire, both directions.
#[derive(Clone, Copy, Default)]
struct Wire {
    frames_out: u64,
    frames_in: u64,
    bytes_out: u64,
    bytes_in: u64,
}

/// Distinguishes the sockets of the set-ups one run builds.
static SOCKETS: AtomicU64 = AtomicU64::new(0);

impl State {
    /// Encodes and sends `frames` in one write.
    fn send(&mut self, frames: &[Frame], tr: &mut Tracer) -> io::Result<()> {
        let bytes = tr.span("service.wire.codec", || {
            frames.iter().flat_map(encode_frame).collect::<Vec<u8>>()
        });
        self.wire.frames_out += frames.len() as u64;
        self.wire.bytes_out += bytes.len() as u64;
        let writer = &mut self.writer;
        tr.span("service.client.send", || writer.write_all(&bytes))
    }

    /// Receives and decodes the next frame.
    fn recv(&mut self, tr: &mut Tracer) -> io::Result<Frame> {
        let reader = &mut self.reader;
        let payload = tr.span("service.client.recv", || -> io::Result<Vec<u8>> {
            let mut len = [0u8; 4];
            reader.read_exact(&mut len)?;
            let len = u32::from_le_bytes(len);
            if len > MAX_FRAME_LEN {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "oversized frame",
                ));
            }
            let mut payload = vec![0u8; len as usize];
            reader.read_exact(&mut payload)?;
            Ok(payload)
        })?;
        self.wire.frames_in += 1;
        self.wire.bytes_in += 4 + payload.len() as u64;
        tr.span("service.wire.codec", || decode_frame(&payload))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
    }

    /// Sends slot `k`'s next push: its `Inject` once the incarnation
    /// reaches `INJECT_AT` rounds, the next `CHUNK` rounds, and now and
    /// then a `Stats` request.
    fn push(&mut self, k: usize, tr: &mut Tracer) -> io::Result<()> {
        let s = &mut self.slots[k];
        let mut frames = Vec::with_capacity(3);
        if s.sent == INJECT_AT {
            self.injects += 1;
            frames.push(Frame::Inject {
                session: s.id,
                round: s.sent as u32,
                defects: s.strike.clone(),
            });
        }
        let end = (s.sent + CHUNK).min(s.rounds.len());
        frames.push(Frame::Push {
            session: s.id,
            rounds: s.rounds[s.sent..end].to_vec(),
        });
        let pushed = end - s.sent;
        s.sent = end;
        s.pushes += 1;
        if s.pushes.is_multiple_of(STATS_EVERY) {
            frames.push(Frame::Stats { session: s.id });
        }
        self.send(&frames, tr)?;
        self.slots[k].in_flight = Some((Instant::now(), pushed));
        Ok(())
    }

    /// Closes slot `k`'s live incarnation; with `reopen`, opens the next.
    fn close(&mut self, k: usize, reopen: bool, tr: &mut Tracer) -> io::Result<()> {
        let s = &mut self.slots[k];
        let mut frames = vec![Frame::Close { session: s.id }];
        s.open = reopen;
        if reopen {
            s.id += SESSIONS as u32;
            s.sent = 0;
            frames.push(Frame::Open {
                session: s.id,
                lanes: LANES,
                spec: spec(),
            });
        }
        self.closing += 1;
        self.send(&frames, tr)
    }

    /// Records a `Closed` frame.
    fn closed(&mut self, session: u32, complete: bool, flips: u64) {
        self.closing -= 1;
        let s = &mut self.slots[slot_of(session)];
        if complete {
            s.complete.push(flips);
        } else {
            // Only the live incarnation closes early.
            s.partial = Some((s.sent, flips));
        }
    }

    /// Stops the daemon and joins its thread.
    fn shutdown(&mut self) -> io::Result<()> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        let mut tr = Tracer::new(false);
        let sent = self.send(&[Frame::Shutdown], &mut tr);
        // Frames still in flight arrive first; the daemon closes the
        // socket after acknowledging.
        while sent.is_ok() {
            match self.recv(&mut tr) {
                Ok(Frame::ShuttingDown) | Err(_) => break,
                Ok(_) => continue,
            }
        }
        let served = daemon
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?;
        sent.and(served)
    }
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The spec every session opens with.
fn spec() -> SessionSpec {
    let mut spec = SessionSpec::standard(D, ROUNDS);
    spec.window = 2 * u32::from(D);
    spec.commit = u32::from(D);
    spec.sparse = 1;
    spec
}

/// The radius-1 strike slot `k` injects. The sites spread over the
/// patch and do not depend on the seed: a strike reweights the decoder
/// for the rest of the session, so its site sets most of the decode cost.
fn strike(k: usize) -> Vec<WireDefect> {
    let patch = Patch::rotated(D as usize);
    let mut universe = patch.data_qubits();
    universe.extend(patch.syndrome_qubits());
    let centre = universe[k * universe.len() / SESSIONS];
    universe
        .iter()
        .filter(|q| q.chebyshev(centre) <= 1)
        .map(|q| WireDefect {
            x: q.x,
            y: q.y,
            rate: 0.5,
        })
        .collect()
}

/// Samples every round of one session from `model`'s compiled model.
fn sample(model: &DecodeSession, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let mut stream = model.round_stream();
    stream.begin(rng, usize::from(LANES));
    let mut rounds = Vec::with_capacity(model.total_rounds() as usize);
    while let Some(slice) = stream.next_round() {
        rounds.push(slice.words.to_vec());
    }
    rounds
}

impl Workload for Service {
    type State = State;
    const LATENCY: &'static str = "rtt";

    fn setup(&self, seed: u64, counts: &mut BTreeMap<&'static str, f64>) -> State {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = spec().to_config().expect("the benchmark spec is valid");
        let model = config.open(usize::from(LANES));
        let slots: Vec<Slot> = (0..SESSIONS)
            .map(|k| Slot {
                rounds: sample(&model, &mut rng),
                strike: strike(k),
                id: k as u32 + 1,
                open: true,
                sent: 0,
                pushes: 0,
                in_flight: None,
                complete: Vec::new(),
                partial: None,
            })
            .collect();

        let started = Instant::now();
        let path = PathBuf::from(format!(
            ".perfbench-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, Ordering::Relaxed)
        ));
        let daemon = Daemon::bind(
            &path,
            DaemonConfig {
                workers: workers(),
                queue_capacity: 16,
            },
        )
        .expect("bind the daemon socket");
        let daemon = std::thread::spawn(move || daemon.run());
        let stream = UnixStream::connect(&path).expect("connect to the daemon");
        // A reply that never comes fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set the socket's read timeout");
        let mut state = State {
            daemon: Some(daemon),
            reader: BufReader::new(stream.try_clone().expect("clone the socket")),
            writer: stream,
            slots,
            closing: 0,
            injects: 0,
            wire: Wire::default(),
        };
        let mut tr = Tracer::new(false);
        let opens: Vec<Frame> = state
            .slots
            .iter()
            .map(|s| Frame::Open {
                session: s.id,
                lanes: LANES,
                spec: spec(),
            })
            .collect();
        state.send(&opens, &mut tr).expect("send Open frames");
        let expected: Vec<u32> = state.slots[0]
            .rounds
            .iter()
            .map(|r| r.len() as u32)
            .collect();
        for _ in 0..SESSIONS {
            match state.recv(&mut tr).expect("receive Opened frames") {
                Frame::Opened { round_counts, .. } => {
                    assert_eq!(round_counts, expected, "daemon and sampler layouts agree");
                }
                other => panic!("unexpected reply to Open: {other:?}"),
            }
        }
        counts.insert("service.daemon.open_s", started.elapsed().as_secs_f64());
        state
    }

    fn run(&self, state: &mut State, limit: Limit, tr: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let mut meter = Throughput::start();
        let mut queue_depth_max = 0u32;
        let mut errors = 0u64;
        let (wire_before, injects_before) = (state.wire, state.injects);
        let mut sent = Ok(());
        for k in 0..SESSIONS {
            sent = sent.and_then(|()| state.push(k, tr));
        }
        // Slots awaiting a `Corrections` or an `Opened`.
        let mut waiting = SESSIONS;
        // Each op is one round trip: it ends when a `Corrections` frame
        // arrives and the slot's next request is sent.
        let mut op = tr.enter();
        while waiting > 0 && sent.is_ok() {
            let frame = match state.recv(tr) {
                Ok(frame) => frame,
                Err(e) => {
                    sent = Err(e);
                    break;
                }
            };
            let go_on = !limit.reached(meter.started(), phase.steps);
            match frame {
                Frame::Corrections { session, .. } => {
                    let k = slot_of(session);
                    let now = Instant::now();
                    let (pushed_at, rounds) = state.slots[k]
                        .in_flight
                        .take()
                        .expect("one push in flight per slot");
                    phase
                        .latencies_us
                        .push((now - pushed_at).as_secs_f64() * 1e6);
                    phase.steps += 1;
                    meter.add(u64::from(LANES) * rounds as u64, now);
                    let s = &state.slots[k];
                    sent = if s.sent == s.rounds.len() {
                        waiting -= usize::from(!go_on);
                        state.close(k, go_on, tr)
                    } else if go_on {
                        state.push(k, tr)
                    } else {
                        waiting -= 1;
                        Ok(())
                    };
                    tr.exit(op, OP);
                    op = tr.enter();
                }
                Frame::Opened { session, .. } => {
                    sent = if go_on {
                        state.push(slot_of(session), tr)
                    } else {
                        waiting -= 1;
                        Ok(())
                    };
                }
                Frame::Closed {
                    session,
                    complete,
                    observable_flips,
                } => state.closed(session, complete, observable_flips),
                Frame::SessionStats { queue_depth, .. } => {
                    queue_depth_max = queue_depth_max.max(queue_depth);
                }
                Frame::Error { session, message } => {
                    eprintln!("daemon error for session {session}: {message}");
                    errors += 1;
                    // A failed push gets no `Corrections`: stop driving
                    // its slot rather than wait for one. Session 0 means
                    // the connection, which the daemon then closes.
                    if session > 0 && state.slots[slot_of(session)].in_flight.take().is_some() {
                        waiting -= 1;
                    }
                }
                Frame::Availability { .. } | Frame::Deformed { .. } => {}
                other => {
                    eprintln!("unexpected frame {other:?}");
                    errors += 1;
                }
            }
        }
        tr.exit(op, OP);
        if let Err(e) = sent {
            eprintln!("daemon connection: {e}");
            errors += 1;
        }
        let (wall_s, shot_rounds, rate) = meter.finish();
        phase.wall_s = wall_s;
        phase.shot_rounds = shot_rounds;
        phase.shot_rounds_per_s = rate;
        phase.attempted = phase.steps + (state.injects - injects_before) + errors;
        phase.failed = errors;
        let wire = state.wire;
        for (name, value) in [
            ("service.daemon.queue_depth_max", f64::from(queue_depth_max)),
            ("service.daemon.error_frames", errors as f64),
            (
                "service.wire.frames_out",
                (wire.frames_out - wire_before.frames_out) as f64,
            ),
            (
                "service.wire.frames_in",
                (wire.frames_in - wire_before.frames_in) as f64,
            ),
            (
                "service.wire.bytes_out",
                (wire.bytes_out - wire_before.bytes_out) as f64,
            ),
            (
                "service.wire.bytes_in",
                (wire.bytes_in - wire_before.bytes_in) as f64,
            ),
        ] {
            phase.count(name, value);
        }
        phase
    }

    /// Every session's `Closed` flips must equal a direct `DecodeSession`
    /// fed the same rounds with the same strike at the same point.
    fn check(&self, mut state: State, _phase: &Phase) -> Checked {
        let mut checked = Checked::default();
        let mut tr = Tracer::new(false);
        let mut io = Ok(());
        for k in 0..SESSIONS {
            if state.slots[k].open {
                io = io.and_then(|()| state.close(k, false, &mut tr));
            }
        }
        while io.is_ok() && state.closing > 0 {
            io = match state.recv(&mut tr) {
                Ok(Frame::Closed {
                    session,
                    complete,
                    observable_flips,
                }) => {
                    state.closed(session, complete, observable_flips);
                    Ok(())
                }
                Ok(Frame::Error { session, message }) => {
                    checked.expect(false, &format!("session {session}: {message}"));
                    Ok(())
                }
                Ok(_) => Ok(()),
                Err(e) => Err(e),
            };
        }
        if let Err(e) = io {
            checked.expect(false, &format!("closing sessions: {e}"));
        }
        let config = spec().to_config().expect("the benchmark spec is valid");
        for (k, s) in state.slots.iter().enumerate() {
            let prefix = s.partial.map_or(0, |(sent, _)| sent);
            match direct_flips(&config, s, prefix) {
                Ok((at_prefix, full)) => {
                    for &served in &s.complete {
                        checked.expect(
                            served == full,
                            &format!("slot {k}: served {served:#x}, direct {full:#x}"),
                        );
                    }
                    if let Some((sent, served)) = s.partial {
                        checked.expect(
                            served == at_prefix,
                            &format!(
                                "slot {k} after {sent} rounds: served {served:#x}, \
                                 direct {at_prefix:#x}"
                            ),
                        );
                    }
                }
                Err(e) => checked.expect(false, &format!("slot {k}: direct session: {e}")),
            }
        }
        if let Err(e) = state.shutdown() {
            checked.expect(false, &format!("daemon shutdown: {e}"));
        }
        checked
    }
}

/// Lane-packed committed flips of a direct session fed slot `s`'s
/// rounds with its strike injected where the daemon got it: after the
/// first `prefix` rounds, and after all of them.
fn direct_flips(config: &SessionConfig, s: &Slot, prefix: usize) -> Result<(u64, u64), String> {
    let packed = |session: &DecodeSession| {
        session
            .observables()
            .iter()
            .enumerate()
            .fold(0u64, |acc, (lane, &mask)| acc | (mask & 1) << lane)
    };
    let mut direct = config.open(usize::from(LANES));
    let mut at_prefix = packed(&direct);
    for (round, words) in s.rounds.iter().enumerate() {
        if round == INJECT_AT {
            let mut map = DefectMap::new();
            for d in &s.strike {
                map.insert(Coord::new(d.x, d.y), d.rate);
            }
            direct
                .inject_event(&DefectEvent::new(round as u32, map))
                .map_err(|e| e.to_string())?;
        }
        direct.push_round(words).map_err(|e| e.to_string())?;
        if round + 1 == prefix {
            at_prefix = packed(&direct);
        }
    }
    Ok((at_prefix, packed(&direct)))
}
