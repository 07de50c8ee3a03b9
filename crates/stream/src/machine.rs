//! Sessions as resumable reactor state machines.
//!
//! [`SessionMachine`] is the one **full-fidelity** session
//! implementation. It runs a [`SessionSpec`] — a playback session or a
//! governed one — as a cooperative [`Task`] on the
//! [`annolight_support::reactor`]:
//!
//! 1. **init** — negotiate and serve (or proxy-transcode); a governed
//!    session also builds its plan ladder. Then plan the hop's packets
//!    ([`LossyEngine`]).
//! 2. **deliver** — pump 16 packet fates per step
//!    through the seeded [`FaultConfig`] hop into a [`LossyCollector`],
//!    sleeping to the channel's send clock between batches.
//! 3. **play** — the client's playback with retransmission accounting in
//!    one step, or, for a governed session, one scene per step, sleeping
//!    the playback clock to each scene boundary.
//!
//! Every blocking entry point — [`crate::session::run_session`],
//! [`crate::session::run_session_faulty`],
//! [`crate::session::run_session_with_server`] and
//! [`crate::governor::run_session_governed`] — runs this machine alone on
//! a one-task, one-worker [`Reactor`], and [`run_sessions_on_reactor`]
//! hosts any mix of specs on one reactor. All delivery timing is simulated
//! by the channel model, so no session needs a thread of its own, and a
//! hosted session reports byte for byte what its blocking run reports at
//! any schedule seed and worker count — the determinism tier pins this.
//!
//! [`ScaleSession`] is the **lightweight** tier for 10⁵⁺ concurrent
//! sessions: per-session state is one [`FaultyChannel`] plus a few
//! counters (≈ a few hundred bytes), the packet plan and annotation
//! schedule are shared behind one [`ScaleSpec`] `Arc`, and received
//! copies fold into an FNV digest instead of buffering bytes. Fault fates
//! still come from the real seeded channel; the degradation tail replays
//! the client's hold-then-ramp policy arithmetically.

use crate::faults::{
    retry::RetryPolicy, DegradationConfig, FaultConfig, FaultyChannel, HintPlan, LossyCollector,
    LossyEngine,
};
use crate::governor::{
    prepare_governed, GovernedPrep, GovernedSessionReport, GovernorDriver, GovernorSessionConfig,
};
use crate::message::StreamPacket;
use crate::network::WirelessChannel;
use crate::session::{
    finish_faulty, negotiate_and_serve, ClientTail, FaultySessionReport, SessionConfig,
    SessionError,
};
use annolight_codec::EncodedStream;
use annolight_support::channel::{self, Sender};
use annolight_support::fnv::Digester;
use annolight_support::json::{Json, ToJson};
use annolight_support::reactor::{Reactor, ReactorConfig, ReactorReport, Step, Task};
use annolight_support::wheel::ticks_from_secs;
use std::sync::Arc;

/// Packets a machine pumps per cooperative step.
const PACKETS_PER_STEP: usize = 16;

// ---------------------------------------------------------------------------
// The full-fidelity session machine.
// ---------------------------------------------------------------------------

/// What one [`SessionMachine`] runs.
#[derive(Debug, Clone)]
pub enum SessionSpec {
    /// A playback session over the hop in [`SessionConfig::faults`].
    Play(SessionConfig),
    /// A governed session: the hint stream crosses the hop in
    /// `session.faults`, then the governor plays scene by scene.
    Govern(GovernorSessionConfig),
}

/// What one [`SessionMachine`] reports. Serialises as the report it
/// carries.
#[derive(Debug, Clone)]
pub enum SessionOutcome {
    /// The report of a [`SessionSpec::Play`] session.
    Play(FaultySessionReport),
    /// The report of a [`SessionSpec::Govern`] session.
    Govern(GovernedSessionReport),
}

impl ToJson for SessionOutcome {
    fn to_json(&self) -> Json {
        match self {
            SessionOutcome::Play(report) => report.to_json(),
            SessionOutcome::Govern(report) => report.to_json(),
        }
    }
}

/// What runs once the hop is drained.
enum Then {
    /// Degraded playback and retransmission accounting, in one step.
    Play(ClientTail),
    /// Governed playback, one scene per step.
    Govern(GovernedPrep, Box<GovernorSessionConfig>),
}

/// The deliver phase: the sender engine, the receiver, and what follows.
struct Delivery {
    engine: LossyEngine,
    collector: LossyCollector,
    then: Then,
}

impl Delivery {
    fn new(
        stream: &EncodedStream,
        link: &WirelessChannel,
        faults: &FaultConfig,
        then: Then,
    ) -> Result<Self, SessionError> {
        Ok(Self {
            engine: LossyEngine::new(stream, link, faults).map_err(SessionError::Pipeline)?,
            collector: LossyCollector::with_capacity(stream.as_bytes().len()),
            then,
        })
    }
}

enum State {
    Init(Box<SessionSpec>),
    Deliver(Box<Delivery>),
    Govern(Box<GovernorDriver>),
    Finished,
}

/// A session as a resumable state machine (see the module docs for its
/// steps). The result arrives on the output channel as `(index, result)`.
pub struct SessionMachine {
    state: State,
    index: usize,
    out: Sender<(usize, Result<SessionOutcome, SessionError>)>,
}

impl SessionMachine {
    /// A machine for `spec`, reporting as session `index` on `out`.
    #[must_use]
    pub fn new(
        spec: SessionSpec,
        index: usize,
        out: Sender<(usize, Result<SessionOutcome, SessionError>)>,
    ) -> Self {
        Self { state: State::Init(Box::new(spec)), index, out }
    }

    fn report(&mut self, result: Result<SessionOutcome, SessionError>) -> Step {
        let _ = self.out.send((self.index, result));
        Step::Done
    }

    fn init(spec: SessionSpec) -> Result<Delivery, SessionError> {
        match spec {
            SessionSpec::Play(config) => {
                let (stream, annotation_bytes, config) = negotiate_and_serve(config)?;
                let then = Then::Play(ClientTail::of(&config, annotation_bytes));
                Delivery::new(&stream, &config.channel, &config.faults, then)
            }
            SessionSpec::Govern(cfg) => {
                let (stream, prep, config) = prepare_governed(&cfg)?;
                let then = Then::Govern(prep, Box::new(cfg));
                Delivery::new(&stream, &config.channel, &config.faults, then)
            }
        }
    }

    fn deliver(&mut self, mut d: Box<Delivery>) -> Result<Step, SessionError> {
        for _ in 0..PACKETS_PER_STEP {
            let Some(copies) = d.engine.pump().map_err(SessionError::Pipeline)? else {
                let Delivery { engine, collector, then } = *d;
                let lossy = engine.finish(collector).map_err(SessionError::Pipeline)?;
                return Ok(match then {
                    Then::Play(tail) => {
                        self.report(finish_faulty(lossy, tail).map(SessionOutcome::Play))
                    }
                    Then::Govern(prep, cfg) => {
                        let driver = GovernorDriver::new(prep, &cfg, lossy);
                        self.state = State::Govern(Box::new(driver));
                        Step::Yield
                    }
                });
            };
            for (arrival, wire) in copies {
                d.collector.offer(arrival, &wire).map_err(SessionError::Pipeline)?;
            }
        }
        let clock = d.engine.clock_s();
        self.state = State::Deliver(d);
        Ok(Step::Sleep(ticks_from_secs(clock)))
    }

    fn govern(&mut self, mut driver: Box<GovernorDriver>) -> Result<Step, SessionError> {
        if driver.done() {
            return Ok(self.report(Ok(SessionOutcome::Govern(driver.finish()))));
        }
        driver.step_scene()?;
        let clock = driver.scene_end_s();
        self.state = State::Govern(driver);
        Ok(Step::Sleep(ticks_from_secs(clock)))
    }
}

impl Task for SessionMachine {
    fn step(&mut self) -> Step {
        let step = match std::mem::replace(&mut self.state, State::Finished) {
            State::Init(spec) => Self::init(*spec).map(|delivery| {
                self.state = State::Deliver(Box::new(delivery));
                Step::Yield
            }),
            State::Deliver(d) => self.deliver(d),
            State::Govern(driver) => self.govern(driver),
            State::Finished => Ok(Step::Done),
        };
        step.unwrap_or_else(|e| self.report(Err(e)))
    }
}

// ---------------------------------------------------------------------------
// Lightweight scale tier.
// ---------------------------------------------------------------------------

/// The shared, immutable part of a fleet of [`ScaleSession`]s: the
/// per-packet wire lengths (hints first, then MTU picture chunks), the
/// hint deadlines, and the annotation schedule for the degradation
/// replay. Built once per stream, shared behind an `Arc` by every
/// session — per-session memory stays a few hundred bytes.
#[derive(Debug)]
pub struct ScaleSpec {
    delta_lens: Vec<usize>,
    picture_lens: Vec<usize>,
    deadlines: Vec<f64>,
    startup_s: f64,
    fps: f64,
    frames: u32,
    /// `(start_frame, backlight level)` per scene, in frame order.
    schedule: Vec<(u32, u8)>,
    link: WirelessChannel,
}

impl ScaleSpec {
    /// Negotiates and serves `config`'s clip once (the same
    /// server-side path every full-fidelity session takes) and derives
    /// the fleet's shared packet plan from the served stream.
    ///
    /// # Errors
    ///
    /// Propagates negotiation/pipeline failures.
    pub fn negotiate(config: SessionConfig) -> Result<Self, SessionError> {
        let (stream, _, config) = negotiate_and_serve(config)?;
        Self::from_stream(&stream, &config.channel, config.faults.startup_buffer_s)
            .map_err(SessionError::Pipeline)
    }

    /// Derives the packet plan for delivering `stream` over `link` with
    /// `startup_buffer_s` of client-side buffering.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string when the stream or its annotation
    /// track cannot be decoded.
    pub fn from_stream(
        stream: &EncodedStream,
        link: &WirelessChannel,
        startup_buffer_s: f64,
    ) -> Result<Self, String> {
        let plan = HintPlan::of(stream, link, startup_buffer_s)?;
        let mut seq = 0u32;
        let delta_lens: Vec<usize> = plan
            .deltas
            .iter()
            .map(|d| {
                let len = StreamPacket::delta(seq, d.to_bytes()).to_wire().len();
                seq += 1;
                len
            })
            .collect();
        let picture_lens: Vec<usize> = stream
            .as_bytes()
            .chunks(link.mtu)
            .map(|c| {
                let len = StreamPacket::picture(seq, c.to_vec()).to_wire().len();
                seq += 1;
                len
            })
            .collect();
        let schedule = plan
            .track
            .as_ref()
            .map(|t| t.entries().iter().map(|e| (e.start_frame, e.backlight.0)).collect())
            .unwrap_or_default();
        Ok(Self {
            delta_lens,
            picture_lens,
            deadlines: plan.deadlines,
            startup_s: plan.startup_s,
            fps: plan.fps,
            frames: stream.frame_count(),
            schedule,
            link: *link,
        })
    }

    /// Packets one session drives (hints + picture chunks).
    #[must_use]
    pub fn packets(&self) -> usize {
        self.delta_lens.len() + self.picture_lens.len()
    }
}

/// What one [`ScaleSession`] reports when it finishes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleOutcome {
    /// FNV fold of every arrival time the session observed — the
    /// per-session fingerprint the scale bench aggregates.
    pub digest: u64,
    /// First transmissions offered to the channel.
    pub packets: u64,
    /// First transmissions lost.
    pub dropped: u64,
    /// Link-layer retransmissions spent.
    pub retransmits: u64,
    /// Picture packets that exhausted even the reliable retry budget.
    pub undeliverable: u32,
    /// Frames played without their annotation available.
    pub degraded_frames: u32,
    /// Mean perceived-intensity error of the degradation replay.
    pub perceived_error: f64,
    /// The send clock when the session finished, seconds.
    pub finish_s: f64,
}

/// A playback session small enough to run 10⁵⁺ concurrently: real
/// seeded fault fates from its own [`FaultyChannel`], the shared
/// [`ScaleSpec`] packet plan, arrivals folded into a digest instead of
/// buffered, and the client's hold-then-ramp degradation policy replayed
/// arithmetically over the annotation schedule.
pub struct ScaleSession {
    spec: Arc<ScaleSpec>,
    chan: FaultyChannel,
    degradation: DegradationConfig,
    next: usize,
    arrivals: Vec<Option<f64>>,
    digest: Digester,
    undeliverable: u32,
    index: usize,
    out: Sender<(usize, ScaleOutcome)>,
}

impl ScaleSession {
    /// A session driving `spec`'s packet plan through a fresh channel
    /// with the faults in `faults`.
    #[must_use]
    pub fn new(
        spec: Arc<ScaleSpec>,
        faults: FaultConfig,
        index: usize,
        out: Sender<(usize, ScaleOutcome)>,
    ) -> Self {
        let n = spec.delta_lens.len();
        Self {
            chan: FaultyChannel::new(spec.link, faults),
            spec,
            degradation: DegradationConfig::default(),
            next: 0,
            arrivals: vec![None; n],
            digest: Digester::new(),
            undeliverable: 0,
            index,
            out,
        }
    }

    /// The client's graceful-degradation policy
    /// ([`crate::client::PlaybackClient::play_degraded`]) replayed over
    /// the annotation schedule: hold the last annotated level briefly,
    /// then slew toward full backlight, recovering when a hint lands.
    fn replay_degradation(&self) -> (u32, f64) {
        let spec = &self.spec;
        if spec.schedule.is_empty() || spec.frames == 0 {
            return (0, 0.0);
        }
        let mut degraded = 0u32;
        let mut error_sum = 0.0f64;
        let mut last_good: u8 = 255;
        let mut degraded_since: Option<u32> = None;
        let mut missing_seq: Option<usize> = None;
        for frame in 0..spec.frames {
            let now = f64::from(frame) / spec.fps;
            let idx = match spec.schedule.binary_search_by_key(&frame, |e| e.0) {
                Ok(i) => i,
                Err(i) => i.saturating_sub(1),
            };
            let annotated = spec.schedule[idx].1;
            let arrived = self
                .arrivals
                .get(idx)
                .copied()
                .flatten()
                .is_some_and(|a| a <= spec.startup_s + now);
            if arrived {
                last_good = annotated;
                degraded_since = None;
                missing_seq = None;
                continue;
            }
            if missing_seq != Some(idx) {
                missing_seq = Some(idx);
                degraded_since = Some(frame);
            }
            let held = frame - degraded_since.unwrap_or(frame);
            let level = if held < self.degradation.hold_frames {
                last_good
            } else {
                let ramp = u32::from(self.degradation.ramp_step_per_frame)
                    * (held - self.degradation.hold_frames + 1);
                (u32::from(last_good) + ramp).min(255) as u8
            };
            degraded += 1;
            error_sum += f64::from(level.abs_diff(annotated));
        }
        (degraded, error_sum / (255.0 * f64::from(spec.frames)))
    }
}

impl Task for ScaleSession {
    fn step(&mut self) -> Step {
        let n_deltas = self.spec.delta_lens.len();
        for _ in 0..PACKETS_PER_STEP {
            if self.next < n_deltas {
                let i = self.next;
                let deadline = self.spec.deadlines[i];
                let len = self.spec.delta_lens[i];
                let fate = self.chan.try_deliver(len, |sent_s| {
                    Some(RetryPolicy::annotation().with_deadline((deadline - sent_s).max(0.0)))
                });
                if let Some(&first) = fate.copies.first() {
                    self.arrivals[i] = Some(first);
                }
                for &a in &fate.copies {
                    self.digest.write_f64(a);
                }
                self.next += 1;
            } else if self.next < self.spec.packets() {
                let len = self.spec.picture_lens[self.next - n_deltas];
                let fate = self.chan.try_deliver(len, |_| Some(RetryPolicy::reliable()));
                if fate.copies.is_empty() {
                    self.undeliverable += 1;
                }
                for &a in &fate.copies {
                    self.digest.write_f64(a);
                }
                self.next += 1;
            } else {
                let (degraded_frames, perceived_error) = self.replay_degradation();
                let digest = self.digest.write_u64(u64::from(degraded_frames)).finish();
                let stats = self.chan.stats();
                let _ = self.out.send((
                    self.index,
                    ScaleOutcome {
                        digest,
                        packets: stats.packets,
                        dropped: stats.dropped,
                        retransmits: stats.retransmits,
                        undeliverable: self.undeliverable,
                        degraded_frames,
                        perceived_error,
                        finish_s: self.chan.clock_s(),
                    },
                ));
                return Step::Done;
            }
        }
        Step::Sleep(ticks_from_secs(self.chan.clock_s()))
    }
}

// ---------------------------------------------------------------------------
// Reactor runners.
// ---------------------------------------------------------------------------

fn collect_indexed<T>(
    rx: channel::Receiver<(usize, T)>,
    n: usize,
    what: &str,
) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    for (index, value) in rx.iter() {
        slots[index] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("{what} session {i} never reported")))
        .collect()
}

fn host(
    states: Vec<State>,
    reactor_config: ReactorConfig,
) -> (Vec<Result<SessionOutcome, SessionError>>, ReactorReport) {
    let n = states.len();
    let (tx, rx) = channel::unbounded();
    let mut reactor = Reactor::with_config(reactor_config);
    for (index, state) in states.into_iter().enumerate() {
        reactor.spawn(Box::new(SessionMachine { state, index, out: tx.clone() }));
    }
    drop(tx);
    let report = reactor.run();
    (collect_indexed(rx, n, "hosted"), report)
}

/// Runs every spec as a [`SessionMachine`] on one reactor; results in
/// spawn order, plus the reactor's schedule report.
#[must_use]
pub fn run_sessions_on_reactor(
    specs: Vec<SessionSpec>,
    reactor_config: ReactorConfig,
) -> (Vec<Result<SessionOutcome, SessionError>>, ReactorReport) {
    host(specs.into_iter().map(|spec| State::Init(Box::new(spec))).collect(), reactor_config)
}

/// Runs one machine alone on a one-task, one-worker reactor.
fn alone(state: State) -> Result<SessionOutcome, SessionError> {
    let (mut results, _) = host(vec![state], ReactorConfig::default());
    results.pop().expect("one machine, one result")
}

fn play_outcome(state: State) -> Result<FaultySessionReport, SessionError> {
    match alone(state)? {
        SessionOutcome::Play(report) => Ok(report),
        SessionOutcome::Govern(_) => unreachable!("a play session reports a play outcome"),
    }
}

/// The body of [`crate::session::run_session_faulty`].
pub(crate) fn play_alone(config: SessionConfig) -> Result<FaultySessionReport, SessionError> {
    play_outcome(State::Init(Box::new(SessionSpec::Play(config))))
}

/// The body of [`crate::session::run_session_with_server`]: an
/// already-served `stream` crosses a lossless hop to the client in `tail`
/// through the machine's deliver and play steps.
pub(crate) fn play_served(
    stream: &EncodedStream,
    tail: ClientTail,
) -> Result<FaultySessionReport, SessionError> {
    let link = tail.channel;
    let delivery = Delivery::new(stream, &link, &FaultConfig::default(), Then::Play(tail))?;
    play_outcome(State::Deliver(Box::new(delivery)))
}

/// The body of [`crate::governor::run_session_governed`].
pub(crate) fn govern_alone(
    cfg: GovernorSessionConfig,
) -> Result<GovernedSessionReport, SessionError> {
    match alone(State::Init(Box::new(SessionSpec::Govern(cfg))))? {
        SessionOutcome::Govern(report) => Ok(report),
        SessionOutcome::Play(_) => unreachable!("a governed session reports a governed outcome"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::run_session_governed;
    use crate::session::run_session_faulty;
    use annolight_core::QualityLevel;
    use annolight_support::json::to_string;
    use annolight_video::ClipLibrary;

    fn config(seed: u64) -> SessionConfig {
        let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(2.0);
        let mut cfg = SessionConfig::new(clip, QualityLevel::Q10);
        cfg.faults = FaultConfig::lossless(seed);
        cfg
    }

    #[test]
    fn hosted_sessions_match_their_blocking_runs() {
        // A play and a governed session sharing one seeded, shuffled
        // reactor report exactly what each reports run alone.
        let mut play = config(42);
        play.faults = FaultConfig::lossy(42, 0.2);
        let mut govern = GovernorSessionConfig::new(config(3), 400.0).with_ambient_seed(3);
        govern.session.faults = FaultConfig::lossy(3, 0.2);
        let (results, report) = run_sessions_on_reactor(
            vec![SessionSpec::Play(play.clone()), SessionSpec::Govern(govern.clone())],
            ReactorConfig { seed: 7, ..ReactorConfig::default() },
        );
        assert_eq!(report.tasks, 2);
        let hosted: Vec<String> =
            results.into_iter().map(|r| to_string(&r.expect("hosted session"))).collect();
        assert_eq!(hosted[0], to_string(&run_session_faulty(play).unwrap()));
        assert_eq!(hosted[1], to_string(&run_session_governed(govern).unwrap()));
    }

    #[test]
    fn scale_sessions_complete_and_replay_deterministically() {
        let (stream, _, config) = negotiate_and_serve(config(7)).unwrap();
        let spec = Arc::new(
            ScaleSpec::from_stream(&stream, &config.channel, config.faults.startup_buffer_s)
                .unwrap(),
        );
        let run = |seed: u64| {
            let (tx, rx) = channel::unbounded();
            let mut reactor = Reactor::new(seed);
            for i in 0..64usize {
                let faults = if i % 2 == 0 {
                    FaultConfig::bursty(seed ^ i as u64)
                } else {
                    FaultConfig::lossy(seed ^ i as u64, 0.1)
                };
                reactor.spawn(Box::new(ScaleSession::new(
                    Arc::clone(&spec),
                    faults,
                    i,
                    tx.clone(),
                )));
            }
            drop(tx);
            let report = reactor.run();
            (collect_indexed(rx, 64, "scale"), report.digest.value())
        };
        let (a, da) = run(3);
        let (b, db) = run(3);
        assert_eq!(a, b, "same seed must replay identical outcomes");
        assert_eq!(da, db);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|o| o.packets > 0 && o.undeliverable == 0));
        assert!(a.iter().any(|o| o.dropped > 0), "lossy fleet must drop something");
    }
}
