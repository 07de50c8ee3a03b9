//! `reactor_fleet`: fleets of packet-level playback sessions (half lossy,
//! half bursty) on the deterministic reactor. No pixel work runs per
//! unit; the shared packet plan is negotiated once in set-up.

use crate::trace::Tracer;
use crate::workloads::{fold_digests, mix, reseeded_clip, Bench, Sizes, Tally, Unit};
use annolight_core::QualityLevel;
use annolight_stream::machine::{ScaleOutcome, ScaleSession, ScaleSpec};
use annolight_stream::{FaultConfig, SessionConfig};
use annolight_support::channel;
use annolight_support::reactor::{Reactor, ReactorConfig, ReactorReport, Task};
use std::sync::Arc;
use std::time::Instant;

/// Distinct fleets in the pool; unit `i` replays fleet `i % FLEETS`.
const FLEETS: usize = 10;
/// Reactor step workers. On a 2-vCPU host a second worker shortens a
/// fleet by about 4 % but makes every scheduler round wait for both
/// vCPUs, which doubles its exposure to other tenants; the thread
/// substrate is measured by `proxy_batch` instead.
const REACTOR_WORKERS: usize = 1;
/// Loss probability of the lossy half of every fleet.
const LOSSY_DROP_P: f64 = 0.12;

/// Where a fleet's sessions report their outcomes, tagged by index.
type Outcomes = channel::Receiver<(usize, ScaleOutcome)>;

/// See the module docs.
pub struct ReactorFleet {
    seed: u64,
    sessions: usize,
    frames_per_session: u32,
    spec: Arc<ScaleSpec>,
}

impl ReactorFleet {
    /// Negotiates the fleet's packet plan from a preview of *themovie*.
    ///
    /// # Errors
    ///
    /// Returns the session error if negotiation fails.
    pub fn new(seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let clip = reseeded_clip("themovie", seed, sizes.reactor_preview_s);
        let frames_per_session = clip.frame_count();
        let spec = ScaleSpec::negotiate(SessionConfig::new(clip, QualityLevel::Q10))
            .map_err(|e| e.to_string())?;
        Ok(Self {
            seed,
            sessions: sizes.reactor_sessions,
            frames_per_session,
            spec: Arc::new(spec),
        })
    }

    fn fleet_seed(&self, index: usize) -> (u64, u64) {
        let key = (index % FLEETS) as u64;
        (key, mix(self.seed, key))
    }

    fn sessions(&self, fleet_seed: u64) -> (Vec<Box<dyn Task>>, Outcomes) {
        let (tx, rx) = channel::unbounded();
        let tasks = (0..self.sessions)
            .map(|i| {
                let s = mix(fleet_seed, i as u64);
                let faults = if i % 2 == 0 {
                    FaultConfig::lossy(s, LOSSY_DROP_P)
                } else {
                    FaultConfig::bursty(s)
                };
                Box::new(ScaleSession::new(
                    Arc::clone(&self.spec),
                    faults,
                    i,
                    tx.clone(),
                )) as Box<dyn Task>
            })
            .collect();
        (tasks, rx)
    }

    fn reactor(fleet_seed: u64) -> Reactor {
        Reactor::with_config(ReactorConfig {
            seed: fleet_seed,
            workers: REACTOR_WORKERS,
            ..ReactorConfig::default()
        })
    }

    /// Gathers the outcomes in session order.
    fn collect(&self, rx: &Outcomes) -> Result<Vec<ScaleOutcome>, String> {
        let mut slots: Vec<Option<ScaleOutcome>> = vec![None; self.sessions];
        for (i, outcome) in rx.iter() {
            slots[i] = Some(outcome);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.ok_or_else(|| format!("session {i} never reported")))
            .collect()
    }

    /// Checks a fleet's outcomes and turns them into a unit.
    fn fleet_unit(
        &self,
        index: usize,
        key: u64,
        service_s: f64,
        result: Result<(ReactorReport, Vec<ScaleOutcome>), String>,
    ) -> Unit {
        let (report, outcomes) = match result {
            Ok(r) => r,
            Err(e) => return Unit::failed(index, key, service_s, e),
        };
        let packets = self.spec.packets() as u64;
        if let Some((i, o)) = outcomes
            .iter()
            .enumerate()
            .find(|(_, o)| o.packets != packets || o.degraded_frames > self.frames_per_session)
        {
            let e = format!(
                "session {i}: {} packets of {packets}, {} degraded frames",
                o.packets, o.degraded_frames
            );
            return Unit::failed(index, key, service_s, e);
        }
        let mut tally = Tally {
            sessions: outcomes.len() as u64,
            frames: outcomes.len() as u64 * u64::from(self.frames_per_session),
            steps: report.steps,
            ..Tally::default()
        };
        for o in &outcomes {
            tally.packets += o.packets;
            tally.dropped += o.dropped;
            tally.retransmits += o.retransmits;
            tally.degraded_frames += u64::from(o.degraded_frames);
        }
        let digest = fold_digests(
            [report.digest.value(), report.steps]
                .into_iter()
                .chain(outcomes.iter().map(|o| o.digest)),
        );
        Unit {
            index,
            key,
            group: key,
            digest,
            service_s,
            tally,
            ..Unit::default()
        }
    }
}

impl Bench for ReactorFleet {
    fn params(&self) -> String {
        format!(
            "closed loop, 1 client; fleets of {} ScaleSessions ({} packets, {} frames each; even lossy({LOSSY_DROP_P}), odd bursty) on a {REACTOR_WORKERS}-worker Reactor",
            self.sessions,
            self.spec.packets(),
            self.frames_per_session
        )
    }

    fn unit(&self, index: usize) -> Unit {
        let (key, fleet_seed) = self.fleet_seed(index);
        let started = Instant::now();
        let (tasks, rx) = self.sessions(fleet_seed);
        let mut reactor = Self::reactor(fleet_seed);
        for task in tasks {
            reactor.spawn(task);
        }
        let report = reactor.run();
        let outcomes = self.collect(&rx);
        let service_s = started.elapsed().as_secs_f64();
        self.fleet_unit(index, key, service_s, outcomes.map(|o| (report, o)))
    }

    fn unit_traced(&self, index: usize, tracer: &mut Tracer) -> Unit {
        let (key, fleet_seed) = self.fleet_seed(index);
        let started = Instant::now();
        let result = tracer.unit(index as u64, |t| {
            let (tasks, rx) = t.span("stream.sessions", |_| self.sessions(fleet_seed));
            let mut reactor = Self::reactor(fleet_seed);
            t.span("support.reactor_spawn", |_| {
                for task in tasks {
                    reactor.spawn(task);
                }
            });
            let report = t.span("support.reactor_run", |_| reactor.run());
            t.span("stream.collect", |_| self.collect(&rx))
                .map(|o| (report, o))
        });
        let service_s = started.elapsed().as_secs_f64();
        self.fleet_unit(index, key, service_s, result)
    }
}
