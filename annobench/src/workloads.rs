//! The four workloads and what one unit of work reports.
//!
//! Every workload is a pool of inputs generated from the run's seed and
//! replayed unit by unit. A unit calls the program's real entry points
//! ([`Bench::unit`]); the traced run rebuilds the same unit from the
//! layers' public functions with one span per call
//! ([`Bench::unit_traced`]) and must produce the same digest.

use crate::trace::Tracer;
use annolight_core::digest::Digester;
use annolight_core::QualityLevel;
use annolight_stream::PlaybackReport;
use annolight_support::rng::{splitmix64, SmallRng};
use annolight_video::{Clip, ClipLibrary, ClipSpec};
use std::collections::BTreeMap;

/// The seed `golden.json` was recorded with.
pub const CANONICAL_SEED: u64 = 0x00DA_7E06;

/// The first units (by dispatch order) whose digests fold into the golden
/// digest. Every run completes at least this many.
pub const GOLDEN_UNITS: usize = 10;

/// The quality levels the session workloads draw from.
pub const QUALITIES: [QualityLevel; 4] = [
    QualityLevel::Q5,
    QualityLevel::Q10,
    QualityLevel::Q15,
    QualityLevel::Q20,
];

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 10: cold private-server sessions over the ten paper clips.
    PaperFig10,
    /// Open-loop sessions against one shared, caching media server.
    SharedFleet,
    /// Batched proxy transcodes of plain streams, each played back.
    ProxyBatch,
    /// Fleets of lossy/bursty packet-level sessions on the reactor.
    ReactorFleet,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFig10,
        Workload::SharedFleet,
        Workload::ProxyBatch,
        Workload::ReactorFleet,
    ];

    /// The workload's name on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig10 => "paper_fig10",
            Workload::SharedFleet => "shared_fleet",
            Workload::ProxyBatch => "proxy_batch",
            Workload::ReactorFleet => "reactor_fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether units arrive on a schedule (open loop) or one after
    /// another from a single client (closed loop).
    pub fn is_open_loop(self) -> bool {
        self == Workload::SharedFleet
    }
}

/// Input sizes. Thread counts are constants of the workloads, never read
/// from the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Seconds of each paper clip a `paper_fig10` session plays.
    pub fig10_preview_s: f64,
    /// Seconds of each catalogue clip in `shared_fleet`.
    pub fleet_preview_s: f64,
    /// `shared_fleet` arrival rate, sessions per second.
    pub fleet_rate_per_s: f64,
    /// Seconds of each plain input stream in `proxy_batch`.
    pub proxy_preview_s: f64,
    /// Sessions per `reactor_fleet` fleet.
    pub reactor_sessions: usize,
    /// Seconds of the clip the reactor fleet's packet plan is served from.
    pub reactor_preview_s: f64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        fig10_preview_s: 5.0,
        fleet_preview_s: 3.0,
        fleet_rate_per_s: 8.0,
        proxy_preview_s: 2.0,
        reactor_sessions: 10_000,
        reactor_preview_s: 2.0,
    };

    /// Sizes for the smoke tests: every workload in well under a second.
    pub const SMOKE: Sizes = Sizes {
        fig10_preview_s: 1.0,
        fleet_preview_s: 1.0,
        fleet_rate_per_s: 40.0,
        proxy_preview_s: 1.0,
        reactor_sessions: 64,
        reactor_preview_s: 1.0,
    };
}

/// Deterministic counters one unit adds to the per-layer metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Client playbacks (pixel workloads) or reactor sessions completed.
    pub sessions: u64,
    /// Frames played.
    pub frames: u64,
    /// Encoded bytes delivered to clients.
    pub stream_bytes: u64,
    /// Pixels clipped by compensation (traced units only).
    pub clipped_px: u64,
    /// Pixels compensated (traced units only).
    pub total_px: u64,
    /// Annotation requests answered from the cache (traced units only).
    pub cache_hits: u64,
    /// Annotation requests made (traced units only).
    pub cache_lookups: u64,
    /// Sum over playbacks of mean backlight level × frames.
    pub backlight_level_frames: f64,
    /// Backlight switches.
    pub switches: u64,
    /// Sum over playbacks of the total-device energy saving (fraction).
    pub savings: f64,
    /// Backlight energy, joules.
    pub backlight_j: f64,
    /// Rest-of-system energy, joules.
    pub system_j: f64,
    /// First packet transmissions.
    pub packets: u64,
    /// First transmissions lost.
    pub dropped: u64,
    /// Link-layer retransmissions.
    pub retransmits: u64,
    /// Frames played without their annotation.
    pub degraded_frames: u64,
    /// Reactor task steps.
    pub steps: u64,
}

impl Tally {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &Tally) {
        self.sessions += other.sessions;
        self.frames += other.frames;
        self.stream_bytes += other.stream_bytes;
        self.clipped_px += other.clipped_px;
        self.total_px += other.total_px;
        self.cache_hits += other.cache_hits;
        self.cache_lookups += other.cache_lookups;
        self.backlight_level_frames += other.backlight_level_frames;
        self.switches += other.switches;
        self.savings += other.savings;
        self.backlight_j += other.backlight_j;
        self.system_j += other.system_j;
        self.packets += other.packets;
        self.dropped += other.dropped;
        self.retransmits += other.retransmits;
        self.degraded_frames += other.degraded_frames;
        self.steps += other.steps;
    }

    /// Counts one client playback and its metered energy breakdown.
    pub fn add_playback(&mut self, report: &PlaybackReport, breakdown: &BTreeMap<String, f64>) {
        self.sessions += 1;
        self.frames += u64::from(report.frames);
        self.backlight_level_frames += report.mean_backlight * f64::from(report.frames);
        self.switches += report.switches.switches;
        self.savings += report.total_savings();
        self.backlight_j += breakdown.get("backlight").copied().unwrap_or(0.0);
        self.system_j += breakdown.get("system").copied().unwrap_or(0.0);
    }
}

/// What one unit of work reported.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Dispatch order within the run.
    pub index: usize,
    /// Identity of the unit's inputs: equal keys must give equal digests.
    pub key: u64,
    /// Units whose fastest run `latency_p50_ms` takes together: the key,
    /// except in `shared_fleet`, where few keys repeat within a run and
    /// the clip is used instead.
    pub group: u64,
    /// FNV digest of the unit's outputs.
    pub digest: u64,
    /// Time spent in the program, seconds.
    pub service_s: f64,
    /// Time from when the unit was due to when it started, seconds.
    pub wait_s: f64,
    /// Time from when the unit was due to when it finished, seconds.
    pub latency_s: f64,
    /// Why the unit failed, if it did.
    pub error: Option<String>,
    /// Counters for the per-layer metrics.
    pub tally: Tally,
}

impl Unit {
    /// A unit that failed before producing output.
    pub fn failed(index: usize, key: u64, service_s: f64, error: String) -> Unit {
        Unit {
            index,
            key,
            service_s,
            error: Some(error),
            ..Unit::default()
        }
    }
}

/// A workload after set-up: a pool of inputs and whatever serves them.
pub trait Bench: Sync {
    /// Human-readable workload parameters for the provenance header.
    fn params(&self) -> String;

    /// Runs unit `index` through the program's entry points.
    fn unit(&self, index: usize) -> Unit;

    /// Rebuilds unit `index` from the layers' public functions, recording
    /// one span per call; must reproduce [`Bench::unit`]'s digest.
    fn unit_traced(&self, index: usize, tracer: &mut Tracer) -> Unit;
}

/// Builds `workload`'s inputs and server-side state from `seed`.
///
/// # Errors
///
/// Returns a description of whatever set-up step failed.
pub fn setup(workload: Workload, seed: u64, sizes: &Sizes) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        Workload::PaperFig10 => Box::new(crate::sessions::PaperFig10::new(seed, sizes)),
        Workload::SharedFleet => Box::new(crate::sessions::SharedFleet::new(seed, sizes)),
        Workload::ProxyBatch => Box::new(crate::proxy::ProxyBatch::new(seed, sizes)?),
        Workload::ReactorFleet => Box::new(crate::reactor::ReactorFleet::new(seed, sizes)?),
    })
}

/// Hashes `b` into `a`: independent sub-seeds from one run seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut state = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// The paper clip `name`, its scene script unchanged but its pixel
/// content drawn from `seed`, cut to its first `preview_s` seconds.
pub fn reseeded_clip(name: &str, seed: u64, preview_s: f64) -> Clip {
    let paper = ClipLibrary::paper_clip(name).expect("library names are all known");
    let spec = ClipSpec {
        seed: mix(seed, paper.spec().seed),
        ..paper.spec().clone()
    };
    Clip::new(spec)
        .expect("a reseeded library clip is a valid clip")
        .preview(preview_s)
}

/// FNV digest of several byte strings, each length-prefixed.
pub fn digest_of(parts: &[&[u8]]) -> u64 {
    let mut d = Digester::new();
    for p in parts {
        d.write_u64(p.len() as u64).write(p);
    }
    d.finish()
}

/// Folds `digests` (in order) into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digester::new();
    for v in digests {
        d.write_u64(v);
    }
    d.finish()
}
