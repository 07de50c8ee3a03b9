//! Trace-driven planetary workload model + SLO replay harness.
//!
//! The paper evaluates annotation savings one clip at a time; the
//! serving tier is judged by what happens when a *fleet* hits it. This
//! module builds that fleet synthetically, under the workspace's
//! determinism discipline (`FaultyChannel`-style: one
//! [`SmallRng::stream`] per concern, so tuning one knob never shifts
//! the draws any other concern sees):
//!
//! * [`ZipfSampler`] — clip popularity over a ~10k-clip synthetic
//!   corpus follows a Zipf law, like every real video catalogue;
//! * [`DiurnalCurve`] — request intensity over a simulated day: a
//!   raised-cosine diurnal swing plus optional [`FlashCrowd`] spikes
//!   (Hann-windowed bursts — a premiere, a viral event);
//! * tenant churn — tenants arrive and depart over the day
//!   ([`ChurnConfig`]), and per-tenant demand is itself skewed
//!   (a Zipf pick over the active set), so flash crowds concentrate on
//!   hot tenants and exercise the bounded-queue admission path;
//! * device-mix / quality-mix / mode-mix draws over the paper's device
//!   set and quality levels.
//!
//! [`generate_trace`] turns a seeded [`WorkloadConfig`] into a
//! [`WorkloadTrace`] — a flat, replayable request list with a content
//! digest. The same seed always yields the identical trace, byte for
//! byte (the digest is the CI double-run guard's handle on this).
//!
//! [`replay_trace`] then drives the trace against a fresh
//! [`AnnotationService`] from one thread, one simulated tick at a time:
//! all of a tick's arrivals are submitted (filling bounded tenant
//! queues; floods are rejected with `Overloaded`), then the queues drain
//! on that thread — modelling a server that keeps up between ticks. The
//! outcome is a
//! [`ScenarioReport`]: cache hit-rate, rejection rate, and exact
//! p50/p99/p999 cold/warm latency (via
//! [`LatencyHistogram::with_exact_samples`]), judged against explicit
//! [`SloThresholds`]. Counters and the trace digest are deterministic
//! per seed; wall-clock latency quantiles are measured, not simulated,
//! and are excluded from [`ScenarioReport::deterministic_summary`] —
//! the part CI compares byte-for-byte across double runs.

use crate::counters::LatencyHistogram;
use crate::service::{
    AnnotationRequest, AnnotationService, ServeError, ServiceConfig, Ticket,
};
use annolight_core::digest::Digester;
use annolight_core::track::AnnotationMode;
use annolight_core::QualityLevel;
use annolight_display::DeviceProfile;
use annolight_support::rng::SmallRng;
use annolight_video::clip::{Clip, ClipSpec, SceneSpec};
use annolight_video::content::ContentKind;
use std::collections::HashSet;
use std::time::Instant;

/// Seed of the synthetic corpus contents (clip specs). Deliberately a
/// constant, independent of the scenario seed: every scenario and every
/// PR replays against the *same* catalogue, so `BENCH_serve.json`
/// trajectories compare like for like.
pub const CORPUS_SEED: u64 = 0x1000_C11F_5EED_2006;

/// RNG stream ids, one per workload concern (the `FaultyChannel`
/// discipline: enabling or tuning one concern never shifts another's
/// draws).
mod streams {
    pub const ARRIVALS: u64 = 1;
    pub const CLIP: u64 = 2;
    pub const DEVICE: u64 = 3;
    pub const QUALITY: u64 = 4;
    pub const MODE: u64 = 5;
    pub const CHURN: u64 = 6;
    pub const TENANT: u64 = 7;
}

// ---------------------------------------------------------------------
// Zipf popularity
// ---------------------------------------------------------------------

/// A Zipf(s) sampler over ranks `0..n` (rank 0 most popular):
/// `P(rank k) ∝ 1 / (k+1)^s`. Sampling is one uniform draw plus a
/// binary search over the precomputed CDF — O(log n), deterministic in
/// draw count.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    exponent: f64,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with exponent `s ≥ 0`
    /// (`s == 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `s` is negative or non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty rank set");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent {s} must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard the top against float rounding: the last entry must
        // catch every u in [0, 1).
        *cdf.last_mut().expect("n > 0") = 1.0;
        Self { cdf, exponent: s }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the rank set is empty (never true — `new` rejects 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The configured exponent `s`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The probability mass of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn probability(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Draws one rank. Consumes exactly one `u64` of `rng` state.
    #[must_use]
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u = rng.gen_f64();
        // First index whose CDF entry exceeds u.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("CDF is finite")) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

// ---------------------------------------------------------------------
// Diurnal curve + flash crowds
// ---------------------------------------------------------------------

/// One flash-crowd spike: a Hann-windowed intensity burst riding on the
/// diurnal base curve. Position and width are fractions of the day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Spike onset, as a fraction of the day in `[0, 1)`.
    pub start_frac: f64,
    /// Spike width, as a fraction of the day (`> 0`).
    pub duration_frac: f64,
    /// Peak added intensity (multiples of the base rate).
    pub magnitude: f64,
}

annolight_support::impl_json!(struct FlashCrowd { start_frac, duration_frac, magnitude });

impl FlashCrowd {
    /// The spike's added intensity at day-fraction `frac` — a Hann
    /// window: 0 at the edges, `magnitude` at the spike centre. The
    /// window's mean over its support is `magnitude / 2`, so the
    /// spike's total added mass is exactly
    /// `magnitude * duration_frac / 2` (the conservation property the
    /// `check!` tier pins).
    #[must_use]
    pub fn intensity_at(&self, frac: f64) -> f64 {
        let x = (frac - self.start_frac) / self.duration_frac;
        if !(0.0..=1.0).contains(&x) {
            return 0.0;
        }
        self.magnitude * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * x).cos())
    }

    /// Total mass the spike adds over the day (analytic).
    #[must_use]
    pub fn mass(&self) -> f64 {
        self.magnitude * self.duration_frac * 0.5
    }
}

/// Request intensity over one simulated day: a raised-cosine diurnal
/// swing around mean 1.0 plus flash-crowd spikes.
///
/// Invariants (property-tested in `workload_props`):
/// * **mass conservation** — the base curve's mean over the day is
///   exactly 1.0, so the day's total traffic is `base_rate × ticks`
///   plus the analytic spike masses, regardless of amplitude or phase;
/// * **bounds** — intensity stays within
///   `[1 - amplitude, 1 + amplitude + Σ magnitudes]` and is never
///   negative (`new` rejects `amplitude ≥ 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalCurve {
    /// Peak-to-mean swing of the diurnal cosine, in `[0, 1)`.
    pub amplitude: f64,
    /// Day-fraction at which the diurnal base peaks.
    pub peak_frac: f64,
    /// Flash-crowd spikes riding on the base curve.
    pub spikes: Vec<FlashCrowd>,
}

annolight_support::impl_json!(struct DiurnalCurve { amplitude, peak_frac, spikes });

impl DiurnalCurve {
    /// A flat curve (intensity 1.0 all day, no spikes).
    #[must_use]
    pub fn steady() -> Self {
        Self { amplitude: 0.0, peak_frac: 0.0, spikes: Vec::new() }
    }

    /// Builds a curve, validating the invariants.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is outside `[0, 1)` or any spike has a
    /// non-positive duration or negative magnitude.
    #[must_use]
    pub fn new(amplitude: f64, peak_frac: f64, spikes: Vec<FlashCrowd>) -> Self {
        assert!((0.0..1.0).contains(&amplitude), "amplitude {amplitude} outside [0, 1)");
        for s in &spikes {
            assert!(s.duration_frac > 0.0, "spike duration must be positive");
            assert!(s.magnitude >= 0.0, "spike magnitude must be non-negative");
        }
        Self { amplitude, peak_frac, spikes }
    }

    /// Intensity at day-fraction `frac ∈ [0, 1)` (multiples of the
    /// base rate).
    #[must_use]
    pub fn intensity_at(&self, frac: f64) -> f64 {
        let base = 1.0
            + self.amplitude
                * (2.0 * std::f64::consts::PI * (frac - self.peak_frac)).cos();
        base + self.spikes.iter().map(|s| s.intensity_at(frac)).sum::<f64>()
    }

    /// The analytic mean intensity over the day: `1 + Σ spike masses`.
    #[must_use]
    pub fn mean_intensity(&self) -> f64 {
        1.0 + self.spikes.iter().map(FlashCrowd::mass).sum::<f64>()
    }

    /// Upper bound on intensity anywhere in the day.
    #[must_use]
    pub fn max_intensity_bound(&self) -> f64 {
        1.0 + self.amplitude + self.spikes.iter().map(|s| s.magnitude).sum::<f64>()
    }
}

// ---------------------------------------------------------------------
// Tenant churn
// ---------------------------------------------------------------------

/// Arrival/departure process for the tenant population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Tenants active at day start.
    pub initial: usize,
    /// Expected new-tenant arrivals per tick (fractional: the fraction
    /// is a Bernoulli draw).
    pub arrivals_per_tick: f64,
    /// Per-tick probability that each active tenant departs.
    pub departure_prob: f64,
    /// Hard cap on the active population.
    pub max_active: usize,
}

annolight_support::impl_json!(struct ChurnConfig { initial, arrivals_per_tick, departure_prob, max_active });

impl ChurnConfig {
    /// No churn: a fixed population of `n` tenants.
    #[must_use]
    pub fn fixed(n: usize) -> Self {
        Self { initial: n, arrivals_per_tick: 0.0, departure_prob: 0.0, max_active: n }
    }
}

/// Live churn state during trace generation. Tenant ids are assigned
/// in arrival order, so the active set — and therefore every tenant
/// name in the trace — is a pure function of the churn stream.
#[derive(Debug)]
struct ChurnState {
    active: Vec<u64>,
    next_id: u64,
    max_active: usize,
}

impl ChurnState {
    fn new(cfg: &ChurnConfig) -> Self {
        let initial = cfg.initial.max(1);
        Self {
            active: (0..initial as u64).collect(),
            next_id: initial as u64,
            max_active: cfg.max_active.max(initial),
        }
    }

    /// One tick of arrivals and departures.
    fn step(&mut self, cfg: &ChurnConfig, rng: &mut SmallRng) {
        let mut arrivals = cfg.arrivals_per_tick.floor() as u64;
        if rng.gen_bool(cfg.arrivals_per_tick.fract()) {
            arrivals += 1;
        }
        for _ in 0..arrivals {
            if self.active.len() < self.max_active {
                self.active.push(self.next_id);
                self.next_id += 1;
            }
        }
        if cfg.departure_prob > 0.0 {
            // Deterministic: one draw per active tenant, in order.
            let p = cfg.departure_prob;
            let mut survivors = Vec::with_capacity(self.active.len());
            for &t in &self.active {
                if !rng.gen_bool(p) {
                    survivors.push(t);
                }
            }
            if survivors.is_empty() {
                // Never let the fleet die out entirely.
                survivors.push(self.next_id);
                self.next_id += 1;
            }
            self.active = survivors;
        }
    }
}

// ---------------------------------------------------------------------
// Scenario configuration
// ---------------------------------------------------------------------

/// The three canonical fleet scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Flat intensity, fixed tenant population.
    Steady,
    /// Raised-cosine day/night swing with moderate churn.
    Diurnal,
    /// Diurnal base plus two flash-crowd spikes concentrated on hot
    /// tenants (the admission-control stress case).
    FlashCrowd,
}

annolight_support::impl_json!(enum ScenarioKind { Steady, Diurnal, FlashCrowd });

impl ScenarioKind {
    /// All scenarios, in canonical report order.
    pub const ALL: [ScenarioKind; 3] =
        [ScenarioKind::Steady, ScenarioKind::Diurnal, ScenarioKind::FlashCrowd];

    /// Stable lowercase name used in reports and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Steady => "steady",
            ScenarioKind::Diurnal => "diurnal",
            ScenarioKind::FlashCrowd => "flash_crowd",
        }
    }
}

/// Everything that determines a workload trace. Two equal configs
/// always generate byte-identical traces.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Which canonical scenario shape to generate.
    pub scenario: ScenarioKind,
    /// Master seed; every concern derives its own stream from it.
    pub seed: u64,
    /// Clips in the synthetic corpus (ranks of the Zipf law).
    pub corpus_clips: usize,
    /// Zipf exponent of clip popularity (≈1.0–1.3 for real catalogues).
    pub zipf_exponent: f64,
    /// Ticks in the simulated day.
    pub ticks: u32,
    /// Mean requests per tick at intensity 1.0.
    pub base_rate: f64,
    /// Zipf exponent of per-tenant demand over the active set
    /// (0 = uniform; higher concentrates load on hot tenants).
    pub tenant_zipf_exponent: f64,
    /// Tenant arrival/departure process.
    pub churn: ChurnConfig,
    /// Relative weights of the paper's three devices
    /// ([`DeviceProfile::paper_devices`] order).
    pub device_weights: [f64; 3],
    /// Quality levels and their relative weights.
    pub quality_weights: Vec<(QualityLevel, f64)>,
    /// Fraction of requests asking for per-frame annotation.
    pub per_frame_fraction: f64,
}

impl WorkloadConfig {
    /// The canonical preset for `kind` under `seed` — the configuration
    /// the SLO tier and `BENCH_serve.json` use.
    #[must_use]
    pub fn scenario(kind: ScenarioKind, seed: u64) -> Self {
        let churn = match kind {
            ScenarioKind::Steady => ChurnConfig::fixed(64),
            ScenarioKind::Diurnal => ChurnConfig {
                initial: 48,
                arrivals_per_tick: 2.0,
                departure_prob: 0.03,
                max_active: 160,
            },
            ScenarioKind::FlashCrowd => ChurnConfig {
                initial: 48,
                arrivals_per_tick: 3.0,
                departure_prob: 0.05,
                max_active: 200,
            },
        };
        let tenant_zipf_exponent = match kind {
            ScenarioKind::Steady => 0.0,
            ScenarioKind::Diurnal => 0.8,
            ScenarioKind::FlashCrowd => 1.5,
        };
        Self {
            scenario: kind,
            seed,
            corpus_clips: 10_000,
            zipf_exponent: 1.2,
            ticks: 48,
            base_rate: 60.0,
            tenant_zipf_exponent,
            churn,
            device_weights: [0.5, 0.3, 0.2],
            quality_weights: vec![
                (QualityLevel::Q5, 0.3),
                (QualityLevel::Q10, 0.4),
                (QualityLevel::Q15, 0.2),
                (QualityLevel::Q20, 0.1),
            ],
            per_frame_fraction: 0.2,
        }
    }

    /// The same preset scaled down for the test tier: a smaller corpus
    /// and day so 3 seeds × 3 scenarios replay in seconds, with every
    /// qualitative feature (skew, churn, spikes, rejections) intact.
    #[must_use]
    pub fn scenario_small(kind: ScenarioKind, seed: u64) -> Self {
        Self {
            corpus_clips: 2_000,
            ticks: 24,
            base_rate: 40.0,
            ..Self::scenario(kind, seed)
        }
    }

    /// The intensity curve for this scenario.
    #[must_use]
    pub fn curve(&self) -> DiurnalCurve {
        match self.scenario {
            ScenarioKind::Steady => DiurnalCurve::steady(),
            ScenarioKind::Diurnal => DiurnalCurve::new(0.6, 0.58, Vec::new()),
            ScenarioKind::FlashCrowd => DiurnalCurve::new(
                0.5,
                0.58,
                vec![
                    FlashCrowd { start_frac: 0.30, duration_frac: 0.05, magnitude: 4.0 },
                    FlashCrowd { start_frac: 0.70, duration_frac: 0.08, magnitude: 2.5 },
                ],
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Synthetic corpus
// ---------------------------------------------------------------------

/// A ~10k-clip synthetic catalogue: rank `k`'s clip is a deterministic
/// function of `(corpus seed, k)` — tiny (32×16, half a second) so a
/// cold profile is cheap, but spread across the content classes so
/// profiles, plans and track sizes genuinely differ per clip.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticCorpus {
    /// Number of clips (Zipf ranks).
    pub clips: usize,
    /// Content seed (normally [`CORPUS_SEED`]).
    pub seed: u64,
}

impl SyntheticCorpus {
    /// The canonical corpus of `clips` clips.
    #[must_use]
    pub fn new(clips: usize) -> Self {
        Self { clips, seed: CORPUS_SEED }
    }

    /// Catalogue name of rank `k`.
    #[must_use]
    pub fn name(&self, rank: usize) -> String {
        format!("wl-{rank:05}")
    }

    /// The clip at rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.clips`.
    #[must_use]
    pub fn clip(&self, rank: usize) -> Clip {
        assert!(rank < self.clips, "rank {rank} outside corpus of {}", self.clips);
        let mut mix = self.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let r = annolight_support::rng::splitmix64(&mut mix);
        let b = |shift: u32, span: u64| -> u8 { ((r >> shift) % span) as u8 };
        let content = match rank % 6 {
            0 => ContentKind::Dark {
                base: 30 + b(0, 40),
                spread: 8 + b(8, 8),
                highlight_fraction: 0.005 + f64::from(b(16, 20)) * 0.001,
                highlight: 220 + b(24, 30),
            },
            1 => ContentKind::Bright { base: 170 + b(0, 60), spread: 12 + b(8, 16) },
            2 => ContentKind::Mid {
                base: 90 + b(0, 60),
                spread: 15 + b(8, 20),
                highlight_fraction: 0.01 + f64::from(b(16, 30)) * 0.001,
            },
            3 => ContentKind::GradientPan {
                lo: 20 + b(0, 40),
                hi: 180 + b(8, 60),
                speed: 1 + u32::from(b(16, 3)),
            },
            4 => ContentKind::Credits {
                text: 200 + b(0, 50),
                background: 5 + b(8, 20),
                density: 0.02 + f64::from(b(16, 30)) * 0.002,
            },
            _ => ContentKind::Fade { from: 10 + b(0, 60), to: 150 + b(8, 100) },
        };
        Clip::new(ClipSpec {
            name: self.name(rank),
            width: 32,
            height: 16,
            fps: 8.0,
            seed: r,
            scenes: vec![SceneSpec::new(content, 0.5)],
        })
        .expect("synthetic corpus specs are valid by construction")
    }

    /// Registers every clip with `svc`.
    pub fn register_all(&self, svc: &AnnotationService) {
        for rank in 0..self.clips {
            svc.register_clip(self.clip(rank));
        }
    }
}

// ---------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------

/// One request of a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Simulated tick the request arrives in.
    pub tick: u32,
    /// Tenant id (arrival-ordered; the request uses `t{id:04}`).
    pub tenant: u64,
    /// Zipf rank of the requested clip.
    pub clip_rank: usize,
    /// Index into [`DeviceProfile::paper_devices`].
    pub device: usize,
    /// Requested quality level.
    pub quality: QualityLevel,
    /// `true` for per-frame annotation, else per-scene.
    pub per_frame: bool,
}

impl TraceRequest {
    /// The tenant's wire name.
    #[must_use]
    pub fn tenant_name(&self) -> String {
        format!("t{:04}", self.tenant)
    }
}

/// A generated, replayable request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// The requests, in arrival order.
    pub requests: Vec<TraceRequest>,
    /// Distinct tenants that issued at least one request.
    pub tenants: u64,
    /// Distinct clip ranks requested.
    pub distinct_clips: u64,
    /// FNV-1a digest over every request tuple — the determinism
    /// handle: same config ⇒ same digest, byte for byte.
    pub digest: u64,
}

/// Quality level → stable digest byte (Custom folds in its bits).
fn quality_code(q: QualityLevel) -> u64 {
    match q {
        QualityLevel::Q0 => 0,
        QualityLevel::Q5 => 1,
        QualityLevel::Q10 => 2,
        QualityLevel::Q15 => 3,
        QualityLevel::Q20 => 4,
        QualityLevel::Custom(f) => 5u64 ^ f.to_bits(),
        // QualityLevel is #[non_exhaustive]; unknown future levels
        // digest by their clipping fraction.
        other => 6u64 ^ other.clip_fraction().to_bits(),
    }
}

/// Generates the full request trace for `cfg`. Pure: equal configs
/// yield equal traces.
#[must_use]
pub fn generate_trace(cfg: &WorkloadConfig) -> WorkloadTrace {
    let curve = cfg.curve();
    let zipf = ZipfSampler::new(cfg.corpus_clips, cfg.zipf_exponent);
    let mut arrivals_rng = SmallRng::stream(cfg.seed, streams::ARRIVALS);
    let mut clip_rng = SmallRng::stream(cfg.seed, streams::CLIP);
    let mut device_rng = SmallRng::stream(cfg.seed, streams::DEVICE);
    let mut quality_rng = SmallRng::stream(cfg.seed, streams::QUALITY);
    let mut mode_rng = SmallRng::stream(cfg.seed, streams::MODE);
    let mut churn_rng = SmallRng::stream(cfg.seed, streams::CHURN);
    let mut tenant_rng = SmallRng::stream(cfg.seed, streams::TENANT);

    let device_cdf = cumulative(&cfg.device_weights);
    let quality_w: Vec<f64> = cfg.quality_weights.iter().map(|&(_, w)| w).collect();
    let quality_cdf = cumulative(&quality_w);

    let mut churn = ChurnState::new(&cfg.churn);
    // Tenant-pick Zipf samplers are rebuilt when the active population
    // size changes (cheap: O(active) once per tick at most).
    let mut tenant_zipf = ZipfSampler::new(churn.active.len(), cfg.tenant_zipf_exponent);

    let mut requests = Vec::new();
    let mut tenants_seen = HashSet::new();
    let mut clips_seen = HashSet::new();
    let mut digester = Digester::new();
    digester.write_u64(cfg.seed).write_u64(cfg.corpus_clips as u64);

    for tick in 0..cfg.ticks {
        churn.step(&cfg.churn, &mut churn_rng);
        if tenant_zipf.len() != churn.active.len() {
            tenant_zipf = ZipfSampler::new(churn.active.len(), cfg.tenant_zipf_exponent);
        }
        let frac = (f64::from(tick) + 0.5) / f64::from(cfg.ticks);
        let expected = cfg.base_rate * curve.intensity_at(frac);
        let mut n = expected.floor() as u64;
        if arrivals_rng.gen_bool(expected.fract()) {
            n += 1;
        }
        for _ in 0..n {
            let tenant = churn.active[tenant_zipf.sample(&mut tenant_rng)];
            let clip_rank = zipf.sample(&mut clip_rng);
            let device = pick(&device_cdf, &mut device_rng);
            let quality = cfg.quality_weights[pick(&quality_cdf, &mut quality_rng)].0;
            let per_frame = mode_rng.gen_bool(cfg.per_frame_fraction);
            tenants_seen.insert(tenant);
            clips_seen.insert(clip_rank);
            digester
                .write_u32(tick)
                .write_u64(tenant)
                .write_u64(clip_rank as u64)
                .write_u64(device as u64)
                .write_u64(quality_code(quality))
                .write(&[u8::from(per_frame)]);
            requests.push(TraceRequest { tick, tenant, clip_rank, device, quality, per_frame });
        }
    }
    WorkloadTrace {
        requests,
        tenants: tenants_seen.len() as u64,
        distinct_clips: clips_seen.len() as u64,
        digest: digester.finish(),
    }
}

fn cumulative(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "mix weights must sum to a positive value");
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    *cdf.last_mut().expect("non-empty mix") = 1.0;
    cdf
}

fn pick(cdf: &[f64], rng: &mut SmallRng) -> usize {
    let u = rng.gen_f64();
    match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("CDF is finite")) {
        Ok(i) | Err(i) => i.min(cdf.len() - 1),
    }
}

// ---------------------------------------------------------------------
// Replay + SLO harness
// ---------------------------------------------------------------------

/// Service-side knobs of a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Bounded per-tenant queue depth (small enough that flash crowds
    /// genuinely overflow it).
    pub tenant_queue_depth: usize,
    /// Annotation-cache byte budget.
    pub cache_bytes: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Exact-sample reservoir capacity for latency quantiles.
    pub latency_reservoir: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            tenant_queue_depth: 8,
            cache_bytes: 4 << 20,
            cache_shards: 4,
            latency_reservoir: 4096,
        }
    }
}

/// Explicit service-level objectives a scenario is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloThresholds {
    /// Minimum acceptable cache hit rate over completed requests.
    pub min_hit_rate: f64,
    /// Maximum acceptable admission-rejection rate over all requests.
    pub max_reject_rate: f64,
    /// Cold (profile + annotate) latency ceilings, µs.
    pub max_cold_p50_us: u64,
    /// p99 ceiling for cold latency, µs.
    pub max_cold_p99_us: u64,
    /// p999 ceiling for cold latency, µs.
    pub max_cold_p999_us: u64,
    /// p99 ceiling for warm (cache-hit-at-submit) latency, µs.
    pub max_warm_p99_us: u64,
}

annolight_support::impl_json!(struct SloThresholds {
    min_hit_rate, max_reject_rate, max_cold_p50_us, max_cold_p99_us,
    max_cold_p999_us, max_warm_p99_us
});

impl SloThresholds {
    /// The checked-in objectives for `kind`. Latency ceilings are
    /// deliberately loose (CI machines are noisy); rate objectives are
    /// the real regression tripwires.
    #[must_use]
    pub fn for_scenario(kind: ScenarioKind) -> Self {
        let (min_hit_rate, max_reject_rate) = match kind {
            ScenarioKind::Steady => (0.25, 0.02),
            ScenarioKind::Diurnal => (0.25, 0.10),
            ScenarioKind::FlashCrowd => (0.25, 0.35),
        };
        Self {
            min_hit_rate,
            max_reject_rate,
            max_cold_p50_us: 50_000,
            max_cold_p99_us: 200_000,
            max_cold_p999_us: 500_000,
            max_warm_p99_us: 10_000,
        }
    }

    /// Judges `report`, returning every violated objective.
    #[must_use]
    pub fn violations(&self, report: &ScenarioReport) -> Vec<String> {
        let mut v = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                v.push(msg);
            }
        };
        check(
            report.hit_rate >= self.min_hit_rate,
            format!("hit_rate {:.4} < {:.4}", report.hit_rate, self.min_hit_rate),
        );
        check(
            report.reject_rate <= self.max_reject_rate,
            format!("reject_rate {:.4} > {:.4}", report.reject_rate, self.max_reject_rate),
        );
        check(
            report.cold_p50_us <= self.max_cold_p50_us,
            format!("cold p50 {} µs > {} µs", report.cold_p50_us, self.max_cold_p50_us),
        );
        check(
            report.cold_p99_us <= self.max_cold_p99_us,
            format!("cold p99 {} µs > {} µs", report.cold_p99_us, self.max_cold_p99_us),
        );
        check(
            report.cold_p999_us <= self.max_cold_p999_us,
            format!("cold p999 {} µs > {} µs", report.cold_p999_us, self.max_cold_p999_us),
        );
        check(
            report.warm_p99_us <= self.max_warm_p99_us,
            format!("warm p99 {} µs > {} µs", report.warm_p99_us, self.max_warm_p99_us),
        );
        v
    }
}

/// The outcome of replaying one scenario: deterministic counters plus
/// measured latency quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name ([`ScenarioKind::name`]).
    pub scenario: String,
    /// Master seed of the trace.
    pub seed: u64,
    /// Requests in the trace.
    pub requests: u64,
    /// Requests admitted (completed).
    pub accepted: u64,
    /// Requests rejected `Overloaded` at admission.
    pub rejected: u64,
    /// Distinct tenants that issued requests.
    pub tenants: u64,
    /// Distinct clips requested.
    pub distinct_clips: u64,
    /// Cache hits (at-submit + dispatch double-check).
    pub hits: u64,
    /// Cold computes.
    pub misses: u64,
    /// Luminance profiles computed (single-flight: ≤ distinct clips).
    pub clip_profiles: u64,
    /// Cache evictions during the replay.
    pub evictions: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// `rejected / requests`.
    pub reject_rate: f64,
    /// Trace content digest (determinism handle).
    pub trace_digest: u64,
    /// Exact cold-latency quantiles, µs (wall-clock; excluded from the
    /// deterministic summary).
    pub cold_p50_us: u64,
    /// Cold p99, µs.
    pub cold_p99_us: u64,
    /// Cold p999, µs.
    pub cold_p999_us: u64,
    /// Mean cold latency, µs.
    pub cold_mean_us: f64,
    /// Warm (hit-at-submit) p50, µs.
    pub warm_p50_us: u64,
    /// Warm p99, µs.
    pub warm_p99_us: u64,
    /// Warm p999, µs.
    pub warm_p999_us: u64,
    /// Whether every SLO held.
    pub slo_pass: bool,
}

annolight_support::impl_json!(struct ScenarioReport {
    scenario, seed, requests, accepted, rejected, tenants, distinct_clips,
    hits, misses, clip_profiles, evictions, hit_rate, reject_rate,
    trace_digest, cold_p50_us, cold_p99_us, cold_p999_us, cold_mean_us,
    warm_p50_us, warm_p99_us, warm_p999_us, slo_pass
});

/// The deterministic projection of a [`ScenarioReport`]: everything a
/// same-seed double run must reproduce byte for byte (no wall-clock
/// fields). CI serialises this and `cmp`s across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicSummary {
    /// Scenario name.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Trace content digest.
    pub trace_digest: u64,
    /// Requests in the trace.
    pub requests: u64,
    /// Requests admitted.
    pub accepted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Distinct tenants.
    pub tenants: u64,
    /// Distinct clips requested.
    pub distinct_clips: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cold computes.
    pub misses: u64,
    /// Profiles computed.
    pub clip_profiles: u64,
    /// Cache evictions.
    pub evictions: u64,
}

annolight_support::impl_json!(struct DeterministicSummary {
    scenario, seed, trace_digest, requests, accepted, rejected, tenants,
    distinct_clips, hits, misses, clip_profiles, evictions
});

impl ScenarioReport {
    /// The deterministic (wall-clock-free) projection of this report.
    #[must_use]
    pub fn deterministic_summary(&self) -> DeterministicSummary {
        DeterministicSummary {
            scenario: self.scenario.clone(),
            seed: self.seed,
            trace_digest: self.trace_digest,
            requests: self.requests,
            accepted: self.accepted,
            rejected: self.rejected,
            tenants: self.tenants,
            distinct_clips: self.distinct_clips,
            hits: self.hits,
            misses: self.misses,
            clip_profiles: self.clip_profiles,
            evictions: self.evictions,
        }
    }
}

/// Replays `trace` against a fresh service over the corpus `cfg`
/// describes, tick by tick: a tick's arrivals are all submitted
/// (bounded queues reject floods), then the queues drain on the calling
/// thread — the server catching up between ticks.
///
/// Counters in the returned report are a pure function of the trace;
/// latency quantiles are measured wall-clock.
///
/// # Panics
///
/// Panics if the service returns an error other than `Overloaded`
/// (the corpus registers every clip, so `UnknownClip` is a bug).
#[must_use]
pub fn replay_trace(
    cfg: &WorkloadConfig,
    replay: &ReplayConfig,
    trace: &WorkloadTrace,
) -> ScenarioReport {
    let corpus = SyntheticCorpus::new(cfg.corpus_clips);
    let svc = AnnotationService::new(ServiceConfig {
        cache_shards: replay.cache_shards,
        cache_bytes: replay.cache_bytes,
        tenant_queue_depth: replay.tenant_queue_depth,
        latency_reservoir: replay.latency_reservoir,
    });
    corpus.register_all(&svc);
    let devices = DeviceProfile::paper_devices();
    let warm = LatencyHistogram::with_exact_samples(replay.latency_reservoir);

    let mut rejected = 0u64;
    let mut pending: Vec<Ticket> = Vec::new();
    let mut tick_cursor = 0u32;
    // The first wait drains every queue, round-robin, on this thread.
    let drain = |pending: &mut Vec<Ticket>| {
        for t in pending.drain(..) {
            t.wait().expect("admitted requests complete");
        }
    };
    for req in &trace.requests {
        if req.tick != tick_cursor {
            drain(&mut pending);
            tick_cursor = req.tick;
        }
        let request = AnnotationRequest {
            tenant: req.tenant_name(),
            clip: corpus.name(req.clip_rank),
            device: devices[req.device].clone(),
            quality: req.quality,
            mode: if req.per_frame { AnnotationMode::PerFrame } else { AnnotationMode::PerScene },
            policy: annolight_core::PolicyKind::PeakClip,
        };
        let started = Instant::now();
        match svc.submit(request) {
            Ok(Ticket::Ready(reply)) => {
                warm.record(started.elapsed());
                reply.expect("ready tickets are cache hits");
            }
            Ok(ticket) => pending.push(ticket),
            Err(ServeError::Overloaded { .. }) => rejected += 1,
            Err(other) => panic!("workload replay hit a non-backpressure error: {other}"),
        }
    }
    drain(&mut pending);

    let counters = svc.report();
    assert_eq!(counters.overloaded, rejected, "harness and service agree on rejections");
    let requests = trace.requests.len() as u64;
    let cold = svc.profile_latency();
    let mut report = ScenarioReport {
        scenario: cfg.scenario.name().to_owned(),
        seed: cfg.seed,
        requests,
        accepted: requests - rejected,
        rejected,
        tenants: trace.tenants,
        distinct_clips: trace.distinct_clips,
        hits: counters.hits,
        misses: counters.misses,
        clip_profiles: counters.clip_profiles,
        evictions: counters.evictions,
        hit_rate: counters.hit_rate(),
        reject_rate: if requests == 0 { 0.0 } else { rejected as f64 / requests as f64 },
        trace_digest: trace.digest,
        cold_p50_us: cold.quantile_us(0.5),
        cold_p99_us: cold.quantile_us(0.99),
        cold_p999_us: cold.quantile_us(0.999),
        cold_mean_us: cold.mean_us(),
        warm_p50_us: warm.quantile_us(0.5),
        warm_p99_us: warm.quantile_us(0.99),
        warm_p999_us: warm.quantile_us(0.999),
        slo_pass: false,
    };
    report.slo_pass = SloThresholds::for_scenario(cfg.scenario).violations(&report).is_empty();
    report
}

/// Generates and replays `cfg` in one call.
#[must_use]
pub fn run_scenario(cfg: &WorkloadConfig, replay: &ReplayConfig) -> ScenarioReport {
    replay_trace(cfg, replay, &generate_trace(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_probabilities_are_normalised_and_monotone() {
        let z = ZipfSampler::new(100, 1.1);
        let total: f64 = (0..100).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for k in 1..100 {
            assert!(
                z.probability(k) <= z.probability(k - 1),
                "rank {k} more popular than rank {}",
                k - 1
            );
        }
        // Uniform degenerate case.
        let u = ZipfSampler::new(10, 0.0);
        for k in 0..10 {
            assert!((u.probability(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_is_deterministic_and_in_range() {
        let z = ZipfSampler::new(1000, 1.2);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..500).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert!(a.iter().all(|&r| r < 1000));
        // Rank 0 dominates any individual deep rank.
        let top = a.iter().filter(|&&r| r == 0).count();
        assert!(top >= 10, "rank 0 drew only {top}/500 at s=1.2");
    }

    #[test]
    fn curve_mean_matches_analytic_mass() {
        let curve = WorkloadConfig::scenario(ScenarioKind::FlashCrowd, 1).curve();
        let n = 100_000;
        let mean = (0..n)
            .map(|i| curve.intensity_at((i as f64 + 0.5) / n as f64))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - curve.mean_intensity()).abs() < 1e-3,
            "numeric mean {mean} vs analytic {}",
            curve.mean_intensity()
        );
        for i in 0..n {
            let v = curve.intensity_at((i as f64 + 0.5) / n as f64);
            assert!(v >= 0.0 && v <= curve.max_intensity_bound() + 1e-9);
        }
    }

    #[test]
    fn trace_generation_is_seed_deterministic() {
        let cfg = WorkloadConfig::scenario_small(ScenarioKind::FlashCrowd, 42);
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        assert_eq!(a, b, "same config must yield the identical trace");
        let other = generate_trace(&WorkloadConfig::scenario_small(ScenarioKind::FlashCrowd, 43));
        assert_ne!(a.digest, other.digest, "different seeds must diverge");
        assert!(!a.requests.is_empty());
        assert!(a.tenants > 1);
    }

    #[test]
    fn tuning_one_stream_leaves_others_unshifted() {
        // The FaultyChannel discipline: changing the mode mix must not
        // change which clips/tenants/devices any request draws.
        let base = WorkloadConfig::scenario_small(ScenarioKind::Diurnal, 9);
        let mut tweaked = base.clone();
        tweaked.per_frame_fraction = 0.9;
        let a = generate_trace(&base);
        let b = generate_trace(&tweaked);
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(
                (x.tick, x.tenant, x.clip_rank, x.device, x.quality),
                (y.tick, y.tenant, y.clip_rank, y.device, y.quality),
                "mode tuning shifted an unrelated draw"
            );
        }
    }

    #[test]
    fn corpus_is_deterministic_and_distinct() {
        let corpus = SyntheticCorpus::new(64);
        for rank in [0usize, 1, 5, 63] {
            assert_eq!(
                corpus.clip(rank).to_json_spec(),
                corpus.clip(rank).to_json_spec(),
                "rank {rank} must regenerate identically"
            );
        }
        assert_ne!(corpus.clip(0).to_json_spec(), corpus.clip(6).to_json_spec());
    }

    #[test]
    fn tiny_replay_is_counter_deterministic() {
        let mut cfg = WorkloadConfig::scenario_small(ScenarioKind::Steady, 5);
        cfg.corpus_clips = 64;
        cfg.ticks = 6;
        cfg.base_rate = 20.0;
        let replay = ReplayConfig::default();
        let a = run_scenario(&cfg, &replay);
        let b = run_scenario(&cfg, &replay);
        assert_eq!(
            a.deterministic_summary(),
            b.deterministic_summary(),
            "same seed must replay identical counters"
        );
        assert_eq!(a.hits + a.misses, a.accepted, "hit/miss conservation");
        assert!(a.clip_profiles <= a.distinct_clips);
        assert!(a.cold_p50_us <= a.cold_p99_us && a.cold_p99_us <= a.cold_p999_us);
    }
}
