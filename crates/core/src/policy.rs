//! Pluggable annotation policies.
//!
//! The planner originally hard-coded the source paper's
//! peak-luminance/clipping policy. This module turns the per-scene
//! planning kernel into a small trait ([`AnnotationPolicy`]) with three
//! deterministic backends selected by [`PolicyKind`]:
//!
//! * [`PolicyKind::PeakClip`] — the paper's policy, **extracted
//!   unchanged** from the pre-policy `BacklightPlan` so it is the
//!   byte-identity reference every conformance tier diffs against.
//! * [`PolicyKind::Hebs`] — histogram-equalization backlight scaling
//!   (Iranli/Fatemi/Pedram): the pixel transformation is a monotone
//!   per-scene remap built from the **full** luminance histogram
//!   ([`annolight_imgproc::HebsLut`]), which brightens dark-mass scenes
//!   beyond the pure contrast stretch and lets the backlight drop
//!   further at the *same* clipping budget ([`hebs_levels`]).
//! * [`PolicyKind::SpatialScale`] — resolution-aware annotation after
//!   "Power-Efficient Video Streaming Using Optimal Spatial Scaling"
//!   (Herglotz et al.): scene *planning* is peak-clip, but the backend
//!   answers [`select_resolution`](AnnotationPolicy::select_resolution)
//!   queries so the proxy can transcode to half resolution when the
//!   priced WNIC + decode energy at half resolution beats full
//!   resolution by more than [`SPATIAL_MARGIN`].
//!
//! Every backend is a stateless `'static` singleton: policy dispatch is
//! a `match` on a `Copy` enum, cheap enough for cache keys, wire
//! formats and per-scene hot loops alike. All three produce
//! byte-identical output across worker counts because they run inside
//! the same [`chunked_map`](crate::parallel::chunked_map) fan-out with
//! pure per-scene kernels.

use crate::plan::{peak_clip_scene, ScenePlan};
use crate::profile::LuminanceProfile;
use crate::quality::QualityLevel;
use crate::scenes::{SceneDetector, SceneSpan};
use crate::track::AnnotationMode;
use annolight_display::{BacklightLevel, DeviceProfile};
use annolight_imgproc::{ClipStats, Frame, HebsLut, Histogram};

/// Selects an [`AnnotationPolicy`] backend.
///
/// The discriminant is part of the public surface: it is written into
/// serve cache keys and the negotiation wire format, so cached tracks
/// and streams never cross policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// The source paper's peak-luminance/clipping policy (reference).
    #[default]
    PeakClip,
    /// Histogram-equalization backlight scaling.
    Hebs,
    /// Peak-clip planning plus proxy-side optimal spatial scaling.
    SpatialScale,
}

annolight_support::impl_json!(enum PolicyKind { PeakClip, Hebs, SpatialScale });

impl PolicyKind {
    /// Every backend, in id order — the conformance matrices iterate this.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::PeakClip, PolicyKind::Hebs, PolicyKind::SpatialScale];

    /// Stable one-byte id (cache keys, wire formats).
    pub fn id(self) -> u8 {
        match self {
            PolicyKind::PeakClip => 0,
            PolicyKind::Hebs => 1,
            PolicyKind::SpatialScale => 2,
        }
    }

    /// Inverse of [`id`](Self::id).
    pub fn from_id(id: u8) -> Option<PolicyKind> {
        match id {
            0 => Some(PolicyKind::PeakClip),
            1 => Some(PolicyKind::Hebs),
            2 => Some(PolicyKind::SpatialScale),
            _ => None,
        }
    }

    /// Human-readable policy name (figure tables, logs).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::PeakClip => "peak-clip",
            PolicyKind::Hebs => "hebs",
            PolicyKind::SpatialScale => "spatial-scale",
        }
    }

    /// The backend singleton.
    pub fn policy(self) -> &'static dyn AnnotationPolicy {
        match self {
            PolicyKind::PeakClip => &PeakClip,
            PolicyKind::Hebs => &Hebs,
            PolicyKind::SpatialScale => &SpatialScale,
        }
    }
}

/// Relative energy margin half-resolution must win by before
/// [`SpatialScale`] switches away from full resolution — hysteresis
/// against flapping on near-ties.
pub const SPATIAL_MARGIN: f64 = 0.02;

/// The priced energy of serving one clip at each candidate resolution
/// (WNIC transfer + decode CPU; backlight excluded — it is identical
/// across resolutions and owned by the backlight plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolutionCost {
    /// Session energy at full resolution, joules.
    pub full_energy_j: f64,
    /// Session energy at half resolution, joules.
    pub half_energy_j: f64,
    /// Whether the clip's dimensions admit the 2× downscale path
    /// (halved dimensions must stay codec-legal).
    pub half_supported: bool,
}

annolight_support::impl_json!(struct ResolutionCost { full_energy_j, half_energy_j, half_supported });

/// A policy's answer to a [`ResolutionCost`] query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolutionDecision {
    /// Serve the 2×-downscaled variant.
    pub use_half: bool,
    /// Echo of the priced full-resolution energy, joules.
    pub full_energy_j: f64,
    /// Echo of the priced half-resolution energy, joules.
    pub half_energy_j: f64,
}

annolight_support::impl_json!(struct ResolutionDecision { use_half, full_energy_j, half_energy_j });

/// A deterministic per-scene annotation backend.
///
/// Implementations must be pure functions of their arguments (no
/// interior state, no RNG, no floats whose order of evaluation depends
/// on chunking) so that
/// [`BacklightPlan::compute_policy`](crate::plan::BacklightPlan::compute_policy)
/// stays byte-identical across worker counts.
pub trait AnnotationPolicy: Send + Sync + std::fmt::Debug {
    /// Which [`PolicyKind`] this backend implements.
    fn kind(&self) -> PolicyKind;

    /// Plans one scene: effective maximum, compensation, backlight
    /// level and power saving.
    fn plan_scene(
        &self,
        profile: &LuminanceProfile,
        span: SceneSpan,
        device: &DeviceProfile,
        quality: QualityLevel,
    ) -> ScenePlan;

    /// The per-scene pixel remap, when the policy uses one instead of
    /// the scalar contrast stretch (only HEBS does).
    fn scene_remap(&self, _hist: &Histogram, _quality: QualityLevel) -> Option<HebsLut> {
        None
    }

    /// Picks a serving resolution given priced per-resolution energy.
    /// Every backend except [`SpatialScale`] always serves full
    /// resolution.
    fn select_resolution(&self, cost: &ResolutionCost) -> ResolutionDecision {
        ResolutionDecision {
            use_half: false,
            full_energy_j: cost.full_energy_j,
            half_energy_j: cost.half_energy_j,
        }
    }
}

/// The paper's peak-luminance/clipping policy (reference backend).
#[derive(Debug, Clone, Copy)]
pub struct PeakClip;

impl AnnotationPolicy for PeakClip {
    fn kind(&self) -> PolicyKind {
        PolicyKind::PeakClip
    }

    fn plan_scene(
        &self,
        profile: &LuminanceProfile,
        span: SceneSpan,
        device: &DeviceProfile,
        quality: QualityLevel,
    ) -> ScenePlan {
        peak_clip_scene(profile, span, device, quality)
    }
}

/// Histogram-equalization backlight scaling.
#[derive(Debug, Clone, Copy)]
pub struct Hebs;

impl AnnotationPolicy for Hebs {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Hebs
    }

    fn plan_scene(
        &self,
        profile: &LuminanceProfile,
        span: SceneSpan,
        device: &DeviceProfile,
        quality: QualityLevel,
    ) -> ScenePlan {
        let hist = profile.merged_histogram(span.start, span.end);
        let raw_max = hist.max_nonzero().unwrap_or(0);
        let effective = hist.clip_level(quality.clip_fraction());
        // The clipping budget is spent exactly like peak-clip: pixels
        // above the effective max saturate, so the realised quality
        // degradation is identical and the SLO can never be exceeded.
        let clipped_fraction = hist.fraction_above(effective);
        let (k, backlight) = hebs_levels(device, &hist, effective);
        let power_savings = device.backlight_power().savings_vs_full(backlight);
        ScenePlan {
            span,
            raw_max_luma: raw_max,
            effective_max_luma: effective,
            clipped_fraction,
            compensation: k,
            backlight,
            power_savings,
        }
    }

    fn scene_remap(&self, hist: &Histogram, quality: QualityLevel) -> Option<HebsLut> {
        let effective = hist.clip_level(quality.clip_fraction());
        Some(HebsLut::from_histogram(hist, effective))
    }
}

/// Peak-clip planning plus proxy-side optimal spatial scaling.
#[derive(Debug, Clone, Copy)]
pub struct SpatialScale;

impl AnnotationPolicy for SpatialScale {
    fn kind(&self) -> PolicyKind {
        PolicyKind::SpatialScale
    }

    fn plan_scene(
        &self,
        profile: &LuminanceProfile,
        span: SceneSpan,
        device: &DeviceProfile,
        quality: QualityLevel,
    ) -> ScenePlan {
        // Backlight planning is the reference policy; the resolution
        // knob is orthogonal and answered by `select_resolution`.
        peak_clip_scene(profile, span, device, quality)
    }

    fn select_resolution(&self, cost: &ResolutionCost) -> ResolutionDecision {
        ResolutionDecision {
            use_half: cost.half_supported
                && cost.half_energy_j < cost.full_energy_j * (1.0 - SPATIAL_MARGIN),
            full_energy_j: cost.full_energy_j,
            half_energy_j: cost.half_energy_j,
        }
    }
}

/// HEBS `(compensation factor, backlight level)` for a scene histogram.
///
/// The equalized remap brightens the scene's pixel mass beyond the
/// plain contrast stretch by the perceived-luminance **gain**
///
/// ```text
/// g = Σ h(v)·(remap(v)/255)^γ  /  Σ h(v)·(stretch(v)/255)^γ   (g ≥ 1)
/// ```
///
/// so the backlight can be dimmed by exactly that factor below the
/// peak-clip target while the histogram-weighted perceived intensity is
/// preserved: `target = (eff/255)^γ / g`. Because the remap dominates
/// the stretch pointwise, `g ≥ 1` always — **HEBS never selects a
/// brighter backlight than peak-clip for the same scene**, which is the
/// ordering the conformance tier asserts. The compensation factor is
/// derived from the achieved discrete level exactly like
/// [`plan_levels`](crate::plan::plan_levels).
pub fn hebs_levels(
    device: &DeviceProfile,
    hist: &Histogram,
    effective_max: u8,
) -> (f32, BacklightLevel) {
    if effective_max == 0 {
        return (1.0, BacklightLevel::MIN);
    }
    let gamma = device.panel().white_gamma();
    let lut = HebsLut::from_histogram(hist, effective_max);
    let mut remapped = 0.0f64;
    let mut stretched = 0.0f64;
    for v in 0..=255u8 {
        let mass = hist.bin(v) as f64;
        if mass == 0.0 {
            continue;
        }
        remapped += mass * (f64::from(lut.value(v)) / 255.0).powf(gamma);
        stretched += mass * (f64::from(lut.stretch_value(v)) / 255.0).powf(gamma);
    }
    let gain = if stretched > 0.0 { (remapped / stretched).max(1.0) } else { 1.0 };
    let y = f64::from(effective_max) / 255.0;
    let target_luminance = y.powf(gamma) / gain;
    let backlight = device.transfer().level_for_luminance(target_luminance);
    let achieved = device.transfer().luminance(backlight).max(f64::EPSILON);
    let k = (1.0 / achieved).powf(1.0 / gamma) as f32;
    (k.max(1.0), backlight)
}

/// The per-scene HEBS remap tables for one clip — the pixel-domain half
/// of the HEBS policy, shared by the server and proxy compensation
/// paths.
///
/// Scene spans are derived exactly like the annotator derives them
/// (detector spans for [`AnnotationMode::PerScene`], one span per frame
/// for [`AnnotationMode::PerFrame`]), so the remap applied to frame `i`
/// always matches the backlight level annotated for frame `i`.
#[derive(Debug, Clone)]
pub struct HebsRemapSet {
    spans: Vec<SceneSpan>,
    luts: Vec<HebsLut>,
}

impl HebsRemapSet {
    /// Builds the remap set for `profile`, deriving spans per `mode`.
    pub fn new(profile: &LuminanceProfile, mode: AnnotationMode, quality: QualityLevel) -> Self {
        let spans = match mode {
            AnnotationMode::PerScene => SceneDetector::default().detect(profile),
            AnnotationMode::PerFrame => (0..profile.len() as u32)
                .map(|i| SceneSpan { start: i, end: i + 1 })
                .collect(),
        };
        Self::for_spans(profile, spans, quality)
    }

    /// Builds the remap set for explicit `spans`.
    pub fn for_spans(
        profile: &LuminanceProfile,
        spans: Vec<SceneSpan>,
        quality: QualityLevel,
    ) -> Self {
        let luts = spans
            .iter()
            .map(|s| {
                let hist = profile.merged_histogram(s.start, s.end);
                let effective = hist.clip_level(quality.clip_fraction());
                HebsLut::from_histogram(&hist, effective)
            })
            .collect();
        Self { spans, luts }
    }

    /// The scene spans, in playback order.
    pub fn spans(&self) -> &[SceneSpan] {
        &self.spans
    }

    /// The per-scene remap tables, parallel to [`spans`](Self::spans).
    pub fn luts(&self) -> &[HebsLut] {
        &self.luts
    }

    /// The remap covering frame `frame` (panics if no span covers it).
    pub fn lut_for_frame(&self, frame: u32) -> &HebsLut {
        let idx = self
            .spans
            .iter()
            .position(|s| s.start <= frame && frame < s.end)
            .unwrap_or_else(|| panic!("frame {frame} outside every scene span"));
        &self.luts[idx]
    }

    /// Applies the frame's scene remap in place, returning clip stats.
    pub fn apply_frame(&self, frame_buf: &mut Frame, frame: u32) -> ClipStats {
        self.lut_for_frame(frame).apply(frame_buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ParallelConfig;
    use crate::plan::BacklightPlan;
    use annolight_imgproc::Rgb8;
    use annolight_support::json::to_string;

    fn dark_profile() -> LuminanceProfile {
        let frames: Vec<Frame> = (0..30)
            .map(|_| {
                let mut f = Frame::filled(10, 10, Rgb8::gray(40));
                f.set_pixel(0, 0, Rgb8::gray(250));
                f
            })
            .collect();
        LuminanceProfile::of_frames(10.0, frames).unwrap()
    }

    #[test]
    fn ids_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_id(p.id()), Some(p));
            assert_eq!(p.policy().kind(), p);
        }
        assert_eq!(PolicyKind::from_id(3), None);
        assert_eq!(PolicyKind::default(), PolicyKind::PeakClip);
    }

    #[test]
    fn json_round_trip() {
        for p in PolicyKind::ALL {
            let s = to_string(&p);
            let back: PolicyKind = annolight_support::json::from_str(&s).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn peak_clip_backend_is_byte_identical_to_legacy_planner() {
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        let dev = DeviceProfile::ipaq_5555();
        let legacy = BacklightPlan::compute_parallel(&p, &spans, &dev, QualityLevel::Q10, &ParallelConfig::serial());
        let policy = BacklightPlan::compute_policy(
            &p, &spans, &dev, QualityLevel::Q10, PolicyKind::PeakClip, &ParallelConfig::serial(),
        );
        assert_eq!(to_string(&legacy), to_string(&policy));
    }

    #[test]
    fn hebs_backlight_never_brighter_than_peak_clip() {
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        for dev in DeviceProfile::paper_devices() {
            for q in QualityLevel::PAPER_LEVELS {
                let peak = BacklightPlan::compute_policy(
                    &p, &spans, &dev, q, PolicyKind::PeakClip, &ParallelConfig::serial(),
                );
                let hebs = BacklightPlan::compute_policy(
                    &p, &spans, &dev, q, PolicyKind::Hebs, &ParallelConfig::serial(),
                );
                for (a, b) in peak.scenes().iter().zip(hebs.scenes()) {
                    assert!(b.backlight <= a.backlight, "{} {q:?}", dev.name());
                    assert!(b.power_savings >= a.power_savings - 1e-12);
                    assert_eq!(a.clipped_fraction, b.clipped_fraction, "same clipping budget");
                    assert_eq!(a.effective_max_luma, b.effective_max_luma);
                }
                assert!(hebs.mean_backlight_savings() >= peak.mean_backlight_savings() - 1e-12);
            }
        }
    }

    #[test]
    fn hebs_beats_peak_clip_on_dark_mass() {
        // Dark-heavy content is where the equalization gain comes from.
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        let dev = DeviceProfile::ipaq_5555();
        let peak = BacklightPlan::compute_policy(
            &p, &spans, &dev, QualityLevel::Q0, PolicyKind::PeakClip, &ParallelConfig::serial(),
        );
        let hebs = BacklightPlan::compute_policy(
            &p, &spans, &dev, QualityLevel::Q0, PolicyKind::Hebs, &ParallelConfig::serial(),
        );
        assert!(
            hebs.mean_backlight_savings() > peak.mean_backlight_savings() + 0.05,
            "hebs {} vs peak {}",
            hebs.mean_backlight_savings(),
            peak.mean_backlight_savings()
        );
    }

    #[test]
    fn hebs_black_scene_is_min_backlight() {
        let h = Histogram::new();
        let (k, b) = hebs_levels(&DeviceProfile::ipaq_5555(), &h, 0);
        assert_eq!(b, BacklightLevel::MIN);
        assert!((k - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spatial_scale_plans_like_peak_clip() {
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        let dev = DeviceProfile::ipaq_5555();
        let peak = BacklightPlan::compute_policy(
            &p, &spans, &dev, QualityLevel::Q10, PolicyKind::PeakClip, &ParallelConfig::serial(),
        );
        let spatial = BacklightPlan::compute_policy(
            &p, &spans, &dev, QualityLevel::Q10, PolicyKind::SpatialScale, &ParallelConfig::serial(),
        );
        assert_eq!(to_string(&peak), to_string(&spatial));
    }

    #[test]
    fn spatial_scale_selects_energy_argmin_with_margin() {
        let s = SpatialScale;
        let pick = |full: f64, half: f64, supported: bool| {
            s.select_resolution(&ResolutionCost {
                full_energy_j: full,
                half_energy_j: half,
                half_supported: supported,
            })
            .use_half
        };
        assert!(pick(10.0, 5.0, true));
        assert!(!pick(10.0, 5.0, false), "unsupported dims never downscale");
        assert!(!pick(10.0, 9.9, true), "inside the margin stays full-res");
        assert!(!pick(10.0, 12.0, true));
        // Non-spatial policies always serve full resolution.
        for p in [PolicyKind::PeakClip, PolicyKind::Hebs] {
            let d = p.policy().select_resolution(&ResolutionCost {
                full_energy_j: 10.0,
                half_energy_j: 1.0,
                half_supported: true,
            });
            assert!(!d.use_half, "{p:?}");
        }
    }

    #[test]
    fn remap_set_covers_every_frame_in_both_modes() {
        let p = dark_profile();
        for mode in [AnnotationMode::PerScene, AnnotationMode::PerFrame] {
            let set = HebsRemapSet::new(&p, mode, QualityLevel::Q10);
            assert_eq!(set.spans().len(), set.luts().len());
            for i in 0..p.len() as u32 {
                let lut = set.lut_for_frame(i);
                assert!(lut.value(255) == 255);
            }
        }
        let per_frame = HebsRemapSet::new(&p, AnnotationMode::PerFrame, QualityLevel::Q10);
        assert_eq!(per_frame.spans().len(), p.len());
    }

    #[test]
    fn hebs_scene_remap_matches_remap_set() {
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        let set = HebsRemapSet::for_spans(&p, spans.clone(), QualityLevel::Q10);
        for (i, s) in spans.iter().enumerate() {
            let hist = p.merged_histogram(s.start, s.end);
            let lut = Hebs.scene_remap(&hist, QualityLevel::Q10).unwrap();
            assert_eq!(&lut, &set.luts()[i]);
        }
        assert!(PeakClip.scene_remap(&Histogram::new(), QualityLevel::Q10).is_none());
    }
}
