//! Per-scene backlight planning (§4.1 + §4.3).
//!
//! For each detected scene the planner computes:
//!
//! * the **effective maximum luminance** — the histogram level below which
//!   the scene's pixels lie once the quality level's clipping budget is
//!   spent on the brightest pixels (Fig. 5);
//! * the **backlight luminance ratio** `L'/L` needed so that the
//!   compensated effective-max pixel is perceived exactly as before
//!   (`I = ρ·L·Y` kept constant);
//! * the **compensation factor** `k` applied to the pixel values
//!   (`C' = min(1, C·k)`); and
//! * the discrete **backlight level** obtained by inverting the device's
//!   measured transfer function ("the resulted value is later plugged into
//!   the backlight-luminance function").

use crate::parallel::{chunked_map, ParallelConfig};
use crate::profile::LuminanceProfile;
use crate::quality::QualityLevel;
use crate::scenes::SceneSpan;
use annolight_display::{BacklightLevel, DeviceProfile};

/// The plan for one scene.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenePlan {
    /// Frame range of the scene.
    pub span: SceneSpan,
    /// Scene maximum luminance before clipping.
    pub raw_max_luma: u8,
    /// Effective maximum luminance after spending the clipping budget.
    pub effective_max_luma: u8,
    /// Fraction of scene pixels that will clip at this level.
    pub clipped_fraction: f64,
    /// Pixel-domain compensation factor `k ≥ 1`.
    pub compensation: f32,
    /// Backlight level for the device this plan targets.
    pub backlight: BacklightLevel,
    /// Fractional backlight power saving vs. full backlight for this scene.
    pub power_savings: f64,
}

annolight_support::impl_json!(struct ScenePlan { span, raw_max_luma, effective_max_luma, clipped_fraction, compensation, backlight, power_savings });

/// A complete per-scene plan for one clip on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct BacklightPlan {
    device_name: String,
    quality: QualityLevel,
    fps: f64,
    scenes: Vec<ScenePlan>,
}

annolight_support::impl_json!(struct BacklightPlan { device_name, quality, fps, scenes });

impl BacklightPlan {
    /// Plans every scene of `profile` (split as `spans`) for `device` at
    /// `quality`.
    ///
    /// # Panics
    ///
    /// Panics if `spans` is empty or does not lie within the profile.
    pub fn compute(
        profile: &LuminanceProfile,
        spans: &[SceneSpan],
        device: &DeviceProfile,
        quality: QualityLevel,
    ) -> Self {
        Self::compute_parallel(profile, spans, device, quality, &ParallelConfig::serial())
    }

    /// [`compute`](Self::compute) with scene planning fanned out over a
    /// scoped worker pool.
    ///
    /// Each scene plan depends only on the (immutable) profile, so the
    /// spans are chunked and planned concurrently, then reassembled in
    /// span order. The output is byte-identical to the serial path for
    /// every worker count — `cfg.workers == 0` *is* the serial path.
    ///
    /// # Panics
    ///
    /// Panics if `spans` is empty or does not lie within the profile.
    pub fn compute_parallel(
        profile: &LuminanceProfile,
        spans: &[SceneSpan],
        device: &DeviceProfile,
        quality: QualityLevel,
        cfg: &ParallelConfig,
    ) -> Self {
        Self::compute_policy(profile, spans, device, quality, crate::policy::PolicyKind::PeakClip, cfg)
    }

    /// [`compute_parallel`](Self::compute_parallel) with the scene planner
    /// dispatched through an [`AnnotationPolicy`](crate::policy::AnnotationPolicy)
    /// backend. `PolicyKind::PeakClip` reproduces the legacy planner
    /// byte-for-byte (it *is* the extracted legacy scene kernel); other
    /// backends substitute their own per-scene levels while keeping the
    /// same chunked fan-out, so every policy is byte-identical across
    /// worker counts.
    ///
    /// # Panics
    ///
    /// Panics if `spans` is empty or does not lie within the profile.
    pub fn compute_policy(
        profile: &LuminanceProfile,
        spans: &[SceneSpan],
        device: &DeviceProfile,
        quality: QualityLevel,
        policy: crate::policy::PolicyKind,
        cfg: &ParallelConfig,
    ) -> Self {
        assert!(!spans.is_empty(), "cannot plan zero scenes");
        let backend = policy.policy();
        let chunks = chunked_map(spans.len(), cfg, |range| {
            spans[range]
                .iter()
                .map(|&span| backend.plan_scene(profile, span, device, quality))
                .collect::<Vec<_>>()
        });
        let scenes = chunks.into_iter().flatten().collect();
        Self {
            device_name: device.name().to_owned(),
            quality,
            fps: profile.fps(),
            scenes,
        }
    }

    /// Name of the device the plan targets.
    pub fn device_name(&self) -> &str {
        &self.device_name
    }

    /// The quality level the plan was computed for.
    pub fn quality(&self) -> QualityLevel {
        self.quality
    }

    /// Frame rate of the underlying profile.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// The per-scene plans, in playback order.
    pub fn scenes(&self) -> &[ScenePlan] {
        &self.scenes
    }

    /// Replaces the per-scene plans (used by the credits guard, which
    /// re-plans individual scenes at a capped quality).
    pub(crate) fn replace_scenes(&mut self, scenes: Vec<ScenePlan>) {
        assert_eq!(scenes.len(), self.scenes.len(), "scene count must be preserved");
        self.scenes = scenes;
    }

    /// Duration-weighted mean backlight power saving over the whole clip —
    /// the per-clip quantity plotted in Fig. 9.
    pub fn mean_backlight_savings(&self) -> f64 {
        let total: u32 = self.scenes.iter().map(|s| s.span.len()).sum();
        if total == 0 {
            return 0.0;
        }
        self.scenes
            .iter()
            .map(|s| s.power_savings * f64::from(s.span.len()))
            .sum::<f64>()
            / f64::from(total)
    }
}

/// The paper's peak-clipping scene planner, extracted verbatim from the
/// pre-policy `BacklightPlan` so the `PeakClip` backend is the
/// byte-identity reference: merged histogram → clip-budget effective
/// maximum → [`plan_levels`] → backlight power saving.
pub(crate) fn peak_clip_scene(
    profile: &LuminanceProfile,
    span: SceneSpan,
    device: &DeviceProfile,
    quality: QualityLevel,
) -> ScenePlan {
    let hist = profile.merged_histogram(span.start, span.end);
    let raw_max = hist.max_nonzero().unwrap_or(0);
    let effective = hist.clip_level(quality.clip_fraction());
    let clipped_fraction = hist.fraction_above(effective);
    let (k, backlight) = plan_levels(device, effective);
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

/// Computes the `(compensation factor, backlight level)` pair that lets a
/// scene with effective maximum luminance `effective_max` be displayed
/// with unchanged perceived intensity.
///
/// The compensation stretches `effective_max` to full scale
/// (`k = 255 / effective_max`, the paper's `k = L/L'` expressed in the
/// pixel domain), and the backlight is dimmed so the *transmitted*
/// luminance of a full-scale pixel equals what `effective_max` produced at
/// full backlight: `L' = (effective_max/255)^γ` with `γ` the panel's white
/// response gamma, then inverted through the device transfer function.
pub fn plan_levels(device: &DeviceProfile, effective_max: u8) -> (f32, BacklightLevel) {
    if effective_max == 0 {
        // A black scene: any backlight level works; use the minimum.
        return (1.0, BacklightLevel::MIN);
    }
    let gamma = device.panel().white_gamma();
    let y = f64::from(effective_max) / 255.0;
    let target_luminance = y.powf(gamma);
    let backlight = device.transfer().level_for_luminance(target_luminance);
    // Compensate in the pixel domain against the *achieved* luminance (the
    // discrete level may slightly overshoot the target, needing less k).
    let achieved = device.transfer().luminance(backlight).max(f64::EPSILON);
    let k = (1.0 / achieved).powf(1.0 / gamma) as f32;
    (k.max(1.0), backlight)
}

/// Ambient-aware variant of [`plan_levels`]: on reflective/transflective
/// panels part of the perceived intensity comes from reflected ambient
/// light, which does not dim with the backlight. The preserved-intensity
/// equation `K·(ρ·L' + a·r) = ρ·L_max + a·r` (with `K = k^γ` the applied
/// luminance gain) then admits a *lower* `L'` than the dark-room plan —
/// outdoors, the same scene needs even less backlight.
///
/// `ambient` is the relative ambient illumination in `[0, 1]` (0 recovers
/// [`plan_levels`]' backlight level exactly; the compensation factor is
/// the ideal `255/effective_max` rather than the achieved-level-adjusted
/// one).
///
/// # Panics
///
/// Panics if `ambient` is outside `[0, 1]`.
pub fn plan_levels_ambient(
    device: &DeviceProfile,
    effective_max: u8,
    ambient: f64,
) -> (f32, BacklightLevel) {
    assert!((0.0..=1.0).contains(&ambient), "ambient {ambient} outside [0, 1]");
    if effective_max == 0 {
        return (1.0, BacklightLevel::MIN);
    }
    let gamma = device.panel().white_gamma();
    let rho = device.panel().transmittance();
    let reflect = device.panel().ambient_reflectance() * ambient;
    // Full compensation stretches the effective max to full scale.
    let k = 255.0 / f64::from(effective_max);
    let big_k = k.powf(gamma);
    let l_max = device.transfer().luminance(BacklightLevel::MAX);
    // Solve K·(ρ·L' + a·r) = ρ·L_max + a·r for L'.
    let l_target = ((rho * l_max + reflect) / big_k - reflect) / rho;
    let backlight = device.transfer().level_for_luminance(l_target.max(0.0));
    (k as f32, backlight)
}

/// The brightness-compensation delta for a scene (§4.1's alternative
/// operator, `C' = min(1, C + δC)`): the constant that stretches the
/// effective maximum to full scale.
pub fn brightness_delta(effective_max: u8) -> u8 {
    255 - effective_max
}

/// Mean perceived-intensity error (relative, over a gray ramp up to the
/// effective max) that a compensation operator leaves after dimming.
///
/// Contrast enhancement preserves `ρ·L·Y` exactly for every unclipped
/// pixel; brightness compensation only matches at the effective max and
/// over-brightens everything darker — this function quantifies that,
/// supporting the paper's choice ("We use this method in our work").
pub fn operator_distortion(
    device: &DeviceProfile,
    effective_max: u8,
    kind: annolight_imgproc::CompensationKind,
) -> f64 {
    use annolight_imgproc::CompensationKind;
    if effective_max == 0 {
        return 0.0;
    }
    let gamma = device.panel().white_gamma();
    let (k, level) = plan_levels(device, effective_max);
    let delta = brightness_delta(effective_max);
    let l_full = device.transfer().luminance(annolight_display::BacklightLevel::MAX);
    let l_dim = device.transfer().luminance(level);
    let mut err = 0.0;
    let mut count = 0u32;
    for c in 1..=effective_max {
        let compensated = match kind {
            CompensationKind::ContrastEnhancement => (f64::from(c) * f64::from(k)).min(255.0),
            CompensationKind::BrightnessCompensation => f64::from(c.saturating_add(delta)),
        };
        let original = l_full * (f64::from(c) / 255.0).powf(gamma);
        let dimmed = l_dim * (compensated / 255.0).powf(gamma);
        err += (dimmed - original).abs() / original.max(1e-9);
        count += 1;
    }
    err / f64::from(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenes::SceneDetector;
    use annolight_imgproc::{CompensationKind, Frame, Rgb8};

    fn device() -> DeviceProfile {
        DeviceProfile::ipaq_5555()
    }

    fn dark_profile() -> LuminanceProfile {
        // 30 frames: dark 40-gray with one 250 highlight pixel each.
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
    fn lossless_plan_keeps_raw_max() {
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        let plan = BacklightPlan::compute(&p, &spans, &device(), QualityLevel::Q0);
        let s = &plan.scenes()[0];
        assert_eq!(s.raw_max_luma, 250);
        assert_eq!(s.effective_max_luma, 250);
        assert_eq!(s.clipped_fraction, 0.0);
    }

    #[test]
    fn clipping_collapses_dark_scene() {
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        let q0 = BacklightPlan::compute(&p, &spans, &device(), QualityLevel::Q0);
        let q5 = BacklightPlan::compute(&p, &spans, &device(), QualityLevel::Q5);
        // 1% of pixels are highlights; a 5% budget eats them all.
        assert_eq!(q5.scenes()[0].effective_max_luma, 40);
        assert!(q5.mean_backlight_savings() > q0.mean_backlight_savings() + 0.2);
    }

    #[test]
    fn clipped_fraction_never_exceeds_budget() {
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        for q in QualityLevel::PAPER_LEVELS {
            let plan = BacklightPlan::compute(&p, &spans, &device(), q);
            for s in plan.scenes() {
                assert!(
                    s.clipped_fraction <= q.clip_fraction() + 1e-12,
                    "{q:?}: {s:?}"
                );
            }
        }
    }

    #[test]
    fn savings_monotone_in_quality() {
        let p = dark_profile();
        let spans = SceneDetector::default().detect(&p);
        let mut last = -1.0;
        for q in QualityLevel::PAPER_LEVELS {
            let s = BacklightPlan::compute(&p, &spans, &device(), q).mean_backlight_savings();
            assert!(s + 1e-12 >= last, "savings should not decrease with quality loss");
            last = s;
        }
    }

    #[test]
    fn plan_levels_full_scale_scene_saves_nothing() {
        let (k, b) = plan_levels(&device(), 255);
        assert_eq!(b, BacklightLevel::MAX);
        assert!((k - 1.0).abs() < 1e-5);
    }

    #[test]
    fn plan_levels_black_scene() {
        let (k, b) = plan_levels(&device(), 0);
        assert_eq!(b, BacklightLevel::MIN);
        assert!((k - 1.0).abs() < 1e-6);
    }

    #[test]
    fn plan_levels_perception_identity() {
        // For the effective-max pixel the compensated render at the dimmed
        // backlight must match the original render at full backlight.
        let dev = device();
        for effective in [32u8, 64, 100, 180, 240] {
            let (k, b) = plan_levels(&dev, effective);
            let gamma = dev.panel().white_gamma();
            let original =
                dev.transfer().luminance(BacklightLevel::MAX) * (f64::from(effective) / 255.0).powf(gamma);
            let compensated_pixel = (f64::from(effective) * f64::from(k)).min(255.0);
            let dimmed = dev.transfer().luminance(b) * (compensated_pixel / 255.0).powf(gamma);
            assert!(
                (original - dimmed).abs() < 0.02,
                "effective {effective}: original {original:.4} vs dimmed {dimmed:.4}"
            );
        }
    }

    #[test]
    fn compensation_at_least_one() {
        for e in 1..=255u8 {
            let (k, _) = plan_levels(&device(), e);
            assert!(k >= 1.0, "k {k} < 1 for effective {e}");
        }
    }

    #[test]
    fn ambient_zero_matches_dark_room_plan() {
        for dev in DeviceProfile::paper_devices() {
            for eff in [40u8, 100, 180, 240] {
                let (_, dark) = plan_levels(&dev, eff);
                let (_, amb0) = plan_levels_ambient(&dev, eff, 0.0);
                assert_eq!(dark, amb0, "{} at {eff}", dev.name());
            }
        }
    }

    #[test]
    fn ambient_light_allows_dimmer_backlight() {
        // Transflective/reflective panels: reflected sunlight carries part
        // of the perceived intensity, so the backlight can drop further.
        for dev in DeviceProfile::paper_devices() {
            let (_, dark) = plan_levels_ambient(&dev, 150, 0.0);
            let (_, sunny) = plan_levels_ambient(&dev, 150, 0.8);
            assert!(
                sunny < dark,
                "{}: sunny {sunny} should be dimmer than dark {dark}",
                dev.name()
            );
        }
    }

    #[test]
    fn ambient_savings_monotone_in_ambient() {
        let dev = device();
        let mut last = BacklightLevel::MAX;
        for a in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let (_, level) = plan_levels_ambient(&dev, 160, a);
            assert!(level <= last, "ambient {a}");
            last = level;
        }
    }

    #[test]
    fn ambient_black_scene_is_min() {
        let (k, b) = plan_levels_ambient(&device(), 0, 0.5);
        assert_eq!(b, BacklightLevel::MIN);
        assert!((k - 1.0).abs() < 1e-6);
    }

    #[test]
    fn brightness_delta_stretches_to_full_scale() {
        assert_eq!(brightness_delta(200), 55);
        assert_eq!(brightness_delta(255), 0);
        assert_eq!(brightness_delta(0), 255);
    }

    #[test]
    fn contrast_operator_is_more_faithful_than_brightness() {
        // The paper picks contrast enhancement; brightness compensation
        // over-brightens everything below the effective max.
        let dev = device();
        for effective in [80u8, 128, 190] {
            let contrast = operator_distortion(&dev, effective, CompensationKind::ContrastEnhancement);
            let brightness =
                operator_distortion(&dev, effective, CompensationKind::BrightnessCompensation);
            assert!(
                contrast < brightness / 4.0,
                "effective {effective}: contrast {contrast} vs brightness {brightness}"
            );
            assert!(contrast < 0.05, "contrast error should be near zero, got {contrast}");
        }
    }

    #[test]
    fn mean_savings_is_duration_weighted() {
        let p = dark_profile();
        let spans = vec![
            SceneSpan { start: 0, end: 10 },
            SceneSpan { start: 10, end: 30 },
        ];
        let plan = BacklightPlan::compute(&p, &spans, &device(), QualityLevel::Q10);
        let s0 = plan.scenes()[0].power_savings;
        let s1 = plan.scenes()[1].power_savings;
        let expected = (s0 * 10.0 + s1 * 20.0) / 30.0;
        assert!((plan.mean_backlight_savings() - expected).abs() < 1e-12);
    }
}
