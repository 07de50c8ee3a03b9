//! Property tier for the annotation-policy backends, on the in-tree
//! seeded `check` harness.
//!
//! The differential conformance tier (`tests/policy_conformance.rs` at
//! the workspace root) pins a fixed matrix; this tier sweeps the same
//! invariants over *randomised* histograms, clips and priced costs:
//!
//! * the HEBS remap is monotone, bracketed by the contrast stretch and
//!   full scale, saturates the clipped lane, and is mass-preserving;
//! * HEBS never selects a brighter backlight than peak-clip for the
//!   same scene, at the identical clipping budget (`k ≥ 1` both ways);
//! * `SpatialScale::select_resolution` is exactly the margin-gated
//!   energy argmin, and every other backend always serves full
//!   resolution;
//! * planning is a pure function of its inputs: byte-identical across
//!   repeated runs and across worker counts for every backend.

use annolight_core::policy::{hebs_levels, PolicyKind, ResolutionCost, SPATIAL_MARGIN};
use annolight_core::{
    BacklightPlan, LuminanceProfile, ParallelConfig, QualityLevel, SceneDetector,
};
use annolight_display::DeviceProfile;
use annolight_imgproc::{HebsLut, Histogram};
use annolight_support::check::Gen;
use annolight_support::json::to_string;
use annolight_video::{Clip, ClipSpec, ContentKind, SceneSpec};

/// A random luminance histogram: a handful of bands plus optional
/// sparse highlights, the shapes scene detection actually produces.
fn random_histogram(g: &mut Gen) -> Histogram {
    let mut h = Histogram::new();
    let bands = g.draw(1..5usize);
    for _ in 0..bands {
        let center: u8 = g.draw(0u8..=255);
        let spread = g.draw(0u8..40);
        let mass: u64 = g.draw(1u64..5_000);
        let lo = center.saturating_sub(spread);
        let hi = center.saturating_add(spread);
        let bins = u64::from(hi - lo) + 1;
        for v in lo..=hi {
            h.add_count(v, mass / bins + 1);
        }
    }
    h
}

/// A random quality level from the paper's sweep.
fn random_quality(g: &mut Gen) -> QualityLevel {
    QualityLevel::PAPER_LEVELS[g.draw(0..QualityLevel::PAPER_LEVELS.len())]
}

fn random_device(g: &mut Gen) -> DeviceProfile {
    let devices = DeviceProfile::paper_devices();
    devices[g.draw(0..devices.len())].clone()
}

/// A random short synthetic clip (16-multiple dimensions, 1–3 scenes
/// from the content palette), seeded from the generator so failures
/// shrink and replay deterministically.
fn random_clip(g: &mut Gen) -> Clip {
    let palette = |g: &mut Gen| match g.draw(0..5u32) {
        0 => ContentKind::Dark {
            base: g.draw(10u8..70),
            spread: g.draw(2u8..20),
            highlight_fraction: g.draw(0.0f64..0.05),
            highlight: g.draw(200u8..=255),
        },
        1 => ContentKind::Bright { base: g.draw(170u8..240), spread: g.draw(2u8..20) },
        2 => ContentKind::Mid {
            base: g.draw(80u8..160),
            spread: g.draw(5u8..40),
            highlight_fraction: g.draw(0.0f64..0.08),
        },
        3 => ContentKind::Fade { from: g.draw(0u8..100), to: g.draw(100u8..=255) },
        _ => ContentKind::Credits {
            text: g.draw(180u8..=255),
            background: g.draw(0u8..40),
            density: g.draw(0.005f64..0.1),
        },
    };
    let scene_count = g.draw(1..4usize);
    let scenes =
        (0..scene_count).map(|_| SceneSpec::new(palette(g), g.draw(0.5f64..1.5))).collect();
    Clip::new(ClipSpec {
        name: "prop".into(),
        width: 32,
        height: 32,
        fps: 8.0,
        seed: g.draw(0u64..u64::MAX),
        scenes,
    })
    .expect("generated spec is valid")
}

annolight_support::check! {
    /// The HEBS remap is monotone, sits between the contrast stretch
    /// and full scale, and saturates at and above the effective
    /// maximum — for any histogram and any quality level.
    fn hebs_remap_is_monotone_and_bracketed(g) {
        let hist = random_histogram(g);
        let quality = random_quality(g);
        let lut = HebsLut::from_histogram(&hist, hist.clip_level(quality.clip_fraction()));
        let eff = lut.effective_max();
        let mut prev = lut.value(0);
        for v in 0..=255u8 {
            let cur = lut.value(v);
            assert!(cur >= prev, "not monotone at {v}: {cur} < {prev}");
            assert!(cur >= lut.stretch_value(v), "below the stretch envelope at {v}");
            if eff > 0 && v >= eff {
                assert_eq!(cur, 255, "clipped lane must saturate at {v} (eff {eff})");
            }
            prev = cur;
        }
    }

    /// The remap moves histogram mass without creating or destroying
    /// any: pushing every bin through the LUT preserves the total.
    fn hebs_remap_preserves_histogram_mass(g) {
        let hist = random_histogram(g);
        let eff = hist.clip_level(random_quality(g).clip_fraction());
        let lut = HebsLut::from_histogram(&hist, eff);
        let mut remapped = Histogram::new();
        for v in 0..=255u8 {
            let mass = hist.bin(v);
            if mass > 0 {
                remapped.add_count(lut.value(v), mass);
            }
        }
        assert_eq!(remapped.total(), hist.total(), "remap must preserve pixel mass");
        // The remapped support tops out exactly at full scale, reached
        // by the clipped lane whenever the histogram occupies it.
        if eff > 0 && hist.max_nonzero().unwrap_or(0) >= eff {
            assert_eq!(remapped.max_nonzero(), Some(255));
        }
    }

    /// `hebs_levels` never compensates below 1 and never picks a
    /// brighter backlight than the peak-clip planner for the same
    /// scene, on real (rendered-clip) histograms.
    fn hebs_never_brighter_than_peak_clip(g, cases = 48) {
        let clip = random_clip(g);
        let quality = random_quality(g);
        let device = random_device(g);
        let profile = LuminanceProfile::of_clip(&clip).expect("non-empty clip");
        let spans = SceneDetector::default().detect(&profile);
        let serial = ParallelConfig::serial();
        let peak = BacklightPlan::compute_policy(
            &profile, &spans, &device, quality, PolicyKind::PeakClip, &serial);
        let hebs = BacklightPlan::compute_policy(
            &profile, &spans, &device, quality, PolicyKind::Hebs, &serial);
        for (p, h) in peak.scenes().iter().zip(hebs.scenes().iter()) {
            assert_eq!(p.effective_max_luma, h.effective_max_luma,
                "both policies must spend the same clipping budget");
            assert!(h.backlight <= p.backlight,
                "HEBS picked a brighter backlight: {:?} > {:?}", h.backlight, p.backlight);
            assert!(h.compensation >= 1.0, "compensation {} < 1", h.compensation);
            assert!(h.power_savings + 1e-12 >= p.power_savings,
                "dimmer backlight must not save less power");
            let hist = profile.merged_histogram(h.span.start, h.span.end);
            let (k, level) = hebs_levels(&device, &hist, h.effective_max_luma);
            assert_eq!((k, level), (h.compensation, h.backlight),
                "plan must equal the scalar kernel");
        }
    }

    /// `SpatialScale::select_resolution` is the margin-gated energy
    /// argmin; every other backend always stays at full resolution.
    fn spatial_selection_is_margin_gated_argmin(g) {
        let cost = ResolutionCost {
            full_energy_j: g.draw(0.01f64..100.0),
            half_energy_j: g.draw(0.01f64..100.0),
            half_supported: g.any::<bool>(),
        };
        let d = PolicyKind::SpatialScale.policy().select_resolution(&cost);
        let wins = cost.half_energy_j < cost.full_energy_j * (1.0 - SPATIAL_MARGIN);
        assert_eq!(d.use_half, cost.half_supported && wins);
        assert_eq!((d.full_energy_j, d.half_energy_j), (cost.full_energy_j, cost.half_energy_j));
        for policy in [PolicyKind::PeakClip, PolicyKind::Hebs] {
            assert!(!policy.policy().select_resolution(&cost).use_half,
                "{} must never rescale", policy.name());
        }
    }

    /// Planning is a pure function: repeated runs and every worker
    /// count produce byte-identical plans, for every backend.
    fn planning_is_deterministic_per_seed(g, cases = 32) {
        let clip = random_clip(g);
        let quality = random_quality(g);
        let device = random_device(g);
        let policy = PolicyKind::ALL[g.draw(0..PolicyKind::ALL.len())];
        let profile = LuminanceProfile::of_clip(&clip).expect("non-empty clip");
        let spans = SceneDetector::default().detect(&profile);
        let plan = |cfg: &ParallelConfig| to_string(&BacklightPlan::compute_policy(
            &profile, &spans, &device, quality, policy, cfg));
        let serial = plan(&ParallelConfig::serial());
        assert_eq!(serial, plan(&ParallelConfig::serial()), "double run diverged");
        let workers = g.draw(1..8usize);
        assert_eq!(serial, plan(&ParallelConfig::with_workers(workers)),
            "{} diverged at {workers} workers", policy.name());
    }
}
