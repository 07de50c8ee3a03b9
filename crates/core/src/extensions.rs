//! Extensions beyond the paper's core experiments.
//!
//! Two items the paper explicitly points at but does not evaluate:
//!
//! * **End-credits guard** — §4.3: the fixed-percentage clipping heuristic
//!   "works well for most videos, except end credits where it may distort
//!   the text if too many pixels are clipped and the background is uniform
//!   (this is subject of future study)". [`CreditsGuard`] detects
//!   credits-like scenes from their histogram signature and caps the
//!   clipping budget there.
//! * **DVFS hints** — §3: "Optimizations like frequency/voltage scaling can
//!   be applied before decoding is finished, because the annotated
//!   information is available early from the data stream."
//!   [`dvfs_hints`] derives per-scene CPU frequency recommendations from
//!   the profiled content complexity.

use crate::plan::BacklightPlan;
use crate::profile::LuminanceProfile;
use crate::quality::QualityLevel;
use crate::scenes::SceneSpan;
use annolight_display::DeviceProfile;
use annolight_imgproc::Histogram;

/// Detects credits-like scenes and caps their clipping budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreditsGuard {
    /// Fraction of pixels that must sit in the darkest band for a scene to
    /// look like a credits background.
    pub background_fraction: f64,
    /// Upper luminance bound of the "dark background" band.
    pub background_level: u8,
    /// Maximum clipping fraction allowed in a guarded scene.
    pub max_clip_fraction: f64,
}

annolight_support::impl_json!(struct CreditsGuard { background_fraction, background_level, max_clip_fraction });

impl Default for CreditsGuard {
    fn default() -> Self {
        Self { background_fraction: 0.80, background_level: 32, max_clip_fraction: 0.01 }
    }
}

impl CreditsGuard {
    /// Whether a histogram looks like credits: a dominant near-black
    /// background plus a small population of bright text pixels.
    pub fn looks_like_credits(&self, hist: &Histogram) -> bool {
        if hist.is_empty() {
            return false;
        }
        let total = hist.total() as f64;
        let dark: u64 = (0..=self.background_level).map(|v| hist.bin(v)).sum();
        let dark_frac = dark as f64 / total;
        let bright_frac = hist.fraction_above(160);
        dark_frac >= self.background_fraction && bright_frac > 0.0 && bright_frac < 0.25
    }

    /// Computes a plan where credits-like scenes get a capped clipping
    /// budget while ordinary scenes use the requested quality.
    pub(crate) fn guarded_plan(
        &self,
        profile: &LuminanceProfile,
        spans: &[SceneSpan],
        device: &DeviceProfile,
        quality: QualityLevel,
    ) -> BacklightPlan {
        // Plan each span with the quality appropriate for its content,
        // then stitch the per-scene plans back together.
        let mut scenes = Vec::with_capacity(spans.len());
        for &span in spans {
            let hist = profile.merged_histogram(span.start, span.end);
            let q = if self.looks_like_credits(&hist) {
                QualityLevel::Custom(quality.clip_fraction().min(self.max_clip_fraction))
            } else {
                quality
            };
            let sub = BacklightPlan::compute(profile, &[span], device, q);
            scenes.extend(sub.scenes().iter().cloned());
        }
        // Re-assemble under the *requested* quality label so the track
        // advertises what the user asked for.
        let rebuilt = BacklightPlan::compute(profile, spans, device, quality);
        let mut plan = rebuilt;
        plan.replace_scenes(scenes);
        plan
    }
}

/// XScale-style CPU frequency steps (the iPAQ 5555's PXA255 ancestry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum CpuFrequency {
    Mhz150,
    Mhz200,
    Mhz300,
    Mhz400,
}

annolight_support::impl_json!(enum CpuFrequency { Mhz150, Mhz200, Mhz300, Mhz400 });

impl CpuFrequency {
    /// Frequency in MHz.
    pub fn mhz(self) -> u32 {
        match self {
            CpuFrequency::Mhz150 => 150,
            CpuFrequency::Mhz200 => 200,
            CpuFrequency::Mhz300 => 300,
            CpuFrequency::Mhz400 => 400,
        }
    }

    /// Relative CPU power at this frequency (affine-in-f, quadratic-in-V
    /// scaling collapsed onto the XScale's paired V/f steps).
    pub fn relative_power(self) -> f64 {
        match self {
            CpuFrequency::Mhz150 => 0.28,
            CpuFrequency::Mhz200 => 0.40,
            CpuFrequency::Mhz300 => 0.65,
            CpuFrequency::Mhz400 => 1.00,
        }
    }
}

/// A per-scene DVFS hint derived from profiled content complexity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsHint {
    /// The scene this hint covers.
    pub span: SceneSpan,
    /// Estimated decode complexity in `[0, 1]` (0 = static dark scene,
    /// 1 = full-range busy scene).
    pub complexity: f64,
    /// Recommended CPU frequency for decoding the scene in real time.
    pub frequency: CpuFrequency,
}

annolight_support::impl_json!(struct DvfsHint { span, complexity, frequency });

impl DvfsHint {
    /// Estimated CPU-busy fraction decoding this scene at 400 MHz: even a
    /// static scene pays fixed per-frame costs; a full-range busy scene
    /// nearly saturates the core.
    pub fn busy_at_400mhz(&self) -> f64 {
        0.30 + 0.55 * self.complexity
    }

    /// CPU-busy fraction when decoding at `freq` (work scales inversely
    /// with the clock), clamped to 1.
    pub fn busy_at(&self, freq: CpuFrequency) -> f64 {
        (self.busy_at_400mhz() * 400.0 / f64::from(freq.mhz())).min(1.0)
    }
}

/// Headroom kept when picking a frequency: decode must fit within this
/// fraction of the scene's frame time (deadline safety margin).
const DVFS_UTILISATION_CAP: f64 = 0.9;

/// Derives DVFS hints for each scene: scenes with low luminance activity
/// decode cheaply (sparser DCT coefficients, smaller motion residuals) and
/// can run at a reduced frequency. The chosen step is the lowest one that
/// still decodes the scene in real time with a 10 % deadline margin.
///
/// # Panics
///
/// Panics if any span is empty or out of range for the profile.
pub fn dvfs_hints(profile: &LuminanceProfile, spans: &[SceneSpan]) -> Vec<DvfsHint> {
    spans
        .iter()
        .map(|&span| {
            let hist = profile.merged_histogram(span.start, span.end);
            // Complexity proxy: occupied dynamic range × mean activity.
            let range = f64::from(hist.dynamic_range()) / 255.0;
            let mean = hist.mean() / 255.0;
            let complexity = (0.6 * range + 0.4 * mean).clamp(0.0, 1.0);
            let busy400 = 0.30 + 0.55 * complexity;
            let required_mhz = busy400 * 400.0 / DVFS_UTILISATION_CAP;
            let frequency = [
                CpuFrequency::Mhz150,
                CpuFrequency::Mhz200,
                CpuFrequency::Mhz300,
                CpuFrequency::Mhz400,
            ]
            .into_iter()
            .find(|f| f64::from(f.mhz()) >= required_mhz)
            .unwrap_or(CpuFrequency::Mhz400);
            DvfsHint { span, complexity, frequency }
        })
        .collect()
}

/// Magic prefix of a serialised DVFS-hint payload in the stream's user
/// data (the annotation track uses `ALT1`).
pub const DVFS_MAGIC: &[u8; 4] = b"ADV1";

/// Serialises hints for embedding as a user-data packet.
pub fn hints_to_bytes(hints: &[DvfsHint]) -> Vec<u8> {
    let mut out = DVFS_MAGIC.to_vec();
    out.extend(annolight_support::json::to_vec(hints));
    out
}

/// Parses a payload produced by [`hints_to_bytes`].
///
/// # Errors
///
/// Returns [`crate::CoreError::MalformedTrack`] for wrong magic,
/// malformed JSON, or a hint whose complexity is not in `[0, 1]` (the
/// client's power model would panic on the busy fraction it implies).
pub fn hints_from_bytes(bytes: &[u8]) -> Result<Vec<DvfsHint>, crate::CoreError> {
    if bytes.len() < 4 || &bytes[..4] != DVFS_MAGIC {
        return Err(crate::CoreError::MalformedTrack { reason: "not a DVFS payload".into() });
    }
    let hints: Vec<DvfsHint> = annolight_support::json::from_slice(&bytes[4..])
        .map_err(|e| crate::CoreError::MalformedTrack { reason: e.to_string() })?;
    match hints.iter().find(|h| !(0.0..=1.0).contains(&h.complexity)) {
        Some(h) => Err(crate::CoreError::MalformedTrack {
            reason: format!("DVFS hint complexity {} outside [0, 1]", h.complexity),
        }),
        None => Ok(hints),
    }
}

/// Whether a user-data payload is a DVFS-hint packet.
pub fn is_dvfs_payload(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && &bytes[..4] == DVFS_MAGIC
}

/// Finds the hint covering `frame`, if any.
pub fn hint_for_frame(hints: &[DvfsHint], frame: u32) -> Option<&DvfsHint> {
    hints.iter().find(|h| h.span.start <= frame && frame < h.span.end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_imgproc::{Frame, Rgb8};

    fn credits_hist() -> Histogram {
        let mut h = Histogram::new();
        h.add_count(5, 9000); // black background
        h.add_count(235, 400); // text
        h
    }

    fn bright_hist() -> Histogram {
        let mut h = Histogram::new();
        h.add_count(200, 8000);
        h.add_count(250, 2000);
        h
    }

    #[test]
    fn credits_signature_detected() {
        let g = CreditsGuard::default();
        assert!(g.looks_like_credits(&credits_hist()));
        assert!(!g.looks_like_credits(&bright_hist()));
        assert!(!g.looks_like_credits(&Histogram::new()));
    }

    #[test]
    fn plain_dark_scene_is_not_credits() {
        // All-dark with no bright text at all.
        let mut h = Histogram::new();
        h.add_count(10, 10_000);
        assert!(!CreditsGuard::default().looks_like_credits(&h));
    }

    #[test]
    fn guard_caps_clipping_in_credits_scene() {
        // 20 frames of credits-like content.
        let frames: Vec<Frame> = (0..20)
            .map(|_| {
                let mut f = Frame::filled(20, 20, Rgb8::gray(5));
                for x in 0..20 {
                    f.set_pixel(x, 3, Rgb8::gray(235));
                }
                f
            })
            .collect();
        let profile = LuminanceProfile::of_frames(10.0, frames).unwrap();
        let spans = vec![SceneSpan { start: 0, end: 20 }];
        let device = DeviceProfile::ipaq_5555();
        let guard = CreditsGuard::default();

        let unguarded = BacklightPlan::compute(&profile, &spans, &device, QualityLevel::Q20);
        let guarded = guard.guarded_plan(&profile, &spans, &device, QualityLevel::Q20);
        // Unguarded Q20 clips the text rows (5% of pixels) and dims hard;
        // the guard keeps the text unclipped.
        assert!(unguarded.scenes()[0].effective_max_luma < 100);
        assert_eq!(guarded.scenes()[0].effective_max_luma, 235);
        assert!(guarded.scenes()[0].clipped_fraction <= guard.max_clip_fraction + 1e-12);
    }

    #[test]
    fn dvfs_dark_scene_runs_slow() {
        let dark: Vec<Frame> = (0..10).map(|_| Frame::filled(8, 8, Rgb8::gray(20))).collect();
        let profile = LuminanceProfile::of_frames(10.0, dark).unwrap();
        let hints = dvfs_hints(&profile, &[SceneSpan { start: 0, end: 10 }]);
        assert_eq!(hints.len(), 1);
        assert_eq!(hints[0].frequency, CpuFrequency::Mhz150);
    }

    #[test]
    fn dvfs_busy_scene_runs_fast() {
        let busy: Vec<Frame> = (0..10)
            .map(|i| {
                Frame::from_fn(16, 16, |x, y| {
                    let v = ((x * 16 + y * 7 + i * 13) % 256) as u8;
                    [v, v, v]
                })
            })
            .collect();
        let profile = LuminanceProfile::of_frames(10.0, busy).unwrap();
        let hints = dvfs_hints(&profile, &[SceneSpan { start: 0, end: 10 }]);
        assert!(hints[0].frequency >= CpuFrequency::Mhz300);
        assert!(hints[0].complexity > 0.5);
    }

    #[test]
    fn hints_serialise_roundtrip() {
        let hints = vec![
            DvfsHint { span: SceneSpan { start: 0, end: 10 }, complexity: 0.2, frequency: CpuFrequency::Mhz200 },
            DvfsHint { span: SceneSpan { start: 10, end: 25 }, complexity: 0.8, frequency: CpuFrequency::Mhz400 },
        ];
        let bytes = hints_to_bytes(&hints);
        assert!(is_dvfs_payload(&bytes));
        let back = hints_from_bytes(&bytes).unwrap();
        assert_eq!(hints, back);
    }

    #[test]
    fn track_bytes_are_not_dvfs_payload() {
        assert!(!is_dvfs_payload(b"ALT1whatever"));
        assert!(!is_dvfs_payload(b""));
        assert!(hints_from_bytes(b"ALT1xx").is_err());
    }

    #[test]
    fn hint_lookup_by_frame() {
        let hints = vec![
            DvfsHint { span: SceneSpan { start: 0, end: 10 }, complexity: 0.1, frequency: CpuFrequency::Mhz150 },
            DvfsHint { span: SceneSpan { start: 10, end: 20 }, complexity: 0.9, frequency: CpuFrequency::Mhz400 },
        ];
        assert_eq!(hint_for_frame(&hints, 0).unwrap().frequency, CpuFrequency::Mhz150);
        assert_eq!(hint_for_frame(&hints, 9).unwrap().frequency, CpuFrequency::Mhz150);
        assert_eq!(hint_for_frame(&hints, 10).unwrap().frequency, CpuFrequency::Mhz400);
        assert!(hint_for_frame(&hints, 20).is_none());
    }

    #[test]
    fn chosen_frequency_meets_realtime_deadline() {
        // For any complexity the selected step decodes within the 90%
        // utilisation cap (unless even 400 MHz cannot, which our busy
        // model never produces).
        let frames: Vec<annolight_imgproc::Frame> = (0..5)
            .map(|i| {
                annolight_imgproc::Frame::from_fn(16, 16, |x, y| {
                    let v = ((x * 16 + y * (i + 1)) % 256) as u8;
                    [v, v, v]
                })
            })
            .collect();
        let profile = LuminanceProfile::of_frames(10.0, frames).unwrap();
        let hints = dvfs_hints(&profile, &[SceneSpan { start: 0, end: 5 }]);
        for h in hints {
            assert!(h.busy_at(h.frequency) <= 0.9 + 1e-9, "{h:?}");
        }
    }

    #[test]
    fn frequency_power_monotone() {
        let freqs = [
            CpuFrequency::Mhz150,
            CpuFrequency::Mhz200,
            CpuFrequency::Mhz300,
            CpuFrequency::Mhz400,
        ];
        for w in freqs.windows(2) {
            assert!(w[0].mhz() < w[1].mhz());
            assert!(w[0].relative_power() < w[1].relative_power());
        }
    }
}
