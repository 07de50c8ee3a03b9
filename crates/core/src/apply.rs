//! Applying annotations: server-side compensation and client-side playback.
//!
//! §4.3/§5: the compensation of the frames is performed at the server or
//! proxy; "the only extra operation that the device has to perform during
//! playback is to adjust the backlight level periodically, according to the
//! annotations in the video stream."

use crate::error::CoreError;
use crate::policy::{HebsRemapSet, PolicyKind};
use crate::profile::LuminanceProfile;
use crate::track::AnnotationTrack;
use annolight_display::{BacklightController, BacklightLevel, ControllerConfig};
use annolight_imgproc::{contrast_enhance, ClipStats, Frame};

/// Compensates one frame for playback under the annotated backlight level
/// (server/proxy side): contrast enhancement by the entry's `k`.
///
/// Returns the clipping statistics — the realised quality degradation for
/// this frame.
///
/// # Errors
///
/// Returns [`CoreError::FrameOutOfRange`] if `frame_idx` is outside the
/// track.
pub fn compensate_frame(
    frame: &mut Frame,
    track: &AnnotationTrack,
    frame_idx: u32,
) -> Result<ClipStats, CoreError> {
    let entry = track.entry_at(frame_idx)?;
    Ok(contrast_enhance(frame, entry.compensation))
}

/// How a served track's frames are compensated, at the server or the
/// proxy alike.
///
/// Under [`PolicyKind::Hebs`] each scene gets its histogram-equalisation
/// remap, built over the track's own entry spans so every frame's pixels
/// match the backlight level annotated for it. Under every other policy
/// each frame gets its entry's contrast gain, as [`compensate_frame`].
#[derive(Debug, Clone)]
pub struct Compensation<'t> {
    track: &'t AnnotationTrack,
    remaps: Option<HebsRemapSet>,
}

impl<'t> Compensation<'t> {
    /// Decides how `track`'s frames are compensated under `policy`.
    /// `profile` is the luminance profile the track was planned from;
    /// HEBS builds its remap tables from it.
    pub fn new(track: &'t AnnotationTrack, policy: PolicyKind, profile: &LuminanceProfile) -> Self {
        let remaps = (policy == PolicyKind::Hebs)
            .then(|| HebsRemapSet::for_spans(profile, track.spans(), track.quality()));
        Self { track, remaps }
    }

    /// Compensates frame `frame_idx` in place, returning its clipping
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameOutOfRange`] if `frame_idx` is outside
    /// the track.
    pub fn apply(&self, frame: &mut Frame, frame_idx: u32) -> Result<ClipStats, CoreError> {
        let entry = self.track.entry_at(frame_idx)?;
        Ok(match &self.remaps {
            Some(set) => set.apply_frame(frame, frame_idx),
            None => contrast_enhance(frame, entry.compensation),
        })
    }
}

/// Simulates the client's backlight driver over a whole clip: for every
/// frame, the annotated level is requested from a [`BacklightController`]
/// (which applies the anti-flicker guards), and the level actually in
/// effect is recorded.
///
/// Returns one backlight level per frame plus the controller statistics.
///
/// # Errors
///
/// Returns [`CoreError::MalformedTrack`] if the track covers no frames.
pub fn apply_annotation(
    track: &AnnotationTrack,
    config: ControllerConfig,
) -> Result<(Vec<BacklightLevel>, annolight_display::SwitchStats), CoreError> {
    let frames = track.frame_count();
    if frames == 0 {
        return Err(CoreError::MalformedTrack { reason: "track covers zero frames".into() });
    }
    let fps = track.fps().max(f64::EPSILON);
    let mut controller = BacklightController::new(config);
    let mut levels = Vec::with_capacity(frames as usize);
    for f in 0..frames {
        let entry = track.entry_at(f).expect("frame index in range by construction");
        let now = f64::from(f) / fps;
        levels.push(controller.request(now, entry.backlight));
    }
    Ok((levels, controller.stats()))
}

/// The client-side alternative of §4.3: the server streams *generic*
/// annotations (effective maximum luminance per scene, same for every
/// client type) and the device computes its own backlight levels — "a
/// simple multiplication, followed by a table look-up".
///
/// Returns the device-specific backlight level for every entry of the
/// track, computed from the entry's `effective_max_luma` through the
/// device's inverse transfer LUT. For a track that was *already* computed
/// for this device, the result matches the embedded levels to within one
/// LUT quantisation step (and never under-drives the display).
pub fn client_side_levels(
    track: &AnnotationTrack,
    device: &annolight_display::DeviceProfile,
) -> Vec<BacklightLevel> {
    let gamma = device.panel().white_gamma();
    let lut = device.transfer().inverse_lut();
    track
        .entries()
        .iter()
        .map(|e| {
            if e.effective_max_luma == 0 {
                return BacklightLevel::MIN;
            }
            // The "simple multiplication": effective max → target
            // luminance through the panel response...
            let target = (f64::from(e.effective_max_luma) / 255.0).powf(gamma);
            // ...and the table look-up through the 256-entry inverse LUT.
            let idx = (target * 255.0).ceil().clamp(0.0, 255.0) as usize;
            lut[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityLevel;
    use crate::track::{AnnotationEntry, AnnotationMode};
    use annolight_imgproc::Rgb8;

    fn track(entries: Vec<AnnotationEntry>, frames: u32) -> AnnotationTrack {
        AnnotationTrack::new(
            "dev",
            QualityLevel::Q10,
            AnnotationMode::PerScene,
            10.0,
            frames,
            entries,
        )
        .unwrap()
    }

    fn entry(start: u32, backlight: u8, k: f32) -> AnnotationEntry {
        AnnotationEntry {
            start_frame: start,
            backlight: BacklightLevel(backlight),
            compensation: k,
            effective_max_luma: 128,
        }
    }

    #[test]
    fn compensate_scales_frame() {
        let t = track(vec![entry(0, 100, 2.0)], 10);
        let mut f = Frame::filled(4, 4, Rgb8::gray(50));
        let stats = compensate_frame(&mut f, &t, 3).unwrap();
        assert_eq!(f.pixel(0, 0), Rgb8::gray(100));
        assert_eq!(stats.clipped_pixels, 0);
    }

    #[test]
    fn compensate_out_of_range() {
        let t = track(vec![entry(0, 100, 2.0)], 10);
        let mut f = Frame::new(2, 2);
        assert!(compensate_frame(&mut f, &t, 10).is_err());
    }

    #[test]
    fn gain_compensation_matches_compensate_frame() {
        let t = track(vec![entry(0, 100, 2.0), entry(4, 180, 1.3)], 10);
        let profile = LuminanceProfile::of_frames(10.0, vec![Frame::new(4, 4); 10]).unwrap();
        for policy in [PolicyKind::PeakClip, PolicyKind::SpatialScale] {
            let compensation = Compensation::new(&t, policy, &profile);
            for i in 0..10 {
                let mut want = Frame::filled(4, 4, Rgb8::gray(90));
                let mut got = want.clone();
                let want_stats = compensate_frame(&mut want, &t, i).unwrap();
                assert_eq!(compensation.apply(&mut got, i).unwrap(), want_stats);
                assert_eq!(got, want, "{policy:?} frame {i}");
            }
            assert!(compensation.apply(&mut Frame::new(4, 4), 10).is_err());
        }
    }

    #[test]
    fn hebs_compensation_remaps_each_entry_span_in_both_modes() {
        use crate::annotate::Annotator;
        use annolight_display::DeviceProfile;
        use annolight_imgproc::HebsLut;
        let frames: Vec<Frame> = (0..24u8)
            .map(|i| {
                let mut f = Frame::filled(8, 8, Rgb8::gray(if i < 12 { 40 } else { 150 }));
                f.set_pixel(0, 0, Rgb8::gray(250 - i));
                f
            })
            .collect();
        let profile = LuminanceProfile::of_frames(10.0, frames.clone()).unwrap();
        for mode in [AnnotationMode::PerScene, AnnotationMode::PerFrame] {
            let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q10)
                .with_mode(mode)
                .with_policy(PolicyKind::Hebs)
                .annotate_profile(&profile)
                .unwrap();
            let t = annotated.track();
            let compensation = Compensation::new(t, PolicyKind::Hebs, &profile);
            for span in t.spans() {
                let hist = profile.merged_histogram(span.start, span.end);
                let lut = HebsLut::from_histogram(&hist, hist.clip_level(0.10));
                for i in span.start..span.end {
                    let mut want = frames[i as usize].clone();
                    let mut got = want.clone();
                    let want_stats = lut.apply(&mut want);
                    assert_eq!(compensation.apply(&mut got, i).unwrap(), want_stats);
                    assert_eq!(got, want, "{mode:?} frame {i}");
                }
            }
            assert_eq!(t.spans().last().map(|s| s.end), Some(24), "{mode:?} covers every frame");
            assert!(compensation.apply(&mut Frame::new(8, 8), 24).is_err());
        }
    }

    #[test]
    fn apply_produces_level_per_frame() {
        let t = track(vec![entry(0, 100, 1.5), entry(20, 200, 1.1)], 40);
        let (levels, stats) = apply_annotation(&t, ControllerConfig::default()).unwrap();
        assert_eq!(levels.len(), 40);
        assert_eq!(levels[0], BacklightLevel(100));
        assert_eq!(levels[39], BacklightLevel(200));
        assert!(stats.switches >= 2);
    }

    #[test]
    fn controller_guard_applies_during_playback() {
        // Scene changes every 2 frames at 10 fps (0.2 s) but the guard is
        // 0.5 s — many requests are suppressed.
        let entries: Vec<AnnotationEntry> = (0..20)
            .map(|i| entry(i * 2, if i % 2 == 0 { 80 } else { 200 }, 1.2))
            .collect();
        let t = track(entries, 40);
        let (levels, stats) = apply_annotation(&t, ControllerConfig::default()).unwrap();
        assert_eq!(levels.len(), 40);
        assert!(stats.suppressed > 0, "guard should suppress rapid toggling");
    }

    #[test]
    fn client_side_lookup_matches_server_levels() {
        use crate::annotate::Annotator;
        use annolight_display::DeviceProfile;
        use annolight_video::{Clip, ClipSpec, ContentKind, SceneSpec};
        let clip = Clip::new(ClipSpec {
            name: "t".into(),
            width: 32,
            height: 32,
            fps: 10.0,
            seed: 9,
            scenes: vec![
                SceneSpec::new(
                    ContentKind::Dark { base: 45, spread: 12, highlight_fraction: 0.01, highlight: 200 },
                    2.0,
                ),
                SceneSpec::new(ContentKind::Bright { base: 205, spread: 25 }, 2.0),
            ],
        })
        .unwrap();
        for device in DeviceProfile::paper_devices() {
            let annotated = Annotator::new(device.clone(), QualityLevel::Q10)
                .annotate_clip(&clip)
                .unwrap();
            let server_levels: Vec<BacklightLevel> =
                annotated.track().entries().iter().map(|e| e.backlight).collect();
            let client_levels = client_side_levels(annotated.track(), &device);
            assert_eq!(server_levels.len(), client_levels.len());
            for (s, c) in server_levels.iter().zip(&client_levels) {
                // Within one LUT quantisation step, and never dimmer than
                // the server's (never under-driven).
                assert!(c.0 >= s.0, "{}: client {c} below server {s}", device.name());
                assert!(
                    u16::from(c.0) <= u16::from(s.0) + 8,
                    "{}: client {c} far above server {s}",
                    device.name()
                );
            }
        }
    }

    #[test]
    fn client_side_black_scene_is_min() {
        let t = track(vec![entry(0, 100, 1.0)], 10);
        // entry() uses effective 128; craft one with 0 via the raw struct.
        let t0 = AnnotationTrack::new(
            "dev",
            QualityLevel::Q0,
            AnnotationMode::PerScene,
            10.0,
            5,
            vec![AnnotationEntry {
                start_frame: 0,
                backlight: BacklightLevel(10),
                compensation: 1.0,
                effective_max_luma: 0,
            }],
        )
        .unwrap();
        let dev = annolight_display::DeviceProfile::ipaq_5555();
        assert_eq!(client_side_levels(&t0, &dev), vec![BacklightLevel::MIN]);
        assert_eq!(client_side_levels(&t, &dev).len(), 1);
    }

    #[test]
    fn zero_guard_follows_track_exactly() {
        let t = track(vec![entry(0, 100, 1.5), entry(5, 200, 1.1), entry(9, 60, 1.9)], 15);
        let cfg = ControllerConfig { min_switch_interval_s: 0.0, min_step: 1 };
        let (levels, _) = apply_annotation(&t, cfg).unwrap();
        assert_eq!(levels[4], BacklightLevel(100));
        assert_eq!(levels[5], BacklightLevel(200));
        assert_eq!(levels[9], BacklightLevel(60));
    }
}
