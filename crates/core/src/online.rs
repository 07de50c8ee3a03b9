//! On-the-fly annotation for live sources (videoconferencing).
//!
//! Fig. 1 allows the proxy to be "a high-end machine with the ability to
//! process the video stream in real-time, on-the-fly (example in
//! videoconferencing)". A live source has no finished clip to profile, so
//! the [`OnlineAnnotator`] works incrementally: frames are pushed as they
//! arrive, scene boundaries are detected by the offline detector's own
//! rule (one push-based cutter in [`crate::scenes`]), and an
//! [`AnnotationEntry`] is emitted as soon as a scene closes — or when the
//! bounded lookahead fills, which caps the added latency.
//!
//! Unlike offline profiling, the emitted entry describes a scene whose
//! *future* frames are unknown; the entry is computed from the frames seen
//! so far, which is exactly the information a real-time proxy has.

use crate::plan::plan_levels;
use crate::quality::QualityLevel;
use crate::scenes::{SceneCutter, SceneDetectorConfig};
use crate::track::AnnotationEntry;
use annolight_display::DeviceProfile;
use annolight_imgproc::{Frame, Histogram};

/// Incremental annotator for live streams.
///
/// # Example
///
/// ```
/// use annolight_core::online::OnlineAnnotator;
/// use annolight_core::QualityLevel;
/// use annolight_display::DeviceProfile;
/// use annolight_imgproc::{Frame, Rgb8};
///
/// let mut live = OnlineAnnotator::new(
///     DeviceProfile::ipaq_5555(),
///     QualityLevel::Q10,
///     12.0,  // fps
///     24,    // lookahead frames (2 s of latency budget)
/// );
/// let mut entries = Vec::new();
/// for i in 0..30 {
///     let v = if i < 15 { 60 } else { 220 };
///     entries.extend(live.push_frame(&Frame::filled(16, 16, Rgb8::gray(v))));
/// }
/// entries.extend(live.finish());
/// assert!(entries.len() >= 2, "the cut must produce a second entry");
/// ```
#[derive(Debug, Clone)]
pub struct OnlineAnnotator {
    device: DeviceProfile,
    quality: QualityLevel,
    fps: f64,
    lookahead: u32,
    /// Scene boundaries, with the lookahead forcing cuts.
    cutter: SceneCutter,
    /// Merged histogram of the running scene.
    scene_hist: Histogram,
}

impl OnlineAnnotator {
    /// Creates a live annotator.
    ///
    /// `lookahead` bounds how many frames a scene may grow before an entry
    /// is forced out (the latency budget); it must be at least one frame.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not positive and finite or `lookahead` is zero.
    pub fn new(device: DeviceProfile, quality: QualityLevel, fps: f64, lookahead: u32) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "fps {fps} must be positive");
        assert!(lookahead > 0, "lookahead must be at least one frame");
        Self {
            device,
            quality,
            fps,
            lookahead,
            cutter: SceneCutter::new(SceneDetectorConfig::default(), fps, lookahead),
            scene_hist: Histogram::new(),
        }
    }

    /// Overrides the scene-detection thresholds. Call it before pushing
    /// frames: it starts a fresh cutter.
    pub fn with_detector(mut self, detector: SceneDetectorConfig) -> Self {
        self.cutter = SceneCutter::new(detector, self.fps, self.lookahead);
        self
    }

    /// Number of frames pushed so far.
    pub fn frames_seen(&self) -> u32 {
        self.cutter.frames_seen()
    }

    /// Worst-case latency this annotator adds, in seconds.
    pub fn max_latency_s(&self) -> f64 {
        f64::from(self.lookahead) / self.fps
    }

    /// Pushes the next live frame; returns an [`AnnotationEntry`] whenever
    /// a scene closes (at a detected cut or when the lookahead fills).
    pub fn push_frame(&mut self, frame: &Frame) -> Option<AnnotationEntry> {
        let hist = frame.luma_histogram();
        let entry = self.cutter.push(hist.max_nonzero().unwrap_or(0)).map(|s| self.entry(s.start));
        if entry.is_some() {
            self.scene_hist = hist; // the frame opens the next scene
        } else {
            self.scene_hist.merge(&hist);
        }
        entry
    }

    /// Flushes the running scene at end of stream.
    pub fn finish(&mut self) -> Option<AnnotationEntry> {
        let entry = self.cutter.finish().map(|s| self.entry(s.start));
        self.scene_hist = Histogram::new();
        entry
    }

    /// The entry of the scene starting at `start_frame`, planned from the
    /// running scene's histogram.
    fn entry(&self, start_frame: u32) -> AnnotationEntry {
        let effective = self.scene_hist.clip_level(self.quality.clip_fraction());
        let (k, backlight) = plan_levels(&self.device, effective);
        AnnotationEntry { start_frame, backlight, compensation: k, effective_max_luma: effective }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_imgproc::Rgb8;

    fn device() -> DeviceProfile {
        DeviceProfile::ipaq_5555()
    }

    fn gray(v: u8) -> Frame {
        Frame::filled(16, 16, Rgb8::gray(v))
    }

    #[test]
    fn constant_stream_emits_on_lookahead() {
        let mut live = OnlineAnnotator::new(device(), QualityLevel::Q10, 10.0, 20);
        let mut entries = Vec::new();
        for _ in 0..45 {
            entries.extend(live.push_frame(&gray(90)));
        }
        entries.extend(live.finish());
        // 45 frames with a 20-frame lookahead → scenes of 20/20/5.
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].start_frame, 0);
        assert_eq!(entries[1].start_frame, 20);
        assert_eq!(entries[2].start_frame, 40);
        // All scenes carry the same level (same content).
        assert_eq!(entries[0].backlight, entries[1].backlight);
    }

    #[test]
    fn cut_closes_scene_immediately_after_guard() {
        let mut live = OnlineAnnotator::new(device(), QualityLevel::Q10, 10.0, 100);
        let mut entries = Vec::new();
        for _ in 0..15 {
            entries.extend(live.push_frame(&gray(60)));
        }
        for _ in 0..15 {
            entries.extend(live.push_frame(&gray(220)));
        }
        entries.extend(live.finish());
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].start_frame, 15);
        assert!(entries[0].backlight < entries[1].backlight);
    }

    #[test]
    fn latency_is_bounded() {
        let live = OnlineAnnotator::new(device(), QualityLevel::Q10, 12.0, 24);
        assert!((live.max_latency_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entries_match_offline_for_clean_scenes() {
        // For well-separated scenes the online entries agree with offline
        // per-scene planning (same heuristic, same histograms).
        use crate::annotate::Annotator;
        use annolight_video::{Clip, ClipSpec, ContentKind, SceneSpec};
        let clip = Clip::new(ClipSpec {
            name: "t".into(),
            width: 32,
            height: 32,
            fps: 10.0,
            seed: 6,
            scenes: vec![
                SceneSpec::new(
                    ContentKind::Dark { base: 45, spread: 10, highlight_fraction: 0.0, highlight: 0 },
                    2.0,
                ),
                SceneSpec::new(ContentKind::Bright { base: 210, spread: 20 }, 2.0),
            ],
        })
        .unwrap();
        let offline = Annotator::new(device(), QualityLevel::Q10).annotate_clip(&clip).unwrap();

        let mut live = OnlineAnnotator::new(device(), QualityLevel::Q10, clip.fps(), 1000);
        let mut entries = Vec::new();
        for f in clip.frames() {
            entries.extend(live.push_frame(&f));
        }
        entries.extend(live.finish());

        assert_eq!(entries.len(), offline.track().entries().len());
        for (on, off) in entries.iter().zip(offline.track().entries()) {
            assert_eq!(on.start_frame, off.start_frame);
            assert_eq!(on.effective_max_luma, off.effective_max_luma);
            assert_eq!(on.backlight, off.backlight);
        }
    }

    #[test]
    fn finish_on_empty_stream_is_none() {
        let mut live = OnlineAnnotator::new(device(), QualityLevel::Q10, 10.0, 10);
        assert!(live.finish().is_none());
        assert_eq!(live.frames_seen(), 0);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_rejected() {
        OnlineAnnotator::new(device(), QualityLevel::Q10, 10.0, 0);
    }
}
