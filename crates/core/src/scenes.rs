//! Scene detection from the per-frame maximum-luminance series.
//!
//! §4.3 / Fig. 6: "we grouped frames into scenes based on their maximum
//! luminance levels: a change of 10 % or more in frame maximum luminance
//! level is considered a scene change, but only if it does not occur more
//! frequently than a threshold interval. … Both these thresholds were
//! experimentally set for minimizing visible spikes."

use crate::profile::LuminanceProfile;

/// Configuration of the scene-detection heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneDetectorConfig {
    /// Relative max-luminance change that signals a scene boundary
    /// (paper: 10 %).
    pub change_threshold: f64,
    /// Minimum scene length in seconds (the anti-flicker guard interval).
    pub min_interval_s: f64,
}

annolight_support::impl_json!(struct SceneDetectorConfig { change_threshold, min_interval_s });

impl Default for SceneDetectorConfig {
    fn default() -> Self {
        Self { change_threshold: 0.10, min_interval_s: 0.5 }
    }
}

/// A detected scene: the frame range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneSpan {
    /// First frame of the scene.
    pub start: u32,
    /// One past the last frame of the scene.
    pub end: u32,
}

annolight_support::impl_json!(struct SceneSpan { start, end });

impl SceneSpan {
    /// Number of frames in the scene.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the span is empty (never true for detector output).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The scene detector.
///
/// # Example
///
/// ```
/// use annolight_core::{LuminanceProfile, SceneDetector};
/// use annolight_video::ClipLibrary;
///
/// let clip = ClipLibrary::paper_clip("catwoman").unwrap().preview(10.0);
/// let profile = LuminanceProfile::of_clip(&clip).unwrap();
/// let scenes = SceneDetector::default().detect(&profile);
/// // Scenes tile the clip exactly.
/// assert_eq!(scenes.first().unwrap().start, 0);
/// assert_eq!(scenes.last().unwrap().end as usize, profile.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SceneDetector {
    config: SceneDetectorConfig,
}

impl SceneDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: SceneDetectorConfig) -> Self {
        Self { config }
    }

    /// The detector configuration.
    pub fn config(&self) -> SceneDetectorConfig {
        self.config
    }

    /// Splits the profile into scenes by feeding its max-luminance series
    /// to the scene rule, frame by frame, with no lookahead (the live
    /// annotator runs the same rule with one).
    ///
    /// The returned spans are non-empty, contiguous and cover
    /// `0..profile.len()`.
    pub fn detect(&self, profile: &LuminanceProfile) -> Vec<SceneSpan> {
        let mut cutter = SceneCutter::new(self.config, profile.fps(), u32::MAX);
        let mut spans: Vec<SceneSpan> =
            profile.max_luma_series().into_iter().filter_map(|m| cutter.push(m)).collect();
        spans.extend(cutter.finish());
        spans
    }
}

/// The scene rule, one frame at a time. [`SceneDetector::detect`] runs
/// it over a finished profile with no lookahead;
/// [`crate::online::OnlineAnnotator`] runs it over a live stream, where a
/// scene that reaches the lookahead is cut as well.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SceneCutter {
    change_threshold: f64,
    /// The guard interval, in frames.
    min_frames: u32,
    /// Scene length that forces a cut.
    lookahead: u32,
    /// Index of the next frame to be pushed.
    next: u32,
    /// First frame of the running scene (`next` while none is open).
    start: u32,
    /// Max-luminance reference of the running scene.
    reference: f64,
}

impl SceneCutter {
    /// A cutter for a stream at `fps`; a `lookahead` of `u32::MAX`
    /// never forces a cut.
    pub(crate) fn new(config: SceneDetectorConfig, fps: f64, lookahead: u32) -> Self {
        let min_frames = (config.min_interval_s * fps).ceil().max(1.0) as u32;
        let change_threshold = config.change_threshold;
        Self { change_threshold, min_frames, lookahead, next: 0, start: 0, reference: 0.0 }
    }

    /// Number of frames pushed so far.
    pub(crate) fn frames_seen(&self) -> u32 {
        self.next
    }

    /// Pushes the next frame's max luminance. The frame opens a new scene,
    /// and the running one is returned, when its level deviates from the
    /// running scene's reference by the relative threshold after the
    /// guard interval, or when the running scene has reached the
    /// lookahead.
    pub(crate) fn push(&mut self, max_luma: u8) -> Option<SceneSpan> {
        let idx = self.next;
        self.next += 1;
        let cur = f64::from(max_luma);
        let len = idx - self.start;
        let rel_change = (cur - self.reference).abs() / self.reference.max(1.0);
        let cut = (rel_change >= self.change_threshold && len >= self.min_frames)
            || len >= self.lookahead;
        if len > 0 && !cut {
            // Track slow drift within the scene so a gradual fade does
            // not accumulate into a spurious cut at its end: the
            // reference follows the running maximum envelope.
            self.reference = self.reference.max(cur);
            return None;
        }
        // The frame opens a scene: the stream's first, or one after a cut.
        let closed = SceneSpan { start: self.start, end: idx };
        self.start = idx;
        self.reference = cur.max(1.0);
        (len > 0).then_some(closed)
    }

    /// Closes the running scene at end of stream, if it has a frame.
    pub(crate) fn finish(&mut self) -> Option<SceneSpan> {
        let closed = SceneSpan { start: self.start, end: self.next };
        self.start = self.next;
        (!closed.is_empty()).then_some(closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_imgproc::{Frame, Rgb8};

    fn profile_from_maxes(fps: f64, maxes: &[u8]) -> LuminanceProfile {
        let frames: Vec<Frame> = maxes.iter().map(|&m| Frame::filled(4, 4, Rgb8::gray(m))).collect();
        LuminanceProfile::of_frames(fps, frames).unwrap()
    }

    #[test]
    fn constant_series_is_one_scene() {
        let p = profile_from_maxes(10.0, &[100; 40]);
        let spans = SceneDetector::default().detect(&p);
        assert_eq!(spans, vec![SceneSpan { start: 0, end: 40 }]);
    }

    #[test]
    fn hard_cut_is_detected() {
        let mut maxes = vec![80u8; 20];
        maxes.extend(vec![200u8; 20]);
        let p = profile_from_maxes(10.0, &maxes);
        let spans = SceneDetector::default().detect(&p);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], SceneSpan { start: 0, end: 20 });
        assert_eq!(spans[1], SceneSpan { start: 20, end: 40 });
    }

    #[test]
    fn small_changes_do_not_split() {
        // 5% wobble stays below the 10% threshold.
        let maxes: Vec<u8> = (0..60).map(|i| if i % 2 == 0 { 100 } else { 104 }).collect();
        let p = profile_from_maxes(10.0, &maxes);
        let spans = SceneDetector::default().detect(&p);
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn guard_interval_suppresses_rapid_cuts() {
        // Alternating 80/200 every frame at 10 fps with a 0.5 s guard: a
        // cut is only allowed every 5 frames.
        let maxes: Vec<u8> = (0..30).map(|i| if i % 2 == 0 { 80 } else { 200 }).collect();
        let p = profile_from_maxes(10.0, &maxes);
        let spans = SceneDetector::default().detect(&p);
        for s in &spans[..spans.len() - 1] {
            assert!(s.len() >= 5, "scene shorter than guard: {s:?}");
        }
    }

    #[test]
    fn spans_tile_profile() {
        let maxes: Vec<u8> = (0..100).map(|i| ((i * 37) % 256) as u8).collect();
        let p = profile_from_maxes(12.0, &maxes);
        let spans = SceneDetector::default().detect(&p);
        assert_eq!(spans[0].start, 0);
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap between scenes");
        }
        assert_eq!(spans.last().unwrap().end, 100);
        assert!(spans.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn slow_fade_does_not_oversplit() {
        // A +1-per-frame ramp: each step is < 10% so the envelope tracker
        // follows it without declaring boundaries.
        let maxes: Vec<u8> = (0..100).map(|i| (100 + i) as u8).collect();
        let p = profile_from_maxes(10.0, &maxes);
        let spans = SceneDetector::default().detect(&p);
        assert_eq!(spans.len(), 1, "fade split into {spans:?}");
    }

    #[test]
    fn drop_after_fade_is_detected() {
        let mut maxes: Vec<u8> = (0..50).map(|i| (150 + i) as u8).collect();
        maxes.extend(vec![60u8; 30]);
        let p = profile_from_maxes(10.0, &maxes);
        let spans = SceneDetector::default().detect(&p);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].start, 50);
    }

    #[test]
    fn custom_threshold_respected() {
        let mut maxes = vec![100u8; 20];
        maxes.extend(vec![108u8; 20]); // 8% change
        let p = profile_from_maxes(10.0, &maxes);
        let strict = SceneDetector::new(SceneDetectorConfig {
            change_threshold: 0.05,
            min_interval_s: 0.5,
        });
        assert_eq!(strict.detect(&p).len(), 2);
        assert_eq!(SceneDetector::default().detect(&p).len(), 1);
    }
}
