//! Clip and scene specifications.

use crate::content::ContentKind;
use annolight_imgproc::Frame;

/// One scene of a clip: a content class plus a duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneSpec {
    /// What the scene looks like.
    pub content: ContentKind,
    /// Scene duration in seconds.
    pub duration_s: f64,
}

annolight_support::impl_json!(struct SceneSpec { content, duration_s });

impl SceneSpec {
    /// Creates a scene spec.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not strictly positive and finite.
    pub fn new(content: ContentKind, duration_s: f64) -> Self {
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "scene duration {duration_s} must be positive"
        );
        Self { content, duration_s }
    }
}

/// The static description of a synthetic clip.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipSpec {
    /// Clip name (stable identifier used in reports).
    pub name: String,
    /// Frame width in pixels (multiple of 16 to suit the codec).
    pub width: u32,
    /// Frame height in pixels (multiple of 16 to suit the codec).
    pub height: u32,
    /// Frames per second.
    pub fps: f64,
    /// Deterministic seed for all pseudo-random content.
    pub seed: u64,
    /// The ground-truth scene list.
    pub scenes: Vec<SceneSpec>,
}

annolight_support::impl_json!(struct ClipSpec { name, width, height, fps, seed, scenes });

/// A renderable synthetic clip.
///
/// `Clip` is cheap to clone (the frame data is generated on demand) and
/// fully deterministic: the same spec always yields identical frames.
///
/// # Example
///
/// ```
/// use annolight_video::{Clip, ClipSpec, ContentKind, SceneSpec};
///
/// let spec = ClipSpec {
///     name: "demo".into(),
///     width: 32,
///     height: 32,
///     fps: 10.0,
///     seed: 42,
///     scenes: vec![
///         SceneSpec::new(ContentKind::Dark { base: 40, spread: 10, highlight_fraction: 0.01, highlight: 240 }, 1.0),
///         SceneSpec::new(ContentKind::Bright { base: 200, spread: 20 }, 1.0),
///     ],
/// };
/// let clip = Clip::new(spec).unwrap();
/// assert_eq!(clip.frame_count(), 20);
/// assert!(clip.frame(0).mean_luma() < clip.frame(15).mean_luma());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    spec: ClipSpec,
    /// Cumulative frame index at which each scene starts; last entry is the
    /// total frame count.
    scene_starts: Vec<u32>,
}

/// Errors constructing a clip.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClipError {
    /// The spec contained no scenes.
    NoScenes,
    /// Dimensions must be non-zero multiples of 16 (codec macroblocks).
    BadDimensions {
        /// Requested width.
        width: u32,
        /// Requested height.
        height: u32,
    },
    /// The frame rate must be positive and finite.
    BadFps(f64),
    /// A scene's duration must be positive and finite.
    BadDuration {
        /// Index of the scene.
        scene: usize,
        /// Its duration in seconds.
        duration_s: f64,
    },
    /// The scenes up to and including `scene` hold more than `u32::MAX`
    /// frames, which a frame index cannot address.
    TooManyFrames {
        /// Index of the scene that crossed the limit.
        scene: usize,
    },
}

impl std::fmt::Display for ClipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClipError::NoScenes => write!(f, "clip spec has no scenes"),
            ClipError::BadDimensions { width, height } => {
                write!(f, "clip dimensions {width}x{height} must be non-zero multiples of 16")
            }
            ClipError::BadFps(fps) => write!(f, "frame rate {fps} must be positive and finite"),
            ClipError::BadDuration { scene, duration_s } => {
                write!(f, "scene {scene} duration {duration_s} must be positive and finite")
            }
            ClipError::TooManyFrames { scene } => {
                write!(f, "scenes 0..={scene} hold more than {} frames", u32::MAX)
            }
        }
    }
}

impl std::error::Error for ClipError {}

impl Clip {
    /// Builds a clip from its spec.
    ///
    /// # Errors
    ///
    /// Returns [`ClipError`] when the spec has no scenes, non-multiple-of-16
    /// dimensions, a non-positive frame rate, a scene whose duration is
    /// not positive and finite, or more than `u32::MAX` frames in all.
    pub fn new(spec: ClipSpec) -> Result<Self, ClipError> {
        if spec.scenes.is_empty() {
            return Err(ClipError::NoScenes);
        }
        if spec.width == 0 || spec.height == 0 || !spec.width.is_multiple_of(16) || !spec.height.is_multiple_of(16) {
            return Err(ClipError::BadDimensions { width: spec.width, height: spec.height });
        }
        if !spec.fps.is_finite() || spec.fps <= 0.0 {
            return Err(ClipError::BadFps(spec.fps));
        }
        let mut scene_starts = Vec::with_capacity(spec.scenes.len() + 1);
        let mut acc = 0u32;
        for (scene, s) in spec.scenes.iter().enumerate() {
            if !s.duration_s.is_finite() || s.duration_s <= 0.0 {
                return Err(ClipError::BadDuration { scene, duration_s: s.duration_s });
            }
            scene_starts.push(acc);
            // The cast saturates, so a scene too long for `u64` still errs.
            let frames = (s.duration_s * spec.fps).round().max(1.0) as u64;
            acc = u32::try_from(u64::from(acc).saturating_add(frames))
                .map_err(|_| ClipError::TooManyFrames { scene })?;
        }
        scene_starts.push(acc);
        Ok(Self { spec, scene_starts })
    }

    /// The clip spec.
    pub fn spec(&self) -> &ClipSpec {
        &self.spec
    }

    /// Clip name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Total number of frames.
    pub fn frame_count(&self) -> u32 {
        *self.scene_starts.last().expect("scene_starts is never empty")
    }

    /// Clip duration in seconds.
    pub fn duration_s(&self) -> f64 {
        f64::from(self.frame_count()) / self.spec.fps
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        self.spec.fps
    }

    /// Frame dimensions `(width, height)`.
    pub fn dimensions(&self) -> (u32, u32) {
        (self.spec.width, self.spec.height)
    }

    /// Ground-truth scene index containing frame `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= frame_count()`.
    pub fn scene_of_frame(&self, idx: u32) -> usize {
        assert!(idx < self.frame_count(), "frame {idx} out of range");
        match self.scene_starts.binary_search(&idx) {
            Ok(i) if i + 1 == self.scene_starts.len() => i - 1,
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The frame index range `[start, end)` of ground-truth scene `scene`.
    ///
    /// # Panics
    ///
    /// Panics if `scene` is out of range.
    pub fn scene_frames(&self, scene: usize) -> (u32, u32) {
        assert!(scene < self.spec.scenes.len(), "scene {scene} out of range");
        (self.scene_starts[scene], self.scene_starts[scene + 1])
    }

    /// Renders frame `idx`: [`Self::frame_into`] on a fresh frame.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= frame_count()`.
    pub fn frame(&self, idx: u32) -> Frame {
        let mut frame = Frame::new(self.spec.width, self.spec.height);
        self.frame_into(idx, &mut frame);
        frame
    }

    /// Renders frame `idx` into `out`, overwriting every byte, so a loop
    /// over the clip can reuse one frame.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= frame_count()` or `out` is not the clip's size.
    pub fn frame_into(&self, idx: u32, out: &mut Frame) {
        let scene = self.scene_of_frame(idx);
        assert_eq!(
            (out.width(), out.height()),
            self.dimensions(),
            "frame_into needs a frame of the clip's size"
        );
        let (start, end) = (self.scene_starts[scene], self.scene_starts[scene + 1]);
        let scene_seed = self
            .spec
            .seed
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(scene as u64);
        self.spec.scenes[scene].content.render_into(scene_seed, idx - start, end - start, out);
    }

    /// Iterates over all frames in order.
    pub fn frames(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..self.frame_count()).map(move |i| self.frame(i))
    }

    /// Serialises the clip's spec as JSON, so custom clips can be stored
    /// and shared as sidecar files.
    ///
    /// # Panics
    ///
    /// Never panics: specs are plain data.
    pub fn to_json_spec(&self) -> String {
        annolight_support::json::to_string_pretty(&self.spec)
    }

    /// Builds a clip from a JSON spec produced by
    /// [`Clip::to_json_spec`] (or written by hand).
    ///
    /// # Errors
    ///
    /// Returns a descriptive string for malformed JSON or an invalid spec.
    pub fn from_json_spec(json: &str) -> Result<Clip, String> {
        let spec: ClipSpec = annolight_support::json::from_str(json).map_err(|e| e.to_string())?;
        Clip::new(spec).map_err(|e| e.to_string())
    }

    /// Returns a clip truncated to roughly the first `seconds` seconds
    /// (at least one scene), useful for fast tests and previews.
    pub fn preview(&self, seconds: f64) -> Clip {
        let mut remaining = seconds.max(0.0);
        let mut scenes = Vec::new();
        for s in &self.spec.scenes {
            if remaining <= 0.0 && !scenes.is_empty() {
                break;
            }
            let take = if s.duration_s <= remaining || scenes.is_empty() {
                s.duration_s.min(remaining.max(1.0 / self.spec.fps))
            } else {
                remaining
            };
            scenes.push(SceneSpec::new(s.content, take.max(1.0 / self.spec.fps)));
            remaining -= take;
        }
        let spec = ClipSpec { scenes, ..self.spec.clone() };
        Clip::new(spec).expect("preview of a valid clip is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ClipSpec {
        ClipSpec {
            name: "demo".into(),
            width: 32,
            height: 32,
            fps: 10.0,
            seed: 1,
            scenes: vec![
                SceneSpec::new(
                    ContentKind::Dark { base: 40, spread: 10, highlight_fraction: 0.01, highlight: 240 },
                    2.0,
                ),
                SceneSpec::new(ContentKind::Bright { base: 200, spread: 20 }, 1.5),
                SceneSpec::new(ContentKind::Fade { from: 10, to: 150 }, 1.0),
            ],
        }
    }

    #[test]
    fn frame_count_accumulates_scene_durations() {
        let clip = Clip::new(demo_spec()).unwrap();
        assert_eq!(clip.frame_count(), 20 + 15 + 10);
        assert!((clip.duration_s() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn scene_of_frame_boundaries() {
        let clip = Clip::new(demo_spec()).unwrap();
        assert_eq!(clip.scene_of_frame(0), 0);
        assert_eq!(clip.scene_of_frame(19), 0);
        assert_eq!(clip.scene_of_frame(20), 1);
        assert_eq!(clip.scene_of_frame(34), 1);
        assert_eq!(clip.scene_of_frame(35), 2);
        assert_eq!(clip.scene_of_frame(44), 2);
    }

    #[test]
    fn scene_frames_ranges() {
        let clip = Clip::new(demo_spec()).unwrap();
        assert_eq!(clip.scene_frames(0), (0, 20));
        assert_eq!(clip.scene_frames(1), (20, 35));
        assert_eq!(clip.scene_frames(2), (35, 45));
    }

    #[test]
    fn frames_are_deterministic() {
        let a = Clip::new(demo_spec()).unwrap();
        let b = Clip::new(demo_spec()).unwrap();
        assert_eq!(a.frame(7), b.frame(7));
        assert_eq!(a.frame(25), b.frame(25));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Clip::new(demo_spec()).unwrap();
        let mut spec = demo_spec();
        spec.seed = 2;
        let b = Clip::new(spec).unwrap();
        assert_ne!(a.frame(0), b.frame(0));
    }

    #[test]
    fn rejects_empty_and_bad_dims() {
        let mut s = demo_spec();
        s.scenes.clear();
        assert_eq!(Clip::new(s).unwrap_err(), ClipError::NoScenes);

        let mut s = demo_spec();
        s.width = 33;
        assert!(matches!(Clip::new(s).unwrap_err(), ClipError::BadDimensions { .. }));

        let mut s = demo_spec();
        s.fps = 0.0;
        assert!(matches!(Clip::new(s).unwrap_err(), ClipError::BadFps(_)));
    }

    #[test]
    fn rejects_scenes_it_cannot_represent() {
        // A deserialised spec skips `SceneSpec::new`'s assert.
        for duration_s in [-5.0, 0.0, f64::NAN, f64::INFINITY] {
            let mut s = demo_spec();
            s.scenes[1].duration_s = duration_s;
            assert!(matches!(
                Clip::new(s.clone()).unwrap_err(),
                ClipError::BadDuration { scene: 1, .. }
            ));
            if duration_s.is_finite() {
                let json = annolight_support::json::to_string(&s);
                assert!(Clip::from_json_spec(&json).is_err(), "duration {duration_s}");
            }
        }

        // Two scenes of 2.5e9 frames: the total passes u32::MAX.
        let mut s = demo_spec();
        s.scenes.truncate(2);
        s.fps = 1000.0;
        for scene in &mut s.scenes {
            scene.duration_s = 2.5e6;
        }
        assert_eq!(Clip::new(s.clone()).unwrap_err(), ClipError::TooManyFrames { scene: 1 });
        s.scenes[0].duration_s = 1e300;
        assert_eq!(Clip::new(s.clone()).unwrap_err(), ClipError::TooManyFrames { scene: 0 });

        // Exactly u32::MAX frames is representable.
        s.scenes.truncate(1);
        s.fps = 1.0;
        s.scenes[0].duration_s = f64::from(u32::MAX);
        assert_eq!(Clip::new(s).unwrap().frame_count(), u32::MAX);
    }

    #[test]
    fn frame_into_reuses_one_frame_across_scenes() {
        let clip = Clip::new(demo_spec()).unwrap();
        let (w, h) = clip.dimensions();
        let mut out = Frame::new(w, h);
        for i in (0..clip.frame_count()).rev() {
            clip.frame_into(i, &mut out);
            assert_eq!(out, clip.frame(i), "frame {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_into_out_of_range_panics() {
        let clip = Clip::new(demo_spec()).unwrap();
        clip.frame_into(clip.frame_count(), &mut Frame::new(32, 32));
    }

    #[test]
    #[should_panic(expected = "clip's size")]
    fn frame_into_wrong_size_panics() {
        let clip = Clip::new(demo_spec()).unwrap();
        clip.frame_into(0, &mut Frame::new(32, 16));
    }

    #[test]
    fn preview_truncates() {
        let clip = Clip::new(demo_spec()).unwrap();
        let p = clip.preview(2.5);
        assert!(p.duration_s() <= 2.6);
        assert!(p.frame_count() >= 1);
        assert_eq!(p.name(), "demo");
        // The preview's first frames match the original's.
        assert_eq!(p.frame(0), clip.frame(0));
    }

    #[test]
    fn preview_never_empty() {
        let clip = Clip::new(demo_spec()).unwrap();
        let p = clip.preview(0.0);
        assert!(p.frame_count() >= 1);
    }

    #[test]
    fn frames_iterator_visits_all() {
        let clip = Clip::new(demo_spec()).unwrap();
        assert_eq!(clip.frames().count() as u32, clip.frame_count());
    }

    #[test]
    fn json_spec_roundtrip() {
        let clip = Clip::new(demo_spec()).unwrap();
        let json = clip.to_json_spec();
        let back = Clip::from_json_spec(&json).unwrap();
        assert_eq!(back.spec(), clip.spec());
        assert_eq!(back.frame(5), clip.frame(5));
    }

    #[test]
    fn bad_json_spec_rejected() {
        assert!(Clip::from_json_spec("not json").is_err());
        // Valid JSON, invalid spec (odd width).
        let mut s = demo_spec();
        s.width = 30;
        let json = annolight_support::json::to_string(&s);
        assert!(Clip::from_json_spec(&json).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_out_of_range_panics() {
        let clip = Clip::new(demo_spec()).unwrap();
        let _ = clip.frame(clip.frame_count());
    }
}
