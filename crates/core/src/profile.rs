//! Offline luminance profiling of a video stream.
//!
//! §4: "The video clips available for streaming at the servers are first
//! profiled, processed and annotated with data characterizing the luminance
//! levels during various scenes." Profiling happens once, at the server or
//! proxy, so the handheld never has to analyse frames at runtime.

use crate::error::CoreError;
use crate::parallel::{profile_clip, ParallelConfig};
use annolight_imgproc::{Frame, Histogram};
use annolight_video::Clip;

/// Per-frame luminance statistics gathered during profiling.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameStats {
    /// Frame index within the clip.
    pub index: u32,
    /// Maximum pixel luminance (the signal driving scene detection,
    /// Fig. 6).
    pub max_luma: u8,
    /// Mean pixel luminance.
    pub mean_luma: f64,
    /// Full 256-bin luminance histogram (needed to evaluate clip levels
    /// for every quality level without re-reading the frame).
    pub histogram: Histogram,
}

annolight_support::impl_json!(struct FrameStats { index, max_luma, mean_luma, histogram });

impl FrameStats {
    /// Profiles a single frame.
    pub fn of_frame(index: u32, frame: &Frame) -> Self {
        let histogram = frame.luma_histogram();
        let max_luma = histogram.max_nonzero().unwrap_or(0);
        let mean_luma = histogram.mean();
        Self { index, max_luma, mean_luma, histogram }
    }
}

/// The complete luminance profile of a clip.
///
/// # Example
///
/// ```
/// use annolight_core::LuminanceProfile;
/// use annolight_video::ClipLibrary;
///
/// let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(3.0);
/// let profile = LuminanceProfile::of_clip(&clip).unwrap();
/// assert_eq!(profile.len() as u32, clip.frame_count());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LuminanceProfile {
    fps: f64,
    frames: Vec<FrameStats>,
}

annolight_support::impl_json!(struct LuminanceProfile { fps, frames });

impl LuminanceProfile {
    /// Profiles every frame of `clip` on the calling thread:
    /// [`profile_clip`] with [`ParallelConfig::serial`], so each chunk
    /// renders into one reused frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyClip`] if the clip has no frames.
    pub fn of_clip(clip: &Clip) -> Result<Self, CoreError> {
        profile_clip(clip, &ParallelConfig::serial())
    }

    /// Profiles an arbitrary frame sequence at `fps`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyClip`] if the iterator yields nothing.
    pub fn of_frames<I>(fps: f64, frames: I) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = Frame>,
    {
        let frames: Vec<FrameStats> = frames
            .into_iter()
            .enumerate()
            .map(|(i, f)| FrameStats::of_frame(i as u32, &f))
            .collect();
        if frames.is_empty() {
            return Err(CoreError::EmptyClip);
        }
        Ok(Self { fps, frames })
    }

    /// Builds a profile from precomputed stats (used by streaming-side
    /// incremental profiling).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyClip`] for an empty vector.
    pub fn from_stats(fps: f64, frames: Vec<FrameStats>) -> Result<Self, CoreError> {
        if frames.is_empty() {
            return Err(CoreError::EmptyClip);
        }
        Ok(Self { fps, frames })
    }

    /// Frames per second of the profiled stream.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Number of profiled frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the profile is empty (never true for a constructed profile).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Per-frame statistics, in order.
    pub fn frames(&self) -> &[FrameStats] {
        &self.frames
    }

    /// The per-frame maximum-luminance series (the top curve of Fig. 6).
    pub fn max_luma_series(&self) -> Vec<u8> {
        self.frames.iter().map(|f| f.max_luma).collect()
    }

    /// Merges the histograms of frames `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn merged_histogram(&self, start: u32, end: u32) -> Histogram {
        assert!(start < end, "empty frame range {start}..{end}");
        assert!((end as usize) <= self.frames.len(), "range end {end} out of bounds");
        let mut h = Histogram::new();
        for f in &self.frames[start as usize..end as usize] {
            h.merge(&f.histogram);
        }
        h
    }

    /// Maximum of `max_luma` over frames `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn range_max_luma(&self, start: u32, end: u32) -> u8 {
        assert!(start < end, "empty frame range {start}..{end}");
        assert!((end as usize) <= self.frames.len(), "range end {end} out of bounds");
        self.frames[start as usize..end as usize]
            .iter()
            .map(|f| f.max_luma)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_imgproc::Rgb8;

    fn frame(luma: u8) -> Frame {
        Frame::filled(8, 8, Rgb8::gray(luma))
    }

    #[test]
    fn frame_stats_capture_extremes() {
        let mut f = frame(30);
        f.set_pixel(3, 3, Rgb8::gray(220));
        let s = FrameStats::of_frame(5, &f);
        assert_eq!(s.index, 5);
        assert_eq!(s.max_luma, 220);
        assert!(s.mean_luma > 30.0 && s.mean_luma < 40.0);
        assert_eq!(s.histogram.total(), 64);
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(
            LuminanceProfile::of_frames(10.0, std::iter::empty()).unwrap_err(),
            CoreError::EmptyClip
        );
    }

    #[test]
    fn profile_indexes_frames_in_order() {
        let p = LuminanceProfile::of_frames(10.0, vec![frame(10), frame(20), frame(30)]).unwrap();
        assert_eq!(p.len(), 3);
        let idx: Vec<u32> = p.frames().iter().map(|f| f.index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
        assert_eq!(p.max_luma_series(), vec![10, 20, 30]);
    }

    #[test]
    fn merged_histogram_spans_range() {
        let p = LuminanceProfile::of_frames(10.0, vec![frame(10), frame(20), frame(30)]).unwrap();
        let h = p.merged_histogram(0, 2);
        assert_eq!(h.total(), 128);
        assert_eq!(h.max_nonzero(), Some(20));
        assert_eq!(p.range_max_luma(0, 3), 30);
    }

    #[test]
    #[should_panic(expected = "empty frame range")]
    fn merged_histogram_rejects_empty_range() {
        let p = LuminanceProfile::of_frames(10.0, vec![frame(10)]).unwrap();
        let _ = p.merged_histogram(1, 1);
    }

    #[test]
    fn of_clip_matches_manual_profiling() {
        use annolight_video::{Clip, ClipSpec, ContentKind, SceneSpec};
        let clip = Clip::new(ClipSpec {
            name: "t".into(),
            width: 16,
            height: 16,
            fps: 4.0,
            seed: 3,
            scenes: vec![SceneSpec::new(ContentKind::Bright { base: 180, spread: 10 }, 1.0)],
        })
        .unwrap();
        let p = LuminanceProfile::of_clip(&clip).unwrap();
        assert_eq!(p.len() as u32, clip.frame_count());
        assert_eq!(p.frames()[0].max_luma, clip.frame(0).max_luma());
        assert!((p.fps() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_error_on_every_constructor() {
        assert!(matches!(
            LuminanceProfile::of_frames(10.0, std::iter::empty::<Frame>()),
            Err(CoreError::EmptyClip)
        ));
        assert!(matches!(
            LuminanceProfile::from_stats(10.0, Vec::new()),
            Err(CoreError::EmptyClip)
        ));
        // The parallel path reports the same error for the same input.
        assert!(matches!(
            crate::parallel::profile_frames(10.0, &[], &crate::parallel::ParallelConfig::serial()),
            Err(CoreError::EmptyClip)
        ));
    }

    #[test]
    fn single_frame_profile_supports_single_frame_scenes() {
        // A one-frame clip is the degenerate scene the planner must
        // still handle: range [0, 1) is valid and self-consistent.
        let p = LuminanceProfile::of_frames(24.0, std::iter::once(frame(123))).unwrap();
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(p.range_max_luma(0, 1), p.frames()[0].max_luma);
        assert_eq!(
            p.merged_histogram(0, 1).bins(),
            p.frames()[0].histogram.bins(),
            "one-frame merge is the frame's own histogram"
        );
    }

    #[test]
    fn merged_histogram_is_chunk_partition_independent() {
        // Scene boundaries that straddle parallel chunk edges: merging
        // [0, n) must equal merging [0, c) + [c, n) for every cut c —
        // the algebraic fact the chunked profiler relies on.
        let frames: Vec<Frame> = (0..10u8).map(|i| frame(20 + i * 13)).collect();
        let p = LuminanceProfile::of_frames(10.0, frames).unwrap();
        let whole = p.merged_histogram(0, 10);
        for cut in 1..10u32 {
            let mut parts = p.merged_histogram(0, cut);
            parts.merge(&p.merged_histogram(cut, 10));
            assert_eq!(whole.bins(), parts.bins(), "cut at {cut}");
            assert_eq!(
                p.range_max_luma(0, 10),
                p.range_max_luma(0, cut).max(p.range_max_luma(cut, 10)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn from_stats_preserves_order_and_indices() {
        let stats: Vec<FrameStats> = (0..5u32)
            .map(|i| FrameStats::of_frame(i, &frame(10 * (i as u8 + 1))))
            .collect();
        let p = LuminanceProfile::from_stats(30.0, stats.clone()).unwrap();
        assert_eq!(p.frames(), &stats[..]);
        assert_eq!(p.max_luma_series(), stats.iter().map(|s| s.max_luma).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_profile_of_single_frame_clip_matches_serial() {
        use annolight_video::{Clip, ClipSpec, ContentKind, SceneSpec};
        // One scene so short it yields a single frame — chunking must
        // degenerate gracefully (one chunk, any worker count).
        let clip = Clip::new(ClipSpec {
            name: "one".into(),
            width: 16,
            height: 16,
            fps: 1.0,
            seed: 9,
            scenes: vec![SceneSpec::new(ContentKind::Mid { base: 90, spread: 12, highlight_fraction: 0.02 }, 1.0)],
        })
        .unwrap();
        assert_eq!(clip.frame_count(), 1);
        let serial = LuminanceProfile::of_frames(clip.fps(), clip.frames()).unwrap();
        for workers in [0usize, 1, 4] {
            let par = crate::parallel::profile_clip(
                &clip,
                &crate::parallel::ParallelConfig::with_workers(workers),
            )
            .unwrap();
            assert_eq!(serial, par, "workers={workers}");
        }
    }
}
