//! Cheap content digests for content-addressed annotation caching.
//!
//! The serving tier (`annolight-serve`) keys its annotation cache on
//! *what the pixels are*, not on catalogue names: two tenants requesting
//! the same content for the same device/quality must share one cached
//! track, and a renamed or re-registered clip must never serve a stale
//! track computed for different content.
//!
//! A full-stream hash would defeat the point of server-side profiling
//! (it reads every pixel, which is what profiling itself costs), so
//! [`clip_digest`] samples instead: clip geometry and timing are mixed
//! in exactly, and a bounded number of frames ([`DIGEST_FRAMES`]) are
//! rendered and strided-sampled. For the synthetic, deterministic clips
//! this workspace generates, identical specs give identical digests and
//! any content edit shows up in the sampled frames with overwhelming
//! probability. The hash is [`annolight_support::fnv`]'s FNV-1a/64,
//! re-exported here as [`fnv1a_64`] and [`Digester`].

pub use annolight_support::fnv::{fnv1a_64, Digester};
use annolight_imgproc::Frame;
use annolight_video::Clip;

/// Frames sampled (evenly spaced, always including first and last) by
/// [`clip_digest`].
pub const DIGEST_FRAMES: u32 = 5;

/// Pixels sampled per digested frame (strided across the RGB buffer).
pub const DIGEST_PIXELS_PER_FRAME: usize = 256;

/// A cheap, deterministic content digest of a clip.
///
/// Mixes exact geometry/timing (dimensions, fps bits, frame count) with
/// strided pixel samples from [`DIGEST_FRAMES`] evenly spaced frames.
/// Cost is bounded regardless of clip length — rendering a handful of
/// frames — which is orders of magnitude cheaper than profiling the
/// whole clip, the operation the digest exists to deduplicate.
///
/// ```
/// use annolight_core::digest::clip_digest;
/// use annolight_video::ClipLibrary;
///
/// let a = ClipLibrary::paper_clip("themovie").unwrap().preview(2.0);
/// let b = ClipLibrary::paper_clip("themovie").unwrap().preview(2.0);
/// assert_eq!(clip_digest(&a), clip_digest(&b));
/// let other = ClipLibrary::paper_clip("catwoman").unwrap().preview(2.0);
/// assert_ne!(clip_digest(&a), clip_digest(&other));
/// ```
#[must_use]
pub fn clip_digest(clip: &Clip) -> u64 {
    let (w, h) = clip.dimensions();
    let frames = clip.frame_count();
    let mut d = Digester::new();
    d.write_u32(w).write_u32(h).write_u32(frames).write_f64(clip.fps());
    // Evenly spaced frame indices, first and last inclusive.
    let n = DIGEST_FRAMES.min(frames).max(1);
    let mut frame = Frame::new(w, h);
    for i in 0..n {
        let idx = if n == 1 { 0 } else { (u64::from(i) * u64::from(frames - 1) / u64::from(n - 1)) as u32 };
        clip.frame_into(idx, &mut frame);
        let bytes = frame.as_bytes();
        let stride = (bytes.len() / DIGEST_PIXELS_PER_FRAME.saturating_mul(3)).max(1) * 3;
        d.write_u32(idx);
        let mut pos = 0;
        while pos + 2 < bytes.len() {
            d.write(&bytes[pos..pos + 3]);
            pos += stride;
        }
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_video::{Clip, ClipSpec, ContentKind, SceneSpec};

    fn clip(seed: u64, base: u8) -> Clip {
        Clip::new(ClipSpec {
            name: "d".into(),
            width: 32,
            height: 32,
            fps: 10.0,
            seed,
            scenes: vec![
                SceneSpec::new(
                    ContentKind::Dark { base, spread: 10, highlight_fraction: 0.01, highlight: 230 },
                    1.0,
                ),
                SceneSpec::new(ContentKind::Bright { base: 200, spread: 20 }, 1.0),
            ],
        })
        .unwrap()
    }

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(clip_digest(&clip(7, 40)), clip_digest(&clip(7, 40)));
    }

    #[test]
    fn digest_separates_content() {
        let base = clip_digest(&clip(7, 40));
        assert_ne!(base, clip_digest(&clip(8, 40)), "different seed, different pixels");
        assert_ne!(base, clip_digest(&clip(7, 90)), "different luminance base");
    }

    #[test]
    fn digest_ignores_name() {
        // Content addressing: the catalogue name must not influence the key.
        let a = clip(7, 40);
        let mut spec = a.spec().clone();
        spec.name = "renamed".into();
        let b = Clip::new(spec).unwrap();
        assert_eq!(clip_digest(&a), clip_digest(&b));
    }
}
