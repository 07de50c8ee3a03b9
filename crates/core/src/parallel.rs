//! Intra-clip parallel profiling and compensation.
//!
//! The offline pipeline — per-frame luminance histograms, scene-level
//! planning, per-frame compensation — is embarrassingly parallel across
//! frames and scenes. This module chunks that work over
//! [`annolight_support::par`]'s scoped fan-out, with one headline
//! guarantee:
//!
//! > **Parallel output is byte-identical to serial output** for every
//! > clip, quality level, chunk size and worker count.
//!
//! The guarantee holds by construction:
//!
//! * every unit of work (a frame's [`FrameStats`], a scene's plan, a
//!   frame's compensation) is a pure function of its inputs — exact
//!   integer/fixed-point kernels, no shared mutable state;
//! * the fan-out returns chunk results **in chunk order**, whatever order
//!   the workers finished in, so the merged output is a pure function of
//!   the input regardless of scheduling;
//! * histogram merging is an unsigned integer sum per bin — an
//!   order- and partitioning-independent reduction
//!   ([`annolight_imgproc::Histogram::merged`]).
//!
//! Each stage has one body, its batched form; the per-clip entry points
//! are batches of one. `workers == 0` runs that body inline on the
//! calling thread over the serial primitives ([`FrameStats::of_frame`],
//! [`compensate_frame`]) — the deterministic reference the differential
//! suite (`tests/parallel_identity.rs`) compares every other
//! configuration against.

use crate::apply::compensate_frame;
use crate::error::CoreError;
use crate::profile::{FrameStats, LuminanceProfile};
use crate::track::AnnotationTrack;
use annolight_imgproc::{ClipStats, Frame};
use annolight_support::par::fan_out;
pub use annolight_support::par::{chunk_ranges, chunked_map, ParallelConfig};
use annolight_video::Clip;

/// Profiles every frame of `clip`, chunked across `cfg`'s workers.
///
/// Byte-identical to [`LuminanceProfile::of_clip`] for every
/// configuration (each chunk renders and profiles its own frames; the
/// per-chunk stats are concatenated in frame order).
///
/// # Errors
///
/// Returns [`CoreError::EmptyClip`] if the clip has no frames.
pub fn profile_clip(clip: &Clip, cfg: &ParallelConfig) -> Result<LuminanceProfile, CoreError> {
    let n = clip.frame_count() as usize;
    if n == 0 {
        return Err(CoreError::EmptyClip);
    }
    let chunks = chunked_map(n, cfg, |range| {
        range
            .map(|i| FrameStats::of_frame(i as u32, &clip.frame(i as u32)))
            .collect::<Vec<_>>()
    });
    LuminanceProfile::from_stats(clip.fps(), chunks.into_iter().flatten().collect())
}

/// Profiles a decoded frame slice at `fps`, chunked across `cfg`'s
/// workers: [`profile_frames_batched`] with one job. Byte-identical to
/// [`LuminanceProfile::of_frames`] over the same frames.
///
/// # Errors
///
/// Returns [`CoreError::EmptyClip`] for an empty slice.
pub fn profile_frames(
    fps: f64,
    frames: &[Frame],
    cfg: &ParallelConfig,
) -> Result<LuminanceProfile, CoreError> {
    let mut profiles = profile_frames_batched(&[(fps, frames)], cfg)?;
    Ok(profiles.pop().expect("one job, one profile"))
}

/// Profiles several decoded clips in **one** chunked dispatch.
///
/// Each job is `(fps, frames)`; the result holds one profile per job,
/// byte-identical to [`LuminanceProfile::of_frames`] over that job's
/// frames. The frames of
/// all jobs are flattened into a single global index space so one
/// worker pool load-balances across every clip at once — short clips no
/// longer leave workers idle while a long clip finishes, which is the
/// point of batched GOP scheduling in the transcode proxy.
///
/// # Errors
///
/// Returns [`CoreError::EmptyClip`] if any job has no frames (checked
/// up front, before any work is dispatched).
pub fn profile_frames_batched(
    jobs: &[(f64, &[Frame])],
    cfg: &ParallelConfig,
) -> Result<Vec<LuminanceProfile>, CoreError> {
    let mut offsets = Vec::with_capacity(jobs.len());
    let mut total = 0usize;
    for (_, frames) in jobs {
        if frames.is_empty() {
            return Err(CoreError::EmptyClip);
        }
        offsets.push(total);
        total += frames.len();
    }
    let chunks = chunked_map(total, cfg, |range| {
        range
            .map(|g| {
                // Map the global frame index back to (job, local index);
                // stats carry the *job-local* index so the per-job
                // profile matches the serial reference exactly.
                let j = offsets.partition_point(|&o| o <= g) - 1;
                let local = g - offsets[j];
                FrameStats::of_frame(local as u32, &jobs[j].1[local])
            })
            .collect::<Vec<_>>()
    });
    let mut flat = chunks.into_iter().flatten();
    jobs.iter()
        .map(|(fps, frames)| {
            LuminanceProfile::from_stats(*fps, flat.by_ref().take(frames.len()).collect())
        })
        .collect()
}

/// Compensates several clips (each against its own track) in **one**
/// chunked dispatch, in place, returning per-job clipping statistics in
/// frame order.
///
/// Every job's frames are cut into disjoint `&mut` chunks of
/// `cfg.chunk_frames` and all chunks of all jobs share one fan-out, so
/// mixed-length batches load-balance. Each frame runs
/// [`compensate_frame`], so frames *and* stats are byte-identical to
/// compensating serially, for every chunk size and worker count.
///
/// # Errors
///
/// Returns [`CoreError::FrameOutOfRange`] if any job's slice is longer
/// than its annotated range (checked up front, before any frame of any
/// job is modified).
pub fn compensate_frames_batched(
    jobs: &mut [(&mut [Frame], &AnnotationTrack)],
    cfg: &ParallelConfig,
) -> Result<Vec<Vec<ClipStats>>, CoreError> {
    // Validate every job before touching any pixels so a failure in one
    // clip can't leave another half-compensated.
    for (frames, track) in jobs.iter() {
        if !frames.is_empty() {
            track.entry_at((frames.len() - 1) as u32)?;
        }
    }
    let mut stats: Vec<Vec<ClipStats>> =
        jobs.iter().map(|(frames, _)| Vec::with_capacity(frames.len())).collect();
    let chunk = cfg.chunk_frames.max(1);
    let mut chunks = Vec::new();
    for (job, (frames, track)) in jobs.iter_mut().enumerate() {
        for (i, slice) in frames.chunks_mut(chunk).enumerate() {
            chunks.push((job, i * chunk, *track, slice));
        }
    }
    let done = fan_out(cfg.workers, chunks, |(job, first, track, slice)| {
        let chunk_stats: Vec<ClipStats> = slice
            .iter_mut()
            .zip(first as u32..)
            .map(|(frame, i)| {
                compensate_frame(frame, track, i).expect("range validated before dispatch")
            })
            .collect();
        (job, chunk_stats)
    });
    for (job, chunk_stats) in done {
        stats[job].extend(chunk_stats);
    }
    Ok(stats)
}

/// Compensates `frames[i]` against `track` entry `i` for every frame,
/// in place, returning the per-frame clipping statistics in frame
/// order: [`compensate_frames_batched`] with one job.
///
/// # Errors
///
/// Returns [`CoreError::FrameOutOfRange`] if the slice is longer than
/// the annotated range (checked up front, before any frame is
/// modified).
pub fn compensate_frames(
    frames: &mut [Frame],
    track: &AnnotationTrack,
    cfg: &ParallelConfig,
) -> Result<Vec<ClipStats>, CoreError> {
    let mut stats = compensate_frames_batched(&mut [(frames, track)], cfg)?;
    Ok(stats.pop().expect("one job, one result"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::Annotator;
    use crate::quality::QualityLevel;
    use annolight_display::DeviceProfile;
    use annolight_video::{ClipLibrary, ClipSpec, ContentKind, SceneSpec};

    fn test_clip() -> Clip {
        ClipLibrary::paper_clip("themovie").unwrap().preview(2.0)
    }

    #[test]
    fn profile_clip_matches_serial_reference() {
        let clip = test_clip();
        let reference = LuminanceProfile::of_clip(&clip).unwrap();
        for workers in [0, 1, 2, 4] {
            for chunk in [1, 3, 16, 1000] {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
                let got = profile_clip(&clip, &cfg).unwrap();
                assert_eq!(got, reference, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn profile_frames_matches_of_frames() {
        let clip = test_clip();
        let frames: Vec<Frame> = clip.frames().collect();
        let reference = LuminanceProfile::of_frames(clip.fps(), frames.iter().cloned()).unwrap();
        let cfg = ParallelConfig::with_workers(3).with_chunk_frames(7);
        assert_eq!(profile_frames(clip.fps(), &frames, &cfg).unwrap(), reference);
    }

    #[test]
    fn empty_inputs_error() {
        let empty: Vec<Frame> = Vec::new();
        assert_eq!(
            profile_frames(10.0, &empty, &ParallelConfig::serial()).unwrap_err(),
            CoreError::EmptyClip
        );
    }

    #[test]
    fn compensate_matches_serial_reference_bytes_and_stats() {
        let clip = test_clip();
        let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q10)
            .annotate_clip(&clip)
            .unwrap();
        let track = annotated.track();
        let original: Vec<Frame> = clip.frames().collect();

        let mut reference = original.clone();
        let mut ref_stats = Vec::new();
        for (i, f) in reference.iter_mut().enumerate() {
            ref_stats.push(compensate_frame(f, track, i as u32).unwrap());
        }
        for workers in [0usize, 1, 2, 4, 7] {
            for chunk in [1usize, 5, 16] {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
                let mut frames = original.clone();
                let stats = compensate_frames(&mut frames, track, &cfg).unwrap();
                assert_eq!(frames, reference, "workers={workers} chunk={chunk}");
                assert_eq!(stats, ref_stats, "workers={workers} chunk={chunk}");
            }
        }
    }

    fn small_clip(seed: u64, w: u32, h: u32, secs: f64) -> Clip {
        Clip::new(ClipSpec {
            name: format!("b{seed}"),
            width: w,
            height: h,
            fps: 8.0,
            seed,
            scenes: vec![
                SceneSpec::new(ContentKind::Bright { base: 170, spread: 30 }, secs / 2.0),
                SceneSpec::new(
                    ContentKind::Dark {
                        base: 60,
                        spread: 25,
                        highlight_fraction: 0.02,
                        highlight: 235,
                    },
                    secs / 2.0,
                ),
            ],
        })
        .unwrap()
    }

    #[test]
    fn profile_frames_batched_matches_per_job_serial() {
        // Mixed lengths and geometries: batched output must equal the
        // per-job serial profile for every pool shape.
        let clips =
            [small_clip(3, 32, 32, 2.0), small_clip(9, 48, 32, 0.5), small_clip(5, 16, 16, 1.5)];
        let frames: Vec<Vec<Frame>> = clips.iter().map(|c| c.frames().collect()).collect();
        let jobs: Vec<(f64, &[Frame])> =
            clips.iter().zip(&frames).map(|(c, f)| (c.fps(), f.as_slice())).collect();
        let reference: Vec<LuminanceProfile> = jobs
            .iter()
            .map(|(fps, f)| LuminanceProfile::of_frames(*fps, f.iter().cloned()).unwrap())
            .collect();
        for workers in [0usize, 1, 2, 4, 7] {
            for chunk in [1usize, 5, 16] {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
                let got = profile_frames_batched(&jobs, &cfg).unwrap();
                assert_eq!(got, reference, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn profile_frames_batched_rejects_empty_job() {
        let clip = small_clip(1, 16, 16, 1.0);
        let frames: Vec<Frame> = clip.frames().collect();
        let jobs: Vec<(f64, &[Frame])> = vec![(clip.fps(), &frames), (clip.fps(), &[])];
        assert_eq!(
            profile_frames_batched(&jobs, &ParallelConfig::with_workers(2)).unwrap_err(),
            CoreError::EmptyClip
        );
    }

    #[test]
    fn compensate_frames_batched_matches_per_job_serial() {
        let clips =
            [small_clip(3, 32, 32, 2.0), small_clip(9, 48, 32, 0.5), small_clip(5, 16, 16, 1.5)];
        let annotated: Vec<_> = clips
            .iter()
            .map(|c| {
                Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q10)
                    .annotate_clip(c)
                    .unwrap()
            })
            .collect();
        let original: Vec<Vec<Frame>> = clips.iter().map(|c| c.frames().collect()).collect();

        let mut reference = original.clone();
        let mut ref_stats = Vec::new();
        for (frames, ann) in reference.iter_mut().zip(&annotated) {
            let stats: Vec<ClipStats> = (0u32..)
                .zip(frames.iter_mut())
                .map(|(i, f)| compensate_frame(f, ann.track(), i).unwrap())
                .collect();
            ref_stats.push(stats);
        }
        for workers in [0usize, 1, 2, 4, 7] {
            for chunk in [1usize, 5, 16] {
                let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
                let mut frames = original.clone();
                let mut jobs: Vec<(&mut [Frame], &AnnotationTrack)> = frames
                    .iter_mut()
                    .zip(&annotated)
                    .map(|(f, a)| (f.as_mut_slice(), a.track()))
                    .collect();
                let stats = compensate_frames_batched(&mut jobs, &cfg).unwrap();
                assert_eq!(frames, reference, "workers={workers} chunk={chunk}");
                assert_eq!(stats, ref_stats, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn compensate_frames_batched_validates_every_job_before_mutating() {
        let clip = small_clip(2, 16, 16, 1.0);
        let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q5)
            .annotate_clip(&clip)
            .unwrap();
        let mut good: Vec<Frame> = clip.frames().collect();
        // One frame more than the track covers in the *second* job.
        let mut bad: Vec<Frame> = clip.frames().collect();
        bad.push(clip.frame(0));
        let (good_before, bad_before) = (good.clone(), bad.clone());
        let mut jobs: Vec<(&mut [Frame], &AnnotationTrack)> = vec![
            (good.as_mut_slice(), annotated.track()),
            (bad.as_mut_slice(), annotated.track()),
        ];
        let err = compensate_frames_batched(&mut jobs, &ParallelConfig::with_workers(2))
            .unwrap_err();
        assert!(matches!(err, CoreError::FrameOutOfRange { .. }));
        assert_eq!(good, good_before, "no job's frames may be modified on failure");
        assert_eq!(bad, bad_before);
    }

    #[test]
    fn compensate_validates_range_before_mutating() {
        let clip = Clip::new(ClipSpec {
            name: "t".into(),
            width: 16,
            height: 16,
            fps: 4.0,
            seed: 1,
            scenes: vec![SceneSpec::new(ContentKind::Bright { base: 180, spread: 10 }, 1.0)],
        })
        .unwrap();
        let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q5)
            .annotate_clip(&clip)
            .unwrap();
        // One frame more than the track covers: typed error, no mutation.
        let mut frames: Vec<Frame> = clip.frames().collect();
        frames.push(clip.frame(0));
        let before = frames.clone();
        let err = compensate_frames(&mut frames, annotated.track(), &ParallelConfig::with_workers(2))
            .unwrap_err();
        assert!(matches!(err, CoreError::FrameOutOfRange { .. }));
        assert_eq!(frames, before, "no frame may be modified on failure");
    }

    #[test]
    fn compensate_empty_slice_is_ok() {
        let clip = test_clip();
        let annotated = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q10)
            .annotate_clip(&clip)
            .unwrap();
        let mut frames: Vec<Frame> = Vec::new();
        let stats =
            compensate_frames(&mut frames, annotated.track(), &ParallelConfig::with_workers(4))
                .unwrap();
        assert!(stats.is_empty());
    }
}
