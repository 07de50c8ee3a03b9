//! End-to-end pipeline throughput: serial reference vs. the parallel
//! profiling/compensation pipeline (PR 4's tentpole), extended with the
//! SIMD kernel tiers and batched multi-clip scheduling (issue 10).
//!
//! Three reference rows anchor the table:
//!
//! * the **legacy float baseline** re-creates the pre-LUT pipeline
//!   exactly as the proxy ran it: a frame-cloning
//!   [`LuminanceProfile::of_frames`] scan followed by per-frame float
//!   contrast enhancement ([`annolight_imgproc::contrast_enhance_float`],
//!   the retained legacy kernel);
//! * the **scalar LUT row** is the pipeline as PR 4 shipped it — the
//!   16.16 fixed-point LUT kernels pinned to
//!   [`KernelTier::Scalar`] — and is the denominator of the
//!   `vs. LUT` column (the issue-10 ≥2× floor is measured against it);
//! * the **SIMD rows** run the production dispatched pipeline (runtime
//!   tier detection, chunked [`annolight_core::parallel::profile_frames`],
//!   parallel planning, SIMD LUT compensation) at several intra-clip
//!   worker counts, and the **batched rows** split the clip into
//!   several jobs and schedule them all onto one pool
//!   ([`parallel::profile_frames_batched`] /
//!   [`parallel::compensate_frames_batched`]).
//!
//! Two things matter when reading the table:
//!
//! * every measured row produces **byte-identical** output to every
//!   other row (`tests/parallel_identity.rs` and
//!   `tests/pipeline_identity.rs` prove it; [`conformance`] is the
//!   golden-snapshotted projection) — only wall-clock differs, and
//! * the `speedup` column is relative to the legacy float baseline
//!   while `vs. LUT` is relative to the scalar LUT pipeline, so the
//!   SIMD win is visible separately from the fixed-point win.
//!
//! A second, smaller table times the colour conversions that surround
//! the pipeline in a session (the server's RGB→4:2:0 before encoding,
//! and 4:2:0→RGB after decoding) at every kernel tier, against the
//! scalar oracle tier.

use crate::table::Table;
use annolight_core::digest::Digester;
use annolight_core::parallel::{self, ParallelConfig};
use annolight_core::profile::FrameStats;
use annolight_core::track::AnnotationTrack;
use annolight_core::{Annotator, LuminanceProfile, QualityLevel};
use annolight_display::DeviceProfile;
use annolight_imgproc::simd;
use annolight_imgproc::{contrast_enhance_float, CompensationLut, Frame, KernelTier, Yuv420Frame};
use annolight_support::json::to_string;
use annolight_video::ClipLibrary;
use std::time::Instant;

/// Worker counts exercised by the dispatched SIMD rows (0 = inline
/// serial reference, the same counts as the differential identity
/// suite).
pub const WORKER_COUNTS: [usize; 5] = [0, 1, 2, 4, 7];

/// Worker counts exercised by the batched multi-clip rows (batching
/// with an inline pool is the serial reference by construction, so the
/// rows start at 2 workers).
pub const BATCHED_WORKER_COUNTS: [usize; 3] = [2, 4, 7];

/// Sub-clips the batched rows split the frame set into.
pub const BATCHED_JOBS: usize = 3;

/// One timed pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Human-readable configuration label.
    pub label: String,
    /// Intra-clip worker threads (0 = inline).
    pub workers: usize,
    /// Best-of-`reps` wall-clock for the full profile→plan→compensate
    /// pipeline, milliseconds.
    pub elapsed_ms: f64,
    /// Throughput in frames per second (frame count / elapsed).
    pub frames_per_sec: f64,
    /// Speedup vs. the legacy float serial baseline.
    pub speedup: f64,
    /// Speedup vs. the scalar fixed-point LUT pipeline (the issue-10
    /// floor's denominator).
    pub speedup_vs_lut: f64,
}

annolight_support::impl_json!(struct ThroughputRow { label, workers, elapsed_ms, frames_per_sec, speedup, speedup_vs_lut });

/// The throughput table for one clip.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineThroughput {
    /// Clip the pipeline ran on.
    pub clip: String,
    /// Frames processed per timed pass.
    pub frames: u32,
    /// Timed repetitions per row (best-of).
    pub reps: u32,
    /// The kernel tier runtime dispatch selected on this host.
    pub tier: String,
    /// Baseline + measured rows, in run order.
    pub rows: Vec<ThroughputRow>,
    /// Colour-conversion rows, one per kernel tier, scalar first.
    pub colour: Vec<ColourRow>,
}

annolight_support::impl_json!(struct PipelineThroughput { clip, frames, reps, tier, rows, colour });

/// Both colour conversions over the clip at one kernel tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ColourRow {
    /// The requested tier (clamped to the host inside the kernels).
    pub tier: String,
    /// Best-of-`reps` wall-clock of RGB→4:2:0 over every frame, ms.
    pub to_yuv_ms: f64,
    /// Best-of-`reps` wall-clock of 4:2:0→RGB over every frame, ms.
    pub to_rgb_ms: f64,
    /// Round trips (both directions) per second.
    pub frames_per_sec: f64,
    /// Round-trip speedup vs. the scalar oracle tier.
    pub speedup_vs_scalar: f64,
}

annolight_support::impl_json!(struct ColourRow { tier, to_yuv_ms, to_rgb_ms, frames_per_sec, speedup_vs_scalar });

/// The deterministic projection of the pipeline table: every
/// configuration's output digest collapsed into one value (they are all
/// byte-identical by construction). Unlike the wall-clock rows this is
/// exactly reproducible, so it snapshots byte-for-byte in
/// `figures_golden.rs` — any kernel-tier or scheduling change that
/// perturbs output bytes shows up as a golden diff.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConformance {
    /// Clip the pipeline ran on.
    pub clip: String,
    /// Frames per configuration pass.
    pub frames: u32,
    /// Every whole-clip configuration that was digested, in run order.
    pub configurations: Vec<String>,
    /// The single output digest shared by every whole-clip
    /// configuration (profile JSON + track RLE + compensated frame
    /// bytes + clip stats), as fixed-width hex.
    pub output_digest: String,
    /// Every batched multi-clip configuration that was digested
    /// (`workers=0` is the per-job serial reference the rest must
    /// match).
    pub batched_configurations: Vec<String>,
    /// The single output digest shared by every batched configuration,
    /// as fixed-width hex (per-job outputs concatenated in job order).
    pub batched_digest: String,
}

annolight_support::impl_json!(struct PipelineConformance { clip, frames, configurations, output_digest, batched_configurations, batched_digest });

/// [`FrameStats::of_frame`] with the histogram kernel pinned to `tier`.
fn frame_stats_at(index: u32, frame: &Frame, tier: KernelTier) -> FrameStats {
    let histogram = simd::luma_histogram(frame, tier);
    let max_luma = histogram.max_nonzero().unwrap_or(0);
    let mean_luma = histogram.mean();
    FrameStats { index, max_luma, mean_luma, histogram }
}

/// The legacy pipeline, stage for stage as the proxy ran it before the
/// parallel pipeline landed: clone-per-frame profiling scan, serial
/// planning, float compensation kernel.
fn legacy_pass(frames: &[Frame], fps: f64, device: &DeviceProfile, quality: QualityLevel) -> f64 {
    let mut work = frames.to_vec();
    let start = Instant::now();
    let profile = LuminanceProfile::of_frames(fps, work.iter().cloned())
        .expect("non-empty clip profiles");
    let annotated = Annotator::new(device.clone(), quality)
        .annotate_profile(&profile)
        .expect("non-empty profile annotates");
    let track = annotated.track();
    for (i, frame) in work.iter_mut().enumerate() {
        let entry = track.entry_at(i as u32).expect("track covers clip");
        contrast_enhance_float(frame, entry.compensation);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// The serial fixed-point pipeline with every per-pixel kernel pinned
/// to `tier` — `KernelTier::Scalar` reproduces the pre-SIMD LUT
/// pipeline exactly.
fn tiered_pass(
    frames: &[Frame],
    fps: f64,
    device: &DeviceProfile,
    quality: QualityLevel,
    tier: KernelTier,
) -> f64 {
    let mut work = frames.to_vec();
    let start = Instant::now();
    let stats: Vec<FrameStats> = work
        .iter()
        .enumerate()
        .map(|(i, f)| frame_stats_at(i as u32, f, tier))
        .collect();
    let profile = LuminanceProfile::from_stats(fps, stats).expect("non-empty clip profiles");
    let annotated = Annotator::new(device.clone(), quality)
        .annotate_profile(&profile)
        .expect("non-empty profile annotates");
    let track = annotated.track();
    for (i, frame) in work.iter_mut().enumerate() {
        let entry = track.entry_at(i as u32).expect("track covers clip");
        simd::compensation_apply(&CompensationLut::new(entry.compensation), frame, tier);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// The production pipeline at one worker count: chunked profiling scan,
/// parallel planning, dispatched (SIMD) LUT compensation.
fn pipeline_pass(frames: &[Frame], fps: f64, device: &DeviceProfile, quality: QualityLevel, workers: usize) -> f64 {
    let cfg = ParallelConfig::with_workers(workers);
    let mut work = frames.to_vec();
    let start = Instant::now();
    let profile = parallel::profile_frames(fps, &work, &cfg).expect("non-empty clip profiles");
    let annotated = Annotator::new(device.clone(), quality)
        .with_parallelism(cfg)
        .annotate_profile(&profile)
        .expect("non-empty profile annotates");
    parallel::compensate_frames(&mut work, annotated.track(), &cfg)
        .expect("track covers clip");
    start.elapsed().as_secs_f64() * 1e3
}

/// Splits `frames` into [`BATCHED_JOBS`] contiguous sub-clips.
fn split_jobs(frames: &[Frame]) -> Vec<Vec<Frame>> {
    let per = frames.len().div_ceil(BATCHED_JOBS).max(1);
    frames.chunks(per).map(<[Frame]>::to_vec).collect()
}

/// The batched multi-clip pipeline: the frame set split into
/// [`BATCHED_JOBS`] jobs, all profiled in one
/// [`parallel::profile_frames_batched`] dispatch, planned per job, and
/// compensated in one [`parallel::compensate_frames_batched`] dispatch.
fn batched_pass(frames: &[Frame], fps: f64, device: &DeviceProfile, quality: QualityLevel, workers: usize) -> f64 {
    let cfg = ParallelConfig::with_workers(workers);
    let mut clips = split_jobs(frames);
    let start = Instant::now();
    let profile_jobs: Vec<(f64, &[Frame])> =
        clips.iter().map(|c| (fps, c.as_slice())).collect();
    let profiles =
        parallel::profile_frames_batched(&profile_jobs, &cfg).expect("non-empty jobs profile");
    let annotated: Vec<_> = profiles
        .iter()
        .map(|p| {
            Annotator::new(device.clone(), quality)
                .with_parallelism(cfg)
                .annotate_profile(p)
                .expect("non-empty profile annotates")
        })
        .collect();
    let mut jobs: Vec<(&mut [Frame], &AnnotationTrack)> = clips
        .iter_mut()
        .zip(&annotated)
        .map(|(c, a)| (c.as_mut_slice(), a.track()))
        .collect();
    parallel::compensate_frames_batched(&mut jobs, &cfg).expect("tracks cover jobs");
    start.elapsed().as_secs_f64() * 1e3
}

/// Times RGB→4:2:0 and 4:2:0→RGB over `frames` at every kernel tier,
/// converting into reused buffers (the allocation-free forms the session
/// path uses).
fn colour_rows(frames: &[Frame], best: &dyn Fn(&dyn Fn() -> f64) -> f64) -> Vec<ColourRow> {
    let (w, h) = (frames[0].width(), frames[0].height());
    let yuv: Vec<Yuv420Frame> =
        frames.iter().map(|f| f.to_yuv420().expect("library clips have even dimensions")).collect();
    let mut rows: Vec<ColourRow> = Vec::new();
    for tier in KernelTier::ALL {
        let to_yuv_ms = best(&|| {
            let mut out = Yuv420Frame::new(w, h).expect("even dimensions");
            let start = Instant::now();
            for f in frames {
                Yuv420Frame::from_rgb_into_with(f, &mut out, tier).expect("geometry matches");
            }
            start.elapsed().as_secs_f64() * 1e3
        });
        let to_rgb_ms = best(&|| {
            let mut out = Frame::new(w, h);
            let start = Instant::now();
            for y in &yuv {
                y.to_rgb_into_with(&mut out, tier).expect("geometry matches");
            }
            start.elapsed().as_secs_f64() * 1e3
        });
        let ms = to_yuv_ms + to_rgb_ms;
        let scalar_ms = rows.first().map_or(ms, |r| r.to_yuv_ms + r.to_rgb_ms);
        rows.push(ColourRow {
            tier: tier.name().to_owned(),
            to_yuv_ms,
            to_rgb_ms,
            frames_per_sec: frames.len() as f64 / (ms / 1e3),
            speedup_vs_scalar: scalar_ms / ms,
        });
    }
    rows
}

/// Times the pipeline on a `preview_s`-second prefix of the *themovie*
/// profile clip (the paper's largest), best-of-`reps` per row.
pub fn run(preview_s: f64, reps: u32) -> PipelineThroughput {
    let reps = reps.max(1);
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("themovie is a library clip")
        .preview(preview_s);
    let device = DeviceProfile::ipaq_5555();
    let quality = QualityLevel::Q10;
    let frames: Vec<Frame> = clip.frames().collect();
    let n = frames.len() as u32;
    let fps = clip.fps();

    let best = |f: &dyn Fn() -> f64| (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min);

    let legacy_ms = best(&|| legacy_pass(&frames, fps, &device, quality));
    let lut_ms = best(&|| tiered_pass(&frames, fps, &device, quality, KernelTier::Scalar));
    let mut rows = Vec::new();
    let mut push = |label: String, workers: usize, ms: f64| {
        rows.push(ThroughputRow {
            label,
            workers,
            elapsed_ms: ms,
            frames_per_sec: f64::from(n) / (ms / 1e3),
            speedup: legacy_ms / ms,
            speedup_vs_lut: lut_ms / ms,
        });
    };
    push("serial (legacy float kernel)".to_owned(), 0, legacy_ms);
    push("serial LUT pipeline (scalar kernels)".to_owned(), 0, lut_ms);
    let tier = simd::kernel_tier();
    for workers in WORKER_COUNTS {
        let ms = best(&|| pipeline_pass(&frames, fps, &device, quality, workers));
        let label = if workers == 0 {
            format!("SIMD pipeline, inline ({} kernels)", tier.name())
        } else {
            format!("SIMD pipeline, {workers} workers ({} kernels)", tier.name())
        };
        push(label, workers, ms);
    }
    for workers in BATCHED_WORKER_COUNTS {
        let ms = best(&|| batched_pass(&frames, fps, &device, quality, workers));
        push(
            format!("batched SIMD pipeline, {workers} workers x {BATCHED_JOBS} clips"),
            workers,
            ms,
        );
    }
    let colour = colour_rows(&frames, &best);
    PipelineThroughput {
        clip: clip.name().to_owned(),
        frames: n,
        reps,
        tier: tier.name().to_owned(),
        rows,
        colour,
    }
}

/// Output digest of one pipeline pass: profile JSON + track RLE +
/// compensated frame bytes + per-frame clip stats, in frame order.
fn digest_output(
    profile: &LuminanceProfile,
    track: &AnnotationTrack,
    frames: &[Frame],
    stats: &[annolight_imgproc::ClipStats],
) -> u64 {
    let mut d = Digester::new();
    d.write(to_string(profile).as_bytes()).write(&track.to_rle_bytes());
    for f in frames {
        d.write(f.as_bytes());
    }
    for s in stats {
        d.write_u64(s.clipped_pixels)
            .write_u64(s.total_pixels)
            .write_f64(f64::from(s.max_overshoot));
    }
    d.finish()
}

/// Runs every pipeline configuration on a `preview_s`-second prefix of
/// *themovie* and collapses them into the golden-snapshotted
/// [`PipelineConformance`] projection. Panics if any configuration's
/// output bytes diverge from the first — the same byte-identity the
/// differential suites assert, enforced again at snapshot time.
pub fn conformance(preview_s: f64) -> PipelineConformance {
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("themovie is a library clip")
        .preview(preview_s);
    let device = DeviceProfile::ipaq_5555();
    let quality = QualityLevel::Q10;
    let frames: Vec<Frame> = clip.frames().collect();
    let fps = clip.fps();

    let mut configurations = Vec::new();
    let mut digests: Vec<u64> = Vec::new();

    // Tier-pinned serial passes. Unavailable tiers clamp to the best
    // available one inside the kernels, so the digests stay identical
    // on narrower hosts and the golden remains host-independent.
    for tier in [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2] {
        let mut work = frames.clone();
        let stats_vec: Vec<FrameStats> = work
            .iter()
            .enumerate()
            .map(|(i, f)| frame_stats_at(i as u32, f, tier))
            .collect();
        let profile =
            LuminanceProfile::from_stats(fps, stats_vec).expect("non-empty clip profiles");
        let annotated = Annotator::new(device.clone(), quality)
            .annotate_profile(&profile)
            .expect("non-empty profile annotates");
        let track = annotated.track();
        let stats: Vec<_> = work
            .iter_mut()
            .enumerate()
            .map(|(i, frame)| {
                let entry = track.entry_at(i as u32).expect("track covers clip");
                simd::compensation_apply(&CompensationLut::new(entry.compensation), frame, tier)
            })
            .collect();
        configurations.push(format!("serial, {} kernels", tier.name()));
        digests.push(digest_output(&profile, track, &work, &stats));
    }

    // The dispatched production pipeline at every worker count.
    for workers in WORKER_COUNTS {
        let cfg = ParallelConfig::with_workers(workers);
        let mut work = frames.clone();
        let profile =
            parallel::profile_frames(fps, &work, &cfg).expect("non-empty clip profiles");
        let annotated = Annotator::new(device.clone(), quality)
            .with_parallelism(cfg)
            .annotate_profile(&profile)
            .expect("non-empty profile annotates");
        let stats = parallel::compensate_frames(&mut work, annotated.track(), &cfg)
            .expect("track covers clip");
        configurations.push(format!("dispatched, workers={workers}"));
        digests.push(digest_output(&profile, annotated.track(), &work, &stats));
    }

    // The batched multi-clip scheduler: the frame set split into
    // independent sub-clip jobs, each profiled/planned/compensated as
    // its own clip, all scheduled onto one pool. `workers=0` runs the
    // batched entry points' per-job serial fallback and is the
    // reference the parallel pool shapes must match.
    let mut batched_configurations = Vec::new();
    let mut batched_digests: Vec<u64> = Vec::new();
    for workers in std::iter::once(0).chain(BATCHED_WORKER_COUNTS) {
        let cfg = ParallelConfig::with_workers(workers);
        let mut clips = split_jobs(&frames);
        let profile_jobs: Vec<(f64, &[Frame])> =
            clips.iter().map(|c| (fps, c.as_slice())).collect();
        let profiles = parallel::profile_frames_batched(&profile_jobs, &cfg)
            .expect("non-empty jobs profile");
        let annotated: Vec<_> = profiles
            .iter()
            .map(|p| {
                Annotator::new(device.clone(), quality)
                    .with_parallelism(cfg)
                    .annotate_profile(p)
                    .expect("non-empty profile annotates")
            })
            .collect();
        let mut jobs: Vec<(&mut [Frame], &AnnotationTrack)> = clips
            .iter_mut()
            .zip(&annotated)
            .map(|(c, a)| (c.as_mut_slice(), a.track()))
            .collect();
        let stats = parallel::compensate_frames_batched(&mut jobs, &cfg)
            .expect("tracks cover jobs");
        let mut d = Digester::new();
        for ((profile, a), (clip_frames, clip_stats)) in
            profiles.iter().zip(&annotated).zip(clips.iter().zip(&stats))
        {
            d.write_u64(digest_output(profile, a.track(), clip_frames, clip_stats));
        }
        batched_configurations.push(format!("batched, workers={workers} jobs={BATCHED_JOBS}"));
        batched_digests.push(d.finish());
    }

    let first = digests[0];
    for (cfg_label, d) in configurations.iter().zip(&digests) {
        assert_eq!(
            *d, first,
            "pipeline configuration `{cfg_label}` diverged from the serial scalar reference"
        );
    }
    let batched_first = batched_digests[0];
    for (cfg_label, d) in batched_configurations.iter().zip(&batched_digests) {
        assert_eq!(
            *d, batched_first,
            "pipeline configuration `{cfg_label}` diverged from the per-job serial reference"
        );
    }
    PipelineConformance {
        clip: clip.name().to_owned(),
        frames: frames.len() as u32,
        configurations,
        output_digest: format!("{first:#018x}"),
        batched_configurations,
        batched_digest: format!("{batched_first:#018x}"),
    }
}

/// Renders the throughput table as text.
pub fn render(t: &PipelineThroughput) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Pipeline throughput — {} ({} frames, best of {} reps, {} dispatch)\n\n",
        t.clip, t.frames, t.reps, t.tier
    ));
    let mut tbl = Table::new(["configuration", "elapsed (ms)", "frames/s", "speedup", "vs. LUT"]);
    for r in &t.rows {
        tbl.row([
            r.label.clone(),
            format!("{:.2}", r.elapsed_ms),
            format!("{:.0}", r.frames_per_sec),
            format!("{:.2}x", r.speedup),
            format!("{:.2}x", r.speedup_vs_lut),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(
        "\nEvery LUT/SIMD/batched row produces byte-identical output \
         (tests/parallel_identity.rs, tests/pipeline_identity.rs); rows \
         differ only in wall-clock.\n",
    );
    out.push_str("\nColour conversion (every frame, both directions)\n\n");
    let mut tbl = Table::new(["kernel tier", "RGB->YUV (ms)", "YUV->RGB (ms)", "frames/s", "vs. scalar"]);
    for r in &t.colour {
        tbl.row([
            r.tier.clone(),
            format!("{:.2}", r.to_yuv_ms),
            format!("{:.2}", r.to_rgb_ms),
            format!("{:.0}", r.frames_per_sec),
            format!("{:.2}x", r.speedup_vs_scalar),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(
        "\nEvery tier matches the scalar oracle on all 2^24 pixel inputs \
         (tests/pipeline_identity.rs).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_baselines_plus_all_measured_rows() {
        let t = run(0.6, 1);
        assert_eq!(
            t.rows.len(),
            2 + WORKER_COUNTS.len() + BATCHED_WORKER_COUNTS.len()
        );
        assert_eq!(t.rows[0].speedup, 1.0);
        assert_eq!(t.rows[1].speedup_vs_lut, 1.0);
        assert!(t.frames > 0);
        for r in &t.rows {
            assert!(r.elapsed_ms > 0.0, "{}: non-positive elapsed", r.label);
            assert!(r.frames_per_sec > 0.0, "{}: non-positive fps", r.label);
        }
        assert_eq!(t.colour.len(), KernelTier::ALL.len());
        assert_eq!(t.colour[0].speedup_vs_scalar, 1.0);
        for r in &t.colour {
            assert!(r.to_yuv_ms > 0.0 && r.to_rgb_ms > 0.0, "{}: non-positive elapsed", r.tier);
        }
        let rendered = render(&t);
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("Colour conversion"));
        assert!(rendered.contains("legacy float kernel"));
        assert!(rendered.contains("batched SIMD pipeline"));
    }

    #[test]
    fn conformance_covers_every_configuration_with_one_digest() {
        let c = conformance(0.6);
        assert_eq!(c.configurations.len(), 3 + WORKER_COUNTS.len());
        assert_eq!(c.batched_configurations.len(), 1 + BATCHED_WORKER_COUNTS.len());
        assert!(c.output_digest.starts_with("0x"));
        assert_eq!(c.output_digest.len(), 18, "fixed-width hex");
        assert_eq!(c.batched_digest.len(), 18, "fixed-width hex");
    }
}
