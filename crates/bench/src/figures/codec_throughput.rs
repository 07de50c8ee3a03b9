//! Codec fast-path throughput: reference float kernels vs. the
//! fixed-point AAN fast path, at several worker counts (this PR's
//! tentpole).
//!
//! Three stages are timed independently on a *themovie* preview:
//!
//! * **encode** — [`annolight_codec::Encoder::push_yuv_frames`]: AAN
//!   fDCT, fused quant, early-exit seeded motion search, word-level bit
//!   output, per-band and per-GOP fan-out;
//! * **decode** — [`annolight_codec::Decoder::decode_all_yuv`]:
//!   word-level bit input, fused dequant, AAN iDCT, per-band and
//!   per-GOP fan-out;
//! * **transcode** — the full [`annolight_stream::Proxy`] decode →
//!   profile → annotate → compensate → re-encode loop.
//!
//! Encode and decode are timed in the codec's native planar 4:2:0
//! domain: the float RGB↔YUV conversion is identical work on both
//! paths (it happens before any codec kernel runs) and would otherwise
//! dilute the kernel comparison, so it is hoisted out of the timed
//! region — standard codec benchmarking practice.
//!
//! The baseline row of each stage runs the **whole retained reference
//! path** — float matrix DCT/quant kernels, bit-at-a-time entropy I/O,
//! per-pixel clamped motion compensation and unpruned exhaustive SAD —
//! on the inline serial path: the exact pre-fast-path pipeline.
//! Measured rows run the fast path at worker counts {0, 1, 2, 4}.
//! Throughput is reported in macroblocks per second (16×16 luma
//! blocks; the natural unit of codec work).
//!
//! Two invariants make the table honest (both proven elsewhere):
//!
//! * every *encode* row — reference or fast, any worker count — emits a
//!   **byte-identical bitstream** for a given kernel choice; early-exit
//!   SAD and the band/GOP fan-out never change output bytes
//!   (`crates/codec/tests/fastpath_identity.rs`);
//! * every *decode* row reconstructs **byte-identical frames** for a
//!   given kernel choice.

use crate::table::Table;
use annolight_codec::motion::SearchMode;
use annolight_codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight_core::parallel::ParallelConfig;
use annolight_core::track::AnnotationMode;
use annolight_core::QualityLevel;
use annolight_display::DeviceProfile;
use annolight_imgproc::Yuv420Frame;
use annolight_stream::Proxy;
use annolight_video::ClipLibrary;
use std::time::Instant;

/// Worker counts exercised by the fast-path rows (0 = inline serial).
pub const WORKER_COUNTS: [usize; 4] = [0, 1, 2, 4];

/// One timed codec configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecRow {
    /// Stage: `encode`, `decode` or `transcode`.
    pub stage: String,
    /// Human-readable configuration label.
    pub label: String,
    /// Worker threads (0 = inline).
    pub workers: usize,
    /// Best-of-`reps` wall-clock, milliseconds.
    pub elapsed_ms: f64,
    /// Throughput in 16×16 macroblocks per second.
    pub mb_per_sec: f64,
    /// Speedup vs. the stage's reference-kernel serial baseline.
    pub speedup: f64,
}

annolight_support::impl_json!(struct CodecRow { stage, label, workers, elapsed_ms, mb_per_sec, speedup });

/// The codec throughput table for one clip.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecThroughput {
    /// Clip the codec ran on.
    pub clip: String,
    /// Frames per timed pass.
    pub frames: u32,
    /// Macroblocks per timed pass (frames × mb columns × mb rows).
    pub macroblocks: u64,
    /// Timed repetitions per row (best-of).
    pub reps: u32,
    /// Baseline + measured rows for every stage, in run order.
    pub rows: Vec<CodecRow>,
}

annolight_support::impl_json!(struct CodecThroughput { clip, frames, macroblocks, reps, rows });

fn encoder(cfg: EncoderConfig, reference: bool, workers: usize) -> Encoder {
    let enc = Encoder::new(cfg).expect("valid bench encoder config");
    if reference {
        enc.with_reference_kernels(true).with_search_mode(SearchMode::Exhaustive)
    } else {
        enc.with_parallelism(ParallelConfig::with_workers(workers))
    }
}

fn encode_pass(frames: &[Yuv420Frame], cfg: EncoderConfig, reference: bool, workers: usize) -> f64 {
    let mut enc = encoder(cfg, reference, workers);
    let start = Instant::now();
    enc.push_yuv_frames(frames).expect("bench frames match config");
    let stream = enc.finish();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(stream.len() > 0);
    ms
}

fn decode_pass(stream: &EncodedStream, reference: bool, workers: usize) -> f64 {
    let mut dec = Decoder::new(stream).expect("bench stream parses");
    dec = if reference {
        dec.with_reference_kernels(true)
    } else {
        dec.with_parallelism(ParallelConfig::with_workers(workers))
    };
    let start = Instant::now();
    let frames = dec.decode_all_yuv().expect("bench stream decodes");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(!frames.is_empty());
    ms
}

fn transcode_pass(input: &EncodedStream, cfg: EncoderConfig, workers: usize) -> f64 {
    let proxy =
        Proxy::new(cfg).with_parallelism(ParallelConfig::with_workers(workers));
    let start = Instant::now();
    let out = proxy
        .transcode(input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
        .expect("bench transcode succeeds");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(out.frame_count(), input.frame_count());
    ms
}

/// Times encode, decode and proxy transcode on a `preview_s`-second
/// prefix of the *themovie* profile clip, best-of-`reps` per row.
pub fn run(preview_s: f64, reps: u32) -> CodecThroughput {
    let reps = reps.max(1);
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("themovie is a library clip")
        .preview(preview_s);
    let (w, h) = clip.dimensions();
    let frames: Vec<Yuv420Frame> = clip
        .frames()
        .map(|f| f.to_yuv420().expect("library clips have even dimensions"))
        .collect();
    let n = frames.len() as u32;
    let macroblocks = u64::from(n) * u64::from(w / 16) * u64::from(h / 16);
    let cfg = EncoderConfig { width: w, height: h, fps: clip.fps(), ..EncoderConfig::default() };

    let best = |f: &dyn Fn() -> f64| (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min);
    let mut rows = Vec::new();
    let mut stage = |stage: &str, baseline_label: &str, baseline: &dyn Fn() -> f64, fast: &dyn Fn(usize) -> f64| {
        let base_ms = best(baseline);
        rows.push(CodecRow {
            stage: stage.to_owned(),
            label: baseline_label.to_owned(),
            workers: 0,
            elapsed_ms: base_ms,
            mb_per_sec: macroblocks as f64 / (base_ms / 1e3),
            speedup: 1.0,
        });
        for workers in WORKER_COUNTS {
            let ms = best(&|| fast(workers));
            rows.push(CodecRow {
                stage: stage.to_owned(),
                label: if workers == 0 {
                    "fast path, inline".to_owned()
                } else {
                    format!("fast path, {workers} workers")
                },
                workers,
                elapsed_ms: ms,
                mb_per_sec: macroblocks as f64 / (ms / 1e3),
                speedup: base_ms / ms,
            });
        }
    };

    stage(
        "encode",
        "reference path (float kernels, bitwise I/O, exhaustive SAD), serial",
        &|| encode_pass(&frames, cfg, true, 0),
        &|workers| encode_pass(&frames, cfg, false, workers),
    );

    // Every fast-path encode row emits these bytes, whatever its worker
    // count (the reference path's float kernels emit a close but
    // different stream); this one stream feeds every decode and
    // transcode row.
    let mut enc = Encoder::new(cfg).expect("valid bench encoder config");
    enc.push_yuv_frames(&frames).expect("bench frames match config");
    let stream = enc.finish();

    stage(
        "decode",
        "reference path (float kernels, bitwise I/O), serial",
        &|| decode_pass(&stream, true, 0),
        &|workers| decode_pass(&stream, false, workers),
    );
    stage(
        "transcode",
        "proxy, serial pipeline",
        &|| transcode_pass(&stream, cfg, 0),
        &|workers| transcode_pass(&stream, cfg, workers),
    );

    CodecThroughput { clip: clip.name().to_owned(), frames: n, macroblocks, reps, rows }
}

/// Renders the codec throughput table as text.
pub fn render(t: &CodecThroughput) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Codec throughput — {} ({} frames, {} macroblocks, best of {} reps)\n\n",
        t.clip, t.frames, t.macroblocks, t.reps
    ));
    let mut tbl = Table::new(["stage", "configuration", "elapsed (ms)", "MB/s", "speedup"]);
    for r in &t.rows {
        tbl.row([
            r.stage.clone(),
            r.label.clone(),
            format!("{:.2}", r.elapsed_ms),
            format!("{:.0}", r.mb_per_sec),
            format!("{:.2}x", r.speedup),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str(
        "\nEvery encode row emits a byte-identical bitstream per kernel \
         choice, every decode row byte-identical frames \
         (crates/codec/tests/fastpath_identity.rs); rows differ only in \
         wall-clock.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_every_stage_and_worker_row() {
        let t = run(0.6, 1);
        assert_eq!(t.rows.len(), 3 * (1 + WORKER_COUNTS.len()));
        assert!(t.macroblocks > 0);
        for stage in ["encode", "decode", "transcode"] {
            let stage_rows: Vec<&CodecRow> = t.rows.iter().filter(|r| r.stage == stage).collect();
            assert_eq!(stage_rows.len(), 1 + WORKER_COUNTS.len(), "{stage}");
            assert_eq!(stage_rows[0].speedup, 1.0, "{stage} baseline");
            for r in &stage_rows {
                assert!(r.elapsed_ms > 0.0, "{}: non-positive elapsed", r.label);
                assert!(r.mb_per_sec > 0.0, "{}: non-positive MB/s", r.label);
            }
        }
        let rendered = render(&t);
        assert!(rendered.contains("reference path"));
        assert!(rendered.contains("fast path"));
    }
}
