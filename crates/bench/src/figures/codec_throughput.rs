//! Codec fast-path throughput: reference float kernels vs. the
//! fixed-point AAN fast path, at several worker counts, and §4.3's
//! client cost beside the decode it rides on.
//!
//! Three stages are timed independently on a *themovie* preview:
//!
//! * **encode** — [`annolight_codec::Encoder::push_yuv_frames`]: AAN
//!   fDCT, fused quant, early-exit seeded motion search, word-level bit
//!   output, per-GOP fan-out;
//! * **decode** — [`annolight_codec::Decoder::decode_all_yuv`]:
//!   word-level bit input, fused dequant, AAN iDCT, per-GOP fan-out;
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
//!   SAD and the GOP fan-out never change output bytes
//!   (`crates/codec/tests/fastpath_identity.rs`);
//! * every *decode* row reconstructs **byte-identical frames** for a
//!   given kernel choice.
//!
//! The **client** section, kept apart from those rows, checks §4.3's
//! claim that the client's runtime work is negligible next to decoding:
//! it times the per-frame work of a 30 s track's client, its RLE parse
//! and an online client's per-frame histogram analysis, beside the
//! inline decode time per frame. Each loops at least 1 ms a pass.

use crate::table::Table;
use annolight_codec::motion::SearchMode;
use annolight_codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight_core::parallel::ParallelConfig;
use annolight_core::track::AnnotationMode;
use annolight_core::{AnnotationTrack, Annotator, LuminanceProfile, QualityLevel};
use annolight_display::{BacklightController, ControllerConfig, DeviceProfile};
use annolight_imgproc::Yuv420Frame;
use annolight_stream::Proxy;
use annolight_video::ClipLibrary;
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// §4.3's client cost, nanoseconds per operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientCost {
    /// Frames in the annotation track the client walks.
    pub track_frames: u32,
    /// The inline fast-path decode row, per frame.
    pub decode_ns_per_frame: f64,
    /// One [`AnnotationTrack::entry_at`] plus one [`BacklightController::request`].
    pub annotated_ns_per_frame: f64,
    /// The whole track's RLE parse, once per stream.
    pub track_parse_ns: f64,
    /// The online alternative: a frame's luma histogram plus its 10 % clip level.
    pub histogram_ns_per_frame: f64,
}

annolight_support::impl_json!(struct ClientCost {
    track_frames, decode_ns_per_frame, annotated_ns_per_frame, track_parse_ns,
    histogram_ns_per_frame
});

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
    /// §4.3's client cost beside the inline decode row.
    pub client: ClientCost,
}

annolight_support::impl_json!(struct CodecThroughput {
    clip, frames, macroblocks, reps, rows, client
});

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
    assert!(!stream.is_empty());
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

/// Nanoseconds per call of `op`: best of `reps` passes, each making as
/// many calls as the first pass that lasted 1 ms, so the figure sits far
/// above `Instant`'s resolution.
fn ns_per_call(reps: u32, mut op: impl FnMut()) -> f64 {
    let mut pass = |calls: u32| {
        let start = Instant::now();
        (0..calls).for_each(|_| op());
        start.elapsed()
    };
    let mut calls = 1;
    while pass(calls) < Duration::from_millis(1) {
        calls *= 2;
    }
    let ns = |elapsed: Duration| elapsed.as_secs_f64() * 1e9 / f64::from(calls);
    (0..reps).map(|_| ns(pass(calls))).fold(f64::INFINITY, f64::min)
}

/// Times §4.3's client work on a 30 s *themovie* track (iPAQ 5555, Q10).
fn client_cost(decode_ns_per_frame: f64, reps: u32) -> ClientCost {
    let clip = ClipLibrary::paper_clip("themovie").expect("a library clip").preview(30.0);
    let profile = LuminanceProfile::of_clip(&clip).expect("library clips have frames");
    let annotator = Annotator::new(DeviceProfile::ipaq_5555(), QualityLevel::Q10);
    let annotated = annotator.annotate_profile(&profile).expect("library clips annotate");
    let (track, frames) = (annotated.track(), annotated.track().frame_count());
    // One call plays the whole track; the controller's clock runs on.
    let (mut controller, mut now) = (BacklightController::new(ControllerConfig::default()), 0.0);
    let dt = 1.0 / track.fps();
    let per_track_ns = ns_per_call(reps, || {
        for f in 0..frames {
            let entry = track.entry_at(black_box(f)).expect("frame within the track");
            black_box(controller.request(now, entry.backlight));
            now += dt;
        }
    });
    let (bytes, frame) = (track.to_rle_bytes(), clip.frame(0));
    ClientCost {
        track_frames: frames,
        decode_ns_per_frame,
        annotated_ns_per_frame: per_track_ns / f64::from(frames),
        track_parse_ns: ns_per_call(reps, || {
            black_box(AnnotationTrack::from_rle_bytes(black_box(&bytes)).expect("own bytes parse"));
        }),
        histogram_ns_per_frame: ns_per_call(reps, || {
            black_box(black_box(&frame).luma_histogram().clip_level(0.10));
        }),
    }
}

/// Times encode, decode and proxy transcode on a `preview_s`-second
/// prefix of the *themovie* profile clip, best-of-`reps` per row, then
/// §4.3's client cost beside the inline decode row.
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

    let inline_decode = inline_row(&rows, "decode");
    let client = client_cost(inline_decode.elapsed_ms * 1e6 / f64::from(n), reps);

    CodecThroughput { clip: clip.name().to_owned(), frames: n, macroblocks, reps, rows, client }
}

/// The inline fast-path row of `stage` (`encode`, `decode` or
/// `transcode`).
///
/// # Panics
///
/// Panics if `rows` has no such row.
pub fn inline_row<'a>(rows: &'a [CodecRow], stage: &str) -> &'a CodecRow {
    rows.iter()
        .find(|r| r.stage == stage && r.workers == 0 && r.label.starts_with("fast path"))
        .unwrap_or_else(|| panic!("no inline fast-path {stage} row"))
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

    let c = &t.client;
    out.push_str(&format!("\nClient cost (§4.3), {}-frame annotated track\n\n", c.track_frames));
    let mut tbl = Table::new(["operation", "per", "ns", "% of a decoded frame"]);
    for (op, per, ns) in [
        ("annotated client: entry_at + controller request", "frame", c.annotated_ns_per_frame),
        ("annotated client: whole-track RLE parse", "stream", c.track_parse_ns),
        ("online alternative: histogram + clip_level(0.10)", "frame", c.histogram_ns_per_frame),
        ("inline fast-path decode", "frame", c.decode_ns_per_frame),
    ] {
        let pct = 100.0 * ns / c.decode_ns_per_frame;
        tbl.row([op.to_owned(), per.to_owned(), format!("{ns:.1}"), format!("{pct:.3} %")]);
    }
    out.push_str(&tbl.render());
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

    #[test]
    fn client_section_times_every_operation() {
        let c = client_cost(1e5, 1);
        assert_eq!(c.track_frames, 360, "30 s at 12 fps");
        for ns in [c.annotated_ns_per_frame, c.track_parse_ns, c.histogram_ns_per_frame] {
            assert!(ns.is_finite() && ns > 0.0, "non-positive time {ns}");
        }
    }
}
