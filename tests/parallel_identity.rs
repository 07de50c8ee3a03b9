//! Differential byte-identity suite for the parallel pipeline (PR 4's
//! headline guarantee).
//!
//! For every paper clip × quality level × worker count, the parallel
//! profiling → planning → compensation pipeline must produce output
//! **byte-identical** to the `workers == 0` inline serial reference:
//!
//! * the luminance profile (JSON document, which pins every histogram
//!   bin and per-frame statistic),
//! * the annotation track (JSON document *and* RLE wire bytes), and
//! * every compensated frame's RGB bytes.
//!
//! A seeded `check!` property extends the fixed matrix to randomized
//! synthetic clips, chunk sizes and worker counts
//! (`ANNOLIGHT_CHECK_SEED=<seed>` replays a failure exactly).
//!
//! When `ANNOLIGHT_IDENTITY_LOG` names a file, each configuration
//! appends a `clip quality workers chunk digest` line to it; CI runs the
//! suite twice with a fixed seed and `cmp`s the two logs to prove the
//! whole suite is deterministic end to end (see `scripts/ci.sh`).

use annolight::core::digest::Digester;
use annolight::core::parallel::{self, ParallelConfig};
use annolight::core::{Annotator, QualityLevel};
use annolight::display::DeviceProfile;
use annolight::imgproc::Frame;
use annolight::video::library::PAPER_CLIP_NAMES;
use annolight::video::{Clip, ClipLibrary, ClipSpec, ContentKind, SceneSpec};
use annolight_support::json::to_string;

/// Worker counts under test: 0 is the inline serial reference.
const WORKER_COUNTS: [usize; 5] = [0, 1, 2, 4, 7];

/// Preview length for the fixed matrix: long enough for several scenes
/// and chunk boundaries, short enough that 10 clips × 5 qualities × 5
/// worker counts stay cheap.
const PREVIEW_S: f64 = 1.25;

/// Everything the pipeline emits for one configuration.
struct PipelineOutput {
    profile_json: String,
    track_json: String,
    track_rle: Vec<u8>,
    frames: Vec<Frame>,
}

impl PipelineOutput {
    /// Order-sensitive FNV digest over every emitted byte.
    fn digest(&self) -> u64 {
        let mut d = Digester::new();
        d.write(self.profile_json.as_bytes())
            .write(self.track_json.as_bytes())
            .write(&self.track_rle);
        for f in &self.frames {
            d.write(f.as_bytes());
        }
        d.finish()
    }
}

/// Runs profile → plan → compensate with `cfg` parallelism.
fn run_pipeline(clip: &Clip, quality: QualityLevel, cfg: &ParallelConfig) -> PipelineOutput {
    let profile = parallel::profile_clip(clip, cfg).expect("non-empty clip profiles");
    let annotated = Annotator::new(DeviceProfile::ipaq_5555(), quality)
        .with_parallelism(*cfg)
        .annotate_profile(&profile)
        .expect("non-empty profile annotates");
    let track = annotated.track();
    let mut frames: Vec<Frame> = clip.frames().collect();
    parallel::compensate_frames(&mut frames, track, cfg).expect("track covers clip");
    PipelineOutput {
        profile_json: to_string(&profile),
        track_json: to_string(track),
        track_rle: track.to_rle_bytes(),
        frames,
    }
}

/// Appends one digest line to `$ANNOLIGHT_IDENTITY_LOG`, if set. CI
/// diffs two runs' logs to pin end-to-end determinism.
fn log_digest(clip: &str, quality: QualityLevel, cfg: &ParallelConfig, digest: u64) {
    if let Ok(path) = std::env::var("ANNOLIGHT_IDENTITY_LOG") {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("identity log path is writable");
        writeln!(
            f,
            "{clip} {quality:?} workers={} chunk={} {digest:#018x}",
            cfg.workers, cfg.chunk_frames
        )
        .expect("identity log write");
    }
}

/// Asserts two pipeline outputs are byte-identical, with a precise
/// failure message naming the first diverging artefact.
fn assert_identical(reference: &PipelineOutput, got: &PipelineOutput, what: &str) {
    assert_eq!(reference.profile_json, got.profile_json, "{what}: profile JSON diverged");
    assert_eq!(reference.track_json, got.track_json, "{what}: track JSON diverged");
    assert_eq!(reference.track_rle, got.track_rle, "{what}: track RLE bytes diverged");
    assert_eq!(reference.frames.len(), got.frames.len(), "{what}: frame count diverged");
    for (i, (a, b)) in reference.frames.iter().zip(&got.frames).enumerate() {
        assert_eq!(a.as_bytes(), b.as_bytes(), "{what}: frame {i} bytes diverged");
    }
}

/// The fixed matrix: every paper clip × every paper quality level ×
/// every worker count, compared byte-for-byte against the serial
/// reference.
#[test]
fn every_clip_quality_and_worker_count_matches_serial() {
    for name in PAPER_CLIP_NAMES {
        let clip = ClipLibrary::paper_clip(name)
            .expect("library names are all known")
            .preview(PREVIEW_S);
        for quality in QualityLevel::PAPER_LEVELS {
            let serial_cfg = ParallelConfig::serial();
            let reference = run_pipeline(&clip, quality, &serial_cfg);
            log_digest(name, quality, &serial_cfg, reference.digest());
            for workers in WORKER_COUNTS {
                if workers == 0 {
                    continue; // that *is* the reference
                }
                let cfg = ParallelConfig::with_workers(workers);
                let got = run_pipeline(&clip, quality, &cfg);
                log_digest(name, quality, &cfg, got.digest());
                assert_identical(
                    &reference,
                    &got,
                    &format!("{name} {quality:?} workers={workers}"),
                );
            }
        }
    }
}

/// Chunk granularity must never leak into output bytes — including
/// pathological sizes (1 frame per chunk, chunk larger than the clip)
/// and chunk edges that do not align with scene boundaries.
#[test]
fn chunk_size_never_affects_output_bytes() {
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("library names are all known")
        .preview(2.0);
    let quality = QualityLevel::Q10;
    let reference = run_pipeline(&clip, quality, &ParallelConfig::serial());
    for workers in [1, 2, 4, 7] {
        for chunk in [1, 3, 5, 16, 10_000] {
            let cfg = ParallelConfig::with_workers(workers).with_chunk_frames(chunk);
            let got = run_pipeline(&clip, quality, &cfg);
            log_digest("themovie", quality, &cfg, got.digest());
            assert_identical(&reference, &got, &format!("workers={workers} chunk={chunk}"));
        }
    }
}

annolight_support::check! {
    /// Randomized differential property: synthetic clips with random
    /// scene structure, random quality, random worker count and chunk
    /// size — output must match the serial reference byte for byte.
    fn randomized_pipeline_matches_serial(g) {
        let n_scenes = g.draw(1..4usize);
        let seed: u64 = g.any::<u32>() as u64;
        let scenes: Vec<SceneSpec> = (0..n_scenes)
            .map(|_| {
                let content = match g.draw(0..3u32) {
                    0 => ContentKind::Dark {
                        base: g.draw(20..70u8),
                        spread: g.draw(2..18u8),
                        highlight_fraction: g.draw(0.0f64..0.05),
                        highlight: g.draw(180..=255u8),
                    },
                    1 => ContentKind::Bright {
                        base: g.draw(180..240u8),
                        spread: g.draw(2..30u8),
                    },
                    _ => ContentKind::Mid {
                        base: g.draw(80..160u8),
                        spread: g.draw(2..40u8),
                        highlight_fraction: g.draw(0.0f64..0.08),
                    },
                };
                SceneSpec::new(content, g.draw(0.3f64..1.2))
            })
            .collect();
        let clip = Clip::new(ClipSpec {
            name: "prop".into(),
            width: 32,
            height: 32,
            fps: 8.0,
            seed,
            scenes,
        })
        .expect("generated specs are valid");
        let quality = QualityLevel::PAPER_LEVELS[g.draw(0..5usize)];
        let reference = run_pipeline(&clip, quality, &ParallelConfig::serial());
        let cfg = ParallelConfig::with_workers(g.draw(1..8usize))
            .with_chunk_frames(g.draw(1..24usize));
        let got = run_pipeline(&clip, quality, &cfg);
        log_digest("prop", quality, &cfg, got.digest());
        assert_identical(
            &reference,
            &got,
            &format!("seed={seed} workers={} chunk={}", cfg.workers, cfg.chunk_frames),
        );
    }
}
