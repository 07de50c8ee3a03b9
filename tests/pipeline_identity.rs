//! Differential byte-identity suite for the SIMD + batched frame hot
//! path.
//!
//! Five guarantees, each checked against its serial/scalar oracle:
//!
//! * **kernel tiers** — `luma_histogram`, `CompensationLut` application
//!   and the HEBS remap produce byte-identical frames, stats and
//!   histograms at every [`KernelTier`] (unavailable tiers clamp to the
//!   best available one, so the suite is meaningful on any host);
//! * **colour conversion** — both 4:2:0 ↔ RGB directions match the
//!   per-pixel oracles [`Yuv8::to_rgb`] / [`Rgb8::to_yuv`] at every tier:
//!   on all 2²⁴ pixel inputs in release builds (a strided sweep in the
//!   `opt-level = 1` test profile), on ragged widths and on random
//!   frames;
//! * **playback** — the client's YUV-only decode loop reports
//!   byte-identically to the loop that decoded every picture to RGB;
//! * **batched scheduling** — `Proxy::transcode_batch` returns streams
//!   byte-identical to per-clip `Proxy::transcode` at every worker
//!   count, and the batched core profiling/compensation dispatchers
//!   match their per-job serial references;
//! * **ragged geometries** — a seeded `check!` property extends the
//!   fixed matrix to random frame sizes (including widths that do not
//!   fill a single SIMD lane group), random compensation factors
//!   (including the `k ≥ 128` scalar-fallback region) and random HEBS
//!   effective maxima.
//!
//! When `ANNOLIGHT_PIPELINE_LOG` names a file, each configuration
//! appends a digest line to it; CI runs the suite twice with a fixed
//! seed and `cmp`s the two logs to prove the tier is deterministic end
//! to end (see `scripts/ci.sh`).

use annolight::core::digest::Digester;
use annolight::core::extensions;
use annolight::core::parallel::ParallelConfig;
use annolight::core::track::{AnnotationMode, AnnotationTrack};
use annolight::core::{PolicyKind, QualityLevel};
use annolight::display::{BacklightController, BacklightLevel, ControllerConfig, DeviceProfile};
use annolight::imgproc::simd;
use annolight::imgproc::{
    ClipStats, CompensationLut, Frame, HebsLut, KernelTier, Rgb8, Yuv420Frame, Yuv8,
};
use annolight::power::SystemPowerModel;
use annolight::stream::{
    AnnotationArrivals, DegradationConfig, MediaServer, PlaybackClient, PlaybackReport, Proxy,
    ServeRequest, TranscodeRequest,
};
use annolight::video::library::PAPER_CLIP_NAMES;
use annolight::video::ClipLibrary;
use annolight_codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight_support::json::to_string;

/// Worker counts for the batched-scheduling matrix: 0 is the serial
/// reference.
const WORKER_COUNTS: [usize; 5] = [0, 1, 2, 4, 7];

/// Every tier under test; tiers the host lacks clamp to the best
/// available one inside the kernels, which must still be
/// byte-identical.
const TIERS: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2];

/// Appends one digest line to `$ANNOLIGHT_PIPELINE_LOG`, if set. CI
/// diffs two runs' logs to pin end-to-end determinism.
fn log_digest(what: &str, digest: u64) {
    if let Ok(path) = std::env::var("ANNOLIGHT_PIPELINE_LOG") {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("pipeline log path is writable");
        writeln!(f, "{what} {digest:#018x}").expect("pipeline log write");
    }
}

/// Digest over a compensated frame plus its clip stats.
fn digest_frame_stats(frame: &Frame, stats: &ClipStats) -> u64 {
    let mut d = Digester::new();
    d.write(frame.as_bytes())
        .write_u64(stats.clipped_pixels)
        .write_u64(stats.total_pixels)
        .write_f64(f64::from(stats.max_overshoot));
    d.finish()
}

/// A deterministic synthetic frame with gradients crossing every lane
/// boundary.
fn test_frame(w: u32, h: u32, seed: u32) -> Frame {
    Frame::from_fn(w, h, |x, y| {
        let v = x.wrapping_mul(7).wrapping_add(y.wrapping_mul(13)).wrapping_add(seed);
        [(v % 251) as u8, (v.wrapping_mul(3) % 241) as u8, (v.wrapping_mul(5) % 256) as u8]
    })
}

/// Fixed matrix: histogram + compensation + HEBS at every tier on real
/// paper-clip frames, byte-compared against the scalar oracle.
#[test]
fn kernel_tiers_match_scalar_oracle_on_paper_clips() {
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("library names are all known")
        .preview(1.0);
    let frames: Vec<Frame> = clip.frames().collect();
    for k in [0.9_f32, 1.31, 2.4] {
        let lut = CompensationLut::new(k);
        for (i, frame) in frames.iter().enumerate() {
            let ref_hist = simd::luma_histogram(frame, KernelTier::Scalar);
            let mut ref_frame = frame.clone();
            let ref_stats = lut.apply_scalar(&mut ref_frame);
            let hebs = HebsLut::from_histogram(&ref_hist, ref_hist.max_nonzero().unwrap_or(0));
            let mut ref_hebs_frame = frame.clone();
            let ref_hebs_stats = hebs.apply_scalar(&mut ref_hebs_frame);
            for tier in TIERS {
                let hist = simd::luma_histogram(frame, tier);
                assert_eq!(hist, ref_hist, "histogram tier={tier:?} frame={i} k={k}");
                let mut got = frame.clone();
                let stats = simd::compensation_apply(&lut, &mut got, tier);
                assert_eq!(got.as_bytes(), ref_frame.as_bytes(), "lut tier={tier:?} frame={i} k={k}");
                assert_eq!(stats, ref_stats, "lut stats tier={tier:?} frame={i} k={k}");
                let mut got_hebs = frame.clone();
                let hebs_stats = simd::hebs_apply(&hebs, &mut got_hebs, tier);
                assert_eq!(
                    got_hebs.as_bytes(),
                    ref_hebs_frame.as_bytes(),
                    "hebs tier={tier:?} frame={i}"
                );
                assert_eq!(hebs_stats, ref_hebs_stats, "hebs stats tier={tier:?} frame={i}");
                log_digest(
                    &format!("kernels clip=themovie frame={i} k={k} tier={}", tier.name()),
                    digest_frame_stats(&got, &stats) ^ digest_frame_stats(&got_hebs, &hebs_stats),
                );
            }
        }
    }
}

/// Ragged geometries that do not fill one SSE (16-byte) or AVX
/// (32-byte) lane group — the tails must route through the same scalar
/// epilogue bytes.
#[test]
fn kernel_tiers_match_on_ragged_geometries() {
    let lut = CompensationLut::new(1.47);
    for (w, h) in [(1, 1), (2, 3), (5, 1), (7, 2), (9, 3), (11, 5), (15, 4), (17, 1), (33, 2)] {
        let frame = test_frame(w, h, 3 * w + h);
        let ref_hist = simd::luma_histogram(&frame, KernelTier::Scalar);
        let mut ref_frame = frame.clone();
        let ref_stats = lut.apply_scalar(&mut ref_frame);
        for tier in TIERS {
            assert_eq!(
                simd::luma_histogram(&frame, tier),
                ref_hist,
                "histogram tier={tier:?} {w}x{h}"
            );
            let mut got = frame.clone();
            let stats = simd::compensation_apply(&lut, &mut got, tier);
            assert_eq!(got.as_bytes(), ref_frame.as_bytes(), "lut tier={tier:?} {w}x{h}");
            assert_eq!(stats, ref_stats, "lut stats tier={tier:?} {w}x{h}");
            log_digest(
                &format!("ragged {w}x{h} tier={}", tier.name()),
                digest_frame_stats(&got, &stats),
            );
        }
    }
}

/// The batched proxy scheduler inherits the guarantee: transcode_batch
/// output is byte-identical to per-clip transcode for every pool size.
#[test]
fn transcode_batch_matches_per_clip_transcode() {
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("library names are all known")
        .preview(1.5);
    let (w, h) = clip.dimensions();
    let mut enc = Encoder::new(EncoderConfig {
        width: w,
        height: h,
        fps: clip.fps(),
        ..EncoderConfig::default()
    })
    .expect("library clip dimensions are codec-valid");
    for f in clip.frames() {
        enc.push_frame(&f).expect("frames match encoder geometry");
    }
    let input = enc.finish();
    let requests = [
        TranscodeRequest {
            input: &input,
            device: &DeviceProfile::ipaq_5555(),
            quality: QualityLevel::Q10,
            mode: AnnotationMode::PerScene,
        },
        TranscodeRequest {
            input: &input,
            device: &DeviceProfile::zaurus_sl5600(),
            quality: QualityLevel::Q5,
            mode: AnnotationMode::PerScene,
        },
    ];
    let serial = Proxy::new(EncoderConfig::default());
    let reference: Vec<_> = requests
        .iter()
        .map(|r| {
            serial
                .transcode(r.input, r.device, r.quality, r.mode)
                .expect("serial transcode succeeds")
        })
        .collect();
    for workers in WORKER_COUNTS {
        let proxy = Proxy::new(EncoderConfig::default())
            .with_parallelism(ParallelConfig::with_workers(workers));
        let got = proxy.transcode_batch(&requests).expect("batched transcode succeeds");
        let mut d = Digester::new();
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(
                g.as_bytes(),
                r.as_bytes(),
                "transcode_batch workers={workers} diverged from per-clip transcode"
            );
            d.write(g.as_bytes());
        }
        log_digest(&format!("transcode_batch workers={workers}"), d.finish());
    }
}

annolight_support::check! {
    /// Randomized kernel-tier property: random geometry (including
    /// single-pixel and lane-straddling widths), random content, random
    /// compensation factor — including the `k >= 128` region where the
    /// vector kernels must fall back to the scalar path — and a random
    /// HEBS effective maximum. Every tier must match the scalar oracle
    /// byte for byte.
    fn randomized_kernels_match_scalar_oracle(g) {
        let w = g.draw(1..48u32);
        let h = g.draw(1..32u32);
        let seed: u32 = g.any::<u32>();
        let frame = test_frame(w, h, seed);
        let k = if g.draw(0..8u32) == 0 {
            g.draw(128.0f32..300.0) // vector kernels must take the scalar fallback
        } else {
            g.draw(0.1f32..8.0)
        };
        let lut = CompensationLut::new(k);
        let ref_hist = simd::luma_histogram(&frame, KernelTier::Scalar);
        let mut ref_frame = frame.clone();
        let ref_stats = lut.apply_scalar(&mut ref_frame);
        let eff = g.draw(0..=255u8);
        let hebs = HebsLut::from_histogram(&ref_hist, eff);
        let mut ref_hebs_frame = frame.clone();
        let ref_hebs_stats = hebs.apply_scalar(&mut ref_hebs_frame);
        for tier in TIERS {
            let hist = simd::luma_histogram(&frame, tier);
            assert_eq!(hist, ref_hist, "histogram {w}x{h} seed={seed} tier={tier:?}");
            let mut got = frame.clone();
            let stats = simd::compensation_apply(&lut, &mut got, tier);
            assert_eq!(
                got.as_bytes(),
                ref_frame.as_bytes(),
                "lut {w}x{h} seed={seed} k={k} tier={tier:?}"
            );
            assert_eq!(stats, ref_stats, "lut stats {w}x{h} seed={seed} k={k} tier={tier:?}");
            let mut got_hebs = frame.clone();
            let hebs_stats = simd::hebs_apply(&hebs, &mut got_hebs, tier);
            assert_eq!(
                got_hebs.as_bytes(),
                ref_hebs_frame.as_bytes(),
                "hebs {w}x{h} seed={seed} eff={eff} tier={tier:?}"
            );
            assert_eq!(
                hebs_stats, ref_hebs_stats,
                "hebs stats {w}x{h} seed={seed} eff={eff} tier={tier:?}"
            );
        }
        // One digest per draw covering the scalar-oracle outputs: the
        // tier loop above proved every tier equals it.
        let mut d = Digester::new();
        d.write(to_string(&ref_hist).as_bytes())
            .write_u64(digest_frame_stats(&ref_frame, &ref_stats))
            .write_u64(digest_frame_stats(&ref_hebs_frame, &ref_hebs_stats));
        log_digest(&format!("prop {w}x{h} seed={seed}"), d.finish());
    }
}

/// The colour sweep's value set: every byte value in release builds; in
/// the `opt-level = 1` test profile every 7th value plus both ends, so
/// tier-1 stays fast.
fn sweep_values() -> Vec<u8> {
    let stride = if cfg!(debug_assertions) { 7 } else { 1 };
    (0..=255u8).filter(|v| v % stride == 0 || *v == 255).collect()
}

/// Panics at the first pixel where `got` and `want` differ.
fn assert_same_bytes(got: &[u8], want: &[u8], channels: usize, what: &str) {
    if let Some(i) = got.iter().zip(want).position(|(a, b)| a != b) {
        let px = i / channels;
        panic!(
            "{what}: pixel {px} is {:?}, oracle says {:?}",
            &got[px * channels..(px + 1) * channels],
            &want[px * channels..(px + 1) * channels]
        );
    }
    assert_eq!(got.len(), want.len(), "{what}: length");
}

/// YUV→RGB on every (y, u, v): one 512×128 frame per `u`, where chroma
/// column `c` carries `v = c` and 2×2 block row `j` carries the four
/// luma values `4j..4j + 4`.
#[test]
fn yuv_to_rgb_matches_oracle_on_every_input() {
    let (w, h) = (512u32, 128u32);
    let mut yuv = Yuv420Frame::new(w, h).expect("even dimensions");
    let mut want = Frame::new(w, h);
    let mut got = Frame::new(w, h);
    let wu = w as usize;
    for u in sweep_values() {
        {
            let (yp, up, vp) = yuv.planes_mut();
            for (i, luma) in yp.iter_mut().enumerate() {
                let (x, row) = (i % wu, i / wu);
                *luma = (4 * (row / 2) + 2 * (row % 2) + x % 2) as u8;
            }
            up.fill(u);
            for (i, v) in vp.iter_mut().enumerate() {
                *v = (i % (wu / 2)) as u8;
            }
        }
        for (i, px) in want.as_bytes_mut().chunks_exact_mut(3).enumerate() {
            let (x, row) = (i % wu, i / wu);
            let c = (row / 2) * (wu / 2) + x / 2;
            let p = Yuv8::new(yuv.y_plane()[i], yuv.u_plane()[c], yuv.v_plane()[c]);
            px.copy_from_slice(&p.to_rgb().to_array());
        }
        for tier in TIERS {
            yuv.to_rgb_into_with(&mut got, tier).expect("geometry matches");
            assert_same_bytes(got.as_bytes(), want.as_bytes(), 3, &format!("u={u} tier={tier:?}"));
        }
    }
}

/// RGB→YUV on every (r, g, b): one 512×512 frame per `r`, each 2×2
/// block a single colour (`g` = block column, `b` = block row), so the
/// averaged chroma of a block is its pixel's own chroma and every plane
/// byte is a per-pixel oracle value.
#[test]
fn rgb_to_yuv_matches_oracle_on_every_input() {
    let (w, h) = (512u32, 512u32);
    let wu = w as usize;
    let mut want = Yuv420Frame::new(w, h).expect("even dimensions");
    let mut got = Yuv420Frame::new(w, h).expect("even dimensions");
    for r in sweep_values() {
        let rgb = Frame::from_fn(w, h, |x, y| [r, (x / 2) as u8, (y / 2) as u8]);
        {
            let (yp, up, vp) = want.planes_mut();
            for (i, luma) in yp.iter_mut().enumerate() {
                let (x, row) = (i % wu, i / wu);
                *luma = Rgb8::new(r, (x / 2) as u8, (row / 2) as u8).to_yuv().y;
            }
            for (c, (u, v)) in up.iter_mut().zip(vp.iter_mut()).enumerate() {
                let p = Rgb8::new(r, (c % (wu / 2)) as u8, (c / (wu / 2)) as u8).to_yuv();
                (*u, *v) = (p.u, p.v);
            }
        }
        for tier in TIERS {
            Yuv420Frame::from_rgb_into_with(&rgb, &mut got, tier).expect("geometry matches");
            let what = format!("r={r} tier={tier:?}");
            assert_same_bytes(got.y_plane(), want.y_plane(), 1, &format!("{what} Y"));
            assert_same_bytes(got.u_plane(), want.u_plane(), 1, &format!("{what} U"));
            assert_same_bytes(got.v_plane(), want.v_plane(), 1, &format!("{what} V"));
        }
    }
}

/// The 4:2:0 oracle written out pixel by pixel: [`Rgb8::to_yuv`] per
/// pixel, chroma rounded-averaged per 2×2 block.
fn yuv_oracle(frame: &Frame) -> Yuv420Frame {
    let (w, h) = (frame.width(), frame.height());
    let mut out = Yuv420Frame::new(w, h).expect("even dimensions");
    let (yp, up, vp) = out.planes_mut();
    for y in 0..h {
        for x in 0..w {
            yp[(y * w + x) as usize] = frame.pixel(x, y).to_yuv().y;
        }
    }
    for cy in 0..h / 2 {
        for cx in 0..w / 2 {
            let block = [(0, 0), (1, 0), (0, 1), (1, 1)]
                .map(|(dx, dy)| frame.pixel(2 * cx + dx, 2 * cy + dy).to_yuv());
            let avg = |f: fn(&Yuv8) -> u8| (block.iter().map(|p| u32::from(f(p))).sum::<u32>() + 2) / 4;
            let c = (cy * (w / 2) + cx) as usize;
            up[c] = avg(|p| p.u) as u8;
            vp[c] = avg(|p| p.v) as u8;
        }
    }
    out
}

/// The RGB oracle written out pixel by pixel: [`Yuv8::to_rgb`] with
/// chroma replicated over its 2×2 block.
fn rgb_oracle(yuv: &Yuv420Frame) -> Frame {
    let w = yuv.width();
    Frame::from_fn(w, yuv.height(), |x, y| {
        let c = ((y / 2) * (w / 2) + x / 2) as usize;
        Yuv8::new(yuv.y_plane()[(y * w + x) as usize], yuv.u_plane()[c], yuv.v_plane()[c])
            .to_rgb()
            .to_array()
    })
}

/// Both directions at every tier against the pixel-by-pixel oracles,
/// returning a digest of the converted planes and pixels.
fn check_colour_tiers(frame: &Frame, what: &str) -> u64 {
    let (w, h) = (frame.width(), frame.height());
    let want_yuv = yuv_oracle(frame);
    let want_rgb = rgb_oracle(&want_yuv);
    for tier in TIERS {
        let mut yuv = Yuv420Frame::new(w, h).expect("even dimensions");
        Yuv420Frame::from_rgb_into_with(frame, &mut yuv, tier).expect("geometry matches");
        assert_eq!(yuv, want_yuv, "rgb->yuv {what} tier={tier:?}");
        let mut rgb = Frame::new(w, h);
        yuv.to_rgb_into_with(&mut rgb, tier).expect("geometry matches");
        assert_eq!(rgb, want_rgb, "yuv->rgb {what} tier={tier:?}");
    }
    let mut d = Digester::new();
    d.write(want_yuv.y_plane())
        .write(want_yuv.u_plane())
        .write(want_yuv.v_plane())
        .write(want_rgb.as_bytes());
    d.finish()
}

/// Widths that leave every possible remainder for the 4- and 8-column
/// vector steps, so the scalar tail finishes each row pair.
#[test]
fn colour_tiers_match_oracle_on_ragged_widths() {
    for (w, h) in [(2, 2), (6, 4), (18, 2), (34, 6), (130, 4)] {
        let frame = test_frame(w, h, 5 * w + h);
        let digest = check_colour_tiers(&frame, &format!("{w}x{h}"));
        log_digest(&format!("colour ragged {w}x{h}"), digest);
    }
}

annolight_support::check! {
    /// Randomized colour-conversion property: random even geometry and
    /// content; every tier matches the oracle in both directions.
    fn randomized_colour_conversion_matches_oracle(g) {
        let w = 2 * g.draw(1..80u32);
        let h = 2 * g.draw(1..12u32);
        let seed: u32 = g.any::<u32>();
        let frame = test_frame(w, h, seed);
        let digest = check_colour_tiers(&frame, &format!("{w}x{h} seed={seed}"));
        log_digest(&format!("colour prop {w}x{h} seed={seed}"), digest);
    }
}

/// The client's playback loop as it was when it decoded every picture
/// to RGB (`Decoder::decode_next`), for the default controller and a
/// continuously receiving WNIC.
fn play_decoding_rgb(device: &DeviceProfile, system: &SystemPowerModel, stream: &EncodedStream) -> PlaybackReport {
    const DECODE_CPU_BUSY: f64 = 0.75;
    const SWITCH_CPU_COST: f64 = 1e-4;
    let wnic_duty = 1.0;
    let mut dec = Decoder::new(stream).expect("stream parses");
    let mut track: Option<AnnotationTrack> = None;
    let mut hints = None;
    for bytes in dec.user_data() {
        if extensions::is_dvfs_payload(bytes) {
            hints = Some(extensions::hints_from_bytes(bytes).expect("hints parse"));
        } else if track.is_none() {
            track = Some(AnnotationTrack::from_rle_bytes(bytes).expect("track parses"));
        }
    }
    let dt = 1.0 / dec.fps().max(f64::EPSILON);
    let mut controller = BacklightController::new(ControllerConfig::default());
    let (mut frames, mut energy, mut baseline, mut backlight_energy, mut level_sum) =
        (0u32, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    while dec.decode_next().expect("stream decodes").is_some() {
        let now = f64::from(frames) * dt;
        let want = match &track {
            Some(t) => t.entry_at(frames.min(t.frame_count().saturating_sub(1))).expect("in range").backlight,
            None => BacklightLevel::MAX,
        };
        let level = controller.request(now, want);
        let backlight_w = device.backlight_power().power_w(level);
        let full_w = device.backlight_power().power_w(BacklightLevel::MAX);
        let switch_cost = SWITCH_CPU_COST * controller.stats().switches as f64;
        let p = match hints.as_deref().and_then(|h| extensions::hint_for_frame(h, frames)) {
            Some(h) => {
                let busy = (h.busy_at(h.frequency) + switch_cost).min(1.0);
                system.power_w_dvfs(busy, h.frequency.relative_power(), true, backlight_w)
                    - (1.0 - wnic_duty) * (system.wnic_rx_w - system.wnic_idle_w)
            }
            None => system.power_w_duty((DECODE_CPU_BUSY + switch_cost).min(1.0), wnic_duty, backlight_w),
        };
        energy += p * dt;
        baseline += system.power_w(DECODE_CPU_BUSY, true, full_w) * dt;
        backlight_energy += backlight_w * dt;
        level_sum += f64::from(level.0);
        frames += 1;
    }
    let duration = f64::from(frames) * dt;
    PlaybackReport {
        frames,
        duration_s: duration,
        energy_j: energy,
        baseline_energy_j: baseline,
        avg_power_w: if duration > 0.0 { energy / duration } else { 0.0 },
        backlight_energy_j: backlight_energy,
        annotated: track.is_some(),
        dvfs_applied: hints.is_some(),
        switches: controller.stats(),
        mean_backlight: if frames > 0 { level_sum / f64::from(frames) } else { 255.0 },
    }
}

/// Playback row: on every paper clip × {peak-clip, HEBS} × DVFS on/off,
/// `play` and `play_degraded` (every hint on time) report byte-identically
/// to the RGB-decoding loop.
#[test]
fn playback_reports_match_the_rgb_decoding_loop() {
    let device = DeviceProfile::ipaq_5555();
    let system = SystemPowerModel::ipaq_5555();
    let client = PlaybackClient::new(device.clone(), system);
    let mut server = MediaServer::new(EncoderConfig::default());
    for name in PAPER_CLIP_NAMES {
        server.add_clip(ClipLibrary::paper_clip(name).expect("paper clip").preview(1.0));
    }
    for name in PAPER_CLIP_NAMES {
        for policy in [PolicyKind::PeakClip, PolicyKind::Hebs] {
            for dvfs in [false, true] {
                let mut req = ServeRequest::new(name, device.clone(), QualityLevel::Q10).with_policy(policy);
                if dvfs {
                    req = req.with_dvfs();
                }
                let served = server.serve(&req).expect("serve succeeds");
                let want = to_string(&play_decoding_rgb(&device, &system, &served.stream));
                let what = format!("{name} {policy:?} dvfs={dvfs}");
                let played = client.play(&served.stream, None).expect("plays");
                assert_eq!(to_string(&played), want, "play {what}");
                let arrivals = AnnotationArrivals::punctual(served.track.entries().len());
                let degraded = client
                    .play_degraded(&served.stream, &arrivals, DegradationConfig::default(), None)
                    .expect("plays");
                assert_eq!(to_string(&degraded.report), want, "play_degraded {what}");
                let mut d = Digester::new();
                d.write(want.as_bytes());
                log_digest(&format!("playback {what}"), d.finish());
            }
        }
    }
}
