//! Fast-path identity matrix + robustness properties.
//!
//! The codec fast path (fixed-point AAN transforms, fused quant,
//! early-exit seeded motion search, word-level bit I/O, band/GOP
//! fan-out) is only allowed to change *wall-clock*, never bytes. This
//! suite pins that contract:
//!
//! * a clip × qscale × worker-count matrix asserting bitstream and
//!   reconstruction identity for every parallelism level and for
//!   exhaustive vs. early-exit motion search;
//! * `check!` properties for early-exit/exhaustive SAD equivalence,
//!   word-level vs. bit-at-a-time bit I/O equivalence, the leading-zero
//!   Exp-Golomb reader vs. the bit-at-a-time reader (values, error texts
//!   and bit positions), and the nonzero-mask block emitter vs. the
//!   original 63-step scan loop;
//! * a malformed-bitstream fuzz property: random garbage and bit-flipped
//!   real streams must decode to `Err` or a frame, never panic, and the
//!   fast and reference decoders must accept and reject the same streams
//!   with the same error text.
//!
//! When `ANNOLIGHT_CODEC_LOG` names a file, the identity matrix appends
//! one digest line per configuration; CI runs the suite twice with the
//! same seed and `cmp`s the logs to pin cross-run determinism.

use annolight_codec::bitio::{BitReader, BitWriter};
use annolight_codec::motion::{self, MotionVector, SearchMode};
use annolight_codec::quant::{QBlock, QScale};
use annolight_codec::zigzag::{encode_block, ZIGZAG};
use annolight_codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight_imgproc::{Frame, Yuv420Frame};
use annolight_support::check;
use annolight_support::par::ParallelConfig;
use annolight_video::ClipLibrary;

const WORKER_COUNTS: [usize; 5] = [0, 1, 2, 4, 7];
const QSCALES: [u8; 3] = [2, 8, 24];
const CLIPS: [&str; 2] = ["themovie", "ice_age"];

fn clip_frames(name: &str) -> (Vec<Frame>, EncoderConfig) {
    let clip = ClipLibrary::paper_clip(name).expect("library clip").preview(0.75);
    let (w, h) = clip.dimensions();
    let cfg = EncoderConfig {
        width: w,
        height: h,
        fps: clip.fps(),
        gop_size: 4, // several closed GOPs per batch → real fan-out
        ..EncoderConfig::default()
    };
    (clip.frames().collect(), cfg)
}

/// Appends one digest line to `$ANNOLIGHT_CODEC_LOG`, if set. CI runs
/// the suite twice with the same seed and compares the two logs.
fn log_digest(clip: &str, q: u8, workers: usize, stream: &EncodedStream, frames: &[Yuv420Frame]) {
    let Ok(path) = std::env::var("ANNOLIGHT_CODEC_LOG") else { return };
    // FNV-1a over the stream bytes, then every plane in display order.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let planes = frames.iter().flat_map(|f| [f.y_plane(), f.u_plane(), f.v_plane()]);
    for &b in std::iter::once(stream.as_bytes()).chain(planes).flatten() {
        digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open codec digest log");
    writeln!(f, "{clip} q{q} workers={workers} {digest:#018x}").expect("append digest line");
}

fn encode_with(
    frames: &[Frame],
    cfg: EncoderConfig,
    workers: usize,
    search: SearchMode,
) -> EncodedStream {
    let mut enc = Encoder::new(cfg)
        .expect("valid config")
        .with_parallelism(ParallelConfig::with_workers(workers))
        .with_search_mode(search);
    enc.push_user_data(b"identity-matrix");
    enc.push_frames(frames).expect("frames match config");
    enc.finish()
}

/// The clip × qscale × workers matrix: every encode emits the serial
/// stream byte-for-byte, every decode reconstructs the serial frames
/// byte-for-byte, and exhaustive SAD changes nothing.
#[test]
fn bitstream_and_reconstruction_identity_matrix() {
    for clip in CLIPS {
        let (frames, base_cfg) = clip_frames(clip);
        for q in QSCALES {
            let cfg = EncoderConfig { qscale: QScale::new(q), ..base_cfg };
            let baseline = encode_with(&frames, cfg, 0, SearchMode::EarlyExit);
            // Exhaustive SAD: bit-identical vectors → identical stream.
            let exhaustive = encode_with(&frames, cfg, 0, SearchMode::Exhaustive);
            assert_eq!(
                baseline.as_bytes(),
                exhaustive.as_bytes(),
                "{clip} q{q}: exhaustive SAD changed the bitstream"
            );
            let reference_frames: Vec<Yuv420Frame> = Decoder::new(&baseline)
                .expect("stream parses")
                .decode_all_yuv()
                .expect("stream decodes");
            for workers in WORKER_COUNTS {
                let stream = encode_with(&frames, cfg, workers, SearchMode::EarlyExit);
                assert_eq!(
                    stream.as_bytes(),
                    baseline.as_bytes(),
                    "{clip} q{q} workers {workers}: bitstream differs"
                );
                let decoded = Decoder::new(&baseline)
                    .expect("stream parses")
                    .with_parallelism(ParallelConfig::with_workers(workers))
                    .decode_all_yuv()
                    .expect("stream decodes");
                assert_eq!(
                    decoded, reference_frames,
                    "{clip} q{q} workers {workers}: reconstruction differs"
                );
                log_digest(clip, q, workers, &stream, &decoded);
            }
        }
    }
}

/// The retained reference path (float kernels + bitwise I/O + unpruned
/// exhaustive search) must also be deterministic and self-consistent:
/// its encoder and decoder round-trip, and its search mode choice does
/// not change its bytes either.
#[test]
fn reference_path_is_self_consistent()  {
    let (frames, cfg) = clip_frames("themovie");
    let encode_ref = |search: SearchMode| {
        let mut enc = Encoder::new(cfg)
            .expect("valid config")
            .with_reference_kernels(true)
            .with_search_mode(search);
        enc.push_frames(&frames).expect("frames match config");
        enc.finish()
    };
    let a = encode_ref(SearchMode::Exhaustive);
    let b = encode_ref(SearchMode::EarlyExit);
    assert_eq!(a.as_bytes(), b.as_bytes(), "search mode changed reference-path bytes");
    let decoded = Decoder::new(&a)
        .expect("parses")
        .with_reference_kernels(true)
        .decode_all()
        .expect("decodes");
    assert_eq!(decoded.len() as u32, a.frame_count());
}

fn random_plane(g: &mut annolight_support::check::Gen, w: usize, h: usize) -> Vec<u8> {
    // Smooth-ish content with occasional hard edges: exercises both the
    // early-exit abort and ties.
    let base: u8 = g.draw(0u8..=255);
    let mut plane = vec![base; w * h];
    for _ in 0..g.draw(0usize..24) {
        let x0 = g.draw(0usize..w);
        let y0 = g.draw(0usize..h);
        let bw = g.draw(1usize..=16).min(w - x0);
        let bh = g.draw(1usize..=16).min(h - y0);
        let v: u8 = g.draw(0u8..=255);
        for y in y0..y0 + bh {
            for x in x0..x0 + bw {
                plane[y * w + x] = v;
            }
        }
    }
    plane
}

/// One reader call of the differential reader property.
#[derive(Debug, Clone, Copy)]
enum Read {
    Ue,
    Se,
    Bits(u8),
}

/// The fast reader and [`BitReader::new_reference`] over the same bytes,
/// read in lockstep.
struct Lockstep<'a> {
    fast: BitReader<'a>,
    slow: BitReader<'a>,
    reads: usize,
}

impl<'a> Lockstep<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            fast: BitReader::new(bytes),
            slow: BitReader::new_reference(bytes),
            reads: 0,
        }
    }

    /// Makes `read` on both readers: the value and error text must agree,
    /// and so must `bit_pos()` after a successful read. Returns the value
    /// (widened), or `None` on error.
    fn step(&mut self, read: Read) -> Option<i64> {
        fn apply(r: &mut BitReader<'_>, read: Read) -> Result<i64, String> {
            let out = match read {
                Read::Ue => r.get_ue().map(i64::from),
                Read::Se => r.get_se().map(i64::from),
                Read::Bits(n) => r.get_bits(n).map(i64::from),
            };
            out.map_err(|e| e.to_string())
        }
        self.reads += 1;
        let (i, fast) = (self.reads, apply(&mut self.fast, read));
        assert_eq!(fast, apply(&mut self.slow, read), "read {i} ({read:?})");
        if fast.is_ok() {
            assert_eq!(
                self.fast.bit_pos(),
                self.slow.bit_pos(),
                "bit_pos after read {i}"
            );
        }
        fast.ok()
    }
}

/// Runs `reads` in lockstep over `bytes`. Reading goes on after an error,
/// so the state an error leaves behind is compared too.
fn same_reads(bytes: &[u8], reads: &[Read]) {
    let mut both = Lockstep::new(bytes);
    for &read in reads {
        both.step(read);
    }
}

/// Walks `bytes` in lockstep as a run of intra blocks (DC, then run/level
/// pairs up to the end-of-block run 63), as the picture parser does,
/// until the first error. Returns the number of reads made.
fn same_block_walk(bytes: &[u8]) -> usize {
    let mut both = Lockstep::new(bytes);
    'blocks: while both.step(Read::Se).is_some() {
        loop {
            match both.step(Read::Ue) {
                None => break 'blocks,
                Some(63) => break,
                Some(_) if both.step(Read::Se).is_none() => break 'blocks,
                Some(_) => {}
            }
        }
    }
    both.reads
}

/// A `ue` value for the reader property: mostly short codes, with the
/// longest legal codes (a 31-zero prefix, values from `u32::MAX / 2`)
/// and the values just below them.
fn draw_ue(g: &mut annolight_support::check::Gen) -> u32 {
    match g.draw(0u8..8) {
        0 => g.draw(u32::MAX / 2..=u32::MAX - 1),
        1 => g.draw(u32::MAX / 4..u32::MAX / 2),
        2 => (g.any::<u32>() >> g.draw(0u32..32)).min(u32::MAX - 1),
        _ => g.draw(0u32..=80),
    }
}

/// A `se` value for the reader property, including the extremes whose
/// codes have a 31-zero prefix.
fn draw_se(g: &mut annolight_support::check::Gen) -> i32 {
    match g.draw(0u8..6) {
        0 => g.draw(i32::MAX / 2..=i32::MAX),
        1 => g.draw(-i32::MAX..=-(i32::MAX / 2)),
        _ => g.draw(-2048i32..=2047),
    }
}

fn draw_reads(g: &mut annolight_support::check::Gen) -> Vec<Read> {
    g.vec(1usize..160, |g| match g.draw(0u8..4) {
        0 | 1 => Read::Ue,
        2 => Read::Se,
        _ => Read::Bits(g.draw(0u8..=32)),
    })
}

/// The zig-zag block writer as it was before the nonzero-mask emitter:
/// a branch on every one of the 63 AC positions.
fn encode_block_scan_loop(w: &mut BitWriter, block: &QBlock, dc_pred: i16) -> i16 {
    let dc = block[0];
    w.put_se(i32::from(dc) - i32::from(dc_pred));
    let mut run = 0u32;
    for &idx in ZIGZAG.iter().skip(1) {
        let level = block[idx];
        if level == 0 {
            run += 1;
        } else {
            w.put_ue_then_se(run, i32::from(level));
            run = 0;
        }
    }
    w.put_ue(63);
    dc
}

/// A random quantised block: the DC anywhere in range, and AC levels of a
/// shape drawn per block (all zero, one coefficient, sparse, or dense up
/// to ±2047).
fn draw_block(g: &mut annolight_support::check::Gen) -> QBlock {
    let mut block = [0i16; 64];
    block[0] = g.draw(-2048i16..=2047);
    match g.draw(0u8..5) {
        0 => {}
        1 => {
            let pos = if g.any::<bool>() {
                63
            } else {
                g.draw(1usize..64)
            };
            block[ZIGZAG[pos]] = if g.any::<bool>() { 2047 } else { -2047 };
        }
        2 => {
            for _ in 0..g.draw(1usize..8) {
                block[ZIGZAG[g.draw(1usize..64)]] = g.draw(-40i16..=40);
            }
        }
        3 => {
            for v in &mut block[1..] {
                *v = if g.any::<bool>() { 2047 } else { -2047 };
            }
        }
        _ => {
            for v in &mut block[1..] {
                *v = g.draw(-2047i16..=2047);
            }
        }
    }
    block
}

check! {
    /// Early-exit and exhaustive SAD return identical vectors and SADs
    /// for every macroblock of random frame pairs, with and without
    /// predictor seeds (the invariant that lets the bench's baseline
    /// and the fast path share one bitstream).
    fn early_exit_search_equals_exhaustive(g, cases = 48) {
        let (w, h) = (48usize, 48usize);
        let reference = random_plane(g, w, h);
        let cur = random_plane(g, w, h);
        let seeds = [
            MotionVector { dx: g.draw(-8i8..=8), dy: g.draw(-8i8..=8) },
            MotionVector { dx: g.draw(-8i8..=8), dy: g.draw(-8i8..=8) },
        ];
        for mby in 0..h / 16 {
            for mbx in 0..w / 16 {
                for seed_list in [&seeds[..], &[]] {
                    let fast = motion::estimate_halfpel_seeded(
                        &cur, &reference, w, h, mbx, mby, seed_list, SearchMode::EarlyExit);
                    let full = motion::estimate_halfpel_seeded(
                        &cur, &reference, w, h, mbx, mby, seed_list, SearchMode::Exhaustive);
                    assert_eq!(fast, full, "mb ({mbx},{mby}) seeds={}", seed_list.len());
                }
            }
        }
    }

    /// Word-level and retained bit-at-a-time bit I/O are byte-identical
    /// writers and value-identical readers over random field sequences.
    fn word_level_bitio_equals_bitwise(g, cases = 64) {
        use annolight_codec::bitio::{BitReader, BitWriter};
        let fields = g.vec(1usize..200, |g| {
            let count: u8 = g.draw(0u8..=32);
            let value: u32 = g.any::<u32>();
            (value, count)
        });
        let mut fast = BitWriter::new();
        let mut slow = BitWriter::new_reference();
        for &(v, c) in &fields {
            fast.put_bits(v, c);
            slow.put_bits(v, c);
        }
        assert_eq!(fast.bit_len(), slow.bit_len());
        let bytes = fast.into_bytes();
        assert_eq!(bytes, slow.into_bytes());
        let mut fast_r = BitReader::new(&bytes);
        let mut slow_r = BitReader::new_reference(&bytes);
        for &(v, c) in &fields {
            let masked = if c == 0 { 0 } else { v & (u32::MAX >> (32 - u32::from(c))) };
            assert_eq!(fast_r.get_bits(c).unwrap(), masked);
            assert_eq!(slow_r.get_bits(c).unwrap(), masked);
        }
    }

    /// The leading-zero Exp-Golomb reader and the retained bit-at-a-time
    /// reader agree read for read — values, error texts and bit
    /// positions — on well-formed fields (down to 31-zero prefixes),
    /// on random bytes, and with reads running past the end.
    fn leading_zero_reader_equals_bitwise(g, cases = 128) {
        let bytes = if g.draw(0u8..3) == 0 {
            g.vec(0usize..48, |g| g.any::<u8>())
        } else {
            let mut w = BitWriter::new();
            for _ in 0..g.draw(1usize..60) {
                match g.draw(0u8..3) {
                    0 => w.put_ue(draw_ue(g)),
                    1 => w.put_se(draw_se(g)),
                    _ => w.put_bits(g.any::<u32>(), g.draw(0u8..=32)),
                }
            }
            w.into_bytes()
        };
        same_reads(&bytes, &draw_reads(g));
        // Mostly-long codes: the fast path's fallback decides them.
        let long: Vec<Read> = (0..bytes.len() / 4 + 2)
            .map(|i| if i % 2 == 0 { Read::Ue } else { Read::Se })
            .collect();
        same_reads(&bytes, &long);
    }

    /// Every truncation of a real intra picture payload walks to the same
    /// values, error and bit position on both readers.
    fn truncated_payloads_read_identically(g, cases = 6) {
        let seed: u32 = g.draw(0u32..1000);
        let frame = Frame::from_fn(32, 16, |x, y| {
            let v = ((x * 7 + y * 13 + seed) % 256) as u8;
            [v, v.wrapping_mul(3), 255 - v]
        })
        .to_yuv420()
        .expect("even dimensions");
        let payload = annolight_codec::picture::encode_intra(&frame, QScale::new(g.draw(1u8..=31))).bytes;
        let entropy = &payload[1..];
        assert!(same_block_walk(entropy) > 0);
        for cut in 0..entropy.len() {
            same_block_walk(&entropy[..cut]);
        }
    }

    /// The nonzero-mask block emitter writes the bytes of the original
    /// scan loop, block for block, on both writers.
    fn mask_emitter_equals_scan_loop(g, cases = 128) {
        let blocks = g.vec(1usize..24, draw_block);
        let mut fast = BitWriter::new();
        let mut scan = BitWriter::new();
        let mut scan_ref = BitWriter::new_reference();
        let (mut p1, mut p2, mut p3) = (0i16, 0i16, 0i16);
        for b in &blocks {
            p1 = encode_block(&mut fast, b, p1);
            p2 = encode_block_scan_loop(&mut scan, b, p2);
            p3 = encode_block_scan_loop(&mut scan_ref, b, p3);
        }
        assert_eq!(fast.bit_len(), scan.bit_len());
        let bytes = fast.into_bytes();
        assert_eq!(bytes, scan.into_bytes());
        assert_eq!(bytes, scan_ref.into_bytes());
    }

    /// Random garbage fed to the container/picture parsers returns
    /// `Err` or parses — it must never panic (the `check!` runner turns
    /// any panic into a property failure).
    fn random_bytes_never_panic_the_decoder(g, cases = 192) {
        let mut bytes = g.vec(0usize..600, |g| g.any::<u8>());
        // Half the cases get a valid magic + plausible header so the
        // fuzz reaches past the first guard.
        if bytes.len() >= 17 && g.any::<bool>() {
            bytes[..4].copy_from_slice(b"ALV1");
            let w = 16 * g.draw(1u16..=4);
            let h = 16 * g.draw(1u16..=4);
            bytes[4..6].copy_from_slice(&w.to_le_bytes());
            bytes[6..8].copy_from_slice(&h.to_le_bytes());
        }
        if let Ok(mut dec) = Decoder::from_bytes(&bytes) {
            let _ = dec.decode_all();
        }
    }

    /// Bit-flipped real streams decode to `Err` or to frames — never a
    /// panic — under both serial and parallel decoding.
    fn corrupted_streams_never_panic(g, cases = 48) {
        let frames: Vec<Frame> = (0..6u32)
            .map(|i| Frame::from_fn(32, 32, |x, y| {
                let v = ((x * 3 + y * 5 + i * 7) % 251) as u8;
                [v, v ^ 0x55, 255 - v]
            }))
            .collect();
        let cfg = EncoderConfig {
            width: 32,
            height: 32,
            fps: 12.0,
            gop_size: 3,
            qscale: QScale::new(g.draw(1u8..=31)),
            target_bitrate_bps: None,
        };
        let mut enc = Encoder::new(cfg).expect("valid config");
        enc.push_user_data(b"fuzz");
        enc.push_frames(&frames).expect("frames match config");
        let mut bytes = enc.finish().as_bytes().to_vec();
        for _ in 0..g.draw(1usize..=8) {
            let bit = g.draw(0usize..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let workers = g.draw(0usize..=3);
        let decode = |reference: bool| {
            Decoder::from_bytes(&bytes).map(|dec| {
                dec.with_parallelism(ParallelConfig::with_workers(workers))
                    .with_reference_kernels(reference)
                    .decode_all()
                    .map(|frames| frames.len())
                    .map_err(|e| e.to_string())
            })
        };
        if let Ok(fast) = decode(false) {
            let reference = decode(true).expect("the container parse has no reference path");
            assert_eq!(fast, reference, "fast and reference decoders disagree");
        }
    }
}
