//! I- and P-picture coding.
//!
//! Pictures are coded macroblock by macroblock (16×16 luma + two 8×8
//! chroma blocks in 4:2:0). Intra macroblocks level-shift and DCT the
//! samples directly; inter macroblocks code the residual against a
//! motion-compensated prediction from the previous reconstructed picture.
//! The encoder reconstructs exactly what the decoder will, so there is no
//! drift across a GOP.
//!
//! # Fast path and parallel stage split
//!
//! Each picture is processed in two stages:
//!
//! 1. **Compute** (parallel): per macroblock *band* ([`BAND_MB_ROWS`]
//!    rows), DCT/quantisation (and on P pictures, motion search and
//!    compensation) produce quantised levels plus reconstruction strips.
//!    Bands are self-contained — motion-vector predictors (left, and up
//!    *within the band*) never cross a band boundary, so the result is
//!    identical for every worker count. Fan-out goes through
//!    [`annolight_support::par::fan_out`] (one band per work item);
//!    `workers == 0` is the inline serial reference.
//! 2. **Entropy** (serial): Exp-Golomb coding and the intra-DC prediction
//!    chain, which is inherently sequential (every bit position depends on
//!    all previous symbols), runs over the precomputed levels in raster
//!    order.
//!
//! The decoder mirrors the split: a serial *parse* pass (bit I/O + DC
//! chain) recovers per-macroblock levels, then a parallel *reconstruction*
//! pass runs dequantisation, the inverse DCT and motion compensation per
//! band.
//!
//! Kernels come in two flavours selected by
//! [`CodecOptions::reference_kernels`]: the canonical fixed-point AAN path
//! ([`crate::dct::forward_aan`] with fused tables) and the retained float
//! matrix reference. Encoder reconstruction and decoder always run the
//! *same* kernels, so encode→decode round-trip identity holds for both.
//! The fast path runs at the process's [`annolight_imgproc::kernel_tier`],
//! read once per picture; every tier emits the same bytes.
//!
//! P pictures searched with [`SearchMode::EarlyExit`] pad the reference
//! luma once (into a buffer kept in the codec's scratch) and every
//! macroblock's search reads that copy.

use crate::bitio::{BitReader, BitWriter};
use crate::dct::{self, IntBlock};
use crate::error::CodecError;
use crate::motion::{self, HalfPelVector, MotionVector, PaddedPlane, SearchMode, SearchRef};
use crate::quant::{
    dequantize, dequantize_inverse_in, forward_quantize_in, fused_tables, quantize, FusedTables,
    QBlock, QScale, INTER_MATRIX, INTRA_MATRIX,
};
use crate::simd::Avx2;
use crate::zigzag::{decode_block_into, encode_block};
use annolight_imgproc::{kernel_tier, Yuv420Frame};
use annolight_support::par::{fan_out, ParallelConfig};

/// Macroblock rows per compute band. Motion predictors are band-local, so
/// this fixed constant (not the chunk size) is what guarantees identical
/// bitstreams across worker counts.
pub const BAND_MB_ROWS: usize = 2;

/// Per-picture coding options: intra-picture parallelism, motion search
/// mode, and kernel selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecOptions {
    /// Band fan-out configuration (`workers == 0` = inline serial).
    pub parallel: ParallelConfig,
    /// Motion SAD evaluation mode (early-exit vs exhaustive — both return
    /// bit-identical vectors; see [`crate::motion`]).
    pub search: SearchMode,
    /// Run the retained reference implementations end to end: float
    /// matrix DCT/quant kernels, bit-at-a-time entropy I/O and per-pixel
    /// clamped motion compensation — the codec exactly as it shipped
    /// before the fast path (combine with [`SearchMode::Exhaustive`] for
    /// the full pre-fast-path search too). Encode and decode must agree
    /// on this flag for reconstructions to match the encoder.
    pub reference_kernels: bool,
}

/// The outcome of encoding one picture: the payload bytes and the
/// decoder-identical reconstruction to predict the next picture from.
#[derive(Debug, Clone)]
pub struct CodedPicture {
    /// Entropy-coded payload (starts with the qscale byte).
    pub bytes: Vec<u8>,
    /// The picture exactly as the decoder will reconstruct it.
    pub reconstruction: Yuv420Frame,
}

struct PlaneDims {
    w: usize,
    h: usize,
}

fn plane_dims(frame: &Yuv420Frame) -> (PlaneDims, PlaneDims) {
    let luma = PlaneDims { w: frame.width() as usize, h: frame.height() as usize };
    let chroma = PlaneDims { w: luma.w / 2, h: luma.h / 2 };
    (luma, chroma)
}

// ---------------------------------------------------------------------------
// Block kernels (fast fixed-point AAN path + float reference path).
// ---------------------------------------------------------------------------

/// Kernel dispatch for one picture: qscale-bound fused tables, the
/// reference/fast selector and the fast path's kernel tier.
struct Kernels {
    qscale: QScale,
    reference: bool,
    intra_t: &'static FusedTables,
    inter_t: &'static FusedTables,
    /// The AVX2 kernels' token, resolved once per picture from
    /// [`kernel_tier`].
    avx2: Option<Avx2>,
}

impl Kernels {
    fn new(qscale: QScale, reference: bool) -> Self {
        Self {
            qscale,
            reference,
            intra_t: fused_tables(qscale, true),
            inter_t: fused_tables(qscale, false),
            avx2: Avx2::detect(kernel_tier()),
        }
    }

    /// Forward transform + quantise one level-shifted intra block.
    fn intra_levels(&self, src: &IntBlock) -> QBlock {
        if self.reference {
            let mut f = [0.0f32; 64];
            for i in 0..64 {
                f[i] = src[i] as f32;
            }
            quantize(&dct::forward_reference(&f), &INTRA_MATRIX, self.qscale, true)
        } else {
            forward_quantize_in(src, self.intra_t, self.avx2)
        }
    }

    /// Dequantise + inverse transform one intra block back to `u8`
    /// samples (undoing the −128 level shift). This is the *decoder*
    /// kernel; the encoder reconstruction calls it too.
    fn intra_recon(&self, levels: &QBlock) -> [u8; 64] {
        let mut out = [0u8; 64];
        if self.reference {
            let rec = dct::inverse_reference(&dequantize(levels, &INTRA_MATRIX, self.qscale, true));
            for i in 0..64 {
                out[i] = (rec[i] + 128.0).round().clamp(0.0, 255.0) as u8;
            }
        } else {
            let rec = dequantize_inverse_in(levels, self.intra_t, self.avx2);
            for i in 0..64 {
                out[i] = (rec[i] + 128).clamp(0, 255) as u8;
            }
        }
        out
    }

    /// Forward transform + quantise one residual block (no level shift).
    fn residual_levels(&self, residual: &IntBlock) -> QBlock {
        if self.reference {
            let mut f = [0.0f32; 64];
            for i in 0..64 {
                f[i] = residual[i] as f32;
            }
            quantize(&dct::forward_reference(&f), &INTER_MATRIX, self.qscale, false)
        } else {
            // Zero-residual shortcut (exact): the DCT is linear, so an
            // all-zero residual transforms to all-zero coefficients, and
            // both quantisers map 0 to 0. Perfectly predicted blocks —
            // the common case on static content — skip the transform.
            if residual.iter().all(|&v| v == 0) {
                return [0i16; 64];
            }
            forward_quantize_in(residual, self.inter_t, self.avx2)
        }
    }

    /// Dequantise + inverse transform a residual and add it onto the
    /// prediction at `(ox, oy)` in `pred` (stride `pred_stride`).
    fn residual_recon(
        &self,
        levels: &QBlock,
        pred: &[u8],
        pred_stride: usize,
        ox: usize,
        oy: usize,
    ) -> [u8; 64] {
        let mut out = [0u8; 64];
        if self.reference {
            let rec = dct::inverse_reference(&dequantize(levels, &INTER_MATRIX, self.qscale, false));
            for y in 0..8 {
                for x in 0..8 {
                    let p = f32::from(pred[(oy + y) * pred_stride + ox + x]);
                    out[y * 8 + x] = (p + rec[y * 8 + x]).round().clamp(0.0, 255.0) as u8;
                }
            }
        } else {
            // Zero-level shortcut (exact, mirroring `residual_levels`):
            // both dequantisers map 0 to 0 and both inverse transforms
            // map the zero block to zero samples (the fixed-point iDCT
            // rounds `(0 + half) >> FRAC` to 0), so the reconstruction
            // is the prediction verbatim.
            if levels.iter().all(|&v| v == 0) {
                for y in 0..8 {
                    let row = &pred[(oy + y) * pred_stride + ox..][..8];
                    out[y * 8..y * 8 + 8].copy_from_slice(row);
                }
                return out;
            }
            let rec = dequantize_inverse_in(levels, self.inter_t, self.avx2);
            for y in 0..8 {
                for x in 0..8 {
                    let p = i32::from(pred[(oy + y) * pred_stride + ox + x]);
                    out[y * 8 + x] = (p + rec[y * 8 + x]).clamp(0, 255) as u8;
                }
            }
        }
        out
    }
}

/// Loads an 8×8 block at pixel `(px, py)` with the −128 intra level shift.
fn extract_shifted(plane: &[u8], stride: usize, px: usize, py: usize) -> IntBlock {
    let mut out = [0i32; 64];
    for y in 0..8 {
        let row = &plane[(py + y) * stride + px..];
        for x in 0..8 {
            out[y * 8 + x] = i32::from(row[x]) - 128;
        }
    }
    out
}

/// Loads the residual of the 8×8 source block at `(px, py)` against the
/// prediction at `(ox, oy)` in `pred`.
#[allow(clippy::too_many_arguments)]
fn extract_residual(
    src: &[u8],
    stride: usize,
    px: usize,
    py: usize,
    pred: &[u8],
    pred_stride: usize,
    ox: usize,
    oy: usize,
) -> IntBlock {
    let mut out = [0i32; 64];
    for y in 0..8 {
        for x in 0..8 {
            out[y * 8 + x] = i32::from(src[(py + y) * stride + px + x])
                - i32::from(pred[(oy + y) * pred_stride + ox + x]);
        }
    }
    out
}

/// Motion-compensated prediction dispatch: the fast path uses the
/// interior-specialised interpolator, the reference path the retained
/// per-pixel clamped sampler. Identical output bytes either way.
#[allow(clippy::too_many_arguments)]
fn predict_mc(
    reference_path: bool,
    plane: &[u8],
    width: usize,
    height: usize,
    cx: usize,
    cy: usize,
    dx2: i32,
    dy2: i32,
    size: usize,
    out: &mut [u8],
) {
    if reference_path {
        motion::predict_halfpel_into_reference(plane, width, height, cx, cy, dx2, dy2, size, out);
    } else {
        motion::predict_halfpel_into(plane, width, height, cx, cy, dx2, dy2, size, out);
    }
}

/// Copies an 8×8 sample block into `dst` at pixel `(px, py)`.
fn blit8(dst: &mut [u8], stride: usize, px: usize, py: usize, block: &[u8; 64]) {
    for y in 0..8 {
        dst[(py + y) * stride + px..(py + y) * stride + px + 8]
            .copy_from_slice(&block[y * 8..y * 8 + 8]);
    }
}

// ---------------------------------------------------------------------------
// Band structures.
// ---------------------------------------------------------------------------

/// How one macroblock was coded.
#[derive(Debug, Clone, Copy)]
enum MbMode {
    /// All six blocks intra-coded.
    Intra,
    /// Motion-compensated with this half-pel vector; blocks are residuals.
    Inter(HalfPelVector),
}

/// One macroblock's compute-stage output: mode plus the six quantised
/// blocks (4 luma, U, V). Intra DC is stored *absolute*; the serial
/// entropy stage applies the prediction chain.
#[derive(Debug)]
struct MbOut {
    mode: MbMode,
    blocks: [QBlock; 6],
}

/// Output sink for one macroblock row of reconstruction: the destination
/// planes (either a band's strip buffers or a full frame's planes) plus
/// the first macroblock row those planes cover.
struct RowSink<'a> {
    y: &'a mut [u8],
    u: &'a mut [u8],
    v: &'a mut [u8],
    /// Macroblock row that `y[0..]` / `u[0..]` / `v[0..]` start at.
    mb_row0: usize,
}

/// Reusable per-codec working memory for the `*_into` entry points:
/// quantised macroblock levels, the motion-predictor rows, the padded
/// search reference and the entropy writer's output buffer all persist
/// across pictures, so a steady-state encode/decode loop performs no
/// per-picture allocations.
#[derive(Debug, Default)]
pub(crate) struct CodecScratch {
    mbs: Vec<MbOut>,
    up_mvs: Vec<Option<MotionVector>>,
    cur_mvs: Vec<Option<MotionVector>>,
    /// The edge-padded reference luma of the last P picture searched with
    /// [`SearchMode::EarlyExit`].
    padded: PaddedPlane,
    /// Encoded payload of the last picture (qscale byte + entropy bits);
    /// doubles as the recycled [`BitWriter`] buffer.
    pub(crate) payload: Vec<u8>,
}

/// One band's compute-stage output: macroblocks in raster order plus the
/// reconstruction strips covering the band's rows.
struct BandOut {
    mbs: Vec<MbOut>,
    y: Vec<u8>,
    u: Vec<u8>,
    v: Vec<u8>,
}

fn band_count(mbs_y: usize) -> usize {
    mbs_y.div_ceil(BAND_MB_ROWS)
}

fn band_rows(band: usize, mbs_y: usize) -> std::ops::Range<usize> {
    band * BAND_MB_ROWS..((band + 1) * BAND_MB_ROWS).min(mbs_y)
}

/// Runs `compute` on every band through [`fan_out`], one band per work
/// item (the band structure, not the scheduling, carries the
/// determinism).
fn map_bands<F>(mbs_y: usize, parallel: &ParallelConfig, compute: F) -> Vec<BandOut>
where
    F: Fn(usize) -> BandOut + Sync,
{
    fan_out(parallel.workers, 0..band_count(mbs_y), compute)
}

/// Copies band reconstruction strips back into a full frame.
fn stitch_bands(bands: &[BandOut], recon: &mut Yuv420Frame, mbs_y: usize) {
    let (luma, chroma) = plane_dims(recon);
    for (b, band) in bands.iter().enumerate() {
        let rows = band_rows(b, mbs_y);
        let y0 = rows.start * 16;
        let c0 = rows.start * 8;
        recon.y_plane_mut()[y0 * luma.w..y0 * luma.w + band.y.len()].copy_from_slice(&band.y);
        recon.u_plane_mut()[c0 * chroma.w..c0 * chroma.w + band.u.len()].copy_from_slice(&band.u);
        recon.v_plane_mut()[c0 * chroma.w..c0 * chroma.w + band.v.len()].copy_from_slice(&band.v);
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Encodes an intra (I) picture with default (serial, fast-path) options.
pub fn encode_intra(frame: &Yuv420Frame, qscale: QScale) -> CodedPicture {
    encode_intra_opts(frame, qscale, &CodecOptions::default())
}

/// Encodes an intra (I) picture.
pub fn encode_intra_opts(frame: &Yuv420Frame, qscale: QScale, opts: &CodecOptions) -> CodedPicture {
    encode_picture(frame, None, qscale, opts)
}

/// Encodes a predicted (P) picture against `reference` (the previous
/// reconstruction) with default options.
///
/// # Panics
///
/// Panics if the frames have different dimensions.
pub fn encode_inter(frame: &Yuv420Frame, reference: &Yuv420Frame, qscale: QScale) -> CodedPicture {
    encode_inter_opts(frame, reference, qscale, &CodecOptions::default())
}

/// Encodes a predicted (P) picture against `reference`.
///
/// # Panics
///
/// Panics if the frames have different dimensions.
pub fn encode_inter_opts(
    frame: &Yuv420Frame,
    reference: &Yuv420Frame,
    qscale: QScale,
    opts: &CodecOptions,
) -> CodedPicture {
    assert_eq!(
        (frame.width(), frame.height()),
        (reference.width(), reference.height()),
        "reference dimensions must match"
    );
    encode_picture(frame, Some(reference), qscale, opts)
}

fn encode_picture(
    frame: &Yuv420Frame,
    reference: Option<&Yuv420Frame>,
    qscale: QScale,
    opts: &CodecOptions,
) -> CodedPicture {
    let mut scratch = CodecScratch::default();
    let mut recon = Yuv420Frame::new(frame.width(), frame.height())
        .expect("source frame dimensions are valid");
    encode_picture_into(frame, reference, qscale, opts, &mut scratch, &mut recon);
    CodedPicture { bytes: scratch.payload, reconstruction: recon }
}

/// Encodes one picture into caller-owned buffers: the reconstruction into
/// `recon` and the payload into `scratch.payload`. Byte-identical to
/// [`encode_intra_opts`] / [`encode_inter_opts`] for every configuration.
///
/// Serial configurations (`workers <= 1`, where the band fan-out would
/// run inline anyway) take a direct-write path: macroblock rows write
/// straight into `recon`'s planes, with the motion-predictor rows reset
/// at every [`BAND_MB_ROWS`] boundary — the invariant that keeps the
/// bitstream identical to the banded path without allocating band strips.
///
/// # Panics
///
/// Panics if `reference` or `recon` dimensions don't match `frame`.
pub(crate) fn encode_picture_into(
    frame: &Yuv420Frame,
    reference: Option<&Yuv420Frame>,
    qscale: QScale,
    opts: &CodecOptions,
    scratch: &mut CodecScratch,
    recon: &mut Yuv420Frame,
) {
    if let Some(r) = reference {
        assert_eq!(
            (frame.width(), frame.height()),
            (r.width(), r.height()),
            "reference dimensions must match"
        );
    }
    assert_eq!(
        (frame.width(), frame.height()),
        (recon.width(), recon.height()),
        "reconstruction dimensions must match"
    );
    let (luma, chroma) = plane_dims(frame);
    let mbs_x = luma.w / 16;
    let mbs_y = luma.h / 16;
    let kernels = Kernels::new(qscale, opts.reference_kernels);
    let intra_picture = reference.is_none();
    // What the motion search reads: the reference luma padded once for
    // this picture, or the plane itself for the exhaustive oracle.
    let search = reference.map(|r| match opts.search {
        SearchMode::EarlyExit => {
            scratch.padded.fill(r.y_plane(), luma.w, luma.h);
            SearchRef::Padded { plane: &scratch.padded, avx2: kernels.avx2 }
        }
        SearchMode::Exhaustive => SearchRef::Clamped { plane: r.y_plane(), height: luma.h },
    });

    // Recycled entropy writer: the first (byte-aligned) write emits
    // exactly the leading qscale byte the payload format starts with.
    // Reserve roughly a quarter of the luma plane: comfortably above a
    // typical coded picture, so the buffer regrows at most once ever.
    let mut payload = std::mem::take(&mut scratch.payload);
    payload.reserve(luma.w * luma.h / 4 + 64);
    let mut w = if opts.reference_kernels {
        BitWriter::from_vec_reference(payload)
    } else {
        BitWriter::from_vec(payload)
    };
    w.put_bits(u32::from(qscale.value()), 8);

    scratch.mbs.clear();
    if opts.parallel.workers <= 1 {
        scratch.up_mvs.clear();
        scratch.up_mvs.resize(mbs_x, None);
        scratch.cur_mvs.clear();
        scratch.cur_mvs.resize(mbs_x, None);
        let (py, pu, pv) = recon.planes_mut();
        let mut sink = RowSink { y: py, u: pu, v: pv, mb_row0: 0 };
        for mby in 0..mbs_y {
            if mby % BAND_MB_ROWS == 0 {
                scratch.up_mvs.fill(None);
            }
            scratch.cur_mvs.fill(None);
            encode_mb_row(
                mby,
                frame,
                reference,
                search,
                &kernels,
                &luma,
                &chroma,
                mbs_x,
                &scratch.up_mvs,
                &mut scratch.cur_mvs,
                &mut sink,
                &mut scratch.mbs,
            );
            std::mem::swap(&mut scratch.up_mvs, &mut scratch.cur_mvs);
        }
        write_entropy(&mut w, scratch.mbs.iter(), intra_picture);
    } else {
        let bands = map_bands(mbs_y, &opts.parallel, |b| {
            encode_band(b, frame, reference, search, &kernels, &luma, &chroma, mbs_x, mbs_y)
        });
        stitch_bands(&bands, recon, mbs_y);
        write_entropy(&mut w, bands.iter().flat_map(|b| b.mbs.iter()), intra_picture);
    }
    scratch.payload = w.into_bytes();
}

/// Serial entropy stage: Exp-Golomb coding plus the intra-DC prediction
/// chain over precomputed macroblock levels, in raster order. Inherently
/// sequential — every bit position depends on all previous symbols.
fn write_entropy<'a>(w: &mut BitWriter, mbs: impl Iterator<Item = &'a MbOut>, intra_picture: bool) {
    let mut dc = [0i16; 3];
    for mb in mbs {
        if intra_picture {
            for blk in &mb.blocks[..4] {
                dc[0] = encode_block(w, blk, dc[0]);
            }
            dc[1] = encode_block(w, &mb.blocks[4], dc[1]);
            dc[2] = encode_block(w, &mb.blocks[5], dc[2]);
        } else {
            match mb.mode {
                MbMode::Inter(mv) => {
                    w.put_bit(true);
                    w.put_se(i32::from(mv.dx2));
                    w.put_se(i32::from(mv.dy2));
                    for blk in &mb.blocks {
                        encode_block(w, blk, 0);
                    }
                }
                MbMode::Intra => {
                    // Intra refresh macroblock (DC predictor reset to 0).
                    w.put_bit(false);
                    for blk in &mb.blocks {
                        encode_block(w, blk, 0);
                    }
                }
            }
        }
    }
}

/// Compute stage for one band of an I or P picture.
#[allow(clippy::too_many_arguments)]
fn encode_band(
    band: usize,
    frame: &Yuv420Frame,
    reference: Option<&Yuv420Frame>,
    search: Option<SearchRef<'_>>,
    kernels: &Kernels,
    luma: &PlaneDims,
    chroma: &PlaneDims,
    mbs_x: usize,
    mbs_y: usize,
) -> BandOut {
    let rows = band_rows(band, mbs_y);
    let n_rows = rows.len();
    let mut out = BandOut {
        mbs: Vec::with_capacity(n_rows * mbs_x),
        y: vec![0u8; n_rows * 16 * luma.w],
        u: vec![0u8; n_rows * 8 * chroma.w],
        v: vec![0u8; n_rows * 8 * chroma.w],
    };
    // Band-local motion predictors: `up_mvs` holds the previous row's
    // vectors (within this band only).
    let mut up_mvs: Vec<Option<MotionVector>> = vec![None; mbs_x];
    let mut cur_mvs: Vec<Option<MotionVector>> = vec![None; mbs_x];
    let mb_row0 = rows.start;
    for mby in rows {
        cur_mvs.fill(None);
        let mut sink = RowSink { y: &mut out.y, u: &mut out.u, v: &mut out.v, mb_row0 };
        encode_mb_row(
            mby,
            frame,
            reference,
            search,
            kernels,
            luma,
            chroma,
            mbs_x,
            &up_mvs,
            &mut cur_mvs,
            &mut sink,
            &mut out.mbs,
        );
        std::mem::swap(&mut up_mvs, &mut cur_mvs);
    }
    out
}

/// Encodes one macroblock row: mode decisions, transforms and
/// reconstruction writes into `sink`; quantised levels appended to `mbs`.
///
/// `search` is `Some` exactly when `reference` is: the form of the
/// reference luma the motion search reads. `up_mvs` carries the
/// predictor row above (all-`None` at a band boundary), `cur_mvs`
/// receives this row's vectors, and `left` is row-local. Shared verbatim
/// by the banded parallel path and the serial direct-write path, which is
/// what makes their bitstreams identical by construction.
#[allow(clippy::too_many_arguments)]
fn encode_mb_row(
    mby: usize,
    frame: &Yuv420Frame,
    reference: Option<&Yuv420Frame>,
    search: Option<SearchRef<'_>>,
    kernels: &Kernels,
    luma: &PlaneDims,
    chroma: &PlaneDims,
    mbs_x: usize,
    up_mvs: &[Option<MotionVector>],
    cur_mvs: &mut [Option<MotionVector>],
    sink: &mut RowSink<'_>,
    mbs: &mut Vec<MbOut>,
) {
    let local = mby - sink.mb_row0;
    let mut left: Option<MotionVector> = None;
    for mbx in 0..mbs_x {
        let mode = match search {
            None => MbMode::Intra,
            Some(search) => {
                let mut seeds = [MotionVector::default(); 2];
                let mut n = 0;
                if let Some(mv) = left {
                    seeds[n] = mv;
                    n += 1;
                }
                if let Some(mv) = up_mvs[mbx] {
                    seeds[n] = mv;
                    n += 1;
                }
                let (mv, mc_sad) = motion::estimate_halfpel_in(
                    frame.y_plane(),
                    luma.w,
                    mbx,
                    mby,
                    &seeds[..n],
                    search,
                );
                // Intra/inter decision: compare the MC residual energy
                // with the deviation from the block mean (a cheap
                // intra-cost proxy). The fast path computes the exact
                // same value with SAD row kernels; the reference path
                // keeps the retained per-pixel loop.
                let intra_cost = if kernels.reference {
                    mean_deviation(frame.y_plane(), luma.w, mbx * 16, mby * 16, 16)
                } else {
                    motion::mean_deviation16(frame.y_plane(), luma.w, mbx * 16, mby * 16)
                };
                if mc_sad < intra_cost { MbMode::Inter(mv) } else { MbMode::Intra }
            }
        };
        let mut blocks = [[0i16; 64]; 6];
        match mode {
            MbMode::Intra => {
                for (k, (by, bx)) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)]
                    .into_iter()
                    .enumerate()
                {
                    let src = extract_shifted(
                        frame.y_plane(),
                        luma.w,
                        mbx * 16 + bx * 8,
                        mby * 16 + by * 8,
                    );
                    blocks[k] = kernels.intra_levels(&src);
                    let rec = kernels.intra_recon(&blocks[k]);
                    blit8(sink.y, luma.w, mbx * 16 + bx * 8, local * 16 + by * 8, &rec);
                }
                for (k, (plane, strip)) in [
                    (frame.u_plane(), &mut *sink.u),
                    (frame.v_plane(), &mut *sink.v),
                ]
                .into_iter()
                .enumerate()
                {
                    let src = extract_shifted(plane, chroma.w, mbx * 8, mby * 8);
                    blocks[4 + k] = kernels.intra_levels(&src);
                    let rec = kernels.intra_recon(&blocks[4 + k]);
                    blit8(strip, chroma.w, mbx * 8, local * 8, &rec);
                }
                left = None;
                cur_mvs[mbx] = None;
            }
            MbMode::Inter(mv) => {
                let r = reference.expect("inter mode implies a reference");
                let mut pred = [0u8; 256];
                predict_mc(
                    kernels.reference,
                    r.y_plane(),
                    luma.w,
                    luma.h,
                    mbx * 16,
                    mby * 16,
                    mv.dx2.into(),
                    mv.dy2.into(),
                    16,
                    &mut pred,
                );
                for (k, (by, bx)) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)]
                    .into_iter()
                    .enumerate()
                {
                    let res = extract_residual(
                        frame.y_plane(),
                        luma.w,
                        mbx * 16 + bx * 8,
                        mby * 16 + by * 8,
                        &pred,
                        16,
                        bx * 8,
                        by * 8,
                    );
                    blocks[k] = kernels.residual_levels(&res);
                    let rec = kernels.residual_recon(&blocks[k], &pred, 16, bx * 8, by * 8);
                    blit8(sink.y, luma.w, mbx * 16 + bx * 8, local * 16 + by * 8, &rec);
                }
                // Chroma: halved vector (luma half-pels → chroma half-pels).
                let (cdx2, cdy2) = (i32::from(mv.dx2) / 2, i32::from(mv.dy2) / 2);
                let mut cpred = [0u8; 64];
                for (k, (plane, strip)) in [
                    (frame.u_plane(), &mut *sink.u),
                    (frame.v_plane(), &mut *sink.v),
                ]
                .into_iter()
                .enumerate()
                {
                    let r_plane = if k == 0 { r.u_plane() } else { r.v_plane() };
                    predict_mc(
                        kernels.reference, r_plane, chroma.w, chroma.h, mbx * 8, mby * 8,
                        cdx2, cdy2, 8, &mut cpred,
                    );
                    let res = extract_residual(
                        plane, chroma.w, mbx * 8, mby * 8, &cpred, 8, 0, 0,
                    );
                    blocks[4 + k] = kernels.residual_levels(&res);
                    let rec = kernels.residual_recon(&blocks[4 + k], &cpred, 8, 0, 0);
                    blit8(strip, chroma.w, mbx * 8, local * 8, &rec);
                }
                let fp = MotionVector { dx: (mv.dx2 / 2) as i8, dy: (mv.dy2 / 2) as i8 };
                left = Some(fp);
                cur_mvs[mbx] = Some(fp);
            }
        }
        mbs.push(MbOut { mode, blocks });
    }
}

fn mean_deviation(plane: &[u8], stride: usize, px: usize, py: usize, size: usize) -> u32 {
    let mut sum = 0u32;
    for y in 0..size {
        for x in 0..size {
            sum += u32::from(plane[(py + y) * stride + px + x]);
        }
    }
    let mean = (sum / (size * size) as u32) as i32;
    let mut dev = 0u32;
    for y in 0..size {
        for x in 0..size {
            dev += (i32::from(plane[(py + y) * stride + px + x]) - mean).unsigned_abs();
        }
    }
    dev
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Decodes an intra (I) picture payload with default options.
///
/// # Errors
///
/// Returns [`CodecError`] for malformed payloads or bad dimensions.
pub fn decode_intra(bytes: &[u8], width: u32, height: u32) -> Result<Yuv420Frame, CodecError> {
    decode_intra_opts(bytes, width, height, &CodecOptions::default())
}

/// Decodes an intra (I) picture payload.
///
/// # Errors
///
/// Returns [`CodecError`] for malformed payloads or bad dimensions.
pub fn decode_intra_opts(
    bytes: &[u8],
    width: u32,
    height: u32,
    opts: &CodecOptions,
) -> Result<Yuv420Frame, CodecError> {
    let mut frame = Yuv420Frame::new(width, height)
        .map_err(|e| CodecError::Malformed { reason: e.to_string() })?;
    decode_picture(bytes, None, &mut frame, opts)?;
    Ok(frame)
}

/// Decodes a predicted (P) picture payload against `reference` with
/// default options.
///
/// # Errors
///
/// Returns [`CodecError`] for malformed payloads.
pub fn decode_inter(bytes: &[u8], reference: &Yuv420Frame) -> Result<Yuv420Frame, CodecError> {
    decode_inter_opts(bytes, reference, &CodecOptions::default())
}

/// Decodes a predicted (P) picture payload against `reference`.
///
/// # Errors
///
/// Returns [`CodecError`] for malformed payloads.
pub fn decode_inter_opts(
    bytes: &[u8],
    reference: &Yuv420Frame,
    opts: &CodecOptions,
) -> Result<Yuv420Frame, CodecError> {
    let mut frame = Yuv420Frame::new(reference.width(), reference.height())
        .map_err(|e| CodecError::Malformed { reason: e.to_string() })?;
    decode_picture(bytes, Some(reference), &mut frame, opts)?;
    Ok(frame)
}

fn decode_picture(
    bytes: &[u8],
    reference: Option<&Yuv420Frame>,
    frame: &mut Yuv420Frame,
    opts: &CodecOptions,
) -> Result<(), CodecError> {
    let mut scratch = CodecScratch::default();
    decode_picture_into(bytes, reference, frame, opts, &mut scratch)
}

/// Decodes one picture into `frame`, reusing `scratch`'s parsed-level
/// storage across calls. Byte-identical to [`decode_intra_opts`] /
/// [`decode_inter_opts`] for every configuration; serial configurations
/// (`workers <= 1`) reconstruct straight into `frame`'s planes with no
/// band strips.
pub(crate) fn decode_picture_into(
    bytes: &[u8],
    reference: Option<&Yuv420Frame>,
    frame: &mut Yuv420Frame,
    opts: &CodecOptions,
    scratch: &mut CodecScratch,
) -> Result<(), CodecError> {
    let (qscale, mut r) = split_payload(bytes, opts.reference_kernels)?;
    let (luma, chroma) = plane_dims(frame);
    let mbs_x = luma.w / 16;
    let mbs_y = luma.h / 16;
    let kernels = Kernels::new(qscale, opts.reference_kernels);
    let intra_picture = reference.is_none();
    parse_picture(&mut r, intra_picture, mbs_x * mbs_y, &mut scratch.mbs)?;

    if opts.parallel.workers <= 1 {
        // Direct-write serial path: reconstruction has no cross-row
        // state, so rows write straight into the frame's planes.
        let (py, pu, pv) = frame.planes_mut();
        let mut sink = RowSink { y: py, u: pu, v: pv, mb_row0: 0 };
        for mby in 0..mbs_y {
            decode_mb_row(mby, &scratch.mbs, reference, &kernels, &luma, &chroma, mbs_x, &mut sink);
        }
    } else {
        // Parallel reconstruction stage: dequant + iDCT + MC per band.
        let mbs = &scratch.mbs;
        let bands = map_bands(mbs_y, &opts.parallel, |b| {
            decode_band(b, mbs, reference, &kernels, &luma, &chroma, mbs_x, mbs_y)
        });
        stitch_bands(&bands, frame, mbs_y);
    }
    Ok(())
}

/// Serial parse stage: entropy-decodes every macroblock of a payload into
/// `mbs`, in place: the vector is resized to `mb_count` (reusing its
/// storage) and each block is zeroed and then written by
/// [`decode_block_into`], so no level block is built and copied per block.
/// Bit positions are only known sequentially; the intra-DC prediction
/// chain resolves here.
fn parse_picture(
    r: &mut BitReader<'_>,
    intra_picture: bool,
    mb_count: usize,
    mbs: &mut Vec<MbOut>,
) -> Result<(), CodecError> {
    mbs.resize_with(mb_count, || MbOut {
        mode: MbMode::Intra,
        blocks: [[0; 64]; 6],
    });
    let mut dc = [0i16; 3];
    for mb in mbs.iter_mut() {
        mb.blocks = [[0; 64]; 6];
        if intra_picture {
            mb.mode = MbMode::Intra;
            let [y0, y1, y2, y3, u, v] = &mut mb.blocks;
            for blk in [y0, y1, y2, y3] {
                dc[0] = decode_block_into(r, dc[0], blk)?;
            }
            dc[1] = decode_block_into(r, dc[1], u)?;
            dc[2] = decode_block_into(r, dc[2], v)?;
        } else {
            let inter = r.get_bit()?;
            mb.mode = if inter {
                let dx2 = r.get_se()?;
                let dy2 = r.get_se()?;
                if dx2.abs() > 2 * motion::SEARCH_RANGE || dy2.abs() > 2 * motion::SEARCH_RANGE {
                    return Err(CodecError::Malformed {
                        reason: format!("motion vector ({dx2},{dy2}) out of range"),
                    });
                }
                MbMode::Inter(HalfPelVector { dx2: dx2 as i16, dy2: dy2 as i16 })
            } else {
                MbMode::Intra
            };
            for blk in &mut mb.blocks {
                decode_block_into(r, 0, blk)?;
            }
        }
    }
    Ok(())
}

/// Reconstruction stage for one band of a parsed picture.
#[allow(clippy::too_many_arguments)]
fn decode_band(
    band: usize,
    mbs: &[MbOut],
    reference: Option<&Yuv420Frame>,
    kernels: &Kernels,
    luma: &PlaneDims,
    chroma: &PlaneDims,
    mbs_x: usize,
    mbs_y: usize,
) -> BandOut {
    let rows = band_rows(band, mbs_y);
    let n_rows = rows.len();
    let mut out = BandOut {
        mbs: Vec::new(), // decode bands carry only reconstruction strips
        y: vec![0u8; n_rows * 16 * luma.w],
        u: vec![0u8; n_rows * 8 * chroma.w],
        v: vec![0u8; n_rows * 8 * chroma.w],
    };
    let mb_row0 = rows.start;
    for mby in rows {
        let mut sink = RowSink { y: &mut out.y, u: &mut out.u, v: &mut out.v, mb_row0 };
        decode_mb_row(mby, mbs, reference, kernels, luma, chroma, mbs_x, &mut sink);
    }
    out
}

/// Reconstruction for one macroblock row of a parsed picture: dequant,
/// inverse transform and motion compensation written into `sink`. Shared
/// by the banded parallel path and the serial direct-write path.
#[allow(clippy::too_many_arguments)]
fn decode_mb_row(
    mby: usize,
    mbs: &[MbOut],
    reference: Option<&Yuv420Frame>,
    kernels: &Kernels,
    luma: &PlaneDims,
    chroma: &PlaneDims,
    mbs_x: usize,
    sink: &mut RowSink<'_>,
) {
    let local = mby - sink.mb_row0;
    for mbx in 0..mbs_x {
        let mb = &mbs[mby * mbs_x + mbx];
        match mb.mode {
            MbMode::Intra => {
                for (k, (by, bx)) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)]
                    .into_iter()
                    .enumerate()
                {
                    let rec = kernels.intra_recon(&mb.blocks[k]);
                    blit8(sink.y, luma.w, mbx * 16 + bx * 8, local * 16 + by * 8, &rec);
                }
                let rec_u = kernels.intra_recon(&mb.blocks[4]);
                blit8(sink.u, chroma.w, mbx * 8, local * 8, &rec_u);
                let rec_v = kernels.intra_recon(&mb.blocks[5]);
                blit8(sink.v, chroma.w, mbx * 8, local * 8, &rec_v);
            }
            MbMode::Inter(mv) => {
                let r = reference.expect("parse stage rejects P pictures without reference");
                let mut pred = [0u8; 256];
                predict_mc(
                    kernels.reference,
                    r.y_plane(),
                    luma.w,
                    luma.h,
                    mbx * 16,
                    mby * 16,
                    mv.dx2.into(),
                    mv.dy2.into(),
                    16,
                    &mut pred,
                );
                for (k, (by, bx)) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)]
                    .into_iter()
                    .enumerate()
                {
                    let rec = kernels.residual_recon(&mb.blocks[k], &pred, 16, bx * 8, by * 8);
                    blit8(sink.y, luma.w, mbx * 16 + bx * 8, local * 16 + by * 8, &rec);
                }
                let (cdx2, cdy2) = (i32::from(mv.dx2) / 2, i32::from(mv.dy2) / 2);
                let mut cpred = [0u8; 64];
                for (k, strip) in [&mut *sink.u, &mut *sink.v].into_iter().enumerate() {
                    let r_plane = if k == 0 { r.u_plane() } else { r.v_plane() };
                    predict_mc(
                        kernels.reference, r_plane, chroma.w, chroma.h, mbx * 8, mby * 8,
                        cdx2, cdy2, 8, &mut cpred,
                    );
                    let rec = kernels.residual_recon(&mb.blocks[4 + k], &cpred, 8, 0, 0);
                    blit8(strip, chroma.w, mbx * 8, local * 8, &rec);
                }
            }
        }
    }
}

fn split_payload(bytes: &[u8], reference_io: bool) -> Result<(QScale, BitReader<'_>), CodecError> {
    let (&q, rest) = bytes
        .split_first()
        .ok_or_else(|| CodecError::Malformed { reason: "empty picture payload".into() })?;
    if !(1..=31).contains(&q) {
        return Err(CodecError::Malformed { reason: format!("qscale {q} out of range") });
    }
    let r = if reference_io { BitReader::new_reference(rest) } else { BitReader::new(rest) };
    Ok((QScale::new(q), r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_imgproc::Frame;

    fn test_frame(shift: u32) -> Yuv420Frame {
        // Smooth content that translates exactly with `shift` (a function
        // of x only slides along x), so motion compensation can match it.
        Frame::from_fn(48, 32, |x, y| {
            let xx = (x + shift) as f32;
            let v = (128.0 + 80.0 * (xx * 0.18).sin() + 40.0 * (y as f32 * 0.25).cos())
                .round()
                .clamp(0.0, 255.0) as u8;
            [v, v.saturating_sub(8), 255 - v]
        })
        .to_yuv420()
        .unwrap()
    }

    fn luma_mad(a: &Yuv420Frame, b: &Yuv420Frame) -> f64 {
        let n = a.y_plane().len() as f64;
        a.y_plane()
            .iter()
            .zip(b.y_plane())
            .map(|(&x, &y)| f64::from(x.abs_diff(y)))
            .sum::<f64>()
            / n
    }

    #[test]
    fn intra_decode_matches_encoder_reconstruction() {
        let f = test_frame(0);
        let coded = encode_intra(&f, QScale::new(4));
        let decoded = decode_intra(&coded.bytes, 48, 32).unwrap();
        assert_eq!(decoded, coded.reconstruction);
    }

    #[test]
    fn intra_quality_improves_with_finer_scale() {
        let f = test_frame(0);
        let fine = encode_intra(&f, QScale::new(2));
        let coarse = encode_intra(&f, QScale::new(24));
        assert!(luma_mad(&f, &fine.reconstruction) < luma_mad(&f, &coarse.reconstruction));
        assert!(luma_mad(&f, &fine.reconstruction) < 3.0);
    }

    #[test]
    fn coarse_scale_compresses_smaller() {
        let f = test_frame(0);
        let fine = encode_intra(&f, QScale::new(2));
        let coarse = encode_intra(&f, QScale::new(24));
        assert!(coarse.bytes.len() < fine.bytes.len());
    }

    #[test]
    fn inter_decode_matches_encoder_reconstruction() {
        let a = test_frame(0);
        let b = test_frame(2); // shifted content → real motion
        let ia = encode_intra(&a, QScale::new(4));
        let pb = encode_inter(&b, &ia.reconstruction, QScale::new(4));
        let decoded = decode_inter(&pb.bytes, &ia.reconstruction).unwrap();
        assert_eq!(decoded, pb.reconstruction);
    }

    #[test]
    fn inter_beats_intra_on_translated_content() {
        let a = test_frame(0);
        let b = test_frame(2);
        let ia = encode_intra(&a, QScale::new(4));
        let inter = encode_inter(&b, &ia.reconstruction, QScale::new(4));
        let intra = encode_intra(&b, QScale::new(4));
        assert!(
            inter.bytes.len() < intra.bytes.len(),
            "inter {} should be smaller than intra {}",
            inter.bytes.len(),
            intra.bytes.len()
        );
    }

    #[test]
    fn static_scene_inter_is_tiny() {
        let a = test_frame(0);
        let ia = encode_intra(&a, QScale::new(4));
        let p = encode_inter(&a, &ia.reconstruction, QScale::new(4));
        // Mostly-zero residual with zero vectors: well below the intra
        // size (which is itself small for smooth content).
        assert!(
            p.bytes.len() * 3 < ia.bytes.len() * 2,
            "static P {} vs I {}",
            p.bytes.len(),
            ia.bytes.len()
        );
        assert!(luma_mad(&a, &p.reconstruction) < 3.0);
    }

    #[test]
    fn inter_reconstruction_tracks_source() {
        let a = test_frame(0);
        let b = test_frame(3);
        let ia = encode_intra(&a, QScale::new(4));
        let p = encode_inter(&b, &ia.reconstruction, QScale::new(4));
        assert!(luma_mad(&b, &p.reconstruction) < 3.0, "mad {}", luma_mad(&b, &p.reconstruction));
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_intra(&[], 16, 16).is_err());
        assert!(decode_intra(&[0], 16, 16).is_err()); // qscale 0
        assert!(decode_intra(&[4, 0xFF], 16, 16).is_err()); // truncated
        let f = test_frame(0);
        let ia = encode_intra(&f, QScale::new(4));
        assert!(decode_inter(&[9], &ia.reconstruction).is_err());
    }

    #[test]
    fn no_drift_across_p_chain() {
        // Encode a chain of P pictures and verify decode stays bit-exact
        // with the encoder's reconstructions.
        let mut reference = encode_intra(&test_frame(0), QScale::new(6)).reconstruction;
        let mut dec_ref = decode_intra(&encode_intra(&test_frame(0), QScale::new(6)).bytes, 48, 32).unwrap();
        for i in 1..5 {
            let cur = test_frame(i);
            let coded = encode_inter(&cur, &reference, QScale::new(6));
            let dec = decode_inter(&coded.bytes, &dec_ref).unwrap();
            assert_eq!(dec, coded.reconstruction, "drift at P{i}");
            reference = coded.reconstruction;
            dec_ref = dec;
        }
    }

    fn opts(workers: usize) -> CodecOptions {
        CodecOptions { parallel: ParallelConfig::with_workers(workers), ..Default::default() }
    }

    #[test]
    fn fast_intra_cost_matches_reference_loop() {
        let f = test_frame(1);
        let (luma, _) = plane_dims(&f);
        for mby in 0..luma.h / 16 {
            for mbx in 0..luma.w / 16 {
                assert_eq!(
                    motion::mean_deviation16(f.y_plane(), luma.w, mbx * 16, mby * 16),
                    mean_deviation(f.y_plane(), luma.w, mbx * 16, mby * 16, 16),
                    "mb ({mbx},{mby})"
                );
            }
        }
    }

    #[test]
    fn parallel_encode_decode_byte_identical() {
        let a = test_frame(0);
        let b = test_frame(2);
        let serial = opts(0);
        let i_s = encode_intra_opts(&a, QScale::new(4), &serial);
        let p_s = encode_inter_opts(&b, &i_s.reconstruction, QScale::new(4), &serial);
        for workers in [1, 2, 3, 7] {
            let par = opts(workers);
            let i_p = encode_intra_opts(&a, QScale::new(4), &par);
            assert_eq!(i_p.bytes, i_s.bytes, "intra bytes differ at {workers} workers");
            assert_eq!(i_p.reconstruction, i_s.reconstruction);
            let p_p = encode_inter_opts(&b, &i_p.reconstruction, QScale::new(4), &par);
            assert_eq!(p_p.bytes, p_s.bytes, "inter bytes differ at {workers} workers");
            assert_eq!(p_p.reconstruction, p_s.reconstruction);
            let di = decode_intra_opts(&i_s.bytes, 48, 32, &par).unwrap();
            assert_eq!(di, i_s.reconstruction);
            let dp = decode_inter_opts(&p_s.bytes, &di, &par).unwrap();
            assert_eq!(dp, p_s.reconstruction);
        }
    }

    #[test]
    fn search_mode_does_not_change_bitstream() {
        let a = test_frame(0);
        let b = test_frame(3);
        let early = CodecOptions { search: SearchMode::EarlyExit, ..Default::default() };
        let exhaustive = CodecOptions { search: SearchMode::Exhaustive, ..Default::default() };
        let ia = encode_intra(&a, QScale::new(4));
        let pe = encode_inter_opts(&b, &ia.reconstruction, QScale::new(4), &early);
        let px = encode_inter_opts(&b, &ia.reconstruction, QScale::new(4), &exhaustive);
        assert_eq!(pe.bytes, px.bytes);
        assert_eq!(pe.reconstruction, px.reconstruction);
    }

    #[test]
    fn reference_kernels_roundtrip_consistent() {
        let a = test_frame(0);
        let b = test_frame(2);
        let refk = CodecOptions { reference_kernels: true, ..Default::default() };
        let ia = encode_intra_opts(&a, QScale::new(4), &refk);
        let di = decode_intra_opts(&ia.bytes, 48, 32, &refk).unwrap();
        assert_eq!(di, ia.reconstruction);
        let pb = encode_inter_opts(&b, &ia.reconstruction, QScale::new(4), &refk);
        let dp = decode_inter_opts(&pb.bytes, &ia.reconstruction, &refk).unwrap();
        assert_eq!(dp, pb.reconstruction);
        // The reference path stays a faithful encoder in its own right.
        assert!(luma_mad(&a, &ia.reconstruction) < 3.0);
    }

    #[test]
    fn fast_and_reference_kernels_agree_closely() {
        // The AAN path is a different fixed-point rounding of the same
        // transform: reconstructions must track the float path to within
        // ~1 LSB on smooth content (bitstreams may differ slightly).
        let a = test_frame(0);
        let fast = encode_intra(&a, QScale::new(4));
        let refk = encode_intra_opts(
            &a,
            QScale::new(4),
            &CodecOptions { reference_kernels: true, ..Default::default() },
        );
        assert!(
            luma_mad(&fast.reconstruction, &refk.reconstruction) < 1.0,
            "mad {}",
            luma_mad(&fast.reconstruction, &refk.reconstruction)
        );
    }
}
