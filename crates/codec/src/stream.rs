//! The packetised container: sequence header, GOP structure, user data.
//!
//! The container's job in this reproduction is the paper's §3 property:
//! annotations must be "available even before decoding the data". User-data
//! packets are therefore ordinary packets that the encoder emits *ahead* of
//! the pictures they describe, and the decoder surfaces them without
//! touching any picture payload.
//!
//! Layout (all multi-byte integers little-endian):
//!
//! ```text
//! magic   "ALV1"
//! u16     width        u16 height
//! u32     fps × 1000   u32 frame count
//! u8      gop size (I-frame interval)
//! packets: { u8 kind; varint len; payload[len] }*
//!          kind 1 = user data, 2 = I picture, 3 = P picture
//! ```

use crate::error::CodecError;
use crate::motion::SearchMode;
use crate::picture::{self, CodecOptions};
use crate::quant::QScale;
use annolight_imgproc::{Frame, Yuv420Frame};
use annolight_support::bytes::{ByteBuf, Bytes};
use annolight_support::par::{fan_out, ParallelConfig};
use std::ops::Range;

const MAGIC: &[u8; 4] = b"ALV1";

/// Hard cap on coded width/height, in pixels.
///
/// The header stores `u16` dimensions, but accepting the full 65 535 range
/// would let a 17-byte forged header drive multi-gigabyte plane
/// allocations before a single payload byte is validated. 4096×4096 is far
/// beyond any stream this library produces and keeps the worst-case
/// allocation for a malformed stream at ~24 MiB.
pub const MAX_DIM: u32 = 4096;

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Frame width (non-zero multiple of 16).
    pub width: u32,
    /// Frame height (non-zero multiple of 16).
    pub height: u32,
    /// Frames per second.
    pub fps: f64,
    /// I-frame interval (GOP size), ≥ 1.
    pub gop_size: u8,
    /// Quantiser scale for all pictures (the starting point when rate
    /// control is enabled).
    pub qscale: QScale,
    /// Optional target bitrate; when set, a picture-level rate controller
    /// adapts the quantiser around `qscale` to hold this budget.
    pub target_bitrate_bps: Option<f64>,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            width: 128,
            height: 96,
            fps: 12.0,
            gop_size: 12,
            qscale: QScale::default(),
            target_bitrate_bps: None,
        }
    }
}

/// Packet kinds in the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Out-of-band user data (annotation tracks).
    UserData,
    /// Intra picture.
    IntraPicture,
    /// Predicted picture.
    PredictedPicture,
}

impl PacketKind {
    fn to_byte(self) -> u8 {
        match self {
            PacketKind::UserData => 1,
            PacketKind::IntraPicture => 2,
            PacketKind::PredictedPicture => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CodecError> {
        match b {
            1 => Ok(PacketKind::UserData),
            2 => Ok(PacketKind::IntraPicture),
            3 => Ok(PacketKind::PredictedPicture),
            _ => Err(CodecError::Malformed { reason: format!("unknown packet kind {b}") }),
        }
    }
}

/// A coded picture inside a decoder's stream buffer: its kind and the
/// byte range of its payload.
#[derive(Debug, Clone)]
struct PictureRef {
    kind: PacketKind,
    payload: std::ops::Range<usize>,
}

/// A fully encoded stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedStream {
    bytes: Bytes,
    width: u32,
    height: u32,
    fps: f64,
    frame_count: u32,
}

impl EncodedStream {
    /// The serialized stream bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total stream size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the stream is empty (never true for encoder output).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Frame width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Number of coded pictures.
    pub fn frame_count(&self) -> u32 {
        self.frame_count
    }

    /// Reconstructs a stream object from raw bytes (e.g. received over the
    /// network).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] if the header is invalid.
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Result<Self, CodecError> {
        let bytes: Bytes = bytes.into();
        let h = Header::parse(&bytes)?;
        Ok(Self { width: h.width, height: h.height, fps: h.fps, frame_count: h.frame_count, bytes })
    }
}

struct Header {
    width: u32,
    height: u32,
    fps: f64,
    frame_count: u32,
    gop_size: u8,
    body_offset: usize,
}

impl Header {
    const LEN: usize = 4 + 2 + 2 + 4 + 4 + 1;

    /// The header's bytes for a stream of `frame_count` pictures.
    fn write(config: &EncoderConfig, fps_millihertz: u32, frame_count: u32) -> [u8; Self::LEN] {
        let mut out = [0; Self::LEN];
        out[..4].copy_from_slice(MAGIC);
        out[4..6].copy_from_slice(&(config.width as u16).to_le_bytes());
        out[6..8].copy_from_slice(&(config.height as u16).to_le_bytes());
        out[8..12].copy_from_slice(&fps_millihertz.to_le_bytes());
        out[12..16].copy_from_slice(&frame_count.to_le_bytes());
        out[16] = config.gop_size;
        out
    }

    fn parse(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() < Self::LEN || &bytes[..4] != MAGIC {
            return Err(CodecError::Malformed { reason: "bad or missing stream header".into() });
        }
        let width = u32::from(u16::from_le_bytes([bytes[4], bytes[5]]));
        let height = u32::from(u16::from_le_bytes([bytes[6], bytes[7]]));
        let fps_millihertz = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let frame_count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        let gop_size = bytes[16];
        if width == 0 || height == 0 || width % 16 != 0 || height % 16 != 0 {
            return Err(CodecError::Malformed { reason: "bad dimensions in header".into() });
        }
        if width > MAX_DIM || height > MAX_DIM {
            return Err(CodecError::Malformed {
                reason: format!("dimensions {width}x{height} exceed the {MAX_DIM} cap"),
            });
        }
        if fps_millihertz == 0 {
            return Err(CodecError::Malformed { reason: "zero frame rate in header".into() });
        }
        let fps = fps_from_millihertz(fps_millihertz);
        Ok(Self { width, height, fps, frame_count, gop_size, body_offset: Self::LEN })
    }
}

/// The header's frame-rate field for `fps`: `round(fps · 1000)`, or
/// `None` when that is 0 or does not fit a `u32` (the header cannot carry
/// the rate).
fn fps_millihertz(fps: f64) -> Option<u32> {
    let mhz = (fps * 1000.0).round();
    (mhz >= 1.0 && mhz <= f64::from(u32::MAX)).then_some(mhz as u32)
}

fn fps_from_millihertz(mhz: u32) -> f64 {
    f64::from(mhz) / 1000.0
}

/// The streaming encoder.
///
/// Push frames in display order; interleave [`Encoder::push_user_data`]
/// calls at any point — user data is emitted at the current stream
/// position, i.e. *before* all later pictures.
#[derive(Debug)]
pub struct Encoder {
    config: EncoderConfig,
    opts: CodecOptions,
    /// The workers of the batch entry points' closed-GOP fan-out.
    parallel: ParallelConfig,
    /// The stream: [`Header::LEN`] bytes held for the header, which
    /// [`Encoder::finish`] writes in place, then the packets.
    body: ByteBuf,
    frame_count: u32,
    reference: Option<Yuv420Frame>,
    rate: Option<crate::rate::RateController>,
    /// Reusable per-picture working memory (levels, predictor rows,
    /// entropy buffer) — see [`picture::CodecScratch`].
    scratch: picture::CodecScratch,
    /// The previous reference frame, recycled as the next picture's
    /// reconstruction buffer (recon ↔ reference ping-pong): a warm
    /// serial encode loop allocates nothing per frame.
    spare: Option<Yuv420Frame>,
    /// [`Encoder::push_frame`]'s RGB→YUV conversion target, recycled
    /// from picture to picture.
    input: Option<Yuv420Frame>,
}

impl Encoder {
    /// Creates an encoder.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadDimensions`] / [`CodecError::BadConfig`]
    /// for invalid configuration.
    pub fn new(config: EncoderConfig) -> Result<Self, CodecError> {
        if config.width == 0
            || config.height == 0
            || !config.width.is_multiple_of(16)
            || !config.height.is_multiple_of(16)
            || config.width > MAX_DIM
            || config.height > MAX_DIM
        {
            return Err(CodecError::BadDimensions { width: config.width, height: config.height });
        }
        if !config.fps.is_finite() || config.fps <= 0.0 {
            return Err(CodecError::BadConfig { reason: format!("fps {}", config.fps) });
        }
        if fps_millihertz(config.fps).is_none() {
            return Err(CodecError::BadConfig {
                reason: format!("fps {} does not fit the header's millihertz field", config.fps),
            });
        }
        if config.gop_size == 0 {
            return Err(CodecError::BadConfig { reason: "gop_size must be >= 1".into() });
        }
        let rate = match config.target_bitrate_bps {
            Some(bps) => {
                if !bps.is_finite() || bps <= 0.0 {
                    return Err(CodecError::BadConfig { reason: format!("bitrate {bps}") });
                }
                Some(crate::rate::RateController::from_bitrate(bps, config.fps, config.qscale))
            }
            None => None,
        };
        let mut body = ByteBuf::new();
        body.put_slice(&[0; Header::LEN]);
        Ok(Self {
            config,
            opts: CodecOptions::default(),
            parallel: ParallelConfig::default(),
            body,
            frame_count: 0,
            reference: None,
            rate,
            scratch: picture::CodecScratch::default(),
            spare: None,
            input: None,
        })
    }

    /// Encodes closed GOPs concurrently over `parallel` worker threads in
    /// [`Encoder::push_frames`], [`Encoder::push_yuv_frames`] and
    /// [`Encoder::push_frames_from`]; each GOP job also produces its own
    /// frames (`push_frames`' RGB→4:2:0 conversion, a source's
    /// rendering). Each picture is coded on one thread. `workers == 0`
    /// (the default) is the inline serial reference; every worker count
    /// produces byte-identical streams.
    #[must_use]
    pub fn with_parallelism(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Selects the motion SAD evaluation mode. Both modes produce
    /// bit-identical vectors (and therefore bitstreams); exhaustive exists
    /// as the benchmark/differential baseline.
    #[must_use]
    pub fn with_search_mode(mut self, search: SearchMode) -> Self {
        self.opts.search = search;
        self
    }

    /// Uses the retained float matrix DCT/quant kernels instead of the
    /// fixed-point AAN fast path. The kernel choice is not recorded in the
    /// bitstream: a decoder must be configured with the same flag for its
    /// reconstruction to track the encoder exactly.
    #[must_use]
    pub fn with_reference_kernels(mut self, reference: bool) -> Self {
        self.opts.reference_kernels = reference;
        self
    }

    /// The encoder configuration.
    pub fn config(&self) -> EncoderConfig {
        self.config
    }

    /// Number of frames pushed so far.
    pub fn frame_count(&self) -> u32 {
        self.frame_count
    }

    /// Appends a user-data packet at the current stream position.
    pub fn push_user_data(&mut self, data: &[u8]) {
        self.put_packet(PacketKind::UserData, data);
    }

    /// Pre-reserves `additional` bytes of packet-body capacity. A caller
    /// that can bound its total coded size (e.g. from a previous pass or
    /// a rate budget) keeps the body append loop allocation-free.
    pub fn reserve_body(&mut self, additional: usize) {
        self.body.reserve(additional);
    }

    /// Encodes and appends one frame.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FrameSizeMismatch`] when the frame does not
    /// match the configured dimensions.
    pub fn push_frame(&mut self, frame: &Frame) -> Result<(), CodecError> {
        if (frame.width(), frame.height()) != (self.config.width, self.config.height) {
            return Err(CodecError::FrameSizeMismatch {
                expected: (self.config.width, self.config.height),
                actual: (frame.width(), frame.height()),
            });
        }
        let mut yuv = match self.input.take() {
            Some(f) => f,
            None => Yuv420Frame::new(frame.width(), frame.height())
                .map_err(|e| CodecError::Malformed { reason: e.to_string() })?,
        };
        frame
            .to_yuv420_into(&mut yuv)
            .map_err(|e| CodecError::Malformed { reason: e.to_string() })?;
        let pushed = self.push_yuv_frame(&yuv);
        self.input = Some(yuv);
        pushed
    }

    /// Encodes and appends one frame already in the codec's native planar
    /// 4:2:0 representation, skipping the RGB→YUV conversion entirely.
    ///
    /// [`Encoder::push_frame`] is exactly `to_yuv420` followed by this, so
    /// pushing the converted frame yields a byte-identical stream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FrameSizeMismatch`] when the frame does not
    /// match the configured dimensions.
    pub fn push_yuv_frame(&mut self, yuv: &Yuv420Frame) -> Result<(), CodecError> {
        if (yuv.width(), yuv.height()) != (self.config.width, self.config.height) {
            return Err(CodecError::FrameSizeMismatch {
                expected: (self.config.width, self.config.height),
                actual: (yuv.width(), yuv.height()),
            });
        }
        let is_intra = self.next_is_intra();
        let qscale = self.rate.as_ref().map_or(self.config.qscale, |r| r.qscale());
        // Reconstruction buffer: recycle the retired reference frame
        // (ping-ponged below) instead of allocating one per picture.
        let mut recon = match self.spare.take() {
            Some(f) if (f.width(), f.height()) == (yuv.width(), yuv.height()) => f,
            _ => Yuv420Frame::new(yuv.width(), yuv.height())
                .map_err(|e| CodecError::Malformed { reason: e.to_string() })?,
        };
        let reference = if is_intra { None } else { self.reference.as_ref() };
        picture::encode_picture_into(yuv, reference, qscale, &self.opts, &mut self.scratch, &mut recon);
        if let Some(rate) = &mut self.rate {
            rate.update(self.scratch.payload.len());
        }
        let kind = if is_intra { PacketKind::IntraPicture } else { PacketKind::PredictedPicture };
        let payload = std::mem::take(&mut self.scratch.payload);
        self.put_packet(kind, &payload);
        self.scratch.payload = payload;
        self.spare = self.reference.replace(recon);
        self.frame_count += 1;
        Ok(())
    }

    /// Whether the next pushed frame starts a GOP (is coded intra).
    fn next_is_intra(&self) -> bool {
        self.reference.is_none()
            || self.frame_count.is_multiple_of(u32::from(self.config.gop_size))
    }

    /// Encodes and appends a batch of frames, fanning **closed GOPs** out
    /// across the configured worker pool.
    ///
    /// Each GOP after the first intra boundary depends only on its own
    /// frames (the intra picture resets the prediction chain), so GOPs are
    /// independent jobs, and each job converts its frames to 4:2:0 and
    /// codes its pictures one after another. Packets are emitted in
    /// display order regardless of completion order, so the stream is
    /// byte-identical to an equivalent sequence of [`Encoder::push_frame`]
    /// calls for every worker count.
    ///
    /// Falls back to the serial per-frame path when rate control is
    /// active (the controller's qscale feedback chains every picture to
    /// its predecessors, so GOPs are no longer independent) or when the
    /// configured parallelism is serial.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FrameSizeMismatch`] if any frame does not
    /// match the configured dimensions (checked up front: no frame is
    /// consumed on error).
    pub fn push_frames(&mut self, frames: &[Frame]) -> Result<(), CodecError> {
        for frame in frames {
            if (frame.width(), frame.height()) != (self.config.width, self.config.height) {
                return Err(CodecError::FrameSizeMismatch {
                    expected: (self.config.width, self.config.height),
                    actual: (frame.width(), frame.height()),
                });
            }
        }
        let (w, h) = (self.config.width, self.config.height);
        self.push_frames_from(frames.len(), || RgbFrames { frames, yuv: blank_frame(w, h) })
    }

    /// [`Encoder::push_frames`] for frames already in planar 4:2:0: the
    /// same closed-GOP fan-out without any RGB→YUV conversion in the
    /// pipeline ([`encode_yuv_batched`] with this encoder as the one
    /// job). The emitted stream is byte-identical to an equivalent
    /// sequence of [`Encoder::push_yuv_frame`] calls for every worker
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FrameSizeMismatch`] if any frame does not
    /// match the configured dimensions (checked up front: no frame is
    /// consumed on error).
    pub fn push_yuv_frames(&mut self, frames: &[Yuv420Frame]) -> Result<(), CodecError> {
        let parallel = self.parallel;
        encode_yuv_batched(std::slice::from_mut(self), &[frames], &parallel)
    }

    /// Encodes and appends `frames` frames that sources made by `source`
    /// produce on demand, fanning **closed GOPs** out across the
    /// configured worker pool.
    ///
    /// Each GOP job makes its own source and asks it for the job's frames
    /// in display order, each just before coding it, so a source that
    /// renders into working memory it owns holds one frame per job, never
    /// the batch. The frames before the first GOP boundary (continuing an
    /// open GOP) and every frame of a serial or rate-controlled encoder go
    /// through one source and [`Encoder::push_yuv_frame`]. The stream is
    /// byte-identical to pushing the same frames one by one, for every
    /// worker count.
    ///
    /// # Errors
    ///
    /// The first error in display order, from a source or a frame whose
    /// size does not match the configuration. The frames before the
    /// first GOP boundary may already be appended; no fanned-out GOP is.
    pub fn push_frames_from<S, M>(&mut self, frames: usize, source: M) -> Result<(), S::Error>
    where
        S: FrameSource,
        S::Error: Send,
        M: Fn() -> S + Sync,
    {
        let parallel = self.parallel;
        encode_batch(std::slice::from_mut(self), &[frames], &parallel, |_| source())
    }

    /// Appends a GOP job's packets; the batch's last GOP also hands over
    /// its last reconstruction as the live reference.
    fn append_gop(&mut self, out: GopOut) {
        for (kind, range) in &out.packets {
            self.put_packet(*kind, &out.payloads[range.clone()]);
        }
        self.frame_count += out.packets.len() as u32;
        if let Some(last) = out.last_reconstruction {
            self.reference = Some(last);
        }
    }

    fn put_packet(&mut self, kind: PacketKind, payload: &[u8]) {
        self.body.put_u8(kind.to_byte());
        let mut len = payload.len() as u64;
        loop {
            let byte = (len & 0x7F) as u8;
            len >>= 7;
            if len == 0 {
                self.body.put_u8(byte);
                break;
            }
            self.body.put_u8(byte | 0x80);
        }
        self.body.put_slice(payload);
    }

    /// Finalises and returns the stream. Its [`EncodedStream::fps`] is the
    /// rate the header carries (millihertz precision), so it equals what
    /// [`EncodedStream::from_bytes`] reads back. The header is written
    /// into the space held for it, so no packet byte is copied.
    pub fn finish(mut self) -> EncodedStream {
        let fps_millihertz =
            fps_millihertz(self.config.fps).expect("Encoder::new checked the frame rate");
        self.body[..Header::LEN].copy_from_slice(&Header::write(
            &self.config,
            fps_millihertz,
            self.frame_count,
        ));
        EncodedStream {
            bytes: self.body.freeze(),
            width: self.config.width,
            height: self.config.height,
            fps: fps_from_millihertz(fps_millihertz),
            frame_count: self.frame_count,
        }
    }
}

/// The frames of a batch, produced one at a time for the encoder's
/// closed-GOP fan-out ([`Encoder::push_frames_from`]).
///
/// Each GOP job makes its own source and asks it for the job's frames in
/// display order, each just before coding it. A slice of planar frames is
/// a source that copies nothing; a source may instead render or convert
/// each frame into memory it owns and reuses.
pub trait FrameSource {
    /// What producing a frame can fail with; the encoder's own errors
    /// convert into it.
    type Error: From<CodecError>;

    /// Frame `i` of the batch (counted from the batch's first frame) in
    /// planar 4:2:0.
    ///
    /// # Errors
    ///
    /// Whatever producing the frame fails with.
    fn frame(&mut self, i: usize) -> Result<&Yuv420Frame, Self::Error>;
}

impl FrameSource for &[Yuv420Frame] {
    type Error = CodecError;

    fn frame(&mut self, i: usize) -> Result<&Yuv420Frame, CodecError> {
        Ok(&self[i])
    }
}

/// [`Encoder::push_frames`]' source: each RGB frame converted to 4:2:0
/// into one reused frame.
struct RgbFrames<'a> {
    frames: &'a [Frame],
    yuv: Yuv420Frame,
}

impl FrameSource for RgbFrames<'_> {
    type Error = CodecError;

    fn frame(&mut self, i: usize) -> Result<&Yuv420Frame, CodecError> {
        self.frames[i]
            .to_yuv420_into(&mut self.yuv)
            .map_err(|e| CodecError::Malformed { reason: e.to_string() })?;
        Ok(&self.yuv)
    }
}

/// A planar frame of an encoder's validated dimensions.
fn blank_frame(width: u32, height: u32) -> Yuv420Frame {
    Yuv420Frame::new(width, height).expect("Encoder::new checked the dimensions")
}

/// One closed GOP's worth of encoded output, produced by a worker: every
/// picture payload back to back in `payloads`, indexed by `packets`.
/// Only a batch's last GOP keeps its last reconstruction, the reference
/// for whatever the encoder codes next.
struct GopOut {
    packets: Vec<(PacketKind, Range<usize>)>,
    payloads: Vec<u8>,
    last_reconstruction: Option<Yuv420Frame>,
}

/// Encodes one closed GOP, frames `frames` of `source` (the first intra,
/// the rest predicted), serially, with one [`picture::CodecScratch`] for
/// the whole job and the reconstruction ping-ponged with the reference,
/// as [`Encoder::push_yuv_frame`] does. The payloads are trimmed to their
/// length, since the GOP waits for the rest of the batch.
fn encode_gop<S: FrameSource>(
    source: &mut S,
    frames: Range<usize>,
    enc: &Encoder,
    keep_reconstruction: bool,
) -> Result<GopOut, S::Error> {
    let (width, height) = (enc.config.width, enc.config.height);
    let mut scratch = picture::CodecScratch::default();
    let mut packets = Vec::with_capacity(frames.len());
    let mut payloads = Vec::new();
    let mut reference: Option<Yuv420Frame> = None;
    let mut recon = blank_frame(width, height);
    for i in frames {
        let yuv = source.frame(i)?;
        if (yuv.width(), yuv.height()) != (width, height) {
            return Err(CodecError::FrameSizeMismatch {
                expected: (width, height),
                actual: (yuv.width(), yuv.height()),
            }
            .into());
        }
        let kind = if reference.is_some() {
            PacketKind::PredictedPicture
        } else {
            PacketKind::IntraPicture
        };
        let qscale = enc.config.qscale;
        picture::encode_picture_into(yuv, reference.as_ref(), qscale, &enc.opts, &mut scratch, &mut recon);
        packets.push((kind, payloads.len()..payloads.len() + scratch.payload.len()));
        payloads.extend_from_slice(&scratch.payload);
        recon = reference.replace(recon).unwrap_or_else(|| blank_frame(width, height));
    }
    payloads.shrink_to_fit();
    let last_reconstruction =
        keep_reconstruction.then(|| reference.expect("encode_gop codes at least one frame"));
    Ok(GopOut { packets, payloads, last_reconstruction })
}

/// The streaming decoder.
///
/// On construction it scans the packet table (cheap — no picture payload is
/// touched) and collects all user data, mirroring how the paper's client
/// reads annotations before decode. Pictures are then decoded on demand.
#[derive(Debug)]
pub struct Decoder {
    width: u32,
    height: u32,
    fps: f64,
    gop_size: u8,
    user_data: Vec<Bytes>,
    /// The whole container; `pictures` index into it, so no picture
    /// payload is copied.
    stream: Bytes,
    pictures: Vec<PictureRef>,
    /// Index of the next picture [`Decoder::decode_next`] will produce.
    next: usize,
    reference: Option<Yuv420Frame>,
    opts: CodecOptions,
    /// The closed-GOP fan-out of [`Decoder::decode_all`].
    parallel: ParallelConfig,
    /// Reusable parsed-level storage — see [`picture::CodecScratch`].
    scratch: picture::CodecScratch,
}

impl Decoder {
    /// Parses the container structure of `stream`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] for a corrupt container.
    pub fn new(stream: &EncodedStream) -> Result<Self, CodecError> {
        Self::parse(stream.bytes.clone())
    }

    /// Parses a container from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] for a corrupt container.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::parse(Bytes::copy_from_slice(bytes))
    }

    /// Indexes the packets of `stream`. Picture payloads stay in place:
    /// parsing allocates the same amount for a stream of any length.
    fn parse(stream: Bytes) -> Result<Self, CodecError> {
        let bytes = stream.as_slice();
        let header = Header::parse(bytes)?;
        let mut pos = header.body_offset;
        let mut user_data = Vec::new();
        // Every packet takes at least two bytes (kind and length), which
        // bounds a corrupt header's claim.
        let mut pictures =
            Vec::with_capacity((header.frame_count as usize).min((bytes.len() - pos) / 2));
        while pos < bytes.len() {
            let kind = PacketKind::from_byte(bytes[pos])?;
            pos += 1;
            let mut len = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = *bytes
                    .get(pos)
                    .ok_or_else(|| CodecError::Malformed { reason: "truncated packet length".into() })?;
                pos += 1;
                len |= u64::from(byte & 0x7F) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
                if shift >= 64 {
                    return Err(CodecError::Malformed { reason: "packet length overflow".into() });
                }
            }
            // Compare against the bytes left before adding: a forged
            // length near 2^64 would overflow `pos + len`.
            if len > (bytes.len() - pos) as u64 {
                return Err(CodecError::Malformed { reason: "truncated packet payload".into() });
            }
            let end = pos + len as usize;
            match kind {
                PacketKind::UserData => user_data.push(Bytes::copy_from_slice(&bytes[pos..end])),
                _ => pictures.push(PictureRef { kind, payload: pos..end }),
            }
            pos = end;
        }
        if pictures.len() as u32 != header.frame_count {
            return Err(CodecError::Malformed {
                reason: format!(
                    "header promises {} pictures, found {}",
                    header.frame_count,
                    pictures.len()
                ),
            });
        }
        Ok(Self {
            width: header.width,
            height: header.height,
            fps: header.fps,
            gop_size: header.gop_size,
            user_data,
            stream,
            pictures,
            next: 0,
            reference: None,
            opts: CodecOptions::default(),
            parallel: ParallelConfig::default(),
            scratch: picture::CodecScratch::default(),
        })
    }

    /// Decodes closed GOPs concurrently over `parallel` worker threads in
    /// [`Decoder::decode_all`] and [`Decoder::decode_all_yuv`]; each
    /// picture decodes on one thread. Every worker count produces
    /// byte-identical frames; `workers == 0` (the default) is the inline
    /// serial reference.
    #[must_use]
    pub fn with_parallelism(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Uses the retained float matrix iDCT/dequant kernels instead of the
    /// fixed-point AAN fast path. Must match the encoder's setting for
    /// drift-free prediction (the bitstream does not record the kernel).
    #[must_use]
    pub fn with_reference_kernels(mut self, reference: bool) -> Self {
        self.opts.reference_kernels = reference;
        self
    }

    /// All user-data payloads, in stream order — available before any
    /// picture is decoded.
    pub fn user_data(&self) -> &[Bytes] {
        &self.user_data
    }

    /// Frame dimensions.
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// I-frame interval.
    pub fn gop_size(&self) -> u8 {
        self.gop_size
    }

    /// Number of coded pictures.
    pub fn frame_count(&self) -> u32 {
        self.pictures.len() as u32
    }

    /// Decodes the next picture in display order, or `None` at end of
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] for corrupt picture payloads or a
    /// P picture with no preceding I picture.
    pub fn decode_next(&mut self) -> Result<Option<Frame>, CodecError> {
        Ok(self.decode_next_yuv()?.map(|yuv| yuv.to_rgb()))
    }

    /// Decodes the next picture in display order in the codec's native
    /// planar 4:2:0 representation (no RGB conversion), or `None` at end
    /// of stream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] for corrupt picture payloads or a
    /// P picture with no preceding I picture.
    pub fn decode_next_yuv(&mut self) -> Result<Option<Yuv420Frame>, CodecError> {
        if self.next >= self.pictures.len() {
            return Ok(None);
        }
        let mut out = Yuv420Frame::new(self.width, self.height)
            .map_err(|e| CodecError::Malformed { reason: e.to_string() })?;
        self.decode_next_yuv_into(&mut out)?;
        Ok(Some(out))
    }

    /// Decodes the next picture into `out` (reallocating it only when its
    /// geometry differs), returning `false` at end of stream. This is the
    /// allocation-free form of [`Decoder::decode_next_yuv`]: `out`, the
    /// decoder's internal reference frame and its parsed-level scratch
    /// are all reused, so a warm playback loop performs no per-frame
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] for corrupt picture payloads or
    /// a P picture with no preceding I picture; `out` contents are
    /// unspecified (but valid) after an error.
    pub fn decode_next_yuv_into(&mut self, out: &mut Yuv420Frame) -> Result<bool, CodecError> {
        let Some(picture) = self.pictures.get(self.next) else {
            return Ok(false);
        };
        let payload = &self.stream[picture.payload.clone()];
        if (out.width(), out.height()) != (self.width, self.height) {
            *out = Yuv420Frame::new(self.width, self.height)
                .map_err(|e| CodecError::Malformed { reason: e.to_string() })?;
        }
        match picture.kind {
            PacketKind::IntraPicture => {
                picture::decode_picture_into(payload, None, out, &self.opts, &mut self.scratch)?;
            }
            PacketKind::PredictedPicture => {
                let reference = self.reference.as_ref().ok_or_else(|| CodecError::Malformed {
                    reason: "P picture before any I picture".into(),
                })?;
                picture::decode_picture_into(payload, Some(reference), out, &self.opts, &mut self.scratch)?;
            }
            PacketKind::UserData => unreachable!("user data filtered at parse time"),
        }
        self.next += 1;
        // clone_from semantics: the reference planes are reused in place
        // once their sizes have converged (first picture clones).
        match &mut self.reference {
            Some(r) => r.copy_from(out),
            None => self.reference = Some(out.clone()),
        }
        Ok(true)
    }

    /// Decodes every remaining picture, fanning **closed GOPs** out across
    /// the configured worker pool ([`decode_all_batched`] with this
    /// decoder as the one stream).
    ///
    /// Each intra picture resets the prediction chain, so the pictures
    /// from one I packet up to (excluding) the next are an independent
    /// job, which decodes its pictures one after another and converts
    /// each to RGB. Results are reassembled in display order: every
    /// worker count returns byte-identical frames.
    ///
    /// # Errors
    ///
    /// Returns the first decode error encountered (in display order).
    pub fn decode_all(&mut self) -> Result<Vec<Frame>, CodecError> {
        self.decode_all_as(Yuv420Frame::to_rgb)
    }

    /// [`Decoder::decode_all`] in the codec's native planar 4:2:0
    /// representation: every remaining picture, no RGB conversion.
    ///
    /// # Errors
    ///
    /// Returns the first decode error encountered (in display order).
    pub fn decode_all_yuv(&mut self) -> Result<Vec<Yuv420Frame>, CodecError> {
        self.decode_all_as(Yuv420Frame::clone)
    }

    /// [`decode_all_batched`] over this decoder alone, at its own
    /// parallelism.
    fn decode_all_as<T, F>(&mut self, map: F) -> Result<Vec<T>, CodecError>
    where
        T: Send,
        F: Fn(&Yuv420Frame) -> T + Sync,
    {
        let parallel = self.parallel;
        let mut outs = decode_all_batched(std::slice::from_mut(self), &parallel, map)?;
        Ok(outs.pop().expect("one decoder, one output"))
    }
}

/// Decodes one closed GOP (first packet intra, rest predicted) serially,
/// returning the mapped display frames and the final reconstruction. One
/// [`picture::CodecScratch`] serves the whole job, and each picture
/// decodes into the frame the reference before last occupied.
fn decode_gop<T>(
    stream: &[u8],
    pictures: &[PictureRef],
    width: u32,
    height: u32,
    opts: &CodecOptions,
    map: impl Fn(&Yuv420Frame) -> T,
) -> Result<(Vec<T>, Yuv420Frame), CodecError> {
    let new_frame = || {
        Yuv420Frame::new(width, height).map_err(|e| CodecError::Malformed { reason: e.to_string() })
    };
    let mut scratch = picture::CodecScratch::default();
    let mut frames = Vec::with_capacity(pictures.len());
    let mut reference: Option<Yuv420Frame> = None;
    let mut cur = new_frame()?;
    for p in pictures {
        let payload = &stream[p.payload.clone()];
        let predicted_from = match p.kind {
            PacketKind::IntraPicture => None,
            PacketKind::PredictedPicture => Some(reference.as_ref().ok_or_else(|| {
                CodecError::Malformed { reason: "P picture before any I picture".into() }
            })?),
            PacketKind::UserData => unreachable!("user data filtered at parse time"),
        };
        picture::decode_picture_into(payload, predicted_from, &mut cur, opts, &mut scratch)?;
        frames.push(map(&cur));
        cur = match reference.replace(cur) {
            Some(spare) => spare,
            None => new_frame()?,
        };
    }
    let last = reference.expect("decode_gop called with at least one packet");
    Ok((frames, last))
}

/// Encodes `clips[i]` through `encoders[i]` for every job, fanning the
/// **closed GOPs of all jobs** out over one shared worker pool.
///
/// Byte-identical to pushing every frame through
/// [`Encoder::push_yuv_frame`]: each job's open-GOP prefix is encoded
/// serially off its live reference first, then every closed GOP — across
/// *all* jobs — becomes one work item of a single [`fan_out`]. A fleet of
/// short sessions therefore saturates the pool even when no single clip
/// carries enough GOPs to, and short straggler clips overlap with long
/// ones instead of serialising behind per-clip dispatches.
///
/// With `parallel.workers ≤ 1` every frame goes through
/// [`Encoder::push_yuv_frame`], and so does every frame of a
/// rate-controlled job (the controller's qscale feedback makes GOPs
/// dependent).
///
/// # Panics
///
/// Panics if `encoders` and `clips` have different lengths.
///
/// # Errors
///
/// Returns [`CodecError::FrameSizeMismatch`] if any job's frames don't
/// match its encoder (validated for every job up front — no frame is
/// consumed on error).
pub fn encode_yuv_batched(
    encoders: &mut [Encoder],
    clips: &[&[Yuv420Frame]],
    parallel: &ParallelConfig,
) -> Result<(), CodecError> {
    assert_eq!(encoders.len(), clips.len(), "one clip per encoder");
    for (enc, clip) in encoders.iter().zip(clips) {
        for yuv in *clip {
            if (yuv.width(), yuv.height()) != (enc.config.width, enc.config.height) {
                return Err(CodecError::FrameSizeMismatch {
                    expected: (enc.config.width, enc.config.height),
                    actual: (yuv.width(), yuv.height()),
                });
            }
        }
    }
    let lens: Vec<usize> = clips.iter().map(|clip| clip.len()).collect();
    encode_batch(encoders, &lens, parallel, |job| clips[job])
}

/// The one batch body: `lens[job]` frames for `encoders[job]`, produced
/// by the sources `source(job)` makes.
///
/// Each job's serial prefix (the frames continuing its open GOP, or the
/// whole job when it runs serially) goes through one source and
/// [`Encoder::push_yuv_frame`]; every `gop_size` frames after that form
/// a closed GOP, one work item of a single [`fan_out`] across all jobs.
/// Packets are appended in GOP order once every GOP has succeeded, and
/// the first error in GOP order is returned otherwise.
fn encode_batch<S, M>(
    encoders: &mut [Encoder],
    lens: &[usize],
    parallel: &ParallelConfig,
    source: M,
) -> Result<(), S::Error>
where
    S: FrameSource,
    S::Error: Send,
    M: Fn(usize) -> S + Sync,
{
    let mut units: Vec<(usize, Range<usize>)> = Vec::new();
    for (job, (enc, &len)) in encoders.iter_mut().zip(lens).enumerate() {
        let serial = parallel.workers <= 1 || enc.rate.is_some();
        let mut idx = 0;
        if len > 0 && (serial || !enc.next_is_intra()) {
            let mut frames = source(job);
            while idx < len && (serial || !enc.next_is_intra()) {
                enc.push_yuv_frame(frames.frame(idx)?)?;
                idx += 1;
            }
        }
        let gop = usize::from(enc.config.gop_size);
        units.extend((idx..len).step_by(gop).map(|start| (job, start..(start + gop).min(len))));
    }
    let shared: &[Encoder] = encoders;
    let outs = fan_out(parallel.workers, &units, |(job, frames)| {
        let last = frames.end == lens[*job];
        encode_gop(&mut source(*job), frames.clone(), &shared[*job], last)
    });
    let outs = outs.into_iter().collect::<Result<Vec<_>, _>>()?;
    for ((job, _), out) in units.iter().zip(outs) {
        encoders[*job].append_gop(out);
    }
    Ok(())
}

/// Decodes every remaining picture of every decoder, fanning the closed
/// GOPs of **all streams** out over one shared worker pool, and maps each
/// picture through `map` inside its job (so a per-frame output
/// conversion runs in parallel with the decode).
///
/// Byte-identical to mapping every [`Decoder::decode_next_yuv`] picture:
/// open-GOP prefixes decode serially off each stream's live reference,
/// then every closed GOP across all streams is one work item of a single
/// [`fan_out`]. With `parallel.workers ≤ 1` every picture decodes
/// through [`Decoder::decode_next_yuv`]. `frames[i]` holds stream `i`'s
/// pictures in display order.
///
/// # Errors
///
/// Returns the first decode error in stream order for the serial
/// prefixes, then in GOP order; decoders whose GOPs completed before
/// the failing one retain their advanced state.
pub fn decode_all_batched<T, F>(
    decoders: &mut [Decoder],
    parallel: &ParallelConfig,
    map: F,
) -> Result<Vec<Vec<T>>, CodecError>
where
    T: Send,
    F: Fn(&Yuv420Frame) -> T + Sync,
{
    let mut outs: Vec<Vec<T>> = decoders
        .iter()
        .map(|d| Vec::with_capacity(d.pictures.len() - d.next))
        .collect();
    // Serial prefixes: pictures continuing each stream's open GOP, or the
    // whole stream when there is no pool to fan out to.
    for (d, out) in decoders.iter_mut().zip(&mut outs) {
        while d
            .pictures
            .get(d.next)
            .is_some_and(|p| parallel.workers <= 1 || p.kind != PacketKind::IntraPicture)
        {
            match d.decode_next_yuv()? {
                Some(yuv) => out.push(map(&yuv)),
                None => break,
            }
        }
    }
    // Every stream's closed GOPs, one work item each.
    let mut units: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    for (job, d) in decoders.iter().enumerate() {
        let mut bounds: Vec<usize> = (d.next..d.pictures.len())
            .filter(|&i| d.pictures[i].kind == PacketKind::IntraPicture)
            .collect();
        bounds.push(d.pictures.len());
        units.extend(bounds.windows(2).map(|w| (job, w[0]..w[1])));
    }
    let shared: &[Decoder] = decoders;
    let results = fan_out(parallel.workers, &units, |(job, pics)| {
        let d = &shared[*job];
        decode_gop(&d.stream, &d.pictures[pics.clone()], d.width, d.height, &d.opts, &map)
    });
    for ((job, pics), result) in units.into_iter().zip(results) {
        let (frames, last) = result?;
        outs[job].extend(frames);
        decoders[job].reference = Some(last);
        decoders[job].next = pics.end;
    }
    Ok(outs)
}

/// [`decode_all_batched`] in the codec's native planar 4:2:0
/// representation: byte-identical to calling [`Decoder::decode_all_yuv`]
/// per decoder.
///
/// # Errors
///
/// As [`decode_all_batched`].
pub fn decode_all_yuv_batched(
    decoders: &mut [Decoder],
    parallel: &ParallelConfig,
) -> Result<Vec<Vec<Yuv420Frame>>, CodecError> {
    decode_all_batched(decoders, parallel, Yuv420Frame::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::psnr;

    fn frames(n: u32, w: u32, h: u32) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                Frame::from_fn(w, h, |x, y| {
                    let v = (120.0
                        + 70.0 * (((x + i * 2) as f32) * 0.15).sin()
                        + 40.0 * ((y as f32) * 0.2).cos())
                    .round()
                    .clamp(0.0, 255.0) as u8;
                    [v, v / 2, 255 - v]
                })
            })
            .collect()
    }

    fn encode(frames: &[Frame], cfg: EncoderConfig, user: &[&[u8]]) -> EncodedStream {
        let mut enc = Encoder::new(cfg).unwrap();
        for u in user {
            enc.push_user_data(u);
        }
        for f in frames {
            enc.push_frame(f).unwrap();
        }
        enc.finish()
    }

    fn cfg(w: u32, h: u32) -> EncoderConfig {
        EncoderConfig {
            width: w,
            height: h,
            fps: 12.0,
            gop_size: 4,
            qscale: QScale::new(4),
            target_bitrate_bps: None,
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let fs = frames(9, 32, 32);
        let stream = encode(&fs, cfg(32, 32), &[b"hello"]);
        let mut dec = Decoder::new(&stream).unwrap();
        assert_eq!(dec.dimensions(), (32, 32));
        assert_eq!(dec.frame_count(), 9);
        assert_eq!(dec.gop_size(), 4);
        assert_eq!(dec.user_data().len(), 1);
        assert_eq!(&dec.user_data()[0][..], b"hello");
        let out = dec.decode_all().unwrap();
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn decoded_frames_are_faithful() {
        let fs = frames(8, 48, 32);
        let stream = encode(&fs, cfg(48, 32), &[]);
        let mut dec = Decoder::new(&stream).unwrap();
        for (i, orig) in fs.iter().enumerate() {
            let d = dec.decode_next().unwrap().unwrap();
            let p = psnr(orig, &d);
            assert!(p > 28.0, "frame {i} PSNR {p:.1} dB");
        }
    }

    #[test]
    fn gop_structure_alternates() {
        let fs = frames(10, 32, 32);
        let stream = encode(&fs, cfg(32, 32), &[]);
        let dec = Decoder::new(&stream).unwrap();
        let kinds: Vec<PacketKind> = dec.pictures.iter().map(|p| p.kind).collect();
        assert_eq!(kinds[0], PacketKind::IntraPicture);
        assert_eq!(kinds[1], PacketKind::PredictedPicture);
        assert_eq!(kinds[4], PacketKind::IntraPicture, "gop_size 4 → I at 0, 4, 8");
        assert_eq!(kinds[8], PacketKind::IntraPicture);
    }

    #[test]
    fn user_data_interleaves_in_order() {
        let fs = frames(2, 32, 32);
        let mut enc = Encoder::new(cfg(32, 32)).unwrap();
        enc.push_user_data(b"first");
        enc.push_frame(&fs[0]).unwrap();
        enc.push_user_data(b"second");
        enc.push_frame(&fs[1]).unwrap();
        let stream = enc.finish();
        let dec = Decoder::new(&stream).unwrap();
        let ud: Vec<&[u8]> = dec.user_data().iter().map(|b| &b[..]).collect();
        assert_eq!(ud, vec![&b"first"[..], &b"second"[..]]);
    }

    #[test]
    fn frame_size_mismatch_rejected() {
        let mut enc = Encoder::new(cfg(32, 32)).unwrap();
        let err = enc.push_frame(&Frame::new(16, 16)).unwrap_err();
        assert!(matches!(err, CodecError::FrameSizeMismatch { .. }));
    }

    #[test]
    fn bad_config_rejected() {
        assert!(Encoder::new(EncoderConfig { width: 30, ..cfg(32, 32) }).is_err());
        assert!(Encoder::new(EncoderConfig { fps: 0.0, ..cfg(32, 32) }).is_err());
        assert!(Encoder::new(EncoderConfig { gop_size: 0, ..cfg(32, 32) }).is_err());
    }

    #[test]
    fn frame_rate_is_what_the_header_carries() {
        // The millihertz field's extremes are accepted and reported as
        // carried; just past either end is rejected.
        for (fps, carried) in [(0.0005, 0.001), (4_294_967.295, 4_294_967.295), (23.976, 23.976)] {
            let stream = Encoder::new(EncoderConfig { fps, ..cfg(32, 32) }).unwrap().finish();
            assert_eq!(stream.fps(), carried, "fps {fps}");
            assert_eq!(EncodedStream::from_bytes(stream.as_bytes().to_vec()).unwrap(), stream);
        }
        for fps in [0.000_499, 4_294_967.295_5] {
            let err = Encoder::new(EncoderConfig { fps, ..cfg(32, 32) });
            assert!(matches!(err, Err(CodecError::BadConfig { .. })), "fps {fps}");
        }
    }

    #[test]
    fn corrupt_streams_rejected() {
        assert!(Decoder::from_bytes(b"").is_err());
        assert!(Decoder::from_bytes(b"XXXXXXXXXXXXXXXXXXXX").is_err());
        let fs = frames(3, 32, 32);
        let stream = encode(&fs, cfg(32, 32), &[b"u"]);
        let mut bytes = stream.as_bytes().to_vec();
        bytes.truncate(bytes.len() - 5);
        assert!(Decoder::from_bytes(&bytes).is_err());
    }

    #[test]
    fn stream_from_bytes_roundtrip() {
        let fs = frames(3, 32, 32);
        let stream = encode(&fs, cfg(32, 32), &[]);
        let again = EncodedStream::from_bytes(stream.as_bytes().to_vec()).unwrap();
        assert_eq!(again, stream);
        assert_eq!(again.frame_count(), 3);
    }

    #[test]
    fn empty_stream_has_zero_frames() {
        let enc = Encoder::new(cfg(32, 32)).unwrap();
        let stream = enc.finish();
        assert_eq!(stream.frame_count(), 0);
        let mut dec = Decoder::new(&stream).unwrap();
        assert!(dec.decode_next().unwrap().is_none());
    }

    #[test]
    fn rate_control_holds_budget_end_to_end() {
        let fs = frames(36, 64, 48);
        let fps = 12.0;
        let target_bps = 200_000.0;
        let stream = encode(
            &fs,
            EncoderConfig {
                width: 64,
                height: 48,
                fps,
                gop_size: 6,
                qscale: QScale::new(8),
                target_bitrate_bps: Some(target_bps),
            },
            &[],
        );
        let duration = fs.len() as f64 / fps;
        let achieved_bps = stream.len() as f64 * 8.0 / duration;
        assert!(
            achieved_bps < target_bps * 1.4,
            "achieved {achieved_bps} bps vs target {target_bps}"
        );
        // And the stream still decodes faithfully.
        let mut dec = Decoder::new(&stream).unwrap();
        assert_eq!(dec.decode_all().unwrap().len(), 36);
    }

    #[test]
    fn bad_bitrate_rejected() {
        let err = Encoder::new(EncoderConfig {
            target_bitrate_bps: Some(0.0),
            ..cfg(32, 32)
        });
        assert!(err.is_err());
    }

    #[test]
    fn gop_parallel_encode_is_byte_identical() {
        let fs = frames(13, 48, 32);
        let serial = encode(&fs, cfg(48, 32), &[b"ud"]);
        for workers in [1, 2, 4, 7] {
            let mut enc = Encoder::new(cfg(48, 32))
                .unwrap()
                .with_parallelism(ParallelConfig::with_workers(workers));
            enc.push_user_data(b"ud");
            enc.push_frames(&fs).unwrap();
            let stream = enc.finish();
            assert_eq!(stream.as_bytes(), serial.as_bytes(), "workers {workers}");
        }
    }

    /// A test source: converts RGB frames on demand, counts the sources
    /// made, and fails at the frames in `fail_at` with their index.
    struct Converting<'a> {
        frames: &'a [Frame],
        yuv: Yuv420Frame,
        fail_at: &'a [usize],
    }

    #[derive(Debug, PartialEq)]
    enum SourceError {
        Failed(usize),
        Codec(CodecError),
    }

    impl From<CodecError> for SourceError {
        fn from(e: CodecError) -> Self {
            SourceError::Codec(e)
        }
    }

    impl FrameSource for Converting<'_> {
        type Error = SourceError;

        fn frame(&mut self, i: usize) -> Result<&Yuv420Frame, SourceError> {
            if self.fail_at.contains(&i) {
                return Err(SourceError::Failed(i));
            }
            self.frames[i].to_yuv420_into(&mut self.yuv).unwrap();
            Ok(&self.yuv)
        }
    }

    /// Encodes `fs` through [`Encoder::push_frames_from`] at `workers`,
    /// then `tail` one frame at a time (predicted from the batch's last
    /// reconstruction), returning the result and how many sources the
    /// batch made.
    fn encode_from(
        fs: &[Frame],
        tail: &[Frame],
        config: EncoderConfig,
        workers: usize,
        fail_at: &[usize],
    ) -> (Result<EncodedStream, SourceError>, usize) {
        let made = std::sync::atomic::AtomicUsize::new(0);
        let mut enc = Encoder::new(config)
            .unwrap()
            .with_parallelism(ParallelConfig::with_workers(workers));
        enc.push_user_data(b"ud");
        let pushed = enc.push_frames_from(fs.len(), || {
            made.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Converting { frames: fs, yuv: blank_frame(config.width, config.height), fail_at }
        });
        let pushed = pushed.map(|()| {
            for f in tail {
                enc.push_frame(f).unwrap();
            }
            enc.finish()
        });
        (pushed, made.into_inner())
    }

    #[test]
    fn frame_source_batches_match_push_frame_for_every_worker_count() {
        let config = EncoderConfig { gop_size: 12, ..cfg(48, 32) };
        for n in [1, 11, 12, 13, 25] {
            // One frame past the batch, which a partial last GOP codes
            // against the batch's last reconstruction.
            let fs = frames(n + 1, 48, 32);
            let serial = encode(&fs, config, &[b"ud"]);
            let (batch, tail) = fs.split_at(n as usize);
            for workers in [0, 1, 2, 4] {
                let (stream, made) = encode_from(batch, tail, config, workers, &[]);
                let stream = stream.unwrap();
                assert_eq!(stream.as_bytes(), serial.as_bytes(), "{n} frames, workers {workers}");
                // One source per closed GOP when the batch fans out.
                let gops = if workers > 1 { (n as usize).div_ceil(12) } else { 1 };
                assert_eq!(made, gops, "{n} frames, workers {workers}");
            }
        }
    }

    #[test]
    fn a_source_failing_in_two_gops_returns_the_earlier_error() {
        let config = EncoderConfig { gop_size: 12, ..cfg(32, 32) };
        let fs = frames(25, 32, 32);
        for workers in [0, 1, 2, 4] {
            let (result, _) = encode_from(&fs, &[], config, workers, &[17, 5]);
            assert_eq!(result.unwrap_err(), SourceError::Failed(5), "workers {workers}");
        }
    }

    #[test]
    fn a_rate_controlled_frame_source_batch_codes_serially() {
        let rc = EncoderConfig { target_bitrate_bps: Some(150_000.0), gop_size: 4, ..cfg(32, 32) };
        let fs = frames(13, 32, 32);
        let serial = encode(&fs, rc, &[b"ud"]);
        let (stream, made) = encode_from(&fs, &[], rc, 4, &[]);
        assert_eq!(stream.unwrap().as_bytes(), serial.as_bytes());
        assert_eq!(made, 1, "one source feeds the serial chain");
    }

    #[test]
    fn push_frames_resumes_open_gop_byte_identically() {
        // Two frames pushed singly leave a GOP open; the batch path must
        // stitch onto it exactly.
        let fs = frames(11, 32, 32);
        let serial = encode(&fs, cfg(32, 32), &[]);
        let mut enc = Encoder::new(cfg(32, 32))
            .unwrap()
            .with_parallelism(ParallelConfig::with_workers(3));
        enc.push_frame(&fs[0]).unwrap();
        enc.push_frame(&fs[1]).unwrap();
        enc.push_frames(&fs[2..]).unwrap();
        assert_eq!(enc.finish().as_bytes(), serial.as_bytes());
    }

    #[test]
    fn gop_parallel_decode_matches_serial() {
        let fs = frames(13, 48, 32);
        let stream = encode(&fs, cfg(48, 32), &[]);
        let reference = Decoder::new(&stream).unwrap().decode_all().unwrap();
        for workers in [1, 2, 4, 7] {
            let mut dec = Decoder::new(&stream)
                .unwrap()
                .with_parallelism(ParallelConfig::with_workers(workers));
            let got = dec.decode_all().unwrap();
            assert_eq!(got, reference, "workers {workers}");
            // The decoder must be resumable/consistent afterwards.
            assert!(dec.decode_next().unwrap().is_none());
        }
    }

    #[test]
    fn parallel_decode_mid_stream_matches_serial_tail() {
        let fs = frames(10, 32, 32);
        let stream = encode(&fs, cfg(32, 32), &[]);
        let mut serial = Decoder::new(&stream).unwrap();
        let all = serial.decode_all().unwrap();
        let mut dec = Decoder::new(&stream)
            .unwrap()
            .with_parallelism(ParallelConfig::with_workers(2));
        // Consume three pictures one at a time (lands mid-GOP), then batch.
        for _ in 0..3 {
            dec.decode_next().unwrap().unwrap();
        }
        let tail = dec.decode_all().unwrap();
        assert_eq!(tail, all[3..].to_vec());
    }

    #[test]
    fn oversized_dimensions_rejected() {
        // Encoder-side: config beyond the cap.
        let err = Encoder::new(EncoderConfig { width: MAX_DIM + 16, ..cfg(32, 32) });
        assert!(matches!(err, Err(CodecError::BadDimensions { .. })));
        // Decoder-side: a forged header must be rejected before any
        // multi-gigabyte allocation is attempted.
        let fs = frames(1, 32, 32);
        let mut bytes = encode(&fs, cfg(32, 32), &[]).as_bytes().to_vec();
        bytes[4..6].copy_from_slice(&8192u16.to_le_bytes());
        assert!(Decoder::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rate_controlled_push_frames_falls_back_to_serial_chain() {
        let fs = frames(12, 32, 32);
        let rc = EncoderConfig {
            target_bitrate_bps: Some(150_000.0),
            ..cfg(32, 32)
        };
        let mut serial = Encoder::new(rc).unwrap();
        for f in &fs {
            serial.push_frame(f).unwrap();
        }
        let serial = serial.finish();
        let mut batch = Encoder::new(rc)
            .unwrap()
            .with_parallelism(ParallelConfig::with_workers(4));
        batch.push_frames(&fs).unwrap();
        assert_eq!(batch.finish().as_bytes(), serial.as_bytes());
    }

    #[test]
    fn yuv_domain_api_matches_rgb_api() {
        // push_yuv_frames(to_yuv420(f)) must be byte-identical to
        // push_frames(f), serial and parallel, and decode_all_yuv must
        // return exactly the frames whose to_rgb is decode_all's output.
        let fs = frames(9, 48, 32);
        let yuv: Vec<_> = fs.iter().map(|f| f.to_yuv420().unwrap()).collect();
        let via_rgb = encode(&fs, cfg(48, 32), &[]);
        for workers in [0, 3] {
            let mut enc = Encoder::new(cfg(48, 32))
                .unwrap()
                .with_parallelism(ParallelConfig::with_workers(workers));
            enc.push_yuv_frames(&yuv).unwrap();
            let stream = enc.finish();
            assert_eq!(stream.as_bytes(), via_rgb.as_bytes(), "workers {workers}");
        }
        let rgb_frames = Decoder::new(&via_rgb).unwrap().decode_all().unwrap();
        for workers in [0, 3] {
            let mut dec = Decoder::new(&via_rgb)
                .unwrap()
                .with_parallelism(ParallelConfig::with_workers(workers));
            let yuv_frames = dec.decode_all_yuv().unwrap();
            assert_eq!(yuv_frames.len(), rgb_frames.len());
            for (y, r) in yuv_frames.iter().zip(&rgb_frames) {
                assert_eq!(&y.to_rgb(), r, "workers {workers}");
            }
        }
        // Single-picture YUV decode agrees too, and dimension mismatches
        // are rejected without consuming the frame.
        let mut dec = Decoder::new(&via_rgb).unwrap();
        let first = dec.decode_next_yuv().unwrap().unwrap();
        assert_eq!(&first.to_rgb(), &rgb_frames[0]);
        let mut enc = Encoder::new(cfg(48, 32)).unwrap();
        let wrong = annolight_imgproc::Yuv420Frame::new(32, 32).unwrap();
        assert!(matches!(
            enc.push_yuv_frame(&wrong),
            Err(CodecError::FrameSizeMismatch { .. })
        ));
        assert_eq!(enc.frame_count(), 0);
    }

    #[test]
    fn decode_next_yuv_into_matches_decode_next_yuv() {
        let fs = frames(9, 48, 32);
        let stream = encode(&fs, cfg(48, 32), &[]);
        let mut a = Decoder::new(&stream).unwrap();
        let mut b = Decoder::new(&stream).unwrap();
        // Deliberately wrong geometry: the first call must fix it up.
        let mut buf = Yuv420Frame::new(16, 16).unwrap();
        while let Some(expect) = a.decode_next_yuv().unwrap() {
            assert!(b.decode_next_yuv_into(&mut buf).unwrap());
            assert_eq!(buf, expect);
        }
        assert!(!b.decode_next_yuv_into(&mut buf).unwrap());
    }

    #[test]
    fn batched_encode_matches_per_stream_serial() {
        // Jobs of different lengths and geometries, one mid-GOP (open
        // prefix), one rate-controlled (serial fallback): the batch must
        // be byte-identical to per-stream encoding for every pool size.
        let jobs: Vec<(EncoderConfig, Vec<Yuv420Frame>)> = vec![
            (cfg(32, 32), frames(11, 32, 32).iter().map(|f| f.to_yuv420().unwrap()).collect()),
            (cfg(48, 32), frames(5, 48, 32).iter().map(|f| f.to_yuv420().unwrap()).collect()),
            (
                EncoderConfig { target_bitrate_bps: Some(150_000.0), ..cfg(32, 32) },
                frames(9, 32, 32).iter().map(|f| f.to_yuv420().unwrap()).collect(),
            ),
        ];
        let mut reference = Vec::new();
        for (c, clip) in &jobs {
            let mut enc = Encoder::new(*c).unwrap();
            enc.push_yuv_frame(&clip[0]).unwrap(); // leave GOP 0 open
            enc.push_yuv_frames(&clip[1..]).unwrap();
            reference.push(enc.finish());
        }
        for workers in [0, 2, 7] {
            let mut encs: Vec<Encoder> =
                jobs.iter().map(|(c, _)| Encoder::new(*c).unwrap()).collect();
            for (enc, (_, clip)) in encs.iter_mut().zip(&jobs) {
                enc.push_yuv_frame(&clip[0]).unwrap();
            }
            let clips: Vec<&[Yuv420Frame]> = jobs.iter().map(|(_, c)| &c[1..]).collect();
            encode_yuv_batched(&mut encs, &clips, &ParallelConfig::with_workers(workers))
                .unwrap();
            for ((enc, expect), (c, _)) in encs.into_iter().zip(&reference).zip(&jobs) {
                assert_eq!(
                    enc.finish().as_bytes(),
                    expect.as_bytes(),
                    "workers {workers}, config {c:?}"
                );
            }
        }
    }

    #[test]
    fn batched_decode_matches_per_stream_serial() {
        let streams: Vec<EncodedStream> = vec![
            encode(&frames(11, 32, 32), cfg(32, 32), &[b"a"]),
            encode(&frames(5, 48, 32), cfg(48, 32), &[]),
            encode(&frames(8, 32, 32), EncoderConfig { gop_size: 3, ..cfg(32, 32) }, &[]),
        ];
        let reference: Vec<Vec<Yuv420Frame>> = streams
            .iter()
            .map(|s| Decoder::new(s).unwrap().decode_all_yuv().unwrap())
            .collect();
        for workers in [0, 2, 7] {
            let mut decs: Vec<Decoder> =
                streams.iter().map(|s| Decoder::new(s).unwrap()).collect();
            // Leave the first stream mid-GOP to exercise the prefix path.
            decs[0].decode_next_yuv().unwrap().unwrap();
            let mut got =
                decode_all_yuv_batched(&mut decs, &ParallelConfig::with_workers(workers))
                    .unwrap();
            got[0].insert(0, reference[0][0].clone());
            assert_eq!(got, reference, "workers {workers}");
            for mut d in decs {
                assert!(d.decode_next_yuv().unwrap().is_none(), "decoders fully drained");
            }
        }
    }

    #[test]
    fn compression_is_real() {
        // 20 slowly-moving frames must compress far below raw RGB size.
        let fs = frames(20, 64, 48);
        let raw = 20 * 64 * 48 * 3;
        let stream = encode(&fs, EncoderConfig { gop_size: 10, ..cfg(64, 48) }, &[]);
        assert!(
            stream.len() * 3 < raw,
            "stream {} vs raw {raw}",
            stream.len()
        );
    }
}
