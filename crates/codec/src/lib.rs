//! An MPEG-1-flavoured software video codec with an annotation side-channel.
//!
//! The paper implements its player on top of the Berkeley MPEG tools and
//! embeds annotations in the stream so they are "available even before
//! decoding the data". This crate is the from-scratch stand-in: a complete
//! block-transform codec —
//!
//! * 8×8 DCT ([`dct`]) with MPEG-style quantisation ([`quant`]),
//! * zig-zag scan + run/level coding ([`zigzag`]),
//! * Exp-Golomb entropy coding over a bit-exact bitstream ([`bitio`]),
//! * 16×16-macroblock motion estimation and compensation ([`motion`]),
//! * I/P picture coding ([`picture`]),
//! * a packetised container with **user-data packets** that carry the
//!   annotation track ahead of the frames it describes ([`stream`]),
//! * PSNR utilities ([`metrics`]).
//!
//! # Example
//!
//! ```
//! use annolight_codec::{Decoder, Encoder, EncoderConfig};
//! use annolight_imgproc::Frame;
//!
//! let frames: Vec<Frame> = (0..4)
//!     .map(|i| Frame::from_fn(32, 32, |x, y| {
//!         let v = ((x + y + i * 3) * 4 % 200) as u8;
//!         [v, v, v]
//!     }))
//!     .collect();
//! let mut enc = Encoder::new(EncoderConfig { width: 32, height: 32, fps: 12.0, ..Default::default() })?;
//! enc.push_user_data(b"annotations ride here");
//! for f in &frames {
//!     enc.push_frame(f)?;
//! }
//! let stream = enc.finish();
//!
//! let mut dec = Decoder::new(&stream)?;
//! assert_eq!(dec.user_data().len(), 1); // available before any decode
//! let decoded = dec.decode_all()?;
//! assert_eq!(decoded.len(), 4);
//! # Ok::<(), annolight_codec::CodecError>(())
//! ```

// Unsafe is denied crate-wide. The exemptions, each with per-block
// safety comments:
//
// * [`motion`]: the four SSE2 sites — the full-pel and half-pel SAD row
//   kernels, the half-pel row interpolator `interp16`, and the 16-wide
//   half-pel prediction store. Baseline ISA, bounds-checked slices,
//   explicitly unaligned loads and stores.
// * `simd`: the AVX2 transform, quantiser and SAD kernels — the `Avx2`
//   token methods that enter them (a token exists only on an AVX2 host)
//   and the helpers that load and store bounds-checked block and row
//   subslices (`load`, `store`, `quantize`, `dequantize`, `row_pair`,
//   `cur_pair`), every access explicitly unaligned.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod dct;
pub mod error;
pub mod metrics;
pub mod motion;
pub mod picture;
pub mod quant;
pub mod rate;
mod simd;
pub mod stream;
pub mod zigzag;

pub use error::CodecError;
pub use metrics::{psnr, psnr_luma};
pub use stream::{
    decode_all_batched, decode_all_yuv_batched, encode_yuv_batched, Decoder, EncodedStream,
    Encoder, EncoderConfig, PacketKind,
};
