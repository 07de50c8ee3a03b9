//! Pixel, luminance and histogram substrate for the `annolight` workspace.
//!
//! This crate provides the image-processing primitives that the DATE 2006
//! backlight-annotation technique is built on:
//!
//! * [`color`] — RGB/YUV pixel types and the luminance formula
//!   `Y = r·R + g·G + b·B` used throughout the paper (§4.1).
//! * [`frame`] — owned frame buffers ([`Frame`] for interleaved RGB,
//!   [`LumaFrame`] for a single luminance plane, [`Yuv420Frame`] for the
//!   codec's chroma-subsampled representation).
//! * [`histogram`] — 256-bin luminance histograms with the statistics the
//!   paper reads off them (average point, dynamic range, clip levels) and
//!   the distances used for camera-based quality validation.
//! * [`compensate`] — the two image-compensation operators of §4.1:
//!   *contrast enhancement* (`C' = min(1, C·k)`) and *brightness
//!   compensation* (`C' = min(1, C + δC)`), with clipping statistics.
//! * [`simd`] — runtime-dispatched SSE2/AVX2 kernels for the per-pixel
//!   hot paths (histogram accumulation, LUT application, YUV↔RGB
//!   conversion), byte-identical to the retained scalar references on
//!   every input.
//!
//! # Example
//!
//! ```
//! use annolight_imgproc::{Frame, Histogram};
//!
//! // A dark frame with a few sparse highlights.
//! let frame = Frame::from_fn(64, 64, |x, y| {
//!     if (x + y) % 61 == 0 { [230, 230, 230] } else { [40, 42, 38] }
//! });
//! let hist = frame.luma_histogram();
//! // Allowing 5% of the brightest pixels to clip lowers the effective
//! // maximum luminance dramatically on dark content.
//! assert!(hist.clip_level(0.05) < hist.max_nonzero().unwrap());
//! ```

// `deny` (not `forbid`) so the SIMD kernels in `simd` can carve out
// narrowly-scoped `#[allow(unsafe_code)]` intrinsics blocks, the same
// discipline as `annolight_codec::motion`. Everything else stays
// safe-only.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod color;
pub mod compensate;
pub mod error;
pub mod frame;
pub mod hebs;
pub mod histogram;
pub mod quality;
pub mod scale;
pub mod simd;

pub use color::{luma_u8, luma_u8_lut, Rgb8, Yuv8};
pub use compensate::{
    brightness_compensate, compensation_fixed_factor, contrast_enhance, contrast_enhance_float,
    contrast_enhance_scalar, scale_channel_fixed, ClipStats, CompensationKind, CompensationLut,
};
pub use error::ImageError;
pub use frame::{Frame, LumaFrame, Yuv420Frame};
pub use hebs::{hebs_remap_scalar, hebs_stretch_value, HebsLut};
pub use histogram::Histogram;
pub use quality::ssim_luma;
pub use scale::{crop, downscale_2x, letterbox};
pub use simd::{kernel_tier, KernelTier};
