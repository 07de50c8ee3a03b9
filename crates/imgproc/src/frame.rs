//! Owned frame buffers.
//!
//! Three representations are used across the workspace:
//!
//! * [`Frame`] — interleaved 8-bit RGB, the representation the annotation
//!   analysis and compensation operate on;
//! * [`LumaFrame`] — a single 8-bit luminance plane (what the display model
//!   and camera ultimately see);
//! * [`Yuv420Frame`] — 4:2:0 planar YUV, the codec's native layout.

use crate::color::{luma_u8, Rgb8};
use crate::error::ImageError;
use crate::histogram::Histogram;

/// An owned, interleaved 8-bit RGB frame.
///
/// Pixels are stored row-major as `[r, g, b, r, g, b, …]`.
///
/// # Example
///
/// ```
/// use annolight_imgproc::{Frame, Rgb8};
/// let mut f = Frame::filled(4, 2, Rgb8::gray(10));
/// f.set_pixel(3, 1, Rgb8::new(200, 200, 200));
/// assert_eq!(f.max_luma(), 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a black frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        Self { width, height, data: vec![0; width as usize * height as usize * 3] }
    }

    /// Creates a frame filled with `pixel`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: u32, height: u32, pixel: Rgb8) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        let mut data = Vec::with_capacity(width as usize * height as usize * 3);
        for _ in 0..(width as usize * height as usize) {
            data.extend_from_slice(&pixel.to_array());
        }
        Self { width, height, data }
    }

    /// Creates a frame by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> [u8; 3]) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        let mut data = Vec::with_capacity(width as usize * height as usize * 3);
        for y in 0..height {
            for x in 0..width {
                data.extend_from_slice(&f(x, y));
            }
        }
        Self { width, height, data }
    }

    /// Wraps an existing interleaved RGB buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BufferSizeMismatch`] if `data.len()` is not
    /// `width * height * 3`, or [`ImageError::InvalidDimensions`] for a
    /// zero dimension.
    pub fn from_rgb_buffer(width: u32, height: u32, data: Vec<u8>) -> Result<Self, ImageError> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions { width, height });
        }
        let expected = width as usize * height as usize * 3;
        if data.len() != expected {
            return Err(ImageError::BufferSizeMismatch { expected, actual: data.len() });
        }
        Ok(Self { width, height, data })
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Raw interleaved RGB bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw interleaved RGB bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consumes the frame and returns the underlying buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    fn offset(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize * self.width as usize + x as usize) * 3
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn pixel(&self, x: u32, y: u32) -> Rgb8 {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        let o = self.offset(x, y);
        Rgb8::new(self.data[o], self.data[o + 1], self.data[o + 2])
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set_pixel(&mut self, x: u32, y: u32, p: Rgb8) {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        let o = self.offset(x, y);
        self.data[o] = p.r;
        self.data[o + 1] = p.g;
        self.data[o + 2] = p.b;
    }

    /// Iterates over all pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = Rgb8> + '_ {
        self.data.chunks_exact(3).map(|c| Rgb8::new(c[0], c[1], c[2]))
    }

    /// Applies `f` to every pixel in place.
    pub fn map_pixels_in_place(&mut self, mut f: impl FnMut(Rgb8) -> Rgb8) {
        for c in self.data.chunks_exact_mut(3) {
            let p = f(Rgb8::new(c[0], c[1], c[2]));
            c[0] = p.r;
            c[1] = p.g;
            c[2] = p.b;
        }
    }

    /// Computes the luminance plane of the frame.
    pub fn to_luma(&self) -> LumaFrame {
        let data = self
            .data
            .chunks_exact(3)
            .map(|c| luma_u8(c[0], c[1], c[2]))
            .collect();
        LumaFrame { width: self.width, height: self.height, data }
    }

    /// Builds the 256-bin luminance histogram of the frame.
    ///
    /// Dispatches to the widest SIMD accumulator the host supports (see
    /// [`crate::simd::kernel_tier`]); every tier computes the identical
    /// integer arithmetic as [`crate::color::luma_u8_lut`] per pixel
    /// (exactly equal to [`luma_u8`]) — this is the profiling stage's
    /// inner kernel.
    pub fn luma_histogram(&self) -> Histogram {
        crate::simd::luma_histogram(self, crate::simd::kernel_tier())
    }

    /// [`Self::luma_histogram`] at an explicit
    /// [`KernelTier`](crate::simd::KernelTier) (clamped to host
    /// capability) — the hook the differential conformance tier sweeps.
    pub fn luma_histogram_with(&self, tier: crate::simd::KernelTier) -> Histogram {
        crate::simd::luma_histogram(self, tier)
    }

    /// Resets `out` and accumulates this frame's luma histogram into it —
    /// the allocation-free form of [`Self::luma_histogram`] (histogram
    /// bins are inline storage; the kernel's partials live on the stack).
    pub fn luma_histogram_into(&self, out: &mut Histogram) {
        crate::simd::luma_histogram_into(self, out, crate::simd::kernel_tier());
    }

    /// Maximum pixel luminance in the frame.
    pub fn max_luma(&self) -> u8 {
        self.data
            .chunks_exact(3)
            .map(|c| luma_u8(c[0], c[1], c[2]))
            .max()
            .unwrap_or(0)
    }

    /// Mean pixel luminance in the frame.
    pub fn mean_luma(&self) -> f64 {
        let sum: u64 = self
            .data
            .chunks_exact(3)
            .map(|c| u64::from(luma_u8(c[0], c[1], c[2])))
            .sum();
        sum as f64 / self.pixel_count() as f64
    }

    /// Converts to planar 4:2:0 YUV by box-averaging each 2×2 chroma block.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OddDimensions`] when either dimension is odd.
    pub fn to_yuv420(&self) -> Result<Yuv420Frame, ImageError> {
        Yuv420Frame::from_rgb(self)
    }

    /// Converts to 4:2:0 YUV into an existing frame, reusing its planes —
    /// the allocation-free form of [`Self::to_yuv420`] for pooled
    /// steady-state loops.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OddDimensions`] when either dimension is odd
    /// and [`ImageError::BufferSizeMismatch`] when `out`'s plane sizes
    /// don't match this frame's geometry.
    pub fn to_yuv420_into(&self, out: &mut Yuv420Frame) -> Result<(), ImageError> {
        Yuv420Frame::from_rgb_into(self, out)
    }
}

/// A single 8-bit luminance plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LumaFrame {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl LumaFrame {
    /// Creates an all-black luminance plane.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        Self { width, height, data: vec![0; width as usize * height as usize] }
    }

    /// Wraps an existing luminance buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BufferSizeMismatch`] when the buffer length is
    /// not `width * height`, or [`ImageError::InvalidDimensions`] for a
    /// zero dimension.
    pub fn from_buffer(width: u32, height: u32, data: Vec<u8>) -> Result<Self, ImageError> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions { width, height });
        }
        let expected = width as usize * height as usize;
        if data.len() != expected {
            return Err(ImageError::BufferSizeMismatch { expected, actual: data.len() });
        }
        Ok(Self { width, height, data })
    }

    /// Plane width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Plane height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw luminance samples (row-major).
    pub fn samples(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw luminance samples (row-major).
    pub fn samples_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn sample(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height, "sample ({x},{y}) out of bounds");
        self.data[y as usize * self.width as usize + x as usize]
    }

    /// Builds the 256-bin histogram of the plane.
    pub fn histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for &v in &self.data {
            h.add(v);
        }
        h
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        let sum: u64 = self.data.iter().map(|&v| u64::from(v)).sum();
        sum as f64 / self.data.len() as f64
    }
}

/// A planar 4:2:0 YUV frame (the codec's native representation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Yuv420Frame {
    width: u32,
    height: u32,
    y: Vec<u8>,
    u: Vec<u8>,
    v: Vec<u8>,
}

impl Yuv420Frame {
    /// Creates a mid-gray 4:2:0 frame (Y = 0, U = V = 128).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OddDimensions`] when either dimension is odd
    /// and [`ImageError::InvalidDimensions`] when either is zero.
    pub fn new(width: u32, height: u32) -> Result<Self, ImageError> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions { width, height });
        }
        if !width.is_multiple_of(2) || !height.is_multiple_of(2) {
            return Err(ImageError::OddDimensions { width, height });
        }
        let luma = width as usize * height as usize;
        let chroma = luma / 4;
        Ok(Self {
            width,
            height,
            y: vec![0; luma],
            u: vec![128; chroma],
            v: vec![128; chroma],
        })
    }

    /// Converts an RGB frame, box-averaging chroma over 2×2 blocks.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OddDimensions`] when either dimension is odd.
    pub fn from_rgb(frame: &Frame) -> Result<Self, ImageError> {
        let mut out = Self::new(frame.width(), frame.height())?;
        Self::from_rgb_into(frame, &mut out)?;
        Ok(out)
    }

    /// Converts an RGB frame into an existing 4:2:0 frame, reusing its
    /// planes — the allocation-free form of [`Self::from_rgb`].
    ///
    /// Dispatches to the widest SIMD kernel the host supports (see
    /// [`crate::simd::kernel_tier`]); every tier is byte-identical to
    /// [`Rgb8::to_yuv`] per pixel with chroma box-averaged per 2×2 block.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::OddDimensions`] when either RGB dimension is
    /// odd and [`ImageError::BufferSizeMismatch`] when `out`'s plane
    /// sizes don't match the RGB frame's geometry.
    pub fn from_rgb_into(frame: &Frame, out: &mut Self) -> Result<(), ImageError> {
        Self::from_rgb_into_with(frame, out, crate::simd::kernel_tier())
    }

    /// [`Self::from_rgb_into`] at an explicit
    /// [`KernelTier`](crate::simd::KernelTier) (clamped to host
    /// capability) — the hook the differential conformance tier sweeps.
    ///
    /// # Errors
    ///
    /// As [`Self::from_rgb_into`].
    pub fn from_rgb_into_with(
        frame: &Frame,
        out: &mut Self,
        tier: crate::simd::KernelTier,
    ) -> Result<(), ImageError> {
        let (w, h) = (frame.width(), frame.height());
        if !w.is_multiple_of(2) || !h.is_multiple_of(2) {
            return Err(ImageError::OddDimensions { width: w, height: h });
        }
        let luma = w as usize * h as usize;
        if out.y.len() != luma {
            return Err(ImageError::BufferSizeMismatch { expected: luma, actual: out.y.len() });
        }
        if out.u.len() != luma / 4 || out.v.len() != luma / 4 {
            return Err(ImageError::BufferSizeMismatch { expected: luma / 4, actual: out.u.len() });
        }
        out.width = w;
        out.height = h;
        crate::simd::rgb_to_yuv420(frame, out, tier);
        Ok(())
    }

    /// Converts back to interleaved RGB (chroma upsampled by replication).
    pub fn to_rgb(&self) -> Frame {
        let mut out = Frame::new(self.width, self.height);
        self.to_rgb_into(&mut out).expect("a fresh frame has this frame's geometry");
        out
    }

    /// Converts back to interleaved RGB into an existing frame, reusing
    /// its buffer — the allocation-free form of [`Self::to_rgb`].
    ///
    /// Dispatches to the widest SIMD kernel the host supports (see
    /// [`crate::simd::kernel_tier`]); every tier is byte-identical to
    /// [`crate::color::Yuv8::to_rgb`] per pixel.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BufferSizeMismatch`] when `out`'s buffer
    /// size doesn't match this frame's geometry.
    pub fn to_rgb_into(&self, out: &mut Frame) -> Result<(), ImageError> {
        self.to_rgb_into_with(out, crate::simd::kernel_tier())
    }

    /// [`Self::to_rgb_into`] at an explicit
    /// [`KernelTier`](crate::simd::KernelTier) (clamped to host
    /// capability) — the hook the differential conformance tier sweeps.
    ///
    /// # Errors
    ///
    /// As [`Self::to_rgb_into`].
    pub fn to_rgb_into_with(
        &self,
        out: &mut Frame,
        tier: crate::simd::KernelTier,
    ) -> Result<(), ImageError> {
        let expected = self.width as usize * self.height as usize * 3;
        if out.data.len() != expected {
            return Err(ImageError::BufferSizeMismatch { expected, actual: out.data.len() });
        }
        out.width = self.width;
        out.height = self.height;
        crate::simd::yuv420_to_rgb(self, out, tier);
        Ok(())
    }

    /// Copies another frame's planes into this one, reusing existing
    /// allocations when the geometries match (`Vec::clone_from`
    /// semantics — no allocation in the steady state).
    pub fn copy_from(&mut self, other: &Yuv420Frame) {
        self.width = other.width;
        self.height = other.height;
        self.y.clone_from(&other.y);
        self.u.clone_from(&other.u);
        self.v.clone_from(&other.v);
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The luminance plane (row-major, `width × height`).
    pub fn y_plane(&self) -> &[u8] {
        &self.y
    }

    /// The U chroma plane (row-major, `width/2 × height/2`).
    pub fn u_plane(&self) -> &[u8] {
        &self.u
    }

    /// The V chroma plane (row-major, `width/2 × height/2`).
    pub fn v_plane(&self) -> &[u8] {
        &self.v
    }

    /// Mutable luminance plane.
    pub fn y_plane_mut(&mut self) -> &mut [u8] {
        &mut self.y
    }

    /// Mutable U chroma plane.
    pub fn u_plane_mut(&mut self) -> &mut [u8] {
        &mut self.u
    }

    /// Mutable V chroma plane.
    pub fn v_plane_mut(&mut self) -> &mut [u8] {
        &mut self.v
    }

    /// All three mutable planes at once (Y, U, V), for writers that fill
    /// the whole frame in a single pass.
    pub fn planes_mut(&mut self) -> (&mut [u8], &mut [u8], &mut [u8]) {
        (&mut self.y, &mut self.u, &mut self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_frame_is_uniform() {
        let f = Frame::filled(3, 2, Rgb8::new(9, 8, 7));
        assert_eq!(f.pixel_count(), 6);
        assert!(f.pixels().all(|p| p == Rgb8::new(9, 8, 7)));
    }

    #[test]
    fn from_fn_coordinates() {
        let f = Frame::from_fn(4, 3, |x, y| [x as u8, y as u8, 0]);
        assert_eq!(f.pixel(2, 1), Rgb8::new(2, 1, 0));
        assert_eq!(f.pixel(3, 2), Rgb8::new(3, 2, 0));
    }

    #[test]
    fn set_and_get_pixel() {
        let mut f = Frame::new(2, 2);
        f.set_pixel(1, 0, Rgb8::new(1, 2, 3));
        assert_eq!(f.pixel(1, 0), Rgb8::new(1, 2, 3));
        assert_eq!(f.pixel(0, 0), Rgb8::default());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_out_of_bounds_panics() {
        let f = Frame::new(2, 2);
        let _ = f.pixel(2, 0);
    }

    #[test]
    fn buffer_size_checked() {
        assert!(matches!(
            Frame::from_rgb_buffer(2, 2, vec![0; 11]),
            Err(ImageError::BufferSizeMismatch { expected: 12, actual: 11 })
        ));
        assert!(Frame::from_rgb_buffer(2, 2, vec![0; 12]).is_ok());
        assert!(matches!(
            Frame::from_rgb_buffer(0, 2, vec![]),
            Err(ImageError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn max_and_mean_luma() {
        let mut f = Frame::filled(10, 10, Rgb8::gray(50));
        assert_eq!(f.max_luma(), 50);
        assert!((f.mean_luma() - 50.0).abs() < 1e-9);
        f.set_pixel(0, 0, Rgb8::gray(250));
        assert_eq!(f.max_luma(), 250);
        assert!(f.mean_luma() > 50.0);
    }

    #[test]
    fn histogram_total_matches_pixel_count() {
        let f = Frame::from_fn(7, 5, |x, y| [(x * y) as u8, 0, 0]);
        assert_eq!(f.luma_histogram().total(), 35);
    }

    #[test]
    fn luma_plane_matches_per_pixel_luma() {
        let f = Frame::from_fn(6, 4, |x, y| [(x * 40) as u8, (y * 60) as u8, 128]);
        let l = f.to_luma();
        for y in 0..4 {
            for x in 0..6 {
                assert_eq!(l.sample(x, y), f.pixel(x, y).luma());
            }
        }
    }

    #[test]
    fn yuv420_roundtrip_gray_is_lossless() {
        let f = Frame::from_fn(8, 8, |x, y| {
            let v = (x * 30 + y * 2) as u8;
            [v, v, v]
        });
        let rt = f.to_yuv420().unwrap().to_rgb();
        for (a, b) in f.pixels().zip(rt.pixels()) {
            assert!((i16::from(a.luma()) - i16::from(b.luma())).abs() <= 1);
        }
    }

    #[test]
    fn yuv420_rejects_odd_dims() {
        let f = Frame::new(3, 4);
        assert!(matches!(f.to_yuv420(), Err(ImageError::OddDimensions { .. })));
    }

    #[test]
    fn yuv420_plane_sizes() {
        let f = Yuv420Frame::new(16, 8).unwrap();
        assert_eq!(f.y_plane().len(), 128);
        assert_eq!(f.u_plane().len(), 32);
        assert_eq!(f.v_plane().len(), 32);
    }

    #[test]
    fn map_pixels_in_place_applies() {
        let mut f = Frame::filled(2, 2, Rgb8::gray(10));
        f.map_pixels_in_place(|p| p.scale(2.0));
        assert!(f.pixels().all(|p| p == Rgb8::gray(20)));
    }

    #[test]
    fn luma_frame_mean() {
        let l = LumaFrame::from_buffer(2, 2, vec![0, 100, 200, 100]).unwrap();
        assert!((l.mean() - 100.0).abs() < 1e-9);
        assert_eq!(l.histogram().total(), 4);
    }
}
