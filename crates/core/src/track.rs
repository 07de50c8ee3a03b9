//! The annotation track attached to a video stream.
//!
//! §4.3: "for each scene the required level of backlight is computed and
//! annotated to the video stream. … The annotations are RLE compressed, so
//! the overhead is minimal, in the order of hundreds of bytes for our video
//! clips which are on the order of a few megabytes."
//!
//! A track is a sequence of [`AnnotationEntry`] records, each effective
//! from its `start_frame` until the next entry. The compact wire format is
//! run-length-compressed (adjacent entries with identical levels merge) and
//! delta/varint coded; a JSON sidecar form is provided for inspection.

use crate::error::CoreError;
use crate::plan::BacklightPlan;
use crate::quality::QualityLevel;
use crate::scenes::SceneSpan;
use annolight_display::BacklightLevel;

/// Whether the track annotates whole scenes or individual frames.
///
/// §4.3: "Sometimes, better results are obtained if we allow backlight
/// changes for each frame (but it may introduce some flicker)."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnnotationMode {
    /// One entry per detected scene (the paper's default).
    #[default]
    PerScene,
    /// One entry per frame (maximum savings, flicker-prone).
    PerFrame,
}

annolight_support::impl_json!(enum AnnotationMode { PerScene, PerFrame });

/// One annotation record: the backlight setting in effect from
/// `start_frame` until the next record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotationEntry {
    /// First frame this entry applies to.
    pub start_frame: u32,
    /// Backlight level the client should program.
    pub backlight: BacklightLevel,
    /// Pixel compensation factor `k` (applied server/proxy side).
    pub compensation: f32,
    /// Effective maximum luminance the compensation was derived from.
    pub effective_max_luma: u8,
}

annolight_support::impl_json!(struct AnnotationEntry { start_frame, backlight, compensation, effective_max_luma });

impl AnnotationEntry {
    fn k_fixed(&self) -> u16 {
        // 8.8 fixed point; k is in [1, 255].
        (self.compensation.clamp(0.0, 255.996) * 256.0).round() as u16
    }

    fn from_k_fixed(start_frame: u32, backlight: u8, k: u16, effective: u8) -> Self {
        Self {
            start_frame,
            backlight: BacklightLevel(backlight),
            compensation: f32::from(k) / 256.0,
            effective_max_luma: effective,
        }
    }

    fn same_levels(&self, other: &AnnotationEntry) -> bool {
        self.backlight == other.backlight
            && self.k_fixed() == other.k_fixed()
            && self.effective_max_luma == other.effective_max_luma
    }
}

/// A complete annotation track for one clip on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationTrack {
    device_name: String,
    quality: QualityLevel,
    mode: AnnotationMode,
    fps: f64,
    frame_count: u32,
    entries: Vec<AnnotationEntry>,
}

annolight_support::impl_json!(struct AnnotationTrack { device_name, quality, mode, fps, frame_count, entries });

const MAGIC: &[u8; 4] = b"ALT1";

impl AnnotationTrack {
    /// Builds a track from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedTrack`] when `entries` is empty, does
    /// not start at frame 0, or is not strictly increasing in
    /// `start_frame`.
    pub fn new(
        device_name: impl Into<String>,
        quality: QualityLevel,
        mode: AnnotationMode,
        fps: f64,
        frame_count: u32,
        entries: Vec<AnnotationEntry>,
    ) -> Result<Self, CoreError> {
        if entries.is_empty() {
            return Err(CoreError::MalformedTrack { reason: "no entries".into() });
        }
        if entries[0].start_frame != 0 {
            return Err(CoreError::MalformedTrack {
                reason: format!("first entry starts at frame {}", entries[0].start_frame),
            });
        }
        for w in entries.windows(2) {
            if w[1].start_frame <= w[0].start_frame {
                return Err(CoreError::MalformedTrack {
                    reason: "entries not strictly increasing".into(),
                });
            }
        }
        if let Some(last) = entries.last() {
            if last.start_frame >= frame_count {
                return Err(CoreError::MalformedTrack {
                    reason: format!(
                        "last entry starts at {} but clip has {} frames",
                        last.start_frame, frame_count
                    ),
                });
            }
        }
        Ok(Self {
            device_name: device_name.into(),
            quality,
            mode,
            fps,
            frame_count,
            entries,
        })
    }

    /// Builds the track for a computed [`BacklightPlan`].
    pub fn from_plan(plan: &BacklightPlan, mode: AnnotationMode, frame_count: u32) -> Self {
        let entries = plan
            .scenes()
            .iter()
            .map(|s| AnnotationEntry {
                start_frame: s.span.start,
                backlight: s.backlight,
                compensation: s.compensation,
                effective_max_luma: s.effective_max_luma,
            })
            .collect();
        Self::new(plan.device_name().to_owned(), plan.quality(), mode, plan.fps(), frame_count, entries)
            .expect("plans always produce well-formed tracks")
    }

    /// Device the track was computed for.
    pub fn device_name(&self) -> &str {
        &self.device_name
    }

    /// Quality level of the track.
    pub fn quality(&self) -> QualityLevel {
        self.quality
    }

    /// Per-scene or per-frame mode.
    pub fn mode(&self) -> AnnotationMode {
        self.mode
    }

    /// Frame rate of the annotated stream.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Number of frames the track covers.
    pub fn frame_count(&self) -> u32 {
        self.frame_count
    }

    /// The annotation entries in playback order.
    pub fn entries(&self) -> &[AnnotationEntry] {
        &self.entries
    }

    /// The frames each entry covers, in playback order. For a track built
    /// by [`from_plan`](Self::from_plan) these are the plan's scenes (one
    /// per frame in [`AnnotationMode::PerFrame`]).
    pub fn spans(&self) -> Vec<SceneSpan> {
        let ends = self.entries.iter().skip(1).map(|e| e.start_frame).chain([self.frame_count]);
        self.entries
            .iter()
            .zip(ends)
            .map(|(e, end)| SceneSpan { start: e.start_frame, end })
            .collect()
    }

    /// The entry in effect at `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameOutOfRange`] past the end of the track.
    pub fn entry_at(&self, frame: u32) -> Result<&AnnotationEntry, CoreError> {
        if frame >= self.frame_count {
            return Err(CoreError::FrameOutOfRange { frame, frames: self.frame_count });
        }
        let idx = match self.entries.binary_search_by_key(&frame, |e| e.start_frame) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Ok(&self.entries[idx])
    }

    /// Returns a copy with adjacent entries carrying identical levels
    /// merged (the RLE canonical form).
    pub fn canonicalized(&self) -> AnnotationTrack {
        let mut out: Vec<AnnotationEntry> = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            match out.last() {
                Some(last) if last.same_levels(e) => {}
                _ => out.push(*e),
            }
        }
        AnnotationTrack { entries: out, ..self.clone() }
    }

    /// Serialises the track to the compact RLE wire format carried inside
    /// the video stream. Adjacent identical levels are merged first, then
    /// frame starts are delta/varint coded.
    ///
    /// ```
    /// use annolight_core::track::{AnnotationEntry, AnnotationMode, AnnotationTrack};
    /// use annolight_core::QualityLevel;
    /// use annolight_display::BacklightLevel;
    ///
    /// let track = AnnotationTrack::new(
    ///     "ipaq-5555", QualityLevel::Q10, AnnotationMode::PerScene, 12.0, 100,
    ///     vec![AnnotationEntry {
    ///         start_frame: 0,
    ///         backlight: BacklightLevel(90),
    ///         compensation: 1.9,
    ///         effective_max_luma: 135,
    ///     }],
    /// )?;
    /// let wire = track.to_rle_bytes();
    /// let back = AnnotationTrack::from_rle_bytes(&wire)?;
    /// assert_eq!(back.entries().len(), 1);
    /// # Ok::<(), annolight_core::CoreError>(())
    /// ```
    pub fn to_rle_bytes(&self) -> Vec<u8> {
        let canon = self.canonicalized();
        let mut out = Vec::with_capacity(16 + canon.entries.len() * 6);
        out.extend_from_slice(MAGIC);
        let name = canon.device_name.as_bytes();
        out.push(name.len().min(255) as u8);
        out.extend_from_slice(&name[..name.len().min(255)]);
        let qx100 = (canon.quality.clip_fraction() * 10_000.0).round() as u16;
        out.extend_from_slice(&qx100.to_le_bytes());
        out.push(match canon.mode {
            AnnotationMode::PerScene => 0,
            AnnotationMode::PerFrame => 1,
        });
        out.extend_from_slice(&((canon.fps * 1000.0).round() as u32).to_le_bytes());
        out.extend_from_slice(&canon.frame_count.to_le_bytes());
        write_varint(&mut out, canon.entries.len() as u64);
        let mut prev = 0u32;
        for e in &canon.entries {
            write_varint(&mut out, u64::from(e.start_frame - prev));
            prev = e.start_frame;
            out.push(e.backlight.0);
            out.extend_from_slice(&e.k_fixed().to_le_bytes());
            out.push(e.effective_max_luma);
        }
        out
    }

    /// Parses the compact wire format produced by
    /// [`AnnotationTrack::to_rle_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedTrack`] for any truncated or
    /// inconsistent input.
    pub fn from_rle_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(CoreError::MalformedTrack { reason: "bad magic".into() });
        }
        let name_len = r.u8()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| CoreError::MalformedTrack { reason: "device name not UTF-8".into() })?
            .to_owned();
        let qx100 = r.u16()?;
        let quality = match qx100 {
            0 => QualityLevel::Q0,
            500 => QualityLevel::Q5,
            1000 => QualityLevel::Q10,
            1500 => QualityLevel::Q15,
            2000 => QualityLevel::Q20,
            q => QualityLevel::Custom(f64::from(q) / 10_000.0),
        };
        let mode = match r.u8()? {
            0 => AnnotationMode::PerScene,
            1 => AnnotationMode::PerFrame,
            m => {
                return Err(CoreError::MalformedTrack { reason: format!("unknown mode byte {m}") })
            }
        };
        let fps = f64::from(r.u32()?) / 1000.0;
        let frame_count = r.u32()?;
        let entry_count = r.varint()? as usize;
        let mut entries = Vec::with_capacity(entry_count.min(1 << 20));
        let mut frame = 0u32;
        for i in 0..entry_count {
            let delta = r.varint()? as u32;
            if i > 0 && delta == 0 {
                return Err(CoreError::MalformedTrack { reason: "zero frame delta".into() });
            }
            frame = frame
                .checked_add(delta)
                .ok_or_else(|| CoreError::MalformedTrack {
                    reason: "frame index overflow".into(),
                })?;
            let backlight = r.u8()?;
            let k = r.u16()?;
            let eff = r.u8()?;
            entries.push(AnnotationEntry::from_k_fixed(frame, backlight, k, eff));
        }
        Self::new(name, quality, mode, fps, frame_count, entries)
    }

    /// Serialises the track as a human-readable JSON sidecar.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedTrack`] if serialisation fails (it
    /// cannot for well-formed tracks).
    pub fn to_json(&self) -> Result<String, CoreError> {
        Ok(annolight_support::json::to_string_pretty(self))
    }

    /// Parses the JSON sidecar form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedTrack`] for invalid JSON.
    pub fn from_json(json: &str) -> Result<Self, CoreError> {
        annolight_support::json::from_str(json).map_err(|e| CoreError::MalformedTrack { reason: e.to_string() })
    }

    /// Size of the compact wire form in bytes (the per-clip overhead the
    /// paper reports as "hundreds of bytes").
    pub fn overhead_bytes(&self) -> usize {
        self.to_rle_bytes().len()
    }

    /// Resident in-memory size of this track in bytes: the struct itself
    /// plus its heap allocations (device-name string and entry vector).
    ///
    /// This is the byte-budget unit of the serving tier's annotation
    /// cache: evicting a track frees exactly this much, so a cache's
    /// accounted total must always equal the sum of `resident_bytes()`
    /// over its resident entries (a property the serve crate tests).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.device_name.capacity()
            + self.entries.capacity() * std::mem::size_of::<AnnotationEntry>()
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.pos + n > self.bytes.len() {
            return Err(CoreError::MalformedTrack { reason: "unexpected end of input".into() });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn varint(&mut self) -> Result<u64, CoreError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(CoreError::MalformedTrack { reason: "varint overflow".into() });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(start: u32, backlight: u8, k: f32, eff: u8) -> AnnotationEntry {
        AnnotationEntry {
            start_frame: start,
            backlight: BacklightLevel(backlight),
            compensation: k,
            effective_max_luma: eff,
        }
    }

    fn demo_track() -> AnnotationTrack {
        AnnotationTrack::new(
            "ipaq-5555",
            QualityLevel::Q10,
            AnnotationMode::PerScene,
            12.0,
            100,
            vec![
                entry(0, 120, 1.5, 170),
                entry(30, 200, 1.1, 230),
                entry(60, 120, 1.5, 170),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_entries() {
        let e = AnnotationTrack::new("d", QualityLevel::Q0, AnnotationMode::PerScene, 10.0, 5, vec![]);
        assert!(matches!(e, Err(CoreError::MalformedTrack { .. })));
    }

    #[test]
    fn rejects_nonzero_start() {
        let e = AnnotationTrack::new(
            "d",
            QualityLevel::Q0,
            AnnotationMode::PerScene,
            10.0,
            5,
            vec![entry(1, 10, 1.0, 10)],
        );
        assert!(matches!(e, Err(CoreError::MalformedTrack { .. })));
    }

    #[test]
    fn rejects_non_increasing() {
        let e = AnnotationTrack::new(
            "d",
            QualityLevel::Q0,
            AnnotationMode::PerScene,
            10.0,
            50,
            vec![entry(0, 10, 1.0, 10), entry(10, 20, 1.0, 20), entry(10, 30, 1.0, 30)],
        );
        assert!(matches!(e, Err(CoreError::MalformedTrack { .. })));
    }

    #[test]
    fn rejects_entry_past_frame_count() {
        let e = AnnotationTrack::new(
            "d",
            QualityLevel::Q0,
            AnnotationMode::PerScene,
            10.0,
            5,
            vec![entry(0, 10, 1.0, 10), entry(7, 20, 1.0, 20)],
        );
        assert!(matches!(e, Err(CoreError::MalformedTrack { .. })));
    }

    #[test]
    fn spans_run_from_each_entry_to_the_next() {
        let spans = demo_track().spans();
        let bounds: Vec<(u32, u32)> = spans.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(bounds, [(0, 30), (30, 60), (60, 100)]);
    }

    #[test]
    fn entry_at_selects_correct_scene() {
        let t = demo_track();
        assert_eq!(t.entry_at(0).unwrap().backlight, BacklightLevel(120));
        assert_eq!(t.entry_at(29).unwrap().backlight, BacklightLevel(120));
        assert_eq!(t.entry_at(30).unwrap().backlight, BacklightLevel(200));
        assert_eq!(t.entry_at(99).unwrap().backlight, BacklightLevel(120));
        assert!(matches!(t.entry_at(100), Err(CoreError::FrameOutOfRange { .. })));
    }

    #[test]
    fn rle_roundtrip_exact() {
        let t = demo_track();
        let bytes = t.to_rle_bytes();
        let back = AnnotationTrack::from_rle_bytes(&bytes).unwrap();
        assert_eq!(back.device_name(), "ipaq-5555");
        assert_eq!(back.quality(), QualityLevel::Q10);
        assert_eq!(back.mode(), AnnotationMode::PerScene);
        assert_eq!(back.frame_count(), 100);
        assert_eq!(back.entries().len(), 3);
        for (a, b) in t.entries().iter().zip(back.entries()) {
            assert_eq!(a.start_frame, b.start_frame);
            assert_eq!(a.backlight, b.backlight);
            assert_eq!(a.effective_max_luma, b.effective_max_luma);
            assert!((a.compensation - b.compensation).abs() < 1.0 / 256.0);
        }
    }

    #[test]
    fn rle_merges_identical_runs() {
        // A per-frame track where every frame has the same level collapses
        // to one entry on the wire.
        let entries: Vec<AnnotationEntry> = (0..50).map(|i| entry(i, 99, 1.25, 200)).collect();
        let t = AnnotationTrack::new(
            "d",
            QualityLevel::Q5,
            AnnotationMode::PerFrame,
            12.0,
            50,
            entries,
        )
        .unwrap();
        let canon = t.canonicalized();
        assert_eq!(canon.entries().len(), 1);
        let back = AnnotationTrack::from_rle_bytes(&t.to_rle_bytes()).unwrap();
        assert_eq!(back.entries().len(), 1);
        // The level sequence is preserved exactly.
        for f in 0..50 {
            assert_eq!(back.entry_at(f).unwrap().backlight, BacklightLevel(99));
        }
    }

    #[test]
    fn overhead_is_hundreds_of_bytes_for_long_tracks() {
        // 60 scenes (a 3-minute clip) — the paper's "hundreds of bytes".
        let entries: Vec<AnnotationEntry> =
            (0..60).map(|i| entry(i * 36, (i * 4 % 250) as u8, 1.3, 180)).collect();
        let t = AnnotationTrack::new(
            "ipaq-5555",
            QualityLevel::Q10,
            AnnotationMode::PerScene,
            12.0,
            60 * 36,
            entries,
        )
        .unwrap();
        let n = t.overhead_bytes();
        assert!(n < 600, "overhead {n} bytes");
        assert!(n > 60, "suspiciously small: {n} bytes");
    }

    #[test]
    fn json_roundtrip() {
        let t = demo_track();
        let json = t.to_json().unwrap();
        let back = AnnotationTrack::from_json(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(AnnotationTrack::from_rle_bytes(b"").is_err());
        assert!(AnnotationTrack::from_rle_bytes(b"XXXX").is_err());
        let mut bytes = demo_track().to_rle_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(AnnotationTrack::from_rle_bytes(&bytes).is_err());
    }

    #[test]
    fn resident_bytes_tracks_entry_count() {
        let t = demo_track();
        let n = t.resident_bytes();
        assert!(n >= std::mem::size_of::<AnnotationTrack>() + 3 * std::mem::size_of::<AnnotationEntry>());
        // A longer track occupies strictly more memory.
        let entries: Vec<AnnotationEntry> =
            (0..64).map(|i| entry(i * 2, (i % 250) as u8, 1.2, 150)).collect();
        let long = AnnotationTrack::new(
            "ipaq-5555",
            QualityLevel::Q10,
            AnnotationMode::PerScene,
            12.0,
            200,
            entries,
        )
        .unwrap();
        assert!(long.resident_bytes() > n);
    }

    #[test]
    fn custom_quality_survives_wire() {
        let t = AnnotationTrack::new(
            "d",
            QualityLevel::Custom(0.125),
            AnnotationMode::PerScene,
            10.0,
            10,
            vec![entry(0, 50, 2.0, 128)],
        )
        .unwrap();
        let back = AnnotationTrack::from_rle_bytes(&t.to_rle_bytes()).unwrap();
        assert!((back.quality().clip_fraction() - 0.125).abs() < 1e-4);
    }
}
