//! Incremental annotation delivery: sequence-numbered track deltas.
//!
//! The full [`AnnotationTrack`](crate::track::AnnotationTrack) rides
//! ahead of the pictures when the whole stream is fetched at once, but a
//! live session over a lossy hop streams the track *incrementally*: one
//! [`AnnotationDelta`] per scene, sent just ahead of the frames it
//! governs. Deltas are hints — losing one must never stall playback —
//! so each carries a sequence number and the receiving client runs a
//! [`DeltaTracker`] that classifies every arrival:
//!
//! * **Applied** — next expected sequence, on time;
//! * **Duplicate** — already seen (the channel duplicated a packet or a
//!   retransmit raced the original);
//! * **Stale** — arrived after its `start_frame` had already played
//!   (useful for the remainder of the scene, but the client has been
//!   degrading);
//! * **Gap** — sequence jumped, so at least one delta is still missing
//!   (lost or in flight behind a reorder).

use crate::error::CoreError;
use crate::track::{AnnotationEntry, AnnotationTrack};
use annolight_display::BacklightLevel;

/// Wire magic for a delta packet (`ALD1`: AnnoLight Delta v1).
const DELTA_MAGIC: &[u8; 4] = b"ALD1";

/// One incremental annotation update: entry `seq` of the track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnotationDelta {
    /// Sequence number: the index of this entry in the canonical track.
    pub seq: u32,
    /// The annotation record itself.
    pub entry: AnnotationEntry,
}

annolight_support::impl_json!(struct AnnotationDelta { seq, entry });

impl AnnotationDelta {
    /// Splits a track into its per-entry deltas, in sequence order.
    /// Uses the canonical (RLE-merged) form so sequence numbers match
    /// what a client reconstructs from the embedded track bytes.
    #[must_use]
    pub fn from_track(track: &AnnotationTrack) -> Vec<AnnotationDelta> {
        track
            .canonicalized()
            .entries()
            .iter()
            .enumerate()
            .map(|(i, e)| AnnotationDelta { seq: i as u32, entry: *e })
            .collect()
    }

    /// Serialises to the compact wire form (16 bytes).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(DELTA_MAGIC);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.entry.start_frame.to_le_bytes());
        out.push(self.entry.backlight.0);
        let k = (self.entry.compensation.clamp(0.0, 255.996) * 256.0).round() as u16;
        out.extend_from_slice(&k.to_le_bytes());
        out.push(self.entry.effective_max_luma);
        out
    }

    /// Parses the wire form produced by [`AnnotationDelta::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedTrack`] for truncated or mistagged
    /// input — a corrupted delta is dropped like a lost one, never
    /// trusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.len() < 16 {
            return Err(CoreError::MalformedTrack { reason: "delta packet truncated".into() });
        }
        if &bytes[0..4] != DELTA_MAGIC {
            return Err(CoreError::MalformedTrack { reason: "bad delta magic".into() });
        }
        let seq = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let start_frame = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let backlight = bytes[12];
        let k = u16::from_le_bytes([bytes[13], bytes[14]]);
        let effective_max_luma = bytes[15];
        Ok(Self {
            seq,
            entry: AnnotationEntry {
                start_frame,
                backlight: BacklightLevel(backlight),
                compensation: f32::from(k) / 256.0,
                effective_max_luma,
            },
        })
    }

    /// Whether `bytes` starts with the delta magic.
    #[must_use]
    pub fn is_delta_payload(bytes: &[u8]) -> bool {
        bytes.len() >= 4 && &bytes[0..4] == DELTA_MAGIC
    }
}

/// Classification of one delta arrival, from [`DeltaTracker::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Next expected sequence, arrived before its scene started.
    Applied,
    /// Sequence already applied; ignore.
    Duplicate,
    /// Arrived after its `start_frame` had played: applied for the
    /// remainder of the scene, but the client degraded in the interim.
    Stale {
        /// How many frames late the delta was.
        late_frames: u32,
    },
    /// Sequence jumped past the expected one; at least one earlier
    /// delta is missing. The delta is applied, the gap recorded.
    Gap {
        /// The sequence number that was expected.
        expected: u32,
    },
}

/// Client-side sequence/staleness bookkeeping over a delta stream.
#[derive(Debug, Clone, Default)]
pub struct DeltaTracker {
    /// One past the highest sequence applied. It reaches `2^32` when
    /// `u32::MAX` is applied, and every later sequence number is then a
    /// duplicate.
    next_seq: u64,
    applied: u32,
    duplicates: u32,
    stale: u32,
    gaps: u32,
    max_late_frames: u32,
}

impl DeltaTracker {
    /// A fresh tracker expecting sequence 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers an arrived delta at playback position `now_frame`,
    /// returning its classification and updating the counters.
    pub fn offer(&mut self, delta: &AnnotationDelta, now_frame: u32) -> DeltaStatus {
        let seq = u64::from(delta.seq);
        if seq < self.next_seq {
            self.duplicates += 1;
            return DeltaStatus::Duplicate;
        }
        let status = if now_frame > delta.entry.start_frame {
            let late = now_frame - delta.entry.start_frame;
            self.stale += 1;
            self.max_late_frames = self.max_late_frames.max(late);
            DeltaStatus::Stale { late_frames: late }
        } else if seq > self.next_seq {
            self.gaps += 1;
            // `next_seq < seq ≤ u32::MAX`, so the expected number fits.
            DeltaStatus::Gap { expected: self.next_seq as u32 }
        } else {
            DeltaStatus::Applied
        };
        self.applied += 1;
        self.next_seq = seq + 1;
        status
    }

    /// The next sequence number the tracker expects (`2^32` once
    /// sequence `u32::MAX` has been applied).
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Deltas applied (including stale and post-gap arrivals).
    #[must_use]
    pub fn applied(&self) -> u32 {
        self.applied
    }

    /// Duplicate arrivals ignored.
    #[must_use]
    pub fn duplicates(&self) -> u32 {
        self.duplicates
    }

    /// Deltas that arrived after their scene had started.
    #[must_use]
    pub fn stale(&self) -> u32 {
        self.stale
    }

    /// Sequence gaps observed (lost or badly reordered deltas).
    #[must_use]
    pub fn gaps(&self) -> u32 {
        self.gaps
    }

    /// The worst lateness seen, frames.
    #[must_use]
    pub fn max_late_frames(&self) -> u32 {
        self.max_late_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityLevel;
    use crate::track::AnnotationMode;

    fn entry(start: u32, backlight: u8) -> AnnotationEntry {
        AnnotationEntry {
            start_frame: start,
            backlight: BacklightLevel(backlight),
            compensation: 1.5,
            effective_max_luma: 170,
        }
    }

    fn track() -> AnnotationTrack {
        AnnotationTrack::new(
            "ipaq-5555",
            QualityLevel::Q10,
            AnnotationMode::PerScene,
            12.0,
            90,
            vec![entry(0, 120), entry(30, 200), entry(60, 90)],
        )
        .unwrap()
    }

    #[test]
    fn deltas_mirror_canonical_track() {
        let deltas = AnnotationDelta::from_track(&track());
        assert_eq!(deltas.len(), 3);
        for (i, d) in deltas.iter().enumerate() {
            assert_eq!(d.seq, i as u32);
        }
        assert_eq!(deltas[1].entry.start_frame, 30);
        assert_eq!(deltas[2].entry.backlight, BacklightLevel(90));
    }

    #[test]
    fn wire_roundtrip_exact() {
        for d in AnnotationDelta::from_track(&track()) {
            let bytes = d.to_bytes();
            assert!(AnnotationDelta::is_delta_payload(&bytes));
            let back = AnnotationDelta::from_bytes(&bytes).unwrap();
            assert_eq!(back.seq, d.seq);
            assert_eq!(back.entry.start_frame, d.entry.start_frame);
            assert_eq!(back.entry.backlight, d.entry.backlight);
            assert_eq!(back.entry.effective_max_luma, d.entry.effective_max_luma);
            assert!((back.entry.compensation - d.entry.compensation).abs() < 1.0 / 256.0);
        }
    }

    #[test]
    fn malformed_delta_rejected() {
        assert!(AnnotationDelta::from_bytes(b"").is_err());
        assert!(AnnotationDelta::from_bytes(b"ALD1").is_err());
        let mut ok = AnnotationDelta::from_track(&track())[0].to_bytes();
        ok[0] = b'X';
        assert!(AnnotationDelta::from_bytes(&ok).is_err());
        assert!(!AnnotationDelta::is_delta_payload(&ok));
    }

    #[test]
    fn tracker_in_order_is_all_applied() {
        let mut t = DeltaTracker::new();
        for d in AnnotationDelta::from_track(&track()) {
            assert_eq!(t.offer(&d, d.entry.start_frame.saturating_sub(1)), DeltaStatus::Applied);
        }
        assert_eq!(t.applied(), 3);
        assert_eq!((t.duplicates(), t.stale(), t.gaps()), (0, 0, 0));
    }

    #[test]
    fn tracker_flags_duplicates_stale_and_gaps() {
        let deltas = AnnotationDelta::from_track(&track());
        let mut t = DeltaTracker::new();
        assert_eq!(t.offer(&deltas[0], 0), DeltaStatus::Applied);
        // Duplicate of seq 0 (channel duplication or raced retransmit).
        assert_eq!(t.offer(&deltas[0], 5), DeltaStatus::Duplicate);
        // Seq 1 lost; seq 2 arrives first: a gap.
        assert_eq!(t.offer(&deltas[2], 40), DeltaStatus::Gap { expected: 1 });
        assert_eq!(t.gaps(), 1);
        // Late retransmit of seq 1 after the gap advanced next_seq: duplicate.
        assert_eq!(t.offer(&deltas[1], 45), DeltaStatus::Duplicate);
        assert_eq!(t.duplicates(), 2);
    }

    #[test]
    fn tracker_measures_lateness() {
        let deltas = AnnotationDelta::from_track(&track());
        let mut t = DeltaTracker::new();
        t.offer(&deltas[0], 0);
        // Scene 2 starts at frame 30; its delta lands at frame 42.
        assert_eq!(t.offer(&deltas[1], 42), DeltaStatus::Stale { late_frames: 12 });
        assert_eq!(t.stale(), 1);
        assert_eq!(t.max_late_frames(), 12);
    }

    #[test]
    fn delta_json_roundtrip() {
        let d = AnnotationDelta::from_track(&track())[1];
        let json = annolight_support::json::to_string(&d);
        let back: AnnotationDelta = annolight_support::json::from_str(&json).unwrap();
        assert_eq!(back.seq, d.seq);
        assert_eq!(back.entry.start_frame, d.entry.start_frame);
    }
}
