//! The negotiation protocol (§4.3).
//!
//! "These can be computed by either the server/proxy (client
//! characteristics are sent during the initial negotiation phase), or by
//! the client itself." The messages here are what crosses the wire before
//! streaming starts: the client announces its device profile and requested
//! quality; the server answers with the qualities it offers and the chosen
//! stream parameters.

use annolight_core::track::AnnotationMode;
use annolight_core::{PolicyKind, QualityLevel};
use annolight_display::DeviceProfile;

/// Client → server: session opening.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientHello {
    /// The clip the user asked for.
    pub clip_name: String,
    /// The client's full display characterisation — this is what lets the
    /// server tailor backlight levels per device.
    pub device: DeviceProfile,
    /// The user-selected quality level.
    pub quality: QualityLevel,
    /// Whether the client's backlight driver prefers per-scene or
    /// per-frame updates.
    pub mode: AnnotationMode,
    /// The annotation-policy backend the client asks the server/proxy to
    /// plan with (peak-clip, HEBS, or spatial scaling).
    pub policy: PolicyKind,
    /// Protocol version, for forward compatibility.
    pub version: u16,
}

annolight_support::impl_json!(struct ClientHello { clip_name, device, quality, mode, policy, version });

/// Server → client: the offer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerOffer {
    /// Quality levels this server pre-computes ("the server … provides a
    /// number of different video qualities … 5 in our case").
    pub offered_qualities: Vec<QualityLevel>,
    /// The quality the server will actually stream (closest offered to
    /// the request).
    pub granted_quality: QualityLevel,
    /// Stream dimensions.
    pub width: u32,
    /// Stream dimensions.
    pub height: u32,
    /// Frames per second.
    pub fps: f64,
    /// Expected stream size, bytes (for client buffering decisions).
    pub stream_bytes: u64,
}

annolight_support::impl_json!(struct ServerOffer { offered_qualities, granted_quality, width, height, fps, stream_bytes });

/// Protocol version implemented by this crate.
pub const PROTOCOL_VERSION: u16 = 1;

impl ClientHello {
    /// Builds a hello with the current protocol version.
    pub fn new(
        clip_name: impl Into<String>,
        device: DeviceProfile,
        quality: QualityLevel,
        mode: AnnotationMode,
    ) -> Self {
        Self {
            clip_name: clip_name.into(),
            device,
            quality,
            mode,
            policy: PolicyKind::PeakClip,
            version: PROTOCOL_VERSION,
        }
    }

    /// Selects the annotation-policy backend negotiated for the session.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Serialises to the JSON wire form.
    ///
    /// # Panics
    ///
    /// Never panics for well-formed hellos (all fields are serialisable).
    pub fn to_wire(&self) -> Vec<u8> {
        annolight_support::json::to_vec(self)
    }

    /// Parses the JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string for malformed input, and for a
    /// [`QualityLevel::Custom`] quality that is not a fraction in
    /// `[0, 1]` (the server would otherwise panic granting it).
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        let hello: Self = annolight_support::json::from_slice(bytes).map_err(|e| e.to_string())?;
        if let QualityLevel::Custom(f) = hello.quality {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("custom quality {f} outside [0, 1]"));
            }
        }
        Ok(hello)
    }
}

/// What a [`StreamPacket`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// An MTU-sized slice of the encoded picture stream.
    Picture,
    /// One incremental annotation update
    /// ([`annolight_core::delta::AnnotationDelta`] wire bytes).
    Delta,
}

annolight_support::impl_json!(enum PacketKind { Picture, Delta });

/// One packet of the media session as it crosses the lossy hop: a
/// session-global sequence number (so the receiver can detect gaps and
/// request retransmission), a kind tag, and the payload bytes.
///
/// Annotation packets are *hints*: a receiver that cannot recover one
/// keeps playing and degrades gracefully (see
/// [`crate::faults`]). Picture packets are retransmitted reliably.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPacket {
    /// Session-global send sequence number.
    pub seq: u32,
    /// Payload discriminator.
    pub kind: PacketKind,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Wire magic for stream packets (`AP1`: AnnoLight Packet v1).
const PACKET_MAGIC: &[u8; 3] = b"AP1";

impl StreamPacket {
    /// Frames a picture slice.
    #[must_use]
    pub fn picture(seq: u32, payload: Vec<u8>) -> Self {
        Self { seq, kind: PacketKind::Picture, payload }
    }

    /// Frames an annotation delta.
    #[must_use]
    pub fn delta(seq: u32, payload: Vec<u8>) -> Self {
        Self { seq, kind: PacketKind::Delta, payload }
    }

    /// Serialises to the binary wire form:
    /// `magic ∥ kind ∥ seq(le) ∥ len(le) ∥ payload`.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.payload.len());
        out.extend_from_slice(PACKET_MAGIC);
        out.push(match self.kind {
            PacketKind::Picture => 0,
            PacketKind::Delta => 1,
        });
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string for truncated, mistagged, or
    /// length-inconsistent input — a corrupt packet is treated like a
    /// lost one by the session layer, never trusted.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 12 {
            return Err(format!("stream packet truncated: {} bytes", bytes.len()));
        }
        if &bytes[0..3] != PACKET_MAGIC {
            return Err("bad stream packet magic".into());
        }
        let kind = match bytes[3] {
            0 => PacketKind::Picture,
            1 => PacketKind::Delta,
            k => return Err(format!("unknown stream packet kind {k}")),
        };
        let seq = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        if bytes.len() != 12 + len {
            return Err(format!("stream packet length mismatch: header {len}, body {}", bytes.len() - 12));
        }
        Ok(Self { seq, kind, payload: bytes[12..].to_vec() })
    }
}

/// Picks the offered quality closest to (and not exceeding) the request —
/// the server never degrades more than the user agreed to.
pub fn grant_quality(offered: &[QualityLevel], requested: QualityLevel) -> QualityLevel {
    let req = requested.clip_fraction();
    offered
        .iter()
        .copied()
        .filter(|q| q.clip_fraction() <= req + 1e-12)
        .max_by(|a, b| a.clip_fraction().total_cmp(&b.clip_fraction()))
        .unwrap_or(QualityLevel::Q0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_wire_roundtrip() {
        let hello = ClientHello::new(
            "themovie",
            DeviceProfile::ipaq_5555(),
            QualityLevel::Q10,
            AnnotationMode::PerScene,
        );
        let wire = hello.to_wire();
        let back = ClientHello::from_wire(&wire).unwrap();
        assert_eq!(hello, back);
        assert_eq!(back.version, PROTOCOL_VERSION);
        assert_eq!(back.device.name(), "ipaq-5555");
        assert_eq!(back.policy, PolicyKind::PeakClip, "default policy is the paper's");
    }

    #[test]
    fn hello_policy_survives_the_wire() {
        for p in PolicyKind::ALL {
            let hello = ClientHello::new(
                "themovie",
                DeviceProfile::ipaq_5555(),
                QualityLevel::Q10,
                AnnotationMode::PerScene,
            )
            .with_policy(p);
            let back = ClientHello::from_wire(&hello.to_wire()).unwrap();
            assert_eq!(back.policy, p);
        }
    }

    #[test]
    fn malformed_hello_rejected() {
        assert!(ClientHello::from_wire(b"not json").is_err());
        assert!(ClientHello::from_wire(b"{}").is_err());
    }

    #[test]
    fn grant_picks_closest_not_exceeding() {
        let offered = QualityLevel::PAPER_LEVELS.to_vec();
        assert_eq!(grant_quality(&offered, QualityLevel::Q10), QualityLevel::Q10);
        assert_eq!(
            grant_quality(&offered, QualityLevel::Custom(0.12)),
            QualityLevel::Q10,
            "12% request grants the 10% stream, never 15%"
        );
        assert_eq!(grant_quality(&offered, QualityLevel::Custom(0.001)), QualityLevel::Q0);
    }

    #[test]
    fn grant_defaults_to_lossless() {
        assert_eq!(grant_quality(&[], QualityLevel::Q20), QualityLevel::Q0);
    }

    #[test]
    fn packet_wire_roundtrip() {
        let p = StreamPacket::picture(7, vec![1, 2, 3, 4, 5]);
        let wire = p.to_wire();
        assert_eq!(wire.len(), 12 + 5);
        let back = StreamPacket::from_wire(&wire).unwrap();
        assert_eq!(back, p);

        let d = StreamPacket::delta(0xDEAD_BEEF, vec![]);
        let back = StreamPacket::from_wire(&d.to_wire()).unwrap();
        assert_eq!(back.kind, PacketKind::Delta);
        assert_eq!(back.seq, 0xDEAD_BEEF);
        assert!(back.payload.is_empty());
    }

    #[test]
    fn malformed_packet_rejected() {
        // Truncated.
        assert!(StreamPacket::from_wire(b"AP1").is_err());
        // Bad magic.
        let mut wire = StreamPacket::picture(1, vec![9]).to_wire();
        wire[0] = b'X';
        assert!(StreamPacket::from_wire(&wire).is_err());
        // Unknown kind tag.
        let mut wire = StreamPacket::picture(1, vec![9]).to_wire();
        wire[3] = 9;
        assert!(StreamPacket::from_wire(&wire).is_err());
        // Length mismatch (truncated payload).
        let wire = StreamPacket::picture(1, vec![1, 2, 3]).to_wire();
        assert!(StreamPacket::from_wire(&wire[..wire.len() - 1]).is_err());
        // Trailing garbage.
        let mut wire = StreamPacket::picture(1, vec![1, 2, 3]).to_wire();
        wire.push(0);
        assert!(StreamPacket::from_wire(&wire).is_err());
    }

    #[test]
    fn offer_serialises() {
        let offer = ServerOffer {
            offered_qualities: QualityLevel::PAPER_LEVELS.to_vec(),
            granted_quality: QualityLevel::Q5,
            width: 128,
            height: 96,
            fps: 12.0,
            stream_bytes: 1_000_000,
        };
        let json = annolight_support::json::to_string(&offer);
        let back: ServerOffer = annolight_support::json::from_str(&json).unwrap();
        assert_eq!(offer, back);
    }
}
