//! Failure-injection and robustness tests: malformed or hostile inputs
//! must produce errors, never panics or bogus successes.

use annolight::codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight::core::track::AnnotationTrack;
use annolight::core::{AnnotationDelta, DeltaStatus, DeltaTracker, QualityLevel};
use annolight::display::DeviceProfile;
use annolight::power::SystemPowerModel;
use annolight::stream::PlaybackClient;
use annolight::video::ClipLibrary;

annolight_support::check! {
    /// The container parser never panics on arbitrary bytes.
    fn decoder_survives_arbitrary_bytes(g) {
        let bytes = g.vec(0..2048usize, |g| g.any::<u8>());
        let _ = Decoder::from_bytes(&bytes[..]); // Err or Ok, never panic
    }

    /// The annotation-track parser never panics on arbitrary bytes.
    fn track_parser_survives_arbitrary_bytes(g) {
        let bytes = g.vec(0..512usize, |g| g.any::<u8>());
        let _ = AnnotationTrack::from_rle_bytes(&bytes);
    }

    /// A valid header followed by garbage packets must be rejected, not
    /// mis-decoded.
    fn garbage_after_header_rejected(g) {
        let bytes = g.vec(1..256usize, |g| g.any::<u8>());
        let mut stream = Vec::new();
        stream.extend_from_slice(b"ALV1");
        stream.extend_from_slice(&32u16.to_le_bytes());
        stream.extend_from_slice(&32u16.to_le_bytes());
        stream.extend_from_slice(&12_000u32.to_le_bytes());
        stream.extend_from_slice(&1u32.to_le_bytes()); // promises 1 picture
        stream.push(4); // gop
        stream.extend_from_slice(&bytes);
        if let Ok(mut dec) = Decoder::from_bytes(&stream[..]) {
            // If the packet table happened to parse, decoding the picture
            // payload must still fail or produce a frame — never panic.
            let _ = dec.decode_next();
        }
    }

    /// Intra picture decode never panics on arbitrary payloads.
    fn intra_decode_survives_arbitrary_payload(g) {
        let bytes = g.vec(0..256usize, |g| g.any::<u8>());
        let _ = annolight::codec::picture::decode_intra(&bytes, 16, 16);
    }
}

#[test]
fn truncation_at_every_boundary_is_detected() {
    // Encode a tiny stream, then truncate at a spread of byte positions:
    // each prefix must either fail parsing or decode only complete
    // pictures — never panic.
    let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(1.0);
    let (w, h) = clip.dimensions();
    let mut enc = Encoder::new(EncoderConfig {
        width: w,
        height: h,
        fps: clip.fps(),
        ..Default::default()
    })
    .unwrap();
    enc.push_user_data(b"annotations");
    for f in clip.frames() {
        enc.push_frame(&f).unwrap();
    }
    let stream = enc.finish();
    let bytes = stream.as_bytes();
    let step = (bytes.len() / 97).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        let prefix = &bytes[..cut];
        if let Ok(mut dec) = Decoder::from_bytes(prefix) {
            let _ = dec.decode_all();
        }
    }
}

#[test]
fn bitflips_in_picture_payloads_do_not_panic() {
    let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(1.0);
    let (w, h) = clip.dimensions();
    let mut enc = Encoder::new(EncoderConfig {
        width: w,
        height: h,
        fps: clip.fps(),
        ..Default::default()
    })
    .unwrap();
    for f in clip.frames() {
        enc.push_frame(&f).unwrap();
    }
    let stream = enc.finish();
    let original = stream.as_bytes().to_vec();
    // Flip a byte at a spread of positions beyond the header.
    let step = (original.len() / 61).max(1);
    for pos in (17..original.len()).step_by(step) {
        let mut corrupted = original.clone();
        corrupted[pos] ^= 0xA5;
        if let Ok(mut dec) = Decoder::from_bytes(&corrupted[..]) {
            let _ = dec.decode_all(); // may Err, may decode garbage; no panic
        }
    }
}

#[test]
fn client_rejects_stream_with_corrupted_track() {
    // Serve a proper stream, then corrupt the annotation payload only: the
    // client must fail cleanly with a track error.
    use annolight::stream::{MediaServer, ServeRequest};
    let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(1.0);
    let mut server = MediaServer::new(EncoderConfig::default());
    server.add_clip(clip);
    let served = server
        .serve(&ServeRequest::new(
            "officexp",
            DeviceProfile::ipaq_5555(),
            QualityLevel::Q10,
        ))
        .unwrap();
    let mut bytes = served.stream.as_bytes().to_vec();
    // The track payload begins after header (17B) + packet kind/len
    // (~3B); smash its magic.
    bytes[20] ^= 0xFF;
    bytes[21] ^= 0xFF;
    let corrupted = EncodedStream::from_bytes(bytes).unwrap();
    let client = PlaybackClient::new(DeviceProfile::ipaq_5555(), SystemPowerModel::ipaq_5555());
    assert!(client.play(&corrupted, None).is_err());
}

/// An `ALV1` header (16×16, fps 12000, no pictures, gop 12) followed by
/// one user-data packet whose 10-byte varint length is 2^64 − 1.
#[test]
fn forged_packet_length_is_rejected() {
    let mut stream = Vec::new();
    stream.extend_from_slice(b"ALV1");
    stream.extend_from_slice(&16u16.to_le_bytes());
    stream.extend_from_slice(&16u16.to_le_bytes());
    stream.extend_from_slice(&12_000u32.to_le_bytes());
    stream.extend_from_slice(&0u32.to_le_bytes());
    stream.push(12);
    stream.push(1); // user data
    stream.extend_from_slice(&[0xFF; 9]);
    stream.push(0x01);
    assert_eq!(stream.len(), 28);
    let err = Decoder::from_bytes(&stream[..]).expect_err("length past the end of the stream");
    assert!(
        err.to_string().contains("truncated packet payload"),
        "{err}"
    );
}

/// A wire track whose three frame deltas `0, 0xFFFF_FFF0, 0x100` add up
/// past `u32::MAX`.
#[test]
fn forged_track_deltas_are_rejected() {
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push((v as u8) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let mut bytes = AnnotationTrack::new(
        "d",
        QualityLevel::Q10,
        annolight::core::track::AnnotationMode::PerScene,
        12.0,
        u32::MAX,
        vec![annolight::core::track::AnnotationEntry {
            start_frame: 0,
            backlight: annolight::display::BacklightLevel(90),
            compensation: 1.5,
            effective_max_luma: 170,
        }],
    )
    .unwrap()
    .to_rle_bytes();
    // Replace the one entry (count 1, delta 0, 4 bytes of levels) with three.
    let entry = bytes.split_off(bytes.len() - 6)[2..].to_vec();
    varint(&mut bytes, 3);
    for delta in [0u64, 0xFFFF_FFF0, 0x100] {
        varint(&mut bytes, delta);
        bytes.extend_from_slice(&entry);
    }
    let err = AnnotationTrack::from_rle_bytes(&bytes).expect_err("frame index overflow");
    assert!(err.to_string().contains("frame index overflow"), "{err}");
}

/// A well-formed `ALD1` delta carrying the last sequence number,
/// `u32::MAX`: the tracker must not overflow its expected sequence, and
/// every sequence number offered after it is a duplicate.
#[test]
fn delta_with_the_last_sequence_number_leaves_only_duplicates() {
    let delta = AnnotationDelta {
        seq: u32::MAX,
        entry: annolight::core::track::AnnotationEntry {
            start_frame: 0,
            backlight: annolight::display::BacklightLevel(90),
            compensation: 1.5,
            effective_max_luma: 170,
        },
    };
    let wire = AnnotationDelta::from_bytes(&delta.to_bytes()).expect("well-formed delta");
    assert_eq!(wire.seq, u32::MAX);
    let mut tracker = DeltaTracker::new();
    assert_eq!(tracker.offer(&wire, 0), DeltaStatus::Gap { expected: 0 });
    for seq in [0, u32::MAX] {
        let replay = AnnotationDelta { seq, ..wire };
        assert_eq!(tracker.offer(&replay, 0), DeltaStatus::Duplicate, "seq {seq}");
    }
    assert_eq!((tracker.applied(), tracker.duplicates()), (1, 2));
}

/// Frame rates whose millihertz header field would round to 0 or exceed
/// `u32::MAX`: the header would carry 0 or 4294967.295 fps while the
/// encoder reported the configured rate.
#[test]
fn frame_rates_the_header_cannot_carry_are_rejected() {
    for fps in [0.0004, 5e6] {
        let err = Encoder::new(EncoderConfig { fps, ..EncoderConfig::default() })
            .expect_err("unrepresentable frame rate");
        assert!(err.to_string().contains("millihertz"), "fps {fps}: {err}");
    }
}

/// An `ALV1` header (16×16, fps 0, no pictures, gop 12).
#[test]
fn zero_frame_rate_header_is_rejected() {
    let mut stream = Vec::new();
    stream.extend_from_slice(b"ALV1");
    stream.extend_from_slice(&16u16.to_le_bytes());
    stream.extend_from_slice(&16u16.to_le_bytes());
    stream.extend_from_slice(&0u32.to_le_bytes());
    stream.extend_from_slice(&0u32.to_le_bytes());
    stream.push(12);
    let err = Decoder::from_bytes(&stream[..]).expect_err("zero frame rate");
    assert!(err.to_string().contains("zero frame rate"), "{err}");
    assert!(EncodedStream::from_bytes(stream).is_err());
}

#[test]
fn empty_and_header_only_streams() {
    assert!(Decoder::from_bytes(&[][..]).is_err());
    let enc = Encoder::new(EncoderConfig::default()).unwrap();
    let empty = enc.finish();
    let mut dec = Decoder::new(&empty).unwrap();
    assert!(dec.decode_next().unwrap().is_none());
    assert_eq!(dec.frame_count(), 0);
}
