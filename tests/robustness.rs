//! Failure-injection and robustness tests: malformed or hostile inputs
//! must produce errors, never panics or bogus successes.

use annolight::codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight::core::extensions::{hints_from_bytes, hints_to_bytes, CpuFrequency, DvfsHint};
use annolight::core::track::{AnnotationEntry, AnnotationMode, AnnotationTrack};
use annolight::core::{
    AnnotationDelta, DeltaStatus, DeltaTracker, GovernorFeedback, PolicyKind, QualityLevel,
    SceneSpan,
};
use annolight::display::{BacklightLevel, DeviceProfile};
use annolight::power::SystemPowerModel;
use annolight::stream::{ClientHello, PacketKind, PlaybackClient, StreamPacket};
use annolight::video::ClipLibrary;
use annolight_support::check::Gen;
use annolight_support::json::Json;

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

    /// The hop's message decoders never panic on arbitrary bytes, bare or
    /// behind one of the formats' tags, so random tails reach the field
    /// parsers.
    fn message_decoders_survive_arbitrary_bytes(g) {
        const TAGS: [&[u8]; 7] = [b"", b"ALG1", b"ALD1", b"AP1\x00", b"AP1\x01", b"ADV1", b"{"];
        let mut bytes = TAGS[g.draw(0..TAGS.len())].to_vec();
        bytes.extend(g.vec(0..64usize, |g| g.any::<u8>()));
        decode_as_every_message(&bytes);
    }

    /// Valid encodings of every message round-trip, and every prefix and
    /// every single-bit flip of one is rejected or decoded, never a panic.
    fn message_decoders_survive_truncation_and_bit_flips(g, cases = 32) {
        for wire in valid_messages(g) {
            for cut in 0..wire.len() {
                decode_as_every_message(&wire[..cut]);
            }
            let mut flipped = wire.clone();
            for bit in 0..wire.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                decode_as_every_message(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}

/// Feeds `bytes` to every message decoder on the hop: governor feedback,
/// an annotation delta (offered to fresh trackers around its start frame,
/// then replayed), a client hello, a stream packet, a DVFS hint payload
/// and a JSON document.
fn decode_as_every_message(bytes: &[u8]) {
    let _ = GovernorFeedback::from_bytes(bytes);
    if let Ok(delta) = AnnotationDelta::from_bytes(bytes) {
        let start = delta.entry.start_frame;
        for now in [0, start, start.saturating_add(1), u32::MAX] {
            let mut tracker = DeltaTracker::new();
            tracker.offer(&delta, now);
            assert_eq!(tracker.offer(&delta, now), DeltaStatus::Duplicate);
        }
    }
    let _ = ClientHello::from_wire(bytes);
    let _ = StreamPacket::from_wire(bytes);
    let _ = hints_from_bytes(bytes);
    let _ = Json::parse(&String::from_utf8_lossy(bytes));
}

/// A random text: ASCII, the characters JSON escapes, and any other
/// scalar value.
fn text(g: &mut Gen) -> String {
    g.vec(0..12usize, |g| match g.draw(0..3u8) {
        0 => char::from(g.draw(0x20u8..0x7F)),
        1 => ['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}'][g.draw(0..7usize)],
        _ => char::from_u32(g.draw(0u32..=0x10_FFFF)).unwrap_or('\u{FFFD}'),
    })
    .into_iter()
    .collect()
}

/// A random JSON tree at most `depth` levels deep; floats are finite, as
/// the encoder writes the others as `null`.
fn json_value(g: &mut Gen, depth: u32) -> Json {
    match g.draw(0..if depth == 0 { 5u8 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(g.any()),
        2 => Json::Int(i128::from(g.any::<i64>()) * i128::from(g.any::<i32>())),
        3 => Json::Float(Some(f64::from_bits(g.any())).filter(|f| f.is_finite()).unwrap_or(0.5)),
        4 => Json::Str(text(g)),
        5 => Json::Arr(g.vec(0..4usize, |g| json_value(g, depth - 1))),
        _ => Json::Obj(g.vec(0..4usize, |g| (text(g), json_value(g, depth - 1)))),
    }
}

/// One random valid encoding of each message, each checked to decode
/// back to the value it encodes.
fn valid_messages(g: &mut Gen) -> Vec<Vec<u8>> {
    let feedback =
        GovernorFeedback { scene: g.any(), knob: g.any(), flags: g.any(), remaining_mj: g.any() };
    let delta = AnnotationDelta {
        seq: g.any(),
        entry: AnnotationEntry {
            start_frame: g.any(),
            backlight: BacklightLevel(g.any()),
            // The wire carries the compensation gain in 1/256 steps.
            compensation: f32::from(g.any::<u16>()) / 256.0,
            effective_max_luma: g.any(),
        },
    };
    let devices = DeviceProfile::paper_devices();
    let hello = ClientHello::new(
        text(g),
        devices[g.draw(0..devices.len())].clone(),
        QualityLevel::Custom(g.draw(0.0..=1.0)),
        [AnnotationMode::PerScene, AnnotationMode::PerFrame][g.draw(0..2usize)],
    )
    .with_policy(PolicyKind::ALL[g.draw(0..PolicyKind::ALL.len())]);
    let packet = StreamPacket {
        seq: g.any(),
        kind: [PacketKind::Picture, PacketKind::Delta][g.draw(0..2usize)],
        payload: g.vec(0..24usize, |g| g.any()),
    };
    let frequencies =
        [CpuFrequency::Mhz150, CpuFrequency::Mhz200, CpuFrequency::Mhz300, CpuFrequency::Mhz400];
    let hints = g.vec(0..3usize, |g| DvfsHint {
        span: SceneSpan { start: g.any(), end: g.any() },
        complexity: g.draw(0.0..=1.0),
        frequency: frequencies[g.draw(0..frequencies.len())],
    });
    let json = json_value(g, 3);

    let wires = vec![
        feedback.to_bytes(),
        delta.to_bytes(),
        hello.to_wire(),
        packet.to_wire(),
        hints_to_bytes(&hints),
        json.to_string().into_bytes(),
    ];
    assert_eq!(GovernorFeedback::from_bytes(&wires[0]), Ok(feedback));
    assert_eq!(AnnotationDelta::from_bytes(&wires[1]), Ok(delta));
    assert_eq!(ClientHello::from_wire(&wires[2]), Ok(hello));
    assert_eq!(StreamPacket::from_wire(&wires[3]), Ok(packet));
    assert_eq!(hints_from_bytes(&wires[4]), Ok(hints));
    assert_eq!(Json::parse(std::str::from_utf8(&wires[5]).unwrap()), Ok(json));
    wires
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

/// A DC difference with a 31-zero prefix (`i32::MAX`) on a predictor of
/// 2047 overflowed the sum in `zigzag::decode_block_into`: the debug
/// build panicked and release reported a wrapped DC. The random-bytes
/// rows never draw so long a prefix.
#[test]
fn dc_difference_near_i32_max_is_reported_unwrapped() {
    use annolight::codec::bitio::BitWriter;
    let mut w = BitWriter::new();
    w.put_bits(8, 8); // qscale
    w.put_se(2047); // first luma block: DC 2047, end of block
    w.put_ue(63);
    w.put_se(i32::MAX); // second: 2047 + i32::MAX
    w.put_ue(63);
    let payload = w.into_bytes();
    let err = annolight::codec::picture::decode_intra(&payload, 16, 16).unwrap_err();
    assert!(err.to_string().contains("DC overflow: 2147485694"), "{err}");
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

/// A served stream re-encoded with its track plus an `ADV1` hint packet
/// whose complexity lies outside `[0, 1]`. At −10 the implied CPU busy
/// fraction at 150 MHz is −13.9, which the client's power model
/// rejected with a panic; the hint parser must reject it instead.
#[test]
fn client_rejects_a_dvfs_hint_complexity_outside_the_unit_interval() {
    use annolight::stream::client::PlaybackError;
    use annolight::stream::{MediaServer, ServeRequest};
    let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(1.0);
    let (width, height, fps) = (clip.dimensions().0, clip.dimensions().1, clip.fps());
    let mut server = MediaServer::new(EncoderConfig::default());
    server.add_clip(clip);
    let device = DeviceProfile::ipaq_5555();
    let served =
        server.serve(&ServeRequest::new("officexp", device.clone(), QualityLevel::Q10)).unwrap();
    let frames = Decoder::new(&served.stream).unwrap().decode_all().unwrap();
    let with_hint = |complexity: f64| {
        let hint = DvfsHint {
            span: SceneSpan { start: 0, end: frames.len() as u32 },
            complexity,
            frequency: CpuFrequency::Mhz150,
        };
        let mut enc =
            Encoder::new(EncoderConfig { width, height, fps, ..EncoderConfig::default() }).unwrap();
        enc.push_user_data(&served.track.to_rle_bytes());
        enc.push_user_data(&hints_to_bytes(&[hint]));
        enc.push_frames(&frames).unwrap();
        enc.finish()
    };
    let client = PlaybackClient::new(device, SystemPowerModel::ipaq_5555());
    for complexity in [-10.0, 1.5, -1e-9] {
        match client.play(&with_hint(complexity), None) {
            Err(PlaybackError::BadTrack(msg)) => assert!(msg.contains("outside [0, 1]"), "{msg}"),
            other => panic!("complexity {complexity}: expected a typed rejection, got {other:?}"),
        }
    }
    for complexity in [0.0, 1.0] {
        let report = client.play(&with_hint(complexity), None).expect("in-range hint plays");
        assert!(report.dvfs_applied && report.annotated, "complexity {complexity}");
    }
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

/// A hello whose custom quality is not a fraction in `[0, 1]`: the
/// server's grant would panic on it, so the wire parser must refuse it
/// and a shared-server session must fail with a typed error.
#[test]
fn hello_with_a_custom_quality_outside_the_unit_interval_is_rejected() {
    use annolight::core::track::AnnotationMode;
    use annolight::stream::{
        run_session_with_server, ClientHello, MediaServer, SessionError, SharedSessionOptions,
    };
    let hello = |q: f64| {
        ClientHello::new(
            "officexp",
            DeviceProfile::ipaq_5555(),
            QualityLevel::Custom(q),
            AnnotationMode::PerScene,
        )
    };
    let mut server = MediaServer::new(EncoderConfig::default());
    server.add_clip(ClipLibrary::paper_clip("officexp").unwrap().preview(1.0));
    for q in [1.5, -0.25] {
        let wire = hello(q).to_wire();
        assert!(String::from_utf8_lossy(&wire).contains("\"Custom\""), "quality {q}");
        let err = ClientHello::from_wire(&wire).expect_err("out-of-range quality");
        assert!(err.contains("outside [0, 1]"), "quality {q}: {err}");
        match run_session_with_server(&server, &hello(q), &SharedSessionOptions::default()) {
            Err(SessionError::Pipeline(msg)) => assert!(msg.contains("outside [0, 1]"), "{msg}"),
            other => panic!("quality {q}: expected a typed rejection, got {other:?}"),
        }
    }
    for q in [0.0, 0.33, 1.0] {
        assert_eq!(ClientHello::from_wire(&hello(q).to_wire()), Ok(hello(q)), "quality {q}");
    }
}

/// A hello whose device profile is out of range. Decoding the profile
/// skips the checks its constructors make, so a forged one panicked the
/// session (a negative backlight floor in the power model; in debug
/// builds, a non-positive transfer curvature while the server planned, or
/// one so small that the curve is 0/0) or played with nonsense energy
/// (`max_w` below `floor_w`). The wire parser must refuse it, and a
/// shared-server session must fail with a typed error.
#[test]
fn hello_with_a_forged_device_profile_is_rejected() {
    use annolight::stream::{
        run_session_with_server, MediaServer, SessionError, SharedSessionOptions,
    };
    let mut server = MediaServer::new(EncoderConfig::default());
    server.add_clip(ClipLibrary::paper_clip("themovie").unwrap().preview(1.0));
    let ipaq = annolight_support::json::to_string(&DeviceProfile::ipaq_5555());
    let forgeries = [
        (r#""floor_w":0.1,"#, r#""floor_w":-5.0,"#),
        (r#""max_w":0.85"#, r#""max_w":0.0"#),
        (r#"{"a":1.3}"#, r#"{"a":-3.0}"#),
        (r#"{"a":1.3}"#, r#"{"a":1e-300}"#),
        (r#"{"SaturatingExp":{"a":1.3}}"#, r#"{"Gamma":{"gamma":0.0}}"#),
        (r#""transmittance":0.85"#, r#""transmittance":0.0"#),
        (r#""ambient_reflectance":0.12"#, r#""ambient_reflectance":1.5"#),
        (r#""white_gamma":1.08"#, r#""white_gamma":-1.0"#),
    ];
    for (field, forged) in forgeries {
        assert!(ipaq.contains(field), "{field} not in {ipaq}");
        let device: DeviceProfile = annolight_support::json::from_str(&ipaq.replace(field, forged))
            .expect("the forged profile is well-formed JSON");
        let hello =
            ClientHello::new("themovie", device, QualityLevel::Q10, AnnotationMode::PerScene);
        match run_session_with_server(&server, &hello, &SharedSessionOptions::default()) {
            Err(SessionError::Pipeline(_)) => {}
            other => panic!("{forged}: expected a typed rejection, got {other:?}"),
        }
        assert!(ClientHello::from_wire(&hello.to_wire()).is_err(), "{forged}");
    }
}

/// A profile forged under a paper device's name, but in range, is served;
/// it must not poison the shared server's track cache. The genuine device
/// served after it gets the stream and the report a private server gives
/// it. The cache used to key tracks by the device's name alone, so the
/// genuine client was handed the forged panel's levels and compensation.
#[test]
fn forged_profile_under_a_paper_name_does_not_poison_a_shared_server() {
    use annolight::stream::{
        run_session_with_server, MediaServer, ServeRequest, SharedSessionOptions,
    };
    use annolight_support::json::{from_str, to_string};
    let server = || {
        let mut server = MediaServer::new(EncoderConfig::default());
        server.add_clip(ClipLibrary::paper_clip("themovie").unwrap().preview(5.0));
        server
    };
    let ipaq = DeviceProfile::ipaq_5555();
    let forged: DeviceProfile = from_str(&to_string(&ipaq).replace(r#"{"a":1.3}"#, r#"{"a":6.0}"#))
        .expect("the forged profile is well-formed JSON");
    assert_ne!(forged, ipaq);
    assert_eq!((forged.name(), forged.check()), (ipaq.name(), Ok(())));
    let hello =
        |device| ClientHello::new("themovie", device, QualityLevel::Q10, AnnotationMode::PerScene);
    let options = SharedSessionOptions::default();
    let request = ServeRequest::new("themovie", ipaq.clone(), QualityLevel::Q10);

    let private = server();
    let want_report = run_session_with_server(&private, &hello(ipaq.clone()), &options).unwrap();
    let want_stream = private.serve(&request).unwrap().stream;

    let shared = server();
    run_session_with_server(&shared, &hello(forged), &options)
        .expect("an in-range profile is served");
    let report = run_session_with_server(&shared, &hello(ipaq), &options).unwrap();
    assert_eq!(to_string(&report), to_string(&want_report));
    assert_eq!(shared.serve(&request).unwrap().stream.as_bytes(), want_stream.as_bytes());
}

/// Custom qualities that are out of range or not a number, for the
/// serve-boundary rows below.
const BAD_QUALITIES: [f64; 4] = [1.5, -0.25, f64::NAN, f64::INFINITY];

/// A bad custom quality reaching the annotation service is a typed
/// rejection. Its cache key used to panic on it.
#[test]
fn service_rejects_a_custom_quality_outside_the_unit_interval() {
    use annolight::core::track::AnnotationMode;
    use annolight::core::PolicyKind;
    use annolight::serve::{
        AnnotationRequest, AnnotationService, ServeError, Service, ServiceConfig,
    };
    let svc = AnnotationService::new(ServiceConfig::default());
    svc.register_clip(ClipLibrary::paper_clip("officexp").unwrap().preview(1.0));
    for q in BAD_QUALITIES {
        let req = AnnotationRequest {
            tenant: "handheld".into(),
            clip: "officexp".into(),
            device: DeviceProfile::ipaq_5555(),
            quality: QualityLevel::Custom(q),
            mode: AnnotationMode::PerScene,
            policy: PolicyKind::PeakClip,
        };
        match svc.submit(req.clone()) {
            Err(ServeError::InvalidQuality(msg)) => {
                assert!(msg.contains("outside [0, 1]"), "{msg}");
            }
            other => panic!("quality {q}: expected a typed rejection, got {other:?}"),
        }
        match svc.call(req) {
            Err(ServeError::InvalidQuality(msg)) => {
                assert!(msg.contains("outside [0, 1]"), "{msg}");
            }
            other => panic!("quality {q}: expected a typed rejection, got {other:?}"),
        }
    }
    let report = svc.report();
    assert_eq!((report.completed, report.queue_depth), (0, 0), "nothing was admitted");
}

/// The proxy's annotation call rejects a bad custom quality before it
/// plans or compensates anything.
#[test]
fn proxy_rejects_a_custom_quality_outside_the_unit_interval() {
    use annolight::core::track::AnnotationMode;
    use annolight::serve::ServeError;
    use annolight::stream::proxy::ProxyError;
    use annolight::stream::Proxy;
    let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(1.0);
    let (w, h) = clip.dimensions();
    let mut enc = Encoder::new(EncoderConfig {
        width: w,
        height: h,
        fps: clip.fps(),
        ..EncoderConfig::default()
    })
    .unwrap();
    for f in clip.frames() {
        enc.push_frame(&f).unwrap();
    }
    let input = enc.finish();
    let proxy = Proxy::new(EncoderConfig::default());
    for q in BAD_QUALITIES {
        let device = DeviceProfile::ipaq_5555();
        match proxy.transcode(&input, &device, QualityLevel::Custom(q), AnnotationMode::PerScene) {
            Err(ProxyError::Serve(ServeError::InvalidQuality(msg))) => {
                assert!(msg.contains("outside [0, 1]"), "{msg}");
            }
            other => panic!("quality {q}: expected a typed rejection, got {other:?}"),
        }
    }
}

/// `MediaServer::serve` maps the service's rejection of a bad custom
/// quality to its own typed error.
#[test]
fn server_rejects_a_custom_quality_outside_the_unit_interval() {
    use annolight::stream::{MediaServer, ServeError, ServeRequest};
    let mut server = MediaServer::new(EncoderConfig::default());
    server.add_clip(ClipLibrary::paper_clip("officexp").unwrap().preview(1.0));
    for q in BAD_QUALITIES {
        let quality = QualityLevel::Custom(q);
        let req = ServeRequest::new("officexp", DeviceProfile::ipaq_5555(), quality);
        match server.serve(&req) {
            Err(ServeError::InvalidQuality(msg)) => {
                assert!(msg.contains("outside [0, 1]"), "{msg}");
            }
            other => panic!("quality {q}: expected a typed rejection, got {other:?}"),
        }
    }
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
