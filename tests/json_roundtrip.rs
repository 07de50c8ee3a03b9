//! JSON round-trip tests for every wire- or sidecar-serialised type:
//! serialise → parse → value-equal (or re-serialise → byte-equal where a
//! type has no `PartialEq`). These pin the `annolight_support::json`
//! encodings — external enum tagging, newtype transparency, map and
//! option handling — against the formats the seed fixed with serde.

use annolight::core::track::{AnnotationEntry, AnnotationMode, AnnotationTrack};
use annolight::core::{LuminanceProfile, QualityLevel};
use annolight::display::{BacklightLevel, DeviceProfile};
use annolight::stream::{ClientHello, ServerOffer};
use annolight::video::ClipLibrary;
use annolight_support::json::{from_str, to_string, Json};

/// serialise → parse → serialise must be a fixpoint.
fn stable_roundtrip<T>(value: &T) -> T
where
    T: annolight_support::json::ToJson + annolight_support::json::FromJson,
{
    let doc = to_string(value);
    let back: T = from_str(&doc).unwrap_or_else(|e| panic!("reparse failed: {e}\n{doc}"));
    let doc2 = to_string(&back);
    assert_eq!(doc, doc2, "serialisation is not a fixpoint");
    // And the document is well-formed JSON for third parties.
    Json::parse(&doc).expect("emitted JSON must parse as plain JSON");
    back
}

#[test]
fn annotation_track_roundtrips() {
    let entries = vec![
        AnnotationEntry {
            start_frame: 0,
            backlight: BacklightLevel(200),
            compensation: 1.25,
            effective_max_luma: 204,
        },
        AnnotationEntry {
            start_frame: 24,
            backlight: BacklightLevel(120),
            compensation: 2.0,
            effective_max_luma: 128,
        },
    ];
    let track =
        AnnotationTrack::new("ipaq_5555", QualityLevel::Q10, AnnotationMode::PerScene, 12.0, 48, entries)
            .unwrap();
    let back = stable_roundtrip(&track);
    assert_eq!(back, track);
    // And the sidecar helpers agree with the raw round-trip.
    let sidecar = track.to_json().unwrap();
    assert_eq!(AnnotationTrack::from_json(&sidecar).unwrap(), track);
}

#[test]
fn clip_specs_roundtrip_for_every_paper_clip() {
    // The ten scripted clips cover all `ContentKind` variants in use:
    // struct variants with differing arities, plus the credits class.
    for clip in ClipLibrary::paper_clips() {
        let spec = clip.spec().clone();
        let back = stable_roundtrip(&spec);
        assert_eq!(back, spec, "{}", spec.name);
    }
}

#[test]
fn device_profiles_roundtrip() {
    for dev in DeviceProfile::paper_devices() {
        let back = stable_roundtrip(&dev);
        assert_eq!(back, dev, "{}", dev.name());
    }
}

#[test]
fn negotiation_messages_roundtrip() {
    let hello = ClientHello::new(
        "themovie",
        DeviceProfile::ipaq_5555(),
        QualityLevel::Q15,
        AnnotationMode::PerFrame,
    );
    assert_eq!(stable_roundtrip(&hello), hello);
    // Wire helpers are byte-level JSON too.
    assert_eq!(ClientHello::from_wire(&hello.to_wire()).unwrap(), hello);

    let offer = ServerOffer {
        offered_qualities: vec![QualityLevel::Q0, QualityLevel::Q10, QualityLevel::Custom(0.125)],
        granted_quality: QualityLevel::Q10,
        width: 128,
        height: 96,
        fps: 12.0,
        stream_bytes: 123_456,
    };
    assert_eq!(stable_roundtrip(&offer), offer);
}

#[test]
fn quality_levels_roundtrip_including_custom() {
    for q in [
        QualityLevel::Q0,
        QualityLevel::Q5,
        QualityLevel::Q10,
        QualityLevel::Q15,
        QualityLevel::Q20,
        QualityLevel::Custom(0.0375),
    ] {
        assert_eq!(stable_roundtrip(&q), q);
    }
}

#[test]
fn power_reports_roundtrip() {
    use annolight::power::SystemPowerModel;
    let model = SystemPowerModel::ipaq_5555();
    assert_eq!(stable_roundtrip(&model), model);
}

#[test]
fn session_report_roundtrips() {
    use annolight::stream::{run_session, SessionConfig};
    // SessionReport has no PartialEq (it nests a BTreeMap breakdown);
    // the fixpoint property inside `stable_roundtrip` plus field spot
    // checks pin the encoding instead.
    let clip = ClipLibrary::paper_clip("officexp").unwrap().preview(1.0);
    let report = run_session(SessionConfig::new(clip, QualityLevel::Q10)).unwrap();
    let back = stable_roundtrip(&report);
    assert_eq!(back.stream_bytes, report.stream_bytes);
    assert_eq!(back.packets, report.packets);
    assert_eq!(back.playback, report.playback);
    assert_eq!(back.energy_breakdown, report.energy_breakdown);
}

#[test]
fn luminance_profile_roundtrips() {
    let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(1.0);
    let profile = LuminanceProfile::of_clip(&clip).unwrap();
    let back = stable_roundtrip(&profile);
    assert_eq!(back, profile);
}
