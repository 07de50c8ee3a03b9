//! Differential policy-conformance tier.
//!
//! Locks the policy-trait refactor from the outside: a fixed matrix of
//! seeds × clip classes × devices is pushed through **every**
//! [`PolicyKind`] backend and the tier asserts, per cell,
//!
//! * **peak-clip byte-identity** — `compute_policy(PeakClip)` and the
//!   policy-threaded [`Annotator`] reproduce the legacy
//!   `compute`/`compute_parallel` planner and its annotation track
//!   byte-for-byte, so the refactor cannot have moved the reference;
//! * **worker-count identity** — every backend plans byte-identically
//!   at workers {0, 1, 2, 4, 7} (serial inline, degenerate pool, and
//!   non-dividing chunk counts);
//! * **HEBS ordering** — the equalised remap is monotone, dominates the
//!   plain contrast stretch pointwise, and never selects a *brighter*
//!   backlight than peak-clip for the same scene;
//! * **spatial-scale consistency** — the served stream geometry follows
//!   [`spatial_decision`] exactly: quarter-size bytes when half
//!   resolution is priced cheaper by the margin, byte-identical to the
//!   peak-clip stream otherwise, and `use_half` is only ever granted
//!   when the priced half-resolution energy actually clears the margin.
//!
//! When `ANNOLIGHT_POLICY_LOG` names a file, the matrix test also
//! writes one digest line per (clip, device, policy) cell. CI runs the
//! tier twice and `cmp`s the two logs: a byte-equal log across
//! *processes* proves the plans carry no ASLR/iteration-order artefacts
//! that in-process double-runs can miss.

use annolight::core::digest::fnv1a_64;
use annolight::core::{
    Annotator, BacklightPlan, LuminanceProfile, ParallelConfig, PolicyKind, QualityLevel,
    SceneDetector, SPATIAL_MARGIN,
};
use annolight::display::DeviceProfile;
use annolight::imgproc::HebsLut;
use annolight::stream::{resolution_cost, run_session, spatial_decision, SessionConfig};
use annolight::video::{Clip, ClipLibrary, ClipSpec, ContentKind, SceneSpec};
use annolight_support::json::to_string;

const SEEDS: [u64; 3] = [1, 42, 0xA110];
const WORKERS: [usize; 5] = [0, 1, 2, 4, 7];
const QUALITY: QualityLevel = QualityLevel::Q10;

fn devices() -> [DeviceProfile; 2] {
    [DeviceProfile::ipaq_5555(), DeviceProfile::zaurus_sl5600()]
}

/// One synthetic clip per content class. Dimensions are chosen to cover
/// the spatial-scaling support matrix: `dark` (64×64) and `mixed`
/// (64×32) halve to codec-legal sizes, `bright` (48×48) does not
/// (48/2 = 24 is not a macroblock multiple), pinning the
/// `half_supported` gate from both sides.
fn synthetic(class: &str, seed: u64) -> Clip {
    let (width, height, scenes) = match class {
        "dark" => (
            64,
            64,
            vec![
                SceneSpec::new(
                    ContentKind::Dark {
                        base: 38,
                        spread: 12,
                        highlight_fraction: 0.01,
                        highlight: 245,
                    },
                    1.5,
                ),
                SceneSpec::new(
                    ContentKind::Credits { text: 230, background: 12, density: 0.04 },
                    1.0,
                ),
            ],
        ),
        "bright" => (
            48,
            48,
            vec![
                SceneSpec::new(ContentKind::Bright { base: 208, spread: 18 }, 1.5),
                SceneSpec::new(ContentKind::GradientPan { lo: 120, hi: 250, speed: 2 }, 1.0),
            ],
        ),
        "mixed" => (
            64,
            32,
            vec![
                SceneSpec::new(
                    ContentKind::Mid { base: 110, spread: 30, highlight_fraction: 0.02 },
                    1.0,
                ),
                SceneSpec::new(
                    ContentKind::Dark {
                        base: 45,
                        spread: 14,
                        highlight_fraction: 0.02,
                        highlight: 235,
                    },
                    1.0,
                ),
                SceneSpec::new(ContentKind::Fade { from: 20, to: 200 }, 1.0),
            ],
        ),
        other => panic!("unknown clip class {other}"),
    };
    Clip::new(ClipSpec {
        name: format!("conf-{class}-{seed:x}"),
        width,
        height,
        fps: 12.0,
        seed,
        scenes,
    })
    .expect("conformance spec is valid")
}

/// The full conformance clip set: every class × seed, plus two library
/// previews (a dark trailer and a bright cartoon) so the matrix also
/// covers the paper's own content.
fn conformance_clips() -> Vec<Clip> {
    let mut clips = Vec::new();
    for class in ["dark", "bright", "mixed"] {
        for seed in SEEDS {
            clips.push(synthetic(class, seed));
        }
    }
    for name in ["themovie", "ice_age"] {
        clips.push(ClipLibrary::paper_clip(name).expect("library clip").preview(3.0));
    }
    clips
}

#[test]
fn peak_clip_is_byte_identical_to_the_legacy_planner() {
    for clip in conformance_clips() {
        let profile = LuminanceProfile::of_clip(&clip).expect("non-empty clip");
        let spans = SceneDetector::default().detect(&profile);
        for device in devices() {
            let legacy = to_string(&BacklightPlan::compute(&profile, &spans, &device, QUALITY));
            for workers in WORKERS {
                let cfg = ParallelConfig::with_workers(workers);
                let via_policy = BacklightPlan::compute_policy(
                    &profile,
                    &spans,
                    &device,
                    QUALITY,
                    PolicyKind::PeakClip,
                    &cfg,
                );
                assert_eq!(
                    legacy,
                    to_string(&via_policy),
                    "{}/{}: PeakClip@{workers}w diverged from the legacy planner",
                    clip.name(),
                    device.name()
                );
            }

            // The annotator front-end: an explicit `.with_policy(PeakClip)`
            // must reproduce the default annotator's track byte-for-byte.
            let default_track = Annotator::new(device.clone(), QUALITY)
                .annotate_profile(&profile)
                .expect("annotation succeeds")
                .track()
                .to_rle_bytes();
            let policy_track = Annotator::new(device.clone(), QUALITY)
                .with_policy(PolicyKind::PeakClip)
                .annotate_profile(&profile)
                .expect("annotation succeeds")
                .track()
                .to_rle_bytes();
            assert_eq!(
                default_track,
                policy_track,
                "{}/{}: explicit PeakClip track differs from the default annotator",
                clip.name(),
                device.name()
            );
        }
    }
}

#[test]
fn every_policy_plans_byte_identically_across_worker_counts() {
    // Also the digest exporter: one line per (clip, device, policy)
    // with the FNV-1a digest of the serial plan. With
    // ANNOLIGHT_POLICY_LOG set, CI compares the file across two
    // *separate* test processes.
    let mut log = String::new();
    for clip in conformance_clips() {
        let profile = LuminanceProfile::of_clip(&clip).expect("non-empty clip");
        let spans = SceneDetector::default().detect(&profile);
        for device in devices() {
            for policy in PolicyKind::ALL {
                let serial = to_string(&BacklightPlan::compute_policy(
                    &profile,
                    &spans,
                    &device,
                    QUALITY,
                    policy,
                    &ParallelConfig::serial(),
                ));
                for workers in WORKERS {
                    let plan = BacklightPlan::compute_policy(
                        &profile,
                        &spans,
                        &device,
                        QUALITY,
                        policy,
                        &ParallelConfig::with_workers(workers),
                    );
                    assert_eq!(
                        serial,
                        to_string(&plan),
                        "{}/{}/{}: plan not byte-identical at {workers} workers",
                        clip.name(),
                        device.name(),
                        policy.name()
                    );
                }
                log.push_str(&format!(
                    "{} {} {} {:016x}\n",
                    clip.name(),
                    device.name(),
                    policy.name(),
                    fnv1a_64(serial.as_bytes())
                ));
            }
        }
    }
    if let Ok(path) = std::env::var("ANNOLIGHT_POLICY_LOG") {
        if !path.is_empty() {
            std::fs::write(&path, &log).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        }
    }
}

#[test]
fn hebs_remap_is_monotone_dominates_stretch_and_never_dims_less() {
    for clip in conformance_clips() {
        let profile = LuminanceProfile::of_clip(&clip).expect("non-empty clip");
        let spans = SceneDetector::default().detect(&profile);
        for device in devices() {
            let serial = ParallelConfig::serial();
            let peak = BacklightPlan::compute_policy(
                &profile,
                &spans,
                &device,
                QUALITY,
                PolicyKind::PeakClip,
                &serial,
            );
            let hebs = BacklightPlan::compute_policy(
                &profile,
                &spans,
                &device,
                QUALITY,
                PolicyKind::Hebs,
                &serial,
            );
            for (p, h) in peak.scenes().iter().zip(hebs.scenes().iter()) {
                assert_eq!(p.span, h.span);
                // Same clipping budget spent, so the planner-level quality
                // degradation is identical...
                assert_eq!(p.effective_max_luma, h.effective_max_luma);
                assert!((p.clipped_fraction - h.clipped_fraction).abs() < 1e-12);
                // ...but equalisation may only ever dim *further*.
                assert!(
                    h.backlight <= p.backlight,
                    "{}/{} scene {:?}: hebs backlight {:?} brighter than peak-clip {:?}",
                    clip.name(),
                    device.name(),
                    h.span,
                    h.backlight,
                    p.backlight
                );

                let hist = profile.merged_histogram(h.span.start, h.span.end);
                let lut = HebsLut::from_histogram(&hist, hist.clip_level(QUALITY.clip_fraction()));
                let mut prev = lut.value(0);
                for v in 1..=255u8 {
                    let cur = lut.value(v);
                    assert!(
                        cur >= prev,
                        "{}: remap not monotone at {v}: {cur} < {prev}",
                        clip.name()
                    );
                    assert!(
                        cur >= lut.stretch_value(v),
                        "{}: remap below contrast stretch at {v}",
                        clip.name()
                    );
                    prev = cur;
                }
            }
        }
    }
}

#[test]
fn spatial_scale_streams_track_the_resolution_decision() {
    // One clip per class (seed 42) plus the two library previews: runs
    // full sessions, so the set is kept small while still covering both
    // sides of the half_supported gate.
    let clips: Vec<Clip> = vec![
        synthetic("dark", 42),
        synthetic("bright", 42),
        synthetic("mixed", 42),
        ClipLibrary::paper_clip("themovie").expect("library clip").preview(3.0),
        ClipLibrary::paper_clip("ice_age").expect("library clip").preview(3.0),
    ];
    let mut halved = 0;
    let mut full = 0;
    for clip in clips {
        let cfg = SessionConfig::new(clip.clone(), QUALITY);
        let (w, h) = (clip.spec().width, clip.spec().height);
        let cost = resolution_cost(w, h, clip.frame_count(), clip.fps(), &cfg.channel, &cfg.system);
        let decision = spatial_decision(
            PolicyKind::SpatialScale,
            w,
            h,
            clip.frame_count(),
            clip.fps(),
            &cfg.channel,
            &cfg.system,
        );
        // The decision may only grant `use_half` when the downscale is
        // codec-legal *and* the priced energy clears the margin.
        if decision.use_half {
            assert!(cost.half_supported, "{}: halved an unsupported geometry", clip.name());
            assert!(
                decision.half_energy_j < decision.full_energy_j * (1.0 - SPATIAL_MARGIN),
                "{}: use_half granted without clearing the margin",
                clip.name()
            );
        }
        if !cost.half_supported {
            assert!(!decision.use_half, "{}: use_half despite unsupported geometry", clip.name());
        }

        let peak = run_session(SessionConfig::new(clip.clone(), QUALITY)).expect("session");
        let spatial = run_session(
            SessionConfig::new(clip.clone(), QUALITY).with_policy(PolicyKind::SpatialScale),
        )
        .expect("session");
        assert_eq!(spatial.playback.frames, peak.playback.frames, "{}", clip.name());
        assert!(spatial.playback.annotated, "{}", clip.name());
        if decision.use_half {
            halved += 1;
            assert!(
                spatial.stream_bytes * 2 < peak.stream_bytes,
                "{}: use_half but stream only shrank {} -> {}",
                clip.name(),
                peak.stream_bytes,
                spatial.stream_bytes
            );
        } else {
            full += 1;
            assert_eq!(
                spatial.stream_bytes,
                peak.stream_bytes,
                "{}: full-resolution spatial stream must match peak-clip byte count",
                clip.name()
            );
        }
    }
    // Coverage guard: the clip set must exercise both branches.
    assert!(halved > 0, "no clip selected half resolution");
    assert!(full > 0, "no clip stayed at full resolution");
}

#[test]
fn policy_wire_ids_round_trip() {
    for policy in PolicyKind::ALL {
        assert_eq!(PolicyKind::from_id(policy.id()), Some(policy));
        let json = to_string(&policy);
        let back: PolicyKind = annolight_support::json::from_str(&json).expect("valid json");
        assert_eq!(back, policy);
    }
    assert_eq!(PolicyKind::from_id(3), None);
}
