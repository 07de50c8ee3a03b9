//! Tier-2 robustness suite: fault-injected end-to-end sessions.
//!
//! A seeded matrix of streaming sessions over lossy wireless hops. The
//! contract under test, end to end:
//!
//! * playback **never stalls** — every frame of the clip plays no
//!   matter what the channel does (pictures are retransmitted reliably,
//!   annotation hints degrade gracefully);
//! * the perceived-intensity error the degradation policy admits stays
//!   bounded at realistic loss rates;
//! * with a lossless fault config the faulty path reproduces the plain
//!   [`run_session`] report **byte for byte**;
//! * identical seeds replay identical degradation-event logs, byte for
//!   byte — the property the CI determinism guard double-runs.
//!
//! Set `ANNOLIGHT_FAULT_LOG=/path` to have the suite write the canonical
//! event/fault log as JSON (the CI script runs the suite twice and
//! `cmp`s the two files).

use annolight::core::QualityLevel;
use annolight::stream::{
    governed_projections, run_session, run_session_faulty, run_session_governed, FaultConfig,
    GovernorSessionConfig, SessionConfig,
};
use annolight::video::{Clip, ClipLibrary};

const SEEDS: [u64; 3] = [1, 42, 0xA110];
const LOSS_PCT: [f64; 4] = [0.0, 5.0, 10.0, 20.0];

fn test_clip() -> Clip {
    ClipLibrary::paper_clips()
        .into_iter()
        .next()
        .expect("paper clip library is non-empty")
        .preview(3.0)
}

fn config(clip: &Clip, seed: u64, loss_pct: f64) -> SessionConfig {
    let mut config = SessionConfig::new(clip.clone(), QualityLevel::Q10);
    config.faults = if loss_pct == 0.0 {
        FaultConfig::lossless(seed)
    } else {
        FaultConfig::lossy(seed, loss_pct / 100.0)
    };
    config
}

#[test]
fn seeded_loss_matrix_never_stalls_and_bounds_error() {
    let clip = test_clip();
    let frames = {
        let plain = run_session(SessionConfig::new(clip.clone(), QualityLevel::Q10))
            .expect("plain session succeeds");
        plain.playback.frames
    };
    for seed in SEEDS {
        for loss_pct in LOSS_PCT {
            let report = run_session_faulty(config(&clip, seed, loss_pct))
                .unwrap_or_else(|e| panic!("seed {seed} loss {loss_pct}%: {e}"));
            // Never stalls: every frame of the clip plays.
            assert_eq!(
                report.session.playback.frames, frames,
                "seed {seed} loss {loss_pct}%: frame count"
            );
            assert!(report.session.playback.duration_s > 0.0);
            // The degradation policy keeps the perceived-intensity error
            // bounded at every realistic loss rate in the matrix.
            assert!(
                report.perceived_error <= 0.25,
                "seed {seed} loss {loss_pct}%: perceived error {}",
                report.perceived_error
            );
            // Reliable pictures: nothing the channel lost stays lost.
            assert!(
                report.faults.channel.retransmit_failures == 0
                    || report.session.playback.frames == frames,
                "seed {seed} loss {loss_pct}%: lost pictures must fail the session, not corrupt it"
            );
            if loss_pct == 0.0 {
                assert_eq!(report.faults.channel.dropped, 0);
                assert_eq!(report.degraded_frames, 0);
                assert_eq!(report.perceived_error, 0.0);
            }
        }
    }
}

#[test]
fn lossless_faulty_session_matches_plain_session_byte_for_byte() {
    let clip = test_clip();
    let plain = run_session(SessionConfig::new(clip.clone(), QualityLevel::Q10))
        .expect("plain session succeeds");
    for seed in SEEDS {
        let faulty = run_session_faulty(config(&clip, seed, 0.0))
            .expect("lossless faulty session succeeds");
        assert_eq!(
            annolight_support::json::to_string_pretty(&faulty.session),
            annolight_support::json::to_string_pretty(&plain),
            "seed {seed}: lossless fault path must reproduce run_session exactly"
        );
        assert!(faulty.events.is_empty(), "seed {seed}: lossless run logged events");
    }
}

/// A governed session config over the faulty hop at `loss_pct`, with a
/// mid-ladder joule budget (tight enough to exert pressure, loose
/// enough to absorb the fault tier's retransmit debit and full-backlight
/// fallback scenes).
fn governed(clip: &Clip, seed: u64, loss_pct: f64, budget_j: f64) -> GovernorSessionConfig {
    GovernorSessionConfig::new(config(clip, seed, loss_pct), budget_j).with_ambient_seed(seed)
}

fn mid_budget(clip: &Clip) -> f64 {
    let ladder =
        governed_projections(&governed(clip, 0, 0.0, 0.0)).expect("projection ladder");
    let floor = *ladder.last().expect("non-empty ladder");
    floor + 0.6 * (ladder[0] - floor)
}

#[test]
fn governed_lossy_matrix_lands_within_budget_with_retransmits_charged() {
    let clip = test_clip();
    let budget = mid_budget(&clip);
    for seed in SEEDS {
        for loss_pct in [5.0, 10.0, 20.0] {
            let r = run_session_governed(governed(&clip, seed, loss_pct, budget))
                .unwrap_or_else(|e| panic!("seed {seed} loss {loss_pct}%: {e}"));
            let cell = format!("seed {seed} loss {loss_pct}%");
            // Every scene still governed and played.
            assert_eq!(r.events.len(), r.scenes as usize, "{cell}: scenes");
            // Retransmission energy is charged against the budget, not
            // accounted off the books.
            if r.retransmits > 0 {
                assert!(r.retransmit_energy_j > 0.0, "{cell}: free retransmits");
            }
            assert!(
                (r.total_j - (r.playback_energy_j + r.retransmit_energy_j)).abs() < 1e-9,
                "{cell}: budget accounting leak"
            );
            // The governor absorbs the loss and still lands inside the
            // budget (projections price hint-missing scenes at full
            // backlight, and the debit happens before scene 0).
            assert!(!r.infeasible, "{cell}: mid-ladder budget must stay feasible");
            assert!(
                r.within_budget,
                "{cell}: spent {} of {} J ({} J retransmit)",
                r.total_j,
                r.effective_budget_j,
                r.retransmit_energy_j
            );
            assert!(r.quality_error <= 0.5, "{cell}: quality error {}", r.quality_error);
        }
    }
}

#[test]
fn zero_fault_governed_trace_is_byte_identical_to_reference() {
    let clip = test_clip();
    let budget = mid_budget(&clip);
    let reference = {
        let mut cfg = governed(&clip, 7, 0.0, budget);
        cfg.session.faults = FaultConfig::default();
        run_session_governed(cfg).expect("reference governed session succeeds")
    };
    for seed in SEEDS {
        // Same ambient sensor stream; only the (lossless, hence inert)
        // channel seed varies — no channel randomness may reach the
        // governor.
        let faulty = run_session_governed(governed(&clip, seed, 0.0, budget).with_ambient_seed(7))
            .expect("lossless governed session succeeds");
        assert_eq!(
            annolight_support::json::to_string_pretty(&faulty),
            annolight_support::json::to_string_pretty(&reference),
            "seed {seed}: zero-fault governed path must reproduce the reference byte for byte"
        );
    }
}

/// The canonical deterministic artefact: the full event/fault log of the
/// seeded matrix, as JSON. Identical builds must produce identical
/// bytes; `scripts/ci.sh` runs this twice and `cmp`s the files.
fn matrix_log() -> String {
    let clip = test_clip();
    let mut out = String::from("[\n");
    let mut first = true;
    for seed in SEEDS {
        for loss_pct in LOSS_PCT {
            let report = run_session_faulty(config(&clip, seed, loss_pct))
                .expect("matrix session succeeds");
            let entry = annolight_support::json_obj!({
                "seed": seed,
                "loss_pct": loss_pct,
                "faults": report.faults,
                "events": report.events,
                "degraded_frames": report.degraded_frames,
                "perceived_error": report.perceived_error,
            });
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&entry.pretty());
        }
    }
    out.push_str("\n]\n");
    out
}

#[test]
fn event_logs_replay_byte_identically_and_export_for_ci() {
    let a = matrix_log();
    let b = matrix_log();
    assert_eq!(a, b, "same seeds must replay byte-identical logs in-process");
    if let Ok(path) = std::env::var("ANNOLIGHT_FAULT_LOG") {
        if !path.is_empty() {
            std::fs::write(&path, &a)
                .unwrap_or_else(|e| panic!("writing fault log to {path}: {e}"));
        }
    }
}

#[test]
fn retransmit_energy_is_charged_and_reported_consistently() {
    let clip = test_clip();
    let report =
        run_session_faulty(config(&clip, 42, 20.0)).expect("lossy session succeeds");
    let faults = &report.faults;
    if faults.channel.retransmits > 0 {
        assert!(faults.retransmit_energy_j > 0.0, "retransmissions must cost energy");
        let charged = report
            .session
            .energy_breakdown
            .get("wnic_retransmit")
            .copied()
            .expect("breakdown carries the retransmit component");
        assert!(
            (charged - faults.retransmit_energy_j).abs() < 1e-12,
            "breakdown ({charged}) and fault report ({}) must agree",
            faults.retransmit_energy_j
        );
    } else {
        assert_eq!(faults.retransmit_energy_j, 0.0);
        assert!(!report.session.energy_breakdown.contains_key("wnic_retransmit"));
    }
}
