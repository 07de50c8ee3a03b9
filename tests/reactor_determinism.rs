//! Tier-2 determinism suite for the session reactor.
//!
//! The reactor's contract, pinned end to end:
//!
//! * **Seeded schedule replay** — the same seed produces the identical
//!   step-trace digest across two runs *and* across worker counts
//!   (`workers ∈ {1, 4}`): parallel stepping may reorder execution but
//!   never observation.
//! * **Byte-identity to the blocking reference** — a zero-fault
//!   reactor-hosted session serialises byte-for-byte equal to
//!   [`run_session`], a faulty one to [`run_session_faulty`], and a
//!   governed one to [`run_session_governed`], for every seed in the
//!   matrix — also when play and governed sessions over lossless, lossy
//!   and bursty hops share one reactor.
//! * **Scale-tier replay** — a mixed lossy/bursty [`ScaleSession`]
//!   fleet replays identical per-session outcome digests.
//! * **Pinned digests** — a mixed fleet's schedule digest and a
//!   64-session [`ScaleSession`] fleet's schedule and outcome digests
//!   equal values frozen from an earlier build, at workers 1 and 4.
//!
//! Set `ANNOLIGHT_REACTOR_LOG=/path` to export the canonical schedule +
//! outcome log as JSON (the CI script runs the suite twice and `cmp`s
//! the two files).

use annolight::core::digest::Digester;
use annolight::core::QualityLevel;
use annolight::stream::machine::{ScaleOutcome, ScaleSession, ScaleSpec};
use annolight::stream::{
    governed_projections, run_session, run_session_faulty, run_session_governed,
    run_sessions_on_reactor, FaultConfig, FaultySessionReport, GovernedSessionReport,
    GovernorSessionConfig, SessionConfig, SessionError, SessionOutcome, SessionSpec,
};
use annolight::video::{Clip, ClipLibrary};
use annolight_support::channel;
use annolight_support::reactor::{Reactor, ReactorConfig};
use std::sync::Arc;

const SEEDS: [u64; 3] = [1, 42, 0xA110];

fn test_clip() -> Clip {
    ClipLibrary::paper_clips()
        .into_iter()
        .next()
        .expect("paper clip library is non-empty")
        .preview(2.0)
}

fn faulty_configs(clip: &Clip, seed: u64) -> Vec<SessionConfig> {
    (0..4)
        .map(|i| {
            let mut config = SessionConfig::new(clip.clone(), QualityLevel::Q10);
            config.faults = match i % 3 {
                0 => FaultConfig::lossless(seed ^ i),
                1 => FaultConfig::lossy(seed ^ i, 0.1),
                _ => FaultConfig::bursty(seed ^ i),
            };
            config
        })
        .collect()
}

fn play_specs(configs: Vec<SessionConfig>) -> Vec<SessionSpec> {
    configs.into_iter().map(SessionSpec::Play).collect()
}

fn play_report(result: Result<SessionOutcome, SessionError>) -> FaultySessionReport {
    match result.expect("reactor session succeeds") {
        SessionOutcome::Play(report) => report,
        SessionOutcome::Govern(_) => panic!("a play spec reported a governed outcome"),
    }
}

fn govern_report(result: Result<SessionOutcome, SessionError>) -> GovernedSessionReport {
    match result.expect("reactor session succeeds") {
        SessionOutcome::Govern(report) => report,
        SessionOutcome::Play(_) => panic!("a governed spec reported a play outcome"),
    }
}

fn reactor_config(seed: u64, workers: usize) -> ReactorConfig {
    ReactorConfig { seed, workers }
}

#[test]
fn same_seed_same_digest_across_runs_and_worker_counts() {
    let clip = test_clip();
    for seed in SEEDS {
        let run = |workers: usize| {
            let (reports, reactor) = run_sessions_on_reactor(
                play_specs(faulty_configs(&clip, seed)),
                reactor_config(seed, workers),
            );
            let serialized: Vec<String> = reports
                .into_iter()
                .map(|r| annolight_support::json::to_string(&play_report(r)))
                .collect();
            (serialized, reactor.digest.value())
        };
        let (r1a, d1a) = run(1);
        let (r1b, d1b) = run(1);
        assert_eq!(d1a, d1b, "seed {seed}: two single-worker runs must share a digest");
        assert_eq!(r1a, r1b, "seed {seed}: two single-worker runs must share reports");
        let (r4, d4) = run(4);
        assert_eq!(d1a, d4, "seed {seed}: digest must be invariant under workers=4");
        assert_eq!(r1a, r4, "seed {seed}: reports must be invariant under workers=4");
    }
    // Different seeds shuffle differently (schedules are seed-driven).
    let digest_of = |seed: u64| {
        run_sessions_on_reactor(play_specs(faulty_configs(&clip, seed)), reactor_config(seed, 1))
            .1
            .digest
            .value()
    };
    assert_ne!(digest_of(SEEDS[0]), digest_of(SEEDS[1]));
}

#[test]
fn zero_fault_reactor_sessions_match_blocking_runs_byte_for_byte() {
    let clip = test_clip();
    let plain = run_session(SessionConfig::new(clip.clone(), QualityLevel::Q10))
        .expect("plain session succeeds");
    let want = annolight_support::json::to_string_pretty(&plain);
    for seed in SEEDS {
        let (results, _) = run_sessions_on_reactor(
            play_specs(vec![SessionConfig::new(clip.clone(), QualityLevel::Q10)]),
            reactor_config(seed, 1),
        );
        let hosted = play_report(results.into_iter().next().unwrap());
        assert_eq!(
            annolight_support::json::to_string_pretty(&hosted.session),
            want,
            "seed {seed}: reactor-hosted session must reproduce run_session exactly"
        );
    }
}

#[test]
fn faulty_reactor_sessions_match_blocking_runs_byte_for_byte() {
    let clip = test_clip();
    for seed in SEEDS {
        for config in faulty_configs(&clip, seed) {
            let blocking =
                run_session_faulty(config.clone()).expect("blocking faulty session succeeds");
            let (results, _) =
                run_sessions_on_reactor(play_specs(vec![config]), reactor_config(seed, 1));
            let hosted = play_report(results.into_iter().next().unwrap());
            assert_eq!(
                annolight_support::json::to_string_pretty(&hosted),
                annolight_support::json::to_string_pretty(&blocking),
                "seed {seed}: reactor-hosted faulty session must reproduce run_session_faulty"
            );
        }
    }
}

#[test]
fn non_default_policy_sessions_replay_identically_on_the_reactor() {
    // The policy (HEBS remaps, spatial downscaling) must survive reactor
    // hosting byte-for-byte — including across worker counts.
    use annolight::core::PolicyKind;
    let clip = test_clip();
    for policy in [PolicyKind::Hebs, PolicyKind::SpatialScale] {
        let mut config = SessionConfig::new(clip.clone(), QualityLevel::Q10);
        config.policy = policy;
        let blocking = run_session(config.clone()).expect("blocking session succeeds");
        let want = annolight_support::json::to_string_pretty(&blocking);
        let digest_at = |workers: usize| {
            let (results, reactor) = run_sessions_on_reactor(
                play_specs(vec![config.clone()]),
                reactor_config(42, workers),
            );
            let hosted = play_report(results.into_iter().next().unwrap());
            assert_eq!(
                annolight_support::json::to_string_pretty(&hosted.session),
                want,
                "{} workers {workers}: reactor-hosted session must match run_session",
                policy.name()
            );
            reactor.digest.value()
        };
        assert_eq!(digest_at(1), digest_at(1), "{}: replay digest", policy.name());
        digest_at(4);
    }
    // The policies actually reached the wire: HEBS re-plans the
    // backlight, spatial scaling shrinks the stream.
    let run_with = |policy: PolicyKind| {
        let mut config = SessionConfig::new(clip.clone(), QualityLevel::Q10);
        config.policy = policy;
        run_session(config).expect("session succeeds")
    };
    let peak = run_with(PolicyKind::PeakClip);
    let spatial = run_with(PolicyKind::SpatialScale);
    assert!(
        spatial.stream_bytes * 2 < peak.stream_bytes,
        "library geometry must take the downscale path"
    );
    let hebs = run_with(PolicyKind::Hebs);
    assert!(
        hebs.playback.mean_backlight <= peak.playback.mean_backlight + 1e-12,
        "HEBS must not brighten the mean backlight"
    );
}

/// A governed session config over the test clip with a mid-ladder
/// budget — tight enough that the governor actually moves the knob.
fn governed_config(clip: &Clip, seed: u64, lossy: bool) -> GovernorSessionConfig {
    let mut session = SessionConfig::new(clip.clone(), QualityLevel::Q10);
    if lossy {
        session.faults = FaultConfig::lossy(seed, 0.1);
    }
    let probe = GovernorSessionConfig::new(session.clone(), 0.0);
    let ladder = governed_projections(&probe).expect("projection ladder");
    let floor = *ladder.last().expect("non-empty ladder");
    GovernorSessionConfig::new(session, floor + 0.6 * (ladder[0] - floor))
        .with_ambient_seed(seed)
}

#[test]
fn governed_reactor_sessions_match_blocking_runs_across_worker_counts() {
    let clip = test_clip();
    for seed in SEEDS {
        // Lossless hop.
        let cfg = governed_config(&clip, seed, false);
        let blocking = run_session_governed(cfg.clone()).expect("blocking governed session");
        let want = annolight_support::json::to_string_pretty(&blocking);
        for workers in [1usize, 4] {
            let (results, _) = run_sessions_on_reactor(
                vec![SessionSpec::Govern(cfg.clone())],
                reactor_config(seed, workers),
            );
            let hosted = govern_report(results.into_iter().next().unwrap());
            // Identical GovernorEvent logs, trace digest and final
            // battery/thermal state — the whole report, byte for byte.
            assert_eq!(
                annolight_support::json::to_string_pretty(&hosted),
                want,
                "seed {seed} workers {workers}: governed reactor parity"
            );
        }
        // Faulty hop: the hint stream crosses the seeded lossy channel.
        let cfg = governed_config(&clip, seed, true);
        let blocking = run_session_governed(cfg.clone()).expect("blocking governed faulty session");
        let want = annolight_support::json::to_string_pretty(&blocking);
        for workers in [1usize, 4] {
            let (results, _) = run_sessions_on_reactor(
                vec![SessionSpec::Govern(cfg.clone())],
                reactor_config(seed, workers),
            );
            let hosted = govern_report(results.into_iter().next().unwrap());
            assert_eq!(
                annolight_support::json::to_string_pretty(&hosted),
                want,
                "seed {seed} workers {workers}: faulty governed reactor parity"
            );
            assert_eq!(hosted.final_battery_j, blocking.final_battery_j);
            assert_eq!(hosted.trace_hex, blocking.trace_hex);
        }
    }
}

/// Play and governed specs over lossless, lossy and bursty hops, at two
/// channel seeds — enough specs that a four-worker reactor steps the
/// first round in parallel.
fn mixed_fleet(clip: &Clip) -> Vec<SessionSpec> {
    let governed = governed_config(clip, 0, false);
    let mut specs = Vec::new();
    for seed in [1u64, 42] {
        for faults in
            [FaultConfig::lossless(seed), FaultConfig::lossy(seed, 0.1), FaultConfig::bursty(seed)]
        {
            let mut play = SessionConfig::new(clip.clone(), QualityLevel::Q10);
            play.faults = faults;
            specs.push(SessionSpec::Play(play));
            let mut govern = governed.clone().with_ambient_seed(seed);
            govern.session.faults = faults;
            specs.push(SessionSpec::Govern(govern));
        }
    }
    specs
}

#[test]
fn mixed_fleet_sessions_match_their_blocking_runs_across_worker_counts() {
    let clip = test_clip();
    let specs = mixed_fleet(&clip);
    let want: Vec<String> = specs
        .iter()
        .map(|spec| match spec.clone() {
            SessionSpec::Play(config) => annolight_support::json::to_string_pretty(
                &run_session_faulty(config).expect("blocking play session"),
            ),
            SessionSpec::Govern(cfg) => annolight_support::json::to_string_pretty(
                &run_session_governed(cfg).expect("blocking governed session"),
            ),
        })
        .collect();
    let mut digests = Vec::new();
    for workers in [1usize, 4] {
        let (results, reactor) = run_sessions_on_reactor(specs.clone(), reactor_config(7, workers));
        assert_eq!(reactor.tasks, specs.len());
        let got: Vec<String> = results
            .into_iter()
            .map(|r| annolight_support::json::to_string_pretty(&r.expect("hosted session")))
            .collect();
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                got, want,
                "workers {workers} spec {i}: hosted report must match its blocking run"
            );
        }
        digests.push(reactor.digest.value());
    }
    assert_eq!(digests[0], digests[1], "schedule digest must be invariant under workers=4");
}

fn scale_fleet(n: usize, seed: u64, workers: usize) -> (Vec<ScaleOutcome>, u64) {
    let clip = test_clip();
    let spec = Arc::new(
        ScaleSpec::negotiate(SessionConfig::new(clip, QualityLevel::Q10))
            .expect("fleet spec negotiates"),
    );
    let (tx, rx) = channel::unbounded();
    let mut reactor = Reactor::with_config(reactor_config(seed, workers));
    for i in 0..n {
        let faults = if i % 2 == 0 {
            FaultConfig::lossy(seed ^ i as u64, 0.15)
        } else {
            FaultConfig::bursty(seed ^ i as u64)
        };
        reactor.spawn(Box::new(ScaleSession::new(Arc::clone(&spec), faults, i, tx.clone())));
    }
    drop(tx);
    let report = reactor.run();
    let mut outcomes: Vec<Option<ScaleOutcome>> = vec![None; n];
    for (i, o) in rx.iter() {
        outcomes[i] = Some(o);
    }
    (outcomes.into_iter().map(|o| o.expect("every session reports")).collect(),
     report.digest.value())
}

#[test]
fn scale_fleet_replays_identically_across_runs_and_workers() {
    let (a, da) = scale_fleet(48, 7, 1);
    let (b, db) = scale_fleet(48, 7, 1);
    assert_eq!(a, b, "same-seed scale fleets must produce identical outcomes");
    assert_eq!(da, db);
    let (c, dc) = scale_fleet(48, 7, 4);
    assert_eq!(a, c, "outcomes must be invariant under workers=4");
    assert_eq!(da, dc, "digest must be invariant under workers=4");
    assert!(a.iter().any(|o| o.dropped > 0), "a lossy fleet must drop packets");
    assert!(a.iter().all(|o| o.undeliverable == 0), "reliable retries must deliver pictures");
}

/// Schedule digest of [`mixed_fleet`] at seed 7, at every worker count.
const PINNED_MIXED_SCHEDULE: &str = "e2a0a1241977fc9c";
/// Schedule digest of a 64-session [`scale_fleet`] at seed 7.
const PINNED_SCALE_SCHEDULE: &str = "6a162c59e5572e07";
/// FNV-1a fold of that fleet's 64 outcome digests, in session order.
const PINNED_SCALE_OUTCOMES: &str = "3b431a077c15df15";

/// The CI double-run compares two runs of one build; these rows compare
/// against values frozen from an earlier build, so a scheduler change
/// that moves any interleaving or arrival fails here.
#[test]
fn schedule_and_outcome_digests_match_their_pinned_values() {
    let clip = test_clip();
    for workers in [1usize, 4] {
        let (_, reactor) = run_sessions_on_reactor(mixed_fleet(&clip), reactor_config(7, workers));
        assert_eq!(
            reactor.digest.to_hex(),
            PINNED_MIXED_SCHEDULE,
            "workers {workers}: mixed-fleet schedule digest"
        );
    }
    for workers in [1usize, 4] {
        let (fleet, schedule) = scale_fleet(64, 7, workers);
        let mut outcomes = Digester::new();
        for o in &fleet {
            outcomes.write_u64(o.digest);
        }
        assert_eq!(
            format!("{schedule:016x}"),
            PINNED_SCALE_SCHEDULE,
            "workers {workers}: scale-fleet schedule digest"
        );
        assert_eq!(
            format!("{:016x}", outcomes.finish()),
            PINNED_SCALE_OUTCOMES,
            "workers {workers}: scale-fleet outcome digests"
        );
    }
}

/// The canonical deterministic artefact: per-seed schedule digests and
/// session/fleet outcomes, as JSON. `scripts/ci.sh` runs this twice and
/// `cmp`s the files.
fn reactor_log() -> String {
    let clip = test_clip();
    let mut out = String::from("[\n");
    let mut first = true;
    for seed in SEEDS {
        let (reports, reactor) = run_sessions_on_reactor(
            play_specs(faulty_configs(&clip, seed)),
            reactor_config(seed, 1),
        );
        let sessions: Vec<FaultySessionReport> = reports.into_iter().map(play_report).collect();
        let (fleet, fleet_digest) = scale_fleet(48, seed, 1);
        let scale_digests: Vec<String> =
            fleet.iter().map(|o| format!("{:016x}", o.digest)).collect();
        let entry = annolight_support::json_obj!({
            "seed": seed,
            "schedule_digest": reactor.digest.to_hex(),
            "rounds": reactor.rounds,
            "steps": reactor.steps,
            "sessions": sessions,
            "scale_schedule_digest": format!("{fleet_digest:016x}"),
            "scale_session_digests": scale_digests,
        });
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&entry.pretty());
    }
    out.push_str("\n]\n");
    out
}

#[test]
fn reactor_logs_replay_byte_identically_and_export_for_ci() {
    let a = reactor_log();
    let b = reactor_log();
    assert_eq!(a, b, "same seeds must replay byte-identical reactor logs in-process");
    if let Ok(path) = std::env::var("ANNOLIGHT_REACTOR_LOG") {
        if !path.is_empty() {
            std::fs::write(&path, &a)
                .unwrap_or_else(|e| panic!("writing reactor log to {path}: {e}"));
        }
    }
}
