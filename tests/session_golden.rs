//! Golden session digests: a byte-level lock on every session entry point.
//!
//! Each cell runs one session and records the FNV-1a/64 digest of its
//! report's pretty JSON, with the playback energy and the delivered
//! stream size alongside so a diff shows *what* moved, not only that
//! something did. The matrix covers:
//!
//! * three paper clips (dark, bright, mixed) × annotation site × policy
//!   × hop (lossless, 10 % independent loss, bursty);
//! * the DVFS, burst-prefetch and per-frame-annotation extensions;
//! * governed sessions at three joule budgets, over a lossless and a
//!   lossy hop;
//! * the shared-server entry point: a cold session, a cache hit, and an
//!   unknown clip's typed negotiation failure.
//!
//! Lossless cells are recorded twice — through [`run_session`] and
//! through [`run_session_faulty`] — so the file also pins that the plain
//! report is exactly the lossless faulty report's `session`.
//!
//! Regenerating after an *intentional* change:
//!
//! ```text
//! ANNOLIGHT_BLESS=1 cargo test --test session_golden
//! ```
//!
//! then commit the updated `tests/golden/sessions.json`.

use annolight::codec::EncoderConfig;
use annolight::core::digest::fnv1a_64;
use annolight::core::track::AnnotationMode;
use annolight::core::{PolicyKind, QualityLevel};
use annolight::display::DeviceProfile;
use annolight::stream::session::AnnotationSite;
use annolight::stream::{
    governed_projections, run_session, run_session_faulty, run_session_governed,
    run_session_with_server, ClientHello, FaultConfig, GovernorSessionConfig, MediaServer,
    SessionConfig, SharedSessionOptions,
};
use annolight::video::{Clip, ClipLibrary};
use annolight_support::json::{to_string_pretty, Json, ToJson};
use annolight_support::json_obj;
use std::path::PathBuf;

const SEED: u64 = 42;

/// Dark, bright and mixed content.
const CLIPS: [&str; 3] = ["themovie", "ice_age", "officexp"];

/// Governed budgets as a fraction of the span between the floor-knob
/// and full-quality projections: loose, median, tight.
const BUDGET_FRACS: [f64; 3] = [0.9, 0.5, 0.08];

fn clip(name: &str) -> Clip {
    ClipLibrary::paper_clip(name).expect("known paper clip").preview(3.0)
}

/// The three hops every play cell crosses.
fn hops() -> [(&'static str, FaultConfig); 3] {
    [
        ("lossless", FaultConfig::lossless(SEED)),
        ("lossy10", FaultConfig::lossy(SEED, 0.1)),
        ("bursty", FaultConfig::bursty(SEED)),
    ]
}

/// A §3 extension row: its name and how it changes the session config.
type Extension = (&'static str, fn(&mut SessionConfig));

/// One unit of work; each yields one or more golden rows.
enum Job {
    /// A session over `faults`; lossless hops also run the plain path.
    Play(String, SessionConfig),
    /// A governed session.
    Govern(String, GovernorSessionConfig),
    /// The shared-server rows (stateful: cold, then a cache hit).
    SharedServer,
}

fn row<T: ToJson>(cell: &str, report: &T, energy_j: f64, stream_bytes: usize) -> Json {
    json_obj!({
        "cell": cell.to_owned(),
        "digest": format!("{:016x}", fnv1a_64(to_string_pretty(report).as_bytes())),
        "energy_j": energy_j,
        "stream_bytes": stream_bytes,
    })
}

fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for name in CLIPS {
        for (site_name, site) in
            [("server", AnnotationSite::Server), ("proxy", AnnotationSite::Proxy)]
        {
            for policy in [PolicyKind::PeakClip, PolicyKind::Hebs, PolicyKind::SpatialScale] {
                for (hop, faults) in hops() {
                    let mut config = SessionConfig::new(clip(name), QualityLevel::Q10);
                    config.site = site;
                    config.policy = policy;
                    config.faults = faults;
                    let cell = format!("play/{name}/{site_name}/{}/{hop}", policy.name());
                    jobs.push(Job::Play(cell, config));
                }
            }
        }
    }
    let extensions: [Extension; 3] = [
        ("dvfs", |c| c.dvfs = true),
        ("burst_prefetch", |c| c.burst_prefetch = true),
        ("per_frame", |c| c.mode = AnnotationMode::PerFrame),
    ];
    for (ext, apply) in extensions {
        for (hop, faults) in hops() {
            let mut config = SessionConfig::new(clip("themovie"), QualityLevel::Q10);
            apply(&mut config);
            config.faults = faults;
            jobs.push(Job::Play(format!("ext/themovie/{ext}/{hop}"), config));
        }
    }
    let ladder = governed_projections(&GovernorSessionConfig::new(
        SessionConfig::new(clip("themovie"), QualityLevel::Q10),
        0.0,
    ))
    .expect("projection ladder");
    let floor = *ladder.last().expect("non-empty ladder");
    for frac in BUDGET_FRACS {
        for (hop, faults) in
            [("lossless", FaultConfig::lossless(SEED)), ("lossy10", FaultConfig::lossy(SEED, 0.1))]
        {
            let mut session = SessionConfig::new(clip("themovie"), QualityLevel::Q10);
            session.faults = faults;
            let cfg = GovernorSessionConfig::new(session, floor + frac * (ladder[0] - floor))
                .with_ambient_seed(7);
            jobs.push(Job::Govern(format!("govern/themovie/frac{frac}/{hop}"), cfg));
        }
    }
    jobs.push(Job::SharedServer);
    jobs
}

fn run(job: Job) -> Vec<Json> {
    match job {
        Job::Play(cell, config) => {
            let mut rows = Vec::new();
            if config.faults.is_lossless() {
                let plain = run_session(config.clone()).expect("plain session succeeds");
                rows.push(row(
                    &format!("{cell}/plain"),
                    &plain,
                    plain.playback.energy_j,
                    plain.stream_bytes,
                ));
            }
            let r = run_session_faulty(config).expect("faulty session succeeds");
            rows.push(row(
                &format!("{cell}/faulty"),
                &r,
                r.session.playback.energy_j,
                r.session.stream_bytes,
            ));
            rows
        }
        Job::Govern(cell, cfg) => {
            let r = run_session_governed(cfg).expect("governed session succeeds");
            vec![row(&cell, &r, r.playback_energy_j, r.stream_bytes)]
        }
        Job::SharedServer => {
            let mut server = MediaServer::new(EncoderConfig::default());
            server.add_clip(clip("officexp"));
            let options = SharedSessionOptions::default();
            let hello = |name: &str| {
                ClientHello::new(
                    name,
                    DeviceProfile::ipaq_5555(),
                    QualityLevel::Q10,
                    AnnotationMode::PerScene,
                )
            };
            let mut rows = Vec::new();
            for cell in ["server/officexp/cold", "server/officexp/cache_hit"] {
                let r = run_session_with_server(&server, &hello("officexp"), &options)
                    .expect("shared-server session succeeds");
                rows.push(row(cell, &r, r.playback.energy_j, r.stream_bytes));
            }
            let err = run_session_with_server(&server, &hello("not-in-catalogue"), &options)
                .expect_err("unknown clip is refused");
            rows.push(row("server/unknown_clip", &err.to_string(), 0.0, 0));
            rows
        }
    }
}

/// Runs every job on two scoped threads (interleaved), keeping rows in
/// job order.
fn golden_rows() -> Vec<Json> {
    const WORKERS: usize = 2;
    let mut lanes: Vec<Vec<(usize, Job)>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (i, job) in jobs().into_iter().enumerate() {
        lanes[i % WORKERS].push((i, job));
    }
    let mut done: Vec<(usize, Vec<Json>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                scope.spawn(move || {
                    lane.into_iter().map(|(i, job)| (i, run(job))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("golden worker panicked")).collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().flat_map(|(_, rows)| rows).collect()
}

#[test]
fn session_reports_match_golden_digests() {
    let mut doc = Json::Arr(golden_rows()).pretty();
    doc.push('\n');
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("sessions.json");
    if std::env::var_os("ANNOLIGHT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("golden dir is creatable");
        std::fs::write(&path, &doc).expect("golden file is writable");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n\
             run `ANNOLIGHT_BLESS=1 cargo test --test session_golden` and commit the result",
            path.display()
        )
    });
    assert_eq!(
        want,
        doc,
        "session reports diverged from {}.\n\
         If the change is intentional, regenerate with \
         `ANNOLIGHT_BLESS=1 cargo test --test session_golden` and commit the diff.",
        path.display()
    );
}
