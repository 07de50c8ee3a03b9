//! Golden-figure conformance tier: exact JSON snapshots of Figs. 3–10
//! and the deterministic tables (Fig. 9 also keeps the shape-level
//! assertions of `fig9_shape.rs`).
//!
//! Every figure module's `run(...)` output is serialised with the
//! in-tree JSON encoder and compared **byte-for-byte** against a
//! committed snapshot in `tests/golden/`. Floats are rendered with
//! Rust's shortest-roundtrip `{:?}` formatting, so equality is exact
//! and platform-independent; any change to a kernel, a planner or the
//! JSON encoder shows up as a readable text diff.
//!
//! Regenerating after an *intentional* change:
//!
//! ```text
//! ANNOLIGHT_BLESS=1 cargo test -p annolight-bench --test figures_golden
//! ```
//!
//! then commit the updated snapshots (documented in DESIGN.md §9).
//!
//! The service/throughput tables are excluded: they include wall-clock
//! measurements that are inherently non-reproducible.

use annolight_bench::figures::{
    fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, pipeline_throughput, tab_baselines,
    tab_policies,
};
use annolight_core::QualityLevel;
use annolight_support::json::{to_string_pretty, ToJson};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.json"))
}

/// Compares `value`'s JSON document against the committed golden file,
/// or rewrites the file when `ANNOLIGHT_BLESS=1` is set.
fn assert_golden<T: ToJson>(name: &str, value: &T) {
    let mut doc = to_string_pretty(value);
    doc.push('\n'); // POSIX text file: trailing newline
    let path = golden_path(name);
    if std::env::var_os("ANNOLIGHT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("golden dir is creatable");
        std::fs::write(&path, &doc).expect("golden file is writable");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             run `ANNOLIGHT_BLESS=1 cargo test -p annolight-bench --test figures_golden` \
             and commit the result",
            path.display()
        )
    });
    assert_eq!(
        want, doc,
        "figure `{name}` diverged from its golden snapshot ({}).\n\
         If the change is intentional, regenerate with \
         `ANNOLIGHT_BLESS=1 cargo test -p annolight-bench --test figures_golden` \
         and commit the diff.",
        path.display()
    );
}

#[test]
fn fig03_luminance_histogram_matches_golden() {
    assert_golden("fig03", &fig03::run());
}

#[test]
fn fig04_compensation_matches_golden() {
    assert_golden("fig04", &fig04::run(QualityLevel::Q10));
}

#[test]
fn fig05_clipping_matches_golden() {
    assert_golden("fig05", &fig05::run());
}

#[test]
fn fig06_scene_backlight_matches_golden() {
    // The quick-mode parameters of `all_figures --quick`, frozen.
    assert_golden("fig06", &fig06::run("themovie", 10.0));
}

#[test]
fn fig07_backlight_transfer_matches_golden() {
    assert_golden("fig07", &fig07::run());
}

#[test]
fn fig08_white_transfer_matches_golden() {
    assert_golden("fig08", &fig08::run());
}

#[test]
fn fig09_backlight_savings_matches_golden() {
    // 8-second previews of all ten clips at the five paper qualities.
    assert_golden("fig09", &fig09::run(Some(8.0)));
}

#[test]
fn fig10_total_power_matches_golden() {
    // 6-second previews — the quick-mode parameter, frozen.
    assert_golden("fig10", &fig10::run(6.0));
}

#[test]
fn pipeline_conformance_matches_golden() {
    // The wall-clock throughput table itself cannot snapshot, but its
    // deterministic projection can: every kernel tier, worker count and
    // batched-scheduler configuration collapsed to the output digests
    // they all share. Any drift in a SIMD kernel, the fixed-point LUT,
    // the planner, or the batched dispatch order shows up as a diff
    // here — on any host, since unavailable tiers clamp to available
    // ones that are byte-identical by construction. 1-second preview,
    // frozen.
    assert_golden("pipeline", &pipeline_throughput::conformance(1.0));
}

#[test]
fn tab_policies_matches_golden() {
    // Unlike the throughput tables, the policy tournament contains no
    // wall-clock measurements — planner metrics and simulated-session
    // energy only — so it snapshots byte-exactly. This is the
    // differential lock on all three policy backends at once: any drift
    // in HEBS equalisation, spatial pricing, or the peak-clip reference
    // shows up as a diff here. 3-second previews, the `--test` parameter.
    assert_golden("tab_policies", &tab_policies::run(3.0));
}

#[test]
fn tab_baselines_matches_golden() {
    // The §2 baseline comparison scores planner decisions against
    // profile histograms only, with no wall clock. 5-second previews.
    assert_golden("tab_baselines", &tab_baselines::run(5.0));
}
