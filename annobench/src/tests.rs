//! Smoke tests: every workload at tiny sizes, checked against
//! BENCHMARK.json.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{run, RunOptions, RunResult};
use crate::workloads::Workload;
use crate::{parse_seed, result_json};
use annolight_support::json::Json;

/// Which end-to-end metrics each per-layer metric should move, and on
/// which workloads, written down before any change is measured.
const LAYER_MAP: [(&str, &[&str], &[&str]); 23] = [
    (
        "video.self_pct",
        &["frames_per_s", "latency_p50_ms"],
        &["paper_fig10", "shared_fleet"],
    ),
    (
        "imgproc.self_pct",
        &["frames_per_s", "latency_p50_ms"],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    ("core.self_pct", &["frames_per_s"], &["proxy_batch"]),
    (
        "codec.self_pct",
        &["frames_per_s", "latency_p50_ms"],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    (
        "serve.self_pct",
        &["latency_p50_ms", "frames_per_s", "setup_s"],
        &["paper_fig10", "shared_fleet"],
    ),
    (
        "stream.self_pct",
        &["frames_per_s", "latency_p50_ms"],
        &[
            "paper_fig10",
            "shared_fleet",
            "proxy_batch",
            "reactor_fleet",
        ],
    ),
    (
        "support.self_pct",
        &["frames_per_s", "latency_p50_ms"],
        &["reactor_fleet"],
    ),
    (
        "trace.unaccounted_pct",
        &[],
        &[
            "paper_fig10",
            "shared_fleet",
            "proxy_batch",
            "reactor_fleet",
        ],
    ),
    (
        "trace.gap_pct",
        &[],
        &[
            "paper_fig10",
            "shared_fleet",
            "proxy_batch",
            "reactor_fleet",
        ],
    ),
    (
        "serve.hit_rate_pct",
        &["latency_p50_ms"],
        &["shared_fleet", "proxy_batch"],
    ),
    (
        "imgproc.clipped_pct",
        &[],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    (
        "codec.bytes_per_frame",
        &["latency_p50_ms"],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    (
        "display.mean_backlight",
        &[],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    (
        "display.switches_per_session",
        &[],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    (
        "power.saved_pct",
        &[],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    (
        "power.backlight_mj_per_frame",
        &[],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    (
        "power.system_mj_per_frame",
        &[],
        &["paper_fig10", "shared_fleet", "proxy_batch"],
    ),
    (
        "stream.retransmits_per_session",
        &["frames_per_s"],
        &["reactor_fleet"],
    ),
    ("stream.drop_pct", &[], &["reactor_fleet"]),
    ("stream.degraded_frames_pct", &[], &["reactor_fleet"]),
    (
        "support.steps_per_session",
        &["frames_per_s", "latency_p50_ms"],
        &["reactor_fleet"],
    ),
    ("loadgen.wait_p50_ms", &["frames_per_s"], &["shared_fleet"]),
    ("loadgen.wait_p90_ms", &["frames_per_s"], &["shared_fleet"]),
];

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("every entry is named")
                .to_owned()
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> RunResult {
    let opts = RunOptions {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        smoke: true,
    };
    run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_and_workloads_the_binary_reports() {
    let doc = benchmark_json();
    let declared = |key: &str, defs: &[MetricDef]| {
        let entries = doc
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric arrays exist");
        assert_eq!(entries.len(), defs.len(), "{key}");
        for (entry, def) in entries.iter().zip(defs) {
            let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap_or_default();
            assert_eq!(
                (field("name"), field("unit"), field("better")),
                (def.name, def.unit, def.better)
            );
            assert!(is_name(def.name), "{}", def.name);
        }
    };
    declared("end_to_end", &END_TO_END);
    declared("per_layer", &PER_LAYER);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    assert!(names(&doc, "end_to_end").contains(&"setup_s".to_owned()));
}

#[test]
fn layer_map_names_only_declared_metrics_and_workloads() {
    let doc = benchmark_json();
    let (e2e, layers, workloads) = (
        names(&doc, "end_to_end"),
        names(&doc, "per_layer"),
        names(&doc, "workloads"),
    );
    for ((layer_metric, moves, on), def) in LAYER_MAP.iter().zip(&PER_LAYER) {
        assert_eq!(
            *layer_metric, def.name,
            "LAYER_MAP follows PER_LAYER's order"
        );
        assert!(layers.iter().any(|n| n == layer_metric), "{layer_metric}");
        for m in moves.iter() {
            assert!(
                e2e.iter().any(|n| n == m),
                "{layer_metric} moves unknown {m}"
            );
        }
        for w in on.iter() {
            assert!(
                workloads.iter().any(|n| n == w),
                "{layer_metric} on unknown {w}"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_traces_the_same_bytes() {
    for workload in Workload::ALL {
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = smoke(workload, trace);
            assert!(
                r.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                r.problems
            );
            let line = result_json(r.correct(), r.attempted, r.failed, &r.metrics);
            let doc = Json::parse(&line).expect("the result line is JSON");
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics in {line}")
            };
            assert_eq!(metrics.len(), defs.len());
            for ((name, m), def) in metrics.iter().zip(defs) {
                assert_eq!(name, def.name);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{name}"
                );
            }
            if !trace {
                for (def, v) in &r.metrics {
                    assert!(
                        *v > 0.0,
                        "{}: end-to-end metric {} is {v}",
                        workload.name(),
                        def.name
                    );
                }
            } else {
                assert!(!r.spans.is_empty());
            }
        }
    }
}

#[test]
fn deterministic_metrics_repeat_across_same_seed_runs() {
    // Counters of the work done, not timings. The shared fleet's cache hit
    // rate depends on which runner reaches a key first, so it is left out.
    let deterministic = [
        "imgproc.clipped_pct",
        "codec.bytes_per_frame",
        "display.mean_backlight",
        "display.switches_per_session",
        "power.saved_pct",
        "power.backlight_mj_per_frame",
        "power.system_mj_per_frame",
        "stream.retransmits_per_session",
        "stream.drop_pct",
        "stream.degraded_frames_pct",
        "support.steps_per_session",
    ];
    for workload in Workload::ALL {
        let pick = |r: &RunResult| -> Vec<(&str, f64)> {
            r.metrics
                .iter()
                .filter(|(d, _)| deterministic.contains(&d.name))
                .map(|(d, v)| (d.name, *v))
                .collect()
        };
        let (a, b) = (smoke(workload, true), smoke(workload, true));
        assert_eq!(pick(&a).len(), deterministic.len());
        assert_eq!(pick(&a), pick(&b), "{}", workload.name());
        assert_eq!(a.golden_digest, b.golden_digest, "{}", workload.name());
    }
}

#[test]
fn seeds_parse_in_decimal_and_hex() {
    assert_eq!(parse_seed("0xDA7E06"), Ok(0xDA7E06));
    assert_eq!(parse_seed("42"), Ok(42));
    assert!(parse_seed("x").is_err());
}
