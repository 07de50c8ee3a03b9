//! The metrics BENCHMARK.json declares, and how each is computed.

use crate::loadgen::Measured;
use crate::stats::{median, quantile};
use crate::trace::breakdown;
use crate::workloads::{Tally, Unit};
use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", "lower"),
    def("frames_per_s", "frames/s", "higher"),
    def("latency_p50_ms", "ms", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Layers' crates whose self time the traced run reports as a share.
pub const LAYERS: [&str; 7] = [
    "video", "imgproc", "core", "codec", "serve", "stream", "support",
];

/// Single layers' metrics; measured by the traced run.
pub const PER_LAYER: [MetricDef; 23] = [
    def("video.self_pct", "%", "lower"),
    def("imgproc.self_pct", "%", "lower"),
    def("core.self_pct", "%", "lower"),
    def("codec.self_pct", "%", "lower"),
    def("serve.self_pct", "%", "lower"),
    def("stream.self_pct", "%", "lower"),
    def("support.self_pct", "%", "lower"),
    def("trace.unaccounted_pct", "%", "lower"),
    def("trace.gap_pct", "%", "lower"),
    def("serve.hit_rate_pct", "%", "higher"),
    def("imgproc.clipped_pct", "%", "lower"),
    def("codec.bytes_per_frame", "bytes", "lower"),
    def("display.mean_backlight", "level", "lower"),
    def("display.switches_per_session", "count", "lower"),
    def("power.saved_pct", "%", "higher"),
    def("power.backlight_mj_per_frame", "mJ", "lower"),
    def("power.system_mj_per_frame", "mJ", "lower"),
    def("stream.retransmits_per_session", "count", "lower"),
    def("stream.drop_pct", "%", "lower"),
    def("stream.degraded_frames_pct", "%", "lower"),
    def("support.steps_per_session", "count", "lower"),
    def("loadgen.wait_p50_ms", "ms", "lower"),
    def("loadgen.wait_p90_ms", "ms", "lower"),
];

/// A metric with its measured value.
pub type Value = (MetricDef, f64);

fn ok_units(units: &[Unit]) -> impl Iterator<Item = &Unit> {
    units.iter().filter(|u| u.error.is_none())
}

/// Per [`Unit::group`]: (frames of one unit, fastest latency in seconds),
/// over the units that succeeded.
fn per_group_best(units: &[Unit]) -> Vec<(u64, f64)> {
    let mut by_group: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    for u in ok_units(units) {
        let best = by_group
            .entry(u.group)
            .or_insert((u.tally.frames, f64::INFINITY));
        best.1 = best.1.min(u.latency_s);
    }
    by_group.into_values().collect()
}

/// Median over groups of each group's fastest latency, seconds.
fn median_best_s(units: &[Unit]) -> f64 {
    median(
        &per_group_best(units)
            .into_iter()
            .map(|(_, t)| t)
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics of an untraced run.
///
/// Every workload replays its inputs many times in a run, so latency is
/// taken per input (per clip in `shared_fleet`) as the fastest of its
/// runs, counted from when the unit was due: the program's cost when the
/// shared host is not slowing it. Host interference only ever adds time,
/// and on a shared 2-vCPU virtual machine it comes in bursts that move a
/// median over all units by 15 to 45 %, while the fastest of several runs
/// moves by much less. `latency_p50_ms` is the median of those per-input
/// times. A closed loop's throughput is one pass over its inputs at
/// those times; the open loop's is the frames its sessions played over
/// the run's wall time, which stays at the offered load until the
/// runners fall behind.
pub fn end_to_end(
    setup_s: &[f64],
    measured: &Measured,
    open_loop: bool,
    peak_rss_mb: f64,
) -> Vec<Value> {
    let frames_per_s = if open_loop {
        let frames: u64 = ok_units(&measured.units).map(|u| u.tally.frames).sum();
        frames as f64 / measured.wall_s.max(f64::MIN_POSITIVE)
    } else {
        let best = per_group_best(&measured.units);
        let frames: u64 = best.iter().map(|(f, _)| f).sum();
        let seconds: f64 = best.iter().map(|(_, t)| t).sum();
        frames as f64 / seconds.max(f64::MIN_POSITIVE)
    };
    let values = [
        median(setup_s),
        frames_per_s,
        median_best_s(&measured.units) * 1e3,
        peak_rss_mb,
    ];
    END_TO_END.into_iter().zip(values).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics: spans and counters from the traced loop,
/// load-generator waits and the reference service times from the
/// untraced one.
pub fn per_layer(untraced: &Measured, traced: &Measured) -> Vec<Value> {
    let b = breakdown(&traced.spans);
    let mut t = Tally::default();
    for u in ok_units(&traced.units) {
        t.add(&u.tally);
    }
    let gap = ratio(median_best_s(&traced.units), median_best_s(&untraced.units));
    let waits: Vec<f64> = untraced.units.iter().map(|u| u.wait_s * 1e3).collect();
    let (sessions, frames) = (t.sessions as f64, t.frames as f64);
    let mut values: Vec<f64> = LAYERS.iter().map(|layer| b.share_pct(layer)).collect();
    values.extend([
        b.share_pct("bench"),
        (gap - 1.0) * 100.0,
        100.0 * ratio(t.cache_hits as f64, t.cache_lookups as f64),
        100.0 * ratio(t.clipped_px as f64, t.total_px as f64),
        ratio(t.stream_bytes as f64, frames),
        ratio(t.backlight_level_frames, frames),
        ratio(t.switches as f64, sessions),
        100.0 * ratio(t.savings, sessions),
        1e3 * ratio(t.backlight_j, frames),
        1e3 * ratio(t.system_j, frames),
        ratio(t.retransmits as f64, sessions),
        100.0 * ratio(t.dropped as f64, t.packets as f64),
        100.0 * ratio(t.degraded_frames as f64, frames),
        ratio(t.steps as f64, sessions),
        quantile(&waits, 0.5),
        quantile(&waits, 0.9),
    ]);
    PER_LAYER.into_iter().zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_has_a_value() {
        assert_eq!(LAYERS.len() + 16, PER_LAYER.len());
        let measured = Measured::default();
        assert_eq!(per_layer(&measured, &measured).len(), PER_LAYER.len());
        assert_eq!(
            end_to_end(&[1.0], &measured, false, 1.0).len(),
            END_TO_END.len()
        );
        for (layer, def) in LAYERS.iter().zip(&PER_LAYER) {
            assert_eq!(def.name, format!("{layer}.self_pct"));
        }
    }
}
