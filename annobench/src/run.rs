//! One benchmark run: set up, measure, check the outputs, compute the
//! metrics.

use crate::loadgen::{measure, timed_setup, Budget, Measured, SETUP_REPEATS};
use crate::metrics::{end_to_end, per_layer, Value};
use crate::stats::quantile;
use crate::trace::Span;
use crate::workloads::{fold_digests, Sizes, Unit, Workload, CANONICAL_SEED, GOLDEN_UNITS};
use annolight_support::json::Json;
use std::collections::BTreeMap;

/// Units a time-boxed untraced run completes at least, so that its 90th
/// latency percentile has ten samples above it.
pub const MIN_UNITS: usize = 100;
/// Units per loop in smoke mode.
pub const SMOKE_UNITS: usize = 12;
/// Problems listed in the output; the rest are only counted.
const MAX_PROBLEMS: usize = 8;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure (split between the untraced and traced loops
    /// when tracing).
    pub seconds: f64,
    /// Report the per-layer metrics from a traced loop instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Tiny inputs and a fixed unit count, for the tests.
    pub smoke: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct RunResult {
    /// Workload parameters, for the provenance header.
    pub params: String,
    /// Units attempted.
    pub attempted: usize,
    /// Units that errored, failed a check, or whose digest disagreed.
    pub failed: usize,
    /// The first few problems found.
    pub problems: Vec<String>,
    /// Fold of the first [`GOLDEN_UNITS`] untraced digests.
    pub golden_digest: Option<u64>,
    /// Whether that digest was compared with `golden.json`.
    pub golden_checked: bool,
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Median and 90th percentile of every untraced unit's latency,
    /// milliseconds: a diagnostic, sensitive to host interference.
    pub unit_latency_ms: (f64, f64),
    /// Open loop only: 99th percentile of how late the generator
    /// released a unit, milliseconds (should stay well under 5).
    pub lag_p99_ms: Option<f64>,
    /// The end-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Value>,
    /// Spans of the traced loop.
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// What a run measures besides its untraced loop.
enum Second {
    /// The traced loop (`--trace 1`), for the per-layer metrics.
    Traced(Measured),
    /// The process's peak RSS after the untraced loop (`--trace 0`), MiB.
    PeakRss(f64),
}

/// The golden digest recorded for `workload` at [`CANONICAL_SEED`].
fn golden(workload: Workload) -> Result<u64, String> {
    let doc =
        Json::parse(include_str!("../golden.json")).map_err(|e| format!("golden.json: {e}"))?;
    let hex = doc
        .get("digests")
        .and_then(|d| d.get(workload.name()))
        .and_then(Json::as_str)
        .ok_or_else(|| format!("golden.json has no digest for {}", workload.name()))?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).map_err(|e| format!("golden.json: {e}"))
}

/// Output checks shared by every loop of a run.
#[derive(Debug, Default)]
struct Checks {
    failed: usize,
    problems: Vec<String>,
    /// First digest seen per input key.
    digests: BTreeMap<u64, u64>,
}

impl Checks {
    fn problem(&mut self, p: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(p);
        }
    }

    /// Counts failed units and units whose digest differs from an earlier
    /// unit with the same inputs.
    fn record(&mut self, what: &str, units: &[Unit]) {
        for u in units {
            if let Some(e) = &u.error {
                self.failed += 1;
                self.problem(format!("{what} unit {}: {e}", u.index));
                continue;
            }
            let first = *self.digests.entry(u.key).or_insert(u.digest);
            if first != u.digest {
                self.failed += 1;
                self.problem(format!(
                    "{what} unit {}: digest {:016x} differs from {first:016x} for the same inputs",
                    u.index, u.digest
                ));
            }
        }
    }
}

fn golden_digest(units: &[Unit]) -> Option<u64> {
    let mut first: Vec<&Unit> = units.iter().filter(|u| u.index < GOLDEN_UNITS).collect();
    first.sort_by_key(|u| u.index);
    (first.len() == GOLDEN_UNITS).then(|| fold_digests(first.iter().map(|u| u.digest)))
}

/// Runs one workload.
///
/// # Errors
///
/// Returns set-up failures and an unreadable peak RSS; output checks are
/// reported in the result instead.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let sizes = if opts.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let budget = |seconds: f64, min_units: usize| {
        if opts.smoke {
            Budget::Units(SMOKE_UNITS)
        } else {
            Budget::Seconds { seconds, min_units }
        }
    };
    let setup = |repeats| timed_setup(opts.workload, opts.seed, &sizes, repeats);
    let measure_with = |bench: &dyn crate::workloads::Bench, budget, traced| {
        measure(bench, opts.workload, opts.seed, &sizes, budget, traced)
    };
    let mut checks = Checks::default();

    let (params, setup_s, untraced, second) = if opts.trace {
        // A fresh set-up per loop, so the traced loop starts from the same
        // cold caches as the untraced one.
        let (bench, mut setup_s) = setup(1)?;
        let params = bench.params();
        let untraced = measure_with(&*bench, budget(opts.seconds / 2.0, GOLDEN_UNITS), false);
        drop(bench);
        let (bench, more) = setup(1)?;
        setup_s.extend(more);
        let traced = measure_with(&*bench, budget(opts.seconds / 2.0, GOLDEN_UNITS), true);
        (params, setup_s, untraced, Second::Traced(traced))
    } else {
        // Half the set-ups run before the measured loop and half after
        // it: on a shared host a burst of interference at one end of the
        // run then moves at most half of them.
        let (bench, mut setup_s) = setup(SETUP_REPEATS)?;
        let params = bench.params();
        let untraced = measure_with(&*bench, budget(opts.seconds, MIN_UNITS), false);
        let peak_rss_mb = crate::host::peak_rss_mb()?;
        drop(bench);
        setup_s.extend(setup(SETUP_REPEATS)?.1);
        (params, setup_s, untraced, Second::PeakRss(peak_rss_mb))
    };

    checks.record("untraced", &untraced.units);
    let mut attempted = untraced.units.len();
    if let Second::Traced(traced) = &second {
        attempted += traced.units.len();
        let replayed = traced
            .units
            .iter()
            .any(|u| checks.digests.contains_key(&u.key));
        checks.record("traced", &traced.units);
        if !replayed {
            checks
                .problem("the traced loop replayed none of the untraced loop's inputs".to_owned());
        }
    }

    let golden_digest = golden_digest(&untraced.units);
    let golden_checked = opts.seed == CANONICAL_SEED && !opts.smoke;
    if golden_checked {
        let expected = golden(opts.workload)?;
        match golden_digest {
            Some(d) if d == expected => {}
            Some(d) => {
                checks.failed += GOLDEN_UNITS;
                checks.problem(format!(
                    "golden digest {d:016x}, golden.json has {expected:016x}"
                ));
            }
            None => checks.problem(format!("fewer than {GOLDEN_UNITS} units ran")),
        }
    }

    let latencies: Vec<f64> = untraced.units.iter().map(|u| u.latency_s * 1e3).collect();
    let unit_latency_ms = (quantile(&latencies, 0.5), quantile(&latencies, 0.9));
    let lag_p99_ms = (!untraced.lag_s.is_empty()).then(|| quantile(&untraced.lag_s, 0.99) * 1e3);
    let (metrics, spans) = match second {
        Second::Traced(traced) => (per_layer(&untraced, &traced), traced.spans),
        Second::PeakRss(rss) => {
            let open_loop = opts.workload.is_open_loop();
            (end_to_end(&setup_s, &untraced, open_loop, rss), Vec::new())
        }
    };
    for (def, value) in &metrics {
        if !value.is_finite() {
            checks.problem(format!("metric {} is not a finite number", def.name));
        }
    }
    Ok(RunResult {
        params,
        attempted,
        failed: checks.failed,
        problems: checks.problems,
        golden_digest,
        golden_checked,
        setup_s,
        unit_latency_ms,
        lag_p99_ms,
        metrics,
        spans,
    })
}
