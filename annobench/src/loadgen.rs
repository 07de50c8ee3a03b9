//! Load generation: set-up timing, the closed loop (one client, next
//! unit when the last one finishes) and the open loop (units due on a
//! seeded Poisson schedule, whether or not the runners keep up).

use crate::trace::{Span, Tracer};
use crate::workloads::{setup, Bench, Sizes, Unit, Workload};
use annolight_support::rng::SmallRng;
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Set-ups timed before an untraced run's measured loop, and again after
/// it; `setup_s` is the median of all of them.
pub const SETUP_REPEATS: usize = 5;
/// Runner threads serving the open loop (plus one generator thread).
pub const OPEN_LOOP_RUNNERS: usize = 2;
/// A time-boxed run stops at this multiple of its budget even if it has
/// not reached its minimum unit count.
const OVERRUN_FACTOR: f64 = 4.0;
/// How far ahead of the first arrival the open-loop epoch is placed, so
/// the generator starts on time.
const OPEN_LOOP_LEAD: Duration = Duration::from_millis(5);
const ARRIVAL_STREAM: u64 = 0xA881;

/// How much work one measured loop does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Run for this many seconds, and for at least `min_units` units.
    Seconds {
        /// Seconds to measure.
        seconds: f64,
        /// Units to complete even if that takes longer.
        min_units: usize,
    },
    /// Run exactly this many units (the smoke tests).
    Units(usize),
}

/// What one measured loop produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every unit, in dispatch order.
    pub units: Vec<Unit>,
    /// From the first unit's due time to the last unit's end, seconds.
    pub wall_s: f64,
    /// Open loop only: how late the generator released each unit, seconds.
    pub lag_s: Vec<f64>,
    /// Traced loops only: every span recorded.
    pub spans: Vec<Span>,
}

/// Builds the workload `repeats` times, returning the last instance and
/// every set-up time. Closed-loop set-up includes one warm-up unit.
///
/// # Errors
///
/// Returns the set-up or warm-up failure.
pub fn timed_setup(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    repeats: usize,
) -> Result<(Box<dyn Bench>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut bench = None;
    for _ in 0..repeats.max(1) {
        drop(bench.take());
        let started = Instant::now();
        let built = setup(workload, seed, sizes)?;
        if !workload.is_open_loop() {
            if let Some(e) = built.unit(0).error {
                return Err(format!("warm-up unit failed: {e}"));
            }
        }
        times.push(started.elapsed().as_secs_f64());
        bench = Some(built);
    }
    Ok((bench.expect("at least one set-up ran"), times))
}

/// Runs `bench` under `workload`'s loop until `budget` is spent.
pub fn measure(
    bench: &dyn Bench,
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    budget: Budget,
    traced: bool,
) -> Measured {
    if workload.is_open_loop() {
        open_loop(bench, seed, sizes.fleet_rate_per_s, budget, traced)
    } else {
        closed_loop(bench, budget, traced)
    }
}

fn run_unit(bench: &dyn Bench, index: usize, tracer: Option<&mut Tracer>) -> Unit {
    match tracer {
        Some(t) => bench.unit_traced(index, t),
        None => bench.unit(index),
    }
}

fn closed_loop(bench: &dyn Bench, budget: Budget, traced: bool) -> Measured {
    let epoch = Instant::now();
    let mut tracer = traced.then(|| Tracer::new(epoch));
    let mut units: Vec<Unit> = Vec::new();
    let mut due = epoch;
    loop {
        let elapsed = epoch.elapsed().as_secs_f64();
        let done = match budget {
            Budget::Seconds { seconds, min_units } => {
                (elapsed >= seconds && units.len() >= min_units)
                    || elapsed >= seconds * OVERRUN_FACTOR
            }
            Budget::Units(n) => units.len() >= n,
        };
        if done {
            break;
        }
        let start = Instant::now();
        let mut unit = run_unit(bench, units.len(), tracer.as_mut());
        unit.wait_s = start.duration_since(due).as_secs_f64();
        unit.latency_s = unit.service_s;
        // One client: the next unit is due as soon as this one returns.
        due = Instant::now();
        units.push(unit);
    }
    Measured {
        units,
        wall_s: due.duration_since(epoch).as_secs_f64(),
        lag_s: Vec::new(),
        spans: tracer.map(Tracer::into_spans).unwrap_or_default(),
    }
}

/// A Poisson process with `rate` conditioned on its count: `n` arrivals
/// uniformly spread over `n / rate` seconds, in order.
fn arrivals(seed: u64, rate: f64, budget: Budget) -> Vec<f64> {
    let n = match budget {
        Budget::Seconds { seconds, min_units } => {
            ((seconds * rate).round() as usize).max(min_units)
        }
        Budget::Units(n) => n,
    };
    let span_s = n as f64 / rate;
    let mut rng = SmallRng::stream(seed, ARRIVAL_STREAM);
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen_f64() * span_s).collect();
    at.sort_by(f64::total_cmp);
    at
}

fn open_loop(bench: &dyn Bench, seed: u64, rate: f64, budget: Budget, traced: bool) -> Measured {
    let at = arrivals(seed, rate, budget);
    let at = at.as_slice();
    let epoch = Instant::now() + OPEN_LOOP_LEAD;
    let due = |i: usize| epoch + Duration::from_secs_f64(at[i]);
    let (tx, rx) = mpsc::channel::<usize>();
    let rx = Mutex::new(rx);
    let (lag_s, runs) = thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut lag = Vec::with_capacity(at.len());
            for i in 0..at.len() {
                let when = due(i);
                let now = Instant::now();
                if when > now {
                    thread::sleep(when - now);
                }
                if tx.send(i).is_err() {
                    break;
                }
                lag.push(Instant::now().saturating_duration_since(when).as_secs_f64());
            }
            lag
        });
        let runners: Vec<_> = (0..OPEN_LOOP_RUNNERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut tracer = traced.then(|| Tracer::new(epoch));
                    let mut units = Vec::new();
                    let mut last_end = epoch;
                    loop {
                        let next = rx
                            .lock()
                            .expect("no runner panics while holding the queue")
                            .recv();
                        let Ok(i) = next else { break };
                        let start = Instant::now();
                        let mut unit = run_unit(bench, i, tracer.as_mut());
                        unit.wait_s = start.saturating_duration_since(due(i)).as_secs_f64();
                        unit.latency_s = unit.wait_s + unit.service_s;
                        last_end = Instant::now();
                        units.push(unit);
                    }
                    (
                        units,
                        tracer.map(Tracer::into_spans).unwrap_or_default(),
                        last_end,
                    )
                })
            })
            .collect();
        let lag = generator
            .join()
            .expect("the generator thread does not panic");
        let runs: Vec<_> = runners
            .into_iter()
            .map(|r| r.join().expect("runner threads do not panic"))
            .collect();
        (lag, runs)
    });
    let mut out = Measured {
        lag_s,
        ..Measured::default()
    };
    let mut last_end = epoch;
    for (units, spans, end) in runs {
        out.units.extend(units);
        out.spans.extend(spans);
        last_end = last_end.max(end);
    }
    out.units.sort_by_key(|u| u.index);
    out.wall_s = last_end.saturating_duration_since(epoch).as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_sorted_seeded_and_sized_by_rate() {
        let budget = Budget::Seconds {
            seconds: 10.0,
            min_units: 5,
        };
        let a = arrivals(3, 8.0, budget);
        assert_eq!(a.len(), 80);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        assert_eq!(a, arrivals(3, 8.0, budget));
        assert_ne!(a, arrivals(4, 8.0, budget));
        assert_eq!(
            arrivals(
                3,
                8.0,
                Budget::Seconds {
                    seconds: 1.0,
                    min_units: 20
                }
            )
            .len(),
            20
        );
    }
}
