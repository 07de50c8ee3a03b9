//! `annobench compare`: parent vs change. Both executables run every
//! workload of `./BENCHMARK.json` for its `run_seconds`, in alternating
//! pairs on the same seeds; each end-to-end metric × workload then reads
//! as a gain (nine tenths of the pairs won, medians further apart than
//! the parent's interquartile range), within its bound, a regression, or
//! unresolved (the parent's own spread exceeds the bound).

use crate::stats::quantile;
use annolight_support::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Parent/change pairs per workload; pair `i` runs seed `i + 1` on both
/// sides.
const PAIRS: usize = 10;
/// A gain needs the change to win at least this share of the pairs.
const GAIN_WIN_SHARE: f64 = 0.9;
/// The comparison's declaration of workloads, run length and bounds.
const SPEC_PATH: &str = "BENCHMARK.json";

/// One end-to-end metric's declaration in BENCHMARK.json.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// What BENCHMARK.json fixes for a comparison.
#[derive(Debug, Clone, PartialEq)]
struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    bounds: Vec<Bound>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("no run_seconds")?;
    let names = |key: &str| -> Result<Vec<&Json>, String> {
        Ok(doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("no {key} array"))?
            .iter()
            .collect())
    };
    let workloads = names("workloads")?
        .into_iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or("workload without a name")
        })
        .collect::<Result<_, _>>()?;
    let bounds = names("end_to_end")?
        .into_iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or("an end_to_end metric lacks name, better or bound")?;
    Ok(Spec {
        run_seconds,
        workloads,
        bounds,
    })
}

/// One run's result line.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result_line(line: &str) -> Result<Sample, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
    let failed = doc
        .get("failed")
        .and_then(Json::as_int)
        .ok_or("no failed count")?;
    let Some(Json::Obj(pairs)) = doc.get("metrics") else {
        return Err("no metrics object".into());
    };
    let metrics = pairs
        .iter()
        .map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect::<Option<_>>()
        .ok_or("a metric without a numeric value")?;
    Ok(Sample {
        correct,
        failed: u64::try_from(failed).unwrap_or(u64::MAX),
        metrics,
    })
}

fn run_side(exe: &str, workload: &str, seed: u64, seconds: f64) -> Result<Sample, String> {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{exe}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{exe} printed nothing ({})", out.status))?;
    parse_result_line(line).map_err(|e| format!("{exe}: bad result line: {e}"))
}

/// How one metric × workload compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Gain,
    WithinBound,
    Regression,
    Unresolved,
    Incorrect,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::WithinBound => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Incorrect => "INCORRECT",
        }
    }
}

/// Judges paired parent/change values (pair `i` of each used the same
/// seed) for a metric with the given direction and bound.
fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, usize) {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let (p_med, c_med) = (quantile(parent, 0.5), quantile(change, 0.5));
    let p_iqr = quantile(parent, 0.75) - quantile(parent, 0.25);
    let pairs = parent.len().min(change.len());
    if wins as f64 >= GAIN_WIN_SHARE * pairs as f64
        && better(c_med, p_med)
        && (c_med - p_med).abs() > p_iqr
    {
        return (Verdict::Gain, wins);
    }
    let worse_share = if higher_is_better {
        p_med - c_med
    } else {
        c_med - p_med
    } / p_med.abs().max(f64::MIN_POSITIVE);
    let spread_share = p_iqr / p_med.abs().max(f64::MIN_POSITIVE);
    let every_change_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if spread_share > bound && !every_change_run_better {
        Verdict::Unresolved
    } else if worse_share > bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    };
    (verdict, wins)
}

/// Runs the comparison; `Ok(false)` when any pairing regressed or any run
/// was incorrect.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [parent_exe, change_exe] = args else {
        return Err("compare takes exactly two executables: <parent> <change>".to_owned());
    };
    let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
    let spec = parse_spec(&text).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
    let seconds = spec.run_seconds;
    println!(
        "compare parent={parent_exe} change={change_exe} pairs={PAIRS} seconds={seconds} host {}",
        crate::host::describe()
    );
    let mut clean = true;
    for workload in &spec.workloads {
        let (mut parent, mut change) = (Vec::new(), Vec::new());
        for pair in 0..PAIRS {
            let seed = pair as u64 + 1;
            // Alternate which side runs first, so drift in the host's
            // state does not always favour one side.
            if pair % 2 == 0 {
                parent.push(run_side(parent_exe, workload, seed, seconds)?);
                change.push(run_side(change_exe, workload, seed, seconds)?);
            } else {
                change.push(run_side(change_exe, workload, seed, seconds)?);
                parent.push(run_side(parent_exe, workload, seed, seconds)?);
            }
        }
        let incorrect = parent
            .iter()
            .chain(&change)
            .any(|s| !s.correct || s.failed > 0);
        println!("workload {workload}");
        for bound in &spec.bounds {
            let values = |side: &[Sample]| -> Vec<f64> {
                side.iter()
                    .filter_map(|s| s.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.len() != PAIRS || c.len() != PAIRS {
                return Err(format!(
                    "{workload}: some runs did not report {}",
                    bound.name
                ));
            }
            let (verdict, wins) = if incorrect {
                (Verdict::Incorrect, 0)
            } else {
                judge(&p, &c, bound.higher_is_better, bound.bound)
            };
            clean &= !matches!(verdict, Verdict::Regression | Verdict::Incorrect);
            let q = |v: &[f64]| {
                format!(
                    "{:.4} [{:.4}, {:.4}]",
                    quantile(v, 0.5),
                    quantile(v, 0.25),
                    quantile(v, 0.75)
                )
            };
            println!(
                "  {:<16} parent {}  change {}  wins {wins}/{PAIRS}  bound {}  {}",
                bound.name,
                q(&p),
                q(&c),
                bound.bound,
                verdict.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_spread() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.5, 100.8, 99.9, 100.1, 100.3,
        ];
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(judge(&parent, &faster, false, 0.1), (Verdict::Gain, 10));
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(judge(&parent, &mixed, false, 0.1).0, Verdict::WithinBound);
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(judge(&parent, &slower, false, 0.1).0, Verdict::Regression);
        assert_eq!(judge(&parent, &slower, true, 0.1), (Verdict::Gain, 10));
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(judge(&parent, &change, false, 0.1).0, Verdict::Unresolved);
    }

    #[test]
    fn result_lines_and_the_benchmark_spec_parse() {
        let s = parse_result_line(
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#,
        )
        .unwrap();
        assert!(s.correct);
        assert_eq!(s.metrics["setup_s"], 0.5);
        let spec = parse_spec(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(spec.workloads.len(), Workload::ALL.len());
        assert!(spec.bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
