//! `annobench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! annobench --workload <workload> --seed <u64> --seconds <S> --trace <0|1> [--trace-out FILE]
//! annobench compare <parent-exe> <change-exe>
//! ```
//!
//! A run prints a provenance header, every metric by name with its unit,
//! and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when any
//! output check failed and 2 on a usage or set-up error. See README.md.

mod compare;
mod host;
mod loadgen;
mod metrics;
mod proxy;
mod reactor;
mod run;
mod sessions;
mod stats;
mod trace;
mod workloads;

use crate::metrics::Value;
use crate::run::{run, RunOptions, RunResult};
use crate::workloads::Workload;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage:
  annobench --workload <workload> --seed <u64> --seconds <S> --trace <0|1> [--trace-out FILE]
  annobench compare <parent-exe> <change-exe>
workloads: paper_fig10 shared_fleet proxy_batch reactor_fleet";

/// Parses a seed in decimal or `0x` hexadecimal.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad seed {s:?}: {e}"))
}

fn parse_workload(s: &str) -> Result<Workload, String> {
    Workload::parse(s).ok_or_else(|| format!("unknown workload {s:?}"))
}

/// The command line of one run.
struct RunArgs {
    opts: RunOptions,
    trace_out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(parse_workload(value()?)?),
            "--seed" => seed = Some(parse_seed(value()?)?),
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|e| format!("bad --seconds {v:?}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {v} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(RunArgs {
        opts: RunOptions {
            workload: workload.ok_or("no --workload given")?,
            seed: seed.ok_or("no --seed given")?,
            seconds: seconds.ok_or("no --seconds given")?,
            trace: trace.ok_or("no --trace given")?,
            smoke: false,
        },
        trace_out,
    })
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Value]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(def, v)| {
            let value = if v.is_finite() {
                v.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn print_result(opts: &RunOptions, r: &RunResult) {
    println!(
        "annobench workload={} seed={:#x} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("host {}", host::describe());
    println!("params {}", r.params);
    let setup: Vec<String> = r.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup_s samples [{}]", setup.join(", "));
    println!("units attempted={} failed={}", r.attempted, r.failed);
    let (p50, p90) = r.unit_latency_ms;
    println!("unit latency over all untraced units: p50_ms={p50:.3} p90_ms={p90:.3}");
    if let Some(lag) = r.lag_p99_ms {
        println!("loadgen lag_p99_ms={lag:.3}");
    }
    match (r.golden_digest, r.golden_checked) {
        (Some(d), true) => println!("golden {d:016x} (checked against golden.json)"),
        (Some(d), false) => {
            println!("golden {d:016x} (not checked: only the canonical seed is recorded)")
        }
        (None, _) => println!("golden none (fewer units than the golden prefix)"),
    }
    for p in &r.problems {
        println!("problem {p}");
    }
    for (def, v) in &r.metrics {
        println!("metric {} {v} {}", def.name, def.unit);
    }
    println!(
        "{}",
        result_json(r.correct(), r.attempted, r.failed, &r.metrics)
    );
}

fn write_trace(path: &str, r: &RunResult) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for span in &r.spans {
        writeln!(out, "{}", span.to_json_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    out.flush().map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => parse_run(&args).and_then(|a| run_and_print(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("annobench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_and_print(a: &RunArgs) -> Result<bool, String> {
    let result = run(&a.opts)?;
    if let Some(path) = &a.trace_out {
        write_trace(path, &result)?;
    }
    print_result(&a.opts, &result);
    Ok(result.correct())
}

#[cfg(test)]
mod tests;
