//! Reactor scalability benchmark driver.
//!
//! * `reactor_scale` — full 1k / 10k / 100k sweep, table to stdout.
//! * `reactor_scale --out PATH` — full sweep, also writes the
//!   `BENCH_reactor.json` artefact.
//! * `reactor_scale --test` — CI smoke: 1k warm-up + the full 100k
//!   fleet, double-run determinism check (identical deterministic
//!   logs), completion and memory-budget assertions.

use annolight_bench::figures::reactor_scale;

/// The smoke's peak-RSS ceiling for hosting 100k+ sessions in one
/// process: about 2.7 KB per session. The 100k fleet peaks near 64 MiB
/// (a 2-core x86-64 host), so the budget leaves 4× headroom, yet a
/// per-session buffer of a few KB exceeds it.
const SMOKE_RSS_BUDGET_BYTES: u64 = 256 << 20;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    if smoke {
        let a = reactor_scale::run_small(reactor_scale::BASELINE_SEED);
        let b = reactor_scale::run_small(reactor_scale::BASELINE_SEED);
        assert_eq!(
            reactor_scale::deterministic_log(&a),
            reactor_scale::deterministic_log(&b),
            "same-seed double run must replay the identical schedule and fleet digests"
        );
        print!("{}", reactor_scale::render(&a));
        let big = a.points.last().expect("smoke runs at least one point");
        assert!(
            big.sessions >= 100_000,
            "smoke must host >=100k concurrent sessions, got {}",
            big.sessions
        );
        assert_eq!(big.undeliverable, 0, "reliable retries must deliver every picture packet");
        assert!(big.dropped > 0 && big.degraded_frames > 0, "fleet must exercise the fault paths");
        if big.peak_rss_bytes > 0 {
            assert!(
                big.peak_rss_bytes <= SMOKE_RSS_BUDGET_BYTES,
                "peak RSS {} bytes exceeds the {} byte budget",
                big.peak_rss_bytes,
                SMOKE_RSS_BUDGET_BYTES
            );
        }
        println!(
            "\nreactor_scale --test: ok ({} sessions, double-run deterministic)",
            big.sessions
        );
        return;
    }

    let bench = reactor_scale::run(reactor_scale::BASELINE_SEED);
    print!("{}", reactor_scale::render(&bench));
    if let Some(path) = out {
        std::fs::write(&path, bench.to_json_string() + "\n")
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
