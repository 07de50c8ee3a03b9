//! Times codec encode, decode and proxy transcode: reference float
//! kernels vs. the fixed-point AAN fast path at several worker counts,
//! then §4.3's client cost beside the inline decode. Pass `--test` for a
//! sub-second smoke run (used by CI); in smoke mode the inline fast-path
//! encode row must clear a 3x speedup floor and the inline decode row a
//! 4.25x floor over their reference-path baselines, and the annotated
//! client's per-frame work must stay under 1 % of an inline decoded frame
//! and under the per-frame histogram analysis it replaces.
use annolight_bench::figures::codec_throughput::{self, inline_row};

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let t = if smoke {
        codec_throughput::run(1.0, 2)
    } else {
        codec_throughput::run(6.0, 3)
    };
    print!("{}", codec_throughput::render(&t));
    if smoke {
        assert_eq!(
            t.rows.len(),
            3 * (1 + codec_throughput::WORKER_COUNTS.len()),
            "smoke mode expects every configured row"
        );
        let inline_encode = inline_row(&t.rows, "encode");
        assert!(
            inline_encode.speedup >= 3.0,
            "inline fast-path encode speedup {:.2}x below the 3x floor",
            inline_encode.speedup
        );
        let inline_decode = inline_row(&t.rows, "decode");
        assert!(
            inline_decode.speedup >= 4.25,
            "inline fast-path decode speedup {:.2}x below the 4.25x floor",
            inline_decode.speedup
        );
        let c = &t.client;
        let client_pct = 100.0 * c.annotated_ns_per_frame / c.decode_ns_per_frame;
        assert!(client_pct < 1.0, "client work reaches 1 % of a decoded frame: {c:?}");
        assert!(
            c.annotated_ns_per_frame < c.histogram_ns_per_frame,
            "client work reaches the per-frame histogram analysis: {c:?}"
        );
        println!(
            "\ncodec_throughput --test: ok ({} rows, encode {:.2}x, decode {:.2}x, client {client_pct:.4} %)",
            t.rows.len(),
            inline_encode.speedup,
            inline_decode.speedup
        );
    }
}
