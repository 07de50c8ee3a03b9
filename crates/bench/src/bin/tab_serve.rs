//! Regenerates the serving-at-scale table (annotation service throughput
//! vs caller threads, plus the cold-profile vs warm-hit latency gap).
fn main() {
    let t = annolight_bench::figures::tab_serve::run(&[1, 2, 4], 12, 3, 4.0);
    print!("{}", annolight_bench::figures::tab_serve::render(&t));
}
