//! Concurrency guards: library code starts OS threads in one place,
//! `support::par::fan_out`, so every parallel stage shares its ordering
//! and panic guarantees and no component keeps threads of its own; and
//! the codec fans out only across closed GOPs, so each picture is coded
//! on one thread.
//!
//! Both rows walk `.rs` files under `crates/*/src` and read the part
//! before each file's first `#[cfg(test)]`, which is the part
//! `scripts/loc.sh` counts as non-test code. The first fails if any file
//! other than `crates/support/src/par.rs` names `thread::spawn`,
//! `thread::scope` or `thread::Builder` there; the second fails if any
//! `crates/codec/src` file other than `stream.rs` names `fan_out` there.

use std::fs;
use std::path::{Path, PathBuf};

/// The calls that start a thread.
const SPAWNS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];

/// The one file allowed to make them.
const FAN_OUT: &str = "crates/support/src/par.rs";

/// The one codec file allowed to fan out: the closed-GOP batch paths.
const CODEC_FAN_OUT: &str = "crates/codec/src/stream.rs";

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files(&path, found);
        } else if path.extension().is_some_and(|e| e == "rs") {
            found.push(path);
        }
    }
}

/// The text of `path` before its first `#[cfg(test)]`.
fn non_test_text(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("source file is readable");
    text.split("#[cfg(test)]").next().unwrap_or_default().to_owned()
}

/// The lines of `files` (under `root`) whose non-test text names one of
/// `needles`, as `path:line: text`. `allowed` is skipped, after checking
/// that it is among `files` and still names one, so the guard moves when
/// the code does.
fn lines_naming(root: &Path, files: &[PathBuf], allowed: &str, needles: &[&str]) -> Vec<String> {
    assert!(files.contains(&root.join(allowed)), "{allowed} is missing; move this guard");
    let mut found = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).expect("under the workspace root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let text = non_test_text(path);
        if rel == allowed {
            assert!(
                needles.iter().any(|s| text.contains(s)),
                "{allowed} no longer names any of {needles:?}; move this guard to where they are"
            );
            continue;
        }
        for (n, line) in text.lines().enumerate() {
            if needles.iter().any(|s| line.contains(s)) {
                found.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    found
}

#[test]
fn only_support_par_starts_threads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("readable crates dir") {
        let src = krate.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    assert!(files.len() > 50, "found only {} source files under crates/*/src", files.len());

    let offenders = lines_naming(root, &files, FAN_OUT, &SPAWNS);
    assert!(
        offenders.is_empty(),
        "library code outside {FAN_OUT} starts threads; spread work with \
         support::par::fan_out instead:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_codec_fans_out_only_across_closed_gops() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/codec/src"), &mut files);
    files.sort();

    let offenders = lines_naming(root, &files, CODEC_FAN_OUT, &["fan_out"]);
    assert!(
        offenders.is_empty(),
        "codec code outside {CODEC_FAN_OUT} fans out; the closed GOP is the codec's \
         one parallel unit, and a picture is coded on one thread:\n{}",
        offenders.join("\n")
    );
}
