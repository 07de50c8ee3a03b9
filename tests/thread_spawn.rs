//! Concurrency guard: library code starts OS threads in one place,
//! `support::par::fan_out`, so every parallel stage shares its ordering
//! and panic guarantees and no component keeps threads of its own.
//!
//! This test walks every `.rs` file under `crates/*/src` and reads the
//! part before the file's first `#[cfg(test)]`, which is the part
//! `scripts/loc.sh` counts as non-test code. It fails if any file other
//! than `crates/support/src/par.rs` names `thread::spawn`,
//! `thread::scope` or `thread::Builder` there.

use std::fs;
use std::path::{Path, PathBuf};

/// The calls that start a thread.
const SPAWNS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];

/// The one file allowed to make them.
const FAN_OUT: &str = "crates/support/src/par.rs";

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

    let mut offenders = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).expect("under the workspace root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let text = non_test_text(path);
        if rel == FAN_OUT {
            assert!(
                SPAWNS.iter().any(|s| text.contains(s)),
                "{FAN_OUT} no longer starts threads; move this guard to where they start"
            );
            continue;
        }
        for (n, line) in text.lines().enumerate() {
            if SPAWNS.iter().any(|s| line.contains(s)) {
                offenders.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "library code outside {FAN_OUT} starts threads; spread work with \
         support::par::fan_out instead:\n{}",
        offenders.join("\n")
    );
}
