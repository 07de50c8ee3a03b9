//! Hermeticity guard: the workspace must build from an *empty* cargo
//! registry, so every dependency in every manifest has to be a `path`
//! dependency (directly or via `workspace = true` inheritance from the
//! path-only `[workspace.dependencies]` table).
//!
//! This test walks every `Cargo.toml` in the repository and fails if a
//! registry (version-only), git, or patched dependency ever reappears.
//! It deliberately uses a small hand-rolled TOML-subset scanner — pulling
//! in a TOML crate to check that we pull in no crates would be ironic.

use std::fs;
use std::path::{Path, PathBuf};

/// Finds every Cargo.toml under the workspace root (skipping `target/`).
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable workspace dir") {
            let path = entry.expect("readable dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(path);
                }
            } else if name == "Cargo.toml" {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// One `name = spec` entry from a dependency-ish section.
#[derive(Debug)]
struct Dep {
    manifest: String,
    section: String,
    name: String,
    spec: String,
}

/// Extracts all dependency entries from one manifest. Understands the
/// two shapes cargo allows:
///
/// * inline:  `foo = { path = "..." }` / `foo = "1.0"` under a
///   `[dependencies]`-like header,
/// * expanded: `[dependencies.foo]` followed by `key = value` lines.
fn dependencies(path: &Path) -> Vec<Dep> {
    let text = fs::read_to_string(path).expect("manifest is readable");
    let manifest = path.display().to_string();
    let mut deps = Vec::new();
    let mut section = String::new();
    let mut expanded: Option<(String, String)> = None; // (section, dep name)
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            // Close any expanded-table dep.
            if let Some((sec, name)) = expanded.take() {
                deps.push(Dep { manifest: manifest.clone(), section: sec, name, spec: String::new() });
            }
            section = line.trim_matches(['[', ']']).to_string();
            let is_dep_header = |s: &str| {
                s == "dependencies"
                    || s == "dev-dependencies"
                    || s == "build-dependencies"
                    || s == "workspace.dependencies"
                    || s.starts_with("target.") && s.ends_with("dependencies")
            };
            if let Some((head, dep_name)) = section.rsplit_once('.') {
                if is_dep_header(head) {
                    expanded = Some((head.to_string(), dep_name.to_string()));
                }
            }
            continue;
        }
        if let Some((sec, name)) = &expanded {
            // Inside `[dependencies.foo]`: accumulate the keys as a spec.
            let mut d = deps
                .iter_mut()
                .rev()
                .find(|d| &d.section == sec && &d.name == name && d.manifest == manifest);
            if d.is_none() {
                deps.push(Dep {
                    manifest: manifest.clone(),
                    section: sec.clone(),
                    name: name.clone(),
                    spec: String::new(),
                });
                d = deps.last_mut();
            }
            let d = d.expect("just ensured present");
            d.spec.push_str(line);
            d.spec.push(';');
            continue;
        }
        let in_dep_section = section == "dependencies"
            || section == "dev-dependencies"
            || section == "build-dependencies"
            || section == "workspace.dependencies"
            || (section.starts_with("target.") && section.ends_with("dependencies"));
        if in_dep_section {
            if let Some((name, spec)) = line.split_once('=') {
                // Normalise the dotted-key form `foo.workspace = true`
                // into `foo = { workspace = true }`.
                let (name, spec) = match name.trim().strip_suffix(".workspace") {
                    Some(base) => (base.to_string(), format!("workspace = {}", spec.trim())),
                    None => (name.trim().to_string(), spec.trim().to_string()),
                };
                deps.push(Dep { manifest: manifest.clone(), section: section.clone(), name, spec });
            }
        }
    }
    if let Some((sec, name)) = expanded.take() {
        deps.push(Dep { manifest, section: sec, name, spec: String::new() });
    }
    deps
}

fn is_hermetic(spec: &str) -> bool {
    let s = spec.trim();
    // `workspace = true` inherits from the path-only workspace table,
    // which this same test validates.
    if s.contains("workspace") && s.contains("true") {
        return true;
    }
    // A table spec must name a local path and must not reach for a
    // registry or git remote.
    s.contains("path") && !s.contains("git") && !s.contains("version") && !s.contains("registry")
}

#[test]
fn every_dependency_is_a_path_dependency() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifests = manifests(root);
    assert!(
        manifests.len() >= 11,
        "expected the root + 10 member manifests, found {}",
        manifests.len()
    );
    let mut offences = Vec::new();
    for m in &manifests {
        for d in dependencies(m) {
            if !is_hermetic(&d.spec) {
                offences.push(format!(
                    "{} [{}] {} = {}",
                    d.manifest, d.section, d.name, d.spec
                ));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "non-path dependencies found — the hermetic (offline, empty-registry) \
         build guarantee is broken:\n  {}",
        offences.join("\n  ")
    );
}

#[test]
fn no_patch_or_replace_sections() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for m in manifests(root) {
        let text = fs::read_to_string(&m).expect("manifest is readable");
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            assert!(
                !(line.starts_with("[patch") || line.starts_with("[replace")),
                "{}: `{line}` — patched/replaced sources break hermeticity",
                m.display()
            );
        }
    }
}

#[test]
fn workspace_table_is_path_only() {
    // Belt and braces: the inherited table itself must be pure paths.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let deps = dependencies(&root);
    let ws: Vec<_> = deps.iter().filter(|d| d.section == "workspace.dependencies").collect();
    assert!(!ws.is_empty(), "workspace dependency table should exist");
    for d in ws {
        assert!(
            d.spec.contains("path"),
            "workspace dep `{}` is not a path dependency: {}",
            d.name,
            d.spec
        );
    }
}

#[test]
fn codec_manifests_never_list_core() {
    // The codec sits below the paper's crate: it fans out through
    // `annolight_support::par`, so no dependency table under
    // `crates/codec` may name `annolight-core`.
    let codec = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/codec");
    let manifests = manifests(&codec);
    assert!(!manifests.is_empty(), "no manifest under {}", codec.display());
    let offences: Vec<String> = manifests
        .iter()
        .flat_map(|m| dependencies(m))
        .filter(|d| d.name == "annolight-core")
        .map(|d| format!("{} [{}] {} = {}", d.manifest, d.section, d.name, d.spec))
        .collect();
    assert!(
        offences.is_empty(),
        "the codec must not depend on annolight-core:\n  {}",
        offences.join("\n  ")
    );
}
