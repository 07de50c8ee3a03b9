//! Paper-figure regeneration and wall-clock timing binaries.
//!
//! Every table and figure in the paper's evaluation has a regeneration
//! entry point here, exposed both as a library function (returning the raw
//! numbers, unit-tested for the paper's qualitative claims) and as a
//! binary under `src/bin/` that prints the series:
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Fig. 3 histogram properties | [`figures::fig03`] | `fig03_histogram` |
//! | Fig. 4 compensated snapshots | [`figures::fig04`] | `fig04_compensation` |
//! | Fig. 5 clipping trade-off | [`figures::fig05`] | `fig05_clipping` |
//! | Fig. 6 scene grouping | [`figures::fig06`] | `fig06_scenes` |
//! | Fig. 7 brightness vs backlight | [`figures::fig07`] | `fig07_backlight_transfer` |
//! | Fig. 8 brightness vs white | [`figures::fig08`] | `fig08_white_transfer` |
//! | Fig. 9 backlight savings (simulated) | [`figures::fig09`] | `fig09_backlight_savings` |
//! | Fig. 10 total savings (measured) | [`figures::fig10`] | `fig10_total_power` |
//! | Annotation overhead (§4.3 claim) | [`figures::tab_overhead`] | `tab_overhead` |
//! | Baseline comparison (§2 claims) | [`figures::tab_baselines`] | `tab_baselines` |
//! | Loss-sweep robustness (Fig. 1 hop under faults) | [`figures::tab_loss`] | `tab_loss` |
//!
//! Run everything with `cargo run --release -p annolight-bench --bin
//! all_figures`.
//!
//! Wall-clock timings live in binaries of the same shape:
//! [`figures::codec_throughput`] (encode, decode and transcode, plus
//! §4.3's per-frame client cost beside a decoded frame) and
//! [`figures::pipeline_throughput`] (profile and compensate kernels),
//! whose `--test` smoke floors CI checks, and [`figures::tab_serve`]
//! (cold vs warm annotation serving), whose floor is a unit test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod table;
