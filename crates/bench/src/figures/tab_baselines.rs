//! Baseline comparison table — quantifying §2's qualitative claims about
//! history-based prediction, hardware per-frame scaling and smoothing.
//!
//! §2 of the paper contrasts annotation-driven scaling with prior work:
//! hardware per-frame scaling (DLS/DCE), history-based prediction ("the
//! limited knowledge can have serious consequences on quality degradation
//! if prediction proves wrong. It would also place a heavier load on the
//! mobile device"), and smoothed scaling (QABS). The table scores seven
//! policies over the same profiles, device and quality budget:
//!
//! * `full-backlight` — no optimisation (the measurement baseline);
//! * `static-dim` — a fixed dimming level, content-blind;
//! * `history-prediction` — online per-frame prediction from recent
//!   frames, with quality *violations* when the prediction is wrong;
//! * `oracle-dls` — per-frame scaling with perfect knowledge (the
//!   hardware-DLS upper bound): the annotator with one-frame scenes;
//! * `qabs-smoothed` — the oracle filtered by an exponential smoother to
//!   suppress backlight flicker, QABS-style;
//! * `dtm-percentile` — DTM-style fixed-percentile scaling (unbounded
//!   distortion, simpler control);
//! * `annotation` — the paper's technique, the annotator per scene.

use crate::table::Table;
use annolight_core::plan::plan_levels;
use annolight_core::{AnnotationMode, Annotator, LuminanceProfile, QualityLevel};
use annolight_display::{BacklightLevel, DeviceProfile};
use annolight_video::ClipLibrary;

/// Static dimming's fixed effective maximum (≈ 78 % headroom).
const STATIC_EFFECTIVE_MAX: u8 = 200;
/// How many past frames inform the history prediction.
const HISTORY_WINDOW: usize = 8;
/// Safety margin the history prediction adds, luminance counts.
const HISTORY_MARGIN: u8 = 8;
/// QABS's smoothing factor in `(0, 1]`; 1 = no smoothing.
const QABS_ALPHA: f64 = 0.25;
/// The luminance percentile DTM preserves exactly.
const DTM_PERCENTILE: f64 = 0.95;

/// The compared policies, in table order.
#[derive(Debug, Clone, Copy)]
enum Baseline {
    FullBacklight,
    StaticDim,
    HistoryPrediction,
    OracleDls,
    QabsSmoothed,
    DynamicToneMapping,
    Annotation,
}

impl Baseline {
    const ALL: [Self; 7] = [
        Self::FullBacklight,
        Self::StaticDim,
        Self::HistoryPrediction,
        Self::OracleDls,
        Self::QabsSmoothed,
        Self::DynamicToneMapping,
        Self::Annotation,
    ];

    fn name(self) -> &'static str {
        match self {
            Self::FullBacklight => "full-backlight",
            Self::StaticDim => "static-dim",
            Self::HistoryPrediction => "history-prediction",
            Self::OracleDls => "oracle-dls",
            Self::QabsSmoothed => "qabs-smoothed",
            Self::DynamicToneMapping => "dtm-percentile",
            Self::Annotation => "annotation",
        }
    }

    /// Per-frame `(backlight level, effective max luminance)` decisions.
    /// Pixels above the effective max clip, which is how quality
    /// violations are scored against the budget.
    fn decide(
        self,
        profile: &LuminanceProfile,
        device: &DeviceProfile,
        quality: QualityLevel,
    ) -> Vec<(BacklightLevel, u8)> {
        let per_frame = |effective_max: &dyn Fn(usize) -> u8| -> Vec<(BacklightLevel, u8)> {
            (0..profile.len())
                .map(|i| {
                    let eff = effective_max(i);
                    (plan_levels(device, eff).1, eff)
                })
                .collect()
        };
        match self {
            Self::FullBacklight => vec![(BacklightLevel::MAX, 255); profile.len()],
            // Content-blind: bright frames clip heavily, the static approach
            // the paper's intro dismisses ("there is a limited gain that can
            // be achieved from a static perspective").
            Self::StaticDim => per_frame(&|_| STATIC_EFFECTIVE_MAX),
            // Frame i's effective max is predicted from the clip levels of
            // the frames before it plus a safety margin; the first frame
            // plays safe at full range. Mispredictions over-clip, the
            // failure mode the paper attributes to history-based schemes.
            Self::HistoryPrediction => {
                let q = quality.clip_fraction();
                let history: Vec<u8> =
                    profile.frames().iter().map(|f| f.histogram.clip_level(q)).collect();
                per_frame(&|i| {
                    let recent = &history[i.saturating_sub(HISTORY_WINDOW)..i];
                    recent.iter().max().map_or(255, |m| m.saturating_add(HISTORY_MARGIN))
                })
            }
            Self::OracleDls => annotated(profile, device, quality, AnnotationMode::PerFrame),
            // The oracle's levels through an exponential smoother, which
            // prevents frequent backlight switching.
            Self::QabsSmoothed => {
                let raw = Self::OracleDls.decide(profile, device, quality);
                let mut smoothed = f64::from(raw.first().map_or(255, |(l, _)| l.0));
                raw.into_iter()
                    .map(|(level, _)| {
                        smoothed += QABS_ALPHA * (f64::from(level.0) - smoothed);
                        // Never smooth *below* the frame's requirement: that
                        // would under-light unclipped content.
                        let applied =
                            BacklightLevel(smoothed.max(f64::from(level.0)).round() as u8);
                        (applied, effective_for_level(device, applied))
                    })
                    .collect()
            }
            // Iranli & Pedram's dynamic tone mapping (cited in §2): every
            // frame keeps a fixed high percentile of its luminance and
            // tone-maps whatever sits above, so the distortion is
            // content-dependent rather than bounded by the budget.
            Self::DynamicToneMapping => {
                per_frame(&|i| profile.frames()[i].histogram.percentile(DTM_PERCENTILE))
            }
            Self::Annotation => annotated(profile, device, quality, AnnotationMode::PerScene),
        }
    }
}

/// The paper's annotator in `mode`, read back frame by frame.
fn annotated(
    profile: &LuminanceProfile,
    device: &DeviceProfile,
    quality: QualityLevel,
    mode: AnnotationMode,
) -> Vec<(BacklightLevel, u8)> {
    let annotated = Annotator::new(device.clone(), quality)
        .with_mode(mode)
        .annotate_profile(profile)
        .expect("non-empty profile");
    let track = annotated.track();
    (0..profile.len() as u32)
        .map(|i| {
            let e = track.entry_at(i).expect("frame in range");
            (e.backlight, e.effective_max_luma)
        })
        .collect()
}

/// The largest display luminance a backlight level can reproduce without
/// compensation clipping, expressed as an 8-bit effective max.
fn effective_for_level(device: &DeviceProfile, level: BacklightLevel) -> u8 {
    let gamma = device.panel().white_gamma();
    let l = device.transfer().luminance(level);
    ((l.powf(1.0 / gamma)) * 255.0).round().clamp(0.0, 255.0) as u8
}

/// The measured behaviour of one policy on one clip/device.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEvaluation {
    /// Policy name.
    pub policy: String,
    /// Mean backlight power saving vs. full backlight, `[0, 1)`.
    pub power_savings: f64,
    /// Mean realised clipped-pixel fraction across frames.
    pub mean_clipped: f64,
    /// Worst single-frame clipped fraction.
    pub worst_clipped: f64,
    /// Frames whose clipping exceeded the budget (quality violations).
    pub violations: u32,
    /// Total frames evaluated.
    pub frames: u32,
    /// Mean absolute backlight level change between consecutive frames
    /// (flicker proxy).
    pub mean_level_travel: f64,
}

annolight_support::impl_json!(struct PolicyEvaluation { policy, power_savings, mean_clipped, worst_clipped, violations, frames, mean_level_travel });

/// The comparison table: policy × aggregated metrics over a clip set.
#[derive(Debug, Clone, PartialEq)]
pub struct TabBaselines {
    /// Clips included in the aggregate.
    pub clips: Vec<String>,
    /// One aggregated evaluation per policy.
    pub rows: Vec<PolicyEvaluation>,
}

annolight_support::impl_json!(struct TabBaselines { clips, rows });

/// Evaluates all policies at 10 % quality on a mixed clip set (dark
/// trailer, bright cartoon, mixed content).
pub fn run(preview_s: f64) -> TabBaselines {
    let device = DeviceProfile::ipaq_5555();
    let quality = QualityLevel::Q10;
    let clip_names = ["themovie", "ice_age", "shrek2"];
    let profiles: Vec<(String, LuminanceProfile)> = clip_names
        .iter()
        .map(|n| {
            let clip = ClipLibrary::paper_clip(n).expect("library clip").preview(preview_s);
            (clip.name().to_owned(), LuminanceProfile::of_clip(&clip).expect("non-empty"))
        })
        .collect();

    let rows = Baseline::ALL
        .iter()
        .map(|&b| {
            let evals: Vec<PolicyEvaluation> =
                profiles.iter().map(|(_, prof)| evaluate(b, prof, &device, quality)).collect();
            aggregate(b.name(), &evals)
        })
        .collect();

    TabBaselines { clips: profiles.into_iter().map(|(n, _)| n).collect(), rows }
}

/// Evaluates `baseline` on a profiled clip for `device` at `quality`,
/// scoring clipping against its clip fraction.
///
/// A frame *violates* quality when the pixels above the policy's effective
/// max exceed the budget by more than 1 % absolute — slack for the
/// discrete histogram boundary.
fn evaluate(
    baseline: Baseline,
    profile: &LuminanceProfile,
    device: &DeviceProfile,
    quality: QualityLevel,
) -> PolicyEvaluation {
    let budget = quality.clip_fraction();
    let decisions = baseline.decide(profile, device, quality);
    let mut savings = 0.0;
    let mut clipped_sum = 0.0;
    let mut worst: f64 = 0.0;
    let mut violations = 0u32;
    let mut travel = 0.0;
    for (i, (stats, &(level, effective))) in profile.frames().iter().zip(&decisions).enumerate() {
        savings += device.backlight_power().savings_vs_full(level);
        let clipped = stats.histogram.fraction_above(effective);
        clipped_sum += clipped;
        worst = worst.max(clipped);
        if clipped > budget + 0.01 {
            violations += 1;
        }
        if i > 0 {
            travel += f64::from((i32::from(level.0) - i32::from(decisions[i - 1].0 .0)).unsigned_abs());
        }
    }
    let n = profile.len() as f64;
    PolicyEvaluation {
        policy: baseline.name().to_owned(),
        power_savings: savings / n,
        mean_clipped: clipped_sum / n,
        worst_clipped: worst,
        violations,
        frames: profile.len() as u32,
        mean_level_travel: if profile.len() > 1 { travel / (n - 1.0) } else { 0.0 },
    }
}

fn aggregate(name: &str, evals: &[PolicyEvaluation]) -> PolicyEvaluation {
    let frames: u32 = evals.iter().map(|e| e.frames).sum();
    let wf = |f: &dyn Fn(&PolicyEvaluation) -> f64| {
        evals.iter().map(|e| f(e) * f64::from(e.frames)).sum::<f64>() / f64::from(frames)
    };
    PolicyEvaluation {
        policy: name.to_owned(),
        power_savings: wf(&|e| e.power_savings),
        mean_clipped: wf(&|e| e.mean_clipped),
        worst_clipped: evals.iter().map(|e| e.worst_clipped).fold(0.0, f64::max),
        violations: evals.iter().map(|e| e.violations).sum(),
        frames,
        mean_level_travel: wf(&|e| e.mean_level_travel),
    }
}

/// Renders the table as text.
pub fn render(t: &TabBaselines) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Baseline comparison at 10% quality over {:?}\n\n",
        t.clips
    ));
    let mut tbl = Table::new([
        "policy",
        "power saved",
        "mean clipped",
        "worst clipped",
        "violations",
        "level travel",
    ]);
    for r in &t.rows {
        tbl.row([
            r.policy.clone(),
            format!("{:.1}%", r.power_savings * 100.0),
            format!("{:.2}%", r.mean_clipped * 100.0),
            format!("{:.1}%", r.worst_clipped * 100.0),
            format!("{}/{}", r.violations, r.frames),
            format!("{:.1}", r.mean_level_travel),
        ]);
    }
    out.push_str(&tbl.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_imgproc::{Frame, Rgb8};

    fn quick() -> TabBaselines {
        run(5.0)
    }

    fn device() -> DeviceProfile {
        DeviceProfile::ipaq_5555()
    }

    /// One 8×8 frame per entry: mid-gray at half the value, with a single
    /// pixel at the full value.
    fn frames_profile(maxes: &[u8]) -> LuminanceProfile {
        let frames: Vec<Frame> = maxes
            .iter()
            .map(|&m| {
                let mut f = Frame::filled(8, 8, Rgb8::gray(m / 2));
                f.set_pixel(0, 0, Rgb8::gray(m));
                f
            })
            .collect();
        LuminanceProfile::of_frames(10.0, frames).unwrap()
    }

    fn themovie() -> LuminanceProfile {
        let clip = ClipLibrary::paper_clip("themovie").unwrap().preview(6.0);
        LuminanceProfile::of_clip(&clip).unwrap()
    }

    /// A deterministic profile with a hard dark→bright cut at frame 20.
    fn cut_profile() -> LuminanceProfile {
        let mut frames: Vec<Frame> = (0..20).map(|_| Frame::filled(8, 8, Rgb8::gray(50))).collect();
        frames.extend((0..10).map(|_| Frame::filled(8, 8, Rgb8::gray(230))));
        LuminanceProfile::of_frames(10.0, frames).unwrap()
    }

    fn decide(b: Baseline, p: &LuminanceProfile) -> Vec<(BacklightLevel, u8)> {
        b.decide(p, &device(), QualityLevel::Q10)
    }

    fn eval(b: Baseline, p: &LuminanceProfile) -> PolicyEvaluation {
        evaluate(b, p, &device(), QualityLevel::Q10)
    }

    #[test]
    fn all_policies_evaluated() {
        let t = quick();
        assert_eq!(t.rows.len(), 7);
        assert_eq!(t.clips.len(), 3);
    }

    #[test]
    fn annotation_close_to_oracle_without_online_cost() {
        let t = quick();
        let get = |n: &str| t.rows.iter().find(|r| r.policy == n).unwrap();
        let oracle = get("oracle-dls");
        let anno = get("annotation");
        // Per-scene budget amortisation can let the annotation clip a
        // hair more per frame than the per-frame oracle; allow the sliver.
        assert!(oracle.power_savings + 5e-3 >= anno.power_savings);
        assert!(
            anno.power_savings > 0.6 * oracle.power_savings,
            "annotation {} vs oracle {}",
            anno.power_savings,
            oracle.power_savings
        );
        // And it switches far less (per-scene vs per-frame).
        assert!(anno.mean_level_travel <= oracle.mean_level_travel);
    }

    #[test]
    fn online_and_static_policies_pay_their_costs() {
        // (Deterministic per-cut violation behaviour is covered by
        // `history_violates_on_scene_cuts`; here we check the aggregate
        // ordering.)
        let t = quick();
        let get = |n: &str| t.rows.iter().find(|r| r.policy == n).unwrap();
        assert_eq!(get("full-backlight").violations, 0);
        assert_eq!(get("oracle-dls").violations, 0);
        // The content-blind static policy violates the most by far.
        assert!(get("static-dim").violations > get("annotation").violations);
        // History prediction trails the oracle in savings: it must hedge.
        assert!(get("history-prediction").power_savings < get("oracle-dls").power_savings);
    }

    #[test]
    fn full_backlight_saves_nothing() {
        let t = quick();
        let full = t.rows.iter().find(|r| r.policy == "full-backlight").unwrap();
        assert!(full.power_savings.abs() < 1e-12);
    }

    #[test]
    fn full_backlight_never_dims() {
        let d = decide(Baseline::FullBacklight, &frames_profile(&[100, 200, 50]));
        assert!(d.iter().all(|&(l, e)| l == BacklightLevel::MAX && e == 255));
    }

    #[test]
    fn static_dim_is_constant() {
        let d = decide(Baseline::StaticDim, &frames_profile(&[100, 200, 50]));
        assert!(d.windows(2).all(|w| w[0] == w[1]));
        assert!(d[0].0 < BacklightLevel::MAX);
    }

    #[test]
    fn oracle_tracks_frame_content() {
        let p = frames_profile(&[60, 240, 60]);
        let d = Baseline::OracleDls.decide(&p, &device(), QualityLevel::Q0);
        assert!(d[0].0 < d[1].0, "dark frame should get dimmer backlight");
        assert_eq!(d[0].0, d[2].0);
    }

    #[test]
    fn history_first_frame_is_safe() {
        let d = decide(Baseline::HistoryPrediction, &frames_profile(&[60, 60, 60]));
        assert_eq!(d[0].0, BacklightLevel::MAX);
        assert!(d[2].0 < BacklightLevel::MAX, "later frames learn the content");
    }

    #[test]
    fn history_mispredicts_on_cut() {
        // Dark stretch then a hard bright cut: the prediction at the cut
        // is based on dark history, so the effective max is far below the
        // frame's needs.
        let mut maxes = vec![60u8; 20];
        maxes.push(250);
        let d = decide(Baseline::HistoryPrediction, &frames_profile(&maxes));
        let (_, eff_at_cut) = d[20];
        assert!(eff_at_cut < 200, "prediction should miss the cut, got {eff_at_cut}");
    }

    #[test]
    fn qabs_levels_never_below_oracle() {
        let p = frames_profile(&[60, 240, 60, 240, 60]);
        let oracle = decide(Baseline::OracleDls, &p);
        let smoothed = decide(Baseline::QabsSmoothed, &p);
        for (o, s) in oracle.iter().zip(&smoothed) {
            assert!(s.0 >= o.0, "smoothed {s:?} below oracle {o:?}");
        }
    }

    #[test]
    fn qabs_reduces_level_travel() {
        let p = frames_profile(&[60, 240, 60, 240, 60, 240, 60, 240]);
        let travel = |d: &[(BacklightLevel, u8)]| {
            d.windows(2).map(|w| (i32::from(w[0].0 .0) - i32::from(w[1].0 .0)).abs()).sum::<i32>()
        };
        let oracle = decide(Baseline::OracleDls, &p);
        let smoothed = decide(Baseline::QabsSmoothed, &p);
        assert!(travel(&smoothed) < travel(&oracle));
    }

    #[test]
    fn annotation_policy_matches_profile_length() {
        let d = decide(Baseline::Annotation, &frames_profile(&[60, 60, 240, 240]));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn dtm_tracks_percentile() {
        let d = decide(Baseline::DynamicToneMapping, &frames_profile(&[60, 240, 60]));
        assert_eq!(d.len(), 3);
        assert!(d[1].0 > d[0].0, "bright frame needs more backlight");
    }

    #[test]
    fn dtm_distortion_is_unbounded_by_design() {
        // 4 % of the pixels sit above the 95th percentile, so DTM clips
        // them whatever the budget; at Q0 (no clipping allowed) every
        // frame violates, while the annotation clips nothing.
        let f = Frame::from_fn(10, 10, |x, y| if x < 4 && y == 0 { [250; 3] } else { [50; 3] });
        let p = LuminanceProfile::of_frames(10.0, vec![f]).unwrap();
        let dtm = evaluate(Baseline::DynamicToneMapping, &p, &device(), QualityLevel::Q0);
        assert!(dtm.worst_clipped > 0.03, "DTM clips its tail: {}", dtm.worst_clipped);
        assert_eq!(dtm.violations, 1);
        let anno = evaluate(Baseline::Annotation, &p, &device(), QualityLevel::Q0);
        assert_eq!(anno.worst_clipped, 0.0);
    }

    #[test]
    fn full_backlight_saves_nothing_and_never_violates() {
        let e = eval(Baseline::FullBacklight, &themovie());
        assert!(e.power_savings.abs() < 1e-12);
        assert_eq!(e.violations, 0);
        assert_eq!(e.mean_clipped, 0.0);
    }

    #[test]
    fn annotation_saves_without_violations() {
        let e = eval(Baseline::Annotation, &themovie());
        assert!(e.power_savings > 0.2, "savings {}", e.power_savings);
        // Scene-level budgets can concentrate clipping in single frames;
        // violations must still be rare.
        assert!(
            f64::from(e.violations) <= 0.1 * f64::from(e.frames),
            "{} violations of {}",
            e.violations,
            e.frames
        );
    }

    #[test]
    fn oracle_never_violates_and_saves_most() {
        let p = themovie();
        let oracle = eval(Baseline::OracleDls, &p);
        assert_eq!(oracle.violations, 0, "oracle has perfect knowledge");
        let anno = eval(Baseline::Annotation, &p);
        // The per-scene annotation amortises its clip budget across a whole
        // scene, so it may clip marginally more on individual frames than
        // the per-frame oracle and edge it out by content noise; allow that
        // sliver while still requiring the oracle to dominate.
        assert!(oracle.power_savings + 5e-3 >= anno.power_savings);
    }

    #[test]
    fn history_violates_on_scene_cuts() {
        let hist = eval(Baseline::HistoryPrediction, &cut_profile());
        assert!(hist.violations > 0, "history prediction should mispredict the cut");
        assert_eq!(eval(Baseline::OracleDls, &cut_profile()).violations, 0);
    }

    #[test]
    fn static_dim_clips_bright_content() {
        // On a bright cartoon the fixed level clips a large share of the
        // brightest frames.
        let clip = ClipLibrary::paper_clip("ice_age").unwrap().preview(4.0);
        let e = eval(Baseline::StaticDim, &LuminanceProfile::of_clip(&clip).unwrap());
        assert!(e.worst_clipped > 0.3, "worst clipped {}", e.worst_clipped);
        assert!(e.violations > 0);
    }

    #[test]
    fn smoothing_trades_savings_for_stability() {
        let p = themovie();
        let oracle = eval(Baseline::OracleDls, &p);
        let qabs = eval(Baseline::QabsSmoothed, &p);
        assert!(qabs.mean_level_travel <= oracle.mean_level_travel + 1e-9);
        assert!(qabs.power_savings <= oracle.power_savings + 1e-9);
    }

    #[test]
    fn annotation_flickers_less_than_oracle() {
        let p = themovie();
        let anno = eval(Baseline::Annotation, &p);
        let oracle = eval(Baseline::OracleDls, &p);
        assert!(
            anno.mean_level_travel <= oracle.mean_level_travel,
            "per-scene annotation should switch less than per-frame oracle"
        );
    }
}
