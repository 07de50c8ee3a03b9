//! The session workloads: `paper_fig10` (closed loop, one cold private
//! server per session) and `shared_fleet` (open loop against one shared,
//! caching server). Both trace the same rebuilt session body.

use crate::trace::Tracer;
use crate::workloads::{
    digest_of, mix, permutation, reseeded_clip, Bench, Sizes, Tally, Unit, QUALITIES,
};
use annolight_codec::{EncodedStream, Encoder, EncoderConfig};
use annolight_core::apply::compensate_frame;
use annolight_core::track::{AnnotationMode, AnnotationTrack};
use annolight_core::{HebsRemapSet, PolicyKind, QualityLevel, SceneSpan};
use annolight_display::DeviceProfile;
use annolight_power::EnergyMeter;
use annolight_serve::{AnnotationRequest, AnnotationService, Service, ServiceConfig, ZipfSampler};
use annolight_stream::{
    run_session, run_session_with_server, ClientHello, MediaServer, PlaybackClient, SessionConfig,
    SessionReport, SharedSessionOptions,
};
use annolight_support::json;
use annolight_support::rng::SmallRng;
use annolight_video::library::PAPER_CLIP_NAMES;
use annolight_video::Clip;
use std::time::Instant;

/// RNG stream ids, one per concern.
const FIG10_STREAM: u64 = 0xF10;
const FLEET_REQUEST_STREAM: u64 = 0xF1EF;

/// `shared_fleet` requests per round: at 8 sessions/s a 20 s run asks
/// for each once. Request `i` is entry `i % FLEET_REQUESTS` of a seeded
/// permutation drawn per round, so every seed asks for the same work.
const FLEET_REQUESTS: usize = 160;
/// Seed of the request multiset. It is fixed, not the run's seed, so the
/// cache-hit share and the per-policy work are the same on every seed.
const FLEET_MIX_SEED: u64 = 0x5EED_F1EE;
/// Clip popularity: Zipf over the paper clips in library order.
const FLEET_ZIPF_EXPONENT: f64 = 1.2;
/// Weights of [`QUALITIES`] in the request mix.
const FLEET_QUALITY_WEIGHTS: [f64; 4] = [0.3, 0.4, 0.2, 0.1];
/// Share of requests that ask for HEBS; the rest ask for peak-clip.
const FLEET_HEBS_SHARE: f64 = 0.3;

/// `paper_fig10`: each session builds its own server around one paper
/// clip (`run_session`), so render, profile, plan, compensate, encode and
/// decode all run once per frame and no cache is ever hit.
pub struct PaperFig10 {
    pool: Vec<(Clip, QualityLevel)>,
}

impl PaperFig10 {
    /// The ten paper clips in seeded order. Each clip's quality is fixed
    /// by its library position, so every seed does the same work.
    pub fn new(seed: u64, sizes: &Sizes) -> Self {
        let order = permutation(
            PAPER_CLIP_NAMES.len(),
            &mut SmallRng::stream(seed, FIG10_STREAM),
        );
        let pool = order
            .into_iter()
            .map(|c| {
                let clip = reseeded_clip(PAPER_CLIP_NAMES[c], seed, sizes.fig10_preview_s);
                (clip, QUALITIES[c % QUALITIES.len()])
            })
            .collect();
        Self { pool }
    }

    fn input(&self, index: usize) -> (u64, &Clip, QualityLevel) {
        let key = index % self.pool.len();
        (key as u64, &self.pool[key].0, self.pool[key].1)
    }
}

impl Bench for PaperFig10 {
    fn params(&self) -> String {
        let (clip, _) = &self.pool[0];
        format!(
            "closed loop, 1 client; run_session on {} paper clips x {} frames, device ipaq-5555, peak-clip, Q5/Q10/Q15/Q20 by clip",
            self.pool.len(),
            clip.frame_count()
        )
    }

    fn unit(&self, index: usize) -> Unit {
        let (key, clip, quality) = self.input(index);
        let started = Instant::now();
        let result = run_session(SessionConfig::new(clip.clone(), quality));
        let service_s = started.elapsed().as_secs_f64();
        session_unit(
            index,
            key,
            service_s,
            clip,
            quality,
            result.map_err(|e| e.to_string()),
            Tally::default(),
        )
    }

    fn unit_traced(&self, index: usize, tracer: &mut Tracer) -> Unit {
        let (key, clip, quality) = self.input(index);
        let config = SessionConfig::new(clip.clone(), quality);
        let options = SharedSessionOptions {
            channel: config.channel,
            system: config.system,
            dvfs: config.dvfs,
            burst_prefetch: config.burst_prefetch,
        };
        let hello = ClientHello::new(clip.name(), config.device.clone(), quality, config.mode)
            .with_policy(config.policy);
        let mut tally = Tally::default();
        let started = Instant::now();
        let result = tracer.unit(index as u64, |t| {
            let mut server = MediaServer::new(config.encoder);
            t.span("serve.add_clip", |_| server.add_clip(clip.clone()));
            traced_session(t, &server, clip, &hello, &options, &mut tally)
        });
        let service_s = started.elapsed().as_secs_f64();
        session_unit(index, key, service_s, clip, quality, result, tally)
    }
}

/// One `shared_fleet` request: indices into the paper clips, the paper
/// devices and [`QUALITIES`], and the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    clip: usize,
    device: usize,
    quality: usize,
    hebs: bool,
}

impl Request {
    /// Identity of the request's inputs (equal keys, equal outputs).
    fn key(self) -> u64 {
        self.clip as u64
            | (self.device as u64) << 16
            | (self.quality as u64) << 32
            | u64::from(self.hebs) << 48
    }
}

/// The index `weights` picks for a uniform draw `u` in `[0, 1)`.
fn weighted(weights: &[f64], u: f64) -> usize {
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w / total;
        if u < acc {
            return i;
        }
    }
    weights.len() - 1
}

/// The `shared_fleet` request multiset: clip by Zipf, device uniform,
/// quality and policy by their weights, drawn from [`FLEET_MIX_SEED`].
fn fleet_requests(devices: usize) -> Vec<Request> {
    let zipf = ZipfSampler::new(PAPER_CLIP_NAMES.len(), FLEET_ZIPF_EXPONENT);
    let mut rng = SmallRng::seed_from_u64(FLEET_MIX_SEED);
    (0..FLEET_REQUESTS)
        .map(|_| Request {
            clip: zipf.sample(&mut rng),
            device: rng.below(devices as u64) as usize,
            quality: weighted(&FLEET_QUALITY_WEIGHTS, rng.gen_f64()),
            hebs: rng.gen_bool(FLEET_HEBS_SHARE),
        })
        .collect()
}

/// `shared_fleet`: every session negotiates by name with one
/// `MediaServer` backed by one shared `AnnotationService`, so a repeated
/// (clip, device, quality, policy) key hits the annotation cache while
/// every session still renders, compensates, encodes, delivers and
/// decodes.
pub struct SharedFleet {
    seed: u64,
    requests: Vec<Request>,
    clips: Vec<Clip>,
    devices: Vec<DeviceProfile>,
    server: MediaServer,
    options: SharedSessionOptions,
}

impl SharedFleet {
    /// Registers (and profiles) the ten paper clips with a fresh server.
    pub fn new(seed: u64, sizes: &Sizes) -> Self {
        let clips: Vec<Clip> = PAPER_CLIP_NAMES
            .iter()
            .map(|name| reseeded_clip(name, seed, sizes.fleet_preview_s))
            .collect();
        let mut server = MediaServer::with_service(
            EncoderConfig::default(),
            AnnotationService::new(ServiceConfig::default()),
        );
        for clip in &clips {
            server.add_clip(clip.clone());
        }
        let devices = DeviceProfile::paper_devices();
        Self {
            seed,
            requests: fleet_requests(devices.len()),
            clips,
            devices,
            server,
            options: SharedSessionOptions::default(),
        }
    }

    /// The request `index` asks for (see [`FLEET_REQUESTS`]).
    fn request(&self, index: usize) -> Request {
        let round = (index / FLEET_REQUESTS) as u64;
        let order = permutation(
            FLEET_REQUESTS,
            &mut SmallRng::stream(mix(self.seed, FLEET_REQUEST_STREAM), round),
        );
        self.requests[order[index % FLEET_REQUESTS]]
    }

    fn hello(&self, req: Request) -> ClientHello {
        let policy = if req.hebs {
            PolicyKind::Hebs
        } else {
            PolicyKind::PeakClip
        };
        ClientHello::new(
            self.clips[req.clip].name(),
            self.devices[req.device].clone(),
            QUALITIES[req.quality],
            AnnotationMode::PerScene,
        )
        .with_policy(policy)
    }
}

impl Bench for SharedFleet {
    fn params(&self) -> String {
        let mut keys: Vec<u64> = self.requests.iter().map(|r| r.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        let hebs = self.requests.iter().filter(|r| r.hebs).count();
        format!(
            "open loop, 1 scheduler + 2 runner threads; run_session_with_server on a {}-clip catalogue x {} frames; {FLEET_REQUESTS} requests per round (clip Zipf({FLEET_ZIPF_EXPONENT}), device uniform, quality {FLEET_QUALITY_WEIGHTS:?}, {hebs} HEBS), {} distinct keys",
            self.clips.len(),
            self.clips[0].frame_count(),
            keys.len()
        )
    }

    fn unit(&self, index: usize) -> Unit {
        let req = self.request(index);
        let hello = self.hello(req);
        let started = Instant::now();
        let result = run_session_with_server(&self.server, &hello, &self.options);
        let service_s = started.elapsed().as_secs_f64();
        let clip = &self.clips[req.clip];
        let result = result.map_err(|e| e.to_string());
        let unit = session_unit(
            index,
            req.key(),
            service_s,
            clip,
            hello.quality,
            result,
            Tally::default(),
        );
        Unit {
            group: req.clip as u64,
            ..unit
        }
    }

    fn unit_traced(&self, index: usize, tracer: &mut Tracer) -> Unit {
        let req = self.request(index);
        let hello = self.hello(req);
        let clip = &self.clips[req.clip];
        let mut tally = Tally::default();
        let started = Instant::now();
        let result = tracer.unit(index as u64, |t| {
            traced_session(t, &self.server, clip, &hello, &self.options, &mut tally)
        });
        let service_s = started.elapsed().as_secs_f64();
        let unit = session_unit(
            index,
            req.key(),
            service_s,
            clip,
            hello.quality,
            result,
            tally,
        );
        Unit {
            group: req.clip as u64,
            ..unit
        }
    }
}

/// Checks a session's report and turns it into a unit.
fn session_unit(
    index: usize,
    key: u64,
    service_s: f64,
    clip: &Clip,
    quality: QualityLevel,
    result: Result<SessionReport, String>,
    mut tally: Tally,
) -> Unit {
    let report = match result {
        Ok(report) => report,
        Err(e) => return Unit::failed(index, key, service_s, e),
    };
    let savings = report.playback.total_savings();
    let problem = if report.playback.frames != clip.frame_count() {
        Some(format!(
            "played {} of {} frames",
            report.playback.frames,
            clip.frame_count()
        ))
    } else if !report.playback.annotated {
        Some("stream arrived without its annotation track".to_owned())
    } else if report.granted_quality != quality {
        Some(format!(
            "asked for {quality:?}, granted {:?}",
            report.granted_quality
        ))
    } else if !(savings.is_finite() && savings > -1.0 && savings < 1.0) {
        Some(format!("energy saving {savings} out of range"))
    } else {
        None
    };
    if let Some(problem) = problem {
        return Unit::failed(index, key, service_s, format!("{}: {problem}", clip.name()));
    }
    tally.stream_bytes += report.stream_bytes as u64;
    tally.add_playback(&report.playback, &report.energy_breakdown);
    Unit {
        index,
        key,
        group: key,
        digest: digest_of(&[json::to_string(&report).as_bytes()]),
        service_s,
        tally,
        ..Unit::default()
    }
}

/// Scene spans from a track's entry boundaries (the server derives its
/// HEBS remaps over these).
fn entry_spans(track: &AnnotationTrack) -> Vec<SceneSpan> {
    let entries = track.entries();
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| SceneSpan {
            start: e.start_frame,
            end: entries
                .get(i + 1)
                .map_or(track.frame_count(), |n| n.start_frame),
        })
        .collect()
}

/// `run_session_with_server`'s body rebuilt from public calls: hello
/// round trip and negotiation, `MediaServer::serve` (annotate, then
/// render, compensate and encode per frame), MTU delivery and playback.
fn traced_session(
    t: &mut Tracer,
    server: &MediaServer,
    clip: &Clip,
    hello: &ClientHello,
    options: &SharedSessionOptions,
    tally: &mut Tally,
) -> Result<SessionReport, String> {
    let (hello, offer) = t.span("stream.negotiate", |_| {
        let hello = ClientHello::from_wire(&hello.to_wire())?;
        let offer = server.negotiate(&hello).map_err(|e| e.to_string())?;
        Ok::<_, String>((hello, offer))
    })?;
    let granted = offer.granted_quality;
    let response = t
        .span("serve.annotate", |_| {
            server.service().call(AnnotationRequest {
                tenant: hello.device.name().to_owned(),
                clip: hello.clip_name.clone(),
                device: hello.device.clone(),
                quality: granted,
                mode: hello.mode,
                policy: hello.policy,
            })
        })
        .map_err(|e| e.to_string())?;
    tally.cache_lookups += 1;
    tally.cache_hits += u64::from(response.cache_hit);
    let track = response.track;
    let track_bytes = t.span("core.track_encode", |_| track.to_rle_bytes());

    let (width, height) = clip.dimensions();
    let mut encoder = Encoder::new(EncoderConfig {
        width,
        height,
        fps: clip.fps(),
        ..EncoderConfig::default()
    })
    .map_err(|e| e.to_string())?;
    encoder.push_user_data(&track_bytes);
    let remaps = if hello.policy == PolicyKind::Hebs {
        let profile = t
            .span("serve.profile_for", |_| {
                server.service().profile_for(&hello.clip_name)
            })
            .map_err(|e| e.to_string())?;
        Some(t.span("core.hebs_remaps", |_| {
            HebsRemapSet::for_spans(&profile, entry_spans(&track), granted)
        }))
    } else {
        None
    };
    for i in 0..clip.frame_count() {
        let mut frame = t.span("video.render", |_| clip.frame(i));
        let stats = t
            .span("imgproc.compensate", |_| match &remaps {
                Some(set) => Ok(set.apply_frame(&mut frame, i)),
                None => compensate_frame(&mut frame, &track, i),
            })
            .map_err(|e| e.to_string())?;
        tally.clipped_px += stats.clipped_pixels;
        tally.total_px += stats.total_pixels;
        t.span("codec.encode", |_| encoder.push_frame(&frame))
            .map_err(|e| e.to_string())?;
    }
    let stream = t.span("codec.encode", |_| encoder.finish());

    let (delivered, packets) = t
        .span("stream.deliver", |_| {
            let mut received = Vec::with_capacity(stream.len());
            let mut packets = 0usize;
            for chunk in stream.as_bytes().chunks(options.channel.mtu) {
                let packet = chunk.to_vec();
                received.extend_from_slice(&packet);
                packets += 1;
            }
            EncodedStream::from_bytes(received).map(|s| (s, packets))
        })
        .map_err(|e| e.to_string())?;

    let meter = EnergyMeter::new();
    let client = PlaybackClient::new(hello.device.clone(), options.system);
    let playback = t
        .span("stream.play", |_| client.play(&delivered, Some(&meter)))
        .map_err(|e| e.to_string())?;
    let total = delivered.len();
    let transfer_time_s = options.channel.transfer_time_s(total);
    Ok(SessionReport {
        granted_quality: granted,
        stream_bytes: total,
        annotation_bytes: track_bytes.len(),
        packets,
        transfer_time_s,
        real_time: transfer_time_s <= playback.duration_s,
        playback,
        energy_breakdown: meter.breakdown(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_requests_follow_the_serving_mix() {
        let requests = fleet_requests(3);
        assert_eq!(requests, fleet_requests(3));
        let share = |f: &dyn Fn(&Request) -> bool| {
            requests.iter().filter(|r| f(r)).count() as f64 / requests.len() as f64
        };
        assert!((0.2..0.4).contains(&share(&|r| r.hebs)));
        assert!((0.3..0.5).contains(&share(&|r| r.quality == 1)));
        // Zipf(1.2) over ten clips gives the first about 41 % of requests.
        assert!((0.3..0.5).contains(&share(&|r| r.clip == 0)));
        assert!(requests.iter().all(|r| r.device < 3));
        // About half the requests repeat an earlier key: cache hits.
        let mut keys: Vec<u64> = requests.iter().map(|r| r.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        let hits = 1.0 - keys.len() as f64 / requests.len() as f64;
        assert!((0.35..0.65).contains(&hits), "{hits}");
    }

    #[test]
    fn weighted_picks_by_cumulative_share() {
        let w = [0.3, 0.4, 0.2, 0.1];
        let picks: Vec<usize> = [0.0, 0.29, 0.31, 0.69, 0.71, 0.89, 0.91, 0.999]
            .iter()
            .map(|&u| weighted(&w, u))
            .collect();
        assert_eq!(picks, [0, 0, 1, 1, 2, 2, 3, 3]);
    }
}
