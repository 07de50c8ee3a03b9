//! `proxy_batch`: a transcoding proxy with two intra-clip workers turns
//! batches of three plain (unannotated) streams into annotated ones with
//! `Proxy::transcode_batch`, and a client plays each output.

use crate::trace::Tracer;
use crate::workloads::{
    digest_of, fold_digests, permutation, reseeded_clip, Bench, Sizes, Tally, Unit, QUALITIES,
};
use annolight_codec::{
    decode_all_yuv_batched, encode_yuv_batched, CodecError, Decoder, EncodedStream, Encoder,
    EncoderConfig,
};
use annolight_core::digest::Digester;
use annolight_core::parallel::{self, ParallelConfig};
use annolight_core::track::{AnnotationMode, AnnotationTrack};
use annolight_core::QualityLevel;
use annolight_display::DeviceProfile;
use annolight_imgproc::{Frame, Yuv420Frame};
use annolight_power::{EnergyMeter, SystemPowerModel};
use annolight_stream::{PlaybackClient, PlaybackReport, Proxy, TranscodeRequest};
use annolight_support::json;
use annolight_support::rng::SmallRng;
use annolight_video::library::PAPER_CLIP_NAMES;
use std::collections::BTreeMap;
use std::time::Instant;

const PROXY_STREAM: u64 = 0xB47C;
/// Streams per `transcode_batch` call.
const BATCH_STREAMS: usize = 3;
/// The proxy's intra-clip workers.
const PROXY_WORKERS: usize = 2;

/// One stream of a batch: which plain input, for which device and quality.
#[derive(Debug, Clone, Copy)]
struct Job {
    input: usize,
    device: usize,
    quality: QualityLevel,
}

/// A played output: the stream, the client's report and its metered
/// energy breakdown.
type Played = (EncodedStream, PlaybackReport, BTreeMap<String, f64>);

/// See the module docs.
pub struct ProxyBatch {
    plain: Vec<EncodedStream>,
    devices: Vec<DeviceProfile>,
    batches: Vec<[Job; BATCH_STREAMS]>,
    proxy: Proxy,
}

impl ProxyBatch {
    /// Encodes the ten paper clips as plain streams in seeded order and
    /// builds ten batches that rotate through them. Over the ten batches
    /// each clip is transcoded three times, and its devices and qualities
    /// follow from its library position, so every seed does the same work.
    ///
    /// # Errors
    ///
    /// Returns the codec's message if a plain encode fails.
    pub fn new(seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let order = permutation(
            PAPER_CLIP_NAMES.len(),
            &mut SmallRng::stream(seed, PROXY_STREAM),
        );
        let plain = order
            .iter()
            .map(|&c| {
                plain_stream(&reseeded_clip(
                    PAPER_CLIP_NAMES[c],
                    seed,
                    sizes.proxy_preview_s,
                ))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let devices = DeviceProfile::paper_devices();
        let batches = (0..plain.len())
            .map(|b| {
                std::array::from_fn(|k| {
                    let slot = b * BATCH_STREAMS + k;
                    let input = slot % plain.len();
                    let turn = order[input] + slot / plain.len();
                    Job {
                        input,
                        device: turn % devices.len(),
                        quality: QUALITIES[turn % QUALITIES.len()],
                    }
                })
            })
            .collect();
        let proxy = Proxy::new(EncoderConfig::default())
            .with_parallelism(ParallelConfig::with_workers(PROXY_WORKERS));
        Ok(Self {
            plain,
            devices,
            batches,
            proxy,
        })
    }

    fn batch(&self, index: usize) -> (u64, &[Job; BATCH_STREAMS]) {
        let key = index % self.batches.len();
        (key as u64, &self.batches[key])
    }

    fn requests<'a>(&'a self, jobs: &[Job]) -> Vec<TranscodeRequest<'a>> {
        jobs.iter()
            .map(|j| TranscodeRequest {
                input: &self.plain[j.input],
                device: &self.devices[j.device],
                quality: j.quality,
                mode: AnnotationMode::PerScene,
            })
            .collect()
    }

    fn play(&self, job: &Job, stream: EncodedStream) -> Result<Played, String> {
        let meter = EnergyMeter::new();
        let client = PlaybackClient::new(
            self.devices[job.device].clone(),
            SystemPowerModel::ipaq_5555(),
        );
        let report = client
            .play(&stream, Some(&meter))
            .map_err(|e| e.to_string())?;
        Ok((stream, report, meter.breakdown()))
    }

    /// Checks the batch's outputs and turns them into a unit.
    fn batch_unit(
        &self,
        index: usize,
        key: u64,
        service_s: f64,
        jobs: &[Job],
        result: Result<Vec<Played>, String>,
        mut tally: Tally,
    ) -> Unit {
        let outputs = match result {
            Ok(outputs) if outputs.len() == jobs.len() => outputs,
            Ok(outputs) => {
                let e = format!("{} outputs for {} requests", outputs.len(), jobs.len());
                return Unit::failed(index, key, service_s, e);
            }
            Err(e) => return Unit::failed(index, key, service_s, e),
        };
        let mut digests = Vec::with_capacity(outputs.len());
        for (job, (stream, report, breakdown)) in jobs.iter().zip(&outputs) {
            let expected = self.plain[job.input].frame_count();
            if report.frames != expected || stream.frame_count() != expected || !report.annotated {
                let e = format!(
                    "input {}: {} of {expected} frames played, annotated {}",
                    job.input, report.frames, report.annotated
                );
                return Unit::failed(index, key, service_s, e);
            }
            tally.stream_bytes += stream.len() as u64;
            tally.add_playback(report, breakdown);
            digests.push(digest_of(&[
                stream.as_bytes(),
                json::to_string(report).as_bytes(),
            ]));
        }
        Unit {
            index,
            key,
            group: key,
            digest: fold_digests(digests),
            service_s,
            tally,
            ..Unit::default()
        }
    }
}

impl Bench for ProxyBatch {
    fn params(&self) -> String {
        format!(
            "closed loop, 1 client; Proxy::transcode_batch with {PROXY_WORKERS} workers over {BATCH_STREAMS} of {} plain streams x {} frames, then PlaybackClient::play",
            self.plain.len(),
            self.plain[0].frame_count()
        )
    }

    fn unit(&self, index: usize) -> Unit {
        let (key, jobs) = self.batch(index);
        let started = Instant::now();
        let result = self
            .proxy
            .transcode_batch(&self.requests(jobs))
            .map_err(|e| e.to_string())
            .and_then(|outs| {
                jobs.iter()
                    .zip(outs)
                    .map(|(job, out)| self.play(job, out))
                    .collect::<Result<Vec<_>, _>>()
            });
        let service_s = started.elapsed().as_secs_f64();
        self.batch_unit(index, key, service_s, jobs, result, Tally::default())
    }

    fn unit_traced(&self, index: usize, tracer: &mut Tracer) -> Unit {
        let (key, jobs) = self.batch(index);
        let mut tally = Tally::default();
        let started = Instant::now();
        let result = tracer.unit(index as u64, |t| {
            let outs = self.traced_transcode_batch(t, jobs, &mut tally)?;
            jobs.iter()
                .zip(outs)
                .map(|(job, out)| t.span("stream.play", |_| self.play(job, out)))
                .collect::<Result<Vec<_>, String>>()
        });
        let service_s = started.elapsed().as_secs_f64();
        self.batch_unit(index, key, service_s, jobs, result, tally)
    }
}

impl ProxyBatch {
    /// `Proxy::transcode_batch`'s multi-worker body rebuilt from public
    /// calls: batched decode, colour conversion, batched profiling,
    /// annotation through the proxy's service, batched compensation,
    /// colour conversion and batched encode.
    fn traced_transcode_batch(
        &self,
        t: &mut Tracer,
        jobs: &[Job],
        tally: &mut Tally,
    ) -> Result<Vec<EncodedStream>, String> {
        let requests = self.requests(jobs);
        let par = *self.proxy.parallelism();
        let codec = |e: CodecError| e.to_string();
        let yuv = t.span("codec.decode", |_| {
            let mut decoders = requests
                .iter()
                .map(|r| Decoder::new(r.input))
                .collect::<Result<Vec<_>, _>>()?;
            decode_all_yuv_batched(&mut decoders, &par)
        });
        let mut frames: Vec<Vec<Frame>> = t.span("imgproc.color", |_| {
            yuv.map_err(codec).map(|clips| {
                clips
                    .iter()
                    .map(|clip| clip.iter().map(Yuv420Frame::to_rgb).collect())
                    .collect()
            })
        })?;
        let profiles = t
            .span("core.profile", |_| {
                let jobs: Vec<(f64, &[Frame])> = requests
                    .iter()
                    .zip(&frames)
                    .map(|(r, f)| (r.input.fps(), f.as_slice()))
                    .collect();
                parallel::profile_frames_batched(&jobs, &par)
            })
            .map_err(|e| e.to_string())?;
        let tracks = t.span("serve.annotate", |_| {
            requests
                .iter()
                .zip(&profiles)
                .map(|(r, profile)| {
                    let digest = Digester::new()
                        .write(r.input.as_bytes())
                        .write_u32(0)
                        .finish();
                    self.proxy
                        .service()
                        .annotate_profile(
                            digest,
                            profile,
                            r.device,
                            r.quality,
                            r.mode,
                            self.proxy.policy(),
                        )
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        tally.cache_lookups += tracks.len() as u64;
        tally.cache_hits += tracks.iter().filter(|r| r.cache_hit).count() as u64;
        let stats = t
            .span("imgproc.compensate", |_| {
                let mut jobs: Vec<(&mut [Frame], &AnnotationTrack)> = frames
                    .iter_mut()
                    .zip(&tracks)
                    .map(|(f, r)| (f.as_mut_slice(), r.track.as_ref()))
                    .collect();
                parallel::compensate_frames_batched(&mut jobs, &par)
            })
            .map_err(|e| e.to_string())?;
        for s in stats.iter().flatten() {
            tally.clipped_px += s.clipped_pixels;
            tally.total_px += s.total_pixels;
        }
        let yuv_clips: Vec<Vec<Yuv420Frame>> = t
            .span("imgproc.color", |_| {
                frames
                    .iter()
                    .map(|clip| {
                        clip.iter()
                            .map(Frame::to_yuv420)
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        t.span("codec.encode", |_| {
            let mut encoders = requests
                .iter()
                .map(|r| {
                    Encoder::new(EncoderConfig {
                        width: r.input.width(),
                        height: r.input.height(),
                        fps: r.input.fps(),
                        ..EncoderConfig::default()
                    })
                    .map(|e| e.with_parallelism(par))
                })
                .collect::<Result<Vec<_>, _>>()?;
            for (enc, r) in encoders.iter_mut().zip(&tracks) {
                enc.push_user_data(&r.track.to_rle_bytes());
            }
            let clip_refs: Vec<&[Yuv420Frame]> = yuv_clips.iter().map(Vec::as_slice).collect();
            encode_yuv_batched(&mut encoders, &clip_refs, &par)?;
            Ok(encoders.into_iter().map(Encoder::finish).collect())
        })
        .map_err(codec)
    }
}

/// An unannotated encode of every frame of `clip`, as a legacy server or
/// camera would send it.
fn plain_stream(clip: &annolight_video::Clip) -> Result<EncodedStream, CodecError> {
    let (width, height) = clip.dimensions();
    let mut enc = Encoder::new(EncoderConfig {
        width,
        height,
        fps: clip.fps(),
        ..EncoderConfig::default()
    })?;
    for frame in clip.frames() {
        enc.push_frame(&frame)?;
    }
    Ok(enc.finish())
}
