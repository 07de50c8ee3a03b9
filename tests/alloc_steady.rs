//! Allocation-count regression tier for the frame hot path.
//!
//! A counting global allocator wraps `System`. Three steady states must
//! perform **zero** heap allocations per frame:
//!
//! * a warm transcode + compensate loop — decode into a reused frame,
//!   RGB conversion in place, histogram accumulation into a reused
//!   [`Histogram`], LUT compensation in place, YUV conversion in place,
//!   re-encode through the encoder's recycled scratch (both from YUV and
//!   straight from RGB through [`Encoder::push_frame`]);
//! * client playback — [`PlaybackClient::play`] allocates the same
//!   amount for a short stream as for a long one;
//! * rendering — [`Clip::frame_into`] writes each synthetic frame into
//!   one reused frame, across scene boundaries.
//!
//! The wireless hop allocates nothing per packet either:
//! [`FaultyChannel::try_deliver`] holds a fate's arrivals inline with every
//! fault class on, and stepping a [`ScaleSession`] to `Done` allocates the
//! same for a short stream as for a long one (only its final report's
//! channel send).
//!
//! Clip profiling keeps per-frame statistics, so it allocates per frame,
//! but [`LuminanceProfile::of_clip`] renders into one reused frame per
//! chunk: a longer preview costs it less than one frame buffer per extra
//! frame.
//!
//! Counts are kept per thread, so concurrently running tests and the
//! harness's own threads cannot pollute each other's measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use annolight_codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight_core::track::{AnnotationEntry, AnnotationMode, AnnotationTrack};
use annolight_core::{LuminanceProfile, QualityLevel};
use annolight_display::{BacklightLevel, DeviceProfile};
use annolight_imgproc::{CompensationLut, Frame, Histogram, Yuv420Frame};
use annolight_power::SystemPowerModel;
use annolight_stream::faults::retry::RetryPolicy;
use annolight_stream::{
    FaultConfig, FaultyChannel, PlaybackClient, ScaleSession, ScaleSpec, WirelessChannel,
};
use annolight_support::channel;
use annolight_support::reactor::{Step, Task};
use std::sync::Arc;
use annolight_video::library::PAPER_CLIP_NAMES;
use annolight_video::{Clip, ClipLibrary, ContentKind};

/// Counts every allocation routed through the global allocator, per
/// thread.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation of `bytes` on the current thread. `try_with`
/// because the allocator also runs while a thread is being torn down.
fn record(bytes: usize) {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// The current thread's (allocation calls, bytes) so far.
fn counts() -> (u64, u64) {
    (ALLOC_CALLS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const W: u32 = 64;
const H: u32 = 48;
const WARMUP_FRAMES: usize = 24;
const MEASURED_FRAMES: usize = 64;

fn source_frame(i: usize) -> Frame {
    Frame::from_fn(W, H, |x, y| {
        let v = x.wrapping_mul(5).wrapping_add(y.wrapping_mul(11)).wrapping_add(i as u32 * 7);
        [(v % 240) as u8, ((v * 3) % 230) as u8, ((v * 5) % 250) as u8]
    })
}

#[test]
fn warm_transcode_and_compensate_allocates_zero_bytes_per_frame() {
    let total = WARMUP_FRAMES + MEASURED_FRAMES;

    // Pre-encode the input stream (allocations here are setup, not
    // steady state).
    let config = EncoderConfig { width: W, height: H, fps: 12.0, ..EncoderConfig::default() };
    let mut src = Encoder::new(config).expect("valid encoder geometry");
    for i in 0..total {
        src.push_frame(&source_frame(i)).expect("frames match geometry");
    }
    let input = src.finish();

    // The warm session: every stage writes into a pre-sized, reused
    // buffer. `reserve_body` pre-sizes the output container so packet
    // appends never grow it mid-loop.
    let mut dec = Decoder::new(&input).expect("input stream parses");
    let mut enc = Encoder::new(config).expect("valid encoder geometry");
    enc.reserve_body(total * (W as usize * H as usize * 3 + 64));
    let mut enc_rgb = Encoder::new(config).expect("valid encoder geometry");
    enc_rgb.reserve_body(total * (W as usize * H as usize * 3 + 64));
    let lut = CompensationLut::new(1.31);
    let mut hist = Histogram::new();
    let mut yuv = Yuv420Frame::new(W, H).expect("even dimensions");
    let mut rgb = source_frame(0);
    let mut recoded = Yuv420Frame::new(W, H).expect("even dimensions");

    let mut step = || {
        assert!(dec.decode_next_yuv_into(&mut yuv).expect("decode succeeds"), "stream has frames");
        yuv.to_rgb_into(&mut rgb).expect("geometry matches");
        rgb.luma_histogram_into(&mut hist);
        lut.apply(&mut rgb);
        rgb.to_yuv420_into(&mut recoded).expect("geometry matches");
        enc.push_yuv_frame(&recoded).expect("frames match geometry");
        enc_rgb.push_frame(&rgb).expect("frames match geometry");
    };

    for _ in 0..WARMUP_FRAMES {
        step();
    }

    let (calls_before, bytes_before) = counts();
    for _ in 0..MEASURED_FRAMES {
        step();
    }
    let (calls, bytes) = counts();
    let (calls, bytes) = (calls - calls_before, bytes - bytes_before);

    assert_eq!(
        (calls, bytes),
        (0, 0),
        "warm steady-state transcode+compensate must not allocate: \
         {calls} allocation calls / {bytes} bytes over {MEASURED_FRAMES} frames \
         ({} bytes/frame)",
        bytes / MEASURED_FRAMES as u64
    );

    // The session still produces a valid stream after the measured
    // window (sanity: the zero-allocation loop did real work).
    let out = enc.finish();
    assert_eq!(out.frame_count(), total as u32);
    // Encoding straight from RGB is exactly conversion then YUV encode.
    assert_eq!(enc_rgb.finish().as_bytes(), out.as_bytes());
    let decoded = Decoder::new(&out)
        .expect("output stream parses")
        .decode_all()
        .expect("output stream decodes");
    assert_eq!(decoded.len(), total);
}

/// A stream of `frames` source frames whose annotation track has the
/// same three scenes whatever its length, so any difference in playback
/// allocations comes from the per-frame path alone.
fn annotated_stream(frames: usize) -> EncodedStream {
    let config = EncoderConfig { width: W, height: H, fps: 12.0, ..EncoderConfig::default() };
    let entries = [(0, 200), (8, 120), (16, 160)].map(|(start_frame, level)| AnnotationEntry {
        start_frame,
        backlight: BacklightLevel(level),
        compensation: 255.0 / f32::from(level),
        effective_max_luma: level,
    });
    let track = AnnotationTrack::new(
        DeviceProfile::ipaq_5555().name(),
        QualityLevel::Q10,
        AnnotationMode::PerScene,
        config.fps,
        frames as u32,
        entries.to_vec(),
    )
    .expect("well-formed track");
    let mut enc = Encoder::new(config).expect("valid encoder geometry");
    enc.push_user_data(&track.to_rle_bytes());
    for i in 0..frames {
        enc.push_frame(&source_frame(i)).expect("frames match geometry");
    }
    enc.finish()
}

#[test]
fn playback_allocations_do_not_grow_with_stream_length() {
    let client = PlaybackClient::new(DeviceProfile::ipaq_5555(), SystemPowerModel::ipaq_5555());
    let play = |stream: &EncodedStream| {
        let before = counts().0;
        let report = client.play(stream, None).expect("stream plays");
        let calls = counts().0 - before;
        assert!(report.annotated);
        assert_eq!(report.frames, stream.frame_count());
        calls
    };
    let short = annotated_stream(WARMUP_FRAMES);
    let long = annotated_stream(WARMUP_FRAMES + MEASURED_FRAMES);
    // One untimed play settles any process-wide lazy state.
    play(&short);
    let (short_calls, long_calls) = (play(&short), play(&long));
    assert_eq!(
        short_calls, long_calls,
        "playback must not allocate per frame: {short_calls} allocation calls for \
         {WARMUP_FRAMES} frames vs {long_calls} for {} frames",
        WARMUP_FRAMES + MEASURED_FRAMES
    );
}

#[test]
fn rendering_into_a_reused_frame_allocates_zero_bytes_per_frame() {
    // The first paper clip with a pan between two other scenes; the
    // window runs from the scene before the pan to the one after it.
    let (clip, pan) = PAPER_CLIP_NAMES
        .iter()
        .map(|name| ClipLibrary::paper_clip(name).expect("library names are known"))
        .find_map(|clip: Clip| {
            let scenes = &clip.spec().scenes;
            let pan = (1..scenes.len() - 1)
                .find(|&s| matches!(scenes[s].content, ContentKind::GradientPan { .. }))?;
            Some((clip, pan))
        })
        .expect("a paper clip pans between two other scenes");
    let (start, end) = (clip.scene_frames(pan - 1).0, clip.scene_frames(pan + 1).1);
    let (w, h) = clip.dimensions();
    let mut frame = Frame::new(w, h);
    clip.frame_into(start, &mut frame);

    let (calls_before, bytes_before) = counts();
    for i in start..end {
        clip.frame_into(i, &mut frame);
    }
    let (calls, bytes) = counts();
    let (calls, bytes) = (calls - calls_before, bytes - bytes_before);

    assert_eq!(
        (calls, bytes),
        (0, 0),
        "rendering {} frames of {} into one frame made {calls} allocation calls / {bytes} bytes",
        end - start,
        clip.name()
    );
    assert_eq!(frame, clip.frame(end - 1));
}

#[test]
fn clip_profile_allocates_less_than_a_frame_buffer_per_frame() {
    let clip = ClipLibrary::paper_clip("themovie").expect("library clip");
    let (short, long) = (clip.preview(5.0), clip.preview(10.0));
    let (w, h) = clip.dimensions();
    let frame_bytes = u64::from(w) * u64::from(h) * 3;
    let profile_bytes = |c: &Clip| {
        let before = counts().1;
        let profile = LuminanceProfile::of_clip(c).expect("non-empty clip");
        let bytes = counts().1 - before;
        assert_eq!(profile.len(), c.frame_count() as usize);
        bytes
    };
    let (short_bytes, long_bytes) = (profile_bytes(&short), profile_bytes(&long));
    let extra_frames = u64::from(long.frame_count() - short.frame_count());
    assert!(extra_frames > 0, "the longer preview has more frames");
    let growth = long_bytes.saturating_sub(short_bytes);
    assert!(
        growth < extra_frames * frame_bytes,
        "profiling {} frames allocated {long_bytes} bytes, {} frames {short_bytes}: \
         {} bytes per extra frame, not under one {frame_bytes}-byte frame",
        long.frame_count(),
        short.frame_count(),
        growth / extra_frames
    );
}

/// Every fault class at once: independent and burst loss, duplication,
/// reordering and jitter.
fn every_fault(seed: u64) -> FaultConfig {
    FaultConfig {
        drop_p: 0.1,
        dup_p: 0.1,
        reorder_p: 0.1,
        reorder_window: 4,
        jitter_s: 0.002,
        ..FaultConfig::bursty(seed)
    }
}

#[test]
fn packet_fates_allocate_nothing() {
    const PACKETS: usize = 1_000;
    let mut ch = FaultyChannel::new(WirelessChannel::wifi_80211b(), every_fault(0xA110));
    let (mut none, mut two) = (0, 0);

    let before = counts();
    for i in 0..PACKETS {
        let bytes = 40 + (i * 53) % 1400;
        let fate = if i % 2 == 0 {
            ch.try_deliver(bytes, |_| Some(RetryPolicy::reliable()))
        } else {
            // A hint's deadline: retried only until its scene starts.
            ch.try_deliver(bytes, |sent_s| {
                Some(RetryPolicy::annotation().with_deadline((0.05 - sent_s).max(0.0)))
            })
        };
        none += usize::from(fate.copies.is_empty());
        two += usize::from(fate.copies.len() == 2);
    }
    let (calls, bytes) = counts();
    let (calls, bytes) = (calls - before.0, bytes - before.1);

    assert_eq!(
        (calls, bytes),
        (0, 0),
        "{PACKETS} packet fates made {calls} allocation calls / {bytes} bytes"
    );
    // Sanity: every fault class fired, and fates both lost a packet
    // outright and delivered a duplicate.
    let st = ch.stats();
    assert!(st.dropped > 0 && st.duplicated > 0 && st.reordered > 0 && st.burst_packets > 0);
    assert!(st.retransmits > 0 && st.retransmit_failures > 0);
    assert!(none > 0 && two > 0, "{none} fates lost, {two} duplicated");
}

#[test]
fn scale_session_allocations_do_not_grow_with_stream_length() {
    let link = WirelessChannel::wifi_80211b();
    let run = |stream: &EncodedStream| {
        let spec = Arc::new(ScaleSpec::from_stream(stream, &link, 0.25).expect("stream plans"));
        let (tx, rx) = channel::unbounded();
        let mut session = ScaleSession::new(Arc::clone(&spec), every_fault(7), 0, tx);
        let before = counts().0;
        while session.step() != Step::Done {}
        let calls = counts().0 - before;
        let (_, outcome) = rx.recv().expect("the session reports");
        assert_eq!(outcome.packets, spec.packets() as u64);
        assert!(outcome.dropped > 0, "the faulty hop drops packets");
        (calls, outcome.packets)
    };
    let (short, long) = (annotated_stream(WARMUP_FRAMES), annotated_stream(4 * WARMUP_FRAMES));
    let ((short_calls, short_packets), (long_calls, long_packets)) = (run(&short), run(&long));
    assert!(long_packets > short_packets);
    assert_eq!(
        short_calls, long_calls,
        "a scale session must not allocate per packet: {short_calls} allocation calls for \
         {short_packets} packets vs {long_calls} for {long_packets}"
    );
}
