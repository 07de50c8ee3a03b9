//! The admission / fairness front-end: the `Service` the thin clients
//! (and the stream server/proxy tiers) actually talk to.
//!
//! The paper's architecture (Fig. 1) concentrates profiling and
//! annotation at the server or proxy so that "the only computation
//! required at the client is a multiplication and a table look-up".
//! That concentration only works if the shared tier degrades
//! gracefully: one greedy tenant must not starve the others, and an
//! overloaded service must *reject* rather than queue without bound.
//!
//! * **Bounded per-tenant queues.** Each tenant gets its own FIFO of at
//!   most [`ServiceConfig::tenant_queue_depth`] pending jobs; a tenant
//!   that floods past its bound receives [`ServeError::Overloaded`]
//!   while every other tenant's queue is untouched.
//! * **Bounded tenants.** At most [`MAX_TENANTS`] distinct tenant names
//!   ever get a queue; a request that would open one more is rejected
//!   with [`ServeError::Overloaded`], so the queue scan stays bounded.
//! * **Round-robin dispatch.** The next job is popped by rotating over
//!   the tenant queues, so a trickling tenant is served in its turn no
//!   matter how deep a flooding tenant's queue is. The tenant queues are
//!   the service's only job queue.
//! * **Cache-first.** A request whose `(clip digest, device, quality,
//!   mode)` key is resident is answered at submission without being
//!   queued at all; the dispatch path double-checks the cache so that
//!   N queued requests for the same key cost one profile, not N.
//! * **Callers' threads.** The service keeps no thread. A pending
//!   [`Ticket`] holds its service, and [`Ticket::wait`] drains the
//!   queues on the waiting thread before it receives its answer, so
//!   concurrent callers share the dispatch, the round-robin pops and the
//!   single-flight profile memo. One caller draining an identical
//!   request trace gets identical hit/miss sequences *and* identical
//!   counter reports — the property the determinism tests pin down.
//!   A clip's one profile scan fans out over the host's cores for the
//!   length of the scan (`support::par::available_workers`).

use crate::cache::{AnnotationCache, CacheKey};
use crate::counters::{Counters, CountersReport};
use annolight_core::track::{AnnotationMode, AnnotationTrack};
use annolight_core::{
    clip_digest, Annotator, CoreError, LuminanceProfile, PolicyKind, QualityLevel,
};
use annolight_core::parallel::profile_clip;
use annolight_display::DeviceProfile;
use annolight_support::channel::{self, Receiver, Sender};
use annolight_support::par::{available_workers, ParallelConfig};
use annolight_support::retry::RetryPolicy;
use annolight_support::rng::SmallRng;
use annolight_support::sync::{Condvar, Mutex};
use annolight_video::clip::Clip;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Frames per work item of the profile memo's fan-out: a 5 s preview
/// at 12 fps splits into 15 items, so two workers finish close together.
const PROFILE_CHUNK_FRAMES: usize = 4;

/// Distinct tenant names a service ever queues work for. Tenant queues
/// are never reclaimed (that would move the round-robin order), so a
/// request that would open a queue beyond this many is rejected with
/// [`ServeError::Overloaded`]. Eight times the 128 tenants of the
/// largest committed workload scenario.
pub const MAX_TENANTS: usize = 1024;

/// Errors surfaced by the service. All variants are expected operating
/// conditions, not bugs; callers are meant to match on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The requested clip name is not in the service catalogue.
    UnknownClip(String),
    /// The requested quality is a [`QualityLevel::Custom`] fraction that
    /// is not finite or lies outside `[0, 1]`; carries the reason.
    InvalidQuality(String),
    /// The tenant's queue is full, or the tenant is new and the service
    /// already queues for [`MAX_TENANTS`] others; retry later
    /// (backpressure). The blessed retry schedule is
    /// [`RetryPolicy::service`](annolight_support::retry::RetryPolicy::service)
    /// — truncated exponential backoff with jitter, implemented by
    /// [`AnnotationService::call_with_retry`] — so rejected tenants
    /// spread their retries instead of stampeding in lock-step.
    Overloaded {
        /// The tenant whose request was rejected.
        tenant: String,
    },
    /// The pipeline failed internally (e.g. a degenerate clip).
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownClip(name) => write!(f, "unknown clip {name:?}"),
            ServeError::InvalidQuality(reason) => write!(f, "invalid quality: {reason}"),
            ServeError::Overloaded { tenant } => {
                write!(f, "tenant {tenant:?} overloaded; request rejected")
            }
            ServeError::Internal(msg) => write!(f, "internal service error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Tuning knobs for [`AnnotationService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shard count for the annotation cache.
    pub cache_shards: usize,
    /// Total cache byte budget across all shards.
    pub cache_bytes: usize,
    /// Maximum queued (not yet dispatched) jobs per tenant.
    pub tenant_queue_depth: usize,
    /// Raw-sample capacity of the cold-latency histogram's exact
    /// reservoir ([`LatencyHistogram::with_exact_samples`]). `0` (the
    /// default) keeps the lock-free bucket-only hot path; the SLO
    /// harness sets this so p50/p99/p999 are exact, not
    /// bucket-resolution.
    ///
    /// [`LatencyHistogram::with_exact_samples`]: crate::counters::LatencyHistogram::with_exact_samples
    pub latency_reservoir: usize,
}

impl Default for ServiceConfig {
    /// 4 shards, 8 MiB of cache, 16 queued jobs per tenant.
    fn default() -> Self {
        Self { cache_shards: 4, cache_bytes: 8 << 20, tenant_queue_depth: 16, latency_reservoir: 0 }
    }
}

/// One annotation request, as a tenant submits it.
#[derive(Debug, Clone)]
pub struct AnnotationRequest {
    /// Fairness domain: requests from the same tenant share one queue.
    pub tenant: String,
    /// Catalogue name of the clip to annotate.
    pub clip: String,
    /// Target device profile.
    pub device: DeviceProfile,
    /// Quality level for the backlight plan.
    pub quality: QualityLevel,
    /// Per-scene or per-frame annotation.
    pub mode: AnnotationMode,
    /// Annotation-policy backend to plan with (keyed into the cache, so
    /// tracks never cross policies).
    pub policy: PolicyKind,
}

/// The service's answer: a shared annotation track plus provenance.
#[derive(Debug, Clone)]
pub struct AnnotationResponse {
    /// The (cached, shared) annotation sidecar.
    pub track: Arc<AnnotationTrack>,
    /// Whether the answer came from the cache without profiling.
    pub cache_hit: bool,
    /// Content digest of the clip the track annotates.
    pub clip_digest: u64,
}

/// Anything that can answer an [`AnnotationRequest`]. The stream
/// server/proxy tiers program against this trait so tests can swap in
/// stubs.
pub trait Service {
    /// Submits `req` and blocks until the response (or error) is ready.
    fn call(&self, req: AnnotationRequest) -> Result<AnnotationResponse, ServeError>;
}

type Reply = Result<AnnotationResponse, ServeError>;

/// A submitted request's handle: either already answered (cache hit or
/// rejection) or queued for a dispatch.
#[derive(Debug)]
pub enum Ticket {
    /// Answered at submission time.
    Ready(Reply),
    /// Queued at `service`; [`Ticket::wait`] answers it.
    Pending {
        /// The service whose queues hold the job.
        service: Arc<AnnotationService>,
        /// Where the job's dispatch sends its answer.
        reply: Receiver<Reply>,
    },
}

impl Ticket {
    /// Blocks until the response is available. A pending ticket first
    /// drains its service's queues on the calling thread
    /// ([`AnnotationService::run_until_idle`]), then receives; if
    /// another caller popped this job, that caller's dispatch answers it.
    ///
    /// # Errors
    ///
    /// Propagates the service's [`ServeError`]; a job dropped unanswered
    /// (its dispatch panicked) maps to [`ServeError::Internal`].
    pub fn wait(self) -> Reply {
        match self {
            Ticket::Ready(reply) => reply,
            Ticket::Pending { service, reply } => {
                service.run_until_idle();
                reply
                    .recv()
                    .unwrap_or_else(|_| Err(ServeError::Internal("job dropped unanswered".into())))
            }
        }
    }
}

/// One queued unit of profiling work.
struct PendingJob {
    key: CacheKey,
    clip: Arc<Clip>,
    digest: u64,
    device: DeviceProfile,
    quality: QualityLevel,
    mode: AnnotationMode,
    policy: PolicyKind,
    reply: Sender<Reply>,
}

/// Tenant queues + round-robin cursor. `tenants` is a Vec (not a map)
/// so dispatch order is a pure function of first-submission order —
/// deterministic, never HashMap iteration order.
#[derive(Default)]
struct SchedState {
    tenants: Vec<(String, VecDeque<PendingJob>)>,
    /// Next tenant index to serve.
    rr: usize,
    /// Jobs queued across all tenants (invariant: sum of queue lens).
    queued: usize,
}

impl SchedState {
    /// Pops the next job round-robin across tenant queues.
    fn pop(&mut self) -> Option<PendingJob> {
        let n = self.tenants.len();
        for off in 0..n {
            let idx = (self.rr + off) % n;
            if let Some(job) = self.tenants[idx].1.pop_front() {
                // Advance past the tenant we just served so the next
                // dispatch starts at its successor.
                self.rr = (idx + 1) % n;
                self.queued -= 1;
                return Some(job);
            }
        }
        None
    }

    /// The queue of `tenant`, opened on first use; `None` for a new
    /// tenant once [`MAX_TENANTS`] queues exist.
    fn queue(&mut self, tenant: &str) -> Option<&mut VecDeque<PendingJob>> {
        let idx = match self.tenants.iter().position(|(t, _)| t == tenant) {
            Some(idx) => idx,
            None if self.tenants.len() < MAX_TENANTS => {
                self.tenants.push((tenant.to_owned(), VecDeque::new()));
                self.tenants.len() - 1
            }
            None => return None,
        };
        Some(&mut self.tenants[idx].1)
    }
}

struct CatalogueEntry {
    clip: Arc<Clip>,
    digest: u64,
}

/// State of one content digest in the profile memo.
enum ProfileSlot {
    /// Some caller is profiling this clip right now; wait on
    /// [`ProfileMemo::ready`].
    InFlight,
    /// Profile available.
    Ready(Arc<LuminanceProfile>),
}

/// Single-flight memo of luminance profiles, one per content digest.
///
/// Profiling is by far the most expensive step of a cold request (it
/// touches every pixel of every frame), and one clip is typically
/// requested for several `(device, quality, mode)` keys at once. The
/// memo guarantees each digest is profiled **exactly once** even with
/// concurrent callers: the first marks the slot in-flight and computes
/// outside the lock; racing callers block on the condvar instead of
/// duplicating the work.
struct ProfileMemo {
    slots: Mutex<HashMap<u64, ProfileSlot>>,
    ready: Condvar,
}

/// A digest's in-flight memo slot, owned by the caller profiling it.
/// Dropped while armed, it removes the slot and wakes the waiters, so
/// a profiling step that fails or unwinds never leaves a slot that later
/// requests for the clip would wait on forever.
struct InFlightSlot<'a> {
    memo: &'a ProfileMemo,
    digest: u64,
    armed: bool,
}

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.memo.slots.lock().remove(&self.digest);
            self.memo.ready.notify_all();
        }
    }
}

/// The cache key of a request. A custom quality outside `[0, 1]` is
/// rejected here; [`CacheKey::new`] would panic on it.
fn cache_key(
    digest: u64,
    device: &DeviceProfile,
    quality: QualityLevel,
    mode: AnnotationMode,
    policy: PolicyKind,
) -> Result<CacheKey, ServeError> {
    quality.try_clip_fraction().map_err(ServeError::InvalidQuality)?;
    Ok(CacheKey::new(digest, device, quality, mode, policy))
}

/// The sharded, multi-tenant annotation service. Construct with
/// [`AnnotationService::new`], register clips, then [`Service::call`]
/// (or [`AnnotationService::submit`] and [`Ticket::wait`] for async use).
pub struct AnnotationService {
    catalogue: Mutex<HashMap<String, CatalogueEntry>>,
    /// Single-flight memoised luminance profiles: one per content
    /// digest, shared across every (device, quality, mode) that
    /// annotates the clip.
    profiles: ProfileMemo,
    cache: AnnotationCache,
    sched: Mutex<SchedState>,
    counters: Counters,
    tenant_queue_depth: usize,
}

impl fmt::Debug for AnnotationService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnnotationService")
            .field("catalogue", &self.catalogue.lock().len())
            .field("cache", &self.cache.stats())
            .finish_non_exhaustive()
    }
}

impl AnnotationService {
    /// Builds a service from `config`. Returned in an [`Arc`] so server
    /// and proxy tiers can share one service, and so pending tickets can
    /// hold it.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        Arc::new(Self {
            catalogue: Mutex::new(HashMap::new()),
            profiles: ProfileMemo { slots: Mutex::new(HashMap::new()), ready: Condvar::new() },
            cache: AnnotationCache::new(config.cache_shards.max(1), config.cache_bytes),
            sched: Mutex::new(SchedState::default()),
            counters: Counters {
                profile_latency: crate::counters::LatencyHistogram::with_exact_samples(
                    config.latency_reservoir,
                ),
                ..Counters::default()
            },
            tenant_queue_depth: config.tenant_queue_depth.max(1),
        })
    }

    /// Registers `clip` under its own name, returning its content
    /// digest. Re-registering a name replaces the entry (and, because
    /// keys are content-addressed, changed bytes can never alias the old
    /// track).
    pub fn register_clip(&self, clip: Clip) -> u64 {
        let digest = clip_digest(&clip);
        self.catalogue
            .lock()
            .insert(clip.name().to_owned(), CatalogueEntry { clip: Arc::new(clip), digest });
        digest
    }

    /// Answers every queued job on the calling thread, popping the
    /// tenant queues round-robin, and returns once they are empty. Jobs
    /// other callers popped may still be in flight.
    pub fn run_until_idle(&self) {
        loop {
            let Some(job) = self.sched.lock().pop() else { break };
            self.dispatch(job);
        }
    }

    /// Jobs admitted but not yet dispatched, across all tenants.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.sched.lock().queued
    }

    /// Submits a request without blocking on the answer.
    ///
    /// Fast path: a resident cache entry answers immediately
    /// ([`Ticket::Ready`]). Otherwise the request is admitted to the
    /// tenant's bounded queue, where the next [`Ticket::wait`] or
    /// [`AnnotationService::run_until_idle`] picks it up.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownClip`] for names outside the catalogue;
    /// [`ServeError::InvalidQuality`] for a custom quality outside
    /// `[0, 1]`; [`ServeError::Overloaded`] when the tenant's queue is
    /// full, or when the tenant is new and [`MAX_TENANTS`] queues exist.
    pub fn submit(self: &Arc<Self>, req: AnnotationRequest) -> Result<Ticket, ServeError> {
        let (clip, digest) = {
            let cat = self.catalogue.lock();
            let entry = cat
                .get(&req.clip)
                .ok_or_else(|| ServeError::UnknownClip(req.clip.clone()))?;
            (Arc::clone(&entry.clip), entry.digest)
        };
        let key = cache_key(digest, &req.device, req.quality, req.mode, req.policy)?;
        if let Some(hit) = self.cached(&key, digest) {
            return Ok(Ticket::Ready(Ok(hit)));
        }
        let (tx, rx) = channel::unbounded();
        let job = PendingJob {
            key,
            clip,
            digest,
            device: req.device,
            quality: req.quality,
            mode: req.mode,
            policy: req.policy,
            reply: tx,
        };
        let mut sched = self.sched.lock();
        match sched.queue(&req.tenant) {
            Some(queue) if queue.len() < self.tenant_queue_depth => queue.push_back(job),
            _ => {
                Counters::bump(&self.counters.overloaded);
                return Err(ServeError::Overloaded { tenant: req.tenant });
            }
        }
        sched.queued += 1;
        Ok(Ticket::Pending { service: Arc::clone(self), reply: rx })
    }

    /// Answers one popped job.
    fn dispatch(&self, job: PendingJob) {
        // Double-check: an earlier dispatch may have populated the key
        // while this job sat queued. N queued misses for one key then
        // cost one profile, not N.
        let reply = match self.cached(&job.key, job.digest) {
            Some(hit) => Ok(hit),
            None => {
                let started = Instant::now();
                self.profile_of(job.digest, &job.clip)
                    .and_then(|p| plan(&p, &job.device, job.quality, job.mode, job.policy))
                    .map(|track| self.store(job.key, track, job.digest, started))
            }
        };
        let _ = job.reply.send(reply);
    }

    /// The resident answer for `key`, counted as a hit.
    fn cached(&self, key: &CacheKey, digest: u64) -> Option<AnnotationResponse> {
        let track = self.cache.get(key)?;
        Counters::bump(&self.counters.hits);
        Counters::bump(&self.counters.completed);
        Some(AnnotationResponse { track, cache_hit: true, clip_digest: digest })
    }

    /// Caches a freshly planned track and counts the miss, charging the
    /// cold latency since `started`.
    fn store(
        &self,
        key: CacheKey,
        track: Arc<AnnotationTrack>,
        digest: u64,
        started: Instant,
    ) -> AnnotationResponse {
        self.counters.profile_latency.record(started.elapsed());
        self.cache.insert(key, Arc::clone(&track));
        Counters::bump(&self.counters.misses);
        Counters::bump(&self.counters.completed);
        AnnotationResponse { track, cache_hit: false, clip_digest: digest }
    }

    /// Returns the memoised luminance profile for `digest`, computing it
    /// on first use. Single-flight: a digest is profiled at most once
    /// service-wide — racing callers wait for the in-flight computation
    /// instead of duplicating the scan (which would make more callers
    /// *slower* on same-clip, many-device workloads). The one scan fans
    /// out over [`available_workers`] threads in chunks of
    /// [`PROFILE_CHUNK_FRAMES`] frames; every count gives the same bytes.
    fn profile_of(&self, digest: u64, clip: &Clip) -> Result<Arc<LuminanceProfile>, ServeError> {
        let cfg =
            ParallelConfig::with_workers(available_workers()).with_chunk_frames(PROFILE_CHUNK_FRAMES);
        self.profile_with(digest, || profile_clip(clip, &cfg))
    }

    /// [`AnnotationService::profile_of`] with the profiling step given as
    /// `profile`. A panic in `profile` reaches the caller, and the clip's
    /// other requests then profile it afresh instead of waiting.
    fn profile_with(
        &self,
        digest: u64,
        profile: impl FnOnce() -> Result<LuminanceProfile, CoreError>,
    ) -> Result<Arc<LuminanceProfile>, ServeError> {
        {
            let mut slots = self.profiles.slots.lock();
            loop {
                match slots.get(&digest) {
                    Some(ProfileSlot::Ready(p)) => return Ok(Arc::clone(p)),
                    Some(ProfileSlot::InFlight) => {
                        slots = self.profiles.ready.wait(slots);
                    }
                    None => {
                        slots.insert(digest, ProfileSlot::InFlight);
                        break;
                    }
                }
            }
        }
        // Compute outside the lock; we own the in-flight slot, and
        // `slot` clears it on an error (so a later request can retry) or
        // a panic.
        let mut slot = InFlightSlot { memo: &self.profiles, digest, armed: true };
        let profile = Arc::new(profile().map_err(|e| ServeError::Internal(e.to_string()))?);
        slot.armed = false;
        Counters::bump(&self.counters.clip_profiles);
        self.profiles.slots.lock().insert(digest, ProfileSlot::Ready(Arc::clone(&profile)));
        self.profiles.ready.notify_all();
        Ok(profile)
    }

    /// The memoised luminance profile of a registered clip, profiling it
    /// now if no request has needed it yet. Server tiers use this for
    /// profile-derived extras (e.g. DVFS hints) without re-profiling.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownClip`] for unregistered names;
    /// [`ServeError::Internal`] if profiling fails.
    pub fn profile_for(&self, name: &str) -> Result<Arc<LuminanceProfile>, ServeError> {
        let (clip, digest) = {
            let cat = self.catalogue.lock();
            let entry = cat.get(name).ok_or_else(|| ServeError::UnknownClip(name.to_owned()))?;
            (Arc::clone(&entry.clip), entry.digest)
        };
        self.profile_of(digest, &clip)
    }

    /// Synchronous, catalogue-free entry for proxy tiers that already
    /// hold a [`LuminanceProfile`] (e.g. computed from a transcoded
    /// stream). Hits the same cache under the same content-addressed
    /// keys and feeds the same counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidQuality`] for a custom quality outside
    /// `[0, 1]`; [`ServeError::Internal`] if annotation fails.
    pub fn annotate_profile(
        &self,
        content_digest: u64,
        profile: &LuminanceProfile,
        device: &DeviceProfile,
        quality: QualityLevel,
        mode: AnnotationMode,
        policy: PolicyKind,
    ) -> Result<AnnotationResponse, ServeError> {
        let key = cache_key(content_digest, device, quality, mode, policy)?;
        if let Some(hit) = self.cached(&key, content_digest) {
            return Ok(hit);
        }
        let started = Instant::now();
        let track = plan(profile, device, quality, mode, policy)?;
        Ok(self.store(key, track, content_digest, started))
    }

    /// The cold-latency histogram, for harnesses that need exact
    /// quantiles ([`LatencyHistogram::quantile_us`]) beyond what
    /// [`CountersReport`] carries. Exact mode requires
    /// [`ServiceConfig::latency_reservoir`] `> 0`.
    ///
    /// [`LatencyHistogram::quantile_us`]: crate::counters::LatencyHistogram::quantile_us
    #[must_use]
    pub fn profile_latency(&self) -> &crate::counters::LatencyHistogram {
        &self.counters.profile_latency
    }

    /// A point-in-time counters report (serialisable via
    /// [`CountersReport::to_json_string`]).
    #[must_use]
    pub fn report(&self) -> CountersReport {
        let counters = &self.counters;
        let cache = self.cache.stats();
        let (uppers, counts) = counters.profile_latency.snapshot();
        CountersReport {
            hits: Counters::read(&counters.hits),
            misses: Counters::read(&counters.misses),
            overloaded: Counters::read(&counters.overloaded),
            completed: Counters::read(&counters.completed),
            queue_depth: self.queue_depth(),
            evictions: cache.evictions,
            resident_entries: cache.resident,
            resident_bytes: cache.resident_bytes,
            profile_count: counters.profile_latency.count(),
            clip_profiles: Counters::read(&counters.clip_profiles),
            profile_latency_mean_us: counters.profile_latency.mean_us(),
            profile_latency_max_us: counters.profile_latency.max_us(),
            latency_bucket_upper_us: uppers,
            latency_bucket_counts: counts,
        }
    }

    /// [`Service::call`] with the blessed backpressure response: on
    /// [`ServeError::Overloaded`], back off per `policy` (normally
    /// [`RetryPolicy::service`](annolight_support::retry::RetryPolicy::service)
    /// — truncated exponential with jitter) and try again, giving the
    /// service a chance to drain between attempts.
    ///
    /// Backoff time is *accounted*, not slept: the simulated elapsed
    /// time feeds `policy.next_delay_s`, so deterministic tests replay
    /// the exact schedule without wall-clock sleeps. Each retry drains
    /// the queues on the calling thread first, which is the work the
    /// backoff window leaves room for.
    ///
    /// Returns the accumulated simulated backoff alongside the
    /// response so callers (e.g. the energy accounting in
    /// `annolight-stream`) can charge the waiting time.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] once the policy's retry budget is
    /// exhausted; any non-backpressure error is returned immediately
    /// without retrying.
    pub fn call_with_retry(
        self: &Arc<Self>,
        req: AnnotationRequest,
        policy: &RetryPolicy,
        rng: &mut SmallRng,
    ) -> Result<(AnnotationResponse, f64), ServeError> {
        let mut elapsed = 0.0f64;
        let mut attempt = 0u32;
        loop {
            match self.call(req.clone()) {
                Err(ServeError::Overloaded { tenant }) => {
                    let Some(delay) = policy.next_delay_s(attempt, elapsed, rng) else {
                        return Err(ServeError::Overloaded { tenant });
                    };
                    elapsed += delay;
                    attempt += 1;
                    // The backoff window is when queued work drains;
                    // drain it here so the retry can be admitted.
                    self.run_until_idle();
                }
                Err(other) => return Err(other),
                Ok(resp) => return Ok((resp, elapsed)),
            }
        }
    }
}

/// Cold path: plans and annotates `profile` for one request.
fn plan(
    profile: &LuminanceProfile,
    device: &DeviceProfile,
    quality: QualityLevel,
    mode: AnnotationMode,
    policy: PolicyKind,
) -> Result<Arc<AnnotationTrack>, ServeError> {
    let annotated = Annotator::new(device.clone(), quality)
        .with_mode(mode)
        .with_policy(policy)
        .annotate_profile(profile)
        .map_err(|e| ServeError::Internal(e.to_string()))?;
    Ok(Arc::new(annotated.track().clone()))
}

impl Service for Arc<AnnotationService> {
    fn call(&self, req: AnnotationRequest) -> Result<AnnotationResponse, ServeError> {
        self.submit(req)?.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_video::clip::{ClipSpec, SceneSpec};
    use annolight_video::content::ContentKind;

    fn test_clip(name: &str, seed: u64) -> Clip {
        Clip::new(ClipSpec {
            name: name.to_owned(),
            width: 48,
            height: 32,
            fps: 12.0,
            seed,
            scenes: vec![
                SceneSpec::new(
                    ContentKind::Dark {
                        base: 40,
                        spread: 10,
                        highlight_fraction: 0.01,
                        highlight: 240,
                    },
                    1.0,
                ),
                SceneSpec::new(ContentKind::Bright { base: 200, spread: 20 }, 1.0),
            ],
        })
        .unwrap()
    }

    fn request(tenant: &str, clip: &str) -> AnnotationRequest {
        AnnotationRequest {
            tenant: tenant.to_owned(),
            clip: clip.to_owned(),
            device: DeviceProfile::ipaq_5555(),
            quality: QualityLevel::Q10,
            mode: AnnotationMode::PerScene,
            policy: PolicyKind::PeakClip,
        }
    }

    #[test]
    fn unknown_clip_is_typed_error() {
        let svc = AnnotationService::new(ServiceConfig::default());
        let err = svc.call(request("t0", "nope")).unwrap_err();
        assert_eq!(err, ServeError::UnknownClip("nope".into()));
    }

    #[test]
    fn miss_then_hit_shares_one_track() {
        let svc = AnnotationService::new(ServiceConfig::default());
        svc.register_clip(test_clip("a", 7));
        let first = svc.call(request("t0", "a")).unwrap();
        assert!(!first.cache_hit);
        let second = svc.call(request("t1", "a")).unwrap();
        assert!(second.cache_hit);
        assert!(Arc::ptr_eq(&first.track, &second.track), "hit shares the cached Arc");
        let report = svc.report();
        assert_eq!((report.hits, report.misses, report.completed), (1, 1, 2));
        assert_eq!(report.profile_count, 1);
    }

    #[test]
    fn distinct_devices_do_not_share() {
        let svc = AnnotationService::new(ServiceConfig::default());
        svc.register_clip(test_clip("a", 7));
        let mut req = request("t0", "a");
        let first = svc.call(req.clone()).unwrap();
        req.device = DeviceProfile::zaurus_sl5600();
        let second = svc.call(req).unwrap();
        assert!(!second.cache_hit);
        assert_ne!(first.track.device_name(), second.track.device_name());
    }

    #[test]
    fn distinct_policies_do_not_share() {
        // Same bytes, device, quality and mode — only the policy differs.
        // Each backend must miss and then hit its own entry, and the HEBS
        // track must actually differ from the peak-clip one (dimmer
        // levels on dark content), proving the key really separates them.
        let svc = AnnotationService::new(ServiceConfig::default());
        svc.register_clip(test_clip("a", 7));
        let mut tracks = Vec::new();
        for p in PolicyKind::ALL {
            let mut req = request("t0", "a");
            req.policy = p;
            let cold = svc.call(req.clone()).unwrap();
            assert!(!cold.cache_hit, "{p:?} first call must miss");
            let warm = svc.call(req).unwrap();
            assert!(warm.cache_hit, "{p:?} second call must hit");
            assert!(Arc::ptr_eq(&cold.track, &warm.track));
            tracks.push(cold.track);
        }
        // One shared pixel scan across all three policies' cold plans.
        assert_eq!(svc.report().clip_profiles, 1);
        let (peak, hebs) = (&tracks[0], &tracks[1]);
        assert!(
            peak.entries().iter().zip(hebs.entries()).any(|(a, b)| a.backlight != b.backlight),
            "hebs must dim at least one entry below peak-clip"
        );
    }

    #[test]
    fn tenant_queue_bound_rejects_flooder_only() {
        let svc = AnnotationService::new(ServiceConfig {
            tenant_queue_depth: 2,
            ..ServiceConfig::default()
        });
        svc.register_clip(test_clip("a", 7));
        // Flood tenant f with distinct uncacheable requests (different
        // qualities) without draining the queues.
        let mut tickets = Vec::new();
        let mut rejected = 0;
        for i in 0..5 {
            let mut req = request("flood", "a");
            req.quality = QualityLevel::Custom(0.01 + f64::from(i) * 0.02);
            match svc.submit(req) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { tenant }) => {
                    assert_eq!(tenant, "flood");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert_eq!(rejected, 3, "queue depth 2 admits 2 of 5");
        // The trickling tenant is still admitted.
        let trickle = svc.submit(request("trickle", "a")).expect("trickler admitted");
        tickets.push(trickle);
        svc.run_until_idle();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(svc.report().overloaded, 3);
    }

    #[test]
    fn call_with_retry_backs_off_then_succeeds() {
        let svc = AnnotationService::new(ServiceConfig {
            tenant_queue_depth: 2,
            ..ServiceConfig::default()
        });
        svc.register_clip(test_clip("a", 7));
        // Fill the tenant's queue without draining it.
        let mut tickets = Vec::new();
        for i in 0..2 {
            let mut req = request("flood", "a");
            req.quality = QualityLevel::Custom(0.01 + f64::from(i) * 0.02);
            tickets.push(svc.submit(req).unwrap());
        }
        // A bare call is rejected outright…
        let err = svc.call(request("flood", "a")).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { tenant: "flood".into() });
        // …while call_with_retry backs off, lets the queue drain, and lands.
        let mut rng = SmallRng::seed_from_u64(9);
        let (resp, backoff_s) = svc
            .call_with_retry(request("flood", "a"), &RetryPolicy::service(), &mut rng)
            .expect("retry succeeds after the queue drains");
        assert!(backoff_s > 0.0, "at least one backoff interval was charged");
        assert_eq!(resp.track.device_name(), DeviceProfile::ipaq_5555().name());
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn call_with_retry_exhausts_cleanly_and_skips_non_backpressure_errors() {
        let svc = AnnotationService::new(ServiceConfig::default());
        let mut rng = SmallRng::seed_from_u64(9);
        // Non-backpressure errors are returned immediately, never retried.
        let err = svc
            .call_with_retry(request("t0", "nope"), &RetryPolicy::service(), &mut rng)
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownClip("nope".into()));
        // A zero-retry policy surfaces Overloaded after one attempt.
        let svc = AnnotationService::new(ServiceConfig {
            tenant_queue_depth: 1,
            ..ServiceConfig::default()
        });
        svc.register_clip(test_clip("a", 7));
        let _held = svc.submit(request("flood", "a")).unwrap();
        let none = RetryPolicy { max_retries: 0, ..RetryPolicy::service() };
        let err = svc
            .call_with_retry(request("flood", "a"), &none, &mut rng)
            .unwrap_err();
        assert_eq!(err, ServeError::Overloaded { tenant: "flood".into() });
    }

    #[test]
    fn queued_duplicates_cost_one_profile() {
        let svc = AnnotationService::new(ServiceConfig::default());
        svc.register_clip(test_clip("a", 7));
        let t1 = svc.submit(request("t0", "a")).unwrap();
        let t2 = svc.submit(request("t1", "a")).unwrap();
        svc.run_until_idle();
        let r1 = t1.wait().unwrap();
        let r2 = t2.wait().unwrap();
        assert!(!r1.cache_hit);
        assert!(r2.cache_hit, "second queued request double-checks into a hit");
        assert_eq!(svc.report().profile_count, 1);
    }

    #[test]
    fn proxy_entry_shares_cache_with_catalogue_path() {
        let svc = AnnotationService::new(ServiceConfig::default());
        let clip = test_clip("a", 7);
        let digest = svc.register_clip(clip.clone());
        let first = svc.call(request("t0", "a")).unwrap();
        let profile = LuminanceProfile::of_clip(&clip).unwrap();
        let via_proxy = svc
            .annotate_profile(
                digest,
                &profile,
                &DeviceProfile::ipaq_5555(),
                QualityLevel::Q10,
                AnnotationMode::PerScene,
                PolicyKind::PeakClip,
            )
            .unwrap();
        assert!(via_proxy.cache_hit, "proxy path hits the catalogue path's entry");
        assert!(Arc::ptr_eq(&first.track, &via_proxy.track));
    }

    #[test]
    fn same_clip_profiles_once_across_devices_even_threaded() {
        // Single-flight: three devices annotate the same clip, and three
        // threads start waiting together behind a barrier, so each pops a
        // job and races to profile; yet the clip's pixels are scanned
        // exactly once.
        let svc = AnnotationService::new(ServiceConfig::default());
        svc.register_clip(test_clip("shared", 7));
        let devices =
            [DeviceProfile::ipaq_5555(), DeviceProfile::ipaq_3650(), DeviceProfile::zaurus_sl5600()];
        let tickets: Vec<Ticket> = devices
            .into_iter()
            .map(|device| {
                svc.submit(AnnotationRequest {
                    tenant: device.name().to_owned(),
                    clip: "shared".into(),
                    device,
                    quality: QualityLevel::Q10,
                    mode: AnnotationMode::PerScene,
                    policy: PolicyKind::PeakClip,
                })
                .unwrap()
            })
            .collect();
        let start = std::sync::Barrier::new(tickets.len());
        let replies = annolight_support::par::fan_out(tickets.len(), tickets, |t| {
            start.wait();
            t.wait()
        });
        for reply in replies {
            reply.unwrap();
        }
        let report = svc.report();
        assert_eq!(report.clip_profiles, 1, "one profile for three device keys");
        assert_eq!(report.completed, 3);
        assert_eq!(report.hits + report.misses, 3);
    }

    #[test]
    fn a_panic_while_profiling_frees_the_clip_for_later_requests() {
        const DIGEST: u64 = 7;
        let svc = AnnotationService::new(ServiceConfig::default());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.profile_with(DIGEST, || panic!("profiling panicked"))
        }));
        assert!(panicked.is_err(), "the panic reaches its caller");
        // Without the slot guard this call waits forever on the
        // abandoned in-flight slot, so it runs on its own thread under
        // a watchdog.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = Arc::clone(&svc);
        let handle = std::thread::spawn(move || {
            let clip = test_clip("a", 7);
            let _ = tx.send(second.profile_with(DIGEST, || LuminanceProfile::of_clip(&clip)));
        });
        let reply = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a later request for the clip returns within 20 s");
        handle.join().expect("the second request's thread finishes");
        assert!(reply.is_ok(), "{reply:?}");
        assert_eq!(svc.report().clip_profiles, 1);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let svc = AnnotationService::new(ServiceConfig::default());
        svc.register_clip(test_clip("a", 7));
        svc.call(request("t0", "a")).unwrap();
        let report = svc.report();
        let back = CountersReport::from_json_string(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
    }
}
