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
//! * **Round-robin dispatch.** Workers pull the next job by rotating
//!   over tenant queues, so a trickling tenant is served in its turn no
//!   matter how deep a flooding tenant's queue is.
//! * **Cache-first.** A request whose `(clip digest, device, quality,
//!   mode)` key is resident is answered at submission without touching
//!   the pool at all; the dispatch path double-checks the cache so that
//!   N queued requests for the same key cost one profile, not N.
//! * **Deterministic mode.** With `workers == 0` the pool runs inline
//!   ([`WorkerPool::run_until_idle`]), so identical request traces
//!   produce identical hit/miss sequences *and* identical counter
//!   reports — the property the determinism tests pin down.

use crate::cache::{AnnotationCache, CacheKey};
use crate::counters::{Counters, CountersReport};
use crate::pool::WorkerPool;
use annolight_core::track::{AnnotationMode, AnnotationTrack};
use annolight_core::{clip_digest, Annotator, LuminanceProfile, PolicyKind, QualityLevel};
use annolight_display::DeviceProfile;
use annolight_support::channel::{self, Receiver, Sender};
use annolight_support::retry::RetryPolicy;
use annolight_support::rng::SmallRng;
use annolight_support::sync::{Condvar, Mutex};
use annolight_video::clip::Clip;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Errors surfaced by the service. All variants are expected operating
/// conditions, not bugs; callers are meant to match on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The requested clip name is not in the service catalogue.
    UnknownClip(String),
    /// The tenant's queue is full; retry later (backpressure). The
    /// blessed retry schedule is
    /// [`RetryPolicy::service`](annolight_support::retry::RetryPolicy::service)
    /// — truncated exponential backoff with jitter, implemented by
    /// [`AnnotationService::call_with_retry`] — so rejected tenants
    /// spread their retries instead of stampeding in lock-step.
    Overloaded {
        /// The tenant whose queue bound was hit.
        tenant: String,
    },
    /// The pipeline failed internally (e.g. a degenerate clip).
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownClip(name) => write!(f, "unknown clip {name:?}"),
            ServeError::Overloaded { tenant } => {
                write!(f, "tenant {tenant:?} queue full; request rejected")
            }
            ServeError::Internal(msg) => write!(f, "internal service error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Tuning knobs for [`AnnotationService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads in the profiling pool. `0` selects deterministic
    /// inline execution (see [`WorkerPool::new`]).
    pub workers: usize,
    /// Shard count for the annotation cache.
    pub cache_shards: usize,
    /// Total cache byte budget across all shards.
    pub cache_bytes: usize,
    /// Maximum queued (not yet dispatched) jobs per tenant.
    pub tenant_queue_depth: usize,
    /// Intra-clip worker threads used *inside* one profiling/planning
    /// job ([`annolight_core::parallel::ParallelConfig`]). `0` keeps the
    /// serial reference pipeline; any value yields byte-identical
    /// annotations (the parallel pipeline's headline guarantee).
    pub intra_workers: usize,
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
    /// Deterministic defaults: inline execution, 4 shards, 8 MiB of
    /// cache, 16 queued jobs per tenant.
    fn default() -> Self {
        Self {
            workers: 0,
            cache_shards: 4,
            cache_bytes: 8 << 20,
            tenant_queue_depth: 16,
            intra_workers: 0,
            latency_reservoir: 0,
        }
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
/// rejection) or pending on the pool.
#[derive(Debug)]
pub enum Ticket {
    /// Answered at submission time.
    Ready(Reply),
    /// Will be answered by a pool worker; wait on the channel.
    Pending(Receiver<Reply>),
}

impl Ticket {
    /// Blocks until the response is available. In deterministic mode the
    /// caller must drain the pool first (see
    /// [`AnnotationService::run_until_idle`]); [`Service::call`]
    /// does this automatically.
    ///
    /// # Errors
    ///
    /// Propagates the service's [`ServeError`]; a disconnected worker
    /// (service dropped mid-flight) maps to [`ServeError::Internal`].
    pub fn wait(self) -> Reply {
        match self {
            Ticket::Ready(reply) => reply,
            Ticket::Pending(rx) => rx
                .recv()
                .unwrap_or_else(|_| Err(ServeError::Internal("service dropped in flight".into()))),
        }
    }

    /// Whether the ticket was answered at submission time.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(self, Ticket::Ready(_))
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

struct CatalogueEntry {
    clip: Arc<Clip>,
    digest: u64,
}

/// State of one content digest in the profile memo.
enum ProfileSlot {
    /// Some worker is profiling this clip right now; wait on
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
/// memo guarantees each digest is profiled **exactly once** even under
/// a threaded pool: the first worker marks the slot in-flight and
/// computes outside the lock; racing workers block on the condvar
/// instead of duplicating the work.
struct ProfileMemo {
    slots: Mutex<HashMap<u64, ProfileSlot>>,
    ready: Condvar,
}

impl ProfileMemo {
    fn new() -> Self {
        Self { slots: Mutex::new(HashMap::new()), ready: Condvar::new() }
    }
}

/// The sharded, multi-tenant annotation service. Construct with
/// [`AnnotationService::new`], register clips, then [`Service::call`]
/// (or [`AnnotationService::submit`] for async use).
pub struct AnnotationService {
    catalogue: Mutex<HashMap<String, CatalogueEntry>>,
    /// Single-flight memoised luminance profiles: one per content
    /// digest, shared across every (device, quality, mode) that
    /// annotates the clip.
    profiles: ProfileMemo,
    cache: AnnotationCache,
    pool: WorkerPool,
    sched: Mutex<SchedState>,
    counters: Counters,
    tenant_queue_depth: usize,
    /// Intra-clip parallelism applied inside each profiling/planning job.
    intra: annolight_core::ParallelConfig,
}

impl fmt::Debug for AnnotationService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnnotationService")
            .field("catalogue", &self.catalogue.lock().len())
            .field("cache", &self.cache.stats())
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}

impl AnnotationService {
    /// Builds a service from `config`. Returned in an [`Arc`] because
    /// dispatch jobs capture a handle to the service.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        Arc::new(Self {
            catalogue: Mutex::new(HashMap::new()),
            profiles: ProfileMemo::new(),
            cache: AnnotationCache::new(config.cache_shards.max(1), config.cache_bytes),
            pool: WorkerPool::new(config.workers),
            sched: Mutex::new(SchedState::default()),
            counters: Counters {
                profile_latency: crate::counters::LatencyHistogram::with_exact_samples(
                    config.latency_reservoir,
                ),
                ..Counters::default()
            },
            tenant_queue_depth: config.tenant_queue_depth.max(1),
            intra: annolight_core::ParallelConfig::with_workers(config.intra_workers),
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

    /// Whether the pool executes inline and FIFO (see [`WorkerPool`]).
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.pool.is_deterministic()
    }

    /// Drains all queued work inline (deterministic mode) or blocks
    /// until workers go idle (threaded mode).
    pub fn run_until_idle(&self) {
        self.pool.run_until_idle();
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
    /// tenant's bounded queue and a dispatch token is spawned on the
    /// pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownClip`] for names outside the catalogue;
    /// [`ServeError::Overloaded`] when the tenant's queue is full.
    pub fn submit(self: &Arc<Self>, req: AnnotationRequest) -> Result<Ticket, ServeError> {
        let (clip, digest) = {
            let cat = self.catalogue.lock();
            let entry = cat
                .get(&req.clip)
                .ok_or_else(|| ServeError::UnknownClip(req.clip.clone()))?;
            (Arc::clone(&entry.clip), entry.digest)
        };
        let key = CacheKey::new(digest, req.device.name(), req.quality, req.mode, req.policy);
        if let Some(track) = self.cache.get(&key) {
            Counters::bump(&self.counters.hits);
            Counters::bump(&self.counters.completed);
            return Ok(Ticket::Ready(Ok(AnnotationResponse {
                track,
                cache_hit: true,
                clip_digest: digest,
            })));
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
        {
            let mut sched = self.sched.lock();
            let queue = match sched.tenants.iter_mut().position(|(t, _)| *t == req.tenant) {
                Some(i) => &mut sched.tenants[i].1,
                None => {
                    sched.tenants.push((req.tenant.clone(), VecDeque::new()));
                    let last = sched.tenants.len() - 1;
                    &mut sched.tenants[last].1
                }
            };
            if queue.len() >= self.tenant_queue_depth {
                Counters::bump(&self.counters.overloaded);
                return Err(ServeError::Overloaded { tenant: req.tenant });
            }
            queue.push_back(job);
            sched.queued += 1;
        }
        let svc = Arc::clone(self);
        self.pool.spawn(move || svc.dispatch_one());
        Ok(Ticket::Pending(rx))
    }

    /// Pops the next job round-robin across tenant queues and runs it.
    fn dispatch_one(&self) {
        let job = {
            let mut sched = self.sched.lock();
            let n = sched.tenants.len();
            let mut picked = None;
            for off in 0..n {
                let idx = (sched.rr + off) % n;
                if let Some(job) = sched.tenants[idx].1.pop_front() {
                    // Advance past the tenant we just served so the next
                    // dispatch starts at its successor.
                    sched.rr = (idx + 1) % n;
                    sched.queued -= 1;
                    picked = Some(job);
                    break;
                }
            }
            match picked {
                Some(job) => job,
                None => return, // token outlived its job (another worker took it)
            }
        };
        // Double-check: an earlier dispatch may have populated the key
        // while this job sat queued. N queued misses for one key then
        // cost one profile, not N.
        if let Some(track) = self.cache.get(&job.key) {
            Counters::bump(&self.counters.hits);
            Counters::bump(&self.counters.completed);
            let _ = job.reply.send(Ok(AnnotationResponse {
                track,
                cache_hit: true,
                clip_digest: job.digest,
            }));
            return;
        }
        let started = Instant::now();
        let result = self.compute(&job);
        match result {
            Ok(track) => {
                self.counters.profile_latency.record(started.elapsed());
                self.cache.insert(job.key, Arc::clone(&track));
                Counters::bump(&self.counters.misses);
                Counters::bump(&self.counters.completed);
                let _ = job.reply.send(Ok(AnnotationResponse {
                    track,
                    cache_hit: false,
                    clip_digest: job.digest,
                }));
            }
            Err(err) => {
                let _ = job.reply.send(Err(err));
            }
        }
    }

    /// Cold path: memoised luminance profile, then plan + annotate.
    fn compute(&self, job: &PendingJob) -> Result<Arc<AnnotationTrack>, ServeError> {
        let profile = self.profile_of(job.digest, &job.clip)?;
        let annotated = Annotator::new(job.device.clone(), job.quality)
            .with_mode(job.mode)
            .with_policy(job.policy)
            .with_parallelism(self.intra)
            .annotate_profile(&profile)
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        Ok(Arc::new(annotated.track().clone()))
    }

    /// Returns the memoised luminance profile for `digest`, computing it
    /// on first use. Single-flight: a digest is profiled at most once
    /// service-wide — racing workers wait for the in-flight computation
    /// instead of duplicating the scan (which would make a wider pool
    /// *slower* on same-clip, many-device workloads).
    fn profile_of(&self, digest: u64, clip: &Clip) -> Result<Arc<LuminanceProfile>, ServeError> {
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
        // Compute outside the lock; we own the in-flight slot. The scan
        // itself is chunked over the intra-clip pool (byte-identical to
        // `LuminanceProfile::of_clip` for every worker count).
        let computed = annolight_core::parallel::profile_clip(clip, &self.intra)
            .map(Arc::new)
            .map_err(|e| ServeError::Internal(e.to_string()));
        let mut slots = self.profiles.slots.lock();
        match computed {
            Ok(profile) => {
                Counters::bump(&self.counters.clip_profiles);
                slots.insert(digest, ProfileSlot::Ready(Arc::clone(&profile)));
                self.profiles.ready.notify_all();
                Ok(profile)
            }
            Err(e) => {
                // Clear the marker so a later request can retry.
                slots.remove(&digest);
                self.profiles.ready.notify_all();
                Err(e)
            }
        }
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
    /// [`ServeError::Internal`] if annotation fails.
    pub fn annotate_profile(
        &self,
        content_digest: u64,
        profile: &LuminanceProfile,
        device: &DeviceProfile,
        quality: QualityLevel,
        mode: AnnotationMode,
        policy: PolicyKind,
    ) -> Result<AnnotationResponse, ServeError> {
        let key = CacheKey::new(content_digest, device.name(), quality, mode, policy);
        if let Some(track) = self.cache.get(&key) {
            Counters::bump(&self.counters.hits);
            Counters::bump(&self.counters.completed);
            return Ok(AnnotationResponse { track, cache_hit: true, clip_digest: content_digest });
        }
        let started = Instant::now();
        let annotated = Annotator::new(device.clone(), quality)
            .with_mode(mode)
            .with_policy(policy)
            .with_parallelism(self.intra)
            .annotate_profile(profile)
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        self.counters.profile_latency.record(started.elapsed());
        let track = Arc::new(annotated.track().clone());
        self.cache.insert(key, Arc::clone(&track));
        Counters::bump(&self.counters.misses);
        Counters::bump(&self.counters.completed);
        Ok(AnnotationResponse { track, cache_hit: false, clip_digest: content_digest })
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
        let cache = self.cache.stats();
        let (uppers, counts) = self.counters.profile_latency.snapshot();
        CountersReport {
            hits: Counters::read(&self.counters.hits),
            misses: Counters::read(&self.counters.misses),
            overloaded: Counters::read(&self.counters.overloaded),
            completed: Counters::read(&self.counters.completed),
            queue_depth: self.queue_depth(),
            evictions: cache.evictions,
            resident_entries: cache.resident,
            resident_bytes: cache.resident_bytes,
            profile_count: self.counters.profile_latency.count(),
            clip_profiles: Counters::read(&self.counters.clip_profiles),
            profile_latency_mean_us: self.counters.profile_latency.mean_us(),
            profile_latency_max_us: self.counters.profile_latency.max_us(),
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
    /// the exact schedule without wall-clock sleeps. In deterministic
    /// mode each retry drains the inline pool first, mirroring what a
    /// real deployment's workers would do during the backoff window.
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
                    // A real deployment's workers drain queues during the
                    // backoff window; in deterministic mode we do that
                    // draining explicitly so the retry can succeed.
                    self.run_until_idle();
                }
                Err(other) => return Err(other),
                Ok(resp) => return Ok((resp, elapsed)),
            }
        }
    }
}

impl Service for Arc<AnnotationService> {
    fn call(&self, req: AnnotationRequest) -> Result<AnnotationResponse, ServeError> {
        let ticket = self.submit(req)?;
        if self.is_deterministic() && !ticket.is_ready() {
            self.pool.run_until_idle();
        }
        ticket.wait()
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
        // qualities) without draining the pool.
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
        // Fill the tenant's queue without draining the inline pool.
        let mut tickets = Vec::new();
        for i in 0..2 {
            let mut req = request("flood", "a");
            req.quality = QualityLevel::Custom(0.01 + f64::from(i) * 0.02);
            tickets.push(svc.submit(req).unwrap());
        }
        // A bare call is rejected outright…
        let err = svc.call(request("flood", "a")).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { tenant: "flood".into() });
        // …while call_with_retry backs off, lets the pool drain, and lands.
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
        // Single-flight: three devices annotate the same clip through a
        // threaded pool, yet the clip's pixels are scanned exactly once.
        let svc = AnnotationService::new(ServiceConfig { workers: 4, ..ServiceConfig::default() });
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
        for t in tickets {
            t.wait().unwrap();
        }
        let report = svc.report();
        assert_eq!(report.clip_profiles, 1, "one profile for three device keys");
        assert_eq!(report.completed, 3);
        assert_eq!(report.hits + report.misses, 3);
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
