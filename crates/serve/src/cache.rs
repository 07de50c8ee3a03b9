//! The content-addressed annotation cache.
//!
//! §4 of the paper: "the video clips available for streaming at the
//! servers are first profiled, processed and annotated" — i.e. the
//! expensive work happens once per *(content, device class, quality,
//! mode)* and is reused across every client that matches. This cache is
//! that reuse made explicit:
//!
//! * **Content-addressed keys.** [`CacheKey`] starts from a clip
//!   *digest* ([`annolight_core::digest::clip_digest`]), not a name: two
//!   tenants streaming the same bytes share one entry, and re-registered
//!   content can never serve a stale track.
//! * **Sharded N ways.** Each shard is an independently locked map, and
//!   a key's shard is a pure function of its hash, so concurrent workers
//!   rarely contend on the same [`Mutex`].
//! * **LRU + byte budget.** Every resident [`AnnotationTrack`] is
//!   accounted at [`AnnotationTrack::resident_bytes`]; when a shard
//!   exceeds its share of the byte budget the least-recently-*hit* entry
//!   is evicted. The most recently hit entry is never evicted (even a
//!   single over-budget entry stays: evicting the thing just asked for
//!   would guarantee thrashing).

use annolight_core::track::{AnnotationMode, AnnotationTrack};
use annolight_core::{PolicyKind, QualityLevel};
use annolight_support::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The full identity of a cached annotation track.
///
/// Quality is keyed by its clip fraction in fixed point (`⌊fraction ·
/// 10⁴⌋`, the same resolution as the RLE wire format), so `Q10` and
/// `Custom(0.10)` — identical requests — share an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content digest of the clip (see [`annolight_core::digest`]).
    pub clip_digest: u64,
    /// Device profile name the track was computed for.
    pub device: String,
    /// Quality level in fixed point (fraction × 10⁴).
    pub quality_key: u16,
    /// Per-scene or per-frame annotation.
    pub mode: AnnotationMode,
    /// Annotation-policy backend the track was planned with. Part of the
    /// key so cached tracks never cross policies: a HEBS track and a
    /// peak-clip track for the same bytes are different artefacts.
    pub policy: PolicyKind,
}

impl CacheKey {
    /// Builds a key from request parameters.
    #[must_use]
    pub fn new(
        clip_digest: u64,
        device: &str,
        quality: QualityLevel,
        mode: AnnotationMode,
        policy: PolicyKind,
    ) -> Self {
        Self {
            clip_digest,
            device: device.to_owned(),
            quality_key: (quality.clip_fraction() * 10_000.0).round() as u16,
            mode,
            policy,
        }
    }

    /// Deterministic 64-bit hash of the key (FNV-1a; stable across runs,
    /// unlike `DefaultHasher`). Drives shard selection.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut d = annolight_core::digest::Digester::new();
        d.write_u64(self.clip_digest)
            .write(self.device.as_bytes())
            .write_u32(u32::from(self.quality_key))
            .write_u32(match self.mode {
                AnnotationMode::PerScene => 0,
                AnnotationMode::PerFrame => 1,
            })
            .write_u32(u32::from(self.policy.id()));
        d.finish()
    }
}

#[derive(Debug)]
struct Entry {
    track: Arc<AnnotationTrack>,
    /// Cost charged against the shard's byte budget.
    bytes: usize,
    /// Shard tick at the last hit (or insertion).
    last_hit: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    /// Monotonic recency clock; bumped on every touch.
    tick: u64,
    /// Bytes currently resident in this shard.
    bytes: usize,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-hit entries until `bytes <= budget`, never
    /// evicting the entry whose tick is the current maximum (the most
    /// recently hit one). Returns the number of evictions.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget && self.entries.len() > 1 {
            let key = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_hit)
                .map(|(k, _)| k.clone())
                .expect("non-empty shard has a minimum");
            let entry = self.entries.remove(&key).expect("key just observed");
            self.bytes -= entry.bytes;
            evicted += 1;
        }
        evicted
    }
}

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub resident: usize,
    /// Bytes currently resident (sum of entry costs).
    pub resident_bytes: usize,
}

/// The sharded LRU cache. Cheap to share (`Arc`) across workers.
#[derive(Debug)]
pub struct AnnotationCache {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget per shard (total budget / shard count, rounded up).
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl AnnotationCache {
    /// Creates a cache with `shards` independent shards and a total byte
    /// budget of `byte_budget` split evenly across them.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize, byte_budget: usize) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: byte_budget.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.digest() % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<AnnotationTrack>> {
        let mut shard = self.shard_of(key).lock();
        let tick = shard.touch();
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.last_hit = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.track))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, charging
    /// [`AnnotationTrack::resident_bytes`] against the shard budget and
    /// evicting least-recently-hit entries as needed.
    pub fn insert(&self, key: CacheKey, track: Arc<AnnotationTrack>) {
        let bytes = track.resident_bytes();
        let mut shard = self.shard_of(&key).lock();
        let tick = shard.touch();
        if let Some(old) = shard.entries.insert(key, Entry { track, bytes, last_hit: tick }) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        let evicted = shard.evict_to(self.shard_budget);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Whether `key` is resident *without* touching recency or counters
    /// (for tests and introspection).
    #[must_use]
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.shard_of(key).lock().entries.contains_key(key)
    }

    /// Aggregate statistics across all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut resident = 0;
        let mut resident_bytes = 0;
        for s in &self.shards {
            let s = s.lock();
            resident += s.entries.len();
            resident_bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident,
            resident_bytes,
        }
    }

    /// Sum of `resident_bytes()` over every resident track, recomputed
    /// from the entries themselves (not the running counter). Tests
    /// compare this against [`CacheStats::resident_bytes`] to prove the
    /// accounting never drifts.
    #[must_use]
    pub fn recount_resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().entries.values().map(|e| e.track.resident_bytes()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_core::track::AnnotationEntry;
    use annolight_display::BacklightLevel;

    fn track(frames: u32, entries: u32) -> Arc<AnnotationTrack> {
        let step = (frames / entries.max(1)).max(1);
        let entries: Vec<AnnotationEntry> = (0..entries)
            .map(|i| AnnotationEntry {
                start_frame: i * step,
                backlight: BacklightLevel((40 + i * 7 % 200) as u8),
                compensation: 1.0 + (i as f32) * 0.01,
                effective_max_luma: 200,
            })
            .take_while(|e| e.start_frame < frames)
            .collect();
        Arc::new(
            AnnotationTrack::new(
                "ipaq-5555",
                QualityLevel::Q10,
                AnnotationMode::PerScene,
                12.0,
                frames,
                entries,
            )
            .unwrap(),
        )
    }

    fn key(n: u64) -> CacheKey {
        CacheKey::new(n, "ipaq-5555", QualityLevel::Q10, AnnotationMode::PerScene, PolicyKind::PeakClip)
    }

    #[test]
    fn hit_after_insert() {
        let cache = AnnotationCache::new(4, 1 << 20);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), track(100, 4));
        let got = cache.get(&key(1)).expect("resident");
        assert_eq!(got.frame_count(), 100);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.resident), (1, 1, 1));
    }

    #[test]
    fn distinct_dimensions_are_distinct_entries() {
        let cache = AnnotationCache::new(4, 1 << 20);
        let base = key(1);
        cache.insert(base.clone(), track(100, 4));
        let other_device = CacheKey::new(
            1, "zaurus-sl5600", QualityLevel::Q10, AnnotationMode::PerScene, PolicyKind::PeakClip,
        );
        let other_quality = CacheKey::new(
            1, "ipaq-5555", QualityLevel::Q20, AnnotationMode::PerScene, PolicyKind::PeakClip,
        );
        let other_mode = CacheKey::new(
            1, "ipaq-5555", QualityLevel::Q10, AnnotationMode::PerFrame, PolicyKind::PeakClip,
        );
        assert!(cache.get(&other_device).is_none());
        assert!(cache.get(&other_quality).is_none());
        assert!(cache.get(&other_mode).is_none());
        assert!(cache.get(&base).is_some());
    }

    #[test]
    fn policy_keyed_entries_never_collide() {
        // Tentpole guarantee: a cached track can never be served to a
        // request planned under a different policy backend.
        let cache = AnnotationCache::new(4, 1 << 20);
        for p in PolicyKind::ALL {
            let k = CacheKey::new(7, "ipaq-5555", QualityLevel::Q10, AnnotationMode::PerScene, p);
            assert!(cache.get(&k).is_none());
            cache.insert(k, track(100, 4));
        }
        assert_eq!(cache.stats().resident, 3, "one entry per policy");
        for p in PolicyKind::ALL {
            for q in PolicyKind::ALL {
                let kp = CacheKey::new(7, "ipaq-5555", QualityLevel::Q10, AnnotationMode::PerScene, p);
                let kq = CacheKey::new(7, "ipaq-5555", QualityLevel::Q10, AnnotationMode::PerScene, q);
                assert_eq!(kp == kq, p == q);
                assert_eq!(kp.digest() == kq.digest(), p == q, "{p:?} vs {q:?}");
            }
        }
    }

    #[test]
    fn named_and_custom_quality_share_an_entry() {
        let cache = AnnotationCache::new(2, 1 << 20);
        cache.insert(key(9), track(50, 2));
        let custom = CacheKey::new(
            9, "ipaq-5555", QualityLevel::Custom(0.10), AnnotationMode::PerScene, PolicyKind::PeakClip,
        );
        assert!(cache.get(&custom).is_some(), "Q10 and Custom(0.10) must alias");
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let one = track(100, 8);
        let unit = one.resident_bytes();
        // Budget for ~3 tracks in one shard.
        let cache = AnnotationCache::new(1, unit * 3 + unit / 2);
        for i in 0..4 {
            cache.insert(key(i), track(100, 8));
        }
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident, 3);
        assert!(!cache.contains(&key(0)), "oldest entry evicted");
        assert!(cache.contains(&key(3)), "newest entry resident");
        assert!(s.resident_bytes <= unit * 3 + unit / 2);
    }

    #[test]
    fn hit_refreshes_recency() {
        let unit = track(100, 8).resident_bytes();
        let cache = AnnotationCache::new(1, unit * 2 + unit / 2);
        cache.insert(key(0), track(100, 8));
        cache.insert(key(1), track(100, 8));
        assert!(cache.get(&key(0)).is_some()); // 0 is now most recent
        cache.insert(key(2), track(100, 8)); // must evict 1, not 0
        assert!(cache.contains(&key(0)));
        assert!(!cache.contains(&key(1)));
        assert!(cache.contains(&key(2)));
    }

    #[test]
    fn single_oversize_entry_stays_resident() {
        let cache = AnnotationCache::new(1, 8); // absurdly small budget
        cache.insert(key(5), track(200, 16));
        assert!(cache.contains(&key(5)), "the only (most-recent) entry is never evicted");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn replacement_does_not_leak_bytes() {
        let cache = AnnotationCache::new(1, 1 << 20);
        cache.insert(key(1), track(100, 8));
        cache.insert(key(1), track(100, 8));
        let s = cache.stats();
        assert_eq!(s.resident, 1);
        assert_eq!(s.resident_bytes, cache.recount_resident_bytes());
    }

    #[test]
    fn sharding_spreads_keys() {
        let cache = AnnotationCache::new(8, 1 << 24);
        for i in 0..64 {
            cache.insert(key(i), track(20, 2));
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.lock().entries.is_empty())
            .count();
        assert!(populated >= 4, "64 keys should touch most of 8 shards, got {populated}");
    }
}
