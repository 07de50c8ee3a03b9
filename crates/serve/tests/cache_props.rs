//! Property tests for the sharded annotation cache, driven by
//! [`annolight_support::check`]: random operation tapes, deterministic
//! seeds, replayable via `ANNOLIGHT_CHECK_SEED`.

use annolight_core::track::{AnnotationEntry, AnnotationMode, AnnotationTrack};
use annolight_core::QualityLevel;
use annolight_display::BacklightLevel;
use annolight_serve::{AnnotationCache, CacheKey};
use std::sync::Arc;

/// A small but size-varied annotation track (`entries` controls the
/// resident byte cost).
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
    CacheKey::new(
        n,
        &annolight_display::DeviceProfile::ipaq_5555(),
        QualityLevel::Q10,
        AnnotationMode::PerScene,
        annolight_core::PolicyKind::PeakClip,
    )
}

annolight_support::check! {
    /// After touching a key (insert, or get that hits), that key is
    /// resident: eviction never drops the most-recently-hit entry, no
    /// matter how tight the byte budget or how keys land on shards.
    fn eviction_never_drops_most_recent_hit(g) {
        let shards = g.draw(1usize..=4);
        let unit = track(60, 6).resident_bytes();
        // Budgets from "smaller than one entry" up to ~6 entries/shard.
        let budget = g.draw(unit / 2..unit * 6) * shards;
        let cache = AnnotationCache::new(shards, budget);
        let universe: u64 = g.draw(2u64..=12);
        for _ in 0..g.draw(10usize..80) {
            let k = g.draw(0..universe);
            if g.any::<bool>() {
                cache.insert(key(k), track(60, g.draw(1u32..=10)));
                assert!(
                    cache.contains(&key(k)),
                    "key {k} evicted by its own insert (budget {budget}, {shards} shards)"
                );
            } else if cache.get(&key(k)).is_some() {
                assert!(
                    cache.contains(&key(k)),
                    "key {k} evicted immediately after a hit"
                );
            }
        }
    }

    /// The running byte counter always equals the recomputed sum of
    /// `resident_bytes()` over resident tracks — replacements and
    /// evictions never leak or double-count.
    fn byte_accounting_matches_recount(g) {
        let shards = g.draw(1usize..=4);
        let unit = track(60, 6).resident_bytes();
        let budget = g.draw(unit..unit * 5) * shards;
        let cache = AnnotationCache::new(shards, budget);
        for _ in 0..g.draw(10usize..60) {
            let k = g.draw(0u64..8);
            if g.any::<bool>() {
                cache.insert(key(k), track(60, g.draw(1u32..=10)));
            } else {
                let _ = cache.get(&key(k));
            }
            let stats = cache.stats();
            assert_eq!(
                stats.resident_bytes,
                cache.recount_resident_bytes(),
                "byte accounting drifted after touching key {k}"
            );
            assert!(
                stats.resident_bytes <= budget.div_ceil(shards) * shards + unit * 10,
                "resident bytes wildly over budget"
            );
        }
    }

    /// Hits + misses equals the number of lookups, and eviction count
    /// never exceeds insert count.
    fn counter_conservation(g) {
        let cache = AnnotationCache::new(2, track(60, 6).resident_bytes() * 4);
        let mut lookups = 0u64;
        let mut inserts = 0u64;
        for _ in 0..g.draw(5usize..50) {
            let k = g.draw(0u64..6);
            if g.any::<bool>() {
                cache.insert(key(k), track(60, 4));
                inserts += 1;
            } else {
                let _ = cache.get(&key(k));
                lookups += 1;
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        assert!(stats.evictions <= inserts);
    }
}
