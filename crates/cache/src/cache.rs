//! A whole set-associative cache, stored as flat struct-of-arrays planes.
//!
//! Storage is three contiguous per-cache planes indexed `set * ways + way`:
//! a `u64` tag plane, a `u8` state plane (0 encodes Invalid — the slot is
//! empty), and the replacement planes ([`ReplacementPlanes`]). A set probe
//! is a stride-limited scan over adjacent words instead of pointer-chasing
//! `Option<CacheLine>`, which is what the engine's hot path spends most of
//! its time doing. The executable specification is `NaiveCache` in the
//! `consim-check` crate, a per-set model written for clarity; the
//! differential test `crates/check/tests/cache_vs_naive.rs` pins this
//! implementation to it operation by operation under every policy.

use crate::line::{CacheLine, LineState};
use crate::replacement::{ReplacementPlanes, ReplacementPolicy};
use crate::stats::CacheStats;
use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::{BlockAddr, CacheGeometry, SimError, SnapshotErrorKind};

/// Encodes a state for the state plane (Invalid = 0 marks an empty slot).
#[inline]
const fn encode(state: LineState) -> u8 {
    match state {
        LineState::Invalid => 0,
        LineState::Shared => 1,
        LineState::Exclusive => 2,
        LineState::Modified => 3,
    }
}

/// Decodes a state-plane byte known to be a valid encoding.
#[inline]
const fn decode(v: u8) -> LineState {
    match v {
        1 => LineState::Shared,
        2 => LineState::Exclusive,
        3 => LineState::Modified,
        _ => LineState::Invalid,
    }
}

/// A set-associative cache keyed by [`BlockAddr`].
///
/// Models every level of the paper's hierarchy: private L0s/L1s and LLC
/// banks of any sharing degree. Indexing uses the low bits of the block
/// address; tags are full block addresses (so lines of different VMs never
/// alias, matching the machine's physical tagging).
///
/// # Examples
///
/// ```
/// use consim_cache::{LineState, ReplacementPolicy, SetAssocCache};
/// use consim_types::{BlockAddr, CacheGeometry};
///
/// // The paper's 1 MB private LLC partition: 16-way, 6-cycle.
/// let geom = CacheGeometry::new(1 << 20, 16, 6)?;
/// let mut llc = SetAssocCache::new(geom, ReplacementPolicy::Lru);
/// llc.insert(BlockAddr::new(3), LineState::Exclusive);
/// assert!(llc.contains(BlockAddr::new(3)));
/// assert_eq!(llc.stats().insertions, 1);
/// # Ok::<(), consim_types::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    num_sets: usize,
    ways: usize,
    /// `Some(num_sets - 1)` when the set count is a power of two, so the
    /// index is a mask instead of a division.
    set_mask: Option<u64>,
    /// Tag plane: the block address cached in each slot. Slots whose state
    /// is Invalid keep their last tag (never read — guarded by the state).
    tags: Vec<u64>,
    /// State plane: 0 = Invalid/empty, 1 = Shared, 2 = Exclusive,
    /// 3 = Modified.
    states: Vec<u8>,
    repl: ReplacementPlanes,
    /// Valid-line count, maintained incrementally (O(1) `occupancy`).
    occupancy: usize,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and policy.
    ///
    /// Random replacement draws from a stream seeded by the set index, so
    /// two identically-configured caches behave identically.
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let num_sets = geometry.num_sets();
        let ways = geometry.associativity;
        let set_mask = num_sets.is_power_of_two().then_some(num_sets as u64 - 1);
        Self {
            geometry,
            num_sets,
            ways,
            set_mask,
            tags: vec![0; num_sets * ways],
            states: vec![0; num_sets * ways],
            repl: ReplacementPlanes::new(policy, num_sets, ways),
            occupancy: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.geometry.latency
    }

    /// The set index for a block.
    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        match self.set_mask {
            Some(mask) => (block.raw() & mask) as usize,
            None => (block.raw() % self.num_sets as u64) as usize,
        }
    }

    /// Finds the way of `set` holding `block`, if any.
    #[inline]
    fn way_of(&self, set: usize, raw: u64) -> Option<usize> {
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let states = &self.states[base..base + self.ways];
        (0..self.ways).find(|&w| states[w] != 0 && tags[w] == raw)
    }

    /// Looks up a block without modifying recency or statistics.
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Option<LineState> {
        let set = self.set_index(block);
        self.way_of(set, block.raw())
            .map(|w| decode(self.states[set * self.ways + w]))
    }

    /// Whether the block is present.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.probe(block).is_some()
    }

    /// Performs a demand access: updates recency and hit/miss statistics.
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> Option<LineState> {
        let set = self.set_index(block);
        match self.way_of(set, block.raw()) {
            Some(w) => {
                self.repl.touch(set, w, self.ways);
                self.stats.hits += 1;
                Some(decode(self.states[set * self.ways + w]))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Changes the state of a present block; returns `false` if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        let set = self.set_index(block);
        match self.way_of(set, block.raw()) {
            Some(w) => {
                let idx = set * self.ways + w;
                if state.is_valid() {
                    self.states[idx] = encode(state);
                } else {
                    self.states[idx] = 0;
                    self.occupancy -= 1;
                }
                true
            }
            None => false,
        }
    }

    /// Fills a block, evicting a victim if the set is full.
    ///
    /// Returns the evicted line, if any (dirty victims need a writeback —
    /// the caller decides where it goes). Dirty evictions are also counted
    /// in [`CacheStats::dirty_evictions`].
    pub fn insert(&mut self, block: BlockAddr, state: LineState) -> Option<CacheLine> {
        self.insert_masked(block, state, u64::MAX, false)
    }

    /// Fills a block, allocating only into the ways allowed by `mask`
    /// (bit `w` set means way `w` is allowed) — the way-partitioned
    /// counterpart of [`SetAssocCache::insert`]. Lookups and invalidations
    /// remain unrestricted; only allocation is confined.
    ///
    /// # Panics
    ///
    /// Panics if `mask` allows none of the set's ways.
    pub fn insert_in_ways(
        &mut self,
        block: BlockAddr,
        state: LineState,
        mask: u64,
    ) -> Option<CacheLine> {
        self.insert_masked(block, state, mask, true)
    }

    /// Shared fill path. `masked` only selects the replacement entry point:
    /// with a full mask both pick the same way and draw the same RNG stream
    /// (`index(ways)`), so plain inserts take the cheaper unmasked scan.
    fn insert_masked(
        &mut self,
        block: BlockAddr,
        state: LineState,
        mask: u64,
        masked: bool,
    ) -> Option<CacheLine> {
        debug_assert!(state.is_valid(), "inserting an invalid line");
        let raw = block.raw();
        let set = self.set_index(block);
        let base = set * self.ways;
        self.stats.insertions += 1;
        if let Some(w) = self.way_of(set, raw) {
            // Present anywhere in the set (even outside the mask): update
            // in place, no eviction.
            self.states[base + w] = encode(state);
            self.repl.touch(set, w, self.ways);
            return None;
        }
        // Lowest allowed free way.
        if let Some(w) = (0..self.ways).find(|&w| mask >> w & 1 == 1 && self.states[base + w] == 0)
        {
            self.tags[base + w] = raw;
            self.states[base + w] = encode(state);
            self.repl.touch(set, w, self.ways);
            self.occupancy += 1;
            return None;
        }
        let w = if masked {
            self.repl.victim_in(set, mask, self.ways)
        } else {
            self.repl.victim(set, self.ways)
        };
        let victim = CacheLine::new(
            BlockAddr::new(self.tags[base + w]),
            decode(self.states[base + w]),
        );
        self.tags[base + w] = raw;
        self.states[base + w] = encode(state);
        self.repl.touch(set, w, self.ways);
        self.stats.evictions += 1;
        if victim.state.is_dirty() {
            self.stats.dirty_evictions += 1;
        }
        Some(victim)
    }

    /// Removes a block (coherence invalidation); returns the removed line.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<CacheLine> {
        let set = self.set_index(block);
        let w = self.way_of(set, block.raw())?;
        let idx = set * self.ways + w;
        let removed = CacheLine::new(block, decode(self.states[idx]));
        self.states[idx] = 0;
        self.occupancy -= 1;
        self.stats.invalidations += 1;
        Some(removed)
    }

    /// Iterates over every valid line (for snapshot metrics).
    pub fn lines(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(i, &s)| CacheLine::new(BlockAddr::new(self.tags[i]), decode(s)))
    }

    /// Number of valid lines currently stored.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.geometry.num_lines()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents) — used for post-warmup measurement.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// The snapshot tag of a replacement policy.
fn policy_tag(policy: ReplacementPolicy) -> u8 {
    match policy {
        ReplacementPolicy::Lru => 0,
        ReplacementPolicy::TreePlru => 1,
        ReplacementPolicy::Random => 2,
    }
}

/// A [`SnapshotErrorKind::Corrupt`] error naming the section being read.
pub(crate) fn corrupt(r: &SectionReader<'_>, msg: impl std::fmt::Display) -> SimError {
    SimError::snapshot(
        SnapshotErrorKind::Corrupt,
        format!("section '{}': {msg}", r.name()),
    )
}

/// Sparse against construction: only state that differs from what
/// [`SetAssocCache::new`] builds is written, so a checkpoint's size follows
/// the live lines rather than the capacity. The valid slots go first, as
/// `(slot index, tag, state)` in ascending slot order; the tags of invalid
/// slots are dead (every read is guarded by the state byte) and are not
/// written. The replacement planes follow (see [`ReplacementPlanes::save`]).
///
/// Restore validates the stream and scatters it into the planes; every
/// slot the stream does not name comes back Invalid.
impl Snapshot for SetAssocCache {
    fn save(&self, w: &mut SectionBuf) {
        w.put_usize(self.num_sets);
        w.put_u8(policy_tag(self.repl.policy()));
        w.put_usize(self.occupancy);
        for (slot, &state) in self.states.iter().enumerate() {
            if state != 0 {
                w.put_usize(slot);
                w.put_u64(self.tags[slot]);
                w.put_u8(state);
            }
        }
        self.repl.save(w, &self.states, self.ways);
        self.stats.save(w);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        r.expect_len(self.num_sets, "cache sets")?;
        let tag = r.get_u8()?;
        if tag != policy_tag(self.repl.policy()) {
            return Err(corrupt(
                r,
                format_args!("replacement-policy tag {tag} does not match configured policy"),
            ));
        }
        let slots = self.states.len();
        let count = r.get_usize()?;
        if count > slots {
            return Err(corrupt(
                r,
                format_args!("{count} valid slots in a cache of {slots}"),
            ));
        }
        self.states.fill(0);
        // The lowest slot index the next record may name: indices must
        // strictly ascend, which also rules out repeats.
        let mut next = 0;
        for _ in 0..count {
            let slot = r.get_usize()?;
            if slot >= slots {
                return Err(corrupt(
                    r,
                    format_args!("slot index {slot} outside a cache of {slots}"),
                ));
            }
            if slot < next {
                return Err(corrupt(
                    r,
                    format_args!("slot index {slot} repeats or descends"),
                ));
            }
            let tag = r.get_u64()?;
            if self.set_index(BlockAddr::new(tag)) != slot / self.ways {
                return Err(corrupt(
                    r,
                    format_args!("tag {tag} does not map to the set of slot {slot}"),
                ));
            }
            let state = r.get_u8()?;
            if !(1..=3).contains(&state) {
                return Err(corrupt(
                    r,
                    format_args!("invalid line-state tag {state} for slot {slot}"),
                ));
            }
            self.tags[slot] = tag;
            self.states[slot] = state;
            next = slot + 1;
        }
        self.occupancy = count;
        self.repl.restore(r, &self.states, self.ways)?;
        self.stats.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: usize, sets: usize) -> SetAssocCache {
        let geom = CacheGeometry::new(ways * sets * 64, ways, 1).unwrap();
        SetAssocCache::new(geom, ReplacementPolicy::Lru)
    }

    #[test]
    fn geometry_derives_set_count() {
        let c = small_cache(4, 16);
        assert_eq!(c.capacity(), 64);
        assert_eq!(c.geometry().num_sets(), 16);
    }

    #[test]
    fn blocks_map_to_distinct_sets_by_low_bits() {
        let mut c = small_cache(1, 4); // direct-mapped, 4 sets
        for n in 0..4 {
            c.insert(BlockAddr::new(n), LineState::Shared);
        }
        assert_eq!(c.occupancy(), 4);
        // Block 4 conflicts with block 0.
        let victim = c.insert(BlockAddr::new(4), LineState::Shared).unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
    }

    #[test]
    fn access_counts_hits_and_misses() {
        let mut c = small_cache(2, 2);
        assert!(c.access(BlockAddr::new(5)).is_none());
        c.insert(BlockAddr::new(5), LineState::Exclusive);
        assert!(c.access(BlockAddr::new(5)).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dirty_eviction_counted() {
        let mut c = small_cache(1, 1);
        c.insert(BlockAddr::new(1), LineState::Modified);
        let victim = c.insert(BlockAddr::new(2), LineState::Shared).unwrap();
        assert!(victim.state.is_dirty());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn invalidate_counts_only_hits() {
        let mut c = small_cache(2, 2);
        c.insert(BlockAddr::new(1), LineState::Shared);
        assert!(c.invalidate(BlockAddr::new(1)).is_some());
        assert!(c.invalidate(BlockAddr::new(1)).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_cache(2, 4);
        for n in 0..100 {
            c.insert(BlockAddr::new(n), LineState::Shared);
            assert!(c.occupancy() <= c.capacity());
        }
        assert_eq!(c.occupancy(), c.capacity());
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = small_cache(2, 2);
        c.insert(BlockAddr::new(1), LineState::Shared);
        c.access(BlockAddr::new(1));
        c.reset_stats();
        assert_eq!(c.stats().hits, 0);
        assert!(c.contains(BlockAddr::new(1)));
    }

    #[test]
    fn lines_reports_all_valid_lines() {
        let mut c = small_cache(2, 2);
        c.insert(BlockAddr::new(1), LineState::Shared);
        c.insert(BlockAddr::new(2), LineState::Modified);
        assert_eq!(c.lines().count(), 2);
    }

    #[test]
    fn non_power_of_two_set_counts_still_index_correctly() {
        // 3 sets: the modulo fallback path (no pow2 mask).
        let mut c = small_cache(2, 3);
        for n in 0..6 {
            c.insert(BlockAddr::new(n), LineState::Shared);
        }
        assert_eq!(c.occupancy(), 6);
        for n in 0..6 {
            assert!(c.contains(BlockAddr::new(n)), "block {n} missing");
        }
        // Block 6 conflicts with set 0 = {0, 3}; LRU victim is 0.
        let victim = c.insert(BlockAddr::new(6), LineState::Shared).unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
    }

    #[test]
    fn stale_tags_of_invalidated_slots_never_resurface() {
        let mut c = small_cache(2, 1);
        c.insert(BlockAddr::new(1), LineState::Shared);
        c.invalidate(BlockAddr::new(1));
        // The tag plane still holds 1, but the slot is Invalid.
        assert!(!c.contains(BlockAddr::new(1)));
        assert!(c.access(BlockAddr::new(1)).is_none());
        assert_eq!(c.lines().count(), 0);
    }

    #[test]
    fn masked_insert_partitions_ways_per_caller() {
        let mut c = small_cache(4, 1);
        // Two "VMs" share the set, two ways each; a conflict must never
        // cross the partition boundary.
        c.insert_in_ways(BlockAddr::new(0), LineState::Shared, 0b0011);
        c.insert_in_ways(BlockAddr::new(1), LineState::Shared, 0b0011);
        c.insert_in_ways(BlockAddr::new(10), LineState::Shared, 0b1100);
        c.insert_in_ways(BlockAddr::new(11), LineState::Shared, 0b1100);
        assert_eq!(c.occupancy(), 4);
        let victim = c
            .insert_in_ways(BlockAddr::new(2), LineState::Shared, 0b0011)
            .unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
        assert!(c.contains(BlockAddr::new(10)) && c.contains(BlockAddr::new(11)));
        assert_eq!(c.stats().insertions, 5);
        assert_eq!(c.stats().evictions, 1);
    }

    /// Pins the repartitioning contract from the dynamic QoS controller's
    /// point of view: when a caller's way mask *shrinks* while its lines
    /// are resident, nothing is flushed. Stale lines in lost ways keep
    /// hitting (lookups are unrestricted), re-inserts of a stale block
    /// update it in place without evicting, and the line is displaced only
    /// when the way's new owner allocates over it.
    #[test]
    fn mask_shrink_keeps_stale_lines_until_the_new_owner_displaces_them() {
        let mut c = small_cache(4, 1);
        // VM A owns ways {0,1} and fills both.
        c.insert_in_ways(BlockAddr::new(0), LineState::Shared, 0b0011);
        c.insert_in_ways(BlockAddr::new(1), LineState::Shared, 0b0011);
        // Repartition: A -> {0}, B -> {1,2,3}. Block 1 is now stale in
        // B's territory — but it still hits.
        assert!(c.access(BlockAddr::new(1)).is_some());
        // Re-inserting the stale block under A's shrunken mask updates in
        // place: no eviction, no duplicate.
        assert!(c
            .insert_in_ways(BlockAddr::new(1), LineState::Modified, 0b0001)
            .is_none());
        assert_eq!(c.occupancy(), 2);
        // A's next *new* fill is confined to way 0 and must victimize
        // block 0, never the stale line in way 1.
        let victim = c
            .insert_in_ways(BlockAddr::new(2), LineState::Shared, 0b0001)
            .unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
        assert!(c.contains(BlockAddr::new(1)));
        // B fills its three ways: the two free ways go first, then the
        // stale block 1 (the LRU line inside B's mask) is displaced.
        assert!(c
            .insert_in_ways(BlockAddr::new(10), LineState::Shared, 0b1110)
            .is_none());
        assert!(c
            .insert_in_ways(BlockAddr::new(11), LineState::Shared, 0b1110)
            .is_none());
        let victim = c
            .insert_in_ways(BlockAddr::new(12), LineState::Shared, 0b1110)
            .unwrap();
        assert_eq!(victim.block, BlockAddr::new(1));
        assert!(victim.state.is_dirty(), "stale dirty line evicts dirty");
        assert!(c.contains(BlockAddr::new(2)), "A's line is untouched");
    }

    /// The growing side of a repartition: a way granted to a new owner
    /// arrives still holding the previous owner's line, which the new
    /// owner victimizes through normal replacement — no flush on either
    /// side of the mask change.
    #[test]
    fn mask_grow_victimizes_the_previous_owners_line_naturally() {
        let mut c = small_cache(4, 1);
        c.insert_in_ways(BlockAddr::new(0), LineState::Shared, 0b0001); // A
        c.insert_in_ways(BlockAddr::new(10), LineState::Shared, 0b1110); // B
        c.insert_in_ways(BlockAddr::new(11), LineState::Shared, 0b1110);
        c.insert_in_ways(BlockAddr::new(12), LineState::Shared, 0b1110);
        // Repartition: A -> {0,1}; way 1 still holds B's block 10. Keep
        // A's own line recent so the stale line is the LRU choice.
        assert!(c.access(BlockAddr::new(0)).is_some());
        let victim = c
            .insert_in_ways(BlockAddr::new(1), LineState::Shared, 0b0011)
            .unwrap();
        assert_eq!(victim.block, BlockAddr::new(10));
        assert!(c.contains(BlockAddr::new(0)));
        assert!(c.contains(BlockAddr::new(11)) && c.contains(BlockAddr::new(12)));
    }

    #[test]
    fn snapshot_round_trip_preserves_contents_recency_and_stats() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Random,
        ] {
            let geom = CacheGeometry::new(4 * 4 * 64, 4, 1).unwrap();
            let mut c = SetAssocCache::new(geom, policy);
            for n in 0..40 {
                c.insert(BlockAddr::new(n * 3), LineState::Modified);
                c.access(BlockAddr::new(n));
            }
            let mut buf = SectionBuf::new();
            c.save(&mut buf);
            let mut back = SetAssocCache::new(geom, policy);
            back.restore(&mut SectionReader::new("cache-lines", buf.as_bytes()))
                .unwrap();
            assert_eq!(back.stats(), c.stats(), "{policy:?}");
            assert_eq!(back.occupancy(), c.occupancy(), "{policy:?}");
            // Same contents and same future behaviour (recency + RNG state).
            for n in 40..80 {
                let va = c.insert(BlockAddr::new(n), LineState::Shared);
                let vb = back.insert(BlockAddr::new(n), LineState::Shared);
                assert_eq!(va, vb, "{policy:?} insert {n}");
            }
        }
    }

    #[test]
    fn snapshot_restore_rejects_wrong_shape() {
        let geom = CacheGeometry::new(4 * 4 * 64, 4, 1).unwrap();
        let c = SetAssocCache::new(geom, ReplacementPolicy::Lru);
        let mut buf = SectionBuf::new();
        c.save(&mut buf);
        let other_geom = CacheGeometry::new(4 * 8 * 64, 4, 1).unwrap();
        let mut other = SetAssocCache::new(other_geom, ReplacementPolicy::Lru);
        let err = other
            .restore(&mut SectionReader::new("cache-lines", buf.as_bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("cache sets"), "{err}");
        // Policy mismatch is also typed, not a panic.
        let mut plru = SetAssocCache::new(geom, ReplacementPolicy::TreePlru);
        let err = plru
            .restore(&mut SectionReader::new("cache-lines", buf.as_bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("policy"), "{err}");
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = small_cache(2, 1);
        c.insert(BlockAddr::new(1), LineState::Shared);
        c.insert(BlockAddr::new(2), LineState::Shared);
        // Probing 1 must NOT protect it.
        assert!(c.probe(BlockAddr::new(1)).is_some());
        let victim = c.insert(BlockAddr::new(3), LineState::Shared).unwrap();
        assert_eq!(victim.block, BlockAddr::new(1));
    }
}
