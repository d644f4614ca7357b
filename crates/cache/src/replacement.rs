//! Replacement policies.
//!
//! The cache stores its recency bookkeeping in flat per-cache
//! [`ReplacementPlanes`] (one contiguous allocation per cache, indexed
//! `set * ways + way`). The executable specification of the replacement
//! semantics is `NaiveCache` in the `consim-check` crate: a per-set model
//! that the differential test `crates/check/tests/cache_vs_naive.rs` drives
//! against [`crate::SetAssocCache`] operation by operation under every
//! policy. The paper's machine uses "vanilla LRU"; tree-PLRU and random are
//! provided for the ablation benches (design-choice studies in DESIGN.md)
//! and to validate that the characterization trends are not an artifact of
//! true-LRU bookkeeping.

use crate::cache::corrupt;
use consim_snap::{SectionBuf, SectionReader};
use consim_types::{SimError, SimRng};

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (the paper's "vanilla-LRU").
    #[default]
    Lru,
    /// Tree pseudo-LRU (binary decision tree per set).
    TreePlru,
    /// Uniform random victim selection (seeded, deterministic).
    Random,
}

/// Flat per-cache replacement bookkeeping: one contiguous allocation for
/// *all* sets, indexed `set * ways + way` (matching the cache's tag/state
/// planes).
///
/// True LRU is O(1) per touch: instead of splicing a per-set order list, it
/// keeps a monotonic per-cache clock and stamps each way at its last touch
/// — the victim is the minimum stamp. This is exact LRU because victims are
/// only ever requested when every candidate way (the whole set for
/// [`ReplacementPlanes::victim`], the masked subset for
/// [`ReplacementPlanes::victim_in`]) holds a valid line, and every fill or
/// hit of a valid line goes through [`ReplacementPlanes::touch`]; untouched
/// ways keep their initial stamps `0..ways`, reproducing the "way 0 is the
/// first victim" cold order. Stamps are unique within a set (initial stamps
/// are distinct and the clock is strictly increasing), so the minimum is
/// unambiguous.
#[derive(Debug, Clone)]
pub(crate) enum ReplacementPlanes {
    /// True LRU: last-touch stamp per way plus the cache-wide clock.
    Lru { stamps: Vec<u64>, clock: u64 },
    /// PLRU tree bits, `ways - 1` per set; ways must be a power of two.
    TreePlru { bits: Vec<bool> },
    /// One seeded RNG per set (seed = set index), drawn only on victim
    /// picks.
    Random { rngs: Vec<SimRng> },
}

impl ReplacementPlanes {
    /// Creates fresh planes for `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, or if the policy is
    /// [`ReplacementPolicy::TreePlru`] and `ways` is not a power of two.
    pub(crate) fn new(policy: ReplacementPolicy, num_sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        match policy {
            ReplacementPolicy::Lru => {
                let mut stamps = Vec::with_capacity(num_sets * ways);
                for _ in 0..num_sets {
                    stamps.extend(0..ways as u64);
                }
                ReplacementPlanes::Lru {
                    stamps,
                    clock: ways as u64,
                }
            }
            ReplacementPolicy::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU requires power-of-two associativity, got {ways}"
                );
                ReplacementPlanes::TreePlru {
                    bits: vec![false; num_sets * (ways - 1)],
                }
            }
            ReplacementPolicy::Random => ReplacementPlanes::Random {
                rngs: (0..num_sets).map(|i| SimRng::from_seed(i as u64)).collect(),
            },
        }
    }

    /// The policy these planes implement.
    pub(crate) fn policy(&self) -> ReplacementPolicy {
        match self {
            ReplacementPlanes::Lru { .. } => ReplacementPolicy::Lru,
            ReplacementPlanes::TreePlru { .. } => ReplacementPolicy::TreePlru,
            ReplacementPlanes::Random { .. } => ReplacementPolicy::Random,
        }
    }

    /// Records a use of `way` in set `set` (hit or fill).
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize, ways: usize) {
        match self {
            ReplacementPlanes::Lru { stamps, clock } => {
                *clock += 1;
                stamps[set * ways + way] = *clock;
            }
            ReplacementPlanes::TreePlru { bits } => {
                let bits = &mut bits[set * (ways - 1)..];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way < mid {
                        bits[node] = true; // protect left, point right
                        node = 2 * node + 1;
                        hi = mid;
                    } else {
                        bits[node] = false; // protect right, point left
                        node = 2 * node + 2;
                        lo = mid;
                    }
                }
            }
            ReplacementPlanes::Random { .. } => {}
        }
    }

    /// Picks the victim way in set `set`; every way must hold a valid line.
    #[inline]
    pub(crate) fn victim(&mut self, set: usize, ways: usize) -> usize {
        match self {
            ReplacementPlanes::Lru { stamps, .. } => {
                let s = &stamps[set * ways..set * ways + ways];
                let mut best = 0usize;
                for (w, &stamp) in s.iter().enumerate().skip(1) {
                    if stamp < s[best] {
                        best = w;
                    }
                }
                best
            }
            ReplacementPlanes::TreePlru { bits } => {
                let bits = &bits[set * (ways - 1)..];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if bits[node] {
                        node = 2 * node + 2; // points right
                        lo = mid;
                    } else {
                        node = 2 * node + 1; // points left
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementPlanes::Random { rngs } => rngs[set].index(ways),
        }
    }

    /// Picks the victim among the ways allowed by `mask`; every allowed way
    /// must hold a valid line. With a full mask this selects exactly the
    /// same way (and consumes the same RNG stream) as
    /// [`ReplacementPlanes::victim`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` allows none of the set's ways.
    pub(crate) fn victim_in(&mut self, set: usize, mask: u64, ways: usize) -> usize {
        let mask = mask & ways_mask(ways);
        assert!(mask != 0, "victim mask allows no way");
        match self {
            ReplacementPlanes::Lru { stamps, .. } => {
                let s = &stamps[set * ways..set * ways + ways];
                let mut best: Option<usize> = None;
                for (w, &stamp) in s.iter().enumerate() {
                    if mask >> w & 1 == 1 && best.is_none_or(|b| stamp < s[b]) {
                        best = Some(w);
                    }
                }
                best.expect("mask selects a tracked way")
            }
            ReplacementPlanes::TreePlru { bits } => {
                let bits = &bits[set * (ways - 1)..];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let left_has = mask & range_mask(lo, mid) != 0;
                    let right_has = mask & range_mask(mid, hi) != 0;
                    let go_right = if !left_has {
                        true
                    } else if !right_has {
                        false
                    } else {
                        bits[node]
                    };
                    if go_right {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementPlanes::Random { rngs } => {
                let allowed = mask.count_ones() as usize;
                let pick = rngs[set].index(allowed);
                nth_set_bit(mask, pick)
            }
        }
    }

    /// Appends the replacement state that differs from construction (the
    /// policy tag is written by the owning cache, which also validates it
    /// on restore). `states` is the owning cache's state plane.
    ///
    /// * LRU: the clock, then the stamp of each valid slot in ascending
    ///   slot order. Stamps of invalid slots are dead — victims are only
    ///   picked among valid ways and a fill always touches (see the type
    ///   docs) — so they are not written.
    /// * Tree-PLRU: the sets whose bits are not all clear, each as its set
    ///   index and `ways - 1` bits.
    /// * Random: the sets whose stream has moved off its seed
    ///   (`SimRng::from_seed(set)`), each as its set index and the four
    ///   state words.
    pub(crate) fn save(&self, w: &mut SectionBuf, states: &[u8], ways: usize) {
        match self {
            ReplacementPlanes::Lru { stamps, clock } => {
                w.put_u64(*clock);
                for (slot, &state) in states.iter().enumerate() {
                    if state != 0 {
                        w.put_u64(stamps[slot]);
                    }
                }
            }
            ReplacementPlanes::TreePlru { bits } => {
                // A 1-way set has no tree bits (and an empty plane).
                let touched: Vec<(usize, &[bool])> = bits
                    .chunks_exact((ways - 1).max(1))
                    .enumerate()
                    .filter(|(_, set_bits)| set_bits.contains(&true))
                    .collect();
                w.put_usize(touched.len());
                for (set, set_bits) in touched {
                    w.put_usize(set);
                    for &bit in set_bits {
                        w.put_bool(bit);
                    }
                }
            }
            ReplacementPlanes::Random { rngs } => {
                let moved: Vec<(usize, &SimRng)> = rngs
                    .iter()
                    .enumerate()
                    .filter(|&(set, rng)| rng.state() != SimRng::from_seed(set as u64).state())
                    .collect();
                w.put_usize(moved.len());
                for (set, rng) in moved {
                    w.put_usize(set);
                    for word in rng.state() {
                        w.put_u64(word);
                    }
                }
            }
        }
    }

    /// Restores the planes in place from a [`ReplacementPlanes::save`]
    /// stream. `states` is the owning cache's already-restored state plane;
    /// sets the stream does not name return to their construction state.
    pub(crate) fn restore(
        &mut self,
        r: &mut SectionReader<'_>,
        states: &[u8],
        ways: usize,
    ) -> Result<(), SimError> {
        let num_sets = states.len() / ways;
        match self {
            ReplacementPlanes::Lru { stamps, clock } => {
                *clock = r.get_u64()?;
                for (slot, &state) in states.iter().enumerate() {
                    if state != 0 {
                        let stamp = r.get_u64()?;
                        if stamp > *clock {
                            return Err(corrupt(
                                r,
                                format_args!("LRU stamp {stamp} is ahead of clock {clock}"),
                            ));
                        }
                        stamps[slot] = stamp;
                    }
                }
                Ok(())
            }
            ReplacementPlanes::TreePlru { bits } => {
                bits.fill(false);
                let per_set = ways - 1;
                let mut next = 0;
                for _ in 0..sparse_count(r, num_sets, "PLRU")? {
                    let set = sparse_set(r, num_sets, &mut next, "PLRU")?;
                    for bit in &mut bits[set * per_set..(set + 1) * per_set] {
                        *bit = r.get_bool()?;
                    }
                }
                Ok(())
            }
            ReplacementPlanes::Random { rngs } => {
                for (set, rng) in rngs.iter_mut().enumerate() {
                    *rng = SimRng::from_seed(set as u64);
                }
                let mut next = 0;
                for _ in 0..sparse_count(r, num_sets, "RNG")? {
                    let set = sparse_set(r, num_sets, &mut next, "RNG")?;
                    let mut state = [0u64; 4];
                    for word in &mut state {
                        *word = r.get_u64()?;
                    }
                    rngs[set] = SimRng::restore(set as u64, state);
                }
                Ok(())
            }
        }
    }
}

/// Reads the length of a sparse per-set list; it cannot exceed the set
/// count.
fn sparse_count(r: &mut SectionReader<'_>, num_sets: usize, what: &str) -> Result<usize, SimError> {
    let count = r.get_usize()?;
    if count > num_sets {
        return Err(corrupt(
            r,
            format_args!("{count} {what} sets listed for a cache of {num_sets} sets"),
        ));
    }
    Ok(count)
}

/// Reads one set index of a sparse per-set list: in range and strictly
/// above the previous one (`next` is the lowest index still allowed).
fn sparse_set(
    r: &mut SectionReader<'_>,
    num_sets: usize,
    next: &mut usize,
    what: &str,
) -> Result<usize, SimError> {
    let set = r.get_usize()?;
    if set >= num_sets {
        return Err(corrupt(
            r,
            format_args!("{what} set index {set} outside a cache of {num_sets} sets"),
        ));
    }
    if set < *next {
        return Err(corrupt(
            r,
            format_args!("{what} set index {set} repeats or descends"),
        ));
    }
    *next = set + 1;
    Ok(set)
}

/// Bitmask covering ways `[0, ways)`.
fn ways_mask(ways: usize) -> u64 {
    if ways >= 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

/// Bitmask covering ways `[lo, hi)`.
fn range_mask(lo: usize, hi: usize) -> u64 {
    ways_mask(hi) & !ways_mask(lo)
}

/// Index of the `n`-th (0-based) set bit of `mask`.
fn nth_set_bit(mask: u64, mut n: usize) -> usize {
    let mut m = mask;
    loop {
        let bit = m.trailing_zeros() as usize;
        if n == 0 {
            return bit;
        }
        m &= m - 1;
        n -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ];

    /// Two sets of `ways` ways; the tests drive set 1, so every index
    /// goes through the `set * ways` offset.
    fn planes(policy: ReplacementPolicy, ways: usize) -> ReplacementPlanes {
        ReplacementPlanes::new(policy, 2, ways)
    }

    #[test]
    fn lru_initial_victim_is_way_zero() {
        let mut p = planes(ReplacementPolicy::Lru, 4);
        assert_eq!(p.victim(1, 4), 0);
        assert_eq!(p.victim_in(1, u64::MAX, 4), 0);
    }

    #[test]
    fn lru_touch_moves_to_front() {
        let mut p = planes(ReplacementPolicy::Lru, 4);
        for (touch, victim) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            p.touch(1, touch, 4);
            assert_eq!(p.victim(1, 4), victim, "after touching way {touch}");
        }
        // The other set is untouched: still the cold order.
        assert_eq!(p.victim(0, 4), 0);
    }

    #[test]
    fn lru_victim_is_least_recent_under_mixed_pattern() {
        let mut p = planes(ReplacementPolicy::Lru, 4);
        for w in [0, 1, 2, 3, 1, 0, 3] {
            p.touch(1, w, 4);
        }
        // Recency (most..least): 3,0,1,2 -> victim 2.
        assert_eq!(p.victim(1, 4), 2);
    }

    #[test]
    fn plru_victim_avoids_recently_touched() {
        let mut p = planes(ReplacementPolicy::TreePlru, 4);
        p.touch(1, 0, 4);
        let v = p.victim(1, 4);
        assert_ne!(v, 0);
        p.touch(1, v, 4);
        assert_ne!(p.victim(1, 4), v);
    }

    #[test]
    fn plru_cycles_through_all_ways() {
        let mut p = planes(ReplacementPolicy::TreePlru, 8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let v = p.victim(1, 8);
            seen.insert(v);
            p.touch(1, v, 8);
        }
        assert_eq!(seen.len(), 8, "PLRU should visit every way: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = planes(ReplacementPolicy::TreePlru, 6);
    }

    #[test]
    fn random_victims_are_in_range_and_deterministic() {
        let mut a = planes(ReplacementPolicy::Random, 4);
        let mut b = planes(ReplacementPolicy::Random, 4);
        for _ in 0..100 {
            let va = a.victim(1, 4);
            assert!(va < 4);
            assert_eq!(va, b.victim(1, 4));
        }
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = planes(ReplacementPolicy::Lru, 0);
    }

    #[test]
    fn masked_victim_matches_unmasked_with_full_mask() {
        for policy in POLICIES {
            let mut a = planes(policy, 8);
            let mut b = planes(policy, 8);
            for step in 0..50 {
                let va = a.victim(1, 8);
                let vb = b.victim_in(1, u64::MAX, 8);
                assert_eq!(va, vb, "{policy:?} step {step}");
                a.touch(1, va, 8);
                b.touch(1, vb, 8);
            }
        }
    }

    #[test]
    fn masked_victim_stays_inside_mask() {
        for policy in POLICIES {
            let mut p = planes(policy, 8);
            let mask = 0b0011_0100u64; // ways 2, 4, 5
            for step in 0..50 {
                let v = p.victim_in(1, mask, 8);
                assert!(mask >> v & 1 == 1, "{policy:?} step {step}: way {v}");
                p.touch(1, v, 8);
                // Touch an out-of-mask way too; it must never become victim.
                p.touch(1, 0, 8);
            }
        }
    }

    #[test]
    fn masked_lru_picks_least_recent_allowed_way() {
        let mut p = planes(ReplacementPolicy::Lru, 4);
        for w in [2, 3, 0, 1] {
            p.touch(1, w, 4);
        }
        // Recency (most..least): 1,0,3,2. Restricted to {0, 1}: victim 0.
        assert_eq!(p.victim_in(1, 0b0011, 4), 0);
        assert_eq!(p.victim(1, 4), 2);
    }

    #[test]
    #[should_panic(expected = "allows no way")]
    fn empty_mask_panics() {
        let mut p = planes(ReplacementPolicy::Lru, 4);
        let _ = p.victim_in(1, 0b1_0000, 4); // only bit 4: outside the set
    }

    #[test]
    fn plru_single_way_set() {
        // 1-way (direct mapped) degenerates gracefully: no tree bits.
        let mut p = planes(ReplacementPolicy::TreePlru, 1);
        p.touch(1, 0, 1);
        assert_eq!(p.victim(1, 1), 0);
        assert_eq!(p.victim_in(1, 1, 1), 0);
    }
}
