//! The sparse snapshot codec of [`SetAssocCache`]: round trips under every
//! replacement policy after interleaved fills, hits and invalidations, and
//! typed [`SnapshotErrorKind::Corrupt`] errors (never panics) for crafted
//! payloads that break the layout's rules.

use consim_cache::{CacheStats, LineState, ReplacementPolicy, SetAssocCache};
use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::rng::SimRng;
use consim_types::{BlockAddr, CacheGeometry, SimError, SnapshotErrorKind};

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::TreePlru,
    ReplacementPolicy::Random,
];

/// 4 sets × 4 ways: small enough to fill, evict and craft by hand.
const SETS: usize = 4;
const WAYS: usize = 4;

fn cache(policy: ReplacementPolicy) -> SetAssocCache {
    let geometry = CacheGeometry::new(SETS * WAYS * 64, WAYS, 1).unwrap();
    SetAssocCache::new(geometry, policy)
}

fn save(c: &SetAssocCache) -> Vec<u8> {
    let mut buf = SectionBuf::new();
    c.save(&mut buf);
    buf.as_bytes().to_vec()
}

fn restore(policy: ReplacementPolicy, bytes: &[u8]) -> Result<SetAssocCache, SimError> {
    let mut c = cache(policy);
    c.restore(&mut SectionReader::new("cache-lines", bytes))?;
    Ok(c)
}

/// One step of a seeded stream of fills (plain and way-masked), hits and
/// invalidations over a block universe that keeps every set in conflict.
/// Returns what the step observed, so two caches can be compared.
fn step(c: &mut SetAssocCache, rng: &mut SimRng) -> String {
    let block = BlockAddr::new(rng.below(40));
    let state = [LineState::Shared, LineState::Exclusive, LineState::Modified][rng.index(3)];
    match rng.index(5) {
        0 | 1 => format!("{:?}", c.insert(block, state)),
        2 => format!("{:?}", c.insert_in_ways(block, state, 0b0110)),
        3 => format!("{:?}", c.access(block)),
        _ => format!("{:?}", c.invalidate(block)),
    }
}

#[test]
fn every_policy_round_trips_with_identical_future_victims() {
    for policy in POLICIES {
        let mut rng = SimRng::from_seed(31);
        let mut original = cache(policy);
        for cut in [0, 7, 60, 200] {
            while original.stats().insertions + original.stats().misses < cut {
                step(&mut original, &mut rng);
            }
            let bytes = save(&original);
            let mut restored = restore(policy, &bytes).unwrap();
            assert_eq!(save(&restored), bytes, "{policy:?} cut {cut}: re-save");
            assert_eq!(restored.occupancy(), original.occupancy());
            assert_eq!(restored.stats(), original.stats());
            // Drive both with the same continuation: every hit, fill and
            // victim must agree (recency bits and RNG streams included).
            let mut a = original.clone();
            let mut fork = rng.clone();
            let mut fork_b = rng.clone();
            for i in 0..400 {
                assert_eq!(
                    step(&mut a, &mut fork),
                    step(&mut restored, &mut fork_b),
                    "{policy:?} cut {cut}, step {i} after restore"
                );
            }
            assert!(a.stats().evictions > 0, "continuation must evict");
            assert_eq!(a.stats(), restored.stats());
        }
    }
}

#[test]
fn restore_overwrites_a_used_cache() {
    // Slots, tree bits and RNG streams the stream does not name go back to
    // their construction state, whatever the target held before.
    for policy in POLICIES {
        let empty = save(&cache(policy));
        let mut used = cache(policy);
        let mut rng = SimRng::from_seed(5);
        for _ in 0..300 {
            step(&mut used, &mut rng);
        }
        assert!(used.occupancy() > 0);
        used.restore(&mut SectionReader::new("cache-lines", &empty))
            .unwrap();
        assert_eq!(used.occupancy(), 0, "{policy:?}");
        assert_eq!(save(&used), empty, "{policy:?}");
    }
}

#[test]
fn an_empty_cache_writes_no_per_slot_state() {
    // Header, count, clock or empty set lists, and the stats: nothing
    // that scales with the capacity.
    for policy in POLICIES {
        let geometry = CacheGeometry::new(1 << 20, 16, 1).unwrap();
        let big = SetAssocCache::new(geometry, policy);
        let bytes = save(&big).len();
        assert!(bytes <= 80, "{policy:?}: {bytes} bytes");
    }
}

/// The stats block every payload ends with.
fn put_stats(w: &mut SectionBuf) {
    CacheStats::default().save(w);
}

/// A tag that maps to the set of `slot` (set index = low address bits).
fn tag_for(slot: usize) -> u64 {
    (slot / WAYS) as u64 + 8 * SETS as u64
}

/// An LRU payload with the given `(slot, state)` records, each tagged with
/// [`tag_for`], a clock of 100 and a stamp of 50 for every record.
fn lru_payload(count: usize, slots: &[(usize, u8)]) -> SectionBuf {
    let mut w = SectionBuf::new();
    w.put_usize(SETS);
    w.put_u8(0);
    w.put_usize(count);
    for &(slot, state) in slots {
        w.put_usize(slot);
        w.put_u64(tag_for(slot));
        w.put_u8(state);
    }
    w.put_u64(100);
    for _ in slots {
        w.put_u64(50);
    }
    put_stats(&mut w);
    w
}

/// A payload for `policy` (tree-PLRU or random) with no valid slots and
/// the given per-set records.
fn per_set_payload(policy: ReplacementPolicy, count: usize, sets: &[usize]) -> SectionBuf {
    let plru = policy == ReplacementPolicy::TreePlru;
    let mut w = SectionBuf::new();
    w.put_usize(SETS);
    w.put_u8(if plru { 1 } else { 2 });
    w.put_usize(0);
    w.put_usize(count);
    for &set in sets {
        w.put_usize(set);
        if plru {
            for _ in 0..WAYS - 1 {
                w.put_bool(true);
            }
        } else {
            for word in [1, 2, 3, 4] {
                w.put_u64(word);
            }
        }
    }
    put_stats(&mut w);
    w
}

fn assert_corrupt(policy: ReplacementPolicy, w: &SectionBuf, needle: &str, what: &str) {
    let err = restore(policy, w.as_bytes())
        .err()
        .unwrap_or_else(|| panic!("{what}: crafted payload must be rejected"));
    assert_eq!(
        err.snapshot_kind(),
        Some(SnapshotErrorKind::Corrupt),
        "{what}: {err}"
    );
    assert!(err.to_string().contains(needle), "{what}: {err}");
}

#[test]
fn well_formed_crafted_payloads_restore() {
    // The baselines the corrupt cases below each break in one place.
    let c = restore(
        ReplacementPolicy::Lru,
        lru_payload(2, &[(1, 1), (6, 3)]).as_bytes(),
    )
    .unwrap();
    assert_eq!(c.occupancy(), 2);
    assert_eq!(c.probe(BlockAddr::new(tag_for(1))), Some(LineState::Shared));
    assert_eq!(
        c.probe(BlockAddr::new(tag_for(6))),
        Some(LineState::Modified)
    );
    for policy in [ReplacementPolicy::TreePlru, ReplacementPolicy::Random] {
        restore(policy, per_set_payload(policy, 2, &[0, 3]).as_bytes()).unwrap();
    }
}

#[test]
fn out_of_range_slot_index_is_corrupt() {
    let slots = SETS * WAYS;
    assert_corrupt(
        ReplacementPolicy::Lru,
        &lru_payload(1, &[(slots, 1)]),
        "outside",
        "slot == capacity",
    );
    assert_corrupt(
        ReplacementPolicy::Lru,
        &lru_payload(1, &[(usize::MAX >> 1, 1)]),
        "outside",
        "huge slot",
    );
}

#[test]
fn repeated_or_descending_slot_index_is_corrupt() {
    assert_corrupt(
        ReplacementPolicy::Lru,
        &lru_payload(2, &[(3, 1), (3, 1)]),
        "repeats or descends",
        "repeated slot",
    );
    assert_corrupt(
        ReplacementPolicy::Lru,
        &lru_payload(2, &[(5, 1), (2, 1)]),
        "repeats or descends",
        "descending slot",
    );
}

#[test]
fn invalid_state_byte_is_corrupt() {
    for state in [0, 4, 255] {
        assert_corrupt(
            ReplacementPolicy::Lru,
            &lru_payload(1, &[(2, state)]),
            "line-state",
            &format!("state byte {state}"),
        );
    }
}

#[test]
fn tag_outside_its_slots_set_is_corrupt() {
    let mut w = SectionBuf::new();
    w.put_usize(SETS);
    w.put_u8(0);
    w.put_usize(1);
    w.put_usize(WAYS); // first slot of set 1
    w.put_u64(tag_for(0)); // a set-0 block
    w.put_u8(1);
    w.put_u64(100);
    w.put_u64(50);
    put_stats(&mut w);
    assert_corrupt(
        ReplacementPolicy::Lru,
        &w,
        "does not map",
        "tag in the wrong set",
    );
}

#[test]
fn slot_count_above_capacity_is_corrupt() {
    assert_corrupt(
        ReplacementPolicy::Lru,
        &lru_payload(SETS * WAYS + 1, &[]),
        "valid slots",
        "count above capacity",
    );
    assert_corrupt(
        ReplacementPolicy::Lru,
        &lru_payload(usize::MAX >> 1, &[]),
        "valid slots",
        "huge count",
    );
}

#[test]
fn lru_stamp_ahead_of_the_clock_is_corrupt() {
    let mut w = SectionBuf::new();
    w.put_usize(SETS);
    w.put_u8(0);
    w.put_usize(1);
    w.put_usize(0);
    w.put_u64(tag_for(0));
    w.put_u8(1);
    w.put_u64(100);
    w.put_u64(101);
    put_stats(&mut w);
    assert_corrupt(
        ReplacementPolicy::Lru,
        &w,
        "ahead of clock",
        "stamp > clock",
    );
}

#[test]
fn per_set_index_out_of_range_or_out_of_order_is_corrupt() {
    for policy in [ReplacementPolicy::TreePlru, ReplacementPolicy::Random] {
        assert_corrupt(
            policy,
            &per_set_payload(policy, 1, &[SETS]),
            "outside",
            &format!("{policy:?} set == set count"),
        );
        assert_corrupt(
            policy,
            &per_set_payload(policy, 2, &[2, 2]),
            "repeats or descends",
            &format!("{policy:?} repeated set"),
        );
        assert_corrupt(
            policy,
            &per_set_payload(policy, SETS + 1, &[]),
            "sets listed",
            &format!("{policy:?} count above set count"),
        );
    }
}

#[test]
fn every_truncation_of_a_real_payload_is_typed() {
    for policy in POLICIES {
        let mut c = cache(policy);
        let mut rng = SimRng::from_seed(8);
        for _ in 0..120 {
            step(&mut c, &mut rng);
        }
        let bytes = save(&c);
        for len in 0..bytes.len() {
            let err = restore(policy, &bytes[..len])
                .err()
                .unwrap_or_else(|| panic!("{policy:?}: prefix {len} must be rejected"));
            assert!(
                err.snapshot_kind().is_some(),
                "{policy:?} prefix {len}: {err}"
            );
        }
    }
}
