//! Differential pinning of the flat-plane [`SetAssocCache`] against the
//! reference specification [`NaiveCache`].
//!
//! The production cache stores flat tag/state/recency planes; `NaiveCache`
//! is a per-set model written for clarity. These tests drive identical
//! seeded operation streams through both and require exact agreement at
//! every step — hit states, eviction victims, masked (way-partitioned)
//! allocation, and behaviour after a mid-stream snapshot round-trip of the
//! flat planes — for all three replacement policies. A self-test proves
//! the comparison has teeth: a cache and a model under different policies
//! must diverge within the same streams.

use consim_cache::{CacheLine, LineState, ReplacementPolicy, SetAssocCache};
use consim_check::model::NaiveCache;
use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::rng::SimRng;
use consim_types::{BlockAddr, CacheGeometry};

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::TreePlru,
    ReplacementPolicy::Random,
];

/// `(sets, ways, seed)` of the seeded-stream shapes.
const SHAPES: [(usize, usize, u64); 4] = [(8, 4, 11), (4, 2, 12), (16, 8, 13), (1, 4, 14)];

/// One operation of the seeded stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Probe(BlockAddr),
    Access(BlockAddr),
    Insert(BlockAddr, LineState),
    InsertInWays(BlockAddr, LineState, u64),
    SetState(BlockAddr, LineState),
    Invalidate(BlockAddr),
}

fn gen_op(rng: &mut SimRng, ways: usize) -> Op {
    // A small block universe over many sets forces constant conflicts.
    let block = BlockAddr::new(rng.below(96));
    let state = match rng.index(3) {
        0 => LineState::Shared,
        1 => LineState::Exclusive,
        _ => LineState::Modified,
    };
    match rng.index(6) {
        0 => Op::Probe(block),
        1 => Op::Access(block),
        2 => Op::Insert(block, state),
        3 => {
            // Split the ways in half by block parity, like two VMs under
            // way partitioning (a direct-mapped set cannot be split).
            let full = (1u64 << ways) - 1;
            let low = (1u64 << (ways / 2)) - 1;
            let mask = match (block.raw().is_multiple_of(2), low) {
                (_, 0) => full,
                (true, _) => low,
                (false, _) => full & !low,
            };
            Op::InsertInWays(block, state, mask)
        }
        4 => Op::SetState(block, state),
        _ => Op::Invalidate(block),
    }
}

/// Applies one op to the cache and the model; the `Err` names the first
/// disagreement. A plain insert is the model's fill with the full mask.
fn apply_both(op: Op, cache: &mut SetAssocCache, model: &mut NaiveCache) -> Result<(), String> {
    let line = |l: CacheLine| (l.block, l.state);
    let (got, want) = match op {
        Op::Probe(b) => (
            format!("{:?}", cache.probe(b)),
            format!("{:?}", model.probe(b)),
        ),
        Op::Access(b) => (
            format!("{:?}", cache.access(b)),
            format!("{:?}", model.access(b)),
        ),
        Op::Insert(b, s) => (
            format!("{:?}", cache.insert(b, s).map(line)),
            format!("{:?}", model.fill(b, s, u64::MAX).map(line)),
        ),
        Op::InsertInWays(b, s, m) => (
            format!("{:?}", cache.insert_in_ways(b, s, m).map(line)),
            format!("{:?}", model.fill(b, s, m).map(line)),
        ),
        Op::SetState(b, s) => (
            format!("{:?}", cache.set_state(b, s)),
            format!("{:?}", model.set_state(b, s)),
        ),
        Op::Invalidate(b) => (
            format!("{:?}", cache.invalidate(b).map(line)),
            format!("{:?}", model.invalidate(b).map(line)),
        ),
    };
    if got != want {
        return Err(format!("{op:?}: cache {got}, model {want}"));
    }
    if cache.occupancy() != model.occupancy() {
        return Err(format!(
            "occupancy after {op:?}: cache {}, model {}",
            cache.occupancy(),
            model.occupancy()
        ));
    }
    Ok(())
}

/// Runs `steps` ops of `rng`'s stream through both, panicking on the
/// first disagreement.
fn drive(
    cache: &mut SetAssocCache,
    model: &mut NaiveCache,
    rng: &mut SimRng,
    steps: usize,
    ctx: &str,
) {
    let ways = cache.geometry().associativity;
    for step in 0..steps {
        let op = gen_op(rng, ways);
        if let Err(msg) = apply_both(op, cache, model) {
            panic!("{ctx} step {step}: {msg}");
        }
    }
}

/// Full-content comparison: the same lines in the same states.
fn assert_same_contents(cache: &SetAssocCache, model: &NaiveCache, ctx: &str) {
    let sorted = |lines: &mut dyn Iterator<Item = CacheLine>| {
        let mut v: Vec<(u64, LineState)> = lines.map(|l| (l.block.raw(), l.state)).collect();
        v.sort();
        v
    };
    assert_eq!(
        sorted(&mut cache.lines()),
        sorted(&mut model.lines()),
        "{ctx}: cache contents diverged"
    );
}

fn geometry(num_sets: usize, ways: usize) -> CacheGeometry {
    CacheGeometry::new(num_sets * ways * 64, ways, 1).expect("valid geometry")
}

#[test]
fn cache_matches_naive_on_seeded_op_streams() {
    for policy in POLICIES {
        for (num_sets, ways, seed) in SHAPES {
            let mut cache = SetAssocCache::new(geometry(num_sets, ways), policy);
            let mut model = NaiveCache::new(policy, num_sets, ways);
            let mut rng = SimRng::from_seed(seed).derive("cache-vs-naive");
            let ctx = format!("{policy:?} {num_sets}x{ways} seed {seed}");
            drive(&mut cache, &mut model, &mut rng, 4_000, &ctx);
            assert_same_contents(&cache, &model, &ctx);
        }
    }
}

#[test]
fn cache_matches_naive_on_random_geometries() {
    // Direct-mapped sets and associativities that are not a power of two
    // (tree-PLRU only where it is defined), over short random streams.
    for case in 0..128u64 {
        let mut rng = SimRng::from_seed(0x5AD0).derive_parts("cache-vs-naive/geometry", &[case]);
        let ways = 1 + rng.index(7);
        let num_sets = 1usize << rng.index(4);
        let steps = 1 + rng.index(500);
        for policy in POLICIES {
            if policy == ReplacementPolicy::TreePlru && !ways.is_power_of_two() {
                continue;
            }
            let mut cache = SetAssocCache::new(geometry(num_sets, ways), policy);
            let mut model = NaiveCache::new(policy, num_sets, ways);
            let mut ops = rng.clone();
            let ctx = format!("{policy:?} {num_sets}x{ways} case {case}");
            drive(&mut cache, &mut model, &mut ops, steps, &ctx);
            assert_same_contents(&cache, &model, &ctx);
        }
    }
}

#[test]
fn cache_matches_naive_after_mid_stream_snapshot_round_trip() {
    // Save the flat planes mid-stream, restore into a fresh cache, and
    // keep comparing against the *uninterrupted* model: the snapshot must
    // preserve contents, recency order, and (for Random) the per-set RNG
    // streams exactly, or the post-restore victims diverge.
    for policy in POLICIES {
        let (num_sets, ways) = (8, 4);
        let mut cache = SetAssocCache::new(geometry(num_sets, ways), policy);
        let mut model = NaiveCache::new(policy, num_sets, ways);
        let mut rng = SimRng::from_seed(77).derive("cache-vs-naive/snap");
        drive(
            &mut cache,
            &mut model,
            &mut rng,
            1_500,
            &format!("{policy:?} pre-snapshot"),
        );

        let mut buf = SectionBuf::new();
        cache.save(&mut buf);
        let mut restored = SetAssocCache::new(geometry(num_sets, ways), policy);
        restored
            .restore(&mut SectionReader::new("cache-vs-naive", buf.as_bytes()))
            .expect("snapshot round-trip");
        assert_eq!(restored.occupancy(), cache.occupancy(), "{policy:?}");
        assert_eq!(restored.stats(), cache.stats(), "{policy:?}");

        let ctx = format!("{policy:?} post-restore");
        drive(&mut restored, &mut model, &mut rng, 1_500, &ctx);
        assert_same_contents(&restored, &model, &ctx);
    }
}

#[test]
fn masked_and_plain_inserts_agree_with_the_model() {
    // A pure allocation workload (no invalidations) leaning on the
    // partitioned fill path: every eviction decision must match,
    // including the Random policy's draw of the nth allowed way.
    for policy in POLICIES {
        let (num_sets, ways) = (4, 4);
        let mut cache = SetAssocCache::new(geometry(num_sets, ways), policy);
        let mut model = NaiveCache::new(policy, num_sets, ways);
        let mut rng = SimRng::from_seed(5).derive("cache-vs-naive/masked");
        for step in 0..3_000 {
            let block = BlockAddr::new(rng.below(64));
            let op = if rng.chance(0.5) {
                let mask = if block.raw().is_multiple_of(2) {
                    0b0011
                } else {
                    0b1100
                };
                Op::InsertInWays(block, LineState::Shared, mask)
            } else {
                Op::Insert(block, LineState::Exclusive)
            };
            if let Err(msg) = apply_both(op, &mut cache, &mut model) {
                panic!("{policy:?} masked-mix step {step}: {msg}");
            }
        }
        assert_same_contents(&cache, &model, &format!("{policy:?} masked-mix"));
    }
}

/// Teeth: a cache under one policy against a model under another must
/// disagree within the seeded stream, or the agreement tests above could
/// pass without checking victim choice. The 2-way shape is left out:
/// tree-PLRU over two ways is exactly LRU.
#[test]
fn mismatched_policies_are_detected() {
    for cache_policy in POLICIES {
        for model_policy in POLICIES.into_iter().filter(|&p| p != cache_policy) {
            for (num_sets, ways, seed) in SHAPES.into_iter().filter(|&(_, ways, _)| ways > 2) {
                let mut cache = SetAssocCache::new(geometry(num_sets, ways), cache_policy);
                let mut model = NaiveCache::new(model_policy, num_sets, ways);
                let mut rng = SimRng::from_seed(seed).derive("cache-vs-naive");
                let diverged = (0..4_000).any(|_| {
                    let op = gen_op(&mut rng, ways);
                    apply_both(op, &mut cache, &mut model).is_err()
                });
                assert!(
                    diverged,
                    "cache {cache_policy:?} vs model {model_policy:?} \
                     ({num_sets}x{ways} seed {seed}) never diverged"
                );
            }
        }
    }
}
