//! Shard-equivalence property tests: for **any** shard count, seed, bank
//! layout, and access pattern, the sharded store is bit-identical to the
//! monolithic single-bank-array reference — stored images, read values,
//! fault masks, injection statistics, and access counts alike. This is the
//! contract that makes the shard count a pure throughput knob.

use fault_inject::model::{BitErrorRates, WordFailureModel};
use fault_inject::protection::ProtectionPolicy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_array::behavioral::SynapticMemory;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;

fn arb_banks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..800, 1..5)
}

fn arb_rates() -> impl Strategy<Value = BitErrorRates> {
    (0.0f64..0.3, 0.0f64..0.3).prop_map(|(read_6t, write_6t)| BitErrorRates {
        read_6t,
        write_6t,
        read_8t: 0.0,
        write_8t: 0.0,
    })
}

fn build_pair(
    banks: &[usize],
    msb_8t: usize,
    rates: &BitErrorRates,
    seed: u64,
    shards: usize,
) -> (SynapticMemory, ShardedMemory) {
    let policy = ProtectionPolicy::MsbProtected { msb_8t };
    let map = SynapticMemoryMap::new(banks, &policy, SubArrayDims::PAPER);
    let models: Vec<WordFailureModel> = (0..banks.len())
        .map(|b| WordFailureModel::new(rates, &policy.assignment(b)))
        .collect();
    (
        SynapticMemory::new(map.clone(), models.clone(), seed),
        ShardedMemory::new(map, models, seed, shards),
    )
}

proptest! {
    /// Loading any data through the faulty write path stores the same
    /// image at any shard count, with matching write counters.
    #[test]
    fn loads_are_shard_invariant(
        banks in arb_banks(),
        msb in 0usize..=8,
        rates in arb_rates(),
        seed in 0u64..1000,
        shards in 1usize..10,
        fill in any::<u8>(),
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, msb, &rates, seed, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| fill ^ (i as u8)).collect();
        mono.load(&data);
        sharded.load(&data);
        let mono_image: Vec<u8> = (0..total).map(|i| mono.read_raw(i)).collect();
        prop_assert_eq!(sharded.raw_image(), mono_image);
        prop_assert_eq!(sharded.counts(), mono.counts());
    }

    /// Any interleaving of owned reads, shared reads, and rewrites
    /// observes identical values, fault masks, and counters on both
    /// stores.
    #[test]
    fn access_patterns_are_shard_invariant(
        banks in arb_banks(),
        rates in arb_rates(),
        seed in 0u64..1000,
        shards in 1usize..10,
        pattern in prop::collection::vec((any::<u16>(), 0u8..3), 1..60),
        rng_seed in 0u64..1000,
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, 2, &rates, seed, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| (i * 31) as u8).collect();
        mono.load(&data);
        sharded.load(&data);
        let mut rng_mono = StdRng::seed_from_u64(rng_seed);
        let mut rng_sharded = StdRng::seed_from_u64(rng_seed);
        for (raw_idx, op) in pattern {
            let idx = raw_idx as usize % total;
            match op {
                0 => prop_assert_eq!(mono.read(idx), sharded.read(idx)),
                1 => prop_assert_eq!(
                    mono.read_shared(idx, &mut rng_mono),
                    sharded.read_shared(idx, &mut rng_sharded)
                ),
                _ => {
                    mono.write(idx, raw_idx as u8);
                    sharded.write(idx, raw_idx as u8);
                    prop_assert_eq!(mono.read_raw(idx), sharded.read_raw(idx));
                }
            }
        }
        prop_assert_eq!(sharded.counts(), mono.counts());
    }

    /// Snapshot corruption and bulk reads produce identical images, fault
    /// accounting, and statistics at any shard count (and the sharded
    /// bank-parallel fan-out matches the monolith's sequential pass).
    #[test]
    fn bulk_operations_are_shard_invariant(
        banks in arb_banks(),
        msb in 0usize..=8,
        rates in arb_rates(),
        seed in 0u64..1000,
        shards in 1usize..10,
        sweep_seed in 0u64..1000,
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, msb, &rates, seed, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| (i * 7) as u8).collect();
        mono.load(&data);
        sharded.load(&data);
        let (snap_mono, stats_mono) = mono.corrupt_snapshot(sweep_seed);
        let (snap_sharded, stats_sharded) = sharded.corrupt_snapshot(sweep_seed);
        prop_assert_eq!(snap_sharded, snap_mono);
        prop_assert_eq!(stats_sharded, stats_mono);
        let (bulk_mono, faults_mono) = mono.read_bulk(sweep_seed ^ 0xB);
        let (bulk_sharded, faults_sharded) = sharded.read_bulk(sweep_seed ^ 0xB);
        prop_assert_eq!(bulk_sharded, bulk_mono);
        prop_assert_eq!(faults_sharded, faults_mono);
        prop_assert_eq!(sharded.counts(), mono.counts());
    }

    /// A row read over an arbitrary `(start, len)` span — straddling any
    /// number of bank and shard boundaries — is identical on the sharded
    /// store and the monolith (values, masks, fault bits, counters, RNG end
    /// state), and equals consecutive reads of its bank segments on the
    /// same RNG; a scalar `read_shared` equals a one-word row read.
    #[test]
    fn row_reads_are_shard_invariant_and_replay_their_bank_segments(
        banks in arb_banks(),
        msb in 0usize..=8,
        rates in arb_rates(),
        seed in 0u64..1000,
        shards in 1usize..10,
        span in (any::<u16>(), any::<u16>()),
        rng_seed in 0u64..1000,
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, msb, &rates, seed, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| (i * 31) as u8).collect();
        mono.load(&data);
        sharded.load(&data);
        let segmented = mono.clone();
        let start = span.0 as usize % total;
        let len = span.1 as usize % (total - start + 1);

        let mut rng_mono = StdRng::seed_from_u64(rng_seed);
        let (mut mono_words, mut mono_masks) = (Vec::new(), Vec::new());
        let mono_bits =
            mono.read_row_shared(start, len, &mut rng_mono, &mut mono_words, &mut mono_masks);

        // Sharded row read, same RNG seed: identical at any shard count.
        let mut rng_sharded = StdRng::seed_from_u64(rng_seed);
        let (mut words, mut masks) = (Vec::new(), Vec::new());
        let fault_bits = sharded.read_row_shared(start, len, &mut rng_sharded, &mut words, &mut masks);
        prop_assert_eq!(&words, &mono_words);
        prop_assert_eq!(&masks, &mono_masks);
        prop_assert_eq!(fault_bits, mono_bits);
        prop_assert_eq!(&rng_sharded, &rng_mono);
        prop_assert_eq!(sharded.counts(), mono.counts());

        // Bank-segment reference: one row read per bank the span touches.
        let mut rng_seg = StdRng::seed_from_u64(rng_seed);
        let (mut seg_words, mut seg_masks) = (Vec::new(), Vec::new());
        let (mut expect_words, mut expect_masks) = (Vec::new(), Vec::new());
        let mut expect_bits = 0u64;
        let mut bank_start = 0usize;
        for &bank_words in &banks {
            let bank_end = bank_start + bank_words;
            let (lo, hi) = (start.max(bank_start), (start + len).min(bank_end));
            if lo < hi {
                expect_bits +=
                    segmented.read_row_shared(lo, hi - lo, &mut rng_seg, &mut seg_words, &mut seg_masks);
                expect_words.extend_from_slice(&seg_words);
                expect_masks.extend_from_slice(&seg_masks);
            }
            bank_start = bank_end;
        }
        prop_assert_eq!(&expect_words, &mono_words);
        prop_assert_eq!(&expect_masks, &mono_masks);
        prop_assert_eq!(expect_bits, mono_bits);
        prop_assert_eq!(&rng_seg, &rng_mono);
        prop_assert_eq!(segmented.counts(), mono.counts());

        // A scalar read is the one-word row read, on both stores.
        if len > 0 {
            let mut rng_scalar = StdRng::seed_from_u64(rng_seed);
            let mut rng_one = StdRng::seed_from_u64(rng_seed);
            let scalar = sharded.read_shared(start, &mut rng_scalar);
            let one_bits = mono.read_row_shared(start, 1, &mut rng_one, &mut words, &mut masks);
            prop_assert_eq!(scalar, (words[0], masks[0]));
            prop_assert_eq!(one_bits, u64::from(masks[0].count_ones()));
            prop_assert_eq!(&rng_scalar, &rng_one);
            prop_assert_eq!(sharded.counts(), mono.counts());
        }
    }

    /// `charge_reads` bills exactly `len * copies` reads to exactly the
    /// shards that own the span, matching a loop of scalar reads.
    #[test]
    fn charged_reads_match_scalar_accounting(
        banks in arb_banks(),
        shards in 1usize..10,
        span in (any::<u16>(), any::<u16>()),
        copies in 0usize..4,
    ) {
        let policy = ProtectionPolicy::Uniform6T;
        let map = SynapticMemoryMap::new(&banks, &policy, SubArrayDims::PAPER);
        let total = map.total_words();
        let models = vec![WordFailureModel::ideal(); banks.len()];
        let charged = ShardedMemory::new(map.clone(), models.clone(), 1, shards);
        let scalar = ShardedMemory::new(map, models, 1, shards);
        let start = span.0 as usize % total;
        let len = span.1 as usize % (total - start + 1);
        charged.charge_reads(start, len, copies);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..copies {
            for i in start..start + len {
                let _ = scalar.read_shared(i, &mut rng);
            }
        }
        prop_assert_eq!(charged.shard_counts(), scalar.shard_counts());
    }

    /// The shard partition itself is sound: ranges tile the address space
    /// and per-shard counters sum to the aggregate.
    #[test]
    fn shard_partition_is_sound(
        banks in arb_banks(),
        shards in 1usize..12,
        probes in prop::collection::vec(any::<u16>(), 1..20),
    ) {
        let policy = ProtectionPolicy::Uniform6T;
        let map = SynapticMemoryMap::new(&banks, &policy, SubArrayDims::PAPER);
        let total = map.total_words();
        let models = vec![WordFailureModel::ideal(); banks.len()];
        let mut memory = ShardedMemory::new(map, models, 1, shards);
        let ranges = memory.shard_ranges();
        prop_assert_eq!(ranges.len(), memory.shard_count());
        let mut next = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            next += r.words;
        }
        prop_assert_eq!(next, total);
        for raw in probes {
            let idx = raw as usize % total;
            let s = memory.shard_of(idx);
            prop_assert!(ranges[s].start <= idx && idx < ranges[s].start + ranges[s].words);
            let _ = memory.read(idx);
        }
        let per_shard: usize = memory.shard_counts().iter().map(|c| c.reads).sum();
        prop_assert_eq!(per_shard, memory.counts().reads);
    }
}
