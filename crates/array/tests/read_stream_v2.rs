//! Statistical equivalence of the read fault-stream contract v2 against v1.
//!
//! v2 places each bit-plane's read faults across a bank segment by
//! geometric skip; v1 drew one Bernoulli trial per active bit per word.
//! The two consume the caller's RNG differently, so they are compared in
//! distribution: every count below must sit inside a 6σ binomial band
//! around its expectation, and v2 must sit inside a 6σ band of the v1
//! reference run over the same number of trials. Seeds are fixed, so the
//! suite is deterministic.

use fault_inject::model::{BitErrorRates, WordFailureModel, WORD_BITS};
use fault_inject::protection::ProtectionPolicy;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sram_array::behavioral::SynapticMemory;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;

/// Words per bank of the two-bank test store; rows that start within a
/// row length of `BANK` straddle the bank boundary.
const BANK: usize = 1000;

/// An all-6T store of `banks`, every bit reading wrong with probability
/// `p`, loaded with zeros (no write faults).
fn store(banks: &[usize], p: f64) -> SynapticMemory {
    let policy = ProtectionPolicy::Uniform6T;
    let map = SynapticMemoryMap::new(banks, &policy, SubArrayDims::PAPER);
    let rates = BitErrorRates {
        read_6t: p,
        write_6t: 0.0,
        read_8t: 0.0,
        write_8t: 0.0,
    };
    let models = (0..banks.len())
        .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
        .collect();
    let mut m = SynapticMemory::new(map, models, 5);
    m.load(&vec![0u8; banks.iter().sum()]);
    m
}

/// The v1 sampler, as a test-only reference: one Bernoulli trial per bit
/// per word, in word then bit order.
fn v1_masks(rng: &mut StdRng, p: f64, words: usize) -> Vec<u8> {
    (0..words)
        .map(|_| (0..WORD_BITS).fold(0u8, |m, bit| m | (u8::from(rng.gen::<f64>() < p) << bit)))
        .collect()
}

/// Asserts `count` successes in `trials` Bernoulli(`p`) trials lie within
/// 6σ of the mean (with a floor of one count for vanishing σ).
fn assert_in_band(count: u64, trials: u64, p: f64, what: &str) {
    let mean = trials as f64 * p;
    let sigma = (trials as f64 * p * (1.0 - p)).sqrt();
    let dev = (count as f64 - mean).abs();
    assert!(
        dev <= 6.0 * sigma + 1.0,
        "{what}: {count} of {trials} at p = {p} (mean {mean:.1}, sigma {sigma:.2})"
    );
}

/// Asserts two samples of `trials` Bernoulli(`p`) trials each agree
/// within 6σ of their difference, and each lies in its own band.
fn assert_same_rate(v2: u64, v1: u64, trials: u64, p: f64, what: &str) {
    assert_in_band(v2, trials, p, &format!("{what} (v2)"));
    assert_in_band(v1, trials, p, &format!("{what} (v1)"));
    let sigma_diff = (2.0 * trials as f64 * p * (1.0 - p)).sqrt();
    let diff = (v2 as f64 - v1 as f64).abs();
    assert!(
        diff <= 6.0 * sigma_diff + 1.0,
        "{what}: v2 {v2} vs v1 {v1} of {trials} at p = {p}"
    );
}

/// Per-bit flip counts of `masks`.
fn bit_counts(masks: &[u8]) -> [u64; WORD_BITS] {
    let mut counts = [0u64; WORD_BITS];
    for &m in masks {
        for (bit, c) in counts.iter_mut().enumerate() {
            *c += u64::from((m >> bit) & 1);
        }
    }
    counts
}

/// Row starts that cycle across both banks, so a share of the rows of any
/// length above 1 straddle the bank boundary.
fn row_start(k: usize, len: usize) -> usize {
    let starts = [0, BANK - len / 2 - 1, BANK / 3, BANK, 2 * BANK - len];
    starts[k % starts.len()]
}

#[test]
fn per_bit_flip_rates_match_v1_across_row_lengths() {
    const WORDS: usize = 100_000;
    for p in [1e-4, 0.01, 0.15, 0.5] {
        for len in [1usize, 7, 784] {
            let m = store(&[BANK, BANK], p);
            let mut rng = StdRng::seed_from_u64(0x5EED ^ len as u64);
            let (mut words, mut masks) = (Vec::new(), Vec::new());
            let mut v2 = [0u64; WORD_BITS];
            let mut straddled = 0usize;
            let reads = WORDS / len;
            for k in 0..reads {
                let start = row_start(k, len);
                straddled += usize::from(start < BANK && start + len > BANK);
                let fault_bits = m.read_row_shared(start, len, &mut rng, &mut words, &mut masks);
                let counts = bit_counts(&masks);
                assert_eq!(
                    fault_bits,
                    counts.iter().sum::<u64>(),
                    "fault bits = set mask bits"
                );
                for (total, c) in v2.iter_mut().zip(counts) {
                    *total += c;
                }
            }
            if len > 1 {
                assert!(
                    straddled > 0,
                    "rows of {len} must straddle the bank boundary"
                );
            }
            let trials = (reads * len) as u64;
            let mut v1_rng = StdRng::seed_from_u64(0x0DD ^ len as u64);
            let v1 = bit_counts(&v1_masks(&mut v1_rng, p, reads * len));
            for bit in 0..WORD_BITS {
                let what = format!("bit {bit}, rows of {len}");
                assert_same_rate(v2[bit], v1[bit], trials, p, &what);
            }
            let (v2_all, v1_all) = (v2.iter().sum(), v1.iter().sum());
            let what = format!("all bits, rows of {len}");
            assert_same_rate(v2_all, v1_all, trials * WORD_BITS as u64, p, &what);
        }
    }
}

/// Binomial(8, p) probability of exactly `k` flipped bits in a word.
fn binomial_pmf(k: usize, p: f64) -> f64 {
    let choose = (0..k).fold(1.0, |c, i| c * (WORD_BITS - i) as f64 / (i + 1) as f64);
    choose * p.powi(k as i32) * (1.0 - p).powi((WORD_BITS - k) as i32)
}

#[test]
fn flipped_bits_per_word_follow_the_v1_binomial() {
    const WORDS: usize = 100_000;
    for p in [0.01, 0.15, 0.5] {
        let m = store(&[BANK, BANK], p);
        let mut rng = StdRng::seed_from_u64(77);
        let (mut words, mut masks) = (Vec::new(), Vec::new());
        let mut v2 = [0u64; WORD_BITS + 1];
        for k in 0..WORDS / 784 {
            m.read_row_shared(row_start(k, 784), 784, &mut rng, &mut words, &mut masks);
            for &mask in &masks {
                v2[mask.count_ones() as usize] += 1;
            }
        }
        let trials = (WORDS / 784 * 784) as u64;
        let mut v1 = [0u64; WORD_BITS + 1];
        let mut v1_rng = StdRng::seed_from_u64(78);
        for mask in v1_masks(&mut v1_rng, p, trials as usize) {
            v1[mask.count_ones() as usize] += 1;
        }
        for k in 0..=WORD_BITS {
            let what = format!("{k} flipped bits per word");
            assert_same_rate(v2[k], v1[k], trials, binomial_pmf(k, p), &what);
        }
    }
}

#[test]
fn segment_edges_flip_at_the_nominal_rate() {
    // Rows of 10 words starting 5 words before the bank boundary cut into
    // two 5-word segments: row offsets 0 and 4 are the first and last of
    // bank 0's segment, 5 and 9 of bank 1's. An off-by-one in the gap loop
    // would bias exactly these offsets.
    const READS: usize = 40_000;
    let p = 0.15;
    let m = store(&[BANK, BANK], p);
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let (mut words, mut masks) = (Vec::new(), Vec::new());
    let mut per_offset = [0u64; 10];
    let mut single = 0u64;
    for _ in 0..READS {
        m.read_row_shared(BANK - 5, 10, &mut rng, &mut words, &mut masks);
        for (count, mask) in per_offset.iter_mut().zip(&masks) {
            *count += u64::from(mask.count_ones());
        }
        // A one-word segment is both the first and the last offset.
        m.read_row_shared(BANK - 1, 1, &mut rng, &mut words, &mut masks);
        single += u64::from(masks[0].count_ones());
    }
    let trials = (READS * WORD_BITS) as u64;
    for (offset, &count) in per_offset.iter().enumerate() {
        assert_in_band(count, trials, p, &format!("row offset {offset}"));
    }
    assert_in_band(single, trials, p, "one-word segment");
}

#[test]
fn adjacent_words_flip_jointly_at_p_squared() {
    // Flips of neighbouring words are independent, inside a segment and
    // across the bank cut alike.
    const READS: usize = 200;
    let p = 0.15;
    let m = store(&[BANK, BANK], p);
    let mut rng = StdRng::seed_from_u64(0xAD1);
    let (mut words, mut masks) = (Vec::new(), Vec::new());
    let mut both = [0u64; WORD_BITS];
    let mut pairs = 0u64;
    let (mut cut_both, mut cut_pairs) = (0u64, 0u64);
    let len = 784;
    for _ in 0..READS {
        let start = BANK - len / 2;
        m.read_row_shared(start, len, &mut rng, &mut words, &mut masks);
        for (k, pair) in masks.windows(2).enumerate() {
            let joint = pair[0] & pair[1];
            for (bit, c) in both.iter_mut().enumerate() {
                *c += u64::from((joint >> bit) & 1);
            }
            pairs += 1;
            if start + k + 1 == BANK {
                cut_both += u64::from(joint.count_ones());
                cut_pairs += WORD_BITS as u64;
            }
        }
    }
    for (bit, &count) in both.iter().enumerate() {
        assert_in_band(count, pairs, p * p, &format!("adjacent pair, bit {bit}"));
    }
    assert_in_band(cut_both, cut_pairs, p * p, "pair across the bank cut");
}

/// An RNG that counts the 64-bit draws taken from it.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[test]
fn vanishing_probability_terminates_with_one_draw_per_bit() {
    // At p = 1e-18, (1 - p) rounds to 1.0; the precomputed ln_1p keeps the
    // first gap far past the row, so a million-word row takes exactly one
    // draw per active bit and flips nothing, on both stores.
    const WORDS: usize = 1_000_000;
    let m = store(&[WORDS], 1e-18);
    let map = m.map().clone();
    let models = m.models().to_vec();
    let mut sharded = ShardedMemory::new(map, models, 5, 3);
    sharded.load(&vec![0u8; WORDS]);
    let (mut words, mut masks) = (Vec::new(), Vec::new());
    let mut rng = CountingRng {
        inner: StdRng::seed_from_u64(18),
        draws: 0,
    };
    assert_eq!(
        m.read_row_shared(0, WORDS, &mut rng, &mut words, &mut masks),
        0
    );
    assert!(masks.iter().all(|&mask| mask == 0));
    assert_eq!(rng.draws, WORD_BITS as u64);
    assert_eq!(
        sharded.read_row_shared(0, WORDS, &mut rng, &mut words, &mut masks),
        0
    );
    assert_eq!(rng.draws, 2 * WORD_BITS as u64);
}

#[test]
fn zero_length_rows_draw_nothing() {
    let m = store(&[BANK, BANK], 0.5);
    let mut rng = CountingRng {
        inner: StdRng::seed_from_u64(0),
        draws: 0,
    };
    let (mut words, mut masks) = (vec![1u8], vec![1u8]);
    for start in [0, BANK - 1, BANK, 2 * BANK] {
        assert_eq!(
            m.read_row_shared(start, 0, &mut rng, &mut words, &mut masks),
            0
        );
        assert!(words.is_empty() && masks.is_empty());
    }
    assert_eq!(rng.draws, 0);
    assert_eq!(m.counts().reads, 0);
}
