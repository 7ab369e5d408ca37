//! Property-based tests for fault models and injection.

use fault_inject::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The geometric sampler's hit rate converges to p for any p.
    #[test]
    fn geometric_rate_converges(p in 0.001f64..0.2, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 60_000;
        let picks = geometric_indices(n, p, &mut rng);
        let rate = picks.len() as f64 / n as f64;
        // 5-sigma binomial band.
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        prop_assert!((rate - p).abs() < 5.0 * sigma + 1e-9,
            "rate {rate} vs p {p} (sigma {sigma})");
    }

    /// Sampled indices are strictly increasing and in range.
    #[test]
    fn geometric_indices_sorted_in_range(p in 0.0f64..1.0, n in 1usize..5000, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let picks = geometric_indices(n, p, &mut rng);
        for w in picks.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        if let Some(&last) = picks.last() {
            prop_assert!(last < n);
        }
    }

    /// Protected bits never flip, whatever the rates and seed.
    #[test]
    fn protection_is_absolute(
        read_p in 0.0f64..0.5,
        write_p in 0.0f64..0.5,
        protected in 0usize..=8,
        seed in 0u64..50,
    ) {
        let rates = BitErrorRates {
            read_6t: read_p,
            write_6t: write_p,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let model = WordFailureModel::new(&rates, &CellAssignment::msb_protected(protected));
        let mut words = vec![0u8; 3000];
        let stats = corrupt_words(&mut words, &model, seed);
        let protected_mask: u8 = if protected == 0 {
            0
        } else {
            (((1u16 << protected) - 1) << (8 - protected)) as u8
        };
        for &w in &words {
            prop_assert_eq!(w & protected_mask, 0);
        }
        for bit in (8 - protected)..8 {
            prop_assert_eq!(stats.flips_per_bit[bit], 0);
        }
    }

    /// Double injection with the same seed is idempotent-inverse: XOR of the
    /// same flip set restores the original words.
    #[test]
    fn same_seed_double_corruption_restores(p in 0.001f64..0.2, seed in 0u64..50) {
        let rates = BitErrorRates {
            read_6t: p,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let model = WordFailureModel::new(&rates, &CellAssignment::all_6t());
        let original: Vec<u8> = (0..2000).map(|i| (i % 251) as u8).collect();
        let mut words = original.clone();
        corrupt_words(&mut words, &model, seed);
        corrupt_words(&mut words, &model, seed);
        prop_assert_eq!(words, original);
    }

    /// Expected flips per word matches the sum of per-bit probabilities.
    #[test]
    fn expected_flips_formula(read_p in 0.0f64..0.3, write_p in 0.0f64..0.3, protected in 0usize..=8) {
        let rates = BitErrorRates {
            read_6t: read_p,
            write_6t: write_p,
            read_8t: 1e-15,
            write_8t: 1e-15,
        };
        let model = WordFailureModel::new(&rates, &CellAssignment::msb_protected(protected));
        let unprotected = (8 - protected) as f64;
        let expected = unprotected * (read_p + write_p).min(1.0) + protected as f64 * 2e-15;
        prop_assert!((model.expected_flips_per_word() - expected).abs() < 1e-9);
    }

    /// Read-mask sampling respects per-bit probabilities of zero and one:
    /// p = 1 flips every word's active bits, and the ideal model leaves
    /// every mask clear without drawing from the RNG.
    #[test]
    fn read_mask_extremes(seed in 0u64..50, words in 0usize..300, protected in 0usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let always = WordFailureModel::new(
            &BitErrorRates { read_6t: 1.0, write_6t: 0.0, read_8t: 0.0, write_8t: 0.0 },
            &CellAssignment::msb_protected(protected),
        );
        let active = 0xFFu8.checked_shr(protected as u32).unwrap_or(0);
        let mut masks = vec![0xA5u8; words];
        let fault_bits = ReadMaskSampler::new(&always).sample_into(&mut rng, &mut masks);
        prop_assert!(masks.iter().all(|&m| m == active));
        prop_assert_eq!(fault_bits, (words * active.count_ones() as usize) as u64);
        let pristine = rng.clone();
        let never = ReadMaskSampler::new(&WordFailureModel::ideal());
        prop_assert!(never.is_fault_free());
        prop_assert_eq!(never.sample_into(&mut rng, &mut masks), 0);
        prop_assert!(masks.iter().all(|&m| m == 0));
        prop_assert_eq!(rng, pristine);
    }
}
