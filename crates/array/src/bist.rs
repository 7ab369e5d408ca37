//! March-test built-in self-test (BIST) over a sharded synaptic store.
//!
//! Real SRAM macros boot through a march test: write a background pattern,
//! read it back, write the complement, read again, and log every cell that
//! misbehaves. [`run_bist`] models that march *functionally* against the
//! store's own fault streams instead of mutating the loaded image: the
//! persistent write-fault mask of every word is replayed from the
//! address-keyed write stream (exactly the mask a physical march write
//! would deposit), and each read pass draws a fresh transient read mask
//! from a dedicated BIST stream keyed by `(bist_seed, bank, pass)`.
//!
//! A bit is **weak** when it reads back wrong on *both* read passes of
//! either background element — persistent write corruption that transient
//! sensing noise failed to hide, or a cell so marginal it faulted twice in
//! a row. Weak cells are the input to spare-row repair: rows whose weak-bit
//! count crosses a threshold get remapped before serving starts.
//!
//! Every stream involved is keyed by `(seed, bank, …)` — never by shard —
//! so the weak-cell map is bit-identical at any shard count and any worker
//! count, like every other fault stream in the crate (the BIST determinism
//! property test pins this).

use crate::behavioral::streams;
use crate::sharded::ShardedMemory;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_exec::{fnv1a, fnv1a_u64, FNV_OFFSET};

/// One weak word found by the march: its global address and the mask of
/// bits that failed both read passes of some background element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeakWord {
    /// Global word index.
    pub index: usize,
    /// Bits that misbehaved (set = weak).
    pub mask: u8,
}

/// The weak-cell map produced by [`run_bist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BistReport {
    /// Weak words in ascending address order.
    entries: Vec<WeakWord>,
    /// Weak-word count per bank.
    per_bank: Vec<usize>,
    /// Total weak bits across the array.
    weak_bits: u64,
}

impl BistReport {
    /// The weak words, sorted by global address.
    pub fn entries(&self) -> &[WeakWord] {
        &self.entries
    }

    /// Number of weak words.
    pub fn weak_words(&self) -> usize {
        self.entries.len()
    }

    /// Total weak bits.
    pub fn weak_bits(&self) -> u64 {
        self.weak_bits
    }

    /// Weak-word count per bank, in bank order.
    pub fn per_bank(&self) -> &[usize] {
        &self.per_bank
    }

    /// Weak-word and weak-bit counts per shard of `memory`, in shard
    /// order. Projection only — the underlying map never depends on the
    /// shard layout.
    pub fn per_shard(&self, memory: &ShardedMemory) -> Vec<(usize, u64)> {
        let mut out = vec![(0usize, 0u64); memory.shard_count()];
        for w in &self.entries {
            let s = memory.shard_of(w.index);
            out[s].0 += 1;
            out[s].1 += u64::from(w.mask.count_ones());
        }
        out
    }

    /// Row starts (see [`ShardedMemory::row_span`]) whose accumulated
    /// weak-bit count is at least `min_weak_bits`, in address order —
    /// the repair candidates.
    pub fn weak_rows(&self, memory: &ShardedMemory, min_weak_bits: u32) -> Vec<usize> {
        let mut rows: Vec<usize> = Vec::new();
        let mut current: Option<(usize, usize, u32)> = None; // (start, end, bits)
        let flush = |c: &Option<(usize, usize, u32)>, rows: &mut Vec<usize>| {
            if let Some((start, _, bits)) = c {
                if *bits >= min_weak_bits {
                    rows.push(*start);
                }
            }
        };
        for w in &self.entries {
            let bits = w.mask.count_ones();
            match current {
                Some((_, end, ref mut acc)) if w.index < end => *acc += bits,
                _ => {
                    flush(&current, &mut rows);
                    let (start, words) = memory.row_span(w.index);
                    current = Some((start, start + words, bits));
                }
            }
        }
        flush(&current, &mut rows);
        rows
    }

    /// FNV-1a digest of the weak-cell map — the cheap cross-run,
    /// cross-thread-count equality check the chaos gate compares.
    pub fn digest(&self) -> u64 {
        self.entries.iter().fold(FNV_OFFSET, |h, w| {
            fnv1a(fnv1a_u64(h, w.index as u64), &[w.mask])
        })
    }
}

/// Runs the functional march over every bank of `memory` and returns the
/// weak-cell map. Pure: the loaded image, access counters, and every
/// serving-path fault stream are untouched. Banks march in parallel on the
/// `sram_exec` pool; results assemble in bank order, so the report is
/// deterministic in `(memory layout, fault models, base seed, bist_seed)`
/// alone.
pub fn run_bist(memory: &ShardedMemory, bist_seed: u64) -> BistReport {
    let bank_words: Vec<usize> = memory.map().banks().iter().map(|b| b.words).collect();
    let mut starts = Vec::with_capacity(bank_words.len());
    let mut acc = 0usize;
    for &w in &bank_words {
        starts.push(acc);
        acc += w;
    }
    let banks = memory.bank_models();
    let base_seed = memory.base_seed();
    let per_bank: Vec<Vec<(usize, u8)>> = sram_exec::par_map_indexed(bank_words.len(), |bank| {
        let words = bank_words[bank];
        if words == 0 {
            return Vec::new();
        }
        // Persistent damage a march write deposits, replayed from the
        // address-keyed write stream (identical for both elements: the
        // mask XORs onto whatever data is written).
        let mut wmask = vec![0u8; words];
        banks.xor_write_masks(base_seed, bank, 0, &mut wmask);
        // Four read passes: background element {0x00, 0xFF} × two reads.
        // observed ^ pattern == wmask ^ rmask for both elements, so each
        // pass reduces to one transient-mask sweep from its own stream.
        let mut diffs = [const { Vec::new() }; 4];
        let mut rmask = vec![0u8; words];
        for (pass, diff) in diffs.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(streams::bist_pass_seed(bist_seed, bank, pass));
            banks.sample_read_masks_into(bank, &mut rng, &mut rmask);
            *diff = wmask.iter().zip(&rmask).map(|(&w, &r)| w ^ r).collect();
        }
        let mut weak = Vec::new();
        let passes = diffs[0].iter().zip(&diffs[1]).zip(&diffs[2]).zip(&diffs[3]);
        for (off, (((&d0, &d1), &d2), &d3)) in passes.enumerate() {
            let mask = (d0 & d1) | (d2 & d3);
            if mask != 0 {
                weak.push((off, mask));
            }
        }
        weak
    });
    let mut entries = Vec::new();
    let mut per_bank_counts = vec![0usize; bank_words.len()];
    let mut weak_bits = 0u64;
    for (bank, weak) in per_bank.into_iter().enumerate() {
        per_bank_counts[bank] = weak.len();
        for (off, mask) in weak {
            weak_bits += u64::from(mask.count_ones());
            entries.push(WeakWord {
                index: starts[bank] + off,
                mask,
            });
        }
    }
    BistReport {
        entries,
        per_bank: per_bank_counts,
        weak_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::{SubArrayDims, SynapticMemoryMap};
    use fault_inject::model::{BitErrorRates, WordFailureModel};
    use fault_inject::protection::ProtectionPolicy;

    fn faulty_memory(bank_words: &[usize], write_p: f64, shards: usize) -> ShardedMemory {
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 2 };
        let map = SynapticMemoryMap::new(bank_words, &policy, SubArrayDims::PAPER);
        let rates = BitErrorRates {
            read_6t: 0.02,
            write_6t: write_p,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let models = (0..bank_words.len())
            .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
            .collect();
        ShardedMemory::new(map, models, 17, shards)
    }

    #[test]
    fn ideal_memory_has_no_weak_cells() {
        let map = SynapticMemoryMap::new(&[128], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let m = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 3, 2);
        let report = run_bist(&m, 0xB157);
        assert_eq!(report.weak_words(), 0);
        assert_eq!(report.weak_bits(), 0);
        assert!(report.weak_rows(&m, 1).is_empty());
    }

    #[test]
    fn bist_finds_persistent_write_faults() {
        // Heavy write faults, light read noise: nearly every write-faulted
        // bit survives both read passes and lands in the weak map.
        let m = faulty_memory(&[512], 0.2, 4);
        let report = run_bist(&m, 0xB157);
        assert!(report.weak_words() > 0, "0.2 write BER must show up");
        assert!(report.weak_bits() >= report.weak_words() as u64);
        // Protected MSBs never appear weak.
        for w in report.entries() {
            assert_eq!(w.mask & 0xC0, 0, "8T-protected bits cannot be weak");
        }
        // Entries are sorted and per-bank counts agree.
        let mut last = 0usize;
        for w in report.entries() {
            assert!(w.index >= last);
            last = w.index;
        }
        assert_eq!(report.per_bank().iter().sum::<usize>(), report.weak_words());
    }

    #[test]
    fn report_is_invariant_across_shard_counts() {
        let reference = run_bist(&faulty_memory(&[300, 200], 0.1, 1), 42);
        for shards in [2usize, 4, 7] {
            let m = faulty_memory(&[300, 200], 0.1, shards);
            let report = run_bist(&m, 42);
            assert_eq!(report, reference, "{shards} shards");
            assert_eq!(report.digest(), reference.digest());
            // Per-shard projection re-partitions the same entries.
            let projected: usize = report.per_shard(&m).iter().map(|&(w, _)| w).sum();
            assert_eq!(projected, reference.weak_words());
        }
    }

    #[test]
    fn bist_is_pure_and_seed_sensitive() {
        let mut m = faulty_memory(&[256], 0.1, 2);
        m.load(&vec![0xA5u8; 256]);
        let image = m.raw_image();
        let counts = m.counts();
        let a = run_bist(&m, 1);
        let b = run_bist(&m, 2);
        assert_eq!(m.raw_image(), image, "BIST must not touch storage");
        assert_eq!(m.counts(), counts, "BIST must not bill accesses");
        assert_eq!(a, run_bist(&m, 1), "same seed, same map");
        assert!(a != b, "read-pass streams must depend on the seed");
    }

    #[test]
    fn weak_rows_threshold_selects_repair_candidates() {
        let m = faulty_memory(&[512], 0.25, 3);
        let report = run_bist(&m, 7);
        let all = report.weak_rows(&m, 1);
        let heavy = report.weak_rows(&m, 16);
        assert!(!all.is_empty());
        assert!(heavy.len() <= all.len());
        for start in &all {
            let (row_start, _) = m.row_span(*start);
            assert_eq!(*start, row_start, "candidates are row starts");
        }
        // Address order, no duplicates.
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }
}
