//! Sharded, bank-parallel synaptic memory for million-synapse networks.
//!
//! The paper evaluates one small array; the production system serves
//! traffic out of a store that must scale past one monolithic bank. A
//! [`ShardedMemory`] splits the global word range into `N` contiguous,
//! independently counted shards:
//!
//! ```text
//!  global words   0 ────────────────────────────────▶ total_words
//!                 ├── shard 0 ──┼── shard 1 ──┼── shard N-1 ──┤
//!  logical banks  ├ bank 0 (layer 0) ┼ bank 1 ┼ bank 2 ... ───┤
//! ```
//!
//! Shards are a *physical* partition (the unit of parallel loads, bulk
//! reads, and per-shard access/power accounting); banks remain the
//! *logical* partition (one per ANN layer, each with its own significance
//! band and failure model). A shard boundary may cut through a bank —
//! nothing observable depends on where the cut lands, because every fault
//! stream follows the address-keyed randomness contract of
//! [`behavioral::streams`](crate::behavioral::streams): write faults are
//! keyed by `(seed, bank, offset)`, snapshot/bulk-read corruption by
//! `(seed, bank)`, and shared reads draw from the caller's RNG. The
//! shard-equivalence property tests pin a `ShardedMemory` at any shard
//! count **bit-identical** to the monolithic
//! [`SynapticMemory`](crate::behavioral::SynapticMemory) reference —
//! stored image, fault masks, and access counts alike.
//!
//! Bulk operations ([`ShardedMemory::load`], [`ShardedMemory::read_bulk`],
//! [`ShardedMemory::corrupt_snapshot`]) fan out per shard or per bank on
//! the `sram_exec` pool, so a multi-core host loads and sweeps a
//! million-synapse image in parallel; the `scale_bench` workload and the
//! `cargo xtask scale-report` CI gate measure exactly that scaling.

use crate::behavioral::{streams, AccessCounts, BankModels};
use crate::organization::{SynapticMemoryMap, WordAddress};
use fault_inject::injector::InjectionStats;
use fault_inject::model::{WordFailureModel, WORD_BITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// One shard: a contiguous slice of the global word range with its own
/// storage and access counters.
#[derive(Debug)]
struct Shard {
    /// Global word index of the shard's first word.
    start: usize,
    words: Vec<u8>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl Clone for Shard {
    fn clone(&self) -> Self {
        Self {
            start: self.start,
            words: self.words.clone(),
            reads: AtomicU64::new(self.reads.load(Ordering::Relaxed)),
            writes: AtomicU64::new(self.writes.load(Ordering::Relaxed)),
        }
    }
}

/// A span of words whose cells latch to fixed values: every read of the
/// span observes `(stored | or_mask) & and_mask`. Stuck cells are a
/// *sensing* defect — they corrupt what reads return without drawing any
/// randomness, so the batch-amortized serving path stays valid and every
/// per-request fault stream is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckRange {
    /// First global word of the span.
    pub start: usize,
    /// Words in the span.
    pub words: usize,
    /// Bits forced to one.
    pub or_mask: u8,
    /// Bits forced to zero (set bits pass through).
    pub and_mask: u8,
}

/// Runtime degradation and repair state layered over the stored image.
///
/// Kept out of the hot loop when empty: every read path checks
/// [`Overlays::is_empty`] once and takes the original fast path.
#[derive(Debug, Clone, Default)]
struct Overlays {
    /// Stuck-at spans, sorted by start, non-overlapping.
    stuck: Vec<StuckRange>,
    /// Spare-row contents keyed by the global start of the remapped row.
    /// Spare rows are robust cells: reads bypass storage *and* stuck masks,
    /// writes land verbatim (no write-fault stream).
    repairs: BTreeMap<usize, Vec<u8>>,
}

impl Overlays {
    fn is_empty(&self) -> bool {
        self.stuck.is_empty() && self.repairs.is_empty()
    }
}

/// Address range of one shard (for layout-aware consumers such as the
/// per-shard drowsy policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Shard index.
    pub shard: usize,
    /// Global word index of the first word.
    pub start: usize,
    /// Words in the shard.
    pub words: usize,
}

/// The sharded synaptic store: `N` independent banks of words behind one
/// address space, bit-identical to the monolithic
/// [`SynapticMemory`](crate::behavioral::SynapticMemory) at every shard
/// count (see the [module docs](self)).
///
/// # Examples
///
/// Shared reads route to the owning shard and bump its counter, while the
/// fault mask comes from the caller's RNG — identical at any shard count:
///
/// ```
/// use fault_inject::model::WordFailureModel;
/// use fault_inject::protection::ProtectionPolicy;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
/// use sram_array::sharded::ShardedMemory;
///
/// let map = SynapticMemoryMap::new(&[64], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
/// let mut memory = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 7, 4);
/// memory.load(&[0xA5; 64]);
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let (value, fault_mask) = memory.read_shared(9, &mut rng);
/// assert_eq!((value, fault_mask), (0xA5, 0), "ideal cells never fault");
/// assert_eq!(memory.counts().reads, 1);
/// assert_eq!(memory.shard_counts()[0].reads, 1, "word 9 lives in shard 0 of 4");
/// ```
#[derive(Debug, Clone)]
pub struct ShardedMemory {
    map: SynapticMemoryMap,
    banks: BankModels,
    /// Cumulative bank end addresses, for O(log B) bank lookup.
    bank_ends: Vec<usize>,
    base_seed: u64,
    /// Words per shard (every shard but the last holds exactly this many).
    chunk: usize,
    shards: Vec<Shard>,
    /// Owned reads served so far — the key of the owned-read fault stream.
    reads_served: u64,
    /// Stuck-at spans and spare-row repairs (empty in a healthy store).
    overlays: Overlays,
}

impl ShardedMemory {
    /// Creates a zero-filled memory split into at most `shards` contiguous
    /// address-range shards. Every shard holds at least one word: when the
    /// word count cannot fill `shards` equal-width chunks (e.g. 10 words
    /// over 7 shards), the trailing would-be-empty shards are dropped and
    /// [`shard_count`](Self::shard_count) reports the effective number.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or if `models.len()` differs from the bank
    /// count.
    pub fn new(
        map: SynapticMemoryMap,
        models: Vec<WordFailureModel>,
        seed: u64,
        shards: usize,
    ) -> Self {
        assert!(shards > 0, "at least one shard required");
        assert_eq!(
            models.len(),
            map.banks().len(),
            "one failure model per bank required"
        );
        let total = map.total_words();
        let shards = shards.min(total.max(1));
        let chunk = total.div_ceil(shards).max(1);
        // Uniform chunking can strand empty trailing shards (10 words over
        // 7 shards → chunk 2 → only 5 real shards); drop them so every
        // shard is a live power/accounting domain.
        let shards = total.div_ceil(chunk).max(1);
        let shard_vec = (0..shards)
            .map(|s| {
                let start = s * chunk;
                let len = chunk.min(total - start.min(total));
                Shard {
                    start,
                    words: vec![0u8; len],
                    reads: AtomicU64::new(0),
                    writes: AtomicU64::new(0),
                }
            })
            .collect();
        let bank_ends = map
            .banks()
            .iter()
            .scan(0usize, |acc, b| {
                *acc += b.words;
                Some(*acc)
            })
            .collect();
        Self {
            map,
            banks: BankModels::new(models),
            bank_ends,
            base_seed: seed,
            chunk,
            shards: shard_vec,
            reads_served: 0,
            overlays: Overlays::default(),
        }
    }

    /// A single-shard memory — the layout the monolithic reference models.
    pub fn monolithic(map: SynapticMemoryMap, models: Vec<WordFailureModel>, seed: u64) -> Self {
        Self::new(map, models, seed, 1)
    }

    /// The memory map.
    pub fn map(&self) -> &SynapticMemoryMap {
        &self.map
    }

    /// The per-bank failure models (parallel to `map().banks()`).
    pub fn models(&self) -> &[WordFailureModel] {
        &self.banks.models
    }

    /// The base seed every internal fault stream is rooted at.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The shared per-bank fault-model state (for in-crate consumers such
    /// as the BIST march, which replays the write and read streams without
    /// touching storage).
    pub(crate) fn bank_models(&self) -> &BankModels {
        &self.banks
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard address ranges, in shard order.
    pub fn shard_ranges(&self) -> Vec<ShardRange> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardRange {
                shard,
                start: s.start,
                words: s.words.len(),
            })
            .collect()
    }

    /// Per-shard accesses served so far, in shard order.
    pub fn shard_counts(&self) -> Vec<AccessCounts> {
        self.shards
            .iter()
            .map(|s| AccessCounts {
                reads: s.reads.load(Ordering::Relaxed) as usize,
                writes: s.writes.load(Ordering::Relaxed) as usize,
            })
            .collect()
    }

    /// Accesses served so far, aggregated across shards.
    pub fn counts(&self) -> AccessCounts {
        self.shard_counts()
            .into_iter()
            .fold(AccessCounts::default(), AccessCounts::merged)
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.map.total_words()
    }

    /// `true` when the memory holds no words.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard index owning global word `index`.
    pub fn shard_of(&self, index: usize) -> usize {
        (index / self.chunk).min(self.shards.len() - 1)
    }

    /// Bank index owning global word `index` (O(log banks)).
    fn bank_of(&self, index: usize) -> usize {
        debug_assert!(index < self.len());
        self.bank_ends.partition_point(|&end| end <= index)
    }

    /// The address of `index` without the monolith's linear bank walk.
    fn locate(&self, index: usize) -> WordAddress {
        let bank = self.bank_of(index);
        let bank_start = if bank == 0 {
            0
        } else {
            self.bank_ends[bank - 1]
        };
        WordAddress {
            bank,
            offset: index - bank_start,
        }
    }

    /// Words per physical row (`cols / 8` of the sub-array geometry) — the
    /// granularity of stuck-at spans and spare-row repair.
    pub fn words_per_row(&self) -> usize {
        (self.map.dims().cols / 8).max(1)
    }

    /// The row-aligned span `(start, words)` containing global word
    /// `index`. Rows never cross bank boundaries; a bank's last row may be
    /// short.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn row_span(&self, index: usize) -> (usize, usize) {
        assert!(index < self.len(), "word index {index} out of range");
        let bank = self.bank_of(index);
        let bank_start = if bank == 0 {
            0
        } else {
            self.bank_ends[bank - 1]
        };
        let wpr = self.words_per_row();
        let offset = index - bank_start;
        let start = bank_start + offset - offset % wpr;
        (start, wpr.min(self.bank_ends[bank] - start))
    }

    /// Marks `start..start + words` stuck: every subsequent read of the
    /// span observes `(stored | or_mask) & and_mask`. Stuck sensing draws
    /// no randomness, so every fault stream (and the batch-amortized
    /// serving path) is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or overlaps an existing stuck
    /// span.
    pub fn inject_stuck_range(&mut self, start: usize, words: usize, or_mask: u8, and_mask: u8) {
        assert!(
            start
                .checked_add(words)
                .is_some_and(|end| end <= self.len()),
            "stuck range out of bounds"
        );
        if words == 0 {
            return;
        }
        let range = StuckRange {
            start,
            words,
            or_mask,
            and_mask,
        };
        let at = self.overlays.stuck.partition_point(|r| r.start < start);
        let clear_before = at == 0 || {
            let prev = &self.overlays.stuck[at - 1];
            prev.start + prev.words <= start
        };
        let clear_after =
            at == self.overlays.stuck.len() || start + words <= self.overlays.stuck[at].start;
        assert!(clear_before && clear_after, "stuck ranges must not overlap");
        self.overlays.stuck.insert(at, range);
    }

    /// The stuck-at spans currently in effect, sorted by start.
    pub fn stuck_ranges(&self) -> &[StuckRange] {
        &self.overlays.stuck
    }

    /// Remaps the row starting at `start` onto a spare row holding `data`.
    /// Reads of the span return the spare contents verbatim — bypassing
    /// storage and stuck masks; only the per-access transient read faults
    /// of the sensing path still apply. Re-repairing a row refreshes its
    /// spare contents.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a row start (see
    /// [`row_span`](Self::row_span)) or `data` does not match the row
    /// length.
    pub fn repair_row(&mut self, start: usize, data: &[u8]) {
        let (row_start, row_words) = self.row_span(start);
        assert_eq!(start, row_start, "repair must target a row start");
        assert_eq!(data.len(), row_words, "spare data must fill the row");
        self.overlays.repairs.insert(start, data.to_vec());
    }

    /// The repaired rows as `(start, words)` spans, in address order.
    pub fn repaired_rows(&self) -> Vec<(usize, usize)> {
        self.overlays
            .repairs
            .iter()
            .map(|(&start, data)| (start, data.len()))
            .collect()
    }

    /// `true` when the row containing `index` has been remapped to a spare.
    pub fn is_repaired(&self, index: usize) -> bool {
        self.repaired_byte(index).is_some()
    }

    /// Flips each stored bit of `start..start + words` with probability
    /// `per_bit` — persistent corruption of the *array* (chaos events:
    /// elevated BER, retention-voltage drops). Keyed by `(seed, global
    /// word)`, so the damage is identical at any shard count. Rows already
    /// remapped to spares keep their storage bits flipped too, but reads
    /// never see them (spares are robust). Returns the number of flipped
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `per_bit` is not a
    /// probability.
    pub fn corrupt_stored_range(
        &mut self,
        start: usize,
        words: usize,
        seed: u64,
        per_bit: f64,
    ) -> u64 {
        assert!(
            start
                .checked_add(words)
                .is_some_and(|end| end <= self.len()),
            "corruption range out of bounds"
        );
        assert!(
            (0.0..=1.0).contains(&per_bit) && per_bit.is_finite(),
            "per_bit = {per_bit} is not a probability"
        );
        if per_bit <= 0.0 {
            return 0;
        }
        let mut flipped = 0u64;
        for index in start..start + words {
            let mut rng = StdRng::seed_from_u64(streams::degrade_word_seed(seed, index));
            let mut mask = 0u8;
            for bit in 0..WORD_BITS {
                if rng.gen::<f64>() < per_bit {
                    mask |= 1 << bit;
                }
            }
            if mask != 0 {
                flipped += u64::from(mask.count_ones());
                let shard = (index / self.chunk).min(self.shards.len() - 1);
                let s = &mut self.shards[shard];
                s.words[index - s.start] ^= mask;
            }
        }
        flipped
    }

    /// The spare-row byte backing `index`, if its row is repaired.
    fn repaired_byte(&self, index: usize) -> Option<u8> {
        if self.overlays.repairs.is_empty() {
            return None;
        }
        let wpr = self.words_per_row();
        let from = index.saturating_sub(wpr.saturating_sub(1));
        self.overlays
            .repairs
            .range(from..=index)
            .next_back()
            .and_then(|(&start, data)| data.get(index - start).copied())
    }

    /// The stored byte as the sensing path observes it: spare contents for
    /// repaired rows, stuck masks applied otherwise. Equal to the raw
    /// stored byte whenever no overlay covers the word.
    fn observe(&self, index: usize) -> u8 {
        if let Some(byte) = self.repaired_byte(index) {
            return byte;
        }
        let s = &self.shards[self.shard_of(index)];
        let stored = s.words[index - s.start];
        let at = self
            .overlays
            .stuck
            .partition_point(|r| r.start + r.words <= index);
        match self.overlays.stuck.get(at) {
            Some(r) if r.start <= index => (stored | r.or_mask) & r.and_mask,
            _ => stored,
        }
    }

    /// Applies stuck masks and spare-row repairs to the observed bytes of
    /// `start..start + out.len()` (already copied from storage into `out`).
    fn apply_overlays(&self, start: usize, out: &mut [u8]) {
        let end = start + out.len();
        let first = self
            .overlays
            .stuck
            .partition_point(|r| r.start + r.words <= start);
        for r in &self.overlays.stuck[first..] {
            if r.start >= end {
                break;
            }
            let lo = r.start.max(start);
            let hi = (r.start + r.words).min(end);
            for w in &mut out[lo - start..hi - start] {
                *w = (*w | r.or_mask) & r.and_mask;
            }
        }
        let wpr = self.words_per_row();
        let from = start.saturating_sub(wpr.saturating_sub(1));
        for (&row_start, data) in self.overlays.repairs.range(from..end) {
            let row_end = row_start + data.len();
            if row_end <= start {
                continue;
            }
            let lo = row_start.max(start);
            let hi = row_end.min(end);
            out[lo - start..hi - start].copy_from_slice(&data[lo - row_start..hi - row_start]);
        }
    }

    /// Writes one word; write failures may corrupt stored bits
    /// persistently, keyed by the word's logical address exactly as in the
    /// monolithic reference. Writes to a repaired row land verbatim in the
    /// spare (robust cells, no write-fault stream).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn write(&mut self, index: usize, value: u8) {
        assert!(index < self.len(), "word index {index} out of range");
        if !self.overlays.repairs.is_empty() {
            let wpr = self.words_per_row();
            let from = index.saturating_sub(wpr.saturating_sub(1));
            if let Some((&start, data)) = self.overlays.repairs.range_mut(from..=index).next_back()
            {
                if index - start < data.len() {
                    data[index - start] = value;
                    let shard = (index / self.chunk).min(self.shards.len() - 1);
                    *self.shards[shard].writes.get_mut() += 1;
                    return;
                }
            }
        }
        let addr = self.locate(index);
        let mask = self.banks.write_mask(self.base_seed, addr);
        let shard = self.shard_of(index);
        let s = &mut self.shards[shard];
        s.words[index - s.start] = value ^ mask;
        *s.writes.get_mut() += 1;
    }

    /// Reads one word through the owned-read fault stream (keyed by the
    /// number of owned reads served so far, like the monolithic reference).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn read(&mut self, index: usize) -> u8 {
        assert!(index < self.len(), "word index {index} out of range");
        let bank = self.bank_of(index);
        let mask = self
            .banks
            .owned_read_mask(self.base_seed, self.reads_served, bank);
        self.reads_served += 1;
        let stored = if self.overlays.is_empty() {
            let s = &self.shards[self.shard_of(index)];
            s.words[index - s.start]
        } else {
            self.observe(index)
        };
        let shard = self.shard_of(index);
        *self.shards[shard].reads.get_mut() += 1;
        stored ^ mask
    }

    /// Reads one word through `&self`, sampling the read-fault bits from a
    /// caller-provided RNG — the shared-state entry point the serving
    /// layer funnels every weight fetch through.
    ///
    /// Returns `(value, fault_mask)`; the owning shard's read counter is
    /// bumped atomically.
    ///
    /// # Examples
    ///
    /// The fault mask is a pure function of the caller's RNG stream and
    /// the bank's failure model — never of the shard layout — so replaying
    /// a request's seed replays its faults exactly:
    ///
    /// ```
    /// use fault_inject::model::{BitErrorRates, WordFailureModel};
    /// use fault_inject::protection::{CellAssignment, ProtectionPolicy};
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
    /// use sram_array::sharded::ShardedMemory;
    ///
    /// let rates = BitErrorRates { read_6t: 0.5, write_6t: 0.0, read_8t: 0.0, write_8t: 0.0 };
    /// let model = WordFailureModel::new(&rates, &CellAssignment::msb_protected(4));
    /// let build = |shards| {
    ///     let map = SynapticMemoryMap::new(
    ///         &[32],
    ///         &ProtectionPolicy::MsbProtected { msb_8t: 4 },
    ///         SubArrayDims::PAPER,
    ///     );
    ///     let mut m = ShardedMemory::new(map, vec![model.clone()], 3, shards);
    ///     m.load(&[0u8; 32]);
    ///     m
    /// };
    /// let (one, four) = (build(1), build(4));
    /// let mut rng_a = StdRng::seed_from_u64(9);
    /// let mut rng_b = StdRng::seed_from_u64(9);
    /// for word in 0..32 {
    ///     let (value, mask) = one.read_shared(word, &mut rng_a);
    ///     assert_eq!((value, mask), four.read_shared(word, &mut rng_b));
    ///     assert_eq!(mask & 0xF0, 0, "8T-protected MSBs never fault");
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn read_shared<R: Rng + ?Sized>(&self, index: usize, rng: &mut R) -> (u8, u8) {
        assert!(index < self.len(), "word index {index} out of range");
        let bank = self.bank_of(index);
        let mask = self.banks.word_read_mask(bank, rng);
        let s = &self.shards[self.shard_of(index)];
        s.reads.fetch_add(1, Ordering::Relaxed);
        let stored = if self.overlays.is_empty() {
            s.words[index - s.start]
        } else {
            self.observe(index)
        };
        (stored ^ mask, mask)
    }

    /// Reads the contiguous row `start..start + len` through `&self` in one
    /// pass, appending the faulted values to `words` and the per-word fault
    /// masks to `masks` (both are cleared first). Returns the number of
    /// injected fault bits.
    ///
    /// The mask pass walks *bank* segments, sampling each one's masks from
    /// the caller's RNG with the geometric-skip sampler of the read
    /// fault-stream contract v2 (see
    /// [`behavioral`](crate::behavioral#read-fault-stream-contract-v2));
    /// [`read_shared`](Self::read_shared) is the one-word case. The value
    /// pass walks *shard* segments, copying stored bytes with one atomic
    /// counter bump per segment instead of one per word. Shard boundaries
    /// may cut the row anywhere without affecting a single drawn bit,
    /// because mask segments are cut at bank boundaries only and values
    /// are keyed by address. The result is identical to the monolithic
    /// [`SynapticMemory`](crate::behavioral::SynapticMemory) at any shard
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds the capacity.
    pub fn read_row_shared<R: Rng + ?Sized>(
        &self,
        start: usize,
        len: usize,
        rng: &mut R,
        words: &mut Vec<u8>,
        masks: &mut Vec<u8>,
    ) -> u64 {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len()),
            "row read out of range"
        );
        words.clear();
        masks.clear();
        masks.resize(len, 0);
        // Mask pass: bank segments, caller's RNG in address order.
        let mut fault_bits = 0u64;
        let mut pos = 0usize;
        while pos < len {
            let idx = start + pos;
            let bank = self.bank_of(idx);
            let seg = (self.bank_ends[bank] - idx).min(len - pos);
            fault_bits += self
                .banks
                .sample_read_masks_into(bank, rng, &mut masks[pos..pos + seg]);
            pos += seg;
        }
        // Value pass: shard segments, one counter bump per segment.
        let mut pos = 0usize;
        while pos < len {
            let idx = start + pos;
            let s = &self.shards[self.shard_of(idx)];
            let local = idx - s.start;
            let seg = (s.words.len() - local).min(len - pos);
            words.extend_from_slice(&s.words[local..local + seg]);
            s.reads.fetch_add(seg as u64, Ordering::Relaxed);
            pos += seg;
        }
        if !self.overlays.is_empty() {
            self.apply_overlays(start, words);
        }
        if fault_bits > 0 {
            for (w, &m) in words.iter_mut().zip(masks.iter()) {
                *w ^= m;
            }
        }
        fault_bits
    }

    /// `true` when no bank can corrupt a read: every read returns stored
    /// bytes verbatim and draws zero randomness from the caller's RNG.
    /// The whole-store case of [`banks_read_fault_free`](Self::banks_read_fault_free).
    pub fn read_fault_free(&self) -> bool {
        self.banks_read_fault_free(0..self.banks.models.len())
    }

    /// `true` when no bank in the window `banks` can corrupt a read. This
    /// is the condition under which the serving layer may feed one
    /// physical row fetch to a whole micro-batch of a tenant living in
    /// that window — with nothing drawn, all per-request fault streams
    /// stay untouched and replay identically, whatever other tenants of
    /// the store do.
    ///
    /// # Panics
    ///
    /// Panics if the window runs past the store's banks.
    pub fn banks_read_fault_free(&self, banks: Range<usize>) -> bool {
        self.banks.read_fault_free(banks)
    }

    /// Bills read counters as if every word of `start..start + len` had
    /// been read `copies` more times, without touching storage or
    /// randomness — the accounting half of a batch-amortized row fetch,
    /// where one physical read feeds many requests but each logical
    /// request is still charged its reads.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds the capacity.
    pub fn charge_reads(&self, start: usize, len: usize, copies: usize) {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len()),
            "row read out of range"
        );
        if copies == 0 {
            return;
        }
        let mut pos = 0usize;
        while pos < len {
            let idx = start + pos;
            let s = &self.shards[self.shard_of(idx)];
            let seg = (s.words.len() - (idx - s.start)).min(len - pos);
            s.reads.fetch_add((seg * copies) as u64, Ordering::Relaxed);
            pos += seg;
        }
    }

    /// Reads one word without transient fault injection — what a perfect
    /// sense amplifier would observe: spare contents for repaired rows and
    /// stuck masks applied, raw storage otherwise (debug, verification,
    /// and scrubber path).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn read_raw(&self, index: usize) -> u8 {
        assert!(index < self.len(), "word index {index} out of range");
        if self.overlays.is_empty() {
            let s = &self.shards[self.shard_of(index)];
            s.words[index - s.start]
        } else {
            self.observe(index)
        }
    }

    /// Bulk-loads `data` through the faulty write path starting at word 0,
    /// fanning out **per shard** on the `sram_exec` pool: write-fault masks
    /// are a pure function of each word's logical address, so shard loads
    /// are independent and the stored image is bit-identical to a
    /// sequential monolithic load.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the capacity.
    pub fn load(&mut self, data: &[u8]) {
        assert!(data.len() <= self.len(), "data exceeds capacity");
        let banks = &self.banks;
        let base_seed = self.base_seed;
        let ranges: Vec<(usize, usize)> = self
            .shards
            .iter()
            .map(|s| {
                (
                    s.start,
                    s.words.len().min(data.len().saturating_sub(s.start)),
                )
            })
            .collect();
        let map = &self.map;
        let loaded: Vec<Vec<u8>> = sram_exec::par_map_indexed(self.shards.len(), |si| {
            let (start, len) = ranges[si];
            let mut stored = data[start..start + len].to_vec();
            if len == 0 {
                return stored;
            }
            // Walk bank segments instead of re-locating every word; the
            // per-segment mask kernel interleaves four address-keyed RNG
            // chains, bit-identical to the word-at-a-time reference.
            let mut addr = map.locate(start);
            let mut pos = 0usize;
            while pos < len {
                let bank_words = map.banks()[addr.bank].words;
                // Zero-word banks must be stepped over, or every later
                // word would key its mask to the wrong bank.
                if addr.offset == bank_words {
                    addr.bank += 1;
                    addr.offset = 0;
                    continue;
                }
                let seg = (bank_words - addr.offset).min(len - pos);
                banks.xor_write_masks(
                    base_seed,
                    addr.bank,
                    addr.offset,
                    &mut stored[pos..pos + seg],
                );
                addr.offset += seg;
                pos += seg;
            }
            stored
        });
        for (shard, stored) in self.shards.iter_mut().zip(loaded) {
            *shard.writes.get_mut() += stored.len() as u64;
            shard.words[..stored.len()].copy_from_slice(&stored);
        }
    }

    /// Reads the whole memory once through the faulty read path, fanning
    /// out **per bank** on the `sram_exec` pool: each bank draws per-word
    /// masks from its own `(seed, bank)` bulk stream. Returns the read-out
    /// image and the number of injected fault bits; every shard's read
    /// counter advances by its word count.
    pub fn read_bulk(&self, seed: u64) -> (Vec<u8>, u64) {
        let bank_words: Vec<usize> = self.map.banks().iter().map(|b| b.words).collect();
        let banks = &self.banks;
        let mut bank_start = 0usize;
        let starts: Vec<usize> = bank_words
            .iter()
            .map(|&w| {
                let s = bank_start;
                bank_start += w;
                s
            })
            .collect();
        let per_bank: Vec<(Vec<u8>, u64)> = sram_exec::par_map_indexed(bank_words.len(), |bank| {
            banks.bulk_read_bank(seed, bank, bank_words[bank], |off| {
                self.read_raw(starts[bank] + off)
            })
        });
        let mut image = Vec::with_capacity(self.len());
        let mut fault_bits = 0u64;
        for (out, faults) in per_bank {
            image.extend_from_slice(&out);
            fault_bits += faults;
        }
        for shard in &self.shards {
            shard
                .reads
                .fetch_add(shard.words.len() as u64, Ordering::Relaxed);
        }
        (image, fault_bits)
    }

    /// Produces a snapshot image of the memory as read once through the
    /// faulty read path — the paper's functional-simulator shortcut —
    /// fanning the corruption out **per bank** on the `sram_exec` pool.
    /// Bit-identical to the monolithic reference's sequential pass: each
    /// bank owns the `(seed, bank)` stream and statistics merge in bank
    /// order.
    pub fn corrupt_snapshot(&self, seed: u64) -> (Vec<u8>, InjectionStats) {
        let mut image = Vec::with_capacity(self.len());
        for shard in &self.shards {
            image.extend_from_slice(&shard.words);
        }
        if !self.overlays.is_empty() {
            self.apply_overlays(0, &mut image);
        }
        let bank_words: Vec<usize> = self.map.banks().iter().map(|b| b.words).collect();
        let banks = &self.banks;
        let per_bank: Vec<(Vec<(usize, u8)>, InjectionStats)> =
            sram_exec::par_map_indexed(bank_words.len(), |bank| {
                banks.snapshot_bank_flips(seed, bank, bank_words[bank])
            });
        let mut stats = InjectionStats::default();
        let mut start = 0usize;
        for (bank, (flips, bank_stats)) in per_bank.into_iter().enumerate() {
            for (off, bit_mask) in flips {
                image[start + off] ^= bit_mask;
            }
            stats.merge(&bank_stats);
            start += bank_words[bank];
        }
        (image, stats)
    }

    /// The stored image, shard slices concatenated — raw array contents,
    /// *without* stuck masks or spare-row repairs (those are sensing-path
    /// overlays; see [`read_raw`](Self::read_raw) for the observed view).
    pub fn raw_image(&self) -> Vec<u8> {
        let mut image = Vec::with_capacity(self.len());
        for shard in &self.shards {
            image.extend_from_slice(&shard.words);
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::SynapticMemory;
    use crate::organization::SubArrayDims;
    use fault_inject::model::BitErrorRates;
    use fault_inject::protection::{CellAssignment, ProtectionPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn models_for(
        policy: &ProtectionPolicy,
        banks: usize,
        read_p: f64,
        write_p: f64,
    ) -> Vec<WordFailureModel> {
        let rates = BitErrorRates {
            read_6t: read_p,
            write_6t: write_p,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        (0..banks)
            .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
            .collect()
    }

    fn pair(
        bank_words: &[usize],
        read_p: f64,
        write_p: f64,
        seed: u64,
        shards: usize,
    ) -> (SynapticMemory, ShardedMemory) {
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 2 };
        let map = SynapticMemoryMap::new(bank_words, &policy, SubArrayDims::PAPER);
        let models = models_for(&policy, bank_words.len(), read_p, write_p);
        (
            SynapticMemory::new(map.clone(), models.clone(), seed),
            ShardedMemory::new(map, models, seed, shards),
        )
    }

    #[test]
    fn shard_ranges_partition_the_address_space() {
        let policy = ProtectionPolicy::Uniform6T;
        let map = SynapticMemoryMap::new(&[100, 50, 25], &policy, SubArrayDims::PAPER);
        for shards in [1usize, 2, 3, 4, 7, 175, 400] {
            let m = ShardedMemory::new(map.clone(), vec![WordFailureModel::ideal(); 3], 1, shards);
            let ranges = m.shard_ranges();
            assert_eq!(m.shard_count(), shards.min(175));
            assert_eq!(ranges[0].start, 0);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next);
                next += r.words;
            }
            assert_eq!(next, 175);
            for idx in [0usize, 99, 100, 174] {
                let s = m.shard_of(idx);
                assert!(ranges[s].start <= idx && idx < ranges[s].start + ranges[s].words);
            }
        }
    }

    #[test]
    fn sharded_load_matches_monolith_at_every_shard_count() {
        let data: Vec<u8> = (0..=255).cycle().take(330).collect();
        for shards in [1usize, 2, 4, 7] {
            let (mut mono, mut sharded) = pair(&[140, 120, 70], 0.0, 0.2, 99, shards);
            mono.load(&data);
            sharded.load(&data);
            let mono_image: Vec<u8> = (0..330).map(|i| mono.read_raw(i)).collect();
            assert_eq!(sharded.raw_image(), mono_image, "{shards} shards");
            assert_eq!(sharded.counts(), mono.counts());
        }
    }

    #[test]
    fn zero_word_banks_do_not_derail_the_load_walk() {
        // A zero-word bank sits between two real banks; the cumulative
        // bank walk in `load` must step over it or every later word keys
        // its write mask to the wrong bank.
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 2 };
        let map = SynapticMemoryMap::new(&[4, 0, 4], &policy, SubArrayDims::PAPER);
        let models = models_for(&policy, 3, 0.0, 0.5);
        let data = [0u8; 8];
        let mut mono = SynapticMemory::new(map.clone(), models.clone(), 9);
        mono.load(&data);
        let mono_image: Vec<u8> = (0..8).map(|i| mono.read_raw(i)).collect();
        for shards in [1usize, 2, 3] {
            let mut sharded = ShardedMemory::new(map.clone(), models.clone(), 9, shards);
            sharded.load(&data);
            assert_eq!(sharded.raw_image(), mono_image, "{shards} shards");
        }
    }

    #[test]
    fn awkward_shard_counts_never_produce_empty_shards() {
        // 10 words over 7 requested shards: uniform chunking would strand
        // two empty trailing shards; the constructor drops them.
        let map = SynapticMemoryMap::new(&[10], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let m = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 1, 7);
        assert_eq!(m.shard_count(), 5);
        for range in m.shard_ranges() {
            assert!(range.words > 0, "shard {} is empty", range.shard);
        }
        assert_eq!(m.shard_ranges().iter().map(|r| r.words).sum::<usize>(), 10);
    }

    #[test]
    fn sharded_owned_reads_match_monolith() {
        let data = vec![0x5Au8; 200];
        let (mut mono, mut sharded) = pair(&[120, 80], 0.1, 0.0, 5, 3);
        mono.load(&data);
        sharded.load(&data);
        // Same access pattern → same owned-read streams.
        let pattern: Vec<usize> = (0..200).rev().chain(0..200).collect();
        for &i in &pattern {
            assert_eq!(mono.read(i), sharded.read(i), "word {i}");
        }
    }

    #[test]
    fn sharded_shared_reads_match_monolith_for_the_same_rng() {
        let data = vec![0xC3u8; 150];
        let (mut mono, mut sharded) = pair(&[90, 60], 0.2, 0.05, 11, 4);
        mono.load(&data);
        sharded.load(&data);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        for i in 0..150 {
            assert_eq!(
                mono.read_shared(i, &mut rng_a),
                sharded.read_shared(i, &mut rng_b)
            );
        }
        assert_eq!(sharded.counts().reads, 150);
    }

    #[test]
    fn snapshot_and_bulk_read_match_monolith_at_every_shard_count() {
        let data: Vec<u8> = (0..250).map(|i| (i * 13) as u8).collect();
        let (mut mono, _) = pair(&[130, 120], 0.08, 0.01, 21, 1);
        mono.load(&data);
        let (mono_snap, mono_stats) = mono.corrupt_snapshot(77);
        let (mono_bulk, mono_faults) = mono.read_bulk(88);
        for shards in [1usize, 2, 4, 7] {
            let (_, mut sharded) = pair(&[130, 120], 0.08, 0.01, 21, shards);
            sharded.load(&data);
            let (snap, stats) = sharded.corrupt_snapshot(77);
            assert_eq!(snap, mono_snap, "{shards}-shard snapshot");
            assert_eq!(stats, mono_stats);
            let (bulk, faults) = sharded.read_bulk(88);
            assert_eq!(bulk, mono_bulk, "{shards}-shard bulk read");
            assert_eq!(faults, mono_faults);
        }
    }

    #[test]
    fn per_shard_counters_account_bulk_operations() {
        let (_, mut sharded) = pair(&[64, 64], 0.1, 0.0, 3, 4);
        sharded.load(&[0u8; 128]);
        let _ = sharded.read_bulk(9);
        let per_shard = sharded.shard_counts();
        assert_eq!(per_shard.len(), 4);
        for (counts, range) in per_shard.iter().zip(sharded.shard_ranges()) {
            assert_eq!(counts.reads, range.words);
            assert_eq!(counts.writes, range.words);
        }
        assert_eq!(sharded.counts().reads, 128);
        assert_eq!(sharded.counts().writes, 128);
    }

    #[test]
    fn shard_counters_are_thread_safe() {
        let (_, mut sharded) = pair(&[64], 0.1, 0.0, 3, 2);
        sharded.load(&[0x3C; 64]);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let m = &sharded;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for i in 0..64 {
                        let _ = m.read_shared(i, &mut rng);
                    }
                });
            }
        });
        assert_eq!(sharded.counts().reads, 4 * 64);
        let per_shard = sharded.shard_counts();
        assert_eq!(per_shard[0].reads + per_shard[1].reads, 4 * 64);
        assert_eq!(per_shard[0].reads, 4 * 32);
    }

    #[test]
    fn protected_msbs_survive_in_every_shard() {
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 3 };
        let map = SynapticMemoryMap::new(&[400], &policy, SubArrayDims::PAPER);
        let model = WordFailureModel::new(
            &BitErrorRates {
                read_6t: 0.3,
                write_6t: 0.3,
                read_8t: 0.0,
                write_8t: 0.0,
            },
            &CellAssignment::msb_protected(3),
        );
        let mut m = ShardedMemory::new(map, vec![model], 13, 5);
        m.load(&vec![0u8; 400]);
        for i in 0..400 {
            assert_eq!(m.read(i) & 0xE0, 0, "protected MSBs must never flip");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let map = SynapticMemoryMap::new(&[4], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let _ = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let map = SynapticMemoryMap::new(&[4], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let m = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 0, 2);
        let _ = m.read_raw(4);
    }

    fn ideal_memory(bank_words: &[usize], shards: usize) -> ShardedMemory {
        let map = SynapticMemoryMap::new(
            bank_words,
            &ProtectionPolicy::Uniform6T,
            SubArrayDims::PAPER,
        );
        let models = vec![WordFailureModel::ideal(); bank_words.len()];
        ShardedMemory::new(map, models, 7, shards)
    }

    #[test]
    fn row_span_is_row_aligned_and_bank_bounded() {
        // PAPER dims: 256 cols → 32 words per row. Bank 0 holds 70 words:
        // rows [0,32), [32,64), and a short tail [64,70). Bank 1 starts a
        // fresh row at word 70 regardless of global alignment.
        let m = ideal_memory(&[70, 40], 3);
        assert_eq!(m.words_per_row(), 32);
        assert_eq!(m.row_span(0), (0, 32));
        assert_eq!(m.row_span(31), (0, 32));
        assert_eq!(m.row_span(32), (32, 32));
        assert_eq!(m.row_span(69), (64, 6), "bank tail row is short");
        assert_eq!(m.row_span(70), (70, 32), "banks restart row alignment");
        assert_eq!(m.row_span(109), (102, 8));
    }

    #[test]
    fn stuck_ranges_corrupt_reads_but_not_storage() {
        let mut m = ideal_memory(&[64], 2);
        m.load(&[0x0Fu8; 64]);
        m.inject_stuck_range(10, 4, 0xC0, 0xFE);
        for i in 0..64 {
            let expect = if (10..14).contains(&i) { 0xCE } else { 0x0F };
            assert_eq!(m.read_raw(i), expect, "word {i}");
        }
        assert_eq!(m.raw_image(), vec![0x0F; 64], "storage itself is intact");
        // Row reads observe the same overlay as scalar reads.
        let mut rng = StdRng::seed_from_u64(1);
        let (mut words, mut masks) = (Vec::new(), Vec::new());
        let faults = m.read_row_shared(0, 64, &mut rng, &mut words, &mut masks);
        assert_eq!(faults, 0);
        let scalar: Vec<u8> = (0..64).map(|i| m.read_raw(i)).collect();
        assert_eq!(words, scalar);
        // Snapshot and bulk reads see it too.
        let (snap, _) = m.corrupt_snapshot(5);
        assert_eq!(snap, scalar);
        let (bulk, _) = m.read_bulk(6);
        assert_eq!(bulk, scalar);
    }

    #[test]
    fn repaired_rows_override_storage_and_stuck_masks() {
        let mut m = ideal_memory(&[64], 3);
        m.load(&[0x55u8; 64]);
        m.inject_stuck_range(32, 32, 0xFF, 0xFF); // whole second row stuck at 1
        let spare = vec![0xA7u8; 32];
        m.repair_row(32, &spare);
        for i in 32..64 {
            assert_eq!(m.read_raw(i), 0xA7, "spare bypasses the stuck cells");
            assert!(m.is_repaired(i));
        }
        assert!(!m.is_repaired(31));
        assert_eq!(m.repaired_rows(), vec![(32, 32)]);
        // Row-path observation agrees with the scalar path across the
        // repair boundary.
        let mut rng = StdRng::seed_from_u64(2);
        let (mut words, mut masks) = (Vec::new(), Vec::new());
        m.read_row_shared(16, 32, &mut rng, &mut words, &mut masks);
        let scalar: Vec<u8> = (16..48).map(|i| m.read_raw(i)).collect();
        assert_eq!(words, scalar);
    }

    #[test]
    fn writes_to_repaired_rows_land_in_the_spare() {
        // Heavy write faults everywhere; the spare row must be immune.
        let (_, mut m) = pair(&[64], 0.0, 0.5, 3, 2);
        m.load(&[0u8; 64]);
        m.repair_row(0, &[0u8; 32]);
        for i in 0..32 {
            m.write(i, 0x3C);
            assert_eq!(m.read_raw(i), 0x3C, "spare writes are fault-free");
        }
        let writes_before = m.counts().writes;
        m.write(5, 0x99);
        assert_eq!(m.counts().writes, writes_before + 1, "spare writes billed");
    }

    #[test]
    fn corrupt_stored_range_is_deterministic_and_shard_invariant() {
        let build = |shards| {
            let mut m = ideal_memory(&[200], shards);
            m.load(&[0x11u8; 200]);
            m
        };
        let mut reference = build(1);
        let flipped = reference.corrupt_stored_range(40, 100, 0xDEAD, 0.05);
        assert!(flipped > 0, "5% of 800 bits should flip at least once");
        for shards in [2usize, 4, 7] {
            let mut m = build(shards);
            assert_eq!(m.corrupt_stored_range(40, 100, 0xDEAD, 0.05), flipped);
            assert_eq!(m.raw_image(), reference.raw_image(), "{shards} shards");
        }
        // Untouched words keep their contents.
        assert_eq!(reference.read_raw(39), 0x11);
        assert_eq!(reference.read_raw(140), 0x11);
    }

    #[test]
    fn overlay_free_reads_take_the_fast_path_unchanged() {
        // With no overlays installed the observed image is the raw image —
        // the baseline equivalence tests above all run through this path.
        let mut m = ideal_memory(&[64], 2);
        m.load(&[0x77u8; 64]);
        assert!(m.stuck_ranges().is_empty());
        assert!(m.repaired_rows().is_empty());
        assert_eq!(
            m.raw_image(),
            (0..64).map(|i| m.read_raw(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_stuck_ranges_panic() {
        let mut m = ideal_memory(&[64], 1);
        m.inject_stuck_range(0, 10, 0xFF, 0xFF);
        m.inject_stuck_range(5, 10, 0xFF, 0xFF);
    }

    #[test]
    #[should_panic(expected = "row start")]
    fn repair_must_target_a_row_start() {
        let mut m = ideal_memory(&[64], 1);
        m.repair_row(5, &[0u8; 32]);
    }
}
