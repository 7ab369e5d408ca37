//! Behavioral fault-injecting synaptic memory.
//!
//! A functional model of the on-chip weight store: bytes in, bytes out, with
//! the reliability of the configured cells at the configured voltage. Two
//! injection modes mirror the ablation in DESIGN.md §5:
//!
//! * **Per-access** (this module's `read`): every read samples fresh
//!   read-fault bits — the physically faithful model, affordable for small
//!   networks and used to validate the snapshot shortcut.
//! * **Snapshot** ([`SynapticMemory::corrupt_snapshot`]): one corruption
//!   pass over the stored image, the way the paper's functional simulator
//!   perturbs the weight matrix before an evaluation run.
//!
//! Write failures are always persistent: they corrupt the stored byte at
//! write time.
//!
//! # The address-keyed randomness contract
//!
//! Every internally drawn fault bit is a pure function of *logical*
//! coordinates, never of storage layout:
//!
//! * **write faults** are keyed by `(base seed, bank, offset)` — rewriting
//!   a word replays the same weak-cell failure pattern, and bulk loads can
//!   be split across any partition of the address space without changing a
//!   single stored bit;
//! * **snapshot corruption** is keyed by `(snapshot seed, bank)` — one
//!   independent stream per bank, so banks can corrupt in parallel;
//! * **owned reads** ([`SynapticMemory::read`]) are keyed by
//!   `(base seed, read counter)` — fresh per-access fault bits that depend
//!   only on call order;
//! * **shared reads** ([`SynapticMemory::read_shared`]) draw from a
//!   caller-provided RNG — the serving layer owns the randomness.
//!
//! This contract is what makes the bank-parallel
//! [`ShardedMemory`](crate::sharded::ShardedMemory) *bit-identical* to this
//! monolithic reference at any shard count: no stream ever crosses an
//! address-range boundary. The stream helpers live in [`streams`] and are
//! shared by both implementations.
//!
//! # Read fault-stream contract v2
//!
//! Every read-fault mask — shared reads, row reads, owned reads, bulk
//! reads and BIST passes — comes from one sampler,
//! [`ReadMaskSampler`], applied to a *segment*: consecutive words of one
//! bank. A row read is cut into segments at bank boundaries only, never at
//! shard boundaries; a scalar read is a one-word segment; a bulk read or a
//! BIST pass is one segment per bank. Within a segment, each bit with
//! positive read probability `p`, in ascending bit order, places its flips
//! by geometric skip: the gap to the next flipped word is
//! `floor(ln(1 − U) / ln(1 − p))`. A segment costs one draw per fault plus
//! one per active bit, so a faulting read costs per fault, not per bit.
//!
//! Consequences the tests pin: a row read equals the consecutive reads of
//! its bank segments on the same RNG, `read_shared(i)` equals a one-word
//! `read_row_shared(i, 1)`, and sharded equals monolithic at any shard
//! count. A row read is *not* draw-for-draw equal to `len` scalar reads;
//! it is equal in distribution, which `tests/read_stream_v2.rs` checks
//! against a per-word Bernoulli reference.

use crate::organization::{SynapticMemoryMap, WordAddress};
use fault_inject::injector::{geometric_indices, InjectionStats, ReadMaskSampler};
use fault_inject::model::{WordFailureModel, WORD_BITS};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sram_exec::derive_seed;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seed-stream derivation shared by the monolithic [`SynapticMemory`]
/// reference and the sharded production store.
///
/// Domain constants keep the write, owned-read, and bulk-read streams of
/// one base seed disjoint; each stream is then expanded per logical
/// coordinate with [`sram_exec::derive_seed`].
pub mod streams {
    use fault_inject::model::{WordFailureModel, WORD_BITS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sram_exec::derive_seed;

    /// Domain tag of the per-word write-fault streams.
    const DOMAIN_WRITE: u64 = 0x0057_5249_5445_u64; // "WRITE"
    /// Domain tag of the owned-read (call-order) stream.
    const DOMAIN_READ: u64 = 0x5245_4144u64; // "READ"
    /// Domain tag of the per-bank bulk-read streams.
    const DOMAIN_BULK: u64 = 0x4255_4C4Bu64; // "BULK"
    /// Domain tag of the per-bank BIST read streams.
    const DOMAIN_BIST: u64 = 0x4249_5354u64; // "BIST"
    /// Domain tag of the per-word degradation (chaos corruption) streams.
    const DOMAIN_DEGRADE: u64 = 0x4445_4752u64; // "DEGR"

    /// Seed of the write-fault stream of word `(bank, offset)`: a pure
    /// function of the logical address, so loads split across shards (or
    /// replayed in any order) corrupt identically.
    pub fn word_write_seed(base_seed: u64, bank: usize, offset: usize) -> u64 {
        derive_seed(
            derive_seed(derive_seed(base_seed, DOMAIN_WRITE), bank as u64),
            offset as u64,
        )
    }

    /// Seed of the `n`-th owned (single-owner) read of a memory rooted at
    /// `base_seed`.
    pub fn owned_read_seed(base_seed: u64, read_number: u64) -> u64 {
        derive_seed(derive_seed(base_seed, DOMAIN_READ), read_number)
    }

    /// Seed of `bank`'s snapshot-corruption stream for one
    /// `corrupt_snapshot(seed)` pass.
    pub fn snapshot_bank_seed(snapshot_seed: u64, bank: usize) -> u64 {
        derive_seed(snapshot_seed, bank as u64)
    }

    /// Seed of `bank`'s stream for one `read_bulk(seed)` sweep.
    pub fn bulk_bank_seed(bulk_seed: u64, bank: usize) -> u64 {
        derive_seed(derive_seed(bulk_seed, DOMAIN_BULK), bank as u64)
    }

    /// Seed of `bank`'s read stream for pass `pass` of one BIST march
    /// rooted at `bist_seed`. Keyed purely by logical coordinates, so the
    /// weak-cell map a march produces is invariant under sharding and
    /// worker count like every other stream.
    pub fn bist_pass_seed(bist_seed: u64, bank: usize, pass: usize) -> u64 {
        derive_seed(
            derive_seed(derive_seed(bist_seed, DOMAIN_BIST), bank as u64),
            pass as u64,
        )
    }

    /// Seed of global word `index`'s stream for one chaos degradation
    /// event rooted at `event_seed` — persistent corruption keyed by the
    /// global address, never by shard layout.
    pub fn degrade_word_seed(event_seed: u64, index: usize) -> u64 {
        derive_seed(derive_seed(event_seed, DOMAIN_DEGRADE), index as u64)
    }

    /// Seed of the `(base seed, bank)` write-fault stream family — the two
    /// outer derivations of [`word_write_seed`], hoisted so bulk row loads
    /// do one derivation per word instead of three.
    pub fn bank_write_seed(base_seed: u64, bank: usize) -> u64 {
        derive_seed(derive_seed(base_seed, DOMAIN_WRITE), bank as u64)
    }

    /// The persistent write-fault mask of word `(bank, offset)` under
    /// `model`: bit i of the result is set when storing bit i fails.
    /// Deterministic — the same weak cell corrupts every rewrite.
    pub fn write_mask(model: &WordFailureModel, base_seed: u64, bank: usize, offset: usize) -> u8 {
        let mut rng = StdRng::seed_from_u64(word_write_seed(base_seed, bank, offset));
        let mut mask = 0u8;
        for bit in 0..WORD_BITS {
            let p = model.write_probability(bit);
            if p > 0.0 && rng.gen::<f64>() < p {
                mask |= 1 << bit;
            }
        }
        mask
    }
}

/// `2⁵³` as an `f64` — the scale of the workspace RNG's 53-bit uniform
/// draw `(next_u64() >> 11) · 2⁻⁵³`.
const F64_DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The integer comparison threshold that replays `rng.gen::<f64>() < p`
/// exactly: the 53-bit draw `x = next_u64() >> 11` is an exact integer,
/// scaling it by `2⁻⁵³` is exact, and an integer is below a real threshold
/// iff it is below that threshold's ceiling, so
/// `x · 2⁻⁵³ < p  ⟺  x < ceil(p · 2⁵³)` bit-for-bit. Multiplying a
/// probability in `[0, 1]` by a power of two is itself exact in `f64`, so
/// the precomputed threshold carries no rounding at all.
fn draw_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    (p * F64_DRAW_SCALE).ceil() as u64
}

/// The active write-fault bits of one bank: `(bit mask, integer draw
/// threshold)` per bit with positive write probability, in bit order —
/// exactly the bits (and the order) [`streams::write_mask`] draws for.
type ActiveBits = Vec<(u8, u64)>;

fn active_write_bits(model: &WordFailureModel) -> ActiveBits {
    (0..WORD_BITS)
        .filter_map(|bit| {
            let p = model.write_probability(bit);
            (p > 0.0).then(|| (1u8 << bit, draw_threshold(p)))
        })
        .collect()
}

/// Access counters for energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Number of word reads served.
    pub reads: usize,
    /// Number of word writes served.
    pub writes: usize,
}

impl AccessCounts {
    /// Component-wise sum (used to aggregate per-shard counters).
    pub fn merged(self, other: AccessCounts) -> AccessCounts {
        AccessCounts {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
        }
    }
}

/// Interior-mutable access counters: shared-state reads
/// ([`SynapticMemory::read_shared`]) bump them through `&self` from many
/// serving workers at once, so they are atomics rather than plain fields.
/// Relaxed ordering suffices — the counts feed energy accounting, never
/// synchronization.
#[derive(Debug, Default)]
pub(crate) struct AtomicAccessCounts {
    pub(crate) reads: AtomicU64,
    pub(crate) writes: AtomicU64,
}

impl AtomicAccessCounts {
    pub(crate) fn snapshot(&self) -> AccessCounts {
        AccessCounts {
            reads: self.reads.load(Ordering::Relaxed) as usize,
            writes: self.writes.load(Ordering::Relaxed) as usize,
        }
    }
}

impl Clone for AtomicAccessCounts {
    fn clone(&self) -> Self {
        Self {
            reads: AtomicU64::new(self.reads.load(Ordering::Relaxed)),
            writes: AtomicU64::new(self.writes.load(Ordering::Relaxed)),
        }
    }
}

/// Per-bank fault-model state shared by the monolithic and sharded stores:
/// the failure models plus each bank's precomputed read-mask sampler and
/// write-fault thresholds, so ideal banks skip RNG construction entirely
/// on the hot paths.
#[derive(Debug, Clone)]
pub(crate) struct BankModels {
    pub(crate) models: Vec<WordFailureModel>,
    /// Per-bank read-fault samplers: `ln(1 − p)` per active bit.
    read_samplers: Vec<ReadMaskSampler>,
    /// Per-bank integer draw thresholds for write faults, active bits only.
    write_thresholds: Vec<ActiveBits>,
}

impl BankModels {
    pub(crate) fn new(models: Vec<WordFailureModel>) -> Self {
        let read_samplers = models.iter().map(ReadMaskSampler::new).collect();
        let write_thresholds = models.iter().map(active_write_bits).collect();
        Self {
            models,
            read_samplers,
            write_thresholds,
        }
    }

    /// `true` when `bank`'s model can corrupt a read.
    fn read_faulty(&self, bank: usize) -> bool {
        !self.read_samplers[bank].is_fault_free()
    }

    /// `true` when `bank`'s model can corrupt a write.
    fn write_faulty(&self, bank: usize) -> bool {
        !self.write_thresholds[bank].is_empty()
    }

    /// `true` when no bank in `banks` can corrupt a read — reads there draw
    /// zero randomness and return stored bytes verbatim, which is what lets
    /// the serving layer share one physical row fetch across a whole
    /// micro-batch without perturbing any request's fault stream.
    pub(crate) fn read_fault_free(&self, banks: Range<usize>) -> bool {
        self.read_samplers[banks]
            .iter()
            .all(ReadMaskSampler::is_fault_free)
    }

    /// Samples the read-fault masks of the segment of `out.len()`
    /// consecutive words of `bank` from `rng`, filling `out` and returning
    /// the number of set fault bits — the one read-mask sampler of both
    /// stores (read fault-stream contract v2, see the [module docs](self)).
    /// A segment never spans two banks; banks with no faulting bits
    /// consume no randomness at all.
    pub(crate) fn sample_read_masks_into<R: Rng + ?Sized>(
        &self,
        bank: usize,
        rng: &mut R,
        out: &mut [u8],
    ) -> u64 {
        self.read_samplers[bank].sample_into(rng, out)
    }

    /// The read-fault mask of one word of `bank`: a one-word segment.
    pub(crate) fn word_read_mask<R: Rng + ?Sized>(&self, bank: usize, rng: &mut R) -> u8 {
        let mut mask = 0u8;
        self.sample_read_masks_into(bank, rng, std::slice::from_mut(&mut mask));
        mask
    }

    /// XORs the persistent write-fault masks of the consecutive words
    /// `offset_start..offset_start + words.len()` of `bank` into `words`.
    ///
    /// Byte-identical to calling [`streams::write_mask`] per word: each
    /// word's mask comes from its own address-keyed `StdRng`, so the
    /// four-lane interleave below is unobservable — it only converts the
    /// serial seed→draw chain into four independent chains the CPU can
    /// overlap. The outer two seed derivations are hoisted into
    /// [`streams::bank_write_seed`] (one derivation per word, not three).
    pub(crate) fn xor_write_masks(
        &self,
        base_seed: u64,
        bank: usize,
        offset_start: usize,
        words: &mut [u8],
    ) {
        if !self.write_faulty(bank) {
            return;
        }
        let bits = &self.write_thresholds[bank];
        let bank_seed = streams::bank_write_seed(base_seed, bank);
        let word_rng = |offset: usize| StdRng::seed_from_u64(derive_seed(bank_seed, offset as u64));
        let mut offset = offset_start;
        let mut chunks = words.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let mut lanes = [
                word_rng(offset),
                word_rng(offset + 1),
                word_rng(offset + 2),
                word_rng(offset + 3),
                word_rng(offset + 4),
                word_rng(offset + 5),
                word_rng(offset + 6),
                word_rng(offset + 7),
            ];
            for &(bit_mask, threshold) in bits {
                for (lane, word) in lanes.iter_mut().zip(chunk.iter_mut()) {
                    if (lane.next_u64() >> 11) < threshold {
                        *word ^= bit_mask;
                    }
                }
            }
            offset += 8;
        }
        for word in chunks.into_remainder() {
            let mut rng = word_rng(offset);
            for &(bit_mask, threshold) in bits {
                if (rng.next_u64() >> 11) < threshold {
                    *word ^= bit_mask;
                }
            }
            offset += 1;
        }
    }

    /// The write-fault mask of word `(bank, offset)` (0 for ideal banks,
    /// without touching an RNG).
    pub(crate) fn write_mask(&self, base_seed: u64, addr: WordAddress) -> u8 {
        if !self.write_faulty(addr.bank) {
            return 0;
        }
        streams::write_mask(&self.models[addr.bank], base_seed, addr.bank, addr.offset)
    }

    /// The read-fault mask of an owned read numbered `read_number` landing
    /// on `bank`.
    pub(crate) fn owned_read_mask(&self, base_seed: u64, read_number: u64, bank: usize) -> u8 {
        if !self.read_faulty(bank) {
            return 0;
        }
        let mut rng = StdRng::seed_from_u64(streams::owned_read_seed(base_seed, read_number));
        self.word_read_mask(bank, &mut rng)
    }

    /// One bank's snapshot-corruption pass: flips `(offset, bit)` pairs in
    /// `bank_words` words with the bank's per-bit read probabilities, on
    /// the bank's own `(snapshot seed, bank)` stream.
    pub(crate) fn snapshot_bank_flips(
        &self,
        snapshot_seed: u64,
        bank: usize,
        bank_words: usize,
    ) -> (Vec<(usize, u8)>, InjectionStats) {
        let mut flips = Vec::new();
        let mut stats = InjectionStats::default();
        if !self.read_faulty(bank) {
            return (flips, stats);
        }
        let mut rng = StdRng::seed_from_u64(streams::snapshot_bank_seed(snapshot_seed, bank));
        let model = &self.models[bank];
        for bit in 0..WORD_BITS {
            let p = model.read_probability(bit);
            if p <= 0.0 {
                continue;
            }
            for off in geometric_indices(bank_words, p, &mut rng) {
                flips.push((off, 1 << bit));
                stats.flips_per_bit[bit] += 1;
                stats.read_flips += 1;
            }
        }
        (flips, stats)
    }

    /// One bank's slice of a bulk faulty read: word `off` of the bank is
    /// `src(off) ^ mask`, with the masks of the whole bank drawn as one
    /// segment from the bank's own `(bulk seed, bank)` stream. Returns the
    /// read-out bytes plus the number of injected fault bits.
    pub(crate) fn bulk_read_bank(
        &self,
        bulk_seed: u64,
        bank: usize,
        bank_words: usize,
        src: impl Fn(usize) -> u8,
    ) -> (Vec<u8>, u64) {
        let mut out = vec![0u8; bank_words];
        let mut fault_bits = 0u64;
        if self.read_faulty(bank) {
            let mut rng = StdRng::seed_from_u64(streams::bulk_bank_seed(bulk_seed, bank));
            fault_bits = self.sample_read_masks_into(bank, &mut rng, &mut out);
        }
        for (off, word) in out.iter_mut().enumerate() {
            *word ^= src(off);
        }
        (out, fault_bits)
    }
}

/// A synaptic memory with per-bank failure models — the monolithic,
/// single-array *reference implementation* of the address-keyed randomness
/// contract (see the [module docs](self)).
///
/// Production code scales past one array with
/// [`ShardedMemory`](crate::sharded::ShardedMemory), which is pinned
/// bit-identical to this type by the shard-equivalence property tests.
#[derive(Debug, Clone)]
pub struct SynapticMemory {
    map: SynapticMemoryMap,
    banks: BankModels,
    words: Vec<u8>,
    base_seed: u64,
    /// Owned reads served so far — the key of the owned-read fault stream.
    reads_served: u64,
    counts: AtomicAccessCounts,
}

impl SynapticMemory {
    /// Creates a zero-filled memory whose fault streams are rooted at
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `models.len()` differs from the bank count.
    pub fn new(map: SynapticMemoryMap, models: Vec<WordFailureModel>, seed: u64) -> Self {
        assert_eq!(
            models.len(),
            map.banks().len(),
            "one failure model per bank required"
        );
        let words = vec![0u8; map.total_words()];
        Self {
            map,
            banks: BankModels::new(models),
            words,
            base_seed: seed,
            reads_served: 0,
            counts: AtomicAccessCounts::default(),
        }
    }

    /// The memory map.
    pub fn map(&self) -> &SynapticMemoryMap {
        &self.map
    }

    /// The per-bank failure models (parallel to `map().banks()`).
    pub fn models(&self) -> &[WordFailureModel] {
        &self.banks.models
    }

    /// Accesses served so far.
    pub fn counts(&self) -> AccessCounts {
        self.counts.snapshot()
    }

    /// `true` when no bank can corrupt a read: every read returns stored
    /// bytes verbatim and draws zero randomness from the caller's RNG.
    pub fn read_fault_free(&self) -> bool {
        self.banks.read_fault_free(0..self.banks.models.len())
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the memory holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Writes one word; write failures may corrupt stored bits persistently.
    /// The corruption is keyed by the word's logical address, so rewriting
    /// a word replays the same weak-cell pattern.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn write(&mut self, index: usize, value: u8) {
        let addr = self.map.locate(index);
        self.words[index] = value ^ self.banks.write_mask(self.base_seed, addr);
        *self.counts.writes.get_mut() += 1;
    }

    /// Reads one word; read faults flip returned bits without altering the
    /// stored value.
    ///
    /// Draws its fault bits from the owned-read stream (keyed by the number
    /// of owned reads served so far); use
    /// [`read_shared`](Self::read_shared) when the memory is shared
    /// read-only state and the caller owns the randomness.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn read(&mut self, index: usize) -> u8 {
        let bank = self.map.locate(index).bank;
        let mask = self
            .banks
            .owned_read_mask(self.base_seed, self.reads_served, bank);
        self.reads_served += 1;
        *self.counts.reads.get_mut() += 1;
        self.words[index] ^ mask
    }

    /// Reads one word through `&self`, sampling the read-fault bits from a
    /// caller-provided RNG — the shared-state entry point of the serving
    /// layer, where one loaded memory answers requests from many workers
    /// and each request owns its own seed stream.
    ///
    /// Returns `(value, fault_mask)`: bit i of `fault_mask` is set when the
    /// read of bit i faulted, so callers can keep per-request error
    /// counters without a second storage access. The stored content is
    /// untouched; the access counter is bumped atomically.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn read_shared<R: Rng + ?Sized>(&self, index: usize, rng: &mut R) -> (u8, u8) {
        let bank = self.map.locate(index).bank;
        let mask = self.banks.word_read_mask(bank, rng);
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        (self.words[index] ^ mask, mask)
    }

    /// Reads the contiguous row `start..start + len` through `&self` in one
    /// pass, appending the faulted values to `words` and the per-word fault
    /// masks to `masks` (both are cleared first). Returns the number of
    /// injected fault bits.
    ///
    /// The row is cut at bank boundaries into segments, and each segment's
    /// masks are sampled in address order from the caller's RNG by the
    /// geometric-skip sampler of the read fault-stream contract v2 (see the
    /// [module docs](self)). The result equals consecutive reads of those
    /// segments; [`read_shared`](Self::read_shared) is the one-word case.
    /// The read counter advances by `len`.
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
            start
                .checked_add(len)
                .is_some_and(|end| end <= self.words.len()),
            "row read out of range"
        );
        words.clear();
        masks.clear();
        words.extend_from_slice(&self.words[start..start + len]);
        masks.resize(len, 0);
        let mut fault_bits = 0u64;
        let mut pos = 0usize;
        while pos < len {
            let addr = self.map.locate(start + pos);
            let bank_words = self.map.banks()[addr.bank].words;
            let seg = (bank_words - addr.offset).min(len - pos);
            fault_bits +=
                self.banks
                    .sample_read_masks_into(addr.bank, rng, &mut masks[pos..pos + seg]);
            pos += seg;
        }
        if fault_bits > 0 {
            for (w, &m) in words.iter_mut().zip(masks.iter()) {
                *w ^= m;
            }
        }
        self.counts.reads.fetch_add(len as u64, Ordering::Relaxed);
        fault_bits
    }

    /// Reads one word without fault injection (debug/verification path).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn read_raw(&self, index: usize) -> u8 {
        self.words[index]
    }

    /// Bulk-loads `data` through the faulty write path, starting at word 0.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the capacity.
    pub fn load(&mut self, data: &[u8]) {
        assert!(data.len() <= self.words.len(), "data exceeds capacity");
        self.words[..data.len()].copy_from_slice(data);
        let mut pos = 0usize;
        while pos < data.len() {
            let addr = self.map.locate(pos);
            let bank_words = self.map.banks()[addr.bank].words;
            let seg = (bank_words - addr.offset).min(data.len() - pos);
            self.banks.xor_write_masks(
                self.base_seed,
                addr.bank,
                addr.offset,
                &mut self.words[pos..pos + seg],
            );
            pos += seg;
        }
        *self.counts.writes.get_mut() += data.len() as u64;
    }

    /// Reads the whole memory once through the faulty read path: every
    /// word gets a fresh per-access mask from its bank's `(seed, bank)`
    /// bulk stream. Returns the read-out image and the number of injected
    /// fault bits; read counters advance by the word count.
    pub fn read_bulk(&mut self, seed: u64) -> (Vec<u8>, u64) {
        let mut image = Vec::with_capacity(self.words.len());
        let mut fault_bits = 0u64;
        let mut start = 0usize;
        for (bank, b) in self.map.banks().iter().enumerate() {
            let words = &self.words;
            let (out, faults) = self
                .banks
                .bulk_read_bank(seed, bank, b.words, |off| words[start + off]);
            image.extend_from_slice(&out);
            fault_bits += faults;
            start += b.words;
        }
        *self.counts.reads.get_mut() += self.words.len() as u64;
        (image, fault_bits)
    }

    /// Produces a snapshot image of the memory as read once through the
    /// faulty read path — the paper's "perturb the weights, then evaluate"
    /// shortcut. Each bank corrupts on its own `(seed, bank)` stream; the
    /// stored content is unchanged and statistics are returned alongside.
    pub fn corrupt_snapshot(&self, seed: u64) -> (Vec<u8>, InjectionStats) {
        let mut image = self.words.clone();
        let mut stats = InjectionStats::default();
        let mut start = 0usize;
        for (bank, b) in self.map.banks().iter().enumerate() {
            let (flips, bank_stats) = self.banks.snapshot_bank_flips(seed, bank, b.words);
            for (off, bit_mask) in flips {
                image[start + off] ^= bit_mask;
            }
            stats.merge(&bank_stats);
            start += b.words;
        }
        (image, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::SubArrayDims;
    use fault_inject::model::BitErrorRates;
    use fault_inject::protection::{CellAssignment, ProtectionPolicy};

    fn ideal_memory(words: usize) -> SynapticMemory {
        let map =
            SynapticMemoryMap::new(&[words], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        SynapticMemory::new(map, vec![WordFailureModel::ideal()], 1)
    }

    fn faulty_memory(words: usize, read_p: f64, write_p: f64, protected: usize) -> SynapticMemory {
        let map = SynapticMemoryMap::new(
            &[words],
            &ProtectionPolicy::MsbProtected { msb_8t: protected },
            SubArrayDims::PAPER,
        );
        let model = WordFailureModel::new(
            &BitErrorRates {
                read_6t: read_p,
                write_6t: write_p,
                read_8t: 0.0,
                write_8t: 0.0,
            },
            &CellAssignment::msb_protected(protected),
        );
        SynapticMemory::new(map, vec![model], 7)
    }

    #[test]
    fn ideal_memory_round_trips() {
        let mut m = ideal_memory(128);
        let data: Vec<u8> = (0..128).map(|i| (i * 7) as u8).collect();
        m.load(&data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read(i), b);
        }
        assert_eq!(m.counts().reads, 128);
        assert_eq!(m.counts().writes, 128);
    }

    #[test]
    fn read_faults_are_transient() {
        let mut m = faulty_memory(2000, 0.2, 0.0, 0);
        m.load(&vec![0u8; 2000]);
        // Stored content never changes even though reads glitch.
        let mut saw_fault = false;
        for i in 0..2000 {
            if m.read(i) != 0 {
                saw_fault = true;
            }
            assert_eq!(m.read_raw(i), 0, "storage must stay clean");
        }
        assert!(saw_fault, "20% read fault rate must show up");
    }

    #[test]
    fn write_faults_are_persistent() {
        let mut m = faulty_memory(3000, 0.0, 0.3, 0);
        m.load(&vec![0u8; 3000]);
        let corrupted = (0..3000).filter(|&i| m.read_raw(i) != 0).count();
        assert!(corrupted > 0, "30% write fault rate must corrupt storage");
        // Reads are exact now (no read faults configured).
        let seen = (0..3000).filter(|&i| m.read(i) != 0).count();
        assert_eq!(seen, corrupted);
    }

    #[test]
    fn write_faults_are_address_keyed() {
        // Rewriting a word replays the same weak-cell mask; loading in a
        // different order corrupts identically.
        let mut a = faulty_memory(500, 0.0, 0.25, 0);
        a.load(&vec![0u8; 500]);
        let image_a: Vec<u8> = (0..500).map(|i| a.read_raw(i)).collect();
        let mut b = faulty_memory(500, 0.0, 0.25, 0);
        for i in (0..500).rev() {
            b.write(i, 0);
        }
        let image_b: Vec<u8> = (0..500).map(|i| b.read_raw(i)).collect();
        assert_eq!(image_a, image_b, "write faults must not depend on order");
        // Rewriting leaves the corruption unchanged.
        a.write(3, 0);
        assert_eq!(a.read_raw(3), image_a[3]);
    }

    #[test]
    fn protected_msbs_survive() {
        let mut m = faulty_memory(4000, 0.3, 0.3, 3);
        m.load(&vec![0u8; 4000]);
        for i in 0..4000 {
            assert_eq!(m.read(i) & 0xE0, 0, "protected MSBs must never flip");
        }
    }

    #[test]
    fn snapshot_leaves_storage_untouched_and_reports_stats() {
        let mut m = faulty_memory(5000, 0.05, 0.0, 0);
        m.load(&vec![0xFFu8; 5000]);
        let (image, stats) = m.corrupt_snapshot(99);
        assert_eq!(image.len(), 5000);
        assert!(stats.total() > 0);
        let diff = image
            .iter()
            .enumerate()
            .filter(|(i, &b)| b != m.read_raw(*i))
            .count();
        assert!(diff > 0);
        // Expected flips: 5000 words * 8 bits * 0.05 = 2000, allow wide band.
        let total = stats.total() as f64;
        assert!((1500.0..2500.0).contains(&total), "flips {total}");
    }

    #[test]
    fn snapshot_is_deterministic_per_seed() {
        let mut m = faulty_memory(1000, 0.02, 0.0, 1);
        m.load(&vec![0xA5u8; 1000]);
        let (a, sa) = m.corrupt_snapshot(5);
        let (b, sb) = m.corrupt_snapshot(5);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    /// Two banks of 300 and 212 words, two 8T MSBs, both faulting.
    fn two_bank_memory(read_p: f64, write_p: f64) -> SynapticMemory {
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 2 };
        let map = SynapticMemoryMap::new(&[300, 212], &policy, SubArrayDims::PAPER);
        let rates = BitErrorRates {
            read_6t: read_p,
            write_6t: write_p,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let models = (0..2)
            .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
            .collect();
        let mut m = SynapticMemory::new(map, models, 7);
        m.load(&(0..=255).cycle().take(512).collect::<Vec<u8>>());
        m
    }

    #[test]
    fn shared_reads_sample_exactly_the_callers_stream() {
        // `read_shared` with an external RNG is a one-word segment of the
        // caller's stream: the same value, mask and RNG end state as a
        // one-word `read_row_shared` on a twin RNG.
        let mut owned = faulty_memory(512, 0.15, 0.0, 2);
        owned.load(&(0..=255).cycle().take(512).collect::<Vec<u8>>());
        let shared = owned.clone();
        let row = owned.clone();
        let mut rng = StdRng::seed_from_u64(1234);
        let mut rng_twin = StdRng::seed_from_u64(1234);
        let (mut words, mut masks) = (Vec::new(), Vec::new());
        let mut fault_bits = 0u64;
        for i in 0..512 {
            let (value, mask) = shared.read_shared(i, &mut rng);
            let bits = row.read_row_shared(i, 1, &mut rng_twin, &mut words, &mut masks);
            assert_eq!((value, mask), (words[0], masks[0]), "word {i}");
            assert_eq!(bits, u64::from(mask.count_ones()));
            assert_eq!(value, shared.read_raw(i) ^ mask);
            assert_eq!(value & 0xC0, shared.read_raw(i) & 0xC0, "protected MSBs");
            fault_bits += bits;
        }
        assert_eq!(rng, rng_twin, "RNG streams must end in the same state");
        assert!(fault_bits > 0, "15% read fault rate must show up");
        assert_eq!(shared.counts().reads, 512);
        assert_eq!(row.counts(), shared.counts());
        // The shared path never mutates storage.
        for i in 0..512 {
            assert_eq!(shared.read_raw(i), owned.read_raw(i));
        }
    }

    #[test]
    fn row_reads_replay_their_bank_segments() {
        // A row read is consecutive reads of its bank segments on the same
        // RNG: same values, masks, fault bits, counter advance and RNG end
        // state. Bank 0 ends at word 300.
        let m = two_bank_memory(0.15, 0.05);
        let segmented = m.clone();
        let mut row_rng = StdRng::seed_from_u64(0xD00D);
        let mut seg_rng = StdRng::seed_from_u64(0xD00D);
        let (mut words, mut masks) = (Vec::new(), Vec::new());
        let (mut seg_words, mut seg_masks) = (Vec::new(), Vec::new());
        for (start, len) in [
            (0usize, 512usize),
            (3, 17),
            (290, 20),
            (299, 2),
            (500, 12),
            (7, 0),
        ] {
            let fault_bits = m.read_row_shared(start, len, &mut row_rng, &mut words, &mut masks);
            let mut expect_words = Vec::new();
            let mut expect_masks = Vec::new();
            let mut expect_bits = 0u64;
            let cut = 300usize.clamp(start, start + len);
            for (s, l) in [(start, cut - start), (cut, start + len - cut)] {
                if l > 0 {
                    expect_bits += segmented.read_row_shared(
                        s,
                        l,
                        &mut seg_rng,
                        &mut seg_words,
                        &mut seg_masks,
                    );
                    expect_words.extend_from_slice(&seg_words);
                    expect_masks.extend_from_slice(&seg_masks);
                }
            }
            assert_eq!(words, expect_words, "row {start}+{len}");
            assert_eq!(masks, expect_masks, "row {start}+{len}");
            assert_eq!(fault_bits, expect_bits);
            let mask_bits: u32 = masks.iter().map(|m| m.count_ones()).sum();
            assert_eq!(fault_bits, u64::from(mask_bits));
            for (k, i) in (start..start + len).enumerate() {
                assert_eq!(words[k], m.read_raw(i) ^ masks[k]);
            }
        }
        assert_eq!(row_rng, seg_rng, "RNG streams must end in the same state");
        assert_eq!(m.counts(), segmented.counts());
        assert_eq!(m.counts().reads, 512 + 17 + 20 + 2 + 12);
    }

    #[test]
    fn row_reads_on_ideal_banks_draw_no_randomness() {
        let mut m = ideal_memory(64);
        m.load(&[0x5Au8; 64]);
        let mut rng = StdRng::seed_from_u64(9);
        let pristine = rng.clone();
        let mut words = Vec::new();
        let mut masks = Vec::new();
        let fault_bits = m.read_row_shared(0, 64, &mut rng, &mut words, &mut masks);
        assert_eq!(fault_bits, 0);
        assert_eq!(words, vec![0x5Au8; 64]);
        assert_eq!(masks, vec![0u8; 64]);
        assert_eq!(rng, pristine, "fault-free banks must not consume draws");
        assert!(m.read_fault_free());
    }

    #[test]
    fn shared_reads_count_across_threads() {
        let mut m = faulty_memory(64, 0.1, 0.0, 0);
        m.load(&[0x3Cu8; 64]);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let m = &m;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for i in 0..64 {
                        let _ = m.read_shared(i, &mut rng);
                    }
                });
            }
        });
        assert_eq!(m.counts().reads, 4 * 64);
        assert_eq!(m.counts().writes, 64);
    }

    #[test]
    #[should_panic(expected = "data exceeds capacity")]
    fn overload_panics() {
        let mut m = ideal_memory(4);
        m.load(&[0; 5]);
    }

    #[test]
    #[should_panic(expected = "one failure model per bank")]
    fn model_count_mismatch_panics() {
        let map =
            SynapticMemoryMap::new(&[10, 10], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let _ = SynapticMemory::new(map, vec![WordFailureModel::ideal()], 0);
    }
}
