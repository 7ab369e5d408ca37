//! System controller: sequences NPE computations against the synaptic memory.
//!
//! This is the digital ASIC of paper Fig. 2 in behavioral form: the
//! controller walks the network layer by layer, streams each neuron's weight
//! words out of the (possibly faulty, voltage-scaled) synaptic memory, feeds
//! the NPE MAC, and latches the activations for the next layer. Every weight
//! read goes through the behavioral memory, so per-access read faults land
//! exactly where the hardware would see them.
//!
//! # Shared-state inference
//!
//! The weight image and the NPE are **read-only** once the network is
//! loaded, so inference takes `&self`: any number of workers can classify
//! through one [`NeuromorphicSystem`] concurrently. Everything mutable —
//! the per-request fault RNG and the layer scratch buffers — lives in an
//! [`InferContext`] the caller threads through. A context is seeded as
//! `derive_seed(base_seed, request_id)`, so the fault bits a request sees
//! are a pure function of `(base_seed, request_id)`: serving the same
//! request stream at any worker count, in any order, in any batching,
//! replays bit-identical predictions. The serving layer (`sram_serve`)
//! builds directly on this contract.

use crate::layout;
use crate::npe::{encode_activation, Npe};
use neural::quant::QuantizedMlp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_array::sharded::ShardedMemory;
use sram_exec::derive_seed;
use std::ops::Range;
use std::sync::Arc;

/// Base seed of the legacy `&mut self` entry points when none is given.
const DEFAULT_BASE_SEED: u64 = 0x001F_E25E_EDD0;

/// Index of the largest code, ties broken to the **lowest** index (a plain
/// `max_by_key` keeps the *last* maximum, which would make serving
/// tie-breaks disagree with the float evaluator's argmax).
fn argmax_lowest(codes: &[u8]) -> Option<usize> {
    let mut best = 0usize;
    for (i, &code) in codes.iter().enumerate().skip(1) {
        if code > codes[best] {
            best = i;
        }
    }
    (!codes.is_empty()).then_some(best)
}

/// Shape of one layer as seen by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerShape {
    inputs: usize,
    outputs: usize,
}

/// Per-request mutable state: the fault RNG plus the controller's scratch
/// buffers, hoisted out of [`NeuromorphicSystem`] so inference can run on
/// shared `&self`.
///
/// Reusing one context across requests (re-seeding with
/// [`reset`](Self::reset)) keeps the scratch allocations warm — that is
/// what the serving layer's micro-batches amortize — without ever leaking
/// randomness between requests: the RNG is rebuilt from the request's seed,
/// never resumed.
#[derive(Debug, Clone)]
pub struct InferContext {
    rng: StdRng,
    weight_buf: Vec<u8>,
    mask_buf: Vec<u8>,
    activations: Vec<u8>,
    next: Vec<u8>,
    fault_bits: u64,
    reads: u64,
}

impl InferContext {
    /// A context for request `request_id` of the stream rooted at
    /// `base_seed`; the fault randomness is `derive_seed(base_seed,
    /// request_id)` — independent of worker, order, and batch placement.
    ///
    /// Scratch buffers start empty and grow on first use; prefer
    /// [`NeuromorphicSystem::make_context`], which pre-sizes them from the
    /// layer shapes so no request ever reallocates.
    pub fn for_request(base_seed: u64, request_id: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(derive_seed(base_seed, request_id)),
            weight_buf: Vec::new(),
            mask_buf: Vec::new(),
            activations: Vec::new(),
            next: Vec::new(),
            fault_bits: 0,
            reads: 0,
        }
    }

    /// Re-arms the context for another request, keeping the scratch buffers
    /// but replacing the RNG and clearing the per-request counters. After
    /// `ctx.reset(b, r)` the context behaves exactly like
    /// `InferContext::for_request(b, r)`.
    pub fn reset(&mut self, base_seed: u64, request_id: u64) {
        self.rng = StdRng::seed_from_u64(derive_seed(base_seed, request_id));
        self.fault_bits = 0;
        self.reads = 0;
    }

    /// Read-fault bits injected during the requests since the last reset.
    pub fn fault_bits(&self) -> u64 {
        self.fault_bits
    }

    /// Memory words read since the last reset.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// The neuromorphic system: NPE bank + controller + synaptic memory.
///
/// The weight store is the bank-parallel [`ShardedMemory`]; since the
/// sharded store is bit-identical to the monolithic reference at every
/// shard count, the shard count is a pure throughput knob — predictions
/// never depend on it.
///
/// The store is held behind an [`Arc`] so several resident systems
/// (tenants) can share one physical memory, each addressing its own bank
/// window via [`new_resident`](Self::new_resident). A single-tenant system
/// built with [`new`](Self::new) owns its `Arc` uniquely, so the
/// maintenance port ([`memory_mut`](Self::memory_mut)) still works there.
#[derive(Debug)]
pub struct NeuromorphicSystem {
    npe: Npe,
    memory: Arc<ShardedMemory>,
    shapes: Vec<LayerShape>,
    /// Global word index of this system's first weight word inside the
    /// (possibly shared) store; `0` for a single-tenant store.
    base_addr: usize,
    /// The store banks holding this system's layers.
    banks: Range<usize>,
    base_seed: u64,
    /// Requests served through the legacy `&mut self` entry points; each
    /// gets the next id of the default stream.
    served: u64,
}

impl NeuromorphicSystem {
    /// Builds the system by loading a quantized network into the given
    /// memory (through its faulty write path).
    ///
    /// # Panics
    ///
    /// Panics if the memory's bank layout does not match the network
    /// (`layout::bank_words`).
    pub fn new(network: &QuantizedMlp, mut memory: ShardedMemory, npe: Npe) -> Self {
        let words = layout::bank_words(network);
        let map_words: Vec<usize> = memory.map().banks().iter().map(|b| b.words).collect();
        assert_eq!(
            words, map_words,
            "memory bank layout does not match the network"
        );
        memory.load(&layout::flatten(network));
        Self {
            npe,
            memory: Arc::new(memory),
            shapes: Self::shapes_of(network),
            base_addr: 0,
            banks: 0..words.len(),
            base_seed: DEFAULT_BASE_SEED,
            served: 0,
        }
    }

    /// Builds a **resident** system over a shared store: the network's
    /// weights are assumed to already be loaded into the store's banks
    /// starting at `first_bank` (the multi-tenant registry loads one
    /// concatenated image before sharing the `Arc`). No write traffic is
    /// issued; the system only validates the bank window and computes its
    /// base address.
    ///
    /// # Panics
    ///
    /// Panics if the store's banks at `first_bank..` do not match the
    /// network's `layout::bank_words`.
    pub fn new_resident(
        network: &QuantizedMlp,
        store: Arc<ShardedMemory>,
        first_bank: usize,
        npe: Npe,
    ) -> Self {
        let words = layout::bank_words(network);
        let banks = store.map().banks();
        assert!(
            first_bank + words.len() <= banks.len(),
            "bank window {first_bank}..{} beyond the store's {} banks",
            first_bank + words.len(),
            banks.len()
        );
        let window: Vec<usize> = banks[first_bank..first_bank + words.len()]
            .iter()
            .map(|b| b.words)
            .collect();
        assert_eq!(
            words, window,
            "memory bank layout does not match the network"
        );
        let base_addr = banks[..first_bank].iter().map(|b| b.words).sum();
        Self {
            npe,
            memory: store,
            shapes: Self::shapes_of(network),
            base_addr,
            banks: first_bank..first_bank + words.len(),
            base_seed: DEFAULT_BASE_SEED,
            served: 0,
        }
    }

    fn shapes_of(network: &QuantizedMlp) -> Vec<LayerShape> {
        network
            .layers
            .iter()
            .map(|l| LayerShape {
                inputs: l.inputs,
                outputs: l.outputs,
            })
            .collect()
    }

    /// Sets the base seed of the legacy `&mut self` entry points (builder
    /// style). Explicit contexts are unaffected — they carry their own.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Access to the underlying sharded memory (e.g. for energy accounting
    /// or per-shard traffic attribution).
    pub fn memory(&self) -> &ShardedMemory {
        &self.memory
    }

    /// Mutable access to the underlying sharded memory — the maintenance
    /// port the resilience layer scrubs, repairs, and degrades through.
    /// Serving itself never needs this: all request-path reads go through
    /// `&self`.
    ///
    /// # Panics
    ///
    /// Panics if the store is shared with other resident systems (built
    /// via [`new_resident`](Self::new_resident) off a still-live `Arc`):
    /// maintenance on a multi-tenant store goes through the registry,
    /// which owns the unique handle.
    pub fn memory_mut(&mut self) -> &mut ShardedMemory {
        Arc::get_mut(&mut self.memory)
            .expect("memory_mut on a store shared with other resident systems")
    }

    /// `true` when no bank of this system's window can fault a read — the
    /// amortization rule: only then may [`classify_batch`](Self::classify_batch)
    /// feed one physical row fetch to a whole micro-batch. Other tenants
    /// of a shared store do not matter; their banks are never read here.
    pub fn read_fault_free(&self) -> bool {
        self.memory.banks_read_fault_free(self.banks.clone())
    }

    /// Feature width of the input layer (what `classify_request` expects).
    pub fn input_width(&self) -> usize {
        self.shapes.first().map_or(0, |s| s.inputs)
    }

    /// Width of the output layer (number of classes).
    pub fn output_classes(&self) -> usize {
        self.shapes.last().map_or(0, |s| s.outputs)
    }

    /// A context for request `request_id` of the stream rooted at
    /// `base_seed`, with every scratch buffer pre-sized from this system's
    /// layer shapes — the warm path never reallocates, not even on the
    /// first request. Behaviorally identical to
    /// [`InferContext::for_request`].
    pub fn make_context(&self, base_seed: u64, request_id: u64) -> InferContext {
        let mut ctx = InferContext::for_request(base_seed, request_id);
        let row = self.shapes.iter().map(|s| s.inputs).max().unwrap_or(0);
        let width = self
            .shapes
            .iter()
            .map(|s| s.inputs.max(s.outputs))
            .max()
            .unwrap_or(0);
        ctx.weight_buf.reserve_exact(row);
        ctx.mask_buf.reserve_exact(row);
        ctx.activations.reserve_exact(width);
        ctx.next.reserve_exact(width);
        ctx
    }

    /// Weight + bias words one full forward pass reads.
    pub fn reads_per_inference(&self) -> usize {
        self.shapes
            .iter()
            .map(|s| s.inputs * s.outputs + s.outputs)
            .sum()
    }

    /// Multiply-accumulates per inference (for energy accounting).
    pub fn macs_per_inference(&self) -> usize {
        self.shapes.iter().map(|s| s.inputs * s.outputs).sum()
    }

    /// Runs a full forward pass on shared state; returns the output
    /// activation codes (borrowed from the context's scratch).
    ///
    /// Each neuron's weight row is fetched in one
    /// [`read_row_shared`](ShardedMemory::read_row_shared) call into the
    /// context's scratch (no per-word address resolve or push churn), then
    /// accumulated by the NPE's fused 8-lane MAC. The per-neuron bias read
    /// keeps its place in the request's fault stream right after its
    /// weight row.
    ///
    /// # Panics
    ///
    /// Panics if the feature count does not match the input layer.
    pub fn infer_request<'c>(&self, features: &[f32], ctx: &'c mut InferContext) -> &'c [u8] {
        assert_eq!(
            features.len(),
            self.shapes[0].inputs,
            "input width mismatch"
        );
        ctx.activations.clear();
        ctx.activations
            .extend(features.iter().map(|&f| encode_activation(f)));
        let mut bank_base = self.base_addr;
        for shape in &self.shapes {
            ctx.next.clear();
            for neuron in 0..shape.outputs {
                let row_start = bank_base + layout::weight_offset(shape.inputs, neuron, 0);
                ctx.fault_bits += self.memory.read_row_shared(
                    row_start,
                    shape.inputs,
                    &mut ctx.rng,
                    &mut ctx.weight_buf,
                    &mut ctx.mask_buf,
                );
                let (bias, mask) = self.memory.read_shared(
                    bank_base + layout::bias_offset(shape.inputs, shape.outputs, neuron),
                    &mut ctx.rng,
                );
                ctx.fault_bits += u64::from(mask.count_ones());
                ctx.reads += (shape.inputs + 1) as u64;
                ctx.next
                    .push(self.npe.neuron(&ctx.weight_buf, bias, &ctx.activations));
            }
            bank_base += shape.inputs * shape.outputs + shape.outputs;
            std::mem::swap(&mut ctx.activations, &mut ctx.next);
        }
        &ctx.activations
    }

    /// Classifies one input sample on shared state; returns the predicted
    /// class index. Ties break to the **lowest** class index, matching the
    /// float evaluator's argmax.
    ///
    /// # Panics
    ///
    /// Panics if the feature count does not match the input layer.
    pub fn classify_request(&self, features: &[f32], ctx: &mut InferContext) -> usize {
        let outputs = self.infer_request(features, ctx);
        argmax_lowest(outputs).expect("non-empty output layer")
    }

    /// Classifies a micro-batch sharing one physical row fetch per neuron
    /// across all requests — the batch-amortized datapath the serving
    /// layer uses when this system's bank window is
    /// [read-fault-free](Self::read_fault_free).
    ///
    /// On such a window the scalar datapath draws **zero** randomness, so
    /// feeding every request from one fetch perturbs nothing: outputs,
    /// fault accounting (all zeros), per-context read counts, and each
    /// context's RNG state are byte-identical to running
    /// [`classify_request`](Self::classify_request) per request. Shard
    /// read counters are kept identical too, by billing the shared fetch
    /// once per request via
    /// [`charge_reads`](ShardedMemory::charge_reads).
    ///
    /// # Panics
    ///
    /// Panics if the bank window can fault a read, if `batch` and `ctxs`
    /// lengths differ, or on a feature-width mismatch.
    pub fn classify_batch(&self, batch: &[&[f32]], ctxs: &mut [InferContext]) -> Vec<usize> {
        assert!(
            self.read_fault_free(),
            "batch-amortized path requires a read-fault-free bank window"
        );
        assert_eq!(batch.len(), ctxs.len(), "one context per request");
        for (features, ctx) in batch.iter().zip(ctxs.iter_mut()) {
            assert_eq!(
                features.len(),
                self.shapes[0].inputs,
                "input width mismatch"
            );
            ctx.activations.clear();
            ctx.activations
                .extend(features.iter().map(|&f| encode_activation(f)));
        }
        let copies = batch.len();
        // The shared row scratch; the RNG is never drawn from on a
        // read-fault-free memory, it only satisfies the fetch signature.
        let mut row = Vec::new();
        let mut row_masks = Vec::new();
        let mut no_draws = StdRng::seed_from_u64(0);
        let mut bank_base = self.base_addr;
        for shape in &self.shapes {
            for ctx in ctxs.iter_mut() {
                ctx.next.clear();
            }
            for neuron in 0..shape.outputs {
                let row_start = bank_base + layout::weight_offset(shape.inputs, neuron, 0);
                let faults = self.memory.read_row_shared(
                    row_start,
                    shape.inputs,
                    &mut no_draws,
                    &mut row,
                    &mut row_masks,
                );
                debug_assert_eq!(faults, 0, "read-fault-free memory faulted");
                self.memory
                    .charge_reads(row_start, shape.inputs, copies - 1);
                let bias_index =
                    bank_base + layout::bias_offset(shape.inputs, shape.outputs, neuron);
                let (bias, _) = self.memory.read_shared(bias_index, &mut no_draws);
                self.memory.charge_reads(bias_index, 1, copies - 1);
                for ctx in ctxs.iter_mut() {
                    ctx.next.push(self.npe.neuron(&row, bias, &ctx.activations));
                }
            }
            bank_base += shape.inputs * shape.outputs + shape.outputs;
            for ctx in ctxs.iter_mut() {
                std::mem::swap(&mut ctx.activations, &mut ctx.next);
            }
        }
        let reads = self.reads_per_inference() as u64;
        ctxs.iter_mut()
            .map(|ctx| {
                ctx.reads += reads;
                argmax_lowest(&ctx.activations).expect("non-empty output layer")
            })
            .collect()
    }

    /// Classifies one input sample (features in `[0, 1]`); returns the
    /// predicted class index. Legacy single-owner entry point: request ids
    /// come from an internal counter on the system's base seed.
    ///
    /// # Panics
    ///
    /// Panics if the feature count does not match the input layer.
    pub fn classify(&mut self, features: &[f32]) -> usize {
        let mut ctx = self.next_legacy_context();
        self.classify_request(features, &mut ctx)
    }

    /// Runs a full forward pass; returns the output activation codes.
    /// Legacy single-owner entry point (see [`classify`](Self::classify)).
    ///
    /// # Panics
    ///
    /// Panics if the feature count does not match the input layer.
    pub fn infer(&mut self, features: &[f32]) -> Vec<u8> {
        let mut ctx = self.next_legacy_context();
        self.infer_request(features, &mut ctx).to_vec()
    }

    fn next_legacy_context(&mut self) -> InferContext {
        let ctx = InferContext::for_request(self.base_seed, self.served);
        self.served += 1;
        ctx
    }

    /// Classification accuracy over a dataset, running every sample through
    /// the full memory-faulting datapath. Sample `i` is request `i` of the
    /// stream rooted at `base_seed`, so samples are independent and fan out
    /// on the `sram_exec` pool — bit-identical to
    /// [`accuracy_sequential`](Self::accuracy_sequential) at any worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or feature-width mismatch.
    pub fn accuracy(&self, data: &neural::dataset::Dataset, base_seed: u64) -> f64 {
        assert!(!data.is_empty(), "empty dataset");
        let correct: Vec<bool> = sram_exec::par_map_indexed(data.len(), |i| {
            let mut ctx = InferContext::for_request(base_seed, i as u64);
            self.classify_request(data.image(i), &mut ctx) == data.label(i)
        });
        correct.iter().filter(|&&c| c).count() as f64 / data.len() as f64
    }

    /// The sequential reference fold of [`accuracy`](Self::accuracy): one
    /// warm context, samples in order. Exists so tests can pin the parallel
    /// fan-out bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or feature-width mismatch.
    pub fn accuracy_sequential(&self, data: &neural::dataset::Dataset, base_seed: u64) -> f64 {
        assert!(!data.is_empty(), "empty dataset");
        let mut ctx = InferContext::for_request(base_seed, 0);
        let mut correct = 0usize;
        for i in 0..data.len() {
            ctx.reset(base_seed, i as u64);
            if self.classify_request(data.image(i), &mut ctx) == data.label(i) {
                correct += 1;
            }
        }
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_inject::model::{BitErrorRates, WordFailureModel};
    use fault_inject::protection::ProtectionPolicy;
    use neural::dataset::synth;
    use neural::eval::accuracy;
    use neural::network::Mlp;
    use neural::quant::{Encoding, QuantizedMlp};
    use neural::train::{train, TrainOptions};
    use sram_array::organization::{SubArrayDims, SynapticMemoryMap};

    fn sharded(
        words: &[usize],
        policy: &ProtectionPolicy,
        rates: &BitErrorRates,
        seed: u64,
        shards: usize,
    ) -> ShardedMemory {
        let map = SynapticMemoryMap::new(words, policy, SubArrayDims::PAPER);
        let models: Vec<WordFailureModel> = (0..words.len())
            .map(|b| WordFailureModel::new(rates, &policy.assignment(b)))
            .collect();
        ShardedMemory::new(map, models, seed, shards)
    }

    fn trained_small_net() -> (QuantizedMlp, neural::dataset::Dataset) {
        let data = synth::generate_default(400, 21);
        let (train_set, test_set) = data.split(0.75, 3);
        let mut mlp = Mlp::new(&[784, 24, 10], 5);
        train(
            &mut mlp,
            &train_set,
            &TrainOptions {
                epochs: 8,
                ..TrainOptions::default()
            },
        );
        (
            QuantizedMlp::from_mlp(&mlp, Encoding::TwosComplement),
            test_set,
        )
    }

    fn ideal_memory_for(q: &QuantizedMlp) -> ShardedMemory {
        let words = layout::bank_words(q);
        let map = SynapticMemoryMap::new(&words, &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let models = vec![WordFailureModel::ideal(); words.len()];
        ShardedMemory::new(map, models, 17, 3)
    }

    #[test]
    fn system_matches_float_network_on_clean_memory() {
        let (q, test_set) = trained_small_net();
        let npe = Npe::new(q.format);
        let system = NeuromorphicSystem::new(&q, ideal_memory_for(&q), npe);
        let fixed_acc = system.accuracy(&test_set, 11);
        let float_acc = accuracy(&q.to_mlp(), &test_set);
        assert!(
            (fixed_acc - float_acc).abs() < 0.1,
            "fixed-point {fixed_acc} vs float {float_acc}"
        );
        // The datapath must actually have read the memory.
        assert!(system.memory().counts().reads > 0);
        assert_eq!(
            system.memory().counts().reads,
            test_set.len() * system.reads_per_inference()
        );
    }

    #[test]
    fn predictions_are_shard_count_invariant() {
        let (q, test_set) = trained_small_net();
        let test_set = test_set.take(40);
        let words = layout::bank_words(&q);
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 3 };
        let rates = BitErrorRates {
            read_6t: 0.1,
            write_6t: 0.02,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let mut reference: Option<Vec<usize>> = None;
        for shards in [1usize, 2, 4, 7] {
            let memory = sharded(&words, &policy, &rates, 5, shards);
            assert_eq!(
                memory.shard_count(),
                shards,
                "network must span {shards} shards"
            );
            let system = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
            let predictions: Vec<usize> = (0..test_set.len())
                .map(|i| {
                    let mut ctx = InferContext::for_request(77, i as u64);
                    system.classify_request(test_set.image(i), &mut ctx)
                })
                .collect();
            match &reference {
                None => reference = Some(predictions),
                Some(r) => assert_eq!(
                    &predictions, r,
                    "{shards}-shard predictions diverged from 1-shard"
                ),
            }
        }
    }

    #[test]
    fn parallel_accuracy_is_bit_identical_to_the_sequential_fold() {
        let (q, test_set) = trained_small_net();
        let test_set = test_set.take(60);
        let words = layout::bank_words(&q);
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 4 };
        let rates = BitErrorRates {
            read_6t: 0.08,
            write_6t: 0.01,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let system = NeuromorphicSystem::new(
            &q,
            sharded(&words, &policy, &rates, 5, 2),
            Npe::new(q.format),
        );
        let reference = system.accuracy_sequential(&test_set, 77);
        for threads in [1usize, 2, 4] {
            sram_exec::set_threads(threads);
            let parallel = system.accuracy(&test_set, 77);
            assert!(
                parallel == reference,
                "accuracy at {threads} workers ({parallel}) != sequential ({reference})"
            );
        }
        sram_exec::clear_threads();
    }

    #[test]
    fn request_context_is_a_pure_function_of_its_seed() {
        let (q, test_set) = trained_small_net();
        let words = layout::bank_words(&q);
        let policy = ProtectionPolicy::Uniform6T;
        let rates = BitErrorRates {
            read_6t: 0.2,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let system = NeuromorphicSystem::new(
            &q,
            sharded(&words, &policy, &rates, 9, 4),
            Npe::new(q.format),
        );
        let img = test_set.image(0);

        // Fresh context vs a context warmed on other requests then reset:
        // identical outputs and identical fault accounting.
        let mut fresh = InferContext::for_request(3, 8);
        let out_fresh = system.infer_request(img, &mut fresh).to_vec();
        let (fresh_faults, fresh_reads) = (fresh.fault_bits(), fresh.reads());

        let mut warm = InferContext::for_request(3, 0);
        for id in 0..4 {
            warm.reset(3, id);
            let _ = system.infer_request(img, &mut warm);
        }
        warm.reset(3, 8);
        let out_warm = system.infer_request(img, &mut warm).to_vec();
        assert_eq!(out_fresh, out_warm);
        assert_eq!(fresh_faults, warm.fault_bits());
        assert_eq!(fresh_reads, warm.reads());
        assert_eq!(fresh_reads, system.reads_per_inference() as u64);
        assert!(fresh_faults > 0, "20% read faults must show up");

        // Replaying the same request id is exact; a different id draws an
        // independent fault stream (the *number* of faulted bits may
        // coincide, so compare a replay instead of a neighbor).
        let mut replay = InferContext::for_request(3, 8);
        assert_eq!(out_fresh, system.infer_request(img, &mut replay).to_vec());
        assert_eq!(replay.fault_bits(), fresh_faults);
    }

    #[test]
    fn heavy_lsb_faults_barely_hurt_but_msb_faults_kill() {
        let (q, test_set) = trained_small_net();
        let test_set = test_set.take(40);
        let npe = Npe::new(q.format);

        let clean_acc = {
            let s = NeuromorphicSystem::new(&q, ideal_memory_for(&q), npe.clone());
            s.accuracy(&test_set, 3)
        };

        let words = layout::bank_words(&q);
        // LSB-only faults (hybrid with every bit but bit0 protected).
        let policy = ProtectionPolicy::MsbProtected { msb_8t: 7 };
        let rates = BitErrorRates {
            read_6t: 0.3,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let lsb_system =
            NeuromorphicSystem::new(&q, sharded(&words, &policy, &rates, 3, 2), npe.clone());
        let lsb_acc = lsb_system.accuracy(&test_set, 3);

        // Uniform faults at the same rate (MSBs exposed).
        let policy = ProtectionPolicy::Uniform6T;
        let uniform_system =
            NeuromorphicSystem::new(&q, sharded(&words, &policy, &rates, 3, 2), npe);
        let uniform_acc = uniform_system.accuracy(&test_set, 3);

        assert!(
            lsb_acc > clean_acc - 0.15,
            "LSB faults must be benign: clean {clean_acc}, lsb {lsb_acc}"
        );
        assert!(
            uniform_acc < lsb_acc,
            "MSB exposure must hurt more: uniform {uniform_acc} vs lsb {lsb_acc}"
        );
    }

    #[test]
    fn legacy_entry_points_still_serve() {
        let (q, test_set) = trained_small_net();
        let mut system = NeuromorphicSystem::new(&q, ideal_memory_for(&q), Npe::new(q.format))
            .with_base_seed(99);
        let class = system.classify(test_set.image(0));
        assert!(class < 10);
        let outputs = system.infer(test_set.image(1));
        assert_eq!(outputs.len(), 10);
        // On an ideal memory the legacy path matches the shared path.
        let mut ctx = InferContext::for_request(0, 0);
        assert_eq!(class, system.classify_request(test_set.image(0), &mut ctx));
    }

    #[test]
    fn argmax_ties_break_to_the_lowest_index() {
        assert_eq!(argmax_lowest(&[3, 7, 7, 2]), Some(1));
        assert_eq!(argmax_lowest(&[9]), Some(0));
        assert_eq!(argmax_lowest(&[0, 0, 0]), Some(0));
        assert_eq!(argmax_lowest(&[1, 2, 3, 3]), Some(2));
        assert_eq!(argmax_lowest(&[255, 255]), Some(0));
        assert_eq!(argmax_lowest(&[]), None);
    }

    #[test]
    fn make_context_pre_sizes_all_scratch() {
        let (q, test_set) = trained_small_net();
        let system = NeuromorphicSystem::new(&q, ideal_memory_for(&q), Npe::new(q.format));
        let mut warm = system.make_context(7, 0);
        let caps = (
            warm.weight_buf.capacity(),
            warm.mask_buf.capacity(),
            warm.activations.capacity(),
            warm.next.capacity(),
        );
        assert!(caps.0 >= 784, "weight scratch {} < widest row", caps.0);
        assert!(caps.1 >= 784, "mask scratch {} < widest row", caps.1);
        assert!(
            caps.2 >= 784,
            "activation scratch {} < widest layer",
            caps.2
        );
        assert!(caps.3 >= 784, "next scratch {} < widest layer", caps.3);
        for id in 0..3u64 {
            warm.reset(7, id);
            let _ = system.infer_request(test_set.image(id as usize), &mut warm);
        }
        let after = (
            warm.weight_buf.capacity(),
            warm.mask_buf.capacity(),
            warm.activations.capacity(),
            warm.next.capacity(),
        );
        assert_eq!(after, caps, "warm requests must never grow the scratch");

        // A pre-sized context behaves exactly like a fresh unsized one.
        let mut fresh = InferContext::for_request(7, 5);
        let out_fresh = system.infer_request(test_set.image(5), &mut fresh).to_vec();
        warm.reset(7, 5);
        let out_warm = system.infer_request(test_set.image(5), &mut warm).to_vec();
        assert_eq!(out_fresh, out_warm);
        assert_eq!(fresh.reads(), warm.reads());
    }

    #[test]
    fn batch_path_is_byte_identical_to_scalar_requests() {
        let (q, test_set) = trained_small_net();
        let batch_sys = NeuromorphicSystem::new(&q, ideal_memory_for(&q), Npe::new(q.format));
        let scalar_sys = NeuromorphicSystem::new(&q, ideal_memory_for(&q), Npe::new(q.format));
        assert!(batch_sys.memory().read_fault_free());
        let n = 8usize;
        let batch: Vec<&[f32]> = (0..n).map(|i| test_set.image(i)).collect();
        let mut ctxs: Vec<InferContext> = (0..n)
            .map(|i| batch_sys.make_context(5, i as u64))
            .collect();
        let predictions = batch_sys.classify_batch(&batch, &mut ctxs);
        for i in 0..n {
            let mut ctx = scalar_sys.make_context(5, i as u64);
            let scalar = scalar_sys.classify_request(test_set.image(i), &mut ctx);
            assert_eq!(predictions[i], scalar, "request {i}");
            assert_eq!(ctxs[i].reads(), ctx.reads(), "request {i} read accounting");
            assert_eq!(ctxs[i].fault_bits(), 0);
            assert_eq!(ctxs[i].rng, ctx.rng, "request {i} stream was perturbed");
        }
        assert_eq!(
            batch_sys.memory().shard_counts(),
            scalar_sys.memory().shard_counts(),
            "shared fetches must bill identical shard traffic"
        );
    }

    #[test]
    #[should_panic(expected = "read-fault-free")]
    fn batch_path_rejects_faulting_memories() {
        let (q, test_set) = trained_small_net();
        let words = layout::bank_words(&q);
        let policy = ProtectionPolicy::Uniform6T;
        let rates = BitErrorRates {
            read_6t: 0.1,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let system = NeuromorphicSystem::new(
            &q,
            sharded(&words, &policy, &rates, 1, 2),
            Npe::new(q.format),
        );
        let batch: Vec<&[f32]> = vec![test_set.image(0)];
        let mut ctxs = vec![system.make_context(0, 0)];
        let _ = system.classify_batch(&batch, &mut ctxs);
    }

    /// Two tenants laid out back-to-back in one shared store, the way the
    /// serving registry builds it: concatenated maps, concatenated
    /// per-bank failure models, one concatenated image load.
    fn shared_two_tenant_store(
        qa: &QuantizedMlp,
        pol_a: &ProtectionPolicy,
        rates_a: &BitErrorRates,
        qb: &QuantizedMlp,
        pol_b: &ProtectionPolicy,
        rates_b: &BitErrorRates,
        seed: u64,
    ) -> Arc<ShardedMemory> {
        let words_a = layout::bank_words(qa);
        let words_b = layout::bank_words(qb);
        let map = SynapticMemoryMap::concat([
            SynapticMemoryMap::new(&words_a, pol_a, SubArrayDims::PAPER),
            SynapticMemoryMap::new(&words_b, pol_b, SubArrayDims::PAPER),
        ]);
        let mut models: Vec<WordFailureModel> = (0..words_a.len())
            .map(|b| WordFailureModel::new(rates_a, &pol_a.assignment(b)))
            .collect();
        models.extend(
            (0..words_b.len()).map(|b| WordFailureModel::new(rates_b, &pol_b.assignment(b))),
        );
        let mut store = ShardedMemory::new(map, models, seed, 3);
        let mut image = layout::flatten(qa);
        image.extend(layout::flatten(qb));
        store.load(&image);
        Arc::new(store)
    }

    #[test]
    fn resident_tenants_match_their_standalone_systems() {
        let qa = QuantizedMlp::from_mlp(&Mlp::new(&[12, 8, 4], 11), Encoding::TwosComplement);
        let qb = QuantizedMlp::from_mlp(&Mlp::new(&[9, 6, 3], 12), Encoding::TwosComplement);
        let pol_a = ProtectionPolicy::MsbProtected { msb_8t: 3 };
        let pol_b = ProtectionPolicy::MsbProtected { msb_8t: 5 };
        // Write-fault-free rates: the stored image is then exact in both
        // layouts, and read faults are drawn from the request context's
        // RNG (a pure function of the walk, not of global addresses), so
        // a resident system at a bank offset must replay its standalone
        // twin bit for bit.
        let rates_a = BitErrorRates {
            read_6t: 0.1,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let rates_b = BitErrorRates {
            read_6t: 0.25,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let standalone_a = NeuromorphicSystem::new(
            &qa,
            sharded(&layout::bank_words(&qa), &pol_a, &rates_a, 31, 3),
            Npe::new(qa.format),
        );
        let standalone_b = NeuromorphicSystem::new(
            &qb,
            sharded(&layout::bank_words(&qb), &pol_b, &rates_b, 31, 3),
            Npe::new(qb.format),
        );
        let store = shared_two_tenant_store(&qa, &pol_a, &rates_a, &qb, &pol_b, &rates_b, 31);
        let first_bank_b = layout::bank_words(&qa).len();
        let res_a =
            NeuromorphicSystem::new_resident(&qa, Arc::clone(&store), 0, Npe::new(qa.format));
        let res_b = NeuromorphicSystem::new_resident(&qb, store, first_bank_b, Npe::new(qb.format));
        assert_eq!(res_a.input_width(), 12);
        assert_eq!(res_b.output_classes(), 3);
        for id in 0..6u64 {
            let feat_a: Vec<f32> = (0..12)
                .map(|i| ((i * 37 + id as usize) % 100) as f32 / 100.0)
                .collect();
            let feat_b: Vec<f32> = (0..9)
                .map(|i| ((i * 53 + id as usize) % 100) as f32 / 100.0)
                .collect();
            let mut ctx_s = InferContext::for_request(7, id);
            let mut ctx_r = InferContext::for_request(7, id);
            assert_eq!(
                standalone_a.classify_request(&feat_a, &mut ctx_s),
                res_a.classify_request(&feat_a, &mut ctx_r),
                "tenant A request {id}"
            );
            assert_eq!(
                ctx_s.fault_bits(),
                ctx_r.fault_bits(),
                "tenant A faults {id}"
            );
            let mut ctx_s = InferContext::for_request(9, id);
            let mut ctx_r = InferContext::for_request(9, id);
            assert_eq!(
                standalone_b.classify_request(&feat_b, &mut ctx_s),
                res_b.classify_request(&feat_b, &mut ctx_r),
                "tenant B request {id}"
            );
            assert_eq!(
                ctx_s.fault_bits(),
                ctx_r.fault_bits(),
                "tenant B faults {id}"
            );
        }
        assert!(!res_a.read_fault_free() && !res_b.read_fault_free());

        // The amortization rule is per bank window: next to a faulting
        // tenant, a tenant whose own banks cannot fault a read still
        // batches, and its batch replays the per-request path exactly.
        let clean = BitErrorRates {
            read_6t: 0.0,
            ..rates_a
        };
        let store = shared_two_tenant_store(&qa, &pol_a, &clean, &qb, &pol_b, &rates_b, 31);
        assert!(!store.read_fault_free());
        let clean_a =
            NeuromorphicSystem::new_resident(&qa, Arc::clone(&store), 0, Npe::new(qa.format));
        let faulty_b = NeuromorphicSystem::new_resident(
            &qb,
            Arc::clone(&store),
            first_bank_b,
            Npe::new(qb.format),
        );
        assert!(clean_a.read_fault_free());
        assert!(!faulty_b.read_fault_free());
        let feats: Vec<Vec<f32>> = (0..5)
            .map(|id| {
                (0..12)
                    .map(|i| ((i * 41 + id * 7) % 100) as f32 / 100.0)
                    .collect()
            })
            .collect();
        let batch: Vec<&[f32]> = feats.iter().map(Vec::as_slice).collect();
        let mut ctxs: Vec<InferContext> = (0..5).map(|id| clean_a.make_context(7, id)).collect();
        let batched = clean_a.classify_batch(&batch, &mut ctxs);
        for (id, f) in feats.iter().enumerate() {
            let mut ctx = InferContext::for_request(7, id as u64);
            assert_eq!(
                batched[id],
                clean_a.classify_request(f, &mut ctx),
                "request {id}"
            );
            assert_eq!(ctxs[id].reads(), ctx.reads());
            assert_eq!(ctxs[id].fault_bits(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "shared with other resident")]
    fn memory_mut_refuses_shared_stores() {
        let qa = QuantizedMlp::from_mlp(&Mlp::new(&[6, 4, 2], 1), Encoding::TwosComplement);
        let qb = QuantizedMlp::from_mlp(&Mlp::new(&[5, 3, 2], 2), Encoding::TwosComplement);
        let pol = ProtectionPolicy::Uniform6T;
        let rates = BitErrorRates {
            read_6t: 0.0,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let store = shared_two_tenant_store(&qa, &pol, &rates, &qb, &pol, &rates, 1);
        let mut res_a =
            NeuromorphicSystem::new_resident(&qa, Arc::clone(&store), 0, Npe::new(qa.format));
        let _res_b = NeuromorphicSystem::new_resident(
            &qb,
            store,
            layout::bank_words(&qa).len(),
            Npe::new(qb.format),
        );
        let _ = res_a.memory_mut();
    }

    #[test]
    #[should_panic(expected = "does not match the network")]
    fn mismatched_memory_panics() {
        let (q, _) = trained_small_net();
        let map = SynapticMemoryMap::new(&[10], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let memory = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 0, 2);
        let _ = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
    }
}
