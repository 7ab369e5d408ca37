//! The inference server: the closed-slice front door of the shared
//! [`scheduler`](crate::scheduler).
//!
//! ```text
//!  requests ──submit at t=0──▶ Scheduler ──▶ workers ──▶ NeuromorphicSystem (&self)
//!  ServeReport ◀── slots by id ◀── completions ◀──┘      └─▶ ShardedMemory::read_shared
//! ```
//!
//! The scheduler pops micro-batches sized to the backlog
//! (`queue_len / (2·workers)`, clamped to `[1, max_batch]`): a deep queue
//! amortizes lock traffic, a draining one falls back to single requests.
//! When the system's bank window cannot fault a read, a popped batch
//! shares one physical row fetch per neuron.
//!
//! # Determinism
//!
//! The server follows the `sram_exec` design rules: request `id` draws its
//! fault randomness from `derive_seed(base_seed, id)` (via
//! [`InferContext::for_request`]/[`InferContext::reset`]) and results are
//! collected into slots by `id`. Predictions are therefore **bit-identical
//! at any worker count and any micro-batch size** — the property the
//! `serve-load` CI job pins. Latency numbers are wall-clock and obviously
//! *not* deterministic; only their aggregation (histogram merge) is
//! order-invariant.

use crate::metrics::{bit_error_rate, prediction_digest, LatencyHistogram};
use crate::policy::DrowsyPlan;
use crate::resilience::{ResilienceController, ResilienceCounters};
use crate::scheduler::{Job, Scheduler};
use neuro_system::controller::{InferContext, NeuromorphicSystem};
use neuro_system::energy::SystemEnergyReport;
use sram_device::units::Watt;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Serving knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Worker threads; 0 resolves like the exec pool
    /// ([`sram_exec::effective_threads`]: `set_threads` override →
    /// `SRAM_REPRO_THREADS` → available parallelism).
    pub workers: usize,
    /// Micro-batch ceiling per queue pop.
    pub max_batch: usize,
    /// Root of the per-request seed streams.
    pub base_seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            max_batch: 16,
            base_seed: 0x5E2F_E5EE_D000_0001,
        }
    }
}

/// Everything one `serve` call produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Predicted class per request, in request order.
    pub predictions: Vec<usize>,
    /// End-to-end (admission → completion) latency distribution.
    pub latency: LatencyHistogram,
    /// Queue-wait distribution: admission (t=0 for this closed-batch
    /// server) → the moment a worker starts processing the request. Kept
    /// separate from [`service`](Self::service) so backlog and datapath
    /// cost are not conflated in one histogram.
    pub queue_wait: LatencyHistogram,
    /// Service-time distribution: processing start → completion. For a
    /// batch-amortized pop the batch's members share one fetch, so they
    /// record the batch's service span each.
    pub service: LatencyHistogram,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Micro-batches popped.
    pub batches: usize,
    /// Largest micro-batch observed.
    pub max_batch_observed: usize,
    /// Read-fault bits injected across all requests.
    pub fault_bits: u64,
    /// Memory words read across all requests.
    pub words_read: u64,
    /// Words read per memory shard during the run (counter deltas; assumes
    /// no concurrent `serve` call shares the system).
    pub shard_reads: Vec<u64>,
    /// Per-inference energy/latency model, when configured.
    pub energy_per_inference: Option<SystemEnergyReport>,
    /// Drowsy standby leakage (memory leakage × plan scale), when both the
    /// energy model and a drowsy plan are configured.
    pub standby_leakage: Option<Watt>,
    /// Resilience-loop counters (BIST/scrub/repair/governor), when a
    /// [`ResilienceController`] is attached. Snapshot at report time.
    pub resilience: Option<ResilienceCounters>,
}

impl ServeReport {
    /// Requests served.
    pub fn requests(&self) -> usize {
        self.predictions.len()
    }

    /// Served requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests() as f64 / secs
    }

    /// Memory words delivered per second of wall time — the bulk-read
    /// datapath's bandwidth figure. Batch-amortized rows still bill every
    /// logical copy, so this tracks the scalar path's accounting exactly.
    pub fn words_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.words_read as f64 / secs
    }

    /// Injected read-fault bits per bit read — the serving-Vdd bit-error
    /// rate actually observed by the request stream.
    pub fn observed_bit_error_rate(&self) -> f64 {
        bit_error_rate(self.fault_bits, self.words_read)
    }

    /// Total model energy of the run (requests × per-inference total).
    pub fn total_energy_joules(&self) -> Option<f64> {
        self.energy_per_inference
            .as_ref()
            .map(|e| e.energy.total().joules() * self.requests() as f64)
    }

    /// FNV-1a fingerprint of the prediction vector.
    pub fn digest(&self) -> u64 {
        prediction_digest(&self.predictions)
    }
}

/// A shared-state inference server over one loaded [`NeuromorphicSystem`].
#[derive(Debug)]
pub struct InferenceServer {
    system: NeuromorphicSystem,
    options: ServeOptions,
    energy: Option<SystemEnergyReport>,
    drowsy: Option<DrowsyPlan>,
    /// Memory leakage power at the serving voltage (for drowsy standby
    /// reporting), from the array power rollup.
    memory_leakage: Option<Watt>,
    /// The resilience loop (BIST map, ECC sidecar, spare budget, BER
    /// governor), when attached.
    resilience: Option<ResilienceController>,
}

impl InferenceServer {
    /// Wraps a loaded system.
    pub fn new(system: NeuromorphicSystem, options: ServeOptions) -> Self {
        assert!(options.max_batch > 0, "max_batch must be at least 1");
        Self {
            system,
            options,
            energy: None,
            drowsy: None,
            memory_leakage: None,
            resilience: None,
        }
    }

    /// Attaches a per-inference energy/latency model (builder style).
    pub fn with_energy(mut self, report: SystemEnergyReport) -> Self {
        self.energy = Some(report);
        self
    }

    /// Attaches a drowsy voltage plan plus the memory leakage power it
    /// scales (builder style).
    pub fn with_drowsy(mut self, plan: DrowsyPlan, memory_leakage: Watt) -> Self {
        self.drowsy = Some(plan);
        self.memory_leakage = Some(memory_leakage);
        self
    }

    /// Attaches a booted resilience controller (builder style). The
    /// controller must have been built over this server's memory (after
    /// [`NeuromorphicSystem::new`] loaded it).
    pub fn with_resilience(mut self, controller: ResilienceController) -> Self {
        self.resilience = Some(controller);
        self
    }

    /// The wrapped system.
    pub fn system(&self) -> &NeuromorphicSystem {
        &self.system
    }

    /// Mutable access to the wrapped system — the maintenance port chaos
    /// injection degrades the store through.
    pub fn system_mut(&mut self) -> &mut NeuromorphicSystem {
        &mut self.system
    }

    /// The attached resilience controller, when any.
    pub fn resilience(&self) -> Option<&ResilienceController> {
        self.resilience.as_ref()
    }

    /// Runs one maintenance window (scrub sweep → spare-row repair → BER
    /// governor update) when a resilience controller is attached. Call
    /// between serving batches; the request path itself never mutates the
    /// store.
    pub fn maintain(&mut self) {
        if let Some(controller) = self.resilience.as_mut() {
            controller.maintain(self.system.memory_mut());
        }
    }

    /// The configured options.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The drowsy plan, when configured.
    pub fn drowsy_plan(&self) -> Option<&DrowsyPlan> {
        self.drowsy.as_ref()
    }

    /// Worker threads the next [`serve`](Self::serve) call will use.
    pub fn workers(&self) -> usize {
        sram_exec::resolve_workers(self.options.workers)
    }

    /// The reference prediction vector: request `i` classified on the
    /// `sram_exec` pool, no queue, no batching. [`serve`](Self::serve) must
    /// match this bit-for-bit — tests pin the two against each other.
    pub fn reference_predictions<S: AsRef<[f32]> + Sync>(&self, requests: &[S]) -> Vec<usize> {
        sram_exec::par_map_indexed(requests.len(), |i| {
            let mut ctx = InferContext::for_request(self.options.base_seed, i as u64);
            self.system.classify_request(requests[i].as_ref(), &mut ctx)
        })
    }

    /// Serves a closed batch of requests (request `i` has id `i`, all
    /// admitted at t=0) through the queue → micro-batcher → worker
    /// pipeline; blocks until the queue drains and returns the merged
    /// report.
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic.
    pub fn serve<S: AsRef<[f32]> + Sync>(&self, requests: &[S]) -> ServeReport {
        self.serve_configured(requests, &self.options)
    }

    /// [`serve`](Self::serve) with per-call options — worker count, batch
    /// ceiling, and seed stream can be tuned without rebuilding the server
    /// (the loaded memory image is the expensive part).
    ///
    /// # Examples
    ///
    /// Predictions are bit-identical at any worker count and batch size;
    /// only throughput changes:
    ///
    /// ```
    /// use fault_inject::model::WordFailureModel;
    /// use fault_inject::protection::ProtectionPolicy;
    /// use neural::network::Mlp;
    /// use neural::quant::{Encoding, QuantizedMlp};
    /// use neuro_system::controller::NeuromorphicSystem;
    /// use neuro_system::layout;
    /// use neuro_system::npe::Npe;
    /// use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
    /// use sram_array::sharded::ShardedMemory;
    /// use sram_serve::{InferenceServer, ServeOptions};
    ///
    /// let q = QuantizedMlp::from_mlp(&Mlp::new(&[8, 6, 3], 1), Encoding::TwosComplement);
    /// let words = layout::bank_words(&q);
    /// let map = SynapticMemoryMap::new(&words, &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
    /// let memory = ShardedMemory::new(map, vec![WordFailureModel::ideal(); 2], 5, 2);
    /// let system = NeuromorphicSystem::new(&q, memory, Npe::new(q.format));
    /// let server = InferenceServer::new(system, ServeOptions::default());
    ///
    /// let requests: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 / 6.0; 8]).collect();
    /// let one = server.serve_configured(
    ///     &requests,
    ///     &ServeOptions { workers: 1, max_batch: 1, base_seed: 42 },
    /// );
    /// let four = server.serve_configured(
    ///     &requests,
    ///     &ServeOptions { workers: 4, max_batch: 3, base_seed: 42 },
    /// );
    /// assert_eq!(one.predictions, four.predictions);
    /// assert_eq!(one.words_read, four.words_read);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `options.max_batch` is zero; propagates the first worker
    /// panic.
    pub fn serve_configured<S: AsRef<[f32]> + Sync>(
        &self,
        requests: &[S],
        options: &ServeOptions,
    ) -> ServeReport {
        let n = requests.len();
        let workers = sram_exec::resolve_workers(options.workers).min(n.max(1));
        let scheduler = Scheduler::new(
            vec![(&self.system, options.base_seed)],
            workers,
            options.max_batch,
        );
        let shard_reads = || -> Vec<u64> {
            let counts = self.system.memory().shard_counts();
            counts.iter().map(|c| c.reads as u64).collect()
        };
        let shard_reads_before = shard_reads();
        let start = Instant::now();
        scheduler.submit(requests.iter().enumerate().map(|(id, features)| Job {
            tenant: 0,
            id: id as u64,
            features: features.as_ref(),
            admitted: start,
            tag: (),
        }));
        let (done, completions) = mpsc::channel();
        let ((), stats) = scheduler.run(&done, || ());

        let mut report = ServeReport {
            predictions: vec![usize::MAX; n],
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            service: LatencyHistogram::new(),
            wall: start.elapsed(),
            workers,
            batches: stats.iter().map(|s| s.batches).sum(),
            max_batch_observed: stats.iter().map(|s| s.max_batch).max().unwrap_or(0),
            fault_bits: 0,
            words_read: 0,
            shard_reads: (shard_reads().iter().zip(&shard_reads_before))
                .map(|(after, before)| after - before)
                .collect(),
            energy_per_inference: self.energy,
            standby_leakage: (self.drowsy.as_ref().zip(self.memory_leakage))
                .map(|(plan, leak)| Watt::new(leak.watts() * plan.standby_leakage_scale())),
            resilience: self.resilience.as_ref().map(|r| r.counters()),
        };
        for c in completions.try_iter() {
            report.predictions[c.id as usize] = c.prediction;
            report.latency.record(c.queue_ns + c.service_ns);
            report.queue_wait.record(c.queue_ns);
            report.service.record(c.service_ns);
            report.fault_bits += c.fault_bits;
            report.words_read += c.reads;
        }
        debug_assert!(!report.predictions.contains(&usize::MAX));
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::scheduler::adaptive_batch;

    #[test]
    fn adaptive_batch_tracks_backlog() {
        // Deep queue: full batches. Draining queue: singles.
        assert_eq!(adaptive_batch(1024, 4, 16), 16);
        assert_eq!(adaptive_batch(64, 4, 16), 8);
        assert_eq!(adaptive_batch(7, 4, 16), 1);
        assert_eq!(adaptive_batch(0, 4, 16), 1);
        // Degenerate knobs stay sane.
        assert_eq!(adaptive_batch(100, 0, 16), 16);
        assert_eq!(adaptive_batch(100, 4, 0), 1);
    }
}
