//! `serve-scaled`: the serve fixture's digit classifier stored hybrid
//! (3,5) at 0.65 V with characterized bit-error rates — the paper's
//! proposed operating point — served as closed 128-request waves through
//! `InferenceServer`, with the resilience loop's `maintain()` between
//! waves. Every read draws randomness per active 6T bit, so this is the
//! workload where read-mask sampling dominates.
//!
//! A wave's requests are admitted together, so its sojourn is the time
//! from admission until the last of them completes.

use crate::report::{Metrics, Outcome};
use crate::stats::{median, quantile};
use crate::trace::{per_request_ns, Breakdown, Tracer};
use crate::{Scale, Setup};
use fault_inject::model::{WordFailureModel, WORD_BITS};
use hybrid_sram::config::MemoryConfig;
use hybrid_sram::framework::Framework;
use neural::dataset::Dataset;
use neural::quant::QuantizedMlp;
use neuro_system::controller::{InferContext, NeuromorphicSystem};
use neuro_system::layout;
use neuro_system::npe::{encode_activation, Npe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_array::sharded::ShardedMemory;
use sram_bitcell::characterize::{characterize_paper_cells, CharacterizationOptions};
use sram_device::process::Technology;
use sram_device::units::Volt;
use sram_exec::derive_seed;
use sram_serve::fixture::trained_digit_network;
use sram_serve::{InferenceServer, ResilienceConfig, ResilienceController, ServeOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Serving workers and pool threads (the benchmark host has two cores).
const WORKERS: usize = 2;
/// Requests per wave; `maintain()` runs between waves.
const WAVE: usize = 128;
/// Micro-batch ceiling (the serving default).
const MAX_BATCH: usize = 16;
/// Timed waves checked against the reference predictions: one in this
/// many.
const CHECK_EVERY: usize = 8;

/// The paper's proposed operating point.
fn config() -> MemoryConfig {
    MemoryConfig::Hybrid {
        msb_8t: 3,
        vdd: Volt::new(0.65),
    }
}

/// The serving characterization grid (as `serve_bench` uses).
fn char_options() -> CharacterizationOptions {
    CharacterizationOptions {
        vdds: vec![Volt::new(0.95), Volt::new(0.75), Volt::new(0.65)],
        mc_samples: 40,
        ..CharacterizationOptions::quick()
    }
}

struct Fixture {
    server: InferenceServer,
    network: QuantizedMlp,
    test: Dataset,
}

/// Characterization (uncached), training, faulty-write load and the BIST
/// boot of the resilience controller.
fn setup(seed: u64) -> (Fixture, Setup) {
    let t0 = Instant::now();
    let (c6, c8) = characterize_paper_cells(&Technology::ptm_22nm(), &char_options());
    let characterize_s = t0.elapsed().as_secs_f64();
    let framework = Framework::from_tables(c6, c8);
    let t1 = Instant::now();
    let (network, test) = trained_digit_network();
    let train_s = t1.elapsed().as_secs_f64();
    let memory = framework.build_memory(&network, &config(), seed);
    let mut system = NeuromorphicSystem::new(&network, memory, Npe::new(network.format));
    let t2 = Instant::now();
    let controller = ResilienceController::new(
        system.memory_mut(),
        &layout::flatten(&network),
        ResilienceConfig::default(),
    );
    let boot_ms = t2.elapsed().as_secs_f64() * 1e3;
    let server = InferenceServer::new(
        system,
        ServeOptions {
            workers: WORKERS,
            max_batch: MAX_BATCH,
            base_seed: derive_seed(seed, 1),
        },
    )
    .with_resilience(controller);
    let setup = Setup {
        total_s: t0.elapsed().as_secs_f64(),
        characterize_s,
        train_s,
        boot_ms: Some(boot_ms),
    };
    (
        Fixture {
            server,
            network,
            test,
        },
        setup,
    )
}

/// Wave `w`'s requests and labels: the test images cycled from offset
/// `w × WAVE`.
fn wave_requests(test: &Dataset, wave: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    let first = wave * WAVE;
    let requests = (first..first + WAVE)
        .map(|i| test.image(i % test.len()).to_vec())
        .collect();
    let labels = (first..first + WAVE)
        .map(|i| test.label(i % test.len()))
        .collect();
    (requests, labels)
}

/// Mean and variance of the read-fault bits one request injects: every
/// read word of bank `b` flips bit `k` independently with the bank's
/// characterized read probability.
fn fault_bits_moments(network: &QuantizedMlp, models: &[WordFailureModel]) -> (f64, f64) {
    let mut mean = 0.0;
    let mut var = 0.0;
    for (layer, model) in network.layers.iter().zip(models) {
        let words = (layer.inputs * layer.outputs + layer.outputs) as f64;
        for bit in 0..WORD_BITS {
            let p = model.read_probability(bit);
            mean += words * p;
            var += words * p * (1.0 - p);
        }
    }
    (mean, var)
}

/// Whether `observed` fault bits over `requests` requests fall inside a
/// six-sigma binomial band around the characterized expectation.
pub fn fault_bits_in_band(observed: u64, requests: u64, per_request: (f64, f64)) -> bool {
    let mean = per_request.0 * requests as f64;
    let sigma = (per_request.1 * requests as f64).sqrt();
    (observed as f64 - mean).abs() <= 6.0 * sigma + 1.0
}

/// Requests whose served prediction differs from the reference.
pub fn mismatches(served: &[usize], reference: &[usize]) -> u64 {
    if served.len() != reference.len() {
        return served.len().max(reference.len()) as u64;
    }
    served.iter().zip(reference).filter(|(a, b)| a != b).count() as u64
}

/// Index of the largest output, ties to the lowest index (the
/// controller's argmax rule).
fn argmax_lowest(outputs: &[u8]) -> usize {
    let mut best = 0;
    for (i, &o) in outputs.iter().enumerate() {
        if o > outputs[best] {
            best = i;
        }
    }
    best
}

/// Scratch for the replayed forward pass.
#[derive(Default)]
struct Scratch {
    weights: Vec<u8>,
    masks: Vec<u8>,
    activations: Vec<u8>,
    next: Vec<u8>,
}

/// `infer_request`'s loop rebuilt from the public row fetch, bias read
/// and NPE calls, each wrapped in a span; returns the prediction and the
/// injected fault bits. Draws the same fault stream as
/// `classify_request` on the request's context.
#[allow(clippy::too_many_arguments)]
fn replay_request(
    tracer: &mut Tracer,
    memory: &ShardedMemory,
    network: &QuantizedMlp,
    npe: &Npe,
    features: &[f32],
    base_seed: u64,
    id: u64,
    tag: u64,
    s: &mut Scratch,
) -> (usize, u64) {
    let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, id));
    let mut fault_bits = 0u64;
    s.activations.clear();
    s.activations
        .extend(features.iter().map(|&f| encode_activation(f)));
    let mut bank_base = 0usize;
    for layer in &network.layers {
        s.next.clear();
        for neuron in 0..layer.outputs {
            let row_start = bank_base + layout::weight_offset(layer.inputs, neuron, 0);
            let bias_index = bank_base + layout::bias_offset(layer.inputs, layer.outputs, neuron);
            let (bias, faults) = tracer.span("sram_array.read_row", tag, |_| {
                let row_faults = memory.read_row_shared(
                    row_start,
                    layer.inputs,
                    &mut rng,
                    &mut s.weights,
                    &mut s.masks,
                );
                let (bias, mask) = memory.read_shared(bias_index, &mut rng);
                (bias, row_faults + u64::from(mask.count_ones()))
            });
            fault_bits += faults;
            let out = tracer.span("neuro_system.npe_neuron", tag, |_| {
                npe.neuron(&s.weights, bias, &s.activations)
            });
            s.next.push(out);
        }
        bank_base += layer.inputs * layer.outputs + layer.outputs;
        std::mem::swap(&mut s.activations, &mut s.next);
    }
    (argmax_lowest(&s.activations), fault_bits)
}

/// A zero-BER copy of the store's observed image: the fetch floor.
fn clean_copy(memory: &ShardedMemory) -> ShardedMemory {
    let image: Vec<u8> = (0..memory.len()).map(|i| memory.read_raw(i)).collect();
    let mut clean = ShardedMemory::new(
        memory.map().clone(),
        vec![WordFailureModel::ideal(); memory.models().len()],
        memory.base_seed(),
        memory.shard_count(),
    );
    clean.load(&image);
    clean
}

/// `InferenceServer::reference_predictions` on the seed stream
/// `base_seed`: the server's own method is bound to its configured
/// stream, and every wave draws a fresh one.
fn reference_for(server: &InferenceServer, requests: &[Vec<f32>], base_seed: u64) -> Vec<usize> {
    sram_exec::par_map_indexed(requests.len(), |i| {
        let mut ctx = InferContext::for_request(base_seed, i as u64);
        server.system().classify_request(&requests[i], &mut ctx)
    })
}

/// Wave `w`'s serving options: the configured ones on a fresh seed
/// stream.
fn wave_options(server: &InferenceServer, wave: usize, workers: usize) -> ServeOptions {
    let options = server.options();
    ServeOptions {
        workers,
        base_seed: derive_seed(options.base_seed, wave as u64),
        ..options.clone()
    }
}

/// The timed run: waves at two workers until the budget is spent (and at
/// least `scale.min_waves` ran), with sampled waves checked against the
/// reference predictions and the injected fault bits checked against
/// the characterized rates.
pub fn run(seed: u64, budget: Duration, scale: &Scale) -> (Metrics, Outcome) {
    sram_exec::set_threads(WORKERS);
    let (mut fx, setups) = Setup::repeat(scale, || setup(seed));
    let mut outcome = Outcome::default();
    // `serve` and `reference_predictions` agree on the server's own
    // stream; the waves below then check against `reference_for`.
    let (reqs, _) = wave_requests(&fx.test, 0);
    outcome.tally(
        reqs.len() as u64,
        mismatches(
            &fx.server.serve(&reqs).predictions,
            &fx.server.reference_predictions(&reqs),
        ),
        "served predictions differ from reference_predictions",
    );
    let moments = fault_bits_moments(&fx.network, fx.server.system().memory().models());
    let start = Instant::now();
    let mut wave_rps = Vec::new();
    let mut wave_ms = Vec::new();
    let (mut correct, mut scored) = (0u64, 0u64);
    let (mut fault_bits, mut requests) = (0u64, 0u64);
    let mut wave = 0usize;
    while wave < scale.min_waves || start.elapsed() < budget {
        let (reqs, labels) = wave_requests(&fx.test, wave);
        let options = wave_options(&fx.server, wave, WORKERS);
        let t = Instant::now();
        let report = fx.server.serve_configured(&reqs, &options);
        let serve_s = t.elapsed().as_secs_f64();
        wave_ms.push(serve_s * 1e3);
        // The reference costs as much as the wave, so every eighth wave is
        // checked; the check must precede `maintain`, which rewrites the
        // store.
        if wave.is_multiple_of(CHECK_EVERY) {
            let reference = reference_for(&fx.server, &reqs, options.base_seed);
            outcome.tally(
                reqs.len() as u64,
                mismatches(&report.predictions, &reference),
                "served predictions differ from the reference",
            );
        }
        let t = Instant::now();
        fx.server.maintain();
        let wave_s = serve_s + t.elapsed().as_secs_f64();
        wave_rps.push(reqs.len() as f64 / wave_s);
        fault_bits += report.fault_bits;
        requests += reqs.len() as u64;
        if wave < scale.min_waves {
            scored += labels.len() as u64;
            correct += report
                .predictions
                .iter()
                .zip(&labels)
                .filter(|(p, l)| p == l)
                .count() as u64;
        }
        wave += 1;
    }
    outcome.check(fault_bits_in_band(fault_bits, requests, moments), || {
        format!(
            "{fault_bits} fault bits over {requests} requests, expected {:.0} ± {:.0}",
            moments.0 * requests as f64,
            6.0 * (moments.1 * requests as f64).sqrt()
        )
    });
    let mut m = Metrics::default();
    m.put("setup_s", Setup::median_total(&setups), "s");
    m.put("throughput_rps", median(&wave_rps), "req/s");
    m.put(
        "accuracy_pct",
        100.0 * correct as f64 / scored.max(1) as f64,
        "%",
    );
    m.put("sojourn_p50_ms", median(&wave_ms), "ms");
    // The tail is a diagnostic, not a bounded metric: on a shared
    // two-core host it tracks the neighbours' load.
    eprintln!(
        "serve-scaled: {} waves, wave p95 {:.3} ms",
        wave_ms.len(),
        quantile(&wave_ms, 0.95)
    );
    (m, outcome)
}

/// The traced run: layer metrics from a two-worker pass over a third of
/// the budget, untraced one-worker waves alternating with the traced
/// one-worker replay over the next two thirds, then the zero-BER fetch
/// floor.
pub fn trace(seed: u64, budget: Duration, scale: &Scale) -> (Metrics, Outcome, Tracer) {
    sram_exec::set_threads(1);
    let (mut fx, setups) = Setup::repeat(scale, || setup(seed));
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    Setup::put_layers(&mut m, "serve-scaled", &setups);
    let third = budget / 3;

    // Scheduler view at the timed run's worker count.
    let mut queue_p50 = Vec::new();
    let mut service_p99 = Vec::new();
    let mut maintain_ms = Vec::new();
    let (mut batches, mut served, mut fault_bits, mut words) = (0usize, 0usize, 0u64, 0u64);
    let start = Instant::now();
    let mut wave = 0usize;
    while wave < scale.min_waves.min(4) || start.elapsed() < third {
        let (reqs, _) = wave_requests(&fx.test, wave);
        let report = fx
            .server
            .serve_configured(&reqs, &wave_options(&fx.server, wave, WORKERS));
        let t = Instant::now();
        fx.server.maintain();
        maintain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        queue_p50.push(report.queue_wait.p50_ns() as f64 / 1e3);
        service_p99.push(report.service.p99_ns() as f64 / 1e3);
        batches += report.batches;
        served += report.requests();
        fault_bits += report.fault_bits;
        words += report.words_read;
        wave += 1;
    }
    let corrected = fx
        .server
        .resilience()
        .map_or(0, |r| r.counters().corrected_bits);

    // Untraced waves at one worker alternate with traced replays of the
    // same wave loop, so drift in the host's speed hits both sides of the
    // tracing overhead alike.
    let mut untraced = Vec::new();
    let mut tracer = Tracer::new();
    let npe = Npe::new(fx.network.format);
    let mut scratch = Scratch::default();
    let mut tag = 0u64;
    let (mut replay_faults, mut replayed) = (0u64, 0u64);
    let start = Instant::now();
    while untraced.len() < 2 || start.elapsed() < 2 * third {
        let (reqs, _) = wave_requests(&fx.test, wave);
        let options = wave_options(&fx.server, wave, 1);
        let t = Instant::now();
        black_box(fx.server.serve_configured(&reqs, &options));
        fx.server.maintain();
        untraced.push(t.elapsed().as_secs_f64());
        wave += 1;

        let (reqs, _) = wave_requests(&fx.test, wave);
        // Serving never mutates the store, so the reference taken before
        // the wave is the one the replay must match.
        let base_seed = wave_options(&fx.server, wave, 1).base_seed;
        let reference = reference_for(&fx.server, &reqs, base_seed);
        let mut predictions = Vec::with_capacity(reqs.len());
        let server = &mut fx.server;
        let network = &fx.network;
        tracer.span("bench.wave", tag, |t| {
            for (id, features) in reqs.iter().enumerate() {
                let memory = server.system().memory();
                let (p, f) = t.span("neuro_system.classify", tag, |t| {
                    replay_request(
                        t,
                        memory,
                        network,
                        &npe,
                        features,
                        base_seed,
                        id as u64,
                        tag,
                        &mut scratch,
                    )
                });
                predictions.push(p);
                replay_faults += f;
                tag += 1;
            }
            t.span("sram_serve.maintain", tag, |_| server.maintain());
        });
        outcome.tally(
            reqs.len() as u64,
            mismatches(&predictions, &reference),
            "traced replay predictions differ from classify_request",
        );
        replayed += reqs.len() as u64;
        wave += 1;
    }
    let moments = fault_bits_moments(&fx.network, fx.server.system().memory().models());
    outcome.check(fault_bits_in_band(replay_faults, replayed, moments), || {
        format!("replay injected {replay_faults} fault bits over {replayed} requests")
    });

    // The fetch floor: the same calls on a zero-BER copy.
    let clean = clean_copy(fx.server.system().memory());
    let mut floor = Tracer::new();
    let (reqs, _) = wave_requests(&fx.test, 0);
    let base_seed = fx.server.options().base_seed;
    let start = Instant::now();
    let mut id = 0u64;
    while id < reqs.len() as u64 || start.elapsed() < third / 4 {
        let features = &reqs[id as usize % reqs.len()];
        let (_, f) = replay_request(
            &mut floor,
            &clean,
            &fx.network,
            &npe,
            features,
            base_seed,
            id,
            id,
            &mut scratch,
        );
        outcome.check(f == 0, || format!("zero-BER copy injected {f} fault bits"));
        id += 1;
    }

    let spans = tracer.spans();
    let us = |v: Vec<f64>| median(&v) / 1e3;
    m.put(
        "sram_array.read_row_us",
        us(per_request_ns(spans, "sram_array.read_row")),
        "us",
    );
    m.put(
        "sram_array.read_row_clean_us",
        us(per_request_ns(floor.spans(), "sram_array.read_row")),
        "us",
    );
    m.put(
        "neuro_system.npe_neuron_us",
        us(per_request_ns(spans, "neuro_system.npe_neuron")),
        "us",
    );
    m.put(
        "neuro_system.classify_us",
        us(per_request_ns(spans, "neuro_system.classify")),
        "us",
    );
    m.put("sram_serve.queue_wait_p50_us", median(&queue_p50), "us");
    m.put("sram_serve.service_p99_us", median(&service_p99), "us");
    m.put(
        "sram_serve.batch_mean",
        served as f64 / batches.max(1) as f64,
        "req",
    );
    m.put("sram_serve.maintain_ms", median(&maintain_ms), "ms");
    m.put(
        "sram_array.fault_bits_per_kword",
        1e3 * fault_bits as f64 / words.max(1) as f64,
        "bit/kword",
    );
    m.put("sram_ecc.corrected_bits", corrected as f64, "count");
    let untraced_ms = median(&untraced) * 1e3;
    crate::put_breakdown(
        &mut m,
        &mut outcome,
        "serve-scaled",
        &Breakdown::of(spans),
        untraced_ms,
        &["neuro_system", "sram_array", "sram_serve"],
    );
    (m, outcome, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_prediction_is_counted() {
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(mismatches(&[1, 7, 3], &[1, 2, 3]), 1);
        assert_eq!(
            mismatches(&[1, 2], &[1, 2, 3]),
            3,
            "a missing prediction fails"
        );
        let mut outcome = Outcome::default();
        outcome.tally(3, mismatches(&[0, 2, 3], &[1, 2, 3]), "predictions");
        assert_eq!((outcome.attempted, outcome.failed), (3, 1));
    }

    #[test]
    fn fault_bits_band_is_binomial() {
        // 1000 requests of mean 100, variance 90 per request: sigma = 300.
        let moments = (100.0, 90.0);
        assert!(fault_bits_in_band(100_000, 1000, moments));
        assert!(fault_bits_in_band(101_500, 1000, moments));
        assert!(!fault_bits_in_band(102_000, 1000, moments));
        assert!(!fault_bits_in_band(97_000, 1000, moments));
    }

    #[test]
    fn argmax_ties_to_the_lowest_index() {
        assert_eq!(argmax_lowest(&[3, 9, 9, 1]), 1);
        assert_eq!(argmax_lowest(&[5]), 0);
    }
}
