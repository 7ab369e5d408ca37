//! Load generator for the inference serving layer.
//!
//! ```text
//! cargo run --release -p sram_serve --bin serve_bench -- \
//!     [--requests N] [--threads N] [--batch B] [--seed S] \
//!     [--report PATH] [--predictions PATH] \
//!     [--chaos] [--waves W] [--chaos-seed S]
//! ```
//!
//! Builds the standard serving fixture — a small trained digit classifier
//! stored in the paper's hybrid (3,5) memory at 0.65 V, characterized
//! through the memoized `characterize_paper_cells` cache — then fires
//! `--requests` classifications through the queue → micro-batcher → worker
//! pipeline and prints a throughput/latency/energy table.
//!
//! `--chaos` switches to the resilience scenario instead: the request
//! stream is split into `--waves` waves and served **three times** over
//! identical fixtures — healthy (no degradation), protected (a seeded
//! [`ChaosSchedule`] degrades one canonical shard mid-load while the
//! resilience loop scrubs and repairs between waves), and unprotected
//! (same degradation, no maintenance). The report compares accuracy, tail
//! latency, and the scrub/repair counters; `cargo xtask chaos-report
//! --gate` turns two thread counts of it into the CI resilience gate.
//!
//! Determinism: predictions depend only on `--seed` (and in chaos mode
//! `--chaos-seed`) and the request index, never on `--threads` or
//! `--batch`. The `serve-load` CI job runs this binary at 1 and 4 workers
//! and fails if the prediction digests differ; the `resilience` job does
//! the same for all three chaos digests.
//!
//! `--report` writes a machine-readable `key=value` file (consumed by
//! `cargo xtask serve-report` / `chaos-report`); `--predictions` writes
//! the raw prediction vector, one class index per line, for byte-level
//! diffing.

use fault_inject::chaos::ChaosSchedule;
use hybrid_sram::config::MemoryConfig;
use hybrid_sram::framework::Framework;
use neural::dataset::Dataset;
use neural::quant::QuantizedMlp;
use neuro_system::controller::NeuromorphicSystem;
use neuro_system::energy::{system_inference_energy, SystemEnergyModel};
use neuro_system::layout;
use neuro_system::npe::Npe;
use sram_array::power::PowerConvention;
use sram_bitcell::characterize::CharacterizationOptions;
use sram_device::process::Technology;
use sram_device::units::Volt;
use sram_serve::fixture::{request_stream, trained_digit_network};
use sram_serve::{
    apply_chaos_event, drowsy_plan, format_ns, prediction_digest, DrowsyPolicy, InferenceServer,
    LatencyHistogram, ResilienceConfig, ResilienceController, ServeOptions,
};
use std::time::Instant;

struct Args {
    requests: usize,
    max_batch: usize,
    seed: u64,
    report: Option<String>,
    predictions: Option<String>,
    chaos: bool,
    waves: usize,
    chaos_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let raw = sram_exec::strip_threads_flag(std::env::args().skip(1).collect())?;
    let mut args = Args {
        requests: 512,
        max_batch: 16,
        seed: 0xBA7C_4ED0,
        report: None,
        predictions: None,
        chaos: false,
        waves: 4,
        chaos_seed: 0xC4A0_5EED,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value_of = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--requests" => {
                args.requests = value_of("--requests")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("invalid --requests value")?;
            }
            "--batch" => {
                args.max_batch = value_of("--batch")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("invalid --batch value")?;
            }
            "--seed" => {
                args.seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed value")?;
            }
            "--report" => args.report = Some(value_of("--report")?),
            "--predictions" => args.predictions = Some(value_of("--predictions")?),
            "--chaos" => args.chaos = true,
            "--waves" => {
                args.waves = value_of("--waves")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("invalid --waves value")?;
            }
            "--chaos-seed" => {
                args.chaos_seed = value_of("--chaos-seed")?
                    .parse()
                    .map_err(|_| "invalid --chaos-seed value")?;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// One chaos scenario's merged outcome across all request waves.
struct ScenarioOutcome {
    predictions: Vec<usize>,
    latency: LatencyHistogram,
    accuracy: f64,
    workers: usize,
    shards: usize,
    counters: Option<sram_serve::ResilienceCounters>,
}

/// Serves the request stream in waves over a freshly built fixture:
/// `schedule` events strike at their wave boundaries, and `protected`
/// scenarios run the resilience maintenance window (scrub → repair →
/// governor) before each wave is served. Healthy runs pass no schedule;
/// unprotected runs take the schedule without protection. All three use
/// identical wave splits and per-wave seed streams, so their predictions
/// are comparable request-for-request and deterministic at any worker
/// count.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    framework: &Framework,
    network: &QuantizedMlp,
    config: &MemoryConfig,
    test_set: &Dataset,
    requests: &[Vec<f32>],
    args: &Args,
    schedule: Option<&ChaosSchedule>,
    protected: bool,
) -> ScenarioOutcome {
    let memory = framework.build_memory(network, config, args.seed);
    let mut system = NeuromorphicSystem::new(network, memory, Npe::new(network.format));
    let controller = protected.then(|| {
        ResilienceController::new(
            system.memory_mut(),
            &layout::flatten(network),
            ResilienceConfig::default(),
        )
    });
    let mut server = InferenceServer::new(
        system,
        ServeOptions {
            workers: 0,
            max_batch: args.max_batch,
            base_seed: args.seed,
        },
    );
    if let Some(controller) = controller {
        server = server.with_resilience(controller);
    }

    let n = requests.len();
    let chunk = n.div_ceil(args.waves).max(1);
    let mut predictions = Vec::with_capacity(n);
    let mut latency = LatencyHistogram::new();
    let mut workers = 0usize;
    for wave in 0..args.waves {
        let lo = (wave * chunk).min(n);
        let hi = ((wave + 1) * chunk).min(n);
        if let Some(schedule) = schedule {
            for event in schedule.events_at(wave) {
                apply_chaos_event(server.system_mut().memory_mut(), event);
            }
        }
        if protected {
            server.maintain();
        }
        if lo == hi {
            continue;
        }
        let report = server.serve_configured(
            &requests[lo..hi],
            &ServeOptions {
                workers: 0,
                max_batch: args.max_batch,
                base_seed: sram_exec::derive_seed(args.seed, wave as u64),
            },
        );
        workers = report.workers;
        predictions.extend_from_slice(&report.predictions);
        latency.merge(&report.latency);
    }
    let correct = predictions
        .iter()
        .enumerate()
        .filter(|&(i, &p)| p == test_set.label(i % test_set.len()))
        .count();
    let accuracy = if n == 0 {
        0.0
    } else {
        correct as f64 / n as f64
    };
    ScenarioOutcome {
        predictions,
        latency,
        accuracy,
        workers,
        shards: server.system().memory().shard_count(),
        counters: server.resilience().map(|r| r.counters()),
    }
}

/// The `--chaos` mode: healthy / protected / unprotected runs over the
/// degraded-shard schedule, compared side by side.
fn run_chaos(args: &Args) {
    println!("== serve_bench --chaos — degraded-shard resilience scenario ==");
    let t0 = Instant::now();
    let tech = Technology::ptm_22nm();
    let char_options = CharacterizationOptions {
        vdds: vec![Volt::new(0.95), Volt::new(0.75), Volt::new(0.65)],
        mc_samples: 40,
        ..CharacterizationOptions::quick()
    };
    let framework = Framework::new(&tech, &char_options);
    let config = MemoryConfig::Hybrid {
        msb_8t: 3,
        vdd: Volt::new(0.65),
    };
    let (network, test_set) = trained_digit_network();
    let requests = request_stream(&test_set, args.requests);
    let total_words: usize = layout::bank_words(&network).iter().sum();
    // Canonical 4-way partition, 16 stuck rows: the schedule names global
    // addresses only, so it is identical however the store is sharded.
    let probe = framework.build_memory(&network, &config, args.seed);
    let schedule = ChaosSchedule::degraded_shard(
        args.chaos_seed,
        total_words,
        4,
        args.waves,
        probe.words_per_row(),
        16,
    );
    println!(
        "fixture ready in {:.1} s — {} requests over {} waves, {} chaos events, config {}\n",
        t0.elapsed().as_secs_f64(),
        args.requests,
        args.waves,
        schedule.events.len(),
        config,
    );

    let healthy = run_scenario(
        &framework, &network, &config, &test_set, &requests, args, None, false,
    );
    let protected = run_scenario(
        &framework,
        &network,
        &config,
        &test_set,
        &requests,
        args,
        Some(&schedule),
        true,
    );
    let unprotected = run_scenario(
        &framework,
        &network,
        &config,
        &test_set,
        &requests,
        args,
        Some(&schedule),
        false,
    );

    let row = |name: &str, s: &ScenarioOutcome| {
        println!(
            "{name:<12} accuracy {:>6.3}  p99 {:>10}  digest {:016x}",
            s.accuracy,
            format_ns(s.latency.p99_ns()),
            prediction_digest(&s.predictions),
        );
    };
    row("healthy", &healthy);
    row("protected", &protected);
    row("unprotected", &unprotected);
    let c = protected
        .counters
        .clone()
        .expect("protected scenario carries counters");
    println!(
        "\nbist: {} weak words / {} weak bits (digest {:016x})",
        c.bist_weak_words, c.bist_weak_bits, c.bist_digest
    );
    println!(
        "scrub: {} sweeps, {} corrected words / {} bits, {} uncorrectable",
        c.scrub_sweeps, c.corrected_words, c.corrected_bits, c.uncorrectable_words
    );
    println!(
        "repair: {} rows remapped, {} spares free; governor boosts {}",
        c.rows_repaired, c.spare_rows_free, c.governor_boosts
    );

    if let Some(path) = &args.report {
        let text = format!(
            "mode=chaos\nworkers={}\nrequests={}\nwaves={}\nshards={}\n\
             healthy_accuracy={:.6}\nprotected_accuracy={:.6}\nunprotected_accuracy={:.6}\n\
             healthy_p99_ns={}\nprotected_p99_ns={}\nunprotected_p99_ns={}\n\
             healthy_digest={:016x}\nprotected_digest={:016x}\nunprotected_digest={:016x}\n\
             bist_weak_words={}\nbist_weak_bits={}\nbist_digest={:016x}\n\
             scrub_sweeps={}\ncorrected_words={}\ncorrected_bits={}\nuncorrectable_words={}\n\
             rows_repaired={}\nspare_rows_free={}\ngovernor_boosts={}\n",
            healthy.workers,
            args.requests,
            args.waves,
            healthy.shards,
            healthy.accuracy,
            protected.accuracy,
            unprotected.accuracy,
            healthy.latency.p99_ns(),
            protected.latency.p99_ns(),
            unprotected.latency.p99_ns(),
            prediction_digest(&healthy.predictions),
            prediction_digest(&protected.predictions),
            prediction_digest(&unprotected.predictions),
            c.bist_weak_words,
            c.bist_weak_bits,
            c.bist_digest,
            c.scrub_sweeps,
            c.corrected_words,
            c.corrected_bits,
            c.uncorrectable_words,
            c.rows_repaired,
            c.spare_rows_free,
            c.governor_boosts,
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("could not write report {path}: {e}");
            std::process::exit(1);
        }
        println!("report written to {path}");
    }
    if let Some(path) = &args.predictions {
        let mut text = String::new();
        for s in [&healthy, &protected, &unprotected] {
            for p in &s.predictions {
                text.push_str(&p.to_string());
                text.push('\n');
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("could not write predictions {path}: {e}");
            std::process::exit(1);
        }
        println!("predictions written to {path}");
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: serve_bench [--requests N] [--threads N] [--batch B] [--seed S] \
             [--report PATH] [--predictions PATH] [--chaos] [--waves W] [--chaos-seed S]"
        );
        std::process::exit(2);
    });
    if args.chaos {
        run_chaos(&args);
        return;
    }

    println!("== serve_bench — batched inference over the hybrid 8T-6T memory ==");
    let t0 = Instant::now();

    // The serving fixture: characterization through the process-wide memo
    // cache, a small trained classifier, the paper's hybrid (3,5) layout at
    // an aggressively scaled 0.65 V supply.
    let tech = Technology::ptm_22nm();
    let char_options = CharacterizationOptions {
        vdds: vec![Volt::new(0.95), Volt::new(0.75), Volt::new(0.65)],
        mc_samples: 40,
        ..CharacterizationOptions::quick()
    };
    let framework = Framework::new(&tech, &char_options);
    let config = MemoryConfig::Hybrid {
        msb_8t: 3,
        vdd: Volt::new(0.65),
    };

    let (network, test_set) = trained_digit_network();

    let memory = framework.build_memory(&network, &config, args.seed);
    let system = NeuromorphicSystem::new(&network, memory, Npe::new(network.format));
    let power = framework.power_report(&network, &config, PowerConvention::IsoThroughput);
    let energy = system_inference_energy(
        &power,
        system.macs_per_inference(),
        &SystemEnergyModel::default(),
        config.vdd(),
    );
    let plan = drowsy_plan(&tech, &network, &config, &DrowsyPolicy::default());

    let server = InferenceServer::new(
        system,
        ServeOptions {
            workers: 0, // --threads / SRAM_REPRO_THREADS / autodetect
            max_batch: args.max_batch,
            base_seed: args.seed,
        },
    )
    .with_energy(energy)
    .with_drowsy(plan, power.leakage_power);

    // The request stream: test images cycled to the requested length.
    let requests = request_stream(&test_set, args.requests);
    println!(
        "fixture ready in {:.1} s — {} requests, {} workers, batch ≤ {}, config {}\n",
        t0.elapsed().as_secs_f64(),
        args.requests,
        server.workers(),
        args.max_batch,
        config,
    );

    let report = server.serve(&requests);

    let energy_per_inf = report
        .energy_per_inference
        .as_ref()
        .map(|e| e.energy.total().joules())
        .unwrap_or(0.0);
    let standby = report.standby_leakage.map(|w| w.watts()).unwrap_or(0.0);
    let digest = report.digest();
    println!("workers            {}", report.workers);
    println!("requests           {}", report.requests());
    println!(
        "wall time          {}",
        format_ns(report.wall.as_nanos() as u64)
    );
    println!("throughput         {:.1} req/s", report.throughput_rps());
    println!("read bandwidth     {:.3e} words/s", report.words_per_sec());
    println!("latency p50        {}", format_ns(report.latency.p50_ns()));
    println!("latency p99        {}", format_ns(report.latency.p99_ns()));
    println!(
        "queue wait p50/p99 {} / {}",
        format_ns(report.queue_wait.p50_ns()),
        format_ns(report.queue_wait.p99_ns())
    );
    println!(
        "service p50/p99    {} / {}",
        format_ns(report.service.p50_ns()),
        format_ns(report.service.p99_ns())
    );
    println!("energy/inference   {:.3} nJ", energy_per_inf * 1e9);
    println!("drowsy standby     {:.3} µW", standby * 1e6);
    println!(
        "observed BER       {:.3e}  ({} fault bits / {} words read)",
        report.observed_bit_error_rate(),
        report.fault_bits,
        report.words_read
    );
    println!(
        "micro-batches      {} (largest {})",
        report.batches, report.max_batch_observed
    );
    println!(
        "memory shards      {} (reads/shard {:?})",
        server.system().memory().shard_count(),
        report.shard_reads
    );
    // Per-shard drowsy accounting: shards the request stream touched stay
    // at the serving supply, idle shards retain at their own DRV-derived
    // voltages.
    let hot_standby = server.drowsy_plan().map(|plan| {
        let retention = plan.shard_retention(server.system().memory());
        let awake: Vec<bool> = report.shard_reads.iter().map(|&r| r > 0).collect();
        let scale = plan.partial_standby_scale(&retention, &awake);
        (power.leakage_power.watts() * scale, awake)
    });
    if let Some((watts, awake)) = &hot_standby {
        println!(
            "hot-shard standby  {:.3} µW ({}/{} shards awake)",
            watts * 1e6,
            awake.iter().filter(|&&a| a).count(),
            awake.len()
        );
    }
    println!("prediction digest  {digest:016x}");

    if let Some(path) = &args.report {
        let text = format!(
            "workers={}\nrequests={}\nwall_ns={}\nthroughput_rps={:.3}\n\
             words_per_sec={:.3}\n\
             p50_ns={}\np99_ns={}\n\
             queue_p50_ns={}\nqueue_p99_ns={}\nservice_p50_ns={}\nservice_p99_ns={}\n\
             energy_per_inference_j={:.6e}\n\
             standby_leakage_w={:.6e}\nfault_bits={}\nwords_read={}\n\
             observed_ber={:.6e}\nbatches={}\nmax_batch_observed={}\nshards={}\ndigest={:016x}\n",
            report.workers,
            report.requests(),
            report.wall.as_nanos(),
            report.throughput_rps(),
            report.words_per_sec(),
            report.latency.p50_ns(),
            report.latency.p99_ns(),
            report.queue_wait.p50_ns(),
            report.queue_wait.p99_ns(),
            report.service.p50_ns(),
            report.service.p99_ns(),
            energy_per_inf,
            standby,
            report.fault_bits,
            report.words_read,
            report.observed_bit_error_rate(),
            report.batches,
            report.max_batch_observed,
            server.system().memory().shard_count(),
            digest,
        );
        let text = match &hot_standby {
            Some((watts, _)) => format!("{text}hot_shard_standby_w={watts:.6e}\n"),
            None => text,
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("could not write report {path}: {e}");
            std::process::exit(1);
        }
        println!("report written to {path}");
    }
    if let Some(path) = &args.predictions {
        let mut text = String::with_capacity(report.predictions.len() * 2);
        for p in &report.predictions {
            text.push_str(&p.to_string());
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("could not write predictions {path}: {e}");
            std::process::exit(1);
        }
        println!("predictions written to {path}");
    }
}
