//! Open-loop load generator for the network serving tier.
//!
//! ```text
//! cargo run --release -p sram_net --bin net_bench -- \
//!     [--tenants N] [--requests N] [--rate R] [--connections C] \
//!     [--threads W] [--seed S] [--shards S] \
//!     [--global-inflight N] [--soft-inflight N] [--per-conn-inflight N] \
//!     [--report PATH]
//! ```
//!
//! Builds up to three resident tenants — the trained digit classifier,
//! the trained spectra classifier, and the untrained million-synapse
//! network — over one shared sharded store, each under its own
//! significance/voltage policy, spawns the evented TCP server on a
//! loopback port, and drives it with the open-loop generator: `--rate`
//! requests/second of seeded Poisson-ish arrivals (`--rate 0` = burst,
//! the overload probe) spread over `--connections` sockets.
//!
//! Determinism: the request stream is a pure function of `--seed`,
//! `--requests`, `--rate`, and `--tenants`; predictions and fault
//! accounting are pure functions of `(seed, tenant, request_id)`. The
//! `net-load` CI job runs this binary twice at different `--connections`
//! and fails when the response digests diverge.
//!
//! The digits and spectra tenants are built from the committed generator
//! specs (`crates/gen/specs/*.toml`) via [`TenantSpec::from_generated`]:
//! policy, serving voltage, characterized bit-error rates, and drowsy
//! scale all come from the spec file. The million-synapse tenant keeps
//! hand-set Fig.5-ballpark rates (its geometry has no committed spec).
//! Energy figures use a behavioral per-tenant model (MAC + read energy
//! scaled by the tenant's serving Vdd squared) so the bench stays fast;
//! the characterized path lives in `serve_bench`/the framework.

use fault_inject::model::BitErrorRates;
use fault_inject::protection::ProtectionPolicy;
use neural::dataset::{spectra, Dataset};
use neural::network::Mlp;
use neural::quant::{Encoding, QuantizedMlp};
use neural::train::{train, TrainOptions};
use sram_net::loadgen::{self, LoadOptions, TenantStream};
use sram_net::registry::{ModelRegistry, TenantSpec};
use sram_net::server::{self, NetServerOptions};
use sram_serve::fixture::{million_synapse_network, trained_digit_network};
use sram_serve::format_ns;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    tenants: usize,
    requests: usize,
    rate: f64,
    connections: usize,
    seed: u64,
    shards: usize,
    global_inflight: usize,
    soft_inflight: usize,
    per_conn_inflight: usize,
    report: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let raw = sram_exec::strip_threads_flag(std::env::args().skip(1).collect())?;
    let mut args = Args {
        tenants: 2,
        requests: 256,
        rate: 500.0,
        connections: 2,
        seed: 0x0E7B_E2C4,
        shards: 4,
        global_inflight: 256,
        soft_inflight: 0,
        per_conn_inflight: 0,
        report: None,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value_of = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--tenants" => {
                args.tenants = value_of("--tenants")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| (1..=3).contains(&n))
                    .ok_or("invalid --tenants value (1..=3)")?;
            }
            "--requests" => {
                args.requests = value_of("--requests")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("invalid --requests value")?;
            }
            "--rate" => {
                args.rate = value_of("--rate")?
                    .parse()
                    .ok()
                    .filter(|&r: &f64| r.is_finite() && r >= 0.0)
                    .ok_or("invalid --rate value")?;
            }
            "--connections" => {
                args.connections = value_of("--connections")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("invalid --connections value")?;
            }
            "--seed" => {
                args.seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed value")?;
            }
            "--shards" => {
                args.shards = value_of("--shards")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("invalid --shards value")?;
            }
            "--global-inflight" => {
                args.global_inflight = value_of("--global-inflight")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or("invalid --global-inflight value")?;
            }
            "--soft-inflight" => {
                args.soft_inflight = value_of("--soft-inflight")?
                    .parse()
                    .map_err(|_| "invalid --soft-inflight value")?;
            }
            "--per-conn-inflight" => {
                args.per_conn_inflight = value_of("--per-conn-inflight")?
                    .parse()
                    .map_err(|_| "invalid --per-conn-inflight value")?;
            }
            "--report" => args.report = Some(value_of("--report")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.soft_inflight == 0 {
        args.soft_inflight = args.global_inflight * 3 / 4;
    }
    if args.per_conn_inflight == 0 {
        args.per_conn_inflight = args.global_inflight;
    }
    Ok(args)
}

/// Monte-Carlo depth for the spec-characterized tenants: enough for
/// stable Fig.5-band rates, small enough that bench startup stays quick
/// (the tables are memoized process-wide anyway).
const TENANT_MC_SAMPLES: usize = 96;

/// Builds a tenant from a committed generator spec plus its trained
/// network — the one-line-spec path the generated design space uses.
fn generated_tenant(toml: &str, network: QuantizedMlp) -> TenantSpec {
    let spec = sram_gen::spec::SramSpec::from_toml_str(toml).expect("committed spec parses");
    let cfg = sram_gen::characterize::CharacterizeConfig {
        mc_samples: TENANT_MC_SAMPLES,
    };
    TenantSpec::from_generated(&spec, network, &cfg).expect("committed spec matches its network")
}

/// A tenant's serving contract with hand-set Fig.5-ballpark rates — kept
/// for the million-synapse tenant, whose geometry has no committed spec.
fn tenant_spec(
    name: &str,
    network: QuantizedMlp,
    msb_8t: usize,
    vdd: f64,
    read_6t: f64,
    drowsy_scale: f64,
) -> TenantSpec {
    let energy = sram_net::registry::behavioral_energy_j(&network, vdd);
    TenantSpec {
        name: name.to_string(),
        network,
        policy: ProtectionPolicy::MsbProtected { msb_8t },
        rates: BitErrorRates {
            read_6t,
            write_6t: read_6t / 5.0,
            read_8t: 0.0,
            write_8t: 0.0,
        },
        vdd,
        energy_per_inference_j: energy,
        drowsy_scale,
    }
}

fn trained_spectra_network() -> (QuantizedMlp, Dataset) {
    let data = spectra::generate_default(700, 0x59EC);
    let (train_set, test_set) = data.split(0.8, 4);
    let mut mlp = Mlp::new(&[spectra::SPECTRUM_BINS, 32, 16, spectra::NUM_CLASSES], 2);
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

/// Deterministic pseudo-features for the untrained million-synapse
/// tenant (what it classifies is irrelevant; that it is deterministic is
/// not).
fn synthetic_features(width: usize, variant: usize) -> Vec<f32> {
    (0..width)
        .map(|j| ((variant * 31 + j * 7) % 97) as f32 / 97.0)
        .collect()
}

/// Distinct feature vectors each tenant cycles through (bounds client
/// memory while keeping the stream varied).
const FEATURE_VARIANTS: usize = 64;

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("net_bench: {e}");
            std::process::exit(2);
        }
    };

    let t0 = Instant::now();
    let mut specs = Vec::new();
    let mut streams = Vec::new();
    // Tenant 0 — digits: aggressive voltage scaling, 3 MSBs protected.
    let (digits_q, digits_test) = trained_digit_network();
    streams.push(TenantStream {
        tenant: 0,
        features: (0..FEATURE_VARIANTS.min(digits_test.len()))
            .map(|i| digits_test.image(i).to_vec())
            .collect(),
    });
    specs.push(generated_tenant(
        include_str!("../../../gen/specs/digits.toml"),
        digits_q,
    ));
    // Tenant 1 — spectra: one more protected bit, milder voltage.
    if args.tenants >= 2 {
        let (spectra_q, spectra_test) = trained_spectra_network();
        streams.push(TenantStream {
            tenant: 1,
            features: (0..FEATURE_VARIANTS.min(spectra_test.len()))
                .map(|i| spectra_test.image(i).to_vec())
                .collect(),
        });
        specs.push(generated_tenant(
            include_str!("../../../gen/specs/spectra.toml"),
            spectra_q,
        ));
    }
    // Tenant 2 — million-synapse: near-nominal supply, cheap protection.
    if args.tenants >= 3 {
        let million_q = million_synapse_network();
        let width = million_q.layers[0].inputs;
        streams.push(TenantStream {
            tenant: 2,
            features: (0..FEATURE_VARIANTS)
                .map(|i| synthetic_features(width, i))
                .collect(),
        });
        specs.push(tenant_spec("million", million_q, 2, 0.90, 1e-5, 0.70));
    }

    let registry = Arc::new(ModelRegistry::new(specs, args.seed, args.shards));
    let server_options = NetServerOptions {
        global_inflight: args.global_inflight,
        soft_inflight: args.soft_inflight,
        per_conn_inflight: args.per_conn_inflight,
        ..NetServerOptions::default()
    };
    let running = match server::spawn(Arc::clone(&registry), server_options) {
        Ok(running) => running,
        Err(e) => {
            eprintln!("net_bench: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "fixture ready in {:.1} s — {} tenants ({} total words, {} shards), serving on {}",
        t0.elapsed().as_secs_f64(),
        registry.len(),
        registry.store().map().total_words(),
        args.shards,
        running.addr(),
    );

    let load_options = LoadOptions {
        rate: args.rate,
        requests: args.requests,
        connections: args.connections,
        seed: args.seed ^ 0xA441_1A1D,
        drain_timeout: Duration::from_secs(30),
    };
    let load = match loadgen::run(running.addr(), &streams, &load_options) {
        Ok(load) => load,
        Err(e) => {
            eprintln!("net_bench: load generator failed: {e}");
            std::process::exit(1);
        }
    };
    let report = running.stop();

    let rate_label = if args.rate > 0.0 {
        format!("{:.0} req/s", args.rate)
    } else {
        "burst".to_string()
    };
    println!(
        "arrival rate       {rate_label} over {} connections",
        args.connections
    );
    println!(
        "sent/ok/shed/err   {} / {} / {} / {}{}",
        load.sent,
        load.ok,
        load.shed,
        load.errors,
        if load.timed_out { "  (TIMED OUT)" } else { "" }
    );
    println!("throughput         {:.1} req/s", load.throughput_rps());
    println!(
        "sojourn p50/p99    {} / {}",
        format_ns(load.sojourn.p50_ns()),
        format_ns(load.sojourn.p99_ns())
    );
    println!(
        "queue wait p50/p99 {} / {}",
        format_ns(load.queue.p50_ns()),
        format_ns(load.queue.p99_ns())
    );
    println!(
        "service p50/p99    {} / {}",
        format_ns(load.service.p50_ns()),
        format_ns(load.service.p99_ns())
    );
    println!("response digest    {:016x}", load.digest);
    println!("server digest      {:016x}", report.digest());
    println!(
        "server served/shed {} / {} ({} pings, {} bad frames, {} conns, {} dropped)",
        report.served(),
        report.shed(),
        report.pings,
        report.bad_frames,
        report.conns_accepted,
        report.conns_dropped
    );
    for tenant in &report.tenants {
        println!(
            "  tenant {:<8} served {:>6}  shed {:>5}  drowsy {:>5} (x{} standby, {} degrades)  \
             service p99 {}  BER {:.3e}  energy {:.3} µJ",
            tenant.name,
            tenant.served,
            tenant.shed,
            tenant.drowsy_served,
            tenant.standby_scale,
            tenant.degrade_events,
            format_ns(tenant.service.p99_ns()),
            tenant.observed_bit_error_rate(),
            tenant.energy_j * 1e6,
        );
    }

    if let Some(path) = &args.report {
        let server_fault_bits: u64 = report.tenants.iter().map(|t| t.fault_bits).sum();
        let words_read: u64 = report.tenants.iter().map(|t| t.words_read).sum();
        let energy_j: f64 = report.tenants.iter().map(|t| t.energy_j).sum();
        let degrade_events: u64 = report.tenants.iter().map(|t| t.degrade_events).sum();
        let drowsy_served: u64 = report.tenants.iter().map(|t| t.drowsy_served).sum();
        let observed_ber = if words_read > 0 {
            server_fault_bits as f64 / (words_read * 8) as f64
        } else {
            0.0
        };
        let mut text = format!(
            "rate={:.3}\nrequests={}\nconnections={}\ntenants={}\nseed={}\n\
             sent={}\nok={}\nshed={}\nerrors={}\ntimed_out={}\n\
             throughput_rps={:.3}\n\
             sojourn_p50_ns={}\nsojourn_p99_ns={}\n\
             queue_p50_ns={}\nqueue_p99_ns={}\n\
             service_p50_ns={}\nservice_p99_ns={}\n\
             digest={:016x}\nserver_digest={:016x}\n\
             server_served={}\nserver_shed={}\nbad_frames={}\npings={}\n\
             conns_accepted={}\nconns_dropped={}\n\
             fault_bits={}\nwords_read={}\nobserved_ber={:.6e}\nenergy_j={:.6e}\n\
             degrade_events={}\ndrowsy_served={}\nwall_ns={}\n",
            args.rate,
            args.requests,
            args.connections,
            registry.len(),
            args.seed,
            load.sent,
            load.ok,
            load.shed,
            load.errors,
            load.timed_out,
            load.throughput_rps(),
            load.sojourn.p50_ns(),
            load.sojourn.p99_ns(),
            load.queue.p50_ns(),
            load.queue.p99_ns(),
            load.service.p50_ns(),
            load.service.p99_ns(),
            load.digest,
            report.digest(),
            report.served(),
            report.shed(),
            report.bad_frames,
            report.pings,
            report.conns_accepted,
            report.conns_dropped,
            server_fault_bits,
            words_read,
            observed_ber,
            energy_j,
            degrade_events,
            drowsy_served,
            load.wall.as_nanos(),
        );
        for (i, tenant) in report.tenants.iter().enumerate() {
            text.push_str(&format!(
                "tenant{i}_name={}\ntenant{i}_served={}\ntenant{i}_shed={}\n\
                 tenant{i}_drowsy_served={}\ntenant{i}_degrade_events={}\n\
                 tenant{i}_queue_p99_ns={}\ntenant{i}_service_p99_ns={}\n\
                 tenant{i}_ber={:.6e}\ntenant{i}_energy_j={:.6e}\ntenant{i}_digest={:016x}\n",
                tenant.name,
                tenant.served,
                tenant.shed,
                tenant.drowsy_served,
                tenant.degrade_events,
                tenant.queue.p99_ns(),
                tenant.service.p99_ns(),
                tenant.observed_bit_error_rate(),
                tenant.energy_j,
                tenant.digest,
            ));
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("could not write report {path}: {e}");
            std::process::exit(1);
        }
        println!("report written to {path}");
    }
    if load.timed_out {
        eprintln!("net_bench: drain timeout fired — server could not keep up");
        std::process::exit(1);
    }
}
