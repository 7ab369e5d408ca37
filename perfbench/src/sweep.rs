//! `sweep`: `fig7::run` plus `fig8::run` on the quick experiment context
//! (784-48-16-10, 8-point VDD grid) — the researcher's loop. Each trial
//! loads a fresh store through the faulty write path and reads it once
//! through the geometric `corrupt_snapshot`, so this workload bypasses
//! per-read mask sampling and is where writes and float evaluation show.
//!
//! A request here is one fault-injection trial, and a sweep's sojourn is
//! the wall time of one `fig7::run` plus `fig8::run`.

use crate::report::{Metrics, Outcome};
use crate::stats::{median, quantile};
use crate::trace::{Breakdown, Tracer};
use crate::{Scale, Setup};
use hybrid_sram::config::MemoryConfig;
use hybrid_sram::experiments::fig7::{self, Fig7, Fig7Row};
use hybrid_sram::experiments::fig8::{self, Fig8, Fig8Row};
use hybrid_sram::experiments::{paper_vdd_grid, ExperimentContext};
use hybrid_sram::framework::{AccuracyStats, Framework};
use neural::dataset::synth;
use neural::eval::accuracy;
use neural::network::Mlp;
use neural::quant::{Encoding, QuantizedMlp};
use neural::train::{train, TrainOptions};
use neuro_system::layout;
use sram_array::behavioral::SynapticMemory;
use sram_array::power::PowerConvention;
use sram_bitcell::characterize::{characterize_paper_cells, CharacterizationOptions};
use sram_device::process::Technology;
use sram_device::units::Volt;
use sram_exec::derive_seed;
use std::time::{Duration, Instant};

/// Pool threads of the timed run (the benchmark host has two cores).
const THREADS: usize = 2;

/// `ExperimentContext::quick()` built step by step, so characterization
/// (uncached, where `quick()` reads the process-wide memo) and training
/// are timed apart, with the workload seed in place of the fixed one.
pub fn quick_context(seed: u64) -> (ExperimentContext, Setup) {
    let t0 = Instant::now();
    let char_options = CharacterizationOptions {
        vdds: paper_vdd_grid(),
        mc_samples: 60,
        ..CharacterizationOptions::quick()
    };
    let (c6, c8) = characterize_paper_cells(&Technology::ptm_22nm(), &char_options);
    let characterize_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let data = synth::generate_default(800, 97);
    let (train_set, test_set) = data.split(0.75, 11);
    let mut mlp = Mlp::new(&[784, 48, 16, 10], 23);
    train(
        &mut mlp,
        &train_set,
        &TrainOptions {
            epochs: 30,
            learning_rate: 1.5,
            momentum: 0.7,
            lr_decay: 0.97,
            ..TrainOptions::default()
        },
    );
    let train_s = t1.elapsed().as_secs_f64();
    let ctx = ExperimentContext {
        framework: Framework::from_tables(c6, c8),
        network: QuantizedMlp::from_mlp(&mlp, Encoding::TwosComplement),
        float_accuracy: accuracy(&mlp, &test_set),
        test: test_set,
        trials: 3,
        seed,
    };
    let setup = Setup {
        total_s: t0.elapsed().as_secs_f64(),
        characterize_s,
        train_s,
        boot_ms: None,
    };
    (ctx, setup)
}

/// Trial `t`'s seed, as `Framework::evaluate_accuracy` derives it.
fn trial_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t as u64)
}

/// The mean accuracy of `config` recomputed on the monolithic
/// `SynapticMemory` oracle; `Err` when a trial's corrupted image differs
/// from the sharded store's.
fn oracle_accuracy(ctx: &ExperimentContext, config: &MemoryConfig) -> Result<f64, String> {
    let image = layout::flatten(&ctx.network);
    let mut per_trial = Vec::with_capacity(ctx.trials);
    for t in 0..ctx.trials {
        let seed = trial_seed(ctx.seed, t);
        let mut oracle = SynapticMemory::new(
            ctx.framework.memory_map(&ctx.network, config),
            ctx.framework.failure_models(&ctx.network, config),
            seed,
        );
        oracle.load(&image);
        let (corrupted, _) = oracle.corrupt_snapshot(seed ^ 0xABCD_EF01);
        let sharded = ctx.framework.build_memory(&ctx.network, config, seed);
        if sharded.corrupt_snapshot(seed ^ 0xABCD_EF01).0 != corrupted {
            return Err(format!("{config}: trial {t} image differs from the oracle"));
        }
        let network = layout::unflatten(&ctx.network, &corrupted);
        per_trial.push(accuracy(&network.to_mlp(), &ctx.test));
    }
    Ok(AccuracyStats { per_trial }.mean())
}

/// Replays one sampled row of each figure on the oracle; the accuracy
/// must match bit for bit.
fn check_oracle(outcome: &mut Outcome, ctx: &ExperimentContext, f7: &Fig7, f8: &Fig8) {
    let row = &f7.rows[(derive_seed(ctx.seed, 7) % f7.rows.len() as u64) as usize];
    let got = oracle_accuracy(ctx, &MemoryConfig::Base6T { vdd: row.vdd });
    outcome.check(got == Ok(row.accuracy), || {
        format!("fig7 {:?}: oracle {got:?}, sweep {}", row.vdd, row.accuracy)
    });
    let pick = (derive_seed(ctx.seed, 8) % 8) as usize;
    let row = &f8.rows[pick / 2];
    let (vdd, want) = if pick.is_multiple_of(2) {
        (fig8::HYBRID_VDD, row.accuracy_065)
    } else {
        (fig8::HYBRID_VDD_HI, row.accuracy_070)
    };
    let config = MemoryConfig::Hybrid {
        msb_8t: row.msb_8t,
        vdd,
    };
    let got = oracle_accuracy(ctx, &config);
    outcome.check(got == Ok(want), || {
        format!("fig8 {config}: oracle {got:?}, sweep {want}")
    });
}

/// Fault-injection trials one fig7 + fig8 sweep runs.
fn trials_per_sweep(ctx: &ExperimentContext, f7: &Fig7) -> u64 {
    ((f7.rows.len() + 1 + 8) * ctx.trials) as u64
}

/// The timed run: whole sweeps on two pool threads until the budget is
/// spent; every sweep must reproduce the first.
pub fn run(seed: u64, budget: Duration, scale: &Scale) -> (Metrics, Outcome) {
    sram_exec::set_threads(THREADS);
    let (ctx, setups) = Setup::repeat(scale, || quick_context(seed));
    let mut outcome = Outcome::default();
    let mut times = Vec::new();
    let mut first: Option<(Fig7, Fig8)> = None;
    let start = Instant::now();
    while times.len() < scale.min_sweeps || start.elapsed() < budget {
        let t = Instant::now();
        let f7 = fig7::run(&ctx);
        let f8 = fig8::run(&ctx);
        times.push(t.elapsed().as_secs_f64());
        let trials = trials_per_sweep(&ctx, &f7);
        match &first {
            None => first = Some((f7, f8)),
            Some(reference) => {
                let same = reference.0 == f7 && reference.1 == f8;
                outcome.tally(
                    trials,
                    if same { 0 } else { trials },
                    "sweep trials not reproducible",
                );
            }
        }
    }
    let (f7, f8) = first.expect("at least one sweep");
    let trials = trials_per_sweep(&ctx, &f7);
    outcome.tally(trials, 0, "sweep trials");
    check_oracle(&mut outcome, &ctx, &f7, &f8);
    let sweep_ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    let mut m = Metrics::default();
    m.put("setup_s", Setup::median_total(&setups), "s");
    m.put("throughput_rps", trials as f64 / median(&times), "req/s");
    m.put("accuracy_pct", 100.0 * mean_accuracy(&f7, &f8), "%");
    m.put("sojourn_p50_ms", median(&sweep_ms), "ms");
    eprintln!(
        "sweep: {} sweeps, sweep p95 {:.3} ms",
        sweep_ms.len(),
        quantile(&sweep_ms, 0.95)
    );
    (m, outcome)
}

/// The mean of every accuracy the two figures evaluate.
fn mean_accuracy(f7: &Fig7, f8: &Fig8) -> f64 {
    let all: Vec<f64> = f7
        .rows
        .iter()
        .map(|r| r.accuracy)
        .chain([f8.baseline_accuracy])
        .chain(
            f8.rows
                .iter()
                .flat_map(|r| [r.accuracy_065, r.accuracy_070]),
        )
        .collect();
    all.iter().sum::<f64>() / all.len() as f64
}

/// `Framework::evaluate_accuracy` with each trial's calls in spans.
fn traced_accuracy(
    t: &mut Tracer,
    ctx: &ExperimentContext,
    config: &MemoryConfig,
    trial_tag: &mut u64,
) -> AccuracyStats {
    let per_trial = (0..ctx.trials)
        .map(|trial| {
            let seed = trial_seed(ctx.seed, trial);
            let tag = *trial_tag;
            *trial_tag += 1;
            let memory = t.span("sram_array.load", tag, |_| {
                ctx.framework.build_memory(&ctx.network, config, seed)
            });
            let (image, _) = t.span("sram_array.corrupt_snapshot", tag, |_| {
                memory.corrupt_snapshot(seed ^ 0xABCD_EF01)
            });
            let mlp = t.span("neuro_system.unflatten", tag, |_| {
                layout::unflatten(&ctx.network, &image).to_mlp()
            });
            t.span("neural.accuracy", tag, |_| accuracy(&mlp, &ctx.test))
        })
        .collect();
    AccuracyStats { per_trial }
}

/// `fig7::run` and `fig8::run` rebuilt from their public calls, each in
/// a span, on one thread.
fn traced_sweep(t: &mut Tracer, ctx: &ExperimentContext, tag: &mut u64) -> (Fig7, Fig8) {
    let power = |t: &mut Tracer, config: &MemoryConfig, tag: u64| {
        t.span("hybrid_sram.power_report", tag, |_| {
            ctx.framework
                .power_report(&ctx.network, config, PowerConvention::IsoThroughput)
        })
    };
    t.span("bench.sweep", *tag, |t| {
        let vdds: Vec<Volt> = ctx
            .framework
            .char_6t()
            .points
            .iter()
            .map(|p| p.vdd)
            .collect();
        let p_nom = power(t, &MemoryConfig::Base6T { vdd: vdds[0] }, *tag);
        let rows: Vec<Fig7Row> = vdds
            .iter()
            .map(|&vdd| {
                let config = MemoryConfig::Base6T { vdd };
                let stats = traced_accuracy(t, ctx, &config, tag);
                let p = power(t, &config, *tag);
                Fig7Row {
                    vdd,
                    accuracy: stats.mean(),
                    accuracy_std: stats.std(),
                    access_saving: 1.0 - p.access_power.watts() / p_nom.access_power.watts(),
                    leakage_saving: 1.0 - p.leakage_power.watts() / p_nom.leakage_power.watts(),
                }
            })
            .collect();
        let f7 = Fig7 {
            nominal_accuracy: rows[0].accuracy,
            rows,
        };
        let baseline = MemoryConfig::Base6T {
            vdd: fig8::BASELINE_VDD,
        };
        let p_base = power(t, &baseline, *tag);
        let baseline_accuracy = traced_accuracy(t, ctx, &baseline, tag).mean();
        let rows = (1..=4)
            .map(|n| {
                let acc = |t: &mut Tracer, vdd, tag: &mut u64| {
                    traced_accuracy(t, ctx, &MemoryConfig::Hybrid { msb_8t: n, vdd }, tag).mean()
                };
                let accuracy_065 = acc(t, fig8::HYBRID_VDD, tag);
                let accuracy_070 = acc(t, fig8::HYBRID_VDD_HI, tag);
                let at_065 = MemoryConfig::Hybrid {
                    msb_8t: n,
                    vdd: fig8::HYBRID_VDD,
                };
                let p = power(t, &at_065, *tag);
                let area_overhead = t.span("hybrid_sram.area_overhead", *tag, |_| {
                    ctx.framework.area_overhead(&ctx.network, &at_065)
                });
                Fig8Row {
                    msb_8t: n,
                    accuracy_065,
                    accuracy_070,
                    access_reduction: 1.0 - p.access_power.watts() / p_base.access_power.watts(),
                    leakage_reduction: 1.0 - p.leakage_power.watts() / p_base.leakage_power.watts(),
                    area_overhead,
                }
            })
            .collect();
        (
            f7,
            Fig8 {
                rows,
                baseline_accuracy,
            },
        )
    })
}

/// The traced run: one pool thread; untraced sweeps alternating with
/// traced replays that must reproduce them.
pub fn trace(seed: u64, budget: Duration, scale: &Scale) -> (Metrics, Outcome, Tracer) {
    sram_exec::set_threads(1);
    let (ctx, setups) = Setup::repeat(scale, || quick_context(seed));
    let mut m = Metrics::default();
    Setup::put_layers(&mut m, "sweep", &setups);
    let mut outcome = Outcome::default();
    // Untraced sweeps alternate with traced replays, so drift in the
    // host's speed hits both sides of the tracing overhead alike.
    let mut untraced = Vec::new();
    let mut reference = None;
    let mut tracer = Tracer::new();
    let mut tag = 0u64;
    let start = Instant::now();
    while untraced.len() < 2 || start.elapsed() < budget {
        let t = Instant::now();
        let figs = (fig7::run(&ctx), fig8::run(&ctx));
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
        let (f7, f8) = reference.get_or_insert(figs);
        let (r7, r8) = traced_sweep(&mut tracer, &ctx, &mut tag);
        let trials = trials_per_sweep(&ctx, &r7);
        let same = r7 == *f7 && r8 == *f8;
        outcome.tally(
            trials,
            if same { 0 } else { trials },
            "traced sweep differs from fig7::run + fig8::run",
        );
    }
    let spans = tracer.spans();
    let per_call_us = |name: &str| -> f64 {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median(&d)
    };
    m.put("sram_array.load_us", per_call_us("sram_array.load"), "us");
    m.put(
        "sram_array.corrupt_snapshot_us",
        per_call_us("sram_array.corrupt_snapshot"),
        "us",
    );
    m.put("neural.accuracy_us", per_call_us("neural.accuracy"), "us");
    m.put(
        "hybrid_sram.power_report_us",
        per_call_us("hybrid_sram.power_report"),
        "us",
    );
    crate::put_breakdown(
        &mut m,
        &mut outcome,
        "sweep",
        &Breakdown::of(spans),
        median(&untraced),
        &["hybrid_sram", "neural", "neuro_system", "sram_array"],
    );
    (m, outcome, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepwise_context_matches_quick() {
        let quick = ExperimentContext::quick();
        let (ours, _) = quick_context(quick.seed);
        assert_eq!(ours.network, quick.network);
        assert_eq!(ours.framework.char_6t(), quick.framework.char_6t());
        assert_eq!(ours.framework.char_8t(), quick.framework.char_8t());
        assert_eq!(ours.float_accuracy, quick.float_accuracy);
        assert_eq!(ours.trials, quick.trials);
    }
}
