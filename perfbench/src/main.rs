//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-scaled|net-mixed|sweep> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` sets the workload up (several times, reporting the median
//! set-up time), measures it for `--seconds`, checks every output and
//! prints the end-to-end metrics. `--trace 1` is the separate traced run:
//! it sets up all three workloads once, runs each on one worker and one
//! pool thread so spans nest serially, and prints the per-layer metrics,
//! each layer's share of the traced total, the reconciliation gap and the
//! tracing overhead; the spans are written to `.perfbench/`. `--tiny`
//! shrinks set-up repeats and minimum work for the benchmark's own tests.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! A failed check counts as a failed operation and sets `correct` false.

mod net_mixed;
mod report;
mod serve_scaled;
mod stats;
mod sweep;
mod trace;

use report::{Metrics, Outcome};
use std::time::Duration;
use trace::{Breakdown, Tracer};

/// The workloads, in the order the traced run covers them.
pub const WORKLOADS: [&str; 3] = ["serve-scaled", "net-mixed", "sweep"];

/// Percent of the traced total that may go unclaimed by any layer before
/// the reconciliation check fails.
pub const RECONCILE_TOLERANCE_PCT: f64 = 5.0;

/// How much work a run does beyond its time budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Minimum serving waves (`accuracy_pct` scores exactly these).
    pub min_waves: usize,
    /// Minimum figure sweeps.
    pub min_sweeps: usize,
}

impl Scale {
    const FULL: Scale = Scale {
        setup_repeats: 5,
        min_waves: 16,
        min_sweeps: 3,
    };
    const TINY: Scale = Scale {
        setup_repeats: 1,
        min_waves: 2,
        min_sweeps: 1,
    };
}

/// One set-up's timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Setup {
    /// The whole set-up, seconds.
    pub total_s: f64,
    /// Uncached `characterize_paper_cells`, seconds.
    pub characterize_s: f64,
    /// Network training, seconds.
    pub train_s: f64,
    /// The resilience controller's BIST boot, milliseconds, where there
    /// is one.
    pub boot_ms: Option<f64>,
}

impl Setup {
    /// Runs `setup` `scale.setup_repeats` times, keeping the last result
    /// and every timing.
    pub fn repeat<T>(scale: &Scale, mut setup: impl FnMut() -> (T, Setup)) -> (T, Vec<Setup>) {
        let mut runs = Vec::with_capacity(scale.setup_repeats);
        let mut last = None;
        for _ in 0..scale.setup_repeats.max(1) {
            let (value, timing) = setup();
            runs.push(timing);
            last = Some(value);
        }
        (last.expect("at least one set-up"), runs)
    }

    /// Median whole set-up time.
    pub fn median_total(setups: &[Setup]) -> f64 {
        stats::median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>())
    }

    /// The set-up layer metrics of `workload`.
    pub fn put_layers(m: &mut Metrics, workload: &str, setups: &[Setup]) {
        let med = |f: fn(&Setup) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
        m.put(
            format!("sram_bitcell.characterize_s.{workload}"),
            med(|s| s.characterize_s),
            "s",
        );
        m.put(
            format!("neural.train_s.{workload}"),
            med(|s| s.train_s),
            "s",
        );
        if setups.iter().all(|s| s.boot_ms.is_some()) {
            m.put(
                "sram_serve.boot_ms",
                med(|s| s.boot_ms.unwrap_or(0.0)),
                "ms",
            );
        }
    }
}

/// Puts each expected layer's share of the traced total, the
/// reconciliation gap, the traced end-to-end median and the tracing
/// overhead against `untraced_ms`; a gap beyond
/// [`RECONCILE_TOLERANCE_PCT`] or a layer outside `layers` fails a check.
pub fn put_breakdown(
    m: &mut Metrics,
    outcome: &mut Outcome,
    workload: &str,
    b: &Breakdown,
    untraced_ms: f64,
    layers: &[&str],
) {
    let shares = b.shares_pct();
    for layer in layers {
        m.put(
            format!("{layer}.share_pct.{workload}"),
            shares.get(*layer).copied().unwrap_or(0.0),
            "%",
        );
    }
    let unlisted: Vec<&String> = shares
        .keys()
        .filter(|l| !layers.contains(&l.as_str()))
        .collect();
    outcome.check(unlisted.is_empty(), || {
        format!("{workload}: layers {unlisted:?} traced but not reported")
    });
    let reconciled = b.reconcile(RECONCILE_TOLERANCE_PCT);
    if let Err(e) = &reconciled {
        eprintln!("perfbench: {workload} does not reconcile: {e}");
    }
    outcome.check(reconciled.is_ok(), || {
        format!(
            "{workload} reconciliation: {}",
            reconciled.clone().unwrap_err()
        )
    });
    let traced_ms = stats::median(&b.units_ns) / 1e6;
    m.put(format!("trace.gap_pct.{workload}"), b.gap_pct(), "%");
    m.put(format!("trace.e2e_ms.{workload}"), traced_ms, "ms");
    m.put(
        format!("trace.overhead_ms.{workload}"),
        traced_ms - untraced_ms,
        "ms",
    );
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; expected one of {WORKLOADS:?}"
                    ));
                }
                workload = Some(w);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "invalid --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "invalid --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
    })
}

fn write_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("trace-{workload}-{seed}.tsv"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_tsv()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn run(args: &Args) -> (Metrics, Outcome) {
    let scale = if args.tiny { Scale::TINY } else { Scale::FULL };
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        return match args.workload.as_str() {
            "serve-scaled" => serve_scaled::run(args.seed, budget, &scale),
            "net-mixed" => net_mixed::run(args.seed, budget, &scale),
            _ => sweep::run(args.seed, budget, &scale),
        };
    }
    let share = budget / WORKLOADS.len() as u32;
    let mut metrics = Metrics::default();
    let mut outcome = Outcome::default();
    for workload in WORKLOADS {
        let (m, o, tracer) = match workload {
            "serve-scaled" => serve_scaled::trace(args.seed, share, &scale),
            "net-mixed" => net_mixed::trace(args.seed, share, &scale),
            _ => sweep::trace(args.seed, share, &scale),
        };
        write_trace(workload, args.seed, &tracer);
        metrics.extend(m);
        outcome.merge(o);
    }
    (metrics, outcome)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (metrics, outcome) = run(&args);
    for reason in &outcome.reasons {
        eprintln!("perfbench: FAILED {reason}");
    }
    for (name, value, unit) in metrics.iter() {
        println!("{name:<44} {value:>14.4} {unit}");
    }
    println!("{}", report::result_line(&outcome, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload net-mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "net-mixed");
        assert_eq!((a.seed, a.seconds, a.trace, a.tiny), (7, 10.0, true, false));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload sweep --seconds 1 --trace 0").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 1 --trace 0 --extra").is_err());
    }
}
