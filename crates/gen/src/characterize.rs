//! Characterization of a generated macro at its spec voltages.
//!
//! Two reuse paths, both memoized:
//!
//! * **Point solvers** (write margin, SNM, read/write timing) run on the
//!   paper's nominal cells in the spec's *column environment* — the
//!   bitline capacitance scales with the spec's row count, following the
//!   `rows_256` precedent (0.06 fF junction load per row + 4.6 fF wire
//!   and sense-amp input). Results are cached process-wide in a
//!   [`MemoCache`] keyed by `(rows, vdd)`.
//! * **Monte Carlo failure tables** go through
//!   [`characterize_paper_cells_cached`], keyed by the full option set, so
//!   every spec sharing a voltage pair and geometry shares one MC run.

use crate::spec::SramSpec;
use fault_inject::model::BitErrorRates;
use sram_bitcell::characterize::{
    characterize_paper_cells_cached, paper_cells, CellCharacterization, CharacterizationOptions,
};
use sram_bitcell::margins::write_margin;
use sram_bitcell::snm::{static_noise_margin, SnmCondition};
use sram_bitcell::timing::{
    read_access_time_6t, read_access_time_8t, write_time, ColumnEnvironment,
};
use sram_device::process::Technology;
use sram_device::units::{Farad, Volt};
use sram_exec::MemoCache;
use std::sync::OnceLock;

/// Per-row bitline junction loading, femtofarads (the `rows_256` model).
const BITLINE_FF_PER_ROW: f64 = 0.06;
/// Fixed wire + sense-amp input loading, femtofarads.
const BITLINE_FF_FIXED: f64 = 4.6;

/// Monte Carlo depth and seed for the generated tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizeConfig {
    /// Monte Carlo samples per voltage point.
    pub mc_samples: usize,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        Self { mc_samples: 160 }
    }
}

/// Solver results at one supply voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltagePoint {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// 6T write margin, volts (negative = unwritable).
    pub write_margin_v: f64,
    /// Whether the nominal 6T cell is writable at this voltage.
    pub writable: bool,
    /// Hold static noise margin, volts.
    pub hold_snm_v: f64,
    /// Read static noise margin, volts.
    pub read_snm_v: f64,
    /// 6T write time, seconds (`None` = stalled corner).
    pub write_time_s: Option<f64>,
    /// 6T read access time in the spec's column, seconds.
    pub read_6t_s: Option<f64>,
    /// 8T read access time in the spec's column, seconds.
    pub read_8t_s: Option<f64>,
    /// 6T read bit-error probability (Monte Carlo).
    pub read_ber_6t: f64,
    /// 6T write bit-error probability.
    pub write_ber_6t: f64,
    /// 8T read bit-error probability.
    pub read_ber_8t: f64,
    /// 8T write bit-error probability.
    pub write_ber_8t: f64,
}

/// Characterization of a generated macro: the active and drowsy points.
#[derive(Debug, Clone, PartialEq)]
pub struct GenCharacterization {
    /// The active (serving) supply point.
    pub active: VoltagePoint,
    /// The drowsy retention point.
    pub drowsy: VoltagePoint,
}

/// The column environment implied by a spec's row count.
pub fn column_env(rows: usize) -> ColumnEnvironment {
    ColumnEnvironment {
        c_bitline: Farad::from_femtofarads(rows as f64 * BITLINE_FF_PER_ROW + BITLINE_FF_FIXED),
        delta_v_sense: Volt::from_millivolts(100.0),
    }
}

/// The Monte Carlo option set a spec implies: exactly the spec's active
/// and drowsy voltages (descending, deduplicated), its column environment,
/// and the workspace-default seed/margins — so `memory_power`'s exact
/// voltage lookup always hits.
pub fn mc_options(spec: &SramSpec, cfg: &CharacterizeConfig) -> CharacterizationOptions {
    let mut vdds = vec![Volt::new(spec.supply.vdd)];
    if (spec.supply.drowsy - spec.supply.vdd).abs() > 1e-9 {
        vdds.push(Volt::new(spec.supply.drowsy));
    }
    CharacterizationOptions {
        vdds,
        mc_samples: cfg.mc_samples,
        env: column_env(spec.dims.rows),
        ..CharacterizationOptions::default()
    }
}

/// The cached MC failure/power tables for a spec (6T, 8T).
pub fn mc_tables(
    spec: &SramSpec,
    cfg: &CharacterizeConfig,
) -> (CellCharacterization, CellCharacterization) {
    characterize_paper_cells_cached(&Technology::ptm_22nm(), &mc_options(spec, cfg))
}

/// Margins and timing at one `(rows, vdd)` point, memoized process-wide.
fn solver_point(rows: usize, vdd: f64) -> SolverPoint {
    static CACHE: OnceLock<MemoCache<String, SolverPoint>> = OnceLock::new();
    let key = format!("{rows}|{}", vdd.to_bits());
    let point = CACHE.get_or_init(MemoCache::new).get_or_compute(key, || {
        let tech = Technology::ptm_22nm();
        let (cell6, cell8) = paper_cells(&tech);
        let env = column_env(rows);
        let v = Volt::new(vdd);
        let wm = write_margin(&cell6, v);
        SolverPoint {
            write_margin_v: wm.as_volts().volts(),
            writable: wm.is_writable(),
            hold_snm_v: static_noise_margin(&cell6, v, SnmCondition::Hold).volts(),
            read_snm_v: static_noise_margin(&cell6, v, SnmCondition::Read).volts(),
            write_time_s: write_time(&cell6, v).map(|t| t.seconds()),
            read_6t_s: read_access_time_6t(&cell6, v, &env).map(|t| t.seconds()),
            read_8t_s: read_access_time_8t(&cell8, v, &env).map(|t| t.seconds()),
        }
    });
    (*point).clone()
}

/// The memoizable (BER-free) part of a [`VoltagePoint`].
#[derive(Debug, Clone, PartialEq)]
struct SolverPoint {
    write_margin_v: f64,
    writable: bool,
    hold_snm_v: f64,
    read_snm_v: f64,
    write_time_s: Option<f64>,
    read_6t_s: Option<f64>,
    read_8t_s: Option<f64>,
}

fn voltage_point(
    rows: usize,
    vdd: f64,
    tables: &(CellCharacterization, CellCharacterization),
) -> VoltagePoint {
    let s = solver_point(rows, vdd);
    let v = Volt::new(vdd);
    let (t6, t8) = tables;
    VoltagePoint {
        vdd,
        write_margin_v: s.write_margin_v,
        writable: s.writable,
        hold_snm_v: s.hold_snm_v,
        read_snm_v: s.read_snm_v,
        write_time_s: s.write_time_s,
        read_6t_s: s.read_6t_s,
        read_8t_s: s.read_8t_s,
        read_ber_6t: t6.read_bit_error_at(v),
        write_ber_6t: t6.write_bit_error_at(v),
        read_ber_8t: t8.read_bit_error_at(v),
        write_ber_8t: t8.write_bit_error_at(v),
    }
}

/// Characterizes a spec at its active and drowsy voltages.
pub fn characterize(spec: &SramSpec, cfg: &CharacterizeConfig) -> GenCharacterization {
    let tables = mc_tables(spec, cfg);
    GenCharacterization {
        active: voltage_point(spec.dims.rows, spec.supply.vdd, &tables),
        drowsy: voltage_point(spec.dims.rows, spec.supply.drowsy, &tables),
    }
}

/// Bit-error rates at the spec's *active* voltage — the failure model the
/// inference smoke (and one-line tenant specs) inject with.
pub fn serving_rates(spec: &SramSpec, cfg: &CharacterizeConfig) -> BitErrorRates {
    let (t6, t8) = mc_tables(spec, cfg);
    let v = Volt::new(spec.supply.vdd);
    BitErrorRates {
        read_6t: t6.read_bit_error_at(v),
        write_6t: t6.write_bit_error_at(v),
        read_8t: t8.read_bit_error_at(v),
        write_8t: t8.write_bit_error_at(v),
    }
}

impl VoltagePoint {
    /// Folds every observable of this point into an FNV digest state.
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        use sram_exec::fnv1a_u64;
        h = fnv1a_u64(h, self.vdd.to_bits());
        h = fnv1a_u64(h, self.write_margin_v.to_bits());
        h = fnv1a_u64(h, self.writable as u64);
        h = fnv1a_u64(h, self.hold_snm_v.to_bits());
        h = fnv1a_u64(h, self.read_snm_v.to_bits());
        for t in [self.write_time_s, self.read_6t_s, self.read_8t_s] {
            h = fnv1a_u64(h, t.map_or(u64::MAX, f64::to_bits));
        }
        for p in [
            self.read_ber_6t,
            self.write_ber_6t,
            self.read_ber_8t,
            self.write_ber_8t,
        ] {
            h = fnv1a_u64(h, p.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SramSpec;

    fn quick() -> CharacterizeConfig {
        CharacterizeConfig { mc_samples: 40 }
    }

    #[test]
    fn column_env_matches_rows_256_precedent() {
        assert_eq!(column_env(256), ColumnEnvironment::rows_256());
        assert!(column_env(64).c_bitline.farads() < column_env(256).c_bitline.farads());
    }

    #[test]
    fn characterization_is_memoized_and_deterministic() {
        let spec = SramSpec::sample(3);
        let a = characterize(&spec, &quick());
        let b = characterize(&spec, &quick());
        assert_eq!(a, b);
        assert!(a.active.vdd >= a.drowsy.vdd);
        assert!(a.active.hold_snm_v > 0.0);
    }

    #[test]
    fn drowsy_point_is_weaker_than_active() {
        let spec = SramSpec::from_toml_str(
            "[array]\nrows = 256\ncols = 256\n[banks]\nwords = [100]\n\
             [supply]\nvdd = 0.9\ndrowsy = 0.5\n",
        )
        .expect("valid");
        let c = characterize(&spec, &quick());
        assert!(c.drowsy.hold_snm_v < c.active.hold_snm_v);
        assert!(c.drowsy.read_ber_6t >= c.active.read_ber_6t);
    }
}
