//! The complete generated-macro report: organization, netlists,
//! characterization, area/power rollups, and a fault-injected smoke run.
//!
//! [`GenReport::build`] is the one-call front door the sweep binary and
//! the tests use: spec in, every observable out, with a single [`digest`]
//! over all of it. Workload specs (`banks.layers`) smoke through a full
//! [`NeuromorphicSystem`] — the generated map backs a sharded store with
//! characterization-derived fault rates, and a deterministic request batch
//! is classified. Explicit-word specs smoke through the store's bulk read
//! path instead.
//!
//! [`digest`]: GenReport::digest

use crate::characterize::{characterize, serving_rates, CharacterizeConfig, GenCharacterization};
use crate::error::GenError;
use crate::netlist::{emit, GeneratedNetlists};
use crate::organize::GeneratedOrganization;
use crate::spec::SramSpec;
use fault_inject::model::{BitErrorRates, WordFailureModel};
use neuro_system::controller::NeuromorphicSystem;
use neuro_system::npe::Npe;
use sram_array::area::{area_overhead_vs_all_6t, memory_area};
use sram_array::periphery::PeripheryModel;
use sram_array::power::{memory_power, memory_power_with_periphery, PowerConvention};
use sram_array::sharded::ShardedMemory;
use sram_device::units::Volt;
use sram_ecc::hamming::SecdedCode;
use sram_ecc::overhead::EccOverheadModel;
use sram_exec::{fnv1a, fnv1a_u64, FNV_OFFSET};

/// Word read rate the power rollup assumes (iso-throughput convention).
pub const WORD_READ_RATE_HZ: f64 = 1.0e6;

/// Knobs for [`GenReport::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenReportOptions {
    /// Monte Carlo depth of the characterization tables.
    pub mc_samples: usize,
    /// Requests the inference smoke classifies.
    pub smoke_requests: usize,
    /// Shards of the smoke store.
    pub shards: usize,
    /// Base seed of the smoke fault streams.
    pub base_seed: u64,
}

impl Default for GenReportOptions {
    fn default() -> Self {
        Self {
            mc_samples: 160,
            smoke_requests: 32,
            shards: 2,
            base_seed: 0x0D51_C0DE,
        }
    }
}

/// Area rollup of the generated macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaSummary {
    /// Total cell area, square micrometers.
    pub total_um2: f64,
    /// Area overhead of the hybrid mix vs an all-6T macro of equal capacity.
    pub overhead_vs_6t: f64,
    /// Sub-arrays across all banks.
    pub subarrays: usize,
    /// Sense amplifiers per sub-array (`cols / mux`).
    pub sense_amps_per_subarray: usize,
    /// Extra ECC cells per word (0 when ECC is off).
    pub ecc_extra_bits: u32,
    /// ECC storage overhead fraction (0 when ECC is off).
    pub ecc_storage_overhead: f64,
}

/// Power/energy rollup at the spec's voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSummary {
    /// Cell access power at the active voltage, watts.
    pub active_access_w: f64,
    /// Cell leakage at the active voltage, watts.
    pub active_leakage_w: f64,
    /// Access + periphery power at the active voltage, watts.
    pub active_with_periphery_w: f64,
    /// Energy to read every word once at the active voltage, joules.
    pub sweep_energy_j: f64,
    /// Cell leakage at the drowsy retention voltage, watts.
    pub drowsy_leakage_w: f64,
    /// ECC codec energy per word read, joules (0 when ECC is off).
    pub ecc_read_j: f64,
    /// ECC codec energy per word write, joules (0 when ECC is off).
    pub ecc_write_j: f64,
}

/// Result of the fault-injected smoke.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmokeSummary {
    /// Requests (or bulk reads) the smoke ran.
    pub requests: usize,
    /// Total fault bits observed across the smoke.
    pub fault_bits: u64,
    /// FNV digest of every smoke observable.
    pub digest: u64,
}

/// Everything the generator emits for one spec.
#[derive(Debug, Clone)]
pub struct GenReport {
    /// The built organization (spec, map, optional workload network).
    pub organization: GeneratedOrganization,
    /// Margins, timing, and failure rates at the spec voltages.
    pub characterization: GenCharacterization,
    /// The emitted SPICE decks.
    pub netlists: GeneratedNetlists,
    /// Area rollup.
    pub area: AreaSummary,
    /// Power rollup.
    pub power: PowerSummary,
    /// Fault-injected smoke result.
    pub smoke: SmokeSummary,
    /// The serving-voltage bit-error rates the smoke injected.
    pub rates: BitErrorRates,
}

impl GenReport {
    /// Builds the complete report for a validated spec.
    ///
    /// # Errors
    ///
    /// Propagates organization and netlist errors; characterization and
    /// the smoke are total once the organization exists.
    pub fn build(spec: &SramSpec, opts: &GenReportOptions) -> Result<Self, GenError> {
        let organization = GeneratedOrganization::build(spec)?;
        let cfg = CharacterizeConfig {
            mc_samples: opts.mc_samples,
        };
        let characterization = characterize(spec, &cfg);
        let netlists = emit(spec)?;
        let rates = serving_rates(spec, &cfg);

        let (t6, t8) = crate::characterize::mc_tables(spec, &cfg);
        let vdd = Volt::new(spec.supply.vdd);
        let drowsy = Volt::new(spec.supply.drowsy);
        let map = &organization.map;

        let active = memory_power(
            map,
            &t6,
            &t8,
            vdd,
            WORD_READ_RATE_HZ,
            PowerConvention::IsoThroughput,
        );
        let periphery = PeripheryModel::cacti_lite(spec.dims);
        let active_periph = memory_power_with_periphery(
            map,
            &t6,
            &t8,
            &periphery,
            vdd,
            WORD_READ_RATE_HZ,
            PowerConvention::IsoThroughput,
        );
        let drowsy_report =
            memory_power(map, &t6, &t8, drowsy, 0.0, PowerConvention::IsoThroughput);

        let (ecc_extra_bits, ecc_storage_overhead, ecc_read_j, ecc_write_j) = if spec.ecc {
            let code = SecdedCode::for_weights().map_err(|e| GenError::Geometry {
                message: format!("ECC model: {e}"),
            })?;
            let model = EccOverheadModel::new(code);
            (
                model.extra_cells_per_word(),
                model.storage_overhead(),
                model.codec_read_energy(vdd).joules(),
                model.codec_write_energy(vdd).joules(),
            )
        } else {
            (0, 0.0, 0.0, 0.0)
        };

        let area = AreaSummary {
            total_um2: memory_area(map).square_meters() * 1e12,
            overhead_vs_6t: area_overhead_vs_all_6t(map),
            subarrays: organization.subarrays(),
            sense_amps_per_subarray: organization.sense_amps_per_subarray(),
            ecc_extra_bits,
            ecc_storage_overhead,
        };
        let power = PowerSummary {
            active_access_w: active.access_power.watts(),
            active_leakage_w: active.leakage_power.watts(),
            active_with_periphery_w: active_periph.total().watts(),
            sweep_energy_j: active.sweep_energy.joules(),
            drowsy_leakage_w: drowsy_report.leakage_power.watts(),
            ecc_read_j,
            ecc_write_j,
        };
        let smoke = run_smoke(&organization, &rates, opts);

        Ok(Self {
            organization,
            characterization,
            netlists,
            area,
            power,
            smoke,
            rates,
        })
    }

    /// One digest over every observable: layout, characterization, area,
    /// power, netlist text, and the smoke. Stable across worker counts and
    /// repeated runs; the design-space gate compares it between sweeps.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a_u64(h, self.organization.layout_digest());
        h = self.characterization.active.fold_digest(h);
        h = self.characterization.drowsy.fold_digest(h);
        for x in [
            self.area.total_um2,
            self.area.overhead_vs_6t,
            self.power.active_access_w,
            self.power.active_leakage_w,
            self.power.active_with_periphery_w,
            self.power.sweep_energy_j,
            self.power.drowsy_leakage_w,
            self.power.ecc_read_j,
            self.power.ecc_write_j,
        ] {
            h = fnv1a_u64(h, x.to_bits());
        }
        h = fnv1a_u64(h, self.area.subarrays as u64);
        h = fnv1a_u64(h, self.area.sense_amps_per_subarray as u64);
        h = fnv1a_u64(h, self.area.ecc_extra_bits as u64);
        h = fnv1a(h, self.netlists.six_t.as_bytes());
        h = fnv1a(h, self.netlists.eight_t.as_bytes());
        h = fnv1a_u64(h, self.smoke.digest);
        h
    }

    /// `key=value` lines for the sweep report, all keys under `prefix`.
    pub fn kv_lines(&self, prefix: &str) -> Vec<String> {
        let spec = &self.organization.spec;
        vec![
            format!("{prefix}_ok=true"),
            format!("{prefix}_words={}", self.organization.map.total_words()),
            format!("{prefix}_banks={}", self.organization.map.banks().len()),
            format!("{prefix}_vdd={}", spec.supply.vdd),
            format!(
                "{prefix}_layout_digest={:#018x}",
                self.organization.layout_digest()
            ),
            format!("{prefix}_report_digest={:#018x}", self.digest()),
            format!("{prefix}_smoke_digest={:#018x}", self.smoke.digest),
            format!("{prefix}_smoke_fault_bits={}", self.smoke.fault_bits),
            format!("{prefix}_area_um2={:.3}", self.area.total_um2),
            format!("{prefix}_area_overhead={:.6}", self.area.overhead_vs_6t),
            format!("{prefix}_leakage_w={:.6e}", self.power.active_leakage_w),
            format!(
                "{prefix}_drowsy_leakage_w={:.6e}",
                self.power.drowsy_leakage_w
            ),
            format!(
                "{prefix}_read_ber_6t={:.6e}",
                self.characterization.active.read_ber_6t
            ),
        ]
    }
}

/// Deterministic pseudo-features for smoke request `r`.
fn smoke_features(width: usize, r: usize) -> Vec<f32> {
    (0..width)
        .map(|j| ((r * 31 + j * 7) % 97) as f32 / 97.0)
        .collect()
}

/// Runs the fault-injected smoke over the generated organization.
fn run_smoke(
    org: &GeneratedOrganization,
    rates: &BitErrorRates,
    opts: &GenReportOptions,
) -> SmokeSummary {
    let models: Vec<WordFailureModel> = org
        .map
        .banks()
        .iter()
        .map(|b| WordFailureModel::new(rates, &b.assignment))
        .collect();
    let store = ShardedMemory::new(org.map.clone(), models, opts.base_seed, opts.shards);
    let mut h = FNV_OFFSET;
    match &org.network {
        Some(network) => {
            let system = NeuromorphicSystem::new(network, store, Npe::new(network.format));
            let width = system.input_width();
            let mut faults = 0u64;
            for r in 0..opts.smoke_requests {
                let features = smoke_features(width, r);
                let mut ctx = system.make_context(opts.base_seed, r as u64);
                let prediction = system.classify_request(&features, &mut ctx);
                faults += ctx.fault_bits();
                h = fnv1a_u64(h, r as u64);
                h = fnv1a_u64(h, prediction as u64);
                h = fnv1a_u64(h, ctx.fault_bits());
            }
            SmokeSummary {
                requests: opts.smoke_requests,
                fault_bits: faults,
                digest: h,
            }
        }
        None => {
            // Raw storage macro: load a deterministic image through the
            // faulty write path and digest a faulty bulk read.
            let mut store = store;
            let image: Vec<u8> = (0..store.map().total_words())
                .map(|i| ((i * 37 + 11) % 251) as u8)
                .collect();
            store.load(&image);
            let (bytes, faults) = store.read_bulk(opts.base_seed);
            h = fnv1a(h, &bytes);
            h = fnv1a_u64(h, faults);
            SmokeSummary {
                requests: 1,
                fault_bits: faults,
                digest: h,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SramSpec;

    fn quick_opts() -> GenReportOptions {
        GenReportOptions {
            mc_samples: 40,
            smoke_requests: 8,
            ..GenReportOptions::default()
        }
    }

    #[test]
    fn workload_spec_report_is_deterministic() {
        let spec = SramSpec::sample(11);
        let a = GenReport::build(&spec, &quick_opts()).expect("builds");
        let b = GenReport::build(&spec, &quick_opts()).expect("builds");
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.smoke.digest, b.smoke.digest);
        assert!(a.area.total_um2 > 0.0);
        assert!(a.power.active_leakage_w > 0.0);
        assert!(a.power.drowsy_leakage_w < a.power.active_leakage_w);
    }

    #[test]
    fn explicit_words_spec_smokes_through_bulk_read() {
        let spec = SramSpec::from_toml_str(
            "name = \"raw\"\n[array]\nrows = 128\ncols = 128\nmux = 4\n\
             [banks]\nwords = [3000, 500]\n[mix]\npolicy = \"per-bank\"\nmsb_8t = [4, 1]\n\
             [supply]\nvdd = 0.65\ndrowsy = 0.4\n[ecc]\nenabled = true\n",
        )
        .expect("valid");
        let report = GenReport::build(&spec, &quick_opts()).expect("builds");
        assert_eq!(report.smoke.requests, 1);
        assert!(report.area.ecc_extra_bits > 0);
        assert!(report.power.ecc_read_j > 0.0);
        // kv lines carry the digest keys the sweep gate parses.
        let lines = report.kv_lines("spec_raw");
        assert!(lines
            .iter()
            .any(|l| l.starts_with("spec_raw_report_digest=0x")));
    }
}
