//! The multi-tenant model registry: many resident ANNs over one shared
//! synaptic store.
//!
//! Each tenant brings its own network, its own significance policy (which
//! bits of each word are 8T cells), and its own voltage-derived bit-error
//! rates — the per-tenant retention/energy contract of the paper's
//! significance-driven allocation, extended across tenants. The registry
//! lays the tenants' per-layer banks back to back in one
//! [`SynapticMemoryMap`] (via [`SynapticMemoryMap::concat`]), loads the
//! concatenated weight image through the faulty write path once, then
//! shares the [`ShardedMemory`] behind an [`Arc`] with one resident
//! [`NeuromorphicSystem`] per tenant.
//!
//! # Determinism
//!
//! Tenant `t`'s fault stream is rooted at `derive_seed(base_seed, t)`;
//! request `id` of that tenant draws `derive_seed(tenant_seed, id)` via
//! [`InferContext`]. Predictions and per-request fault bits are therefore
//! a pure function of `(base_seed, tenant, request_id)` — independent of
//! worker count, connection interleaving, and the other tenants' traffic.

use fault_inject::model::{BitErrorRates, WordFailureModel};
use fault_inject::protection::ProtectionPolicy;
use neural::quant::QuantizedMlp;
use neuro_system::controller::{InferContext, NeuromorphicSystem};
use neuro_system::layout;
use neuro_system::npe::Npe;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;
use sram_exec::derive_seed;
use sram_gen::error::GenError;
use std::sync::Arc;

/// Everything one tenant contributes to the shared store.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (reports, CI tables).
    pub name: String,
    /// The tenant's quantized network.
    pub network: QuantizedMlp,
    /// Per-layer 8T/6T significance policy for this tenant's banks.
    pub policy: ProtectionPolicy,
    /// Bit-error rates at the tenant's serving voltage.
    pub rates: BitErrorRates,
    /// Serving supply voltage (reporting only; the physics is already
    /// folded into `rates`).
    pub vdd: f64,
    /// Modeled energy per served inference, joules.
    pub energy_per_inference_j: f64,
    /// Standby-leakage scale of the tenant's drowsy retention tier
    /// (`1.0` = never drowsy, lower = deeper retention savings while
    /// degraded).
    pub drowsy_scale: f64,
}

impl TenantSpec {
    /// Builds a tenant's full serving contract from a generated macro
    /// spec: the significance policy, the characterized bit-error rates
    /// at the spec's serving voltage, the behavioral energy model, and a
    /// drowsy-leakage scale from the voltage-square law — everything the
    /// hand-wired tenants used to set by eye becomes one committed TOML
    /// file plus a trained network.
    ///
    /// `network` is the tenant's (typically trained) model; the spec only
    /// describes the macro it lives in, so the two must agree on per-bank
    /// word counts.
    ///
    /// # Errors
    ///
    /// Returns a [`GenError`] when the spec fails validation, its
    /// sub-array is not the paper's 256x256 geometry (the registry lays
    /// all tenants out on [`SubArrayDims::PAPER`]), or its bank layout
    /// does not match `network`.
    pub fn from_generated(
        spec: &sram_gen::spec::SramSpec,
        network: QuantizedMlp,
        cfg: &sram_gen::characterize::CharacterizeConfig,
    ) -> Result<Self, GenError> {
        spec.validate()?;
        if spec.dims != SubArrayDims::PAPER {
            return Err(GenError::Geometry {
                message: format!(
                    "registry tenants share {}x{} sub-arrays, spec asks for {}x{}",
                    SubArrayDims::PAPER.rows,
                    SubArrayDims::PAPER.cols,
                    spec.dims.rows,
                    spec.dims.cols
                ),
            });
        }
        let expected = spec.bank_words()?;
        let actual = layout::bank_words(&network);
        if expected != actual {
            return Err(GenError::Geometry {
                message: format!(
                    "spec banks {expected:?} do not match the tenant network's {actual:?}"
                ),
            });
        }
        let rates = sram_gen::characterize::serving_rates(spec, cfg);
        let vdd = spec.supply.vdd;
        let energy = behavioral_energy_j(&network, vdd);
        Ok(TenantSpec {
            name: spec.name.clone(),
            policy: spec.policy(),
            rates,
            vdd,
            energy_per_inference_j: energy,
            // Voltage-square law for the retention tier's standby leakage.
            drowsy_scale: (spec.supply.drowsy / vdd) * (spec.supply.drowsy / vdd),
            network,
        })
    }
}

/// Behavioral per-inference energy: 50 fJ/MAC + 150 fJ/read, scaled by
/// (vdd / 0.9)² — the dynamic-energy voltage square law, normalized to
/// the paper's nominal 0.9 V supply.
pub fn behavioral_energy_j(network: &QuantizedMlp, vdd: f64) -> f64 {
    let macs: usize = network.layers.iter().map(|l| l.inputs * l.outputs).sum();
    let reads: usize = network
        .layers
        .iter()
        .map(|l| l.inputs * l.outputs + l.outputs)
        .sum();
    let scale = (vdd / 0.9) * (vdd / 0.9);
    (macs as f64 * 50e-15 + reads as f64 * 150e-15) * scale
}

/// One resident tenant.
#[derive(Debug)]
struct Tenant {
    spec: TenantSpec,
    system: NeuromorphicSystem,
    seed: u64,
}

/// Many resident ANNs sharing one sharded synaptic store and the exec
/// pool.
#[derive(Debug)]
pub struct ModelRegistry {
    store: Arc<ShardedMemory>,
    tenants: Vec<Tenant>,
}

impl ModelRegistry {
    /// Builds the shared store and makes every tenant resident.
    ///
    /// Bank layout: tenant 0's layers first, then tenant 1's, and so on;
    /// each bank keeps its tenant's cell assignment and failure model.
    /// The concatenated weight image is loaded through the faulty write
    /// path exactly once, before the store is shared.
    ///
    /// # Panics
    ///
    /// Panics on zero tenants, zero shards, or a per-tenant policy that
    /// does not match its network's layer count.
    pub fn new(specs: Vec<TenantSpec>, base_seed: u64, shards: usize) -> Self {
        assert!(!specs.is_empty(), "registry needs at least one tenant");
        let mut maps = Vec::with_capacity(specs.len());
        let mut models: Vec<WordFailureModel> = Vec::new();
        let mut image: Vec<u8> = Vec::new();
        let mut first_banks = Vec::with_capacity(specs.len());
        let mut next_bank = 0usize;
        for spec in &specs {
            let words = layout::bank_words(&spec.network);
            maps.push(SynapticMemoryMap::new(
                &words,
                &spec.policy,
                SubArrayDims::PAPER,
            ));
            models.extend(
                (0..words.len())
                    .map(|b| WordFailureModel::new(&spec.rates, &spec.policy.assignment(b))),
            );
            image.extend(layout::flatten(&spec.network));
            first_banks.push(next_bank);
            next_bank += words.len();
        }
        let map = SynapticMemoryMap::concat(maps);
        let mut store = ShardedMemory::new(map, models, base_seed, shards);
        store.load(&image);
        let store = Arc::new(store);
        let tenants = specs
            .into_iter()
            .zip(first_banks)
            .enumerate()
            .map(|(t, (spec, first_bank))| {
                let system = NeuromorphicSystem::new_resident(
                    &spec.network,
                    Arc::clone(&store),
                    first_bank,
                    Npe::new(spec.network.format),
                );
                Tenant {
                    spec,
                    system,
                    seed: derive_seed(base_seed, t as u64),
                }
            })
            .collect();
        Self { store, tenants }
    }

    /// Resident tenant count.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the registry is empty (it never is — `new` panics on zero
    /// tenants — but clippy insists `len` has a partner).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The shared store.
    pub fn store(&self) -> &ShardedMemory {
        &self.store
    }

    /// The tenant's spec (name, policy, rates, energy model).
    pub fn spec(&self, tenant: usize) -> &TenantSpec {
        &self.tenants[tenant].spec
    }

    /// Feature width tenant `tenant` expects; admission validates against
    /// this so a malformed width is a protocol error, not a worker panic.
    pub fn input_width(&self, tenant: usize) -> usize {
        self.tenants[tenant].system.input_width()
    }

    /// Weight + bias words one inference of this tenant reads.
    pub fn reads_per_inference(&self, tenant: usize) -> u64 {
        self.tenants[tenant].system.reads_per_inference() as u64
    }

    /// Every resident tenant as a `(system, seed)` pair, registry order —
    /// the tenant list the serving scheduler runs over.
    pub fn systems(&self) -> Vec<(&NeuromorphicSystem, u64)> {
        self.tenants.iter().map(|t| (&t.system, t.seed)).collect()
    }

    /// A warm, pre-sized context for the tenant's network.
    pub fn make_context(&self, tenant: usize) -> InferContext {
        let t = &self.tenants[tenant];
        t.system.make_context(t.seed, 0)
    }

    /// Classifies `features` as request `request_id` of tenant `tenant`;
    /// returns `(prediction, fault_bits)`. The context is re-armed on the
    /// tenant's seed stream, so any context (even one last used by a
    /// different request or worker) produces bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match the tenant's input width —
    /// callers (the server's admission layer) validate first.
    pub fn classify(
        &self,
        tenant: usize,
        features: &[f32],
        request_id: u64,
        ctx: &mut InferContext,
    ) -> (usize, u64) {
        let t = &self.tenants[tenant];
        ctx.reset(t.seed, request_id);
        let prediction = t.system.classify_request(features, ctx);
        (prediction, ctx.fault_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::network::Mlp;
    use neural::quant::Encoding;

    fn tiny_spec(name: &str, shape: &[usize], seed: u64, read_6t: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            network: QuantizedMlp::from_mlp(&Mlp::new(shape, seed), Encoding::TwosComplement),
            policy: ProtectionPolicy::MsbProtected { msb_8t: 3 },
            rates: BitErrorRates {
                read_6t,
                write_6t: 0.0,
                read_8t: 0.0,
                write_8t: 0.0,
            },
            vdd: 0.7,
            energy_per_inference_j: 1e-9,
            drowsy_scale: 0.4,
        }
    }

    #[test]
    fn tenants_are_isolated_and_deterministic() {
        let specs = vec![
            tiny_spec("a", &[10, 8, 4], 1, 0.05),
            tiny_spec("b", &[6, 5, 3], 2, 0.2),
        ];
        let reg = ModelRegistry::new(specs.clone(), 99, 3);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.input_width(0), 10);
        assert_eq!(reg.input_width(1), 6);
        let feats_a: Vec<f32> = (0..10).map(|i| i as f32 / 10.0).collect();
        let feats_b: Vec<f32> = (0..6).map(|i| i as f32 / 6.0).collect();
        let mut ctx = reg.make_context(0);
        let first_a = reg.classify(0, &feats_a, 7, &mut ctx);
        let first_b = reg.classify(1, &feats_b, 7, &mut ctx);
        // Replays are exact, even through a context that served the other
        // tenant in between; and a second identically-built registry
        // replays the whole thing.
        assert_eq!(reg.classify(0, &feats_a, 7, &mut ctx), first_a);
        let reg2 = ModelRegistry::new(specs, 99, 5);
        let mut ctx2 = reg2.make_context(1);
        assert_eq!(reg2.classify(1, &feats_b, 7, &mut ctx2), first_b);
        assert_eq!(reg2.classify(0, &feats_a, 7, &mut ctx2), first_a);
    }

    #[test]
    fn from_generated_derives_the_contract_from_the_spec() {
        let toml = "name = \"gen-tenant\"\n[array]\nrows = 256\ncols = 256\nmux = 8\n\
                    [banks]\nlayers = [8, 4, 2]\nseed = 1\n\
                    [mix]\npolicy = \"msb\"\nsplit = 0.375\n\
                    [supply]\nvdd = 0.7\ndrowsy = 0.35\n";
        let spec = sram_gen::spec::SramSpec::from_toml_str(toml).expect("parses");
        let network = QuantizedMlp::from_mlp(&Mlp::new(&[8, 4, 2], 1), Encoding::TwosComplement);
        let cfg = sram_gen::characterize::CharacterizeConfig { mc_samples: 16 };
        let tenant =
            TenantSpec::from_generated(&spec, network.clone(), &cfg).expect("spec matches net");
        assert_eq!(tenant.name, "gen-tenant");
        assert_eq!(tenant.policy, ProtectionPolicy::MsbProtected { msb_8t: 3 });
        assert_eq!(tenant.vdd, 0.7);
        assert!((tenant.drowsy_scale - 0.25).abs() < 1e-12);
        assert_eq!(
            tenant.energy_per_inference_j,
            behavioral_energy_j(&network, 0.7)
        );
        // 8T cells at the serving voltage must be at least as reliable as
        // the 6T majority — the premise of the significance split.
        assert!(tenant.rates.read_8t <= tenant.rates.read_6t);
        // A registry accepts the generated tenant as-is.
        let reg = ModelRegistry::new(vec![tenant], 7, 2);
        assert_eq!(reg.input_width(0), 8);

        // Mismatched network: typed geometry error, not a later panic.
        let other = QuantizedMlp::from_mlp(&Mlp::new(&[9, 4, 2], 1), Encoding::TwosComplement);
        assert!(matches!(
            TenantSpec::from_generated(&spec, other, &cfg),
            Err(GenError::Geometry { .. })
        ));

        // Non-paper sub-array: rejected (the registry lays out PAPER dims).
        let mut small = spec.clone();
        small.dims = SubArrayDims { rows: 64, cols: 64 };
        assert!(matches!(
            TenantSpec::from_generated(&small, network, &cfg),
            Err(GenError::Geometry { .. })
        ));
    }

    #[test]
    fn store_concatenates_all_tenants() {
        let reg = ModelRegistry::new(
            vec![
                tiny_spec("a", &[10, 8, 4], 1, 0.0),
                tiny_spec("b", &[6, 5, 3], 2, 0.0),
            ],
            1,
            2,
        );
        let words_a: usize = 10 * 8 + 8 + 8 * 4 + 4;
        let words_b: usize = 6 * 5 + 5 + 5 * 3 + 3;
        assert_eq!(reg.store().map().total_words(), words_a + words_b);
        assert_eq!(reg.store().map().banks().len(), 4);
    }
}
