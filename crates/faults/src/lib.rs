//! # fault-inject
//!
//! Bit-level fault models and protection policies for approximate synaptic
//! storage (paper §V): per-bit failure [`model`]s derived from circuit-level
//! characterization, the three memory-configuration [`protection`] policies
//! of paper Fig. 3, and deterministic geometric-sampling [`injector`]s that
//! corrupt word arrays the way a voltage-scaled SRAM would.
//!
//! The crate is representation-agnostic: it manipulates raw `u8` words.
//! Mapping network layers onto words (and banks onto ANN layers) happens in
//! the system-level crates.
//!
//! # Examples
//!
//! ```
//! use fault_inject::prelude::*;
//!
//! let rates = BitErrorRates { read_6t: 0.02, write_6t: 0.005, read_8t: 0.0, write_8t: 0.0 };
//! let model = WordFailureModel::new(&rates, &CellAssignment::msb_protected(3));
//! let mut words = vec![0u8; 10_000];
//! let stats = corrupt_words(&mut words, &model, 42);
//! assert!(stats.total() > 0);
//! assert_eq!(stats.flips_per_bit[7], 0, "MSB is protected");
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod injector;
pub mod model;
pub mod protection;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::chaos::{ChaosEvent, ChaosSchedule, ScheduledEvent};
    pub use crate::injector::{
        corrupt_words, geometric_indices, FlipKind, InjectionStats, ReadMaskSampler,
    };
    pub use crate::model::{BitErrorRates, WordFailureModel, WORD_BITS};
    pub use crate::protection::{CellAssignment, ProtectionPolicy};
}
