//! # sram-exec — deterministic parallel execution engine
//!
//! Every fan-out-shaped hot path in the reproduction — Monte Carlo failure
//! analysis, per-voltage characterization sweeps, fault-injection trials,
//! greedy-optimizer candidate probes — consists of many **independent** unit
//! evaluations. This crate runs them on a scoped worker pool while keeping
//! one hard guarantee:
//!
//! > **Results are bit-identical regardless of worker count.**
//!
//! Two design rules deliver that guarantee, and every caller must follow
//! them:
//!
//! 1. **Per-task seed streams.** A task must never share a sequential RNG
//!    with its siblings: it derives its own seed as
//!    `derive_seed(base_seed, task_index)` (a SplitMix64-style avalanche
//!    mix), so the randomness a task sees depends only on `(base_seed,
//!    index)` — not on which worker ran it or in what order. See
//!    [`seed::derive_seed`].
//! 2. **Index-ordered collection.** [`par_map`] / [`par_map_indexed`] return
//!    results in input order no matter how tasks were scheduled, so any
//!    downstream reduction (floating-point sums included) folds in a fixed
//!    order.
//!
//! Worker count resolves as: explicit [`set_threads`] override →
//! `SRAM_REPRO_THREADS` environment variable → the machine's available
//! parallelism. Nested `par_map` calls run sequentially on the worker they
//! land on (no thread explosion, same results), so layers can parallelize
//! independently without coordinating: the outermost fan-out wins the
//! threads.
//!
//! The crate is std-only (no external dependencies): the pool is built on
//! `std::thread::scope`, which lets tasks borrow from the caller's stack
//! without `'static` bounds.
//!
//! [`MemoCache`] rounds out the engine: a concurrency-safe memo table used
//! to share one expensive characterization across every experiment instead
//! of recomputing it per consumer.

pub mod cache;
pub mod cli;
pub mod digest;
pub mod pool;
pub mod seed;

pub use cache::MemoCache;
pub use cli::strip_threads_flag;
pub use digest::{fnv1a, fnv1a_u64, FNV_OFFSET};
pub use pool::{
    clear_threads, effective_threads, par_map, par_map_indexed, resolve_workers, set_threads,
};
pub use seed::derive_seed;

/// Serializes tests that mutate the process-global worker-count override.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A poisoned gate (a should_panic test) is fine: every test re-sets the
    // override it cares about.
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}
