//! The full-system TRRIP simulator: wiring the compiler, OS, core and
//! cache substrates into runnable experiments.
//!
//! * [`config`] — [`SimConfig`]: the Table 1 machine plus run lengths,
//!   page/overlap policy, layout selection and measurement hooks.
//! * [`prepare`] — [`PreparedWorkload`]: program synthesis, the
//!   instrumentation-PGO training run, Eq. 1–2 classification and both
//!   (non-PGO / PGO) linked objects, shared across policy sweeps.
//! * [`backend`] — [`SystemBackend`]: implements the core's memory
//!   interface over the MMU (temperature attribution) and the cache
//!   hierarchy, adds next-line + stride prefetching and prefetch
//!   timeliness, and feeds the reuse/costly-miss profilers.
//! * [`system`] — [`simulate`] / [`simulate_source`]: fast-forward,
//!   measure, collect — over the in-memory walker or any
//!   [`trrip_trace::TraceSource`].
//! * [`capture`] — [`capture_trace`] and the [`TraceStore`]: record the
//!   walker's output to the `trrip-trace` binary format once, replay it
//!   from disk for every subsequent run.
//! * [`checkpoint`] — versioned, checksummed on-disk snapshots of a
//!   warmed [`SimRun`], keyed by workload fingerprint + machine hash;
//!   repeated sweeps restore instead of re-running fast-forward.
//!   Container v3 splits a fast-forward state into a policy-agnostic
//!   **shared prefix** (predictor + warmup tape, one per workload) and
//!   per-policy **overlays**, so a populating sweep records one warmup
//!   per workload and fans it out across every policy.
//! * [`sweep`] — the one sweep executor: a [`Sweep`] plan (workloads,
//!   config, policies, optional trace and checkpoint stores, shard
//!   count) and [`run_sweep`], which picks the walker, decode-once
//!   fan-out or segment-DAG route from what the plan has attached.
//! * [`experiment`] — the named sweep entry points over [`run_sweep`]
//!   ([`policy_sweep`], [`replay_sweep`], [`replay_sweep_warm_prefix`]),
//!   the decode-per-job replay oracle, the warm-start ladder every
//!   replay route shares, and speedup computation.
//! * [`warmstats`] — process-wide counters of how cells reached their
//!   warmed state (full restore / overlay compose / warmup-tail replay
//!   / recorded or cold warmup), the observable behind fallback tests.
//! * [`shard`] — chunk-range sharding of a single run:
//!   [`ShardPlan`] cuts the measure window into chunk-aligned segments,
//!   segment *k* simulates from chained checkpoint *k−1*, fragments
//!   merge bit-identically ([`SimResult::merge`]), and one segment-task
//!   loop runs the DAG over a claim backend.
//! * [`coordinate`] — the same segment-task loop across processes:
//!   [`coordinate_worker`] arbitrates tasks through `O_EXCL` claim files
//!   with heartbeats and stale-claim reclamation, and
//!   [`collect_results`] folds the persisted result fragments.
//! * [`inflight`] — the fixed-size open-addressed prefetch-timeliness
//!   table behind the backend's allocation-free hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod capture;
pub mod checkpoint;
pub mod config;
pub mod coordinate;
pub mod experiment;
pub mod inflight;
pub mod prepare;
pub mod shard;
pub mod sweep;
pub mod system;
pub mod warmstats;

pub use backend::SystemBackend;
pub use capture::{capture_length, capture_trace, TraceStore};
pub use checkpoint::{
    read_checkpoint, warmup_config_hash, warmup_prefix_hash, write_checkpoint,
    write_checkpoint_kind, CheckpointError, CheckpointKind, CheckpointMeta, CheckpointStore,
    GcReport, SharedWarmup,
};
pub use config::SimConfig;
pub use coordinate::{collect_results, coordinate_worker, CoordError, WorkerOptions, WorkerReport};
pub use experiment::{
    default_jobs, parallel_map, parallel_map_with, policy_sweep, policy_sweep_with, replay_sweep,
    replay_sweep_isolated, replay_sweep_warm_prefix, speedup_vs, SweepResult,
};
pub use inflight::InflightTable;
pub use prepare::PreparedWorkload;
pub use shard::ShardPlan;
pub use sweep::{run_sweep, Sweep};
pub use system::{simulate, simulate_source, SimResult, SimRun};
pub use warmstats::{warmup_counters, WarmupCounters};
// The snapshot substrate, re-exported so callers can drive `SimRun`
// save/restore without depending on `trrip-snap` directly.
pub use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};
