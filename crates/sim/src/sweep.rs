//! The sweep executor: one [`Sweep`] plan, one [`run_sweep`] call.
//!
//! Every sweep is a `workloads × policies` grid of cells, and the plan's
//! attachments alone pick how the cells run:
//!
//! * **no trace store** — walker cells ([`crate::simulate`]);
//! * **trace store, one segment** — the decode-once fan-out: one
//!   [`FanoutReplay`] per workload feeds one simulator thread per
//!   policy, each warm-started from the checkpoint store if attached;
//! * **trace store, more segments** — the segment-task DAG of
//!   [`crate::shard`] over the in-process claim backend.
//!
//! With a checkpoint store, the shared-warmup pre-pass runs first on
//! either replay route. An empty plan returns an empty [`SweepResult`]
//! on every route without capturing or warming anything.

use std::path::PathBuf;

use trrip_policies::PolicyKind;
use trrip_trace::{FanoutOptions, FanoutReplay, SourceIter};

use crate::capture::TraceStore;
use crate::checkpoint::CheckpointStore;
use crate::config::SimConfig;
use crate::experiment::{parallel_map_with, record_warmup, warm_start_ladder, SweepResult};
use crate::prepare::PreparedWorkload;
use crate::shard::{InProcessClaims, SegmentTasks, ShardPlan};
use crate::system::{simulate, simulate_source, SimResult, SimRun};

/// A sweep plan: which cells to run and which stores to run them
/// through. Built with [`Sweep::new`] (a walker sweep) and, for replay,
/// [`Sweep::replay`]; a checkpoint store can only be attached together
/// with the trace store it warm-starts replays of.
#[derive(Debug, Clone, Copy)]
pub struct Sweep<'a> {
    pub(crate) workloads: &'a [PreparedWorkload],
    pub(crate) config: &'a SimConfig,
    pub(crate) policies: &'a [PolicyKind],
    pub(crate) traces: Option<&'a TraceStore>,
    pub(crate) checkpoints: Option<&'a CheckpointStore>,
    pub(crate) shards: usize,
}

/// One `(workload, policy)` cell: the workload's index and the cell's
/// configuration (`config` with the cell's L2 policy).
pub(crate) type Cell = (usize, SimConfig);

impl<'a> Sweep<'a> {
    /// A walker sweep of every workload under every policy: no store,
    /// one segment per cell.
    #[must_use]
    pub fn new(
        workloads: &'a [PreparedWorkload],
        config: &'a SimConfig,
        policies: &'a [PolicyKind],
    ) -> Sweep<'a> {
        Sweep { workloads, config, policies, traces: None, checkpoints: None, shards: 1 }
    }

    /// Replays captured traces from `traces` (capturing the missing ones
    /// first) and, with `checkpoints`, warm-starts every cell from the
    /// checkpoint store.
    #[must_use]
    pub fn replay(
        self,
        traces: &'a TraceStore,
        checkpoints: Option<&'a CheckpointStore>,
    ) -> Sweep<'a> {
        Sweep { traces: Some(traces), checkpoints, ..self }
    }

    /// Cuts every cell into (at most) `shards` chunk-aligned segments
    /// chained through checkpoints ([`ShardPlan`]). Only replay plans
    /// can be segmented: [`run_sweep`] rejects a walker plan with more
    /// than one segment.
    #[must_use]
    pub fn shards(self, shards: usize) -> Sweep<'a> {
        Sweep { shards, ..self }
    }

    /// The cell list, workload-major — the order of
    /// [`SweepResult::results`].
    pub(crate) fn cells(&self) -> Vec<Cell> {
        (0..self.workloads.len())
            .flat_map(|w| {
                self.policies.iter().map(move |&p| (w, self.config.clone().with_policy(p)))
            })
            .collect()
    }

    /// How each cell's measure window is cut.
    pub(crate) fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.config, self.shards)
    }

    /// The capture phase: one trace per workload from `traces`, only
    /// the missing ones paying for a capture, at most `jobs` at once.
    ///
    /// # Panics
    ///
    /// Panics if a capture fails (disk full, unwritable store).
    pub(crate) fn capture(&self, jobs: usize, traces: &TraceStore) -> Vec<PathBuf> {
        parallel_map_with(jobs, self.workloads.len(), |i| {
            traces
                .ensure(&self.workloads[i], self.config)
                .unwrap_or_else(|e| panic!("capturing {}: {e}", self.workloads[i].spec.name))
        })
    }

    /// Wraps per-cell results (in [`Sweep::cells`] order) as the sweep's
    /// [`SweepResult`].
    pub(crate) fn result(&self, results: Vec<SimResult>) -> SweepResult {
        SweepResult {
            results,
            policies: self.policies.to_vec(),
            benchmarks: self.workloads.iter().map(|w| w.spec.name.clone()).collect(),
        }
    }

    /// The fragment fold: merges each cell's `segments` fragments (cells
    /// in [`Sweep::cells`] order, segments in chain order) through
    /// [`SimResult::merge`] — bit-identical to the unsegmented run.
    pub(crate) fn fold(
        &self,
        segments: usize,
        fragments: impl IntoIterator<Item = SimResult>,
    ) -> SweepResult {
        let mut fragments = fragments.into_iter();
        let mut results = Vec::with_capacity(self.workloads.len() * self.policies.len());
        while let Some(mut whole) = fragments.next() {
            for fragment in fragments.by_ref().take(segments - 1) {
                whole.merge(&fragment);
            }
            results.push(whole);
        }
        self.result(results)
    }
}

/// Runs `sweep` on at most `jobs` worker threads, by the route its
/// attachments pick (see the module docs). Results are bit-identical
/// across routes and independent of scheduling.
///
/// # Panics
///
/// Panics if a trace cannot be captured or replayed, or if a walker plan
/// asks for more than one segment.
#[must_use]
pub fn run_sweep(jobs: usize, sweep: &Sweep<'_>) -> SweepResult {
    let cells = sweep.cells();
    let plan = sweep.plan();
    let Some(traces) = sweep.traces else {
        assert!(
            plan.segments() == 1,
            "a segmented sweep replays captured traces: attach a trace store"
        );
        let results = parallel_map_with(jobs, cells.len(), |i| {
            simulate(&sweep.workloads[cells[i].0], &cells[i].1)
        });
        return sweep.result(results);
    };
    if cells.is_empty() {
        return sweep.result(Vec::new());
    }
    let paths = sweep.capture(jobs, traces);
    if let Some(checkpoints) = sweep.checkpoints {
        ensure_warm_prefixes(jobs, sweep, &paths, checkpoints);
    }
    if plan.segments() == 1 {
        return sweep.result(fanout(jobs, sweep, &cells, &paths));
    }
    let tasks = SegmentTasks { sweep, cells, plan, paths };
    let fragments = InProcessClaims::run(jobs, &tasks);
    sweep.fold(tasks.plan.segments(), fragments)
}

/// The **shared-warmup pre-pass**: for every workload whose shared
/// prefix is missing, runs one recorded fast-forward under the neutral
/// warmup policy ([`PolicyKind::neutral`]) and persists the prefix plus
/// the recorder's own overlay. After this pass, a populating sweep pays
/// **one** full warmup per workload plus a cheap predictor-free tail
/// replay per remaining policy — instead of `policies.len()` full
/// warmups — which is the entire point of the policy-agnostic split.
///
/// Idempotent and parallel over workloads (`jobs` caps the workers).
fn ensure_warm_prefixes(
    jobs: usize,
    sweep: &Sweep<'_>,
    paths: &[PathBuf],
    checkpoints: &CheckpointStore,
) {
    let _: Vec<()> = parallel_map_with(jobs, sweep.workloads.len(), |i| {
        let workload = &sweep.workloads[i];
        // The prefix key is policy-free, so probing with the base config
        // answers for every policy of the sweep.
        if matches!(checkpoints.load_prefix(workload, sweep.config), Ok(Some(_))) {
            return;
        }
        // Synchronous reader on purpose: the recorder consumes only the
        // warmup prefix, and the background decoder would read ahead
        // past it (bounded-channel depth) — wasted decode the sweep
        // repeats anyway.
        let reader = trrip_trace::open(&paths[i])
            .unwrap_or_else(|e| panic!("replaying {}: {e}", paths[i].display()));
        let mut stream = SourceIter::new(reader);
        let neutral = sweep.config.clone().with_policy(PolicyKind::neutral());
        record_warmup(&mut SimRun::new(workload, &neutral), &mut stream, checkpoints);
    });
}

/// The decode-once fan-out route: per workload, one [`FanoutReplay`]
/// decodes the capture once and broadcasts it to one simulator thread
/// per policy. The broadcast protocol needs every policy's consumer live
/// at once (a policy that waited would stall the bounded channels), so
/// the `jobs` budget is spent on concurrent workloads in waves of
/// `jobs / policies.len()`, the decode workers split across the wave.
/// Each cell warm-starts through the checkpoint store when one is
/// attached, and simulates its own fast-forward otherwise.
fn fanout(jobs: usize, sweep: &Sweep<'_>, cells: &[Cell], paths: &[PathBuf]) -> Vec<SimResult> {
    let policies = sweep.policies.len();
    let wave = (jobs / policies).max(1);
    let options = FanoutOptions {
        decode_workers: (jobs / wave).clamp(1, FanoutOptions::default().decode_workers.max(1)),
    };
    let per_workload: Vec<Vec<SimResult>> = parallel_map_with(wave, sweep.workloads.len(), |wi| {
        let (workload, path) = (&sweep.workloads[wi], &paths[wi]);
        let subscribers = FanoutReplay::with_options(path, policies, options)
            .unwrap_or_else(|e| panic!("replaying {}: {e}", path.display()));
        std::thread::scope(|scope| {
            let handles: Vec<_> = subscribers
                .into_iter()
                .zip(&cells[wi * policies..(wi + 1) * policies])
                .map(|(subscriber, (_, run_config))| {
                    scope.spawn(move || {
                        let bench = workload.spec.name.as_str();
                        let policy_name = run_config.hierarchy.l2_policy.name();
                        trrip_obs::event(
                            "cell_started",
                            &[
                                ("benchmark", trrip_obs::Field::Str(bench)),
                                ("policy", trrip_obs::Field::Str(policy_name)),
                            ],
                        );
                        let span = trrip_obs::span!("cell");
                        let result = match sweep.checkpoints {
                            None => simulate_source(workload, run_config, subscriber),
                            Some(checkpoints) => {
                                let (mut run, mut stream) = warm_start_ladder(
                                    workload,
                                    run_config,
                                    Some(checkpoints),
                                    |pos| {
                                        // The broadcast subscriber cannot
                                        // seek: draining decoded batches is
                                        // how this route "positions" the
                                        // stream (the decode is shared
                                        // across the workload's cells).
                                        let mut stream = SourceIter::new(subscriber);
                                        for _ in (&mut stream).take(pos as usize) {}
                                        stream
                                    },
                                );
                                run.measure(&mut stream)
                            }
                        };
                        drop(span);
                        trrip_obs::event(
                            "cell_finished",
                            &[
                                ("benchmark", trrip_obs::Field::Str(bench)),
                                ("policy", trrip_obs::Field::Str(policy_name)),
                                ("cycles", trrip_obs::Field::F64(result.core.cycles)),
                            ],
                        );
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    });
    per_workload.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_core::ClassifierConfig;
    use trrip_workloads::WorkloadSpec;

    fn tiny_workload() -> PreparedWorkload {
        let mut spec = WorkloadSpec::named("sweep-empty");
        spec.functions = 30;
        spec.hot_rotation = 6;
        PreparedWorkload::prepare(&spec, 50_000, ClassifierConfig::llvm_defaults())
    }

    /// A plan with no policies returns an empty result on every route —
    /// walker, fan-out, checkpointed fan-out and segment DAG — without
    /// capturing a trace or recording a warmup.
    #[test]
    fn empty_plans_return_empty_results_on_every_route() {
        let workloads = [tiny_workload()];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.fast_forward = 5_000;
        config.instructions = 20_000;
        let root = std::env::temp_dir().join(format!("trrip-sweep-empty-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let traces = TraceStore::new(root.join("traces"));
        let checkpoints = CheckpointStore::new(root.join("ckpts"));

        let walker = Sweep::new(&workloads, &config, &[]);
        for (route, sweep) in [
            ("walker", walker),
            ("fan-out", walker.replay(&traces, None)),
            ("checkpointed fan-out", walker.replay(&traces, Some(&checkpoints))),
            ("segment DAG", walker.replay(&traces, Some(&checkpoints)).shards(3)),
        ] {
            let result = run_sweep(2, &sweep);
            assert!(result.results.is_empty(), "{route}: results from an empty plan");
            assert!(result.policies.is_empty(), "{route}: policies from an empty plan");
            assert_eq!(result.benchmarks, ["sweep-empty"], "{route}");
        }
        assert!(!root.exists(), "an empty plan must capture and warm nothing");
    }

    #[test]
    #[should_panic(expected = "attach a trace store")]
    fn segmented_walker_plans_are_rejected() {
        let workloads = [tiny_workload()];
        let config = SimConfig::quick(PolicyKind::Srrip);
        let _ = run_sweep(1, &Sweep::new(&workloads, &config, &[PolicyKind::Lru]).shards(2));
    }
}
