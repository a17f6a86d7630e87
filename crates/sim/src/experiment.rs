//! Parallel policy sweeps — the engine behind Figure 6, Table 3 and the
//! sensitivity studies.
//!
//! Every sweep entry point here is a thin constructor over the one
//! executor, [`crate::run_sweep`] (see [`crate::sweep`]), and they all
//! produce the same [`SweepResult`], bit-identically:
//!
//! * [`policy_sweep`] / [`policy_sweep_with`] regenerate the
//!   instruction trace with the CFG walker for every
//!   `(workload, policy)` job — no disk, but the generation cost is
//!   paid `policies.len()` times per workload;
//! * [`replay_sweep`] captures each workload's trace to a
//!   [`TraceStore`] once, then fans each capture out **decode-once**: a
//!   [`trrip_trace::FanoutReplay`] pipeline (parallel chunk-decode
//!   workers + an ordered broadcaster) feeds shared batches to one
//!   simulator thread per policy, so disk I/O + varint decode is paid
//!   once per *workload*, not once per `(workload, policy)` job;
//! * [`replay_sweep_warm_prefix`] is the same fan-out over a
//!   [`CheckpointStore`]: the shared-warmup pre-pass records one warmup
//!   per workload, and every cell warm-starts from it instead of
//!   simulating its own fast-forward;
//! * [`replay_sweep_isolated`] is the decode-per-job oracle (each job
//!   opens its own [`trrip_trace::StreamingReplay`]), kept only for the
//!   decode-once equivalence tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use trrip_cpu::WarmupTape;
use trrip_policies::PolicyKind;
use trrip_trace::{SourceIter, TraceSource};

use crate::capture::TraceStore;
use crate::checkpoint::{CheckpointError, CheckpointStore};
use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;
use crate::sweep::{run_sweep, Sweep};
use crate::system::{simulate_source, SimResult, SimRun};
use crate::warmstats;

/// Worker threads used when the caller does not cap them: one per
/// hardware thread.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// Results of a `workloads × policies` sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// One result per (workload, policy) pair, workload-major.
    pub results: Vec<SimResult>,
    /// The policies swept, in order.
    pub policies: Vec<PolicyKind>,
    /// The benchmark names, in order.
    pub benchmarks: Vec<String>,
}

impl SweepResult {
    /// The result for one (benchmark, policy) pair.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the sweep.
    #[must_use]
    pub fn get(&self, benchmark: &str, policy: PolicyKind) -> &SimResult {
        let bi = self
            .benchmarks
            .iter()
            .position(|b| b == benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let pi = self
            .policies
            .iter()
            .position(|&p| p == policy)
            .unwrap_or_else(|| panic!("policy {policy} not swept"));
        &self.results[bi * self.policies.len() + pi]
    }

    /// Per-benchmark speedups of `policy` against `baseline`, in percent,
    /// in benchmark order.
    #[must_use]
    pub fn speedups(&self, policy: PolicyKind, baseline: PolicyKind) -> Vec<f64> {
        self.benchmarks
            .iter()
            .map(|b| {
                let base = self.get(b, baseline);
                self.get(b, policy).speedup_vs(base)
            })
            .collect()
    }
}

/// Runs `f(0)..f(n-1)` across up to one scoped worker per hardware
/// thread, returning the results in index order. The shared fan-out
/// scaffold behind every sweep and preparation pass.
///
/// # Panics
///
/// Propagates panics from `f` (a panicking worker aborts the scope).
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(default_jobs(), n, f)
}

/// [`parallel_map`] with an explicit worker cap (`--jobs` in the bench
/// harness): at most `jobs` scoped workers, never more than `n`.
///
/// # Panics
///
/// Propagates panics from `f` (a panicking worker aborts the scope).
pub fn parallel_map_with<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    let threads = jobs.max(1).min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                slots.lock()[i] = Some(value);
            });
        }
    });
    slots.into_inner().into_iter().map(|v| v.expect("all jobs completed")).collect()
}

/// Runs every workload under every policy, in parallel across the
/// machine's cores. Deterministic per (workload, policy) regardless of
/// scheduling.
#[must_use]
pub fn policy_sweep(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
) -> SweepResult {
    policy_sweep_with(default_jobs(), workloads, config, policies)
}

/// [`policy_sweep`] with an explicit worker cap.
#[must_use]
pub fn policy_sweep_with(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
) -> SweepResult {
    run_sweep(jobs, &Sweep::new(workloads, config, policies))
}

/// Runs every workload under every policy by streaming captured traces
/// from `store` — capturing any that are missing first — with the
/// decode-once fan-out: per workload, one [`trrip_trace::FanoutReplay`]
/// pipeline decodes the capture a single time (chunks decoded on
/// parallel workers, checksummed on read) and broadcasts the shared
/// batches to one scoped simulator thread per policy. Decode order is
/// the file's chunk order for every subscriber, so the result is
/// deterministic and bit-identical to [`policy_sweep`] and
/// [`replay_sweep_isolated`] regardless of scheduling — while the
/// expensive disk + varint work is paid once per *workload* instead of
/// once per job ([`trrip_trace::records_decoded`] makes that promise
/// testable). For an explicit worker budget, call [`crate::run_sweep`]
/// with a [`Sweep::replay`] plan.
///
/// # Panics
///
/// Panics if a trace cannot be captured or replayed (disk full, file
/// damaged between capture and replay).
#[must_use]
pub fn replay_sweep(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
) -> SweepResult {
    run_sweep(default_jobs(), &Sweep::new(workloads, config, policies).replay(store, None))
}

/// Produces a [`SimRun`] warmed to the fast-forward boundary for one
/// `(workload, policy)` cell, by the cheapest valid route — every route
/// is bit-identical to a cold per-cell warmup
/// (`tests/warm_prefix_equivalence.rs`):
///
/// 1. a **whole-state** fast-forward checkpoint (v1/v2 files, or any
///    full container) — the warmup is never simulated;
/// 2. **shared prefix + this policy's overlay** — compose the
///    policy-agnostic and policy-dependent sections;
/// 3. **shared prefix + warmup-tail replay** — restore the predictor,
///    re-simulate the warmup against this policy's own machine with
///    every predictor decision taken off the recorded tape
///    ([`SimRun::fast_forward_replayed`]), and persist the overlay the
///    next sweep will compose from. This is where a *corrupt or
///    missing* overlay lands — never back at a cold warmup;
/// 4. **cold recorded warmup** — no prefix available: simulate the
///    warmup normally while recording a tape, then persist both the
///    prefix and this policy's overlay. (With no store at all, a plain
///    cold warmup.)
///
/// `stream_at(pos)` supplies the instruction stream positioned `pos`
/// instructions in, and is called exactly once: with `fast_forward` on
/// the restore rungs (1–2), with `0` when the warmup is simulated
/// (3–4). The fan-out route drains its broadcast subscriber to `pos`;
/// the segment route opens a (seek-positioned) replay. Both routes
/// share this one ladder, so fallback routing — including the
/// fresh-machine rebuild after a half-written overlay restore — cannot
/// diverge between them.
///
/// Damaged files are reported and demoted one rung; a damaged
/// whole-state checkpoint is also deleted, so the store heals instead
/// of re-reporting the same file on every later sweep (the prefix and
/// overlay heal by being overwritten on rungs 3–4). Saves that fail
/// only cost the warm start next time.
pub(crate) fn warm_start_ladder<'w, S, F>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
    checkpoints: Option<&CheckpointStore>,
    stream_at: F,
) -> (SimRun<'w>, SourceIter<S>)
where
    S: TraceSource,
    F: FnOnce(u64) -> SourceIter<S>,
{
    let cell = |e: &dyn std::fmt::Display, what: &str, next: &str| {
        let subject = format!("{} / {}", workload.spec.name, config.hierarchy.l2_policy);
        artifact_damaged(what, &subject, e, next);
    };
    // Journals which rung warmed this cell (next to the warm.* counters,
    // which carry the same totals without the per-cell attribution).
    let route = |rung: &str| {
        if trrip_obs::journal_active() {
            trrip_obs::event(
                "warm_start",
                &[
                    ("route", trrip_obs::Field::Str(rung)),
                    ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                    ("policy", trrip_obs::Field::Str(config.hierarchy.l2_policy.name())),
                ],
            );
        }
    };
    let ff = config.fast_forward;

    let Some(checkpoints) = checkpoints else {
        // No store attached: plain cold warmup, nothing persisted.
        let mut run = SimRun::new(workload, config);
        let mut stream = stream_at(0);
        run.fast_forward(&mut stream);
        warmstats::count_cold_warmup();
        route("cold_warmup");
        return (run, stream);
    };

    // 1. Whole-state checkpoint.
    match checkpoints.load(workload, config) {
        Ok(Some(run)) => {
            warmstats::count_full_restore();
            route("full_restore");
            return (run, stream_at(ff));
        }
        Ok(None) => {}
        Err(e) => {
            cell(&e, "fast-forward checkpoint", "removing it and trying the shared prefix");
            let _ = std::fs::remove_file(checkpoints.path_for(workload, config));
        }
    }

    // 2./3. Shared prefix.
    let prefix = checkpoints.load_prefix(workload, config).unwrap_or_else(|e| {
        cell(&e, "shared prefix", "warming cold");
        None
    });
    if let Some(prefix) = prefix {
        let mut run = SimRun::new(workload, config);
        prefix.apply(&mut run).expect("keyed shared prefix matches the machine");
        match checkpoints.load_overlay_into(&mut run) {
            Ok(true) => {
                warmstats::count_overlay_restore();
                route("overlay_restore");
                return (run, stream_at(ff));
            }
            Ok(false) => {}
            // Fall through to the tail replay, NOT to a cold warmup —
            // with a fresh machine, since a mid-restore error may have
            // left this one half-written.
            Err(e) => {
                cell(&e, "policy overlay", "replaying the warmup tail");
                run = SimRun::new(workload, config);
                prefix.apply(&mut run).expect("keyed shared prefix matches the machine");
            }
        }
        let mut stream = stream_at(0);
        run.fast_forward_replayed(&mut stream, prefix.tape());
        save_warm_start(checkpoints.save_overlay(&run), &run);
        warmstats::count_tail_replay();
        route("tail_replay");
        return (run, stream);
    }

    // 4. Cold, recorded: the warmup this cell pays becomes the shared
    // prefix every other policy (and every later sweep) starts from.
    let mut run = SimRun::new(workload, config);
    let mut stream = stream_at(0);
    record_warmup(&mut run, &mut stream, checkpoints);
    route("recorded_warmup");
    (run, stream)
}

/// Simulates `run`'s warmup while recording its tape, then persists the
/// tape as the workload's shared prefix plus `run`'s own overlay — the
/// cold rung of the warm-start ladder and the executor's shared-warmup
/// pre-pass.
pub(crate) fn record_warmup<S: TraceSource>(
    run: &mut SimRun<'_>,
    stream: &mut SourceIter<S>,
    checkpoints: &CheckpointStore,
) {
    let mut tape = WarmupTape::new();
    run.fast_forward_recorded(stream, &mut tape);
    warmstats::count_recorded_warmup();
    save_warm_start(checkpoints.save_prefix(run, &tape), run);
    save_warm_start(checkpoints.save_overlay(run), run);
}

/// Logs a failed prefix or overlay save: it only costs the warm start
/// next time.
fn save_warm_start(saved: Result<PathBuf, CheckpointError>, run: &SimRun<'_>) {
    if let Err(e) = saved {
        trrip_obs::progress!(
            "warm-start save failed for {} / {}: {e}",
            run.workload().spec.name,
            run.config().hierarchy.l2_policy
        );
    }
}

/// [`replay_sweep`] with **warm-started measurement** over
/// `checkpoints`, on at most `jobs` workers. The shared-warmup pre-pass
/// records one warmup per workload whose shared prefix is missing; then
/// each `(workload, policy)` cell warm-starts by the cheapest valid
/// route — whole-state checkpoint, shared prefix + policy overlay, or
/// shared prefix + warmup-tail replay, which persists the overlay for
/// every later sweep (`warm_start_ladder` in this module documents the
/// exact ladder). On a cold store the populating pass therefore pays
/// predictor and FDIP-scan work once per workload, not `policies.len()`
/// times; on a warm store — fig6/fig8/fig9 re-sweeping the same
/// benchmarks across process runs — every cell composes prefix +
/// overlay and skips warmup simulation entirely.
///
/// Results are bit-identical to [`replay_sweep`] and [`policy_sweep`]
/// on every route: a checkpoint restores the exact post-fast-forward
/// state and the tail replay re-simulates it exactly (enforced by
/// `tests/checkpoint_roundtrip.rs` and
/// `tests/warm_prefix_equivalence.rs`). Files that fail to load (stale
/// key, corrupt) fall back one rung and are overwritten; files that
/// fail to *save* only cost the warm start next time.
///
/// # Panics
///
/// As [`replay_sweep`].
#[must_use]
pub fn replay_sweep_warm_prefix(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
    checkpoints: &CheckpointStore,
) -> SweepResult {
    run_sweep(jobs, &Sweep::new(workloads, config, policies).replay(store, Some(checkpoints)))
}

/// The decode-per-job replay engine: shards `(workload, policy)` jobs
/// across workers, each opening its own
/// [`trrip_trace::StreamingReplay`] — the trace is re-read and
/// re-decoded once per job. It stays only as the independent oracle
/// that `tests/decode_once.rs` and the `capture` module's unit test
/// hold the decode-once fan-out engine to; sweeps should use
/// [`replay_sweep`].
///
/// # Panics
///
/// As [`replay_sweep`].
#[must_use]
pub fn replay_sweep_isolated(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
) -> SweepResult {
    let sweep = Sweep::new(workloads, config, policies);
    let paths = sweep.capture(default_jobs(), store);
    let cells = sweep.cells();
    let results = parallel_map(cells.len(), |i| {
        let (wi, run_config) = &cells[i];
        let replay = trrip_trace::StreamingReplay::open(&paths[*wi])
            .unwrap_or_else(|e| panic!("replaying {}: {e}", paths[*wi].display()));
        simulate_source(&workloads[*wi], run_config, replay)
    });
    sweep.result(results)
}

/// Reports a damaged on-disk artifact — a checkpoint container, chain
/// link or result fragment that failed to load — as an
/// `artifact_damaged` journal event and (unless `--quiet`) a stderr
/// line: `what` was damaged, for which `subject`, with what `error`,
/// and what the caller does `next` instead.
pub(crate) fn artifact_damaged(
    what: &str,
    subject: &str,
    error: &dyn std::fmt::Display,
    next: &str,
) {
    let error = error.to_string();
    if trrip_obs::journal_active() {
        trrip_obs::event(
            "artifact_damaged",
            &[
                ("what", trrip_obs::Field::Str(what)),
                ("subject", trrip_obs::Field::Str(subject)),
                ("error", trrip_obs::Field::Str(&error)),
                ("next", trrip_obs::Field::Str(next)),
            ],
        );
    }
    if !trrip_obs::quiet() {
        eprintln!("[trrip] damaged {what} for {subject}: {error}; {next}");
    }
}

/// Speedup in percent of `cycles` against `baseline_cycles`.
#[must_use]
pub fn speedup_vs(baseline_cycles: f64, cycles: f64) -> f64 {
    (baseline_cycles / cycles - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::simulate;
    use trrip_core::ClassifierConfig;
    use trrip_workloads::WorkloadSpec;

    fn tiny_workload(name: &str) -> PreparedWorkload {
        let mut spec = WorkloadSpec::named(name);
        spec.functions = 50;
        spec.hot_rotation = 8;
        PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
    }

    #[test]
    fn sweep_covers_all_pairs() {
        let workloads = vec![tiny_workload("wa"), tiny_workload("wb")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 100_000;
        config.fast_forward = 10_000;
        let policies = [PolicyKind::Srrip, PolicyKind::Trrip1];
        let sweep = policy_sweep(&workloads, &config, &policies);
        assert_eq!(sweep.results.len(), 4);
        assert_eq!(sweep.get("wa", PolicyKind::Srrip).policy, PolicyKind::Srrip);
        assert_eq!(sweep.get("wb", PolicyKind::Trrip1).benchmark, "wb");
    }

    #[test]
    fn parallel_sweep_matches_serial_run() {
        let workloads = vec![tiny_workload("wx")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 80_000;
        config.fast_forward = 8_000;
        let sweep = policy_sweep(&workloads, &config, &[PolicyKind::Clip]);
        let serial = simulate(&workloads[0], &config.clone().with_policy(PolicyKind::Clip));
        let from_sweep = sweep.get("wx", PolicyKind::Clip);
        assert_eq!(from_sweep.core.cycles, serial.core.cycles);
        assert_eq!(from_sweep.l2, serial.l2);
    }

    #[test]
    fn speedup_sign_convention() {
        assert!((speedup_vs(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!(speedup_vs(100.0, 110.0) < 0.0);
    }
}
