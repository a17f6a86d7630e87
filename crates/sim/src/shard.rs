//! Sharded run execution: one `(workload, policy)` run cut into
//! chunk-aligned **segments** that chain through checkpoints.
//!
//! PR 3 made mid-measure snapshots exact resumption points (the
//! in-flight [`RunState`](trrip_cpu::RunState) travels with the
//! architectural state, and `consumed` pins the stream position). This
//! module builds on that: a [`ShardPlan`] cuts the measure window into
//! segments whose interior boundaries land on trace chunk boundaries
//! (so a segment's replay skips its prefix *without decoding it*, see
//! [`trrip_trace::StreamingReplay::open_at`]), and the executor
//! simulates segment *k* from checkpoint *k−1*, producing
//!
//! * checkpoint *k* — the chain link persisted through
//!   [`CheckpointStore::save_segment`], which later sweeps (or other
//!   processes) start segment *k+1* from directly, and
//! * a [`SimResult`] **fragment** — segment *k*'s additive tally
//!   ([`SimRun::begin_segment`] / [`SimRun::collect_segment`]), folded
//!   with [`SimResult::merge`] into a result bit-identical to the
//!   unsharded run (`tests/shard_equivalence.rs` pins this for every
//!   policy).
//!
//! [`crate::run_sweep`] schedules a whole sweep this way when its plan
//! has more than one segment: cells stop being atomic tasks and become
//! DAGs of segment tasks run by one segment-task loop
//! (`SegmentTasks::work`) over a claim backend. Within one cell the
//! chain is sequential by nature — but a worker that finishes segment
//! *k* keeps the live run for segment *k+1* (pipelined mode, no
//! checkpoint round-trip) while other workers advance other cells; and
//! when a previous sweep already persisted chain links, every segment
//! whose predecessor checkpoint is on disk is claimable immediately, so
//! one long run fans out across the pool. A missing or damaged chain
//! link falls back cold: the executor rebuilds position from the
//! fast-forward checkpoint (or a full cold warmup) and re-simulates the
//! measure prefix.
//!
//! Only claim arbitration differs between the in-process sweep
//! (`InProcessClaims`: a ready queue and a condvar) and the
//! multi-process worker ([`crate::coordinate`]: `O_EXCL` claim files,
//! heartbeats and fragment files).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

use trrip_trace::{SourceIter, StreamingReplay, CHUNK_CAPACITY};

use crate::checkpoint::CheckpointStore;
use crate::config::SimConfig;
use crate::experiment::{artifact_damaged, warm_start_ladder};
use crate::prepare::PreparedWorkload;
use crate::sweep::{Cell, Sweep};
use crate::system::{SimResult, SimRun};

/// How one `(workload, policy)` measure window is cut into segments.
///
/// Positions are **absolute stream positions** (instructions from the
/// start of the capture, which holds fast-forward + measure). Interior
/// cuts are aligned down to multiples of [`CHUNK_CAPACITY`] when that
/// keeps every segment non-empty, so segment replays skip whole chunks
/// raw; tiny windows (tests) fall back to exact unaligned cuts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    fast_forward: u64,
    /// Absolute end position of each segment; the last entry is
    /// `fast_forward + instructions`.
    cuts: Vec<u64>,
}

impl ShardPlan {
    /// Cuts `config`'s measure window into (at most) `shards` segments.
    /// `shards` is clamped to the window length; zero means one.
    #[must_use]
    pub fn new(config: &SimConfig, shards: usize) -> ShardPlan {
        let ff = config.fast_forward;
        let n = config.instructions;
        let k = (shards.max(1) as u64).min(n.max(1));
        let align = u64::from(CHUNK_CAPACITY);
        let end = ff + n;
        let mut cuts = Vec::with_capacity(k as usize);
        let mut prev = ff;
        for i in 1..=k {
            let raw = ff + n * i / k;
            let cut = if i == k {
                end
            } else {
                // Align down to a chunk boundary when that keeps the
                // segment non-empty; otherwise take the exact cut.
                let aligned = raw / align * align;
                if aligned > prev && aligned < end {
                    aligned
                } else {
                    raw
                }
            };
            if cut > prev {
                cuts.push(cut);
                prev = cut;
            }
        }
        if cuts.is_empty() {
            // A zero-length measure window still gets one (empty)
            // segment, so the executors never see a segment-less plan.
            cuts.push(end);
        }
        ShardPlan { fast_forward: ff, cuts }
    }

    /// Number of segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.cuts.len()
    }

    /// Absolute stream position segment `k` starts at.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn start(&self, k: usize) -> u64 {
        if k == 0 {
            self.fast_forward
        } else {
            self.cuts[k - 1]
        }
    }

    /// Absolute stream position segment `k` ends at (exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn end(&self, k: usize) -> u64 {
        self.cuts[k]
    }

    /// Segment `k`'s start in measure-phase coordinates (instructions
    /// since the measure window began) — what segment checkpoints are
    /// keyed by.
    #[must_use]
    pub fn measure_start(&self, k: usize) -> u64 {
        self.start(k) - self.fast_forward
    }

    /// Whether segment `k`'s start lands on a trace chunk boundary
    /// (its replay then skips the prefix without decoding it).
    #[must_use]
    pub fn is_chunk_aligned(&self, k: usize) -> bool {
        self.start(k).is_multiple_of(u64::from(CHUNK_CAPACITY))
    }
}

fn open_stream(path: &Path, skip: u64) -> SourceIter<StreamingReplay> {
    SourceIter::new(
        StreamingReplay::open_at(path, skip)
            .unwrap_or_else(|e| panic!("replaying {}: {e}", path.display())),
    )
}

/// Produces a measuring [`SimRun`] positioned at segment `k`'s start,
/// plus a stream positioned to continue it, **without** a live carry
/// from segment `k−1`: the chained checkpoint if present, else the
/// fast-forward checkpoint (persisted if it had to be built cold) plus
/// a re-simulated measure prefix.
pub(crate) fn position_at<'w>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
    plan: &ShardPlan,
    k: usize,
    trace_path: &Path,
    checkpoints: Option<&CheckpointStore>,
) -> (SimRun<'w>, SourceIter<StreamingReplay>) {
    let start = plan.start(k);

    // The chain link, if a previous sweep (or this one) persisted it.
    if let Some(store) = checkpoints.filter(|_| k > 0) {
        match store.load_segment(workload, config, k - 1, plan.measure_start(k)) {
            Ok(Some(run)) => {
                trrip_obs::counter!("shard.disk_dispatch").incr();
                return (run, open_stream(trace_path, start));
            }
            Ok(None) => {}
            Err(e) => {
                // A damaged link would otherwise shadow its slot forever
                // (saves skip existing files): report it and delete it —
                // the cold rebuild below lands exactly on this link's
                // position and re-persists a good one.
                let subject = format!(
                    "{} / {} seg {}",
                    workload.spec.name,
                    config.hierarchy.l2_policy,
                    k - 1
                );
                artifact_damaged("chain link", &subject, &e, "rebuilding cold");
                let link = store.segment_path(workload, config, k - 1, plan.measure_start(k));
                let _ = std::fs::remove_file(link);
            }
        }
    }
    if k > 0 {
        // Segment k>0 reached without a live carry or a loadable chain
        // link: the expensive path (re-simulated measure prefix).
        trrip_obs::counter!("shard.cold_fallback").incr();
    }

    // Cold fallback: the fast-forward boundary by the cheapest valid
    // route (whole-state checkpoint → shared prefix + overlay → prefix
    // + warmup-tail replay → cold recorded warmup; the same ladder the
    // fan-out route uses), then the measure prefix up to `start` is
    // re-simulated. An indexed trace makes the restore rungs' stream
    // positioning a true seek.
    let ff = config.fast_forward;
    let (mut run, mut stream) =
        warm_start_ladder(workload, config, checkpoints, |pos| open_stream(trace_path, pos));
    run.begin_measure();
    if start > ff {
        run.measure_chunk(&mut stream, start - ff, false);
    }
    // This run now holds exactly the state chain link `k−1` should
    // carry: repair the chain in place, so a missing or damaged link is
    // healed by the segment that paid the cold rebuild instead of
    // staying cold for every later sweep.
    if let Some(store) = checkpoints.filter(|_| k > 0) {
        save_link(store, &run, plan, k - 1);
    }
    (run, stream)
}

/// Persists `run` as chain link `link` — segment `link`'s end state,
/// segment `link + 1`'s start. A failed save is logged and otherwise
/// ignored: it only costs a later sweep the cold rebuild.
fn save_link(store: &CheckpointStore, run: &SimRun<'_>, plan: &ShardPlan, link: usize) {
    if let Err(e) = store.save_segment(run, link, plan.measure_start(link + 1)) {
        trrip_obs::progress!(
            "chain link save failed for {} / {} seg {link}: {e}",
            run.workload().spec.name,
            run.config().hierarchy.l2_policy
        );
    }
}

/// A live run plus its positioned stream, handed from a finished
/// segment straight to its successor — the pipelined path pays neither
/// a checkpoint round-trip nor a fresh replay open (which would
/// re-read the whole trace prefix).
pub(crate) type Carry<'w> = (SimRun<'w>, SourceIter<StreamingReplay>);

/// Simulates segment `k` of one cell: positions the run (live carry →
/// chained checkpoint → cold fallback), executes the segment, persists
/// checkpoint `k` (non-final segments, when a store is given), and
/// returns the segment's additive [`SimResult`] fragment together with
/// the live run + stream for a pipelined successor.
pub(crate) fn run_segment<'w>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
    plan: &ShardPlan,
    k: usize,
    carry: Option<Carry<'w>>,
    trace_path: &Path,
    checkpoints: Option<&CheckpointStore>,
) -> (SimResult, Carry<'w>) {
    let start = plan.start(k);
    let end = plan.end(k);
    let seg_span = trrip_obs::span!("segment");
    if trrip_obs::journal_active() {
        trrip_obs::event(
            "segment_started",
            &[
                ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                ("policy", trrip_obs::Field::Str(config.hierarchy.l2_policy.name())),
                ("segment", trrip_obs::Field::U64(k as u64)),
                ("live_carry", trrip_obs::Field::Bool(carry.is_some())),
            ],
        );
    }
    let (mut run, mut stream) = match carry {
        Some((run, stream)) => {
            trrip_obs::counter!("shard.live_handoff").incr();
            debug_assert_eq!(
                run.measure_consumed() + config.fast_forward,
                start,
                "carried run is not at segment {k}'s start"
            );
            (run, stream)
        }
        None => position_at(workload, config, plan, k, trace_path, checkpoints),
    };

    run.begin_segment();
    let last = k + 1 == plan.segments();
    let cut = run.measure_chunk(&mut stream, end - start, last);
    debug_assert_eq!(cut.consumed + config.fast_forward, end, "segment cut drifted");
    let fragment = run.collect_segment();

    if let Some(store) = checkpoints.filter(|_| !last) {
        // Re-saving an existing link would write identical bytes
        // (segments are deterministic): skip the serialization on warm
        // sweeps.
        if !store.has_segment(workload, config, k, plan.measure_start(k + 1)) {
            save_link(store, &run, plan, k);
        }
    }
    if trrip_obs::journal_active() {
        trrip_obs::event(
            "segment_finished",
            &[
                ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                ("policy", trrip_obs::Field::Str(config.hierarchy.l2_policy.name())),
                ("segment", trrip_obs::Field::U64(k as u64)),
                ("instructions", trrip_obs::Field::U64(end - start)),
            ],
        );
    }
    drop(seg_span);
    (fragment, (run, stream))
}

/// One sweep's segment tasks: `(cell, segment)` for every cell of the
/// plan and every segment of its [`ShardPlan`], flat-indexed
/// `cell * segments + segment`.
pub(crate) struct SegmentTasks<'a> {
    pub(crate) sweep: &'a Sweep<'a>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) plan: ShardPlan,
    /// Each workload's captured trace.
    pub(crate) paths: Vec<PathBuf>,
}

/// Claim arbitration for the segment-task loop — the only part of the
/// DAG that differs between the in-process sweep
/// ([`InProcessClaims`]) and the multi-process worker (file claims,
/// [`crate::coordinate`]).
pub(crate) trait Claims {
    /// Claims the next task to start without a live carry, blocking or
    /// backing off while none is claimable; `None` once every task of the
    /// sweep is done.
    fn next(&mut self) -> Option<(usize, usize)>;
    /// Tries to claim `(cell, segment)` for a live hand-off from the
    /// predecessor this worker just finished.
    fn claim_successor(&mut self, cell: usize, segment: usize) -> bool;
    /// Publishes a finished task's fragment and releases its claim.
    fn publish(&mut self, cell: usize, segment: usize, fragment: SimResult);
}

impl SegmentTasks<'_> {
    /// Whether segment `seg` of `cell` can start from a chain link a
    /// previous sweep (or worker) persisted.
    pub(crate) fn has_link(&self, cell: usize, seg: usize) -> bool {
        let (wi, config) = &self.cells[cell];
        self.sweep.checkpoints.is_some_and(|store| {
            store.has_segment(
                &self.sweep.workloads[*wi],
                config,
                seg - 1,
                self.plan.measure_start(seg),
            )
        })
    }

    /// The segment-task loop: claims a task, runs it
    /// ([`run_segment`]: live carry → chained checkpoint → cold
    /// fallback), publishes its fragment, and keeps the live run for the
    /// cell's next segment whenever that one can be claimed — the
    /// pipelined hand-off that skips the checkpoint round-trip. Returns
    /// when `claims` reports every task done.
    pub(crate) fn work(&self, claims: &mut impl Claims) {
        let segments = self.plan.segments();
        while let Some((cell, mut seg)) = claims.next() {
            let (wi, config) = &self.cells[cell];
            let mut carry = None;
            loop {
                let (fragment, next) = run_segment(
                    &self.sweep.workloads[*wi],
                    config,
                    &self.plan,
                    seg,
                    carry.take(),
                    &self.paths[*wi],
                    self.sweep.checkpoints,
                );
                claims.publish(cell, seg, fragment);
                seg += 1;
                if seg == segments || !claims.claim_successor(cell, seg) {
                    break;
                }
                carry = Some(next);
            }
        }
    }
}

/// The in-process claim backend: a ready queue of task indices behind a
/// condvar. Segment 0 of every cell is ready at once, as is every
/// segment whose chain link a previous sweep persisted (so a warm chain
/// fans one cell across the pool); any other segment is claimed by the
/// worker that finishes its predecessor.
pub(crate) struct InProcessClaims {
    queue: Mutex<Queue>,
    ready_cv: Condvar,
    segments: usize,
}

struct Queue {
    ready: VecDeque<usize>,
    /// Whether each task was already queued or claimed.
    dispatched: Vec<bool>,
    fragments: Vec<Option<SimResult>>,
    remaining: usize,
    /// Set when a worker panics, so blocked workers exit instead of
    /// waiting forever for tasks that will never finish.
    poisoned: bool,
}

impl InProcessClaims {
    /// Runs every task of `tasks` on up to `jobs` workers and returns
    /// the fragments in task order.
    pub(crate) fn run(jobs: usize, tasks: &SegmentTasks<'_>) -> Vec<SimResult> {
        let segments = tasks.plan.segments();
        let total = tasks.cells.len() * segments;
        let mut queue = Queue {
            ready: VecDeque::new(),
            dispatched: vec![false; total],
            fragments: (0..total).map(|_| None).collect(),
            remaining: total,
            poisoned: false,
        };
        for task in 0..total {
            let (cell, seg) = (task / segments, task % segments);
            if seg == 0 || tasks.has_link(cell, seg) {
                queue.dispatched[task] = true;
                queue.ready.push_back(task);
            }
        }
        let claims =
            InProcessClaims { queue: Mutex::new(queue), ready_cv: Condvar::new(), segments };

        /// Marks the queue poisoned if the holding worker unwinds, so the
        /// rest of the pool exits instead of deadlocking.
        struct PoisonGuard<'a>(&'a InProcessClaims);
        impl Drop for PoisonGuard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    if let Ok(mut queue) = self.0.queue.lock() {
                        queue.poisoned = true;
                    }
                    self.0.ready_cv.notify_all();
                }
            }
        }

        std::thread::scope(|scope| {
            for _ in 0..jobs.max(1).min(total) {
                scope.spawn(|| {
                    let _guard = PoisonGuard(&claims);
                    tasks.work(&mut &claims);
                });
            }
        });
        let queue = claims.queue.into_inner().expect("claims lock");
        queue.fragments.into_iter().map(|f| f.expect("fragment collected")).collect()
    }
}

impl Claims for &InProcessClaims {
    fn next(&mut self) -> Option<(usize, usize)> {
        let mut queue = self.queue.lock().expect("claims lock");
        loop {
            if queue.poisoned || queue.remaining == 0 {
                return None;
            }
            if let Some(task) = queue.ready.pop_front() {
                let (cell, seg) = (task / self.segments, task % self.segments);
                if trrip_obs::journal_active() {
                    trrip_obs::event(
                        "shard_task",
                        &[
                            ("cell", trrip_obs::Field::U64(cell as u64)),
                            ("segment", trrip_obs::Field::U64(seg as u64)),
                            ("queue_depth", trrip_obs::Field::U64(queue.ready.len() as u64)),
                        ],
                    );
                }
                return Some((cell, seg));
            }
            // Idle time shows up as `scheduler_idle` spans: one per
            // wakeless wait, attributed to the waiting worker's lane.
            let idle = trrip_obs::span!("scheduler_idle");
            queue = self.ready_cv.wait(queue).expect("claims lock");
            drop(idle);
        }
    }

    fn claim_successor(&mut self, cell: usize, segment: usize) -> bool {
        let mut queue = self.queue.lock().expect("claims lock");
        let task = cell * self.segments + segment;
        !std::mem::replace(&mut queue.dispatched[task], true)
    }

    fn publish(&mut self, cell: usize, segment: usize, fragment: SimResult) {
        let mut queue = self.queue.lock().expect("claims lock");
        queue.fragments[cell * self.segments + segment] = Some(fragment);
        queue.remaining -= 1;
        drop(queue);
        self.ready_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_policies::PolicyKind;

    fn plan_for(ff: u64, n: u64, shards: usize) -> ShardPlan {
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.fast_forward = ff;
        config.instructions = n;
        ShardPlan::new(&config, shards)
    }

    #[test]
    fn plan_covers_the_window_exactly() {
        for (ff, n, shards) in
            [(0, 10, 3), (30_000, 300_000, 4), (123, 1, 5), (1 << 20, 1 << 22, 7)]
        {
            let plan = plan_for(ff, n, shards);
            assert!(plan.segments() >= 1 && plan.segments() <= shards.max(1));
            assert_eq!(plan.start(0), ff);
            assert_eq!(plan.end(plan.segments() - 1), ff + n);
            for s in 1..plan.segments() {
                assert_eq!(plan.start(s), plan.end(s - 1), "segments must tile");
                assert!(plan.end(s) > plan.start(s), "segments must be non-empty");
            }
        }
    }

    #[test]
    fn large_windows_get_chunk_aligned_interior_cuts() {
        let chunk = u64::from(CHUNK_CAPACITY);
        let plan = plan_for(30_000, 8 * chunk, 4);
        assert_eq!(plan.segments(), 4);
        for s in 1..plan.segments() {
            assert!(plan.is_chunk_aligned(s), "interior cut {s} at {} unaligned", plan.start(s));
        }
        // The exterior boundaries still hit the exact window.
        assert_eq!(plan.start(0), 30_000);
        assert_eq!(plan.end(3), 30_000 + 8 * chunk);
    }

    #[test]
    fn tiny_windows_fall_back_to_exact_cuts() {
        let plan = plan_for(100, 9, 3);
        assert_eq!(plan.segments(), 3);
        assert_eq!((plan.start(1), plan.start(2)), (103, 106));
    }

    #[test]
    fn shards_clamp_to_window_length() {
        let plan = plan_for(0, 2, 64);
        assert_eq!(plan.segments(), 2);
        let plan = plan_for(0, 5, 0);
        assert_eq!(plan.segments(), 1);
    }

    #[test]
    fn zero_length_window_still_has_one_segment() {
        let plan = plan_for(1000, 0, 4);
        assert_eq!(plan.segments(), 1);
        assert_eq!((plan.start(0), plan.end(0)), (1000, 1000));
    }
}
