//! One full simulation run, as an explicit phase machine:
//! **load → fast-forward → (checkpoint) → measure → collect**.
//!
//! [`SimRun`] holds the whole machine (core + backend) between phases.
//! The checkpoint phase is optional and caller-driven: after
//! [`SimRun::fast_forward`] the complete architectural state can be
//! saved with [`SimRun::save`] and later restored into a freshly loaded
//! [`SimRun`] with [`SimRun::restore`], making the warmed state
//! reusable across runs and processes (see [`crate::checkpoint`]).
//! [`simulate_source`] is the plain load → fast-forward → measure
//! composition and is bit-identical to what it computed before the
//! phase split.

use serde::{Deserialize, Serialize};
use trrip_analysis::{CostlyMissTracker, ReuseHistogram};
use trrip_cache::{AccessStats, Hierarchy};
use trrip_cpu::{ChunkCut, Core, CoreResult, RunState, WarmupMode, WarmupTape};
use trrip_os::{Loader, Mmu, PageStats, TlbStats};
use trrip_policies::PolicyKind;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use trrip_trace::{SourceIter, TraceSource};
use trrip_workloads::{InputSet, TraceGenerator};

use crate::backend::SystemBackend;
use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;

/// Results of one run (one benchmark × one configuration).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Benchmark name.
    pub benchmark: String,
    /// The L2 policy that ran.
    pub policy: PolicyKind,
    /// Core timing and Top-Down buckets.
    pub core: CoreResult,
    /// L1-I statistics.
    pub l1i: AccessStats,
    /// L1-D statistics.
    pub l1d: AccessStats,
    /// L2 statistics (the paper's MPKI source).
    pub l2: AccessStats,
    /// SLC statistics.
    pub slc: AccessStats,
    /// TLB statistics.
    pub tlb: TlbStats,
    /// Loader page statistics (Table 5).
    pub pages: PageStats,
    /// Figure 3 base histogram, if measured.
    pub reuse_base: Option<ReuseHistogram>,
    /// Figure 3 hot-only ("~") histogram, if measured.
    pub reuse_hot_only: Option<ReuseHistogram>,
    /// Figure 7 costly-miss tracker, if measured.
    #[serde(skip)]
    pub costly: Option<CostlyMissTracker>,
}

impl SimResult {
    /// L2 instruction MPKI over the measured instructions.
    #[must_use]
    pub fn l2_inst_mpki(&self) -> f64 {
        self.l2.inst_mpki(self.core.instructions)
    }

    /// L2 data MPKI over the measured instructions.
    #[must_use]
    pub fn l2_data_mpki(&self) -> f64 {
        self.l2.data_mpki(self.core.instructions)
    }

    /// Total cycles.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.core.cycles
    }

    /// Speedup of this run relative to a baseline run of the same
    /// benchmark, in percent (the Figure 6 metric: cycle reduction for a
    /// fixed instruction count).
    #[must_use]
    pub fn speedup_vs(&self, baseline: &SimResult) -> f64 {
        (baseline.cycles() / self.cycles() - 1.0) * 100.0
    }

    /// Reduction of L2 instruction MPKI vs a baseline, in percent
    /// (positive = fewer misses; the Table 3 metric).
    #[must_use]
    pub fn inst_mpki_reduction_vs(&self, baseline: &SimResult) -> f64 {
        let base = baseline.l2_inst_mpki();
        if base == 0.0 {
            return 0.0;
        }
        (1.0 - self.l2_inst_mpki() / base) * 100.0
    }

    /// Reduction of L2 data MPKI vs a baseline, in percent.
    #[must_use]
    pub fn data_mpki_reduction_vs(&self, baseline: &SimResult) -> f64 {
        let base = baseline.l2_data_mpki();
        if base == 0.0 {
            return 0.0;
        }
        (1.0 - self.l2_data_mpki() / base) * 100.0
    }

    /// Folds the **next consecutive segment** of the same sharded run
    /// into this one. Merging every segment of a run in chain order
    /// reproduces the uninterrupted run's `SimResult` bit-for-bit:
    ///
    /// * the core tally merges per [`CoreResult::merge`] (additive
    ///   counters + exact stall buckets; the clock rides the chain);
    /// * cache access statistics and profiler histograms add — all
    ///   exact integer arithmetic, so the fold is associative;
    /// * TLB statistics take the later segment's value: the TLB
    ///   counters are cumulative over the whole run (they are never
    ///   reset at the measure boundary), so the last segment already
    ///   holds the totals the uninterrupted run reports;
    /// * page statistics are load-time constants, identical in every
    ///   segment.
    ///
    /// Associativity and the empty-segment identity are pinned by
    /// `tests/shard_equivalence.rs`.
    ///
    /// # Panics
    ///
    /// Panics if the two results are not segments of one run (different
    /// benchmark, policy, or armed profilers).
    pub fn merge(&mut self, next: &SimResult) {
        assert_eq!(self.benchmark, next.benchmark, "segments must share a benchmark");
        assert_eq!(self.policy, next.policy, "segments must share a policy");
        self.core.merge(&next.core);
        self.l1i += next.l1i;
        self.l1d += next.l1d;
        self.l2 += next.l2;
        self.slc += next.slc;
        self.tlb = next.tlb;
        self.pages = next.pages;
        self.reuse_base = merge_histograms(self.reuse_base.take(), next.reuse_base.as_ref());
        self.reuse_hot_only =
            merge_histograms(self.reuse_hot_only.take(), next.reuse_hot_only.as_ref());
        self.costly = match (self.costly.take(), next.costly.as_ref()) {
            (Some(mut mine), Some(theirs)) => {
                mine.merge(theirs);
                Some(mine)
            }
            (None, None) => None,
            _ => panic!("segments must agree on costly-miss tracking"),
        };
    }
}

fn merge_histograms(
    mine: Option<ReuseHistogram>,
    theirs: Option<&ReuseHistogram>,
) -> Option<ReuseHistogram> {
    match (mine, theirs) {
        (Some(mut a), Some(b)) => {
            a.merge(b);
            Some(a)
        }
        (None, None) => None,
        _ => panic!("segments must agree on reuse measurement"),
    }
}

/// Runs one benchmark under one configuration, generating the trace
/// in-memory with the CFG walker (the classic path; equivalent to
/// [`simulate_source`] over the walker).
#[must_use]
pub fn simulate(workload: &PreparedWorkload, config: &SimConfig) -> SimResult {
    let object = workload.object(config.layout);
    let mut generator =
        TraceGenerator::new(&workload.program, object, &workload.spec, InputSet::Eval);
    simulate_source(workload, config, &mut generator)
}

/// Runs one benchmark under one configuration over any [`TraceSource`] —
/// the in-memory walker or an on-disk trace captured earlier. The source
/// must deliver `fast_forward + instructions` instructions of the
/// workload's eval input under `config.layout` (the layout determines
/// every PC); [`crate::capture_trace`] writes exactly that stream, which
/// is what makes disk replay bit-identical to in-memory generation.
#[must_use]
pub fn simulate_source<S: TraceSource>(
    workload: &PreparedWorkload,
    config: &SimConfig,
    source: S,
) -> SimResult {
    let mut run = SimRun::new(workload, config);
    let mut stream = SourceIter::new(source);
    run.fast_forward(&mut stream);
    run.measure(&mut stream)
}

/// One simulation in flight, between phases.
///
/// The phases, in order:
///
/// 1. **load** — [`SimRun::new`]: loader maps the object (pages + PTEs
///    with temperature bits), the hierarchy and core are built cold.
/// 2. **fast-forward** — [`SimRun::fast_forward`]: warms caches and
///    predictors; no statistics are reported from this phase.
/// 3. **checkpoint** *(optional)* — [`SimRun::save`] captures the full
///    architectural state; [`SimRun::restore`] loads it into a freshly
///    constructed run, replacing the fast-forward phase entirely.
/// 4. **measure** — [`SimRun::measure`] (or the resumable
///    [`SimRun::measure_chunk`] / [`SimRun::finish`] pair): statistics
///    reset, then the measured window executes and [`SimResult`] is
///    collected.
///
/// A restored run is bit-identical to one that executed fast-forward
/// itself, and a measure phase split by a save/restore at any chunk
/// boundary is bit-identical to an uninterrupted one — enforced by
/// `tests/checkpoint_roundtrip.rs`.
#[derive(Debug)]
pub struct SimRun<'w> {
    workload: &'w PreparedWorkload,
    config: SimConfig,
    pages: PageStats,
    core: Core<SystemBackend>,
    /// In-flight measure-phase state (present between `begin_measure`
    /// and `finish`).
    measuring: Option<RunState>,
    /// Cumulative-counter baselines captured by the last
    /// [`SimRun::begin_segment`] — what [`SimRun::collect_segment`]
    /// subtracts to produce a segment's additive tally. Not part of the
    /// snapshot stream: each segment executor rebases its own tally
    /// after restoring.
    segment_base: Option<SegmentBase>,
}

/// Baselines for one shard segment's tally: the cumulative measure-phase
/// counters at the moment the segment began.
#[derive(Debug)]
struct SegmentBase {
    l1i: AccessStats,
    l1d: AccessStats,
    l2: AccessStats,
    slc: AccessStats,
    reuse: Option<(ReuseHistogram, ReuseHistogram)>,
    costly: Option<CostlyMissTracker>,
}

impl<'w> SimRun<'w> {
    /// **Load phase**: maps the object and builds the cold machine.
    #[must_use]
    pub fn new(workload: &'w PreparedWorkload, config: &SimConfig) -> SimRun<'w> {
        let _span = trrip_obs::span!("load");
        let object = workload.object(config.layout);

        // ⑥–⑧ Load: pages + PTEs (with temperature bits under PGO).
        let loader = Loader::new(config.page_size).with_overlap_policy(config.overlap);
        let image = loader.load(object);
        let pages = image.stats;
        let mmu = Mmu::new(image.page_table);

        // ⑨–⑪ the machine itself.
        let hierarchy = Hierarchy::new(&config.hierarchy);
        let backend = SystemBackend::new(mmu, hierarchy, object, config);
        let core = Core::new(config.core, backend);
        SimRun {
            workload,
            config: config.clone(),
            pages,
            core,
            measuring: None,
            segment_base: None,
        }
    }

    /// The configuration this run executes.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload this run executes.
    #[must_use]
    pub fn workload(&self) -> &'w PreparedWorkload {
        self.workload
    }

    /// Whether the measure phase has started (the run carries in-flight
    /// [`RunState`]).
    #[must_use]
    pub fn is_measuring(&self) -> bool {
        self.measuring.is_some()
    }

    /// **Fast-forward phase**: warms caches and predictors with the
    /// stream's first `fast_forward` instructions.
    pub fn fast_forward<S: TraceSource>(&mut self, stream: &mut SourceIter<S>) {
        assert!(self.measuring.is_none(), "fast-forward after measurement started");
        if self.config.fast_forward > 0 {
            let _span = trrip_obs::span!("fast_forward");
            let mut state = self.core.begin_run();
            self.run_batches(&mut state, stream, self.config.fast_forward, true);
            self.core.backend_mut().flush_fastpath_counters();
        }
    }

    /// Feeds up to `limit` instructions from `stream` to the core via
    /// the slice entry point ([`Core::run_batch`]): each decoded source
    /// batch flows through as one contiguous slice, with no per-
    /// instruction iterator dispatch. Bit-identical to
    /// `run_chunk(stream.take(limit), drain)` — pinned by the core's
    /// batch/chunk equivalence tests.
    fn run_batches<S: TraceSource>(
        &mut self,
        state: &mut RunState,
        stream: &mut SourceIter<S>,
        limit: u64,
        drain: bool,
    ) -> ChunkCut {
        let mut remaining = limit as usize;
        while remaining > 0 {
            let batch = stream.next_slice(remaining);
            if batch.is_empty() {
                break;
            }
            remaining -= batch.len();
            self.core.run_batch(state, batch, false);
        }
        // Empty final batch: a no-op without drain, the window flush
        // with it.
        self.core.run_batch(state, &[], drain)
    }

    /// [`SimRun::fast_forward`] while **recording** the warmup's
    /// predictor-derived decisions onto `tape` — bit-identical to the
    /// plain warmup (recording only observes). The tape plus this run's
    /// shared section ([`SimRun::save_shared`]) form the policy-agnostic
    /// warm prefix every other policy's cell replays from.
    pub fn fast_forward_recorded<S: TraceSource>(
        &mut self,
        stream: &mut SourceIter<S>,
        tape: &mut WarmupTape,
    ) {
        assert!(self.measuring.is_none(), "fast-forward after measurement started");
        if self.config.fast_forward > 0 {
            let _span = trrip_obs::span!("fast_forward");
            let mut state = self.core.begin_run();
            self.core.run_chunk_mode(
                &mut state,
                stream.take(self.config.fast_forward as usize),
                true,
                &mut WarmupMode::Record(tape),
            );
        }
    }

    /// The **cache-touching warmup tail**: fast-forwards by replaying a
    /// recorded [`WarmupTape`] — no branch predictor, no FDIP lookahead
    /// window (the tape carries the prefetch PCs), no core frontend at
    /// all ([`Core::run_warmup_tail`]). The policy-dependent machine
    /// (caches, TLB, prefetch tables, starvation FIFO, the clock)
    /// simulates for real against *this* run's policy, so the resulting
    /// state is bit-identical to a cold per-cell warmup — restore the
    /// shared section first ([`SimRun::restore_shared`]) so the
    /// predictor ends up warmed too.
    ///
    /// # Panics
    ///
    /// Panics when the tape does not match this configuration's warmup
    /// length or the stream's event counts — a stale or mismatched
    /// prefix, which keyed and checksummed containers prevent.
    pub fn fast_forward_replayed<S: TraceSource>(
        &mut self,
        stream: &mut SourceIter<S>,
        tape: &WarmupTape,
    ) {
        self.fast_forward_replayed_mode(stream, tape, false);
    }

    /// [`SimRun::fast_forward_replayed`] with an optional
    /// **functional-warming** mode: `functional = true` replays the tail
    /// through [`Core::run_warmup_tail_mode`] with per-cause stall
    /// attribution (the top-down buckets) skipped — the clock and every
    /// piece of microarchitectural state still evolve exactly as in
    /// timed replay, so the warmed machine is bit-identical and any
    /// measurement that follows is unaffected (pinned by
    /// `tests/warm_prefix_equivalence.rs`).
    ///
    /// The mode is only reachable here, at the warmup-tail seam — the
    /// measure phase has no functional path, and this method (like every
    /// fast-forward variant) panics once measurement has started.
    /// Activation is journaled as a `functional_warming` event and
    /// counted on `warm.functional_mode`.
    ///
    /// # Panics
    ///
    /// As [`SimRun::fast_forward_replayed`], and if called mid-measure.
    pub fn fast_forward_replayed_mode<S: TraceSource>(
        &mut self,
        stream: &mut SourceIter<S>,
        tape: &WarmupTape,
        functional: bool,
    ) {
        assert!(self.measuring.is_none(), "fast-forward after measurement started");
        assert_eq!(
            tape.instructions(),
            self.config.fast_forward,
            "warmup tape covers a different fast-forward length"
        );
        if self.config.fast_forward > 0 {
            let _span = trrip_obs::span!("warmup_tail");
            if functional {
                crate::warmstats::count_functional_mode();
                // Widened seam: cache-statistics accumulation is also
                // skipped for the functional tail. Legal because the
                // measure phase begins with `reset_stats` (arming), so
                // nothing reads the counters this would have grown; the
                // architectural tag/policy state still updates exactly
                // as in timed replay. TLB statistics are NOT gated —
                // they are cumulative whole-run observables.
                self.core.backend_mut().hierarchy_mut().set_stats_enabled(false);
                trrip_obs::counter!("warm.functional_stats_skips").add(self.config.fast_forward);
                trrip_obs::event(
                    "functional_warming",
                    &[
                        ("benchmark", trrip_obs::Field::Str(&self.workload.spec.name)),
                        ("policy", trrip_obs::Field::Str(self.config.hierarchy.l2_policy.name())),
                        ("instructions", trrip_obs::Field::U64(self.config.fast_forward)),
                    ],
                );
            }
            let mut cursor = tape.cursor();
            let report = self.core.run_warmup_tail_mode(
                stream.take(self.config.fast_forward as usize),
                &mut cursor,
                functional,
            );
            assert_eq!(
                report.instructions, self.config.fast_forward,
                "stream ended inside the warmup window"
            );
            cursor.finish().expect("warmup tape consumed exactly");
            if functional {
                self.core.backend_mut().hierarchy_mut().set_stats_enabled(true);
            }
            self.core.backend_mut().flush_fastpath_counters();
        }
    }

    /// Enables or disables the backend's deferred miss batch (see
    /// `SystemBackend::set_miss_batching`); on by default. Exposed for
    /// equivalence oracles.
    pub fn set_miss_batching(&mut self, enabled: bool) {
        self.core.backend_mut().set_miss_batching(enabled);
    }

    /// Overrides the miss batch's capacity-flush threshold (see
    /// `SystemBackend::set_batch_capacity`).
    pub fn set_batch_capacity(&mut self, capacity: usize) {
        self.core.backend_mut().set_batch_capacity(capacity);
    }

    /// Enables or disables the set-sorted batch drain (see
    /// `SystemBackend::set_sorted_replay`); on by default. Exposed for
    /// equivalence oracles.
    pub fn set_sorted_replay(&mut self, enabled: bool) {
        self.core.backend_mut().set_sorted_replay(enabled);
    }

    /// **Measure phase**, uninterrupted: arms measurement, runs the
    /// configured instruction window, and collects the result.
    pub fn measure<S: TraceSource>(&mut self, stream: &mut SourceIter<S>) -> SimResult {
        self.begin_measure();
        self.measure_chunk(stream, self.config.instructions, true);
        self.finish()
    }

    /// Starts the measure phase: resets statistics accumulated during
    /// fast-forward and arms the configured profilers.
    pub fn begin_measure(&mut self) {
        assert!(self.measuring.is_none(), "measurement already started");
        self.core
            .backend_mut()
            .arm_measurement(self.config.measure_reuse, self.config.track_costly);
        self.measuring = Some(self.core.begin_run());
    }

    /// Runs up to `limit` further instructions of the measure window.
    /// Pass `drain = true` on the final chunk (as [`SimRun::measure`]
    /// does) so the core's lookahead window empties exactly as an
    /// uninterrupted run's would.
    ///
    /// Returns the exact cut point the chunk stopped at (absolute
    /// measure-phase stream/retirement positions) — what shard
    /// schedulers key chained checkpoints by.
    pub fn measure_chunk<S: TraceSource>(
        &mut self,
        stream: &mut SourceIter<S>,
        limit: u64,
        drain: bool,
    ) -> ChunkCut {
        let _span = trrip_obs::span!("measure");
        let mut state = self.measuring.take().expect("begin_measure first");
        let cut = self.run_batches(&mut state, stream, limit, drain);
        self.measuring = Some(state);
        self.core.backend_mut().flush_fastpath_counters();
        cut
    }

    /// Starts one shard segment's tally: the core tally rebases (clock
    /// and machine state continue untouched) and the cumulative cache/
    /// profiler counters are baselined, so [`SimRun::collect_segment`]
    /// reports only what this segment contributes. Mergeable with
    /// [`SimResult::merge`].
    pub fn begin_segment(&mut self) {
        let state = self.measuring.as_mut().expect("begin_measure first");
        self.core.begin_segment(state);
        let backend = self.core.backend();
        let h = backend.hierarchy();
        self.segment_base = Some(SegmentBase {
            l1i: *h.l1i().stats(),
            l1d: *h.l1d().stats(),
            l2: *h.l2().stats(),
            slc: *h.slc().stats(),
            reuse: backend.reuse().map(|r| (*r.base(), *r.hot_only())),
            costly: backend.costly().cloned(),
        });
    }

    /// Collects the current segment's [`SimResult`] fragment — the
    /// additive tally since [`SimRun::begin_segment`] — without ending
    /// the measure phase: the run can continue into the next segment
    /// (or be checkpointed for a successor to pick up).
    ///
    /// # Panics
    ///
    /// Panics if no segment was begun.
    #[must_use]
    pub fn collect_segment(&mut self) -> SimResult {
        let state = self.measuring.as_ref().expect("begin_measure first");
        let core = self.core.tally_run(state);
        let base = self.segment_base.as_ref().expect("begin_segment first");
        let backend = self.core.backend();
        let h: &Hierarchy = backend.hierarchy();
        let reuse = backend.reuse().map(|r| {
            let (base_b, base_h) = base.reuse.as_ref().expect("profiler armed mid-segment");
            (r.base().since(base_b), r.hot_only().since(base_h))
        });
        SimResult {
            benchmark: self.workload.spec.name.clone(),
            policy: self.config.hierarchy.l2_policy,
            core,
            l1i: h.l1i().stats().since(&base.l1i),
            l1d: h.l1d().stats().since(&base.l1d),
            l2: h.l2().stats().since(&base.l2),
            slc: h.slc().stats().since(&base.slc),
            // Cumulative over the whole run by design (never reset at
            // the measure boundary): `SimResult::merge` takes the later
            // segment's value, so the merged run reports exactly what
            // an uninterrupted one would.
            tlb: backend.mmu().tlb_stats(),
            pages: self.pages,
            reuse_base: reuse.as_ref().map(|(b, _)| *b),
            reuse_hot_only: reuse.as_ref().map(|(_, h)| *h),
            costly: backend
                .costly()
                .map(|c| c.since(base.costly.as_ref().expect("tracker armed mid-segment"))),
        }
    }

    /// Instructions consumed from the source so far by the measure
    /// phase — a resumed run must skip `fast_forward + this` stream
    /// instructions before continuing.
    #[must_use]
    pub fn measure_consumed(&self) -> u64 {
        self.measuring.as_ref().map_or(0, RunState::consumed)
    }

    /// Ends the measure phase and collects the [`SimResult`].
    pub fn finish(&mut self) -> SimResult {
        let state = self.measuring.take().expect("begin_measure first");
        let result = self.core.finish_run(state);
        let backend = self.core.backend_mut();
        backend.flush_fastpath_counters();
        let reuse = backend.take_reuse();
        let costly = backend.take_costly();
        let h: &Hierarchy = backend.hierarchy();
        SimResult {
            benchmark: self.workload.spec.name.clone(),
            policy: self.config.hierarchy.l2_policy,
            core: result,
            l1i: *h.l1i().stats(),
            l1d: *h.l1d().stats(),
            l2: *h.l2().stats(),
            slc: *h.slc().stats(),
            tlb: backend.mmu().tlb_stats(),
            pages: self.pages,
            reuse_base: reuse.as_ref().map(|r| *r.base()),
            reuse_hot_only: reuse.as_ref().map(|r| *r.hot_only()),
            costly,
        }
    }
}

impl SimRun<'_> {
    /// Saves the **policy-agnostic** half of a fast-forward state: the
    /// branch predictor, the only warmed component whose evolution is a
    /// function of the instruction stream alone (it never sees a cache
    /// latency, and its FDIP query path is pure). Everything else —
    /// caches, TLB and page-table demand allocation, prefetch tables,
    /// the in-flight tracker, the starvation FIFO — couples to fetch
    /// latencies the L2 policy shapes, and belongs to the per-policy
    /// overlay ([`SimRun::save_overlay`]).
    ///
    /// # Panics
    ///
    /// Panics mid-measure: sectioned state is a fast-forward-boundary
    /// concept (mid-measure snapshots stay whole-run).
    pub fn save_shared(&self, w: &mut SnapWriter) {
        assert!(!self.is_measuring(), "shared sections are fast-forward states");
        w.section(b"SHRD", |w| self.core.save_predictor_state(w));
    }

    /// Restores a section written by [`SimRun::save_shared`].
    ///
    /// # Errors
    ///
    /// As [`Snapshot::restore`].
    pub fn restore_shared(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut s = r.section(b"SHRD")?;
        self.core.restore_predictor_state(&mut s)?;
        s.finish()
    }

    /// Saves the **policy-dependent** half of a fast-forward state: the
    /// starvation FIFO plus the whole memory system (MMU/TLB/page
    /// tables, every cache level with its per-set policy state —
    /// tag/RRPV arrays, PSEL counters, Random's RNG —, the stride
    /// prefetcher and the in-flight tracker). Together with the shared
    /// section this is exactly the full fast-forward state.
    ///
    /// # Panics
    ///
    /// As [`SimRun::save_shared`].
    pub fn save_overlay(&self, w: &mut SnapWriter) {
        assert!(!self.is_measuring(), "overlay sections are fast-forward states");
        w.section(b"OVLY", |w| {
            self.core.save_starved_state(w);
            self.core.backend().save(w);
        });
    }

    /// Restores a section written by [`SimRun::save_overlay`].
    ///
    /// # Errors
    ///
    /// As [`Snapshot::restore`].
    pub fn restore_overlay(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut s = r.section(b"OVLY")?;
        self.core.restore_starved_state(&mut s)?;
        self.core.backend_mut().restore(&mut s)?;
        s.finish()
    }
}

/// **Checkpoint phase**: the complete architectural state — core
/// predictor + starvation table, MMU/TLB/page tables, every cache level
/// with per-set policy state, prefetcher tables, the in-flight prefetch
/// tracker, armed profilers, and (mid-measure) the in-flight
/// [`RunState`] including the FDIP lookahead window.
///
/// A fast-forward-boundary state is alternatively addressable as two
/// *sections* — the policy-agnostic [`SimRun::save_shared`] and the
/// policy-dependent [`SimRun::save_overlay`] — which the v3 checkpoint
/// container stores in separate files so one shared prefix serves every
/// policy ([`crate::checkpoint`]).
impl Snapshot for SimRun<'_> {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"SRUN");
        self.core.save_core_state(w);
        self.core.backend().save(w);
        match &self.measuring {
            Some(state) => {
                w.bool(true);
                state.save(w);
            }
            None => w.bool(false),
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"SRUN")?;
        self.core.restore_core_state(r)?;
        self.core.backend_mut().restore(r)?;
        self.measuring = if r.bool()? {
            let mut state = self.core.begin_run();
            state.restore(r)?;
            Some(state)
        } else {
            None
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_core::ClassifierConfig;
    use trrip_workloads::WorkloadSpec;

    fn quick_workload() -> PreparedWorkload {
        let mut spec = WorkloadSpec::named("sim-test");
        spec.functions = 60;
        spec.hot_rotation = 10;
        PreparedWorkload::prepare(&spec, 150_000, ClassifierConfig::llvm_defaults())
    }

    #[test]
    fn simulation_runs_and_counts_instructions() {
        let w = quick_workload();
        let config = SimConfig::quick(PolicyKind::Srrip);
        let r = simulate(&w, &config);
        assert_eq!(r.core.instructions, config.instructions);
        assert!(r.core.cycles > 0.0);
        assert!(r.core.ipc() > 0.1 && r.core.ipc() < 6.0, "ipc {}", r.core.ipc());
        assert!(r.l2.demand_accesses() > 0);
    }

    #[test]
    fn same_config_is_deterministic() {
        let w = quick_workload();
        let config = SimConfig::quick(PolicyKind::Trrip1);
        let a = simulate(&w, &config);
        let b = simulate(&w, &config);
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.l2, b.l2);
    }

    #[test]
    fn reuse_measurement_produces_histograms() {
        let w = quick_workload();
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.measure_reuse = true;
        let r = simulate(&w, &config);
        let base = r.reuse_base.expect("histogram");
        assert!(base.total() > 0, "no hot-line reuse observed");
    }

    #[test]
    fn mpki_metrics_are_consistent() {
        let w = quick_workload();
        let r = simulate(&w, &SimConfig::quick(PolicyKind::Srrip));
        let expect = r.l2.inst_misses as f64 * 1000.0 / r.core.instructions as f64;
        assert!((r.l2_inst_mpki() - expect).abs() < 1e-9);
    }
}
