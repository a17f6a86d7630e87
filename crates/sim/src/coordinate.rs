//! Crash-tolerant multi-process sweeps: N independent worker
//! *processes* share one trace dir + checkpoint dir and cooperatively
//! execute the segment-task DAG of a sharded sweep, surviving workers
//! that are SIGKILLed mid-segment. Each worker runs the executor's one
//! segment-task loop (see [`crate::shard`]); this module supplies only
//! its claim backend — the claim files, heartbeats, stale-claim
//! reclamation, backoff and fragment files below.
//!
//! # The claim protocol
//!
//! Every `(cell, segment)` task has a **claim file** under
//! `<checkpoint-dir>/coord/claims/`, keyed exactly like the segment's
//! chain checkpoint (workload fingerprint + warmup hash + segment
//! ordinal + measure position + profiler flags), so two workers with
//! the same inputs resolve the same file and two workers with different
//! inputs never collide. Acquisition is `O_CREAT|O_EXCL` — the
//! filesystem picks exactly one winner — and the first line of the file
//! stamps who holds it (worker id, pid, start time).
//!
//! While a worker holds claims, a **heartbeat** thread appends a line
//! to each held claim file every period: the append advances the file's
//! mtime (std cannot touch mtimes directly, and the appended lines
//! double as a liveness trace) and journals a `heartbeat` event. A
//! claim whose mtime is older than the configured deadline belongs to a
//! dead (or stalled) worker and is **reclaimed**: the reclaimer renames
//! it to a unique trash name — rename is atomic, so a double-reclaim
//! race has exactly one winner — journals `claim_reclaimed`, and
//! re-acquires fresh. Workers that find nothing claimable back off with
//! jittered exponential sleeps (pid-seeded xorshift) so a reclaim
//! stampede spreads out instead of thundering.
//!
//! # Why a killed worker can never corrupt the sweep
//!
//! Completed segments persist as **fragment files** under
//! `coord/fragments/` — the segment's additive [`SimResult`] tally in a
//! checksummed container, written temp+rename. Segments are
//! deterministic, so a fragment's bytes are a pure function of its key:
//! if a stale claim is reclaimed while the original worker is actually
//! still running (a delayed heartbeat, not a death), both workers
//! eventually rename **identical bytes** onto the same path and neither
//! order loses or duplicates a tally. The collector
//! ([`collect_results`]) refuses to merge until every fragment of every
//! cell is present and intact, then folds them in chain order through
//! [`SimResult::merge`] — bit-identical to the single-process sharded
//! run (`tests/distributed_equivalence.rs` pins this under worker
//! kills, torn writes, and reclamation races).
//!
//! All the mid-segment state a worker might die holding is already
//! crash-safe: chain checkpoints and trace captures are temp+rename
//! (half-written files are invisible), damaged links heal cold (see
//! [`crate::shard`]), and orphaned `.tmp.` litter is collected by
//! [`CheckpointStore::gc`] after its grace window.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use trrip_policies::PolicyKind;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::capture::TraceStore;
use crate::checkpoint::{CheckpointStore, Container};
use crate::config::SimConfig;
use crate::experiment::{artifact_damaged, SweepResult};
use crate::prepare::PreparedWorkload;
use crate::shard::{Claims, SegmentTasks, ShardPlan};
use crate::sweep::Sweep;
use crate::system::SimResult;

/// Fragment container magic: `b"TRRIPFRG"`.
pub const FRAGMENT_MAGIC: [u8; 8] = *b"TRRIPFRG";
/// Fragment container format version.
pub const FRAGMENT_VERSION: u16 = 1;

/// How a worker participates in a coordinated sweep.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// This worker's id, stamped into claims and journal events.
    pub worker: String,
    /// Heartbeat period: how often held claim files are touched.
    pub heartbeat: Duration,
    /// Claims whose mtime is older than this are considered abandoned
    /// and reclaimed. Must comfortably exceed `heartbeat`.
    pub stale_after: Duration,
    /// Base of the jittered exponential backoff a worker sleeps when it
    /// finds nothing claimable.
    pub poll: Duration,
}

impl WorkerOptions {
    /// Defaults for a worker named `worker`: 500 ms heartbeats, 5 s
    /// staleness deadline, 50 ms backoff base.
    #[must_use]
    pub fn named(worker: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            worker: worker.into(),
            heartbeat: Duration::from_millis(500),
            stale_after: Duration::from_secs(5),
            poll: Duration::from_millis(50),
        }
    }
}

/// What one worker did, for reports and smoke assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Fragments this worker persisted.
    pub fragments: usize,
    /// Claims acquired first try.
    pub claims: usize,
    /// Tasks skipped because another worker held the claim.
    pub conflicts: usize,
    /// Stale claims this worker reclaimed.
    pub reclaims: usize,
    /// Claims that were reclaimed out from under this worker while it
    /// was still running (benign: both sides write identical bytes).
    pub lost_claims: usize,
    /// Segments forced through the cold-fallback path to guarantee
    /// liveness when no chain link was available.
    pub cold_forced: usize,
}

/// Everything that can go wrong in the coordination layer itself.
/// Simulation failures inside a segment still panic (as the sharded
/// executor does); these are filesystem-protocol failures.
#[derive(Debug)]
pub enum CoordError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A fragment container that fails validation; the message says
    /// what and where.
    Corrupt(String),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Io(e) => write!(f, "coordination i/o error: {e}"),
            CoordError::Corrupt(what) => write!(f, "corrupt fragment: {what}"),
        }
    }
}

impl std::error::Error for CoordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordError::Io(e) => Some(e),
            CoordError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for CoordError {
    fn from(e: std::io::Error) -> CoordError {
        CoordError::Io(e)
    }
}

impl From<SnapError> for CoordError {
    fn from(e: SnapError) -> CoordError {
        CoordError::Corrupt(e.to_string())
    }
}

/// Task `(workload, config, segment k)`'s claim file and result
/// fragment under `<checkpoint-dir>/coord/`, named like the chain link
/// segment `k` starts from — benchmark, layout, policy, fast-forward,
/// segment ordinal + measure position, profiler flags, fingerprint,
/// warmup hash.
fn task_paths(
    checkpoints: &CheckpointStore,
    workload: &PreparedWorkload,
    config: &SimConfig,
    plan: &ShardPlan,
    k: usize,
) -> (PathBuf, PathBuf) {
    let link = checkpoints.segment_path(workload, config, k, plan.measure_start(k));
    let stem = file_name(&link.with_extension("")).into_owned();
    let coord = checkpoints.dir().join("coord");
    (
        coord.join("claims").join(format!("{stem}.claim")),
        coord.join("fragments").join(format!("{stem}.frag")),
    )
}

/// A file's name, for journal fields.
fn file_name(path: &Path) -> std::borrow::Cow<'_, str> {
    path.file_name().unwrap_or_default().to_string_lossy()
}

// ---------------------------------------------------------------------
// Fragment containers
// ---------------------------------------------------------------------

fn save_opt<T: Snapshot>(w: &mut SnapWriter, value: Option<&T>) {
    match value {
        None => w.bool(false),
        Some(v) => {
            w.bool(true);
            v.save(w);
        }
    }
}

fn restore_opt<T: Snapshot + Default>(r: &mut SnapReader<'_>) -> Result<Option<T>, SnapError> {
    if r.bool()? {
        let mut v = T::default();
        v.restore(r)?;
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn save_result(result: &SimResult) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.str(&result.benchmark);
    w.str(result.policy.name());
    w.u64(result.core.instructions);
    w.f64(result.core.cycles);
    let t = &result.core.topdown;
    for v in [t.retire, t.ifetch, t.mispred, t.depend, t.issue, t.mem, t.other] {
        w.f64(v);
    }
    w.u64(result.core.branches);
    w.u64(result.core.mispredictions);
    w.u64(u64::from(result.core.dispatch_width));
    for stats in [&result.l1i, &result.l1d, &result.l2, &result.slc] {
        stats.save(&mut w);
    }
    w.u64(result.tlb.hits);
    w.u64(result.tlb.misses);
    let p = &result.pages;
    for v in [p.hot, p.warm, p.cold, p.untagged_code, p.data, p.mixed] {
        w.u64(v);
    }
    save_opt(&mut w, result.reuse_base.as_ref());
    save_opt(&mut w, result.reuse_hot_only.as_ref());
    save_opt(&mut w, result.costly.as_ref());
    w.into_bytes()
}

fn restore_result(body: &[u8]) -> Result<SimResult, CoordError> {
    let mut r = SnapReader::new(body);
    let benchmark = r.str()?;
    let policy: PolicyKind = r
        .str()?
        .parse()
        .map_err(|e: trrip_policies::kind::ParsePolicyError| CoordError::Corrupt(e.to_string()))?;
    let instructions = r.u64()?;
    let cycles = r.f64()?;
    let mut topdown = trrip_cpu::TopDown::default();
    for v in [
        &mut topdown.retire,
        &mut topdown.ifetch,
        &mut topdown.mispred,
        &mut topdown.depend,
        &mut topdown.issue,
        &mut topdown.mem,
        &mut topdown.other,
    ] {
        *v = r.f64()?;
    }
    let branches = r.u64()?;
    let mispredictions = r.u64()?;
    let dispatch_width = u32::try_from(r.u64()?)
        .map_err(|_| CoordError::Corrupt("dispatch width overflows".into()))?;
    let mut caches = [trrip_cache::AccessStats::default(); 4];
    for stats in &mut caches {
        stats.restore(&mut r)?;
    }
    let [l1i, l1d, l2, slc] = caches;
    let tlb = trrip_os::TlbStats { hits: r.u64()?, misses: r.u64()? };
    let mut pages = trrip_os::PageStats::default();
    for v in [
        &mut pages.hot,
        &mut pages.warm,
        &mut pages.cold,
        &mut pages.untagged_code,
        &mut pages.data,
        &mut pages.mixed,
    ] {
        *v = r.u64()?;
    }
    let reuse_base = restore_opt(&mut r)?;
    let reuse_hot_only = restore_opt(&mut r)?;
    let costly = restore_opt(&mut r)?;
    r.finish()?;
    Ok(SimResult {
        benchmark,
        policy,
        core: trrip_cpu::CoreResult {
            instructions,
            cycles,
            topdown,
            branches,
            mispredictions,
            dispatch_width,
        },
        l1i,
        l1d,
        l2,
        slc,
        tlb,
        pages,
        reuse_base,
        reuse_hot_only,
        costly,
    })
}

/// The result-fragment container: the checkpoint framing under its own
/// magic and version.
const FRAGMENT: Container = Container {
    magic: FRAGMENT_MAGIC,
    version: FRAGMENT_VERSION,
    bound_from: u16::MAX,
    seam: "coord.fragment.save",
};

/// Writes a fragment container atomically (temp + rename) in the
/// checkpoints' framing — magic, version, body length, body, checksum —
/// so torn or damaged writes are detected on read, never silently
/// merged. The `coord.fragment.save` fault seam sits before the rename:
/// tear/damage the flushed temp (the container checksum then catches it
/// and the fragment re-runs) or kill the worker (claim reclamation takes
/// over).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_fragment(path: &Path, result: &SimResult) -> Result<(), CoordError> {
    Ok(FRAGMENT.write(path, &save_result(result))?)
}

/// Reads and validates a fragment container.
///
/// # Errors
///
/// `Io` for filesystem failures (including `NotFound`), `Corrupt` for
/// anything that fails validation: magic, version, length, checksum, or
/// body shape.
pub fn read_fragment(path: &Path) -> Result<SimResult, CoordError> {
    let bytes = std::fs::read(path)?;
    let (_, body) = FRAGMENT
        .open(&bytes)
        .map_err(|e| CoordError::Corrupt(format!("{}: {e}", path.display())))?;
    restore_result(body)
}

// ---------------------------------------------------------------------
// Claims
// ---------------------------------------------------------------------

fn now_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// Tries to acquire `path` for `worker`. `create_new` makes the
/// filesystem pick exactly one winner among racing workers.
fn try_acquire(path: &Path, worker: &str) -> std::io::Result<bool> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(mut file) => {
            writeln!(
                file,
                "{{\"worker\":\"{worker}\",\"pid\":{},\"start_us\":{}}}",
                std::process::id(),
                now_us()
            )?;
            Ok(true)
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Appends a heartbeat line to a held claim file, advancing its mtime.
/// A missing file (the claim was reclaimed under us) is not an error —
/// the worker discovers the loss at release time.
fn touch_claim(path: &Path, beat: u64) {
    if let Ok(mut file) = std::fs::OpenOptions::new().append(true).open(path) {
        let _ = writeln!(file, "{{\"hb\":{beat},\"ts_us\":{}}}", now_us());
    }
}

/// The age of a claim file since its last heartbeat (mtime), `None` if
/// it does not exist or the clock is unreadable.
fn claim_age(path: &Path) -> Option<Duration> {
    std::fs::metadata(path).ok()?.modified().ok()?.elapsed().ok()
}

/// The worker id stamped on a claim's first line, best effort.
fn claim_holder(path: &Path) -> String {
    let Ok(text) = std::fs::read_to_string(path) else { return "unknown".into() };
    let Some(line) = text.lines().next() else { return "unknown".into() };
    match trrip_obs::json::parse(line) {
        Ok(stamp) => stamp
            .get("worker")
            .and_then(trrip_obs::json::Json::as_str)
            .unwrap_or("unknown")
            .to_owned(),
        Err(_) => "unknown".into(),
    }
}

/// Reclaims a stale claim by renaming it away: atomic, so a
/// double-reclaim race resolves to exactly one winner. Returns whether
/// this caller won.
fn try_reclaim(path: &Path, worker: &str, age: Duration) -> bool {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let trash = path.with_extension(format!("reclaim.{}.{seq}", std::process::id()));
    let holder = claim_holder(path);
    if std::fs::rename(path, &trash).is_err() {
        return false; // the other reclaimer (or a release) won
    }
    let _ = std::fs::remove_file(&trash);
    trrip_obs::counter!("coord.claim_reclaimed").incr();
    trrip_obs::event(
        "claim_reclaimed",
        &[
            ("worker", trrip_obs::Field::Str(worker)),
            ("prev_worker", trrip_obs::Field::Str(&holder)),
            ("claim", trrip_obs::Field::Str(&file_name(path))),
            ("stale_ms", trrip_obs::Field::U64(age.as_millis() as u64)),
        ],
    );
    true
}

/// Releases a held claim — but only if we still own it. A missing file
/// or a different holder means the claim was reclaimed while we ran
/// (e.g. a stalled heartbeat): benign, because fragments are
/// deterministic and both sides publish identical bytes, but counted
/// and journaled, and the reclaimer's fresh claim is left untouched.
fn release_claim(path: &Path, worker: &str, report: &mut WorkerReport) {
    let still_ours = path.exists() && claim_holder(path) == worker;
    if still_ours {
        match std::fs::remove_file(path) {
            Ok(()) => return,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {} // lost the race after all
            Err(_) => return,
        }
    }
    report.lost_claims += 1;
    trrip_obs::counter!("coord.claim_lost").incr();
    trrip_obs::event(
        "claim_lost",
        &[
            ("worker", trrip_obs::Field::Str(worker)),
            ("claim", trrip_obs::Field::Str(&file_name(path))),
        ],
    );
}

/// Jittered exponential backoff, seeded per worker so stampedes spread.
struct Backoff {
    state: u64,
    base: Duration,
    exp: u32,
}

impl Backoff {
    fn new(worker: &str, base: Duration) -> Backoff {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(std::process::id());
        for b in worker.bytes() {
            seed = (seed ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        Backoff { state: seed | 1, base: base.max(Duration::from_millis(1)), exp: 0 }
    }

    fn reset(&mut self) {
        self.exp = 0;
    }

    fn next(&mut self) -> Duration {
        // xorshift64
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let span = self.base.saturating_mul(1 << self.exp.min(5));
        self.exp = (self.exp + 1).min(5);
        // [span/2, span): exponential with ±-ish jitter.
        span / 2 + Duration::from_micros(self.state % (span.as_micros().max(2) as u64 / 2))
    }
}

// ---------------------------------------------------------------------
// The worker
// ---------------------------------------------------------------------

/// Reads task `path`'s fragment: `Some` when the file exists **and
/// validates**, `None` when it is missing or damaged. A damaged fragment
/// (torn write landed by a fault or a dying writer racing rename — the
/// container checksum catches it) is reported and deleted so the task
/// re-runs.
///
/// # Errors
///
/// Filesystem failures other than a missing file.
fn valid_fragment(path: &Path) -> Result<Option<SimResult>, CoordError> {
    match read_fragment(path) {
        Ok(fragment) => Ok(Some(fragment)),
        Err(CoordError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(CoordError::Io(e)) => Err(CoordError::Io(e)),
        Err(e) => {
            trrip_obs::counter!("coord.fragment_damaged").incr();
            artifact_damaged("result fragment", &file_name(path), &e, "re-running segment");
            let _ = std::fs::remove_file(path);
            Ok(None)
        }
    }
}

/// What one visit of the file backend found for a task.
enum Visit {
    /// A valid fragment is on disk.
    Done,
    /// Not runnable yet: no live carry and no persisted chain link.
    Blocked,
    /// Another worker holds a live claim on it.
    Busy,
    /// This worker now holds its claim.
    Claimed,
}

/// The file claim backend of the segment-task loop: `O_EXCL` claim
/// files, stale-claim reclamation, jittered backoff and fragment files.
/// It visits the tasks in passes; a worker exits only after one full
/// pass read every fragment back valid — it never trusts its own
/// publish, so a torn own-write is caught by the same checksum scan as
/// anyone else's.
struct FileClaims<'a> {
    tasks: &'a SegmentTasks<'a>,
    checkpoints: &'a CheckpointStore,
    opts: &'a WorkerOptions,
    /// Claims held right now, heartbeated by the worker's second thread.
    held: &'a Mutex<Vec<PathBuf>>,
    report: WorkerReport,
    backoff: Backoff,
    /// The next task (flat index) the current pass visits.
    cursor: usize,
    /// Tasks the current pass found without a valid fragment.
    incomplete: usize,
    /// Whether the current pass published anything.
    progressed: bool,
    fruitless_passes: u32,
}

impl FileClaims<'_> {
    /// Task `(cell, seg)`'s claim and fragment paths.
    fn paths(&self, cell: usize, seg: usize) -> (PathBuf, PathBuf) {
        let (wi, config) = &self.tasks.cells[cell];
        task_paths(
            self.checkpoints,
            &self.tasks.sweep.workloads[*wi],
            config,
            &self.tasks.plan,
            seg,
        )
    }

    fn conflict(&mut self) -> Visit {
        trrip_obs::counter!("coord.claim_conflict").incr();
        self.report.conflicts += 1;
        Visit::Busy
    }

    /// Visits task `(cell, seg)`: checks its fragment, then — if it is
    /// runnable (a live carry, the chain's first segment, or a persisted
    /// chain link) — reclaims a stale claim and acquires it.
    fn visit(&mut self, cell: usize, seg: usize, live_carry: bool) -> Visit {
        let (claim, fragment) = self.paths(cell, seg);
        if matches!(valid_fragment(&fragment), Ok(Some(_))) {
            return Visit::Done;
        }
        self.incomplete += 1;
        // After repeated fruitless passes every task is fair game cold:
        // liveness must not hinge on chain links that may never appear
        // (deleted stores, damaged link + dead owner).
        let force_cold = self.fruitless_passes >= 3;
        if !(live_carry || seg == 0 || self.tasks.has_link(cell, seg) || force_cold) {
            return Visit::Blocked;
        }
        if claim.exists() {
            match claim_age(&claim) {
                Some(age) if age > self.opts.stale_after => {
                    if !try_reclaim(&claim, &self.opts.worker, age) {
                        return Visit::Busy;
                    }
                    self.report.reclaims += 1;
                }
                _ => return self.conflict(),
            }
        }
        match try_acquire(&claim, &self.opts.worker) {
            Ok(true) => {}
            Ok(false) => return self.conflict(),
            Err(e) => panic!("acquiring claim {}: {e}", claim.display()),
        }
        self.report.claims += 1;
        trrip_obs::counter!("coord.claim").incr();
        trrip_obs::event(
            "claim_acquired",
            &[
                ("worker", trrip_obs::Field::Str(&self.opts.worker)),
                ("cell", trrip_obs::Field::U64(cell as u64)),
                ("segment", trrip_obs::Field::U64(seg as u64)),
            ],
        );
        self.held.lock().expect("held-claims lock").push(claim);
        if force_cold && !live_carry && seg != 0 {
            self.report.cold_forced += 1;
            trrip_obs::counter!("coord.cold_forced").incr();
        }
        // A kill here dies holding a fresh claim with no progress: the
        // pure stale-claim-reclamation path.
        trrip_obs::fault!("coord.claim.acquired");
        Visit::Claimed
    }
}

impl Claims for FileClaims<'_> {
    fn next(&mut self) -> Option<(usize, usize)> {
        let segments = self.tasks.plan.segments();
        let total = self.tasks.cells.len() * segments;
        loop {
            if self.cursor == total {
                if self.incomplete == 0 {
                    return None;
                }
                if self.progressed {
                    self.fruitless_passes = 0;
                    self.backoff.reset();
                } else {
                    self.fruitless_passes += 1;
                    trrip_obs::counter!("coord.backoff").incr();
                    std::thread::sleep(self.backoff.next());
                }
                (self.cursor, self.incomplete, self.progressed) = (0, 0, false);
            }
            let (cell, seg) = (self.cursor / segments, self.cursor % segments);
            self.cursor += 1;
            match self.visit(cell, seg, false) {
                Visit::Claimed => return Some((cell, seg)),
                // The rest of this chain is blocked too.
                Visit::Blocked => self.cursor = (cell + 1) * segments,
                Visit::Done | Visit::Busy => {}
            }
        }
    }

    fn claim_successor(&mut self, cell: usize, segment: usize) -> bool {
        self.cursor = cell * self.tasks.plan.segments() + segment + 1;
        matches!(self.visit(cell, segment, true), Visit::Claimed)
    }

    fn publish(&mut self, cell: usize, segment: usize, fragment: SimResult) {
        // A kill here dies mid-measure from the sweep's point of view:
        // segment simulated, chain link saved, fragment not yet
        // published, claim held.
        trrip_obs::fault!("coord.segment.done");
        let (claim, path) = self.paths(cell, segment);
        write_fragment(&path, &fragment)
            .unwrap_or_else(|e| panic!("writing fragment {}: {e}", path.display()));
        self.report.fragments += 1;
        trrip_obs::counter!("coord.fragment_saved").incr();
        trrip_obs::event(
            "fragment_saved",
            &[
                ("worker", trrip_obs::Field::Str(&self.opts.worker)),
                ("cell", trrip_obs::Field::U64(cell as u64)),
                ("segment", trrip_obs::Field::U64(segment as u64)),
            ],
        );
        self.held.lock().expect("held-claims lock").retain(|p| p != &claim);
        release_claim(&claim, &self.opts.worker, &mut self.report);
        self.progressed = true;
    }
}

/// Runs one worker of a coordinated multi-process sweep to completion:
/// claims runnable segment tasks, executes them through the
/// segment-task loop (live carry → chained checkpoint → cold fallback),
/// persists fragments, heartbeats its claims, and reclaims stale claims
/// left by dead workers. Returns when every task of the sweep has a
/// fragment.
///
/// Any number of workers — in this process, in others, on a shared
/// filesystem — may run this concurrently with the same arguments; the
/// claim files arbitrate. Results are collected separately with
/// [`collect_results`].
///
/// # Panics
///
/// Panics if a trace cannot be captured or replayed (as the sharded
/// executor does).
pub fn coordinate_worker(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    traces: &TraceStore,
    checkpoints: &CheckpointStore,
    shards: usize,
    opts: &WorkerOptions,
) -> WorkerReport {
    let sweep =
        Sweep::new(workloads, config, policies).replay(traces, Some(checkpoints)).shards(shards);
    // Captures are temp+rename, so racing workers are safe — they just
    // duplicate work.
    let tasks = SegmentTasks {
        sweep: &sweep,
        cells: sweep.cells(),
        plan: sweep.plan(),
        paths: sweep.capture(1, traces),
    };

    trrip_obs::event(
        "worker_started",
        &[
            ("worker", trrip_obs::Field::Str(&opts.worker)),
            ("pid", trrip_obs::Field::U64(u64::from(std::process::id()))),
            ("cells", trrip_obs::Field::U64(tasks.cells.len() as u64)),
            ("segments", trrip_obs::Field::U64(tasks.plan.segments() as u64)),
        ],
    );

    let held: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let mut claims = FileClaims {
        tasks: &tasks,
        checkpoints,
        opts,
        held: &held,
        report: WorkerReport::default(),
        backoff: Backoff::new(&opts.worker, opts.poll),
        cursor: 0,
        incomplete: 0,
        progressed: false,
        fruitless_passes: 0,
    };

    std::thread::scope(|scope| {
        // The heartbeat thread: touch every held claim each period. A
        // `coord.heartbeat` delay fault stretches a beat past the
        // staleness deadline — the delayed-heartbeat scenario.
        scope.spawn(|| {
            let mut beat = 0u64;
            while !stop.load(Ordering::Relaxed) {
                trrip_obs::fault!("coord.heartbeat");
                beat += 1;
                let claims = held.lock().expect("held-claims lock").clone();
                for path in &claims {
                    touch_claim(path, beat);
                }
                trrip_obs::event(
                    "heartbeat",
                    &[
                        ("worker", trrip_obs::Field::Str(&opts.worker)),
                        ("beat", trrip_obs::Field::U64(beat)),
                        ("held", trrip_obs::Field::U64(claims.len() as u64)),
                    ],
                );
                std::thread::sleep(opts.heartbeat);
            }
        });
        tasks.work(&mut claims);
        stop.store(true, Ordering::Relaxed);
    });

    let report = claims.report;
    trrip_obs::event(
        "worker_finished",
        &[
            ("worker", trrip_obs::Field::Str(&opts.worker)),
            ("fragments", trrip_obs::Field::U64(report.fragments as u64)),
            ("claims", trrip_obs::Field::U64(report.claims as u64)),
            ("reclaims", trrip_obs::Field::U64(report.reclaims as u64)),
        ],
    );
    report
}

// ---------------------------------------------------------------------
// The collector
// ---------------------------------------------------------------------

/// Merges a coordinated sweep's fragments into a [`SweepResult`] — the
/// plan's fragment fold over the fragments on disk, bit-identical to the
/// single-process sharded sweep over the same inputs. Returns `Ok(None)`
/// while any fragment is missing or damaged (damaged ones are deleted so
/// a worker pass can heal them).
///
/// # Errors
///
/// Filesystem failures other than missing fragments.
pub fn collect_results(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    checkpoints: &CheckpointStore,
    shards: usize,
) -> Result<Option<SweepResult>, CoordError> {
    let sweep = Sweep::new(workloads, config, policies);
    let plan = ShardPlan::new(config, shards);
    let mut fragments = Vec::new();
    for (wi, cell_config) in sweep.cells() {
        for seg in 0..plan.segments() {
            let (_, path) = task_paths(checkpoints, &workloads[wi], &cell_config, &plan, seg);
            match valid_fragment(&path)? {
                Some(fragment) => fragments.push(fragment),
                None => return Ok(None),
            }
        }
    }
    Ok(Some(sweep.fold(plan.segments(), fragments)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("trrip-coordinate-unit");
        std::fs::create_dir_all(&dir).expect("test dir");
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn fragment_roundtrip_and_damage_detection() {
        let mut result = SimResult {
            benchmark: "frag-test".into(),
            policy: PolicyKind::Trrip1,
            core: trrip_cpu::CoreResult {
                instructions: 123_456,
                cycles: 98_765.5,
                topdown: trrip_cpu::TopDown::default(),
                branches: 77,
                mispredictions: 5,
                dispatch_width: 8,
            },
            l1i: trrip_cache::AccessStats::default(),
            l1d: trrip_cache::AccessStats::default(),
            l2: trrip_cache::AccessStats::default(),
            slc: trrip_cache::AccessStats::default(),
            tlb: trrip_os::TlbStats::default(),
            pages: trrip_os::PageStats::default(),
            reuse_base: Some(trrip_analysis::ReuseHistogram::default()),
            reuse_hot_only: None,
            costly: None,
        };
        result.core.topdown.ifetch = 11.25;
        result.l2.inst_misses = 42;
        result.pages.hot = 7;
        result.tlb.misses = 9;

        let path = scratch("roundtrip.frag");
        write_fragment(&path, &result).expect("write");
        let back = read_fragment(&path).expect("read");
        assert_eq!(back.benchmark, result.benchmark);
        assert_eq!(back.policy, result.policy);
        assert_eq!(back.core.instructions, result.core.instructions);
        assert_eq!(back.core.cycles.to_bits(), result.core.cycles.to_bits());
        assert_eq!(back.core.topdown.ifetch.to_bits(), result.core.topdown.ifetch.to_bits());
        assert_eq!(back.core.dispatch_width, 8);
        assert_eq!(back.l2.inst_misses, 42);
        assert_eq!(back.pages.hot, 7);
        assert_eq!(back.tlb.misses, 9);
        assert!(back.reuse_base.is_some() && back.reuse_hot_only.is_none());
        assert!(back.costly.is_none());

        // A flipped body byte fails the checksum; truncation fails the
        // length check.
        trrip_snap::corrupt::flip_middle_byte(&path);
        assert!(matches!(read_fragment(&path), Err(CoordError::Corrupt(_))));
        write_fragment(&path, &result).expect("rewrite");
        trrip_snap::corrupt::truncate_file(&path, trrip_snap::corrupt::file_len(&path) - 3);
        assert!(matches!(read_fragment(&path), Err(CoordError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }

    /// Every single-byte mutation of a profiler-free fragment — every
    /// position, every other byte value — yields a typed error or the
    /// identical result, never a panic or a different tally.
    #[test]
    fn every_single_byte_fragment_mutation_is_rejected_or_harmless() {
        let mut result = SimResult {
            benchmark: "mutation".into(),
            policy: PolicyKind::Trrip2,
            core: trrip_cpu::CoreResult {
                instructions: 3_000_000,
                cycles: 1_234_567.25,
                topdown: trrip_cpu::TopDown::default(),
                branches: 400_000,
                mispredictions: 12_345,
                dispatch_width: 8,
            },
            l1i: trrip_cache::AccessStats::default(),
            l1d: trrip_cache::AccessStats::default(),
            l2: trrip_cache::AccessStats::default(),
            slc: trrip_cache::AccessStats::default(),
            tlb: trrip_os::TlbStats { hits: 99_000, misses: 1_000 },
            pages: trrip_os::PageStats::default(),
            reuse_base: None,
            reuse_hot_only: None,
            costly: None,
        };
        result.core.topdown.mem = 0.375;
        result.l2.inst_misses = 4_242;
        result.pages.hot = 17;

        let path = scratch("mutation.frag");
        write_fragment(&path, &result).expect("write");
        let pristine = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let decode = |bytes: &[u8]| -> Result<SimResult, CoordError> {
            let (_, body) = FRAGMENT.open(bytes).map_err(|e| CoordError::Corrupt(e.to_string()))?;
            restore_result(body)
        };
        let original = save_result(&decode(&pristine).expect("pristine fragment decodes"));
        assert_eq!(original, save_result(&result));

        let mut mutated = pristine.clone();
        for pos in 0..pristine.len() {
            for delta in 1..=255u8 {
                mutated[pos] = pristine[pos] ^ delta;
                if let Ok(decoded) = decode(&mutated) {
                    assert!(
                        save_result(&decoded) == original,
                        "byte {pos} ^ {delta:#04x} decoded to a different result"
                    );
                }
            }
            mutated[pos] = pristine[pos];
        }
    }

    #[test]
    fn claims_have_single_winners_and_stamped_holders() {
        let path = scratch("acquire.claim");
        let _ = std::fs::remove_file(&path);
        assert!(try_acquire(&path, "w0").expect("acquire"));
        assert!(!try_acquire(&path, "w1").expect("second acquire loses"));
        assert_eq!(claim_holder(&path), "w0");
        assert!(claim_age(&path).expect("age") < Duration::from_secs(5));

        // Heartbeats append without tearing the stamp line.
        touch_claim(&path, 1);
        touch_claim(&path, 2);
        assert_eq!(claim_holder(&path), "w0");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 3);

        // Reclaim renames the file away exactly once.
        assert!(try_reclaim(&path, "w1", Duration::from_secs(9)));
        assert!(!path.exists());
        assert!(!try_reclaim(&path, "w2", Duration::from_secs(9)), "second reclaim loses");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn backoff_grows_jittered_and_bounded() {
        let mut backoff = Backoff::new("w0", Duration::from_millis(8));
        let mut last = Duration::ZERO;
        for i in 0..8 {
            let d = backoff.next();
            assert!(d >= Duration::from_millis(4), "sleep {i} too short: {d:?}");
            assert!(d < Duration::from_millis(8 * 32), "sleep {i} unbounded: {d:?}");
            last = last.max(d);
        }
        assert!(last > Duration::from_millis(64), "backoff must actually grow");
        backoff.reset();
        assert!(backoff.next() < Duration::from_millis(8));

        // Distinct workers get distinct jitter streams.
        let mut a = Backoff::new("w1", Duration::from_millis(8));
        let mut b = Backoff::new("w2", Duration::from_millis(8));
        let sa: Vec<Duration> = (0..4).map(|_| a.next()).collect();
        let sb: Vec<Duration> = (0..4).map(|_| b.next()).collect();
        assert_ne!(sa, sb, "jitter must differ per worker");
    }
}
