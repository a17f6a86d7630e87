//! Checkpointing: persist a warmed [`SimRun`] and restore it later —
//! in the same process or a different one — skipping fast-forward.
//!
//! # File format
//!
//! ```text
//! file := magic:8 version:u16 body_len:u64 body checksum:u64
//! body := kind:u8 meta payload    (one trrip-snap stream; v3+)
//! body := meta payload            (v1/v2, implicitly kind = full)
//! meta := benchmark:str policy:str fingerprint:u64 config_hash:u64
//!         stream_position:u64 mid_measure:bool
//! ```
//!
//! The framing is the shared `Container` (result fragments use it
//! too): fixed-width fields are little-endian, the checksum covers every
//! body byte (and, from v5, the version field), `body_len` makes
//! truncation detectable before the checksum is even consulted, and
//! writes go to a sibling temp file renamed into place, so concurrent
//! sweep processes sharing a checkpoint directory never observe a
//! half-written file. The body is a `trrip-snap` stream whose trailing
//! `payload` field holds the snapshot.
//!
//! # Container v3: the split warm prefix
//!
//! v3 tags every container with a [`CheckpointKind`]:
//!
//! * **full** — a complete [`SimRun`] state (fast-forward boundary or
//!   mid-measure segment chain link), as in v1/v2;
//! * **shared prefix** — the *policy-agnostic* half of one workload's
//!   fast-forward state: the branch predictor section plus the recorded
//!   [`WarmupTape`] (mispredict bits + FDIP stop counts). One file per
//!   workload, keyed **without** the L2 policy
//!   ([`warmup_prefix_hash`]);
//! * **policy overlay** — the *policy-dependent* rest (caches with
//!   tag/RRPV/policy state, MMU/TLB, prefetch tables, in-flight
//!   tracker, starvation FIFO). One small-ish file per `(workload,
//!   policy)`.
//!
//! `shared prefix + overlay` composes bit-identically to the full
//! fast-forward state; a policy with no overlay yet warm-starts by
//! replaying the tape against its own cold machine
//! ([`SimRun::fast_forward_replayed`]) — so the cold populating pass
//! pays **one** full warmup per workload instead of one per policy.
//! v1/v2 files remain readable (they restore as `full`).
//!
//! # Keying
//!
//! A checkpoint is only valid for the exact warmup it captured, so
//! [`CheckpointStore`] keys files by:
//!
//! * the **workload fingerprint** ([`crate::capture::workload_fingerprint`]):
//!   exact code placement + walk inputs, shared with the trace store, so
//!   classifier sweeps (fig8) never reuse a stale warmed state;
//! * a **warmup configuration hash** ([`warmup_config_hash`]): every
//!   machine parameter that shapes architectural state (core, predictor,
//!   hierarchy geometry + policy, page size, overlap policy, layout, and
//!   the fast-forward length). The *measured* window length and the
//!   profiler flags are deliberately excluded — a warmed state is
//!   reusable under any measure window, which is what lets fig6/fig8/
//!   fig9 share warmups where their machines agree. Shared-prefix files
//!   use the policy-free variant ([`warmup_prefix_hash`]) so every
//!   policy's cell resolves the same prefix.

use std::io::Write;
use std::path::{Path, PathBuf};

use trrip_compiler::LayoutKind;
use trrip_cpu::WarmupTape;
use trrip_os::OverlapPolicy;
use trrip_policies::PolicyKind;
use trrip_snap::{Checksum, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::capture::{trace_layout, workload_fingerprint};
use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;
use crate::system::SimRun;

/// Checkpoint file magic: `b"TRRIPCKP"`.
pub const MAGIC: [u8; 8] = *b"TRRIPCKP";
/// Current checkpoint format version. v5 is v4's layout with the
/// version field folded into the container checksum, so a damaged
/// version can no longer hand a v4+ body to the v1–v3 decoders. v4
/// compresses the snapshot
/// payload as a [`trrip_pack::pack_stream`] — per 64 KiB block the best
/// of RLE / delta-pack / LZ / raw, each block tagged with its codec and
/// the checksum of its *uncompressed* bytes, so the kind-aware choice
/// (RLE for valid/dirty/instr bitmaps, delta for sorted tag arrays, LZ
/// for the rest) falls out of per-block selection. v3 containers carry
/// a [`CheckpointKind`] tag so one store holds full states, shared
/// prefixes, and policy overlays side by side. v2 introduced the bitmap
/// cache-tag encoding and the segmented run-tally layout. v1–v4 files
/// remain readable: a pre-v4 payload is stored verbatim, a pre-v3 body
/// restores as [`CheckpointKind::Full`], and the component encodings
/// inside payloads are tag-dispatched (see `trrip_cache::Cache` and
/// `trrip_cpu::RunState`).
pub const VERSION: u16 = 5;

/// What a v3 container holds (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A complete [`SimRun`] state (fast-forward or mid-measure).
    Full,
    /// A workload's policy-agnostic warm prefix: predictor section +
    /// recorded warmup tape.
    SharedPrefix,
    /// One policy's policy-dependent fast-forward state.
    PolicyOverlay,
}

impl CheckpointKind {
    fn as_u8(self) -> u8 {
        match self {
            CheckpointKind::Full => 0,
            CheckpointKind::SharedPrefix => 1,
            CheckpointKind::PolicyOverlay => 2,
        }
    }

    fn from_u8(raw: u8) -> Option<CheckpointKind> {
        match raw {
            0 => Some(CheckpointKind::Full),
            1 => Some(CheckpointKind::SharedPrefix),
            2 => Some(CheckpointKind::PolicyOverlay),
            _ => None,
        }
    }
}

/// Everything that can go wrong reading or writing a checkpoint, or any
/// other container in its framing (result fragments share it).
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (including truncation mid-body).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u16),
    /// Body bytes do not hash to the trailing checksum.
    ChecksumMismatch {
        /// Checksum the file promises.
        expected: u64,
        /// Checksum the body actually hashes to.
        found: u64,
    },
    /// Structurally invalid content; the message says what.
    Corrupt(String),
    /// The checkpoint is valid but was captured for a different
    /// (workload, configuration) key.
    KeyMismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::BadMagic => f.write_str("bad magic"),
            CheckpointError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CheckpointError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: file {expected:#018x}, body {found:#018x}")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt container: {what}"),
            CheckpointError::KeyMismatch(what) => write!(f, "checkpoint key mismatch: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

impl From<SnapError> for CheckpointError {
    fn from(e: SnapError) -> CheckpointError {
        CheckpointError::Corrupt(e.to_string())
    }
}

impl From<trrip_pack::PackError> for CheckpointError {
    fn from(e: trrip_pack::PackError) -> CheckpointError {
        CheckpointError::Corrupt(e.to_string())
    }
}

/// The checksummed on-disk container checkpoints and result fragments
/// share: `magic:8 version:u16 body_len:u64 body checksum:u64`, fixed
/// fields little-endian. The checksum (`trrip-trace`'s word-folded
/// chunk hash) covers the body and, from `bound_from` on, the version
/// field, so a damaged version cannot route a body to another version's
/// decoder.
pub(crate) struct Container {
    /// The file magic.
    pub(crate) magic: [u8; 8],
    /// The version this build writes; reads accept every version up to
    /// it.
    pub(crate) version: u16,
    /// The first version whose checksum covers the version field.
    pub(crate) bound_from: u16,
    /// The fault seam between flushing the temp file and renaming it
    /// into place.
    pub(crate) seam: &'static str,
}

impl Container {
    fn checksum(&self, version: u16, body: &[u8]) -> u64 {
        let mut checksum = Checksum::new();
        if version >= self.bound_from {
            checksum.update(&version.to_le_bytes());
        }
        checksum.update(body);
        checksum.value()
    }

    /// Writes `body` as a container at `path`, atomically: into a
    /// sibling temp file, through the fault seam, then renamed into
    /// place — so concurrent processes sharing a directory never observe
    /// a half-written file.
    pub(crate) fn write(&self, path: &Path, body: &[u8]) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // Unique per process AND per call: shard workers in one process
        // can write the same file concurrently (a producer's save racing
        // a cold fallback's chain repair), and both must land atomically.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            file.write_all(&self.magic)?;
            file.write_all(&self.version.to_le_bytes())?;
            file.write_all(&(body.len() as u64).to_le_bytes())?;
            file.write_all(body)?;
            file.write_all(&self.checksum(self.version, body).to_le_bytes())?;
            file.flush()?;
        }
        // The torn-write seam: an armed fault tears/damages the flushed
        // temp file (the rename then publishes a bad container, which
        // reads must reject) or kills the process here (the rename never
        // happens; only a temp is left).
        trrip_obs::fault!(self.seam, &tmp);
        std::fs::rename(&tmp, path)
    }

    /// Verifies a container's framing — magic, version, length and
    /// checksum — and returns its version and body.
    ///
    /// # Errors
    ///
    /// `BadMagic`, `UnsupportedVersion`, `ChecksumMismatch`, or
    /// `Corrupt` for a truncated header or a length that does not match
    /// the bytes.
    pub(crate) fn open<'b>(&self, bytes: &'b [u8]) -> Result<(u16, &'b [u8]), CheckpointError> {
        let header = bytes.get(..18).ok_or_else(|| {
            CheckpointError::Corrupt(format!("{} bytes cannot hold a header", bytes.len()))
        })?;
        if header[..8] != self.magic {
            return Err(CheckpointError::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version > self.version {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let body_len = u64::from_le_bytes(header[10..18].try_into().expect("8 bytes"));
        if usize::try_from(body_len).ok().and_then(|n| n.checked_add(26)) != Some(bytes.len()) {
            return Err(CheckpointError::Corrupt(format!(
                "body length {body_len} does not match the file ({} bytes)",
                bytes.len()
            )));
        }
        let (body, tail) = bytes[18..].split_at(bytes.len() - 26);
        let expected = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let found = self.checksum(version, body);
        if found != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }
        Ok((version, body))
    }
}

/// The checkpoint container.
const CHECKPOINT: Container =
    Container { magic: MAGIC, version: VERSION, bound_from: 5, seam: "ckpt.save.partial" };

/// Identity of a checkpoint: what was warmed, under which machine, and
/// how far into the instruction stream the state reaches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 policy display name (warmup state is policy-dependent).
    pub policy: String,
    /// Placement + walk-input fingerprint
    /// ([`crate::capture::workload_fingerprint`]).
    pub fingerprint: u64,
    /// Warmup machine hash ([`warmup_config_hash`]).
    pub config_hash: u64,
    /// Instructions of the workload stream already consumed: resuming
    /// must skip exactly this many before feeding the run.
    pub stream_position: u64,
    /// Whether the snapshot was taken mid-measure (carries in-flight
    /// run state) rather than at the fast-forward boundary.
    pub mid_measure: bool,
}

impl CheckpointMeta {
    fn save(&self, w: &mut SnapWriter) {
        w.str(&self.benchmark);
        w.str(&self.policy);
        w.u64(self.fingerprint);
        w.u64(self.config_hash);
        w.u64(self.stream_position);
        w.bool(self.mid_measure);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<CheckpointMeta, SnapError> {
        Ok(CheckpointMeta {
            benchmark: r.str()?,
            policy: r.str()?,
            fingerprint: r.u64()?,
            config_hash: r.u64()?,
            stream_position: r.u64()?,
            mid_measure: r.bool()?,
        })
    }
}

fn overlap_tag(overlap: OverlapPolicy) -> u8 {
    match overlap {
        OverlapPolicy::FirstByte => 0,
        OverlapPolicy::DropMixed => 1,
        OverlapPolicy::Hottest => 2,
    }
}

/// Hashes every configuration knob that shapes warmed architectural
/// state. Two configs with equal hashes produce interchangeable
/// fast-forward states for the same workload fingerprint; anything that
/// moves a single bit of warmup state (cache geometry, policy,
/// predictor sizing, page size, fast-forward length…) moves the hash.
#[must_use]
pub fn warmup_config_hash(config: &SimConfig) -> u64 {
    warmup_hash(config, true)
}

/// [`warmup_config_hash`] **without the L2 policy**: the key of a
/// shared-prefix container. The prefix holds only policy-agnostic state
/// (predictor + warmup tape), so every policy of a sweep must resolve
/// the same file — the one knob that must *not* move the hash is the
/// policy itself.
#[must_use]
pub fn warmup_prefix_hash(config: &SimConfig) -> u64 {
    warmup_hash(config, false)
}

fn warmup_hash(config: &SimConfig, include_policy: bool) -> u64 {
    let mut w = SnapWriter::new();
    w.u64(u64::from(config.core.dispatch_width));
    w.u64(u64::from(config.core.rob_entries));
    w.usize(config.core.predictor.btb_entries);
    w.usize(config.core.predictor.indirect_btb_entries);
    w.usize(config.core.predictor.loop_entries);
    w.usize(config.core.predictor.global_entries);
    w.usize(config.core.predictor.ras_depth);
    w.u64(config.core.predictor.mispredict_penalty);
    w.bool(config.core.fdip);
    w.usize(config.core.fdip_lookahead_instrs);
    w.usize(config.core.fdip_max_lines);
    w.u64(config.core.l1_hit_cycles);
    w.u64(config.core.starvation_threshold);
    for cache in
        [&config.hierarchy.l1i, &config.hierarchy.l1d, &config.hierarchy.l2, &config.hierarchy.slc]
    {
        w.u64(cache.size_bytes);
        w.usize(cache.ways);
        w.u64(cache.tag_latency);
        w.u64(cache.data_latency);
    }
    w.u64(config.hierarchy.dram_latency);
    if include_policy {
        w.str(config.hierarchy.l2_policy.name());
    }
    w.u64(config.page_size.bytes());
    w.u8(overlap_tag(config.overlap));
    w.u8(match config.layout {
        LayoutKind::SourceOrder => 0,
        LayoutKind::Pgo => 1,
    });
    w.u64(config.fast_forward);

    let mut checksum = Checksum::new();
    checksum.update(w.bytes());
    checksum.value()
}

/// Writes a [`CheckpointKind::Full`] checkpoint file atomically
/// (sibling temp file + rename). Prefix/overlay containers go through
/// [`write_checkpoint_kind`].
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_checkpoint(
    path: &Path,
    meta: &CheckpointMeta,
    payload: &[u8],
) -> Result<(), CheckpointError> {
    write_checkpoint_kind(path, CheckpointKind::Full, meta, payload)
}

/// Writes a checkpoint container of any [`CheckpointKind`] atomically
/// (sibling temp file + rename).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_checkpoint_kind(
    path: &Path,
    kind: CheckpointKind,
    meta: &CheckpointMeta,
    payload: &[u8],
) -> Result<(), CheckpointError> {
    let mut body = SnapWriter::new();
    body.u8(kind.as_u8());
    meta.save(&mut body);
    // v4: the snapshot payload rests as a checksummed pack stream —
    // per-block codec selection gives bitmaps RLE, sorted tag arrays
    // delta, and everything else LZ (or raw when incompressible).
    body.bytes_field(&trrip_pack::pack_stream(payload, &[]));
    CHECKPOINT.write(path, &body.into_bytes())?;
    Ok(())
}

/// Bounded retry attempts for transient I/O on store load paths.
const RETRY_ATTEMPTS: u32 = 3;

/// Transient I/O: interruptions and contention that a bounded retry is
/// allowed to absorb. Everything else (missing files, corruption,
/// permissions) surfaces immediately.
fn is_transient(e: &CheckpointError) -> bool {
    matches!(
        e,
        CheckpointError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        )
    )
}

/// Runs `op` up to [`RETRY_ATTEMPTS`] times, backing off briefly
/// between attempts, retrying only [transient](is_transient) failures.
/// Every retry counts into `ckpt.retry`.
fn retry_transient<T>(
    mut op: impl FnMut() -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let mut attempt = 1;
    loop {
        match op() {
            Err(e) if is_transient(&e) && attempt < RETRY_ATTEMPTS => {
                trrip_obs::counter!("ckpt.retry").incr();
                std::thread::sleep(std::time::Duration::from_millis(5 << attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Reads and verifies a checkpoint file: magic, version, length and
/// checksum. Returns the container kind, the metadata and the snapshot
/// payload. Pre-v3 files carry no kind byte and restore as
/// [`CheckpointKind::Full`].
///
/// # Errors
///
/// Every [`CheckpointError`] variant except `KeyMismatch` — a
/// truncated file surfaces as `Io`/`Corrupt`, a flipped body byte as
/// `ChecksumMismatch`.
pub fn read_checkpoint(
    path: &Path,
) -> Result<(CheckpointKind, CheckpointMeta, Vec<u8>), CheckpointError> {
    decode_checkpoint(&std::fs::read(path)?)
}

/// [`read_checkpoint`] over a container's bytes.
fn decode_checkpoint(
    bytes: &[u8],
) -> Result<(CheckpointKind, CheckpointMeta, Vec<u8>), CheckpointError> {
    let (version, body) = CHECKPOINT.open(bytes)?;
    let mut r = SnapReader::new(body);
    let kind = if version >= 3 {
        let raw = r.u8()?;
        CheckpointKind::from_u8(raw)
            .ok_or_else(|| CheckpointError::Corrupt(format!("unknown container kind {raw}")))?
    } else {
        CheckpointKind::Full
    };
    let meta = CheckpointMeta::restore(&mut r)?;
    let stored = r.bytes_field()?;
    let payload = if version >= 4 {
        trrip_pack::unpack_stream(stored, &[])?
    } else {
        stored.to_vec() // pre-v4 payloads rest uncompressed
    };
    r.finish()?;
    Ok((kind, meta, payload))
}

/// Counts one store load outcome into the `ckpt.*` registry family:
/// `Ok(Some)` is a hit, `Ok(None)` a miss (absent or differently-keyed
/// file), `Err` a damaged container. Saves count as `ckpt.save`.
fn count_load<T>(result: Result<Option<T>, CheckpointError>) -> Result<Option<T>, CheckpointError> {
    match &result {
        Ok(Some(_)) => trrip_obs::counter!("ckpt.hit").incr(),
        Ok(None) => trrip_obs::counter!("ckpt.miss").incr(),
        Err(_) => trrip_obs::counter!("ckpt.corrupt").incr(),
    }
    result
}

/// Reads the container at `path` if it holds a `kind` keyed exactly
/// `expected`, and hands its payload to `decode`. `Ok(None)` for a
/// missing or differently-keyed file; damaged files (including payloads
/// `decode` rejects) are errors. Every outcome counts into `ckpt.*`.
fn load_keyed<T>(
    path: &Path,
    kind: CheckpointKind,
    expected: &CheckpointMeta,
    decode: impl FnOnce(&[u8]) -> Result<T, CheckpointError>,
) -> Result<Option<T>, CheckpointError> {
    let loaded = match retry_transient(|| read_checkpoint(path)) {
        Ok((k, meta, payload)) if k == kind && &meta == expected => decode(&payload).map(Some),
        Ok(_) => Ok(None),
        Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    };
    count_load(loaded)
}

/// Writes a `kind` container keyed `meta` holding `save`'s snapshot to
/// `path`, counting the save.
fn save_keyed(
    path: PathBuf,
    kind: CheckpointKind,
    meta: &CheckpointMeta,
    save: impl FnOnce(&mut SnapWriter),
) -> Result<PathBuf, CheckpointError> {
    let mut payload = SnapWriter::new();
    save(&mut payload);
    write_checkpoint_kind(&path, kind, meta, payload.bytes())?;
    trrip_obs::counter!("ckpt.save").incr();
    Ok(path)
}

/// Restores a whole-run payload into a freshly constructed [`SimRun`].
fn restore_run<'w>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
    payload: &[u8],
) -> Result<SimRun<'w>, CheckpointError> {
    let mut run = SimRun::new(workload, config);
    let mut r = SnapReader::new(payload);
    run.restore(&mut r)?;
    r.finish()?;
    Ok(run)
}

/// A directory of warmed-state checkpoints, keyed exactly like the
/// trace store plus the warmup configuration hash. `save` is atomic;
/// `load` verifies checksum and key and returns `Ok(None)` for a
/// missing or differently-keyed file (the caller warms up cold and
/// overwrites), surfacing only damaged files as errors.
///
/// Every load and save feeds the `ckpt.*` counters in the `trrip-obs`
/// registry (`ckpt.hit`/`miss`/`corrupt`/`save`/`gc_files`/`gc_bytes`),
/// so `--metrics` runs report store effectiveness without the store
/// carrying any state of its own.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created lazily on first save).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { dir: dir.into() }
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the fast-forward checkpoint for `(workload, config)` lives.
    #[must_use]
    pub fn path_for(&self, workload: &PreparedWorkload, config: &SimConfig) -> PathBuf {
        self.file(
            workload,
            config,
            Some(config.hierarchy.l2_policy),
            "",
            warmup_config_hash(config),
        )
    }

    /// The store's file naming scheme:
    /// `{benchmark}-{layout}-{policy}-ff{fast_forward}{tag}-{fingerprint}-{hash}.ckpt`,
    /// with `shared` in the policy slot for policy-free files.
    fn file(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
        policy: Option<PolicyKind>,
        tag: &str,
        hash: u64,
    ) -> PathBuf {
        let policy = policy.map_or_else(|| "shared".to_owned(), |p| p.name().to_ascii_lowercase());
        self.dir.join(format!(
            "{}-{}-{policy}-ff{}{tag}-{:016x}-{hash:016x}.ckpt",
            workload.spec.name,
            trace_layout(config.layout).tag(),
            config.fast_forward,
            workload_fingerprint(workload, config),
        ))
    }

    /// The metadata of a container keyed to `(workload, config)`.
    fn key(
        workload: &PreparedWorkload,
        config: &SimConfig,
        policy: &str,
        config_hash: u64,
        measure_position: Option<u64>,
    ) -> CheckpointMeta {
        CheckpointMeta {
            benchmark: workload.spec.name.clone(),
            policy: policy.to_owned(),
            fingerprint: workload_fingerprint(workload, config),
            config_hash,
            stream_position: config.fast_forward + measure_position.unwrap_or(0),
            mid_measure: measure_position.is_some(),
        }
    }

    /// The metadata a valid checkpoint for `(workload, config)` must
    /// carry.
    #[must_use]
    pub fn expected_meta(&self, workload: &PreparedWorkload, config: &SimConfig) -> CheckpointMeta {
        let policy = config.hierarchy.l2_policy.name();
        Self::key(workload, config, policy, warmup_config_hash(config), None)
    }

    /// Whether a loadable checkpoint for `(workload, config)` exists.
    #[must_use]
    pub fn has(&self, workload: &PreparedWorkload, config: &SimConfig) -> bool {
        matches!(self.load(workload, config), Ok(Some(_)))
    }

    /// Whether `(workload, config)` can warm-start without simulating
    /// its own fast-forward: a loadable whole-state checkpoint, or a
    /// loadable shared prefix (with or without this policy's overlay —
    /// a prefix alone warm-starts through the warmup-tail replay).
    #[must_use]
    pub fn has_warm_start(&self, workload: &PreparedWorkload, config: &SimConfig) -> bool {
        self.has(workload, config) || matches!(self.load_prefix(workload, config), Ok(Some(_)))
    }

    /// Saves `run`'s state as the fast-forward checkpoint for its
    /// workload and configuration.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `run` has already started measuring — the store holds
    /// fast-forward-boundary checkpoints only (mid-measure snapshots go
    /// through [`write_checkpoint`] directly, carrying their position).
    pub fn save(&self, run: &SimRun<'_>) -> Result<PathBuf, CheckpointError> {
        assert!(!run.is_measuring(), "the checkpoint store holds fast-forward states only");
        let meta = self.expected_meta(run.workload(), run.config());
        let path = self.path_for(run.workload(), run.config());
        save_keyed(path, CheckpointKind::Full, &meta, |w| run.save(w))
    }

    /// Where the chained **segment** checkpoint lives: the mid-measure
    /// state at measure-phase stream position `position` (instructions
    /// consumed since the measure window began), produced as segment
    /// `ordinal`'s end state by a sharded run. Keyed like the
    /// fast-forward checkpoint — fingerprint + warmup hash — plus the
    /// segment ordinal and exact position, plus the profiler arming
    /// flags (armed profilers are part of mid-measure state, unlike
    /// fast-forward-boundary state).
    #[must_use]
    pub fn segment_path(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
        ordinal: usize,
        position: u64,
    ) -> PathBuf {
        let (reuse, costly) = (u8::from(config.measure_reuse), u8::from(config.track_costly));
        let tag = format!("-seg{ordinal}@{position}-m{reuse}{costly}");
        self.file(
            workload,
            config,
            Some(config.hierarchy.l2_policy),
            &tag,
            warmup_config_hash(config),
        )
    }

    /// The metadata a valid segment checkpoint must carry.
    #[must_use]
    pub fn expected_segment_meta(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
        position: u64,
    ) -> CheckpointMeta {
        let policy = config.hierarchy.l2_policy.name();
        Self::key(workload, config, policy, warmup_config_hash(config), Some(position))
    }

    /// Whether a chained segment checkpoint *file* exists for this key
    /// (a cheap existence probe; loading still validates checksum and
    /// metadata, and a failed load falls back cold).
    #[must_use]
    pub fn has_segment(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
        ordinal: usize,
        position: u64,
    ) -> bool {
        self.segment_path(workload, config, ordinal, position).is_file()
    }

    /// Persists `run`'s mid-measure state as segment `ordinal`'s end
    /// checkpoint — the chain link segment `ordinal + 1` starts from.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `run` is not measuring, or its measure-phase position
    /// is not the `position` being keyed.
    pub fn save_segment(
        &self,
        run: &SimRun<'_>,
        ordinal: usize,
        position: u64,
    ) -> Result<PathBuf, CheckpointError> {
        assert!(run.is_measuring(), "segment checkpoints are mid-measure states");
        assert_eq!(
            run.measure_consumed(),
            position,
            "segment checkpoint keyed at the wrong stream position"
        );
        let meta = self.expected_segment_meta(run.workload(), run.config(), position);
        let path = self.segment_path(run.workload(), run.config(), ordinal, position);
        save_keyed(path, CheckpointKind::Full, &meta, |w| run.save(w))
    }

    /// Loads the chained segment checkpoint for `(workload, config,
    /// ordinal, position)` into a freshly constructed mid-measure
    /// [`SimRun`]. The caller resumes the stream at
    /// `config.fast_forward + position`. Returns `Ok(None)` for a
    /// missing or differently-keyed file (the shard executor falls back
    /// to an earlier link or a cold run).
    ///
    /// # Errors
    ///
    /// Damaged files, as [`CheckpointStore::load`].
    pub fn load_segment<'w>(
        &self,
        workload: &'w PreparedWorkload,
        config: &SimConfig,
        ordinal: usize,
        position: u64,
    ) -> Result<Option<SimRun<'w>>, CheckpointError> {
        let path = self.segment_path(workload, config, ordinal, position);
        let expected = self.expected_segment_meta(workload, config, position);
        load_keyed(&path, CheckpointKind::Full, &expected, |p| restore_run(workload, config, p))
    }

    /// Loads the checkpoint for `(workload, config)` into a freshly
    /// constructed [`SimRun`], ready to [`SimRun::measure`] after the
    /// caller skips `config.fast_forward` stream instructions.
    ///
    /// Returns `Ok(None)` when no file exists or the file belongs to a
    /// different key (stale fingerprint, other machine configuration).
    ///
    /// # Errors
    ///
    /// Damaged files: bad magic, bad version, truncation, checksum or
    /// snapshot-payload corruption.
    pub fn load<'w>(
        &self,
        workload: &'w PreparedWorkload,
        config: &SimConfig,
    ) -> Result<Option<SimRun<'w>>, CheckpointError> {
        let path = self.path_for(workload, config);
        let expected = self.expected_meta(workload, config);
        load_keyed(&path, CheckpointKind::Full, &expected, |p| restore_run(workload, config, p))
    }

    /// Where the **shared prefix** for `(workload, config)` lives — one
    /// file per workload, keyed *without* the L2 policy
    /// ([`warmup_prefix_hash`]), so every policy of a sweep resolves the
    /// same prefix.
    #[must_use]
    pub fn prefix_path(&self, workload: &PreparedWorkload, config: &SimConfig) -> PathBuf {
        self.file(workload, config, None, "", warmup_prefix_hash(config))
    }

    /// The metadata a valid shared prefix must carry. The policy field
    /// holds `"*"` — the prefix belongs to every policy.
    #[must_use]
    pub fn expected_prefix_meta(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
    ) -> CheckpointMeta {
        Self::key(workload, config, "*", warmup_prefix_hash(config), None)
    }

    /// Saves the policy-agnostic warm prefix: `run`'s shared section
    /// ([`SimRun::save_shared`]) plus the warmup `tape` recorded while
    /// `run` fast-forwarded. The recording run's own policy does not
    /// matter — every byte written here is policy-independent.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `run` has started measuring, or the tape does not cover
    /// exactly `run`'s fast-forward window.
    pub fn save_prefix(
        &self,
        run: &SimRun<'_>,
        tape: &WarmupTape,
    ) -> Result<PathBuf, CheckpointError> {
        assert!(!run.is_measuring(), "shared prefixes are fast-forward states");
        assert_eq!(
            tape.instructions(),
            run.config().fast_forward,
            "tape does not cover the fast-forward window"
        );
        let meta = self.expected_prefix_meta(run.workload(), run.config());
        let path = self.prefix_path(run.workload(), run.config());
        save_keyed(path, CheckpointKind::SharedPrefix, &meta, |w| {
            run.save_shared(w);
            tape.save(w);
        })
    }

    /// Loads the shared prefix for `(workload, config)`, if a valid one
    /// exists. `Ok(None)` for a missing or differently-keyed file; only
    /// damaged files are errors (callers fall back to a cold recorded
    /// warmup either way).
    ///
    /// # Errors
    ///
    /// Damaged files, as [`CheckpointStore::load`].
    pub fn load_prefix(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
    ) -> Result<Option<SharedWarmup>, CheckpointError> {
        let path = self.prefix_path(workload, config);
        let expected = self.expected_prefix_meta(workload, config);
        load_keyed(&path, CheckpointKind::SharedPrefix, &expected, |payload| {
            let mut r = SnapReader::new(payload);
            let shared_start = payload.len() - r.remaining();
            let _ = r.section(b"SHRD")?; // validated; bytes kept whole below
            let shared_end = payload.len() - r.remaining();
            let mut tape = WarmupTape::new();
            tape.restore(&mut r)?;
            r.finish()?;
            Ok(SharedWarmup { shared: payload[shared_start..shared_end].to_vec(), tape })
        })
    }

    /// Where the **policy overlay** for `(workload, config)` lives —
    /// keyed like a full fast-forward checkpoint (policy included).
    #[must_use]
    pub fn overlay_path(&self, workload: &PreparedWorkload, config: &SimConfig) -> PathBuf {
        let policy = Some(config.hierarchy.l2_policy);
        self.file(workload, config, policy, "-ovl", warmup_config_hash(config))
    }

    /// The metadata a valid policy overlay must carry.
    #[must_use]
    pub fn expected_overlay_meta(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
    ) -> CheckpointMeta {
        self.expected_meta(workload, config)
    }

    /// Saves `run`'s policy-dependent fast-forward state as its policy's
    /// overlay ([`SimRun::save_overlay`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `run` has started measuring.
    pub fn save_overlay(&self, run: &SimRun<'_>) -> Result<PathBuf, CheckpointError> {
        assert!(!run.is_measuring(), "overlays are fast-forward states");
        let meta = self.expected_overlay_meta(run.workload(), run.config());
        let path = self.overlay_path(run.workload(), run.config());
        save_keyed(path, CheckpointKind::PolicyOverlay, &meta, |w| run.save_overlay(w))
    }

    /// Loads the overlay for `(workload, config)` into `run`, whose
    /// shared section should be restored first (order does not matter
    /// bit-wise, but a composed run needs both). Returns `Ok(false)` for
    /// a missing or differently-keyed file.
    ///
    /// On a mid-restore error — a damaged payload that nonetheless
    /// passed the container checksum, which keying makes essentially
    /// unreachable — `run` may be left half-written: the caller must
    /// rebuild it before falling back (the warm-start ladder does).
    ///
    /// # Errors
    ///
    /// Damaged files, as [`CheckpointStore::load`], plus overlay
    /// payloads whose shape does not match the run's machine.
    pub fn load_overlay_into(&self, run: &mut SimRun<'_>) -> Result<bool, CheckpointError> {
        let path = self.overlay_path(run.workload(), run.config());
        let expected = self.expected_overlay_meta(run.workload(), run.config());
        let loaded = load_keyed(&path, CheckpointKind::PolicyOverlay, &expected, |payload| {
            let mut r = SnapReader::new(payload);
            run.restore_overlay(&mut r)?;
            Ok(r.finish()?)
        })?;
        Ok(loaded.is_some())
    }

    /// Total bytes the store's container files occupy on disk
    /// (in-flight `*.tmp.*` files excluded).
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return 0 };
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Removes every container file (and leftover temp file) whose
    /// workload fingerprint is **not** in `keep_fingerprints` — the
    /// disk-hygiene pass a long-lived store runs after workload
    /// definitions change and their fingerprints rotate.
    ///
    /// Safe against concurrent sweeps sharing the directory: writes are
    /// temp+rename, so gc never observes a half-written container, and a
    /// save racing the deletion atomically recreates its file (a later
    /// gc removes it again if still unwanted). Temp files are removed
    /// only when their own fingerprint is stale **and** they are older
    /// than [`GC_TMP_GRACE`] — a fresh `.tmp.` with a stale-looking
    /// fingerprint may belong to a writer whose keep-set differs from
    /// ours (multi-process sweeps share one directory), and unlinking it
    /// mid-write would turn that writer's rename into an error. Files
    /// the store did not name (no trailing `-fingerprint-hash` pair) are
    /// left alone.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures; individual deletions that
    /// race another process's deletion are not errors.
    pub fn gc(&self, keep_fingerprints: &[u64]) -> Result<GcReport, std::io::Error> {
        self.gc_with_grace(keep_fingerprints, GC_TMP_GRACE)
    }

    /// [`CheckpointStore::gc`] with an explicit temp-file grace window
    /// (tests use `Duration::ZERO` to exercise the removal path without
    /// fabricating old mtimes).
    ///
    /// # Errors
    ///
    /// As [`CheckpointStore::gc`].
    pub fn gc_with_grace(
        &self,
        keep_fingerprints: &[u64],
        tmp_grace: std::time::Duration,
    ) -> Result<GcReport, std::io::Error> {
        let mut report = GcReport::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let (key, is_tmp) = if let Some(stem) = name.strip_suffix(".ckpt") {
                (stem, false)
            } else if let Some((stem, _)) = name.split_once(".tmp.") {
                (stem, true)
            } else {
                continue;
            };
            let Some(fingerprint) = parse_trailing_fingerprint(key) else { continue };
            if keep_fingerprints.contains(&fingerprint) {
                continue;
            }
            let metadata = entry.metadata().ok();
            if is_tmp {
                // A temp file inside the grace window may be an
                // in-flight write by a concurrent process; leave it.
                // (Unknown age counts as young — never break a writer.)
                let age = metadata
                    .as_ref()
                    .and_then(|m| m.modified().ok())
                    .and_then(|t| t.elapsed().ok());
                match age {
                    Some(age) if age >= tmp_grace => {}
                    _ => continue,
                }
            }
            let bytes = metadata.map(|m| m.len()).unwrap_or(0);
            match std::fs::remove_file(&path) {
                Ok(()) => {
                    report.removed_files += 1;
                    report.freed_bytes += bytes;
                }
                // Racing deletion/rename is fine — the file is gone or
                // was just atomically replaced.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        trrip_obs::counter!("ckpt.gc_files").add(report.removed_files as u64);
        trrip_obs::counter!("ckpt.gc_bytes").add(report.freed_bytes);
        trrip_obs::event(
            "ckpt_gc",
            &[
                ("removed_files", trrip_obs::Field::U64(report.removed_files as u64)),
                ("freed_bytes", trrip_obs::Field::U64(report.freed_bytes)),
            ],
        );
        Ok(report)
    }

    /// Shrinks the store to at most `budget_bytes` of container files by
    /// evicting the cheapest-to-rebuild artifacts first: policy overlays
    /// (class 0 — a single policy's state delta, seconds to regenerate),
    /// then shared warm prefixes (class 1 — one warm pass shared across
    /// policies), then full and segment containers (class 2 — a whole
    /// fast-forward to rebuild). Within a class, eviction is LRU by file
    /// modification time. Each victim is journaled as a `ckpt_evicted`
    /// event carrying its rebuild class.
    ///
    /// Only published `.ckpt` files are candidates; in-flight `*.tmp.*`
    /// files are never touched, so a concurrent writer's temp+rename
    /// publish cannot be broken regardless of budget pressure (the same
    /// grace guarantee [`CheckpointStore::gc`] gives, trivially — a
    /// publishing artifact is a temp file until its rename). A save that
    /// races an eviction atomically recreates its container, and a later
    /// budget pass converges by evicting it again.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures; deletions that race
    /// another process's deletion are not errors.
    pub fn gc_budget(&self, budget_bytes: u64) -> Result<GcReport, std::io::Error> {
        let mut report = GcReport::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        let mut candidates: Vec<(u8, std::time::SystemTime, u64, PathBuf, String)> = Vec::new();
        let mut total: u64 = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(stem) = name.strip_suffix(".ckpt") else { continue };
            let Ok(metadata) = entry.metadata() else { continue };
            let bytes = metadata.len();
            total += bytes;
            // Unknown mtimes sort oldest: a file the filesystem cannot
            // date is not worth protecting over a dated one.
            let mtime = metadata.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            let stem = stem.to_string();
            candidates.push((rebuild_class(&stem), mtime, bytes, path, stem));
        }
        if total <= budget_bytes {
            return Ok(report);
        }
        candidates.sort_by_key(|a| (a.0, a.1));
        for (class, _, bytes, path, stem) in candidates {
            if total <= budget_bytes {
                break;
            }
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                // Another process got there first; the bytes are freed
                // either way.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            total = total.saturating_sub(bytes);
            report.removed_files += 1;
            report.freed_bytes += bytes;
            trrip_obs::event(
                "ckpt_evicted",
                &[
                    ("file", trrip_obs::Field::Str(&stem)),
                    ("bytes", trrip_obs::Field::U64(bytes)),
                    ("class", trrip_obs::Field::U64(u64::from(class))),
                    ("class_name", trrip_obs::Field::Str(class_name(class))),
                ],
            );
        }
        trrip_obs::counter!("ckpt.evicted_files").add(report.removed_files as u64);
        trrip_obs::counter!("ckpt.evicted_bytes").add(report.freed_bytes);
        Ok(report)
    }
}

/// Rebuild-cost class of a store file, from the store's own naming
/// scheme: overlays carry an `-ovl-` tag, shared prefixes a `-shared-`
/// tag; everything else is a full or segment container.
fn rebuild_class(stem: &str) -> u8 {
    if stem.contains("-ovl-") {
        0
    } else if stem.contains("-shared-") {
        1
    } else {
        2
    }
}

fn class_name(class: u8) -> &'static str {
    match class {
        0 => "overlay",
        1 => "prefix",
        _ => "full",
    }
}

/// How young a `.tmp.` file may be before [`CheckpointStore::gc`]
/// treats it as a possible in-flight write and leaves it alone. Far
/// longer than any single container write takes; stale-fingerprint
/// temps older than this are dead writers' litter and are collected.
pub const GC_TMP_GRACE: std::time::Duration = std::time::Duration::from_secs(60);

/// What [`CheckpointStore::gc`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Container and temp files deleted.
    pub removed_files: usize,
    /// Their summed size in bytes.
    pub freed_bytes: u64,
}

/// Extracts the workload fingerprint from a store file key of the form
/// `…-{fingerprint:016x}-{confighash:016x}`. `None` when the name does
/// not follow the store's scheme.
fn parse_trailing_fingerprint(key: &str) -> Option<u64> {
    let mut parts = key.rsplit('-');
    let hash = parts.next()?;
    let fingerprint = parts.next()?;
    if hash.len() != 16 || fingerprint.len() != 16 {
        return None;
    }
    // Both fields must be hex for this to be a store-named file.
    u64::from_str_radix(hash, 16).ok()?;
    u64::from_str_radix(fingerprint, 16).ok()
}

/// One workload's policy-agnostic warm prefix, loaded from a
/// [`CheckpointKind::SharedPrefix`] container: the shared section bytes
/// (branch predictor) plus the recorded warmup tape. Shared across every
/// policy cell of the workload.
#[derive(Debug, Clone)]
pub struct SharedWarmup {
    /// The `SHRD` section, kept as raw bytes so it can be applied to any
    /// number of runs.
    shared: Vec<u8>,
    tape: WarmupTape,
}

impl SharedWarmup {
    /// Builds a prefix in memory from a freshly recorded warmup — what
    /// [`CheckpointStore::save_prefix`] persists.
    #[must_use]
    pub fn capture(run: &SimRun<'_>, tape: WarmupTape) -> SharedWarmup {
        let mut w = SnapWriter::new();
        run.save_shared(&mut w);
        SharedWarmup { shared: w.into_bytes(), tape }
    }

    /// The recorded warmup tape.
    #[must_use]
    pub fn tape(&self) -> &WarmupTape {
        &self.tape
    }

    /// Restores the shared section into `run` (typically a freshly
    /// constructed one, before [`SimRun::fast_forward_replayed`] or an
    /// overlay restore).
    ///
    /// # Errors
    ///
    /// Snapshot shape/codec errors.
    pub fn apply(&self, run: &mut SimRun<'_>) -> Result<(), SnapError> {
        let mut r = SnapReader::new(&self.shared);
        run.restore_shared(&mut r)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every single-byte mutation of a small container — every position,
    /// every other byte value — yields a typed error or the identical
    /// decode, never a panic or a different payload.
    #[test]
    fn every_single_byte_mutation_is_rejected_or_harmless() {
        let path =
            std::env::temp_dir().join(format!("trrip-ckpt-mutation-{}.ckpt", std::process::id()));
        let meta = CheckpointMeta {
            benchmark: "mutation".into(),
            policy: "SRRIP".into(),
            fingerprint: 0x0123_4567_89ab_cdef,
            config_hash: 0xfedc_ba98_7654_3210,
            stream_position: 300_000,
            mid_measure: false,
        };
        let payload: Vec<u8> = (0..256u32).map(|i| (i * 7 % 13 + i / 64) as u8).collect();
        write_checkpoint_kind(&path, CheckpointKind::PolicyOverlay, &meta, &payload)
            .expect("write");
        let pristine = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let original = decode_checkpoint(&pristine).expect("pristine container decodes");
        assert_eq!(original, (CheckpointKind::PolicyOverlay, meta, payload));

        let mut mutated = pristine.clone();
        let mut rejected = 0usize;
        for pos in 0..pristine.len() {
            for delta in 1..=255u8 {
                mutated[pos] = pristine[pos] ^ delta;
                match decode_checkpoint(&mutated) {
                    Err(_) => rejected += 1,
                    Ok(decoded) => assert!(
                        decoded == original,
                        "byte {pos} ^ {delta:#04x} decoded to a different container"
                    ),
                }
            }
            mutated[pos] = pristine[pos];
        }
        assert!(rejected > 0);
    }

    fn transient(kind: std::io::ErrorKind) -> CheckpointError {
        CheckpointError::Io(std::io::Error::from(kind))
    }

    #[test]
    fn transient_errors_retry_bounded_and_count() {
        let before = trrip_obs::snapshot();

        // Recovers after two transient failures; each retry counts.
        let mut calls = 0;
        let result = retry_transient(|| {
            calls += 1;
            if calls < 3 {
                Err(transient(std::io::ErrorKind::Interrupted))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.expect("third attempt succeeds"), 3);
        assert_eq!(trrip_obs::snapshot().since(&before).get("ckpt.retry"), 2);

        // Exhaustion: a persistently transient failure surfaces after
        // exactly RETRY_ATTEMPTS tries.
        let mut calls = 0;
        let result: Result<(), _> = retry_transient(|| {
            calls += 1;
            Err(transient(std::io::ErrorKind::TimedOut))
        });
        assert!(is_transient(&result.expect_err("must exhaust")));
        assert_eq!(calls, RETRY_ATTEMPTS);
    }

    #[test]
    fn non_transient_errors_never_retry() {
        for error in [
            CheckpointError::BadMagic,
            CheckpointError::Corrupt("x".into()),
            transient(std::io::ErrorKind::NotFound),
            transient(std::io::ErrorKind::PermissionDenied),
        ] {
            assert!(!is_transient(&error), "{error} must not be retried");
        }
        let mut calls = 0;
        let result: Result<(), _> = retry_transient(|| {
            calls += 1;
            Err(CheckpointError::BadMagic)
        });
        assert!(matches!(result.expect_err("surfaces"), CheckpointError::BadMagic));
        assert_eq!(calls, 1, "non-transient errors surface on the first attempt");
    }
}
