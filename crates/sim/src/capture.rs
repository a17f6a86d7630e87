//! Trace capture and the on-disk trace store.
//!
//! Capture once, replay many: [`capture_trace`] records the CFG walker's
//! eval-input stream for one `(workload, layout, run length)` into the
//! `trrip-trace` binary format; [`TraceStore`] manages a directory of
//! such captures keyed by workload identity and serves them back as
//! [`StreamingReplay`] sources, re-capturing only when the on-disk file
//! doesn't match what the configuration needs.

use std::path::{Path, PathBuf};

use trrip_compiler::LayoutKind;
use trrip_trace::{probe, StreamingReplay, TraceError, TraceLayout, TraceMeta};
use trrip_workloads::{InputSet, TraceGenerator};

use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;

/// The trace-layout tag for a simulator layout choice.
#[must_use]
pub fn trace_layout(layout: LayoutKind) -> TraceLayout {
    match layout {
        LayoutKind::SourceOrder => TraceLayout::SourceOrder,
        LayoutKind::Pgo => TraceLayout::Pgo,
    }
}

/// Instructions a capture for `config` must hold: the fast-forward
/// prefix plus the measured window, as one contiguous stream.
#[must_use]
pub fn capture_length(config: &SimConfig) -> u64 {
    config.fast_forward + config.instructions
}

/// Captures the eval-input trace of `workload` under `config.layout` to
/// `path`, exactly long enough to drive one [`crate::simulate_source`]
/// run of `config`.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn capture_trace(
    workload: &PreparedWorkload,
    config: &SimConfig,
    path: &Path,
) -> Result<TraceMeta, TraceError> {
    let object = workload.object(config.layout);
    let generator = TraceGenerator::new(&workload.program, object, &workload.spec, InputSet::Eval);
    // Write to a sibling temp file and rename into place: concurrent
    // processes sharing a trace dir then never observe (or append to) a
    // half-written capture — they either see nothing or a complete file.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let dict = placement_dict(workload, config);
    let mut writer = trrip_trace::create_with_dict(
        &tmp,
        &workload.spec.name,
        trace_layout(config.layout),
        dict,
    )?;
    writer.write_all(generator.take(capture_length(config) as usize))?;
    let meta = writer.finish()?;
    std::fs::rename(&tmp, path)?;
    Ok(meta)
}

/// The capture's compression dictionary: the hot-PC placement words the
/// [`workload_fingerprint`] already mixes (section bases, block
/// addresses, PLT/external entry points), laid down in the byte shapes
/// trace records contain so every chunk's LZ window starts warm.
#[must_use]
pub fn placement_dict(workload: &PreparedWorkload, config: &SimConfig) -> Vec<u8> {
    let object = workload.object(config.layout);
    let mut words: Vec<u64> = Vec::new();
    for section in &object.sections {
        words.push(section.base.raw());
        words.push(section.size_bytes);
    }
    for addrs in &object.block_addrs {
        words.extend(addrs.iter().map(|a| a.raw()));
    }
    words.extend(object.plt_addrs.iter().chain(&object.external_addrs).map(|a| a.raw()));
    trrip_pack::placement_dictionary(&words, 4096)
}

/// Identifies everything the captured instruction stream depends on
/// beyond `(name, layout, length)`: the object's exact code placement
/// (classifier thresholds move functions between sections, changing
/// every PC) and the walk's random-input parameters. Two configs with
/// different fingerprints must not share a trace file.
#[must_use]
pub fn workload_fingerprint(workload: &PreparedWorkload, config: &SimConfig) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 31;
    };
    let object = workload.object(config.layout);
    for section in &object.sections {
        mix(section.base.raw());
        mix(section.size_bytes);
    }
    for addrs in &object.block_addrs {
        mix(addrs.len() as u64);
        for addr in addrs {
            mix(addr.raw());
        }
    }
    for addr in object.plt_addrs.iter().chain(&object.external_addrs) {
        mix(addr.raw());
    }
    mix(workload.spec.seed_for(InputSet::Eval));
    mix(workload.spec.eval_seed);
    mix(workload.spec.input_shift.to_bits());
    h
}

/// A directory of captured traces, keyed by workload name, layout, run
/// length and a fingerprint of the exact code placement + walk inputs
/// (so e.g. two classifier thresholds never share a file). `ensure` is
/// idempotent: it reuses a matching capture and replaces a missing,
/// stale, or unreadable one.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// A store rooted at `dir` (created lazily on first capture).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> TraceStore {
        TraceStore { dir: dir.into() }
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the capture for `(workload, config)` lives.
    #[must_use]
    pub fn path_for(&self, workload: &PreparedWorkload, config: &SimConfig) -> PathBuf {
        let layout = trace_layout(config.layout);
        self.dir.join(format!(
            "{}-{}-{}i-{:016x}.trrip",
            workload.spec.name,
            layout.tag(),
            capture_length(config),
            workload_fingerprint(workload, config),
        ))
    }

    /// Whether a valid capture for `(workload, config)` already exists.
    #[must_use]
    pub fn has(&self, workload: &PreparedWorkload, config: &SimConfig) -> bool {
        let path = self.path_for(workload, config);
        self.matching_meta(&path, &workload.spec.name, config).is_some()
    }

    fn matching_meta(&self, path: &Path, name: &str, config: &SimConfig) -> Option<TraceMeta> {
        let meta = probe(path).ok()?;
        (meta.name == name
            && meta.layout == trace_layout(config.layout)
            && meta.instructions == capture_length(config))
        .then_some(meta)
    }

    /// Returns the path of a valid capture for `(workload, config)`,
    /// capturing it now if absent or stale.
    ///
    /// # Errors
    ///
    /// Propagates capture I/O failures.
    pub fn ensure(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
    ) -> Result<PathBuf, TraceError> {
        let path = self.path_for(workload, config);
        if self.matching_meta(&path, &workload.spec.name, config).is_none() {
            capture_trace(workload, config, &path)?;
        }
        Ok(path)
    }

    /// Opens a streaming replay of the capture for `(workload, config)`,
    /// capturing it first if needed.
    ///
    /// # Errors
    ///
    /// Propagates capture and open failures.
    pub fn open(
        &self,
        workload: &PreparedWorkload,
        config: &SimConfig,
    ) -> Result<StreamingReplay, TraceError> {
        StreamingReplay::open(&self.ensure(workload, config)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_core::ClassifierConfig;
    use trrip_policies::PolicyKind;
    use trrip_workloads::WorkloadSpec;

    fn quick_workload() -> PreparedWorkload {
        let mut spec = WorkloadSpec::named("capture-test");
        spec.functions = 50;
        spec.hot_rotation = 8;
        PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
    }

    fn quick_config() -> SimConfig {
        let mut c = SimConfig::quick(PolicyKind::Srrip);
        c.fast_forward = 5_000;
        c.instructions = 40_000;
        c
    }

    #[test]
    fn capture_writes_matching_metadata() {
        let dir = std::env::temp_dir().join("trrip-capture-meta-test");
        let w = quick_workload();
        let config = quick_config();
        let path = dir.join("t.trrip");
        let meta = capture_trace(&w, &config, &path).expect("capture");
        assert_eq!(meta.instructions, capture_length(&config));
        assert_eq!(meta.name, "capture-test");
        let probed = probe(&path).expect("probe");
        assert_eq!(probed, meta);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_is_bit_identical_to_walker() {
        let dir = std::env::temp_dir().join("trrip-replay-identity-test");
        std::fs::remove_dir_all(&dir).ok();
        let store = TraceStore::new(&dir);
        let w = quick_workload();

        for policy in [PolicyKind::Srrip, PolicyKind::Trrip1] {
            let config = quick_config().with_policy(policy);
            let from_walker = crate::simulate(&w, &config);
            let replay = store.open(&w, &config).expect("capture + open");
            let from_disk = crate::simulate_source(&w, &config, replay);

            // The acceptance bar: IPC, MPKI and the stall breakdown all
            // fall out of these fields, so field equality ⇒ bit-identical
            // metrics.
            assert_eq!(from_walker.core, from_disk.core);
            assert_eq!(from_walker.l1i, from_disk.l1i);
            assert_eq!(from_walker.l1d, from_disk.l1d);
            assert_eq!(from_walker.l2, from_disk.l2);
            assert_eq!(from_walker.slc, from_disk.slc);
            assert_eq!(from_walker.tlb, from_disk.tlb);
            assert_eq!(from_walker.pages, from_disk.pages);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_sweep_matches_walker_sweep() {
        let dir = std::env::temp_dir().join("trrip-replay-sweep-test");
        std::fs::remove_dir_all(&dir).ok();
        let store = TraceStore::new(&dir);
        let workloads = vec![quick_workload()];
        let config = quick_config();
        let policies = [PolicyKind::Srrip, PolicyKind::Trrip1];

        let replayed = crate::replay_sweep(&workloads, &config, &policies, &store);
        let walked = crate::policy_sweep(&workloads, &config, &policies);
        let isolated = crate::replay_sweep_isolated(&workloads, &config, &policies, &store);
        for ((a, b), c) in replayed.results.iter().zip(&walked.results).zip(&isolated.results) {
            assert_eq!(a.core, b.core);
            assert_eq!(a.l2, b.l2);
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.core, c.core, "fan-out must match decode-per-job replay");
            assert_eq!(a.l2, c.l2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_reuses_and_invalidates() {
        let dir = std::env::temp_dir().join("trrip-store-reuse-test");
        std::fs::remove_dir_all(&dir).ok();
        let store = TraceStore::new(&dir);
        let w = quick_workload();
        let config = quick_config();

        assert!(!store.has(&w, &config));
        let path = store.ensure(&w, &config).expect("capture");
        assert!(store.has(&w, &config));
        let modified_before = std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime");

        // A second ensure reuses the file (no rewrite).
        let again = store.ensure(&w, &config).expect("reuse");
        assert_eq!(again, path);
        let modified_after = std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime");
        assert_eq!(modified_before, modified_after);

        // A different run length is a different capture.
        let mut longer = config.clone();
        longer.instructions += 10_000;
        assert!(!store.has(&w, &longer));
        assert_ne!(store.path_for(&w, &longer), path);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_code_placement_gets_a_different_trace_file() {
        // The fig8 hazard: same name/layout/length, but a different
        // classifier threshold moves functions between sections, so the
        // PC stream differs and the store must not share the file.
        let dir = std::env::temp_dir().join("trrip-store-fingerprint-test");
        std::fs::remove_dir_all(&dir).ok();
        let store = TraceStore::new(&dir);
        let config = quick_config();

        let mut spec = WorkloadSpec::named("capture-test");
        spec.functions = 50;
        spec.hot_rotation = 8;
        // Train long enough that "everything executed" (percentile 100)
        // genuinely differs from the 99th-percentile hot set — a short
        // walk executes so few functions that the two coincide.
        let hot_99 = PreparedWorkload::prepare(
            &spec,
            400_000,
            trrip_core::ClassifierConfig::llvm_defaults(),
        );
        let hot_100 = PreparedWorkload::prepare(
            &spec,
            400_000,
            trrip_core::ClassifierConfig { percentile_hot: 1.0, percentile_cold: 1.0 },
        );
        assert_ne!(
            store.path_for(&hot_99, &config),
            store.path_for(&hot_100, &config),
            "different classifier configs must never share a capture"
        );

        // And the walker path itself stays keyed: capturing one does not
        // satisfy `has` for the other.
        store.ensure(&hot_99, &config).expect("capture");
        assert!(store.has(&hot_99, &config));
        assert!(!store.has(&hot_100, &config));
        std::fs::remove_dir_all(&dir).ok();
    }
}
