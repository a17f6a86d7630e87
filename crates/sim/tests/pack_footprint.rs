//! Footprint bars for the bytes the simulator leaves at rest: a
//! captured trace compresses to at most 0.60× of its raw chunk
//! payloads, and the ten-policy checkpoint suite (one shared prefix plus
//! a policy overlay per policy) to at most 0.55×. Both ratios are read
//! from the `pack.{raw,compressed}_bytes` counters the codec feeds, so
//! they are exact and host-independent. The budgeted gc then has to
//! evict from the over-budget suite and converge under its budget.
//!
//! The counter registry is process-global, so this file holds a single
//! test: no other test in the binary can add to the counts it reads.

use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    capture_length, capture_trace, replay_sweep_warm_prefix, CheckpointStore, PreparedWorkload,
    SimConfig, TraceStore,
};
use trrip_workloads::WorkloadSpec;

/// Every policy the simulator can run: the suite holds one overlay each.
const ALL_POLICIES: [PolicyKind; 10] = [
    PolicyKind::Srrip,
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Clip,
    PolicyKind::Emissary,
    PolicyKind::Trrip1,
    PolicyKind::Trrip2,
];

fn workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("pack-bench");
    spec.functions = 120;
    spec.hot_rotation = 30;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

/// Compressed ÷ raw codec bytes over the counter window `since`.
fn pack_ratio(since: &trrip_obs::CounterSnapshot) -> (u64, f64) {
    let delta = trrip_obs::snapshot().since(since);
    let (raw, comp) = (delta.get("pack.raw_bytes"), delta.get("pack.compressed_bytes"));
    (raw, comp as f64 / raw.max(1) as f64)
}

#[test]
fn traces_and_checkpoints_meet_their_footprint_bars_and_gc_converges() {
    let workloads = [workload()];
    let mut config = SimConfig::quick(PolicyKind::Trrip1);
    config.fast_forward = 20_000;
    config.instructions = 80_000;
    let scratch = std::env::temp_dir().join(format!("trrip-pack-footprint-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    // One capture, alone in its counter window.
    let before = trrip_obs::snapshot();
    let meta = capture_trace(&workloads[0], &config, &scratch.join("capture.trrip"))
        .expect("capture trace");
    let (raw, ratio) = pack_ratio(&before);
    assert_eq!(meta.instructions, capture_length(&config));
    assert!(raw > 0, "trace capture fed no bytes through the codec");
    assert!(ratio <= 0.60, "trace payload ratio {ratio:.3} exceeds the 0.60x footprint bar");

    // The sweep's capture lands first, so the next window holds only
    // checkpoint compression.
    let traces = TraceStore::new(scratch.join("traces"));
    traces.ensure(&workloads[0], &config).expect("capture sweep trace");
    let ckpts = CheckpointStore::new(scratch.join("ckpts"));
    let before = trrip_obs::snapshot();
    let _ = replay_sweep_warm_prefix(2, &workloads, &config, &ALL_POLICIES, &traces, &ckpts);
    let (raw, ratio) = pack_ratio(&before);
    assert!(raw > 0, "checkpoint suite fed no bytes through the codec");
    assert!(ratio <= 0.55, "checkpoint payload ratio {ratio:.3} exceeds the 0.55x footprint bar");

    // Shrink the suite to half its size.
    let evicted_before = trrip_obs::counter!("ckpt.evicted_files").value();
    let budget = ckpts.size_bytes() / 2;
    let report = ckpts.gc_budget(budget).expect("gc_budget");
    let evicted = trrip_obs::counter!("ckpt.evicted_files").value() - evicted_before;
    assert!(
        evicted > 0 && report.removed_files > 0,
        "gc evicted nothing from an over-budget store"
    );
    assert!(ckpts.size_bytes() <= budget, "budgeted gc must converge under its budget");
    std::fs::remove_dir_all(&scratch).ok();
}
