//! Checkpoint correctness: restore-then-measure must be bit-identical
//! to an uninterrupted run — for every policy, at the fast-forward
//! boundary and mid-measure — and damaged files must be rejected.

use proptest::prelude::*;
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    read_checkpoint, simulate, warmup_config_hash, write_checkpoint_kind, CheckpointError,
    CheckpointStore, PreparedWorkload, SimConfig, SimResult, SimRun, SnapReader, SnapWriter,
    Snapshot,
};
use trrip_snap::corrupt;
use trrip_trace::SourceIter;
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

/// Every policy the simulator can run, including the non-paper Random
/// baseline (whose RNG stream is part of the architectural state).
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

fn quick_workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("ckpt-test");
    spec.functions = 50;
    spec.hot_rotation = 8;
    // Train long enough that classifier-percentile variants produce
    // distinct placements (the keying test depends on it).
    PreparedWorkload::prepare(&spec, 400_000, ClassifierConfig::llvm_defaults())
}

fn quick_config(policy: PolicyKind) -> SimConfig {
    let mut c = SimConfig::quick(policy);
    c.fast_forward = 20_000;
    c.instructions = 60_000;
    c
}

fn walker<'a>(w: &'a PreparedWorkload, config: &'a SimConfig) -> SourceIter<TraceGenerator<'a>> {
    let object = w.object(config.layout);
    SourceIter::new(TraceGenerator::new(&w.program, object, &w.spec, InputSet::Eval))
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.core, b.core, "{what}: core results diverge");
    assert_eq!(a.l1i, b.l1i, "{what}: L1-I stats diverge");
    assert_eq!(a.l1d, b.l1d, "{what}: L1-D stats diverge");
    assert_eq!(a.l2, b.l2, "{what}: L2 stats diverge");
    assert_eq!(a.slc, b.slc, "{what}: SLC stats diverge");
    assert_eq!(a.tlb, b.tlb, "{what}: TLB stats diverge");
    assert_eq!(a.pages, b.pages, "{what}: page stats diverge");
}

#[test]
fn restore_then_measure_is_bit_identical_for_every_policy() {
    let w = quick_workload();
    let dir = std::env::temp_dir().join("trrip-ckpt-roundtrip-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    for policy in ALL_POLICIES {
        let config = quick_config(policy);

        // Oracle: the uninterrupted walker run.
        let uninterrupted = simulate(&w, &config);

        // Cold phase-machine run: fast-forward, persist, then measure.
        assert!(!store.has(&w, &config), "{policy}: stale checkpoint");
        let mut cold = SimRun::new(&w, &config);
        let mut stream = walker(&w, &config);
        cold.fast_forward(&mut stream);
        store.save(&cold).expect("save checkpoint");
        let cold_result = cold.measure(&mut stream);
        assert_identical(&uninterrupted, &cold_result, &format!("{policy} cold"));

        // Warm run: restore from disk, skip the warmup prefix, measure.
        let mut warm = store
            .load(&w, &config)
            .expect("read checkpoint")
            .expect("checkpoint present after save");
        let mut stream = walker(&w, &config);
        for _ in (&mut stream).take(config.fast_forward as usize) {}
        let warm_result = warm.measure(&mut stream);
        assert_identical(&uninterrupted, &warm_result, &format!("{policy} warm"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot taken *mid-measure* (in-flight cycles, Top-Down buckets,
/// MLP bookkeeping, armed profilers, and the FDIP lookahead window)
/// resumes bit-identically, at several split points including ones that
/// land inside the lookahead window's reach of the end.
#[test]
fn mid_measure_snapshot_resumes_bit_identically() {
    let w = quick_workload();
    for (policy, split) in [
        (PolicyKind::Srrip, 1),
        (PolicyKind::Ship, 17_001),
        (PolicyKind::Trrip2, 30_000),
        (PolicyKind::Emissary, 59_990),
        (PolicyKind::Random, 43_777),
    ] {
        let mut config = quick_config(policy);
        // Exercise profiler snapshotting on one of the cases too.
        config.measure_reuse = policy == PolicyKind::Srrip;
        config.track_costly = policy == PolicyKind::Ship;
        let uninterrupted = simulate(&w, &config);

        // Run the measure phase up to `split`, snapshot, and resume in a
        // freshly constructed machine fed the rest of the same stream.
        let mut first = SimRun::new(&w, &config);
        let mut stream = walker(&w, &config);
        first.fast_forward(&mut stream);
        first.begin_measure();
        first.measure_chunk(&mut stream, split, false);
        let consumed = first.measure_consumed();
        let mut bytes = SnapWriter::new();
        first.save(&mut bytes);
        let bytes = bytes.into_bytes();
        drop(first);

        let mut resumed = SimRun::new(&w, &config);
        resumed.restore(&mut SnapReader::new(&bytes)).expect("restore mid-measure");
        let mut stream = walker(&w, &config);
        for _ in (&mut stream).take((config.fast_forward + consumed) as usize) {}
        resumed.measure_chunk(&mut stream, config.instructions - consumed, true);
        let resumed_result = resumed.finish();

        assert_identical(
            &uninterrupted,
            &resumed_result,
            &format!("{policy} mid-measure split at {split}"),
        );
        if config.measure_reuse {
            assert_eq!(
                uninterrupted.reuse_base, resumed_result.reuse_base,
                "reuse histogram diverged across the snapshot"
            );
        }
        if config.track_costly {
            let a = uninterrupted.costly.as_ref().expect("tracker armed");
            let b = resumed_result.costly.as_ref().expect("tracker armed");
            assert_eq!(a.distinct_lines(), b.distinct_lines());
            assert_eq!(a.cost_by_region(), b.cost_by_region());
        }
    }
}

#[test]
fn corrupt_and_truncated_checkpoints_are_rejected() {
    let w = quick_workload();
    let config = quick_config(PolicyKind::Trrip1);
    let dir = std::env::temp_dir().join("trrip-ckpt-corruption-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    let mut run = SimRun::new(&w, &config);
    let mut stream = walker(&w, &config);
    run.fast_forward(&mut stream);
    let path = store.save(&run).expect("save");
    let pristine = std::fs::read(&path).expect("read back");

    // Flip one byte in the body: checksum mismatch.
    corrupt::flip_middle_byte(&path);
    assert!(
        matches!(read_checkpoint(&path), Err(CheckpointError::ChecksumMismatch { .. })),
        "flipped byte must fail the checksum"
    );
    assert!(store.load(&w, &config).is_err(), "store must reject the corrupt file");

    // Truncate the file at every boundary region: never panics, never
    // yields a checkpoint.
    for cut in [0, 4, 9, 17, pristine.len() / 2, pristine.len() - 1] {
        corrupt::plant_file(&path, &pristine);
        corrupt::truncate_file(&path, cut);
        assert!(read_checkpoint(&path).is_err(), "{cut}-byte prefix accepted");
    }

    // Wrong magic.
    corrupt::plant_file(&path, &pristine);
    corrupt::break_magic(&path);
    assert!(matches!(read_checkpoint(&path), Err(CheckpointError::BadMagic)));

    // Future version (bytes 8–9 hold the little-endian version field).
    corrupt::plant_file(&path, &pristine);
    corrupt::set_bytes(&path, 8, &[0xFF, 0xFF]);
    assert!(matches!(read_checkpoint(&path), Err(CheckpointError::UnsupportedVersion(_))));

    // Restore the pristine bytes: loads again.
    corrupt::plant_file(&path, &pristine);
    assert!(store.load(&w, &config).expect("load").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_keys_by_policy_config_and_fingerprint() {
    let w = quick_workload();
    let config = quick_config(PolicyKind::Srrip);
    let dir = std::env::temp_dir().join("trrip-ckpt-keying-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    let mut run = SimRun::new(&w, &config);
    let mut stream = walker(&w, &config);
    run.fast_forward(&mut stream);
    store.save(&run).expect("save");

    // Same key loads; different policy, warmup length, or machine does
    // not (and does not error — the caller just warms cold).
    assert!(store.has(&w, &config));
    assert!(!store.has(&w, &config.clone().with_policy(PolicyKind::Trrip1)));
    let mut longer_ff = config.clone();
    longer_ff.fast_forward += 1;
    assert!(!store.has(&w, &longer_ff));
    let mut bigger_l2 = config.clone();
    bigger_l2.hierarchy = bigger_l2.hierarchy.with_l2_size(256 << 10);
    assert!(!store.has(&w, &bigger_l2));

    // A different measured window shares the warmup checkpoint: the
    // warmed state does not depend on how long we measure afterwards.
    let mut longer_measure = config.clone();
    longer_measure.instructions *= 2;
    assert!(store.has(&w, &longer_measure));
    assert_eq!(warmup_config_hash(&config), warmup_config_hash(&longer_measure));

    // A different code placement (classifier) is a different key.
    let mut spec = WorkloadSpec::named("ckpt-test");
    spec.functions = 50;
    spec.hot_rotation = 8;
    let blanket = PreparedWorkload::prepare(
        &spec,
        400_000,
        ClassifierConfig { percentile_hot: 1.0, percentile_cold: 1.0 },
    );
    assert_ne!(store.path_for(&w, &config), store.path_for(&blanket, &config));
    std::fs::remove_dir_all(&dir).ok();
}

/// A **v2 container** — written byte-for-byte the way PR 4's writer
/// laid files out (version 2, no kind byte, uncompressed payload) —
/// must restore under the current reader and measure bit-identically.
/// The fixture is hand-rolled here so the legacy layout stays pinned
/// even though no current code path produces it.
#[test]
fn v2_container_fixture_restores_under_the_current_reader() {
    let w = quick_workload();
    let config = quick_config(PolicyKind::Emissary);
    let dir = std::env::temp_dir().join("trrip-ckpt-v2-compat-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    let uninterrupted = simulate(&w, &config);

    // The same fast-forward state v2 would have captured…
    let mut run = SimRun::new(&w, &config);
    let mut stream = walker(&w, &config);
    run.fast_forward(&mut stream);
    let mut payload = SnapWriter::new();
    run.save(&mut payload);
    drop(run);

    // …in the exact v2 byte layout: magic, version=2, body_len, then a
    // body of meta + payload with NO kind byte, then the checksum.
    let mut body = SnapWriter::new();
    body.str(&w.spec.name);
    body.str(config.hierarchy.l2_policy.name());
    body.u64(trrip_sim::capture::workload_fingerprint(&w, &config));
    body.u64(warmup_config_hash(&config));
    body.u64(config.fast_forward);
    body.bool(false); // mid_measure
    body.bytes_field(payload.bytes());
    let body = body.into_bytes();
    let mut hash = trrip_trace::format::Checksum::new();
    hash.update(&body);
    let mut file = Vec::new();
    file.extend_from_slice(b"TRRIPCKP");
    file.extend_from_slice(&2u16.to_le_bytes());
    file.extend_from_slice(&(body.len() as u64).to_le_bytes());
    file.extend_from_slice(&body);
    file.extend_from_slice(&hash.value().to_le_bytes());

    let path = store.path_for(&w, &config);
    std::fs::create_dir_all(path.parent().expect("store dir")).expect("mkdir");
    std::fs::write(&path, &file).expect("write v2 fixture");

    // The v3 reader restores it as a full container and the measured
    // window matches the uninterrupted run exactly.
    let (kind, meta, _) = read_checkpoint(&path).expect("v2 file must read");
    assert_eq!(kind, trrip_sim::CheckpointKind::Full);
    assert!(!meta.mid_measure);
    let mut warm = store.load(&w, &config).expect("load").expect("key match");
    let mut stream = walker(&w, &config);
    for _ in (&mut stream).take(config.fast_forward as usize) {}
    let result = warm.measure(&mut stream);
    assert_identical(&uninterrupted, &result, "v2 fixture restore");
    std::fs::remove_dir_all(&dir).ok();
}

/// A **v3 container** — version 3, kind byte, *uncompressed* payload,
/// exactly as PR 8's writer laid files out before the v4 compression
/// bump — must restore under the v4 reader and measure bit-identically.
#[test]
fn v3_container_fixture_restores_under_v4() {
    let w = quick_workload();
    let config = quick_config(PolicyKind::Trrip2);
    let dir = std::env::temp_dir().join("trrip-ckpt-v3-compat-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    let uninterrupted = simulate(&w, &config);

    // The same fast-forward state v3 would have captured…
    let mut run = SimRun::new(&w, &config);
    let mut stream = walker(&w, &config);
    run.fast_forward(&mut stream);
    let mut payload = SnapWriter::new();
    run.save(&mut payload);
    drop(run);

    // …in the exact v3 byte layout: magic, version=3, body_len, then a
    // body of kind + meta + the RAW (uncompressed) payload, then the
    // checksum.
    let mut body = SnapWriter::new();
    body.u8(0); // CheckpointKind::Full
    body.str(&w.spec.name);
    body.str(config.hierarchy.l2_policy.name());
    body.u64(trrip_sim::capture::workload_fingerprint(&w, &config));
    body.u64(warmup_config_hash(&config));
    body.u64(config.fast_forward);
    body.bool(false); // mid_measure
    body.bytes_field(payload.bytes());
    let body = body.into_bytes();
    let mut hash = trrip_trace::format::Checksum::new();
    hash.update(&body);
    let mut file = Vec::new();
    file.extend_from_slice(b"TRRIPCKP");
    file.extend_from_slice(&3u16.to_le_bytes());
    file.extend_from_slice(&(body.len() as u64).to_le_bytes());
    file.extend_from_slice(&body);
    file.extend_from_slice(&hash.value().to_le_bytes());

    let path = store.path_for(&w, &config);
    std::fs::create_dir_all(path.parent().expect("store dir")).expect("mkdir");
    std::fs::write(&path, &file).expect("write v3 fixture");

    let (kind, meta, _) = read_checkpoint(&path).expect("v3 file must read");
    assert_eq!(kind, trrip_sim::CheckpointKind::Full);
    assert!(!meta.mid_measure);
    let mut warm = store.load(&w, &config).expect("load").expect("key match");
    let mut stream = walker(&w, &config);
    for _ in (&mut stream).take(config.fast_forward as usize) {}
    let result = warm.measure(&mut stream);
    assert_identical(&uninterrupted, &result, "v3 fixture restore");

    // And re-saving through the current writer shrinks the file: the v4
    // payload rests compressed.
    let mut run = SimRun::new(&w, &config);
    let mut stream = walker(&w, &config);
    run.fast_forward(&mut stream);
    let v4_path = store.save(&run).expect("save v4");
    let v4_len = std::fs::metadata(&v4_path).expect("meta").len();
    assert!(
        v4_len < file.len() as u64,
        "v4 container ({v4_len} B) must undercut the v3 layout ({} B)",
        file.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `gc(keep)` removes stale-fingerprint containers (and their orphaned
/// temp files) while leaving kept keys loadable and unknown files
/// untouched; `size_bytes` tracks the deletion.
#[test]
fn gc_removes_stale_fingerprints_and_spares_kept_writes() {
    let keep_w = quick_workload();
    let mut stale_spec = WorkloadSpec::named("ckpt-gc-stale");
    stale_spec.functions = 40;
    stale_spec.hot_rotation = 6;
    let stale_w =
        PreparedWorkload::prepare(&stale_spec, 300_000, ClassifierConfig::llvm_defaults());
    let config = quick_config(PolicyKind::Srrip);
    let dir = std::env::temp_dir().join("trrip-ckpt-gc-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    for w in [&keep_w, &stale_w] {
        let mut run = SimRun::new(w, &config);
        let mut stream = walker(w, &config);
        run.fast_forward(&mut stream);
        store.save(&run).expect("save full");
        store.save_overlay(&run).expect("save overlay");
    }
    let keep_fp = trrip_sim::capture::workload_fingerprint(&keep_w, &config);
    let stale_fp = trrip_sim::capture::workload_fingerprint(&stale_w, &config);
    assert_ne!(keep_fp, stale_fp);

    // Orphaned temp files from a crashed writer, one per fingerprint —
    // exactly the shape `write_checkpoint`'s temp naming produces.
    let keep_tmp = store.path_for(&keep_w, &config).with_extension("tmp.9999.0");
    let stale_tmp = store.path_for(&stale_w, &config).with_extension("tmp.9999.1");
    std::fs::write(&keep_tmp, b"in-flight").expect("tmp");
    std::fs::write(&stale_tmp, b"orphan").expect("tmp");
    // A file the store never named is left alone.
    let foreign = dir.join("README.txt");
    std::fs::write(&foreign, b"not a container").expect("foreign");

    let before = store.size_bytes();
    assert!(before > 0);
    let report = store.gc(&[keep_fp]).expect("gc");
    // Stale containers go; BOTH temps survive the default grace window
    // — a young `.tmp.` may be another process's in-flight write, even
    // when its fingerprint looks stale to *this* process's keep-set.
    assert_eq!(report.removed_files, 2, "stale full and overlay only");
    assert!(report.freed_bytes > 0);
    assert!(store.size_bytes() < before);
    assert!(store.has(&keep_w, &config), "kept checkpoint must survive gc");
    assert!(!store.has(&stale_w, &config), "stale checkpoint must be gone");
    assert!(keep_tmp.exists(), "a kept key's in-flight temp file must survive");
    assert!(stale_tmp.exists(), "a young stale-keyed temp is inside the grace window");
    assert!(foreign.exists(), "unknown files are not the store's to delete");

    // With the grace window collapsed the stale orphan is litter and is
    // collected; the kept key's temp is still spared by its fingerprint.
    let report = store.gc_with_grace(&[keep_fp], std::time::Duration::ZERO).expect("gc");
    assert_eq!(report.removed_files, 1, "stale orphan temp, past grace");
    assert!(keep_tmp.exists(), "a kept key's temp survives even with no grace");
    assert!(!stale_tmp.exists(), "a stale orphan temp past the grace window is removed");

    // Concurrent-safety shape: the surviving in-flight write completes
    // its temp+rename after gc, exactly as a racing saver would.
    std::fs::rename(&keep_tmp, store.path_for(&keep_w, &config)).expect("rename after gc");

    // gc with nothing to keep empties the store (foreign file aside).
    let report = store.gc_with_grace(&[], std::time::Duration::ZERO).expect("gc all");
    assert!(report.removed_files >= 2);
    assert_eq!(store.size_bytes(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The race satellite pins: a concurrent writer's just-created temp file
/// (stale-looking fingerprint, arbitrary keep-set) is never unlinked by
/// a default-grace gc, so its rename always lands. The writer here IS
/// concurrent — saves race gc on another thread while gc loops.
#[test]
fn gc_never_breaks_a_concurrent_writers_rename() {
    let w = quick_workload();
    let config = quick_config(PolicyKind::Lru);
    let dir = std::env::temp_dir().join("trrip-ckpt-gc-race-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    let mut run = SimRun::new(&w, &config);
    let mut stream = walker(&w, &config);
    run.fast_forward(&mut stream);
    store.save(&run).expect("seed save");

    // No fingerprint is kept: every container AND temp looks stale to
    // this gc. Only the grace window protects the in-flight writes.
    // (`SimRun` is not `Sync`, so the saver keeps it on this thread and
    // the gc loop races from the spawned one.)
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut gcs = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                store.gc(&[]).expect("gc");
                gcs += 1;
            }
            gcs
        });
        for _ in 0..50 {
            store.save(&run).expect("a racing gc must never break a save");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let gcs = collector.join().expect("gc thread");
        assert!(gcs > 0, "the gc loop must actually have raced the saver");
    });

    // Every temp either renamed into place or survives intact: with the
    // default grace, gc removed no fresh temp out from under its writer.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "all racing writes completed their rename: {leftovers:?}");
    // (The container itself may or may not have survived — gc kept
    // nothing, so deleting it was legal. A fresh save must land.)
    store.save(&run).expect("save after the race");
    assert!(store.has(&w, &config), "a post-race save's container must be loadable");

    // The budgeted gc under maximum pressure (1-byte budget: evict
    // everything, always) gives the same guarantee: it only ever sees
    // published `.ckpt` files, so a concurrent writer's temp+rename is
    // untouchable by construction and every racing save lands.
    stop.store(false, std::sync::atomic::Ordering::Relaxed);
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut gcs = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                store.gc_budget(1).expect("gc_budget");
                gcs += 1;
            }
            gcs
        });
        for _ in 0..50 {
            store.save(&run).expect("a racing budget gc must never break a save");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let gcs = collector.join().expect("gc thread");
        assert!(gcs > 0, "the budget-gc loop must actually have raced the saver");
    });
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "all racing writes completed their rename: {leftovers:?}");
    store.save(&run).expect("save after the budget race");
    assert!(store.has(&w, &config), "a post-race save's container must be loadable");
    std::fs::remove_dir_all(&dir).ok();
}

/// `gc_budget(n)` shrinks the store to the budget by rebuild-cost class
/// — overlays first, then shared prefixes, then full containers, LRU
/// within a class — journals each victim, and never touches in-flight
/// temp files or files the store did not name.
#[test]
fn gc_budget_evicts_cheapest_to_rebuild_first_and_converges() {
    let dir = std::env::temp_dir().join("trrip-ckpt-gc-budget-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("test dir");
    let store = CheckpointStore::new(&dir);

    // The store's own naming shapes, planted directly (gc_budget
    // classifies by name and size, not content), with distinct sizes so
    // byte accounting identifies exactly who was evicted.
    let overlay = dir.join("w-pgo-lru-ff100-ovl-0000000000000001-0000000000000002.ckpt");
    let prefix = dir.join("w-pgo-shared-ff100-0000000000000001-0000000000000003.ckpt");
    let full_old = dir.join("w-pgo-lru-ff100-0000000000000001-0000000000000002.ckpt");
    let full_new = dir.join("w-pgo-srrip-ff100-0000000000000001-0000000000000004.ckpt");
    let tmp = dir.join("w-pgo-lru-ff100-0000000000000001-0000000000000002.tmp.1.0");
    let foreign = dir.join("README.txt");
    std::fs::write(&overlay, vec![0u8; 100]).expect("overlay");
    std::fs::write(&prefix, vec![0u8; 200]).expect("prefix");
    std::fs::write(&full_old, vec![0u8; 300]).expect("full old");
    std::thread::sleep(std::time::Duration::from_millis(20)); // distinct mtimes
    std::fs::write(&full_new, vec![0u8; 400]).expect("full new");
    std::fs::write(&tmp, vec![0u8; 50]).expect("tmp");
    std::fs::write(&foreign, b"not a container").expect("foreign");
    assert_eq!(store.size_bytes(), 1000, "temp and foreign files don't count");

    let evicted_before = trrip_obs::counter!("ckpt.evicted_files").value();

    // Under budget: nothing moves.
    let report = store.gc_budget(2000).expect("gc_budget");
    assert_eq!(report, trrip_sim::GcReport::default());
    assert_eq!(store.size_bytes(), 1000);

    // Tightest class goes first: the overlay (class 0) alone gets under
    // 950, even though evicting any larger file would too.
    let report = store.gc_budget(950).expect("gc_budget");
    assert_eq!((report.removed_files, report.freed_bytes), (1, 100), "overlay first");
    assert!(!overlay.exists() && prefix.exists() && full_old.exists() && full_new.exists());

    // Then the shared prefix (class 1), then the OLDER full container
    // (class 2, LRU) — and eviction stops the moment the store fits.
    let report = store.gc_budget(600).expect("gc_budget");
    assert_eq!((report.removed_files, report.freed_bytes), (2, 500), "prefix, then LRU full");
    assert!(!prefix.exists() && !full_old.exists());
    assert!(full_new.exists(), "the most recently used full container is kept");
    assert_eq!(store.size_bytes(), 400);

    // Convergence under any budget: the store ends at/under budget, and
    // in-flight temps and unknown files are never candidates.
    let report = store.gc_budget(100).expect("gc_budget");
    assert_eq!((report.removed_files, report.freed_bytes), (1, 400));
    assert_eq!(store.size_bytes(), 0);
    assert!(tmp.exists(), "a concurrent writer's in-flight temp is never evicted");
    assert!(foreign.exists(), "unknown files are not the store's to delete");

    assert_eq!(
        trrip_obs::counter!("ckpt.evicted_files").value() - evicted_before,
        4,
        "every victim is counted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpointed sweep engine agrees bit-for-bit with the plain
/// fan-out engine and the walker sweep — cold (populating) and warm
/// (restoring) alike.
#[test]
fn checkpointed_sweep_matches_other_engines() {
    let w = quick_workload();
    let workloads = [w];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Random, PolicyKind::Trrip2];

    let trace_dir = std::env::temp_dir().join("trrip-ckpt-sweep-traces");
    let ckpt_dir = std::env::temp_dir().join("trrip-ckpt-sweep-ckpts");
    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    let traces = trrip_sim::TraceStore::new(&trace_dir);
    let ckpts = CheckpointStore::new(&ckpt_dir);

    let walked = trrip_sim::policy_sweep(&workloads, &config, &policies);
    let cold =
        trrip_sim::replay_sweep_warm_prefix(4, &workloads, &config, &policies, &traces, &ckpts);
    for policy in policies {
        let cell_config = config.clone().with_policy(policy);
        assert!(
            ckpts.has_warm_start(&workloads[0], &cell_config),
            "{policy}: cold sweep must persist a warm-startable state"
        );
        assert!(
            ckpts.overlay_path(&workloads[0], &cell_config).is_file(),
            "{policy}: cold sweep must persist the policy overlay"
        );
    }
    assert!(
        ckpts.prefix_path(&workloads[0], &config).is_file(),
        "cold sweep must persist the shared prefix"
    );
    let warm =
        trrip_sim::replay_sweep_warm_prefix(4, &workloads, &config, &policies, &traces, &ckpts);

    for ((a, b), c) in walked.results.iter().zip(&cold.results).zip(&warm.results) {
        assert_identical(a, b, "cold checkpointed sweep");
        assert_identical(a, c, "warm checkpointed sweep");
    }
    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

// ---- v4 container robustness on arbitrary section shapes ----

/// Payloads shaped like real snapshot sections: noise (raw / LZ),
/// byte runs (the RLE shape of valid/dirty/instr bitmaps), and sorted
/// stride-64 word arrays (the delta shape of tag stores) — so the
/// proptest drives every codec the v4 pack stream can pick.
fn arb_section_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..3000),
            (any::<u8>(), 1usize..3000).prop_map(|(b, n)| vec![b; n]),
            (any::<u64>(), 1usize..300).prop_map(|(base, n)| {
                (0..n as u64).flat_map(|i| base.wrapping_add(i * 64).to_le_bytes()).collect()
            }),
        ],
        1..8,
    )
    .prop_map(|blocks| blocks.concat())
}

/// A unique on-disk path per proptest case.
fn unique_ckpt_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("trrip-ckpt-v4-prop-test");
    std::fs::create_dir_all(&dir).expect("test dir");
    dir.join(format!("case-{}-{}.ckpt", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// write → read is the identity on arbitrary section shapes (the
    /// compressed payload round-trips exactly), any flipped byte at or
    /// after the checksummed body is rejected, and any truncation is
    /// rejected — damage never yields a silently different payload.
    #[test]
    fn v4_container_round_trips_and_rejects_damage(
        payload in arb_section_payload(),
        victim in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let meta = trrip_sim::CheckpointMeta {
            benchmark: "prop".into(),
            policy: "lru".into(),
            fingerprint: 0x1234_5678_9abc_def0,
            config_hash: 42,
            stream_position: 7,
            mid_measure: false,
        };
        let path = unique_ckpt_path();
        write_checkpoint_kind(&path, trrip_sim::CheckpointKind::Full, &meta, &payload)
            .expect("write v4");
        let (kind, got_meta, got_payload) = read_checkpoint(&path).expect("read v4");
        prop_assert_eq!(kind, trrip_sim::CheckpointKind::Full);
        prop_assert_eq!(&got_meta, &meta);
        prop_assert_eq!(&got_payload, &payload, "compressed payload must round-trip exactly");

        let pristine = std::fs::read(&path).expect("read back");
        // Flip one byte anywhere in the checksummed region (body +
        // trailing checksum; the 18-byte header has its own checks).
        let target = 18 + victim as usize % (pristine.len() - 18);
        corrupt::flip_byte(&path, target, flip);
        prop_assert!(read_checkpoint(&path).is_err(), "flip at {} accepted", target);

        // Any truncation is rejected (the body length must match the
        // file exactly).
        corrupt::plant_file(&path, &pristine);
        let keep = (victim as usize ^ flip as usize) % pristine.len();
        corrupt::truncate_file(&path, keep);
        prop_assert!(read_checkpoint(&path).is_err(), "{}-byte prefix accepted", keep);

        std::fs::remove_file(&path).ok();
    }
}
