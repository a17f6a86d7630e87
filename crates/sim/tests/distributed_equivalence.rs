//! Multi-process sweeps ≡ single-process sweeps, bit for bit — even
//! when workers are SIGKILLed mid-segment, heartbeats stall, claims are
//! reclaimed, and checkpoint/fragment writes are torn by the fault
//! harness.
//!
//! Worker processes are spawned by re-invoking this test binary with
//! `--exact worker_entry` and a `TRRIP_DIST_ROLE=worker` environment:
//! [`worker_entry`] is a no-op in a normal test run and becomes a real
//! coordinated worker in a child. Workloads and configs are rebuilt
//! deterministically from fixed specs in every process, so only
//! directories, ids, timing knobs, and fault specs cross the process
//! boundary. Faults are armed purely through `TRRIP_FAULTS` in child
//! environments — the parent process never arms the (process-global)
//! fault table, so parallel tests in this binary cannot interfere.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    collect_results, coordinate_worker, run_sweep, CheckpointStore, PreparedWorkload, SimConfig,
    SimResult, Sweep, TraceStore, WorkerOptions,
};
use trrip_workloads::WorkloadSpec;

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
    let mut spec = WorkloadSpec::named("dist-test");
    spec.functions = 50;
    spec.hot_rotation = 8;
    PreparedWorkload::prepare(&spec, 400_000, ClassifierConfig::llvm_defaults())
}

fn quick_config(policy: PolicyKind) -> SimConfig {
    let mut c = SimConfig::quick(policy);
    c.fast_forward = 20_000;
    c.instructions = 60_000;
    c
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

const SHARDS: usize = 3;

fn scratch_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("trrip-dist-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("scratch root");
    root
}

fn worker_journal(root: &Path, id: u32) -> PathBuf {
    root.join("obs").join(format!("worker-{id}.jsonl"))
}

/// Spawns a worker child against `root` (traces + checkpoints + its own
/// journal live under it). `faults` becomes the child's `TRRIP_FAULTS`.
fn spawn_worker(
    root: &Path,
    id: u32,
    policies: &str,
    stale_ms: u64,
    faults: Option<&str>,
) -> Child {
    let mut cmd = Command::new(std::env::current_exe().expect("current test binary"));
    cmd.args(["--exact", "worker_entry", "--nocapture", "--test-threads", "1"])
        .env("TRRIP_DIST_ROLE", "worker")
        .env("TRRIP_DIST_DIR", root)
        .env("TRRIP_DIST_WORKER_ID", id.to_string())
        .env("TRRIP_DIST_POLICIES", policies)
        .env("TRRIP_DIST_SHARDS", SHARDS.to_string())
        .env("TRRIP_DIST_HEARTBEAT_MS", "100")
        .env("TRRIP_DIST_STALE_MS", stale_ms.to_string())
        .env_remove("TRRIP_FAULTS")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = faults {
        cmd.env("TRRIP_FAULTS", spec);
    }
    cmd.spawn().expect("spawn worker")
}

/// The worker process body. Gated on the environment: a plain test run
/// sees no `TRRIP_DIST_ROLE` and returns immediately.
#[test]
fn worker_entry() {
    if std::env::var("TRRIP_DIST_ROLE").as_deref() != Ok("worker") {
        return;
    }
    let root = PathBuf::from(std::env::var("TRRIP_DIST_DIR").expect("TRRIP_DIST_DIR"));
    let id: u32 = std::env::var("TRRIP_DIST_WORKER_ID").expect("worker id").parse().expect("id");
    let policies: Vec<PolicyKind> = std::env::var("TRRIP_DIST_POLICIES")
        .expect("policies")
        .split(',')
        .map(|p| p.parse().expect("policy name"))
        .collect();
    let shards: usize = std::env::var("TRRIP_DIST_SHARDS").expect("shards").parse().expect("n");
    let ms = |key: &str, default: u64| {
        std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    };

    let journal = worker_journal(&root, id);
    std::fs::create_dir_all(journal.parent().expect("obs dir")).expect("obs dir");
    trrip_obs::journal_init(&journal, 262_144).expect("journal");
    trrip_obs::set_quiet(true);

    let w = quick_workload();
    let config = quick_config(PolicyKind::Srrip);
    let traces = TraceStore::new(root.join("traces"));
    let checkpoints = CheckpointStore::new(root.join("ckpts"));
    let opts = WorkerOptions {
        worker: format!("w{id}"),
        heartbeat: Duration::from_millis(ms("TRRIP_DIST_HEARTBEAT_MS", 100)),
        stale_after: Duration::from_millis(ms("TRRIP_DIST_STALE_MS", 1000)),
        poll: Duration::from_millis(30),
    };
    let report = coordinate_worker(&[w], &config, &policies, &traces, &checkpoints, shards, &opts);
    eprintln!("worker {id} report: {report:?}");
    trrip_obs::journal_close();
}

/// Reads a worker's journal (tolerating a torn tail — killed workers
/// leave one) and returns the events of `kind`.
fn events_of_kind(root: &Path, id: u32, kind: &str) -> Vec<trrip_obs::json::Json> {
    let path = worker_journal(root, id);
    if !path.exists() {
        return Vec::new();
    }
    let read = trrip_obs::read_journal(&path).expect("journal parses");
    read.of_kind(kind).cloned().collect()
}

fn baseline_sweep(
    root: &Path,
    w: &PreparedWorkload,
    config: &SimConfig,
    policies: &[PolicyKind],
) -> Vec<SimResult> {
    // The baseline shares the trace dir (captures are deterministic and
    // concurrent-safe) but uses its own checkpoint store, so its chain
    // links never warm the distributed run or vice versa.
    let traces = TraceStore::new(root.join("traces"));
    let checkpoints = CheckpointStore::new(root.join("ckpts-baseline"));
    let workloads = [w.clone()];
    let sweep =
        Sweep::new(&workloads, config, policies).replay(&traces, Some(&checkpoints)).shards(SHARDS);
    run_sweep(2, &sweep).results
}

/// The tentpole acceptance: a worker is SIGKILLed the moment it
/// acquires its first claim (exit 137, claim left behind, no fragment),
/// then two fresh workers race the remaining DAG concurrently, reclaim
/// the dead worker's stale claim, and the collected sweep is
/// bit-identical to the single-process sharded sweep — for all 10
/// policies.
#[test]
fn killed_worker_reclamation_matches_single_process_for_all_policies() {
    let root = scratch_root("kill");
    let w = quick_workload();
    let config = quick_config(PolicyKind::Srrip);
    let policy_list =
        ALL_POLICIES.iter().map(|p| p.name().to_ascii_lowercase()).collect::<Vec<_>>().join(",");

    let baseline = baseline_sweep(&root, &w, &config, &ALL_POLICIES);

    // Worker 0 runs alone and dies holding its first claim.
    let status = spawn_worker(&root, 0, &policy_list, 600, Some("coord.claim.acquired=kill"))
        .wait()
        .expect("wait worker 0");
    assert_eq!(status.code(), Some(137), "worker 0 must die at the claim seam");
    assert!(
        collect_results(
            std::slice::from_ref(&w),
            &config,
            &ALL_POLICIES,
            &CheckpointStore::new(root.join("ckpts")),
            SHARDS
        )
        .expect("collect")
        .is_none(),
        "the sweep must be incomplete after the kill"
    );
    let acquired = events_of_kind(&root, 0, "claim_acquired");
    assert_eq!(acquired.len(), 1, "worker 0 acquired exactly one claim before dying");

    // Workers 1 and 2 race the rest concurrently; one of them must
    // reclaim the dead worker's stale claim to finish.
    let mut w1 = spawn_worker(&root, 1, &policy_list, 600, None);
    let mut w2 = spawn_worker(&root, 2, &policy_list, 600, None);
    assert!(w1.wait().expect("wait worker 1").success(), "worker 1 must succeed");
    assert!(w2.wait().expect("wait worker 2").success(), "worker 2 must succeed");

    let reclaimed: Vec<_> =
        [1u32, 2].iter().flat_map(|&id| events_of_kind(&root, id, "claim_reclaimed")).collect();
    assert!(!reclaimed.is_empty(), "the dead worker's claim must have been reclaimed");
    assert!(
        reclaimed.iter().any(|e| {
            e.get("prev_worker").and_then(trrip_obs::json::Json::as_str) == Some("w0")
        }),
        "the reclaimed claim must be stamped with the dead worker's id: {reclaimed:?}"
    );

    let checkpoints = CheckpointStore::new(root.join("ckpts"));
    let sweep =
        collect_results(std::slice::from_ref(&w), &config, &ALL_POLICIES, &checkpoints, SHARDS)
            .expect("collect")
            .expect("sweep complete after workers 1+2");
    assert_eq!(sweep.results.len(), baseline.len());
    for (got, want) in sweep.results.iter().zip(&baseline) {
        assert_eq!(got.policy, want.policy);
        assert_identical(got, want, &format!("{} after kill+reclaim", got.policy));
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Torn artifact writes — a checkpoint container damaged between flush
/// and rename, and a result fragment truncated the same way — are
/// detected by their checksums, healed (cold rebuild / segment re-run),
/// and never change results.
#[test]
fn torn_checkpoint_and_fragment_writes_heal_without_changing_results() {
    let root = scratch_root("torn");
    let w = quick_workload();
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Trrip1, PolicyKind::Trrip2];
    let policy_list =
        policies.iter().map(|p| p.name().to_ascii_lowercase()).collect::<Vec<_>>().join(",");

    let baseline = baseline_sweep(&root, &w, &config, &policies);

    let status = spawn_worker(
        &root,
        3,
        &policy_list,
        800,
        Some("ckpt.save.partial=corrupt;coord.fragment.save=truncate:9"),
    )
    .wait()
    .expect("wait worker 3");
    assert!(status.success(), "the worker must survive both torn writes");

    // The torn fragment was detected by checksum and journaled before
    // the segment re-ran.
    let damaged = events_of_kind(&root, 3, "artifact_damaged");
    assert!(
        damaged.iter().any(|e| {
            e.get("what").and_then(trrip_obs::json::Json::as_str) == Some("result fragment")
        }),
        "the torn fragment must surface as artifact_damaged: {damaged:?}"
    );
    let fired = events_of_kind(&root, 3, "fault_fired");
    assert_eq!(fired.len(), 2, "both armed faults must have fired: {fired:?}");

    let checkpoints = CheckpointStore::new(root.join("ckpts"));
    let sweep = collect_results(std::slice::from_ref(&w), &config, &policies, &checkpoints, SHARDS)
        .expect("collect")
        .expect("sweep complete");
    for (got, want) in sweep.results.iter().zip(&baseline) {
        assert_identical(got, want, &format!("{} after torn writes", got.policy));
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The reclamation race: a worker whose heartbeat stalls (delayed past
/// the staleness deadline) while it sits mid-segment gets its claim
/// reclaimed by a live peer — both then publish the segment's fragment,
/// the bytes are identical, and no tally is lost or duplicated.
#[test]
fn stalled_heartbeat_reclamation_race_loses_no_tallies() {
    let root = scratch_root("stall");
    let w = quick_workload();
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Trrip2];
    let policy_list =
        policies.iter().map(|p| p.name().to_ascii_lowercase()).collect::<Vec<_>>().join(",");

    let baseline = baseline_sweep(&root, &w, &config, &policies);

    // Worker 4: the first heartbeat stalls 6 s and the first segment
    // parks 3 s between simulation and fragment publish — so its claim
    // goes stale (400 ms deadline) while it is genuinely still alive.
    // Worker 5 heartbeats normally and reclaims.
    let mut w4 = spawn_worker(
        &root,
        4,
        &policy_list,
        400,
        Some("coord.heartbeat=delay:6000;coord.segment.done=delay:3000"),
    );
    let mut w5 = spawn_worker(&root, 5, &policy_list, 400, None);
    assert!(w4.wait().expect("wait worker 4").success(), "the stalled worker still finishes");
    assert!(w5.wait().expect("wait worker 5").success(), "the live worker must succeed");

    let reclaimed = events_of_kind(&root, 5, "claim_reclaimed");
    assert!(
        reclaimed.iter().any(|e| {
            e.get("prev_worker").and_then(trrip_obs::json::Json::as_str) == Some("w4")
        }),
        "worker 5 must have reclaimed the stalled worker's claim: {reclaimed:?}"
    );
    let lost = events_of_kind(&root, 4, "claim_lost");
    assert!(
        !lost.is_empty(),
        "the stalled worker must notice its claim was reclaimed out from under it"
    );

    let checkpoints = CheckpointStore::new(root.join("ckpts"));
    let sweep = collect_results(std::slice::from_ref(&w), &config, &policies, &checkpoints, SHARDS)
        .expect("collect")
        .expect("sweep complete");
    for (got, want) in sweep.results.iter().zip(&baseline) {
        assert_identical(got, want, &format!("{} after reclamation race", got.policy));
    }
    std::fs::remove_dir_all(&root).ok();
}

/// In-process sanity for the cooperative path itself: two workers in
/// one process (distinct worker ids, shared stores) split the DAG and
/// the collected sweep matches the single-process engine. This is the
/// cheap always-on cousin of the spawned-process tests above.
#[test]
fn two_in_process_workers_cooperate_bit_identically() {
    let root = scratch_root("coop");
    let w = quick_workload();
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Lru, PolicyKind::Ship, PolicyKind::Emissary];

    let baseline = baseline_sweep(&root, &w, &config, &policies);

    let traces = TraceStore::new(root.join("traces"));
    let checkpoints = CheckpointStore::new(root.join("ckpts"));
    let workloads = [w.clone()];
    std::thread::scope(|scope| {
        for id in [6u32, 7] {
            let (workloads, traces, checkpoints, config) =
                (&workloads, &traces, &checkpoints, &config);
            let policies = &policies;
            scope.spawn(move || {
                let mut opts = WorkerOptions::named(format!("w{id}"));
                opts.heartbeat = Duration::from_millis(100);
                opts.stale_after = Duration::from_secs(5);
                opts.poll = Duration::from_millis(20);
                coordinate_worker(workloads, config, policies, traces, checkpoints, SHARDS, &opts)
            });
        }
    });

    let sweep = collect_results(&workloads, &config, &policies, &checkpoints, SHARDS)
        .expect("collect")
        .expect("sweep complete");
    for (got, want) in sweep.results.iter().zip(&baseline) {
        assert_identical(got, want, &format!("{} in-process coop", got.policy));
    }
    std::fs::remove_dir_all(&root).ok();
}
