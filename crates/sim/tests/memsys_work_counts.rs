//! Deterministic work counts of the memory-system hot path, pinned
//! exactly: the L1 fast path, the deferred miss batch, the walker's
//! basic-block memo and functional warming each do a fixed amount of
//! work on a fixed workload. A change that makes one of them engage less
//! (a fast path that stops hitting, a batch that stops deferring, a memo
//! that stops reusing templates) moves a count and fails here on any
//! host, where a wall-clock threshold would depend on the machine.
//!
//! The run is TRRIP-1 on the `memsys-bench` spec: 40k warmup and 200k
//! measured instructions over the memoized walker, batching and the
//! set-sorted drain on (the shipping configuration). The ablated
//! configurations are pinned elsewhere: batched ≡ synchronous and
//! set-sorted ≡ FIFO drain by `miss_batch_equivalence`, memoized ≡ fresh
//! walker by `trrip-workloads`' `walker_memoization`.
//!
//! The counter registry is process-global, so this file holds a single
//! test: no other test in the binary can add to the counts it reads.

use trrip_core::ClassifierConfig;
use trrip_cpu::WarmupTape;
use trrip_policies::PolicyKind;
use trrip_sim::{PreparedWorkload, SimConfig, SimRun, SnapReader, SnapWriter, Snapshot};
use trrip_trace::SourceIter;
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

fn workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("memsys-bench");
    spec.functions = 120;
    spec.hot_rotation = 30;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

fn config() -> SimConfig {
    let mut config = SimConfig::quick(PolicyKind::Trrip1);
    config.fast_forward = 40_000;
    config.instructions = 200_000;
    config
}

fn walker<'w>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
) -> SourceIter<TraceGenerator<'w>> {
    SourceIter::new(TraceGenerator::new(
        &workload.program,
        workload.object(config.layout),
        &workload.spec,
        InputSet::Eval,
    ))
}

#[test]
fn memsys_work_counts_are_pinned_and_snapshots_round_trip() {
    let workload = workload();
    let config = config();

    // Warm measure path: fast-forward + measure, counted together. The
    // walker publishes its memo tallies when it drops, so the stream
    // goes out of scope before the counters are read.
    let before = trrip_obs::snapshot();
    let result = {
        let mut run = SimRun::new(&workload, &config);
        let mut stream = walker(&workload, &config);
        run.fast_forward(&mut stream);
        run.measure(&mut stream)
    };
    let counts = trrip_obs::snapshot().since(&before);
    assert_eq!(result.core.instructions, config.instructions);
    let pinned = [
        ("cache.l1_fastpath_hit", 84_260),
        ("cache.l1_fastpath_bail", 26_379),
        ("cache.miss_batch.deferred", 11_441),
        ("cache.miss_batch.flushes", 3_038),
        ("cache.miss_batch.group_len", 383),
        ("walk.bb_memo.hit", 4_576),
        ("walk.bb_memo.miss", 164),
    ];
    let got: Vec<(&str, u64)> = pinned.iter().map(|&(name, _)| (name, counts.get(name))).collect();
    assert_eq!(got, pinned, "memsys work counts moved");

    // Functional warming: replaying the recorded warmup tail with
    // attribution off skips a fixed amount of stat bookkeeping.
    let mut tape = WarmupTape::new();
    SimRun::new(&workload, &config)
        .fast_forward_recorded(&mut walker(&workload, &config), &mut tape);
    let before = trrip_obs::snapshot();
    SimRun::new(&workload, &config).fast_forward_replayed_mode(
        &mut walker(&workload, &config),
        &tape,
        true,
    );
    let skips = trrip_obs::snapshot().since(&before).get("warm.functional_stats_skips");
    // One skip per warmup instruction.
    assert_eq!(skips, 40_000, "functional warming skipped a different amount of bookkeeping");

    // The SoA machine state snapshot-round-trips byte for byte.
    let mut run = SimRun::new(&workload, &config);
    run.fast_forward(&mut walker(&workload, &config));
    let mut first = SnapWriter::new();
    run.save(&mut first);
    let mut restored = SimRun::new(&workload, &config);
    restored.restore(&mut SnapReader::new(first.bytes())).expect("restore memsys state");
    let mut second = SnapWriter::new();
    restored.save(&mut second);
    assert_eq!(first.bytes(), second.bytes(), "SoA snapshot round-trip drifted");
}
