//! Per-layer measurements of a traced run, each timed from outside
//! around calls into one crate's public functions, on the workload's own
//! prepared programs.

use std::path::Path;

use trrip_cpu::backend::FlatBackend;
use trrip_cpu::{Core, CoreResult, TraceInstr, WarmupTape};
use trrip_policies::PolicyKind;
use trrip_sim::{capture_length, CheckpointStore, PreparedWorkload, SimRun, Snapshot, TraceStore};
use trrip_trace::{SourceIter, StreamingReplay, TraceSource};
use trrip_workloads::{InputSet, TraceGenerator};

use crate::check::Tally;
use crate::ledger::Ledger;
use crate::memsys;
use crate::metrics::{ratio, Values};
use crate::workload::base_config;

/// Instructions of walker output fed to the bare core per program.
const CORE_SLICE: usize = 1_000_000;
/// Trace bytes per program handed to the pack codec.
const PACK_TRACE_BYTES: usize = 4 << 20;

fn walker(workload: &PreparedWorkload) -> TraceGenerator<'_> {
    let config = base_config();
    TraceGenerator::new(
        &workload.program,
        workload.object(config.layout),
        &workload.spec,
        InputSet::Eval,
    )
}

/// Walker: drain one cell's worth of instructions through
/// `TraceSource::next_batch`; the memo hit ratio is the walker's own.
pub fn walker_layer(ledger: &Ledger, prepared: &[PreparedWorkload], out: &mut Values) {
    let length = capture_length(&base_config());
    let (mut total_ns, mut instrs, mut hits, mut misses) = (0.0, 0u64, 0u64, 0u64);
    for w in prepared {
        let mut generator = walker(w);
        let mut batch: Vec<TraceInstr> = Vec::new();
        let ((), id) = ledger.time("walker.drain", None, Some(&w.spec.name), || {
            let mut drained = 0u64;
            while drained < length {
                batch.clear();
                drained += generator.next_batch(&mut batch) as u64;
            }
            instrs += drained;
        });
        total_ns += ledger.ns(id);
        let (h, m) = generator.memo_counts();
        hits += h;
        misses += m;
    }
    out.set("walker.ns_per_instr", ratio(total_ns, instrs as f64));
    out.set("walker.memo_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
}

/// Trace store: capture every program into an empty store, then drain
/// each capture through `StreamingReplay`. Returns the capture paths.
pub fn trace_layer(
    ledger: &Ledger,
    prepared: &[PreparedWorkload],
    dir: &Path,
    tally: &mut Tally,
    out: &mut Values,
) -> Vec<std::path::PathBuf> {
    let config = base_config();
    let store = TraceStore::new(dir);
    let (mut capture_ns, mut decode_ns, mut instrs, mut bytes) = (0.0, 0.0, 0u64, 0u64);
    let mut paths = Vec::new();
    for w in prepared {
        let (path, id) =
            ledger.time("trace.capture", None, Some(&w.spec.name), || store.ensure(w, &config));
        capture_ns += ledger.ns(id);
        let Ok(path) = path else {
            tally.failed_outright(1, &format!("capture of {}", w.spec.name));
            continue;
        };
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let (decoded, id) = ledger.time("trace.decode", None, Some(&w.spec.name), || {
            let mut replay = StreamingReplay::open(&path).ok()?;
            let mut batch = Vec::new();
            let mut n = 0u64;
            loop {
                batch.clear();
                match replay.next_batch(&mut batch) {
                    0 => break Some(n),
                    k => n += k as u64,
                }
            }
        });
        decode_ns += ledger.ns(id);
        if decoded != Some(capture_length(&config)) {
            tally.failed_outright(
                1,
                &format!("replay of {} ({decoded:?} instructions)", w.spec.name),
            );
        }
        instrs += capture_length(&config);
        paths.push(path);
    }
    out.set("trace.capture_ns_per_instr", ratio(capture_ns, instrs as f64));
    out.set("trace.decode_ns_per_instr", ratio(decode_ns, instrs as f64));
    out.set("trace.bytes_per_instr", ratio(bytes as f64, instrs as f64));
    paths
}

/// A fast-forwarded run of `workload` under TRRIP-1 and its recorded
/// warmup tape — the state a checkpoint store persists.
fn warmed(workload: &PreparedWorkload) -> (SimRun<'_>, WarmupTape) {
    let config = base_config().with_policy(PolicyKind::Trrip1);
    let mut run = SimRun::new(workload, &config);
    let mut stream = SourceIter::new(walker(workload));
    let mut tape = WarmupTape::new();
    run.fast_forward_recorded(&mut stream, &mut tape);
    (run, tape)
}

/// Checkpoint store: save a shared prefix + overlay for one cell per
/// program, then load both back into a fresh run. Also returns the raw
/// snapshot payloads, for the codec.
pub fn checkpoint_layer(
    ledger: &Ledger,
    prepared: &[PreparedWorkload],
    dir: &Path,
    tally: &mut Tally,
    out: &mut Values,
) -> Vec<Vec<u8>> {
    let store = CheckpointStore::new(dir);
    let (mut save_ns, mut load_ns) = (0.0, 0.0);
    let mut payloads = Vec::new();
    for w in prepared {
        let (run, tape) = warmed(w);
        let mut raw = trrip_sim::SnapWriter::new();
        run.save_shared(&mut raw);
        tape.save(&mut raw);
        run.save_overlay(&mut raw);
        payloads.push(raw.into_bytes());

        let (saved, id) = ledger.time("ckpt.save", None, Some(&w.spec.name), || {
            store.save_prefix(&run, &tape).and_then(|_| store.save_overlay(&run))
        });
        save_ns += ledger.ns(id);
        let config = run.config().clone();
        let (loaded, id) = ledger.time("ckpt.load", None, Some(&w.spec.name), || {
            let prefix = store.load_prefix(w, &config).ok()??;
            let mut fresh = SimRun::new(w, &config);
            prefix.apply(&mut fresh).ok()?;
            store.load_overlay_into(&mut fresh).ok()
        });
        load_ns += ledger.ns(id);
        if saved.is_err() || loaded != Some(true) {
            tally.failed_outright(1, &format!("checkpoint round trip of {}", w.spec.name));
        }
    }
    let cells = prepared.len().max(1) as f64;
    out.set("ckpt.save_ms", save_ns / cells / 1e6);
    out.set("ckpt.load_ms", load_ns / cells / 1e6);
    payloads
}

/// Pack codec: `pack_stream` / `unpack_stream` over the bytes the store
/// writes — checkpoint snapshot payloads and decompressed trace chunk
/// payloads with their placement dictionary. Round trips are checked.
pub fn pack_layer(
    ledger: &Ledger,
    snapshots: &[Vec<u8>],
    traces: &[std::path::PathBuf],
    tally: &mut Tally,
    out: &mut Values,
) {
    let mut inputs: Vec<(Vec<u8>, Vec<u8>)> =
        snapshots.iter().map(|s| (s.clone(), Vec::new())).collect();
    for path in traces {
        let Ok(mut reader) = trrip_trace::open(path) else { continue };
        let dict = reader.meta().dict.clone();
        let mut bytes = Vec::new();
        let mut chunk = Vec::new();
        while bytes.len() < PACK_TRACE_BYTES
            && matches!(reader.read_chunk_raw(&mut chunk), Ok(n) if n > 0)
        {
            bytes.extend_from_slice(&chunk);
        }
        inputs.push((bytes, dict));
    }
    let raw_bytes: usize = inputs.iter().map(|(b, _)| b.len()).sum();
    let before = trrip_obs::snapshot();
    let (packed, id) = ledger.time("pack.compress", None, None, || {
        inputs.iter().map(|(b, d)| trrip_pack::pack_stream(b, d)).collect::<Vec<_>>()
    });
    let compress_s = ledger.ns(id) / 1e9;
    let counted = trrip_obs::snapshot().since(&before);
    let (unpacked, id) = ledger.time("pack.decompress", None, None, || {
        packed
            .iter()
            .zip(&inputs)
            .map(|(p, (_, d))| trrip_pack::unpack_stream(p, d))
            .collect::<Vec<_>>()
    });
    let decompress_s = ledger.ns(id) / 1e9;
    for (got, (want, _)) in unpacked.iter().zip(&inputs) {
        if got.as_ref().ok() != Some(want) {
            tally.failed_outright(1, "pack round trip");
        }
    }
    let mb = raw_bytes as f64 / 1e6;
    out.set("pack.compress_mb_s", ratio(mb, compress_s));
    out.set("pack.decompress_mb_s", ratio(mb, decompress_s));
    out.set(
        "pack.ratio",
        ratio(counted.get("pack.compressed_bytes") as f64, counted.get("pack.raw_bytes") as f64),
    );
}

/// Core: `Core<FlatBackend>::run` over a pre-generated slice of each
/// program's walker output — the timing model with no memory system.
pub fn cpu_layer(ledger: &Ledger, prepared: &[PreparedWorkload], out: &mut Values) {
    let config = base_config();
    let (mut run_ns, mut instrs, mut branches, mut mispredicts) = (0.0, 0u64, 0u64, 0u64);
    for w in prepared {
        let slice: Vec<TraceInstr> = walker(w).take(CORE_SLICE).collect();
        let mut core = Core::new(config.core, FlatBackend::all_hits());
        let (result, id): (CoreResult, _) =
            ledger
                .time("cpu.core_run", None, Some(&w.spec.name), || core.run(slice.iter().copied()));
        run_ns += ledger.ns(id);
        instrs += result.instructions;
        branches += result.branches;
        mispredicts += result.mispredictions;
    }
    out.set("cpu.core_ns_per_instr", ratio(run_ns, instrs as f64));
    out.set("cpu.mispredict_rate", ratio(mispredicts as f64, branches as f64));
}

/// Memory system: one TRRIP-1 cell per program through the timed backend
/// wrapper. Each traced cell's cycles must equal `simulate`'s for the
/// same cell (`simulated`, in program order), or the cell fails.
pub fn memsys_layer(
    ledger: &Ledger,
    prepared: &[PreparedWorkload],
    simulated: &[f64],
    tally: &mut Tally,
    out: &mut Values,
) {
    let config = base_config().with_policy(PolicyKind::Trrip1);
    let clock = memsys::clock_overhead_ns();
    let mut total = memsys::MemTimes::default();
    let (mut est_ns, mut instrs) = (0.0, 0u64);
    for (w, &want) in prepared.iter().zip(simulated) {
        let (cell, _) = ledger
            .time("memsys.cell", None, Some(&w.spec.name), || memsys::traced_cell(w, &config));
        if want.to_bits() == cell.cycles.to_bits() {
            tally.ran(1);
        } else {
            let what =
                format!("traced cell of {} ({} cycles, simulate {want})", w.spec.name, cell.cycles);
            tally.failed_outright(1, &what);
        }
        est_ns += cell.times.total_ns(clock);
        instrs += cell.instructions;
        total.merge(&cell.times);
    }
    out.set("memsys.ns_per_instr", ratio(est_ns, instrs as f64));
    out.set("memsys.l1_ns_per_access", total.l1_ns(clock));
    out.set("memsys.beyond_l1_ns_per_access", total.beyond_ns(clock));
}
