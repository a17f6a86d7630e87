//! The repository benchmark: timed TRRIP policy sweeps on three named
//! workloads, with correctness checks outside the timed window and, on a
//! traced run, a per-layer ledger timed from outside the crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload walker_large|store_populate|store_warm \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs as a closed loop of one process sweeping the
//! paper configuration (300k fast-forward, 3M measured) under all nine
//! Figure 6 policies with `jobs` = the host's hardware threads. Set-up
//! is repeated (see [`SETUP_REPS`]) and reported as a median; sweeps
//! repeat back to back for `--seconds` (and at least [`MIN_SWEEPS`]
//! times) and report the median sweep.
//! Without `--trace` the last stdout line carries every end-to-end
//! metric; with `--trace 1` it carries every per-layer metric instead.
//! Artifacts (stamped record, span ledger) go under `.bench_out/`.

mod check;
mod cli;
mod host;
mod layers;
mod ledger;
mod memsys;
mod metrics;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use trrip_policies::PolicyKind;
use trrip_sim::{capture_length, default_jobs, parallel_map_with, PreparedWorkload, SweepResult};

use check::Tally;
use cli::Args;
use host::Stamp;
use ledger::Ledger;
use metrics::{median, ratio, Values, END_TO_END, PER_LAYER};
use workload::{base_config, Store, Workload, POLICIES};

/// Set-up repeats at least `SETUP_REPS.0` and at most `SETUP_REPS.1`
/// times, stopping once [`SETUP_BUDGET_S`] has passed; `setup_s` is the
/// median. A short set-up (the small programs prepare in ~0.05 s) thus
/// gets enough repeats for a steady median.
const SETUP_REPS: (usize, usize) = (3, 15);
const SETUP_BUDGET_S: f64 = 2.0;
/// Timed sweeps per run at least, however long they take: the median of
/// three still discards one disturbed sweep on a slow host.
const MIN_SWEEPS: usize = 3;
/// Cells per run re-simulated through the oracle path.
const ORACLE_CELLS: usize = 2;
/// Where records, span ledgers and scratch stores go.
const OUT_DIR: &str = ".bench_out";
/// Default and held-out seeds, and the legacy result files this
/// benchmark replaces (frozen, not comparable); embedded in every record.
const MANIFEST: &str = include_str!("../manifest.json");
/// The paper's headline results, printed beside the simulated ones.
const PAPER_SPEEDUP: f64 = 1.039;
const PAPER_L2I_MPKI_RATIO: f64 = 1.0 - 0.265;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    trrip_obs::set_quiet(true);
    // Scratch stores for this run only; removed however the run ends.
    let scratch =
        Path::new(OUT_DIR).join(format!("work-{}-{}", args.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = catch_unwind(AssertUnwindSafe(|| run(&args, &scratch)));
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(Ok(line)) => println!("{line}"),
        Ok(Err(message)) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        Err(_) => {
            eprintln!("error: the benchmark panicked");
            std::process::exit(1);
        }
    }
}

/// One sweep, with a panic inside it turned into `None`.
fn guarded_sweep(
    workload: Workload,
    jobs: usize,
    prepared: &[PreparedWorkload],
    store: &Store,
) -> Option<SweepResult> {
    catch_unwind(AssertUnwindSafe(|| workload::sweep(workload, jobs, prepared, store))).ok()
}

/// Everything the untraced part of a run measured.
struct Measured {
    prepared: Vec<PreparedWorkload>,
    store: Store,
    reference: Option<SweepResult>,
    setup_s: Vec<f64>,
    prepare_s: Vec<f64>,
    sweep_s: Vec<f64>,
    /// Peak resident set of each timed sweep, MiB.
    peak_rss_mb: Vec<f64>,
}

fn run(args: &Args, scratch: &Path) -> Result<String, String> {
    let jobs = default_jobs();
    let stamp = Stamp::collect(jobs, args.seed, args.seconds);
    let w = args.workload;
    let cells = w.proxies().len() * POLICIES.len();
    let mut tally = Tally::default();
    eprintln!(
        "perfbench {} seed {} for {} s, jobs {jobs}, trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let m = measure(args, jobs, scratch, &mut tally)?;
    let reference = m.reference.as_ref();

    // Oracle: a seeded sample of cells through the synchronous miss path.
    if let Some(reference) = reference {
        let picked = check::sample_cells(args.seed, cells, ORACLE_CELLS);
        let config = base_config();
        let oracle = parallel_map_with(jobs, picked.len(), |k| {
            let i = picked[k];
            let cell_config = config.clone().with_policy(POLICIES[i % POLICIES.len()]);
            check::oracle(&m.prepared[i / POLICIES.len()], &cell_config)
        });
        for (&i, got) in picked.iter().zip(&oracle) {
            tally.check("oracle", got, &reference.results[i]);
        }
    }

    let mut values = Values::default();
    let sweep_s = median(&m.sweep_s);
    let table: &[(&str, &str)] = if args.trace {
        traced(args, jobs, &m, sweep_s, scratch, &mut tally, &mut values)?;
        &PER_LAYER
    } else {
        let instructions = (cells as u64 * base_config().instructions) as f64;
        values.set("sweep_s", sweep_s);
        values.set("sim_minstr_per_s", ratio(instructions / 1e6, sweep_s));
        values.set("setup_s", median(&m.setup_s));
        values.set("peak_rss_mb", median(&m.peak_rss_mb));
        let (speedup, mpki_ratio) = reference.map_or((0.0, 0.0), headline);
        values.set("trrip1_speedup_geomean", speedup);
        values.set("trrip1_l2i_mpki_ratio", mpki_ratio);
        values.set("cell_pass_ratio", 1.0 - tally.fail_ratio());
        &END_TO_END
    };

    for note in &tally.notes {
        eprintln!("FAILED {note}");
    }
    for (name, unit) in table {
        let value = values.get(name).unwrap_or(f64::NAN);
        let context = match *name {
            "trrip1_speedup_geomean" => format!("  (sim; paper {PAPER_SPEEDUP})"),
            "trrip1_l2i_mpki_ratio" => format!("  (sim; paper {PAPER_L2I_MPKI_RATIO:.3})"),
            _ => String::new(),
        };
        eprintln!("  {name:<38} {value:>16.6} {unit}{context}");
    }
    let metrics_json = metrics::metrics_json(table, &values)?;
    let correct = tally.failed == 0 && reference.is_some();
    let each = |xs: &[f64]| xs.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(",");
    eprintln!("  sweeps (s): {}; sweep peak RSS (MiB): {}", each(&m.sweep_s), each(&m.peak_rss_mb));
    let record = format!(
        "{{\"workload\":\"{}\",\"trace\":{},\"stamp\":{},\"sweep_s_each\":[{}],\"peak_rss_mb_each\":[{}],\"setup_s_each\":[{}],\"manifest\":{},\"metrics\":{metrics_json}}}",
        w.name(),
        args.trace,
        stamp.to_json(),
        each(&m.sweep_s),
        each(&m.peak_rss_mb),
        each(&m.setup_s),
        MANIFEST.lines().map(str::trim).collect::<String>()
    );
    let record_path = Path::new(OUT_DIR).join(format!(
        "record-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let _ = std::fs::write(&record_path, format!("{record}\n"));
    }
    println!("{record}");
    Ok(metrics::result_line(correct, tally.attempted.max(1), tally.failed, &metrics_json))
}

/// Set-up, repeated per [`SETUP_REPS`], and the timed window.
fn measure(
    args: &Args,
    jobs: usize,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let w = args.workload;
    let cells = w.proxies().len() * POLICIES.len();
    let specs = workload::specs(w, args.seed);
    let store = Store::new(&scratch.join("store"));

    // Set-up: prepare every program; `store_warm` also populates its
    // store, whose results every warm sweep must then reproduce.
    let mut setup_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut prepared = Vec::new();
    let mut populated = None;
    let setup = Instant::now();
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && setup.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        prepared = workload::prepare(&specs, jobs);
        prepare_s.push(start.elapsed().as_secs_f64());
        if w == Workload::StoreWarm {
            store.clear();
            populated = guarded_sweep(w, jobs, &prepared, &store);
            if populated.is_none() {
                tally.failed_outright(cells, "populating sweep panicked");
                return Err("the populating sweep panicked".to_owned());
            }
            tally.ran(cells);
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }

    // The timed window: whole sweeps back to back until it closes and at
    // least `MIN_SWEEPS` have run.
    let mut sweep_s = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let mut reference = populated;
    let window = Instant::now();
    while sweep_s.len() < MIN_SWEEPS || window.elapsed().as_secs_f64() < args.seconds {
        if w == Workload::StorePopulate {
            store.clear();
        }
        host::reset_peak_rss();
        let start = Instant::now();
        let Some(result) = guarded_sweep(w, jobs, &prepared, &store) else {
            tally.failed_outright(cells, "sweep panicked");
            break;
        };
        sweep_s.push(start.elapsed().as_secs_f64());
        peak_rss_mb.push(host::peak_rss_mb());
        match &reference {
            Some(want) => tally.check_sweep("repeat", want, &result),
            None => {
                tally.ran(cells);
                reference = Some(result);
            }
        }
    }

    // store_populate ≡ store_warm: a warm sweep over what the last
    // populating sweep left behind must reproduce it bit for bit.
    if w == Workload::StorePopulate {
        if let Some(want) = &reference {
            match guarded_sweep(Workload::StoreWarm, jobs, &prepared, &store) {
                Some(warm) => tally.check_sweep("populate-vs-warm", want, &warm),
                None => tally.failed_outright(cells, "warm sweep panicked"),
            }
        }
    }
    Ok(Measured { prepared, store, reference, setup_s, prepare_s, sweep_s, peak_rss_mb })
}

/// TRRIP-1 against SRRIP over the sweep's programs: the geomean speedup
/// (SRRIP cycles ÷ TRRIP-1 cycles) and the L2 instruction-miss ratio
/// (equal measured instructions per cell, so also the MPKI ratio).
fn headline(sweep: &SweepResult) -> (f64, f64) {
    let mut log_sum = 0.0;
    let (mut trrip_misses, mut srrip_misses) = (0u64, 0u64);
    for bench in &sweep.benchmarks {
        let base = sweep.get(bench, PolicyKind::Srrip);
        let trrip = sweep.get(bench, PolicyKind::Trrip1);
        log_sum += (base.cycles() / trrip.cycles()).ln();
        trrip_misses += trrip.l2.inst_misses;
        srrip_misses += base.l2.inst_misses;
    }
    let speedup = (log_sum / sweep.benchmarks.len().max(1) as f64).exp();
    (speedup, ratio(trrip_misses as f64, srrip_misses as f64))
}

/// The traced part of a `--trace 1` run: one sweep with the crates'
/// spans on, imported into the ledger, then the per-layer calls.
fn traced(
    args: &Args,
    jobs: usize,
    m: &Measured,
    untraced_sweep_s: f64,
    scratch: &Path,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let w = args.workload;
    let config = base_config();
    let cells = w.proxies().len() * POLICIES.len();
    let ledger = Ledger::new();

    if w == Workload::StorePopulate {
        m.store.clear();
    }
    trrip_obs::reset_spans();
    trrip_obs::set_spans_enabled(true);
    let anchor = ledger.anchor();
    let counters = trrip_obs::snapshot();
    let warm = trrip_sim::warmup_counters();
    let decoded = trrip_trace::records_decoded();
    let (result, sweep) =
        ledger.time("sweep", None, None, || guarded_sweep(w, jobs, &m.prepared, &m.store));
    let decoded = trrip_trace::records_decoded() - decoded;
    let warm = trrip_sim::warmup_counters().since(&warm);
    let counters = trrip_obs::snapshot().since(&counters);
    trrip_obs::set_spans_enabled(false);
    ledger.import_timeline(&trrip_obs::chrome_trace_json(), anchor, sweep);

    let traced_sweep_s = ledger.spans()[sweep].seconds();
    match (&result, &m.reference) {
        (Some(got), Some(want)) => tally.check_sweep("traced", want, got),
        _ => tally.failed_outright(cells, "traced sweep panicked"),
    }

    // Work the sweep did, from its results and the crates' counters.
    let measured_instrs = (cells as u64 * config.instructions) as f64;
    let (mut l2_accesses, mut l2_misses) = (0u64, 0u64);
    for r in result.iter().flat_map(|s| &s.results) {
        l2_accesses += r.l2.demand_accesses();
        l2_misses += r.l2.demand_misses();
    }
    let count = |name: &str| counters.get(name) as f64;
    values.set("prepare.s", median(&m.prepare_s));
    values.set("trace.records_decoded", decoded as f64);
    let captured_minstr = (w.proxies().len() as u64 * capture_length(&config)) as f64 / 1e6;
    values.set("store.bytes_per_minstr", ratio(m.store.bytes() as f64, captured_minstr));
    values.set(
        "cache.l1_fastpath_hit_ratio",
        ratio(
            count("cache.l1_fastpath_hit"),
            count("cache.l1_fastpath_hit") + count("cache.l1_fastpath_bail"),
        ),
    );
    values.set(
        "cache.miss_batch.deferred_per_kinstr",
        ratio(count("cache.miss_batch.deferred"), measured_instrs / 1e3),
    );
    values.set("cache.l2_accesses_per_kinstr", ratio(l2_accesses as f64, measured_instrs / 1e3));
    values.set("cache.l2_mpki", ratio(l2_misses as f64, measured_instrs / 1e3));
    values.set("ckpt.hit_ratio", ratio(count("ckpt.hit"), count("ckpt.hit") + count("ckpt.miss")));
    values.set("ckpt.store_bytes", workload::dir_bytes(&m.store.root.join("checkpoints")) as f64);
    values.set("warm.full_restore", warm.full_restores as f64);
    values.set("warm.overlay_restore", warm.overlay_restores as f64);
    values.set("warm.tail_replay", warm.tail_replays as f64);
    values.set("warm.recorded_warmup", warm.recorded_warmups as f64);
    values.set("warm.cold_warmup", warm.cold_warmups as f64);

    // Time per layer, from the spans under the sweep.
    let spans = ledger.spans();
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .skip(sweep + 1)
            .filter(|s| s.name == name)
            .map(ledger::Span::seconds)
            .sum::<f64>()
            + 0.0
    };
    values.set("sim.load_s", total("load"));
    values.set("sim.fast_forward_s", total("fast_forward"));
    values.set("sim.warmup_tail_s", total("warmup_tail"));
    values.set("sim.measure_s", total("measure"));
    values.set("fanout.io_read_s", total("io_read"));
    values.set("fanout.decode_s", total("decode"));
    let cell_s: Vec<f64> = spans
        .iter()
        .skip(sweep + 1)
        .filter(|s| s.name == "cell")
        .map(ledger::Span::seconds)
        .collect();
    let busy: f64 = cell_s.iter().sum();
    let capacity = jobs as f64 * traced_sweep_s;
    values.set("sched.busy_ratio", ratio(busy, capacity));
    values.set("sched.idle_s", (capacity - busy).max(0.0));
    values.set("sched.cell_p50_s", median(&cell_s));
    values.set("sched.cell_max_s", cell_s.iter().copied().fold(0.0, f64::max));
    values.set("trace_overhead_pct", (ratio(traced_sweep_s, untraced_sweep_s) - 1.0) * 100.0);

    // The per-layer calls, on this workload's programs.
    let layer_dir = scratch.join("layers");
    layers::walker_layer(&ledger, &m.prepared, values);
    let traces =
        layers::trace_layer(&ledger, &m.prepared, &layer_dir.join("traces"), tally, values);
    let snapshots = layers::checkpoint_layer(
        &ledger,
        &m.prepared,
        &layer_dir.join("checkpoints"),
        tally,
        values,
    );
    layers::pack_layer(&ledger, &snapshots, &traces, tally, values);
    layers::cpu_layer(&ledger, &m.prepared, values);
    let trrip1 = config.with_policy(PolicyKind::Trrip1);
    let simulated = parallel_map_with(jobs, m.prepared.len(), |i| {
        trrip_sim::simulate(&m.prepared[i], &trrip1).cycles()
    });
    layers::memsys_layer(&ledger, &m.prepared, &simulated, tally, values);

    // `ledger.<span>.self_s`: the span's summed self time (0 when absent).
    let own = ledger.self_seconds();
    for (key, _) in PER_LAYER.iter().filter(|(k, _)| k.starts_with("ledger.")) {
        let span = &key["ledger.".len()..key.len() - ".self_s".len()];
        values.set(key, own.iter().find(|(n, _)| n == span).map_or(0.0, |o| o.1));
    }

    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, ledger.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("span ledger written to {}", path.display());
    Ok(())
}
