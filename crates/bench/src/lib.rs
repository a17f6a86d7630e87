//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`;
//! this library holds the pieces they share: command-line scale parsing,
//! workload preparation with caching, and report writing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    run_sweep, CheckpointStore, PreparedWorkload, SimConfig, Sweep, SweepResult, TraceStore,
};
use trrip_workloads::WorkloadSpec;

/// The usage text every experiment binary shares.
pub const USAGE: &str = "\
usage: <experiment> [OPTIONS]

options:
  --scale N        multiply the default run lengths by N (default 1)
  --bench a,b      restrict to the named benchmarks (default: all)
  --out DIR        write reports under DIR (default: reports/)
  --trace-dir DIR  capture traces into DIR once and replay them from
                   disk for every policy, instead of re-generating the
                   trace per run
  --checkpoint-dir DIR
                   persist warmed (post-fast-forward) simulation state
                   into DIR and restore it on later sweeps, skipping
                   warmup; a cold store records one shared warmup per
                   workload and warm-starts every policy from it;
                   requires --trace-dir
  --jobs N         cap worker threads for sweeps, preparation and trace
                   decode (default: available parallelism)
  --shards N       cut every (workload, policy) run into N chunk-aligned
                   segments chained through checkpoints, scheduled as a
                   DAG of segment tasks (default 1 = unsharded; N > 1
                   requires --checkpoint-dir)
  --ckpt-budget-bytes N
                   after the sweep, shrink the checkpoint store to at
                   most N bytes, evicting cheapest-to-rebuild artifacts
                   first (overlays, then shared prefixes, then full/
                   segment containers; LRU within each class); requires
                   --checkpoint-dir
  --metrics        enable phase spans and, on exit, print a telemetry
                   summary (per-phase timings + counter deltas) and
                   write a schema-versioned obs_report.json plus a
                   Chrome trace-event file under --out
  --obs-dir DIR    write the structured event journal (journal.jsonl)
                   and the Chrome trace under DIR; requires --metrics
  --quiet          suppress [trrip] progress lines on stderr (reports
                   and telemetry artifacts are still written)
  --help           print this message and exit";

/// Parses `flag`'s value as an integer of at least 1.
fn positive<T: std::str::FromStr + PartialEq + From<u8>>(flag: &str, v: &str) -> Result<T, String> {
    match v.parse() {
        Ok(n) if n != T::from(0) => Ok(n),
        Ok(_) => Err(format!("{flag} must be at least 1")),
        Err(_) => Err(format!("{flag} must be a positive integer, got `{v}`")),
    }
}

/// Cap on journal events per run; past it the journal records only the
/// dropped count (reported on close), so a runaway sweep cannot fill
/// the disk with telemetry.
const MAX_JOURNAL_EVENTS: u64 = 262_144;

/// Common options for experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Multiplier on the default run lengths (`--scale N`).
    pub scale: u64,
    /// Restrict to the named benchmarks (`--bench a,b`). Empty = all.
    pub benchmarks: Vec<String>,
    /// Where reports are written (`--out DIR`, default `reports/`).
    pub out_dir: PathBuf,
    /// Capture-once/replay-many trace directory (`--trace-dir DIR`).
    pub trace_dir: Option<PathBuf>,
    /// Warmed-state checkpoint directory (`--checkpoint-dir DIR`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Worker-thread cap for sweeps and preparation (`--jobs N`,
    /// default: the machine's available parallelism).
    pub jobs: usize,
    /// Segments each `(workload, policy)` run is cut into
    /// (`--shards N`, default 1 = unsharded).
    pub shards: usize,
    /// Post-sweep checkpoint-store byte budget
    /// (`--ckpt-budget-bytes N`); `None` = unbounded.
    pub ckpt_budget_bytes: Option<u64>,
    /// Enable phase spans and telemetry artifacts (`--metrics`).
    pub metrics: bool,
    /// Event-journal / Chrome-trace directory (`--obs-dir DIR`).
    pub obs_dir: Option<PathBuf>,
    /// Suppress `[trrip]` progress lines on stderr (`--quiet`).
    pub quiet: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 1,
            benchmarks: Vec::new(),
            out_dir: PathBuf::from("reports"),
            trace_dir: None,
            checkpoint_dir: None,
            jobs: trrip_sim::default_jobs(),
            shards: 1,
            ckpt_budget_bytes: None,
            metrics: false,
            obs_dir: None,
            quiet: false,
        }
    }
}

impl HarnessOptions {
    /// Parses the shared flags from `std::env::args`. On `--help` it
    /// prints the usage and exits 0; on a malformed command line it
    /// prints the error plus usage to stderr and exits 2 — it does not
    /// panic.
    #[must_use]
    pub fn from_args() -> HarnessOptions {
        let options = match HarnessOptions::try_parse(std::env::args().skip(1)) {
            Ok(Some(options)) => options,
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(message) => {
                eprintln!("error: {message}\n\n{USAGE}");
                std::process::exit(2);
            }
        };
        if let Err(message) = options.validate_dirs() {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
        if let Err(message) = options.apply_observability() {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
        options
    }

    /// Applies the telemetry flags to the process-global `trrip-obs`
    /// state: `--quiet` mutes progress lines, `--metrics` arms phase
    /// spans, `--obs-dir` opens the event journal. Split from
    /// [`HarnessOptions::from_args`] so tests can drive it directly.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the flag when the journal file
    /// cannot be opened.
    pub fn apply_observability(&self) -> Result<(), String> {
        trrip_obs::set_quiet(self.quiet);
        if self.metrics {
            trrip_obs::set_spans_enabled(true);
        }
        if let Some(dir) = &self.obs_dir {
            let path = dir.join("journal.jsonl");
            trrip_obs::journal_init(&path, MAX_JOURNAL_EVENTS).map_err(|e| {
                format!("--obs-dir journal {} cannot be opened: {e}", path.display())
            })?;
        }
        Ok(())
    }

    /// Validates that `--trace-dir` and `--checkpoint-dir` point at
    /// usable directories: each must already exist as a directory or be
    /// creatable (parents included). Split from [`HarnessOptions::try_parse`]
    /// so parsing stays pure; [`HarnessOptions::from_args`] applies it
    /// and rejects the command line with a clear message.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the flag and the problem.
    pub fn validate_dirs(&self) -> Result<(), String> {
        for (flag, dir) in [
            ("--trace-dir", &self.trace_dir),
            ("--checkpoint-dir", &self.checkpoint_dir),
            ("--obs-dir", &self.obs_dir),
        ] {
            let Some(dir) = dir else { continue };
            if dir.exists() {
                if !dir.is_dir() {
                    return Err(format!("{flag} {} exists but is not a directory", dir.display()));
                }
            } else {
                fs::create_dir_all(dir)
                    .map_err(|e| format!("{flag} {} cannot be created: {e}", dir.display()))?;
            }
        }
        Ok(())
    }

    /// The testable core of [`HarnessOptions::from_args`]: `Ok(None)`
    /// means `--help` was requested.
    ///
    /// # Errors
    ///
    /// A human-readable message describing the malformed argument.
    pub fn try_parse<I>(args: I) -> Result<Option<HarnessOptions>, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut options = HarnessOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value_of =
                |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--help" | "-h" => return Ok(None),
                "--scale" => options.scale = positive("--scale", &value_of("--scale")?)?,
                "--bench" => {
                    options.benchmarks =
                        value_of("--bench")?.split(',').map(str::to_owned).collect();
                }
                "--out" => options.out_dir = PathBuf::from(value_of("--out")?),
                "--trace-dir" => options.trace_dir = Some(PathBuf::from(value_of("--trace-dir")?)),
                "--checkpoint-dir" => {
                    options.checkpoint_dir = Some(PathBuf::from(value_of("--checkpoint-dir")?));
                }
                "--jobs" => options.jobs = positive("--jobs", &value_of("--jobs")?)?,
                "--shards" => options.shards = positive("--shards", &value_of("--shards")?)?,
                "--ckpt-budget-bytes" => {
                    let v = value_of("--ckpt-budget-bytes")?;
                    options.ckpt_budget_bytes = Some(positive("--ckpt-budget-bytes", &v)?);
                }
                "--metrics" => options.metrics = true,
                "--obs-dir" => options.obs_dir = Some(PathBuf::from(value_of("--obs-dir")?)),
                "--quiet" => options.quiet = true,
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (expected \
                         --scale/--bench/--out/--trace-dir/--checkpoint-dir/--jobs/--shards/\
                         --ckpt-budget-bytes/--metrics/--obs-dir/--quiet)"
                    ))
                }
            }
        }
        let no_ckpt = options.checkpoint_dir.is_none();
        for (invalid, message) in [
            (
                options.trace_dir.is_none() && !no_ckpt,
                "--checkpoint-dir requires --trace-dir (warm starts restore into the \
                 captured-trace replay)",
            ),
            (
                options.shards > 1 && no_ckpt,
                "--shards above 1 requires --checkpoint-dir (segments chain through \
                 persisted checkpoints) and therefore --trace-dir",
            ),
            (
                options.ckpt_budget_bytes.is_some() && no_ckpt,
                "--ckpt-budget-bytes requires --checkpoint-dir (the budget bounds the \
                 persisted checkpoint store) and therefore --trace-dir",
            ),
            (
                options.obs_dir.is_some() && !options.metrics,
                "--obs-dir requires --metrics (the journal and Chrome trace are part \
                 of the telemetry layer the flag enables)",
            ),
        ] {
            if invalid {
                return Err(message.to_owned());
            }
        }
        Ok(Some(options))
    }

    /// Runs a policy sweep through the one executor ([`run_sweep`]),
    /// with whatever the command line attached: `--trace-dir` replays
    /// captured traces decode-once instead of regenerating them per
    /// run, `--checkpoint-dir` warm-starts every cell from the
    /// checkpoint store (a cold store records one shared warmup per
    /// workload), and `--shards N` cuts every run into a DAG of
    /// checkpoint-chained segment tasks. Results are bit-identical
    /// across every combination; `--jobs` caps the worker threads.
    #[must_use]
    pub fn sweep(
        &self,
        workloads: &[PreparedWorkload],
        config: &SimConfig,
        policies: &[PolicyKind],
    ) -> SweepResult {
        let traces = self.trace_dir.as_ref().map(TraceStore::new);
        let checkpoints = self.checkpoint_dir.as_ref().map(CheckpointStore::new);
        let walker = Sweep::new(workloads, config, policies).shards(self.shards);
        let sweep = match &traces {
            Some(traces) => walker.replay(traces, checkpoints.as_ref()),
            None => {
                assert!(checkpoints.is_none(), "--checkpoint-dir requires --trace-dir");
                walker
            }
        };
        let result = run_sweep(self.jobs, &sweep);
        if let (Some(budget), Some(store)) = (self.ckpt_budget_bytes, &checkpoints) {
            match store.gc_budget(budget) {
                Ok(report) if report.removed_files > 0 => trrip_obs::progress!(
                    "checkpoint budget: evicted {} file(s), {} B freed, store now {} B",
                    report.removed_files,
                    report.freed_bytes,
                    store.size_bytes()
                ),
                Ok(_) => {}
                Err(e) => eprintln!("warning: --ckpt-budget-bytes gc failed: {e}"),
            }
        }
        result
    }

    /// Prepares workloads (training run + classification) under the
    /// `--jobs` worker cap.
    #[must_use]
    pub fn prepare(
        &self,
        specs: &[WorkloadSpec],
        config: &SimConfig,
        classifier: ClassifierConfig,
    ) -> Vec<PreparedWorkload> {
        trrip_sim::parallel_map_with(self.jobs, specs.len(), |i| {
            PreparedWorkload::prepare(&specs[i], config.train_instructions, classifier)
        })
    }

    /// The proxy benchmark specs selected by `--bench` (all by default).
    /// A name that matches no known benchmark is a command-line error:
    /// the process prints the known names to stderr and exits 2, rather
    /// than silently sweeping an empty set.
    #[must_use]
    pub fn selected_proxies(&self) -> Vec<WorkloadSpec> {
        let all = trrip_workloads::proxy::all();
        if self.benchmarks.is_empty() {
            return all;
        }
        for name in &self.benchmarks {
            if !all.iter().any(|s| &s.name == name) {
                let known: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
                eprintln!("error: unknown benchmark `{name}` (known: {})", known.join(", "));
                std::process::exit(2);
            }
        }
        all.into_iter().filter(|s| self.benchmarks.contains(&s.name)).collect()
    }

    /// The paper config scaled by `--scale`.
    #[must_use]
    pub fn sim_config(&self, policy: PolicyKind) -> SimConfig {
        SimConfig::paper(policy).scaled(self.scale)
    }

    /// Writes a report file under the output directory and echoes the
    /// path to stderr (unless `--quiet`).
    ///
    /// # Panics
    ///
    /// Panics if the directory or file cannot be written.
    pub fn write_report(&self, name: &str, contents: &str) {
        fs::create_dir_all(&self.out_dir).expect("create report dir");
        let path = self.out_dir.join(name);
        fs::write(&path, contents).expect("write report");
        trrip_obs::progress!("report written to {}", path.display());
    }

    /// Opens a telemetry session for one binary invocation: snapshots
    /// the counter registry now so [`ObsSession::finish`] reports only
    /// this run's deltas. Cheap and safe to call unconditionally — a
    /// session without `--metrics` does nothing on finish beyond
    /// closing the journal.
    #[must_use]
    pub fn obs_session(&self, tool: &'static str) -> ObsSession {
        ObsSession {
            enabled: self.metrics,
            start: trrip_obs::snapshot(),
            tool,
            out_dir: self.out_dir.clone(),
            obs_dir: self.obs_dir.clone(),
        }
    }
}

/// One binary invocation's telemetry window: counter baseline at open,
/// summary + artifacts at [`ObsSession::finish`]. Created by
/// [`HarnessOptions::obs_session`].
#[derive(Debug)]
pub struct ObsSession {
    enabled: bool,
    start: trrip_obs::CounterSnapshot,
    tool: &'static str,
    out_dir: PathBuf,
    obs_dir: Option<PathBuf>,
}

impl ObsSession {
    /// Whether `--metrics` armed this session (spans are recording and
    /// finish will write telemetry artifacts).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Closes the journal, prints the telemetry summary (per-phase
    /// timings + counter deltas) and writes `obs_report.json` under
    /// `--out` plus the Chrome trace under `--obs-dir` (or `--out`).
    /// `extra` lands in the report as tool-specific top-level fields.
    /// Returns the report path when `--metrics` was on.
    ///
    /// # Panics
    ///
    /// Panics if an artifact cannot be written or fails validation.
    pub fn finish(self, extra: &[(&str, f64)]) -> Option<PathBuf> {
        if let Some(stats) = trrip_obs::journal_close() {
            trrip_obs::progress_line(&format!(
                "journal: {} events ({} dropped) in {}",
                stats.events_written,
                stats.dropped,
                stats.path.display()
            ));
        }
        if !self.enabled {
            return None;
        }
        let delta = trrip_obs::snapshot().since(&self.start);
        if !trrip_obs::quiet() {
            eprintln!("{}", trrip_obs::phase_table());
            if !delta.is_empty() {
                eprintln!("counters (delta over this run):");
                for (name, value) in delta.iter() {
                    eprintln!("  {name:<28} {value}");
                }
            }
        }

        let mut report = trrip_obs::ObsReport::new(self.tool).counters(&delta).phases_from_spans();
        for (name, value) in extra {
            report = report.field_f64(name, *value);
        }
        fs::create_dir_all(&self.out_dir).expect("create out dir");
        let report_path = self.out_dir.join("obs_report.json");
        report.write(&report_path).expect("write obs report");
        trrip_obs::progress!("obs report written to {}", report_path.display());

        let trace_dir = self.obs_dir.as_deref().unwrap_or(&self.out_dir);
        let trace_path = trace_dir.join("obs_trace.json");
        fs::write(&trace_path, trrip_obs::chrome_trace_json()).expect("write chrome trace");
        trrip_obs::progress!("chrome trace written to {}", trace_path.display());
        Some(report_path)
    }
}

/// Appends a section to EXPERIMENTS-style output and stdout at once.
pub fn emit(report: &mut String, line: &str) {
    println!("{line}");
    report.push_str(line);
    report.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<HarnessOptions>, String> {
        HarnessOptions::try_parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_all_flags() {
        let options = parse(&[
            "--scale",
            "3",
            "--bench",
            "gcc,sqlite",
            "--out",
            "r",
            "--trace-dir",
            "traces",
            "--checkpoint-dir",
            "ckpts",
            "--jobs",
            "5",
            "--shards",
            "4",
        ])
        .expect("valid")
        .expect("not help");
        assert_eq!(options.scale, 3);
        assert_eq!(options.benchmarks, ["gcc", "sqlite"]);
        assert_eq!(options.out_dir, PathBuf::from("r"));
        assert_eq!(options.trace_dir, Some(PathBuf::from("traces")));
        assert_eq!(options.checkpoint_dir, Some(PathBuf::from("ckpts")));
        assert_eq!(options.jobs, 5);
        assert_eq!(options.shards, 4);
    }

    #[test]
    fn shards_rejects_zero_and_non_numeric_and_names_its_flag() {
        for args in [&["--shards", "0"][..], &["--shards", "many"], &["--shards", "-3"]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--shards"), "error must name the flag: {err}");
        }
        assert!(parse(&["--shards"]).unwrap_err().contains("--shards"));
        // Sharding chains through persisted checkpoints: demand the dirs.
        let err = parse(&["--shards", "2"]).unwrap_err();
        assert!(err.contains("--shards") && err.contains("--checkpoint-dir"), "{err}");
        let ok = parse(&["--shards", "2", "--trace-dir", "t", "--checkpoint-dir", "c"])
            .expect("valid")
            .expect("not help");
        assert_eq!(ok.shards, 2);
        // --shards 1 is explicit "unsharded" and needs no dirs.
        assert_eq!(parse(&["--shards", "1"]).expect("ok").expect("not help").shards, 1);
    }

    #[test]
    fn every_validation_error_names_the_failing_flag() {
        for (args, flag) in [
            (&["--scale", "0"][..], "--scale"),
            (&["--scale", "x"], "--scale"),
            (&["--jobs", "0"], "--jobs"),
            (&["--jobs", "x"], "--jobs"),
            (&["--shards", "0"], "--shards"),
            (&["--bench"], "--bench"),
            (&["--out"], "--out"),
            (&["--trace-dir"], "--trace-dir"),
            (&["--checkpoint-dir"], "--checkpoint-dir"),
            (&["--checkpoint-dir", "c"], "--trace-dir"),
            (&["--ckpt-budget-bytes"], "--ckpt-budget-bytes"),
            (&["--ckpt-budget-bytes", "0"], "--ckpt-budget-bytes"),
            (&["--ckpt-budget-bytes", "lots"], "--ckpt-budget-bytes"),
            (&["--ckpt-budget-bytes", "4096"], "--checkpoint-dir"),
            (&["--obs-dir"], "--obs-dir"),
            (&["--obs-dir", "o"], "--metrics"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(flag), "error for {args:?} must name {flag}: {err}");
        }
    }

    #[test]
    fn ckpt_budget_requires_checkpoint_dir_and_parses_with_it() {
        // Alone: rejected, naming both the flag and what it needs.
        let err = parse(&["--ckpt-budget-bytes", "1048576"]).unwrap_err();
        assert!(err.contains("--ckpt-budget-bytes") && err.contains("--checkpoint-dir"), "{err}");
        // With traces but no checkpoints: still rejected.
        let err = parse(&["--ckpt-budget-bytes", "1048576", "--trace-dir", "t"]).unwrap_err();
        assert!(err.contains("--ckpt-budget-bytes") && err.contains("--checkpoint-dir"), "{err}");
        // Fully specified: accepted, budget recorded.
        let ok =
            parse(&["--ckpt-budget-bytes", "1048576", "--trace-dir", "t", "--checkpoint-dir", "c"])
                .expect("valid")
                .expect("not help");
        assert_eq!(ok.ckpt_budget_bytes, Some(1_048_576));
        // Default: unbounded.
        assert!(parse(&[]).expect("ok").expect("not help").ckpt_budget_bytes.is_none());
    }

    #[test]
    fn checkpoint_dir_requires_trace_dir() {
        let err = parse(&["--checkpoint-dir", "ckpts"]).unwrap_err();
        assert!(err.contains("--trace-dir"), "unhelpful message: {err}");
        assert!(parse(&["--checkpoint-dir"]).is_err(), "missing value must error");
    }

    #[test]
    fn dir_validation_accepts_existing_and_creatable_rejects_files() {
        let base = std::env::temp_dir().join("trrip-harness-dir-validation");
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).expect("test scratch dir");

        // Existing directory: fine. Nested not-yet-existing: created.
        let existing = base.join("existing");
        std::fs::create_dir_all(&existing).expect("mkdir");
        let fresh = base.join("fresh/nested");
        let options = HarnessOptions {
            trace_dir: Some(existing.clone()),
            checkpoint_dir: Some(fresh.clone()),
            ..HarnessOptions::default()
        };
        options.validate_dirs().expect("both directories usable");
        assert!(fresh.is_dir(), "validation must create missing dirs");

        // A plain file in either position is rejected, naming the flag.
        let file = base.join("file");
        std::fs::write(&file, b"not a dir").expect("write file");
        for (flag, options) in [
            (
                "--trace-dir",
                HarnessOptions { trace_dir: Some(file.clone()), ..HarnessOptions::default() },
            ),
            (
                "--checkpoint-dir",
                HarnessOptions {
                    trace_dir: Some(existing),
                    checkpoint_dir: Some(file.clone()),
                    ..HarnessOptions::default()
                },
            ),
        ] {
            let err = options.validate_dirs().unwrap_err();
            assert!(
                err.contains(flag) && err.contains("not a directory"),
                "unhelpful message for {flag}: {err}"
            );
        }

        // An uncreatable path (parent is a file) is rejected too.
        let uncreatable =
            HarnessOptions { trace_dir: Some(file.join("child")), ..HarnessOptions::default() };
        let err = uncreatable.validate_dirs().unwrap_err();
        assert!(err.contains("cannot be created"), "unhelpful message: {err}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn obs_flags_parse_and_obs_dir_requires_metrics() {
        let ok = parse(&["--metrics", "--obs-dir", "o", "--quiet"]).expect("valid").expect("set");
        assert!(ok.metrics && ok.quiet);
        assert_eq!(ok.obs_dir, Some(PathBuf::from("o")));
        // The journal is part of what --metrics enables: alone, the
        // error names both the flag and its requirement.
        let err = parse(&["--obs-dir", "o"]).unwrap_err();
        assert!(err.contains("--obs-dir") && err.contains("--metrics"), "{err}");
        // --metrics and --quiet stand alone.
        assert!(parse(&["--metrics"]).expect("ok").expect("set").metrics);
        assert!(parse(&["--quiet"]).expect("ok").expect("set").quiet);
        // Defaults: everything off.
        let defaults = parse(&[]).expect("ok").expect("set");
        assert!(!defaults.metrics && !defaults.quiet && defaults.obs_dir.is_none());
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(parse(&["--help"]).expect("ok").is_none());
        assert!(parse(&["-h"]).expect("ok").is_none());
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "zero"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--bench"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs", "-2"]).is_err());
    }

    #[test]
    fn defaults_survive_empty_args() {
        let options = parse(&[]).expect("ok").expect("not help");
        assert_eq!(options.scale, 1);
        assert!(options.benchmarks.is_empty());
        assert!(options.trace_dir.is_none());
        assert!(options.jobs >= 1, "default jobs must be usable");
    }
}
