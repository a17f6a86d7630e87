//! `--metrics --obs-dir` end to end: a telemetry session around a tiny
//! checkpointed sweep writes an `obs_report.json` at the pinned schema
//! version, with the tool name, phase spans and checkpoint-store
//! counters; a Chrome trace that parses; and a journal whose every line
//! parses.
//!
//! Spans, counters and the journal are process-global, so this file
//! holds a single test.

use trrip_bench::HarnessOptions;
use trrip_core::ClassifierConfig;
use trrip_obs::json::{self, Json};
use trrip_policies::PolicyKind;
use trrip_sim::{PreparedWorkload, SimConfig};
use trrip_workloads::WorkloadSpec;

fn read_json(path: &std::path::Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()))
}

#[test]
fn metrics_session_writes_report_trace_and_journal_that_parse() {
    let root = std::env::temp_dir().join(format!("trrip-obs-session-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let options = HarnessOptions {
        out_dir: root.join("out"),
        trace_dir: Some(root.join("traces")),
        checkpoint_dir: Some(root.join("ckpts")),
        metrics: true,
        obs_dir: Some(root.join("obs")),
        quiet: true,
        ..HarnessOptions::default()
    };
    options.validate_dirs().expect("usable dirs");
    options.apply_observability().expect("journal opens");
    let obs = options.obs_session("obs_session_test");
    assert!(obs.enabled());

    let mut spec = WorkloadSpec::named("obs-session");
    spec.functions = 50;
    spec.hot_rotation = 8;
    let workloads = [PreparedWorkload::prepare(&spec, 50_000, ClassifierConfig::llvm_defaults())];
    let mut config = SimConfig::quick(PolicyKind::Srrip);
    config.fast_forward = 10_000;
    config.instructions = 20_000;
    let sweep = options.sweep(&workloads, &config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
    assert_eq!(sweep.results.len(), 2);

    let report_path = obs.finish(&[("cells", 2.0)]).expect("--metrics writes a report");
    let report = read_json(&report_path);
    assert_eq!(report.get("schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(report.get("tool").and_then(Json::as_str), Some("obs_session_test"));
    assert!(
        report.get("phases").and_then(Json::as_arr).is_some_and(|p| !p.is_empty()),
        "no phases recorded: {report:?}"
    );
    let Some(Json::Obj(counters)) = report.get("counters") else {
        panic!("counters is not an object: {report:?}")
    };
    assert!(counters.keys().any(|k| k.starts_with("ckpt.")), "no ckpt.* counter: {counters:?}");

    read_json(&root.join("obs").join("obs_trace.json"));
    let journal =
        std::fs::read_to_string(root.join("obs").join("journal.jsonl")).expect("journal written");
    assert!(journal.lines().count() > 0, "the sweep journaled nothing");
    for line in journal.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("journal line does not parse: {e}: {line}"));
    }
    std::fs::remove_dir_all(&root).ok();
}
