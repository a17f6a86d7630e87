//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: a run without `--trace` prints exactly
//! [`END_TO_END`], a traced run exactly [`PER_LAYER`].

use trrip_obs::json;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sweep_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cell_pass_ratio", "ratio"),
    ("trrip1_speedup_geomean", "x"),
    ("trrip1_l2i_mpki_ratio", "x"),
];

/// `(name, unit)` of every per-layer metric, grouped by module.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("prepare.s", "s"),
    ("walker.ns_per_instr", "ns"),
    ("walker.memo_hit_ratio", "ratio"),
    ("trace.capture_ns_per_instr", "ns"),
    ("trace.bytes_per_instr", "B"),
    ("trace.decode_ns_per_instr", "ns"),
    ("trace.records_decoded", "count"),
    ("store.bytes_per_minstr", "B"),
    ("pack.compress_mb_s", "MB/s"),
    ("pack.decompress_mb_s", "MB/s"),
    ("pack.ratio", "ratio"),
    ("cpu.core_ns_per_instr", "ns"),
    ("cpu.mispredict_rate", "ratio"),
    ("memsys.ns_per_instr", "ns"),
    ("memsys.l1_ns_per_access", "ns"),
    ("memsys.beyond_l1_ns_per_access", "ns"),
    ("cache.l1_fastpath_hit_ratio", "ratio"),
    ("cache.miss_batch.deferred_per_kinstr", "count"),
    ("cache.l2_accesses_per_kinstr", "count"),
    ("cache.l2_mpki", "count"),
    ("sim.load_s", "s"),
    ("sim.fast_forward_s", "s"),
    ("sim.warmup_tail_s", "s"),
    ("sim.measure_s", "s"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.hit_ratio", "ratio"),
    ("ckpt.store_bytes", "B"),
    ("warm.full_restore", "count"),
    ("warm.overlay_restore", "count"),
    ("warm.tail_replay", "count"),
    ("warm.recorded_warmup", "count"),
    ("warm.cold_warmup", "count"),
    ("sched.busy_ratio", "ratio"),
    ("sched.idle_s", "s"),
    ("sched.cell_p50_s", "s"),
    ("sched.cell_max_s", "s"),
    ("fanout.io_read_s", "s"),
    ("fanout.decode_s", "s"),
    ("ledger.sweep.self_s", "s"),
    ("ledger.cell.self_s", "s"),
    ("ledger.load.self_s", "s"),
    ("ledger.fast_forward.self_s", "s"),
    ("ledger.warmup_tail.self_s", "s"),
    ("ledger.measure.self_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metric values of one run, looked up by name at print time.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The `metrics` object for `table`: every listed metric with its value
/// and unit. A metric the run did not produce, or produced as a
/// non-finite number, is an error naming it.
pub fn metrics_json(table: &[(&str, &str)], values: &Values) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("metric {name} ({unit}) has an invalid name or unit"));
        }
        let value = values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, name);
        out.push_str(":{\"value\":");
        json::write_f64(&mut out, value);
        out.push_str(",\"unit\":");
        json::write_str(&mut out, unit);
        out.push('}');
    }
    out.push('}');
    Ok(out)
}

/// The result line: the last line a run prints on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    )
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "invalid metric name {name}");
            assert!(valid_unit(unit), "invalid unit {unit} of {name}");
        }
        for (i, (a, _)) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|(b, _)| a != b), "{a} listed twice");
        }
        assert!(!valid_name("bad name") && !valid_name("_lead") && !valid_name(&"x".repeat(65)));
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut values = Values::default();
            for (i, (name, _)) in table.iter().enumerate() {
                values.set(name, i as f64 + 0.25);
            }
            let line = result_line(true, 3, 0, &metrics_json(table, &values).expect("complete"));
            let parsed = json::parse(&line).expect("result line is JSON");
            let metrics = parsed.get("metrics").expect("metrics");
            for (i, (name, unit)) in table.iter().enumerate() {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(json::Json::as_str), Some(*unit));
                assert_eq!(m.get("value").and_then(json::Json::as_f64), Some(i as f64 + 0.25));
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let mut values = Values::default();
        assert!(metrics_json(&END_TO_END, &values).unwrap_err().contains("sweep_s"));
        for (name, _) in END_TO_END {
            values.set(name, 1.0);
        }
        values.set("setup_s", f64::NAN);
        assert!(metrics_json(&END_TO_END, &values).unwrap_err().contains("setup_s"));
    }

    /// `BENCHMARK.json` names exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(json::Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(json::Json::as_str).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> =
                table.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
            assert_eq!(listed, expected, "{key} differs from BENCHMARK.json");
        }
    }
}
