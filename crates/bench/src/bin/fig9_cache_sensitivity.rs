//! Figure 9: cache size and associativity sensitivity.
//!
//! (a) geomean speedup of TRRIP-1, CLIP and Emissary on 128/256/512 kB
//!     8-way L2s — gains shrink as capacity grows, less for the pure
//!     hardware schemes;
//! (b) TRRIP-1 per-benchmark speedup at 4/8/16-way (128 kB) — higher
//!     associativity captures more of the long hot reuse distances.

use trrip_analysis::report::geomean_pct;
use trrip_analysis::TextTable;
use trrip_bench::HarnessOptions;
use trrip_policies::PolicyKind;
use trrip_sim::SimConfig;

fn main() {
    let options = HarnessOptions::from_args();
    let obs = options.obs_session("fig9_cache_sensitivity");
    let base_config = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    eprintln!("preparing {} workloads…", specs.len());
    let workloads = options.prepare(&specs, &base_config, base_config.classifier);

    // ---- (a) size sweep ----
    let sizes = [128u64 << 10, 256 << 10, 512 << 10];
    let policies = [PolicyKind::Srrip, PolicyKind::Trrip1, PolicyKind::Clip, PolicyKind::Emissary];
    let mut table_a = TextTable::new(vec!["mechanism", "128kB", "256kB", "512kB"]);
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for &size in &sizes {
        let config = SimConfig {
            hierarchy: base_config.hierarchy.clone().with_l2_size(size),
            ..base_config.clone()
        };
        eprintln!("L2 size {} kB…", size >> 10);
        let sweep = options.sweep(&workloads, &config, &policies);
        for (i, &p) in
            [PolicyKind::Trrip1, PolicyKind::Clip, PolicyKind::Emissary].iter().enumerate()
        {
            let speeds = sweep.speedups(p, PolicyKind::Srrip);
            per_policy[i].push(geomean_pct(&speeds));
        }
    }
    for (i, name) in ["TRRIP", "CLIP", "Emissary"].iter().enumerate() {
        let row: Vec<String> = std::iter::once((*name).to_owned())
            .chain(per_policy[i].iter().map(|s| format!("{s:+.2}")))
            .collect();
        table_a.row(row);
    }
    println!("Figure 9a: geomean speedup (%) vs SRRIP across L2 sizes (8-way)");
    println!("{table_a}");

    // ---- (b) associativity sweep ----
    let ways = [4usize, 8, 16];
    let mut headers = vec!["bench".to_owned()];
    headers.extend(ways.iter().map(|w| format!("{w}-way")));
    let mut table_b = TextTable::new(headers);
    let mut rows: Vec<Vec<String>> = workloads.iter().map(|w| vec![w.spec.name.clone()]).collect();
    let mut geos = Vec::new();
    for &w in &ways {
        let config = SimConfig {
            hierarchy: base_config.hierarchy.clone().with_l2_ways(w),
            ..base_config.clone()
        };
        eprintln!("L2 associativity {w}…");
        let sweep = options.sweep(&workloads, &config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        let speeds = sweep.speedups(PolicyKind::Trrip1, PolicyKind::Srrip);
        for (i, s) in speeds.iter().enumerate() {
            rows[i].push(format!("{s:+.2}"));
        }
        geos.push(geomean_pct(&speeds));
    }
    for row in rows {
        table_b.row(row);
    }
    let geo_row: Vec<String> = std::iter::once("geomean".to_owned())
        .chain(geos.iter().map(|s| format!("{s:+.2}")))
        .collect();
    table_b.row(geo_row);
    println!("Figure 9b: TRRIP-1 speedup (%) vs associativity (128 kB L2)");
    println!("{table_b}");
    println!(
        "paper: gains shrink with capacity (TRRIP more than CLIP/Emissary because of its\n\
         compile-scope limit) and grow with associativity"
    );
    options.write_report("fig9_cache_sensitivity.txt", &format!("(a)\n{table_a}\n(b)\n{table_b}"));
    obs.finish(&[]);
}
