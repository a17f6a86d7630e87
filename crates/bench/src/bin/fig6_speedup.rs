//! Figure 6: speedup of every evaluated mechanism over SRRIP on the L2,
//! per benchmark plus geomean. The paper's shape: BRRIP far worst,
//! DRRIP/SHiP flat-to-negative, LRU ≈ 0, CLIP and Emissary modest
//! gains, TRRIP-1/2 best (geomean +3.9%).

use trrip_analysis::report::geomean_pct;
use trrip_analysis::TextTable;
use trrip_bench::HarnessOptions;
use trrip_policies::PolicyKind;

fn main() {
    let options = HarnessOptions::from_args();
    let obs = options.obs_session("fig6_speedup");
    let config = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    eprintln!("preparing {} workloads…", specs.len());
    let workloads = options.prepare(&specs, &config, config.classifier);
    eprintln!("sweeping {} policies…", PolicyKind::PAPER_SET.len());
    let sweep = options.sweep(&workloads, &config, &PolicyKind::PAPER_SET);

    let shown: Vec<PolicyKind> =
        PolicyKind::PAPER_SET.into_iter().filter(|&p| p != PolicyKind::Srrip).collect();
    let mut headers = vec!["bench".to_owned()];
    headers.extend(shown.iter().map(|p| p.name().to_owned()));
    let mut table = TextTable::new(headers);

    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); shown.len()];
    for bench in &sweep.benchmarks {
        let base = sweep.get(bench, PolicyKind::Srrip);
        let mut row = vec![bench.clone()];
        for (i, &p) in shown.iter().enumerate() {
            let s = sweep.get(bench, p).speedup_vs(base);
            per_policy[i].push(s);
            row.push(format!("{s:+.2}"));
        }
        table.row(row);
    }
    let mut geo_row = vec!["geomean".to_owned()];
    for speeds in &per_policy {
        geo_row.push(format!("{:+.2}", geomean_pct(speeds)));
    }
    table.row(geo_row);

    println!("Figure 6: speedup (%) over SRRIP at the L2");
    println!("{table}");
    println!(
        "paper geomeans: LRU ~0, BRRIP strongly negative, DRRIP/SHiP negative,\n\
         CLIP +1.6, EMISSARY +0.5, TRRIP-1 +3.9, TRRIP-2 +3.9"
    );
    options.write_report("fig6_speedup.txt", &format!("{table}\n{}", table.to_csv()));
    obs.finish(&[]);
}
