//! Table 3: raw SRRIP L2 MPKI (instruction and data) per benchmark, and
//! the per-mechanism MPKI reductions (negative = MPKI increased).

use trrip_analysis::report::geomean_pct;
use trrip_analysis::TextTable;
use trrip_bench::{emit, HarnessOptions};
use trrip_policies::PolicyKind;

fn main() {
    let options = HarnessOptions::from_args();
    let obs = options.obs_session("table3_mpki");
    let config = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    eprintln!("preparing {} workloads…", specs.len());
    let workloads = options.prepare(&specs, &config, config.classifier);
    let sweep = options.sweep(&workloads, &config, &PolicyKind::PAPER_SET);

    let mut report = String::new();

    // Raw SRRIP MPKI block.
    let mut raw = TextTable::new(vec!["L2 MPKI", "inst.", "data", "inst/data"]);
    for bench in &sweep.benchmarks {
        let base = sweep.get(bench, PolicyKind::Srrip);
        let (i, d) = (base.l2_inst_mpki(), base.l2_data_mpki());
        raw.row(vec![
            bench.clone(),
            format!("{i:.2}"),
            format!("{d:.2}"),
            format!("{:.2}", if d > 0.0 { i / d } else { 0.0 }),
        ]);
    }
    emit(&mut report, "Table 3 (top): raw L2 MPKI under SRRIP");
    emit(&mut report, &raw.to_string());

    // Reduction block per mechanism.
    let mechanisms: Vec<PolicyKind> =
        PolicyKind::PAPER_SET.into_iter().filter(|&p| p != PolicyKind::Srrip).collect();
    let mut headers = vec!["mechanism".to_owned(), "side".to_owned()];
    headers.extend(sweep.benchmarks.iter().cloned());
    headers.push("geomean".to_owned());
    let mut table = TextTable::new(headers);
    for &m in &mechanisms {
        let mut inst_row = vec![m.name().to_owned(), "Inst.".to_owned()];
        let mut data_row = vec![String::new(), "Data".to_owned()];
        let mut inst_all = Vec::new();
        let mut data_all = Vec::new();
        for bench in &sweep.benchmarks {
            let base = sweep.get(bench, PolicyKind::Srrip);
            let r = sweep.get(bench, m);
            let di = r.inst_mpki_reduction_vs(base);
            let dd = r.data_mpki_reduction_vs(base);
            inst_all.push(di);
            data_all.push(dd);
            inst_row.push(format!("{di:.2}"));
            data_row.push(format!("{dd:.2}"));
        }
        inst_row.push(format!("{:.2}", geomean_pct(&inst_all)));
        data_row.push(format!("{:.2}", geomean_pct(&data_all)));
        table.row(inst_row);
        table.row(data_row);
    }
    emit(&mut report, "Table 3 (bottom): L2 MPKI reduction (%) vs SRRIP — negative = increase");
    emit(&mut report, &table.to_string());
    emit(
        &mut report,
        "paper geomeans (inst): LRU +1.8, BRRIP -94.5, DRRIP -11.5, SHiP -10.8, \
         CLIP +13.6, EMISSARY +22.1, TRRIP-1 +26.5, TRRIP-2 +27.3",
    );
    options.write_report("table3_mpki.txt", &report);
    obs.finish(&[]);
}
