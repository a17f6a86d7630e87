//! Correctness of the simulated results, checked outside the timed
//! window. Every cell a run simulates is counted as attempted; a cell
//! fails when its sweep panicked or when its `SimResult` disagrees with
//! the reference it is checked against.

use trrip_sim::{PreparedWorkload, SimConfig, SimResult, SimRun, SweepResult};
use trrip_trace::SourceIter;
use trrip_workloads::{InputSet, TraceGenerator};

/// Whether two results are bit-identical in everything a run reports.
pub fn same_result(a: &SimResult, b: &SimResult) -> bool {
    a.benchmark == b.benchmark
        && a.policy == b.policy
        && a.core == b.core
        && a.core.cycles.to_bits() == b.core.cycles.to_bits()
        && a.l1i == b.l1i
        && a.l1d == b.l1d
        && a.l2 == b.l2
        && a.slc == b.slc
        && a.tlb == b.tlb
        && a.pages == b.pages
        && a.reuse_base == b.reuse_base
        && a.reuse_hot_only == b.reuse_hot_only
}

/// Attempted and failed cells of one run, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts `cells` cells that ran without a reference to check.
    pub fn ran(&mut self, cells: usize) {
        self.attempted += cells as u64;
    }

    /// Counts `cells` cells that failed outright (a panicking sweep).
    pub fn failed_outright(&mut self, cells: usize, what: &str) {
        self.attempted += cells as u64;
        self.failed += cells as u64;
        self.notes.push(format!("{what}: {cells} cell(s) failed"));
    }

    /// Counts one checked cell: it fails unless `got` equals `want`.
    pub fn check(&mut self, what: &str, want: &SimResult, got: &SimResult) {
        self.attempted += 1;
        if !same_result(want, got) {
            self.failed += 1;
            self.notes.push(format!(
                "{what}: {} / {} disagrees ({} vs {} cycles)",
                got.benchmark, got.policy, got.core.cycles, want.core.cycles
            ));
        }
    }

    /// Checks every cell of `got` against the same cell of `want`.
    pub fn check_sweep(&mut self, what: &str, want: &SweepResult, got: &SweepResult) {
        if want.results.len() != got.results.len() {
            self.failed_outright(got.results.len().max(1), &format!("{what}: sweep shape differs"));
            return;
        }
        for (w, g) in want.results.iter().zip(&got.results) {
            self.check(what, w, g);
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        crate::metrics::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The repository's oracle path for one cell: the in-memory walker
/// driving a run with beyond-L1 miss batching off (the synchronous miss
/// path every batched engine is proven equal to).
pub fn oracle(workload: &PreparedWorkload, config: &SimConfig) -> SimResult {
    let mut run = SimRun::new(workload, config);
    run.set_miss_batching(false);
    let object = workload.object(config.layout);
    let walker = TraceGenerator::new(&workload.program, object, &workload.spec, InputSet::Eval);
    let mut stream = SourceIter::new(walker);
    run.fast_forward(&mut stream);
    run.measure(&mut stream)
}

/// `count` distinct cell indices below `cells`, drawn from `seed`.
pub fn sample_cells(seed: u64, cells: usize, count: usize) -> Vec<usize> {
    let mut state = seed ^ 0x5EED_CE11_5A4D_1E00;
    let mut picked = Vec::new();
    while picked.len() < count.min(cells) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let i = ((x ^ (x >> 31)) % cells as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_core::ClassifierConfig;
    use trrip_policies::PolicyKind;
    use trrip_sim::simulate;
    use trrip_workloads::WorkloadSpec;

    fn tiny() -> (PreparedWorkload, SimConfig) {
        let mut spec = WorkloadSpec::named("perfbench-check");
        spec.functions = 40;
        spec.hot_rotation = 6;
        let workload = PreparedWorkload::prepare(&spec, 50_000, ClassifierConfig::llvm_defaults());
        let mut config = SimConfig::quick(PolicyKind::Trrip1);
        config.fast_forward = 5_000;
        config.instructions = 20_000;
        (workload, config)
    }

    #[test]
    fn the_oracle_agrees_with_simulate() {
        let (workload, config) = tiny();
        let mut tally = Tally::default();
        tally.check("oracle", &oracle(&workload, &config), &simulate(&workload, &config));
        assert_eq!((tally.attempted, tally.failed), (1, 0), "{:?}", tally.notes);
    }

    #[test]
    fn an_injected_mismatch_is_a_failed_cell() {
        let (workload, config) = tiny();
        let want = simulate(&workload, &config);
        let mut cycles = want.clone();
        cycles.core.cycles += 1.0;
        let mut misses = want.clone();
        misses.l2.inst_misses += 1;
        let mut tally = Tally::default();
        tally.check("same", &want, &want.clone());
        tally.check("cycles", &want, &cycles);
        tally.check("misses", &want, &misses);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.fail_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(tally.notes.len(), 2);
    }

    #[test]
    fn a_sweep_of_another_shape_fails_every_cell() {
        let (workload, config) = tiny();
        let one = simulate(&workload, &config);
        let want = SweepResult {
            results: vec![one.clone(), one.clone()],
            policies: vec![PolicyKind::Trrip1, PolicyKind::Srrip],
            benchmarks: vec![one.benchmark.clone()],
        };
        let got = SweepResult {
            results: vec![one],
            policies: want.policies.clone(),
            benchmarks: want.benchmarks.clone(),
        };
        let mut tally = Tally::default();
        tally.check_sweep("shape", &want, &got);
        assert_eq!(tally.failed, tally.attempted);
        assert!(tally.failed >= 1);
    }

    #[test]
    fn sampled_cells_are_distinct_and_seeded() {
        let a = sample_cells(3, 27, 4);
        assert_eq!(a, sample_cells(3, 27, 4));
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|&i| i < 27));
        assert!(a.iter().enumerate().all(|(k, i)| !a[k + 1..].contains(i)));
        assert_eq!(sample_cells(1, 2, 5).len(), 2);
    }
}
