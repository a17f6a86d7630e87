//! The three named workloads: which proxies they sweep, with which
//! engine, and how the seed reaches the inputs.

use std::path::{Path, PathBuf};

use trrip_policies::PolicyKind;
use trrip_sim::{
    parallel_map_with, policy_sweep_with, replay_sweep_warm_prefix, CheckpointStore,
    PreparedWorkload, SimConfig, SweepResult, TraceStore,
};
use trrip_workloads::WorkloadSpec;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large programs, in-memory walker engine, no store.
    WalkerLarge,
    /// L1-resident programs swept into an emptied trace + checkpoint
    /// store (the store's write side).
    StorePopulate,
    /// The same programs swept from a store populated during set-up
    /// (the store's read side).
    StoreWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::WalkerLarge, Workload::StorePopulate, Workload::StoreWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WalkerLarge => "walker_large",
            Workload::StorePopulate => "store_populate",
            Workload::StoreWarm => "store_warm",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The proxy benchmarks this workload sweeps.
    pub fn proxies(self) -> [&'static str; 3] {
        match self {
            Workload::WalkerLarge => ["clang", "python", "omnetpp"],
            Workload::StorePopulate | Workload::StoreWarm => ["bullet", "clamscan", "deepsjeng"],
        }
    }

    /// Whether the sweep runs through the trace + checkpoint store.
    pub fn uses_store(self) -> bool {
        self != Workload::WalkerLarge
    }
}

/// The policies every sweep runs (Figure 6's set).
pub const POLICIES: [PolicyKind; 9] = PolicyKind::PAPER_SET;

/// The configuration every sweep runs: the paper machine with its
/// 300k-instruction fast-forward and 3M measured instructions.
pub fn base_config() -> SimConfig {
    SimConfig::paper(PolicyKind::Srrip)
}

/// splitmix64: spreads a small seed over all 64 bits.
fn mix(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The workload's specs with the seed folded into every train and eval
/// seed. Seed 0 leaves the repository constants untouched; the program
/// structure (`structure_seed`) never changes, so every seed sweeps the
/// same binaries under different inputs.
pub fn specs(workload: Workload, seed: u64) -> Vec<WorkloadSpec> {
    workload
        .proxies()
        .iter()
        .map(|name| {
            let mut spec = trrip_workloads::proxy::by_name(name)
                .unwrap_or_else(|| panic!("unknown proxy {name}"));
            if seed != 0 {
                spec.train_seed ^= mix(seed);
                spec.eval_seed ^= mix(seed ^ 0xE7A1);
            }
            spec
        })
        .collect()
}

/// Synthesis + PGO training + classification for every spec, `jobs`
/// workers wide.
pub fn prepare(specs: &[WorkloadSpec], jobs: usize) -> Vec<PreparedWorkload> {
    let config = base_config();
    parallel_map_with(jobs, specs.len(), |i| {
        PreparedWorkload::prepare(&specs[i], config.train_instructions, config.classifier)
    })
}

/// The on-disk trace + checkpoint store of one run.
#[derive(Debug, Clone)]
pub struct Store {
    pub root: PathBuf,
}

impl Store {
    pub fn new(root: &Path) -> Store {
        Store { root: root.to_path_buf() }
    }

    pub fn traces(&self) -> TraceStore {
        TraceStore::new(self.root.join("traces"))
    }

    pub fn checkpoints(&self) -> CheckpointStore {
        CheckpointStore::new(self.root.join("checkpoints"))
    }

    /// Removes every artifact, leaving an empty store.
    pub fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }

    /// Trace + checkpoint bytes at rest.
    pub fn bytes(&self) -> u64 {
        dir_bytes(&self.root)
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// One sweep of `workload` with its own engine. The store workloads
/// sweep through `store`; `walker_large` ignores it.
pub fn sweep(
    workload: Workload,
    jobs: usize,
    prepared: &[PreparedWorkload],
    store: &Store,
) -> SweepResult {
    let config = base_config();
    if workload.uses_store() {
        replay_sweep_warm_prefix(
            jobs,
            prepared,
            &config,
            &POLICIES,
            &store.traces(),
            &store.checkpoints(),
        )
    } else {
        policy_sweep_with(jobs, prepared, &config, &POLICIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_repository_constants() {
        for w in Workload::ALL {
            for (spec, name) in specs(w, 0).iter().zip(w.proxies()) {
                assert_eq!(spec, &trrip_workloads::proxy::by_name(name).expect("proxy"));
            }
        }
    }

    #[test]
    fn other_seeds_move_only_the_input_seeds() {
        let base = specs(Workload::StoreWarm, 0);
        let seeded = specs(Workload::StoreWarm, 5);
        for (a, b) in base.iter().zip(&seeded) {
            assert_ne!(a.train_seed, b.train_seed);
            assert_ne!(a.eval_seed, b.eval_seed);
            assert_eq!(a.structure_seed, b.structure_seed);
        }
        assert_eq!(seeded, specs(Workload::StoreWarm, 5), "same seed, same inputs");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
    }
}
