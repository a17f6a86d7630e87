//! Sampled timing of the memory system, from outside: a
//! [`MemoryBackend`] wrapper around the simulator's [`SystemBackend`],
//! driven by the same public constructors and phase order `SimRun` uses,
//! so the traced cell simulates exactly what `simulate` does.

use std::time::Instant;

use trrip_cache::Hierarchy;
use trrip_cpu::{Core, MemLatency, MemoryBackend};
use trrip_mem::VirtAddr;
use trrip_os::{Loader, Mmu};
use trrip_sim::{PreparedWorkload, SimConfig, SystemBackend};
use trrip_trace::{SourceIter, TraceSource};
use trrip_workloads::{InputSet, TraceGenerator};

use crate::metrics::ratio;

/// Every `SAMPLE`-th demand access is timed.
const SAMPLE: u64 = 16;

/// Accesses served at one level: all counted, every `SAMPLE`-th timed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Level {
    pub accesses: u64,
    pub sampled: u64,
    pub sampled_ns: u64,
}

impl Level {
    fn add(&mut self, ns: Option<u64>) {
        self.accesses += 1;
        if let Some(ns) = ns {
            self.sampled += 1;
            self.sampled_ns += ns;
        }
    }

    fn merge(&mut self, other: &Level) {
        self.accesses += other.accesses;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Mean nanoseconds of one sampled access, less the clock's own cost
    /// (`clock_ns` per timed pair).
    fn mean_ns(&self, clock_ns: f64) -> f64 {
        (ratio(self.sampled_ns as f64, self.sampled as f64) - clock_ns).max(0.0)
    }
}

/// Timed access tallies, split by the level that served the access.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemTimes {
    /// Demand accesses the L1 served.
    pub l1: Level,
    /// Demand accesses and prefetches that went beyond the L1.
    pub beyond: Level,
    /// Deferred beyond-L1 work drained at batch seams (always timed).
    pub flush_ns: u64,
}

impl MemTimes {
    pub fn merge(&mut self, other: &MemTimes) {
        self.l1.merge(&other.l1);
        self.beyond.merge(&other.beyond);
        self.flush_ns += other.flush_ns;
    }

    /// Mean nanoseconds of one L1-served access.
    pub fn l1_ns(&self, clock_ns: f64) -> f64 {
        self.l1.mean_ns(clock_ns)
    }

    /// Mean nanoseconds of one beyond-L1 access, including its share of
    /// the deferred work drained at batch seams.
    pub fn beyond_ns(&self, clock_ns: f64) -> f64 {
        self.beyond.mean_ns(clock_ns) + ratio(self.flush_ns as f64, self.beyond.accesses as f64)
    }

    /// Estimated total memory-system nanoseconds of the run.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        self.l1_ns(clock_ns) * self.l1.accesses as f64
            + self.beyond_ns(clock_ns) * self.beyond.accesses as f64
    }
}

/// The wrapper: forwards every call and times a sample of them.
#[derive(Debug)]
pub struct TimedBackend {
    pub inner: SystemBackend,
    pub times: MemTimes,
    calls: u64,
}

impl TimedBackend {
    /// Runs `access`, timing it when this is a `SAMPLE`-th call.
    fn sampled<T>(&mut self, access: impl FnOnce(&mut SystemBackend) -> T) -> (T, Option<u64>) {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE) {
            return (access(&mut self.inner), None);
        }
        let start = Instant::now();
        let out = access(&mut self.inner);
        (out, Some(start.elapsed().as_nanos() as u64))
    }

    fn demand(&mut self, access: impl FnOnce(&mut SystemBackend) -> MemLatency) -> MemLatency {
        let (out, ns) = self.sampled(access);
        if out.l1_hit {
            self.times.l1.add(ns);
        } else {
            self.times.beyond.add(ns);
        }
        out
    }
}

impl MemoryBackend for TimedBackend {
    fn ifetch(&mut self, pc: VirtAddr, caused_starvation: bool, now: u64) -> MemLatency {
        self.demand(|b| b.ifetch(pc, caused_starvation, now))
    }

    fn dread(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency {
        self.demand(|b| b.dread(addr, pc))
    }

    fn dwrite(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency {
        self.demand(|b| b.dwrite(addr, pc))
    }

    fn prefetch_ifetch(&mut self, pc: VirtAddr, now: u64) {
        let ((), ns) = self.sampled(|b| b.prefetch_ifetch(pc, now));
        self.times.beyond.add(ns);
    }

    fn flush_deferred(&mut self) {
        let start = Instant::now();
        self.inner.flush_deferred();
        self.times.flush_ns += start.elapsed().as_nanos() as u64;
    }
}

/// One traced cell: the result's cycles, measured instructions and the
/// memory-system tallies of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct TracedCell {
    pub cycles: f64,
    pub instructions: u64,
    pub times: MemTimes,
}

/// Runs one cell of `workload` under `config` over the in-memory walker
/// with the timed backend: load, fast-forward, then measure, exactly as
/// `SimRun` composes them.
pub fn traced_cell(workload: &PreparedWorkload, config: &SimConfig) -> TracedCell {
    let object = workload.object(config.layout);
    let image = Loader::new(config.page_size).with_overlap_policy(config.overlap).load(object);
    let mmu = Mmu::new(image.page_table);
    let hierarchy = Hierarchy::new(&config.hierarchy);
    let backend = SystemBackend::new(mmu, hierarchy, object, config);
    let mut core = Core::new(
        config.core,
        TimedBackend { inner: backend, times: MemTimes::default(), calls: 0 },
    );
    let walker = TraceGenerator::new(&workload.program, object, &workload.spec, InputSet::Eval);
    let mut stream = SourceIter::new(walker);

    let mut state = core.begin_run();
    feed(&mut core, &mut state, &mut stream, config.fast_forward);
    core.backend_mut().inner.flush_fastpath_counters();

    core.backend_mut().inner.arm_measurement(config.measure_reuse, config.track_costly);
    core.backend_mut().times = MemTimes::default();
    let mut state = core.begin_run();
    feed(&mut core, &mut state, &mut stream, config.instructions);
    core.backend_mut().inner.flush_fastpath_counters();
    let result = core.finish_run(state);
    TracedCell {
        cycles: result.cycles,
        instructions: result.instructions,
        times: core.backend().times,
    }
}

/// Feeds `limit` instructions as slices, then the draining empty batch —
/// the shape of `SimRun`'s own batch loop.
fn feed<S: TraceSource>(
    core: &mut Core<TimedBackend>,
    state: &mut trrip_cpu::RunState,
    stream: &mut SourceIter<S>,
    limit: u64,
) {
    let mut remaining = limit as usize;
    while remaining > 0 {
        let batch = stream.next_slice(remaining);
        if batch.is_empty() {
            break;
        }
        remaining -= batch.len();
        core.run_batch(state, batch, false);
    }
    core.run_batch(state, &[], true);
}

/// The cost of one `Instant::now()` pair, in nanoseconds, subtracted
/// from every sampled access.
pub fn clock_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let mut total = 0u128;
    for _ in 0..N {
        let start = Instant::now();
        total += start.elapsed().as_nanos();
    }
    total as f64 / f64::from(N)
}
