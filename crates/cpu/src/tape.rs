//! The **warmup tape**: the policy-independent decisions of one
//! fast-forward pass, recorded once and replayed for every other cache
//! policy.
//!
//! During warmup, only two of the core's inputs come from trained
//! predictor state rather than straight from the instruction stream:
//!
//! * whether each dynamic branch **mispredicted** (the 8-cycle redirect
//!   charge), and
//! * how many lines the pseudo-FDIP lookahead prefetched at each fetch
//!   line-change trigger (the scan stops at the first branch the
//!   predictor would get wrong, or at the configured line cap).
//!
//! Both are functions of the instruction stream and the branch
//! predictor alone — the predictor never sees a cache latency — so they
//! are **identical under every L2 policy**. Recording them (1 bit per
//! branch, 2 bits per trigger) lets a replay reproduce the exact
//! warmup-time behaviour of the core *without a predictor*: the
//! policy-dependent machine (caches, TLB, prefetch tables, starvation
//! FIFO, the clock) re-simulates against its own policy, while every
//! predictor-derived decision comes off the tape. That replay is the
//! "cache-touching warmup tail" of the shared-prefix checkpoint design:
//! one full recorded warmup per workload, then one cheap tail replay per
//! remaining policy, bit-identical to a cold per-cell warmup.

use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Bits used per FDIP trigger entry. Two bits cap the recordable count
/// at 3; the paper core prefetches at most `fdip_max_lines = 2` lines
/// per trigger, and [`WarmupTape::push_fdip`] asserts the cap so a
/// future config bump fails loudly instead of wrapping.
const FDIP_BITS: usize = 2;

/// One warmup's recorded decision streams.
///
/// Consumption is positional: the replay reads one mispredict bit per
/// branch instruction and one FDIP count (plus that many prefetch PCs)
/// per fetch line-change, in stream order — the events need no explicit
/// indices because the instruction stream itself is the index. The PCs
/// are recorded (not just the stop count) so the replay needs no
/// lookahead window: the whole core frontend disappears from the
/// warmup-tail loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmupTape {
    /// Instructions the recorded warmup covered.
    instructions: u64,
    /// One bit per dynamic branch, LSB-first.
    mispredicts: Vec<u8>,
    branches: u64,
    /// [`FDIP_BITS`] per fetch line-change trigger, LSB-first.
    fdip_counts: Vec<u8>,
    triggers: u64,
    /// Zigzag varint PC deltas (vs the trigger PC) of every FDIP
    /// prefetch, in issue order; one entry per count recorded above.
    fdip_pcs: Vec<u8>,
    fdip_prefetches: u64,
}

impl WarmupTape {
    /// An empty tape, ready to record.
    #[must_use]
    pub fn new() -> WarmupTape {
        WarmupTape::default()
    }

    /// Instructions the recorded warmup covered.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Dynamic branches recorded.
    #[must_use]
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// FDIP line-change triggers recorded.
    #[must_use]
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Approximate tape size in bytes (for reports).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.mispredicts.len() + self.fdip_counts.len() + self.fdip_pcs.len()
    }

    /// Records that the recorded warmup consumed one more instruction.
    pub fn push_instruction(&mut self) {
        self.instructions += 1;
    }

    /// Records one dynamic branch's misprediction outcome.
    pub fn push_mispredict(&mut self, mispredicted: bool) {
        let bit = (self.branches % 8) as u8;
        if bit == 0 {
            self.mispredicts.push(0);
        }
        if mispredicted {
            *self.mispredicts.last_mut().expect("just pushed") |= 1 << bit;
        }
        self.branches += 1;
    }

    /// Records one FDIP trigger: how many lines it prefetched and, for
    /// each, the prefetched PC (delta-coded against `trigger_pc`).
    ///
    /// # Panics
    ///
    /// Panics if the count does not fit the 2-bit entry — the core's
    /// `fdip_max_lines` would have to exceed 3, which the paper machine
    /// never does; widen `FDIP_BITS` if a config ever needs it.
    pub fn push_fdip(&mut self, trigger_pc: u64, pcs: &[u64]) {
        let count = pcs.len();
        assert!(count < (1 << FDIP_BITS), "FDIP count {count} exceeds the tape's 2-bit entry");
        let slot = (self.triggers as usize * FDIP_BITS) % 8;
        if slot == 0 {
            self.fdip_counts.push(0);
        }
        *self.fdip_counts.last_mut().expect("just pushed") |= (count as u8) << slot;
        self.triggers += 1;
        for &pc in pcs {
            trrip_snap::push_signed(&mut self.fdip_pcs, pc.wrapping_sub(trigger_pc) as i64);
            self.fdip_prefetches += 1;
        }
    }

    /// A cursor positioned at the tape's start, for replay.
    #[must_use]
    pub fn cursor(&self) -> TapeCursor<'_> {
        TapeCursor { tape: self, branch_pos: 0, trigger_pos: 0, pc_pos: 0, pcs_read: 0 }
    }
}

/// The tape's two decision streams plus the counts that let a replay
/// detect a tape/stream mismatch loudly instead of desynchronizing.
impl Snapshot for WarmupTape {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"TAPE");
        w.u64(self.instructions);
        w.u64(self.branches);
        w.bytes_field(&self.mispredicts);
        w.u64(self.triggers);
        w.bytes_field(&self.fdip_counts);
        w.u64(self.fdip_prefetches);
        w.bytes_field(&self.fdip_pcs);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"TAPE")?;
        self.instructions = r.u64()?;
        self.branches = r.u64()?;
        self.mispredicts = r.bytes_field()?.to_vec();
        if self.mispredicts.len() as u64 != self.branches.div_ceil(8) {
            return Err(SnapError::Corrupt(format!(
                "mispredict stream holds {} bytes for {} branches",
                self.mispredicts.len(),
                self.branches
            )));
        }
        self.triggers = r.u64()?;
        self.fdip_counts = r.bytes_field()?.to_vec();
        if self.fdip_counts.len() as u64 != (self.triggers * FDIP_BITS as u64).div_ceil(8) {
            return Err(SnapError::Corrupt(format!(
                "FDIP stream holds {} bytes for {} triggers",
                self.fdip_counts.len(),
                self.triggers
            )));
        }
        self.fdip_prefetches = r.u64()?;
        self.fdip_pcs = r.bytes_field()?.to_vec();
        Ok(())
    }
}

/// Read position into a [`WarmupTape`].
#[derive(Debug, Clone)]
pub struct TapeCursor<'t> {
    tape: &'t WarmupTape,
    branch_pos: u64,
    trigger_pos: u64,
    pc_pos: usize,
    pcs_read: u64,
}

impl TapeCursor<'_> {
    /// The next branch's recorded misprediction outcome.
    ///
    /// # Panics
    ///
    /// Panics when the stream holds more branches than the tape — a
    /// stale or mismatched tape, which keyed+checksummed prefix
    /// containers make unreachable in practice.
    #[must_use]
    pub fn next_mispredict(&mut self) -> bool {
        assert!(
            self.branch_pos < self.tape.branches,
            "warmup tape exhausted after {} branches (stale or mismatched shared prefix)",
            self.tape.branches
        );
        let i = self.branch_pos;
        self.branch_pos += 1;
        self.tape.mispredicts[(i / 8) as usize] >> (i % 8) & 1 != 0
    }

    /// The next FDIP trigger's recorded prefetch count.
    ///
    /// # Panics
    ///
    /// As [`TapeCursor::next_mispredict`], for triggers.
    #[must_use]
    pub fn next_fdip(&mut self) -> usize {
        assert!(
            self.trigger_pos < self.tape.triggers,
            "warmup tape exhausted after {} FDIP triggers (stale or mismatched shared prefix)",
            self.tape.triggers
        );
        let bit = self.trigger_pos as usize * FDIP_BITS;
        self.trigger_pos += 1;
        usize::from(self.tape.fdip_counts[bit / 8] >> (bit % 8) & ((1 << FDIP_BITS) - 1))
    }

    /// The next recorded FDIP prefetch PC, delta-decoded against the
    /// trigger's PC. Call exactly [`TapeCursor::next_fdip`]-count times
    /// per trigger.
    ///
    /// # Panics
    ///
    /// As [`TapeCursor::next_mispredict`], for prefetch entries.
    #[must_use]
    pub fn next_fdip_pc(&mut self, trigger_pc: u64) -> u64 {
        assert!(
            self.pcs_read < self.tape.fdip_prefetches,
            "warmup tape exhausted after {} FDIP prefetches (stale or mismatched shared prefix)",
            self.tape.fdip_prefetches
        );
        let delta = trrip_snap::read_signed(&self.tape.fdip_pcs, &mut self.pc_pos)
            .expect("checksummed tape holds whole varints");
        self.pcs_read += 1;
        trigger_pc.wrapping_add(delta as u64)
    }

    /// Checks the whole tape was consumed — the replay saw exactly the
    /// branches, triggers and prefetches the recording did.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] when positions and totals disagree.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.branch_pos == self.tape.branches
            && self.trigger_pos == self.tape.triggers
            && self.pcs_read == self.tape.fdip_prefetches
        {
            Ok(())
        } else {
            Err(SnapError::Mismatch(format!(
                "warmup tape not fully consumed: {}/{} branches, {}/{} triggers, {}/{} prefetches",
                self.branch_pos,
                self.tape.branches,
                self.trigger_pos,
                self.tape.triggers,
                self.pcs_read,
                self.tape.fdip_prefetches
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_round_trips_bit_streams() {
        let mut tape = WarmupTape::new();
        let mispredicts: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        let triggers: Vec<(u64, Vec<u64>)> = (0..21u64)
            .map(|i| {
                let pc = 0x4000 + i * 64;
                let pcs: Vec<u64> = (0..i % 3).map(|k| pc + 64 + k * 64).collect();
                (pc, pcs)
            })
            .collect();
        for &m in &mispredicts {
            tape.push_mispredict(m);
        }
        for (pc, pcs) in &triggers {
            tape.push_fdip(*pc, pcs);
        }
        for _ in 0..100 {
            tape.push_instruction();
        }

        let mut w = SnapWriter::new();
        tape.save(&mut w);
        let mut restored = WarmupTape::new();
        restored.restore(&mut SnapReader::new(w.bytes())).expect("restore");
        assert_eq!(restored, tape);
        assert_eq!(restored.instructions(), 100);

        let mut cursor = restored.cursor();
        for &m in &mispredicts {
            assert_eq!(cursor.next_mispredict(), m);
        }
        for (pc, pcs) in &triggers {
            assert_eq!(cursor.next_fdip(), pcs.len());
            for &expected in pcs {
                assert_eq!(cursor.next_fdip_pc(*pc), expected);
            }
        }
        cursor.finish().expect("fully consumed");
    }

    #[test]
    fn partial_consumption_fails_finish() {
        let mut tape = WarmupTape::new();
        tape.push_mispredict(true);
        tape.push_fdip(0x8000, &[0x8040, 0x8080]);
        let mut cursor = tape.cursor();
        assert!(cursor.finish().is_err());
        assert!(cursor.next_mispredict());
        assert!(cursor.finish().is_err(), "unconsumed trigger must fail");
        assert_eq!(cursor.next_fdip(), 2);
        assert!(cursor.finish().is_err(), "unconsumed prefetch PCs must fail");
        assert_eq!(cursor.next_fdip_pc(0x8000), 0x8040);
        assert_eq!(cursor.next_fdip_pc(0x8000), 0x8080);
        cursor.finish().expect("now complete");
    }

    #[test]
    fn truncated_streams_are_corrupt_not_panics() {
        let mut tape = WarmupTape::new();
        for i in 0..16u64 {
            tape.push_mispredict(i % 2 == 0);
            tape.push_fdip(0x4000 + i * 64, &[0x4040 + i * 64]);
        }
        let mut w = SnapWriter::new();
        tape.save(&mut w);
        let bytes = w.bytes();
        for cut in 4..bytes.len() {
            let mut t = WarmupTape::new();
            assert!(
                t.restore(&mut SnapReader::new(&bytes[..cut])).is_err(),
                "restore succeeded on a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn oversized_fdip_count_is_rejected() {
        let mut tape = WarmupTape::new();
        tape.push_fdip(0x1000, &[0x1040, 0x1080, 0x10C0]); // max representable
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.push_fdip(0x1000, &[0x1040, 0x1080, 0x10C0, 0x1100]);
        }));
        assert!(result.is_err(), "count 4 must not fit a 2-bit entry");
    }
}
