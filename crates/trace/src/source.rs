//! The [`TraceSource`] abstraction the simulator consumes.

use std::sync::Arc;

use trrip_cpu::TraceInstr;

/// A producer of instruction batches.
///
/// The simulator pulls batches rather than single instructions so disk
/// readers can hand over whole decoded chunks and the walker can amortize
/// its per-call bookkeeping; [`SourceIter`] flattens batches back into
/// the instruction stream the timing core iterates.
pub trait TraceSource {
    /// Appends the next batch of instructions to `out`, returning how
    /// many were appended. `0` means the source is exhausted (infinite
    /// sources, like the CFG walker, never return `0` — callers bound
    /// them with [`Iterator::take`] on the [`SourceIter`]).
    ///
    /// # Buffer reuse contract
    ///
    /// Callers that loop over one buffer should `clear()` it between
    /// calls (as [`SourceIter`] does): sources that own their batches —
    /// [`crate::StreamingReplay`] — then *swap* the decoded batch into
    /// `out` and recycle the spent allocation, making the steady-state
    /// replay loop allocation-free. A non-empty `out` is always handled
    /// correctly (the batch is appended), but disables that hand-over.
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize;

    /// Lends the next batch in place, as a batch shared with whoever
    /// else reads it, instead of copying it into a caller buffer.
    /// [`SourceIter`] asks here first and serves its slices straight out
    /// of the lent batch.
    ///
    /// `None` means nothing was lent: the caller pulls the batch through
    /// [`TraceSource::next_batch`] instead, which also reports the end of
    /// the stream. The default lends nothing; sources whose batches are
    /// already shared — [`crate::FanoutSubscriber`] — override it, and
    /// return `None` only once they are exhausted.
    fn lend_batch(&mut self) -> Option<Arc<[TraceInstr]>> {
        None
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        (**self).next_batch(out)
    }

    fn lend_batch(&mut self) -> Option<Arc<[TraceInstr]>> {
        (**self).lend_batch()
    }
}

/// Adapts any [`TraceSource`] into an `Iterator<Item = TraceInstr>`.
#[derive(Debug)]
pub struct SourceIter<S> {
    source: S,
    /// The current batch when the source lent it; `buf` otherwise.
    lent: Option<Arc<[TraceInstr]>>,
    buf: Vec<TraceInstr>,
    pos: usize,
}

impl<S: TraceSource> SourceIter<S> {
    /// Wraps a source.
    #[must_use]
    pub fn new(source: S) -> SourceIter<S> {
        SourceIter { source, lent: None, buf: Vec::new(), pos: 0 }
    }

    /// The wrapped source.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Returns the next run of up to `limit` instructions as a
    /// contiguous slice of the current decoded batch, advancing the
    /// iterator past it. An empty slice means the source is exhausted
    /// (or `limit == 0`). Interleaves freely with [`Iterator::next`].
    ///
    /// This is the batched fast path: a disk replay's decoded chunk, a
    /// fan-out subscriber's lent sub-batch (read in place, shared with
    /// the other subscribers) or the walker's batch flows to the
    /// consumer as one slice instead of one `next()` call per
    /// instruction. The slice never crosses a batch boundary, so callers
    /// loop until they have their fill.
    pub fn next_slice(&mut self, limit: usize) -> &[TraceInstr] {
        if limit == 0 || !self.refill() {
            return &[];
        }
        let start = self.pos;
        let n = limit.min(self.batch().len() - start);
        self.pos += n;
        &self.batch()[start..start + n]
    }

    /// The current batch: the lent one, or the owned buffer.
    fn batch(&self) -> &[TraceInstr] {
        self.lent.as_deref().unwrap_or(&self.buf)
    }

    /// Moves on to the next non-empty batch once the current one is
    /// spent — a lent batch if the source lends one, the owned buffer
    /// refilled otherwise. Returns false when the source is exhausted.
    fn refill(&mut self) -> bool {
        while self.pos == self.batch().len() {
            self.pos = 0;
            self.lent = self.source.lend_batch();
            if self.lent.is_none() {
                self.buf.clear();
                if self.source.next_batch(&mut self.buf) == 0 {
                    return false;
                }
            }
        }
        true
    }
}

impl<S: TraceSource> Iterator for SourceIter<S> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        if !self.refill() {
            return None;
        }
        let instr = self.batch()[self.pos];
        self.pos += 1;
        Some(instr)
    }
}

/// A [`TraceSource`] over an in-memory instruction sequence (foreign
/// trace imports and tests).
#[derive(Debug)]
pub struct VecSource {
    instrs: std::vec::IntoIter<TraceInstr>,
    batch: usize,
}

impl VecSource {
    /// Wraps a vector, handing it out in batches of `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn new(instrs: Vec<TraceInstr>, batch: usize) -> VecSource {
        assert!(batch > 0, "batch must be positive");
        VecSource { instrs: instrs.into_iter(), batch }
    }
}

impl TraceSource for VecSource {
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        let before = out.len();
        out.extend(self.instrs.by_ref().take(self.batch));
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_iter_flattens_batches() {
        let instrs: Vec<_> = (0..10).map(|i| TraceInstr::simple(0x1000 + i * 4)).collect();
        let collected: Vec<_> = SourceIter::new(VecSource::new(instrs.clone(), 3)).collect();
        assert_eq!(collected, instrs);
    }

    #[test]
    fn next_slice_interleaves_with_next() {
        let instrs: Vec<_> = (0..10).map(|i| TraceInstr::simple(0x1000 + i * 4)).collect();
        let mut iter = SourceIter::new(VecSource::new(instrs.clone(), 4));
        assert_eq!(iter.next(), Some(instrs[0]));
        assert_eq!(iter.next_slice(2), &instrs[1..3]);
        assert_eq!(iter.next_slice(100), &instrs[3..4], "slice stops at the batch boundary");
        assert_eq!(iter.next_slice(100), &instrs[4..8]);
        assert_eq!(iter.next(), Some(instrs[8]));
        assert_eq!(iter.next_slice(0), &[] as &[TraceInstr]);
        assert_eq!(iter.next_slice(100), &instrs[9..]);
        assert!(iter.next_slice(100).is_empty(), "exhausted source yields an empty slice");
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn lent_batches_are_served_in_place() {
        struct Lender(std::vec::IntoIter<Arc<[TraceInstr]>>);
        impl TraceSource for Lender {
            fn next_batch(&mut self, _: &mut Vec<TraceInstr>) -> usize {
                0 // reached only once nothing is left to lend
            }
            fn lend_batch(&mut self) -> Option<Arc<[TraceInstr]>> {
                self.0.next()
            }
        }
        let instrs: Vec<_> = (0..10).map(|i| TraceInstr::simple(0x1000 + i * 4)).collect();
        let batches: Vec<Arc<[TraceInstr]>> = instrs.chunks(4).map(Arc::from).collect();
        let mut iter = SourceIter::new(Lender(batches.clone().into_iter()));
        assert_eq!(iter.next(), Some(instrs[0]));
        let slice = iter.next_slice(100);
        assert_eq!(slice, &instrs[1..4]);
        assert_eq!(slice.as_ptr(), batches[0][1..].as_ptr(), "read in place, not copied");
        assert_eq!(iter.next_slice(100).as_ptr(), batches[1].as_ptr());
        assert_eq!(iter.by_ref().collect::<Vec<_>>(), &instrs[8..]);
        assert!(iter.next_slice(100).is_empty());
    }

    #[test]
    fn take_bounds_an_infinite_source() {
        struct Forever;
        impl TraceSource for Forever {
            fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
                out.push(TraceInstr::simple(0));
                1
            }
        }
        assert_eq!(SourceIter::new(Forever).take(100).count(), 100);
    }
}
