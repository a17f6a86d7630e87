//! `trrip-trace` — binary trace capture and replay.
//!
//! The paper's experiments run on Pin-captured instruction traces; this
//! reproduction synthesizes equivalent traces with the CFG walker in
//! `trrip-workloads`. Re-generating a trace costs more than simulating
//! it, and every policy in a sweep re-pays that cost. This crate makes
//! traces *persistent*: capture the walker's output once, then replay it
//! from disk for every policy, machine configuration, or future session
//! — and import foreign traces that were never synthesized here at all.
//!
//! * [`mod@format`] — the compact varint-delta on-disk encoding (~2.4 bytes
//!   per instruction on walker output vs 34 in memory).
//! * [`TraceWriter`] — streaming writer; fixed-size chunks, a versioned
//!   header with workload metadata, instruction count and checksum
//!   patched in on [`TraceWriter::finish`].
//! * [`TraceReader`] — streaming chunked reader: O(chunk) memory no
//!   matter how many billions of instructions the file holds, with
//!   header validation up front and checksum verification at EOF.
//! * [`TraceSource`] — the batch-pull interface the simulator consumes;
//!   implemented by the reader, by [`StreamingReplay`] (a bounded-channel
//!   pipeline that overlaps disk decode with simulation), by
//!   [`FanoutSubscriber`], and by the in-memory walker in
//!   `trrip-workloads`.
//! * [`fanout`] — the decode-once fan-out engine: one parallel-decoded
//!   stream of shared `Arc<[TraceInstr]>` batches broadcast to N
//!   consumers, so a policy sweep pays disk + decode once per workload
//!   instead of once per policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fanout;
pub mod format;
pub mod index;
pub mod reader;
pub mod source;
pub mod stats;
pub mod stream;
pub mod writer;

pub use fanout::{FanoutOptions, FanoutReplay, FanoutSubscriber};
pub use format::{TraceError, TraceLayout, TraceMeta, CHUNK_CAPACITY};
pub use index::{read_index, ChunkIndex, IndexEntry};
pub use reader::{decode_chunk, open, probe, TraceReader};
pub use source::{SourceIter, TraceSource};
pub use stats::records_decoded;
pub use stream::StreamingReplay;
pub use writer::{create, create_with_dict, TraceWriter};
