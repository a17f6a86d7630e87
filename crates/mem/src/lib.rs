//! Memory primitives shared across the TRRIP simulator stack.
//!
//! Everything the cache hierarchy, MMU and trace generators agree on lives
//! here: typed virtual/physical addresses, cache-line geometry, page sizes,
//! the [`MemoryRequest`] that carries the PBHA-style temperature
//! attribute from the page tables down to the replacement policy, and
//! the [`VpnHash`] maps the MMU and the core probe on their hot paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod hash;
pub mod line;
pub mod page;
pub mod request;

pub use addr::{PhysAddr, VirtAddr};
pub use hash::{VpnHash, VpnMap, VpnSet};
pub use line::{CacheLineGeometry, LineAddr};
pub use page::{PageNumber, PageSize};
pub use request::{AccessKind, MemoryRequest, RequestAttrs};
