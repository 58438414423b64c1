//! **Affinity alloc** — the paper's core contribution (MICRO '23).
//!
//! A memory allocator that accepts *affinity information* instead of
//! imperative placement directives, and lowers it onto interleave pools so
//! that near-data computation lands where its operands are:
//!
//! * **Affine** (§4.2): [`AffineArrayReq`] carries `align_to` +
//!   `align_p/q/x` — "element `i` of this array aligns with element
//!   `(p/q)·i + x` of that array" (Eq 2). The runtime derives the interleave
//!   (Eq 3) and start bank, so corresponding elements of co-operating arrays
//!   share an L3 bank.
//! * **Irregular** (§5): [`AffinityAllocator::malloc_aff`] takes a list of
//!   *affinity addresses* the new object should be near. The runtime scores
//!   every bank by Eq 4 — `avg_hops + H · (load/avg_load − 1)` — and
//!   allocates from that bank's free list, trading affinity against load
//!   balance ([`BankSelectPolicy`]).
//!
//! # Example: the Fig 7 tree
//!
//! ```
//! use affinity_alloc::{AffinityAllocator, BankSelectPolicy};
//! use aff_sim_core::config::MachineConfig;
//!
//! let mut alloc = AffinityAllocator::new(
//!     MachineConfig::tiny_mesh(),
//!     BankSelectPolicy::Hybrid { h: 5.0 },
//! );
//! let n5 = alloc.malloc_aff(64, &[]).unwrap();
//! let n2 = alloc.malloc_aff(64, &[n5]).unwrap(); // near its parent
//! assert_eq!(alloc.bank_of(n2), alloc.bank_of(n5));
//! ```

pub mod api;
mod chunks;
pub mod infer;
pub mod lanes;
pub mod policy;
pub mod runtime;
pub mod service;

pub use api::{AffineArrayReq, AffinityHint, AllocError, QuotaKind, MAX_AFFINITY_ADDRS};
pub use infer::{AffinityProfile, InferredHint, RegionHint};
pub use policy::BankSelectPolicy;
pub use runtime::{AffinityAllocator, AllocStats, FragmentationReport, MAX_ALLOC_BYTES};
pub use service::{AllocService, ServiceConfig, TenantStats};
