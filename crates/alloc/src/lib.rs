//! Single-threaded value allocator for CPHash partitions.
//!
//! The paper makes the allocator part of the design (§3.2):
//!
//! > "It is convenient to allocate memory in the server thread since each
//! > server is responsible for a single partition and so CPHASH can use a
//! > standard single-threaded memory allocator. However, performing the
//! > actual data copying in the server thread is a bad design since for
//! > large values it wipes out the local hardware cache of the server core.
//! > Thus, in CPHASH the space allocation is done in the server thread and
//! > the actual data copying is performed in the client thread."
//!
//! So the allocator must (a) be single-threaded and lock-free because only
//! the owning server thread calls it, (b) hand out blocks that a *different*
//! thread (the client) may fill, and (c) account bytes so the partition
//! knows when to evict (the benchmark's "maximum hash table size" knob is a
//! byte budget).
//!
//! [`SlabAllocator`] implements a segregated-fit allocator: sixteenth-step
//! size classes (sixteen per doubling, so a request of 256 bytes or more
//! gets a block less than a sixteenth larger than itself), per-class free
//! lists, chunked backing storage obtained from the global allocator.
//! [`ValueHandle`]s are stable raw-pointer handles a client thread can copy
//! value bytes through while the server thread keeps ownership of the
//! metadata.
//!
//! Every block is freed by the allocator that handed it out, on its owner's
//! thread, so nothing here is atomic.  Live re-partitioning keeps that
//! true: a migrated value is copied into the new owner's allocator and the
//! old block is freed by its old owner.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod size_class;
pub mod slab;
pub mod stats;

pub use size_class::{class_for_size, class_size, SizeClass, NUM_CLASSES};
pub use slab::{SlabAllocator, SlabConfig, ValueHandle, MAX_VALUE_BYTES};
pub use stats::AllocStats;
