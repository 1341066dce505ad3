//! # cphash-suite — the CPHash reproduction, in one crate
//!
//! This façade crate re-exports the whole workspace so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`table`] | `cphash` | the cache-partitioned hash table itself (CPHASH) |
//! | [`lockhash`] | `cphash-lockhash` | the fine-grained-locking baseline (LOCKHASH) |
//! | [`hashcore`] | `cphash-hashcore` | the shared partition data structure |
//! | [`channel`] | `cphash-channel` | shared-memory message passing (batched rings) |
//! | [`alloc`] | `cphash-alloc` | the per-partition value allocator |
//! | [`affinity`] | `cphash-affinity` | topology modelling and thread pinning |
//! | [`cacheline`] | `cphash-cacheline` | cache-line size, alignment, packing arithmetic and prefetch |
//! | [`kvproto`] | `cphash-kvproto` | the CPSERVER/LOCKSERVER wire protocol |
//! | [`kvserver`] | `cphash-kvserver` | CPSERVER, LOCKSERVER and the memcached-style baseline |
//! | [`loadgen`] | `cphash-loadgen` | workload generation and benchmark drivers |
//! | [`migrate`] | `cphash-migrate` | online repartitioning (live key migration) |
//! | [`perfmon`] | `cphash-perfmon` | timing, histograms and figure reports |
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use cphash_suite::{CpHash, CpHashConfig};
//!
//! let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
//! clients[0].insert(7, b"seven").unwrap();
//! assert_eq!(clients[0].get(7).unwrap().unwrap().as_slice(), b"seven");
//! drop(clients);
//! table.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub use cphash as table;
pub use cphash_affinity as affinity;
pub use cphash_alloc as alloc;
pub use cphash_cacheline as cacheline;
pub use cphash_channel as channel;
pub use cphash_hashcore as hashcore;
pub use cphash_kvproto as kvproto;
pub use cphash_kvserver as kvserver;
pub use cphash_loadgen as loadgen;
pub use cphash_lockhash as lockhash;
pub use cphash_migrate as migrate;
pub use cphash_perfmon as perfmon;

// The names most callers want, at the top level.
pub use cphash::{
    BatchStats, ClientHandle, Completion, CompletionKind, CpHash, CpHashConfig, EvictionPolicy,
    KeyRef, KvClient, KvError, KvOp, OpError, PartitionStats, PartitionedClient, RemoteClient,
    TableError, ValueBytes, MAX_KEY,
};
pub use cphash_kvserver::{CpServer, CpServerConfig, LockServer, LockServerConfig};
pub use cphash_loadgen::{DriverOptions, RunResult, WorkloadSpec};
pub use cphash_lockhash::{LockHash, LockHashConfig};
pub use cphash_migrate::{MigrationPacer, MigrationPacing, RepartitionCoordinator};
