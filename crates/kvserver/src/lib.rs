//! Key/value cache servers: CPSERVER, LOCKSERVER and a memcached-style
//! baseline.
//!
//! §4 of the paper wraps both hash tables in a MEMCACHED-style TCP cache
//! server to show that the microbenchmark win survives contact with a real
//! application:
//!
//! * **CPSERVER** — client threads own TCP connections, gather batches of
//!   requests from them, ship the hash-table work to CPHash server threads
//!   over the message-passing lanes, then write the responses back to the
//!   right connections.
//! * **LOCKSERVER** — the same connection plumbing, but worker threads
//!   execute operations directly against the lock-based table.
//! * **Memcached-style baseline** — §7 compares against stock memcached run
//!   as one instance per core with client-side key partitioning; here that
//!   is modelled by [`memcache::MemcacheCluster`]: independent instances,
//!   each a single store behind one global lock, no batching.
//!
//! All three run one worker loop, which reaches its table only through
//! [`cphash::KvClient`]'s submit and poll: CPSERVER's client threads drive
//! their `ClientHandle`, and the two lock-based servers drive their table
//! through an adapter that runs each operation inside submit.  So all three
//! answer the same binary protocol (`cphash-kvproto`) with the same
//! semantics — ordered replies, read-your-writes on a connection, §8.2 byte
//! keys — and the same load generator (`cphash-loadgen::tcp`) drives all of
//! them.
//!
//! The loop is event-driven: each worker sits on a [`reactor::Reactor`]
//! (epoll on Linux; a busy-poll backend behind the same trait where epoll
//! does not exist), so idle connections cost nothing and worker CPU scales
//! with requests served.  The accept path is sharded: every worker owns a
//! listener on the server's address and accepts for itself — a
//! `SO_REUSEPORT` socket the kernel load-balances over where that exists, a
//! clone of one shared socket elsewhere ([`acceptor::shard_listeners`]).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod acceptor;
pub mod connection;
pub mod cpserver;
pub mod lockserver;
pub mod memcache;
pub mod metrics;
pub mod reactor;
mod serve;
pub mod stats_http;

pub use cpserver::{CpServer, CpServerConfig};
pub use lockserver::{LockServer, LockServerConfig};
pub use memcache::{MemcacheCluster, MemcacheConfig};
pub use metrics::{FrontendStats, MigrationProgress, ServerMetrics, StatsSnapshot};
pub use reactor::Reactor;
pub use stats_http::spawn_stats_listener;
