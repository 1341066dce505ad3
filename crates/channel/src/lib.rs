//! Shared-memory message passing for CPHash.
//!
//! CPHash client threads send `Lookup`/`Insert` requests to server threads
//! and receive responses back "using message passing (via shared memory)"
//! (§3).  The messaging layer is where most of the performance headroom
//! lives, so the paper describes it in detail (§3.4):
//!
//! * **Two designs** (Figure 3): a *single-value* channel — one slot per
//!   client/server pair, client writes and waits, server overwrites with the
//!   result — and an *array of buffers* (a circular buffer) with a read
//!   index, a write index and a *temporary* write index.
//! * **Batching**: with the circular buffer the client "can just queue the
//!   requests to the servers; thus, even if the server is busy, the client
//!   can continue working and schedule operations for other servers".
//! * **Packing**: the producer only publishes (updates the shared write
//!   index) when a whole cache line of messages has accumulated, and the
//!   consumer only updates the shared read index after draining a full
//!   line, so "the server can receive several messages using only a single
//!   cache miss".
//!
//! This crate implements both designs for arbitrary `Copy` message types:
//!
//! * [`SingleSlotChannel`] — the single-value design, used as the ablation
//!   baseline (`ablate_channel` bench) and for low-rate control messages.
//! * [`RingBuffer`] / [`Producer`] / [`Consumer`] — the batched circular
//!   buffer, the design CPHash actually uses.
//! * [`duplex`] — a client↔server pair of rings (requests one way,
//!   responses the other), the unit CPHash instantiates per
//!   (client, server) pair.
//! * [`Doorbell`] — the flag a consumer sleeps behind once all its rings
//!   have been empty for a while, rung by its producers' explicit flushes.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod doorbell;
pub mod duplex;
pub mod ring;
pub mod single_slot;
pub mod stats;

pub use doorbell::Doorbell;
pub use duplex::{duplex, DuplexClient, DuplexServer};
pub use ring::{ring, Consumer, Producer, RingBuffer, RingConfig};
pub use single_slot::SingleSlotChannel;
pub use stats::ChannelStats;

/// Error returned when a bounded queue cannot accept another message.
///
/// The paper's clients react by flushing and working on other servers (or,
/// at very large batch sizes, by throttling — "larger batch sizes overflow
/// queues between client and server threads", §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull<T> {
    /// The message that could not be enqueued, returned to the caller.
    pub message: T,
}

impl<T> core::fmt::Display for QueueFull<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("message queue is full")
    }
}

impl<T: core::fmt::Debug> std::error::Error for QueueFull<T> {}

/// Error returned when the other end of a channel has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl core::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("channel peer disconnected")
    }
}

impl std::error::Error for Disconnected {}
