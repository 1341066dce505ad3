//! The batched circular buffer ("array of buffers") design.
//!
//! This is the message-passing design CPHash uses (paper §3.4):
//!
//! > "The implementation of an array of buffers consists of the following: a
//! > data buffer array, a read index, a write index, and a temporary write
//! > index. When the producer wants to add data to the buffer, it first
//! > makes sure that the read index is large enough compared to the
//! > temporary write index so that no unread data will be overwritten. Then
//! > it writes data to buffer and updates the temporary write index. When
//! > the temporary write index is sufficiently larger than the write index,
//! > the producer flushes the buffer by changing the write index to the
//! > temporary write index."
//!
//! and on the consumer side:
//!
//! > "the client threads flush the buffer when the whole cache line is full
//! > and the server threads update the read index after they are done
//! > reading all the operations in a cache line."
//!
//! The implementation below is a single-producer / single-consumer ring of
//! `Copy` messages with exactly those three indices, each padded to its own
//! cache line.  Indices increase monotonically (they are *counts*, not
//! wrapped offsets), which makes the full/empty arithmetic overflow-free for
//! any realistic run length and keeps the invariants easy to state:
//!
//! * `read_index <= write_index <= temp_write_index`
//! * `temp_write_index - read_index <= capacity`
//
// cphash-lint: hot-path

use core::marker::PhantomData;
use core::mem::MaybeUninit;
use std::sync::Arc;

use cphash_sync::atomic::{plain, AtomicBool, AtomicU64, Ordering};
use cphash_sync::ModelUnsafeCell;

use cphash_cacheline::{CacheAligned, CACHE_LINE_SIZE};

use crate::{ChannelStats, Doorbell, QueueFull};

/// Configuration of a ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Number of message slots (rounded up to a power of two).
    pub capacity: usize,
    /// Messages the producer accumulates before publishing the shared write
    /// index.  `None` derives the value from the message size so that one
    /// flush corresponds to one full cache line (the paper's policy).
    pub flush_threshold: Option<usize>,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 4096,
            flush_threshold: None,
        }
    }
}

impl RingConfig {
    /// Config with a specific capacity and the default (one cache line)
    /// flush threshold.
    pub fn with_capacity(capacity: usize) -> Self {
        RingConfig {
            capacity,
            ..Default::default()
        }
    }

    fn resolved_flush_threshold<T>(&self) -> usize {
        match self.flush_threshold {
            Some(n) => n.max(1),
            None => {
                let per_line = CACHE_LINE_SIZE / core::mem::size_of::<T>().max(1);
                per_line.max(1)
            }
        }
    }
}

/// Shared state of one single-producer single-consumer ring.
pub struct RingBuffer<T> {
    buffer: Box<[ModelUnsafeCell<MaybeUninit<T>>]>,
    mask: u64,
    /// Consumer-owned: first message not yet consumed.
    read_index: CacheAligned<AtomicU64>,
    /// Producer-published: first message not yet produced *and visible*.
    write_index: CacheAligned<AtomicU64>,
    /// Producer-private progress (only the producer writes it; stored here
    /// so the structure mirrors the paper's layout and so the consumer-side
    /// diagnostics can report it).  Always a plain std atomic — it is a
    /// diagnostic gauge, never a synchronization point, and keeping it out
    /// of the model halves the tracked-op count per push.
    temp_write_index: CacheAligned<plain::AtomicU64>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
    stats: ChannelStats,
}

// SAFETY: the ring hands out exactly one Producer and one Consumer; slots
// are published with release/acquire ordering on `write_index` before the
// consumer reads them, and reclaimed via `read_index` before the producer
// overwrites them.
unsafe impl<T: Send> Send for RingBuffer<T> {}
unsafe impl<T: Send> Sync for RingBuffer<T> {}

impl<T> RingBuffer<T> {
    /// Messages currently buffered and visible to the consumer.
    pub fn visible_len(&self) -> usize {
        let w = self.write_index.load(Ordering::Acquire);
        let r = self.read_index.load(Ordering::Acquire);
        (w - r) as usize
    }

    /// Capacity in messages.
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Shared statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }
}

/// Create a connected producer/consumer pair over a new ring buffer.
pub fn ring<T: Copy + Send>(config: RingConfig) -> (Producer<T>, Consumer<T>) {
    let capacity = config.capacity.next_power_of_two().max(2);
    let buffer: Vec<ModelUnsafeCell<MaybeUninit<T>>> = (0..capacity)
        .map(|_| ModelUnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(RingBuffer {
        buffer: buffer.into_boxed_slice(),
        mask: capacity as u64 - 1,
        read_index: CacheAligned::new(AtomicU64::new(0)),
        write_index: CacheAligned::new(AtomicU64::new(0)),
        temp_write_index: CacheAligned::new(plain::AtomicU64::new(0)),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
        stats: ChannelStats::new(),
    });
    let flush_threshold = config.resolved_flush_threshold::<T>();
    (
        Producer {
            shared: Arc::clone(&shared),
            temp_write: 0,
            published_write: 0,
            cached_read: 0,
            flush_threshold,
            doorbell: None,
            rung_write: 0,
            _not_sync: PhantomData,
        },
        Consumer {
            shared,
            local_read: 0,
            published_read: 0,
            cached_write: 0,
            read_publish_threshold: flush_threshold,
            _not_sync: PhantomData,
        },
    )
}

/// Producing (client → server) half of a ring.
pub struct Producer<T> {
    shared: Arc<RingBuffer<T>>,
    /// Producer-private count of messages written (the "temporary write
    /// index" of the paper).
    temp_write: u64,
    /// Last value stored to the shared write index.
    published_write: u64,
    /// Cached copy of the consumer's read index, refreshed only when the
    /// ring looks full — avoids touching the shared line on every push.
    cached_read: u64,
    flush_threshold: usize,
    /// The consumer's doorbell, if it may sleep (see [`Doorbell`]).
    doorbell: Option<Arc<Doorbell>>,
    /// `temp_write` at the last explicit flush, i.e. the last time the
    /// doorbell was considered.  Separate from `published_write` because a
    /// full cache line publishes itself inside `try_push` without ringing:
    /// the explicit flush that follows finds nothing left to publish and
    /// must still ring for those messages.
    rung_write: u64,
    _not_sync: PhantomData<core::cell::Cell<()>>,
}

impl<T: Copy + Send> Producer<T> {
    /// Ring `doorbell` from every explicit [`Producer::flush`] that has
    /// queued something since the previous one: for a consumer that goes to
    /// sleep behind it when all its rings stay empty.
    pub fn with_doorbell(mut self, doorbell: Arc<Doorbell>) -> Self {
        self.doorbell = Some(doorbell);
        self
    }

    /// Try to enqueue a message. Automatically publishes the write index
    /// once a full cache line of messages has accumulated.
    ///
    /// Returns the message back inside [`QueueFull`] if the ring has no free
    /// slot — the caller decides whether to flush, spin, or work elsewhere.
    #[inline]
    pub fn try_push(&mut self, message: T) -> Result<(), QueueFull<T>> {
        let capacity = self.shared.mask + 1;
        if self.temp_write - self.cached_read == capacity {
            // Looks full based on our cached view; refresh the real read
            // index (this is the only shared-line read on the push path).
            self.cached_read = self.shared.read_index.load(Ordering::Acquire);
            if self.temp_write - self.cached_read == capacity {
                self.shared.stats.add_full_event();
                return Err(QueueFull { message });
            }
        }
        let slot = (self.temp_write & self.shared.mask) as usize;
        self.shared.buffer[slot].with_mut(|p| {
            // SAFETY: the capacity check above guarantees the consumer has
            // finished with this slot (read_index has moved past it on a
            // previous lap), and only this producer writes slots.
            unsafe { (*p).write(message) };
        });
        self.temp_write += 1;
        self.shared
            .temp_write_index
            // relaxed: diagnostic gauge only; the release store in publish()
            // is what publishes data.
            .store(self.temp_write, plain::Ordering::Relaxed);
        if self.temp_write - self.published_write >= self.flush_threshold as u64 {
            self.publish();
        }
        Ok(())
    }

    /// Enqueue a whole batch with one synchronization round: at most one
    /// refresh of the consumer's read index, one pass of slot writes, and
    /// one release publish of the write index — O(1) atomics per batch
    /// instead of per message.
    ///
    /// Returns how many messages were accepted (a full ring accepts fewer
    /// than `messages.len()`, possibly zero); the batch is published
    /// immediately, partial cache lines included, since batch producers are
    /// at the end of their gathering round by definition.  Publishing is
    /// not ringing: a producer with a doorbell still owes the explicit
    /// [`Producer::flush`].
    pub fn push_batch(&mut self, messages: &[T]) -> usize {
        let capacity = self.shared.mask + 1;
        let mut free = (capacity - (self.temp_write - self.cached_read)) as usize;
        if free < messages.len() {
            self.cached_read = self.shared.read_index.load(Ordering::Acquire);
            free = (capacity - (self.temp_write - self.cached_read)) as usize;
        }
        let n = free.min(messages.len());
        if n == 0 {
            if !messages.is_empty() {
                self.shared.stats.add_full_event();
            }
            return 0;
        }
        for (i, message) in messages[..n].iter().enumerate() {
            let slot = ((self.temp_write + i as u64) & self.shared.mask) as usize;
            self.shared.buffer[slot].with_mut(|p| {
                // SAFETY: the free-slot computation above guarantees the
                // consumer has finished with these `n` slots, and only this
                // producer writes slots.
                unsafe { (*p).write(*message) };
            });
        }
        self.temp_write += n as u64;
        self.shared
            .temp_write_index
            // relaxed: diagnostic gauge only; the release store in publish()
            // is what publishes data.
            .store(self.temp_write, plain::Ordering::Relaxed);
        self.publish();
        n
    }

    /// Push, spinning (and flushing) until space is available.
    ///
    /// Used by tests and by clients that have nothing else to do; the CPHash
    /// client normally reacts to [`QueueFull`] by draining responses first.
    pub fn push_blocking(&mut self, message: T) {
        let mut msg = message;
        loop {
            match self.try_push(msg) {
                Ok(()) => return,
                Err(QueueFull { message }) => {
                    msg = message;
                    self.flush();
                    cphash_sync::spin_hint();
                }
            }
        }
    }

    /// Publish all written messages to the consumer (update the shared
    /// write index) and, if the consumer may sleep, wake it.  The paper's
    /// clients call this at the end of a batch; the ring contract is that a
    /// sender always does, which is what lets the consumer sleep at all.
    ///
    /// Returns whether this flush woke a sleeping consumer — the woken
    /// thread is often queued behind the caller on the caller's own CPU, so
    /// a caller about to spin for the reply should yield once first.
    #[inline]
    pub fn flush(&mut self) -> bool {
        self.publish();
        if self.rung_write == self.temp_write {
            return false;
        }
        self.rung_write = self.temp_write;
        match &self.doorbell {
            Some(doorbell) => doorbell.ring(),
            None => false,
        }
    }

    /// Update the shared write index without ringing: the consumer sees the
    /// messages the next time it looks, and is not woken if it does not
    /// look.  For a sender that wants a busy consumer to start on a batch
    /// early and will [`Producer::flush`] before it stops sending — the
    /// flush's fence stalls on the stores just made, so one per round is
    /// better than two.
    #[inline]
    pub fn publish(&mut self) {
        if self.temp_write != self.published_write {
            self.shared
                .write_index
                .store(self.temp_write, Ordering::Release);
            let newly = self.temp_write - self.published_write;
            self.published_write = self.temp_write;
            self.shared.stats.add_pushed(newly);
            self.shared.stats.add_flush();
        }
    }

    /// Seeded-bug hook for the model-check regression suite: publish the
    /// write index with `Relaxed` instead of `Release`, exactly the
    /// weakened-publish mistake PR 2's reorder race was a cousin of.  The
    /// checker must flag the consumer's subsequent slot read as a data
    /// race; the suite asserts that it does.  Only exists in model builds.
    #[cfg(cphash_model)]
    pub fn flush_weak_for_modelcheck(&mut self) {
        if self.temp_write != self.published_write {
            self.shared
                .write_index
                // relaxed: intentionally wrong — this is the seeded bug.
                .store(self.temp_write, Ordering::Relaxed);
            let newly = self.temp_write - self.published_write;
            self.published_write = self.temp_write;
            self.shared.stats.add_pushed(newly);
            self.shared.stats.add_flush();
        }
    }

    /// Messages written but not yet published.
    pub fn pending_unflushed(&self) -> usize {
        (self.temp_write - self.published_write) as usize
    }

    /// Free slots from the producer's (possibly stale) point of view.
    pub fn free_slots(&mut self) -> usize {
        self.cached_read = self.shared.read_index.load(Ordering::Acquire);
        (self.shared.mask + 1 - (self.temp_write - self.cached_read)) as usize
    }

    /// Whether the consumer half still exists.
    pub fn is_peer_alive(&self) -> bool {
        self.shared.consumer_alive.load(Ordering::Acquire)
    }

    /// Shared ring statistics.
    pub fn stats(&self) -> &ChannelStats {
        self.shared.stats()
    }

    /// Capacity of the underlying ring.
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.producer_alive.store(false, Ordering::Release);
    }
}

/// Consuming (server-side) half of a ring.
pub struct Consumer<T> {
    shared: Arc<RingBuffer<T>>,
    /// Messages consumed (not necessarily published back yet).
    local_read: u64,
    /// Last value stored to the shared read index.
    published_read: u64,
    /// Cached copy of the producer's write index.
    cached_write: u64,
    /// Publish the read index after consuming this many messages (a cache
    /// line worth), or when the ring drains.
    read_publish_threshold: usize,
    _not_sync: PhantomData<core::cell::Cell<()>>,
}

impl<T: Copy + Send> Consumer<T> {
    /// Try to dequeue one message.
    #[inline]
    pub fn try_pop(&mut self) -> Option<T> {
        if self.local_read == self.cached_write {
            self.cached_write = self.shared.write_index.load(Ordering::Acquire);
            if self.local_read == self.cached_write {
                // Nothing available; make consumed slots visible so the
                // producer is never blocked by lazy read-index publication.
                self.publish_read();
                return None;
            }
        }
        let slot = (self.local_read & self.shared.mask) as usize;
        let message = self.shared.buffer[slot].with(|p| {
            // SAFETY: local_read < cached_write <= producer's published
            // write index, so the slot was fully written before the release
            // store we acquired; only this consumer reads it before it is
            // recycled.
            unsafe { (*p).assume_init() }
        });
        self.local_read += 1;
        self.shared.stats.add_popped(1);
        if self.local_read - self.published_read >= self.read_publish_threshold as u64 {
            self.publish_read();
        }
        Some(message)
    }

    /// Drain up to `max` messages into `out`, returning how many were moved.
    ///
    /// This is the server's inner loop, and it costs O(1) atomics per
    /// *batch*: at most one acquire refresh of the producer's write index,
    /// one pass of plain slot reads, and one release publish of the read
    /// index — however many messages move.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0usize;
        while n < max {
            let mut visible = (self.cached_write - self.local_read) as usize;
            if visible == 0 {
                self.cached_write = self.shared.write_index.load(Ordering::Acquire);
                visible = (self.cached_write - self.local_read) as usize;
                if visible == 0 {
                    break;
                }
            }
            let take = visible.min(max - n);
            out.reserve(take);
            for i in 0..take {
                let slot = ((self.local_read + i as u64) & self.shared.mask) as usize;
                out.push(self.shared.buffer[slot].with(|p| {
                    // SAFETY: local_read + i < cached_write <= the
                    // producer's published write index, so each slot was
                    // fully written before the release store we acquired;
                    // only this consumer reads it before it is recycled.
                    unsafe { (*p).assume_init() }
                }));
            }
            self.local_read += take as u64;
            n += take;
        }
        if n > 0 {
            self.shared.stats.add_popped(n as u64);
        }
        // Publish consumed slots (and, when empty, anything a lazy try_pop
        // left unpublished) so the producer is never blocked.
        self.publish_read();
        n
    }

    /// Messages currently visible to this consumer.
    pub fn available(&mut self) -> usize {
        self.cached_write = self.shared.write_index.load(Ordering::Acquire);
        (self.cached_write - self.local_read) as usize
    }

    /// Returns `true` when no published messages are waiting.
    pub fn is_empty(&mut self) -> bool {
        self.available() == 0
    }

    /// Whether the producer half still exists.
    pub fn is_peer_alive(&self) -> bool {
        self.shared.producer_alive.load(Ordering::Acquire)
    }

    /// Shared ring statistics.
    pub fn stats(&self) -> &ChannelStats {
        self.shared.stats()
    }

    #[inline]
    fn publish_read(&mut self) {
        if self.local_read != self.published_read {
            self.shared
                .read_index
                .store(self.local_read, Ordering::Release);
            self.published_read = self.local_read;
            self.shared.stats.add_read_index_update();
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_is_preserved() {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(64));
        for i in 0..50u64 {
            tx.try_push(i).unwrap();
        }
        tx.flush();
        for i in 0..50u64 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn messages_invisible_until_flush_threshold_or_flush() {
        // 8-byte messages flush every 8 messages (one cache line).
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(64));
        for i in 0..7u64 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.pending_unflushed(), 7);
        assert!(rx.is_empty(), "partial line must not be visible yet");
        tx.try_push(7).unwrap(); // 8th message completes the line
        assert_eq!(tx.pending_unflushed(), 0);
        assert_eq!(rx.available(), 8);
        // Explicit flush publishes partial lines.
        tx.try_push(100).unwrap();
        assert_eq!(rx.available(), 8);
        tx.flush();
        assert_eq!(rx.available(), 9);
    }

    #[test]
    fn queue_full_returns_message_and_recovers() {
        let (mut tx, mut rx) = ring::<u32>(RingConfig::with_capacity(4));
        for i in 0..4u32 {
            tx.try_push(i).unwrap();
        }
        tx.flush();
        let err = tx.try_push(99).unwrap_err();
        assert_eq!(err.message, 99);
        assert!(tx.stats().full_events() >= 1);
        assert_eq!(rx.try_pop(), Some(0));
        // After the consumer publishes its read index, space opens up.
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 16);
        assert_eq!(out, vec![1, 2, 3]);
        tx.try_push(99).unwrap();
        tx.flush();
        assert_eq!(rx.try_pop(), Some(99));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(RingConfig::with_capacity(100));
        assert_eq!(tx.capacity(), 128);
    }

    #[test]
    fn peer_liveness_is_tracked() {
        let (tx, rx) = ring::<u8>(RingConfig::default());
        assert!(tx.is_peer_alive());
        assert!(rx.is_peer_alive());
        drop(rx);
        assert!(!tx.is_peer_alive());
        let (tx2, rx2) = ring::<u8>(RingConfig::default());
        drop(tx2);
        assert!(!rx2.is_peer_alive());
    }

    #[test]
    fn pop_batch_drains_in_order() {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(128));
        for i in 0..100u64 {
            tx.try_push(i).unwrap();
        }
        tx.flush();
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 64), 64);
        assert_eq!(rx.pop_batch(&mut out, 64), 36);
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn stats_reflect_batching() {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(1024));
        for i in 0..512u64 {
            tx.push_blocking(i);
        }
        tx.flush();
        let mut out = Vec::new();
        while rx.pop_batch(&mut out, 128) > 0 {}
        assert_eq!(out.len(), 512);
        let stats = tx.stats();
        assert_eq!(stats.messages_pushed(), 512);
        assert_eq!(stats.messages_popped(), 512);
        // 8 messages per 64-byte line → about 64 flushes for 512 messages.
        assert!(stats.flushes() <= 70, "flushes={}", stats.flushes());
        assert!(stats.messages_per_flush() >= 7.0);
        // The consumer also batches its read-index updates.
        assert!(stats.read_index_updates() <= stats.messages_popped());
    }

    #[test]
    fn free_slots_accounts_for_unread_messages() {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(16));
        assert_eq!(tx.free_slots(), 16);
        for i in 0..8u64 {
            tx.try_push(i).unwrap();
        }
        tx.flush();
        assert_eq!(tx.free_slots(), 8);
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 8);
        assert_eq!(tx.free_slots(), 16);
    }

    #[test]
    fn cross_thread_transfer_preserves_every_message() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(1024));
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.push_blocking(i);
            }
            tx.flush();
        });
        let consumer = thread::spawn(move || {
            let mut expected = 0u64;
            let mut sum = 0u64;
            while expected < N {
                if let Some(v) = rx.try_pop() {
                    assert_eq!(v, expected, "messages must arrive in order");
                    sum = sum.wrapping_add(v);
                    expected += 1;
                } else {
                    core::hint::spin_loop();
                }
            }
            sum
        });
        producer.join().unwrap();
        let sum = consumer.join().unwrap();
        assert_eq!(sum, (N - 1) * N / 2);
    }

    #[test]
    fn push_batch_publishes_everything_at_once() {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(64));
        let batch: Vec<u64> = (0..20).collect();
        assert_eq!(tx.push_batch(&batch), 20);
        // Batch pushes publish immediately (no partial-line lag).
        assert_eq!(tx.pending_unflushed(), 0);
        assert_eq!(rx.available(), 20);
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 64), 20);
        assert_eq!(out, batch);
        assert_eq!(tx.push_batch(&[]), 0);
    }

    #[test]
    fn push_batch_accepts_partial_on_a_nearly_full_ring() {
        let (mut tx, mut rx) = ring::<u32>(RingConfig::with_capacity(8));
        assert_eq!(tx.push_batch(&[0, 1, 2, 3, 4, 5]), 6);
        let big: Vec<u32> = (6..20).collect();
        // Only two slots remain.
        assert_eq!(tx.push_batch(&big), 2);
        // A completely full ring accepts nothing and records the event.
        assert_eq!(tx.push_batch(&big[2..]), 0);
        assert!(tx.stats().full_events() >= 1);
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 64);
        assert_eq!(out, (0..8).collect::<Vec<u32>>());
        // Read-index publication reopens the whole ring.
        assert_eq!(tx.push_batch(&big[2..]), 8);
    }

    #[test]
    fn batch_transfer_wraps_the_ring_correctly() {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(16));
        let mut expected = 0u64;
        let mut next = 0u64;
        let mut out = Vec::new();
        // Push/pop in lockstep with odd sizes so batches straddle the
        // wrap-around boundary repeatedly.
        for round in 0..200u64 {
            let batch: Vec<u64> = (0..(round % 13 + 1))
                .map(|_| {
                    let v = next;
                    next += 1;
                    v
                })
                .collect();
            let mut sent = 0;
            while sent < batch.len() {
                sent += tx.push_batch(&batch[sent..]);
                out.clear();
                rx.pop_batch(&mut out, 16);
                for got in &out {
                    assert_eq!(*got, expected, "messages stay ordered across wraps");
                    expected += 1;
                }
            }
        }
        loop {
            out.clear();
            if rx.pop_batch(&mut out, 16) == 0 {
                break;
            }
            for got in &out {
                assert_eq!(*got, expected);
                expected += 1;
            }
        }
        assert_eq!(expected, next, "every message arrived exactly once");
    }

    #[test]
    fn batch_drain_costs_one_read_index_update() {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(1024));
        let batch: Vec<u64> = (0..512).collect();
        assert_eq!(tx.push_batch(&batch), 512);
        let flushes_for_batch = tx.stats().flushes();
        assert_eq!(flushes_for_batch, 1, "one publish per producer batch");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 512), 512);
        assert_eq!(
            rx.stats().read_index_updates(),
            1,
            "one read-index publish per consumer batch"
        );
    }

    #[test]
    fn large_messages_still_round_trip() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        struct Big {
            a: [u64; 6],
        }
        let (mut tx, mut rx) = ring::<Big>(RingConfig::with_capacity(8));
        let msg = Big {
            a: [1, 2, 3, 4, 5, 6],
        };
        tx.try_push(msg).unwrap();
        tx.flush();
        assert_eq!(rx.try_pop(), Some(msg));
    }
}
