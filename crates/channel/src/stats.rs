//! Message-passing statistics.
//!
//! The paper's §6.2 accounting ("CPHASH incurs about 1.5 cache misses, on
//! average, to send and receive two messages per operation") is driven by
//! how often the shared indices and buffer lines actually change hands.
//! Each ring buffer keeps these counters so the harness can report measured
//! flushes-per-message next to the analytic packing numbers.
//!
//! The counters must not add line transfers of their own: each side's
//! counters sit on a cache line of their own, and only that side writes
//! them, with a single-writer add rather than a locked read-modify-write.
//
// cphash-lint: hot-path

use cphash_cacheline::CacheAligned;
use cphash_sync::atomic::plain::{single_writer_add, AtomicU64, Ordering};

/// The producer's counters: written by the producer only.
#[derive(Debug, Default)]
struct ProducerCounters {
    messages_pushed: AtomicU64,
    flushes: AtomicU64,
    full_events: AtomicU64,
}

/// The consumer's counters: written by the consumer only.
#[derive(Debug, Default)]
struct ConsumerCounters {
    messages_popped: AtomicU64,
    read_index_updates: AtomicU64,
}

/// Counters for one ring buffer, one cache line per writing side.
#[derive(Debug, Default)]
pub struct ChannelStats {
    producer: CacheAligned<ProducerCounters>,
    consumer: CacheAligned<ConsumerCounters>,
}

impl ChannelStats {
    /// New zeroed counters.
    pub const fn new() -> Self {
        ChannelStats {
            producer: CacheAligned::new(ProducerCounters {
                messages_pushed: AtomicU64::new(0),
                flushes: AtomicU64::new(0),
                full_events: AtomicU64::new(0),
            }),
            consumer: CacheAligned::new(ConsumerCounters {
                messages_popped: AtomicU64::new(0),
                read_index_updates: AtomicU64::new(0),
            }),
        }
    }

    /// Producer side: one publish of the write index that made `n` more
    /// messages visible.
    #[inline]
    pub(crate) fn add_flush(&self, n: u64) {
        single_writer_add(&self.producer.messages_pushed, n);
        single_writer_add(&self.producer.flushes, 1);
    }

    /// Producer side: a push found the queue full.
    #[inline]
    pub(crate) fn add_full_event(&self) {
        single_writer_add(&self.producer.full_events, 1);
    }

    /// Consumer side: `n` messages consumed.
    #[inline]
    pub(crate) fn add_popped(&self, n: u64) {
        single_writer_add(&self.consumer.messages_popped, n);
    }

    /// Consumer side: one publish of the read index.
    #[inline]
    pub(crate) fn add_read_index_update(&self) {
        single_writer_add(&self.consumer.read_index_updates, 1);
    }

    /// Messages the producer has published.
    pub fn messages_pushed(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.producer.messages_pushed.load(Ordering::Relaxed)
    }

    /// Messages consumed by the consumer.
    pub fn messages_popped(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.consumer.messages_popped.load(Ordering::Relaxed)
    }

    /// Times the producer published the shared write index.
    pub fn flushes(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.producer.flushes.load(Ordering::Relaxed)
    }

    /// Times the consumer published the shared read index.
    pub fn read_index_updates(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.consumer.read_index_updates.load(Ordering::Relaxed)
    }

    /// Times the producer found the queue full.
    pub fn full_events(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.producer.full_events.load(Ordering::Relaxed)
    }

    /// Average messages delivered per producer flush — the measured batching
    /// factor (≈ 8 for fully-packed 8-byte messages).
    pub fn messages_per_flush(&self) -> f64 {
        let flushes = self.flushes();
        if flushes == 0 {
            0.0
        } else {
            self.messages_pushed() as f64 / flushes as f64
        }
    }

    /// Addresses of the producer's and the consumer's counter blocks, for
    /// the ring's layout test.
    #[cfg(test)]
    pub(crate) fn line_addresses(&self) -> [usize; 2] {
        [
            &*self.producer as *const ProducerCounters as usize,
            &*self.consumer as *const ConsumerCounters as usize,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ChannelStats::new();
        assert_eq!(s.messages_per_flush(), 0.0);
        s.add_flush(8);
        s.add_popped(8);
        s.add_read_index_update();
        s.add_full_event();
        assert_eq!(s.messages_pushed(), 8);
        assert_eq!(s.messages_popped(), 8);
        assert_eq!(s.flushes(), 1);
        assert_eq!(s.read_index_updates(), 1);
        assert_eq!(s.full_events(), 1);
        assert!((s.messages_per_flush() - 8.0).abs() < 1e-12);
    }
}
