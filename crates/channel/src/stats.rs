//! Message-passing statistics.
//!
//! The paper's §6.2 accounting ("CPHASH incurs about 1.5 cache misses, on
//! average, to send and receive two messages per operation") is driven by
//! how often the shared indices and buffer lines actually change hands.
//! Each ring buffer keeps these counters so the harness can report measured
//! flushes-per-message next to the analytic packing numbers.

use cphash_sync::atomic::plain::{AtomicU64, Ordering};

/// Shared counters for one ring buffer.
#[derive(Debug, Default)]
pub struct ChannelStats {
    messages_pushed: AtomicU64,
    messages_popped: AtomicU64,
    flushes: AtomicU64,
    read_index_updates: AtomicU64,
    full_events: AtomicU64,
}

impl ChannelStats {
    /// New zeroed counters.
    pub const fn new() -> Self {
        ChannelStats {
            messages_pushed: AtomicU64::new(0),
            messages_popped: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            read_index_updates: AtomicU64::new(0),
            full_events: AtomicU64::new(0),
        }
    }

    pub(crate) fn add_pushed(&self, n: u64) {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.messages_pushed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_popped(&self, n: u64) {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.messages_popped.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_flush(&self) {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_read_index_update(&self) {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.read_index_updates.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_full_event(&self) {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.full_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Messages written by the producer.
    pub fn messages_pushed(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.messages_pushed.load(Ordering::Relaxed)
    }

    /// Messages consumed by the consumer.
    pub fn messages_popped(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.messages_popped.load(Ordering::Relaxed)
    }

    /// Times the producer published the shared write index.
    pub fn flushes(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.flushes.load(Ordering::Relaxed)
    }

    /// Times the consumer published the shared read index.
    pub fn read_index_updates(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.read_index_updates.load(Ordering::Relaxed)
    }

    /// Times the producer found the queue full.
    pub fn full_events(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.full_events.load(Ordering::Relaxed)
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

    /// Reset all counters to zero.
    pub fn reset(&self) {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.messages_pushed.store(0, Ordering::Relaxed);
        // relaxed: monotonic stat counter, read only by diagnostics
        self.messages_popped.store(0, Ordering::Relaxed);
        // relaxed: monotonic stat counter, read only by diagnostics
        self.flushes.store(0, Ordering::Relaxed);
        // relaxed: monotonic stat counter, read only by diagnostics
        self.read_index_updates.store(0, Ordering::Relaxed);
        // relaxed: monotonic stat counter, read only by diagnostics
        self.full_events.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = ChannelStats::new();
        s.add_pushed(8);
        s.add_popped(8);
        s.add_flush();
        s.add_read_index_update();
        s.add_full_event();
        assert_eq!(s.messages_pushed(), 8);
        assert_eq!(s.messages_popped(), 8);
        assert_eq!(s.flushes(), 1);
        assert_eq!(s.read_index_updates(), 1);
        assert_eq!(s.full_events(), 1);
        assert!((s.messages_per_flush() - 8.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.messages_pushed(), 0);
        assert_eq!(s.messages_per_flush(), 0.0);
    }
}
