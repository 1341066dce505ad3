//! Pacing for live re-partitioning: bound the foreground cost of a
//! transition by spacing chunk hand-offs out in time.
//!
//! PR 1's coordinator fired chunk hand-offs back-to-back, so the throughput
//! dip a resize causes was bounded only by the table size.  The
//! [`MigrationPacer`] turns the hand-off rate into an operator-chosen
//! budget: a token bucket allowing at most `chunks_per_sec` hand-offs per
//! second ([`MigrationPacing::Rate`]).
//!
//! The pacer is owned by whoever drives the coordinator (CPSERVER's admin
//! thread, the benchmark harness) and threaded through
//! [`crate::RepartitionCoordinator::resize_to_paced`].

use std::time::{Duration, Instant};

/// How the repartition coordinator paces chunk hand-offs during a live
/// resize.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MigrationPacing {
    /// Hand chunks off back-to-back (PR 1 behaviour): fastest transition,
    /// deepest foreground-throughput dip.
    #[default]
    Unpaced,
    /// Token bucket: at most `chunks_per_sec` chunk hand-offs per second,
    /// spreading the migration cost over time at an operator-chosen rate.
    Rate {
        /// Chunk hand-offs per second (must be positive).
        chunks_per_sec: f64,
    },
}

impl MigrationPacing {
    /// Validate the pacing parameters, panicking on nonsense.
    pub fn validate(&self) {
        if let MigrationPacing::Rate { chunks_per_sec } = *self {
            assert!(
                chunks_per_sec > 0.0 && chunks_per_sec.is_finite(),
                "chunks_per_sec must be positive and finite"
            );
        }
    }
}

/// Token-bucket burst: how many hand-offs may fire without waiting after an
/// idle period.  1.0 keeps the spacing strict.
const BURST_TOKENS: f64 = 1.0;

/// What a pacer has done so far (cumulative; the coordinator reports
/// per-resize deltas in its [`crate::MigrationReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PacerStats {
    /// Chunk hand-offs that had to wait for the token bucket.
    pub paced_waits: u64,
    /// Total time spent waiting on the bucket.
    pub total_wait: Duration,
}

/// Paces chunk hand-offs (see the module docs).
#[derive(Debug)]
pub struct MigrationPacer {
    /// Hand-offs per second; `f64::INFINITY` when unpaced.
    rate: f64,
    tokens: f64,
    last_refill: Option<Instant>,
    stats: PacerStats,
}

impl MigrationPacer {
    /// A pacer that never waits (PR 1 behaviour).
    pub fn unpaced() -> Self {
        Self::from_config(MigrationPacing::Unpaced)
    }

    /// Build a pacer from a pacing configuration.
    pub fn from_config(pacing: MigrationPacing) -> Self {
        pacing.validate();
        let rate = match pacing {
            MigrationPacing::Unpaced => f64::INFINITY,
            MigrationPacing::Rate { chunks_per_sec } => chunks_per_sec,
        };
        MigrationPacer {
            rate,
            tokens: BURST_TOKENS,
            last_refill: None,
            stats: PacerStats::default(),
        }
    }

    /// The hand-off rate in chunks/sec (`f64::INFINITY` when unpaced).
    pub fn current_rate(&self) -> f64 {
        self.rate
    }

    /// Cumulative pacer statistics.
    pub fn stats(&self) -> PacerStats {
        self.stats
    }

    /// Block until the next chunk hand-off is allowed to start.  Called by
    /// the coordinator before every chunk; a no-op when unpaced.
    pub fn before_chunk(&mut self) {
        if self.rate.is_infinite() {
            return;
        }
        let now = Instant::now();
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return;
        }
        let deficit = 1.0 - self.tokens;
        let wait = Duration::from_secs_f64(deficit / self.rate);
        self.stats.paced_waits += 1;
        self.stats.total_wait += wait;
        std::thread::sleep(wait);
        self.refill(Instant::now());
        self.tokens = (self.tokens - 1.0).max(0.0);
    }

    fn refill(&mut self, now: Instant) {
        let last = self.last_refill.replace(now).unwrap_or(now);
        let elapsed = now.saturating_duration_since(last).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate).min(BURST_TOKENS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpaced_never_waits() {
        let mut pacer = MigrationPacer::unpaced();
        let start = Instant::now();
        for _ in 0..1_000 {
            pacer.before_chunk();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(pacer.stats().paced_waits, 0);
    }

    #[test]
    fn rate_mode_spaces_hand_offs() {
        let mut pacer = MigrationPacer::from_config(MigrationPacing::Rate {
            chunks_per_sec: 1_000.0,
        });
        let start = Instant::now();
        for _ in 0..6 {
            pacer.before_chunk();
        }
        // First hand-off is free (burst of one); the next five wait ~1 ms
        // each.
        assert!(
            start.elapsed() >= Duration::from_millis(4),
            "6 hand-offs at 1000/s finished in {:?}",
            start.elapsed()
        );
        assert!(pacer.stats().paced_waits >= 4);
        assert!(pacer.stats().total_wait >= Duration::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn invalid_config_is_rejected_at_construction() {
        MigrationPacer::from_config(MigrationPacing::Rate {
            chunks_per_sec: -1.0,
        });
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_rate_pacing_rejected() {
        MigrationPacing::Rate {
            chunks_per_sec: 0.0,
        }
        .validate();
    }
}
