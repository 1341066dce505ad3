//! The coordinator driving grow/shrink transitions chunk by chunk.

use std::time::{Duration, Instant};

use cphash::control::ControlHandle;
use cphash::protocol::MigrationStep;
use cphash::router::TransitionError;
use cphash::TableError;

use crate::pacer::MigrationPacer;

/// Why a resize could not run (the table itself is unharmed: either nothing
/// started, or — for [`MigrateError::ServerGone`] — the table is already
/// shutting down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// The router refused the transition (already in progress / bad count).
    Transition(TransitionError),
    /// A server thread exited mid-transition (table shutdown).
    ServerGone,
}

impl From<TransitionError> for MigrateError {
    fn from(e: TransitionError) -> Self {
        MigrateError::Transition(e)
    }
}

impl From<TableError> for MigrateError {
    fn from(_: TableError) -> Self {
        MigrateError::ServerGone
    }
}

impl core::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MigrateError::Transition(e) => write!(f, "{e}"),
            MigrateError::ServerGone => f.write_str("a server thread exited mid-transition"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// What one completed transition did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Active partitions before the transition.
    pub from_partitions: usize,
    /// Active partitions after the transition.
    pub to_partitions: usize,
    /// Migration chunks processed.
    pub chunks: usize,
    /// Keys that physically moved between partitions.
    pub keys_moved: usize,
    /// Non-empty batches delivered: one per (source, receiver) pair with
    /// keys to move in a chunk, more where a pair's records pass the byte
    /// ceiling (`cphash::protocol::MAX_BATCH_BYTES`).
    pub batches: usize,
    /// Wall-clock duration of the whole transition.
    pub duration: Duration,
    /// Chunk hand-offs this transition delayed to honour the pacing budget.
    pub paced_waits: u64,
    /// Total time this transition spent waiting on the pacer.
    pub paced_wait: Duration,
}

impl core::fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "repartitioned {} -> {} partitions: {} keys in {} batches over {} chunks in {:.1?}",
            self.from_partitions,
            self.to_partitions,
            self.keys_moved,
            self.batches,
            self.chunks,
            self.duration
        )?;
        if self.paced_waits > 0 {
            write!(
                f,
                " ({} paced waits totalling {:.1?})",
                self.paced_waits, self.paced_wait
            )?;
        }
        Ok(())
    }
}

/// Drives live grow/shrink transitions over a table's control plane.
///
/// Owns the table's unique [`ControlHandle`]; construct with
/// [`cphash::CpHash::take_control`].  One resize runs at a time (the router
/// enforces this even across handles).
pub struct RepartitionCoordinator {
    control: ControlHandle,
}

impl RepartitionCoordinator {
    /// Wrap a table's control handle.
    pub fn new(control: ControlHandle) -> Self {
        RepartitionCoordinator { control }
    }

    /// The current active partition count.
    pub fn active_partitions(&self) -> usize {
        self.control.router().active_partitions()
    }

    /// Largest partition count this table supports (`max_partitions`).
    pub fn max_partitions(&self) -> usize {
        self.control.router().max_partitions()
    }

    /// Re-partition the live table to `new_partitions` server threads,
    /// migrating keys chunk by chunk while clients keep operating, with
    /// hand-offs fired back-to-back (no pacing).
    pub fn resize_to(&mut self, new_partitions: usize) -> Result<MigrationReport, MigrateError> {
        self.resize_to_paced(new_partitions, &mut MigrationPacer::unpaced())
    }

    /// Like [`RepartitionCoordinator::resize_to`], but before every chunk
    /// hand-off the coordinator waits for `pacer` — bounding how much
    /// migration work competes with foreground traffic per unit time.
    pub fn resize_to_paced(
        &mut self,
        new_partitions: usize,
        pacer: &mut MigrationPacer,
    ) -> Result<MigrationReport, MigrateError> {
        let router = std::sync::Arc::clone(self.control.router());
        let (start, pacer_before) = (Instant::now(), pacer.stats());
        let mut report = MigrationReport {
            from_partitions: new_partitions,
            to_partitions: new_partitions,
            ..MigrationReport::default()
        };
        if new_partitions != router.active_partitions() {
            let old = router.begin_transition(new_partitions)?.new_partitions;
            (report.from_partitions, report.chunks) = (old, router.chunks());
            for chunk in 0..report.chunks {
                pacer.before_chunk();
                let step = MigrationStep {
                    chunk,
                    old_partitions: old,
                    new_partitions,
                };
                let moved = self.control.move_chunk(step).inspect_err(|_| {
                    // A server died mid-chunk: the table is shutting down.
                    // The chunk's keys were either not extracted yet or are
                    // being absorbed by a dead server's ring (freed with it);
                    // routing state no longer matters to anyone, so pin it
                    // to the old count for any stragglers.
                    router.force_complete(old);
                })?;
                report.keys_moved += moved.keys;
                report.batches += moved.batches;
                router.advance_watermark(chunk + 1);
            }
        }
        let pacer_after = pacer.stats();
        report.paced_waits = pacer_after.paced_waits - pacer_before.paced_waits;
        report.paced_wait = pacer_after
            .total_wait
            .saturating_sub(pacer_before.total_wait);
        report.duration = start.elapsed();
        Ok(report)
    }
}

impl core::fmt::Debug for RepartitionCoordinator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RepartitionCoordinator")
            .field("active", &self.active_partitions())
            .field("max", &self.max_partitions())
            .finish()
    }
}
