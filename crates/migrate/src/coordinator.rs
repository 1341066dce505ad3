//! The coordinator driving grow/shrink transitions chunk by chunk.

use std::time::{Duration, Instant};

use cphash::control::ControlHandle;
use cphash::protocol::{MigrationExport, MigrationStep, Request};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let chunks = router.chunks();
        let start = Instant::now();
        let pacer_before = pacer.stats();
        if new_partitions == router.active_partitions() {
            return Ok(MigrationReport {
                from_partitions: new_partitions,
                to_partitions: new_partitions,
                chunks: 0,
                keys_moved: 0,
                batches: 0,
                duration: start.elapsed(),
                paced_waits: 0,
                paced_wait: Duration::ZERO,
            });
        }
        let before = router.begin_transition(new_partitions)?;
        let old = before.new_partitions;
        let mut keys_moved = 0usize;
        let mut batches = 0usize;

        for chunk in 0..chunks {
            pacer.before_chunk();
            let step = MigrationStep {
                chunk,
                old_partitions: old,
                new_partitions,
            };
            let outcome = self.migrate_chunk(step, &mut keys_moved, &mut batches);
            if let Err(e) = outcome {
                // A server died mid-chunk: the table is shutting down. The
                // chunk's keys were either not extracted yet or are being
                // absorbed by a dead server's ring (freed with it); routing
                // state no longer matters to anyone, so pin it to the old
                // count for any stragglers.
                router.force_complete(old);
                return Err(e);
            }
            router.advance_watermark(chunk + 1);
        }

        let pacer_after = pacer.stats();
        Ok(MigrationReport {
            from_partitions: old,
            to_partitions: new_partitions,
            chunks,
            keys_moved,
            batches,
            duration: start.elapsed(),
            paced_waits: pacer_after.paced_waits - pacer_before.paced_waits,
            paced_wait: pacer_after
                .total_wait
                .saturating_sub(pacer_before.total_wait),
        })
    }

    /// Run the prepare → extract → deliver protocol for one chunk.
    fn migrate_chunk(
        &mut self,
        step: MigrationStep,
        keys_moved: &mut usize,
        batches: &mut usize,
    ) -> Result<(), MigrateError> {
        let receivers = 0..step.new_partitions;
        let sources = 0..step.old_partitions;

        // 1. Every receiver learns the chunk is in flight (and acknowledges
        //    *before* any key leaves a source, so no request can observe the
        //    gap unannounced).
        self.control.broadcast(
            receivers.clone(),
            |step| Request::MigratePrepare { step },
            step,
        )?;

        // 2. Every source extracts its leaving keys, already cut into
        //    batches per receiver, and ships them back by address.  Sources
        //    work concurrently; a source blocked on in-flight inserts simply
        //    answers late.
        let extracted =
            self.control
                .broadcast(sources, |step| Request::MigrateOut { step }, step)?;
        let mut exports: Vec<Box<MigrationExport>> = extracted
            .into_iter()
            .filter(|(_, response)| response.has_value())
            // SAFETY: the source leaked exactly this export for us via
            // `Response::with_batch`; ownership transfers here.
            .map(|(_, response)| unsafe { MigrationExport::from_addr(response.addr) })
            .collect();

        // 3. Deliver to every prepared receiver the batches each source cut
        //    for it, one acknowledged round trip each, unread.  Only the
        //    final one completes the chunk at the receiver.  A receiver with
        //    nothing to absorb still gets an empty delivery (address
        //    sentinel 1), which clears its incoming state promptly instead
        //    of leaving it to expire at the watermark.
        for dest in receivers {
            let mut deliveries = exports.iter_mut().flat_map(|e| e.take(dest)).peekable();
            if deliveries.peek().is_none() {
                let empty = Request::MigrateIn {
                    step,
                    batch_addr: 1,
                };
                self.control.round_trip(dest, &empty)?;
            }
            while let Some(mut batch) = deliveries.next() {
                batch.last = deliveries.peek().is_none();
                *keys_moved += batch.len();
                *batches += 1;
                let batch_addr = batch.into_addr();
                self.control
                    .round_trip(dest, &Request::MigrateIn { step, batch_addr })?;
            }
        }
        Ok(())
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
