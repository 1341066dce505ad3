//! The coordinator driving grow/shrink transitions chunk by chunk.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cphash::control::ControlHandle;
use cphash::protocol::{MigrationBatch, MigrationStep, Request};
use cphash::router::TransitionError;
use cphash::TableError;
use cphash_hashcore::partition_for_key;

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
    /// Non-empty batches shipped between servers.
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

/// Default ceiling on the payload bytes of one `MigrateIn` delivery.
///
/// A receiving server absorbs a delivery in one go between serving
/// requests, so the ceiling bounds the worst-case single-server stall a
/// migration step can cause — the per-chunk analogue of what the pacer does
/// across chunks.
pub const DEFAULT_MAX_BATCH_BYTES: usize = 256 * 1024;

/// Drives live grow/shrink transitions over a table's control plane.
///
/// Owns the table's unique [`ControlHandle`]; construct with
/// [`cphash::CpHash::take_control`].  One resize runs at a time (the router
/// enforces this even across handles).
pub struct RepartitionCoordinator {
    control: ControlHandle,
    /// Split `MigrateIn` deliveries above this many payload bytes.
    max_batch_bytes: usize,
}

impl RepartitionCoordinator {
    /// Wrap a table's control handle.
    pub fn new(control: ControlHandle) -> Self {
        RepartitionCoordinator {
            control,
            max_batch_bytes: DEFAULT_MAX_BATCH_BYTES,
        }
    }

    /// Override the per-delivery byte ceiling (a chunk whose extracted
    /// entries exceed it is handed to its receiver in several batches, each
    /// individually acknowledged).
    pub fn with_max_batch_bytes(mut self, max_batch_bytes: usize) -> Self {
        assert!(max_batch_bytes > 0, "batch ceiling must be positive");
        self.max_batch_bytes = max_batch_bytes;
        self
    }

    /// The current per-delivery byte ceiling.
    pub fn max_batch_bytes(&self) -> usize {
        self.max_batch_bytes
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

        // 2. Every source extracts its leaving keys and ships the batch
        //    back by address. Sources work concurrently; a source blocked on
        //    in-flight inserts simply answers late.
        let extracted =
            self.control
                .broadcast(sources, |step| Request::MigrateOut { step }, step)?;

        // 3. Regroup by new owner.
        let mut per_dest: HashMap<usize, Vec<(u64, Vec<u8>)>> = HashMap::new();
        for (_, response) in extracted {
            if response.has_value() {
                // SAFETY: the source leaked exactly this batch for us via
                // `Response::with_batch`; ownership transfers here.
                let batch = unsafe { MigrationBatch::from_addr(response.addr) };
                for (key, value) in batch.entries {
                    per_dest
                        .entry(partition_for_key(key, step.new_partitions))
                        .or_default()
                        .push((key, value));
                }
            }
        }

        // 4. Deliver to every prepared receiver — including empty batches
        //    (address sentinel 1), which clear the receiver's incoming state
        //    promptly instead of leaving it to expire at the watermark.
        //    Deliveries above the byte ceiling are split so one huge chunk
        //    cannot stall its receiving server; each split is acknowledged
        //    before the next is sent, and only the final one completes the
        //    chunk at the receiver.
        for dest in receivers {
            let entries = per_dest.remove(&dest).unwrap_or_default();
            *keys_moved += entries.len();
            if entries.is_empty() {
                self.control.round_trip(
                    dest,
                    &Request::MigrateIn {
                        step,
                        batch_addr: 1,
                    },
                )?;
                continue;
            }
            let mut splits = split_entries(entries, self.max_batch_bytes)
                .into_iter()
                .peekable();
            while let Some(split) = splits.next() {
                *batches += 1;
                let last = splits.peek().is_none();
                let batch = if last {
                    MigrationBatch::new(split)
                } else {
                    MigrationBatch::partial(split)
                };
                let batch_addr = batch.into_addr();
                self.control
                    .round_trip(dest, &Request::MigrateIn { step, batch_addr })?;
            }
        }
        Ok(())
    }
}

/// Cut `entries` into consecutive runs whose payload (key + value bytes)
/// stays at or below `max_bytes`; an entry larger than the ceiling travels
/// alone.  Never returns an empty split.
fn split_entries(entries: Vec<(u64, Vec<u8>)>, max_bytes: usize) -> Vec<Vec<(u64, Vec<u8>)>> {
    let mut splits = Vec::new();
    let mut current: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut current_bytes = 0usize;
    for entry in entries {
        let cost = 8 + entry.1.len();
        if !current.is_empty() && current_bytes + cost > max_bytes {
            splits.push(core::mem::take(&mut current));
            current_bytes = 0;
        }
        current_bytes += cost;
        current.push(entry);
    }
    if !current.is_empty() {
        splits.push(current);
    }
    splits
}

impl core::fmt::Debug for RepartitionCoordinator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RepartitionCoordinator")
            .field("active", &self.active_partitions())
            .field("max", &self.max_partitions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: u64, len: usize) -> (u64, Vec<u8>) {
        (key, vec![0u8; len])
    }

    #[test]
    fn small_batches_are_not_split() {
        let splits = split_entries(vec![entry(1, 10), entry(2, 10)], 1024);
        assert_eq!(splits.len(), 1);
        assert_eq!(splits[0].len(), 2);
    }

    #[test]
    fn oversized_batches_split_on_the_byte_ceiling() {
        // 4 entries of 100 payload bytes (108 with key) against a 256-byte
        // ceiling: two per split.
        let splits = split_entries(
            vec![entry(1, 100), entry(2, 100), entry(3, 100), entry(4, 100)],
            256,
        );
        assert_eq!(splits.len(), 2);
        assert_eq!(splits[0].len(), 2);
        assert_eq!(splits[1].len(), 2);
        // Order is preserved across splits.
        let keys: Vec<u64> = splits.into_iter().flatten().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    #[test]
    fn an_entry_larger_than_the_ceiling_travels_alone() {
        let splits = split_entries(vec![entry(1, 10), entry(2, 5000), entry(3, 10)], 256);
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[1].len(), 1);
        assert_eq!(splits[1][0].0, 2);
    }

    #[test]
    fn no_split_is_empty() {
        for ceiling in [1, 8, 64, 1024] {
            let splits = split_entries(
                (0..32).map(|k| entry(k, (k as usize) * 7 % 200)).collect(),
                ceiling,
            );
            assert!(splits.iter().all(|s| !s.is_empty()), "ceiling {ceiling}");
            assert_eq!(splits.iter().map(Vec::len).sum::<usize>(), 32);
        }
    }
}
