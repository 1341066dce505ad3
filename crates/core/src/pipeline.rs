//! The server's data-operation pipeline: the staged batch + prefetch
//! executor.
//!
//! The paper's headline mechanism is that a server thread drains a *batch*
//! of requests from its per-client rings and software-prefetches the hash
//! bucket for every request before touching any of them, so the batch's
//! DRAM misses overlap instead of serializing (§3.4, §6.2).
//! [`StagedExecutor`] is that loop: *prepare* (hash) every operation of the
//! batch and prefetch each one's bucket line, then — the lines arriving —
//! read each one and prefetch the element behind every matching tag, then
//! execute them all; the server thread publishes the replies as one ring
//! batch.  The first pass is pure address arithmetic: the hint targets the
//! bucket's own cache line, which holds the key tags and element refs of
//! the common case.  The second is a group prefetch over the probe's next
//! dependent miss (element header, where a short value lives too): it waits
//! for at most the first line, and every later line's miss overlaps with
//! it.
//!
//! The responses are independent of the batch depth — a depth of 1 is
//! per-operation processing, and `tests/pipeline_equivalence.rs` holds
//! every other depth to it under random operation mixes — because the
//! staging passes decide nothing: every decision (migration diverts
//! included) still happens at execute time, in request order.

use cphash_hashcore::{
    BucketRef, ElementId, InlineValue, InsertReservation, Partition, StoredValue,
    INLINE_VALUE_BYTES,
};
use cphash_perfmon::trace::{trace_enabled, TraceStage};
use cphash_perfmon::{BatchCounters, StageSpan};
use std::collections::VecDeque;

use crate::migration::{divert, MigrationState};
use crate::protocol::Response;
use crate::router::EpochRouter;

/// One decoded client data operation, ready for staged execution (the
/// table-operation subset of the wire opcodes; control messages never enter
/// the pipeline).
#[derive(Debug, Clone, Copy)]
pub(crate) enum DataOp {
    /// Key lookup.
    Lookup { key: u64 },
    /// Reservation for a value of `size` bytes the client will copy in.
    Insert { key: u64, size: u64 },
    /// Insert of the value the request carried.
    InsertInline { key: u64, value: InlineValue },
    /// Key delete.
    Delete { key: u64 },
}

impl DataOp {
    pub(crate) fn key(&self) -> u64 {
        match *self {
            DataOp::Lookup { key }
            | DataOp::Insert { key, .. }
            | DataOp::InsertInline { key, .. }
            | DataOp::Delete { key } => key,
        }
    }
}

/// The reservations one client lane made that still wait for their
/// `Ready`, oldest first, for the lane's own lookups to read (see
/// [`OpCtx::execute`]); a `Ready` names the front.  The room, allocated up
/// front, is the client's per-lane limit on operations in flight, which
/// bounds its reservations awaiting `Ready` (`Lane::send_waiting`).
/// A reservation past it goes untracked and its lookups miss, as §3.2's do:
/// no peer can make the server hold more.
pub(crate) struct LaneReservations(VecDeque<ElementId>);

impl LaneReservations {
    pub(crate) fn for_ring(ring_capacity: usize) -> Self {
        let room = crate::client::outstanding_per_lane(ring_capacity);
        LaneReservations(VecDeque::with_capacity(room))
    }

    fn track(&mut self, id: ElementId) {
        if self.0.len() < self.0.capacity() {
            self.0.push_back(id);
        }
    }

    /// The lane's `Ready` for `id` arrived: the front's, unless hand-written.
    pub(crate) fn ready(&mut self, id: ElementId) {
        if let Some(pos) = self.0.iter().position(|&held| held == id) {
            self.0.remove(pos);
        }
    }
}

/// Everything an executor needs to run one batch of data operations:
/// disjoint borrows of the owning server thread's state.
pub(crate) struct OpCtx<'a> {
    pub partition: &'a mut Partition,
    pub router: &'a EpochRouter,
    /// The server's partition index.
    pub index: usize,
    pub migration: &'a MigrationState,
    /// The reservations of the lane the batch came in on.
    pub reservations: &'a mut LaneReservations,
}

impl OpCtx<'_> {
    /// Execute one prepared data operation, producing its response.
    fn execute(&mut self, op: &DataOp, prep: BucketRef) -> Response {
        // A reservation for a value short enough to ride in its request is
        // not something the client sends; refusing it here, before it costs
        // the partition anything, keeps one representation for short values.
        if matches!(*op, DataOp::Insert { size, .. } if size <= INLINE_VALUE_BYTES as u64) {
            return Response::MISS;
        }
        let snap = self.router.snapshot();
        if let Some(dest) = divert(
            &snap,
            self.router.chunks(),
            self.migration,
            self.index,
            prep.key(),
        ) {
            return Response::retry(dest);
        }
        match *op {
            // A NOT-READY element is visible to the lane that reserved it:
            // its client copies the value in when it applies the
            // reservation's reply, which comes before this one on the lane.
            DataOp::Lookup { .. } => match self
                .partition
                .lookup_prepared_or_reserved(prep, |id| self.reservations.0.contains(&id))
            {
                Some(hit) => match hit.value {
                    StoredValue::Block(handle) => {
                        Response::with_value(handle.addr(), hit.id, handle.len())
                    }
                    StoredValue::Inline(value) => {
                        // The reply carries the bytes, so the pin ends here
                        // and the client owes no `Decref`.
                        self.partition.decref(hit.id);
                        Response::with_inline(value)
                    }
                },
                None => Response::MISS,
            },
            DataOp::Insert { size, .. } => {
                match self.partition.insert_prepared(prep, size as usize) {
                    Ok(InsertReservation {
                        id,
                        value: Some(handle),
                    }) => {
                        self.reservations.track(id);
                        Response::with_value(handle.addr(), id, size as usize)
                    }
                    // No room — a reservation without a block is one of a
                    // size refused above.
                    _ => Response::MISS,
                }
            }
            DataOp::InsertInline { value, .. } => {
                match self.partition.insert_inline_prepared(prep, value) {
                    Ok(()) => Response::FOUND,
                    Err(_) => Response::MISS,
                }
            }
            DataOp::Delete { .. } => {
                if self.partition.delete_prepared(prep) {
                    Response::FOUND
                } else {
                    Response::MISS
                }
            }
        }
    }
}

/// The staged pipeline: prepare (hash) the whole batch and prefetch every
/// operation's bucket line, prefetch the elements those lines point at, then
/// execute the batch in order.
///
/// By the time operation *i* executes, the prefetches for operations
/// *i+1..n* are in flight — the memory-level parallelism a one-at-a-time
/// loop never exposes because each miss blocks the next hash computation.
pub(crate) struct StagedExecutor {
    /// Prepared bucket references, reused across batches.
    refs: Vec<BucketRef>,
}

impl StagedExecutor {
    pub(crate) fn new() -> Self {
        StagedExecutor {
            refs: Vec::with_capacity(256),
        }
    }

    /// Execute `ops` against the context, pushing exactly one response per
    /// operation onto `replies`, in order.
    pub(crate) fn execute(
        &mut self,
        ctx: &mut OpCtx<'_>,
        ops: &[DataOp],
        replies: &mut Vec<Response>,
        counters: &BatchCounters,
    ) {
        // Stage 1: pure arithmetic + cache hints, no table memory touched.
        // Stage 2, the element pass: read each line (the batch's first may
        // still be on its way; the rest arrive behind it) and hint the
        // element slots its matching tags point at.
        self.refs.clear();
        if trace_enabled() {
            // Traced path: prepare and the two prefetch passes run apart so
            // each stage gets its own cycle-stamped span.  Responses stay
            // byte-identical (staging decides nothing); only the prefetch
            // overlap differs slightly, and only while tracing.
            let span = StageSpan::begin(TraceStage::Prepare);
            for op in ops {
                self.refs.push(ctx.partition.prepare(op.key()));
            }
            span.finish(ops.len() as u32);
            let span = StageSpan::begin(TraceStage::Prefetch);
            for prep in self.refs.iter() {
                ctx.partition.prefetch_prepared(prep);
            }
            for prep in self.refs.iter() {
                ctx.partition.prefetch_element(prep);
            }
            span.finish(ops.len() as u32);
        } else {
            for op in ops {
                let prep = ctx.partition.prepare(op.key());
                ctx.partition.prefetch_prepared(&prep);
                self.refs.push(prep);
            }
            for prep in self.refs.iter() {
                ctx.partition.prefetch_element(prep);
            }
        }
        // Stage 3: execute in request order; early operations overlap with
        // the still-in-flight prefetches of later ones.
        let span = StageSpan::begin(TraceStage::Execute);
        for (op, prep) in ops.iter().zip(self.refs.iter()) {
            let response = ctx.execute(op, *prep);
            replies.push(response);
        }
        span.finish(ops.len() as u32);
        counters.note_batch(ops.len() as u64, ops.len() as u64);
    }
}
