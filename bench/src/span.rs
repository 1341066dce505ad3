//! The harness's own spans: one around every call it makes into a layer.
//!
//! A span is (name, start cycle, end cycle, parent, batch id, ops covered).
//! Spans nest on the recording thread; a span's *self time* is its duration
//! minus the part its child spans cover.  Totals are accumulated for every
//! span; the raw list is kept in memory up to a cap and written as JSON
//! lines when the run ends.  Spans are per *batch* of operations, not per
//! operation: two timestamp reads per op would cost as much as the op.

use cphash_perfmon::cycles_now;

/// Raw spans kept for the trace file (totals always cover every span).
pub const RAW_SPAN_CAP: usize = 100_000;

macro_rules! span_names {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Every span the harness records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum SpanName { $($variant),+ }

        impl SpanName {
            /// All names, in declaration order.
            pub const ALL: &'static [SpanName] = &[$(SpanName::$variant),+];

            /// Dotted `layer.call` spelling used in the trace file.
            pub fn as_str(self) -> &'static str {
                match self { $(SpanName::$variant => $text),+ }
            }
        }
    };
}

span_names! {
    Setup => "bench.setup",
    Prefill => "bench.prefill",
    Batch => "bench.batch",
    Gen => "bench.gen",
    Verify => "bench.verify",
    Wait => "bench.wait",
    CoreSubmit => "core.submit",
    CorePoll => "core.poll",
    RemoteSubmit => "remote.submit",
    RemotePoll => "remote.poll",
    HashcorePrepare => "hashcore.prepare",
    HashcorePrefetch => "hashcore.prefetch",
    HashcoreExecute => "hashcore.execute",
    AllocCycle => "alloc.alloc_free",
    ChannelPushPop => "channel.push_pop",
    ChannelRoundtrip => "channel.roundtrip",
    KvprotoEncodeOp => "kvproto.encode_op",
    KvprotoDecodeOp => "kvproto.decode_op",
    KvprotoEncodeReply => "kvproto.encode_reply",
    KvprotoDecodeReply => "kvproto.decode_reply",
    LockhashOps => "lockhash.ops",
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: SpanName,
    /// Cycle stamp at entry.
    pub start: u64,
    /// Cycle stamp at exit.
    pub end: u64,
    /// Id of the enclosing span (`None` at top level).
    pub parent: Option<u32>,
    /// This span's id (ids count every span, kept or not).
    pub id: u32,
    /// Generator batch (loop iteration) the span belongs to.
    pub batch: u64,
    /// Operations the call covered.
    pub ops: u32,
    /// `end - start` minus the time covered by child spans.
    pub self_cycles: u64,
}

/// Accumulated cost of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Operations covered.
    pub ops: u64,
    /// Sum of durations.
    pub cycles: u64,
    /// Sum of self times.
    pub self_cycles: u64,
}

struct Open {
    name: SpanName,
    start: u64,
    id: u32,
    batch: u64,
    child_cycles: u64,
}

/// Single-threaded span recorder (disabled ⇒ every call is one branch).
pub struct SpanRecorder {
    enabled: bool,
    open: Vec<Open>,
    raw: Vec<Span>,
    totals: Vec<SpanTotals>,
    next_id: u32,
}

impl SpanRecorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> SpanRecorder {
        SpanRecorder {
            enabled,
            open: Vec::with_capacity(8),
            raw: Vec::with_capacity(if enabled { RAW_SPAN_CAP } else { 0 }),
            totals: vec![SpanTotals::default(); SpanName::ALL.len()],
            next_id: 0,
        }
    }

    /// Switch recording on or off (open spans are kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Open a span now.
    #[inline]
    pub fn begin(&mut self, name: SpanName, batch: u64) {
        if self.enabled {
            self.begin_at(name, batch, cycles_now());
        }
    }

    /// Close the innermost open span now, attributing `ops` operations.
    #[inline]
    pub fn end(&mut self, ops: u32) {
        if self.enabled {
            self.end_at(ops, cycles_now());
        }
    }

    /// [`SpanRecorder::begin`] with an explicit clock (tests, replays).
    pub fn begin_at(&mut self, name: SpanName, batch: u64, cycle: u64) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.open.push(Open {
            name,
            start: cycle,
            id,
            batch,
            child_cycles: 0,
        });
    }

    /// [`SpanRecorder::end`] with an explicit clock.
    pub fn end_at(&mut self, ops: u32, cycle: u64) {
        let Some(open) = self.open.pop() else {
            return;
        };
        let duration = cycle.saturating_sub(open.start);
        let self_cycles = duration.saturating_sub(open.child_cycles);
        let parent = self.open.last_mut().map(|p| {
            p.child_cycles += duration;
            p.id
        });
        let t = &mut self.totals[open.name as usize];
        t.count += 1;
        t.ops += ops as u64;
        t.cycles += duration;
        t.self_cycles += self_cycles;
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(Span {
                name: open.name,
                start: open.start,
                end: cycle,
                parent,
                id: open.id,
                batch: open.batch,
                ops,
                self_cycles,
            });
        }
    }

    /// Drop the innermost open span unrecorded (a call that turned out to
    /// do nothing, such as a poll that found no completion); its time
    /// stays in the enclosing span's self time.
    #[inline]
    pub fn cancel(&mut self) {
        if self.enabled {
            self.open.pop();
        }
    }

    /// Record an already finished top-level span (an idle streak, known
    /// only once it is over).
    pub fn closed(&mut self, name: SpanName, batch: u64, start: u64, end: u64) {
        if !self.enabled {
            return;
        }
        let outer = std::mem::take(&mut self.open);
        self.begin_at(name, batch, start);
        self.end_at(0, end);
        self.open = outer;
    }

    /// Totals for one name.
    pub fn totals(&self, name: SpanName) -> SpanTotals {
        self.totals[name as usize]
    }

    /// Cycles per covered operation for one name (`None` if it never ran).
    pub fn cycles_per_op(&self, name: SpanName) -> Option<f64> {
        let t = self.totals(name);
        (t.ops > 0).then(|| t.cycles as f64 / t.ops as f64)
    }

    /// Move another recorder's totals and raw spans into this one (rungs
    /// record into their own recorder; ids are kept distinct by offset).
    pub fn absorb(&mut self, other: SpanRecorder) {
        let offset = self.next_id;
        for (mine, theirs) in self.totals.iter_mut().zip(&other.totals) {
            mine.count += theirs.count;
            mine.ops += theirs.ops;
            mine.cycles += theirs.cycles;
            mine.self_cycles += theirs.self_cycles;
        }
        for mut span in other.raw {
            if self.raw.len() >= RAW_SPAN_CAP {
                break;
            }
            span.id = span.id.wrapping_add(offset);
            span.parent = span.parent.map(|p| p.wrapping_add(offset));
            self.raw.push(span);
        }
        self.next_id = self.next_id.wrapping_add(other.next_id);
    }

    /// The raw spans kept (at most [`RAW_SPAN_CAP`]).
    pub fn raw(&self) -> &[Span] {
        &self.raw
    }

    /// Spans recorded in total, kept or not.
    pub fn recorded(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    /// Render the raw spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.raw.len() * 96);
        for s in &self.raw {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"batch\":{},\"ops\":{},\"self\":{}}}\n",
                s.id, s.name.as_str(), s.start, s.end, parent, s.batch, s.ops, s.self_cycles
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = SpanRecorder::new(true);
        r.begin_at(SpanName::Batch, 7, 100);
        r.begin_at(SpanName::CoreSubmit, 7, 110);
        r.end_at(64, 150); // 40 cycles
        r.begin_at(SpanName::CorePoll, 7, 160);
        r.begin_at(SpanName::Verify, 7, 170);
        r.end_at(10, 180); // 10 cycles, grandchild
        r.end_at(10, 200); // 40 cycles, 30 self
        r.end_at(64, 300); // 200 cycles, 120 self
        let batch = r.totals(SpanName::Batch);
        assert_eq!((batch.cycles, batch.self_cycles), (200, 120));
        let poll = r.totals(SpanName::CorePoll);
        assert_eq!((poll.cycles, poll.self_cycles), (40, 30));
        assert_eq!(r.totals(SpanName::Verify).self_cycles, 10);
        assert_eq!(r.cycles_per_op(SpanName::CoreSubmit), Some(40.0 / 64.0));
        assert_eq!(r.cycles_per_op(SpanName::Gen), None);

        // Parent links and batch ids survive into the raw list.
        let raw = r.raw();
        assert_eq!(raw.len(), 4);
        let batch_id = raw.iter().find(|s| s.name == SpanName::Batch).unwrap().id;
        let poll_span = raw.iter().find(|s| s.name == SpanName::CorePoll).unwrap();
        assert_eq!(poll_span.parent, Some(batch_id));
        let verify = raw.iter().find(|s| s.name == SpanName::Verify).unwrap();
        assert_eq!(verify.parent, Some(poll_span.id));
        assert!(raw.iter().all(|s| s.batch == 7));
        assert_eq!(r.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn cancelled_and_closed_spans() {
        let mut r = SpanRecorder::new(true);
        r.begin_at(SpanName::Batch, 1, 0);
        r.begin_at(SpanName::CorePoll, 1, 10);
        r.cancel(); // an empty poll: no span, time stays with the batch
        r.closed(SpanName::Wait, 1, 100, 160); // sibling of the open batch
        r.end_at(4, 50);
        assert_eq!(r.totals(SpanName::CorePoll).count, 0);
        let batch = r.totals(SpanName::Batch);
        assert_eq!((batch.cycles, batch.self_cycles), (50, 50));
        assert_eq!(r.totals(SpanName::Wait).cycles, 60);
        let wait = r.raw().iter().find(|s| s.name == SpanName::Wait).unwrap();
        assert_eq!(wait.parent, None);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = SpanRecorder::new(false);
        r.begin(SpanName::Batch, 0);
        r.end(1);
        assert_eq!(r.recorded(), 0);
        assert!(r.raw().is_empty());
    }

    #[test]
    fn absorb_keeps_ids_distinct() {
        let mut a = SpanRecorder::new(true);
        a.begin_at(SpanName::Batch, 0, 0);
        a.end_at(1, 10);
        let mut b = SpanRecorder::new(true);
        b.begin_at(SpanName::Gen, 0, 0);
        b.begin_at(SpanName::Verify, 0, 1);
        b.end_at(1, 2);
        b.end_at(1, 5);
        a.absorb(b);
        let mut ids: Vec<u32> = a.raw().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        assert_eq!(a.totals(SpanName::Gen).self_cycles, 4);
    }
}
