//! Per-key order across a routing change: [`WriteOrder`], the one place a
//! client orders the operations on a key itself.
//!
//! Operations on one key travel one lane in submission order, and a lane is
//! FIFO both ways, so while routing stands still they execute in submission
//! order: a get sees the writes submitted before it and none after — behind
//! a two-phase insert too, since the server answers a lookup with its own
//! lane's reservation (`pipeline.rs`), which the client filled when it
//! applied the reservation's reply, earlier on the lane.  Only a routing
//! change breaks the order: a server bounces a write dispatched under an
//! older mapping (or landing on a chunk in mid-hand-off), and its
//! resubmission could run after a later operation on the key that went
//! straight to the new owner.  So the client orders operations on a key only
//! across a routing change: while the router sits, stable, at the epoch
//! every in-flight write was dispatched under, the map is empty and
//! untouched.  At the edge — the first operation submitted under a new epoch
//! or mid-transition, or the first write bounced — the writes already in
//! flight are *seeded* into the map as a per-key in-flight count, read off
//! the lanes' `pending` queues (a count, because two same-key writes may
//! already share a lane).  Seeding rather than draining the pre-edge writes:
//! a drain would hold every operation behind the slowest write for as long
//! as the transition bounces it, where the seed holds back only later
//! operations on a key with a write in flight.  Operations on a key that
//! already share a lane at the edge stay in order: within a transition a
//! server that bounces one write to a key bounces every later operation on
//! it (`migration::divert`), so all go out again in order.  A key leaves the
//! map when its last tracked write finishes.  The map cannot rest on the
//! server's order alone: the client resubmits a bounced write after
//! whatever the server let through behind it.
//!
//! [`WriteOrder`] holds no lane and no router: each event comes with the
//! routing snapshot it happens under, and what it lets go, the caller
//! dispatches.

use std::collections::VecDeque;

use crate::client::{Pending, U64Map};
use crate::router::RouterSnapshot;

/// Ordering state of one tracked key.
#[derive(Clone, Default)]
struct KeyOrder {
    /// Writes to the key dispatched and not yet finished (more than one
    /// only for writes that were already in flight together at the edge).
    in_flight: u32,
    /// Operations waiting for `in_flight` to reach zero, in submission
    /// (token) order: in-flight operations a server bounced while an earlier
    /// write was still out, and later submissions.
    held: VecDeque<Pending>,
}

/// A client's per-key ordering across routing changes (see the module docs).
#[derive(Clone, Default)]
pub(crate) struct WriteOrder {
    /// The tracked keys: a key is here while a write to it that was in
    /// flight at the edge, or dispatched in transition, is unfinished.
    keys: U64Map<KeyOrder>,
    /// The router epoch every untracked in-flight write was dispatched
    /// under, with the router stable; `None` while every in-flight write is
    /// in `keys` (the router was last seen in transition, or a write was
    /// bounced since).
    stable_epoch: Option<u8>,
    /// Writes held back at least once (each counts once).
    pub(crate) deferred: u64,
    chunks: usize,
    /// The pump round's bounces, with their retry destinations, and the
    /// writes it finished while a key was tracked, for [`Self::settle`].
    bounced: Vec<(usize, Pending)>,
    finished: Vec<u64>,
    /// What the events let go, oldest first, each with the lane the caller
    /// is to dispatch it on.
    pub(crate) released: Vec<(usize, Pending)>,
}

impl WriteOrder {
    /// The order of a client with nothing in flight yet, on a router of
    /// `chunks` migration chunks.
    pub(crate) fn new(chunks: usize) -> Self {
        WriteOrder {
            chunks,
            ..WriteOrder::default()
        }
    }

    /// A submission under `snap`: its lane, or `None` while it is held — a
    /// write behind an earlier write to its key, a lookup behind the writes
    /// submitted before it.  `in_flight` is read only at an edge: the
    /// operations on the lanes' `pending` queues, whose writes it seeds.
    #[inline]
    pub(crate) fn submit<'a>(
        &mut self,
        snap: &RouterSnapshot,
        pending: Pending,
        in_flight: impl Iterator<Item = &'a Pending>,
    ) -> Option<(usize, Pending)> {
        let stable = !snap.in_transition();
        if !stable || self.stable_epoch != Some(snap.epoch) {
            // The edge, if untracked writes are in flight: they were
            // dispatched under an epoch the router has left, so may bounce.
            if self.stable_epoch.is_some() {
                self.seed(snap, in_flight, &[]);
            }
            self.stable_epoch = stable.then_some(snap.epoch);
        }
        let (key, write) = (pending.key, pending.write_key().is_some());
        // Stable, a key with nothing tracked has nothing in flight that can
        // bounce, and its operation goes out untracked.  A tracked key has
        // a write in flight, so only a write can find it idle.
        if (write && !stable) || self.keys.contains_key(&key) {
            let order = self.keys.entry(key).or_default();
            if order.in_flight > 0 || !order.held.is_empty() {
                order.held.push_back(pending);
                self.deferred += u64::from(write);
                return None;
            }
            order.in_flight = 1;
        }
        Some((snap.route(key, self.chunks), pending))
    }

    /// A server bounced `pending` to partition `dest`.
    pub(crate) fn bounced(&mut self, dest: usize, pending: Pending) {
        self.bounced.push((dest, pending));
    }

    /// A write to `key` completed; only a tracked key needs to hear of it.
    #[inline]
    pub(crate) fn finished(&mut self, key: u64) {
        if !self.keys.is_empty() {
            self.finished.push(key);
        }
    }

    /// Whether the pump round left [`Self::settle`] nothing to do.
    pub(crate) fn is_settled(&self) -> bool {
        self.bounced.is_empty() && self.finished.is_empty()
    }

    /// The pump round is over: resubmit or hold what it bounced, then let
    /// the writes it finished release their keys' next operations.  A
    /// bounce is a routing edge too when one of the bounced is a write and
    /// untracked writes may be in flight: seed them, with `in_flight` what
    /// is still on the lanes' `pending` queues.  The round's finished writes
    /// are off the count then already.  Returns how many bounced.
    pub(crate) fn settle<'a>(
        &mut self,
        snap: &RouterSnapshot,
        in_flight: impl Iterator<Item = &'a Pending>,
    ) -> usize {
        let mut bounced = std::mem::take(&mut self.bounced);
        let mut finished = std::mem::take(&mut self.finished);
        if self.stable_epoch.is_some() && bounced.iter().any(|(_, p)| p.write_key().is_some()) {
            self.seed(snap, in_flight, &bounced);
            self.stable_epoch = None;
            finished.clear();
        }
        let count = bounced.len();
        for (dest, pending) in bounced.drain(..) {
            self.bounce(snap, dest, pending);
        }
        for key in finished.drain(..) {
            if let Some(order) = self.keys.get_mut(&key) {
                order.in_flight = order.in_flight.saturating_sub(1);
                self.release_if_idle(snap, key);
            }
        }
        (self.bounced, self.finished) = (bounced, finished);
        count
    }

    /// Seed at a routing edge: every write now in flight — `in_flight`, on
    /// the lanes' `pending` queues, or among `bounced`, just taken off them —
    /// counts against its key, so later writes to the key wait for it.  Keys
    /// whose tracked writes have all finished release their next held write
    /// or leave the map.
    fn seed<'a>(
        &mut self,
        snap: &RouterSnapshot,
        in_flight: impl Iterator<Item = &'a Pending>,
        bounced: &[(usize, Pending)],
    ) {
        self.keys.values_mut().for_each(|order| order.in_flight = 0);
        let bounced = bounced.iter().map(|(_, pending)| pending.write_key());
        for key in in_flight.map(Pending::write_key).chain(bounced).flatten() {
            self.keys.entry(key).or_default().in_flight += 1;
        }
        self.keys.retain(|&key, order| {
            order.in_flight > 0 || order.release(snap.route(key, self.chunks), &mut self.released)
        });
    }

    /// Resubmit `pending`, bounced to partition `dest`, unless its key is
    /// tracked and an earlier write to it is still out or held, else hold it
    /// among the key's operations by submission order: behind the older ones
    /// (an operation released from the queue may bounce again while bounced
    /// ones younger than it still wait), ahead of the later ones.
    fn bounce(&mut self, snap: &RouterSnapshot, dest: usize, pending: Pending) {
        let (key, write) = (pending.key, pending.write_key().is_some());
        let Some(order) = self.keys.get_mut(&key) else {
            return self.released.push((dest, pending));
        };
        // Only writes count in `in_flight`.
        order.in_flight = order.in_flight.saturating_sub(u32::from(write));
        let at = order
            .held
            .partition_point(|held| held.token < pending.token);
        if order.in_flight == 0 && at == 0 {
            order.in_flight = u32::from(write);
            return self.released.push((dest, pending));
        }
        order.held.insert(at, pending);
        self.release_if_idle(snap, key);
    }

    /// Once no write to `key` is in flight, release its next held operations
    /// to its owner under `snap`, or drop the key when none is held.
    fn release_if_idle(&mut self, snap: &RouterSnapshot, key: u64) {
        let dest = snap.route(key, self.chunks);
        if let Some(order) = self.keys.get_mut(&key) {
            if order.in_flight == 0 && !order.release(dest, &mut self.released) {
                self.keys.remove(&key);
            }
        }
    }
}

impl KeyOrder {
    /// Release the lookups at the front of the held queue and then the next
    /// held write, to lane `dest`; `false` when no write was held.
    fn release(&mut self, dest: usize, released: &mut Vec<(usize, Pending)>) -> bool {
        while let Some(pending) = self.held.pop_front() {
            let write = pending.write_key().is_some();
            released.push((dest, pending));
            if write {
                self.in_flight = 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use cphash_hashcore::partition_for_key;

    use super::*;
    use crate::client::{Op, ValueBytes};

    impl WriteOrder {
        /// The map's allocation (the client's stable-path test reads it).
        pub(crate) fn map_capacity(&self) -> usize {
            self.keys.capacity()
        }
    }

    /// One migration chunk: a transition moves every key at once.
    const CHUNKS: usize = 1;

    /// The router and the bytes of the moving key, in the order a 1 → 2
    /// resize takes them through.
    #[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
    enum Phase {
        /// Stable at epoch 0: one partition owns every key.
        Stable0,
        /// In transition, nothing moved yet: every key routes to server 0.
        Moving,
        /// Still in transition, the chunk handed off: server 0 bounces the
        /// moving key, whose bytes are at server 1.
        HandedOff,
        /// Stable at epoch 1: two partitions.
        Stable1,
    }

    impl Phase {
        fn snapshot(self) -> RouterSnapshot {
            let (old, new, watermark, epoch) = match self {
                Phase::Stable0 => (1, 1, CHUNKS, 0),
                Phase::Moving | Phase::HandedOff => (1, 2, 0, 1),
                Phase::Stable1 => (2, 2, CHUNKS, 1),
            };
            RouterSnapshot {
                old_partitions: old,
                new_partitions: new,
                watermark,
                epoch,
            }
        }

        /// The server that holds `key`'s bytes.  A server bounces what it
        /// does not hold to the one that does, and once the moving key has
        /// left server 0 it never comes back, so a server that bounced an
        /// operation on a key bounces every later one (`divert` does).
        fn owner(self, key: u64) -> usize {
            if self >= Phase::HandedOff {
                partition_for_key(key, 2)
            } else {
                0
            }
        }
    }

    /// Two keys: the first moves to server 1 in the resize, the second
    /// stays on server 0.
    fn keys() -> [u64; 2] {
        let moves = |key: &u64| partition_for_key(*key, 2) == 1;
        let moving = (0..).find(moves).expect("a key that moves");
        let staying = (0..).find(|k| !moves(k)).expect("a key that stays");
        [moving, staying]
    }

    /// A defect the harness can inject into the client's side of the
    /// protocol, each of which the search must catch.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Bug {
        None,
        /// The edge seed is fed without the writes on the lanes' `pending`.
        SeedSkipsPending,
        /// A finished write is reported to the order twice.
        FinishTwice,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        Insert,
        Delete,
        Lookup,
    }

    /// A step of the schedule.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// The client submits its next operation.
        Submit,
        /// The router (or the moving key's bytes) goes to the next phase.
        Router,
        /// Server `i` runs the head of its lane, or bounces it.
        Serve(usize),
        /// The client reads every reply on both lanes, in lane order.
        Pump,
    }

    /// One lane: what the client dispatched and has no reply to, oldest
    /// first; the first `replies.len()` of them the server has answered,
    /// `Some(dest)` for a bounce.
    #[derive(Clone, Default)]
    struct Lane {
        pending: VecDeque<Pending>,
        replies: VecDeque<Option<usize>>,
    }

    /// Everything the schedule can change.
    #[derive(Clone)]
    struct World {
        phase: Phase,
        order: WriteOrder,
        lanes: [Lane; 2],
        submitted: usize,
        /// Per key, the write (by submit index) the store last applied.
        applied: [Option<usize>; 2],
        /// Completions per operation.
        completed: Vec<u8>,
    }

    /// The client's operations, by submit index: kind and key index.
    type Ops = [(Kind, usize)];

    impl World {
        fn new(ops: &Ops) -> World {
            World {
                phase: Phase::Stable0,
                order: WriteOrder::new(CHUNKS),
                lanes: Default::default(),
                submitted: 0,
                applied: [None; 2],
                completed: vec![0; ops.len()],
            }
        }

        fn enabled(&self, ops: &Ops) -> Vec<Step> {
            let mut steps = Vec::new();
            if self.submitted < ops.len() {
                steps.push(Step::Submit);
            }
            if self.phase != Phase::Stable1 {
                steps.push(Step::Router);
            }
            for (i, lane) in self.lanes.iter().enumerate() {
                if lane.replies.len() < lane.pending.len() {
                    steps.push(Step::Serve(i));
                }
            }
            if self.lanes.iter().any(|lane| !lane.replies.is_empty()) {
                steps.push(Step::Pump);
            }
            steps
        }

        fn dispatch_released(&mut self) {
            for (dest, pending) in self.order.released.drain(..) {
                self.lanes[dest.min(1)].pending.push_back(pending);
            }
        }

        /// Take `step`; `Err` names the invariant it broke.
        fn step(&mut self, step: Step, ops: &Ops, keys: [u64; 2], bug: Bug) -> Result<(), String> {
            let snap = self.phase.snapshot();
            match step {
                Step::Submit => {
                    let index = self.submitted;
                    self.submitted += 1;
                    let (kind, key) = ops[index];
                    let op = match kind {
                        Kind::Insert => Op::Insert(ValueBytes::from_slice(&[index as u8])),
                        Kind::Delete => Op::Delete,
                        Kind::Lookup => Op::Lookup,
                    };
                    let pending = Pending {
                        token: index as u64,
                        key: keys[key],
                        op,
                    };
                    let lanes = &self.lanes;
                    let in_flight = lanes.iter().flat_map(|lane| &lane.pending);
                    let in_flight = in_flight.take(if bug == Bug::SeedSkipsPending {
                        0
                    } else {
                        usize::MAX
                    });
                    let now = self.order.submit(&snap, pending, in_flight);
                    self.dispatch_released();
                    if let Some((dest, pending)) = now {
                        self.lanes[dest.min(1)].pending.push_back(pending);
                    }
                }
                Step::Router => {
                    self.phase = match self.phase {
                        Phase::Stable0 => Phase::Moving,
                        Phase::Moving => Phase::HandedOff,
                        _ => Phase::Stable1,
                    };
                }
                Step::Serve(server) => {
                    let lane = &mut self.lanes[server];
                    let pending = &lane.pending[lane.replies.len()];
                    let owner = self.phase.owner(pending.key);
                    if owner != server {
                        lane.replies.push_back(Some(owner));
                        return Ok(());
                    }
                    lane.replies.push_back(None);
                    let index = pending.token as usize;
                    let key = keys
                        .iter()
                        .position(|&k| k == pending.key)
                        .expect("a modelled key");
                    let applied = self.applied[key];
                    if pending.write_key().is_some() {
                        if applied.is_some_and(|last| last > index) {
                            return Err(format!("write {index} applied after write {applied:?}"));
                        }
                        self.applied[key] = Some(index);
                    } else {
                        // The last write to the key submitted before the
                        // lookup, or a later one, is what it must read.
                        let before = (0..index)
                            .rev()
                            .find(|&i| ops[i].1 == key && ops[i].0 != Kind::Lookup);
                        if applied < before {
                            return Err(format!(
                                "lookup {index} read write {applied:?}, not {before:?}"
                            ));
                        }
                    }
                }
                Step::Pump => {
                    for lane in &mut self.lanes {
                        while let Some(reply) = lane.replies.pop_front() {
                            let pending = lane
                                .pending
                                .pop_front()
                                .expect("a reply answers a pending operation");
                            if let Some(dest) = reply {
                                self.order.bounced(dest, pending);
                                continue;
                            }
                            let token = pending.token as usize;
                            self.completed[token] += 1;
                            if self.completed[token] > 1 {
                                return Err(format!("operation {token} completed twice"));
                            }
                            if let Some(key) = pending.write_key() {
                                self.order.finished(key);
                                if bug == Bug::FinishTwice {
                                    self.order.finished(key);
                                }
                            }
                        }
                    }
                    if !self.order.is_settled() {
                        let lanes = &self.lanes;
                        let in_flight = lanes.iter().flat_map(|lane| &lane.pending);
                        let in_flight = in_flight.take(if bug == Bug::SeedSkipsPending {
                            0
                        } else {
                            usize::MAX
                        });
                        self.order.settle(&snap, in_flight);
                        self.dispatch_released();
                    }
                }
            }
            if self.phase == Phase::Stable0
                && (!self.order.keys.is_empty() || self.order.deferred > 0)
            {
                return Err("an operation was held while the router stood still".into());
            }
            Ok(())
        }

        /// At quiescence: every operation completed exactly once and the
        /// order forgot every key.
        fn check_quiescent(&self) -> Result<(), String> {
            if let Some(op) = self.completed.iter().position(|&n| n != 1) {
                return Err(format!(
                    "quiescent with operation {op} completed {} times",
                    self.completed[op]
                ));
            }
            if !self.order.keys.is_empty() {
                return Err("quiescent with keys still tracked".into());
            }
            Ok(())
        }

        /// The state the rest of the search depends on.
        fn digest(&self) -> Vec<u64> {
            let mut digest = vec![self.phase as u64, self.submitted as u64];
            digest.extend(self.applied.iter().map(|a| a.map_or(0, |i| i as u64 + 1)));
            digest.extend(self.completed.iter().map(|&n| u64::from(n)));
            for lane in &self.lanes {
                digest.push(u64::MAX);
                digest.extend(lane.pending.iter().map(|p| p.token));
                digest.push(u64::MAX);
                digest.extend(lane.replies.iter().map(|r| r.map_or(0, |d| d as u64 + 1)));
            }
            let order = &self.order;
            digest.push(order.stable_epoch.map_or(0, |e| u64::from(e) + 1));
            let mut keys: Vec<_> = order.keys.iter().collect();
            keys.sort_by_key(|(key, _)| **key);
            for (key, state) in keys {
                digest.extend([u64::MAX, *key, u64::from(state.in_flight)]);
                digest.extend(state.held.iter().map(|p| p.token));
            }
            digest
        }
    }

    /// Depth-first over every schedule of `ops`, pruned by `visited`; the
    /// first violation comes back with the schedule that led to it.
    fn search(
        world: &World,
        ops: &Ops,
        keys: [u64; 2],
        bug: Bug,
        visited: &mut HashSet<Vec<u64>>,
        schedule: &mut Vec<Step>,
    ) -> Result<(), String> {
        let steps = world.enabled(ops);
        if steps.is_empty() {
            return world.check_quiescent();
        }
        for step in steps {
            let mut next = world.clone();
            schedule.push(step);
            next.step(step, ops, keys, bug)?;
            if visited.insert(next.digest()) {
                search(&next, ops, keys, bug, visited, schedule)?;
            }
            schedule.pop();
        }
        Ok(())
    }

    /// Every sequence of one to three operations, each an insert, delete
    /// or lookup of one of the two keys.
    fn op_sequences() -> Vec<Vec<(Kind, usize)>> {
        let ops: Vec<(Kind, usize)> = [Kind::Insert, Kind::Delete, Kind::Lookup]
            .into_iter()
            .flat_map(|kind| [(kind, 0), (kind, 1)])
            .collect();
        let mut sequences: Vec<Vec<(Kind, usize)>> = vec![Vec::new()];
        let mut all = Vec::new();
        for _ in 0..3 {
            sequences = sequences
                .iter()
                .flat_map(|seq| ops.iter().map(move |&op| [seq.clone(), vec![op]].concat()))
                .collect();
            all.extend(sequences.iter().cloned());
        }
        all
    }

    /// Explore every schedule of every sequence with `bug` injected: the
    /// states visited, or the first violation with its operations and
    /// schedule.
    fn explore(bug: Bug) -> Result<usize, String> {
        let keys = keys();
        let mut states = 0;
        for ops in op_sequences() {
            let mut visited = HashSet::new();
            let mut schedule = Vec::new();
            search(
                &World::new(&ops),
                &ops,
                keys,
                bug,
                &mut visited,
                &mut schedule,
            )
            .map_err(|violation| {
                format!("{violation}\n  operations {ops:?}\n  schedule {schedule:?}")
            })?;
            states += visited.len();
        }
        Ok(states)
    }

    #[test]
    fn every_schedule_keeps_per_key_order_and_completes_each_operation_once() {
        let states = explore(Bug::None).unwrap_or_else(|violation| panic!("{violation}"));
        println!("write order: {states} states explored");
        assert!(states > 50_000, "only {states} states");
    }

    #[test]
    fn the_search_catches_a_seed_that_skips_the_lanes_pending_writes() {
        let violation = explore(Bug::SeedSkipsPending).expect_err("the seeded bug goes unseen");
        println!("seed without `pending`: {violation}");
    }

    #[test]
    fn the_search_catches_a_finished_write_reported_twice() {
        let violation = explore(Bug::FinishTwice).expect_err("the seeded bug goes unseen");
        println!("finish reported twice: {violation}");
    }
}
