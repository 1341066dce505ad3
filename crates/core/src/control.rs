//! The migration control plane: one extra duplex lane per server, carrying
//! only the live-resize protocol, whose client ends the table's one
//! [`ControlHandle`] owns ([`crate::CpHash::take_control`]).
//!
//! A chunk moves in three phases, each a barrier: every receiver takes
//! `MigratePrepare` and acknowledges, then holds off requests for keys on
//! their way to it; every source takes `MigrateOut` and answers (late, while
//! in-flight inserts publish) with its leaving keys cut into batches per
//! receiver; every receiver takes its batches unread, one `MigrateIn` each,
//! the last marked final (or one empty, final delivery).  A control lane
//! holds one message at most and gets its next when its last reply is in,
//! so a server is in one migration step at most (`migration.rs`) and its
//! control lane never holds two replies (`server.rs`).  `ChunkMove` is this
//! protocol as a non-blocking pass, as `ServerThread::poll_once` is the
//! server's; it holds no lane or clock, and owns the batches it has not
//! sent, so dropping it mid-move frees them.

use std::collections::VecDeque;
use std::sync::Arc;

use cphash_channel::DuplexClient;

use crate::client::TableError;
use crate::protocol::{encode, MigrationBatch, MigrationExport, MigrationStep, Request, Response};
use crate::router::EpochRouter;

/// Client-side endpoint of the control lanes, one per spawned server.
pub struct ControlHandle {
    pub(crate) lanes: Vec<DuplexClient<u64, Response>>,
    pub(crate) router: Arc<EpochRouter>,
}

/// What one chunk's move carried.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMoved {
    /// Keys that left their source.
    pub keys: usize,
    /// Non-empty batches delivered.
    pub batches: usize,
}

impl ControlHandle {
    /// The shared routing table.
    pub fn router(&self) -> &Arc<EpochRouter> {
        &self.router
    }

    /// Move one chunk of the transition `step` belongs to (see the module
    /// docs), spinning and then yielding while the servers work.  Fails
    /// with [`TableError::ServerGone`] when a server thread has exited.
    pub fn move_chunk(&mut self, step: MigrationStep) -> Result<ChunkMoved, TableError> {
        let mut chunk = ChunkMove::new(step, self.lanes.len());
        let mut idle = 0u64;
        loop {
            let replies = chunk.replies;
            if let Some(moved) = chunk.poll(&mut self.lanes)? {
                return Ok(moved);
            }
            idle = if chunk.replies > replies { 0 } else { idle + 1 };
            if idle > 128 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }
}

/// The barriers of one chunk's move, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Prepare,
    Extract,
    Deliver,
}

/// A control lane in the current phase: sent nothing, awaiting a reply, or answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Idle,
    Waiting,
    Answered,
}

/// A fault a test seeds into the protocol; none outside the tests.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bug {
    /// A source's batches go out as soon as it answers.
    EarlyDeliver,
    /// The first of several batches to one receiver is marked final.
    FirstBatchLast,
    /// A lane gets its next message before its reply is in.
    SendBeforeReply,
}

/// One chunk's move, as a pass at a time (see the module docs).
pub(crate) struct ChunkMove {
    step: MigrationStep,
    phase: Phase,
    lanes: Vec<Lane>,
    /// Per receiver, the batches the sources cut for it and not yet sent.
    outbox: Vec<VecDeque<MigrationBatch>>,
    moved: ChunkMoved,
    /// Replies read so far.
    replies: usize,
    bug: Option<Bug>,
}

impl ChunkMove {
    /// The move of `step`'s chunk over a table of `lanes` servers.
    pub(crate) fn new(step: MigrationStep, lanes: usize) -> Self {
        ChunkMove {
            step,
            phase: Phase::Prepare,
            lanes: vec![Lane::Idle; lanes],
            outbox: (0..step.new_partitions).map(|_| VecDeque::new()).collect(),
            moved: ChunkMoved::default(),
            replies: 0,
            bug: None,
        }
    }

    /// One pass over the lanes: read each reply that is in and send the
    /// lane its next message, passing every barrier the replies complete.
    /// `Some` once the last delivery is acknowledged.  It never waits.
    pub(crate) fn poll(
        &mut self,
        lanes: &mut [DuplexClient<u64, Response>],
    ) -> Result<Option<ChunkMoved>, TableError> {
        loop {
            for (i, lane) in lanes.iter_mut().enumerate() {
                if self.lanes[i] == Lane::Waiting {
                    match lane.try_recv() {
                        Some(reply) => self.answered(i, reply),
                        None if !lane.is_server_alive() => return Err(TableError::ServerGone),
                        None if self.bug == Some(Bug::SendBeforeReply) => {}
                        None => continue,
                    }
                }
                if let Some(request) = self.next_message(i) {
                    let (w0, w1) = encode(&request);
                    let words = [w0, w1.unwrap_or_default()];
                    let sent = lane.send_batch(&words[..1 + usize::from(w1.is_some())]);
                    assert!(sent, "a control lane holds one message at most");
                    lane.flush();
                    self.lanes[i] = Lane::Waiting;
                }
            }
            if self.lanes.contains(&Lane::Waiting) {
                return Ok(None);
            }
            self.phase = match self.phase {
                Phase::Prepare => Phase::Extract,
                Phase::Extract => Phase::Deliver,
                Phase::Deliver => return Ok(Some(self.moved)),
            };
            self.lanes.fill(Lane::Idle);
        }
    }

    /// Lane `i`'s reply is in: a source's carries its export.
    fn answered(&mut self, i: usize, reply: Response) {
        self.lanes[i] = Lane::Answered;
        self.replies += 1;
        if self.phase == Phase::Extract && reply.has_value() {
            // SAFETY: a source answers `MigrateOut` with the address of the
            // export it leaked for us (`Response::with_batch`), once.
            let mut export = unsafe { MigrationExport::from_addr(reply.addr) };
            for (dest, outbox) in self.outbox.iter_mut().enumerate() {
                outbox.extend(export.take(dest));
            }
        }
    }

    /// What lane `i` gets next in this phase, if anything.
    fn next_message(&mut self, i: usize) -> Option<Request> {
        let (step, idle) = (self.step, self.lanes[i] == Lane::Idle);
        let new = step.new_partitions;
        let deliver = self.phase == Phase::Deliver || self.bug == Some(Bug::EarlyDeliver);
        match self.phase {
            Phase::Prepare if idle && i < new => Some(Request::MigratePrepare { step }),
            Phase::Extract if idle && i < step.old_partitions => Some(Request::MigrateOut { step }),
            _ if deliver && i < new => {
                let outbox = &mut self.outbox[i];
                let batch_addr = match outbox.pop_front() {
                    Some(mut batch) => {
                        let first = idle && self.bug == Some(Bug::FirstBatchLast);
                        batch.last = outbox.is_empty() || first;
                        self.moved.keys += batch.len();
                        self.moved.batches += 1;
                        batch.into_addr()
                    }
                    // Nothing to absorb: the empty, final delivery.
                    None if idle && self.phase == Phase::Deliver => 1,
                    None => return None,
                };
                Some(Request::MigrateIn { step, batch_addr })
            }
            _ => None,
        }
    }
}

impl core::fmt::Debug for ControlHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ControlHandle")
            .field("servers", &self.lanes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::fmt::Write;

    use cphash_channel::{duplex, DuplexServer, RingConfig};
    use cphash_hashcore::{partition_for_key, Partition, PartitionConfig};

    use super::*;
    use crate::protocol::{decode_word, OpCode};
    use crate::server::testing::{fill, send, test_server};
    use crate::server::ServerThread;

    /// The bytes the client copies into its reservation before `Ready`.
    const RESERVED: [u8; 64] = [0xA5; 64];

    /// A step of the schedule.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        /// The coordinator makes one pass, or, once the chunk moved, passes
        /// its watermark.
        Coordinator,
        /// Server `i` makes one pass.
        Server(usize),
        /// The client fills its reservation and sends `Ready`.
        Ready,
        /// The client sends its lookup, or reads the reply and follows it.
        Lookup,
    }

    /// A control message, as the tap between the coordinator and the
    /// servers saw it go by; a delivery with the keys it carries.
    #[derive(Clone, Debug, PartialEq)]
    enum Sent {
        Prepare,
        Out,
        In { keys: Vec<u64>, last: bool },
    }

    /// Where the client's one lookup is: sent to `at` through the servers
    /// in `chain` (bounces, not retries in place), and the reply, once in.
    #[derive(Clone, Debug, PartialEq)]
    enum Lookup {
        NotSent,
        At {
            at: usize,
            chain: Vec<usize>,
            reply: Option<Response>,
        },
        Done,
    }

    /// One grow or shrink of a one-chunk table, with its keys: one that
    /// stays, one that leaves per (source, receiver) pair, and a 64-byte
    /// reservation of another leaving key, NOT-READY until the client's
    /// `Ready`.  The client looks up the last pair's key.
    struct Case {
        old: usize,
        new: usize,
        /// The keys inserted before the move, each READY with its value.
        keys: Vec<u64>,
        reservation: u64,
        lookup: u64,
        /// (source, receiver) pairs with keys to move: the batches.
        pairs: usize,
    }

    impl Case {
        fn new(old: usize, new: usize) -> Case {
            let owners = |key: u64| (partition_for_key(key, old), partition_for_key(key, new));
            let find = |want: (usize, usize), skip: &[u64]| {
                (0u64..)
                    .find(|key| owners(*key) == want && !skip.contains(key))
                    .expect("a key for every pair")
            };
            let mut keys = vec![(0u64..).find(|&k| owners(k).0 == owners(k).1).unwrap()];
            let mut pairs = 0;
            for source in 0..old {
                for receiver in (0..new).filter(|&r| r != source) {
                    keys.push(find((source, receiver), &keys));
                    pairs += 1;
                }
            }
            let reservation = find(owners(keys[1]), &keys);
            let lookup = *keys.last().unwrap();
            Case {
                old,
                new,
                keys,
                reservation,
                lookup,
                pairs,
            }
        }

        fn value(key: u64) -> [u8; 8] {
            key.to_le_bytes()
        }
    }

    /// Real servers, the real `ChunkMove`, a client, and a tap on every
    /// control lane: the coordinator's messages and the servers' replies
    /// pass through the harness, which checks the protocol's order.
    struct World<'a> {
        case: &'a Case,
        router: Arc<EpochRouter>,
        servers: Vec<ServerThread>,
        /// Per server, the client's lane and the far end of the tap.
        clients: Vec<DuplexClient<u64, Response>>,
        control: Vec<DuplexClient<u64, Response>>,
        /// Per server, the coordinator's lane and the tap's end of it.
        lanes: Vec<DuplexClient<u64, Response>>,
        taps: Vec<DuplexServer<u64, Response>>,
        chunk: ChunkMove,
        moved: Option<ChunkMoved>,
        passed: bool,
        reserved: Response,
        ready: bool,
        lookup: Lookup,
        /// Per server, what the client sent it that it has not read.
        wire: Vec<Vec<Request>>,
        /// Per control lane, the messages whose replies the coordinator has
        /// not read, oldest first.
        in_flight: Vec<VecDeque<Sent>>,
        /// Per control lane, whether the coordinator read its reply to a
        /// `MigratePrepare`, and to a `MigrateOut`.
        prepared: Vec<bool>,
        extracted: Vec<bool>,
        /// Whether to check the coordinator's message order (the lookup
        /// and quiescence checks always run).
        watch_order: bool,
    }

    impl<'a> World<'a> {
        fn new(case: &'a Case, bug: Option<Bug>, watch_order: bool) -> World<'a> {
            let spawned = case.old.max(case.new);
            let router = Arc::new(EpochRouter::new(case.old, 1, spawned));
            let (mut servers, mut clients, mut control) = (Vec::new(), Vec::new(), Vec::new());
            let (mut lanes, mut taps) = (Vec::new(), Vec::new());
            for index in 0..spawned {
                let ([client, lane], mut server) = test_server(index, Arc::clone(&router));
                let config = PartitionConfig::new(64, None).with_migration_chunks(1);
                server.partition = Partition::new(config);
                let (coordinator, tap) = duplex(RingConfig::with_capacity(64));
                servers.push(server);
                clients.push(client);
                control.push(lane);
                lanes.push(coordinator);
                taps.push(tap);
            }
            for &key in &case.keys {
                let server = &mut servers[partition_for_key(key, case.old)];
                server
                    .partition
                    .insert_copy(key, &Case::value(key))
                    .unwrap();
            }
            let source = partition_for_key(case.reservation, case.old);
            let reserve = Request::Insert {
                key: case.reservation,
                size: RESERVED.len() as u64,
            };
            send(&mut clients[source], &reserve);
            clients[source].flush();
            servers[source].poll_once();
            let reserved = clients[source].try_recv().expect("the reservation's reply");
            assert!(reserved.has_value());
            router.begin_transition(case.new).unwrap();
            let step = MigrationStep {
                chunk: 0,
                old_partitions: case.old,
                new_partitions: case.new,
            };
            let mut chunk = ChunkMove::new(step, spawned);
            chunk.bug = bug;
            World {
                case,
                router,
                servers,
                clients,
                control,
                lanes,
                taps,
                chunk,
                moved: None,
                passed: false,
                reserved,
                ready: false,
                lookup: Lookup::NotSent,
                wire: vec![Vec::new(); spawned],
                in_flight: vec![VecDeque::new(); spawned],
                prepared: vec![false; spawned],
                extracted: vec![false; spawned],
                watch_order,
            }
        }

        /// The steps that can change something.
        fn enabled(&mut self) -> Vec<Step> {
            let mut steps = Vec::new();
            if !self.passed {
                steps.push(Step::Coordinator);
            }
            for (i, server) in self.servers.iter_mut().enumerate() {
                if server
                    .lanes
                    .iter_mut()
                    .any(|lane| lane.pending_requests() > 0)
                {
                    steps.push(Step::Server(i));
                }
            }
            if !self.ready {
                steps.push(Step::Ready);
            }
            if matches!(
                self.lookup,
                Lookup::NotSent | Lookup::At { reply: Some(_), .. }
            ) {
                steps.push(Step::Lookup);
            }
            steps
        }

        /// Take `step`; `Err` names the invariant it broke.
        fn step(&mut self, step: Step) -> Result<(), String> {
            match step {
                Step::Coordinator if self.moved.is_some() => {
                    self.router.advance_watermark(1);
                    self.passed = true;
                }
                Step::Coordinator => self.coordinate()?,
                Step::Server(i) => {
                    self.servers[i].poll_once();
                    self.wire[i].clear();
                    if let Some(reply) = self.clients[i].try_recv() {
                        let Lookup::At {
                            at, reply: slot, ..
                        } = &mut self.lookup
                        else {
                            return Err(format!("server {i} answered no lookup: {reply:?}"));
                        };
                        assert!(*at == i && slot.replace(reply).is_none());
                    }
                    while let Some(reply) = self.control[i].try_recv() {
                        assert_eq!(self.taps[i].send_batch(&[reply]), 1);
                    }
                    self.taps[i].flush();
                }
                Step::Ready => {
                    fill(self.reserved, &RESERVED);
                    let source = partition_for_key(self.case.reservation, self.case.old);
                    let id = self.reserved.element_id();
                    self.send(source, Request::Ready { id });
                    self.ready = true;
                }
                Step::Lookup => self.look_up()?,
            }
            Ok(())
        }

        /// One coordinator pass, with the tap reading what went by: the
        /// replies it read, then the messages it sent, which go on to the
        /// servers.
        fn coordinate(&mut self) -> Result<(), String> {
            let popped = |lanes: &[DuplexClient<u64, Response>]| -> Vec<u64> {
                let replies = lanes.iter().map(DuplexClient::response_stats);
                replies.map(|stats| stats.messages_popped()).collect()
            };
            let before = popped(&self.lanes);
            let outcome = self.chunk.poll(&mut self.lanes);
            let moved = outcome.map_err(|e| format!("the move failed: {e}"))?;
            for (lane, (after, before)) in popped(&self.lanes).into_iter().zip(before).enumerate() {
                for _ in before..after {
                    match self.in_flight[lane].pop_front() {
                        Some(Sent::Prepare) => self.prepared[lane] = true,
                        Some(Sent::Out) => self.extracted[lane] = true,
                        Some(Sent::In { .. }) => {}
                        None => return Err(format!("lane {lane}: a reply to nothing")),
                    }
                }
            }
            let (old, new) = (self.case.old, self.case.new);
            for lane in 0..self.taps.len() {
                while let Some(word) = self.taps[lane].try_recv() {
                    let (op, _) = decode_word(word).expect("a control message");
                    let mut words = vec![word];
                    let sent = match op {
                        OpCode::MigratePrepare => Sent::Prepare,
                        OpCode::MigrateOut => Sent::Out,
                        OpCode::MigrateIn => {
                            let addr = self.taps[lane].try_recv().expect("sent whole");
                            words.push(addr);
                            if addr == 1 {
                                let keys = Vec::new();
                                Sent::In { keys, last: true }
                            } else {
                                // SAFETY: the coordinator leaked this batch for
                                // the receiver, which has not taken it yet;
                                // nothing writes it meanwhile.
                                let batch = unsafe { &*(addr as *const MigrationBatch) };
                                let keys = batch.iter().map(|(key, _)| key).collect();
                                Sent::In {
                                    keys,
                                    last: batch.last,
                                }
                            }
                        }
                        other => return Err(format!("lane {lane}: {other:?} on a control lane")),
                    };
                    let prepared = self.prepared[..new].iter().all(|&done| done);
                    let extracted = self.extracted[..old].iter().all(|&done| done);
                    if self.watch_order && sent == Sent::Out && !prepared {
                        return Err(format!(
                            "MigrateOut to {lane} before every receiver acknowledged"
                        ));
                    }
                    if self.watch_order && matches!(sent, Sent::In { .. }) && !extracted {
                        return Err(format!("MigrateIn to {lane} before every source answered"));
                    }
                    self.in_flight[lane].push_back(sent);
                    if self.watch_order && self.in_flight[lane].len() > 1 {
                        let in_flight = &self.in_flight[lane];
                        return Err(format!("lane {lane} holds {in_flight:?} in flight"));
                    }
                    assert!(self.control[lane].send_batch(&words));
                    self.control[lane].flush();
                }
            }
            self.moved = self.moved.or(moved);
            Ok(())
        }

        /// The client's lookup: send it where the router says, or read its
        /// reply and follow a bounce.  A hit must read the key's value, and
        /// no bounce may return to a server the chain passed through.
        fn look_up(&mut self) -> Result<(), String> {
            let key = self.case.lookup;
            let (at, chain) = match std::mem::replace(&mut self.lookup, Lookup::Done) {
                Lookup::NotSent => {
                    let at = self.router.route(key);
                    (at, vec![at])
                }
                Lookup::At {
                    at,
                    mut chain,
                    reply: Some(reply),
                } => {
                    if !reply.is_retry() {
                        let read = reply.inline_value();
                        if read.is_none_or(|value| value.as_slice() != Case::value(key)) {
                            return Err(format!("the lookup of {key} at {at} read {reply:?}"));
                        }
                        return Ok(());
                    }
                    let dest = reply.retry_destination();
                    if dest != at && chain.contains(&dest) {
                        return Err(format!("the lookup bounced round {chain:?} back to {dest}"));
                    }
                    if dest != at {
                        chain.push(dest);
                    }
                    (dest, chain)
                }
                other => unreachable!("no lookup step from {other:?}"),
            };
            self.send(at, Request::Lookup { key });
            self.lookup = Lookup::At {
                at,
                chain,
                reply: None,
            };
            Ok(())
        }

        /// The client sends `request` to server `at`.
        fn send(&mut self, at: usize, request: Request) {
            send(&mut self.clients[at], &request);
            self.clients[at].flush();
            self.wire[at].push(request);
        }

        /// Nothing can move: every key resident once, on its new owner;
        /// nothing still incoming; and the move counted what left.
        fn check_quiescent(&self) -> Result<(), String> {
            if !self.passed || self.lookup != Lookup::Done {
                return Err(format!("stuck: {}", self.digest()));
            }
            let mut expected = self.case.keys.clone();
            expected.push(self.case.reservation);
            let leaving = expected
                .iter()
                .filter(|&&k| {
                    partition_for_key(k, self.case.old) != partition_for_key(k, self.case.new)
                })
                .count();
            for key in expected {
                let holders: Vec<usize> = (0..self.servers.len())
                    .filter(|&i| self.servers[i].partition.keys().contains(&key))
                    .collect();
                if holders != [partition_for_key(key, self.case.new)] {
                    return Err(format!("key {key} resident at {holders:?}"));
                }
            }
            if let Some(i) =
                (0..self.servers.len()).find(|&i| self.servers[i].migration.is_incoming())
            {
                return Err(format!("server {i} still expects keys"));
            }
            let counted = ChunkMoved {
                keys: leaving,
                batches: self.case.pairs,
            };
            if self.moved != Some(counted) {
                return Err(format!("moved {:?}, expected {counted:?}", self.moved));
            }
            Ok(())
        }

        /// The state the rest of the search depends on: the harness's, the
        /// move's, each server's step and keys, and what every ring holds.
        fn digest(&self) -> String {
            let mut digest = format!(
                "{:?} {:?} {} {} {:?} {:?} {:?}|",
                self.router.snapshot(),
                (self.moved, self.chunk.moved),
                self.passed,
                self.ready,
                self.lookup,
                self.wire,
                (&self.in_flight, &self.prepared, &self.extracted),
            );
            let chunk = &self.chunk;
            let outbox = chunk.outbox.iter().map(|batches| {
                let keys = batches.iter().map(|batch| batch.iter().map(|(key, _)| key));
                keys.map(Vec::from_iter).collect::<Vec<_>>()
            });
            let outbox: Vec<_> = outbox.collect();
            write!(digest, "{:?} {:?} {outbox:?}|", chunk.phase, chunk.lanes).unwrap();
            for server in &self.servers {
                let mut keys = server.partition.keys();
                keys.sort_unstable();
                write!(digest, "{:?} {keys:?}|", server.migration).unwrap();
            }
            for lane in self.clients.iter().chain(&self.control).chain(&self.lanes) {
                let queued = |ring: &cphash_channel::ChannelStats| {
                    ring.messages_pushed() - ring.messages_popped()
                };
                let (requests, replies) = (lane.request_stats(), lane.response_stats());
                write!(digest, "{} {},", queued(requests), queued(replies)).unwrap();
            }
            digest
        }
    }

    impl Drop for World<'_> {
        /// Reclaim what a world dropped mid-move still has in flight:
        /// deliveries no receiver has read, exports the coordinator has not.
        fn drop(&mut self) {
            let mut words = Vec::new();
            for server in &mut self.servers {
                let control = server.lanes.last_mut().expect("a control lane");
                words.clear();
                control.recv_batch(&mut words, usize::MAX);
                let mut words = words.iter();
                while let Some(&word) = words.next() {
                    if decode_word(word).is_some_and(|(op, _)| op == OpCode::MigrateIn) {
                        let addr = *words.next().expect("sent whole");
                        if addr > 1 {
                            // SAFETY: the coordinator leaked this batch for
                            // the receiver, which never read it.
                            drop(unsafe { MigrationBatch::from_addr(addr) });
                        }
                    }
                }
            }
            for lane in &mut self.lanes {
                while let Some(reply) = lane.try_recv() {
                    if reply.has_value() {
                        // SAFETY: a source leaked this export for the
                        // coordinator, which never read it.
                        drop(unsafe { MigrationExport::from_addr(reply.addr) });
                    }
                }
            }
        }
    }

    /// A search's fixed inputs.
    #[derive(Clone, Copy)]
    struct Model<'a> {
        case: &'a Case,
        bug: Option<Bug>,
        watch_order: bool,
    }

    impl<'a> Model<'a> {
        /// A fresh world taken through `schedule`, which it took before.
        fn replay(self, schedule: &[Step]) -> World<'a> {
            let mut world = World::new(self.case, self.bug, self.watch_order);
            for &step in schedule {
                world.step(step).expect("a replayed step");
            }
            world
        }

        /// Depth-first over every schedule from `world`, which `schedule`
        /// led to, pruned by `visited`.  Each state but a node's first child
        /// is rebuilt by replaying its schedule on a fresh world: real
        /// servers cannot be cloned.  The first violation comes back, with
        /// the schedule that led to it left in `schedule`.
        fn search(
            self,
            world: World<'a>,
            visited: &mut HashSet<String>,
            schedule: &mut Vec<Step>,
        ) -> Result<(), String> {
            let mut world = Some(world);
            let steps = world.as_mut().expect("the node's world").enabled();
            if steps.is_empty() {
                return world.expect("the node's world").check_quiescent();
            }
            for step in steps {
                let mut next = world.take().unwrap_or_else(|| self.replay(schedule));
                schedule.push(step);
                next.step(step)?;
                if visited.insert(next.digest()) {
                    self.search(next, visited, schedule)?;
                }
                schedule.pop();
            }
            Ok(())
        }
    }

    /// The transitions the search covers, each over one chunk.
    const TRANSITIONS: [(usize, usize); 3] = [(1, 2), (2, 1), (2, 3)];

    /// Explore every schedule of every transition with `bug` seeded: the
    /// states visited, or the first violation with its transition and
    /// schedule.
    fn explore(bug: Option<Bug>, watch_order: bool) -> Result<usize, String> {
        let mut states = 0;
        for (old, new) in TRANSITIONS {
            let case = Case::new(old, new);
            let model = Model {
                case: &case,
                bug,
                watch_order,
            };
            let (mut visited, mut schedule) = (HashSet::new(), Vec::new());
            model
                .search(model.replay(&[]), &mut visited, &mut schedule)
                .map_err(|violation| {
                    format!("{old} -> {new}: {violation}\n  schedule {schedule:?}")
                })?;
            println!("{old} -> {new}: {} states", visited.len());
            states += visited.len();
        }
        Ok(states)
    }

    #[test]
    fn every_schedule_of_a_chunk_move_keeps_the_barriers_and_loses_no_key() {
        let states = explore(None, true).unwrap_or_else(|violation| panic!("{violation}"));
        println!("chunk move: {states} states explored");
        assert!(states > 1_170, "only {states} states");
    }

    #[test]
    fn round_robin_chunk_moves_complete_every_transition() {
        // One schedule per transition, each actor in turn: what Miri runs.
        for (old, new) in TRANSITIONS {
            let case = Case::new(old, new);
            let mut world = World::new(&case, None, true);
            let servers = (0..old.max(new)).map(Step::Server);
            let actors: Vec<Step> = [Step::Coordinator]
                .into_iter()
                .chain(servers)
                .chain([Step::Ready, Step::Lookup])
                .collect();
            let mut next = 0;
            loop {
                let enabled = world.enabled();
                let turns = (next..next + actors.len()).map(|turn| turn % actors.len());
                let Some(turn) = turns.into_iter().find(|&t| enabled.contains(&actors[t])) else {
                    break;
                };
                world
                    .step(actors[turn])
                    .unwrap_or_else(|v| panic!("{old} -> {new}: {v}"));
                next = turn + 1;
            }
            world
                .check_quiescent()
                .unwrap_or_else(|v| panic!("{old} -> {new}: {v}"));
        }
    }

    #[test]
    fn the_search_catches_deliveries_that_skip_the_extract_barrier() {
        let violation =
            explore(Some(Bug::EarlyDeliver), true).expect_err("the seeded bug goes unseen");
        println!("early delivery: {violation}");
        assert!(
            violation.contains("before every source answered"),
            "{violation}"
        );
        // With the order unwatched, a lookup reads the gap.
        let violation =
            explore(Some(Bug::EarlyDeliver), false).expect_err("the seeded bug goes unseen");
        println!("early delivery, order unwatched: {violation}");
        assert!(violation.starts_with("2 -> 3: the lookup"), "{violation}");
    }

    #[test]
    fn the_search_catches_a_first_batch_marked_final() {
        let violation =
            explore(Some(Bug::FirstBatchLast), true).expect_err("the seeded bug goes unseen");
        println!("first batch final: {violation}");
        assert!(violation.starts_with("2 -> 3: the lookup"), "{violation}");
    }

    #[test]
    fn the_search_catches_a_message_sent_before_the_reply() {
        let violation =
            explore(Some(Bug::SendBeforeReply), true).expect_err("the seeded bug goes unseen");
        println!("send before reply: {violation}");
        assert!(violation.contains("in flight"), "{violation}");
    }
}
