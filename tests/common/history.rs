//! Per-key history checker: the runtime counterpart of the write-order
//! model in `crates/core/src/write_order.rs`.
//!
//! A test records each operation's submission and completion on one
//! logical clock (atomic, so client threads share it), its kind, and the
//! value it wrote or read — every written value unique per key.  The check
//! is per key and per client, over that client's own writes: a get reads
//! the last write its client submitted before it, or a later write
//! submitted before the get completed.  A miss reads the absent version,
//! which a delete writes and which a key holds before its first write.
//! The completion tick is taken when the client sees the completion, so it
//! bounds the true completion from above and the check never rejects a
//! legal history.  It holds for keys that one client alone writes;
//! [`History::check_shared`] checks keys that several clients write.

#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cphash_suite::{ClientHandle, Completion, CompletionKind, TableError, ValueBytes};

/// What an operation did: a write of a version (`None`: a delete), or a
/// read that returned one (`None`: a miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write(Option<u64>),
    Read(Option<u64>),
}

/// One finished operation.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub client: usize,
    pub key: u64,
    pub kind: Kind,
    pub submitted: u64,
    pub completed: u64,
}

/// The version a value's bytes name: their first eight, little-endian.
pub fn version(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = bytes.len().min(8);
    word[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(word)
}

/// A shared history: the logical clock and the events recorded so far.
#[derive(Default)]
pub struct History {
    clock: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl History {
    /// The next tick of the logical clock.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Record an operation submitted at tick `submitted` and seen complete
    /// now.
    pub fn record(&self, client: usize, key: u64, kind: Kind, submitted: u64) {
        let completed = self.tick();
        let event = Event {
            client,
            key,
            kind,
            submitted,
            completed,
        };
        self.events.lock().expect("history lock").push(event);
    }

    /// Every event, for a hand-built history.
    pub fn push(&self, event: Event) {
        self.events.lock().expect("history lock").push(event);
    }

    /// Check every get against its client's writes to its key; on success,
    /// the number of gets checked.
    pub fn check(&self) -> Result<usize, String> {
        let events = self.events.lock().expect("history lock");
        let mut per_key: HashMap<(usize, u64), Vec<&Event>> = HashMap::new();
        for event in events.iter() {
            per_key
                .entry((event.client, event.key))
                .or_default()
                .push(event);
        }
        let mut gets = 0;
        for ((client, key), mut ops) in per_key {
            ops.sort_by_key(|event| event.submitted);
            let writes: Vec<(u64, Option<u64>)> = ops
                .iter()
                .filter_map(|event| match event.kind {
                    Kind::Write(version) => Some((event.submitted, version)),
                    Kind::Read(_) => None,
                })
                .collect();
            for get in &ops {
                let Kind::Read(read) = get.kind else {
                    continue;
                };
                gets += 1;
                let before = writes
                    .iter()
                    .take_while(|(at, _)| *at < get.submitted)
                    .last()
                    .and_then(|&(_, version)| version);
                let overlapping = writes
                    .iter()
                    .filter(|(at, _)| *at > get.submitted && *at < get.completed)
                    .map(|&(_, version)| version);
                if read != before && !overlapping.clone().any(|version| version == read) {
                    let recent: Vec<_> = writes
                        .iter()
                        .filter(|(at, _)| *at < get.completed)
                        .rev()
                        .take(4)
                        .collect();
                    return Err(format!(
                        "client {client} key {key}: the get of ticks {}..{} read {read:?}; \
                         the last earlier write wrote {before:?}, the overlapping ones {:?} \
                         (the last writes submitted before it completed, by tick: {recent:?})",
                        get.submitted,
                        get.completed,
                        overlapping.collect::<Vec<_>>(),
                    ));
                }
            }
        }
        Ok(gets)
    }
}

impl History {
    /// Check every get against every client's writes to its key, for keys
    /// that several clients write.  A get reads the version of a write — a
    /// miss: a delete's, or the key's absence before its first write —
    /// submitted before the get completed that no other write surely
    /// replaced before the get was submitted: one submitted after it
    /// completed, and completed itself before the get was submitted.  With
    /// `evicting`, a table that evicted entries, any miss is a legal read.
    /// On success, the number of gets checked.
    pub fn check_shared(&self, evicting: bool) -> Result<usize, String> {
        let events = self.events.lock().expect("history lock");
        let mut per_key: HashMap<u64, Vec<&Event>> = HashMap::new();
        for event in events.iter() {
            per_key.entry(event.key).or_default().push(event);
        }
        let mut gets = 0;
        for (key, ops) in per_key {
            let writes: Vec<(&Event, Option<u64>)> = ops
                .iter()
                .filter_map(|event| match event.kind {
                    Kind::Write(version) => Some((*event, version)),
                    Kind::Read(_) => None,
                })
                .collect();
            // Per write, and for the key's absence (`None`), when a later
            // write surely replaced it: the earliest completion among the
            // writes submitted after it completed.
            let replaced = |after: Option<u64>| {
                let later = writes
                    .iter()
                    .filter(|(w, _)| after.is_none_or(|c| w.submitted > c));
                later.map(|(w, _)| w.completed).min().unwrap_or(u64::MAX)
            };
            let absent_until = replaced(None);
            let candidates: Vec<(u64, Option<u64>, u64)> = writes
                .iter()
                .map(|(w, version)| (w.submitted, *version, replaced(Some(w.completed))))
                .collect();
            for get in &ops {
                let Kind::Read(read) = get.kind else {
                    continue;
                };
                gets += 1;
                let absent = read.is_none() && (evicting || get.submitted < absent_until);
                let written = candidates.iter().any(|&(submitted, version, until)| {
                    version == read && submitted < get.completed && get.submitted < until
                });
                if !absent && !written {
                    return Err(format!(
                        "client {} key {key}: the get of ticks {}..{} read {read:?}, which no \
                         write left current then",
                        get.client, get.submitted, get.completed,
                    ));
                }
            }
        }
        Ok(gets)
    }
}

/// One client's recorded operations: its calls go through here, which
/// ticks the clock around them and records each as it completes.
pub struct Recorder<'a> {
    history: &'a History,
    client: usize,
    /// Pipelined operations in flight, by token: key, the write (`None`
    /// for a lookup) and the submit tick.
    open: HashMap<u64, (u64, Option<Kind>, u64)>,
}

impl<'a> Recorder<'a> {
    pub fn new(history: &'a History, client: usize) -> Self {
        Recorder {
            history,
            client,
            open: HashMap::new(),
        }
    }

    pub fn submit_insert(&mut self, client: &mut ClientHandle, key: u64, value: &[u8]) -> u64 {
        let at = self.history.tick();
        let token = client.submit_insert(key, value);
        let write = Kind::Write(Some(version(value)));
        self.open.insert(token, (key, Some(write), at));
        token
    }

    pub fn submit_delete(&mut self, client: &mut ClientHandle, key: u64) -> u64 {
        let at = self.history.tick();
        let token = client.submit_delete(key);
        self.open.insert(token, (key, Some(Kind::Write(None)), at));
        token
    }

    pub fn submit_lookup(&mut self, client: &mut ClientHandle, key: u64) -> u64 {
        let at = self.history.tick();
        let token = client.submit_lookup(key);
        self.open.insert(token, (key, None, at));
        token
    }

    /// [`ClientHandle::drain`], recording what it appends to `out`.
    pub fn drain(
        &mut self,
        client: &mut ClientHandle,
        out: &mut Vec<Completion>,
    ) -> Result<(), TableError> {
        let before = out.len();
        let result = client.drain(out);
        for completion in &out[before..] {
            self.complete(completion);
        }
        result
    }

    /// A completion arrived: record its operation.  A failed insert wrote
    /// nothing and is dropped.
    pub fn complete(&mut self, completion: &Completion) {
        let Some((key, write, at)) = self.open.remove(&completion.token) else {
            return;
        };
        let kind = match (&completion.kind, write) {
            (CompletionKind::LookupHit(value), None) => Kind::Read(Some(version(value.as_slice()))),
            (CompletionKind::LookupMiss, None) => Kind::Read(None),
            (CompletionKind::InsertFailed, _) => return,
            (_, Some(write)) => write,
            (other, None) => panic!("lookup completed as {other:?}"),
        };
        self.history.record(self.client, key, kind, at);
    }

    /// [`ClientHandle::get`], recorded.
    pub fn get(
        &self,
        client: &mut ClientHandle,
        key: u64,
    ) -> Result<Option<ValueBytes>, TableError> {
        let at = self.history.tick();
        let got = client.get(key)?;
        let read = Kind::Read(got.as_ref().map(|value| version(value.as_slice())));
        self.history.record(self.client, key, read, at);
        Ok(got)
    }

    /// [`ClientHandle::insert`], recorded when it stored the value.
    pub fn insert(
        &self,
        client: &mut ClientHandle,
        key: u64,
        value: &[u8],
    ) -> Result<bool, TableError> {
        let at = self.history.tick();
        let stored = client.insert(key, value)?;
        if stored {
            let write = Kind::Write(Some(version(value)));
            self.history.record(self.client, key, write, at);
        }
        Ok(stored)
    }

    /// [`ClientHandle::delete`], recorded.
    pub fn delete(&self, client: &mut ClientHandle, key: u64) -> Result<bool, TableError> {
        let at = self.history.tick();
        let found = client.delete(key)?;
        self.history.record(self.client, key, Kind::Write(None), at);
        Ok(found)
    }
}

#[test]
fn history_rejects_a_stale_read() {
    let history = History::default();
    let event = |kind, submitted, completed| Event {
        client: 0,
        key: 7,
        kind,
        submitted,
        completed,
    };
    history.push(event(Kind::Write(Some(1)), 0, 1));
    history.push(event(Kind::Write(Some(2)), 2, 3));
    history.push(event(Kind::Read(Some(2)), 4, 5));
    assert_eq!(history.check(), Ok(1), "the current read passes");
    history.push(event(Kind::Read(Some(1)), 6, 7));
    let error = history.check().expect_err("a stale read passed");
    assert!(error.contains("read Some(1)"), "{error}");
}

#[test]
fn a_shared_history_rejects_a_replaced_read_and_accepts_an_overlapping_one() {
    let history = History::default();
    let event = |client, kind, submitted, completed| Event {
        client,
        key: 7,
        kind,
        submitted,
        completed,
    };
    // Client 0 writes 1, client 1 writes 2 after it; a get overlapping the
    // second write may read either.
    history.push(event(0, Kind::Write(Some(1)), 0, 1));
    history.push(event(1, Kind::Write(Some(2)), 2, 4));
    history.push(event(0, Kind::Read(Some(1)), 3, 5));
    history.push(event(1, Kind::Read(Some(2)), 3, 5));
    assert_eq!(history.check_shared(false), Ok(2));
    // Once the second write completed, the first is gone for good.
    history.push(event(0, Kind::Read(Some(1)), 6, 7));
    let error = history
        .check_shared(false)
        .expect_err("a replaced read passed");
    assert!(error.contains("read Some(1)"), "{error}");
    // A miss after a completed write is an eviction, legal only in a table
    // that evicts.
    let missed = History::default();
    missed.push(event(0, Kind::Write(Some(1)), 0, 1));
    missed.push(event(1, Kind::Read(None), 2, 3));
    assert!(missed.check_shared(false).is_err());
    assert_eq!(missed.check_shared(true), Ok(1));
}

#[test]
fn history_rejects_a_read_of_a_write_submitted_after_the_get_completed() {
    let history = History::default();
    let event = |kind, submitted, completed| Event {
        client: 0,
        key: 7,
        kind,
        submitted,
        completed,
    };
    history.push(event(Kind::Write(Some(1)), 0, 5));
    history.push(event(Kind::Read(Some(2)), 1, 3));
    history.push(event(Kind::Write(Some(2)), 2, 4));
    assert_eq!(
        history.check(),
        Ok(1),
        "a write that overlaps the get may be read"
    );
    history.push(event(Kind::Read(Some(3)), 6, 7));
    history.push(event(Kind::Write(Some(3)), 8, 9));
    let error = history.check().expect_err("a read from the future passed");
    assert!(error.contains("read Some(3)"), "{error}");
    // A miss before any write reads the absent version.
    let fresh = History::default();
    fresh.push(Event {
        key: 8,
        ..event(Kind::Read(None), 0, 1)
    });
    assert_eq!(fresh.check(), Ok(1));
}
