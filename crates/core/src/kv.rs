//! One typed operations API over every backend.
//!
//! [`KvClient`] is the unified submit/poll client contract: loadgen
//! scenarios, benches, examples and the end-to-end tests drive u64- and
//! byte-string-keyed workloads through this trait and run unchanged
//! against
//!
//! * the **in-process** table ([`crate::ClientHandle`], message-passing
//!   lanes to pinned server threads),
//! * **CPSERVER over TCP** ([`crate::remote::RemoteClient`], kvproto v2),
//!   and
//! * the **memcached-style baseline** ([`crate::remote::PartitionedClient`],
//!   client-side key partitioning across independent instances — exactly
//!   how the paper's §7 clients drove stock memcached).
//!
//! The contract is pipelined and batched: `submit` queues an operation
//! client-side and returns a token; `poll_completions` pushes what is
//! queued towards the backend — a whole batch per ring flush or socket
//! write — and yields, without blocking, typed [`Completion`]s in
//! whatever order the backend resolves them, each carrying its token.  A
//! submit alone promises no progress: backends send early only once a
//! buffer's worth has accumulated, so keep polling (or call the backend's
//! own `flush`) while operations are pending.  `recommended_window` says how many operations to
//! keep in flight (the paper's clients pipeline ~1,000, §6.1).  Blocking
//! helpers (`get_blocking` & co.) are provided for non-pipelined callers —
//! they drain the pipeline, so do not mix them with in-flight tokens you
//! still care about.

use crate::client::{Completion, CompletionKind, OpError, ValueBytes};

/// A key, by reference: the table's native 60-bit hash key or an arbitrary
/// byte string (routed through the §8.2 envelope hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRef<'a> {
    /// 60-bit hash key.
    Hash(u64),
    /// Byte-string key.
    Bytes(&'a [u8]),
}

impl KeyRef<'_> {
    /// The 60-bit hash key this key routes by.
    pub fn hash(&self) -> u64 {
        match self {
            KeyRef::Hash(k) => *k & cphash_hashcore::MAX_KEY,
            KeyRef::Bytes(b) => cphash_kvproto::envelope::hash_key(b),
        }
    }
}

impl From<u64> for KeyRef<'static> {
    fn from(k: u64) -> Self {
        KeyRef::Hash(k)
    }
}

impl<'a> From<&'a [u8]> for KeyRef<'a> {
    fn from(b: &'a [u8]) -> Self {
        KeyRef::Bytes(b)
    }
}

/// One typed operation for [`KvClient::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp<'a> {
    /// Fetch the value under a key.
    Get(KeyRef<'a>),
    /// Store a value under a key.
    Insert(KeyRef<'a>, &'a [u8]),
    /// Remove a key.
    Delete(KeyRef<'a>),
}

/// Errors surfaced by the unified client API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The backend is gone (server thread shut down, TCP peer closed).
    Disconnected,
    /// The backend answered something the protocol does not allow here.
    Protocol,
    /// The operation failed with a typed error.
    Op(OpError),
    /// Transport error (remote backends).
    Io(std::io::ErrorKind),
}

impl core::fmt::Display for KvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KvError::Disconnected => f.write_str("backend disconnected"),
            KvError::Protocol => f.write_str("protocol violation"),
            KvError::Op(e) => write!(f, "operation failed: {e}"),
            KvError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for KvError {}

/// The unified submit/poll client contract (see the module docs).
pub trait KvClient {
    /// Human-readable backend name, for scenario reports.
    fn backend(&self) -> &'static str;

    /// Queue one operation; returns the token its [`Completion`] will
    /// carry.  Never blocks: the operation is buffered client-side and
    /// leaves with the next [`KvClient::poll_completions`] (earlier only
    /// if the buffer fills).
    fn submit(&mut self, op: KvOp<'_>) -> u64;

    /// Push queued work towards the backend and collect available
    /// completions into `out` (non-blocking).  Returns the number
    /// appended.
    fn poll_completions(&mut self, out: &mut Vec<Completion>) -> usize;

    /// Operations submitted whose completion has not yet been returned.
    fn pending_ops(&self) -> usize;

    /// How many operations to keep in flight for throughput (a soft
    /// bound; ~1,000 in the paper's clients, §6.1).
    fn recommended_window(&self) -> usize;

    /// Can the backend still make progress?  `false` turns
    /// [`KvClient::drain_completions`] into an error instead of a hang.
    fn is_alive(&self) -> bool;

    /// Admin: re-partition the backend to `partitions` live servers
    /// (`chunks_per_sec` 0 = backend default pacing).  Drains the pipeline
    /// first.  Backends without live re-partitioning return
    /// `Err(KvError::Op(OpError::Unsupported))`.
    fn admin_resize(
        &mut self,
        _partitions: usize,
        _chunks_per_sec: u32,
    ) -> Result<String, KvError> {
        Err(KvError::Op(OpError::Unsupported))
    }

    /// Block (spinning, then yielding) until every pending operation has
    /// completed, appending completions to `out`.
    fn drain_completions(&mut self, out: &mut Vec<Completion>) -> Result<(), KvError> {
        poll_until(self, out, |client, _| client.pending_ops() == 0)
    }

    /// Blocking get. Drains the pipeline (see the module docs).
    fn get_blocking(&mut self, key: KeyRef<'_>) -> Result<Option<ValueBytes>, KvError> {
        let token = self.submit(KvOp::Get(key));
        match wait_for(self, token)? {
            CompletionKind::LookupHit(v) => Ok(Some(v)),
            CompletionKind::LookupMiss => Ok(None),
            CompletionKind::Failed(e) => Err(KvError::Op(e)),
            _ => Err(KvError::Protocol),
        }
    }

    /// Blocking insert; `Ok(false)` when the backend had no room.  Drains
    /// the pipeline (see the module docs).
    fn insert_blocking(&mut self, key: KeyRef<'_>, value: &[u8]) -> Result<bool, KvError> {
        let token = self.submit(KvOp::Insert(key, value));
        match wait_for(self, token)? {
            CompletionKind::Inserted => Ok(true),
            CompletionKind::InsertFailed | CompletionKind::Failed(OpError::Capacity) => Ok(false),
            CompletionKind::Failed(e) => Err(KvError::Op(e)),
            _ => Err(KvError::Protocol),
        }
    }

    /// Blocking delete; returns whether the key was present.  Drains the
    /// pipeline (see the module docs).
    fn delete_blocking(&mut self, key: KeyRef<'_>) -> Result<bool, KvError> {
        let token = self.submit(KvOp::Delete(key));
        match wait_for(self, token)? {
            CompletionKind::Deleted(found) => Ok(found),
            CompletionKind::Failed(e) => Err(KvError::Op(e)),
            _ => Err(KvError::Protocol),
        }
    }
}

/// Drain until `token`'s completion appears and return its kind.  Other
/// completions drained along the way are discarded — the blocking helpers
/// are documented as pipeline-draining.
fn wait_for<C: KvClient + ?Sized>(client: &mut C, token: u64) -> Result<CompletionKind, KvError> {
    let mut found = None;
    poll_until(client, &mut Vec::new(), |_, buf| {
        found = buf.drain(..).find(|c| c.token == token).map(|c| c.kind);
        found.is_some()
    })?;
    Ok(found.expect("poll_until returns Ok only once done"))
}

/// Fruitless polls the blocking helpers spin through before they start
/// yielding their CPU once per poll.
const FRUITLESS_POLLS_BEFORE_YIELD: u32 = 128;

/// The blocking helpers' wait: poll until `done` holds, spinning for a
/// while after a fruitless poll and then yielding once per poll.  On a host
/// with fewer CPUs than busy threads the backend that would answer (an
/// in-process partition server, CPSERVER's worker) may be waiting for this
/// very CPU, and a caller that only spins keeps it waiting out a whole
/// time slice.
fn poll_until<C: KvClient + ?Sized>(
    client: &mut C,
    out: &mut Vec<Completion>,
    mut done: impl FnMut(&C, &mut Vec<Completion>) -> bool,
) -> Result<(), KvError> {
    let mut fruitless: u32 = 0;
    while !done(client, out) {
        if client.poll_completions(out) > 0 {
            fruitless = 0;
            continue;
        }
        if !client.is_alive() {
            return Err(KvError::Disconnected);
        }
        fruitless = fruitless.saturating_add(1);
        if fruitless > FRUITLESS_POLLS_BEFORE_YIELD {
            std::thread::yield_now();
        } else {
            core::hint::spin_loop();
        }
    }
    Ok(())
}

impl KvClient for crate::ClientHandle {
    fn backend(&self) -> &'static str {
        "in-process"
    }

    fn submit(&mut self, op: KvOp<'_>) -> u64 {
        use cphash_kvproto::envelope;
        match op {
            KvOp::Get(KeyRef::Hash(k)) => self.submit_lookup(k),
            KvOp::Get(KeyRef::Bytes(b)) => {
                let token = self.submit_lookup(envelope::hash_key(b));
                self.anykey_gets.insert(token, b.to_vec());
                token
            }
            KvOp::Insert(KeyRef::Hash(k), value) => self.submit_insert(k, value),
            KvOp::Insert(KeyRef::Bytes(b), value) => {
                self.submit_insert(envelope::hash_key(b), &envelope::encode_envelope(b, value))
            }
            KvOp::Delete(key) => self.submit_delete(key.hash()),
        }
    }

    fn poll_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        let before = out.len();
        self.poll(out);
        // Byte-key lookups travel as envelope lookups; unwrap them and
        // turn collisions into misses (§8.2) before the caller sees them.
        if !self.anykey_gets.is_empty() {
            for completion in out[before..].iter_mut() {
                let Some(wanted) = self.anykey_gets.remove(&completion.token) else {
                    continue;
                };
                if let CompletionKind::LookupHit(envelope) = &completion.kind {
                    completion.kind = match cphash_kvproto::envelope::unwrap_matching(
                        envelope.as_slice(),
                        &wanted,
                    ) {
                        Some(value) => CompletionKind::LookupHit(ValueBytes::from_slice(value)),
                        None => CompletionKind::LookupMiss,
                    };
                }
            }
        }
        out.len() - before
    }

    fn pending_ops(&self) -> usize {
        self.outstanding()
    }

    fn recommended_window(&self) -> usize {
        // Inherent method of the same name; qualified to avoid recursion.
        crate::ClientHandle::recommended_window(self)
    }

    fn is_alive(&self) -> bool {
        self.servers_alive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::CpHash;

    /// The same scenario through the trait object, u64 and byte keys mixed.
    #[test]
    fn in_process_backend_speaks_the_unified_api() {
        let (mut table, mut clients) = CpHash::with_partitions(2, 1);
        {
            let client: &mut dyn KvClient = &mut clients[0];
            assert_eq!(client.backend(), "in-process");
            assert!(client.recommended_window() > 0);
            assert!(client.is_alive());

            // u64 keys.
            assert!(client.insert_blocking(KeyRef::Hash(42), b"answer").unwrap());
            assert_eq!(
                client
                    .get_blocking(KeyRef::Hash(42))
                    .unwrap()
                    .unwrap()
                    .as_slice(),
                b"answer"
            );
            // Byte-string keys.
            assert!(client
                .insert_blocking(KeyRef::Bytes(b"user:7:name"), b"Ada")
                .unwrap());
            assert_eq!(
                client
                    .get_blocking(KeyRef::Bytes(b"user:7:name"))
                    .unwrap()
                    .unwrap()
                    .as_slice(),
                b"Ada"
            );
            assert_eq!(
                client.get_blocking(KeyRef::Bytes(b"user:8:name")).unwrap(),
                None
            );
            // Delete both ways.
            assert!(client.delete_blocking(KeyRef::Hash(42)).unwrap());
            assert!(!client.delete_blocking(KeyRef::Hash(42)).unwrap());
            assert!(client
                .delete_blocking(KeyRef::Bytes(b"user:7:name"))
                .unwrap());
            assert_eq!(
                client.get_blocking(KeyRef::Bytes(b"user:7:name")).unwrap(),
                None
            );
            // Resize is not a client-side operation in-process.
            assert_eq!(
                client.admin_resize(4, 0),
                Err(KvError::Op(OpError::Unsupported))
            );
        }
        drop(clients);
        table.shutdown();
    }

    #[test]
    fn pipelined_byte_keys_translate_collisions_to_misses() {
        let (mut table, mut clients) = CpHash::with_partitions(2, 1);
        {
            let client = &mut clients[0];
            let mut out = Vec::new();
            let keys: Vec<Vec<u8>> = (0..64u32)
                .map(|i| format!("item:{i:04}").into_bytes())
                .collect();
            for key in &keys {
                KvClient::submit(client, KvOp::Insert(KeyRef::Bytes(key), key.as_slice()));
            }
            client.drain_completions(&mut out).unwrap();
            assert!(out.iter().all(|c| c.kind == CompletionKind::Inserted));
            out.clear();
            let tokens: Vec<u64> = keys
                .iter()
                .map(|key| KvClient::submit(client, KvOp::Get(KeyRef::Bytes(key))))
                .collect();
            client.drain_completions(&mut out).unwrap();
            assert_eq!(out.len(), tokens.len());
            for (key, token) in keys.iter().zip(&tokens) {
                let c = out.iter().find(|c| c.token == *token).expect("completed");
                match &c.kind {
                    CompletionKind::LookupHit(v) => assert_eq!(v.as_slice(), key.as_slice()),
                    other => panic!("unexpected completion {other:?}"),
                }
            }
        }
        drop(clients);
        table.shutdown();
    }

    #[test]
    fn key_refs_route_identically_everywhere() {
        assert_eq!(
            KeyRef::Bytes(b"abc").hash(),
            cphash_kvproto::envelope::hash_key(b"abc")
        );
        assert_eq!(KeyRef::Hash(u64::MAX).hash(), cphash_hashcore::MAX_KEY);
        assert_eq!(KeyRef::from(7u64), KeyRef::Hash(7));
        let b: KeyRef = (&b"xy"[..]).into();
        assert_eq!(b, KeyRef::Bytes(b"xy"));
    }
}
