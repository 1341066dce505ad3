//! The worker loop of the synchronous servers (LOCKSERVER and the
//! memcached-style baseline).
//!
//! Both answer a request by calling straight into a table that does its own
//! locking, so one loop serves both: wait on the reactor, accept on the
//! worker's own listener, read each ready connection once, execute its
//! requests against a [`SyncStore`], write the replies back.  What differs
//! between the two servers is the store behind the three calls — a
//! lock-per-partition [`LockHash`], or one [`Partition`] behind one global
//! mutex — which is the comparison the paper draws (§4.2, §7).

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use cphash_hashcore::Partition;
use cphash_kvproto::{envelope, ErrCode, OpFrame, OpKind, Reply, Status};
use cphash_lockhash::LockHash;
use parking_lot::Mutex;

use crate::acceptor::drain_accepts;
use crate::connection::{adopt, settle, Connection, Settle};
use crate::metrics::ServerMetrics;
use crate::reactor::{raw_fd_of, Reactor, LISTENER_TOKEN};

/// A table whose operations complete before the call returns; concurrency
/// control is the store's own business.
pub(crate) trait SyncStore {
    /// Copy `key`'s value into `out`; `false` on a miss.
    fn lookup(&self, key: u64, out: &mut Vec<u8>) -> bool;
    /// Store `value` under `key`; `false` when it cannot be made to fit.
    fn insert(&self, key: u64, value: &[u8]) -> bool;
    /// Remove `key`; `false` when it was absent.
    fn delete(&self, key: u64) -> bool;
}

impl SyncStore for LockHash {
    fn lookup(&self, key: u64, out: &mut Vec<u8>) -> bool {
        LockHash::lookup(self, key, out)
    }

    fn insert(&self, key: u64, value: &[u8]) -> bool {
        LockHash::insert(self, key, value)
    }

    fn delete(&self, key: u64) -> bool {
        LockHash::delete(self, key)
    }
}

/// The single global lock: every operation serializes on it.
impl SyncStore for Mutex<Partition> {
    fn lookup(&self, key: u64, out: &mut Vec<u8>) -> bool {
        self.lock().lookup_copy(key, out)
    }

    fn insert(&self, key: u64, value: &[u8]) -> bool {
        self.lock().insert_copy(key, value).is_ok()
    }

    fn delete(&self, key: u64) -> bool {
        self.lock().delete(key)
    }
}

/// Serve `listener`'s connections from `store` until `stop` is raised.
///
/// Responses are synchronous, so the worker can always sleep in the reactor
/// between events; back-logged output is watched via write interest.
/// `server` names the server in the reply to the unsupported RESIZE command.
pub(crate) fn serve_sync<S: SyncStore>(
    listener: TcpListener,
    store: &S,
    server: &str,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
) {
    // The listener is this worker's only source of connections; without a
    // reactor watching it the worker would be deaf forever, so fail loudly
    // at startup instead.
    let mut reactor =
        Reactor::new(Arc::clone(&metrics.frontend)).expect("creating the worker's reactor");
    reactor
        .register(raw_fd_of(&listener), LISTENER_TOKEN, false)
        .expect("registering the worker's listener on the reactor");
    let mut connections: Vec<Option<Connection>> = Vec::new();
    let mut accepted: Vec<std::net::TcpStream> = Vec::new();
    let mut requests = Vec::with_capacity(256);
    let mut value_buf = Vec::with_capacity(256);
    let mut ready: Vec<usize> = Vec::with_capacity(256);
    // Poll without blocking while the previous iteration served anything,
    // so the busy-poll backend's idle back-off resets under load.
    let mut did_work = false;

    // relaxed: stop flag; shutdown needs no ordering
    while !stop.load(Ordering::Relaxed) {
        ready.clear();
        let timeout = (!did_work).then(|| Duration::from_millis(25));
        let _ = reactor.wait(&mut ready, timeout);
        did_work = false;

        // Index loop: newly accepted connections are appended to `ready`
        // mid-iteration so their first bytes are served this pass.
        let mut ready_idx = 0;
        while ready_idx < ready.len() {
            let token = ready[ready_idx];
            ready_idx += 1;
            if token == LISTENER_TOKEN {
                drain_accepts(&listener, &mut accepted);
                for stream in accepted.drain(..) {
                    let adopted = Connection::new(stream).is_ok_and(|conn| {
                        adopt(&mut connections, &mut reactor, &mut ready, conn, |c| c)
                    });
                    if adopted {
                        metrics.note_connection();
                        did_work = true;
                    }
                }
                continue;
            }
            let Some(conn) = connections.get_mut(token).and_then(|c| c.as_mut()) else {
                continue;
            };
            requests.clear();
            let read = conn.poll_requests(&mut requests);
            metrics.note_io(read, 0);
            did_work |= !requests.is_empty();
            for request in requests.drain(..) {
                let OpFrame { kind, key, value } = request.frame;
                match kind {
                    OpKind::Lookup => {
                        let hit = store.lookup(key.hash(), &mut value_buf);
                        // Byte keys store §8.2 envelopes: verify the stored
                        // key and read collisions as misses.  Hit values
                        // encode straight from the lookup buffer.
                        let verified = if hit {
                            envelope::verify_stored(key.as_ref(), &value_buf)
                        } else {
                            None
                        };
                        metrics.note_lookup(verified.is_some());
                        match verified {
                            Some(v) => {
                                conn.queue_reply_parts(Status::Ok, ErrCode::None, v);
                            }
                            None => conn.queue_reply(&Reply::miss()),
                        }
                    }
                    OpKind::Insert => {
                        let (hash, stored) = envelope::stored_form(key.as_ref(), &value);
                        // The envelope may push a near-limit value past
                        // MAX_VALUE_BYTES; storing it would later produce
                        // replies no client decoder accepts.
                        let ok = stored.len() <= cphash_kvproto::MAX_VALUE_BYTES
                            && store.insert(hash, &stored);
                        metrics.note_insert();
                        conn.queue_reply(&if ok {
                            Reply::ok()
                        } else {
                            Reply::err(ErrCode::Capacity, b"ERR table out of capacity".to_vec())
                        });
                    }
                    OpKind::Delete => {
                        let found = store.delete(key.hash());
                        metrics.note_delete();
                        conn.queue_reply(&if found { Reply::ok() } else { Reply::miss() });
                    }
                    OpKind::Resize => {
                        // These tables are statically sized; report the
                        // unsupported admin command instead of hanging the
                        // client's ordered response stream.
                        conn.queue_reply(&Reply::err(
                            ErrCode::Unsupported,
                            format!("ERR resize unsupported on {server}").into_bytes(),
                        ));
                    }
                    OpKind::Stats => {
                        // Admin op: the reply value is the full metrics
                        // snapshot in Prometheus text format.
                        // Rendering samples the partition counters through
                        // the store's locks, none of which is held here.
                        metrics.note_stats();
                        let text = metrics.render_prometheus();
                        conn.queue_reply_parts(Status::Ok, ErrCode::None, text.as_bytes());
                    }
                }
            }
            if settle(conn, &mut reactor, token, metrics) == Settle::Retired {
                connections[token] = None;
            }
        }
    }
}
