//! Bidirectional client ↔ server message lanes.
//!
//! "For each server and client pair there are two arrays of buffers — one
//! for each direction of communication" (§3.4).  [`duplex`] builds exactly
//! that: a request ring (client → server) and a response ring
//! (server → client), returning the client-side and server-side endpoints.

use std::sync::Arc;

use crate::ring::{ring, Consumer, Producer, RingConfig};
use crate::{ChannelStats, Doorbell, QueueFull};

/// Client-side endpoint: sends requests, receives responses.
pub struct DuplexClient<Req, Resp> {
    requests: Producer<Req>,
    responses: Consumer<Resp>,
}

/// Server-side endpoint: receives requests, sends responses.
pub struct DuplexServer<Req, Resp> {
    requests: Consumer<Req>,
    responses: Producer<Resp>,
}

/// Create a connected pair of duplex endpoints with the given ring config
/// used for both directions.
pub fn duplex<Req, Resp>(config: RingConfig) -> (DuplexClient<Req, Resp>, DuplexServer<Req, Resp>)
where
    Req: Copy + Send,
    Resp: Copy + Send,
{
    let (req_tx, req_rx) = ring::<Req>(config);
    let (resp_tx, resp_rx) = ring::<Resp>(config);
    (
        DuplexClient {
            requests: req_tx,
            responses: resp_rx,
        },
        DuplexServer {
            requests: req_rx,
            responses: resp_tx,
        },
    )
}

impl<Req: Copy + Send, Resp: Copy + Send> DuplexClient<Req, Resp> {
    /// Ring `doorbell` from every [`DuplexClient::flush`] that has queued
    /// requests since the previous one (see [`Producer::with_doorbell`]).
    /// All the request rings of one server share one doorbell.
    pub fn with_doorbell(mut self, doorbell: Arc<Doorbell>) -> Self {
        self.requests = self.requests.with_doorbell(doorbell);
        self
    }

    /// Queue a request; the server sees it at the next
    /// [`DuplexClient::flush`] or [`DuplexClient::send_batch`].
    #[inline]
    pub fn try_send(&mut self, request: Req) -> Result<(), QueueFull<Req>> {
        self.requests.try_push(request)
    }

    /// Queue a request, spinning until there is room.
    #[inline]
    pub fn send_blocking(&mut self, request: Req) {
        self.requests.push_blocking(request)
    }

    /// Queue and publish a batch of requests whole, with one capacity check
    /// and one index publish, or — when the ring lacks room for all of
    /// them — none, returning `false` (see [`Producer::push_whole`]).  This
    /// is how a client hands one poll round's requests to the ring, and what
    /// a server may rely on: a message of several words that a client sent
    /// in one batch is never visible in part, so the server that reads its
    /// first word can read the rest without waiting.  Publishing is not
    /// ringing: a [`DuplexClient::flush`] must follow before the sender goes
    /// quiet.
    #[inline]
    pub fn send_batch(&mut self, requests: &[Req]) -> bool {
        self.requests.push_whole(requests)
    }

    /// Publish the queued requests to the server and wake it if it sleeps
    /// behind a doorbell.  Returns whether it did wake the
    /// server (see [`Producer::flush`]).
    #[inline]
    pub fn flush(&mut self) -> bool {
        self.requests.flush()
    }

    /// Receive one response, if any is visible.
    #[inline]
    pub fn try_recv(&mut self) -> Option<Resp> {
        self.responses.try_pop()
    }

    /// Drain up to `max` responses into `out`.
    #[inline]
    pub fn recv_batch(&mut self, out: &mut Vec<Resp>, max: usize) -> usize {
        self.responses.pop_batch(out, max)
    }

    /// Whether the server endpoint still exists.
    pub fn is_server_alive(&self) -> bool {
        self.requests.is_peer_alive()
    }

    /// Statistics of the request ring (client → server).
    pub fn request_stats(&self) -> &ChannelStats {
        self.requests.stats()
    }

    /// Statistics of the response ring (server → client).
    pub fn response_stats(&self) -> &ChannelStats {
        self.responses.stats()
    }
}

impl<Req: Copy + Send, Resp: Copy + Send> DuplexServer<Req, Resp> {
    /// Receive one request, if any is visible.
    #[inline]
    pub fn try_recv(&mut self) -> Option<Req> {
        self.requests.try_pop()
    }

    /// Drain up to `max` requests into `out`.
    #[inline]
    pub fn recv_batch(&mut self, out: &mut Vec<Req>, max: usize) -> usize {
        self.requests.pop_batch(out, max)
    }

    /// Queue a response, spinning until there is room.
    #[inline]
    pub fn send_blocking(&mut self, response: Resp) {
        self.responses.push_blocking(response)
    }

    /// Queue and publish a whole batch of responses with one
    /// synchronization round; returns how many were accepted (see
    /// [`crate::Producer::push_batch`]).  This is the server's reply path:
    /// one capacity check and one index publish per *batch* of responses.
    #[inline]
    pub fn send_batch(&mut self, responses: &[Resp]) -> usize {
        self.responses.push_batch(responses)
    }

    /// Publish the queued responses to the client.
    #[inline]
    pub fn flush(&mut self) {
        self.responses.flush();
    }

    /// Number of requests currently visible from the client.
    pub fn pending_requests(&mut self) -> usize {
        self.requests.available()
    }

    /// Whether the client endpoint still exists.
    pub fn is_client_alive(&self) -> bool {
        self.requests.is_peer_alive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn request_response_round_trip() {
        let (mut client, mut server) = duplex::<u64, u64>(RingConfig::with_capacity(64));
        for i in 0..10u64 {
            client.try_send(i).unwrap();
        }
        client.flush();
        let mut reqs = Vec::new();
        server.recv_batch(&mut reqs, 64);
        assert_eq!(reqs.len(), 10);
        let resps: Vec<u64> = reqs.iter().map(|r| r * 10).collect();
        assert_eq!(server.send_batch(&resps), 10);
        let mut resps = Vec::new();
        client.recv_batch(&mut resps, 64);
        assert_eq!(resps, (0..10).map(|i| i * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn liveness_both_directions() {
        let (client, server) = duplex::<u8, u8>(RingConfig::default());
        assert!(client.is_server_alive());
        assert!(server.is_client_alive());
        drop(server);
        assert!(!client.is_server_alive());
    }

    #[test]
    fn pipelined_client_keeps_server_busy() {
        // A client queues a large batch before the server ever runs —
        // the "client can continue working and schedule operations" claim.
        const N: u64 = 10_000;
        let (mut client, mut server) = duplex::<u64, u64>(RingConfig::with_capacity(1024));
        let server_thread = thread::spawn(move || {
            let mut processed = 0u64;
            let mut batch = Vec::with_capacity(256);
            while processed < N {
                batch.clear();
                if server.recv_batch(&mut batch, 256) == 0 {
                    core::hint::spin_loop();
                    continue;
                }
                for req in &batch {
                    server.send_blocking(req + 1);
                }
                server.flush();
                processed += batch.len() as u64;
            }
        });
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut sum = 0u64;
        let mut resps = Vec::with_capacity(256);
        while received < N {
            while sent < N && client.try_send(sent).is_ok() {
                sent += 1;
            }
            client.flush();
            resps.clear();
            client.recv_batch(&mut resps, 256);
            for r in &resps {
                sum += r;
                received += 1;
            }
        }
        server_thread.join().unwrap();
        // sum of (i+1) for i in 0..N
        assert_eq!(sum, N * (N + 1) / 2);
        // Batching actually happened: far fewer flushes than messages.
        assert!(client.request_stats().flushes() < N / 4);
    }
}
