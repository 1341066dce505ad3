//! TCP load generator for CPSERVER / LOCKSERVER.
//!
//! The paper drives its key/value servers from a second machine over
//! 10 GbE (§7).  Here the load generator runs over loopback (or any
//! address): a set of generator threads, each owning several connections,
//! sends pipelined batches of LOOKUP/INSERT requests and reads back the
//! responses.  Batching over the socket mirrors how the paper's TCP
//! clients "gather as many requests as possible … in a single batch".
//!
//! Each connection is a [`cphash::RemoteClient`] driven through the
//! [`cphash::KvClient`] trait — the same client the examples and admin
//! tools use — so the generator owns no wire code of its own.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};

use cphash::{Completion, CompletionKind, KeyRef, KvClient, KvOp, RemoteClient};
use cphash_perfmon::Stopwatch;

use crate::ops::{Op, OpStream};
use crate::workload::WorkloadSpec;

/// Options for a TCP load-generation run.
#[derive(Debug, Clone)]
pub struct TcpLoadOptions {
    /// Server address.
    pub addr: SocketAddr,
    /// Generator threads.
    pub threads: usize,
    /// Connections per generator thread.
    pub connections_per_thread: usize,
    /// Requests sent per batch before reading responses back.
    pub pipeline: usize,
}

impl Default for TcpLoadOptions {
    fn default() -> Self {
        TcpLoadOptions {
            addr: "127.0.0.1:0".parse().expect("valid literal address"),
            threads: 2,
            connections_per_thread: 2,
            pipeline: 64,
        }
    }
}

/// Result of a TCP load run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpLoadResult {
    /// Requests sent (lookups + inserts).
    pub operations: u64,
    /// Lookups that returned a value.
    pub lookup_hits: u64,
    /// Lookups sent.
    pub lookups: u64,
    /// Wall-clock seconds for the timed phase.
    pub elapsed_secs: f64,
}

impl TcpLoadResult {
    /// Requests per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.operations as f64 / self.elapsed_secs
        }
    }
}

/// Drive `spec.operations` requests at the server and measure throughput.
pub fn run_tcp_load(spec: &WorkloadSpec, opts: &TcpLoadOptions) -> std::io::Result<TcpLoadResult> {
    spec.validate();
    assert!(opts.threads > 0 && opts.connections_per_thread > 0 && opts.pipeline > 0);

    let barrier = Arc::new(Barrier::new(opts.threads + 1));
    let mut workers = Vec::with_capacity(opts.threads);
    for index in 0..opts.threads {
        let barrier = Arc::clone(&barrier);
        let spec = *spec;
        let opts = opts.clone();
        let ops = spec.operations / opts.threads as u64
            + u64::from((index as u64) < spec.operations % opts.threads as u64);
        workers.push(std::thread::spawn(
            move || -> std::io::Result<(u64, u64, u64)> {
                let mut connections: Vec<RemoteClient> = (0..opts.connections_per_thread)
                    .map(|_| RemoteClient::connect(opts.addr))
                    .collect::<Result<_, _>>()?;
                let mut stream_ops = OpStream::for_client(&spec, index, ops);
                let mut completions: Vec<Completion> = Vec::with_capacity(opts.pipeline);
                let mut sent = 0u64;
                let mut lookups = 0u64;
                let mut hits = 0u64;
                barrier.wait();

                'outer: loop {
                    for client in &mut connections {
                        // Submit one pipelined batch on this connection.
                        let mut batch_ops = 0usize;
                        while batch_ops < opts.pipeline {
                            match stream_ops.next() {
                                Some(Op::Lookup(key)) => {
                                    client.submit(KvOp::Get(KeyRef::Hash(key)));
                                    lookups += 1;
                                }
                                Some(Op::Insert(key)) => {
                                    client.submit(KvOp::Insert(
                                        KeyRef::Hash(key),
                                        &key.to_le_bytes(),
                                    ));
                                }
                                None => break,
                            }
                            batch_ops += 1;
                        }
                        if batch_ops == 0 {
                            break 'outer;
                        }
                        sent += batch_ops as u64;
                        // Drain the batch before pipelining the next one, the
                        // way the paper's clients alternate send and receive
                        // phases.
                        while client.pending_ops() > 0 {
                            completions.clear();
                            if client.poll_completions(&mut completions) == 0 {
                                if !client.is_alive() {
                                    return Err(std::io::Error::new(
                                        ErrorKind::UnexpectedEof,
                                        "server connection died mid-batch",
                                    ));
                                }
                                std::thread::yield_now();
                            }
                            for completion in &completions {
                                if matches!(completion.kind, CompletionKind::LookupHit(_)) {
                                    hits += 1;
                                }
                            }
                        }
                    }
                }
                Ok((sent, lookups, hits))
            },
        ));
    }

    barrier.wait();
    let watch = Stopwatch::start();
    let mut result = TcpLoadResult::default();
    for worker in workers {
        let (sent, lookups, hits) = worker.join().expect("load thread panicked")?;
        result.operations += sent;
        result.lookups += lookups;
        result.lookup_hits += hits;
    }
    result.elapsed_secs = watch.elapsed_secs();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stub_server::spawn_stub_server;

    #[test]
    fn load_generator_accounts_for_every_request() {
        let addr = spawn_stub_server();
        let spec = WorkloadSpec {
            working_set_bytes: 8 * 1024,
            capacity_bytes: 8 * 1024,
            operations: 4_000,
            insert_ratio: 0.3,
            prefill: false,
            ..Default::default()
        };
        let opts = TcpLoadOptions {
            addr,
            threads: 2,
            connections_per_thread: 2,
            pipeline: 32,
        };
        let result = run_tcp_load(&spec, &opts).expect("load run succeeds");
        assert_eq!(result.operations, spec.operations);
        assert!(result.lookups > 0);
        assert!(result.lookup_hits > 0);
        assert!(result.lookup_hits <= result.lookups);
        assert!(result.throughput() > 0.0);
    }
}
