//! The migration control plane: a hidden client whose lanes carry only
//! migration protocol messages.
//!
//! Every server thread gets one extra duplex lane beyond its per-client
//! lanes.  The [`ControlHandle`] owns the client side of all of them plus a
//! reference to the shared [`EpochRouter`]; the `cphash-migrate`
//! coordinator drives grow/shrink transitions through it.  Exactly one
//! control handle exists per table ([`crate::CpHash::take_control`]).

use std::sync::Arc;

use cphash_channel::DuplexClient;

use crate::client::TableError;
use crate::protocol::{encode, MigrationStep, Request, Response};
use crate::router::EpochRouter;

/// Client-side endpoint of the control lanes, one per spawned server.
pub struct ControlHandle {
    lanes: Vec<DuplexClient<u64, Response>>,
    router: Arc<EpochRouter>,
}

impl ControlHandle {
    pub(crate) fn new(lanes: Vec<DuplexClient<u64, Response>>, router: Arc<EpochRouter>) -> Self {
        ControlHandle { lanes, router }
    }

    /// The shared routing table.
    pub fn router(&self) -> &Arc<EpochRouter> {
        &self.router
    }

    /// Number of spawned servers (= lanes).
    pub fn servers(&self) -> usize {
        self.lanes.len()
    }

    /// Whether `server`'s thread is still running.
    pub fn is_server_alive(&self, server: usize) -> bool {
        self.lanes[server].is_server_alive()
    }

    /// Send a migration request to one server, its words in one batch
    /// (blocking on ring space), and publish it immediately.
    pub fn send(&mut self, server: usize, request: &Request) -> Result<(), TableError> {
        debug_assert!(matches!(
            request,
            Request::MigratePrepare { .. } | Request::MigrateOut { .. } | Request::MigrateIn { .. }
        ));
        let lane = &mut self.lanes[server];
        if !lane.is_server_alive() {
            return Err(TableError::ServerGone);
        }
        let (w0, w1) = encode(request);
        let words = [w0, w1.unwrap_or_default()];
        while !lane.send_batch(&words[..1 + usize::from(w1.is_some())]) {
            core::hint::spin_loop();
        }
        lane.flush();
        Ok(())
    }

    /// Receive one response from a server, spinning (with yields) until it
    /// arrives or the server thread exits.
    pub fn recv_blocking(&mut self, server: usize) -> Result<Response, TableError> {
        let lane = &mut self.lanes[server];
        let mut idle: u32 = 0;
        loop {
            if let Some(response) = lane.try_recv() {
                return Ok(response);
            }
            if !lane.is_server_alive() {
                return Err(TableError::ServerGone);
            }
            idle = idle.saturating_add(1);
            if idle > 128 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    /// Convenience: send a request and wait for its single response.
    pub fn round_trip(&mut self, server: usize, request: &Request) -> Result<Response, TableError> {
        self.send(server, request)?;
        self.recv_blocking(server)
    }

    /// Convenience: broadcast one step-shaped request to a set of servers,
    /// then collect every response in order. Pipelining the sends lets all
    /// servers work on the step concurrently.
    pub fn broadcast(
        &mut self,
        servers: impl Iterator<Item = usize> + Clone,
        build: impl Fn(MigrationStep) -> Request,
        step: MigrationStep,
    ) -> Result<Vec<(usize, Response)>, TableError> {
        for server in servers.clone() {
            self.send(server, &build(step))?;
        }
        let mut responses = Vec::new();
        for server in servers {
            responses.push((server, self.recv_blocking(server)?));
        }
        Ok(responses)
    }
}

impl core::fmt::Debug for ControlHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ControlHandle")
            .field("servers", &self.lanes.len())
            .finish()
    }
}
