//! A server's part in a live resize: the one migration step it is in, and
//! the pure decision ([`divert`]) of what an operation on a key gets there
//! — served, bounced to another partition, or told to retry here.  A server
//! gets one control message at a time (`control.rs`'s `ChunkMove`), so it is
//! in one step at most, a new step replaces the old, and one the watermark
//! has passed (or whose transition is over) is inert ([`step_is_current`]).

use cphash_hashcore::{migration_chunk, partition_for_key};

use crate::protocol::MigrationStep;
use crate::router::RouterSnapshot;

/// The migration step a server is in, and how far it got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InFlight {
    pub step: MigrationStep,
    /// Announced by `MigratePrepare` and not yet completed by the final
    /// `MigrateIn`: keys arriving here may still be on their way.
    pub incoming: bool,
    /// This server extracted the chunk's leaving keys and handed them off.
    pub handed_off: bool,
    /// A `MigrateOut` whose extraction waits for in-flight inserts to
    /// publish: the control lane its answer goes out on.
    pub draining: Option<usize>,
}

/// A server's migration state: the step in flight, if any.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MigrationState(Option<InFlight>);

impl MigrationState {
    /// The record of `step`: the one held, or a fresh one replacing an
    /// older step.
    fn step_mut(&mut self, step: MigrationStep) -> &mut InFlight {
        if self.0.is_some_and(|held| held.step != step) {
            self.0 = None;
        }
        self.0.get_or_insert(InFlight {
            step,
            incoming: false,
            handed_off: false,
            draining: None,
        })
    }

    /// `MigratePrepare`: the step's chunk is about to arrive here.
    pub(crate) fn announce(&mut self, step: MigrationStep) {
        self.step_mut(step).incoming = true;
    }

    /// `MigrateOut` answered: the chunk's leaving keys have left.
    pub(crate) fn hand_off(&mut self, step: MigrationStep) {
        let held = self.step_mut(step);
        held.handed_off = true;
        held.draining = None;
    }

    /// `MigrateOut` deferred by in-flight inserts; its answer goes out on
    /// control lane `lane` once they publish.
    pub(crate) fn drain(&mut self, step: MigrationStep, lane: usize) {
        self.step_mut(step).draining = Some(lane);
    }

    /// The final `MigrateIn` of `step` was absorbed: every arriving key is
    /// here.
    pub(crate) fn land(&mut self, step: MigrationStep) {
        if let Some(held) = self.0.as_mut().filter(|held| held.step == step) {
            held.incoming = false;
        }
    }

    /// The drain in progress: its control lane and step.
    pub(crate) fn draining(&self) -> Option<(usize, MigrationStep)> {
        self.0.and_then(|held| Some((held.draining?, held.step)))
    }
}

/// Whether `step` still describes the live transition: the same partition
/// counts, and the watermark not yet past its chunk.
pub(crate) fn step_is_current(step: &MigrationStep, snap: &RouterSnapshot) -> bool {
    snap.in_transition()
        && snap.old_partitions == step.old_partitions
        && snap.new_partitions == step.new_partitions
        && step.chunk >= snap.watermark
}

/// Whether server `index` must redirect an operation on `key` instead of
/// serving it: `None` serves it here, `Some(p)` retries it at partition
/// `p` — possibly this one, meaning "ask again shortly".
pub(crate) fn divert(
    snap: &RouterSnapshot,
    chunks: usize,
    state: &MigrationState,
    index: usize,
    key: u64,
) -> Option<usize> {
    // Pre-watermark, a key of the chunk in flight routes to its old owner.
    let owner = snap.route(key, chunks);
    let in_flight = state
        .0
        .filter(|held| step_is_current(&held.step, snap))
        .filter(|held| held.step.chunk == migration_chunk(key, chunks));
    let Some(held) = in_flight else {
        // Serve what we own, bounce what we don't (a stale in-flight
        // request routed under an old mapping).
        return (owner != index).then_some(owner);
    };
    let new_owner = partition_for_key(key, held.step.new_partitions);
    if new_owner == index && owner != index {
        // An arriving key.  Checked before the ownership rule, which would
        // bounce it straight back to the old owner that sent it here.  It
        // may be in a delivery not yet absorbed, so the client asks again
        // until the final one lands; from then on it is served here, since
        // every source extracted before any delivery went out.
        return held.incoming.then_some(index);
    }
    if owner != index {
        return Some(owner);
    }
    if new_owner == index {
        return None;
    }
    if held.handed_off {
        // Extracted: the new owner has (or will have) the key before the
        // client's retry arrives there.
        Some(new_owner)
    } else if held.draining.is_some() {
        // A new insert of a leaving key would keep extending the drain, so
        // it waits for the extraction.  Deletes and lookups wait too: one
        // served here while an earlier insert of its key is bounced would
        // run ahead of it.
        Some(index)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MigrationState {
        /// Whether the step held still waits for its final delivery (the
        /// chunk-move test reads it at quiescence).
        pub(crate) fn is_incoming(&self) -> bool {
            self.0.is_some_and(|held| held.incoming)
        }
    }

    /// Chunks of the modelled table; the one in flight has moved chunks
    /// below it and unmoved ones above it.
    const CHUNKS: usize = 4;
    const IN_FLIGHT: usize = 2;
    /// The control lane a drain answers on (any index will do).
    const CONTROL_LANE: usize = 9;

    /// Where a source stands in its `MigrateOut`.
    #[derive(Clone, Copy, PartialEq)]
    enum Source {
        NotYet,
        Draining,
        HandedOff,
    }

    /// The phases of the one chunk in flight, as the coordinator's message
    /// order allows them to mix across servers: within a phase each server
    /// may or may not have reached the phase's next message yet.
    #[derive(Clone, Copy, Debug)]
    enum Phase {
        /// Receivers take `MigratePrepare`.
        Announcing,
        /// Every receiver announced; sources take `MigrateOut`.
        Extracting,
        /// Every source handed off; receivers take their final delivery.
        Delivering,
        /// The watermark passed the chunk.
        Passed,
    }

    /// One server's state and where the key's bytes live, for one mix.
    struct World {
        snap: RouterSnapshot,
        states: Vec<MigrationState>,
        sources: Vec<Source>,
        landed: Vec<bool>,
    }

    impl World {
        /// The server holding `key`'s bytes, `None` while they travel.
        fn resident(&self, key: u64, step: &MigrationStep) -> Option<usize> {
            let old = partition_for_key(key, step.old_partitions);
            let new = partition_for_key(key, step.new_partitions);
            match migration_chunk(key, CHUNKS) {
                c if c < self.snap.watermark => Some(new),
                c if c > IN_FLIGHT || old == new => Some(old),
                _ if self.sources[old] != Source::HandedOff => Some(old),
                _ => self.landed[new].then_some(new),
            }
        }
    }

    /// Every mix of per-server progress `phase` allows, built through the
    /// same transitions the server applies, on top of a stale earlier step.
    fn worlds(old: usize, new: usize, phase: Phase) -> Vec<World> {
        let servers = old.max(new);
        let step = MigrationStep {
            chunk: IN_FLIGHT,
            old_partitions: old,
            new_partitions: new,
        };
        let earlier = MigrationStep {
            chunk: IN_FLIGHT - 1,
            ..step
        };
        // Per server, the choices its progress has in this phase.
        let choices = |server: usize| -> Vec<(bool, Source, bool)> {
            let (receiver, source) = (server < new, server < old);
            let all = [Source::NotYet, Source::Draining, Source::HandedOff];
            match phase {
                Phase::Announcing if receiver => {
                    vec![
                        (false, Source::NotYet, false),
                        (true, Source::NotYet, false),
                    ]
                }
                Phase::Extracting if source => all.iter().map(|&s| (receiver, s, false)).collect(),
                Phase::Delivering | Phase::Passed => {
                    let done = if source {
                        Source::HandedOff
                    } else {
                        Source::NotYet
                    };
                    let lands: &[bool] = match (phase, receiver) {
                        (Phase::Delivering, true) => &[false, true],
                        (_, true) => &[true],
                        _ => &[false],
                    };
                    lands.iter().map(|&l| (receiver, done, l)).collect()
                }
                Phase::Extracting => vec![(receiver, Source::NotYet, false)],
                Phase::Announcing => vec![(false, Source::NotYet, false)],
            }
        };
        let per_server: Vec<_> = (0..servers).map(choices).collect();
        let watermark = match phase {
            Phase::Passed => IN_FLIGHT + 1,
            _ => IN_FLIGHT,
        };
        let snap = RouterSnapshot {
            old_partitions: old,
            new_partitions: new,
            watermark,
            epoch: 1,
        };
        let mut out = Vec::new();
        let mut pick = vec![0usize; servers];
        loop {
            let mut world = World {
                snap,
                states: Vec::new(),
                sources: Vec::new(),
                landed: Vec::new(),
            };
            for (server, &i) in pick.iter().enumerate() {
                let (announced, source, landed) = per_server[server][i];
                let mut state = MigrationState::default();
                state.announce(earlier);
                state.hand_off(earlier);
                if announced {
                    state.announce(step);
                }
                match source {
                    Source::NotYet => {}
                    Source::Draining => state.drain(step, CONTROL_LANE),
                    Source::HandedOff => {
                        state.drain(step, CONTROL_LANE);
                        state.hand_off(step);
                    }
                }
                if landed {
                    state.land(step);
                }
                world.states.push(state);
                world.sources.push(source);
                world.landed.push(landed);
            }
            out.push(world);
            // Next mix, odometer-style.
            let Some(server) = (0..servers).find(|&s| pick[s] + 1 < per_server[s].len()) else {
                return out;
            };
            pick[server] += 1;
            pick[..server].iter_mut().for_each(|p| *p = 0);
        }
    }

    #[test]
    fn one_server_serves_each_key_and_every_bounce_reaches_it_without_a_cycle() {
        let mut checked = 0usize;
        let mut chunks_seen = [false; CHUNKS];
        for old in 1..=4 {
            for new in (1..=4).filter(|&n| n != old) {
                let servers = old.max(new);
                let step = MigrationStep {
                    chunk: IN_FLIGHT,
                    old_partitions: old,
                    new_partitions: new,
                };
                for phase in [
                    Phase::Announcing,
                    Phase::Extracting,
                    Phase::Delivering,
                    Phase::Passed,
                ] {
                    for world in worlds(old, new, phase) {
                        for key in 0..128u64 {
                            chunks_seen[migration_chunk(key, CHUNKS)] = true;
                            let answer = |server: usize| {
                                divert(&world.snap, CHUNKS, &world.states[server], server, key)
                            };
                            let case = format!("{old}->{new} {phase:?} key {key}");
                            let serving: Vec<usize> =
                                (0..servers).filter(|&s| answer(s).is_none()).collect();
                            assert!(serving.len() <= 1, "{case}: served at {serving:?}");
                            if let Some(&at) = serving.first() {
                                assert_eq!(
                                    Some(at),
                                    world.resident(key, &step),
                                    "{case}: served away from its bytes"
                                );
                            }
                            for start in 0..servers {
                                let mut at = start;
                                let mut visited = vec![at];
                                while let Some(next) = answer(at) {
                                    if next == at {
                                        break; // retry here
                                    }
                                    assert!(next < servers, "{case}: bounced to {next}");
                                    assert!(
                                        !visited.contains(&next),
                                        "{case}: bounce cycle {visited:?} -> {next}"
                                    );
                                    visited.push(next);
                                    at = next;
                                }
                                assert!(
                                    visited.len() - 1 <= servers,
                                    "{case}: {} hops from {start}",
                                    visited.len() - 1
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            chunks_seen.iter().all(|&seen| seen),
            "keys cover every chunk"
        );
        assert!(checked > 100_000, "only {checked} walks");
    }

    #[test]
    fn a_new_step_replaces_the_old_and_a_stale_one_is_inert() {
        let step = |chunk| MigrationStep {
            chunk,
            old_partitions: 2,
            new_partitions: 4,
        };
        let mut state = MigrationState::default();
        state.announce(step(0));
        state.drain(step(0), CONTROL_LANE);
        assert_eq!(state.draining(), Some((CONTROL_LANE, step(0))));
        state.hand_off(step(0));
        assert_eq!(state.draining(), None);
        state.announce(step(1));
        assert_eq!(
            state.0,
            Some(InFlight {
                step: step(1),
                incoming: true,
                handed_off: false,
                draining: None,
            })
        );
        // A final delivery of another step leaves the held one alone.
        state.land(step(0));
        assert!(state.0.is_some_and(|held| held.incoming));
        // Past the watermark, every key routes by the snapshot alone.
        let snap = RouterSnapshot {
            old_partitions: 2,
            new_partitions: 4,
            watermark: 2,
            epoch: 1,
        };
        assert!(!step_is_current(&step(1), &snap));
        for key in 0..256u64 {
            let owner = snap.route(key, CHUNKS);
            for index in 0..4 {
                let expected = (owner != index).then_some(owner);
                assert_eq!(divert(&snap, CHUNKS, &state, index, key), expected);
            }
        }
    }
}
