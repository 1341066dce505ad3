//! The wake-up half of a sleeping consumer.
//!
//! The paper's server thread "continuously loops over the message queues"
//! (§3.2) because it owns a core.  A consumer that shares its CPU wants to
//! sleep once its rings have been empty for a while, and then every
//! producer has to be able to wake it without paying for that ability on
//! the hot path.  A [`Doorbell`] is the one flag all producers of one
//! consumer share:
//!
//! * the consumer announces `parked`, fences, looks at its rings once
//!   more, and only then sleeps ([`Doorbell::park_unless`]);
//! * a producer publishes its write index, fences, and looks at `parked`
//!   ([`Doorbell::ring`], called from the *explicit*
//!   [`crate::Producer::flush`] — never from the per-cache-line publish
//!   inside `try_push`, where the fence would drain the store buffer
//!   behind every value copy).
//!
//! Each side writes its own word and then reads the other's, with a
//! `SeqCst` fence in between (Dekker's shape): whichever fence comes second
//! in the fences' total order sees the other side's write, so either the
//! consumer finds the message or the producer finds the flag.

use std::sync::OnceLock;

use cphash_sync::atomic::{fence, AtomicBool, Ordering};
use cphash_sync::thread::{self, Thread};

/// A sleeping consumer's wake-up flag, shared by every producer that feeds
/// it.
#[derive(Debug, Default)]
pub struct Doorbell {
    /// Set by the consumer before it sleeps; cleared by whoever calls the
    /// sleep off (the producer that wins the swap, or the consumer itself
    /// when it finds work on the re-check).
    parked: AtomicBool,
    /// The consumer's thread, recorded the first time it gets here.
    sleeper: OnceLock<Thread>,
}

impl Doorbell {
    /// A doorbell nobody sleeps behind yet.
    pub fn new() -> Doorbell {
        Doorbell::default()
    }

    /// Consumer side: sleep until rung, unless `pending` finds something to
    /// do first.  Returns whether the thread actually slept.
    ///
    /// `pending` must look at everything a [`Doorbell::ring`] can announce
    /// (every ring's published write index, a stop flag); it runs *after*
    /// the flag is up, which is the whole protocol — checking first and
    /// announcing second loses the message published in between.  Call from
    /// one thread only.  Like [`std::thread::park`] the sleep may end
    /// early; the caller goes back to polling either way.
    pub fn park_unless(&self, mut pending: impl FnMut() -> bool) -> bool {
        self.sleeper.get_or_init(thread::current);
        // relaxed: the fence below orders this store before the re-check
        self.parked.store(true, Ordering::Relaxed);
        // ordering: StoreLoad — the announce above must be globally visible
        // before the ring indices are read, pairing with the fence in
        // `ring()`.  The model checker explores sequentially consistent
        // interleavings only, so it proves the order of these steps, not
        // this fence; `doorbell_publish_park_stress` (cphash-modelcheck's
        // stress mirrors) is the hardware check, and does hang without it.
        fence(Ordering::SeqCst);
        if pending() {
            // relaxed: withdrawing the announce; a ring that already saw it
            // leaves a token that ends the next sleep early, nothing more
            self.parked.store(false, Ordering::Relaxed);
            return false;
        }
        // A ring takes the flag down with its swap.  A sleep that ends on
        // its own leaves it up, and the next ring hands this (by then
        // awake) thread a token that ends one later sleep early: harmless,
        // and cheaper than a store after every wake-up to prevent it.
        thread::park();
        true
    }

    /// Seeded-bug hook for the model-check regression suite: look for work
    /// *before* raising the flag.  A message published between the look and
    /// the announce finds the flag down and the consumer about to sleep —
    /// the canonical lost wake-up, which the checker must report and
    /// replay.  Only exists in model builds.
    #[cfg(cphash_model)]
    pub fn park_check_then_announce_for_modelcheck(
        &self,
        mut pending: impl FnMut() -> bool,
    ) -> bool {
        self.sleeper.get_or_init(thread::current);
        if pending() {
            return false;
        }
        // relaxed: intentionally too late — this is the seeded bug.
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        thread::park();
        true
    }

    /// Producer side: wake the consumer if it is asleep (or about to be).
    /// Call after publishing whatever the consumer should find.  Returns
    /// whether this call ended a sleep.
    #[inline]
    pub fn ring(&self) -> bool {
        // ordering: StoreLoad — the caller's publish (a Release store of a
        // write index, or of a stop flag) must be globally visible before
        // `parked` is read, pairing with the fence in `park_unless()`:
        // without it this load may be satisfied while the publish still
        // sits in the store buffer, the consumer's re-check misses the
        // message, and neither side acts.  Proved as a step order by the
        // model; the stress mirror could not make its absence fail on x86
        // (see there), so this comment is the argument.
        fence(Ordering::SeqCst);
        // relaxed: ordered by the fence above; the swap below decides
        if !self.parked.load(Ordering::Relaxed) {
            return false;
        }
        self.wake()
    }

    /// The rare half of [`Doorbell::ring`]: exactly one of the producers
    /// that saw the flag wins the swap and pays for the wake-up.
    #[cold]
    fn wake(&self) -> bool {
        if !self.parked.swap(false, Ordering::AcqRel) {
            return false;
        }
        if let Some(sleeper) = self.sleeper.get() {
            sleeper.unpark();
        }
        true
    }
}

#[cfg(all(test, not(cphash_model)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_without_a_sleeper_is_a_no_op() {
        let bell = Doorbell::new();
        assert!(!bell.ring());
    }

    #[test]
    fn pending_work_cancels_the_sleep() {
        let bell = Doorbell::new();
        assert!(!bell.park_unless(|| true));
        // The withdrawn announce leaves nothing for a later ring to wake.
        assert!(!bell.ring());
    }

    #[test]
    fn ring_ends_a_sleep_exactly_once() {
        let bell = Arc::new(Doorbell::new());
        let sleeper = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.park_unless(|| false))
        };
        // Keep ringing until one ring finds the flag up; that one wakes.
        while !bell.ring() {
            std::thread::yield_now();
        }
        assert!(sleeper.join().unwrap(), "the consumer slept and was woken");
        assert!(!bell.ring(), "the flag went down with the wake-up");
    }
}
