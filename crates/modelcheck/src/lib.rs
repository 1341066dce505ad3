//! Model-check suites for the CPHash concurrency cores.
//!
//! The suites only compile when the atomics facade is in model mode:
//!
//! ```sh
//! RUSTFLAGS="--cfg cphash_model" cargo test -p cphash-modelcheck
//! ```
//!
//! Without the cfg this crate is an empty shell (so plain workspace builds
//! and `cargo test -q` never pay the model-checking cost).

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(cphash_model)]
pub mod suites;

#[cfg(all(test, cphash_model))]
mod tests {
    use crate::suites;

    fn assert_clean(report: loom::Report, what: &str) {
        if let Some(v) = &report.violation {
            panic!("{what} reported a violation:\n{v}");
        }
        assert!(report.executions >= 2, "{what} explored too little");
    }

    #[test]
    fn ring_transfer_no_lost_or_duplicated_slots() {
        assert_clean(suites::check_ring_transfer(), "ring transfer");
    }

    #[test]
    fn ring_seeded_relaxed_publish_is_caught() {
        let report = suites::check_ring_seeded_bug();
        let v = report
            .violation
            .expect("the weakened Relaxed publish must be flagged");
        assert!(
            v.message.contains("data race"),
            "expected a data race, got: {}",
            v.message
        );
        assert!(!v.schedule.is_empty(), "violation must carry a schedule");
        // The schedule must replay: pinning the scheduler to it has to
        // reproduce the same race deterministically, first try.  Compare
        // messages modulo the cell address (re-allocated per run).
        let replayed = suites::replay_ring_seeded_bug(&v.schedule)
            .expect("the recorded schedule failed to reproduce the race");
        let stem = |m: &str| m.split('@').next().unwrap().to_string();
        assert_eq!(stem(&replayed.message), stem(&v.message));
    }

    #[test]
    fn ring_shipped_flush_is_clean_and_exhaustive() {
        let report = suites::check_ring_shipped_flush();
        if let Some(v) = &report.violation {
            panic!("shipped flush flagged:\n{v}");
        }
        // The producer performs two tracked stores (flush publish + drop
        // flag), the consumer one tracked load: the load lands in exactly
        // one of three positions, and all three must have been explored.
        assert_eq!(report.executions, 3, "exploration was not exhaustive");
    }

    #[test]
    fn doorbell_no_lost_wakeup() {
        let report = suites::check_doorbell_no_lost_wakeup();
        // 30 172 interleavings at these bounds; far fewer would mean the
        // consumer stopped reaching its second sleep.
        assert!(
            report.executions >= 10_000,
            "exploration was not exhaustive"
        );
        assert_clean(report, "doorbell handshake");
    }

    #[test]
    fn doorbell_check_then_announce_is_caught() {
        let report = suites::check_doorbell_check_then_announce();
        let v = report
            .violation
            .expect("checking the lanes before raising the flag must lose a wake-up");
        assert!(
            v.message.contains("lost wake-up"),
            "expected a lost wake-up, got: {}",
            v.message
        );
        assert!(!v.schedule.is_empty(), "violation must carry a schedule");
        let replayed = suites::replay_doorbell_check_then_announce(&v.schedule)
            .expect("the recorded schedule failed to reproduce the lost wake-up");
        assert_eq!(replayed.message, v.message);
    }

    #[test]
    fn single_slot_rpc_round_trip() {
        assert_clean(suites::check_single_slot_rpc(), "single-slot RPC");
    }

    #[test]
    fn router_watermark_is_monotonic() {
        assert_clean(
            suites::check_router_watermark_monotonic(),
            "router watermark",
        );
    }

    #[test]
    fn slab_remote_freelist_no_double_alloc() {
        assert_clean(suites::check_slab_remote_freelist(), "remote free list");
    }

    #[test]
    fn spinlock_mutual_exclusion() {
        assert_clean(suites::check_spinlock_mutex(), "spinlock mutex");
    }

    #[test]
    fn ticket_lock_mutual_exclusion() {
        assert_clean(suites::check_ticket_mutex(), "ticket mutex");
    }

    #[test]
    fn anderson_lock_mutual_exclusion() {
        assert_clean(suites::check_anderson_mutex(), "anderson mutex");
    }

    #[test]
    fn ticket_lock_is_fifo() {
        assert_clean(suites::check_ticket_fifo(), "ticket FIFO");
    }

    #[test]
    fn anderson_lock_is_fifo() {
        assert_clean(suites::check_anderson_fifo(), "anderson FIFO");
    }
}
