//! The client orders same-key writes only across a routing change.
//!
//! While the router stays at the epoch its in-flight writes were dispatched
//! under, two pipelined writes to one key share a FIFO lane and need no
//! bookkeeping, so none is ever held back.  Once the router moves — a
//! transition begins, or a whole one completes — with writes in flight, a
//! later write to the same key must wait for them: they may be bounced and
//! resubmitted, and must not land after it; nor may a later get to the
//! key overtake them.  These schedules are
//! deterministic: the router is moved by hand through the control handle,
//! and the writes are still queued in the client when it moves.

#[path = "common/history.rs"]
mod history;

use cphash_suite::hashcore::partition_for_key;
use cphash_suite::{CompletionKind, CpHash, CpHashConfig, ValueBytes};

use history::{History, Recorder};

fn value(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

fn read(rec: &Recorder, client: &mut cphash_suite::ClientHandle, key: u64) -> u64 {
    let bytes = rec.get(client, key).expect("lookup").expect("key present");
    u64::from_le_bytes(bytes.as_slice().try_into().expect("8-byte value"))
}

#[test]
fn same_key_write_pairs_in_steady_state_are_never_deferred() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1).with_max_partitions(4));
    let client = &mut clients[0];
    let history = History::default();
    let mut rec = Recorder::new(&history, 0);
    let mut completions = Vec::new();
    for round in 0..200u64 {
        for key in 0..64u64 {
            rec.submit_insert(client, key, &value(2 * round));
            rec.submit_insert(client, key, &value(2 * round + 1));
        }
        completions.clear();
        rec.drain(client, &mut completions).expect("drain");
    }
    assert_eq!(client.write_deferrals(), 0);
    for key in 0..64u64 {
        assert_eq!(read(&rec, client, key), 399);
    }
    drop(clients);
    table.shutdown();
    history
        .check()
        .expect("every get read its key's last write");
}

#[test]
fn a_write_submitted_mid_transition_waits_for_earlier_writes_to_its_key() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1).with_max_partitions(4));
    let control = table.take_control().expect("control");
    let client = &mut clients[0];
    let history = History::default();
    let mut rec = Recorder::new(&history, 0);
    let key = 42;
    rec.submit_insert(client, key, &value(1));
    rec.submit_insert(client, key, &value(2));
    assert_eq!(client.write_deferrals(), 0, "steady state: no ordering");

    // A transition begins while both writes are in flight.  Nothing has
    // moved (the watermark is at zero), so nothing bounces; the later write
    // is held all the same, since from here on a bounce is possible.
    control.router().begin_transition(4).expect("begin");
    rec.submit_insert(client, key, &value(3));
    assert_eq!(client.write_deferrals(), 1, "the later write is held");
    let mut completions = Vec::new();
    rec.drain(client, &mut completions).expect("drain");
    assert_eq!(completions.len(), 3);
    // No chunk was handed off, so the old count still owns every key.
    control.router().force_complete(2);
    assert_eq!(read(&rec, client, key), 3);
    drop(control);
    drop(clients);
    table.shutdown();
    history
        .check()
        .expect("every get read its key's last write");
}

#[test]
fn a_get_submitted_mid_transition_sees_the_held_write_before_it() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1).with_max_partitions(4));
    let control = table.take_control().expect("control");
    let client = &mut clients[0];
    let history = History::default();
    let mut rec = Recorder::new(&history, 0);
    let key = 42;
    rec.submit_insert(client, key, &value(1));
    control.router().begin_transition(4).expect("begin");
    rec.submit_insert(client, key, &value(2));
    assert_eq!(client.write_deferrals(), 1, "the later write is held");
    // The lookup waits behind the held write rather than overtaking it.
    let lookup = rec.submit_lookup(client, key);
    assert_eq!(client.write_deferrals(), 1, "gets are not counted");
    let mut completions = Vec::new();
    rec.drain(client, &mut completions).expect("drain");
    let got = completions
        .iter()
        .find(|c| c.token == lookup)
        .expect("lookup completed");
    assert_eq!(
        got.kind,
        CompletionKind::LookupHit(ValueBytes::from_slice(&value(2)))
    );
    control.router().force_complete(2);
    drop(control);
    drop(clients);
    table.shutdown();
    history
        .check()
        .expect("every get read its key's last write");
}

#[test]
fn writes_bounced_across_a_completed_routing_change_stay_in_order() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1).with_max_partitions(4));
    let control = table.take_control().expect("control");
    let client = &mut clients[0];
    let history = History::default();
    let mut rec = Recorder::new(&history, 0);
    // A key whose owner differs between two and four partitions.
    let key = (0..)
        .find(|&k| partition_for_key(k, 2) != partition_for_key(k, 4))
        .expect("some key moves");
    rec.submit_insert(client, key, &value(1));
    rec.submit_insert(client, key, &value(2));

    // A whole transition completes (by hand, moving no data) while both
    // writes are still queued for the old owner: it will bounce them both to
    // the new one, and the third write must not overtake them there.
    let router = control.router();
    router.begin_transition(4).expect("begin");
    router.advance_watermark(router.chunks());
    rec.submit_insert(client, key, &value(3));
    assert_eq!(client.write_deferrals(), 1, "the later write is held");
    let mut completions = Vec::new();
    rec.drain(client, &mut completions).expect("drain");
    assert_eq!(completions.len(), 3);
    assert_eq!(client.migration_retries(), 2, "both early writes bounced");
    assert_eq!(read(&rec, client, key), 3);

    // Stable again: same-key pairs go out untracked.
    let deferrals = client.write_deferrals();
    rec.submit_insert(client, key, &value(4));
    rec.submit_insert(client, key, &value(5));
    rec.drain(client, &mut completions).expect("drain");
    assert_eq!(client.write_deferrals(), deferrals);
    assert_eq!(read(&rec, client, key), 5);
    drop(control);
    drop(clients);
    table.shutdown();
    history
        .check()
        .expect("every get read its key's last write");
}
