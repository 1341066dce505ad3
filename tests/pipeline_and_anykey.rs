//! Integration tests for the pipelined client API, arbitrary-length keys
//! (§8.2, `KvClient` with `KeyRef::Bytes`) and the server-utilization
//! snapshot (§6.2) against a live table.

use cphash_suite::{CompletionKind, CpHash, CpHashConfig, KeyRef, KvClient, KvOp, ValueBytes};

#[test]
fn pipelined_and_synchronous_apis_interleave_correctly() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
    let client = &mut clients[0];

    // Queue a pipelined batch, then issue synchronous calls before draining:
    // the synchronous call must not steal or lose the pipelined completions.
    let tokens: Vec<u64> = (0..500u64)
        .map(|k| client.submit_insert(k, &k.to_le_bytes()))
        .collect();
    assert!(client.insert(10_000, b"sync value").unwrap());
    assert_eq!(
        client.get(10_000).unwrap().unwrap().as_slice(),
        b"sync value"
    );

    let mut completions = Vec::new();
    client.drain(&mut completions).unwrap();
    // All 500 pipelined inserts completed (the sync ops' completions were
    // consumed by the sync calls themselves).
    let mut seen: Vec<u64> = completions.iter().map(|c| c.token).collect();
    seen.sort_unstable();
    let mut expected = tokens.clone();
    expected.sort_unstable();
    assert_eq!(seen, expected);
    assert!(completions
        .iter()
        .all(|c| c.kind == CompletionKind::Inserted));

    // And the data is all there.
    for key in 0..500u64 {
        assert_eq!(
            client
                .get(key)
                .unwrap()
                .expect("pipelined key present")
                .as_slice(),
            key.to_le_bytes()
        );
    }
    drop(clients);
    table.shutdown();
}

/// `kv::tests::a_get_sees_the_writes_submitted_before_it_and_none_after`'s
/// hash-key operations through the inherent pipelined API: the lane gives
/// it the same guarantee.
#[test]
fn the_pipelined_api_gives_a_get_the_same_guarantee() {
    let (mut table, mut clients) = CpHash::with_partitions(2, 1);
    let client = &mut clients[0];
    let (a, b) = ([0xAA; 64], [0xBB; 64]);
    let tokens = [
        client.submit_insert(5, &a),
        client.submit_lookup(5),
        client.submit_insert(5, &b),
        client.submit_lookup(5),
        client.submit_delete(5),
        client.submit_lookup(5),
    ];
    let mut out = Vec::new();
    client.drain(&mut out).unwrap();
    let kind = |token| out.iter().find(|c| c.token == token).unwrap().kind.clone();
    let hit = |v: &[u8]| CompletionKind::LookupHit(ValueBytes::from_slice(v));
    assert_eq!(kind(tokens[1]), hit(&a));
    assert_eq!(kind(tokens[3]), hit(&b));
    assert_eq!(kind(tokens[4]), CompletionKind::Deleted(true));
    assert_eq!(kind(tokens[5]), CompletionKind::LookupMiss);
    drop(clients);
    table.shutdown();
}

/// More two-phase (64 B) inserts on one lane than the handle keeps in
/// flight there, queued without a poll, then a get of the last one: through
/// either API the get reads it.  The server reads a lane's own reservation
/// for it, and tracks only as many as the handle's per-lane limit.
#[test]
fn a_get_behind_more_inserts_than_a_lane_holds_reads_the_last() {
    let config = CpHashConfig {
        ring_capacity: 64,
        ..CpHashConfig::new(1, 1)
    };
    let per_lane_limit = config.ring_capacity / 4;
    let (mut table, mut clients) = CpHash::new(config);
    let client = &mut clients[0];
    let value = |k: u64| [k as u8; 64];
    let mut out = Vec::new();
    for round in 0..20u64 {
        let keys = round * 1000..round * 1000 + 8 * per_lane_limit as u64;
        let last = keys.end - 1;
        let token = if round % 2 == 0 {
            for k in keys {
                client.submit_insert(k, &value(k));
            }
            client.submit_lookup(last)
        } else {
            for k in keys {
                client.submit(KvOp::Insert(k.into(), &value(k)));
            }
            client.submit(KvOp::Get(last.into()))
        };
        out.clear();
        client.drain(&mut out).unwrap();
        let got = out.iter().find(|c| c.token == token).unwrap();
        match &got.kind {
            CompletionKind::LookupHit(v) => assert_eq!(v.as_slice(), value(last)),
            other => panic!("round {round}: the get of {last} completed as {other:?}"),
        }
    }
    drop(clients);
    table.shutdown();
}

#[test]
fn anykey_adapter_supports_string_keys_end_to_end() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(4, 1));
    {
        let cache = &mut clients[0];
        // A realistic session-cache shape: URL-ish keys, JSON-ish values.
        for i in 0..200u32 {
            let key = format!("/render/user/{i}/dashboard");
            let value = format!("{{\"user\":{i},\"widgets\":[1,2,3]}}");
            assert!(cache
                .insert_blocking(KeyRef::Bytes(key.as_bytes()), value.as_bytes())
                .unwrap());
        }
        for i in 0..200u32 {
            let key = format!("/render/user/{i}/dashboard");
            let value = cache
                .get_blocking(KeyRef::Bytes(key.as_bytes()))
                .unwrap()
                .expect("cached page present");
            assert!(String::from_utf8(value.as_slice().to_vec())
                .unwrap()
                .contains(&format!("\"user\":{i}")));
        }
        assert!(cache
            .get_blocking(KeyRef::Bytes(b"/render/user/9999/dashboard"))
            .unwrap()
            .is_none());
        assert!(cache
            .delete_blocking(KeyRef::Bytes(b"/render/user/0/dashboard"))
            .unwrap());
        assert!(cache
            .get_blocking(KeyRef::Bytes(b"/render/user/0/dashboard"))
            .unwrap()
            .is_none());
    }
    drop(clients);
    table.shutdown();
}

#[test]
fn server_utilization_is_reported_under_load() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
    let client = &mut clients[0];
    // Generate some load so the servers record busy iterations.
    let mut completions = Vec::new();
    for key in 0..20_000u64 {
        client.submit_insert(key, &key.to_le_bytes());
        if client.outstanding() > 1_000 {
            client.poll(&mut completions);
            completions.clear();
        }
    }
    client.drain(&mut completions).unwrap();

    let snapshot = table.snapshot();
    assert!(snapshot.operations >= 20_000);
    assert!(snapshot.mean_utilization > 0.0 && snapshot.mean_utilization <= 1.0);
    drop(clients);
    table.shutdown();
}
