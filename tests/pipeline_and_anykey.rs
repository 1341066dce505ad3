//! Integration tests for the pipelined client API, arbitrary-length keys
//! (§8.2, `KvClient` with `KeyRef::Bytes`) and the server-utilization
//! snapshot (§6.2) against a live table.

use cphash_suite::{CompletionKind, CpHash, CpHashConfig, KeyRef, KvClient};

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
