//! A minimal in-test kvproto server: acks the handshake, answers every
//! LOOKUP for an even key with the key's bytes and every odd one with a
//! miss, and acknowledges everything else — enough to exercise the load
//! generators' pipelining and accounting without pulling in the real
//! servers (which live in `cphash-kvserver` and are tested there).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};

use bytes::BytesMut;
use cphash_kvproto::{
    encode_hello, encode_reply, OpKind, Reply, ServerDecoder, ServerEvent, VERSION_2,
};

pub(crate) fn spawn_stub_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            // The real servers disable Nagle (kvserver sets nodelay on
            // accept); without it small replies and delayed ACKs handshake
            // into 40 ms stalls per response burst.
            let _ = stream.set_nodelay(true);
            std::thread::spawn(move || {
                let mut decoder = ServerDecoder::new();
                let mut buf = vec![0u8; 16 * 1024];
                let mut out = BytesMut::new();
                loop {
                    let n = match stream.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => n,
                    };
                    decoder.feed(&buf[..n]);
                    out.clear();
                    loop {
                        match decoder.next_event() {
                            Ok(Some(ServerEvent::Hello { .. })) => {
                                encode_hello(&mut out, VERSION_2)
                            }
                            Ok(Some(ServerEvent::Op(op))) => {
                                let key = op.frame.key.hash();
                                let reply = match op.frame.kind {
                                    OpKind::Lookup if key % 2 == 0 => {
                                        Reply::ok_value(key.to_le_bytes())
                                    }
                                    OpKind::Lookup => Reply::miss(),
                                    _ => Reply::ok(),
                                };
                                encode_reply(&mut out, &reply);
                            }
                            Ok(None) => break,
                            Err(_) => return,
                        }
                    }
                    if !out.is_empty() && stream.write_all(&out).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}
