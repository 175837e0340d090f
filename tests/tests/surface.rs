//! One command surface: the same scripted RESP stream, fed to [`Server`]
//! through `serve_stream` and to a one-shard [`PerCoreServer`] through a
//! `Connection`, must produce the same replies. Both front ends resolve
//! and execute through `odf_kvstore::command`; this is what holds them to
//! it.
//!
//! Alone in its test binary because `PROBE` talks to the process-wide
//! probe engine.

use odf_core::Kernel;
use odf_kvstore::command::COMMANDS;
use odf_kvstore::{
    encode_command, serve_stream, skip_reply, PerCoreConfig, PerCoreServer, RespValue, Server,
    ServerConfig,
};

/// The script: every table row at, under and over its arity, then the
/// edges of name lookup, argument count and framing.
fn script() -> Vec<Vec<u8>> {
    let mut script = Vec::new();
    let mut push = |parts: &[&[u8]]| script.push(encode_command(parts));
    for spec in &COMMANDS {
        for argc in [
            spec.min_args - 1,
            spec.min_args,
            spec.max_args,
            spec.max_args.saturating_add(1),
        ] {
            if argc == 0 || argc == usize::MAX {
                continue;
            }
            // The key (when there is one) is "counter"; every other
            // argument is "1", so INCR and APPEND see an integer.
            let mut parts: Vec<&[u8]> = vec![b"1"; argc];
            parts[0] = spec.name;
            if spec.key_pos > 0 && spec.key_pos < argc {
                parts[spec.key_pos] = b"counter";
            }
            push(&parts);
        }
    }
    push(&[b"sEt", b"text", b"abc"]);
    push(&[b"incr", b"text"]);
    push(&[b"get", b"text"]);
    push(&[b"pInG"]);
    push(&[b"SEVENTEEN-BYTES-X"]);
    push(&[b"FLUSHALL"]);
    // More arguments than the inline argv array holds: rejected by arity…
    push(&[b"SET", b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"h"]);
    // …and accepted where the table allows it.
    push(&[
        b"PROBE",
        b"ATTACH",
        b"surface",
        b"wal_commit",
        b"count_by",
        b"key=pid",
        b"pid=1",
        b"kind=none",
        b"minlat=1",
        b"maxkeys=8",
    ]);
    push(&[b"PROBE", b"LIST"]);
    push(&[b"probe", b"read", b"surface"]);
    push(&[b"PROBE", b"DETACH", b"surface"]);
    push(&[b"PROBE", b"DETACH"]);
    push(&[b"PROBE", b"LIST"]);
    push(&[b"STATS", b"JSON"]);
    push(&[b"STATS", b"reset"]);
    push(&[b"INFO", b"persistence"]);
    push(&[b"DBSIZE"]);
    script.push(b"*0\r\n".to_vec());
    script.push(b"!\r\n".to_vec());
    script.push(encode_command(&[b"PING"]));
    script
}

/// Splits a reply stream into its replies.
fn split_replies(mut wire: &[u8]) -> Vec<&[u8]> {
    let mut replies = Vec::new();
    while !wire.is_empty() {
        let used = skip_reply(wire).expect("complete reply");
        replies.push(&wire[..used]);
        wire = &wire[used..];
    }
    replies
}

/// `INFO` and `STATS` payloads carry counters of two different kernels:
/// compare them with every number masked, which keeps the reply kind,
/// every section and every field name.
fn masked(reply: &[u8]) -> String {
    let (value, _) = RespValue::decode(reply).expect("decodable reply");
    let RespValue::Bulk(Some(body)) = value else {
        return format!("{value:?}");
    };
    let mut out = String::new();
    for c in String::from_utf8(body).expect("text payload").chars() {
        match c {
            '0'..='9' if out.ends_with('#') => {}
            '0'..='9' => out.push('#'),
            c => out.push(c),
        }
    }
    out
}

#[test]
fn server_and_percore_answer_one_script_identically() {
    let script = script();
    let stream = script.concat();

    let kernel = Kernel::new(128 << 20);
    let mut server = Server::new(
        &kernel,
        ServerConfig {
            heap_capacity: 16 << 20,
            snapshot_every: u64::MAX,
            fork_policy: odf_core::ForkPolicy::OnDemand,
            ..Default::default()
        },
    )
    .unwrap();
    let from_server = serve_stream(&mut server, &stream);
    server.wait_snapshots();

    let kernel = Kernel::new(128 << 20);
    let mut percore = PerCoreServer::new(
        &kernel,
        PerCoreConfig {
            shards: 1,
            heap_per_shard: 16 << 20,
            ..Default::default()
        },
    )
    .unwrap();
    let conn = percore.connect_to(0);
    conn.send(&stream);
    let mut from_percore = Vec::new();
    // "!\r\n" is three protocol errors (one per skipped byte).
    let expected = script.len() + 2;
    conn.await_replies(expected, &mut from_percore);
    percore.wait_snapshots();
    percore.shutdown();

    let a = split_replies(&from_server);
    let b = split_replies(&from_percore);
    assert_eq!(a.len(), expected);
    assert_eq!(b.len(), expected);
    // Replies line up with script entries until the trailing garbage.
    for (i, (a, b)) in a.iter().zip(&b).enumerate() {
        let sent = script.get(i).map_or("<garbage>".into(), |c| {
            String::from_utf8_lossy(c).replace("\r\n", " ")
        });
        let counters =
            a.first() == Some(&b'$') && (sent.contains("INFO") || sent.contains("STATS"));
        if counters {
            assert_eq!(masked(a), masked(b), "reply {i} to {sent}");
        } else {
            assert_eq!(
                String::from_utf8_lossy(a),
                String::from_utf8_lossy(b),
                "reply {i} to {sent}"
            );
        }
    }
    // The script did what it says: spot-check the replies that prove the
    // interesting paths ran rather than erred alike.
    let text = String::from_utf8_lossy(&from_percore);
    assert!(
        text.contains("surface wal_commit count_by key=pid"),
        "{text}"
    );
    assert!(text.contains("-ERR unknown command 'SEVENTEEN-BYTES-X'"));
    assert!(text.contains("-ERR value is not an integer"));
    assert!(text.contains("+Background saving started"));
    assert!(text.contains("# Persistence\r\nbgsave_in_progress:"));
    assert!(text.contains("-ERR empty command"));
}
