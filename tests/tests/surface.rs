//! One command surface: a scripted RESP stream fed to the one wire engine,
//! a one-shard [`PerCoreServer`], through a `Connection`. Every reply to a
//! `COMMANDS` row tried at, under and over its arity must be what the table
//! says, and the spot-checks below prove the interesting paths ran rather
//! than erred. The engine resolves and executes through
//! `odf_kvstore::command`; this is what holds it to the table.
//!
//! Alone in its test binary because `PROBE` talks to the process-wide
//! probe engine.

use odf_core::Kernel;
use odf_kvstore::command::COMMANDS;
use odf_kvstore::{encode_command, skip_reply, Connection, PerCoreConfig, PerCoreServer};

const ARITY_ERROR: &str = "-ERR wrong number of arguments\r\n";

/// One scripted command: its argv, and — for a table row tried at some
/// arity — whether the table admits that arity.
struct Line {
    argv: Vec<Vec<u8>>,
    admitted: Option<bool>,
}

/// The script: every table row at, under and over its arity, then the
/// edges of name lookup, argument count and framing.
fn script() -> Vec<Line> {
    let mut script = Vec::new();
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
            let mut argv: Vec<&[u8]> = vec![b"1"; argc];
            argv[0] = spec.name;
            if spec.key_pos > 0 && spec.key_pos < argc {
                argv[spec.key_pos] = b"counter";
            }
            script.push(Line {
                argv: argv.iter().map(|a| a.to_vec()).collect(),
                admitted: Some((spec.min_args..=spec.max_args).contains(&argc)),
            });
        }
    }
    let edges: [&[&[u8]]; 17] = [
        &[b"sEt", b"text", b"abc"],
        &[b"incr", b"text"],
        &[b"get", b"text"],
        &[b"pInG"],
        &[b"SEVENTEEN-BYTES-X"],
        &[b"FLUSHALL"],
        // More arguments than the inline argv array holds: rejected by
        // arity…
        &[b"SET", b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"h"],
        // …and accepted where the table allows it.
        &[
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
        ],
        &[b"PROBE", b"LIST"],
        &[b"probe", b"read", b"surface"],
        &[b"PROBE", b"DETACH", b"surface"],
        &[b"PROBE", b"DETACH"],
        &[b"PROBE", b"LIST"],
        &[b"STATS", b"JSON"],
        &[b"STATS", b"reset"],
        &[b"INFO", b"persistence"],
        &[b"DBSIZE"],
    ];
    script.extend(edges.iter().map(|argv| Line {
        argv: argv.iter().map(|a| a.to_vec()).collect(),
        admitted: None,
    }));
    script
}

fn encode(line: &Line) -> Vec<u8> {
    let parts: Vec<&[u8]> = line.argv.iter().map(Vec::as_slice).collect();
    encode_command(&parts)
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

fn boot(kernel: &std::sync::Arc<Kernel>, shards: usize) -> PerCoreServer {
    PerCoreServer::new(
        kernel,
        PerCoreConfig {
            shards,
            heap_per_shard: 16 << 20,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Sends `bytes` on `conn` and returns its next `n` replies.
fn call(conn: &Connection, bytes: &[u8], n: usize) -> Vec<u8> {
    conn.send(bytes);
    let mut out = Vec::new();
    conn.await_replies(n, &mut out);
    out
}

#[test]
fn one_engine_answers_every_table_row_as_the_table_says() {
    let script = script();
    let mut stream: Vec<u8> = script.iter().flat_map(encode).collect();
    stream.extend_from_slice(b"*0\r\n");
    stream.extend_from_slice(b"!\r\n");
    stream.extend_from_slice(&encode_command(&[b"PING"]));

    let kernel = Kernel::new(128 << 20);
    let mut server = boot(&kernel, 1);
    let conn = server.connect_to(0);
    // "*0" is one error, "!\r\n" three (one per skipped byte), then PING.
    let expected = script.len() + 5;
    let wire = call(&conn, &stream, expected);
    server.wait_snapshots();
    server.shutdown();

    let replies = split_replies(&wire);
    assert_eq!(replies.len(), expected);
    for (line, reply) in script.iter().zip(&replies) {
        let reply = String::from_utf8_lossy(reply);
        let sent = String::from_utf8_lossy(&encode(line)).replace("\r\n", " ");
        match line.admitted {
            // `STATS 1` passes the table and fails its own subcommand
            // check, which answers with the same words.
            Some(true) if line.argv == [b"STATS".to_vec(), b"1".to_vec()] => {}
            Some(true) => assert_ne!(reply, ARITY_ERROR, "{sent}"),
            Some(false) => assert_eq!(reply, ARITY_ERROR, "{sent}"),
            None => {}
        }
    }
    let tail: Vec<_> = replies[script.len()..]
        .iter()
        .map(|r| String::from_utf8_lossy(r))
        .collect();
    assert_eq!(tail[0], "-ERR empty command\r\n");
    assert!(
        tail[1..4].iter().all(|r| r.starts_with("-ERR ")),
        "{tail:?}"
    );
    assert_eq!(tail[4], "+PONG\r\n");

    // The script did what it says: spot-check the replies that prove the
    // interesting paths ran rather than erred.
    let text = String::from_utf8_lossy(&wire);
    assert!(
        text.contains("surface wal_commit count_by key=pid"),
        "{text}"
    );
    assert!(text.contains("-ERR unknown command 'SEVENTEEN-BYTES-X'"));
    assert!(text.contains("-ERR value is not an integer"));
    assert!(text.contains("+Background saving started"));
    assert!(text.contains("# Persistence\r\nbgsave_in_progress:"));
    assert!(text.contains("-ERR empty command"));
    assert_eq!(replies[script.len() - 1], b":2\r\n", "counter and text");
}

/// `DBSIZE` sums every shard: the script's data commands, each sent to the
/// shard that owns its key, leave a 4-shard server with the 1-shard count.
#[test]
fn dbsize_at_four_shards_equals_the_one_shard_count() {
    let script = script();
    let dbsize = encode_command(&[b"DBSIZE"]);
    let mut counts = Vec::new();
    for shards in [1, 4] {
        let kernel = Kernel::new(256 << 20);
        let mut server = boot(&kernel, shards);
        let conns: Vec<Connection> = (0..shards).map(|s| server.connect_to(s)).collect();
        for line in &script {
            let name = &line.argv[0];
            let spec = COMMANDS.iter().find(|c| c.name.eq_ignore_ascii_case(name));
            let Some(key) = spec.and_then(|c| line.argv.get(c.key_pos).filter(|_| c.key_pos > 0))
            else {
                continue;
            };
            call(&conns[server.shard_for(key)], &encode(line), 1);
        }
        let reply = call(&conns[0], &dbsize, 1);
        counts.push(String::from_utf8(reply).unwrap());
        server.shutdown();
    }
    assert_eq!(counts[0], ":2\r\n");
    assert_eq!(counts[0], counts[1]);
}
