//! The RESP command surface, written once.
//!
//! Every front end resolves a parsed `argv` against [`COMMANDS`] — which
//! owns the name, arity and key position of each command, and therefore
//! the unknown-command and wrong-arity replies — and then calls
//! [`execute`] for the six data commands or [`execute_admin`] / [`info`]
//! for the replies that need only the kernel. What is left in the wire
//! engine is what only it knows: a [`PerCoreServer`](crate::PerCoreServer)
//! worker answers `-MOVED` for a key it does not own and runs
//! `DBSIZE`/`BGSAVE` across shards.

use odf_core::{ForkPolicy, Kernel, Process, Result, VmError};
use odf_metrics::Summary;
use odf_trace::MetricKind;

use crate::resp::ReplyBuf;
use crate::store::Store;

/// One row of the command table.
#[derive(Debug)]
pub struct CommandSpec {
    /// Upper-case command name.
    pub name: &'static [u8],
    /// Fewest elements `argv` may have, the name included.
    pub min_args: usize,
    /// Most elements `argv` may have, the name included.
    pub max_args: usize,
    /// Index in `argv` of the key the command addresses (what a sharded
    /// front end routes by); 0 for a keyless command.
    pub key_pos: usize,
}

const fn spec(
    name: &'static [u8],
    min_args: usize,
    max_args: usize,
    key_pos: usize,
) -> CommandSpec {
    CommandSpec {
        name,
        min_args,
        max_args,
        key_pos,
    }
}

/// The command table. Lookup is a linear scan, so the hot commands lead.
pub static COMMANDS: [CommandSpec; 12] = [
    spec(b"GET", 2, 2, 1),
    spec(b"SET", 3, 3, 1),
    spec(b"DEL", 2, 2, 1),
    spec(b"EXISTS", 2, 2, 1),
    spec(b"INCR", 2, 2, 1),
    spec(b"APPEND", 3, 3, 1),
    spec(b"PING", 1, 1, 0),
    spec(b"DBSIZE", 1, 1, 0),
    spec(b"BGSAVE", 1, 1, 0),
    spec(b"INFO", 1, 2, 0),
    spec(b"STATS", 1, 2, 0),
    spec(b"PROBE", 2, usize::MAX, 0),
];

/// Resolves `argv` to its table row. On an empty, unknown or wrong-arity
/// command the error reply is written to `out` and `None` returned.
pub fn resolve(argv: &[&[u8]], out: &mut ReplyBuf) -> Option<&'static CommandSpec> {
    let Some(&name) = argv.first() else {
        out.error("ERR empty command");
        return None;
    };
    let Some(spec) = COMMANDS.iter().find(|c| c.name.eq_ignore_ascii_case(name)) else {
        out.error(&format!(
            "ERR unknown command '{}'",
            String::from_utf8_lossy(name)
        ));
        return None;
    };
    if !(spec.min_args..=spec.max_args).contains(&argv.len()) {
        out.error("ERR wrong number of arguments");
        return None;
    }
    Some(spec)
}

/// Executes a keyed (data) command — one whose `key_pos` is non-zero —
/// against `store` in `proc`'s address space, writing the reply to `out`.
pub fn execute(
    spec: &CommandSpec,
    store: Store,
    proc: &Process,
    argv: &[&[u8]],
    out: &mut ReplyBuf,
) {
    let key = argv[spec.key_pos];
    let run = |out: &mut ReplyBuf| -> Result<()> {
        match spec.name {
            b"GET" => out.bulk_found(|buf, header| store.get_into(proc, key, buf, header))?,
            b"SET" => {
                store.set(proc, key, argv[2])?;
                out.simple("OK");
            }
            b"DEL" => out.integer(i64::from(store.del(proc, key)?)),
            b"EXISTS" => out.integer(i64::from(store.exists(proc, key)?)),
            b"INCR" => match store.incr(proc, key) {
                // Only the parse can be a type error; a failed write-back
                // (heap or frame exhaustion) reports what it is.
                Err(VmError::InvalidArgument) => {
                    out.error("ERR value is not an integer or out of range");
                }
                next => out.integer(next?),
            },
            b"APPEND" => out.integer(store.append(proc, key, argv[2])? as i64),
            _ => unreachable!("{spec:?} is not a data command"),
        }
        Ok(())
    };
    if let Err(e) = run(out) {
        out.error(&format!("ERR {e}"));
    }
}

/// Executes `PING`, `STATS [JSON|RESET]` or `PROBE …`: the keyless
/// commands whose reply depends on nothing but the kernel, whose counters
/// are process-global and thread-safe.
pub fn execute_admin(spec: &CommandSpec, kernel: &Kernel, argv: &[&[u8]], out: &mut ReplyBuf) {
    match (spec.name, &argv[1..]) {
        (b"PING", _) => out.simple("PONG"),
        (b"STATS", []) => out.bulk(Some(kernel.metrics_prometheus().as_bytes())),
        (b"STATS", [fmt]) if fmt.eq_ignore_ascii_case(b"json") => {
            out.bulk(Some(kernel.metrics_json().as_bytes()));
        }
        (b"STATS", [sub]) if sub.eq_ignore_ascii_case(b"reset") => {
            kernel.reset_metrics_window();
            out.simple("OK");
        }
        (b"STATS", _) => out.error("ERR wrong number of arguments"),
        (b"PROBE", [sub, args @ ..]) => probe(sub, args, out),
        _ => unreachable!("{spec:?} is not an admin command"),
    }
}

/// The `PROBE` command family: live attach/detach/read of probe programs
/// against the process-wide engine.
///
/// ```text
/// PROBE LIST
/// PROBE ATTACH <name> <point> <program> [key=pid|vma|kind|order|none]
///              [pid=N] [kind=LABEL] [minlat=NS] [maxkeys=N]
/// PROBE DETACH <name>
/// PROBE READ [name]
/// PROBE RESET
/// ```
fn probe(sub: &[u8], args: &[&[u8]], out: &mut ReplyBuf) {
    let engine = odf_probe::engine();
    match sub.to_ascii_uppercase().as_slice() {
        b"LIST" => {
            let probes = engine.list();
            out.array_header(probes.len());
            for (spec, hits) in probes {
                out.bulk(Some(format!("{spec} hits={hits}").as_bytes()));
            }
        }
        b"ATTACH" => {
            let tokens: Vec<_> = args.iter().map(|a| String::from_utf8_lossy(a)).collect();
            let refs: Vec<&str> = tokens.iter().map(|t| t.as_ref()).collect();
            match odf_probe::ProbeSpec::parse(&refs).and_then(|s| engine.attach(s)) {
                Ok(()) => out.simple("OK"),
                Err(msg) => out.error(&format!("ERR {msg}")),
            }
        }
        b"DETACH" => match args {
            [name] => out.integer(i64::from(engine.detach(&String::from_utf8_lossy(name)))),
            _ => out.error("ERR usage: PROBE DETACH <name>"),
        },
        b"READ" => match args {
            [] => out.bulk(Some(odf_probe::reports_json(&engine.read_all()).as_bytes())),
            [name] => {
                let report = engine.read(&String::from_utf8_lossy(name));
                out.bulk(report.map(|r| r.to_json()).as_deref().map(str::as_bytes));
            }
            _ => out.error("ERR usage: PROBE READ [name]"),
        },
        b"RESET" => {
            engine.reset_all();
            out.simple("OK");
        }
        _ => out.error("ERR PROBE LIST|ATTACH|DETACH|READ|RESET"),
    }
}

/// Redis-`INFO`-style report as one bulk reply. `section` filters to one
/// section (case-insensitive); `None` renders all of them.
///
/// Sections: `server` (process table, fork policy), `memory` (occupancy
/// plus `proc`'s smaps totals), `persistence` (the front end's snapshot
/// numbers: whether one is in flight and its fork-stall distribution in
/// nanoseconds), `stats` (every unlabeled counter and gauge of
/// [`Kernel::metrics`], in the current metrics window), and — when
/// tracing is enabled — `trace` (every trace distribution and event
/// count).
pub fn info(
    proc: &Process,
    policy: ForkPolicy,
    bgsave_in_progress: bool,
    fork_times: &Summary,
    section: Option<&[u8]>,
    out: &mut ReplyBuf,
) {
    let kernel = proc.kernel();
    let smaps = proc.smaps();
    let mut sections: Vec<(&str, String)> = Vec::new();
    sections.push((
        "server",
        format!(
            "processes:{}\r\nfork_policy:{policy:?}\r\n",
            kernel.process_count(),
        ),
    ));
    sections.push((
        "memory",
        format!(
            "used_memory:{}\r\ntotal_memory:{}\r\nrss_bytes:{}\r\nshared_bytes:{}\r\nprivate_bytes:{}\r\nshared_pt_tables:{}\r\n",
            kernel.total_bytes() - kernel.free_bytes(),
            kernel.total_bytes(),
            smaps.rss(),
            smaps.shared(),
            smaps.private(),
            smaps.shared_tables(),
        ),
    ));
    sections.push((
        "persistence",
        format!(
            "bgsave_in_progress:{}\r\nsnapshots_started:{}\r\nlatest_fork_usec:{}\r\nmean_fork_usec:{}\r\n",
            u64::from(bgsave_in_progress),
            fork_times.count(),
            (fork_times.max() / 1_000.0) as u64,
            (fork_times.mean() / 1_000.0) as u64,
        ),
    ));
    let metrics = kernel.metrics();
    sections.push((
        "stats",
        metrics.info(|f| f.kind != MetricKind::Summary && !f.labeled()),
    ));
    if odf_trace::enabled() {
        sections.push(("trace", metrics.info(|f| f.name.starts_with("odf_trace_"))));
    }
    let mut text = String::new();
    for (name, body) in sections {
        if section.is_some_and(|want| !want.eq_ignore_ascii_case(name.as_bytes())) {
            continue;
        }
        let mut title: String = name.to_string();
        title[..1].make_ascii_uppercase();
        text.push_str(&format!("# {title}\r\n{body}\r\n"));
    }
    out.bulk(Some(text.as_bytes()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_core::PAGE_SIZE;

    #[test]
    fn table_is_well_formed() {
        for (i, c) in COMMANDS.iter().enumerate() {
            // `execute`/`execute_admin` match on the literal upper-case
            // name, and lookup stops at the first hit.
            assert!(
                !c.name.is_empty() && c.name.iter().all(u8::is_ascii_uppercase),
                "{c:?}"
            );
            assert!(COMMANDS[..i].iter().all(|d| d.name != c.name), "{c:?}");
            assert!(c.min_args >= 1 && c.min_args <= c.max_args, "{c:?}");
            // Every accepted argv holds the key a front end routes by.
            assert!(c.key_pos < c.min_args, "{c:?}");
        }
    }

    #[test]
    fn get_whose_value_cannot_be_read_replies_one_error() {
        let kernel = Kernel::new(64 << 20);
        let proc = kernel.spawn().unwrap();
        let store = Store::create(&proc, 1 << 20, 16).unwrap();
        store.set(&proc, b"big", &[7u8; 100_000]).unwrap();
        store.set(&proc, b"small", b"v").unwrap();
        // Unmap a page inside the value, past the entry's header and key,
        // so the GET finds the key and fails while copying the value.
        let value = store
            .probe(&proc, b"big", |_, _| ())
            .unwrap()
            .unwrap()
            .value;
        let page = PAGE_SIZE as u64;
        proc.munmap(value.next_multiple_of(page), page).unwrap();
        let mut out = ReplyBuf::new();
        let gets: [&[&[u8]]; 2] = [&[b"GET", b"big"], &[b"GET", b"small"]];
        for argv in gets {
            let spec = resolve(argv, &mut out).expect("known command");
            execute(spec, store, &proc, argv, &mut out);
        }
        let mut wire = Vec::new();
        out.flush_into(&mut wire);
        let wire = String::from_utf8(wire).unwrap();
        assert!(wire.starts_with("-ERR "), "{wire}");
        assert!(wire.ends_with("\r\n$1\r\nv\r\n"), "{wire}");
        assert_eq!(wire.matches("\r\n").count(), 3, "{wire}");
        proc.exit();
    }

    #[test]
    fn incr_reports_exhaustion_as_what_it_is() {
        let kernel = Kernel::new(64 << 20);
        let proc = kernel.spawn().unwrap();
        // Fill the heap with entries of the size class the INCR would
        // need, so not one more can be allocated.
        let store = Store::create(&proc, 16 << 10, 16).unwrap();
        let mut i = 0u32;
        while store
            .set(&proc, format!("fill-{i}").as_bytes(), b"")
            .is_ok()
        {
            i += 1;
        }
        let run = |argv: &[&[u8]]| {
            let mut out = ReplyBuf::new();
            let spec = resolve(argv, &mut out).expect("known command");
            execute(spec, store, &proc, argv, &mut out);
            let mut wire = Vec::new();
            out.flush_into(&mut wire);
            String::from_utf8(wire).unwrap()
        };
        let reply = run(&[b"INCR", b"newkey"]);
        assert!(reply.starts_with("-ERR "), "{reply}");
        assert!(!reply.contains("not an integer"), "{reply}");
        // The type error keeps its own message.
        let reply = run(&[b"INCR", b"fill-0"]);
        assert_eq!(reply, "-ERR value is not an integer or out of range\r\n");
        proc.exit();
    }
}
