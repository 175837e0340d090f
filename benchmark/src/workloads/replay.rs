//! The layer replay of a traced run: after the measured windows, the same
//! seeded stream of keys, values and addresses is replayed on one thread
//! against each layer's public functions, on the state the workload built.
//! Each call (or group of [`GROUP`] calls, where one call is too short to
//! time) is a span named after the per-layer metric it feeds.

use crate::api_surface::{
    ForkPolicy, Kernel, PageKind, Parsed, Process, RecvBuf, ReplyBuf, Store, UserHeap, PAGE_SIZE,
    TABLE_SPAN,
};
use crate::gen::{fill_value, key_bytes, Rng};
use crate::trace::Tracer;

/// Calls per span for layers whose single call is near the clock's own
/// cost; the metric divides the span by this.
pub const GROUP: usize = 16;

const PAGE: u64 = PAGE_SIZE as u64;

/// 64-byte reads at `read_addrs`, 64-byte writes at `write_addrs` (all
/// resident and, after a first untimed pass, writable), and bare table walks.
pub fn vm_access(tr: &mut Tracer, proc: &Process, read_addrs: &[u64], write_addrs: &[u64]) {
    let mut buf = [0u8; 64];
    for &addr in write_addrs {
        proc.write(addr, &buf).expect("warm write");
    }
    for group in read_addrs.chunks_exact(GROUP) {
        tr.span("vm.access.read_hit", 0, || {
            for &addr in group {
                proc.read(addr, &mut buf).expect("read hit");
                std::hint::black_box(&buf);
            }
        });
    }
    for group in write_addrs.chunks_exact(GROUP) {
        tr.span("vm.access.write_hit", 0, || {
            for &addr in group {
                proc.write(addr, &buf).expect("write hit");
            }
        });
    }
    for group in read_addrs.chunks_exact(GROUP) {
        tr.span("vm.walk.resolve", 0, || {
            for &addr in group {
                std::hint::black_box(proc.mm().resolve(addr));
            }
        });
    }
}

/// One data frame allocated and freed, `groups` × [`GROUP`] times.
pub fn pmem_alloc_free(tr: &mut Tracer, kernel: &Kernel, groups: usize) {
    let pool = kernel.machine().pool();
    for _ in 0..groups {
        tr.span("pmem.alloc_free", 0, || {
            for _ in 0..GROUP {
                let frame = pool.alloc_page(PageKind::Anon).expect("frame");
                pool.ref_dec(frame);
            }
        });
    }
}

/// One heap block of `size` bytes allocated and freed.
pub fn heap_alloc_free(tr: &mut Tracer, proc: &Process, heap: UserHeap, size: u64, groups: usize) {
    for _ in 0..groups {
        tr.span("core.heap.alloc_free", 0, || {
            for _ in 0..GROUP {
                let block = heap.alloc(proc, size).expect("heap block");
                heap.free(proc, block).expect("heap free");
            }
        });
    }
}

/// Forks of `proc` at its current resident size, as spans called `name`;
/// the child exits at once, outside the span.
pub fn forks(tr: &mut Tracer, proc: &Process, policy: ForkPolicy, name: &'static str, n: usize) {
    for _ in 0..n {
        let child = tr.span(name, 0, || proc.fork_with(policy).expect("fork"));
        child.exit();
    }
}

/// Each kind of fault once per 2 MiB range of the populated region
/// `[base, base + len)`, `rounds` times over. After an On-demand fork the
/// child's first write into a range copies the shared table (and the page);
/// its write to a second page of the range copies only the page; once the
/// child has exited the parent's write finds itself sole owner and reuses
/// the page. Demand-zero faults are first touches of a fresh mapping.
pub fn faults(tr: &mut Tracer, proc: &Process, base: u64, len: u64, rounds: usize, rng: &mut Rng) {
    let ranges = (len / TABLE_SPAN).min(32);
    let pages_per_range = TABLE_SPAN / PAGE;
    for round in 0..rounds as u64 {
        let child = proc.fork_with(ForkPolicy::OnDemand).expect("fork");
        let mut touched = Vec::new();
        for range in 0..ranges {
            let first = rng.below(pages_per_range);
            let second = (first + 1 + rng.below(pages_per_range - 1)) % pages_per_range;
            let at = |page: u64| base + range * TABLE_SPAN + page * PAGE;
            tr.span("vm.fault.table_cow", round, || {
                child.write_u64(at(first), round).expect("table cow")
            });
            tr.span("vm.fault.data_cow", round, || {
                child.write_u64(at(second), round).expect("data cow")
            });
            touched.push(at(first));
        }
        child.exit();
        for &addr in &touched {
            let keep = proc.read_u64(addr).expect("read");
            tr.span("vm.fault.reuse", round, || {
                proc.write_u64(addr, keep).expect("reuse")
            });
        }
        let fresh_len = ranges * PAGE;
        let fresh = proc.mmap_anon(fresh_len).expect("fresh mapping");
        for page in 0..ranges {
            tr.span("vm.fault.demand_zero", round, || {
                proc.write_u64(fresh + page * PAGE, 1).expect("demand zero")
            });
        }
        proc.munmap(fresh, fresh_len).expect("munmap");
    }
}

/// `GET`, `SET` (overwriting, same size) and `DEL` (then put back) on keys
/// `key_ids`, and whole-store serialization.
pub fn store_ops(
    tr: &mut Tracer,
    proc: &Process,
    store: Store,
    key_ids: &[u64],
    value_len: usize,
    serializations: usize,
) {
    let mut value = vec![0u8; value_len];
    for (i, &id) in key_ids.iter().enumerate() {
        let key = key_bytes(id);
        let got = tr.span("kvstore.store.get", id, || {
            store.get(proc, &key).expect("get")
        });
        std::hint::black_box(got);
        fill_value(&mut value, id, u64::MAX - i as u64);
        tr.span("kvstore.store.set", id, || {
            store.set(proc, &key, &value).expect("set")
        });
        if i % 4 == 0 {
            tr.span("kvstore.store.del", id, || {
                store.del(proc, &key).expect("del")
            });
            store.set(proc, &key, &value).expect("put back");
        }
    }
    for _ in 0..serializations {
        let dump = tr.span("kvstore.store.serialize", 0, || {
            store.serialize(proc).expect("serialize")
        });
        std::hint::black_box(dump.len());
    }
}

/// The wire work for one request, without the store: the batch `requests`
/// (of `commands` commands) is pushed, parsed and consumed as the worker
/// does it, and a reply written for each — a bulk string of `value_len`
/// bytes for a two-part command (`GET`), `+OK` otherwise.
pub fn resp(tr: &mut Tracer, requests: &[u8], commands: usize, value_len: usize, reps: usize) {
    let mut rx = RecvBuf::new();
    let mut reply = ReplyBuf::new();
    let mut args = Vec::new();
    let mut out = Vec::new();
    let value = vec![0x5au8; value_len];
    for rep in 0..reps {
        tr.span("kvstore.resp.parse_reply", rep as u64, || {
            rx.push(requests);
            let mut parsed = 0;
            while let Parsed::Cmd { used } = rx.parse_command(&mut args) {
                let key = rx.arg(args[1]);
                std::hint::black_box(key);
                if args.len() == 2 {
                    reply.bulk(Some(&value));
                } else {
                    reply.simple("OK");
                }
                rx.consume(used);
                parsed += 1;
            }
            assert_eq!(parsed, commands, "every request parses");
            out.clear();
            reply.flush_into(&mut out);
        });
    }
}
