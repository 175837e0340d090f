//! `fork_exec`: the fork-server pattern (fuzzing, fork-per-test, VM
//! cloning) on the raw `Process` API. A parent with a large populated
//! region forks a child per invocation; the child writes into a few dozen
//! distinct 2 MiB ranges, reads a few hundred pages and exits; the parent
//! then writes a little itself. Fork, the copy-on-write faults, teardown
//! and the frame allocator do all the work; no kvstore code runs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::api_surface::{program_tracing_off, ForkPolicy, Process, PAGE_SIZE, TABLE_SPAN};
use crate::gen::{Digest, Rng};
use crate::spec::Metrics;
use crate::stats::Timeline;
use crate::trace::Tracer;
use crate::workloads::{
    client_and_counts, end_to_end, finish_setups, measure, replay, span_metrics, timed_setup,
    Checks, Machine, Outcome, RunCfg, Window, WindowResult,
};

const PAGE: u64 = PAGE_SIZE as u64;
const PAGES_PER_RANGE: u64 = TABLE_SPAN / PAGE;
/// One page in this many carries a stamp written before the first fork;
/// the others stay as `populate` left them and read as zero.
const STAMP_EVERY: u64 = 32;
const CHILD_WRITES: u64 = 32;
const CHILD_READS: usize = 256;
const PARENT_READS: usize = 8;
const PARENT_WRITES: usize = 8;
/// Invocations folded into the input digest.
const DIGEST_INVOCATIONS: u64 = 256;

fn stamp(page: u64) -> u64 {
    page.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
}

struct Rig {
    machine: Machine,
    parent: Process,
    base: u64,
    pages: u64,
    /// Range numbers; each invocation shuffles a prefix to pick its ranges.
    ranges: Vec<u64>,
    /// What the parent has written since set-up, by page.
    written: HashMap<u64, u64>,
    rng: Rng,
    digest: Digest,
    invocations: u64,
}

impl Rig {
    fn addr(&self, page: u64) -> u64 {
        self.base + page * PAGE
    }

    /// What the first word of `page` holds in the parent.
    fn expected(&self, page: u64) -> u64 {
        match self.written.get(&page) {
            Some(&v) => v,
            None if page.is_multiple_of(STAMP_EVERY) => stamp(page),
            None => 0,
        }
    }
}

fn build(cfg: &RunCfg) -> Rig {
    let region = cfg.scale.size(1 << 30);
    let machine = Machine::boot(region + region / 4 + (128 << 20));
    let parent = machine.kernel.spawn().expect("spawn parent");
    let base = parent.mmap_anon(region).expect("map region");
    parent
        .populate(base, region, true)
        .expect("populate region");
    let pages = region / PAGE;
    for page in (0..pages).step_by(STAMP_EVERY as usize) {
        parent
            .write_u64(base + page * PAGE, stamp(page))
            .expect("stamp");
    }
    let mut digest = Digest::default();
    digest.update(&region.to_le_bytes());
    Rig {
        machine,
        parent,
        base,
        pages,
        ranges: (0..region / TABLE_SPAN).collect(),
        written: HashMap::new(),
        rng: Rng::stream(cfg.seed, 0),
        digest,
        invocations: 0,
    }
}

fn teardown(rig: Rig, checks: &mut Checks) {
    let Rig {
        machine, parent, ..
    } = rig;
    parent.exit();
    checks.op(machine.balanced());
}

/// One invocation. Returns the time blocked in fork and the child's
/// lifetime (fork to exit), both in ns.
fn invoke(rig: &mut Rig, tr: &mut Tracer, checks: &mut Checks) -> (u64, u64) {
    rig.invocations += 1;
    let op = rig.invocations;
    let mut wrong = 0u64;
    let invocation = tr.begin("client.invocation", op);
    let started = Instant::now();
    let child = tr.span("vm.fork.ondemand", op, || {
        rig.parent.fork_with(ForkPolicy::OnDemand).expect("fork")
    });
    let fork_ns = started.elapsed().as_nanos() as u64;

    // The child's first write into each range copies that range's table.
    let writes = CHILD_WRITES.min(rig.ranges.len() as u64);
    let mut child_wrote: Vec<(u64, u64)> = Vec::with_capacity(writes as usize);
    for i in 0..writes as usize {
        let pick = i + rig.rng.below((rig.ranges.len() - i) as u64) as usize;
        rig.ranges.swap(i, pick);
        let page = rig.ranges[i] * PAGES_PER_RANGE + rig.rng.below(PAGES_PER_RANGE);
        let value = !stamp(page) ^ op;
        let addr = rig.addr(page);
        tr.span("vm.fault.table_cow", op, || {
            child.write_u64(addr, value).expect("child write")
        });
        child_wrote.push((page, value));
    }
    // It sees its own writes and, everywhere else, the parent's memory as it
    // was at the fork.
    for _ in 0..CHILD_READS {
        let page = rig.rng.below(rig.pages);
        let expect = child_wrote
            .iter()
            .find(|&&(p, _)| p == page)
            .map_or_else(|| rig.expected(page), |&(_, v)| v);
        let addr = rig.addr(page);
        let got = tr.span("vm.access.read", op, || {
            child.read_u64(addr).expect("child read")
        });
        wrong += u64::from(got != expect);
    }
    tr.span("core.process.exit", op, || child.exit());
    let lifetime_ns = started.elapsed().as_nanos() as u64;
    tr.end(invocation);

    // The parent never sees a child's write, and goes on writing itself.
    let after = tr.begin("client.parent_work", op);
    for &(page, _) in child_wrote.iter().take(PARENT_READS) {
        let addr = rig.addr(page);
        let got = tr.span("vm.access.read", op, || {
            rig.parent.read_u64(addr).expect("parent read")
        });
        wrong += u64::from(got != rig.expected(page));
    }
    for _ in 0..PARENT_WRITES {
        let page = rig.rng.below(rig.pages);
        let value = stamp(page) ^ (op << 1);
        let addr = rig.addr(page);
        tr.span("vm.fault.reuse", op, || {
            rig.parent.write_u64(addr, value).expect("parent write")
        });
        rig.written.insert(page, value);
    }
    tr.end(after);

    if op <= DIGEST_INVOCATIONS {
        for &(page, value) in &child_wrote {
            rig.digest.update(&page.to_le_bytes());
            rig.digest.update(&value.to_le_bytes());
        }
    }
    checks.op(wrong == 0);
    (fork_ns, lifetime_ns)
}

fn window(rig: &mut Rig, length: Duration, tr: &mut Tracer, checks: &mut Checks) -> WindowResult {
    let w = Window::open(&rig.machine.kernel);
    let mut latency = Timeline::default();
    let mut fork_ns = Vec::new();
    let mut ops = 0;
    while w.started.elapsed() < length {
        let (fork, lifetime) = invoke(rig, tr, checks);
        latency.push(w.elapsed_ns(), lifetime);
        fork_ns.push(fork);
        ops += 1;
    }
    w.close(&rig.machine.kernel, ops, latency, fork_ns, Vec::new())
}

pub fn run(cfg: RunCfg) -> Outcome {
    let program_tracing = program_tracing_off();
    let mut checks = Checks::default();
    let (mut rig, first_setup_s) = timed_setup(|| build(&cfg));

    let (results, mut tracer) =
        measure(&cfg, |length, tr| window(&mut rig, length, tr, &mut checks));
    while rig.invocations < DIGEST_INVOCATIONS {
        invoke(&mut rig, &mut Tracer::off(), &mut checks);
    }

    let mut m = Metrics::default();
    if cfg.trace {
        let (untraced, traced) = (&results[0], &results[1]);
        // Layers the invocation loop does not isolate: the classic fork as
        // reference, the remaining fault kinds, plain hits, the allocator.
        let mut rng = Rng::stream(cfg.seed, 100);
        replay::forks(
            &mut tracer,
            &rig.parent,
            ForkPolicy::Classic,
            "vm.fork.classic",
            5,
        );
        let region = rig.pages * PAGE;
        replay::faults(&mut tracer, &rig.parent, rig.base, region, 3, &mut rng);
        let addrs: Vec<u64> = (0..3_200).map(|_| rig.addr(rng.below(rig.pages))).collect();
        replay::vm_access(&mut tracer, &rig.parent, &addrs, &addrs);
        replay::pmem_alloc_free(&mut tracer, &rig.machine.kernel, 200);

        client_and_counts(&mut m, untraced, traced, checks, program_tracing);
        span_metrics(&mut m, &tracer);
        m.set_one(
            "bench.span_coverage_frac",
            tracer.child_coverage("client.invocation"),
        );
        let footprint = rig.parent.mm().frame_footprint();
        m.set_one("pagetable.table_frames", footprint.table_frames as f64);
    } else {
        end_to_end(&mut m, &results[0], &results[0].fork_ns);
    }
    let input_digest = rig.digest.value();
    teardown(rig, &mut checks);
    if !cfg.trace {
        finish_setups(
            &mut m,
            first_setup_s,
            || build(&cfg),
            |rig| teardown(rig, &mut checks),
        );
    }
    Outcome {
        checks,
        metrics: m,
        input_digest,
        tracer: cfg.trace.then_some(tracer),
    }
}
