//! A prefork HTTP server model on the simulated kernel.
//!
//! This is the Apache HTTP Server (prefork MPM) analog for the negative
//! control of the paper's evaluation (§5.3.5, Tables 6–7): a workload that
//! maps little memory (~7 MiB before forking) and forks rarely (a fixed
//! pool of workers at startup), and therefore gains nothing from
//! On-demand-fork — demonstrating that not every workload benefits.
//!
//! Structure mirrors the prefork MPM:
//!
//! - a **control process** reads the "configuration" (builds the document
//!   tree in its simulated memory), then forks the worker pool;
//! - **workers** serve `GET` requests by reading documents through their
//!   inherited (COW-shared) image and assembling responses in private
//!   scratch memory;
//! - the [`wrk`] module is the load generator: closed-loop requests for a
//!   fixed duration, reporting the mean/max and percentile latencies of
//!   Tables 6 and 7.

#![forbid(unsafe_code)]

use std::sync::Arc;

use odf_core::{ForkPolicy, Kernel, Process, Result, UserHeap};
use odf_metrics::Stopwatch;

pub mod wrk;

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct HttpConfig {
    /// Worker pool size (Apache prefork defaults to up to 256).
    pub workers: usize,
    /// Fork policy used to spawn workers.
    pub policy: ForkPolicy,
    /// Number of documents in the tree.
    pub documents: usize,
    /// Size of each document body.
    pub document_size: usize,
    /// Recycle a worker after serving this many requests (Apache's
    /// `MaxConnectionsPerChild`; 0 = never recycle).
    pub max_requests_per_worker: u64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            policy: ForkPolicy::Classic,
            documents: 64,
            document_size: 4096,
            max_requests_per_worker: 0,
        }
    }
}

/// A parsed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP-ish status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// Layout of the document table in control-process memory:
/// `[count: u64]` then per document `[name addr: u64][body addr: u64]
/// [body len: u64]`; names are NUL-free byte strings with a u32 length
/// prefix.
#[derive(Clone, Copy)]
struct DocTable {
    header: u64,
}

impl DocTable {
    fn build(proc: &Process, config: &HttpConfig) -> Result<DocTable> {
        let heap = UserHeap::create(
            proc,
            (config.documents * (config.document_size + 128) + (1 << 20)) as u64,
        )?;
        let header = heap.alloc(proc, 8 + config.documents as u64 * 24)?;
        proc.write_u64(header, config.documents as u64)?;
        for i in 0..config.documents {
            let name = format!("/doc-{i}");
            let name_addr = heap.alloc(proc, 4 + name.len() as u64)?;
            proc.write_u32(name_addr, name.len() as u32)?;
            proc.write(name_addr + 4, name.as_bytes())?;
            let body_addr = heap.alloc(proc, config.document_size as u64)?;
            // A recognizable repeating body.
            let pattern = format!("doc{i}:");
            let body: Vec<u8> = pattern.bytes().cycle().take(config.document_size).collect();
            proc.write(body_addr, &body)?;
            let slot = header + 8 + i as u64 * 24;
            proc.write_u64(slot, name_addr)?;
            proc.write_u64(slot + 8, body_addr)?;
            proc.write_u64(slot + 16, config.document_size as u64)?;
        }
        let _ = heap;
        Ok(DocTable { header })
    }

    fn lookup(&self, proc: &Process, path: &[u8]) -> Result<Option<(u64, u64)>> {
        let count = proc.read_u64(self.header)?;
        for i in 0..count {
            let slot = self.header + 8 + i * 24;
            let name_addr = proc.read_u64(slot)?;
            let len = proc.read_u32(name_addr)? as usize;
            if len == path.len() && proc.read_vec(name_addr + 4, len)? == path {
                return Ok(Some((proc.read_u64(slot + 8)?, proc.read_u64(slot + 16)?)));
            }
        }
        Ok(None)
    }
}

/// One worker: a forked process plus its private scratch buffer.
struct Worker {
    proc: Process,
    scratch: u64,
    served: u64,
}

/// The prefork server.
pub struct PreforkServer {
    control: Process,
    docs: DocTable,
    workers: Vec<Worker>,
    next: usize,
    startup_fork_ns: Vec<u64>,
    max_requests_per_worker: u64,
    policy: ForkPolicy,
    recycled: u64,
}

impl PreforkServer {
    /// Boots the server: build the document tree in the control process,
    /// then fork the worker pool (the only forks this workload ever does).
    pub fn start(kernel: &Arc<Kernel>, config: HttpConfig) -> Result<PreforkServer> {
        assert!(config.workers > 0, "need at least one worker");
        let control = kernel.spawn()?;
        let docs = DocTable::build(&control, &config)?;
        let mut workers = Vec::with_capacity(config.workers);
        let mut startup_fork_ns = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let sw = Stopwatch::start();
            let worker = Self::spawn_worker(&control, config.policy)?;
            startup_fork_ns.push(sw.elapsed_ns());
            workers.push(worker);
        }
        Ok(PreforkServer {
            control,
            docs,
            workers,
            next: 0,
            startup_fork_ns,
            max_requests_per_worker: config.max_requests_per_worker,
            policy: config.policy,
            recycled: 0,
        })
    }

    fn spawn_worker(control: &Process, policy: ForkPolicy) -> Result<Worker> {
        let proc = control.fork_with(policy)?;
        // Each worker allocates private scratch for response assembly.
        let scratch = proc.mmap_anon(64 << 10)?;
        Ok(Worker {
            proc,
            scratch,
            served: 0,
        })
    }

    /// The control process (for inspection).
    pub fn control(&self) -> &Process {
        &self.control
    }

    /// Per-worker fork times at startup, nanoseconds.
    pub fn startup_fork_ns(&self) -> &[u64] {
        &self.startup_fork_ns
    }

    /// Handles one request line (e.g. `"GET /doc-3 HTTP/1.1"`) on the next
    /// worker in rotation, allocating a fresh response.
    pub fn handle(&mut self, request: &str) -> Result<Response> {
        let mut body = Vec::new();
        let status = self.handle_into(request, &mut body)?;
        Ok(Response { status, body })
    }

    /// [`PreforkServer::handle`], but the response body lands in the
    /// caller's buffer (cleared first). The document fast path reads into
    /// the buffer in place, so a load generator reusing one buffer makes
    /// zero heap allocations per request.
    pub fn handle_into(&mut self, request: &str, body: &mut Vec<u8>) -> Result<u16> {
        body.clear();
        let worker_idx = self.next % self.workers.len();
        self.next = self.next.wrapping_add(1);
        // Apache's MaxConnectionsPerChild: retire a worker that served its
        // quota and fork a fresh one from the control process.
        if self.max_requests_per_worker > 0
            && self.workers[worker_idx].served >= self.max_requests_per_worker
        {
            let fresh = Self::spawn_worker(&self.control, self.policy)?;
            let old = std::mem::replace(&mut self.workers[worker_idx], fresh);
            old.proc.exit();
            self.recycled += 1;
        }
        let worker = &mut self.workers[worker_idx];
        worker.served += 1;
        let worker = &self.workers[worker_idx];
        let proc = &worker.proc;

        let mut parts = request.split_whitespace();
        let (method, path) = match (parts.next(), parts.next()) {
            (Some(m), Some(p)) => (m, p),
            _ => {
                body.extend_from_slice(b"bad request");
                return Ok(400);
            }
        };
        if method != "GET" {
            body.extend_from_slice(b"method not allowed");
            return Ok(405);
        }
        // Observability endpoints, resolved before the document tree —
        // the moral equivalent of Apache's mod_status scoreboard.
        match path {
            // Machine-wide counters in Prometheus text exposition format.
            "/metrics" => {
                body.extend_from_slice(proc.kernel().metrics_prometheus().as_bytes());
                return Ok(200);
            }
            // Live probe aggregates: every attached probe's report as one
            // JSON array, the bpftool-map-dump analog.
            "/probes" => {
                body.extend_from_slice(
                    odf_probe::reports_json(&odf_probe::engine().read_all()).as_bytes(),
                );
                return Ok(200);
            }
            // The serving worker's own address space, `/proc/self/smaps`
            // style: shows how much of the document tree it still shares
            // with the control process.
            "/smaps" => {
                body.extend_from_slice(proc.smaps().render().as_bytes());
                return Ok(200);
            }
            _ => {}
        }
        match self.docs.lookup(proc, path.as_bytes())? {
            None => {
                body.extend_from_slice(b"not found");
                Ok(404)
            }
            Some((body_addr, len)) => {
                // Assemble the response in worker-private scratch: read the
                // document through the (possibly COW-shared) image, write
                // it out — the per-request memory traffic of a real worker.
                let len = len.min(60 << 10);
                body.resize(len as usize, 0);
                proc.read(body_addr, body)?;
                proc.write(worker.scratch, body)?;
                proc.write_u64(worker.scratch + len, 0x0D0A_0D0A)?; // "\r\n\r\n" marker
                Ok(200)
            }
        }
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Workers recycled so far (`MaxConnectionsPerChild` replacements).
    pub fn recycled_workers(&self) -> u64 {
        self.recycled
    }

    /// Total virtual memory mapped by the control process before forking
    /// (the paper notes Apache maps only ~7 MiB, which is why it cannot
    /// benefit).
    pub fn control_mapped_bytes(&self) -> u64 {
        self.control.memory_report().mapped_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(policy: ForkPolicy) -> HttpConfig {
        HttpConfig {
            workers: 4,
            policy,
            documents: 16,
            document_size: 1024,
            max_requests_per_worker: 0,
        }
    }

    #[test]
    fn serves_documents_under_both_policies() {
        for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let k = Kernel::new(128 << 20);
            let mut s = PreforkServer::start(&k, config(policy)).unwrap();
            let r = s.handle("GET /doc-3 HTTP/1.1").unwrap();
            assert_eq!(r.status, 200, "{policy:?}");
            assert!(r.body.starts_with(b"doc3:"), "{policy:?}");
            assert_eq!(r.body.len(), 1024);
        }
    }

    #[test]
    fn rotates_across_workers() {
        let k = Kernel::new(128 << 20);
        let mut s = PreforkServer::start(&k, config(ForkPolicy::OnDemand)).unwrap();
        for i in 0..16 {
            let r = s.handle(&format!("GET /doc-{} HTTP/1.1", i % 16)).unwrap();
            assert_eq!(r.status, 200);
        }
        assert_eq!(s.worker_count(), 4);
        // Control + 4 workers.
        assert_eq!(k.process_count(), 5);
    }

    #[test]
    fn error_paths_return_http_statuses() {
        let k = Kernel::new(128 << 20);
        let mut s = PreforkServer::start(&k, config(ForkPolicy::Classic)).unwrap();
        assert_eq!(s.handle("GET /missing HTTP/1.1").unwrap().status, 404);
        assert_eq!(s.handle("POST /doc-1 HTTP/1.1").unwrap().status, 405);
        assert_eq!(s.handle("garbage").unwrap().status, 400);
    }

    #[test]
    fn startup_records_fork_times_and_small_footprint() {
        let k = Kernel::new(128 << 20);
        let s = PreforkServer::start(&k, config(ForkPolicy::Classic)).unwrap();
        assert_eq!(s.startup_fork_ns().len(), 4);
        assert!(s.startup_fork_ns().iter().all(|&ns| ns > 0));
        // The whole server state is megabytes, not gigabytes — the reason
        // this workload sees no On-demand-fork benefit.
        assert!(s.control_mapped_bytes() < 32 << 20);
    }

    #[test]
    fn workers_recycle_after_their_quota() {
        let k = Kernel::new(128 << 20);
        let mut s = PreforkServer::start(
            &k,
            HttpConfig {
                max_requests_per_worker: 5,
                ..config(ForkPolicy::OnDemand)
            },
        )
        .unwrap();
        // 4 workers x 5 requests each = 20 served before any recycling;
        // the 21st..24th requests trigger one recycle per worker slot.
        for i in 0..24 {
            let r = s.handle(&format!("GET /doc-{} HTTP/1.1", i % 16)).unwrap();
            assert_eq!(r.status, 200);
        }
        assert_eq!(s.recycled_workers(), 4);
        // Pool size is stable; control + 4 workers remain.
        assert_eq!(s.worker_count(), 4);
        assert_eq!(k.process_count(), 5);
        // Recycled workers serve correctly.
        let r = s.handle("GET /doc-3 HTTP/1.1").unwrap();
        assert!(r.body.starts_with(b"doc3:"));
    }

    #[test]
    fn metrics_and_smaps_endpoints_report_server_state() {
        let k = Kernel::new(128 << 20);
        let mut s = PreforkServer::start(&k, config(ForkPolicy::OnDemand)).unwrap();
        // Generate some traffic first so the counters are non-zero.
        for i in 0..8 {
            let _ = s.handle(&format!("GET /doc-{i} HTTP/1.1")).unwrap();
        }

        let r = s.handle("GET /metrics HTTP/1.1").unwrap();
        assert_eq!(r.status, 200);
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("# TYPE odf_vm_faults_total counter"));
        assert!(text.contains("odf_vm_forks_odf_total 4"));

        let r = s.handle("GET /smaps HTTP/1.1").unwrap();
        assert_eq!(r.status, 200);
        let text = String::from_utf8(r.body).unwrap();
        // The worker shares the control process's document tree.
        assert!(text.contains("Shared:"), "{text}");

        // The endpoints do not shadow real documents.
        assert_eq!(s.handle("GET /doc-0 HTTP/1.1").unwrap().status, 200);
    }

    #[test]
    fn probes_endpoint_serves_attached_probe_reports() {
        let k = Kernel::new(128 << 20);
        let mut s = PreforkServer::start(&k, config(ForkPolicy::OnDemand)).unwrap();
        let spec =
            odf_probe::ProbeSpec::parse(&["httpd_fault_lat", "fault", "lat_hist", "key=pid"])
                .unwrap();
        odf_probe::engine().attach(spec).unwrap();
        for i in 0..8 {
            let _ = s.handle(&format!("GET /doc-{i} HTTP/1.1")).unwrap();
        }
        let r = s.handle("GET /probes HTTP/1.1").unwrap();
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
        assert!(body.contains("\"name\":\"httpd_fault_lat\""), "{body}");
        assert!(odf_probe::engine().detach("httpd_fault_lat"));
    }

    #[test]
    fn workers_share_documents_cow() {
        let k = Kernel::new(128 << 20);
        let mut s = PreforkServer::start(&k, config(ForkPolicy::OnDemand)).unwrap();
        let before = k.stats();
        for _ in 0..8 {
            let _ = s.handle("GET /doc-0 HTTP/1.1").unwrap();
        }
        let delta = k.stats() - before;
        // Serving reads documents through shared tables; no data copies of
        // document pages are needed.
        assert_eq!(delta.vm.cow_huge_copies, 0);
    }
}
