//! The fleet coordinator: one frontend speaking the ordinary
//! `fgqos.serve` protocol, fanning work out to registered worker
//! processes.
//!
//! A coordinator owns no simulator. Workers — full `fgqos-serve`
//! servers, usually one process per core group — announce themselves
//! with the v3 `register_worker` op, and the coordinator forwards
//! `submit` / `submit_batch` traffic to them over the normal [`Client`]:
//!
//! * **Placement** is least-loaded: every forward picks the live worker
//!   with the fewest in-flight coordinator jobs.
//! * **Sharding**: a `submit_batch`'s uncached points are split into
//!   contiguous slices, one per live worker, so an N-point sweep warms
//!   on (up to) N processes concurrently while each slice still shares
//!   its warm boundary within its worker. Results merge back in point
//!   order under per-point job ids, exactly like a single server.
//! * **Fault tolerance**: a heartbeat (`ping`) thread marks unreachable
//!   workers dead, and any forward that hits a dead, killed or hung
//!   worker re-queues its jobs onto the remaining fleet. Because
//!   executors are pure functions of their specs, a re-run returns the
//!   byte-identical report the lost worker would have produced.
//! * **Caching**: the coordinator keeps its own content-addressed
//!   [`ResultCache`] in front of the fleet — optionally persistent
//!   ([`CoordinatorConfig::cache_dir`]), so repeat submissions are
//!   answered byte-identically even across coordinator restarts.
//!
//! The coordinator sits behind the same front end as a single server
//! (`front.rs`); everything it answers differently is its `Backend`
//! impl. `status` / `result` / `metrics` / `ping` are answered locally;
//! `snapshot` is forwarded to a live worker; live runs are refused;
//! `shutdown` drains the in-flight forwards, shuts the workers down,
//! then stops the coordinator itself.

use crate::cache::{batch_point_key, job_key, ResultCache};
use crate::client::{Client, ClientError, SubmitOptions};
use crate::front::{spawn_accept, Backend, LivePlane};
use crate::pool::JobState;
#[cfg(test)]
use crate::protocol::BatchKind;
use crate::protocol::{error_response, BatchPoint, BatchSpec, JobSpec, DEFAULT_MAX_FRAME_BYTES};
use fgqos_sim::json::Value;
use fgqos_sim::metrics::MetricsRegistry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coordinator configuration; every field has a usable default.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Listen address. Port 0 picks a free port.
    pub addr: String,
    /// Per-frame byte cap on the wire.
    pub max_frame_bytes: usize,
    /// Directory for a persistent result cache; `None` keeps it in
    /// memory only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Worker heartbeat interval in milliseconds.
    pub heartbeat_ms: u64,
    /// Read timeout on forwarded requests — the hung-worker detector.
    pub forward_read_timeout_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            cache_dir: None,
            heartbeat_ms: 250,
            forward_read_timeout_ms: 5_000,
        }
    }
}

/// One registered worker.
struct WorkerEntry {
    addr: String,
    in_flight: AtomicU64,
    alive: AtomicBool,
}

struct FlightState {
    active: u64,
    draining: bool,
}

/// Why a forward attempt did not produce a report.
enum Forward {
    /// The worker is unreachable, dead or hung: re-queue elsewhere.
    Down(String),
    /// The worker answered with a deterministic failure: do not retry.
    Fail(String),
}

fn classify(e: ClientError) -> Forward {
    match e {
        ClientError::Io(_) | ClientError::Protocol(_) | ClientError::Timeout => {
            Forward::Down(e.to_string())
        }
        ClientError::Denied(m) | ClientError::Job(m) => Forward::Fail(m),
    }
}

/// A job's lifecycle state plus its report once done.
type JobSlot = (JobState, Option<Arc<Value>>);

/// Shared state of a running coordinator.
pub struct CoordinatorCore {
    workers: Mutex<Vec<Arc<WorkerEntry>>>,
    jobs: Mutex<HashMap<u64, JobSlot>>,
    /// Signalled whenever a job in `jobs` finishes or fails; waiting
    /// `result` requests park on it.
    done: Condvar,
    next_job: AtomicU64,
    /// The fleet-level content-addressed result cache.
    pub cache: ResultCache,
    flight: Mutex<FlightState>,
    idle: Condvar,
    submitted: AtomicU64,
    executed: AtomicU64,
    failed: AtomicU64,
    requeued: AtomicU64,
    stop_heartbeat: AtomicBool,
    forward_read_timeout: Duration,
    /// Longest single wait a forward asks of a worker: at most one
    /// heartbeat, and well inside `forward_read_timeout`, so a worker
    /// the heartbeat marks dead is noticed between waits.
    forward_wait: Duration,
    frames: AtomicU64,
    malformed: AtomicU64,
}

impl CoordinatorCore {
    fn new(cache: ResultCache, forward_read_timeout: Duration, heartbeat: Duration) -> Self {
        CoordinatorCore {
            workers: Mutex::new(Vec::new()),
            jobs: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            next_job: AtomicU64::new(0),
            cache,
            flight: Mutex::new(FlightState {
                active: 0,
                draining: false,
            }),
            idle: Condvar::new(),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            stop_heartbeat: AtomicBool::new(false),
            forward_read_timeout,
            forward_wait: heartbeat.min(forward_read_timeout / 2),
            frames: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
        }
    }

    /// One liveness probe against a serve endpoint.
    fn probe(addr: &str) -> bool {
        match Client::connect(addr) {
            Ok(mut c) => {
                let _ = c.set_read_timeout(Some(Duration::from_millis(2_000)));
                c.ping().is_ok()
            }
            Err(_) => false,
        }
    }

    fn live_workers(&self) -> Vec<Arc<WorkerEntry>> {
        self.workers
            .lock()
            .expect("coordinator poisoned")
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .cloned()
            .collect()
    }

    /// Number of live workers.
    pub fn live_worker_count(&self) -> usize {
        self.live_workers().len()
    }

    /// Least-loaded placement: the live worker with the fewest
    /// in-flight coordinator forwards (lowest index on ties).
    fn pick_worker(&self) -> Option<Arc<WorkerEntry>> {
        self.live_workers()
            .into_iter()
            .min_by_key(|w| w.in_flight.load(Ordering::Relaxed))
    }

    fn new_job(&self, state: JobState, report: Option<Arc<Value>>) -> u64 {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        self.jobs
            .lock()
            .expect("coordinator poisoned")
            .insert(id, (state, report));
        self.submitted.fetch_add(1, Ordering::Relaxed);
        id
    }

    fn finish_job(&self, id: u64, report: Arc<Value>) {
        self.jobs
            .lock()
            .expect("coordinator poisoned")
            .insert(id, (JobState::Done, Some(report)));
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.done.notify_all();
    }

    fn fail_job(&self, id: u64, message: String) {
        self.jobs
            .lock()
            .expect("coordinator poisoned")
            .insert(id, (JobState::Failed(message), None));
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.done.notify_all();
    }

    /// Reserves `n` forward slots, refusing when draining.
    fn begin_flights(&self, n: u64) -> Result<(), String> {
        let mut f = self.flight.lock().expect("coordinator poisoned");
        if f.draining {
            return Err("coordinator is shutting down".into());
        }
        f.active += n;
        Ok(())
    }

    fn end_flight(&self) {
        let mut f = self.flight.lock().expect("coordinator poisoned");
        f.active -= 1;
        if f.active == 0 {
            self.idle.notify_all();
        }
    }

    fn connect_worker(&self, worker: &WorkerEntry) -> Result<Client, Forward> {
        let client = Client::connect(&worker.addr).map_err(classify)?;
        let _ = client.set_read_timeout(Some(self.forward_read_timeout));
        Ok(client)
    }

    /// Waits for a forwarded job on `client` until it resolves, in
    /// parked waits of at most `forward_wait` each, checking the
    /// worker's liveness between them so a heartbeat-detected death
    /// aborts promptly.
    fn await_report(
        &self,
        worker: &WorkerEntry,
        client: &mut Client,
        job: u64,
    ) -> Result<Value, Forward> {
        loop {
            if !worker.alive.load(Ordering::Relaxed) {
                return Err(Forward::Down("worker marked dead by heartbeat".into()));
            }
            match client.wait_report(job, self.forward_wait) {
                Err(ClientError::Timeout) => {}
                outcome => return outcome.map_err(classify),
            }
        }
    }

    fn forward_submit(&self, worker: &WorkerEntry, spec: &JobSpec) -> Result<Value, Forward> {
        let mut client = self.connect_worker(worker)?;
        let opts = SubmitOptions {
            until_done: spec.until_done.clone(),
            client: Some("fgqos-coordinator".into()),
            deadline_ms: None,
        };
        let ack = client
            .submit(&spec.scenario, spec.cycles, &opts)
            .map_err(classify)?;
        self.await_report(worker, &mut client, ack.job)
    }

    fn forward_batch(&self, worker: &WorkerEntry, spec: &BatchSpec) -> Result<Vec<Value>, Forward> {
        let mut client = self.connect_worker(worker)?;
        let opts = SubmitOptions {
            until_done: None,
            client: Some("fgqos-coordinator".into()),
            deadline_ms: None,
        };
        let ack = client.submit_batch(spec, &opts).map_err(classify)?;
        if ack.jobs.len() != spec.points.len() {
            return Err(Forward::Fail(format!(
                "worker acknowledged {} jobs for {} points",
                ack.jobs.len(),
                spec.points.len()
            )));
        }
        ack.jobs
            .iter()
            .map(|&job| self.await_report(worker, &mut client, job))
            .collect()
    }

    /// Forwards work to the least-loaded live worker until it resolves
    /// `jobs` — `(id, cache hash, cache key)` each, in report order —
    /// re-queueing onto the remaining fleet whenever a worker is lost.
    fn forward_jobs(
        &self,
        jobs: Vec<(u64, u64, String)>,
        forward: impl Fn(&WorkerEntry) -> Result<Vec<Value>, Forward>,
    ) {
        let outcome = loop {
            let Some(worker) = self.pick_worker() else {
                break Err("no live workers in the fleet".to_string());
            };
            worker.in_flight.fetch_add(1, Ordering::Relaxed);
            let outcome = forward(&worker);
            worker.in_flight.fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(reports) => break Ok(reports),
                Err(Forward::Down(_)) => {
                    worker.alive.store(false, Ordering::Relaxed);
                    self.requeued.fetch_add(1, Ordering::Relaxed);
                }
                Err(Forward::Fail(message)) => break Err(message),
            }
        };
        match outcome {
            Ok(reports) => {
                for ((id, hash, key), report) in jobs.into_iter().zip(reports) {
                    let report = Arc::new(report);
                    self.cache.insert(hash, key, Arc::clone(&report));
                    self.finish_job(id, report);
                }
            }
            Err(message) => {
                for (id, ..) in jobs {
                    self.fail_job(id, message.clone());
                }
            }
        }
    }

    /// Forwards a raw request to the least-loaded live worker and
    /// returns the worker's response verbatim (used for `snapshot`).
    fn forward_raw(&self, op: &str, request: &Value) -> Value {
        let Some(worker) = self.pick_worker() else {
            return error_response(op, "no live workers in the fleet");
        };
        worker.in_flight.fetch_add(1, Ordering::Relaxed);
        let outcome = self
            .connect_worker(&worker)
            .and_then(|mut c| c.request(request).map_err(classify));
        worker.in_flight.fetch_sub(1, Ordering::Relaxed);
        match outcome {
            Ok(doc) => doc,
            Err(Forward::Down(m)) => {
                worker.alive.store(false, Ordering::Relaxed);
                error_response(op, format!("worker lost mid-request: {m}"))
            }
            Err(Forward::Fail(m)) => error_response(op, m),
        }
    }
}

/// A running coordinator. Stop it with a `shutdown` request, then
/// [`join`](Self::join).
pub struct CoordinatorHandle {
    addr: SocketAddr,
    core: Arc<CoordinatorCore>,
    accept: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl CoordinatorHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared core, for in-process inspection.
    pub fn core(&self) -> &Arc<CoordinatorCore> {
        &self.core
    }

    /// Waits for the accept loop and heartbeat to exit (useful only
    /// after a `shutdown` request was served).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(hb) = self.heartbeat.take() {
            let _ = hb.join();
        }
    }
}

/// Binds the coordinator's listener and starts its accept loop and
/// heartbeat thread. Workers register themselves afterwards (v3
/// `register_worker`, usually via `fgqos worker --connect`).
pub fn start_coordinator(cfg: CoordinatorConfig) -> io::Result<CoordinatorHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let cache = match &cfg.cache_dir {
        Some(dir) => ResultCache::persistent(dir)?,
        None => ResultCache::new(),
    };
    let interval = Duration::from_millis(cfg.heartbeat_ms.max(10));
    let core = Arc::new(CoordinatorCore::new(
        cache,
        Duration::from_millis(cfg.forward_read_timeout_ms.max(1)),
        interval,
    ));
    let heartbeat = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || {
            while !core.stop_heartbeat.load(Ordering::Relaxed) {
                for worker in core.live_workers() {
                    if !CoordinatorCore::probe(&worker.addr) {
                        worker.alive.store(false, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(interval);
            }
        })
    };
    let accept = spawn_accept(listener, Arc::clone(&core), cfg.max_frame_bytes, None)?;
    Ok(CoordinatorHandle {
        addr,
        core,
        accept: Some(accept),
        heartbeat: Some(heartbeat),
    })
}

impl Backend for CoordinatorCore {
    const PENDING_STATE: &'static str = "running";

    fn count_frame(&self, _oversized: bool) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    fn count_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// A coordinator applies no ingress regulation of its own.
    fn admit(&self, _principal: &str, _bytes: u64) -> bool {
        true
    }

    /// Cache hits are born done; misses are forwarded on a fresh thread
    /// (re-queued across workers on failure).
    fn submit(
        self: &Arc<Self>,
        spec: JobSpec,
        _deadline: Option<Instant>,
    ) -> Result<(u64, Option<Arc<Value>>), String> {
        let (hash, key) = job_key(&spec);
        if let Some(hit) = self.cache.get(hash, &key) {
            let id = self.new_job(JobState::Done, Some(Arc::clone(&hit)));
            return Ok((id, Some(hit)));
        }
        self.begin_flights(1)?;
        let id = self.new_job(JobState::Running, None);
        let core = Arc::clone(self);
        std::thread::spawn(move || {
            core.forward_jobs(vec![(id, hash, key)], |w| {
                core.forward_submit(w, &spec).map(|report| vec![report])
            });
            core.end_flight();
        });
        Ok((id, None))
    }

    /// Per-point cache hits are born done; the uncached remainder is
    /// sharded into contiguous slices across the live workers and merged
    /// back in point order.
    fn submit_batch(
        self: &Arc<Self>,
        spec: BatchSpec,
        _deadline: Option<Instant>,
    ) -> Result<(Vec<(u64, Option<Arc<Value>>)>, Option<usize>), String> {
        let mut acks = Vec::with_capacity(spec.points.len());
        let mut pending: Vec<(BatchPoint, (u64, u64, String))> = Vec::new();
        for point in &spec.points {
            let (hash, key) = batch_point_key(&spec, point);
            match self.cache.get(hash, &key) {
                Some(hit) => {
                    let id = self.new_job(JobState::Done, Some(Arc::clone(&hit)));
                    acks.push((id, Some(hit)));
                }
                None => {
                    let id = self.new_job(JobState::Running, None);
                    acks.push((id, None));
                    pending.push((*point, (id, hash, key)));
                }
            }
        }
        if pending.is_empty() {
            return Ok((acks, None));
        }
        // Contiguous slices, one per live worker (at least one slice
        // even with an empty fleet — the forward loop reports the
        // failure per job). Earlier slices get the rounding remainder.
        let slices = self.live_worker_count().max(1).min(pending.len());
        let base = pending.len() / slices;
        let extra = pending.len() % slices;
        self.begin_flights(slices as u64)?;
        let mut rest = pending;
        for i in 0..slices {
            let take = base + usize::from(i < extra);
            let (points, jobs): (Vec<_>, Vec<_>) = rest.drain(..take).unzip();
            let sub = BatchSpec {
                points,
                ..spec.clone()
            };
            let core = Arc::clone(self);
            std::thread::spawn(move || {
                core.forward_jobs(jobs, |w| core.forward_batch(w, &sub));
                core.end_flight();
            });
        }
        Ok((acks, None))
    }

    fn status(&self, id: u64) -> Option<(JobState, Option<usize>)> {
        self.jobs
            .lock()
            .expect("coordinator poisoned")
            .get(&id)
            .map(|(s, _)| (s.clone(), None))
    }

    fn result(&self, id: u64, wait: Duration) -> Option<(JobState, Option<Arc<Value>>)> {
        let jobs = self.jobs.lock().expect("coordinator poisoned");
        let (jobs, _) = self
            .done
            .wait_timeout_while(jobs, wait, |jobs| {
                jobs.get(&id).is_some_and(|(state, _)| state.is_pending())
            })
            .expect("coordinator poisoned");
        jobs.get(&id).cloned()
    }

    /// Fleet metrics under stable `coordinator.*` names (plus the
    /// shared `serve.cache.*` cache counters).
    fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let workers = self.workers.lock().expect("coordinator poisoned");
        reg.gauge("coordinator.workers", workers.len() as f64);
        reg.gauge(
            "coordinator.workers.live",
            workers
                .iter()
                .filter(|w| w.alive.load(Ordering::Relaxed))
                .count() as f64,
        );
        for (i, w) in workers.iter().enumerate() {
            reg.gauge(
                format!("coordinator.worker.{i}.in_flight"),
                w.in_flight.load(Ordering::Relaxed) as f64,
            );
            reg.gauge(
                format!("coordinator.worker.{i}.alive"),
                if w.alive.load(Ordering::Relaxed) {
                    1.0
                } else {
                    0.0
                },
            );
        }
        drop(workers);
        reg.counter("coordinator.frames", self.frames.load(Ordering::Relaxed));
        reg.counter(
            "coordinator.frames.malformed",
            self.malformed.load(Ordering::Relaxed),
        );
        reg.counter(
            "coordinator.jobs.submitted",
            self.submitted.load(Ordering::Relaxed),
        );
        reg.counter(
            "coordinator.jobs.executed",
            self.executed.load(Ordering::Relaxed),
        );
        reg.counter(
            "coordinator.jobs.failed",
            self.failed.load(Ordering::Relaxed),
        );
        reg.counter(
            "coordinator.jobs.requeued",
            self.requeued.load(Ordering::Relaxed),
        );
        reg.counter("serve.cache.entries", self.cache.len() as u64);
        reg.counter("serve.cache.hits", self.cache.hits());
        reg.counter("serve.cache.misses", self.cache.misses());
        reg.gauge("serve.cache.hit_rate", self.cache.hit_rate());
        reg
    }

    /// Registers (or revives) a worker after probing it.
    fn register_worker(&self, addr: &str) -> Result<usize, String> {
        if !Self::probe(addr) {
            return Err(format!("worker at {addr} did not answer a ping"));
        }
        let mut workers = self.workers.lock().expect("coordinator poisoned");
        // A restarted worker re-registers the same address: drop the
        // dead entry rather than double-counting it.
        workers.retain(|w| w.addr != addr || w.alive.load(Ordering::Relaxed));
        if !workers.iter().any(|w| w.addr == addr) {
            workers.push(Arc::new(WorkerEntry {
                addr: addr.to_string(),
                in_flight: AtomicU64::new(0),
                alive: AtomicBool::new(true),
            }));
        }
        Ok(workers
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .count())
    }

    fn snapshot(&self, scenario: String, warmup: u64) -> Value {
        let mut req = Value::obj();
        req.set("op", Value::str("snapshot"));
        req.set("scenario", Value::str(scenario));
        req.set("warmup", Value::from(warmup));
        self.forward_raw("snapshot", &req)
    }

    /// Live runs are bound to one executing process; a coordinator only
    /// routes batch work, so the streaming plane is refused here — point
    /// `subscribe`/`control` at a worker directly.
    fn live(&self) -> Result<LivePlane<'_>, &'static str> {
        Err("coordinator does not host live runs")
    }

    /// Drains in-flight forwards and shuts every live worker down.
    fn drain(&self) -> Vec<(&'static str, u64)> {
        {
            let mut f = self.flight.lock().expect("coordinator poisoned");
            f.draining = true;
            while f.active > 0 {
                f = self.idle.wait(f).expect("coordinator poisoned");
            }
        }
        self.stop_heartbeat.store(true, Ordering::Relaxed);
        for worker in self.live_workers() {
            if let Ok(mut client) = Client::connect(&worker.addr) {
                let _ = client.set_read_timeout(Some(Duration::from_millis(10_000)));
                let _ = client.shutdown();
            }
            worker.alive.store(false, Ordering::Relaxed);
        }
        vec![
            ("submitted", self.submitted.load(Ordering::Relaxed)),
            ("executed", self.executed.load(Ordering::Relaxed)),
            ("failed", self.failed.load(Ordering::Relaxed)),
            ("requeued", self.requeued.load(Ordering::Relaxed)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MetricsFormat;
    use crate::server::{start, ServeConfig, ServerHandle};
    use crate::Executor;
    use fgqos_bench::report::Report;

    /// An executor tagging its report with the worker process identity
    /// (here: a label) so tests can see which worker served a job —
    /// while staying a pure function of the spec for cache purposes.
    fn stub_executor() -> Executor {
        Arc::new(|spec: &JobSpec| {
            let mut r = Report::new("stub");
            r.note(format!("cycles={}", spec.cycles));
            Ok(r)
        })
    }

    fn worker() -> ServerHandle {
        start(
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            stub_executor(),
        )
        .expect("bind worker")
    }

    fn coordinator() -> CoordinatorHandle {
        start_coordinator(CoordinatorConfig {
            heartbeat_ms: 50,
            forward_read_timeout_ms: 2_000,
            ..CoordinatorConfig::default()
        })
        .expect("bind coordinator")
    }

    #[test]
    fn register_forward_and_cache_roundtrip() {
        let w = worker();
        let c = coordinator();
        let mut client = Client::connect(c.addr()).expect("connect");
        client.ping().expect("coordinator answers ping");
        let live = c
            .core()
            .register_worker(&w.addr().to_string())
            .expect("registers");
        assert_eq!(live, 1);
        let (ack, report) = client
            .submit_and_wait("s", 123, &SubmitOptions::default(), Duration::from_secs(10))
            .expect("forwarded job completes");
        assert!(!ack.cached);
        let parsed = Report::from_json(&report).expect("valid report");
        assert!(parsed.render_text().contains("cycles=123"));
        // Resubmission is a coordinator-level cache hit, byte-identical.
        let (ack2, report2) = client
            .submit_and_wait("s", 123, &SubmitOptions::default(), Duration::from_secs(10))
            .expect("cached job resolves");
        assert!(ack2.cached);
        assert_eq!(report.to_compact(), report2.to_compact());
        let resp = client.shutdown().expect("drains");
        assert_eq!(resp.get("executed").and_then(Value::as_u64), Some(1));
        c.join();
        w.join();
    }

    #[test]
    fn parked_result_returns_done_in_one_frame() {
        let slow: Executor = Arc::new(|spec: &JobSpec| {
            std::thread::sleep(Duration::from_millis(50));
            let mut r = Report::new("slow");
            r.note(format!("cycles={}", spec.cycles));
            Ok(r)
        });
        let w = start(
            ServeConfig {
                threads: 1,
                ..ServeConfig::default()
            },
            slow,
        )
        .expect("bind worker");
        let c = coordinator();
        c.core()
            .register_worker(&w.addr().to_string())
            .expect("registers");
        let mut client = Client::connect(c.addr()).expect("connect");
        let frames = |client: &mut Client| {
            let doc = client.metrics(MetricsFormat::Json).expect("metrics");
            doc.get("metrics")
                .and_then(|m| m.get("metrics"))
                .and_then(|m| m.get("coordinator.frames"))
                .and_then(Value::as_u64)
                .expect("frame counter")
        };
        let ack = client
            .submit("s", 7, &SubmitOptions::default())
            .expect("accepted");
        let before = frames(&mut client);
        let report = client
            .wait_report(ack.job, Duration::from_secs(10))
            .expect("forwarded job completes");
        // The second metrics request is the other counted frame.
        assert_eq!(frames(&mut client) - before, 2, "one parked result frame");
        let plain = client.result(ack.job).expect("result answers");
        assert_eq!(plain.get("report"), Some(&report));
        client.shutdown().expect("drains");
        c.join();
        w.join();
    }

    #[test]
    fn register_refuses_unreachable_workers() {
        let c = coordinator();
        let err = c
            .core()
            .register_worker("127.0.0.1:1")
            .expect_err("nothing listens on port 1");
        assert!(err.contains("ping"));
        let mut client = Client::connect(c.addr()).expect("connect");
        // With no workers, submissions fail but the coordinator stays up.
        let ack = client
            .submit("s", 1, &SubmitOptions::default())
            .expect("submit is accepted");
        let doc = client
            .result_within(ack.job, 1_000)
            .expect("result answers");
        assert_eq!(doc.get("state").and_then(Value::as_str), Some("failed"));
        assert!(doc
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("no live workers"));
        client.shutdown().expect("shuts down");
        c.join();
    }

    #[test]
    fn killed_worker_jobs_requeue_onto_the_fleet() {
        let w1 = worker();
        let w2 = worker();
        let c = coordinator();
        c.core()
            .register_worker(&w1.addr().to_string())
            .expect("w1");
        c.core()
            .register_worker(&w2.addr().to_string())
            .expect("w2");
        // Kill one worker out from under the coordinator (an in-process
        // stand-in for kill -9: drain it behind the coordinator's back
        // so forwards to it start failing).
        let mut killer = Client::connect(w1.addr()).expect("connect w1");
        killer.shutdown().expect("w1 gone");
        w1.join();
        let mut client = Client::connect(c.addr()).expect("connect");
        // Submit enough distinct jobs that some would have landed on w1.
        let acks: Vec<_> = (0..6)
            .map(|i| {
                client
                    .submit("s", 1_000 + i, &SubmitOptions::default())
                    .expect("accepted")
            })
            .collect();
        for (i, ack) in acks.iter().enumerate() {
            let report = client
                .wait_report(ack.job, Duration::from_secs(20))
                .expect("job completed despite the dead worker");
            let parsed = Report::from_json(&report).expect("valid report");
            assert!(parsed
                .render_text()
                .contains(&format!("cycles={}", 1_000 + i)));
        }
        client.shutdown().expect("drains");
        c.join();
        w2.join();
    }

    #[test]
    fn batch_shards_across_workers_and_merges_in_point_order() {
        let w1 = worker();
        let w2 = worker();
        let c = coordinator();
        c.core()
            .register_worker(&w1.addr().to_string())
            .expect("w1");
        c.core()
            .register_worker(&w2.addr().to_string())
            .expect("w2");
        let mut client = Client::connect(c.addr()).expect("connect");
        let spec = BatchSpec {
            scenario: "s".into(),
            cycles: 1_000,
            until_done: None,
            warmup: 0,
            points: (1..=5)
                .map(|i| BatchPoint {
                    period: i * 100,
                    budget: i * 7,
                })
                .collect(),
            kind: BatchKind::Sweep,
        };
        // Workers have no batch executor: points fail deterministically,
        // but sharding and per-point id plumbing are fully exercised.
        let ack = client
            .submit_batch(&spec, &SubmitOptions::default())
            .expect("acknowledged");
        assert_eq!(ack.jobs.len(), 5);
        assert!(ack.cached.iter().all(|c| !c));
        for &job in &ack.jobs {
            let doc = client.result_within(job, 1_000).expect("answers");
            assert_eq!(doc.get("state").and_then(Value::as_str), Some("failed"));
            assert!(doc
                .get("error")
                .and_then(Value::as_str)
                .unwrap()
                .contains("no batch executor"));
        }
        client.shutdown().expect("drains");
        c.join();
        w1.join();
        w2.join();
    }
}
