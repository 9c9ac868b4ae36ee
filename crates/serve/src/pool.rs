//! Job queue + worker pool.
//!
//! Same threading model as `fgqos_bench::sweep`: plain `std` threads
//! over a mutex-protected FIFO queue, no external dependencies. The
//! queue is strictly order-stable — with one worker (`--threads 1`)
//! jobs execute exactly in submission order —
//! and because a `Soc` is `!Send`, each worker builds its simulator
//! locally inside the injected [`Executor`], exactly as sweep workers
//! do.
//!
//! Lifecycle of a job: `queued → running → done | failed` (an executor
//! panic is a failure, and the lane keeps serving), or `queued →
//! expired` when its deadline passes before a worker picks it up. A
//! `result` request may wait for the job to leave `queued`/`running`
//! ([`ServeCore::wait_result`]); every such transition wakes it.
//! Shutdown is a *graceful drain*: no new submissions are accepted,
//! every already-queued job still executes, and
//! [`ServeCore::drain`] returns only when the queue is empty and all
//! workers are idle.
//!
//! Workers carry stable **lane** indices (`0..workers`). Ordinary jobs
//! are unpinned — any lane pops them — but a `submit_batch`'s uncached
//! points travel as one queue entry pinned to a single lane, so the
//! batch executor can capture the warm boundary snapshot once and fork
//! it per point without the `!Send` simulator ever crossing a thread.

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::cache::{batch_point_key, job_key, ResultCache};
use crate::front::{Backend, LivePlane};
use crate::live::LiveRegistry;
use crate::protocol::{error_response, response_head, to_hex, BatchSpec, JobSpec};
use crate::{BatchExecutor, Executor, LiveExecutor, SnapshotExecutor};
use fgqos_sim::json::Value;
use fgqos_sim::metrics::MetricsRegistry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the FIFO queue.
    Queued,
    /// Currently executing on a worker.
    Running,
    /// Finished; the report is available.
    Done,
    /// The executor reported an error.
    Failed(String),
    /// The deadline passed before a worker picked the job up.
    Expired,
}

impl JobState {
    /// The protocol's wire name for this state.
    pub fn wire_name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Expired => "expired",
        }
    }

    /// `true` while the job is still to finish (queued or running).
    pub fn is_pending(&self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One job a queue entry resolves: its id and cache address.
struct QueuedId {
    id: u64,
    hash: u64,
    key: String,
}

/// What a queue entry executes: a single job, or a batch's uncached
/// points (one [`QueuedId`] each, in point order).
enum Work {
    Single(JobSpec),
    Batch(BatchSpec),
}

struct QueuedJob {
    work: Work,
    ids: Vec<QueuedId>,
    lane: Option<usize>,
    deadline: Option<Instant>,
}

struct JobEntry {
    state: JobState,
    report: Option<Arc<Value>>,
}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<QueuedJob>,
    jobs: HashMap<u64, JobEntry>,
    next_job: u64,
    draining: bool,
    busy_workers: usize,
    live_workers: usize,
    submitted: u64,
    executed: u64,
    failed: u64,
    expired: u64,
    batches: u64,
    lane_executed: Vec<u64>,
}

impl PoolState {
    /// Files a new job: born `Done` with a cache hit's report, else
    /// `Queued`.
    fn new_job(&mut self, cached: Option<&Arc<Value>>) -> u64 {
        self.next_job += 1;
        self.submitted += 1;
        let state = if cached.is_some() {
            JobState::Done
        } else {
            JobState::Queued
        };
        let report = cached.cloned();
        self.jobs.insert(self.next_job, JobEntry { state, report });
        self.next_job
    }
}

/// Counters returned by [`ServeCore::drain`], embedded in the
/// `shutdown` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Jobs accepted over the server's lifetime (cache hits included).
    pub submitted: u64,
    /// Jobs actually executed by a worker.
    pub executed: u64,
    /// Jobs whose executor returned an error.
    pub failed: u64,
    /// Jobs that expired in the queue.
    pub expired: u64,
}

/// Default number of pool workers: the machine's available
/// parallelism.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs one executor call, turning a panic into the job's failure so a
/// faulty executor can neither kill its thread nor leave its jobs (or
/// live run) unresolved. Each panic bumps `panicked`.
pub(crate) fn isolated<T>(
    panicked: &AtomicU64,
    call: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).unwrap_or_else(|payload| {
        panicked.fetch_add(1, Ordering::Relaxed);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("executor panicked: {message}"))
    })
}

/// Shared state of a running service: queue, jobs, cache, admission and
/// telemetry. Connection handlers and workers all operate on an
/// `Arc<ServeCore>`.
pub struct ServeCore {
    state: Mutex<PoolState>,
    /// Wakes idle workers (and the drain). Waiting `result` requests
    /// park on `done` instead, so a `notify_one` from `submit` always
    /// lands on a worker.
    wakeup: Condvar,
    /// Signalled whenever a job leaves `Queued`/`Running`.
    done: Condvar,
    /// The content-addressed result cache.
    pub cache: ResultCache,
    /// The per-client ingress regulator bank.
    pub admission: AdmissionControl,
    /// The live-run table (v4 `subscribe`/`control`/`journal`).
    pub live: LiveRegistry,
    /// Serves the v3 `snapshot` op.
    pub(crate) snapshot_executor: SnapshotExecutor,
    /// Runs the jobs behind new-run `subscribe` requests.
    pub(crate) live_executor: LiveExecutor,
    workers: usize,
    started: Instant,
    busy_nanos: AtomicU64,
    frames: AtomicU64,
    malformed: AtomicU64,
    oversized: AtomicU64,
    /// Executor calls that panicked (single, batch and live), shared
    /// with the threads that run live executors.
    panicked: Arc<AtomicU64>,
}

impl ServeCore {
    /// Creates the shared state for a pool of `workers` threads with an
    /// in-memory result cache.
    pub fn new(workers: usize, admission: AdmissionConfig) -> Self {
        Self::with_cache(workers, admission, ResultCache::new())
    }

    /// [`ServeCore::new`] with a caller-supplied cache — how a server
    /// gets a [`ResultCache::persistent`] one that survives restarts.
    pub fn with_cache(workers: usize, admission: AdmissionConfig, cache: ResultCache) -> Self {
        ServeCore {
            state: Mutex::new(PoolState {
                lane_executed: vec![0; workers],
                ..PoolState::default()
            }),
            wakeup: Condvar::new(),
            done: Condvar::new(),
            cache,
            admission: AdmissionControl::new(admission),
            live: LiveRegistry::new(),
            snapshot_executor: crate::unsupported_snapshot_executor(),
            live_executor: crate::unsupported_live_executor(),
            workers,
            started: Instant::now(),
            busy_nanos: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            panicked: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of workers this core was sized for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A job's state plus its report once done (`None` for an unknown
    /// id).
    pub fn result(&self, id: u64) -> Option<(JobState, Option<Arc<Value>>)> {
        self.wait_result(id, Duration::ZERO)
    }

    /// [`result`](Self::result), held for up to `wait` while the job is
    /// queued or running: it returns as soon as the job finishes, fails
    /// or expires.
    pub fn wait_result(&self, id: u64, wait: Duration) -> Option<(JobState, Option<Arc<Value>>)> {
        let st = self.state.lock().expect("pool poisoned");
        let (st, _) = self
            .done
            .wait_timeout_while(st, wait, |st| {
                st.jobs.get(&id).is_some_and(|e| e.state.is_pending())
            })
            .expect("pool poisoned");
        let entry = st.jobs.get(&id)?;
        Some((entry.state.clone(), entry.report.clone()))
    }

    /// Worker thread body for the worker on `lane`: pop the first queue
    /// entry this lane may take (unpinned, or pinned to it), check the
    /// deadline, execute, publish. Returns when the core is draining and
    /// no eligible work remains.
    pub fn worker_loop(&self, lane: usize, executor: Executor, batch_executor: BatchExecutor) {
        {
            let mut st = self.state.lock().expect("pool poisoned");
            st.live_workers += 1;
        }
        loop {
            let job = {
                let mut st = self.state.lock().expect("pool poisoned");
                loop {
                    let eligible = st
                        .queue
                        .iter()
                        .position(|j| j.lane.is_none_or(|l| l == lane));
                    if let Some(pos) = eligible {
                        let job = st.queue.remove(pos).expect("position just found");
                        st.busy_workers += 1;
                        break Some(job);
                    }
                    if st.draining {
                        break None;
                    }
                    st = self.wakeup.wait(st).expect("pool poisoned");
                }
            };
            let Some(job) = job else {
                let mut st = self.state.lock().expect("pool poisoned");
                st.live_workers -= 1;
                self.wakeup.notify_all();
                return;
            };
            if job.deadline.is_some_and(|d| Instant::now() > d) {
                let mut st = self.state.lock().expect("pool poisoned");
                for q in &job.ids {
                    if let Some(entry) = st.jobs.get_mut(&q.id) {
                        entry.state = JobState::Expired;
                    }
                    st.expired += 1;
                }
                st.busy_workers -= 1;
                self.wakeup.notify_all();
                self.done.notify_all();
                continue;
            }
            {
                let mut st = self.state.lock().expect("pool poisoned");
                for q in &job.ids {
                    if let Some(entry) = st.jobs.get_mut(&q.id) {
                        entry.state = JobState::Running;
                    }
                }
            }
            let t0 = Instant::now();
            let outcome = isolated(&self.panicked, || match &job.work {
                Work::Single(spec) => executor(spec).map(|report| vec![report]),
                Work::Batch(spec) => batch_executor(spec),
            })
            .and_then(|reports| {
                if reports.len() == job.ids.len() {
                    Ok(reports)
                } else {
                    Err(format!(
                        "batch executor returned {} reports for {} points",
                        reports.len(),
                        job.ids.len()
                    ))
                }
            });
            self.busy_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let mut st = self.state.lock().expect("pool poisoned");
            st.lane_executed[lane] += 1;
            match outcome {
                Ok(reports) => {
                    for (q, report) in job.ids.into_iter().zip(reports) {
                        let report = Arc::new(report.to_json());
                        self.cache.insert(q.hash, q.key, Arc::clone(&report));
                        if let Some(entry) = st.jobs.get_mut(&q.id) {
                            entry.state = JobState::Done;
                            entry.report = Some(report);
                        }
                        st.executed += 1;
                    }
                }
                Err(e) => {
                    for q in &job.ids {
                        if let Some(entry) = st.jobs.get_mut(&q.id) {
                            entry.state = JobState::Failed(e.clone());
                        }
                        st.failed += 1;
                    }
                }
            }
            st.busy_workers -= 1;
            self.wakeup.notify_all();
            self.done.notify_all();
        }
    }

    /// Graceful drain: refuse new submissions, execute everything
    /// already queued, and return once every worker is idle or exited.
    /// Idempotent; concurrent callers all block until the drain ends.
    pub fn drain(&self) -> DrainSummary {
        // Live runs first: tell each to finish at its next window
        // boundary and wait for the executors to let go. A live run
        // reacts within one window (plus its pacing sleep), so the
        // bound below is generous.
        self.live.drain(std::time::Duration::from_secs(60));
        let mut st = self.state.lock().expect("pool poisoned");
        st.draining = true;
        self.wakeup.notify_all();
        while !st.queue.is_empty() || st.busy_workers > 0 || st.live_workers > 0 {
            st = self.wakeup.wait(st).expect("pool poisoned");
        }
        DrainSummary {
            submitted: st.submitted,
            executed: st.executed,
            failed: st.failed,
            expired: st.expired,
        }
    }

    /// `true` once [`drain`](Self::drain) has started.
    pub fn draining(&self) -> bool {
        self.state.lock().expect("pool poisoned").draining
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("pool poisoned").queue.len()
    }
}

impl Backend for ServeCore {
    const PENDING_STATE: &'static str = "queued";

    fn count_frame(&self, oversized: bool) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        if oversized {
            self.oversized.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    fn admit(&self, principal: &str, bytes: u64) -> bool {
        self.admission.admit(principal, bytes)
    }

    /// Accepts a job: returns its id plus the cached report when the
    /// spec is a cache hit (such jobs are born `Done` and never queue).
    /// `Err` when the server is draining.
    fn submit(
        self: &Arc<Self>,
        spec: JobSpec,
        deadline: Option<Instant>,
    ) -> Result<(u64, Option<Arc<Value>>), String> {
        let (hash, key) = job_key(&spec);
        let cached = self.cache.get(hash, &key);
        let mut st = self.state.lock().expect("pool poisoned");
        if st.draining {
            return Err("server is shutting down".into());
        }
        let id = st.new_job(cached.as_ref());
        if cached.is_none() {
            st.queue.push_back(QueuedJob {
                work: Work::Single(spec),
                ids: vec![QueuedId { id, hash, key }],
                lane: None,
                deadline,
            });
            self.wakeup.notify_one();
        }
        Ok((id, cached))
    }

    /// Accepts a warm-start batch: one job id per point, in point order,
    /// with the cached points born `Done`. The uncached remainder is
    /// enqueued as a single entry pinned to the least-loaded lane
    /// (returned as the second element; `None` when the whole batch was
    /// answered from the cache). `Err` when the server is draining.
    fn submit_batch(
        self: &Arc<Self>,
        spec: BatchSpec,
        deadline: Option<Instant>,
    ) -> Result<(Vec<(u64, Option<Arc<Value>>)>, Option<usize>), String> {
        let addressed: Vec<(u64, String, Option<Arc<Value>>)> = spec
            .points
            .iter()
            .map(|p| {
                let (hash, key) = batch_point_key(&spec, p);
                let cached = self.cache.get(hash, &key);
                (hash, key, cached)
            })
            .collect();
        let mut st = self.state.lock().expect("pool poisoned");
        if st.draining {
            return Err("server is shutting down".into());
        }
        st.batches += 1;
        let mut acks = Vec::with_capacity(spec.points.len());
        let mut ids = Vec::new();
        let mut points = Vec::new();
        for (point, (hash, key, cached)) in spec.points.iter().zip(addressed) {
            let id = st.new_job(cached.as_ref());
            if cached.is_none() {
                ids.push(QueuedId { id, hash, key });
                points.push(*point);
            }
            acks.push((id, cached));
        }
        if ids.is_empty() {
            return Ok((acks, None));
        }
        // Pin to the lane with the fewest queued pinned entries —
        // deterministic given the queue state, lowest index on ties.
        let mut depth = vec![0usize; self.workers.max(1)];
        for j in &st.queue {
            if let Some(lane) = j.lane {
                depth[lane] += 1;
            }
        }
        let lane = (0..depth.len()).min_by_key(|&l| depth[l]).unwrap_or(0);
        // The executor sees only the uncached points, in their order.
        st.queue.push_back(QueuedJob {
            work: Work::Batch(BatchSpec { points, ..spec }),
            ids,
            lane: Some(lane),
            deadline,
        });
        // notify_all: only the pinned lane's worker can take this entry.
        self.wakeup.notify_all();
        Ok((acks, Some(lane)))
    }

    /// A job's state plus, while queued, its 0-based queue position.
    fn status(&self, id: u64) -> Option<(JobState, Option<usize>)> {
        let st = self.state.lock().expect("pool poisoned");
        let entry = st.jobs.get(&id)?;
        let position = match entry.state {
            JobState::Queued => st
                .queue
                .iter()
                .position(|j| j.ids.iter().any(|q| q.id == id)),
            _ => None,
        };
        Some((entry.state.clone(), position))
    }

    fn result(&self, id: u64, wait: Duration) -> Option<(JobState, Option<Arc<Value>>)> {
        self.wait_result(id, wait)
    }

    /// Snapshot of the service's metrics under stable `serve.*` names,
    /// exportable through the standard
    /// [`MetricsRegistry`] JSON/CSV exporters.
    fn metrics(&self) -> MetricsRegistry {
        let (queue_depth, submitted, executed, failed, expired, busy, batches, lanes) = {
            let st = self.state.lock().expect("pool poisoned");
            let mut lanes: Vec<(u64, u64)> = st
                .lane_executed
                .iter()
                .map(|&executed| (0u64, executed))
                .collect();
            for j in &st.queue {
                if let Some(lane) = j.lane {
                    if let Some(entry) = lanes.get_mut(lane) {
                        entry.0 += 1;
                    }
                }
            }
            (
                st.queue.len(),
                st.submitted,
                st.executed,
                st.failed,
                st.expired,
                st.busy_workers,
                st.batches,
                lanes,
            )
        };
        let mut reg = MetricsRegistry::new();
        reg.counter("serve.frames", self.frames.load(Ordering::Relaxed));
        reg.counter(
            "serve.frames.malformed",
            self.malformed.load(Ordering::Relaxed),
        );
        reg.counter(
            "serve.frames.oversized",
            self.oversized.load(Ordering::Relaxed),
        );
        reg.gauge("serve.queue_depth", queue_depth as f64);
        reg.counter("serve.jobs.submitted", submitted);
        reg.counter("serve.jobs.executed", executed);
        reg.counter("serve.jobs.failed", failed);
        reg.counter("serve.jobs.expired", expired);
        reg.counter("serve.jobs.panicked", self.panicked.load(Ordering::Relaxed));
        reg.counter("serve.cache.entries", self.cache.len() as u64);
        reg.counter("serve.cache.hits", self.cache.hits());
        reg.counter("serve.cache.misses", self.cache.misses());
        reg.gauge("serve.cache.hit_rate", self.cache.hit_rate());
        reg.counter("serve.jobs.batches", batches);
        reg.gauge("serve.workers", self.workers as f64);
        reg.gauge("serve.workers.busy", busy as f64);
        let live = self.live.metrics();
        reg.counter("serve.live.sessions", live.sessions);
        reg.gauge("serve.live.active", live.active as f64);
        reg.counter("serve.live.frames", live.frames);
        reg.counter("serve.live.controls", live.controls);
        reg.counter("serve.live.dropped", live.dropped);
        for (lane, (pinned_depth, executed)) in lanes.iter().enumerate() {
            reg.gauge(
                format!("serve.lane.{lane}.queue_depth"),
                *pinned_depth as f64,
            );
            reg.counter(format!("serve.lane.{lane}.executed"), *executed);
        }
        let elapsed = self.started.elapsed().as_nanos() as f64;
        let busy_ratio = if elapsed > 0.0 {
            self.busy_nanos.load(Ordering::Relaxed) as f64 / (elapsed * self.workers.max(1) as f64)
        } else {
            0.0
        };
        reg.gauge("serve.workers.busy_ratio", busy_ratio);
        for (client, accepted, denied) in self.admission.snapshot() {
            reg.counter(format!("serve.client.{client}.accepted"), accepted);
            reg.counter(format!("serve.client.{client}.denied"), denied);
        }
        reg
    }

    fn register_worker(&self, _addr: &str) -> Result<usize, String> {
        Err("this server is not a coordinator".into())
    }

    fn snapshot(&self, scenario: String, warmup: u64) -> Value {
        // Warming runs inline on the connection thread: the op is
        // synchronous by design (its caller is usually another
        // server's warm-boundary store, not an interactive client).
        match (self.snapshot_executor)(&scenario, warmup) {
            Err(message) => error_response("snapshot", message),
            Ok(None) => error_response(
                "snapshot",
                "scenario has no quiesced boundary within the slack window",
            ),
            Ok(Some(encoded)) => {
                let mut resp = response_head("snapshot", true);
                resp.set("bytes", Value::from(encoded.len() as u64));
                resp.set("blob_hex", Value::str(to_hex(&encoded)));
                resp
            }
        }
    }

    fn live(&self) -> Result<LivePlane<'_>, &'static str> {
        Ok(LivePlane {
            registry: &self.live,
            executor: &self.live_executor,
            panicked: &self.panicked,
        })
    }

    fn drain(&self) -> Vec<(&'static str, u64)> {
        let summary = ServeCore::drain(self);
        vec![
            ("submitted", summary.submitted),
            ("executed", summary.executed),
            ("failed", summary.failed),
            ("expired", summary.expired),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_bench::report::Report;

    fn spec(tag: &str) -> JobSpec {
        JobSpec {
            scenario: format!("# {tag}\n[master a]\nkind cpu\n"),
            cycles: 1_000,
            until_done: None,
        }
    }

    /// An executor that renders the spec's scenario into a one-row
    /// report after an optional sleep.
    fn stub(delay: Duration) -> Executor {
        Arc::new(move |spec: &JobSpec| {
            std::thread::sleep(delay);
            let mut r = Report::new("stub");
            r.note(format!(
                "cycles={} len={}",
                spec.cycles,
                spec.scenario.len()
            ));
            Ok(r)
        })
    }

    fn start(core: &Arc<ServeCore>, n: usize, exec: Executor) -> Vec<std::thread::JoinHandle<()>> {
        start_batch(core, n, exec, crate::unsupported_batch_executor())
    }

    fn start_batch(
        core: &Arc<ServeCore>,
        n: usize,
        exec: Executor,
        batch: crate::BatchExecutor,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|lane| {
                let core = Arc::clone(core);
                let exec = Arc::clone(&exec);
                let batch = Arc::clone(&batch);
                std::thread::spawn(move || core.worker_loop(lane, exec, batch))
            })
            .collect()
    }

    fn wait_done(core: &ServeCore, id: u64) -> (JobState, Option<Arc<Value>>) {
        let (state, report) = core
            .wait_result(id, Duration::from_secs(2))
            .expect("job exists");
        assert!(!state.is_pending(), "job {id} never finished");
        (state, report)
    }

    #[test]
    fn executes_and_caches() {
        let core = Arc::new(ServeCore::new(2, AdmissionConfig::default()));
        let workers = start(&core, 2, stub(Duration::ZERO));
        let (id, cached) = core.submit(spec("a"), None).unwrap();
        assert!(cached.is_none(), "first submission is a miss");
        let (state, fresh) = wait_done(&core, id);
        assert_eq!(state, JobState::Done);
        let fresh = fresh.expect("report present");
        // Resubmission: born done, byte-identical shared report.
        let (id2, hit) = core.submit(spec("a"), None).unwrap();
        let hit = hit.expect("second submission hits the cache");
        assert!(Arc::ptr_eq(&hit, &fresh));
        assert_eq!(core.result(id2).unwrap().0, JobState::Done);
        assert_eq!(core.cache.hits(), 1);
        let summary = core.drain();
        assert_eq!(summary.submitted, 2);
        assert_eq!(summary.executed, 1, "the cache hit did not re-execute");
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn single_worker_executes_in_submission_order() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&order);
        let exec: Executor = Arc::new(move |spec: &JobSpec| {
            seen.lock().unwrap().push(spec.cycles);
            Ok(Report::new("stub"))
        });
        let workers = start(&core, 1, exec);
        for cycles in [10, 20, 30, 40] {
            let mut s = spec("order");
            s.cycles = cycles; // distinct specs: no cache interference
            core.submit(s, None).unwrap();
        }
        core.drain();
        assert_eq!(*order.lock().unwrap(), vec![10, 20, 30, 40]);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn deadline_expires_queued_jobs_unexecuted() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let workers = start(&core, 1, stub(Duration::from_millis(60)));
        // Job 1 occupies the single worker for 60 ms; job 2's deadline
        // passes while it waits in the queue.
        let (slow, _) = core.submit(spec("slow"), None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(5);
        let (doomed, _) = core.submit(spec("doomed"), Some(deadline)).unwrap();
        assert_eq!(wait_done(&core, slow).0, JobState::Done);
        assert_eq!(wait_done(&core, doomed).0, JobState::Expired);
        let summary = core.drain();
        assert_eq!(summary.expired, 1);
        assert_eq!(summary.executed, 1);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn drain_finishes_the_whole_queue_first() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let workers = start(&core, 1, stub(Duration::from_millis(10)));
        let ids: Vec<u64> = (0..5)
            .map(|i| {
                let mut s = spec("drain");
                s.cycles = 1_000 + i;
                core.submit(s, None).unwrap().0
            })
            .collect();
        let summary = core.drain();
        assert_eq!(summary.executed, 5, "drain ran every queued job");
        for id in ids {
            assert_eq!(core.result(id).unwrap().0, JobState::Done);
        }
        assert!(
            core.submit(spec("late"), None).is_err(),
            "submissions after drain are refused"
        );
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn failed_jobs_report_the_error() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let exec: Executor = Arc::new(|_spec: &JobSpec| Err("boom".to_string()));
        let workers = start(&core, 1, exec);
        let (id, _) = core.submit(spec("fail"), None).unwrap();
        let (state, report) = wait_done(&core, id);
        assert_eq!(state, JobState::Failed("boom".into()));
        assert!(report.is_none());
        assert_eq!(core.drain().failed, 1);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn panicking_executor_fails_its_job_and_keeps_the_lane() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let exec: Executor = Arc::new(|spec: &JobSpec| {
            if spec.cycles == 13 {
                panic!("unlucky spec");
            }
            Ok(Report::new("stub"))
        });
        let panicking: crate::BatchExecutor = Arc::new(|_spec| panic!("batch boom"));
        let workers = start_batch(&core, 1, exec, panicking);
        let mut doomed = spec("panic");
        doomed.cycles = 13;
        let (bad, _) = core.submit(doomed, None).unwrap();
        let (acks, _) = core
            .submit_batch(batch("panic", &[(1, 1), (2, 2)]), None)
            .unwrap();
        let (good, _) = core.submit(spec("after"), None).unwrap();
        assert_eq!(
            wait_done(&core, bad).0,
            JobState::Failed("executor panicked: unlucky spec".into())
        );
        for (id, _) in acks {
            assert_eq!(
                wait_done(&core, id).0,
                JobState::Failed("executor panicked: batch boom".into())
            );
        }
        assert_eq!(
            wait_done(&core, good).0,
            JobState::Done,
            "the lane lives on"
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let drainer = Arc::clone(&core);
        std::thread::spawn(move || tx.send(drainer.drain()).unwrap());
        let summary = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("drain returns despite the panics");
        assert_eq!((summary.executed, summary.failed), (1, 3));
        assert_eq!(
            core.metrics().get("serve.jobs.panicked"),
            Some(&fgqos_sim::metrics::MetricValue::Counter(2)),
            "one panic per executor call: the single job and the batch"
        );
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn metrics_snapshot_has_the_documented_names() {
        let core = Arc::new(ServeCore::new(3, AdmissionConfig::default()));
        core.admission.admit("alice", 128);
        core.count_frame(false);
        core.count_malformed();
        let reg = core.metrics();
        for name in [
            "serve.frames",
            "serve.frames.malformed",
            "serve.frames.oversized",
            "serve.queue_depth",
            "serve.jobs.submitted",
            "serve.jobs.executed",
            "serve.jobs.failed",
            "serve.jobs.expired",
            "serve.jobs.panicked",
            "serve.cache.entries",
            "serve.cache.hits",
            "serve.cache.misses",
            "serve.cache.hit_rate",
            "serve.jobs.batches",
            "serve.workers",
            "serve.workers.busy",
            "serve.workers.busy_ratio",
            "serve.lane.0.queue_depth",
            "serve.lane.0.executed",
            "serve.lane.2.queue_depth",
            "serve.lane.2.executed",
            "serve.client.alice.accepted",
            "serve.client.alice.denied",
        ] {
            assert!(reg.get(name).is_some(), "missing metric {name}");
        }
    }

    fn batch(tag: &str, points: &[(u64, u64)]) -> BatchSpec {
        BatchSpec {
            scenario: format!("# {tag}\n[master a]\nkind cpu\n"),
            cycles: 1_000,
            until_done: None,
            warmup: 500,
            points: points
                .iter()
                .map(|&(period, budget)| crate::protocol::BatchPoint { period, budget })
                .collect(),
            kind: crate::protocol::BatchKind::Sweep,
        }
    }

    /// A batch executor that renders one row per point, tagged with the
    /// point's knobs, and records which thread ran it.
    fn batch_stub(ran_on: Arc<Mutex<Vec<std::thread::ThreadId>>>) -> crate::BatchExecutor {
        Arc::new(move |spec: &BatchSpec| {
            ran_on.lock().unwrap().push(std::thread::current().id());
            Ok(spec
                .points
                .iter()
                .map(|p| {
                    let mut r = Report::new("batch-stub");
                    r.note(format!("period={} budget={}", p.period, p.budget));
                    r
                })
                .collect())
        })
    }

    #[test]
    fn batch_points_get_individual_jobs_and_cache_entries() {
        let core = Arc::new(ServeCore::new(2, AdmissionConfig::default()));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let workers = start_batch(
            &core,
            2,
            stub(Duration::ZERO),
            batch_stub(Arc::clone(&ran_on)),
        );
        let (acks, lane) = core
            .submit_batch(batch("b", &[(100, 1), (200, 2)]), None)
            .unwrap();
        assert_eq!(acks.len(), 2);
        assert!(lane.is_some(), "uncached batch is pinned to a lane");
        for &(id, ref cached) in &acks {
            assert!(cached.is_none(), "first submission misses");
            let (state, report) = wait_done(&core, id);
            assert_eq!(state, JobState::Done);
            assert!(report.is_some());
        }
        // The whole batch executed in one executor call, on one thread.
        assert_eq!(ran_on.lock().unwrap().len(), 1);
        // Resubmission: every point is born done from the per-point cache.
        let (acks2, lane2) = core
            .submit_batch(batch("b", &[(100, 1), (200, 2)]), None)
            .unwrap();
        assert_eq!(lane2, None, "fully cached batch never queues");
        for (id, cached) in acks2 {
            assert!(cached.is_some());
            assert_eq!(core.result(id).unwrap().0, JobState::Done);
        }
        // Partial overlap: only the new point misses and executes.
        let (acks3, lane3) = core
            .submit_batch(batch("b", &[(100, 1), (300, 3)]), None)
            .unwrap();
        assert!(lane3.is_some());
        assert!(acks3[0].1.is_some(), "shared point is a hit");
        assert!(acks3[1].1.is_none(), "new point is a miss");
        assert_eq!(wait_done(&core, acks3[1].0).0, JobState::Done);
        let summary = core.drain();
        assert_eq!(summary.submitted, 6, "every point counts as a job");
        assert_eq!(summary.executed, 3, "only misses executed");
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn batch_stays_on_its_pinned_lane() {
        let core = Arc::new(ServeCore::new(2, AdmissionConfig::default()));
        // No workers yet: submissions queue up so lane choice is visible.
        let (_, lane_a) = core.submit_batch(batch("a", &[(1, 1)]), None).unwrap();
        let (_, lane_b) = core.submit_batch(batch("b", &[(2, 2)]), None).unwrap();
        let (la, lb) = (lane_a.unwrap(), lane_b.unwrap());
        assert_ne!(la, lb, "least-loaded placement spreads batches");
        let reg = core.metrics();
        use fgqos_sim::metrics::MetricValue;
        for lane in [la, lb] {
            assert_eq!(
                reg.get(&format!("serve.lane.{lane}.queue_depth")),
                Some(&MetricValue::Gauge(1.0))
            );
        }
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let workers = start_batch(
            &core,
            2,
            stub(Duration::ZERO),
            batch_stub(Arc::clone(&ran_on)),
        );
        core.drain();
        assert_eq!(ran_on.lock().unwrap().len(), 2);
        let reg = core.metrics();
        for lane in 0..2 {
            assert_eq!(
                reg.get(&format!("serve.lane.{lane}.executed")),
                Some(&MetricValue::Counter(1)),
                "each lane executed its own batch"
            );
        }
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn batch_executor_failure_fails_every_point() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let failing: crate::BatchExecutor = Arc::new(|_spec| Err("snapshot refused".into()));
        let workers = start_batch(&core, 1, stub(Duration::ZERO), failing);
        let (acks, _) = core
            .submit_batch(batch("f", &[(1, 1), (2, 2)]), None)
            .unwrap();
        for (id, _) in acks {
            assert_eq!(
                wait_done(&core, id).0,
                JobState::Failed("snapshot refused".into())
            );
        }
        assert_eq!(core.drain().failed, 2);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn parked_waiter_is_released_when_drain_runs_the_job() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        let (id, _) = core.submit(spec("parked"), None).unwrap();
        let waiter = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.wait_result(id, Duration::from_secs(30)))
        };
        // Give the waiter time to park on the still-queued job.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let workers = start(&core, 1, stub(Duration::ZERO));
        assert_eq!(core.drain().executed, 1);
        let (state, report) = waiter.join().unwrap().expect("job exists");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "publishing the job woke the waiter"
        );
        assert_eq!(state, JobState::Done);
        assert!(report.is_some());
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn status_reports_queue_position() {
        let core = Arc::new(ServeCore::new(1, AdmissionConfig::default()));
        // No workers: everything stays queued.
        let (a, _) = core.submit(spec("a"), None).unwrap();
        let mut s = spec("b");
        s.cycles = 2_000;
        let (b, _) = core.submit(s, None).unwrap();
        assert_eq!(core.status(a).unwrap(), (JobState::Queued, Some(0)));
        assert_eq!(core.status(b).unwrap(), (JobState::Queued, Some(1)));
        assert!(core.status(999).is_none());
    }
}
