//! The one TCP front end shared by the server and the fleet
//! coordinator: accept loop, per-connection protocol loop, request
//! dispatch and the `subscribe` stream.
//!
//! One thread accepts connections and one detached thread serves each
//! connection. Everything that differs between a server and a
//! coordinator on the wire is answered by the [`Backend`] behind the
//! front end, as data; the bytes around it are built here once.

use crate::live::{ControlWrite, LiveRegistry, LiveSession, NextFrame};
use crate::pool::{isolated, JobState};
use crate::protocol::{
    error_response, parse_request, read_frame, response_head, BatchSpec, FrameError, JobSpec,
    LiveSpec, MetricsFormat, Request, MAX_RESULT_WAIT_MS,
};
use crate::LiveExecutor;
use fgqos_sim::json::Value;
use fgqos_sim::metrics::MetricsRegistry;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a backend that hosts live runs lends the `subscribe` handler.
pub(crate) struct LivePlane<'a> {
    /// The live-run table.
    pub registry: &'a LiveRegistry,
    /// Runs the job behind a new-run `subscribe`.
    pub executor: &'a LiveExecutor,
    /// Counts executor panics; shared with the executor thread.
    pub panicked: &'a Arc<AtomicU64>,
}

/// The service behind a front end: a local worker pool
/// ([`ServeCore`](crate::pool::ServeCore)) or a fleet coordinator
/// ([`CoordinatorCore`](crate::coordinator::CoordinatorCore)).
pub(crate) trait Backend: Send + Sync + 'static {
    /// Wire state of an accepted submission that missed the cache.
    const PENDING_STATE: &'static str;

    /// Counts one received frame; `oversized` when it broke the cap.
    fn count_frame(&self, oversized: bool);

    /// Counts one unparsable frame.
    fn count_malformed(&self);

    /// Charges a frame of `bytes` to `principal`'s ingress budget;
    /// `false` denies it.
    fn admit(&self, principal: &str, bytes: u64) -> bool;

    /// Accepts a job: its id, plus the report when the cache answered
    /// it. `Err` when the backend is draining.
    fn submit(
        self: &Arc<Self>,
        spec: JobSpec,
        deadline: Option<Instant>,
    ) -> Result<(u64, Option<Arc<Value>>), String>;

    /// Accepts a batch: one job per point, in point order, with the
    /// report of each point the cache answered, plus the lane its
    /// uncached points were pinned to when the backend has lanes.
    #[allow(clippy::type_complexity)]
    fn submit_batch(
        self: &Arc<Self>,
        spec: BatchSpec,
        deadline: Option<Instant>,
    ) -> Result<(Vec<(u64, Option<Arc<Value>>)>, Option<usize>), String>;

    /// A job's state, plus its queue position when the backend queues.
    fn status(&self, job: u64) -> Option<(JobState, Option<usize>)>;

    /// A job's state plus its report once done, held for up to `wait`
    /// while the job is queued or running: it returns the moment the
    /// job finishes. An unknown job answers `None` at once.
    fn result(&self, job: u64, wait: Duration) -> Option<(JobState, Option<Arc<Value>>)>;

    /// The backend's metrics registry.
    fn metrics(&self) -> MetricsRegistry;

    /// Registers a fleet worker; the live worker count.
    fn register_worker(&self, addr: &str) -> Result<usize, String>;

    /// The complete `snapshot` response for `(scenario, warmup)`.
    fn snapshot(&self, scenario: String, warmup: u64) -> Value;

    /// The live-run plane, or why live runs are refused.
    fn live(&self) -> Result<LivePlane<'_>, &'static str>;

    /// Drains the backend; the `shutdown` response's counters, in
    /// wire order.
    fn drain(&self) -> Vec<(&'static str, u64)>;
}

/// Starts the accept loop on `listener`: one detached thread per
/// connection, until a `shutdown` request stops it.
pub(crate) fn spawn_accept<B: Backend>(
    listener: TcpListener,
    core: Arc<B>,
    max_frame: usize,
    default_deadline_ms: Option<u64>,
) -> io::Result<JoinHandle<()>> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    Ok(std::thread::spawn(move || {
        for incoming in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else { continue };
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                handle_connection(core, stream, max_frame, default_deadline_ms, stop, addr);
            });
        }
    }))
}

fn send(writer: &mut TcpStream, response: &Value) -> io::Result<()> {
    writer.write_all(response.to_compact().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_connection<B: Backend>(
    core: Arc<B>,
    stream: TcpStream,
    max_frame: usize,
    default_deadline_ms: Option<u64>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
) {
    let _ = stream.set_nodelay(true);
    let peer = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match read_frame(&mut reader, max_frame) {
            Ok(None) | Err(FrameError::Io(_)) => return,
            Err(FrameError::TooLarge { limit }) => {
                core.count_frame(true);
                let resp = error_response("error", format!("frame exceeds {limit} bytes"));
                if send(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
            Ok(Some(line)) => line,
        };
        core.count_frame(false);
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(message) => {
                core.count_malformed();
                if send(&mut writer, &error_response("error", message)).is_err() {
                    return;
                }
                continue;
            }
        };
        // `subscribe` breaks the one-response-per-request shape: after
        // the acknowledgement the connection streams frames until the
        // end-of-stream object, then reverts to request/response. It is
        // the only op handled outside `dispatch`.
        if let Request::Subscribe { spec, run, client } = request {
            let served = match core.live() {
                Ok(plane) => {
                    serve_subscription(&*core, plane, &mut writer, spec, run, client, &line, &peer)
                }
                Err(refusal) => send(&mut writer, &error_response("subscribe", refusal)),
            };
            if served.is_err() {
                return;
            }
            continue;
        }
        let shutting_down = matches!(request, Request::Shutdown);
        let response = dispatch(&core, request, &line, &peer, default_deadline_ms);
        if send(&mut writer, &response).is_err() && !shutting_down {
            return;
        }
        if shutting_down {
            // The drain already completed inside dispatch; now stop the
            // accept loop. A self-connection unblocks its accept() call.
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            return;
        }
    }
}

/// Charges the whole frame (newline included) to the client's bucket;
/// the denial response when it is over budget.
fn admission<B: Backend>(
    core: &B,
    op: &str,
    client: Option<String>,
    line: &str,
    peer: &str,
) -> Option<Value> {
    let principal = client.unwrap_or_else(|| format!("peer:{peer}"));
    if core.admit(&principal, line.len() as u64 + 1) {
        return None;
    }
    let mut resp = error_response(
        op,
        format!("admission denied: client {principal:?} is over its ingress budget"),
    );
    resp.set("denied", Value::Bool(true));
    Some(resp)
}

/// Serves one `subscribe` request end to end: acknowledge, stream
/// frames until the end-of-stream object, then hand the connection back
/// to the request loop. `Ok` means the connection stays usable (even
/// after a refused subscription); `Err` means the peer went away.
#[allow(clippy::too_many_arguments)]
fn serve_subscription<B: Backend>(
    core: &B,
    plane: LivePlane<'_>,
    writer: &mut TcpStream,
    spec: Option<LiveSpec>,
    run: Option<u64>,
    client: Option<String>,
    line: &str,
    peer: &str,
) -> io::Result<()> {
    let (session, presub): (Arc<LiveSession>, Option<u64>) = match (spec, run) {
        (Some(spec), None) => {
            // Starting a run is charged like a submit: the whole frame
            // (scenario text included) against the client's bucket.
            if let Some(denied) = admission(core, "subscribe", client, line, peer) {
                return send(writer, &denied);
            }
            let session = match plane.registry.create() {
                Ok(session) => session,
                Err(message) => return send(writer, &error_response("subscribe", message)),
            };
            // Register the creating subscriber *before* the executor
            // thread exists: with zero pacing the run can publish its
            // first frames immediately, and the creator must see every
            // one of them (an attaching subscriber, by contrast, only
            // sees frames from its attach point on).
            let sub = session.subscribe();
            let executor = Arc::clone(plane.executor);
            let panicked = Arc::clone(plane.panicked);
            let run_session = Arc::clone(&session);
            std::thread::spawn(move || {
                // Scenario errors surface through the session (a failed
                // end-of-stream object), not the subscribe ack: by the
                // time the executor parses anything the ack is long
                // gone.
                if let Err(message) =
                    isolated(&panicked, || executor(&spec, Arc::clone(&run_session)))
                {
                    if !run_session.finished() {
                        run_session.finish(None, None, Some(message));
                    }
                }
            });
            (session, Some(sub))
        }
        (None, Some(run)) => match plane.registry.get(run) {
            Some(session) => (session, None),
            None => {
                return send(
                    writer,
                    &error_response("subscribe", format!("unknown live run {run}")),
                )
            }
        },
        // parse_request guarantees exactly one of spec/run.
        _ => return send(writer, &error_response("subscribe", "malformed subscribe")),
    };
    // Register (if attaching) before acknowledging so no frame can slip
    // between the ack and the stream.
    let sub = presub.unwrap_or_else(|| session.subscribe());
    let mut ack = response_head("subscribe", true);
    ack.set("run", Value::from(session.id()));
    if send(writer, &ack).is_err() {
        session.unsubscribe(sub);
        return Err(io::Error::other("peer gone"));
    }
    loop {
        match session.next_frame(sub, Duration::from_millis(500)) {
            NextFrame::TimedOut => continue,
            NextFrame::Frame(frame) => {
                if send(writer, &frame).is_err() {
                    session.unsubscribe(sub);
                    return Err(io::Error::other("peer gone"));
                }
            }
            NextFrame::End(end) => {
                session.unsubscribe(sub);
                return send(writer, &end);
            }
        }
    }
}

/// The live session `run` names, or the error response for `op`.
fn live_session<B: Backend>(core: &B, op: &str, run: u64) -> Result<Arc<LiveSession>, Value> {
    let plane = core.live().map_err(|refusal| error_response(op, refusal))?;
    plane
        .registry
        .get(run)
        .ok_or_else(|| error_response(op, format!("unknown live run {run}")))
}

fn dispatch<B: Backend>(
    core: &Arc<B>,
    request: Request,
    line: &str,
    peer: &str,
    default_deadline_ms: Option<u64>,
) -> Value {
    let deadline = |ms: Option<u64>| {
        ms.or(default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    };
    match request {
        Request::Ping => response_head("ping", true),
        Request::RegisterWorker { addr } => match core.register_worker(&addr) {
            Err(message) => error_response("register_worker", message),
            Ok(live) => {
                let mut resp = response_head("register_worker", true);
                resp.set("workers", Value::from(live as u64));
                resp
            }
        },
        Request::Snapshot { scenario, warmup } => core.snapshot(scenario, warmup),
        Request::Submit {
            spec,
            client,
            deadline_ms,
        } => {
            if let Some(denied) = admission(&**core, "submit", client, line, peer) {
                return denied;
            }
            match core.submit(spec, deadline(deadline_ms)) {
                Err(message) => error_response("submit", message),
                Ok((job, cached)) => {
                    let mut resp = response_head("submit", true);
                    resp.set("job", Value::from(job));
                    resp.set("cached", Value::Bool(cached.is_some()));
                    resp.set(
                        "state",
                        Value::str(if cached.is_some() {
                            "done"
                        } else {
                            B::PENDING_STATE
                        }),
                    );
                    resp
                }
            }
        }
        Request::SubmitBatch {
            spec,
            client,
            deadline_ms,
        } => {
            // The whole frame — base scenario plus every point — is
            // charged to the client's bucket in one admission decision:
            // a sweep slice competes for ingress like the equivalent
            // sequence of single submissions would.
            if let Some(denied) = admission(&**core, "submit_batch", client, line, peer) {
                return denied;
            }
            match core.submit_batch(spec, deadline(deadline_ms)) {
                Err(message) => error_response("submit_batch", message),
                Ok((acks, lane)) => {
                    let mut resp = response_head("submit_batch", true);
                    let mut jobs = Value::arr();
                    let mut cached = Value::arr();
                    for (id, hit) in &acks {
                        jobs.push(Value::from(*id));
                        cached.push(Value::Bool(hit.is_some()));
                    }
                    resp.set("jobs", jobs);
                    resp.set("cached", cached);
                    if let Some(lane) = lane {
                        resp.set("lane", Value::from(lane as u64));
                    }
                    resp
                }
            }
        }
        Request::Status { job } => match core.status(job) {
            None => error_response("status", format!("unknown job {job}")),
            Some((state, position)) => {
                let mut resp = response_head("status", true);
                resp.set("job", Value::from(job));
                resp.set("state", Value::str(state.wire_name()));
                if let Some(pos) = position {
                    resp.set("position", Value::from(pos as u64));
                }
                if let JobState::Failed(message) = state {
                    resp.set("error", Value::str(message));
                }
                resp
            }
        },
        // The response bytes depend only on the state the job is in when
        // the wait ends, never on how long it waited.
        Request::Result { job, wait_ms } => match core.result(
            job,
            Duration::from_millis(wait_ms.unwrap_or(0).min(MAX_RESULT_WAIT_MS)),
        ) {
            None => error_response("result", format!("unknown job {job}")),
            Some((state, report)) => match state {
                JobState::Done => {
                    let mut resp = response_head("result", true);
                    resp.set("job", Value::from(job));
                    resp.set("state", Value::str("done"));
                    // The report is embedded verbatim: a cached job's
                    // response is byte-identical to the fresh run's.
                    let report = report.expect("done jobs carry a report");
                    resp.set("report", (*report).clone());
                    resp
                }
                JobState::Failed(message) => {
                    let mut resp = error_response("result", message);
                    resp.set("job", Value::from(job));
                    resp.set("state", Value::str("failed"));
                    resp
                }
                JobState::Expired => {
                    let mut resp = error_response("result", "deadline expired before execution");
                    resp.set("job", Value::from(job));
                    resp.set("state", Value::str("expired"));
                    resp
                }
                pending => {
                    let mut resp = response_head("result", true);
                    resp.set("job", Value::from(job));
                    resp.set("state", Value::str(pending.wire_name()));
                    resp
                }
            },
        },
        Request::Metrics { format } => {
            let registry = core.metrics();
            let mut resp = response_head("metrics", true);
            match format {
                MetricsFormat::Json => resp.set("metrics", registry.to_json()),
                MetricsFormat::Csv => resp.set("csv", Value::str(registry.to_csv())),
            };
            resp
        }
        // `subscribe` is intercepted in `handle_connection` (it turns
        // the connection into a stream); reaching here is impossible.
        Request::Subscribe { .. } => error_response("subscribe", "internal: unrouted subscribe"),
        Request::Control { run, target, set } => match live_session(&**core, "control", run) {
            Err(resp) => resp,
            Ok(session) => match session.control(ControlWrite { target, set }) {
                Err(message) => error_response("control", message),
                Ok(position) => {
                    let mut resp = response_head("control", true);
                    resp.set("run", Value::from(run));
                    resp.set("queued", Value::from(position));
                    resp
                }
            },
        },
        Request::Journal { run } => match live_session(&**core, "journal", run) {
            Err(resp) => resp,
            Ok(session) => {
                let mut resp = response_head("journal", true);
                if let Some(pairs) = session.journal_doc().as_obj() {
                    for (key, value) in pairs {
                        resp.set(key.clone(), value.clone());
                    }
                }
                resp
            }
        },
        Request::Shutdown => {
            let mut resp = response_head("shutdown", true);
            for (key, value) in core.drain() {
                resp.set(key, Value::from(value));
            }
            resp
        }
    }
}
