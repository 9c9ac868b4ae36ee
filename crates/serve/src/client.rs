//! A small blocking client for the `fgqos.serve` protocol.
//!
//! This is what `fgqos submit` and the integration tests use: one TCP
//! connection, synchronous request/response. Waiting for a job is a
//! `result` request that the server holds until the job finishes
//! (`wait_ms`), so a finished report costs one round trip. It has no
//! async machinery on purpose — the protocol is strictly
//! one-response-per-request, so a `BufReader` over the socket is all
//! the state a client needs.

use crate::live::LIVE_SCHEMA;
use crate::protocol::{
    BatchSpec, ControlSet, LiveSpec, MetricsFormat, MAX_RESULT_WAIT_MS, SERVE_SCHEMA,
};
use fgqos_sim::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long [`Client::wait_report`] pauses after a pending answer that
/// came back before its `wait_ms` ran out: the sign of a server that
/// ignores the field, which would otherwise be polled in a tight loop.
const LEGACY_PAUSE: Duration = Duration::from_millis(2);

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read or write).
    Io(std::io::Error),
    /// The server's response was missing, unparsable, or off-schema.
    Protocol(String),
    /// The server denied the submission at admission control.
    Denied(String),
    /// The job finished in a non-`done` state (`failed` / `expired`).
    Job(String),
    /// The result did not arrive within the caller's wait budget.
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Denied(m) => write!(f, "denied: {m}"),
            ClientError::Job(m) => write!(f, "job error: {m}"),
            ClientError::Timeout => write!(f, "timed out waiting for the result"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The `submit` acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitAck {
    /// Server-assigned job id.
    pub job: u64,
    /// `true` when the job was answered from the result cache.
    pub cached: bool,
}

/// Options attached to a submission (admission principal, deadline).
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// `--until-done <master>`: stop when this master's queue drains.
    pub until_done: Option<String>,
    /// Admission-control principal; the server defaults to the peer ip.
    pub client: Option<String>,
    /// Queue deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// The `submit_batch` acknowledgement: one job per point, in point
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAck {
    /// Server-assigned job ids, parallel to the submitted points.
    pub jobs: Vec<u64>,
    /// Per-point cache hits, parallel to `jobs`.
    pub cached: Vec<bool>,
    /// Worker lane the uncached remainder was pinned to (`None` when
    /// the whole batch was answered from the cache).
    pub lane: Option<usize>,
}

/// A blocking connection to a `fgqos serve` instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        // Frames are small and strictly request/response: Nagle only
        // adds latency here.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one raw request frame and reads the matching response.
    ///
    /// Schema and version are checked; `ok` is not — callers decide how
    /// to treat application-level errors.
    pub fn request(&mut self, request: &Value) -> Result<Value, ClientError> {
        self.writer.write_all(request.to_compact().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed before a response arrived".into(),
            ));
        }
        let doc = Value::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparsable response: {e}")))?;
        if doc.get("schema").and_then(Value::as_str) != Some(SERVE_SCHEMA) {
            return Err(ClientError::Protocol(
                "response missing serve schema".into(),
            ));
        }
        Ok(doc)
    }

    fn expect_ok(doc: Value) -> Result<Value, ClientError> {
        if doc.get("ok") == Some(&Value::Bool(true)) {
            return Ok(doc);
        }
        let message = doc
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unspecified server error")
            .to_string();
        if doc.get("denied") == Some(&Value::Bool(true)) {
            Err(ClientError::Denied(message))
        } else {
            Err(ClientError::Job(message))
        }
    }

    /// Submits a scenario for execution.
    pub fn submit(
        &mut self,
        scenario: &str,
        cycles: u64,
        opts: &SubmitOptions,
    ) -> Result<SubmitAck, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("submit"));
        req.set("scenario", Value::str(scenario));
        req.set("cycles", Value::from(cycles));
        if let Some(u) = &opts.until_done {
            req.set("until_done", Value::str(u.clone()));
        }
        if let Some(c) = &opts.client {
            req.set("client", Value::str(c.clone()));
        }
        if let Some(d) = opts.deadline_ms {
            req.set("deadline_ms", Value::from(d));
        }
        let doc = Self::expect_ok(self.request(&req)?)?;
        let job = doc
            .get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit ack missing 'job'".into()))?;
        let cached = doc.get("cached") == Some(&Value::Bool(true));
        Ok(SubmitAck { job, cached })
    }

    /// Submits a warm-start sweep slice (protocol v2).
    ///
    /// Every point gets its own job id; wait on them with
    /// [`wait_report`](Self::wait_report) like ordinary submissions.
    pub fn submit_batch(
        &mut self,
        spec: &BatchSpec,
        opts: &SubmitOptions,
    ) -> Result<BatchAck, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("submit_batch"));
        req.set("scenario", Value::str(spec.scenario.clone()));
        req.set("cycles", Value::from(spec.cycles));
        if let Some(u) = &spec.until_done {
            req.set("until_done", Value::str(u.clone()));
        }
        req.set("warmup", Value::from(spec.warmup));
        req.set("kind", Value::str(spec.kind.as_str()));
        let mut points = Value::arr();
        for p in &spec.points {
            let mut point = Value::obj();
            point.set("period", Value::from(p.period));
            point.set("budget", Value::from(p.budget));
            points.push(point);
        }
        req.set("points", points);
        if let Some(c) = &opts.client {
            req.set("client", Value::str(c.clone()));
        }
        if let Some(d) = opts.deadline_ms {
            req.set("deadline_ms", Value::from(d));
        }
        let doc = Self::expect_ok(self.request(&req)?)?;
        let jobs = doc
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or_else(|| ClientError::Protocol("submit_batch ack missing 'jobs'".into()))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| ClientError::Protocol("non-integer job id".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cached = doc
            .get("cached")
            .and_then(Value::as_arr)
            .ok_or_else(|| ClientError::Protocol("submit_batch ack missing 'cached'".into()))?
            .iter()
            .map(|v| v == &Value::Bool(true))
            .collect();
        let lane = doc.get("lane").and_then(Value::as_u64).map(|l| l as usize);
        Ok(BatchAck { jobs, cached, lane })
    }

    /// Bounds how long a single response read may block (used by the
    /// coordinator's forwarding paths so a hung worker is detected
    /// instead of wedging the forward thread forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends a v3 liveness probe; any transport or schema failure means
    /// the peer is not a healthy serve endpoint.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("ping"));
        Self::expect_ok(self.request(&req)?).map(|_| ())
    }

    /// Announces a worker's serve address to a coordinator (v3);
    /// returns the coordinator's live worker count.
    pub fn register_worker(&mut self, addr: &str) -> Result<u64, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("register_worker"));
        req.set("addr", Value::str(addr));
        let doc = Self::expect_ok(self.request(&req)?)?;
        doc.get("workers")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("register ack missing 'workers'".into()))
    }

    /// Fetches a job's result response once (no waiting).
    pub fn result(&mut self, job: u64) -> Result<Value, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("result"));
        req.set("job", Value::from(job));
        self.request(&req)
    }

    /// Fetches a job's result response, letting the server hold the
    /// request for up to `wait_ms` (capped at
    /// [`MAX_RESULT_WAIT_MS`]) while the job is queued or running. The
    /// response is that of [`result`](Self::result) at the moment the
    /// job finished or the wait ran out.
    pub fn result_within(&mut self, job: u64, wait_ms: u64) -> Result<Value, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("result"));
        req.set("job", Value::from(job));
        req.set("wait_ms", Value::from(wait_ms));
        self.request(&req)
    }

    /// Waits until the job's `Report` JSON document is available.
    ///
    /// Returns the embedded `"report"` value. Fails fast on `failed` /
    /// `expired` jobs; gives up after `timeout`.
    ///
    /// Each request asks the server to hold it until the job finishes
    /// (`wait_ms`, at most [`MAX_RESULT_WAIT_MS`] per request), so a job
    /// that finishes is seen the moment it does, in one round trip. A
    /// server that predates `wait_ms` answers a pending job at once;
    /// the client then pauses 2 ms before asking again rather than
    /// spin.
    pub fn wait_report(&mut self, job: u64, timeout: Duration) -> Result<Value, ClientError> {
        let give_up = Instant::now() + timeout;
        loop {
            let asked = Instant::now();
            let wait = give_up.saturating_duration_since(asked);
            // Round up so a sub-millisecond remainder still waits.
            let wait_ms = (wait.as_micros().div_ceil(1_000) as u64).min(MAX_RESULT_WAIT_MS);
            let doc = Self::expect_ok(self.result_within(job, wait_ms)?)?;
            match doc.get("state").and_then(Value::as_str) {
                Some("done") => {
                    return doc
                        .get("report")
                        .cloned()
                        .ok_or_else(|| ClientError::Protocol("done job missing report".into()));
                }
                Some("queued") | Some("running") => {}
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected job state {other:?}"
                    )))
                }
            }
            if Instant::now() >= give_up {
                return Err(ClientError::Timeout);
            }
            if asked.elapsed() < Duration::from_millis(wait_ms) {
                std::thread::sleep(LEGACY_PAUSE);
            }
        }
    }

    /// Submits and waits for the report in one call.
    pub fn submit_and_wait(
        &mut self,
        scenario: &str,
        cycles: u64,
        opts: &SubmitOptions,
        timeout: Duration,
    ) -> Result<(SubmitAck, Value), ClientError> {
        let ack = self.submit(scenario, cycles, opts)?;
        let report = self.wait_report(ack.job, timeout)?;
        Ok((ack, report))
    }

    /// Fetches the server's metrics registry export.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<Value, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("metrics"));
        req.set(
            "format",
            Value::str(match format {
                MetricsFormat::Json => "json",
                MetricsFormat::Csv => "csv",
            }),
        );
        Self::expect_ok(self.request(&req)?)
    }

    /// Requests a graceful drain-and-stop; returns the drain summary
    /// response once the server is quiescent.
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("shutdown"));
        Self::expect_ok(self.request(&req)?)
    }

    /// Starts a live run (v4 `subscribe`, new-run mode) and returns its
    /// run id. After this call the connection is **streaming**: read
    /// frames with [`next_live_frame`](Self::next_live_frame) until it
    /// returns the end-of-stream object; only then is the connection
    /// usable for ordinary requests again.
    pub fn subscribe(&mut self, spec: &LiveSpec, client: Option<&str>) -> Result<u64, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("subscribe"));
        req.set("scenario", Value::str(spec.scenario.clone()));
        req.set("cycles", Value::from(spec.cycles));
        req.set("window", Value::from(spec.window));
        if spec.pace_ms > 0 {
            req.set("pace_ms", Value::from(spec.pace_ms));
        }
        if let Some(c) = client {
            req.set("client", Value::str(c));
        }
        let doc = Self::expect_ok(self.request(&req)?)?;
        doc.get("run")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("subscribe ack missing 'run'".into()))
    }

    /// Attaches to an already-running live run (v4 `subscribe`, attach
    /// mode). Streaming semantics as in [`subscribe`](Self::subscribe).
    pub fn subscribe_run(&mut self, run: u64) -> Result<u64, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("subscribe"));
        req.set("run", Value::from(run));
        let doc = Self::expect_ok(self.request(&req)?)?;
        doc.get("run")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("subscribe ack missing 'run'".into()))
    }

    /// Reads the next streamed object after a subscribe: a telemetry
    /// frame (`"stream":"frame"`) or the end-of-stream object
    /// (`"stream":"end"`). The caller decides when to stop by
    /// inspecting `"stream"`.
    pub fn next_live_frame(&mut self) -> Result<Value, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("connection closed mid-stream".into()));
        }
        let doc = Value::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparsable frame: {e}")))?;
        if doc.get("schema").and_then(Value::as_str) != Some(LIVE_SCHEMA) {
            return Err(ClientError::Protocol("frame missing live schema".into()));
        }
        Ok(doc)
    }

    /// Queues a register write against a live run (v4 `control`);
    /// returns its position in the run's pending queue. Use a separate
    /// connection when another one is mid-stream.
    pub fn control(&mut self, run: u64, target: &str, set: ControlSet) -> Result<u64, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("control"));
        req.set("run", Value::from(run));
        req.set("target", Value::str(target));
        req.set("set", Value::str(set.key()));
        req.set("value", set.value());
        let doc = Self::expect_ok(self.request(&req)?)?;
        doc.get("queued")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("control ack missing 'queued'".into()))
    }

    /// Fetches a live run's journal document (v4 `journal`): control
    /// journal, lifecycle state, and — once the run finished — the
    /// synthesized replay scenario plus the final report.
    pub fn journal(&mut self, run: u64) -> Result<Value, ClientError> {
        let mut req = Value::obj();
        req.set("op", Value::str("journal"));
        req.set("run", Value::from(run));
        Self::expect_ok(self.request(&req)?)
    }
}
