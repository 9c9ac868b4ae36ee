//! The TCP server: lifecycle plumbing around [`ServeCore`] behind the
//! shared front end (`front.rs`).
//!
//! The front end accepts connections and serves each on its own thread;
//! [`worker_count`]-many pool workers execute jobs. A `shutdown` request
//! drains the pool (every queued job still runs), answers with the drain
//! summary, and only then stops the accept loop — so a client that
//! observes the shutdown response knows the server is quiescent.

use crate::admission::AdmissionConfig;
use crate::cache::ResultCache;
use crate::front::spawn_accept;
use crate::pool::{worker_count, ServeCore};
use crate::protocol::DEFAULT_MAX_FRAME_BYTES;
use crate::{
    unsupported_batch_executor, unsupported_live_executor, unsupported_snapshot_executor,
    BatchExecutor, Executor, LiveExecutor, SnapshotExecutor,
};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server configuration; every field has a usable default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address. Port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads; 0 means [`worker_count`].
    pub threads: usize,
    /// Per-frame byte cap on the wire.
    pub max_frame_bytes: usize,
    /// Ingress regulation applied per client.
    pub admission: AdmissionConfig,
    /// Queue deadline applied to jobs that don't set their own.
    pub default_deadline_ms: Option<u64>,
    /// Directory for a persistent result cache; `None` keeps the cache
    /// in memory only (lost on restart).
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            admission: AdmissionConfig::default(),
            default_deadline_ms: None,
            cache_dir: None,
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// send a `shutdown` request (or use
/// [`Client::shutdown`](crate::client::Client::shutdown)) and then
/// [`join`](Self::join).
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<ServeCore>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when 0 was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared core, for in-process inspection (tests, benches).
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// Waits for the accept loop and every worker to exit. Returns
    /// immediately useful only after a `shutdown` request was served.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds the listener, starts the worker pool and the accept loop.
/// `submit_batch` requests are refused with a stable error; use
/// [`start_with`] to install a real batch executor.
pub fn start(cfg: ServeConfig, executor: Executor) -> io::Result<ServerHandle> {
    start_with(cfg, executor, unsupported_batch_executor())
}

/// [`start`], with a [`BatchExecutor`] serving `submit_batch` requests.
pub fn start_with(
    cfg: ServeConfig,
    executor: Executor,
    batch_executor: BatchExecutor,
) -> io::Result<ServerHandle> {
    start_live(
        cfg,
        executor,
        batch_executor,
        unsupported_snapshot_executor(),
        unsupported_live_executor(),
    )
}

/// [`start_with`], plus a [`SnapshotExecutor`] serving the v3
/// `snapshot` op (warm-boundary blobs over the wire) and a
/// [`LiveExecutor`] serving the v4 live plane: `subscribe` starts a
/// windowed run on a dedicated thread and streams its frames, `control`
/// queues register writes against it, `journal` fetches the recorded
/// control journal and replay scenario.
pub fn start_live(
    cfg: ServeConfig,
    executor: Executor,
    batch_executor: BatchExecutor,
    snapshot_executor: SnapshotExecutor,
    live_executor: LiveExecutor,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let threads = if cfg.threads > 0 {
        cfg.threads
    } else {
        worker_count()
    };
    let cache = match &cfg.cache_dir {
        Some(dir) => ResultCache::persistent(dir)?,
        None => ResultCache::new(),
    };
    let mut core = ServeCore::with_cache(threads, cfg.admission, cache);
    core.snapshot_executor = snapshot_executor;
    core.live_executor = live_executor;
    let core = Arc::new(core);
    let workers = (0..threads)
        .map(|lane| {
            let core = Arc::clone(&core);
            let executor = Arc::clone(&executor);
            let batch_executor = Arc::clone(&batch_executor);
            std::thread::spawn(move || core.worker_loop(lane, executor, batch_executor))
        })
        .collect();
    let accept = spawn_accept(
        listener,
        Arc::clone(&core),
        cfg.max_frame_bytes,
        cfg.default_deadline_ms,
    )?;
    Ok(ServerHandle {
        addr,
        core,
        accept: Some(accept),
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobSpec;
    use fgqos_bench::report::Report;
    use fgqos_sim::json::Value;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn stub_executor() -> Executor {
        Arc::new(|spec: &JobSpec| {
            let mut r = Report::new("stub");
            r.note(format!("cycles={}", spec.cycles));
            Ok(r)
        })
    }

    fn test_server() -> ServerHandle {
        start(
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            stub_executor(),
        )
        .expect("bind loopback")
    }

    struct Wire {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Wire {
        fn connect(addr: SocketAddr) -> Wire {
            let writer = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(writer.try_clone().expect("clone"));
            Wire { reader, writer }
        }

        fn roundtrip(&mut self, frame: &str) -> Value {
            self.writer
                .write_all(format!("{frame}\n").as_bytes())
                .expect("write");
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read");
            Value::parse(line.trim_end()).expect("response parses")
        }
    }

    fn shutdown(wire: &mut Wire, server: ServerHandle) {
        let resp = wire.roundtrip(r#"{"op":"shutdown"}"#);
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        server.join();
    }

    #[test]
    fn submit_then_result_roundtrip() {
        let server = test_server();
        let mut wire = Wire::connect(server.addr());
        let ack = wire.roundtrip(r#"{"op":"submit","scenario":"s","cycles":123}"#);
        assert_eq!(ack.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(ack.get("cached"), Some(&Value::Bool(false)));
        let job = ack.get("job").unwrap().as_u64().unwrap();
        let report = loop {
            let resp = wire.roundtrip(&format!(r#"{{"op":"result","job":{job}}}"#));
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
            if resp.get("state").unwrap().as_str() == Some("done") {
                break resp.get("report").unwrap().clone();
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let report = Report::from_json(&report).expect("valid report document");
        assert!(report.render_text().contains("cycles=123"));
        shutdown(&mut wire, server);
    }

    #[test]
    fn malformed_and_unknown_frames_keep_the_connection_alive() {
        let server = test_server();
        let mut wire = Wire::connect(server.addr());
        let resp = wire.roundtrip("this is not json");
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        let resp = wire.roundtrip(r#"{"op":"frobnicate"}"#);
        assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
        let resp = wire.roundtrip(r#"{"op":"status","job":99}"#);
        assert!(resp
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown job"));
        // The connection still works for real traffic afterwards.
        let ack = wire.roundtrip(r#"{"op":"submit","scenario":"s"}"#);
        assert_eq!(ack.get("ok"), Some(&Value::Bool(true)));
        shutdown(&mut wire, server);
    }

    #[test]
    fn metrics_export_has_both_formats() {
        let server = test_server();
        let mut wire = Wire::connect(server.addr());
        wire.roundtrip(r#"{"op":"submit","scenario":"s"}"#);
        let json = wire.roundtrip(r#"{"op":"metrics"}"#);
        let metrics = json.get("metrics").expect("metrics document");
        assert!(metrics
            .get("metrics")
            .unwrap()
            .get("serve.jobs.submitted")
            .is_some());
        let csv = wire.roundtrip(r#"{"op":"metrics","format":"csv"}"#);
        assert!(csv
            .get("csv")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("serve.frames"));
        shutdown(&mut wire, server);
    }

    #[test]
    fn panicking_live_executor_ends_the_stream_as_failed() {
        let panicking: LiveExecutor = Arc::new(|_spec, _session| panic!("live boom"));
        let server = start_live(
            ServeConfig {
                threads: 1,
                ..ServeConfig::default()
            },
            stub_executor(),
            unsupported_batch_executor(),
            unsupported_snapshot_executor(),
            panicking,
        )
        .expect("bind loopback");
        let mut wire = Wire::connect(server.addr());
        // Before the fix the stream never ended; time out instead.
        let timeout = Some(Duration::from_secs(10));
        wire.writer.set_read_timeout(timeout).expect("timeout");
        let ack = wire.roundtrip(r#"{"op":"subscribe","scenario":"s","cycles":10}"#);
        assert_eq!(ack.get("ok"), Some(&Value::Bool(true)));
        let mut line = String::new();
        wire.reader.read_line(&mut line).expect("end of stream");
        let end = Value::parse(line.trim_end()).expect("end object parses");
        assert_eq!(end.get("state").and_then(Value::as_str), Some("failed"));
        assert_eq!(
            end.get("error").and_then(Value::as_str),
            Some("executor panicked: live boom")
        );
        let metrics = wire.roundtrip(r#"{"op":"metrics"}"#);
        assert_eq!(
            metrics
                .get("metrics")
                .and_then(|doc| doc.get("metrics"))
                .and_then(|m| m.get("serve.jobs.panicked")),
            Some(&Value::from(1u64)),
            "the live executor's panic is counted"
        );
        shutdown(&mut wire, server);
    }

    #[test]
    fn shutdown_drains_and_reports_counters() {
        let server = test_server();
        let mut wire = Wire::connect(server.addr());
        for i in 0..4 {
            let ack = wire.roundtrip(&format!(r#"{{"op":"submit","scenario":"s","cycles":{i}}}"#));
            assert_eq!(ack.get("ok"), Some(&Value::Bool(true)));
        }
        let addr = server.addr();
        let resp = wire.roundtrip(r#"{"op":"shutdown"}"#);
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(resp.get("submitted").unwrap().as_u64(), Some(4));
        assert_eq!(resp.get("executed").unwrap().as_u64(), Some(4));
        server.join();
        // New connections are refused once the listener is down.
        assert!(TcpStream::connect(addr).is_err());
    }
}
