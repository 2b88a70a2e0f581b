//! The `cati serve` daemon: a long-lived inference service over a
//! blocking accept loop.
//!
//! Request lifecycle (DESIGN.md §13):
//!
//! 1. A connection thread parses the HTTP request and, for `/infer`,
//!    tries to **admit** it into the bounded work queue. A full queue
//!    is an immediate deterministic 503 (`serve.rejected`) — load is
//!    shed at the door, never by stalling the socket.
//! 2. Inference worker threads drain the queue in **micro-batches**:
//!    everything waiting (up to `max_batch`) is taken at once, each
//!    request is extracted and embedded by [`Cati::prepare`] (through
//!    the shared [`ArtifactCache`] when mounted), the rows are
//!    concatenated, and one
//!    [`cati::MultiStage::leaf_distributions_observed`] pass
//!    classifies the whole batch; each request's slice is voted by
//!    [`Cati::infer_prepared`] and rendered by [`cati::render_json`].
//!    That is the path `cati infer` runs, and per-row classification
//!    is row-independent, so every response is bit-identical to
//!    one-shot `cati infer --json` on the same binary.
//! 3. The connection thread waits on a response slot under the
//!    request's hang limit (the fuzz machinery, [`HangLimit`]). A
//!    deadline miss answers 504 immediately and **abandons** the
//!    slot; the worker's late result is dropped and counted
//!    (`serve.deadline_dropped`) instead of tearing down the batch.
//! 4. The model is an atomically hot-swappable [`Arc`]: `POST
//!    /admin/reload` builds a new [`ModelSlot`] and swaps it in; each
//!    batch snapshots one slot, and every response carries the
//!    version of the model that actually served it
//!    (`x-cati-model-version`).

use crate::http::{Request, RequestError, Response};
use crate::timeout::HangLimit;
use cati::{encode_cati1, render_json, ArtifactCache, Cati, Prepared, Tensor};
use cati_analysis::digest_bytes;
use cati_asm::binary::Binary;
use cati_obs::metrics::{MetricsSnapshot, DEFAULT_BUCKETS};
use cati_obs::{Observer, Recorder, RecorderConfig, SpanGuard};
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Histogram bounds for `serve.batch_size` (requests coalesced per
/// worker drain).
pub const BATCH_BUCKETS: [f64; 8] = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];

/// The per-request phase histograms (`serve.phase.*`): where a
/// request's wall time goes between admission and response.
///
/// - `queue_wait_ms` — admission → worker drain;
/// - `embed_ms` — extraction + embedding of one request (cache hits
///   land here too, near zero);
/// - `batch_wait_ms` — prepared → shared classification pass start
///   (waiting for batchmates to embed);
/// - `leaf_ms` — the shared `leaf_distributions_batch` pass, observed
///   once per batched request;
/// - `vote_ms` — per-request voting + response serialization.
pub const PHASE_HISTOGRAMS: [&str; 5] = [
    "serve.phase.queue_wait_ms",
    "serve.phase.embed_ms",
    "serve.phase.batch_wait_ms",
    "serve.phase.leaf_ms",
    "serve.phase.vote_ms",
];

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` = ephemeral port, for tests).
    pub addr: String,
    /// Bounded work-queue capacity; request N+1 gets a 503.
    pub queue_capacity: usize,
    /// Most requests coalesced into one classification batch.
    pub max_batch: usize,
    /// Inference worker threads draining the queue.
    pub workers: usize,
    /// Default per-request deadline (requests may override with the
    /// `x-cati-hang-limit-ms` header).
    pub hang_limit: HangLimit,
    /// Server-side [`ArtifactCache`] tier, keyed by binary digest —
    /// repeat submissions of the same binary skip extraction and
    /// embedding.
    pub cache_dir: Option<PathBuf>,
    /// Worker-thread override for the model's inference config
    /// (0 = keep the trained config).
    pub threads: usize,
    /// Telemetry configuration of the internal [`Recorder`].
    pub recorder: RecorderConfig,
    /// Honor the `x-cati-test-sleep-ms` header, which makes the
    /// worker sleep before computing a request — the deterministic
    /// "slow work" knob the concurrency/deadline tests are built on.
    /// Never enabled by the CLI.
    pub allow_test_delay: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            max_batch: 8,
            workers: 1,
            hang_limit: HangLimit::unlimited(),
            cache_dir: None,
            threads: 0,
            recorder: RecorderConfig::default(),
            allow_test_delay: false,
        }
    }
}

/// The version string of a trained system: the digest of its
/// deterministic CATI1 encoding, so retrained or converted models get
/// distinct versions and re-saves of the same model agree.
pub fn model_version(cati: &Cati) -> String {
    digest_bytes(&encode_cati1(cati)).to_string()
}

/// One immutable model snapshot: the system plus its version. Swapped
/// atomically as a whole so a batch never mixes weights and version.
#[derive(Debug)]
pub struct ModelSlot {
    /// The trained system.
    pub cati: Arc<Cati>,
    /// [`model_version`] of `cati`.
    pub version: String,
}

impl ModelSlot {
    fn new(mut cati: Cati, threads: usize) -> ModelSlot {
        if threads > 0 {
            cati.config.threads = threads;
        }
        let version = model_version(&cati);
        ModelSlot {
            cati: Arc::new(cati),
            version,
        }
    }
}

/// Where a response ends up: filled by the worker, or abandoned by a
/// connection thread whose deadline expired first.
enum SlotState {
    Pending,
    Done(Response),
    Abandoned,
}

/// The rendezvous between a connection thread and the worker that
/// computes its response.
struct ResponseSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<ResponseSlot> {
        Arc::new(ResponseSlot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        })
    }

    /// Delivers the worker's response. Returns false when the waiter
    /// already gave up (deadline expired) — the result is dropped.
    fn fulfill(&self, response: Response) -> bool {
        let mut state = self.state.lock().expect("slot lock");
        match *state {
            SlotState::Abandoned => false,
            _ => {
                *state = SlotState::Done(response);
                self.ready.notify_all();
                true
            }
        }
    }

    /// Whether the waiter already abandoned this slot (lets the
    /// worker skip computing a response nobody will read).
    fn is_abandoned(&self) -> bool {
        matches!(*self.state.lock().expect("slot lock"), SlotState::Abandoned)
    }

    /// Blocks until the response arrives or `limit` expires; `None`
    /// marks the slot abandoned (the fuzz hang-limit contract: the
    /// computation is never interrupted, only its result discarded).
    fn wait(&self, limit: HangLimit) -> Option<Response> {
        let mut state = self.state.lock().expect("slot lock");
        match limit.duration() {
            None => loop {
                if let SlotState::Done(_) = *state {
                    let done = std::mem::replace(&mut *state, SlotState::Abandoned);
                    let SlotState::Done(response) = done else {
                        unreachable!()
                    };
                    return Some(response);
                }
                state = self.ready.wait(state).expect("slot lock");
            },
            Some(limit) => {
                let deadline = Instant::now() + limit;
                loop {
                    if let SlotState::Done(_) = *state {
                        let done = std::mem::replace(&mut *state, SlotState::Abandoned);
                        let SlotState::Done(response) = done else {
                            unreachable!()
                        };
                        return Some(response);
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        *state = SlotState::Abandoned;
                        return None;
                    }
                    let (s, _) = self
                        .ready
                        .wait_timeout(state, deadline - now)
                        .expect("slot lock");
                    state = s;
                }
            }
        }
    }
}

/// How long [`ServerHandle::wait`] lets connection threads finish
/// writing after the workers exit. A client that never sends its
/// request cannot hold shutdown longer than this.
const CONNECTION_DRAIN_LIMIT: Duration = Duration::from_secs(2);

/// One admitted inference request.
struct Job {
    binary: Binary,
    lenient: bool,
    test_delay: Option<Duration>,
    slot: Arc<ResponseSlot>,
    admitted: Instant,
}

/// Shared state of a running daemon.
struct ServeState {
    cfg: ServeConfig,
    addr: SocketAddr,
    /// The hot-swappable model: readers clone the [`Arc`], reload
    /// replaces it under the write lock.
    model: RwLock<Arc<ModelSlot>>,
    queue: Mutex<VecDeque<Job>>,
    queue_ready: Condvar,
    recorder: Recorder,
    cache: Option<ArtifactCache>,
    shutdown: AtomicBool,
    /// Monotonic sequence for generated trace ids.
    trace_seq: AtomicU64,
    /// Unix-ms at daemon start; makes generated trace ids distinct
    /// across daemon restarts, not just within one.
    trace_epoch_ms: u64,
    /// Connection threads still running ([`ConnectionGuard`]).
    connections: Mutex<usize>,
    connections_done: Condvar,
}

impl ServeState {
    fn current_model(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.model.read().expect("model lock"))
    }

    /// The trace id of one exchange: the caller's `x-cati-trace-id`
    /// if it is printable and short enough, else a generated
    /// `<epoch_ms>-<seq>` id unique for this daemon's lifetime.
    fn trace_id(&self, request: &Request) -> String {
        if let Some(id) = request.header("x-cati-trace-id") {
            let id = id.trim();
            if !id.is_empty() && id.len() <= 128 && id.chars().all(|c| c.is_ascii_graphic()) {
                return id.to_string();
            }
        }
        let n = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:x}-{n:06x}", self.trace_epoch_ms)
    }

    /// Flags shutdown and wakes everything that blocks: workers on
    /// the queue condvar, the accept loop via a self-connection.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_ready.notify_all();
        let _ = TcpStream::connect(self.addr);
    }
}

/// Counts one connection thread in [`ServeState::connections`] for as
/// long as it lives.
struct ConnectionGuard(Arc<ServeState>);

impl ConnectionGuard {
    fn new(state: &Arc<ServeState>) -> ConnectionGuard {
        *state
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        ConnectionGuard(Arc::clone(state))
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        // A bare counter is valid after any panic, so a poisoned lock
        // is recovered rather than propagated out of `drop`.
        *self
            .0
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner) -= 1;
        self.0.connections_done.notify_all();
    }
}

/// A running daemon; dropping it shuts the server down and joins its
/// threads.
pub struct ServerHandle {
    state: Arc<ServeState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when `addr` asked for
    /// an ephemeral one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Version of the currently served model.
    pub fn model_version(&self) -> String {
        self.state.current_model().version.clone()
    }

    /// The daemon's telemetry recorder (metrics registry + request
    /// timeline), e.g. for writing a run manifest after shutdown.
    pub fn recorder(&self) -> &Recorder {
        &self.state.recorder
    }

    /// Asks the server to stop accepting and drain its queue.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Blocks until the accept loop and all workers exit (i.e. until
    /// [`ServerHandle::shutdown`] or `POST /admin/shutdown`), then
    /// until every connection thread has written its response and
    /// closed its socket, for at most 2 s. A process that exits after
    /// `wait` has therefore answered the request that shut it down.
    pub fn wait(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let open = self
            .state
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = self
            .state
            .connections_done
            .wait_timeout_while(open, CONNECTION_DRAIN_LIMIT, |n| *n > 0);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// The daemon entry points.
pub struct Server;

impl Server {
    /// Starts a daemon serving `cati` under `cfg`; returns once the
    /// socket is bound and the workers are running.
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-directory failures.
    pub fn start(cati: Cati, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(ArtifactCache::open(dir)?),
            None => None,
        };
        let recorder = Recorder::new(cfg.recorder);
        recorder
            .metrics()
            .register_histogram("serve.batch_size", &BATCH_BUCKETS);
        for name in PHASE_HISTOGRAMS {
            recorder
                .metrics()
                .register_histogram(name, &DEFAULT_BUCKETS);
        }
        let threads = cfg.threads;
        let state = Arc::new(ServeState {
            cfg,
            addr,
            model: RwLock::new(Arc::new(ModelSlot::new(cati, threads))),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            recorder,
            cache,
            shutdown: AtomicBool::new(false),
            trace_seq: AtomicU64::new(0),
            trace_epoch_ms: cati_obs::manifest::unix_ms(),
            connections: Mutex::new(0),
            connections_done: Condvar::new(),
        });
        let workers = (0..state.cfg.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&state, &listener))
        };
        cati_obs::info!(
            &state.recorder,
            "serving on {addr} (model {})",
            state.current_model().version
        );
        Ok(ServerHandle {
            state,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// [`Server::start`] from a model file (CATI1 or legacy JSON).
    ///
    /// # Errors
    ///
    /// Propagates model-load, bind, and cache-directory failures.
    pub fn start_from_path(
        model: impl AsRef<Path>,
        cfg: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        Server::start(Cati::load(model)?, cfg)
    }
}

fn accept_loop(state: &Arc<ServeState>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn = ConnectionGuard::new(state);
        std::thread::spawn(move || {
            handle_connection(&conn.0, &stream);
            // Close the socket before releasing the guard: once the
            // count drains, every response has reached its client.
            drop(stream);
            drop(conn);
        });
    }
}

/// Reads one request, routes it, writes one response, appends the
/// exchange to the run manifest. One connection = one exchange.
fn handle_connection(state: &Arc<ServeState>, stream: &TcpStream) {
    let mut reader = BufReader::new(stream);
    let request = match Request::read_from(&mut reader) {
        Ok(request) => request,
        Err(RequestError::Io(_)) => return,
        Err(e @ RequestError::Malformed(_)) | Err(e @ RequestError::TooLarge(_)) => {
            let status = match e {
                RequestError::TooLarge(_) => 413,
                _ => 400,
            };
            state.recorder.metrics().inc("serve.errors", 1);
            let body = serde_json::to_vec(&json!({ "error": e.to_string() })).unwrap_or_default();
            let _ = Response::json(status, body).write_to(&mut { stream });
            return;
        }
    };
    let t0 = Instant::now();
    let (path, _) = request.route();
    let path = path.to_string();
    let trace_id = state.trace_id(&request);
    let response = route(state, &request, t0).with_header("x-cati-trace-id", &trace_id);
    let status = response.status;
    let _ = response.write_to(&mut { stream });
    cati_obs::info!(
        &state.recorder,
        "serve {} {path} -> {status} ({:.1}ms) trace={trace_id}",
        request.method,
        t0.elapsed().as_secs_f64() * 1e3
    );
}

/// Dispatches one parsed request.
fn route(state: &Arc<ServeState>, request: &Request, t0: Instant) -> Response {
    let (path, query) = request.route();
    match (request.method.as_str(), path) {
        ("POST", "/infer") => infer_route(state, request, query, t0),
        ("GET", "/health") => with_version(
            state,
            Response::json(
                200,
                serde_json::to_vec(&json!({
                    "status": "ok",
                    "model_version": state.current_model().version,
                }))
                .unwrap_or_default(),
            ),
        ),
        ("GET", "/metrics") => {
            let snapshot = state.recorder.snapshot();
            let wants_prometheus = query
                .split('&')
                .any(|kv| kv == "format=prometheus" || kv == "format=prom");
            let response = if wants_prometheus {
                Response::text(
                    200,
                    cati_obs::prometheus::CONTENT_TYPE,
                    cati_obs::prometheus::render(&snapshot),
                )
            } else {
                Response::json(200, metrics_json_body(&snapshot))
            };
            with_version(state, response)
        }
        ("GET", "/debug/profile") => {
            let tree = state.recorder.span_tree();
            let body = serde_json::to_string_pretty(&json!({
                "span_tree": tree.to_json(),
                "total_ns": tree.total_ns(),
            }))
            .unwrap_or_default()
            .into_bytes();
            with_version(state, Response::json(200, body))
        }
        ("POST", "/admin/reload") => reload_route(state, request),
        ("POST", "/admin/shutdown") => {
            cati_obs::info!(&state.recorder, "shutdown requested");
            state.request_shutdown();
            with_version(
                state,
                Response::json(200, &br#"{"status":"shutting-down"}"#[..]),
            )
        }
        (
            _,
            "/infer" | "/admin/reload" | "/admin/shutdown" | "/health" | "/metrics"
            | "/debug/profile",
        ) => {
            state.recorder.metrics().inc("serve.errors", 1);
            with_version(
                state,
                Response::json(405, &br#"{"error":"method not allowed"}"#[..]),
            )
        }
        _ => {
            state.recorder.metrics().inc("serve.errors", 1);
            with_version(state, Response::json(404, &br#"{"error":"not found"}"#[..]))
        }
    }
}

/// The `/metrics` JSON body: the serialized [`MetricsSnapshot`] with
/// `p50`/`p95`/`p99` estimates added to every non-empty histogram.
fn metrics_json_body(snapshot: &MetricsSnapshot) -> Vec<u8> {
    let histograms: Vec<Value> = snapshot
        .histograms
        .iter()
        .map(|h| {
            let mut m = match serde_json::to_value(h) {
                Ok(Value::Object(m)) => m,
                _ => serde_json::Map::new(),
            };
            if let Some((p50, p95, p99)) = h.percentiles() {
                m.insert("p50".to_string(), Value::from(p50));
                m.insert("p95".to_string(), Value::from(p95));
                m.insert("p99".to_string(), Value::from(p99));
            }
            Value::Object(m)
        })
        .collect();
    let mut root = match serde_json::to_value(snapshot) {
        Ok(Value::Object(m)) => m,
        _ => serde_json::Map::new(),
    };
    root.insert("histograms".to_string(), Value::Array(histograms));
    serde_json::to_string_pretty(&Value::Object(root))
        .unwrap_or_default()
        .into_bytes()
}

/// Stamps the *current* model version onto a server-generated
/// response (health, errors, 503/504). Worker-produced inference
/// responses instead carry the version of the batch that computed
/// them.
fn with_version(state: &ServeState, response: Response) -> Response {
    let version = state.current_model().version.clone();
    response.with_header("x-cati-model-version", version)
}

/// Admission + wait: parses the binary, enqueues under backpressure,
/// blocks on the response slot under the request's hang limit.
fn infer_route(state: &Arc<ServeState>, request: &Request, query: &str, t0: Instant) -> Response {
    let metrics = state.recorder.metrics();
    metrics.inc("serve.requests", 1);
    let binary: Binary = match serde_json::from_slice(&request.body) {
        Ok(binary) => binary,
        Err(e) => {
            metrics.inc("serve.errors", 1);
            return with_version(
                state,
                Response::json(
                    400,
                    serde_json::to_vec(&json!({ "error": format!("parse binary: {e}") }))
                        .unwrap_or_default(),
                ),
            );
        }
    };
    let lenient = query.split('&').any(|kv| kv == "mode=lenient")
        || request.header("x-cati-mode") == Some("lenient");
    let limit = match request.header("x-cati-hang-limit-ms") {
        Some(ms) => match ms.parse::<u64>() {
            Ok(ms) => HangLimit::from_ms(ms),
            Err(_) => {
                metrics.inc("serve.errors", 1);
                return with_version(
                    state,
                    Response::json(400, &br#"{"error":"bad x-cati-hang-limit-ms"}"#[..]),
                );
            }
        },
        None => state.cfg.hang_limit,
    };
    let test_delay = if state.cfg.allow_test_delay {
        request
            .header("x-cati-test-sleep-ms")
            .and_then(|ms| ms.parse::<u64>().ok())
            .map(Duration::from_millis)
    } else {
        None
    };
    let slot = ResponseSlot::new();
    {
        let mut queue = state.queue.lock().expect("queue lock");
        if state.shutdown.load(Ordering::SeqCst) || queue.len() >= state.cfg.queue_capacity {
            drop(queue);
            metrics.inc("serve.rejected", 1);
            return with_version(
                state,
                Response::json(
                    503,
                    serde_json::to_vec(&json!({
                        "error": "queue full",
                        "capacity": state.cfg.queue_capacity,
                    }))
                    .unwrap_or_default(),
                ),
            );
        }
        queue.push_back(Job {
            binary,
            lenient,
            test_delay,
            slot: Arc::clone(&slot),
            admitted: Instant::now(),
        });
        metrics.set_gauge("serve.queue_depth", queue.len() as f64);
        state.queue_ready.notify_one();
    }
    let response = match slot.wait(limit) {
        Some(response) => response,
        None => {
            metrics.inc("serve.deadline_expired", 1);
            with_version(
                state,
                Response::json(
                    504,
                    serde_json::to_vec(&json!({
                        "error": "deadline exceeded",
                        "hang_limit_ms": limit.as_ms(),
                    }))
                    .unwrap_or_default(),
                ),
            )
        }
    };
    metrics.observe("serve.latency_ms", t0.elapsed().as_secs_f64() * 1e3);
    response
}

/// `POST /admin/reload {"model": PATH}`: load, version, atomic swap.
fn reload_route(state: &Arc<ServeState>, request: &Request) -> Response {
    let metrics = state.recorder.metrics();
    let path = serde_json::from_slice::<serde_json::Value>(&request.body)
        .ok()
        .and_then(|v| v["model"].as_str().map(str::to_string));
    let Some(path) = path else {
        metrics.inc("serve.errors", 1);
        return with_version(
            state,
            Response::json(400, &br#"{"error":"body must be {\"model\": PATH}"}"#[..]),
        );
    };
    let cati = match Cati::load(&path) {
        Ok(cati) => cati,
        Err(e) => {
            metrics.inc("serve.errors", 1);
            return with_version(
                state,
                Response::json(
                    422,
                    serde_json::to_vec(&json!({ "error": format!("load {path}: {e}") }))
                        .unwrap_or_default(),
                ),
            );
        }
    };
    let slot = Arc::new(ModelSlot::new(cati, state.cfg.threads));
    let version = slot.version.clone();
    *state.model.write().expect("model lock") = slot;
    metrics.inc("serve.reloads", 1);
    cati_obs::info!(
        &state.recorder,
        "model reloaded: {path} (version {version})"
    );
    Response::json(
        200,
        serde_json::to_vec(&json!({ "status": "reloaded", "model_version": version }))
            .unwrap_or_default(),
    )
    .with_header("x-cati-model-version", version)
}

/// One request's [`Prepared`] front half, waiting for the shared
/// classification pass.
struct Ready {
    job: Job,
    prepared: Prepared,
    /// When this request finished embedding (start of its batch-wait
    /// phase).
    prepared_at: Instant,
}

/// Worker: drain → snapshot model → batch-classify → respond.
fn worker_loop(state: &Arc<ServeState>) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if !queue.is_empty() {
                    break;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = state.queue_ready.wait(queue).expect("queue lock");
            }
            let n = queue.len().min(state.cfg.max_batch.max(1));
            let batch = queue.drain(..n).collect();
            state
                .recorder
                .metrics()
                .set_gauge("serve.queue_depth", queue.len() as f64);
            batch
        };
        let model = state.current_model();
        state
            .recorder
            .metrics()
            .observe("serve.batch_size", batch.len() as f64);
        process_batch(state, &model, batch);
    }
}

/// Runs one micro-batch through extract → embed → one shared
/// classification pass → per-request voting and response delivery.
fn process_batch(state: &Arc<ServeState>, model: &ModelSlot, jobs: Vec<Job>) {
    let obs: &dyn Observer = &state.recorder;
    let _span = SpanGuard::enter(obs, "serve.batch");
    let cati = &model.cati;
    let metrics = state.recorder.metrics();
    let drained = Instant::now();
    for job in &jobs {
        metrics.observe(
            "serve.phase.queue_wait_ms",
            drained.duration_since(job.admitted).as_secs_f64() * 1e3,
        );
    }
    let mut ready: Vec<Ready> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if let Some(delay) = job.test_delay {
            std::thread::sleep(delay);
        }
        if job.slot.is_abandoned() {
            state.recorder.metrics().inc("serve.deadline_dropped", 1);
            continue;
        }
        let embed_t0 = Instant::now();
        match cati.prepare(&job.binary, job.lenient, state.cache.as_ref(), obs) {
            Ok(prepared) => {
                metrics.observe(
                    "serve.phase.embed_ms",
                    embed_t0.elapsed().as_secs_f64() * 1e3,
                );
                ready.push(Ready {
                    job,
                    prepared,
                    prepared_at: Instant::now(),
                });
            }
            Err(e) => {
                state.recorder.metrics().inc("serve.errors", 1);
                let body =
                    serde_json::to_vec(&json!({ "error": e.to_string() })).unwrap_or_default();
                finish(state, &job, Response::json(422, body), &model.version);
            }
        }
    }
    if ready.is_empty() {
        return;
    }

    // One classification pass over every VUC of every request in the
    // batch. Rows are concatenated in admission order; per-row
    // independence of the CNN forward pass makes each request's slice
    // bit-identical to a dedicated `cati infer` run.
    let total_rows: usize = ready.iter().map(|r| r.prepared.rows.rows()).sum();
    let cols = ready
        .iter()
        .find(|r| r.prepared.rows.rows() > 0)
        .map_or(0, |r| r.prepared.rows.cols());
    let mut data = Vec::with_capacity(total_rows * cols);
    for r in &ready {
        data.extend_from_slice(r.prepared.rows.as_slice());
    }
    let batch_xs = Tensor::from_flat(total_rows, cols, data);
    let classify_t0 = Instant::now();
    for r in &ready {
        metrics.observe(
            "serve.phase.batch_wait_ms",
            classify_t0.duration_since(r.prepared_at).as_secs_f64() * 1e3,
        );
    }
    let dists = cati
        .config
        .with_threads(|| cati.stages.leaf_distributions_observed(&batch_xs, obs));
    let num_classes = dists.cols();
    let leaf_ms = classify_t0.elapsed().as_secs_f64() * 1e3;
    for _ in &ready {
        metrics.observe("serve.phase.leaf_ms", leaf_ms);
    }

    let mut offset = 0usize;
    for r in ready {
        let vote_t0 = Instant::now();
        let n = r.prepared.rows.rows();
        let slice = dists.as_slice()[offset * num_classes..(offset + n) * num_classes].to_vec();
        offset += n;
        let sub = Tensor::from_flat(n, num_classes, slice);
        let mut vars = cati.infer_prepared(&r.prepared.extraction, sub, obs);
        let response = match render_json(&mut vars, r.prepared.report.as_ref()) {
            Ok(body) => Response::json(200, body.into_bytes()),
            Err(e) => Response::json(
                500,
                serde_json::to_vec(&json!({ "error": format!("serialize: {e}") }))
                    .unwrap_or_default(),
            ),
        }
        .with_header("x-cati-model-version", &model.version);
        metrics.observe("serve.phase.vote_ms", vote_t0.elapsed().as_secs_f64() * 1e3);
        finish(state, &r.job, response, &model.version);
    }
}

/// Delivers a worker-computed response, counting results whose waiter
/// already timed out.
fn finish(state: &ServeState, job: &Job, response: Response, version: &str) {
    let served = job.slot.fulfill(response);
    if served {
        state.recorder.metrics().inc("serve.served", 1);
        state.recorder.metrics().observe(
            "serve.queue_to_response_ms",
            job.admitted.elapsed().as_secs_f64() * 1e3,
        );
    } else {
        state.recorder.metrics().inc("serve.deadline_dropped", 1);
        cati_obs::warn!(
            &state.recorder,
            "dropped late result for an expired request (model {version})"
        );
    }
}
