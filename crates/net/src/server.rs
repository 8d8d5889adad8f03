//! The HTTP front-end: a `TcpListener` accept loop, one thread per open
//! connection, and the [`sofya_service::scheduler`] gate every request
//! passes on the thread that read it.
//!
//! Every wire request — a single query or a whole batch — is **one
//! scheduler job**, submitted under the client id from the `X-Client`
//! header and run by the connection thread itself once the gate lets it
//! start. That puts remote traffic behind the gate's admission rules:
//! per-client quotas (`429 Too Many Requests`, carrying the limit the
//! gate enforced), a bounded backlog (`503` with `Retry-After`), a cap on
//! queries running at once, deadline shedding (`504`), panic containment
//! (`500`, the server keeps serving), and p50/p99 latency metrics
//! (exposed at `GET /metrics` and via [`HttpServer::metrics`]).
//!
//! A query that starts runs under one [`QueryBudget`] the server builds
//! for it: the request's deadline (see [`ServerConfig::budget`]), the
//! configured scan and binding caps, and the server's cancel token. A
//! deadline kill answers `504` with the time since the request was read.
//!
//! Routes:
//!
//! * `POST /query` — body: one JSON wire request line; response: one
//!   JSON envelope line (`{"ok":true,"response":…}` or
//!   `{"ok":false,"error":…}`).
//! * `POST /ingest` — body: N-Triples or line-JSON triples (see
//!   [`crate::ingest`]); the batch is handed to the configured
//!   [`IngestSink`] as **one scheduler job** and answered with `202`
//!   and `{"ok":true,"epoch":…}`. Routed only when
//!   [`ServerConfig::ingest`] is set.
//! * `GET /metrics` — the current [`MetricsReport`] as JSON, followed
//!   in the same object by the write-side gauges the server was
//!   configured with ([`ServerConfig::durability`],
//!   [`ServerConfig::freshness`]; zeros without them).

use crate::http::{read_request, write_response, HttpRequest};
use crate::ingest::{parse_ingest_body, IngestSink};
use crate::json::Json;
use crate::wire::{envelope_to_json, execute_wire_budgeted, WireRequest};
use parking_lot::Mutex;
use sofya_endpoint::{
    BudgetConfig, DurabilityGauge, Endpoint, EndpointError, FreshnessGauge, Response,
};
use sofya_service::scheduler::{serve, JobOutcome, SchedulerConfig, SchedulerHandle, SubmitError};
use sofya_service::{MetricsReport, ServiceMetrics};
use sofya_sparql::{CancelToken, QueryBudget};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Scheduler configuration: jobs running at once, backlog bound,
    /// per-client quotas, retry-after hint. Applies to remote traffic
    /// unchanged.
    pub scheduler: SchedulerConfig,
    /// How often an idle connection wakes to check for shutdown; also
    /// the read timeout granularity. Keep-alive connections poll at this
    /// interval, so shutdown latency is bounded by it. It bounds idle
    /// waits only: once a request's first byte has arrived, a pause of
    /// this length inside the message is waited out (see
    /// `drain_deadline`).
    pub poll_interval: Duration,
    /// How long [`HttpServer::shutdown`] waits for in-flight requests to
    /// finish before closing connections anyway. During the drain, new
    /// requests are refused with `503` instead of being left hanging.
    /// If in-flight queries outlive the drain, the server trips its
    /// cancel token so budgeted evaluation unwinds, and allows up to one
    /// more `drain_deadline` of grace for that. It is also how long, in
    /// total, a request that has started arriving may stall before the
    /// connection is given up as malformed.
    pub drain_deadline: Duration,
    /// Per-query execution limits (the runaway-query kill switch), from
    /// which each request's budget is built. The effective deadline of a
    /// request is the *tighter* of `budget.time_limit` and the client's
    /// `X-Deadline-Ms` header, counted from when the request was read;
    /// requests whose deadline passes while they wait for their turn at
    /// the gate are shed without executing. The two caps apply to every
    /// query as configured.
    pub budget: BudgetConfig,
    /// Durability observables from the store's writer (see
    /// [`sofya_endpoint::DurableStore::gauge`]). When set, `GET /metrics`
    /// reports the durable epoch and WAL fsync latency.
    pub durability: Option<Arc<DurabilityGauge>>,
    /// Where `POST /ingest` delivers parsed triples. When unset, the
    /// route answers `404` — a pure query server exposes no write path.
    pub ingest: Option<Arc<dyn IngestSink>>,
    /// Freshness observables from the streaming layer. When set,
    /// `GET /metrics` reports the last published epoch, the number of
    /// dirty cached relation alignments, and their staleness in epochs.
    pub freshness: Option<Arc<FreshnessGauge>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("scheduler", &self.scheduler)
            .field("poll_interval", &self.poll_interval)
            .field("drain_deadline", &self.drain_deadline)
            .field("budget", &self.budget)
            .field("durability", &self.durability)
            .field("ingest", &self.ingest.as_ref().map(|_| "dyn IngestSink"))
            .field("freshness", &self.freshness)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            poll_interval: Duration::from_millis(25),
            drain_deadline: Duration::from_secs(5),
            budget: BudgetConfig::default(),
            durability: None,
            ingest: None,
            freshness: None,
        }
    }
}

/// Server lifecycle phases: `RUNNING → DRAINING → STOPPED`, one-way.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// Shared shutdown state: the phase plus the number of requests whose
/// handling has started but whose response is not yet written.
#[derive(Debug)]
struct Lifecycle {
    phase: AtomicU8,
    in_flight: AtomicUsize,
}

impl Lifecycle {
    fn new() -> Self {
        Self {
            phase: AtomicU8::new(RUNNING),
            in_flight: AtomicUsize::new(0),
        }
    }

    fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }
}

/// What the server can say about itself from outside the scheduler's
/// registry (which lives and dies inside `serve`).
#[derive(Debug)]
struct Observed {
    /// The scheduler's report as of the last served request.
    metrics: Mutex<MetricsReport>,
}

/// A running HTTP server. Shut down explicitly with
/// [`HttpServer::shutdown`] or implicitly on drop.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    lifecycle: Arc<Lifecycle>,
    drain_deadline: Duration,
    thread: Option<std::thread::JoinHandle<()>>,
    observed: Arc<Observed>,
    cancel: Arc<CancelToken>,
}

impl HttpServer {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts
    /// serving `endpoint` on a background thread. Returns once the
    /// listener is bound, so [`HttpServer::addr`] is immediately
    /// connectable.
    pub fn start(
        endpoint: Arc<dyn Endpoint>,
        config: ServerConfig,
        bind_addr: &str,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let lifecycle = Arc::new(Lifecycle::new());
        let drain_deadline = config.drain_deadline;
        let observed = Arc::new(Observed {
            metrics: Mutex::new(ServiceMetrics::default().report()),
        });
        let cancel = Arc::new(CancelToken::new());
        let thread = {
            let lifecycle = Arc::clone(&lifecycle);
            let observed = Arc::clone(&observed);
            let cancel = Arc::clone(&cancel);
            std::thread::spawn(move || {
                let (caps, kill) = (config.budget, Arc::clone(&cancel));
                let ingest_sink = config.ingest.clone();
                let handler = move |job: WireJob| match job.payload {
                    // The deadline rides in with the job (computed when
                    // the request was read, so the wait at the gate
                    // spends it too); the caps and the kill switch are
                    // the server's.
                    JobPayload::Query(wire) => {
                        let budget = QueryBudget {
                            deadline: job.deadline,
                            max_rows_scanned: caps.max_rows_scanned,
                            max_bindings: caps.max_bindings,
                            cancel: Some(Arc::clone(&kill)),
                        };
                        execute_wire_budgeted(&*endpoint, &wire, &budget)
                    }
                    // The ingest sink owns publishing; the epoch it
                    // returns rides back as a count response.
                    JobPayload::Ingest(triples) => match &ingest_sink {
                        Some(sink) => sink.ingest(triples).map(Response::Count),
                        None => Err(EndpointError::Other(
                            "ingestion is not enabled on this server".to_owned(),
                        )),
                    },
                };
                let scheduler = config.scheduler.clone();
                let _ = serve(&scheduler, handler, |handle| {
                    accept_loop(&listener, handle, &config, &lifecycle, &observed, &cancel);
                    *observed.metrics.lock() = handle.metrics().report();
                });
            })
        };
        Ok(HttpServer {
            addr,
            lifecycle,
            drain_deadline,
            thread: Some(thread),
            observed,
            cancel,
        })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The latest server-side metrics snapshot (refreshed after every
    /// served request and at shutdown).
    pub fn metrics(&self) -> MetricsReport {
        *self.observed.metrics.lock()
    }

    /// Gracefully stops the server: new requests are refused with `503`
    /// while in-flight ones get up to [`ServerConfig::drain_deadline`]
    /// to finish, then connections close and the thread joins.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// The server's kill switch: tripping it aborts every in-flight
    /// budgeted query within one evaluator poll interval. Tripped
    /// automatically when a drain outlives [`ServerConfig::drain_deadline`].
    pub fn cancel_token(&self) -> Arc<CancelToken> {
        Arc::clone(&self.cancel)
    }

    fn stop_and_join(&mut self) {
        self.lifecycle.phase.store(DRAINING, Ordering::SeqCst);
        let deadline = Instant::now() + self.drain_deadline; // sofya: allow(determinism) — shutdown drain is wall-clock bounded
        while self.lifecycle.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if self.lifecycle.in_flight.load(Ordering::SeqCst) > 0 {
            // In-flight queries outlived the drain deadline: trip the
            // kill switch so budgeted evaluation unwinds cooperatively,
            // and give that bounded grace instead of abandoning the
            // connection threads mid-query.
            self.cancel.cancel();
            let grace = Instant::now() + self.drain_deadline; // sofya: allow(determinism) — cancellation grace is wall-clock bounded
            while self.lifecycle.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.lifecycle.phase.store(STOPPED, Ordering::SeqCst);
        // Unblock a blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// What one scheduler job carries: a query tree to execute or an ingest
/// batch to deliver to the sink.
enum JobPayload {
    Query(WireRequest),
    Ingest(Vec<(sofya_rdf::Term, sofya_rdf::Term, sofya_rdf::Term)>),
}

/// One scheduler job: the payload plus the absolute deadline it must
/// beat (already the tighter of the server's limit and the client's
/// `X-Deadline-Ms`). The scheduler sheds it unexecuted if the deadline
/// passes while it is still queued.
struct WireJob {
    payload: JobPayload,
    deadline: Option<Instant>,
}

type Handle<'s> = SchedulerHandle<'s, WireJob, Result<Response, EndpointError>>;

fn accept_loop(
    listener: &TcpListener,
    handle: &Handle<'_>,
    config: &ServerConfig,
    lifecycle: &Lifecycle,
    observed: &Observed,
    cancel: &Arc<CancelToken>,
) {
    std::thread::scope(|scope| loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if lifecycle.phase() == STOPPED {
                    break;
                }
                continue;
            }
        };
        match lifecycle.phase() {
            STOPPED => break,
            // Still listening while draining, but only to say no: a
            // late client gets an immediate 503 instead of a connection
            // reset it would misread as a network failure.
            DRAINING => {
                scope.spawn(move || refuse_connection(stream, config));
            }
            _ => {
                scope.spawn(move || {
                    serve_connection(stream, handle, config, lifecycle, observed, cancel)
                });
            }
        }
    });
}

/// The read half of a served connection. The socket's read timeout is
/// [`ServerConfig::poll_interval`], so that an idle connection wakes to
/// notice shutdown; inside a message the same timeout firing only means
/// the peer paused between two writes. `patience` is how many more such
/// pauses the message being read may take: zero between requests (a
/// timeout surfaces and the caller polls again), the whole of
/// [`ServerConfig::drain_deadline`] once a request has started.
struct ConnReader {
    stream: TcpStream,
    patience: u128,
}

impl ConnReader {
    /// Sets the connection's read timeout and splits off its read half.
    fn over(stream: &TcpStream, config: &ServerConfig) -> Option<BufReader<ConnReader>> {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(config.poll_interval));
        let stream = stream.try_clone().ok()?;
        Some(BufReader::new(ConnReader {
            stream,
            patience: 0,
        }))
    }

    /// Pauses of one `poll_interval` that add up to `drain_deadline`.
    fn message_patience(config: &ServerConfig) -> u128 {
        config
            .drain_deadline
            .as_nanos()
            .checked_div(config.poll_interval.as_nanos())
            .unwrap_or(0)
    }
}

impl std::io::Read for ConnReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e) if is_poll_timeout(&e) && self.patience > 0 => self.patience -= 1,
                other => return other,
            }
        }
    }
}

fn is_poll_timeout(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

const JSON_CONTENT_TYPE: (&str, &str) = ("Content-Type", "application/json");

/// Answers one request on a connection accepted mid-drain with `503`,
/// then closes.
fn refuse_connection(mut stream: TcpStream, config: &ServerConfig) {
    let Some(mut reader) = ConnReader::over(&stream, config) else {
        return;
    };
    // Wait (bounded by the drain deadline, so shutdown's join cannot
    // hang on us) for the request to arrive, and read it so the peer is
    // not mid-write when the response lands.
    reader.get_mut().patience = ConnReader::message_patience(config);
    let Ok(Some(_request)) = read_request(&mut reader) else {
        return;
    };
    let body = error_body(&EndpointError::Unavailable {
        message: "server shutting down".into(),
        retry_after: None,
    });
    let headers = [JSON_CONTENT_TYPE, ("Connection", "close")];
    let _ = write_response(&mut stream, 503, "Service Unavailable", &headers, &body);
}

/// Serves one keep-alive connection until the peer closes, an I/O error
/// occurs, or the server leaves the `RUNNING` phase. Idle waits poll at
/// [`ServerConfig::poll_interval`] via `fill_buf`, which consumes
/// nothing on timeout — so a poll never corrupts message framing.
///
/// A request whose bytes have started arriving when the drain begins is
/// still served to completion (it counts as in-flight); the connection
/// closes right after its response.
fn serve_connection(
    mut stream: TcpStream,
    handle: &Handle<'_>,
    config: &ServerConfig,
    lifecycle: &Lifecycle,
    observed: &Observed,
    cancel: &Arc<CancelToken>,
) {
    let Some(mut reader) = ConnReader::over(&stream, config) else {
        return;
    };
    let message_patience = ConnReader::message_patience(config);
    while lifecycle.phase() == RUNNING {
        // Poll for the first byte without consuming anything.
        match std::io::BufRead::fill_buf(&mut reader) {
            Ok([]) => return, // clean close
            Ok(_) => {}
            Err(e) if is_poll_timeout(&e) => continue,
            Err(_) => return,
        }
        lifecycle.in_flight.fetch_add(1, Ordering::SeqCst);
        // The request has started: from here to its last byte a read
        // timeout is a pause in the peer's writing, not an idle poll.
        reader.get_mut().patience = message_patience;
        let outcome = serve_one_request(&mut stream, &mut reader, handle, config, observed, cancel);
        reader.get_mut().patience = 0;
        lifecycle.in_flight.fetch_sub(1, Ordering::SeqCst);
        if outcome.is_err() {
            return;
        }
    }
}

/// Reads, routes, and answers a single request whose first bytes are
/// already buffered. `Err` means the connection is unusable.
fn serve_one_request(
    stream: &mut TcpStream,
    reader: &mut BufReader<ConnReader>,
    handle: &Handle<'_>,
    config: &ServerConfig,
    observed: &Observed,
    cancel: &Arc<CancelToken>,
) -> Result<(), ()> {
    let request = match read_request(reader) {
        Ok(Some(request)) => request,
        Ok(None) => return Err(()),
        Err(_) => {
            let body = error_body(&EndpointError::Other("malformed HTTP request".into()));
            let _ = write_response(stream, 400, "Bad Request", &[JSON_CONTENT_TYPE], &body);
            return Err(());
        }
    };
    let (status, reason, extra, body) = route(&request, handle, config, cancel);
    *observed.metrics.lock() = handle.metrics().report();
    let written = match &extra {
        Some((name, value)) => {
            let headers = [JSON_CONTENT_TYPE, (*name, value.as_str())];
            write_response(stream, status, reason, &headers, &body)
        }
        None => write_response(stream, status, reason, &[JSON_CONTENT_TYPE], &body),
    };
    written.map_err(|_| ())
}

fn error_body(error: &EndpointError) -> Vec<u8> {
    let mut text = envelope_to_json(&Err(error.clone())).to_text();
    text.push('\n');
    text.into_bytes()
}

type Routed = (u16, &'static str, Option<(&'static str, String)>, Vec<u8>);

fn route(
    request: &HttpRequest,
    handle: &Handle<'_>,
    config: &ServerConfig,
    cancel: &Arc<CancelToken>,
) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => serve_query(request, handle, config, cancel),
        ("POST", "/ingest") => serve_ingest(request, handle, config, cancel),
        ("GET", "/metrics") => {
            let report = handle.metrics().report();
            let mut text = metrics_to_json(&report, config).to_text();
            text.push('\n');
            (200, "OK", None, text.into_bytes())
        }
        _ => (
            404,
            "Not Found",
            None,
            error_body(&EndpointError::Other(format!(
                "no route for {} {}",
                request.method, request.path
            ))),
        ),
    }
}

fn serve_query(
    request: &HttpRequest,
    handle: &Handle<'_>,
    config: &ServerConfig,
    cancel: &Arc<CancelToken>,
) -> Routed {
    // sofya: allow(determinism) — request latency for the routed response metric
    let started = Instant::now();
    let wire = match std::str::from_utf8(&request.body)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(text.trim_end_matches('\n')))
        .and_then(|json| WireRequest::from_json(&json).map_err(|e| e.to_string()))
    {
        Ok(wire) => wire,
        Err(e) => {
            return (
                400,
                "Bad Request",
                None,
                error_body(&EndpointError::Other(format!("bad wire request: {e}"))),
            )
        }
    };
    let result = match run_job(request, JobPayload::Query(wire), started, handle, config) {
        Ok(result) => result,
        Err(routed) => return routed,
    };
    let (status, reason) = match &result {
        Err(error) => completed_error_status(error, handle, cancel),
        Ok(_) => (200, "OK"),
    };
    let mut text = envelope_to_json(&result).to_text();
    text.push('\n');
    (status, reason, None, text.into_bytes())
}

/// Handles `POST /ingest`: parses the triple batch (N-Triples or
/// line-JSON, auto-detected), hands it to the configured sink as one
/// scheduler job, and answers `202` with the epoch the batch is
/// readable at. Ingest jobs share the query path's quotas, queue
/// backpressure, deadline shedding, and panic containment.
fn serve_ingest(
    request: &HttpRequest,
    handle: &Handle<'_>,
    config: &ServerConfig,
    cancel: &Arc<CancelToken>,
) -> Routed {
    if config.ingest.is_none() {
        return (
            404,
            "Not Found",
            None,
            error_body(&EndpointError::Other(
                "ingestion is not enabled on this server".to_owned(),
            )),
        );
    }
    // sofya: allow(determinism) — ingest latency for the routed response metric
    let started = Instant::now();
    let triples = match std::str::from_utf8(&request.body)
        .map_err(|e| e.to_string())
        .and_then(parse_ingest_body)
    {
        Ok(triples) => triples,
        Err(e) => {
            return (
                400,
                "Bad Request",
                None,
                error_body(&EndpointError::Other(format!("bad ingest body: {e}"))),
            )
        }
    };
    if triples.is_empty() {
        return (
            400,
            "Bad Request",
            None,
            error_body(&EndpointError::Other(
                "ingest body contains no triples".to_owned(),
            )),
        );
    }
    let payload = JobPayload::Ingest(triples);
    match run_job(request, payload, started, handle, config) {
        Ok(Ok(Response::Count(epoch))) => {
            let mut text =
                Json::obj([("ok", Json::Bool(true)), ("epoch", Json::Uint(epoch))]).to_text();
            text.push('\n');
            (202, "Accepted", None, text.into_bytes())
        }
        Ok(Ok(_)) => (
            500,
            "Internal Server Error",
            None,
            error_body(&EndpointError::Other(
                "ingest sink produced a non-count response".to_owned(),
            )),
        ),
        Ok(Err(error)) => {
            let (status, reason) = completed_error_status(&error, handle, cancel);
            (status, reason, None, error_body(&error))
        }
        Err(routed) => routed,
    }
}

/// Submits one scheduler job under the request's `X-Client` id and
/// effective deadline, and waits for it. `Ok` is what the handler
/// returned; `Err` is the finished answer for a job that never produced
/// a result — shed, panicked, or rejected at submission.
fn run_job(
    request: &HttpRequest,
    payload: JobPayload,
    started: Instant,
    handle: &Handle<'_>,
    config: &ServerConfig,
) -> Result<Result<Response, EndpointError>, Routed> {
    let client = request.header("x-client").unwrap_or("anonymous");
    let deadline = effective_deadline(request, config, started);
    let job = WireJob { payload, deadline };
    let ticket = handle
        .submit_with_deadline(client, job, deadline)
        .map_err(|rejected| rejected_routed(rejected.error))?;
    match ticket.wait() {
        // The evaluator timed nothing: a kill gets the time since the
        // request was read, the same clock its deadline runs on.
        JobOutcome::Completed(Err(EndpointError::DeadlineExceeded { .. })) => {
            Ok(Err(EndpointError::DeadlineExceeded {
                elapsed: started.elapsed(),
            }))
        }
        JobOutcome::Completed(result) => Ok(result),
        // Shed at the gate: the deadline passed before its turn came, the
        // handler never ran (`queries_shed` is counted there).
        JobOutcome::Shed => Err((
            504,
            "Gateway Timeout",
            None,
            error_body(&EndpointError::DeadlineExceeded {
                elapsed: started.elapsed(),
            }),
        )),
        JobOutcome::Panicked(message) => Err((
            500,
            "Internal Server Error",
            None,
            error_body(&EndpointError::Other(format!(
                "query handler panicked: {message}"
            ))),
        )),
    }
}

/// The effective deadline of a request: the tighter of the server's own
/// limit and whatever remains of the client's budget (`X-Deadline-Ms`
/// carries the remaining milliseconds, so queue wait here spends it
/// too).
fn effective_deadline(
    request: &HttpRequest,
    config: &ServerConfig,
    started: Instant,
) -> Option<Instant> {
    let client_limit = request
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    let time_limit = match (config.budget.time_limit, client_limit) {
        (Some(server), Some(client)) => Some(server.min(client)),
        (server, client) => server.or(client),
    };
    time_limit.map(|limit| started + limit)
}

/// Status for a job that completed with an error. The 504 class means
/// the job was killed, not answered; cancelled-by-kill-switch and
/// ran-out-of-time are tallied separately.
fn completed_error_status(
    error: &EndpointError,
    handle: &Handle<'_>,
    cancel: &Arc<CancelToken>,
) -> (u16, &'static str) {
    match error {
        EndpointError::DeadlineExceeded { .. } => {
            if cancel.is_cancelled() {
                handle.metrics().on_query_cancelled();
            } else {
                handle.metrics().on_query_timed_out();
            }
            (504, "Gateway Timeout")
        }
        _ => (200, "OK"),
    }
}

/// Maps a scheduler rejection to its HTTP answer.
fn rejected_routed(error: SubmitError) -> Routed {
    match error {
        SubmitError::QueueFull { retry_after } => (
            503,
            "Service Unavailable",
            // RFC 9110 counts `Retry-After` in whole seconds: round up,
            // so no client comes back before the hint has passed.
            Some((
                "Retry-After",
                retry_after.as_millis().div_ceil(1000).max(1).to_string(),
            )),
            error_body(&EndpointError::Unavailable {
                message: "server busy".into(),
                // The envelope keeps the exact hint, which is what a
                // typed client waits out.
                retry_after: Some(retry_after),
            }),
        ),
        SubmitError::QuotaExhausted {
            client,
            max_queries,
        } => (
            429,
            "Too Many Requests",
            None,
            error_body(&EndpointError::QuotaExceeded {
                endpoint: client,
                max_queries,
            }),
        ),
    }
}

/// Serializes `GET /metrics`: the scheduler's report with the
/// write-side gauges read in place, here and now — commits, publishes
/// and refreshes never touch a registry, and reading changes nothing.
fn metrics_to_json(report: &MetricsReport, config: &ServerConfig) -> Json {
    let durable = config.durability.as_deref();
    let durable_epoch = durable.map_or(0, DurabilityGauge::durable_epoch);
    let wal_fsync_p99_ns = durable.map_or(0, DurabilityGauge::fsync_p99_ns);
    let fresh = config.freshness.as_deref();
    let last_publish_epoch = fresh.map_or(0, FreshnessGauge::last_publish_epoch);
    let dirty_relations = fresh.map_or(0, FreshnessGauge::dirty_relations);
    let staleness_epochs = fresh.map_or(0, FreshnessGauge::staleness_epochs);
    Json::obj([
        ("submitted", Json::Uint(report.submitted)),
        ("completed", Json::Uint(report.completed)),
        ("rejected_full", Json::Uint(report.rejected_full)),
        ("rejected_quota", Json::Uint(report.rejected_quota)),
        ("panicked", Json::Uint(report.panicked)),
        ("queue_depth", Json::Uint(report.queue_depth)),
        ("latency_mean_ns", Json::Uint(report.latency_mean_ns)),
        ("latency_p50_ns", Json::Uint(report.latency_p50_ns)),
        ("latency_p99_ns", Json::Uint(report.latency_p99_ns)),
        ("queue_wait_p99_ns", Json::Uint(report.queue_wait_p99_ns)),
        ("wal_fsync_p99_ns", Json::Uint(wal_fsync_p99_ns)),
        ("durable_epoch", Json::Uint(durable_epoch)),
        ("queries_timed_out", Json::Uint(report.queries_timed_out)),
        ("queries_cancelled", Json::Uint(report.queries_cancelled)),
        ("queries_shed", Json::Uint(report.queries_shed)),
        ("last_publish_epoch", Json::Uint(last_publish_epoch)),
        ("dirty_relations", Json::Uint(dirty_relations)),
        ("alignment_staleness_epochs", Json::Uint(staleness_epochs)),
    ])
}
