//! Stage replay: the layer work of one wire round trip, redone in
//! process by calling each layer's public function in the order the
//! client and the server call them, one span per call.
//!
//! Nothing inside the program is instrumented. What the replay cannot
//! reach — socket calls, TCP, waking the connection and worker threads,
//! the server's private routing — is what remains of the `e2e` span once
//! the replayed stages are taken out of it.

use crate::trace::{SpanId, Tracer};
use sofya_endpoint::{
    BudgetConfig, ConcurrentEndpoint, Endpoint, EndpointError, Request, Response, SnapshotStore,
};
use sofya_net::http::{read_request, read_response, write_request, write_response};
use sofya_net::wire::{envelope_from_json, envelope_to_json};
use sofya_net::{execute_wire_budgeted, parse_ingest_body, Json, WireRequest};
use sofya_rdf::{Term, TripleStore};
use sofya_service::scheduler::{serve, SchedulerConfig};
use sofya_sparql::{
    compile_with_options, execute_compiled, parse_query, CancelToken, PlanOptions, QueryBudget,
};
use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An endpoint wrapper that counts round trips and the time spent below
/// it and, while armed, keeps each request in its wire form.
pub struct Recorder<E> {
    inner: E,
    round_trips: AtomicU64,
    inner_ns: AtomicU64,
    log: Mutex<Option<Vec<Logged>>>,
}

/// A request as it would travel, and what lowering it to that form cost
/// (for prepared requests: bind, unparse).
pub struct Logged {
    pub wire: WireRequest,
    pub encode_ns: u64,
}

impl<E: Endpoint> Recorder<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            round_trips: AtomicU64::new(0),
            inner_ns: AtomicU64::new(0),
            log: Mutex::new(None),
        }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }

    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent inside the wrapped endpoint.
    pub fn inner_ns(&self) -> u64 {
        self.inner_ns.load(Ordering::Relaxed)
    }

    pub fn arm(&self) {
        *self.log.lock().expect("request log holds plain data") = Some(Vec::new());
    }

    pub fn disarm(&self) -> Vec<Logged> {
        self.log
            .lock()
            .expect("request log holds plain data")
            .take()
            .unwrap_or_default()
    }

    fn observe<'r>(
        &self,
        req: Request<'r>,
        run: impl FnOnce(Request<'r>) -> Result<Response, EndpointError>,
    ) -> Result<Response, EndpointError> {
        if let Some(log) = self
            .log
            .lock()
            .expect("request log holds plain data")
            .as_mut()
        {
            let start = Instant::now();
            let wire = WireRequest::from_request(&req)?;
            log.push(Logged {
                wire,
                encode_ns: start.elapsed().as_nanos() as u64,
            });
        }
        let start = Instant::now();
        let out = run(req);
        self.inner_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<E: Endpoint> Endpoint for Recorder<E> {
    fn execute(&self, req: Request<'_>) -> Result<Response, EndpointError> {
        self.observe(req, |req| self.inner.execute(req))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.observe(req, |req| self.inner.execute_with_budget(req, budget))
    }
}

/// The server half a replay runs against: a second publication of the
/// store the real server answers from, with a plan cache of its own,
/// switched off — the wire run has just planned this very text, and a
/// replay that hit the cache would cost less than the operation it
/// stands for. (A clone of the serving reader would share the server's
/// cache and switch that off too.)
pub struct ServerSide {
    pub endpoint: ConcurrentEndpoint,
    /// Median cost of handing a job to a scheduler worker and waiting
    /// for it, from [`scheduler_handoff_us`].
    pub handoff_us: f64,
    _writer: SnapshotStore,
}

impl ServerSide {
    pub fn over(store: &TripleStore) -> Self {
        let writer = SnapshotStore::new(store.clone());
        let endpoint = writer.reader("replay");
        endpoint.set_plan_cache_capacity(0);
        Self {
            endpoint,
            handoff_us: scheduler_handoff_us(),
            _writer: writer,
        }
    }
}

/// `serve` + `submit` + `wait` around a handler that does nothing: what
/// one round trip pays the scheduler for crossing to a worker thread and
/// back.
pub fn scheduler_handoff_us() -> f64 {
    const JOBS: usize = 2_000;
    let samples = serve(
        &SchedulerConfig::default(),
        |job: u64| job,
        |handle| {
            (0..JOBS)
                .filter_map(|i| {
                    let start = Instant::now();
                    let ticket = handle.submit("probe", i as u64).ok()?;
                    std::hint::black_box(ticket.wait());
                    Some(start.elapsed().as_secs_f64() * 1e6)
                })
                .collect::<Vec<f64>>()
        },
    )
    .unwrap_or_default();
    crate::stats::median(&samples)
}

/// What a replayed round trip moved, for bytes-per-row.
#[derive(Debug, Default, Clone, Copy)]
pub struct Moved {
    pub response_bytes: u64,
    pub rows: u64,
}

impl std::ops::AddAssign for Moved {
    fn add_assign(&mut self, other: Moved) {
        self.response_bytes += other.response_bytes;
        self.rows += other.rows;
    }
}

const CLIENT_HEADERS: [(&str, &str); 3] = [
    ("Host", "sofya"),
    ("X-Client", "sofya"),
    ("Content-Type", "application/json"),
];

/// Replays one round trip under `parent`. Errors mean the replay itself
/// went wrong (the wire run already succeeded) and are reported, not
/// hidden: a stage that failed was not measured.
pub fn roundtrip(
    t: &Tracer,
    parent: SpanId,
    op: u32,
    logged: &Logged,
    server: &ServerSide,
) -> Result<Moved, String> {
    // Client: lower, encode, frame.
    let start = t.now_ns();
    t.record(
        "net.wire.encode_request",
        parent,
        op,
        start,
        start + logged.encode_ns,
    );
    let request_json = t.span("net.wire.encode_request", parent, op, |_| {
        logged.wire.to_json()
    });
    let mut body = t.span("net.json.to_text", parent, op, |_| request_json.to_text());
    body.push('\n');

    // The request crosses: written by the client, read by the server.
    let request = t.span("net.http.request_codec", parent, op, |_| {
        let mut framed = Vec::with_capacity(body.len() + 128);
        write_request(
            &mut framed,
            "POST",
            "/query",
            &CLIENT_HEADERS,
            body.as_bytes(),
        )?;
        read_request(&mut BufReader::new(framed.as_slice()))
    });
    let request = request
        .map_err(|e| e.to_string())?
        .ok_or("framed request read back as end of stream")?;

    // Server: parse, decode, hand to a worker, execute.
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    let parsed = t.span("net.json.parse_request", parent, op, |_| {
        Json::parse(text.trim_end_matches('\n'))
    })?;
    let wire = t
        .span("net.wire.decode_request", parent, op, |_| {
            WireRequest::from_json(&parsed)
        })
        .map_err(|e| e.to_string())?;
    let start = t.now_ns();
    t.record(
        "service.handoff",
        parent,
        op,
        start,
        start + (server.handoff_us * 1e3) as u64,
    );
    let limits = BudgetConfig::default();
    let budget = QueryBudget {
        deadline: None,
        max_rows_scanned: limits.max_rows_scanned,
        max_bindings: limits.max_bindings,
        cancel: Some(Arc::new(CancelToken::new())),
    };
    let execute = t.begin("endpoint.execute", parent, op);
    let result = execute_wire_budgeted(&server.endpoint, &wire, &budget);
    t.end(execute);
    sparql_stages(t, execute, op, &wire, server)?;
    let rows = result.as_ref().map_or(0, Response::row_count);

    // Server: encode, frame. Client: read, parse, decode.
    let envelope = t.span("net.wire.encode_response", parent, op, |_| {
        envelope_to_json(&result)
    });
    let mut response_body = t.span("net.json.to_text", parent, op, |_| envelope.to_text());
    response_body.push('\n');
    let response = t
        .span("net.http.response_codec", parent, op, |_| {
            let mut framed = Vec::with_capacity(response_body.len() + 128);
            let headers = [("Content-Type", "application/json")];
            write_response(&mut framed, 200, "OK", &headers, response_body.as_bytes())?;
            read_response(&mut BufReader::new(framed.as_slice()))
        })
        .map_err(|e| e.to_string())?;
    let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
    let parsed = t.span("net.json.parse_response", parent, op, |_| {
        Json::parse(text.trim_end_matches('\n'))
    })?;
    t.span("net.wire.decode_response", parent, op, |_| {
        envelope_from_json(&parsed)
    })
    .map_err(|e| e.to_string())?
    .map_err(|e| format!("replayed request failed: {e}"))?;
    Ok(Moved {
        response_bytes: response.body.len() as u64,
        rows,
    })
}

/// The replayable part of one `POST /ingest` under `parent`: framing the
/// body, parsing it, the scheduler hand-off (costed once by
/// [`scheduler_handoff_us`]) and framing the acknowledgement. What the
/// sink does with the triples is timed live, by the sink. Returns the
/// parsed triples, or `None` when a stage failed and was not measured.
pub fn ingest_leg(
    t: &Tracer,
    parent: SpanId,
    op: u32,
    body: &str,
    handoff_us: f64,
) -> Option<Vec<(Term, Term, Term)>> {
    let request = t
        .span("net.http.request_codec", parent, op, |_| {
            let mut framed = Vec::with_capacity(body.len() + 128);
            let headers = [("Host", "sofya"), ("X-Client", "ingest")];
            write_request(&mut framed, "POST", "/ingest", &headers, body.as_bytes())?;
            read_request(&mut BufReader::new(framed.as_slice()))
        })
        .ok()??;
    let text = std::str::from_utf8(&request.body).ok()?;
    let triples = t
        .span("net.ingest.parse_body", parent, op, |_| {
            parse_ingest_body(text)
        })
        .ok()?;
    let now = t.now_ns();
    t.record(
        "service.handoff",
        parent,
        op,
        now,
        now + (handoff_us * 1e3) as u64,
    );
    t.span("net.http.response_codec", parent, op, |_| {
        let mut framed = Vec::with_capacity(128);
        let headers = [("Content-Type", "application/json")];
        let ack = b"{\"ok\":true,\"epoch\":1}\n";
        write_response(&mut framed, 202, "Accepted", &headers, ack)?;
        read_response(&mut BufReader::new(framed.as_slice()))
    })
    .ok()?;
    Some(triples)
}

/// The SPARQL engine's share of `endpoint.execute`, leaf by leaf: parse,
/// parse-and-plan, evaluate. `sparql.compile` contains `sparql.parse`,
/// so planning is its self time, and the endpoint's own cost is the
/// self time of `endpoint.execute`.
fn sparql_stages(
    t: &Tracer,
    execute: SpanId,
    op: u32,
    wire: &WireRequest,
    server: &ServerSide,
) -> Result<(), String> {
    let text = match wire {
        WireRequest::Batch(subs) => {
            return subs
                .iter()
                .try_for_each(|sub| sparql_stages(t, execute, op, sub, server));
        }
        WireRequest::Select(q) | WireRequest::Ask(q) | WireRequest::Count(q) => q,
    };
    let published = server.endpoint.current();
    let store = published.snapshot().store();
    let options = PlanOptions {
        stats: Some(published.stats()),
        ..PlanOptions::default()
    };
    let compile = t.begin("sparql.compile", execute, op);
    let compiled = compile_with_options(store, text, options);
    t.end(compile);
    let compiled = compiled.map_err(|e| e.to_string())?;
    t.span("sparql.parse", compile, op, |_| parse_query(text))
        .map_err(|e| e.to_string())?;
    t.span("sparql.eval", execute, op, |_| {
        execute_compiled(store, &compiled)
    })
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// The layer budget of one request shape: `rounds` round trips over the
/// wire, each under a root span named `root` and replayed stage by
/// stage. Returns report lines — the median round trip, the median of
/// every replayed stage, and what no stage accounts for. The spans stay
/// in the trace under `root`, apart from the workload's own `e2e` spans.
pub fn budget<'r>(
    t: &Tracer,
    root: &'static str,
    rounds: u32,
    remote: &dyn Endpoint,
    request: impl Fn() -> Request<'r>,
    server: &ServerSide,
) -> Vec<String> {
    // Operation ids of their own, clear of any workload's.
    const FIRST_OP: u32 = 1 << 30;
    for round in 0..rounds {
        let op = FIRST_OP + round;
        let start = Instant::now();
        let wire = WireRequest::from_request(&request());
        let encode_ns = start.elapsed().as_nanos() as u64;
        let id = t.begin(root, crate::trace::ROOT, op);
        let answer = remote.execute(request());
        t.end(id);
        if let (Ok(wire), Ok(_)) = (wire, answer) {
            let _ = roundtrip(t, id, op, &Logged { wire, encode_ns }, server);
        }
    }
    let spans: Vec<_> = t.spans().into_iter().filter(|s| s.op >= FIRST_OP).collect();
    let totals = crate::trace::per_op(&spans, crate::trace::Time::Total);
    let selfs = crate::trace::per_op(&spans, crate::trace::Time::SelfOnly);
    let median_of = |map: &std::collections::BTreeMap<&str, Vec<f64>>, name: &str| {
        map.get(name).map_or(0.0, |v| crate::stats::median(v))
    };
    let mut lines = vec![format!(
        "{root}: round trip p50 {:.1} us over {rounds} round trips, of which",
        median_of(&totals, root)
    )];
    for (name, samples) in &totals {
        if *name == root || *name == "sparql.parse" {
            continue; // the root itself; parse is inside sparql.compile
        }
        let value = match *name {
            "endpoint.execute" | "sparql.compile" => median_of(&selfs, name),
            _ => crate::stats::median(samples),
        };
        let label = match *name {
            "endpoint.execute" => "endpoint.execute (self)",
            "sparql.compile" => "sparql.compile (self: plan)",
            other => other,
        };
        lines.push(format!("{root}:   {label:<32} {value:>9.1} us"));
    }
    lines.push(format!(
        "{root}:   {:<32} {:>9.1} us",
        "sparql.parse",
        median_of(&totals, "sparql.parse")
    ));
    lines.push(format!(
        "{root}:   {:<32} {:>9.1} us  (round trip less every replayed stage)",
        "unattributed",
        median_of(&selfs, root)
    ));
    lines
}
