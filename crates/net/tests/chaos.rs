//! Chaos harness for the overload path: runaway queries, expired
//! deadlines, drain-time cancellation, and injected transport faults.
//!
//! The scenarios, end to end over real loopback sockets:
//!
//! * an adversarial cross-join query is killed within its deadline plus
//!   a small grace while concurrent healthy traffic keeps completing
//!   correctly, and the kill shows up in `GET /metrics`;
//! * queued work whose deadline passes before a worker frees up is shed
//!   without ever executing;
//! * a drain whose in-flight query outlives `drain_deadline` trips the
//!   kill switch instead of hanging shutdown;
//! * a busy server's hinted `503` counts its `Retry-After` in seconds,
//!   and is waited out and the request sent again, within the caller's
//!   deadline and a bounded number of times,
//!   while every other failure — a torn response, an unhinted `503`, a
//!   `429`, a `504`, a cap kill, a SPARQL error — costs one exchange and
//!   reaches the caller typed (a chaos server scripts each case);
//! * a re-send after a stale pooled connection carries only what is
//!   left of the deadline, and a hung peer costs a budgeted call its
//!   deadline, not the client's I/O timeout.

use sofya_endpoint::{Endpoint, EndpointError, EndpointExt, LocalEndpoint, Request, Response};
use sofya_net::http::{read_request, read_response, write_request, write_response};
use sofya_net::wire::{envelope_to_json, WireRequest};
use sofya_net::{HttpServer, Json, RemoteEndpoint, ServerConfig};
use sofya_rdf::{Term, TripleStore};
use sofya_service::scheduler::SchedulerConfig;
use sofya_sparql::QueryBudget;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A store big enough that an unbudgeted triple cross join runs for
/// minutes: three unconstrained patterns over `n` triples scan `n³`
/// rows.
fn adversarial_store(n: usize) -> TripleStore {
    let mut store = TripleStore::new();
    for i in 0..n {
        store.insert_terms(
            &Term::iri(format!("e:s{i}")),
            &Term::iri("r:p"),
            &Term::iri(format!("e:o{i}")),
        );
    }
    store
}

const RUNAWAY: &str = "SELECT ?a ?c ?e { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }";

fn metrics_field(remote: &RemoteEndpoint, field: &str) -> u64 {
    let text = remote.fetch_metrics().expect("metrics fetch");
    Json::parse(text.trim_end_matches('\n'))
        .expect("metrics JSON")
        .get(field)
        .and_then(Json::as_uint)
        .unwrap_or_else(|| panic!("metrics missing {field}: {text}"))
}

#[test]
fn runaway_query_is_killed_while_healthy_traffic_flows() {
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        },
        budget: sofya_endpoint::BudgetConfig::with_time_limit(Duration::from_millis(150)),
        ..ServerConfig::default()
    };
    let server = HttpServer::start(
        Arc::new(LocalEndpoint::new("kb", adversarial_store(600))),
        config,
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr();

    let runaway = std::thread::spawn(move || {
        let started = Instant::now();
        let result = RemoteEndpoint::new("adversary", addr).select(RUNAWAY);
        (result, started.elapsed())
    });

    // Healthy traffic keeps completing correctly while the runaway is
    // being killed on the other worker.
    let healthy = RemoteEndpoint::new("healthy", addr);
    for i in 0..10 {
        assert!(
            healthy
                .ask(&format!("ASK {{ <e:s{i}> <r:p> <e:o{i}> }}"))
                .expect("healthy ask succeeds during overload"),
            "healthy answer stays correct"
        );
    }

    let (result, elapsed) = runaway.join().unwrap();
    let err = result.expect_err("runaway must not run to completion");
    assert!(
        matches!(err, EndpointError::DeadlineExceeded { .. }),
        "expected a typed 504-class kill, got {err:?}"
    );
    // Deadline 150ms + cooperative-poll grace; the unbudgeted query
    // would run for minutes. Generous slack for a loaded CI box.
    assert!(
        elapsed < Duration::from_secs(5),
        "kill took {elapsed:?}, not within deadline + grace"
    );
    assert_eq!(metrics_field(&healthy, "queries_timed_out"), 1);
    assert_eq!(metrics_field(&healthy, "queries_shed"), 0);

    // The worker was reclaimed: the same server keeps answering.
    assert!(healthy.ask("ASK { <e:s0> <r:p> <e:o0> }").unwrap());
    server.shutdown();
}

/// Parks every query on a gate until the test opens it (the inner
/// endpoint itself is instant).
struct GatedEndpoint {
    inner: LocalEndpoint,
    entered: AtomicUsize,
    gate: (Mutex<bool>, Condvar),
}

impl GatedEndpoint {
    fn new(store: TripleStore) -> Self {
        Self {
            inner: LocalEndpoint::new("gated", store),
            entered: AtomicUsize::new(0),
            gate: (Mutex::new(false), Condvar::new()),
        }
    }

    fn open(&self) {
        let (lock, cvar) = &self.gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    fn park(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let (lock, cvar) = &self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
    }
}

impl Endpoint for GatedEndpoint {
    fn execute(&self, req: Request<'_>) -> Result<Response, EndpointError> {
        self.park();
        self.inner.execute(req)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.park();
        self.inner.execute_with_budget(req, budget)
    }
}

#[test]
fn expired_queued_work_is_shed_without_executing() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("r:p"), &Term::iri("e:o"));
    let gated = Arc::new(GatedEndpoint::new(store));
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = HttpServer::start(
        Arc::clone(&gated) as Arc<dyn Endpoint>,
        config,
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr();

    // Occupy the only worker.
    let parked = std::thread::spawn(move || {
        RemoteEndpoint::new("slow", addr).ask("ASK { <e:s> <r:p> <e:o> }")
    });
    while gated.entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // A tightly-budgeted request queues behind it; its deadline will be
    // long gone by the time the worker frees up.
    let doomed = std::thread::spawn(move || {
        let budget = QueryBudget::unlimited().with_time_limit(Duration::from_millis(5));
        RemoteEndpoint::new("doomed", addr).execute_with_budget(
            Request::Ask {
                query: "ASK { <e:s> <r:p> <e:o> }",
            },
            &budget,
        )
    });
    std::thread::sleep(Duration::from_millis(100));
    gated.open();

    let err = doomed.join().unwrap().expect_err("deadline long expired");
    assert!(
        matches!(err, EndpointError::DeadlineExceeded { .. }),
        "shed work surfaces as the typed 504 class, got {err:?}"
    );
    assert!(parked.join().unwrap().expect("parked request completes"));
    assert_eq!(
        gated.entered.load(Ordering::SeqCst),
        1,
        "the shed request never reached the endpoint"
    );
    let probe = RemoteEndpoint::new("probe", addr);
    assert_eq!(metrics_field(&probe, "queries_shed"), 1);
    server.shutdown();
}

/// Satellite: draining must not wait out a query whose budget (here:
/// none at all) outlives `drain_deadline` — the server trips its kill
/// switch and shutdown stays bounded.
#[test]
fn drain_cancels_in_flight_queries_that_outlive_the_deadline() {
    let config = ServerConfig {
        drain_deadline: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = HttpServer::start(
        Arc::new(LocalEndpoint::new("kb", adversarial_store(600))),
        config,
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr();

    let runaway =
        std::thread::spawn(move || RemoteEndpoint::new("adversary", addr).select(RUNAWAY));
    // Let the runaway reach the evaluator before draining.
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "shutdown hung on the runaway for {elapsed:?}"
    );

    let err = runaway.join().unwrap().expect_err("query was cancelled");
    assert!(
        matches!(
            err,
            EndpointError::DeadlineExceeded { .. } | EndpointError::Unavailable { .. }
        ),
        "cancelled in-flight work surfaces typed, got {err:?}"
    );
}

/// What a [`ChaosServer`] does with one request instead of answering it.
enum Fault {
    /// Start writing the response head, then sever the connection
    /// mid-line.
    DisconnectMidResponse,
    /// Wait, then close the connection without answering.
    HangUpAfter(Duration),
    /// Refuse the request as a busy server does: `503` with a hint of
    /// this many milliseconds in the envelope (and in whole seconds,
    /// rounded up, in `Retry-After`).
    Busy(u64),
    /// Answer with this status and error envelope.
    Refuse(u16, EndpointError),
}

/// A fault-injecting stand-in for a flaky server. It serves one
/// keep-alive connection at a time; each request it reads takes the next
/// step of the script (`None` answers it), and once the script runs dry
/// every request is answered with a healthy `ASK → true` envelope. It
/// records the `X-Deadline-Ms` header of every request it reads.
struct ChaosServer {
    addr: SocketAddr,
    deadlines: Arc<Mutex<Vec<Option<u64>>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosServer {
    fn start(script: Vec<Option<Fault>>) -> ChaosServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind chaos proxy");
        let addr = listener.local_addr().unwrap();
        let deadlines = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let deadlines = Arc::clone(&deadlines);
            let stop = Arc::clone(&stop);
            let mut script = VecDeque::from(script);
            std::thread::spawn(move || loop {
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let mut reader = BufReader::new(clone);
                // Serve the connection until the client or a fault closes it.
                while let Ok(Some(request)) = read_request(&mut reader) {
                    let deadline = request
                        .header("X-Deadline-Ms")
                        .map(|ms| ms.parse().unwrap());
                    deadlines.lock().unwrap().push(deadline);
                    let (status, hint_ms, result) = match script.pop_front().flatten() {
                        None => (200, None, Ok(Response::Boolean(true))),
                        Some(Fault::DisconnectMidResponse) => {
                            // A torn response head: the client sees EOF
                            // mid-line, a transport failure.
                            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-");
                            break;
                        }
                        Some(Fault::HangUpAfter(wait)) => {
                            std::thread::sleep(wait);
                            break;
                        }
                        Some(Fault::Busy(ms)) => {
                            let busy = EndpointError::Unavailable {
                                message: "server busy".into(),
                                retry_after: Some(Duration::from_millis(ms)),
                            };
                            (503, Some(ms.div_ceil(1000).max(1).to_string()), Err(busy))
                        }
                        Some(Fault::Refuse(status, error)) => (status, None, Err(error)),
                    };
                    let body = format!("{}\n", envelope_to_json(&result).to_text());
                    let mut headers = vec![("Content-Type", "application/json")];
                    if let Some(ms) = &hint_ms {
                        headers.push(("Retry-After", ms));
                    }
                    let _ = write_response(&mut stream, status, "Chaos", &headers, body.as_bytes());
                }
            })
        };
        ChaosServer {
            addr,
            deadlines,
            stop,
            thread: Some(thread),
        }
    }

    /// The `X-Deadline-Ms` of every request read so far, in order.
    fn deadlines(&self) -> Vec<Option<u64>> {
        self.deadlines.lock().unwrap().clone()
    }

    /// Requests read so far: the exchanges the client spent.
    fn exchanges(&self) -> usize {
        self.deadlines.lock().unwrap().len()
    }
}

impl Drop for ChaosServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

const ASK: &str = "ASK { <e:s> <r:p> <e:o> }";

/// How many times `RemoteEndpoint` sends a request again on a busy
/// server's hint (its private `MAX_HINTED_RESENDS`).
const HINTED_RESENDS: usize = 3;

fn ask_within(remote: &RemoteEndpoint, limit: Duration) -> Result<Response, EndpointError> {
    let budget = QueryBudget::unlimited().with_time_limit(limit);
    remote.execute_with_budget(Request::Ask { query: ASK }, &budget)
}

/// A server whose only running slot and only place in line are both
/// taken by callers parked on its gate, so it refuses whatever comes next
/// with `hint`. Open the gate and join the two callers to finish.
fn a_full_server(hint: Duration) -> (HttpServer, Arc<GatedEndpoint>, [Waiter; 2]) {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("r:p"), &Term::iri("e:o"));
    let gated = Arc::new(GatedEndpoint::new(store));
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            queue_capacity: 1,
            retry_after: hint,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = HttpServer::start(
        Arc::clone(&gated) as Arc<dyn Endpoint>,
        config,
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr();
    let probe = RemoteEndpoint::new("probe", addr);
    let parked = timed_ask(addr, "parked");
    while gated.entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = timed_ask(addr, "queued");
    while metrics_field(&probe, "queue_depth") == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    (server, gated, [parked, queued])
}

/// A caller on its own thread: what it was answered, and after how long.
type Waiter = std::thread::JoinHandle<(Result<bool, EndpointError>, Duration)>;

fn timed_ask(addr: SocketAddr, client: &'static str) -> Waiter {
    std::thread::spawn(move || {
        let started = Instant::now();
        let result = RemoteEndpoint::new(client, addr).ask(ASK);
        (result, started.elapsed())
    })
}

/// The front door end to end: the gate refuses a third request with a
/// 100 ms hint. The client waits the hint out and sends again; the
/// caller sees only the answer.
#[test]
fn a_busy_servers_503_is_waited_out_on_its_hint() {
    let (server, gated, waiting) = a_full_server(Duration::from_millis(100));
    let probe = RemoteEndpoint::new("probe", server.addr());
    let rejected = timed_ask(server.addr(), "rejected");
    while metrics_field(&probe, "rejected_full") == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    gated.open();

    for (client, waiter) in ["parked", "queued"].into_iter().zip(waiting) {
        let (result, _) = waiter.join().unwrap();
        assert_eq!(result, Ok(true), "{client}");
    }
    let (result, elapsed) = rejected.join().unwrap();
    assert_eq!(result, Ok(true), "the refusal never reaches the caller");
    assert!(
        elapsed >= Duration::from_millis(100),
        "sent again after {elapsed:?}, before the hint passed"
    );
    assert_eq!(
        gated.entered.load(Ordering::SeqCst),
        3,
        "every request ran once"
    );
    server.shutdown();
}

/// `Retry-After` counts whole seconds (RFC 9110 §10.2.3), rounded up so
/// that a client reading only the header never comes back early; the
/// envelope keeps the exact hint for typed clients. The refused request
/// is sent raw, as a foreign client would send it.
#[test]
fn a_busy_servers_retry_after_header_counts_seconds() {
    let (server, gated, waiting) = a_full_server(Duration::from_millis(1500));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let body = format!("{}\n", WireRequest::Ask(ASK.to_owned()).to_json().to_text());
    let headers = [("Content-Type", "application/json")];
    write_request(&mut stream, "POST", "/query", &headers, body.as_bytes()).expect("send");
    let response = read_response(&mut BufReader::new(&stream));
    gated.open();
    for waiter in waiting {
        assert_eq!(waiter.join().unwrap().0, Ok(true));
    }

    let response = response.expect("the refusal is a whole response");
    assert_eq!(response.status, 503);
    assert_eq!(response.header("Retry-After"), Some("2"));
    let text = std::str::from_utf8(&response.body).expect("UTF-8 body");
    let envelope = Json::parse(text.trim_end()).expect("JSON envelope");
    let hint = envelope
        .get("error")
        .and_then(|error| error.get("retry_after_ms"))
        .and_then(Json::as_uint);
    assert_eq!(hint, Some(1500), "{text}");
    server.shutdown();
}

/// A hint that outlives the caller's deadline is not waited out: the
/// refusal comes back at once, hint intact, after one exchange.
#[test]
fn a_hint_past_the_deadline_surfaces_at_once() {
    let chaos = ChaosServer::start(vec![Some(Fault::Busy(500))]);
    let remote = RemoteEndpoint::new("hurried", chaos.addr);
    let started = Instant::now();
    let err = ask_within(&remote, Duration::from_millis(200)).expect_err("busy");
    assert_eq!(
        err,
        EndpointError::Unavailable {
            message: "server busy".into(),
            retry_after: Some(Duration::from_millis(500)),
        }
    );
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "the hint was waited out"
    );
    assert_eq!(chaos.exchanges(), 1);
}

/// A server that is always busy costs one exchange plus the bounded
/// number of re-sends; then its refusal reaches the caller.
#[test]
fn an_always_busy_server_costs_a_bounded_number_of_exchanges() {
    let script = (0..2 * HINTED_RESENDS)
        .map(|_| Some(Fault::Busy(5)))
        .collect();
    let chaos = ChaosServer::start(script);
    let remote = RemoteEndpoint::new("patient", chaos.addr);
    let err = remote.ask(ASK).expect_err("busy every time");
    assert!(
        matches!(
            err,
            EndpointError::Unavailable {
                retry_after: Some(_),
                ..
            }
        ),
        "got {err:?}"
    );
    assert_eq!(chaos.exchanges(), 1 + HINTED_RESENDS);
}

/// Every failure other than a hinted 503 is the caller's at once, typed:
/// one exchange each, whatever budget the call carries.
#[test]
fn every_other_failure_costs_one_exchange() {
    let quota = EndpointError::QuotaExceeded {
        endpoint: "c".into(),
        max_queries: 5,
    };
    let draining = EndpointError::Unavailable {
        message: "server shutting down".into(),
        retry_after: None,
    };
    let killed = EndpointError::DeadlineExceeded {
        elapsed: Duration::from_millis(150),
    };
    let capped = EndpointError::BudgetExceeded {
        message: "scanned more than 10 rows".into(),
    };
    let sparql = EndpointError::Sparql(sofya_sparql::SparqlError::parse("bad query"));
    let cases = [
        (Fault::DisconnectMidResponse, None),
        (Fault::Refuse(503, draining.clone()), Some(draining)),
        (Fault::Refuse(429, quota.clone()), Some(quota)),
        (Fault::Refuse(504, killed.clone()), Some(killed)),
        (Fault::Refuse(200, capped.clone()), Some(capped)),
        (Fault::Refuse(200, sparql.clone()), Some(sparql)),
    ];
    for (fault, want) in cases {
        let chaos = ChaosServer::start(vec![Some(fault)]);
        let remote = RemoteEndpoint::new("once", chaos.addr);
        let err = ask_within(&remote, Duration::from_secs(30)).expect_err("fault injected");
        match want {
            Some(want) => assert_eq!(err, want),
            None => assert!(
                matches!(
                    err,
                    EndpointError::Unavailable {
                        retry_after: None,
                        ..
                    }
                ),
                "a torn response is an unhinted transport failure, got {err:?}"
            ),
        }
        assert_eq!(chaos.exchanges(), 1, "{err:?} was sent again");
    }
}

/// A pooled connection the server drops mid-request is sent once more on
/// a fresh dial, and that send carries only what the first one left of
/// the deadline.
#[test]
fn resend_after_a_stale_connection_carries_what_is_left_of_the_deadline() {
    let hang_up = Fault::HangUpAfter(Duration::from_millis(100));
    let chaos = ChaosServer::start(vec![None, Some(hang_up)]);
    let remote = RemoteEndpoint::new("stale", chaos.addr);
    assert!(remote.ask(ASK).expect("pools a connection"));
    let ok = ask_within(&remote, Duration::from_secs(2)).expect("the re-send is answered");
    assert_eq!(ok, Response::Boolean(true));
    let sent = chaos.deadlines();
    let [None, Some(first), Some(second)] = sent[..] else {
        panic!("expected an unbudgeted send, then two budgeted ones: {sent:?}");
    };
    assert!(
        second + 100 <= first,
        "the re-send announced {second} ms after the first announced {first} ms"
    );
}

/// A peer that takes the connection and never answers costs a budgeted
/// call its deadline plus the client's grace, not the 30 s I/O timeout.
#[test]
fn a_hung_peer_costs_at_most_the_deadline() {
    // Bound, never accepted: the kernel completes the handshake and
    // takes the request, and nothing ever reads it.
    let hung = TcpListener::bind("127.0.0.1:0").unwrap();
    let remote = RemoteEndpoint::new("hung", hung.local_addr().unwrap());
    let started = Instant::now();
    let err = ask_within(&remote, Duration::from_millis(200)).expect_err("nothing answers");
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(2), "waited {elapsed:?}");
    assert!(
        matches!(err, EndpointError::DeadlineExceeded { .. }),
        "a timeout past the deadline is the deadline's kill, got {err:?}"
    );
}

/// Satellite: a refused connection (nothing listening) is the typed
/// transport class, not `Other`.
#[test]
fn connection_refused_is_typed_unavailable() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
        // Listener drops here; the port refuses.
    };
    let err = RemoteEndpoint::new("nobody", addr)
        .ask("ASK { <e:s> <r:p> <e:o> }")
        .expect_err("nothing is listening");
    assert!(
        matches!(err, EndpointError::Unavailable { .. }),
        "refused connect classifies as Unavailable, got {err:?}"
    );
}

/// The deadline header travels and is enforced server-side even when
/// the server itself has no configured limit.
#[test]
fn client_deadline_header_bounds_server_work() {
    let server = HttpServer::start(
        Arc::new(LocalEndpoint::new("kb", adversarial_store(600))),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let remote = RemoteEndpoint::new("kb", server.addr());

    // Sanity: the budgeted path still answers small queries correctly.
    let budget = QueryBudget::unlimited().with_time_limit(Duration::from_secs(30));
    let ok = remote
        .execute_with_budget(
            Request::Ask {
                query: "ASK { <e:s0> <r:p> <e:o0> }",
            },
            &budget,
        )
        .expect("budgeted ask");
    assert_eq!(ok, Response::Boolean(true));

    // The adversarial query dies by the *client's* deadline.
    let started = Instant::now();
    let tight = QueryBudget::unlimited().with_time_limit(Duration::from_millis(150));
    let err = remote
        .execute_with_budget(Request::Select { query: RUNAWAY }, &tight)
        .expect_err("client deadline kills the query server-side");
    assert!(
        matches!(err, EndpointError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(metrics_field(&remote, "queries_timed_out"), 1);
    server.shutdown();
}
