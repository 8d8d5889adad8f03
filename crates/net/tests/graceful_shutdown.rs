//! Graceful drain: shutting the server down must finish what it
//! started and refuse what it hasn't, instead of resetting sockets.
//!
//! The scenario: a request is parked inside the endpoint behind a gate,
//! shutdown begins, a late client connects. The late client must get a
//! typed `503 Unavailable` (not a connection reset), the parked request
//! must still complete with its real answer once the gate opens, and
//! only then may the server thread exit.

use sofya_endpoint::{Endpoint, EndpointError, EndpointExt, LocalEndpoint, Request, Response};
use sofya_net::{HttpServer, RemoteEndpoint, ServerConfig};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::QueryBudget;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Parks every query on a gate until the test opens it.
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
}

impl Endpoint for GatedEndpoint {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let (lock, cvar) = &self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        drop(open);
        self.inner.execute_with_budget(req, budget)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[test]
fn drain_completes_in_flight_requests_and_refuses_late_ones() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let gated = Arc::new(GatedEndpoint::new(store));
    let config = ServerConfig {
        drain_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = HttpServer::start(
        Arc::clone(&gated) as Arc<dyn Endpoint>,
        config,
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr();

    // Park one request inside the handler.
    let in_flight = std::thread::spawn(move || {
        RemoteEndpoint::new("kb", addr).ask("ASK { <e:s> <e:p> <e:o> }")
    });
    while gated.entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Begin the drain; it blocks on the parked request.
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(50));

    // A late request gets a clean typed refusal, not a reset.
    let err = RemoteEndpoint::new("late", addr)
        .ask("ASK { <e:s> <e:p> <e:o> }")
        .expect_err("server is draining");
    assert!(
        matches!(err, EndpointError::Unavailable { .. }),
        "expected a typed 503, got {err:?}"
    );

    // The parked request still completes with its real answer.
    gated.open();
    assert!(in_flight
        .join()
        .unwrap()
        .expect("in-flight request survives the drain"));
    shutdown.join().unwrap();
    assert_eq!(
        gated.entered.load(Ordering::SeqCst),
        1,
        "late request never executed"
    );
}

/// Shutdown with nothing in flight is prompt even with a long deadline:
/// the drain waits for work, not for the clock.
#[test]
fn idle_shutdown_does_not_wait_for_the_drain_deadline() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let config = ServerConfig {
        drain_deadline: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let server = HttpServer::start(
        Arc::new(LocalEndpoint::new("kb", store)),
        config,
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let remote = RemoteEndpoint::new("kb", server.addr());
    assert!(remote.ask("ASK { <e:s> <e:p> <e:o> }").unwrap());
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "idle shutdown took {:?}",
        started.elapsed()
    );
}
