//! Loopback federation end-to-end: a real `HttpServer` on `127.0.0.1:0`
//! serving a target store, a `RemoteEndpoint` dialing it, and the full
//! alignment pipeline running source-local / target-remote. The remote
//! run must be *bit-identical* to the all-local run, the server-side
//! scheduler must observe the traffic, and its quota machinery must
//! reject over-budget clients with a typed error.

use sofya_core::{Aligner, AlignerConfig};
use sofya_endpoint::{
    BudgetConfig, Endpoint, EndpointCounters, EndpointError, EndpointExt, InstrumentedEndpoint,
    LocalEndpoint, Request, Response,
};
use sofya_net::{HttpServer, Json, RemoteConfig, RemoteEndpoint, ServerConfig};
use sofya_rdf::{Term, TripleStore};
use sofya_service::SchedulerConfig;
use sofya_sparql::QueryBudget;
use std::sync::Arc;
use std::time::Duration;

const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";

fn link(a: &mut TripleStore, b: &mut TripleStore, ea: &str, eb: &str) {
    a.insert_terms(&Term::iri(ea), &Term::iri(SA), &Term::iri(eb));
    b.insert_terms(&Term::iri(eb), &Term::iri(SA), &Term::iri(ea));
}

/// The paper's movie example, sized up: every movie has one director
/// (the true rule `d:hasDirector ⇒ y:directedBy`), directors produce
/// 2/3 of the time, and a dedicated producer directs nothing (the
/// overlap trap the UBS strategy prunes).
fn movie_stores() -> (TripleStore, TripleStore) {
    let mut yago = TripleStore::new();
    let mut dbp = TripleStore::new();
    for i in 0..12 {
        let (my, md) = (format!("y:m{i}"), format!("d:M{i}"));
        let (dir_y, dir_d) = (format!("y:dir{i}"), format!("d:Dir{i}"));
        let (pr_y, pr_d) = (format!("y:pr{i}"), format!("d:Pr{i}"));
        link(&mut yago, &mut dbp, &my, &md);
        link(&mut yago, &mut dbp, &dir_y, &dir_d);
        link(&mut yago, &mut dbp, &pr_y, &pr_d);
        yago.insert_terms(
            &Term::iri(&my),
            &Term::iri("y:directedBy"),
            &Term::iri(&dir_y),
        );
        dbp.insert_terms(
            &Term::iri(&md),
            &Term::iri("d:hasDirector"),
            &Term::iri(&dir_d),
        );
        if i % 3 != 0 {
            dbp.insert_terms(
                &Term::iri(&md),
                &Term::iri("d:hasProducer"),
                &Term::iri(&dir_d),
            );
        }
        dbp.insert_terms(
            &Term::iri(&md),
            &Term::iri("d:hasProducer"),
            &Term::iri(&pr_d),
        );
    }
    (dbp, yago)
}

fn start_server(store: TripleStore, config: ServerConfig) -> HttpServer {
    HttpServer::start(
        Arc::new(LocalEndpoint::new("yago", store)),
        config,
        "127.0.0.1:0",
    )
    .expect("bind loopback")
}

#[test]
fn federated_alignment_is_bit_identical_to_local() {
    let (dbp_store, yago_store) = movie_stores();
    let source = LocalEndpoint::new("dbp", dbp_store);

    // All-local reference run (UBS exercises ask/select/count shapes).
    let config = AlignerConfig::paper_defaults(5);
    let local_target = LocalEndpoint::new("yago", yago_store.clone());
    let local_rules = Aligner::new(&source, &local_target, config.clone())
        .align_relation("y:directedBy")
        .expect("local alignment");
    assert!(!local_rules.is_empty(), "scenario must produce rules");

    // Same target behind a real TCP server; source stays local.
    let server = start_server(yago_store, ServerConfig::default());
    let remote = RemoteEndpoint::new("yago", server.addr());
    let remote_rules = Aligner::new(&source, &remote, config)
        .align_relation("y:directedBy")
        .expect("federated alignment");

    // Bit-identical: same rules, same confidences (f64 equality), same
    // order — the wire must not perturb a single classification.
    assert_eq!(local_rules, remote_rules);

    // The traffic went through the server-side scheduler.
    let metrics = server.metrics();
    assert!(metrics.completed > 0, "{metrics:?}");
    assert_eq!(metrics.panicked, 0, "{metrics:?}");
    assert_eq!(metrics.rejected_quota, 0, "{metrics:?}");
    server.shutdown();
}

/// The paper's cost number does not depend on where the KB lives: the
/// same relation aligned through `Instrumented(Local)` and
/// `Instrumented(Remote)` counts the same leaf queries, requests, batches
/// and rows; the server completes exactly the requests the client
/// counted; and probes travel as tables, one query per batched phase,
/// well below the leaf queries a per-subject client would have issued.
#[test]
fn federated_alignment_batches_probes_over_the_wire() {
    let (dbp_store, yago_store) = movie_stores();
    let source = LocalEndpoint::new("dbp", dbp_store);
    let config = AlignerConfig::paper_defaults(5);
    let local = InstrumentedEndpoint::new(LocalEndpoint::new("yago", yago_store.clone()));
    let local_rules = Aligner::new(&source, &local, config.clone())
        .align_relation("y:directedBy")
        .expect("local alignment");

    let server = start_server(yago_store, ServerConfig::default());
    let remote = InstrumentedEndpoint::new(RemoteEndpoint::new("yago", server.addr()));
    let rules = Aligner::new(&source, &remote, config)
        .align_relation("y:directedBy")
        .expect("federated alignment");
    assert!(!rules.is_empty());
    assert_eq!(rules, local_rules);

    let (here, there) = (local.counters(), remote.counters());
    let cost = |c: &EndpointCounters| {
        [
            c.total_queries(),
            c.requests(),
            c.batches(),
            c.largest_request(),
            c.largest_table(),
            c.rows_returned(),
        ]
    };
    assert_eq!(
        cost(&there),
        cost(&here),
        "queries, requests, batches, largest, largest table, rows"
    );
    // The server's `completed` counts scheduler jobs = HTTP round trips.
    assert_eq!(server.metrics().completed, there.requests());
    // Probes travel as tables: every request is one query, and the
    // relation costs 8 of them where one leaf per probe was 61 leaf
    // queries in 9 requests (6 of them batches of up to 12 leaves).
    assert_eq!(
        [
            there.total_queries(),
            there.requests(),
            there.batches(),
            there.largest_request(),
            there.largest_table()
        ],
        [8, 8, 0, 1, 12],
        "probes must travel as tables: queries, requests, batches, largest, largest table"
    );
    server.shutdown();
}

/// The remote half of `endpoint/tests/count_differential.rs`: over the
/// wire a count is a `select` like any other, and for every relation of
/// both KBs of a seeded kbgen pair each count helper still equals its
/// page template read in full — and what the same helper answers in
/// process.
/// Runs every request under one budget, as a capped server runs it.
struct Capped<E>(E, QueryBudget);

impl<E: Endpoint> Endpoint for Capped<E> {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        _budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.0.execute_with_budget(req, &self.1)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A server's scan and binding caps are per query, and each row of a
/// table is charged as the query it stands for — as an in-process
/// endpoint charges it, running the rows as leaves. So under the least
/// caps the local alignment fits, the alignment through a server with
/// those caps is the same, table rows and all.
#[test]
fn a_capped_server_aligns_as_a_capped_local_endpoint() {
    let (dbp_store, yago_store) = movie_stores();
    let source = LocalEndpoint::new("dbp", dbp_store);
    let config = AlignerConfig::paper_defaults(5);
    let local = |caps: BudgetConfig| {
        let budget = QueryBudget {
            max_rows_scanned: caps.max_rows_scanned,
            max_bindings: caps.max_bindings,
            ..QueryBudget::default()
        };
        let target = Capped(LocalEndpoint::new("yago", yago_store.clone()), budget);
        Aligner::new(&source, &target, config.clone()).align_relation("y:directedBy")
    };
    let least = |cap: &dyn Fn(u64) -> BudgetConfig| {
        let fits: Vec<bool> = (0..512).map(|n| local(cap(n)).is_ok()).collect();
        fits.iter().position(|&ok| ok).expect("some cap fits")
    };
    let caps = BudgetConfig {
        max_rows_scanned: Some(least(&|n| BudgetConfig {
            max_rows_scanned: Some(n),
            ..BudgetConfig::default()
        }) as u64),
        max_bindings: Some(least(&|n| BudgetConfig {
            max_bindings: Some(n as usize),
            ..BudgetConfig::default()
        })),
        ..BudgetConfig::default()
    };
    let local_rules = local(caps).expect("both least caps fit");
    assert!(!local_rules.is_empty());

    let server = start_server(
        yago_store,
        ServerConfig {
            budget: caps,
            ..ServerConfig::default()
        },
    );
    let remote = RemoteEndpoint::new("yago", server.addr());
    let remote_rules = Aligner::new(&source, &remote, config)
        .align_relation("y:directedBy")
        .expect("a capped server answers what a capped local endpoint answers");
    assert_eq!(remote_rules, local_rules);
    server.shutdown();
}

#[test]
fn remote_count_helpers_equal_their_page_template_read_in_full() {
    use sofya_endpoint::helpers::{
        linked_entity_fact_count, linked_entity_facts_page, linked_literal_fact_count,
        linked_literal_facts_page,
    };
    /// A page no relation of the pair fills (asserted below).
    const ALL: usize = 100_000;

    let pair = sofya_kbgen::generate(&sofya_kbgen::PairConfig::small(42));
    let sa = pair.same_as();
    for (store, relations) in [
        (&pair.kb1, &pair.kb1_relations),
        (&pair.kb2, &pair.kb2_relations),
    ] {
        let local = LocalEndpoint::new("kb", store.clone());
        let server = start_server(store.clone(), ServerConfig::default());
        let remote = RemoteEndpoint::new("kb", server.addr());
        for r in relations
            .iter()
            .map(String::as_str)
            .chain([sa, "kb:absent"])
        {
            let entities = linked_entity_fact_count(&remote, r, sa).expect("count");
            let literals = linked_literal_fact_count(&remote, r, sa).expect("count");
            assert_eq!(entities, linked_entity_fact_count(&local, r, sa).unwrap());
            assert_eq!(literals, linked_literal_fact_count(&local, r, sa).unwrap());
            let entity_rows = linked_entity_facts_page(&remote, r, sa, ALL, 0).expect("page");
            let literal_rows = linked_literal_facts_page(&remote, r, sa, ALL, 0).expect("page");
            assert!(entity_rows.len() < ALL && literal_rows.len() < ALL);
            assert_eq!(entities, entity_rows.len(), "linked entity facts of {r}");
            assert_eq!(literals, literal_rows.len(), "linked literal facts of {r}");
        }
        let metrics = server.metrics();
        assert_eq!(metrics.panicked, 0, "{metrics:?}");
        server.shutdown();
    }
}

#[test]
fn server_quota_rejection_surfaces_as_typed_error() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let server = start_server(
        store,
        ServerConfig {
            scheduler: SchedulerConfig {
                default_client_quota: Some(2),
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let remote = RemoteEndpoint::with_config(
        "kb",
        server.addr(),
        RemoteConfig {
            client_id: "alice".to_owned(),
            ..RemoteConfig::default()
        },
    );
    assert!(remote.ask("ASK { <e:s> <e:p> <e:o> }").unwrap());
    assert!(remote.ask("ASK { <e:s> <e:p> <e:o> }").unwrap());
    match remote.ask("ASK { <e:s> <e:p> <e:o> }") {
        Err(sofya_endpoint::EndpointError::QuotaExceeded {
            endpoint,
            max_queries,
            ..
        }) => {
            assert_eq!(endpoint, "alice");
            assert_eq!(max_queries, 2);
        }
        other => panic!("expected quota error, got {other:?}"),
    }
    assert!(server.metrics().rejected_quota >= 1);
    server.shutdown();
}

/// A client listed twice is held to one limit, and its 429 reports that
/// same limit: the gate reads the rule once, first entry first.
#[test]
fn duplicate_client_quota_is_enforced_as_reported() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let server = start_server(
        store,
        ServerConfig {
            scheduler: SchedulerConfig {
                client_quotas: vec![("c".to_owned(), 1), ("c".to_owned(), 3)],
                ..SchedulerConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let remote = RemoteEndpoint::with_config(
        "kb",
        server.addr(),
        RemoteConfig {
            client_id: "c".to_owned(),
            ..RemoteConfig::default()
        },
    );
    let mut admitted = 0u64;
    let reported = loop {
        match remote.ask("ASK { <e:s> <e:p> <e:o> }") {
            Ok(true) if admitted < 10 => admitted += 1,
            Err(sofya_endpoint::EndpointError::QuotaExceeded { max_queries, .. }) => {
                break max_queries
            }
            other => panic!("after {admitted} admitted: {other:?}"),
        }
    };
    assert_eq!(admitted, reported);
    server.shutdown();
}

#[test]
fn remote_errors_decode_to_the_local_error_types() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let server = start_server(store, ServerConfig::default());
    let remote = RemoteEndpoint::new("kb", server.addr());
    // A malformed query fails server-side in the SPARQL layer and must
    // come back as the same typed SparqlError a local endpoint returns.
    match remote.select("THIS IS NOT SPARQL") {
        Err(sofya_endpoint::EndpointError::Sparql(_)) => {}
        other => panic!("expected a SPARQL error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn metrics_route_serves_the_scheduler_report() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let server = start_server(store, ServerConfig::default());
    let remote = RemoteEndpoint::new("kb", server.addr());
    assert!(remote.ask("ASK { <e:s> <e:p> <e:o> }").unwrap());
    let report = Json::parse(remote.fetch_metrics().unwrap().trim_end()).unwrap();
    assert_eq!(report.get("completed").and_then(Json::as_uint), Some(1));
    assert_eq!(report.get("panicked").and_then(Json::as_uint), Some(0));
    assert!(report
        .get("latency_p99_ns")
        .and_then(Json::as_uint)
        .is_some());
    server.shutdown();
}

/// A durable writer behind the server: its gauge rides `ServerConfig`
/// and `GET /metrics` reports the crash-durable epoch plus WAL fsync
/// latency alongside the scheduler counters.
#[test]
fn metrics_route_reports_the_durable_epoch() {
    use sofya_durability::{DurabilityConfig, MemIo, StorageIo};
    use sofya_endpoint::DurableStore;

    let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
    let mut durable = DurableStore::create(io, DurabilityConfig::default()).unwrap();
    for i in 0..3 {
        durable.insert(
            &Term::iri(format!("e:s{i}")),
            &Term::iri("e:p"),
            &Term::iri("e:o"),
        );
        durable.publish().unwrap();
    }
    let config = ServerConfig {
        durability: Some(durable.gauge()),
        ..ServerConfig::default()
    };
    let server = HttpServer::start(Arc::new(durable.reader("www")), config, "127.0.0.1:0")
        .expect("bind loopback");
    let remote = RemoteEndpoint::new("kb", server.addr());
    assert!(remote.ask("ASK { <e:s0> <e:p> <e:o> }").unwrap());
    let report = Json::parse(remote.fetch_metrics().unwrap().trim_end()).unwrap();
    assert_eq!(report.get("durable_epoch").and_then(Json::as_uint), Some(3));
    assert!(
        report
            .get("wal_fsync_p99_ns")
            .and_then(Json::as_uint)
            .unwrap()
            > 0,
        "three commits recorded in the fsync histogram"
    );
    // The exposition is exactly the values something writes.
    let Json::Obj(pairs) = &report else {
        panic!("metrics is a JSON object: {report:?}");
    };
    let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_ref()).collect();
    assert_eq!(
        keys,
        [
            "submitted",
            "completed",
            "rejected_full",
            "rejected_quota",
            "panicked",
            "queue_depth",
            "latency_mean_ns",
            "latency_p50_ns",
            "latency_p99_ns",
            "queue_wait_p99_ns",
            "wal_fsync_p99_ns",
            "durable_epoch",
            "queries_timed_out",
            "queries_cancelled",
            "queries_shed",
            "last_publish_epoch",
            "dirty_relations",
            "alignment_staleness_epochs",
        ]
    );
    server.shutdown();
}

/// The fsync p99 counts every commit, however many fall between two
/// polls, and a poll reads it without consuming it: 4,096 commits of
/// 1 µs and then 100 of 10 ms put the p99 in the 10 ms bucket, on the
/// first `GET /metrics` and on the second.
#[test]
fn wal_fsync_p99_counts_every_commit() {
    use sofya_durability::CommitReceipt;
    use sofya_endpoint::DurabilityGauge;

    let gauge = Arc::new(DurabilityGauge::new());
    let commit = |epoch: u64, fsync_latency: Duration| {
        gauge.on_commit(&CommitReceipt {
            epoch,
            fingerprint: 0,
            wal_bytes: 0,
            fsync_latency,
            checkpointed: false,
        })
    };
    let slow = (0..4096).map(|_| Duration::from_micros(1));
    let fast = (0..100).map(|_| Duration::from_millis(10));
    for (epoch, latency) in (1..).zip(slow.chain(fast)) {
        commit(epoch, latency);
    }
    let config = ServerConfig {
        durability: Some(Arc::clone(&gauge)),
        ..ServerConfig::default()
    };
    let server = start_server(TripleStore::new(), config);
    let remote = RemoteEndpoint::new("kb", server.addr());
    for poll in ["first", "second"] {
        let report = Json::parse(remote.fetch_metrics().unwrap().trim_end()).unwrap();
        let p99 = report.get("wal_fsync_p99_ns").and_then(Json::as_uint);
        assert!(
            p99.is_some_and(|ns| ns >= 8_000_000),
            "{poll} poll: p99 {p99:?} ns, not the 10 ms tail"
        );
        assert_eq!(
            report.get("durable_epoch").and_then(Json::as_uint),
            Some(4196)
        );
    }
    server.shutdown();
}

/// `POST /ingest` holds line-JSON to the rules of N-Triples: a batch
/// with a literal subject or a blank-node predicate is a 400 naming the
/// line, and none of it reaches the sink.
#[test]
fn line_json_ingest_refuses_what_ntriples_refuses() {
    use sofya_endpoint::EndpointError;
    use sofya_net::http::{read_response, write_request};
    use sofya_net::IngestSink;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Recorder(Mutex<Vec<(Term, Term, Term)>>);
    impl IngestSink for Recorder {
        fn ingest(&self, triples: Vec<(Term, Term, Term)>) -> Result<u64, EndpointError> {
            self.0.lock().expect("recorder lock").extend(triples);
            Ok(1)
        }
    }

    let sink = Arc::new(Recorder::default());
    let config = ServerConfig {
        ingest: Some(Arc::clone(&sink) as Arc<dyn IngestSink>),
        ..ServerConfig::default()
    };
    let server = start_server(TripleStore::new(), config);
    let post = |body: &str| {
        let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
        let headers = [("X-Client", "e2e"), ("Connection", "close")];
        write_request(&mut conn, "POST", "/ingest", &headers, body.as_bytes()).unwrap();
        let response = read_response(&mut std::io::BufReader::new(conn)).expect("response");
        let text = String::from_utf8_lossy(&response.body).into_owned();
        (response.status, text)
    };
    let good = r#"{"s":{"t":"iri","v":"e:s"},"p":{"t":"iri","v":"e:p"},"o":{"t":"iri","v":"e:o"}}"#;
    let bad = r#"{"s":{"t":"lit","v":"x"},"p":{"t":"bnode","v":"b"},"o":{"t":"iri","v":"e:o"}}"#;
    assert_eq!(post(good).0, 202);
    let (status, text) = post(&format!("{good}\n{bad}\n"));
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("line 2"), "{text}");
    assert_eq!(sink.0.lock().expect("recorder lock").len(), 1);
    server.shutdown();
}

/// Connection reuse: one client issuing many sequential requests keeps
/// working across the whole run (single keep-alive connection), and a
/// server restart between requests is healed by the one reconnect retry.
#[test]
fn connection_reuse_and_reconnect() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let server = start_server(store.clone(), ServerConfig::default());
    let addr = server.addr();
    let remote = RemoteEndpoint::with_config(
        "kb",
        addr,
        RemoteConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
            ..RemoteConfig::default()
        },
    );
    for _ in 0..10 {
        assert!(remote.ask("ASK { <e:s> <e:p> <e:o> }").unwrap());
    }
    assert_eq!(server.metrics().completed, 10);
    server.shutdown();

    // Restart on the same port: the pooled connection is now dead, and
    // the next request must transparently reconnect.
    let server = HttpServer::start(
        Arc::new(LocalEndpoint::new("yago", store)),
        ServerConfig::default(),
        &addr.to_string(),
    )
    .expect("rebind same port");
    assert!(remote.ask("ASK { <e:s> <e:p> <e:o> }").unwrap());
    server.shutdown();
}

/// `POST /query` with `body`, on a connection of its own: the status and
/// the body of the answer.
fn post_query(addr: std::net::SocketAddr, body: &[u8]) -> (u16, String) {
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let headers = [("Host", "sofya"), ("X-Client", "deep")];
    sofya_net::http::write_request(&mut conn, "POST", "/query", &headers, body).expect("send");
    let response =
        sofya_net::http::read_response(&mut std::io::BufReader::new(conn)).expect("answered");
    let text = String::from_utf8_lossy(&response.body).into_owned();
    (response.status, text)
}

/// A request the server accepts has an answer the client accepts: a
/// `SELECT` wrapped in `MAX_BATCH_DEPTH` batches answers over the wire
/// as it does locally; one batch more is a 400 before anything runs —
/// where the server used to run it and the client then failed to read
/// the answer; and a body of nothing but openers is a 400, not a stack
/// overflow.
#[test]
fn a_batch_the_server_accepts_has_an_answer_the_client_reads() {
    use sofya_endpoint::{Endpoint, EndpointError, Request};
    use sofya_net::wire::MAX_BATCH_DEPTH;

    let (_, yago) = movie_stores();
    let local = LocalEndpoint::new("yago", yago.clone());
    let server = start_server(yago, ServerConfig::default());
    let remote = RemoteEndpoint::new("yago", server.addr());
    let nested = |depth: usize| {
        let mut request = Request::Select {
            query: "SELECT ?m ?d WHERE { ?m <y:directedBy> ?d } ORDER BY ?m",
        };
        for _ in 0..depth {
            request = Request::Batch(vec![request]);
        }
        request
    };

    let answer = local
        .execute(nested(MAX_BATCH_DEPTH))
        .expect("local answer");
    assert_eq!(remote.execute(nested(MAX_BATCH_DEPTH)), Ok(answer));
    let submitted = server.metrics().submitted;
    assert_eq!(submitted, 1);

    match remote.execute(nested(MAX_BATCH_DEPTH + 1)) {
        Err(EndpointError::Other(message)) => {
            assert!(message.contains("batches nested deeper than"), "{message}");
        }
        other => panic!("a batch past the limit is refused, got {other:?}"),
    }
    let mut body = String::new();
    sofya_net::WireRequest::from_request(&nested(MAX_BATCH_DEPTH + 1))
        .expect("lowering")
        .write(&mut body);
    let (status, reply) = post_query(server.addr(), body.as_bytes());
    assert_eq!(status, 400, "{reply}");
    assert_eq!(server.metrics().submitted, submitted, "nothing ran");

    for opener in ["[", "{\"requests\":"] {
        let (status, reply) = post_query(server.addr(), opener.repeat(1 << 20).as_bytes());
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("nesting deeper than 64"), "{reply}");
    }
    assert_eq!(server.metrics().submitted, submitted, "nothing ran");
    server.shutdown();
}
