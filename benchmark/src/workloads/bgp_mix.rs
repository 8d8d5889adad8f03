//! The arbitrary client: ad-hoc SPARQL text against the ≈100k-triple KB.
//!
//! Relations are drawn uniformly per query, so the distinct texts (a few
//! thousand) outnumber the server's 512-entry plan cache and most
//! queries pay parse, plan, evaluation and row serialisation in full.
//! Half the window is a closed loop (throughput), half an open loop at a
//! fixed rate (latency under a load that does not back off).

use super::Outcome;
use crate::fixture::{self, RunConfig, Scale};
use crate::openloop::{self, OpenLoopStats, WallClock};
use crate::probes;
use crate::replay::{self, Logged, ServerSide};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sofya_endpoint::{ConcurrentEndpoint, Endpoint, Request, Response, SnapshotStore};
use sofya_kbgen::GeneratedPair;
use sofya_net::{HttpServer, RemoteEndpoint, WireRequest};
use sofya_rdf::{Term, TriplePattern, TripleStore};
use sofya_sparql::{execute_query, QueryOutcome};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop rate, requests per second over all connections: about a
/// sixth of what the closed loop sustains on one CPU on the commit that
/// added this benchmark (≈1,500 ops/s). A `wide_rows` answer holds its
/// connection for ≈5 ms, twenty times the median query, so the queue
/// behind it — and with it the p95 — grows much faster than the load: at
/// 450 req/s a slow spell of the host moved the p95 from 6 ms to 90. A
/// constant, so that a later commit is offered the same load.
const OPEN_LOOP_HZ: f64 = 250.0;

/// One query in this many is replayed in a traced run.
const TRACE_ONE_IN: u32 = 50;

/// Query classes and their share of the mix, in percent.
///
/// `wide_rows` must not sit at 5 %: p95 would then fall on the boundary
/// between it and everything else and jump between a millisecond and ten
/// from run to run. At 8 % the p95 lies inside the class that pays most
/// for row serialisation and JSON parsing, which is what it should watch.
const CLASSES: [Class; 9] = [
    Class::new("count_join", 17, "class.count_join.p50_us"),
    Class::new("star2", 15, "class.star2.p50_us"),
    Class::new("path2_sameas", 15, "class.path2_sameas.p50_us"),
    Class::new("distinct", 10, "class.distinct.p50_us"),
    Class::new("optional", 10, "class.optional.p50_us"),
    Class::new("filter", 10, "class.filter.p50_us"),
    Class::new("unbound_pred", 10, "class.unbound_pred.p50_us"),
    Class::new("ask", 5, "class.ask.p50_us"),
    Class::new("wide_rows", 8, "class.wide_rows.p50_us"),
];

struct Class {
    name: &'static str,
    /// Share of the mix, percent.
    share: u32,
    /// The per-layer metric that reports this class's median latency.
    metric: &'static str,
}

impl Class {
    const fn new(name: &'static str, share: u32, metric: &'static str) -> Self {
        Self {
            name,
            share,
            metric,
        }
    }
}

/// Rows per `wide_rows` page. `Json::parse` is superlinear in body size,
/// so 400 rows cost 13 ms against half a millisecond for the median
/// query — a service-time tail under which the open-loop p95 measured
/// mostly luck (±20 % between runs). 200 rows cost 4 ms and still show.
const WIDE_PAGE: usize = 200;

/// What the generator draws queries from.
struct Vocabulary {
    relations: Vec<String>,
    same_as: String,
    subjects: Vec<Term>,
    wide_pages: usize,
}

impl Vocabulary {
    fn of(pair: &GeneratedPair) -> Self {
        let store = &pair.kb2;
        let links = store
            .dict()
            .lookup_iri(pair.same_as())
            .map_or(0, |id| store.count(TriplePattern::with_p(id)));
        Self {
            relations: pair.kb2_relations.clone(),
            same_as: pair.same_as().to_owned(),
            subjects: fixture::subjects_of(store, 2_000),
            wide_pages: (links / WIDE_PAGE).max(1),
        }
    }

    /// Draws one query: its class and its text.
    fn draw(&self, rng: &mut StdRng) -> (usize, String) {
        let mut ticket = rng.gen_range(0..100u32);
        let class = CLASSES
            .iter()
            .position(|class| {
                let hit = ticket < class.share;
                ticket = ticket.saturating_sub(class.share);
                hit
            })
            .expect("shares sum to 100");
        let r = &self.relations[rng.gen_range(0..self.relations.len())];
        let sa = &self.same_as;
        let text = match CLASSES[class].name {
            "count_join" => {
                format!("SELECT (COUNT(*) AS ?n) WHERE {{ ?x <{r}> ?y . ?x <{sa}> ?z }}")
            }
            "star2" => {
                let r2 = &self.relations[rng.gen_range(0..self.relations.len())];
                format!("SELECT ?x ?y ?z WHERE {{ ?x <{r}> ?y . ?x <{r2}> ?z }}")
            }
            "path2_sameas" => {
                format!("SELECT ?x ?y ?y2 WHERE {{ ?x <{r}> ?y . ?y <{sa}> ?y2 }}")
            }
            "distinct" => format!("SELECT DISTINCT ?x WHERE {{ ?x <{r}> ?y }}"),
            "optional" => {
                format!("SELECT ?x ?y ?z WHERE {{ ?x <{r}> ?y OPTIONAL {{ ?x <{sa}> ?z }} }}")
            }
            "filter" => format!("SELECT ?x ?y WHERE {{ ?x <{r}> ?y FILTER(ISIRI(?y)) }}"),
            "unbound_pred" => {
                let s = &self.subjects[rng.gen_range(0..self.subjects.len())];
                format!("SELECT ?p ?o WHERE {{ {s} ?p ?o }}")
            }
            "ask" => {
                let s = &self.subjects[rng.gen_range(0..self.subjects.len())];
                format!("ASK {{ {s} <{r}> ?y }}")
            }
            "wide_rows" => {
                let offset = rng.gen_range(0..self.wide_pages) * WIDE_PAGE;
                format!("SELECT ?x ?y WHERE {{ ?x <{sa}> ?y }} LIMIT {WIDE_PAGE} OFFSET {offset}")
            }
            other => unreachable!("{other} has no template"),
        };
        (class, text)
    }
}

/// Row count and an order-independent digest of the rows.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Answer {
    rows: u64,
    digest: u64,
}

fn digest_rows<'a>(rows: impl Iterator<Item = &'a Vec<Option<Term>>>) -> Answer {
    let mut answer = Answer { rows: 0, digest: 0 };
    for row in rows {
        // `DefaultHasher::new` is keyed with constants: same row, same
        // hash, in this process and the next.
        let mut hasher = DefaultHasher::new();
        row.hash(&mut hasher);
        answer.rows += 1;
        answer.digest = answer.digest.wrapping_add(hasher.finish());
    }
    answer
}

fn answer_of(response: &Response) -> Option<Answer> {
    match response {
        Response::Rows(rows) => Some(digest_rows(rows.iter())),
        Response::Boolean(b) => Some(Answer {
            rows: 1,
            digest: u64::from(*b),
        }),
        _ => None,
    }
}

/// The same query evaluated in process on the snapshot the server holds.
fn expected(store: &TripleStore, text: &str) -> Option<Answer> {
    match execute_query(store, text).ok()? {
        QueryOutcome::Solutions(rows) => Some(digest_rows(rows.iter())),
        QueryOutcome::Boolean(b) => Some(Answer {
            rows: 1,
            digest: u64::from(b),
        }),
    }
}

struct Fixture {
    pair: GeneratedPair,
    vocabulary: Vocabulary,
    reader: ConcurrentEndpoint,
    server: HttpServer,
    _writer: SnapshotStore,
}

fn send(remote: &RemoteEndpoint, text: &str) -> Option<Answer> {
    let request = if text.starts_with("ASK") {
        Request::Ask { query: text }
    } else {
        Request::Select { query: text }
    };
    remote.execute(request).ok().as_ref().and_then(answer_of)
}

fn setup(cfg: &RunConfig) -> Fixture {
    let pair = fixture::big_pair(cfg);
    let writer = SnapshotStore::new(pair.kb2.clone());
    let reader = writer.reader("kb2");
    let server = fixture::serve(reader.clone(), None);
    let vocabulary = Vocabulary::of(&pair);
    let remote = fixture::remote("kb2", server.addr(), "warm-up");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3a9);
    for _ in 0..200 {
        let (_, text) = vocabulary.draw(&mut rng);
        send(&remote, &text).expect("warm-up query");
    }
    Fixture {
        pair,
        vocabulary,
        reader,
        server,
        _writer: writer,
    }
}

/// What one client thread saw: per query, its class, latency and answer
/// (`None` when the request failed), keyed to its distinct texts.
#[derive(Default)]
struct ClientLog {
    texts: Vec<String>,
    index: HashMap<String, u32>,
    /// `(text, answer)` per query sent, closed loop and open.
    sent: Vec<(u32, Option<Answer>)>,
    /// `(class, latency in µs, completion time in s)` per closed-loop
    /// query; the clock behind the completion times stops while this
    /// client replays.
    closed: Vec<(usize, f64, f64)>,
    replay_s: f64,
    moved: replay::Moved,
}

impl ClientLog {
    fn note(&mut self, text: String, answer: Option<Answer>) {
        let next = self.texts.len() as u32;
        let id = *self.index.entry(text.clone()).or_insert_with(|| {
            self.texts.push(text);
            next
        });
        self.sent.push((id, answer));
    }
}

pub fn run(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let (fx, setups) = fixture::timed_setups(|| setup(cfg));
    let clients = fixture::client_threads();
    let half = cfg.window() / 2;
    let addr = fx.server.addr();
    let server_side = tracer.map(|_| ServerSide::over(&fx.pair.kb2));
    let rate = match cfg.scale {
        Scale::Full => OPEN_LOOP_HZ,
        Scale::Smoke => 200.0,
    };
    let mut out = Outcome {
        setup_s: setups.secs,
        setup_began: setups.began,
        // Enough draws for every block to hold the same mix of classes.
        op_block: 500,
        open_block: rate as usize,
        ..Outcome::default()
    };

    // Phase A: closed loop, one connection per client thread.
    let start = Instant::now();
    out.closed_origin = Some(start);
    let mut logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (fx, server_side) = (&fx, &server_side);
                scope.spawn(move || {
                    let remote = fixture::remote("kb2", addr, "closed");
                    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (client as u64 + 1) << 32);
                    let mut sample = StdRng::seed_from_u64(cfg.seed ^ 0x7ace ^ client as u64);
                    let mut log = ClientLog::default();
                    while start.elapsed() < half {
                        let (class, text) = fx.vocabulary.draw(&mut rng);
                        let began = tracer.map(|t| t.now_ns());
                        let t0 = Instant::now();
                        let answer = send(&remote, &text);
                        let took = t0.elapsed();
                        let charged = if answer.is_some() { took } else { half };
                        if let (Some(t), Some(side), Some(began)) = (tracer, server_side, began) {
                            if sample.gen_range(0..TRACE_ONE_IN) == 0 {
                                let replay_start = Instant::now();
                                // Operation ids are per client; keep them apart.
                                let op = (client as u32) << 24 | log.closed.len() as u32;
                                let e2e = t.record(
                                    "e2e",
                                    ROOT,
                                    op,
                                    began,
                                    began + took.as_nanos() as u64,
                                );
                                let wire = if text.starts_with("ASK") {
                                    WireRequest::Ask(text.clone())
                                } else {
                                    WireRequest::Select(text.clone())
                                };
                                let logged = Logged { wire, encode_ns: 0 };
                                if let Ok(moved) = replay::roundtrip(t, e2e, op, &logged, side) {
                                    log.moved += moved;
                                }
                                log.replay_s += replay_start.elapsed().as_secs_f64();
                            }
                        }
                        log.closed.push((
                            class,
                            charged.as_secs_f64() * 1e6,
                            start.elapsed().as_secs_f64() - log.replay_s,
                        ));
                        log.note(text, answer);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    out.timed_s = half.as_secs_f64();
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); CLASSES.len()];
    for log in &logs {
        for &(class, us, done_s) in &log.closed {
            out.op_us.push(us);
            out.op_done_s.push(done_s);
            by_class[class].push(us);
        }
    }

    // Phase B: open loop at a fixed total rate, the connections' schedules
    // interleaved.
    let interval = Duration::from_secs_f64(clients as f64 / rate);
    let open: Vec<OpenLoopStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter_mut()
            .enumerate()
            .map(|(client, log)| {
                let fx = &fx;
                scope.spawn(move || {
                    let remote = fixture::remote("kb2", addr, "open");
                    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (client as u64 + 101) << 32);
                    // Dial before the schedule starts.
                    let _ = send(&remote, "ASK { ?s ?p ?o }");
                    let clock = WallClock::start();
                    let offset = interval.mul_f64(client as f64 / clients as f64);
                    openloop::run(&clock, offset, interval, half, |_| {
                        let (_, text) = fx.vocabulary.draw(&mut rng);
                        let answer = send(&remote, &text);
                        log.note(text, answer);
                        answer.is_some()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    for stats in open {
        out.open.merge(stats);
    }

    out.peak_rss_mb = fixture::peak_rss_mb();

    // Every answer against the same query evaluated in process.
    let mut distinct = 0usize;
    let mut wrong = 0u64;
    for log in &logs {
        distinct += log.texts.len();
        let want: Vec<Option<Answer>> = log
            .texts
            .iter()
            .map(|text| {
                expected(&fx.pair.kb2, text).map(|a| Answer {
                    digest: a.digest ^ u64::from(cfg.wrong_expectation),
                    ..a
                })
            })
            .collect();
        wrong += log
            .sent
            .iter()
            .filter(|(text, got)| got.is_none() || *got != want[*text as usize])
            .count() as u64;
        out.attempted += log.sent.len() as u64;
    }
    out.failed = wrong;
    out.notes.push(format!(
        "{clients} closed-loop clients for {:.1} s, then {clients} open-loop connections at \
         {rate} req/s for {:.1} s; {} queries, ≈{distinct} distinct texts against a 512-entry \
         plan cache ({} plans cached at the end)",
        half.as_secs_f64(),
        half.as_secs_f64(),
        out.attempted,
        fx.reader.plan_cache_len(),
    ));

    if tracer.is_some() {
        for (class, samples) in CLASSES.iter().zip(&by_class) {
            out.layer.insert(class.metric, median(samples));
        }
        let mut moved = replay::Moved::default();
        logs.iter().for_each(|log| moved += log.moved);
        if moved.rows > 0 {
            out.layer.insert(
                "net.response_bytes_per_row",
                moved.response_bytes as f64 / moved.rows as f64,
            );
        }
        probes::server_metrics(&mut out.layer, &fx.server.metrics());
        let hot = fixture::HotBatch::over(&fx.pair.kb2, &fx.pair.kb2_relations);
        probes::standalone(&mut out.layer, &fx.pair.kb2, &hot, &fx.reader, addr);
    }
    out
}
