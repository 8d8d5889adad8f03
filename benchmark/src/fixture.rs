//! What the workloads share: run settings, knowledge bases, the probe
//! batch every side reader sends, the ingest client, and the host facts
//! stamped on results.

use crate::openloop::{self, OpenLoopStats, WallClock};
use rand::rngs::StdRng;
use rand::Rng;
use sofya_core::AlignerConfig;
use sofya_endpoint::{ConcurrentEndpoint, Endpoint, Request, Response};
use sofya_kbgen::{generate, GeneratedPair, PairConfig, StructureCounts};
use sofya_net::http::{read_response, write_request};
use sofya_net::{HttpServer, IngestSink, Json, RemoteConfig, RemoteEndpoint, ServerConfig};
use sofya_rdf::{Term, TriplePattern, TripleStore};
use sofya_sparql::Prepared;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Toy knowledge bases, for the harness's own tests.
    Smoke,
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Feed every correctness check a wrong expectation; the run must
    /// then report failures and exit non-zero.
    pub wrong_expectation: bool,
}

impl RunConfig {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set-ups per run; `setup_s` is their first quartile (see
/// [`crate::stats::quiet_quartile`]).
const SETUPS: usize = 7;

/// When each set-up began and how long it took, in seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub began: Vec<Instant>,
    pub secs: Vec<f64>,
}

/// Builds the fixture [`SETUPS`] times and keeps the last one.
pub fn timed_setups<F>(mut setup: impl FnMut() -> F) -> (F, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut fixture = None;
    for _ in 0..SETUPS {
        // Drop the previous fixture first, so its servers and files are
        // gone before the next one is timed.
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(setup());
        times.began.push(start);
        times.secs.push(start.elapsed().as_secs_f64());
    }
    (fixture.expect("SETUPS is at least one"), times)
}

/// Client threads the generator may use: never more than the cores.
pub fn client_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The knowledge bases are the benchmark's fixed data set; `--seed`
/// drives the traffic sent at them. Generating the KBs from the run's
/// seed as well was tried first: relation sizes then differ from seed to
/// seed, and with them every timing, by 12 to 21 % between quartiles —
/// wider than any regression bound worth having.
const DATASET_SEED: u64 = 42;

/// The aligner as the paper configures it. Its sampling seed belongs to
/// the data set: it decides which probes a relation costs, and a
/// different one per run would make every run a different workload.
pub fn aligner_config() -> AlignerConfig {
    AlignerConfig::paper_defaults(DATASET_SEED)
}

/// The paper's pair: 92 relations against 1313.
pub fn paper_pair(cfg: &RunConfig) -> GeneratedPair {
    generate(&match cfg.scale {
        Scale::Full => PairConfig::yago_dbpedia(DATASET_SEED),
        Scale::Smoke => PairConfig::small(DATASET_SEED),
    })
}

/// The ≈100k-triple pair `perf_report` calls `big_config`: kb2 holds 20k
/// entities and ≈1,100 relations.
pub fn big_pair(cfg: &RunConfig) -> GeneratedPair {
    generate(&match cfg.scale {
        Scale::Full => {
            let mut big = PairConfig::small(DATASET_SEED);
            big.n_entities = 20_000;
            big.structures = StructureCounts {
                equivalent: 20,
                subsumption_families: 4,
                fines_per_family: 3,
                overlap_traps: 8,
                literal_attrs: 4,
                noise_kb1: 10,
                noise_kb2: 1050,
                correlated_noise_kb2: 20,
            };
            big.facts_per_relation = (300, 500);
            big
        }
        Scale::Smoke => PairConfig::small(DATASET_SEED),
    })
}

pub fn triples_of(store: &TripleStore) -> Vec<(Term, Term, Term)> {
    store
        .iter()
        .map(|t| {
            let (s, p, o) = store.resolve(t);
            (s.clone(), p.clone(), o.clone())
        })
        .collect()
}

/// Distinct IRI subjects of `store`, in index order.
pub fn subjects_of(store: &TripleStore, limit: usize) -> Vec<Term> {
    let mut seen = std::collections::HashSet::new();
    store
        .iter()
        .filter(|t| seen.insert(t.s))
        .map(|t| store.dict().resolve(t.s).clone())
        .filter(Term::is_iri)
        .take(limit)
        .collect()
}

pub fn ntriples(triples: &[(Term, Term, Term)]) -> String {
    let mut body = String::with_capacity(triples.len() * 120);
    for (s, p, o) in triples {
        body.push_str(&format!("{s} {p} {o} .\n"));
    }
    body
}

/// Seeded ingest batches over a KB's relations and entities.
pub struct TripleGen {
    relations: Vec<Term>,
    entities: Vec<Term>,
    /// Share of entity slots filled with an entity the store has never
    /// seen.
    fresh_share: f64,
    fresh: u64,
    /// New-entity names repeat after this many; never, by default.
    fresh_pool: u64,
    /// Batches handed out by [`TripleGen::on_next_relation`].
    turns: usize,
}

impl TripleGen {
    pub fn new(relations: &[String], entities: Vec<Term>, fresh_share: f64) -> Self {
        Self {
            relations: relations.iter().map(Term::iri).collect(),
            entities,
            fresh_share,
            fresh: 0,
            fresh_pool: u64::MAX,
            turns: 0,
        }
    }

    pub fn with_fresh_pool(mut self, names: u64) -> Self {
        self.fresh_pool = names;
        self
    }

    fn entity(&mut self, rng: &mut StdRng) -> Term {
        if rng.gen_bool(self.fresh_share) {
            self.fresh = (self.fresh + 1) % self.fresh_pool;
            Term::iri(format!("http://bench.sim/fresh/e{}", self.fresh))
        } else {
            self.entities[rng.gen_range(0..self.entities.len())].clone()
        }
    }

    /// `n` triples with predicates drawn from all relations.
    pub fn spread(&mut self, rng: &mut StdRng, n: usize) -> Vec<(Term, Term, Term)> {
        (0..n)
            .map(|_| {
                let p = self.relations[rng.gen_range(0..self.relations.len())].clone();
                (self.entity(rng), p, self.entity(rng))
            })
            .collect()
    }

    /// `n` triples on one relation: the relations take turns, in the
    /// order they were given, so every `relations.len()` batches touch
    /// each relation once.
    pub fn on_next_relation(&mut self, rng: &mut StdRng, n: usize) -> Vec<(Term, Term, Term)> {
        let p = self.relations[self.turns % self.relations.len()].clone();
        self.turns += 1;
        (0..n)
            .map(|_| (self.entity(rng), p.clone(), self.entity(rng)))
            .collect()
    }
}

/// The aligner's hot request shape, as `perf_report` pins it: one batch
/// of eight existence probes and eight object look-ups on the subjects
/// of the store's largest relation.
pub struct HotBatch {
    probe: Prepared,
    objects: Prepared,
    probe_args: Vec<Vec<Term>>,
    select_args: Vec<Vec<Term>>,
}

impl HotBatch {
    pub fn over(store: &TripleStore, relations: &[String]) -> Self {
        let (relation, id) = relations
            .iter()
            .filter_map(|r| Some((r, store.dict().lookup_iri(r)?)))
            .max_by_key(|(_, id)| store.count(TriplePattern::with_p(*id)))
            .expect("a generated KB has relations");
        let subjects: Vec<Term> = store
            .scan(TriplePattern::with_p(id))
            .take(8)
            .map(|t| store.resolve(t).0.clone())
            .collect();
        Self {
            probe: Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).expect("static template"),
            objects: Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"])
                .expect("static template"),
            probe_args: subjects
                .iter()
                .map(|s| vec![s.clone(), Term::iri(relation), Term::iri("kb:nope")])
                .collect(),
            select_args: subjects
                .iter()
                .map(|s| vec![s.clone(), Term::iri(relation)])
                .collect(),
        }
    }

    pub fn request(&self) -> Request<'_> {
        let mut requests = Vec::with_capacity(16);
        for (pa, sa) in self.probe_args.iter().zip(&self.select_args) {
            requests.push(Request::PreparedAsk {
                prepared: &self.probe,
                args: pa,
            });
            requests.push(Request::PreparedSelect {
                prepared: &self.objects,
                args: sa,
            });
        }
        Request::Batch(requests)
    }

    /// Holds on every snapshot a workload publishes: the probed object
    /// never exists, and the probed subjects' base facts never expire.
    pub fn answer_is_valid(&self, response: &Response) -> bool {
        let Response::Batch(items) = response else {
            return false;
        };
        items.len() == 2 * self.probe_args.len()
            && items.chunks(2).all(|pair| {
                matches!(
                    pair,
                    [Response::Boolean(false), Response::Rows(rows)] if !rows.is_empty()
                )
            })
    }
}

/// The server's idle poll, raised from the default 25 ms. The server
/// sets it as the socket's read timeout and so applies it *inside* a
/// request too: a client that is descheduled for 25 ms between writing a
/// request's head and its body is answered `400 malformed HTTP request`
/// and disconnected. On a shared host that happens (the open-loop
/// generator has been seen to lose the CPU for 130 ms), and one such
/// answer fails a whole run. The poll paces nothing but idle connections
/// and shutdown, so a second costs the measurement nothing.
const POLL_INTERVAL: Duration = Duration::from_secs(1);

/// Boots an `HttpServer` over `endpoint` on a free loopback port, default
/// but for [`POLL_INTERVAL`]; with a sink, `POST /ingest` is routed to it.
pub fn serve(endpoint: ConcurrentEndpoint, ingest: Option<Arc<dyn IngestSink>>) -> HttpServer {
    HttpServer::start(
        Arc::new(endpoint),
        ServerConfig {
            ingest,
            poll_interval: POLL_INTERVAL,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind a loopback port")
}

pub fn remote(name: &str, addr: SocketAddr, client_id: &str) -> RemoteEndpoint {
    RemoteEndpoint::with_config(
        name,
        addr,
        RemoteConfig {
            client_id: client_id.to_owned(),
            ..RemoteConfig::default()
        },
    )
}

/// Side-reader rate: light enough to leave the workload its cores, and
/// a thousand samples in ten seconds.
pub const SIDE_READER_HZ: f64 = 100.0;

/// The open-loop reader that runs beside a workload's own traffic:
/// [`HotBatch`] at [`SIDE_READER_HZ`] on one connection for `window`.
pub fn side_reader(addr: SocketAddr, hot: &HotBatch, window: Duration) -> OpenLoopStats {
    let endpoint = remote("side", addr, "side-reader");
    let clock = WallClock::start();
    let interval = Duration::from_secs_f64(1.0 / SIDE_READER_HZ);
    openloop::run(&clock, Duration::ZERO, interval, window, |_| {
        endpoint
            .execute(hot.request())
            .is_ok_and(|response| hot.answer_is_valid(&response))
    })
}

/// `POST /ingest` over one keep-alive connection.
pub struct IngestClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl IngestClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Sends one body; returns the epoch the server acknowledged.
    pub fn post(&mut self, body: &[u8]) -> Result<u64, String> {
        let headers = [
            ("Host", "sofya"),
            ("X-Client", "ingest"),
            ("Content-Type", "application/n-triples"),
        ];
        // Head and body leave in one write: see [`POLL_INTERVAL`].
        let mut message = Vec::with_capacity(body.len() + 160);
        write_request(&mut message, "POST", "/ingest", &headers, body)
            .map_err(|e| e.to_string())?;
        self.stream.write_all(&message).map_err(|e| e.to_string())?;
        let response = read_response(&mut self.reader).map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
        if response.status != 202 {
            return Err(format!("HTTP {}: {}", response.status, text.trim_end()));
        }
        Json::parse(text.trim_end())?
            .get("epoch")
            .and_then(Json::as_uint)
            .ok_or_else(|| format!("ack without an epoch: {}", text.trim_end()))
    }
}

/// Best-effort hostname, reduced to characters safe in a file name.
pub fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .unwrap_or_else(|_| "unknown".to_owned())
        .trim()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        .collect()
}

/// The one-minute load average, or -1 when the host does not say.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}
