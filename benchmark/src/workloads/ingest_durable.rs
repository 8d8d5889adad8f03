//! Writes beside reads: `POST /ingest` batches into a `DurableStore` on
//! real files with real fsyncs, while an open-loop reader probes the
//! same server.
//!
//! The store starts at half of the ≈100k-triple KB and is held at a
//! steady state: the sink keeps the last [`RETAINED`] batches and, with
//! every batch it loads, removes the oldest one, in the same commit. A
//! store that only grew cost more per batch the longer a run had gone
//! on, so a run on a quick host measured a different store from a run on
//! a slow one. Flush policy: the repository's default — one WAL fsync per
//! commit, a checkpoint (segments, manifest, WAL reset) every eighth
//! commit.

use super::Outcome;
use crate::counting_io::{CountingIo, IoCounters};
use crate::fixture::{self, HotBatch, IngestClient, RunConfig, TripleGen};
use crate::probes;
use crate::replay;
use crate::stats::median;
use crate::trace::{SpanId, Tracer, ROOT};
use crate::OUT_DIR;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sofya_durability::{DurabilityConfig, StdIo, StorageIo};
use sofya_endpoint::{ConcurrentEndpoint, DurableStore, EndpointError, SnapshotStore};
use sofya_net::{HttpServer, IngestSink};
use sofya_rdf::{Term, TripleStore};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Triples per ingest body.
pub const BATCH: usize = 256;
/// Batches the store keeps; each batch beyond them retires the oldest.
const RETAINED: usize = 16;
/// Batches sent before timing starts: they fill the retained window, and
/// with the eight preload commits they end on a checkpoint.
const WARM_UP_BATCHES: usize = 24;
/// Batches per block of the run's statistics: four checkpoint cycles, so
/// every block holds four checkpoint commits and its p95 is one of them.
const BLOCK: usize = 32;
/// Cold recoveries timed after the run.
const RECOVERIES: usize = 5;

/// One acknowledged batch, as the sink saw it.
#[derive(Debug, Clone, Copy)]
struct Commit {
    publish_us: f64,
    fsync_us: f64,
    checkpointed: bool,
}

/// Where the sink hangs its spans: the client publishes the `e2e` span
/// of the request in flight, the sink publishes the spans it recorded.
#[derive(Default)]
struct SpanLinks {
    e2e: AtomicU32,
    op: AtomicU32,
    load: AtomicU32,
    retire: AtomicU32,
    commit: AtomicU32,
}

type TermTriple = (Term, Term, Term);

/// The last [`RETAINED`] batches, oldest first.
#[derive(Default, Clone)]
struct Retained(VecDeque<Vec<TermTriple>>);

impl Retained {
    /// Admits a batch about to be loaded into `store` and returns the
    /// batch that leaves the window for it. Only triples `store` does not
    /// hold yet are kept, so retiring a batch never removes a fact of the
    /// preloaded KB.
    fn admit(&mut self, store: &TripleStore, batch: &[TermTriple]) -> Vec<TermTriple> {
        let dict = store.dict();
        let new = batch
            .iter()
            .filter(
                |(s, p, o)| match (dict.lookup(s), dict.lookup(p), dict.lookup(o)) {
                    (Some(s), Some(p), Some(o)) => !store.contains(s, p, o),
                    _ => true,
                },
            )
            .cloned()
            .collect();
        self.0.push_back(new);
        if self.0.len() > RETAINED {
            self.0.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        }
    }
}

/// The durable store and the batches it currently retains.
struct Writer {
    store: DurableStore,
    retained: Retained,
}

/// The benchmark's `IngestSink`: load the batch, retire the oldest,
/// publish durably. An acknowledgement therefore means durable *and*
/// visible to readers.
struct DurableSink {
    store: Mutex<Writer>,
    commits: Mutex<Vec<Commit>>,
    tracer: Option<Arc<Tracer>>,
    links: SpanLinks,
}

impl IngestSink for DurableSink {
    fn ingest(&self, triples: Vec<(Term, Term, Term)>) -> Result<u64, EndpointError> {
        let mut writer = self
            .store
            .lock()
            .expect("sink holds no lock across a panic");
        let (e2e, op) = (
            self.links.e2e.load(Ordering::SeqCst),
            self.links.op.load(Ordering::SeqCst),
        );
        // Warm-up batches have no span to hang on.
        let tracer = self.tracer.as_ref().filter(|_| e2e != ROOT);
        let writer = &mut *writer;
        let retired = writer.retained.admit(writer.store.store(), &triples);
        let load = tracer.map(|t| t.begin("endpoint.durable_load", e2e, op));
        writer.store.load_batch(&triples);
        if let (Some(t), Some(id)) = (tracer, load) {
            t.end(id);
            self.links.load.store(id, Ordering::SeqCst);
        }
        let retire = tracer.map(|t| t.begin("endpoint.durable_retire", e2e, op));
        for (s, p, o) in &retired {
            writer.store.remove(s, p, o);
        }
        if let (Some(t), Some(id)) = (tracer, retire) {
            t.end(id);
            self.links.retire.store(id, Ordering::SeqCst);
        }
        let commit = tracer.map(|t| t.begin("durability.commit", e2e, op));
        let start = Instant::now();
        let receipt = writer
            .store
            .publish()
            .map_err(|e| EndpointError::Other(format!("durable publish failed: {e}")))?;
        let publish_us = start.elapsed().as_secs_f64() * 1e6;
        if let (Some(t), Some(id)) = (tracer, commit) {
            t.end(id);
            self.links.commit.store(id, Ordering::SeqCst);
        }
        self.commits
            .lock()
            .expect("commit log holds plain data")
            .push(Commit {
                publish_us,
                fsync_us: receipt.fsync_latency.as_secs_f64() * 1e6,
                checkpointed: receipt.checkpointed,
            });
        Ok(receipt.epoch)
    }
}

struct Fixture {
    dir: PathBuf,
    io: Arc<CountingIo>,
    sink: Arc<DurableSink>,
    reader: ConcurrentEndpoint,
    /// `None` once shut down.
    server: Option<HttpServer>,
    client: IngestClient,
    gen: TripleGen,
    rng: StdRng,
    hot: HotBatch,
    /// The store's content when set-up ended, for the traced shadow.
    base: TripleStore,
    /// The batches it retained then.
    retained: Retained,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>, attempt: usize) -> Fixture {
    let pair = fixture::big_pair(cfg);
    let dir = PathBuf::from(format!("{OUT_DIR}/ingest-{}-{attempt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = Arc::new(CountingIo::new(Arc::new(
        StdIo::open(&dir).expect("create the storage directory"),
    )));
    let mut store = DurableStore::create(
        Arc::clone(&io) as Arc<dyn StorageIo>,
        DurabilityConfig::default(),
    )
    .expect("fresh directory");

    // Preload half the KB in as many commits as it takes to end on a
    // checkpoint, so the timed part starts from segments plus an empty WAL.
    let triples = fixture::triples_of(&pair.kb2);
    let half = &triples[..triples.len() / 2];
    let commits = DurabilityConfig::default().checkpoint_every as usize;
    for chunk in half.chunks(half.len().div_ceil(commits)) {
        store.load_batch(chunk);
        store.publish().expect("preload commit");
    }
    let hot = HotBatch::over(store.store(), &pair.kb2_relations);
    let reader = store.reader("kb2");
    let entities = fixture::subjects_of(store.store(), 20_000);
    let sink = Arc::new(DurableSink {
        store: Mutex::new(Writer {
            store,
            retained: Retained::default(),
        }),
        commits: Mutex::new(Vec::new()),
        tracer: tracer.cloned(),
        links: SpanLinks::default(),
    });
    let server = fixture::serve(
        reader.clone(),
        Some(Arc::clone(&sink) as Arc<dyn IngestSink>),
    );
    let mut fx = Fixture {
        dir,
        io,
        sink,
        reader,
        client: IngestClient::connect(server.addr()).expect("connect to own server"),
        server: Some(server),
        // A quarter of the entities in a batch are new to the store; their
        // names come round again once the batch that used them is retired,
        // so the dictionary stops growing too.
        gen: TripleGen::new(&pair.kb2_relations, entities, 0.25)
            .with_fresh_pool((RETAINED as u64 + 2) * 2 * BATCH as u64),
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x1236),
        hot,
        base: TripleStore::new(),
        retained: Retained::default(),
    };
    for _ in 0..WARM_UP_BATCHES {
        let body = fixture::ntriples(&fx.gen.spread(&mut fx.rng, BATCH));
        fx.client.post(body.as_bytes()).expect("warm-up batch");
    }
    {
        let writer = fx
            .sink
            .store
            .lock()
            .expect("sink holds no lock across a panic");
        fx.base = writer.store.store().clone();
        fx.retained = writer.retained.clone();
    }
    fx
}

/// The in-process copy a traced run replays each batch on, so the store
/// and endpoint layers' share of a commit can be timed on their own.
struct Shadow {
    store: SnapshotStore,
    retained: Retained,
    /// See [`replay::scheduler_handoff_us`].
    handoff_us: f64,
}

impl Shadow {
    /// Replays one acknowledged body under the spans the sink recorded.
    fn replay(&mut self, t: &Tracer, e2e: SpanId, op: u32, body: &str, links: &SpanLinks) {
        // Framing and parsing first: the store work below churns the
        // allocator under whatever is measured after it.
        let Some(triples) = replay::ingest_leg(t, e2e, op, body, self.handoff_us) else {
            return;
        };
        let retired = self.retained.admit(self.store.store_mut(), &triples);
        t.span(
            "rdf.load_batch",
            links.load.load(Ordering::SeqCst),
            op,
            |_| {
                self.store
                    .store_mut()
                    .load_batch_terms(triples.iter().map(|(s, p, o)| (s, p, o)))
            },
        );
        t.span(
            "rdf.remove_batch",
            links.retire.load(Ordering::SeqCst),
            op,
            |_| {
                let store = self.store.store_mut();
                for (s, p, o) in &retired {
                    let dict = store.dict();
                    if let (Some(s), Some(p), Some(o)) =
                        (dict.lookup(s), dict.lookup(p), dict.lookup(o))
                    {
                        store.remove(s, p, o);
                    }
                }
            },
        );
        let commit = links.commit.load(Ordering::SeqCst);
        let snapshot = t.span("rdf.snapshot", commit, op, |_| {
            self.store.store_mut().snapshot()
        });
        t.span("endpoint.publish", commit, op, |_| {
            self.store.install(snapshot)
        });
    }
}

pub fn run(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut attempt = 0;
    let (mut fx, setups) = fixture::timed_setups(|| {
        attempt += 1;
        setup(cfg, tracer, attempt)
    });
    let window = cfg.window();
    let mut out = Outcome {
        setup_s: setups.secs,
        setup_began: setups.began,
        op_block: BLOCK,
        open_block: fixture::SIDE_READER_HZ as usize,
        ..Outcome::default()
    };
    let io_before = fx.io.counters();
    let commits_before = fx.sink.commits.lock().expect("plain data").len();
    let mut shadow = tracer.map(|_| Shadow {
        store: SnapshotStore::new(fx.base.clone()),
        retained: fx.retained.clone(),
        handoff_us: replay::scheduler_handoff_us(),
    });
    let mut user_bytes = 0u64;
    let mut last_epoch = 0u64;
    let mut replay_s = 0.0;

    let addr = fx.server.as_ref().expect("running").addr();
    let open = std::thread::scope(|scope| {
        let hot = &fx.hot;
        let reader = scope.spawn(move || fixture::side_reader(addr, hot, window));
        let start = Instant::now();
        out.closed_origin = Some(start);
        while start.elapsed() < window {
            let body = fixture::ntriples(&fx.gen.spread(&mut fx.rng, BATCH));
            let op = out.op_us.len() as u32;
            let e2e = tracer.map(|t| {
                let id = t.begin("e2e", ROOT, op);
                fx.sink.links.e2e.store(id, Ordering::SeqCst);
                fx.sink.links.op.store(op, Ordering::SeqCst);
                id
            });
            let t0 = Instant::now();
            let ack = fx.client.post(body.as_bytes());
            let took = t0.elapsed();
            if let (Some(t), Some(id)) = (tracer, e2e) {
                t.end(id);
                fx.sink.links.e2e.store(ROOT, Ordering::SeqCst);
            }
            out.attempted += 1;
            out.op_done_s.push(start.elapsed().as_secs_f64() - replay_s);
            match ack {
                // Epochs acknowledged on one connection only move forward.
                Ok(epoch) if epoch > last_epoch => {
                    last_epoch = epoch;
                    user_bytes += body.len() as u64;
                    out.op_us.push(took.as_secs_f64() * 1e6);
                }
                other => {
                    out.failed += 1;
                    out.op_us.push(window.as_secs_f64() * 1e6);
                    out.notes
                        .push(format!("batch {op}: {other:?} after epoch {last_epoch}"));
                    continue;
                }
            }
            if let (Some(t), Some(e2e), Some(shadow)) = (tracer, e2e, &mut shadow) {
                let replay_start = Instant::now();
                shadow.replay(t, e2e, op, &body, &fx.sink.links);
                replay_s += replay_start.elapsed().as_secs_f64();
            }
        }
        out.timed_s = cfg.seconds;
        reader.join().expect("side reader does not panic")
    });
    out.open = open;
    out.peak_rss_mb = fixture::peak_rss_mb();
    out.attempted += out.open.sent;
    out.failed += out.open.failed;

    // The last acknowledged epoch must come back from only the bytes
    // that had been fsynced, and be what readers were being served.
    let io_run = fx.io.counters().since(&io_before);
    let live = fx.reader.current();
    let mut want = live.snapshot().fingerprint();
    if cfg.wrong_expectation {
        want ^= 1;
    }
    out.attempted += 1;
    let recovered = fx
        .io
        .fsynced_image()
        .map_err(|e| e.to_string())
        .and_then(|image| {
            DurableStore::recover(Arc::new(image), DurabilityConfig::default())
                .map_err(|e| e.to_string())
        });
    match recovered {
        Ok(store)
            if store.epoch() == last_epoch && store.current().snapshot().fingerprint() == want => {}
        Ok(store) => {
            out.failed += 1;
            out.notes.push(format!(
                "recovery from fsynced bytes: epoch {} fingerprint {:#x}, expected epoch \
                 {last_epoch} fingerprint {want:#x}",
                store.epoch(),
                store.current().snapshot().fingerprint(),
            ));
        }
        Err(e) => {
            out.failed += 1;
            out.notes
                .push(format!("recovery from fsynced bytes failed: {e}"));
        }
    }

    if tracer.is_some() {
        let commits: Vec<Commit> =
            fx.sink.commits.lock().expect("plain data")[commits_before..].to_vec();
        durability_metrics(&mut out, &commits, &io_run, user_bytes);
        let server = fx.server.take().expect("running");
        probes::server_metrics(&mut out.layer, &server.metrics());
        probes::standalone(
            &mut out.layer,
            live.snapshot().store(),
            &fx.hot,
            &fx.reader,
            addr,
        );
        let triples = live.snapshot().store().len();
        // Cold recoveries of the real directory: the server stopped, the
        // writer idle.
        server.shutdown();
        let recover_s: Vec<f64> = (0..RECOVERIES)
            .filter_map(|_| {
                let io = Arc::new(StdIo::open(&fx.dir).ok()?);
                let start = Instant::now();
                let store = DurableStore::recover(io, DurabilityConfig::default()).ok()?;
                let took = start.elapsed().as_secs_f64();
                (store.epoch() == last_epoch).then_some(took)
            })
            .collect();
        if recover_s.len() == RECOVERIES {
            let m = median(&recover_s);
            out.layer.insert("durability.recover_s", m);
            out.layer.insert(
                "durability.recover_us_per_ktriple",
                m * 1e6 / (triples as f64 / 1e3),
            );
        } else {
            out.notes
                .push("a cold recovery failed or lost epochs; recover metrics left at 0".into());
        }
    }
    out.notes.push(format!(
        "{} batches of {BATCH} triples acknowledged ({} user bytes); store grew to epoch \
         {last_epoch}; {} bytes written, {} fsyncs, {} renames",
        out.op_us.len(),
        user_bytes,
        io_run.bytes_written(),
        io_run.fsyncs,
        io_run.renames,
    ));
    out
}

fn durability_metrics(out: &mut Outcome, commits: &[Commit], io: &IoCounters, user_bytes: u64) {
    if commits.is_empty() || user_bytes == 0 {
        return;
    }
    let layer = &mut out.layer;
    let all: Vec<f64> = commits.iter().map(|c| c.publish_us).collect();
    let checkpoints: Vec<f64> = commits
        .iter()
        .filter(|c| c.checkpointed)
        .map(|c| c.publish_us)
        .collect();
    let fsyncs: Vec<f64> = commits.iter().map(|c| c.fsync_us).collect();
    layer.insert("durability.fsync_us", median(&fsyncs));
    layer.insert(
        "durability.fsyncs_per_commit",
        io.fsyncs as f64 / commits.len() as f64,
    );
    layer.insert(
        "durability.wal_bytes_per_user_byte",
        io.wal.bytes as f64 / user_bytes as f64,
    );
    layer.insert(
        "durability.storage_bytes_per_user_byte",
        io.bytes_written() as f64 / user_bytes as f64,
    );
    layer.insert("durability.checkpoint_us", median(&checkpoints));
    if !checkpoints.is_empty() {
        layer.insert(
            "durability.checkpoint_bytes",
            (io.segment.bytes + io.manifest.bytes) as f64 / checkpoints.len() as f64,
        );
    }
    layer.insert(
        "durability.checkpoint_share",
        checkpoints.iter().sum::<f64>() / all.iter().sum::<f64>(),
    );
}
