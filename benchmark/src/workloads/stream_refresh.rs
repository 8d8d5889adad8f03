//! The same write front door, used differently: no WAL, but deltas,
//! footprints and incremental re-mining. One cycle is a `POST /ingest`
//! of 256 triples on one relation of the 92-relation KB, the
//! acknowledgement, the session catching up on the published delta, and
//! the re-alignment of every relation the delta dirtied.
//!
//! The ingestor runs a sliding window of 64 ticks on a clock the harness
//! advances by one tick per cycle, so after 64 cycles every publish also
//! expires a batch and the store stops growing.
//!
//! The relations take turns in a seeded order, so every 92 cycles do the
//! same work and make one block of the run's statistics. Three fifths of
//! the window run cycles back to back; the rest offers them at a fixed
//! rate and times each from when its batch was due. A side
//! reader, as the other write workload has, was tried first: its 3 ms p95
//! was set by where the kernel happened to place four threads on two
//! cores and moved by 30 % between runs of the same code.

use super::Outcome;
use crate::fixture::{self, HotBatch, IngestClient, RunConfig, Scale, TripleGen};
use crate::openloop::{self, WallClock};
use crate::probes;
use crate::replay;
use crate::trace::{Tracer, ROOT};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sofya_core::{AlignmentSession, SubsumptionRule};
use sofya_endpoint::{
    Clock, ConcurrentEndpoint, EndpointError, LocalEndpoint, ManualClock, SnapshotStore,
};
use sofya_kbgen::GeneratedPair;
use sofya_net::{HttpServer, IngestSink};
use sofya_rdf::Term;
use sofya_stream::{IngestorConfig, KbSide, SharedIngestor, StreamIngestor};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::ingest_durable::BATCH;

/// Open-loop rate, cycles per second: about a third of what the closed loop
/// sustained on the commit that added this benchmark (≈75 cycles/s on
/// two cores). A constant, so that a later commit is offered the same
/// load.
const OPEN_LOOP_HZ: f64 = 25.0;

const TICK: Duration = Duration::from_secs(1);
const WINDOW_TICKS: u32 = 64;

/// `SharedIngestor` behind a wrapper that times the call into it.
struct TimedSink {
    inner: Arc<SharedIngestor>,
    tracer: Option<Arc<Tracer>>,
    /// The `e2e` span and operation of the request in flight.
    e2e: AtomicU32,
    op: AtomicU32,
}

impl IngestSink for TimedSink {
    fn ingest(&self, triples: Vec<(Term, Term, Term)>) -> Result<u64, EndpointError> {
        let e2e = self.e2e.load(Ordering::SeqCst);
        match self.tracer.as_ref().filter(|_| e2e != ROOT) {
            Some(t) => t.span(
                "stream.offer_batch",
                e2e,
                self.op.load(Ordering::SeqCst),
                |_| self.inner.ingest(triples),
            ),
            None => self.inner.ingest(triples),
        }
    }
}

struct Fixture {
    pair: GeneratedPair,
    clock: Arc<ManualClock>,
    ingestor: Arc<SharedIngestor>,
    sink: Arc<TimedSink>,
    reader: ConcurrentEndpoint,
    server: HttpServer,
    client: IngestClient,
    gen: TripleGen,
    rng: StdRng,
    hot: HotBatch,
}

impl Fixture {
    /// One tick, one batch: returns the body sent and the acknowledgement.
    fn ingest_one(&mut self) -> (String, Result<u64, String>) {
        self.clock.advance(TICK);
        let body = fixture::ntriples(&self.gen.on_next_relation(&mut self.rng, BATCH));
        let ack = self.client.post(body.as_bytes());
        (body, ack)
    }
}

fn setup(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Fixture {
    let pair = fixture::paper_pair(cfg);
    let clock = Arc::new(ManualClock::new());
    let ingestor = StreamIngestor::with_clock(
        SnapshotStore::new(pair.kb1.clone()),
        IngestorConfig {
            max_buffered: 4096,
            publish_count: 1,
            publish_interval: None,
            window: Some(TICK * WINDOW_TICKS),
        },
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let reader = ingestor.reader("kb1");
    let hot = HotBatch::over(&pair.kb1, &pair.kb1_relations);
    let entities = fixture::subjects_of(&pair.kb1, 20_000);
    let ingestor = SharedIngestor::new(ingestor);
    let sink = Arc::new(TimedSink {
        inner: Arc::clone(&ingestor),
        tracer: tracer.cloned(),
        e2e: AtomicU32::new(ROOT),
        op: AtomicU32::new(0),
    });
    let server = fixture::serve(
        reader.clone(),
        Some(Arc::clone(&sink) as Arc<dyn IngestSink>),
    );
    // The order in which the relations take their turns.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x57e4);
    let mut turns = pair.kb1_relations.clone();
    turns.shuffle(&mut rng);
    let mut fx = Fixture {
        clock,
        ingestor,
        sink,
        reader,
        client: IngestClient::connect(server.addr()).expect("connect to own server"),
        server,
        // Every fact links two entities the base KB does not know, so a
        // batch dirties only the relations whose evidence read its
        // predicate (≈5 of 92); with known entities the entity footprints
        // fire as well and a cycle re-mines a third of the KB. The new
        // entities come from a pool one window long: a cycle reuses the
        // names that have just expired, so the dictionary stops growing
        // with the store and a cycle costs the same at any point of a run.
        gen: TripleGen::new(&turns, entities, 1.0)
            .with_fresh_pool((WINDOW_TICKS as u64 + 1) * 2 * BATCH as u64),
        rng,
        hot,
        pair,
    };
    // Fill the window, so the timed cycles all run at the steady state:
    // every publish inserts one batch and expires one.
    for _ in 0..=WINDOW_TICKS {
        fx.ingest_one().1.expect("window-filling batch");
    }
    fx
}

type Rules = Vec<Result<Vec<SubsumptionRule>, String>>;

fn all_rules(session: &AlignmentSession<'_>, relations: &[String]) -> Rules {
    relations
        .iter()
        .map(|r| session.rules_for(r).map_err(|e| e.to_string()))
        .collect()
}

pub fn run(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let (mut fx, setups) = fixture::timed_setups(|| setup(cfg, tracer));
    let mut out = Outcome {
        setup_s: setups.secs,
        setup_began: setups.began,
        // Every relation once: the same work in every block.
        op_block: fx.pair.kb1_relations.len(),
        open_block: 2 * OPEN_LOOP_HZ as usize,
        ..Outcome::default()
    };
    let config = fixture::aligner_config();
    let source = LocalEndpoint::new("kb2", fx.pair.kb2.clone());
    let target = fx.reader.clone();
    let session = AlignmentSession::new(&source, &target, config.clone());
    // Subscribe before caching, so no publish can fall between the two.
    let mut tracker = fx.ingestor.with(|i| i.tracker(KbSide::Target));
    let relations = fx.pair.kb1_relations.clone();
    // Caching all relations is set-up too, but the session borrows the
    // fixture, so it is built here and its cost added to each set-up.
    let caching = Instant::now();
    let cached = all_rules(&session, &relations);
    let caching = caching.elapsed().as_secs_f64();
    out.setup_s.iter_mut().for_each(|s| *s += caching);
    if let Some(e) = cached.iter().find_map(|r| r.as_ref().err()) {
        out.notes.push(format!("initial alignment failed: {e}"));
        out.failed += 1;
    }
    let handoff_us = tracer.map_or(0.0, |_| replay::scheduler_handoff_us());
    let (mut remined, mut expired, mut replay_s) = (0u64, 0u64, 0.0);
    let mut live_before = fx.ingestor.with(|i| i.live_in_window());
    // Inserted minus the window's growth is what expired; a duplicate of a
    // base fact is never inserted at all.
    let mut expired_since = |fx: &Fixture| {
        let live = fx.ingestor.with(|i| i.live_in_window());
        let gone = (live_before + BATCH).saturating_sub(live) as u64;
        live_before = live;
        gone
    };

    // First leg: cycles back to back.
    let closed = cfg.window().mul_f64(0.6);
    let start = Instant::now();
    out.closed_origin = Some(start);
    while start.elapsed() < closed {
        let op = out.op_us.len() as u32 + 1;
        let e2e = tracer.map(|t| {
            let id = t.begin("e2e", ROOT, op);
            fx.sink.op.store(op, Ordering::SeqCst);
            fx.sink.e2e.store(id, Ordering::SeqCst);
            id
        });
        let t0 = Instant::now();
        let (body, ack) = fx.ingest_one();
        let synced = match (tracer, e2e) {
            (Some(t), Some(e2e)) => {
                t.span("stream.tracker_sync", e2e, op, |_| tracker.sync(&session));
                t.span("core.refresh_dirty", e2e, op, |_| session.refresh_dirty())
            }
            _ => {
                tracker.sync(&session);
                session.refresh_dirty()
            }
        };
        let took = t0.elapsed();
        if let (Some(t), Some(e2e)) = (tracer, e2e) {
            t.end(e2e);
            fx.sink.e2e.store(ROOT, Ordering::SeqCst);
        }
        out.attempted += 1;
        out.op_done_s.push(start.elapsed().as_secs_f64() - replay_s);
        match (ack, synced) {
            (Ok(_), Ok(n)) => {
                remined += n as u64;
                out.op_us.push(took.as_secs_f64() * 1e6);
            }
            (ack, synced) => {
                out.failed += 1;
                out.op_us.push(closed.as_secs_f64() * 1e6);
                out.notes
                    .push(format!("cycle {op}: ack {ack:?}, refresh {synced:?}"));
            }
        }
        expired += expired_since(&fx);
        if let (Some(t), Some(e2e)) = (tracer, e2e) {
            let replay_start = Instant::now();
            // The sink's own span (`stream.offer_batch`) was recorded live.
            let _ = replay::ingest_leg(t, e2e, op, &body, handoff_us);
            replay_s += replay_start.elapsed().as_secs_f64();
        }
    }
    out.timed_s = closed.as_secs_f64();

    // Second leg: batches arrive on a schedule, as a stream's do, and a
    // cycle is timed from when its batch was due.
    let rate = match cfg.scale {
        Scale::Full => OPEN_LOOP_HZ,
        Scale::Smoke => 20.0,
    };
    out.open = openloop::run(
        &WallClock::start(),
        Duration::ZERO,
        Duration::from_secs_f64(1.0 / rate),
        cfg.window() - closed,
        |_| {
            let (_, ack) = fx.ingest_one();
            tracker.sync(&session);
            let refreshed = session.refresh_dirty();
            remined += refreshed.as_ref().map_or(0, |n| *n as u64);
            expired += expired_since(&fx);
            ack.is_ok() && refreshed.is_ok()
        },
    );
    out.peak_rss_mb = fixture::peak_rss_mb();
    out.attempted += out.open.sent;
    out.failed += out.open.failed;

    // Incremental maintenance must end where a session that starts from
    // scratch on the final snapshot ends.
    let mut kept = all_rules(&session, &relations);
    let fresh = all_rules(&AlignmentSession::new(&source, &target, config), &relations);
    if cfg.wrong_expectation {
        kept[0] = Err("deliberately wrong expectation".to_owned());
    }
    out.attempted += relations.len() as u64;
    out.failed += kept.iter().zip(&fresh).filter(|(a, b)| a != b).count() as u64;

    let cycles = (out.op_us.len() as u64 + out.open.sent).max(1) as f64;
    out.notes.push(format!(
        "{} cycles back to back, then {} at {rate} per second; {:.2} relations re-mined and \
         {:.1} triples expired per cycle; {} live in the window at the end",
        out.op_us.len(),
        out.open.sent,
        remined as f64 / cycles,
        expired as f64 / cycles,
        live_before,
    ));
    if tracer.is_some() {
        out.layer
            .insert("core.relations_remined_per_cycle", remined as f64 / cycles);
        out.layer
            .insert("stream.expired_per_cycle", expired as f64 / cycles);
        probes::server_metrics(&mut out.layer, &fx.server.metrics());
        let addr = fx.server.addr();
        let published = fx.reader.current();
        probes::standalone(
            &mut out.layer,
            published.snapshot().store(),
            &fx.hot,
            &fx.reader,
            addr,
        );
    }
    out
}
