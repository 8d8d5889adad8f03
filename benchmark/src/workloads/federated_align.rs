//! The paper's workload: align every relation of the 92-relation KB
//! against the 1313-relation KB, each KB behind its own HTTP server,
//! from a cold session — thousands of small prepared and batched probes.

use super::Outcome;
use crate::fixture::{self, HotBatch, RunConfig};
use crate::replay::{self, Recorder, ServerSide};
use crate::trace::{Tracer, ROOT};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sofya_core::{AlignerConfig, AlignmentSession, SubsumptionRule};
use sofya_endpoint::{ConcurrentEndpoint, InstrumentedEndpoint, LocalEndpoint, SnapshotStore};
use sofya_eval::evaluate_rules;
use sofya_kbgen::GeneratedPair;
use sofya_net::HttpServer;
use std::sync::Arc;
use std::time::Instant;

/// One relation in this many is replayed in a traced run.
const TRACE_ONE_IN: u32 = 8;
/// Relations aligned before timing starts.
const WARM_UP_RELATIONS: usize = 8;

struct Fixture {
    pair: GeneratedPair,
    /// kb1 is the target `K`, kb2 the source `K'`.
    kb1: Served,
    kb2: Served,
    hot: HotBatch,
    relations: Vec<String>,
}

struct Served {
    reader: ConcurrentEndpoint,
    server: HttpServer,
    // Keeps the published snapshots alive.
    _writer: SnapshotStore,
}

fn serve(name: &str, store: &sofya_rdf::TripleStore) -> Served {
    let writer = SnapshotStore::new(store.clone());
    let reader = writer.reader(name);
    let server = fixture::serve(reader.clone(), None);
    Served {
        reader,
        server,
        _writer: writer,
    }
}

fn setup(cfg: &RunConfig) -> Fixture {
    let pair = fixture::paper_pair(cfg);
    let kb1 = serve("kb1", &pair.kb1);
    let kb2 = serve("kb2", &pair.kb2);
    let hot = HotBatch::over(&pair.kb2, &pair.kb2_relations);
    let mut relations = pair.kb1_relations.clone();
    relations.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
    let fx = Fixture {
        pair,
        kb1,
        kb2,
        hot,
        relations,
    };
    // Warm-up: a few relations, enough to dial both servers and run every
    // probe shape once. A whole session would buy nothing more — its five
    // thousand queries cycle through the 512-entry plan caches ten times —
    // and at the better part of a second it made `setup_s` a measurement of
    // where the scheduler happened to place the threads, not of set-up.
    let source = fixture::remote("kb2", fx.kb2.server.addr(), "aligner");
    let target = fixture::remote("kb1", fx.kb1.server.addr(), "aligner");
    let session = AlignmentSession::new(&source, &target, fixture::aligner_config());
    for relation in fx.relations.iter().take(WARM_UP_RELATIONS) {
        session.rules_for(relation).expect("warm-up alignment");
    }
    fx
}

/// What one session found, relation by relation in `Fixture::relations`
/// order; `None` where `rules_for` failed.
type SessionRules = Vec<Option<Vec<SubsumptionRule>>>;

pub fn run(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let (fx, setups) = fixture::timed_setups(|| setup(cfg));
    let config = fixture::aligner_config();
    let window = cfg.window();
    let mut out = Outcome {
        setup_s: setups.secs,
        setup_began: setups.began,
        // A block is one whole session: the same relations every time.
        op_block: fx.relations.len(),
        open_block: fixture::SIDE_READER_HZ as usize,
        ..Outcome::default()
    };
    let mut sessions: Vec<SessionRules> = Vec::new();
    let (mut leaf_queries, mut round_trips, mut rows) = (0u64, 0u64, 0u64);
    let mut sample = StdRng::seed_from_u64(cfg.seed ^ 0x7ace);
    let server_sides = tracer.map(|_| {
        (
            ServerSide::over(&fx.pair.kb2),
            ServerSide::over(&fx.pair.kb1),
        )
    });
    let mut replay_s = 0.0;
    let mut moved = replay::Moved::default();

    let open = std::thread::scope(|scope| {
        let reader = scope.spawn(|| fixture::side_reader(fx.kb2.server.addr(), &fx.hot, window));
        let start = Instant::now();
        out.closed_origin = Some(start);
        while start.elapsed() < window {
            // A session is cold in every sense a client controls: new
            // connections, empty rule cache.
            let source = Recorder::new(InstrumentedEndpoint::new(fixture::remote(
                "kb2",
                fx.kb2.server.addr(),
                "aligner",
            )));
            let target = Recorder::new(InstrumentedEndpoint::new(fixture::remote(
                "kb1",
                fx.kb1.server.addr(),
                "aligner",
            )));
            let session = AlignmentSession::new(&source, &target, config.clone());
            let mut found = SessionRules::new();
            for relation in &fx.relations {
                let op = out.op_us.len() as u32;
                let began = tracer.map(|t| t.now_ns());
                let t0 = Instant::now();
                let rules = session.rules_for(relation);
                let took = t0.elapsed();
                out.op_us.push(match rules {
                    Ok(_) => took.as_secs_f64() * 1e6,
                    Err(_) => window.as_secs_f64() * 1e6,
                });
                found.push(rules.ok());
                out.op_done_s.push(start.elapsed().as_secs_f64() - replay_s);
                if let (Some(t), Some(sides)) = (tracer, &server_sides) {
                    if sample.gen_range(0..TRACE_ONE_IN) == 0 {
                        let replay_start = Instant::now();
                        let began = began.expect("set when tracing");
                        let e2e = t.record("e2e", ROOT, op, began, began + took.as_nanos() as u64);
                        match replay_relation(t, e2e, op, &fx, &config, relation, sides) {
                            Ok(m) => moved += m,
                            Err(e) => out.notes.push(format!("replay of {relation}: {e}")),
                        }
                        replay_s += replay_start.elapsed().as_secs_f64();
                    }
                }
            }
            for side in [&source, &target] {
                let counters = side.inner().counters();
                leaf_queries += counters.total_queries();
                rows += counters.rows_returned();
                round_trips += side.round_trips();
            }
            sessions.push(found);
        }
        out.timed_s = cfg.seconds;
        reader.join().expect("side reader does not panic")
    });
    out.open = open;
    out.peak_rss_mb = fixture::peak_rss_mb();

    // Every session must find exactly what the same session finds with
    // both KBs in process.
    let mut reference = local_rules(&fx, &config);
    if cfg.wrong_expectation {
        reference[0]
            .get_or_insert_with(Vec::new)
            .push(SubsumptionRule {
                premise: "bench:no-such-premise".to_owned(),
                conclusion: fx.relations[0].clone(),
                confidence: 1.0,
                support: 1,
                sample_pairs: 1,
                measure: config.measure,
                literal: false,
            });
    }
    let wrong: usize = sessions
        .iter()
        .map(|found| found.iter().zip(&reference).filter(|(a, b)| a != b).count())
        .sum();
    out.attempted = out.op_us.len() as u64 + out.open.sent;
    out.failed = wrong as u64 + out.open.failed;

    let relations_aligned = out.op_us.len() as f64;
    let all_rules: Vec<SubsumptionRule> = sessions
        .first()
        .into_iter()
        .flatten()
        .flatten()
        .flatten()
        .cloned()
        .collect();
    let quality = evaluate_rules(
        &all_rules,
        &fx.pair.gold,
        fx.pair.kb2_name(),
        fx.pair.kb1_name(),
    );
    out.notes.push(format!(
        "kb1 {} triples, kb2 {} triples; {} sessions of {} relations; {} leaf queries in {} \
         round trips; {quality}",
        fx.pair.kb1.len(),
        fx.pair.kb2.len(),
        sessions.len(),
        fx.relations.len(),
        leaf_queries,
        round_trips,
    ));
    if tracer.is_some() {
        let layer = &mut out.layer;
        layer.insert(
            "core.queries_per_relation",
            leaf_queries as f64 / relations_aligned,
        );
        layer.insert(
            "core.round_trips_per_relation",
            round_trips as f64 / relations_aligned,
        );
        layer.insert("core.rows_per_relation", rows as f64 / relations_aligned);
        layer.insert("core.f1", quality.f1());
        if moved.rows > 0 {
            layer.insert(
                "net.response_bytes_per_row",
                moved.response_bytes as f64 / moved.rows as f64,
            );
        }
        for (name, report) in [
            ("kb2", fx.kb2.server.metrics()),
            ("kb1", fx.kb1.server.metrics()),
        ] {
            out.notes.push(format!(
                "{name} server: {} jobs, job p50 {} us, queue wait p99 {} us, {} rejected",
                report.completed,
                report.latency_p50_ns / 1000,
                report.queue_wait_p99_ns / 1000,
                report.rejected_full + report.rejected_quota,
            ));
        }
        // Deliverable of the first traced run: where a remote probe's
        // time goes — the sixteen-probe batch `perf_report` pins as
        // `net/remote_probe_small`, over this KB.
        if let (Some(t), Some((kb2_side, _))) = (tracer, &server_sides) {
            let remote = fixture::remote("kb2", fx.kb2.server.addr(), "budget");
            out.notes.extend(replay::budget(
                t,
                "probe16",
                200,
                &remote,
                || fx.hot.request(),
                kb2_side,
            ));
        }
        // The source KB's server takes most of the round trips.
        crate::probes::server_metrics(layer, &fx.kb2.server.metrics());
        crate::probes::standalone(
            layer,
            &fx.pair.kb2,
            &fx.hot,
            &fx.kb2.reader,
            fx.kb2.server.addr(),
        );
    }
    out
}

fn local_rules(fx: &Fixture, config: &AlignerConfig) -> SessionRules {
    let source = LocalEndpoint::new("kb2", fx.pair.kb2.clone());
    let target = LocalEndpoint::new("kb1", fx.pair.kb1.clone());
    let session = AlignmentSession::new(&source, &target, config.clone());
    fx.relations
        .iter()
        .map(|relation| session.rules_for(relation).ok())
        .collect()
}

/// Replays one `rules_for` under its `e2e` span: the same relation is
/// aligned once more with both KBs in process — which costs the aligner
/// itself and logs the requests it sends — and every logged request is
/// then taken through the wire stages against the server it went to.
fn replay_relation(
    t: &Tracer,
    e2e: u32,
    op: u32,
    fx: &Fixture,
    config: &AlignerConfig,
    relation: &str,
    (kb2_side, kb1_side): &(ServerSide, ServerSide),
) -> Result<replay::Moved, String> {
    let source = Recorder::new(LocalEndpoint::new("kb2", fx.pair.kb2.clone()));
    let target = Recorder::new(LocalEndpoint::new("kb1", fx.pair.kb1.clone()));
    source.arm();
    target.arm();
    let session = AlignmentSession::new(&source, &target, config.clone());
    let start = Instant::now();
    session.rules_for(relation).map_err(|e| e.to_string())?;
    let total_ns = start.elapsed().as_nanos() as u64;
    let (to_kb2, to_kb1) = (source.disarm(), target.disarm());
    let logging_ns: u64 = to_kb2.iter().chain(&to_kb1).map(|l| l.encode_ns).sum();
    // In-process alignment, less the logging it paid for: the cost of
    // the aligner plus both local endpoints.
    let begin = t.now_ns();
    t.record(
        "core.align_relation",
        ROOT,
        op,
        begin,
        begin + total_ns.saturating_sub(logging_ns),
    );
    // The aligner's own share — sampling, scoring, string matching —
    // is on the wire path too, between the round trips.
    let endpoints_ns = source.inner_ns() + target.inner_ns();
    t.record(
        "core.self",
        e2e,
        op,
        begin,
        begin + total_ns.saturating_sub(logging_ns + endpoints_ns),
    );
    let mut moved = replay::Moved::default();
    for (log, side) in [(&to_kb2, kb2_side), (&to_kb1, kb1_side)] {
        for logged in log {
            moved += replay::roundtrip(t, e2e, op, logged, side)?;
        }
    }
    Ok(moved)
}
