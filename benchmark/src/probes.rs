//! Per-layer numbers that need no workload: one public function of one
//! layer, called in a loop on the workload's own knowledge base after
//! the run, median reported.

use crate::fixture::{self, HotBatch};
use crate::stats::median;
use sofya_endpoint::{ConcurrentEndpoint, Endpoint, EndpointExt};
use sofya_rdf::{TriplePattern, TripleStore};
use sofya_service::MetricsReport;
use sofya_sparql::{compile_ast_with_options, PlanOptions, Prepared};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

pub type Layer = BTreeMap<&'static str, f64>;

/// Median wall time of `work` over `rounds` calls, in microseconds.
fn median_us<T>(rounds: usize, mut work: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(work());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// What the server's own registry says about the run.
pub fn server_metrics(layer: &mut Layer, report: &MetricsReport) {
    layer.insert(
        "service.queue_wait_p99_us",
        report.queue_wait_p99_ns as f64 / 1e3,
    );
    layer.insert("service.job_p50_us", report.latency_p50_ns as f64 / 1e3);
    layer.insert(
        "service.rejected",
        (report.rejected_full + report.rejected_quota) as f64,
    );
}

/// Store, engine, endpoint, scheduler and socket probes on `store`,
/// which `reader` publishes and the server at `addr` answers from.
pub fn standalone(
    layer: &mut Layer,
    store: &TripleStore,
    hot: &HotBatch,
    reader: &ConcurrentEndpoint,
    addr: SocketAddr,
) {
    let Some((predicate, facts)) = store
        .predicates()
        .into_iter()
        .map(|p| (p, store.count(TriplePattern::with_p(p))))
        .max_by_key(|(_, n)| *n)
    else {
        return;
    };

    // rdf: a full predicate scan, and subject-prefix probes.
    let scan_us = median_us(200, || {
        store
            .scan(TriplePattern::with_p(predicate))
            .map(|t| u64::from(t.o.0))
            .sum::<u64>()
    });
    layer.insert(
        "rdf.scan_ns_per_triple",
        scan_us * 1e3 / facts.max(1) as f64,
    );
    let subjects: Vec<_> = store
        .scan(TriplePattern::with_p(predicate))
        .map(|t| t.s)
        .take(1000)
        .collect();
    let probes_us = median_us(200, || {
        subjects
            .iter()
            .map(|&s| store.scan(TriplePattern::with_sp(s, predicate)).count())
            .sum::<usize>()
    });
    layer.insert(
        "rdf.probe_sp_ns",
        probes_us * 1e3 / subjects.len().max(1) as f64,
    );

    // sparql: what an in-process endpoint pays per prepared probe —
    // bind the template, plan the bound query.
    let template =
        Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).expect("static");
    let published = reader.current();
    let args = [
        store.dict().resolve(subjects[0]).clone(),
        store.dict().resolve(predicate).clone(),
    ];
    layer.insert(
        "sparql.prepared_bind_us",
        median_us(2000, || {
            let bound = template.bind(&args).expect("arity matches");
            compile_ast_with_options(
                published.snapshot().store(),
                &bound,
                PlanOptions {
                    stats: Some(published.stats()),
                    ..PlanOptions::default()
                },
            )
        }),
    );

    // endpoint: the sixteen-probe batch, in process.
    layer.insert(
        "endpoint.batch16_us",
        median_us(2000, || reader.execute(hot.request())),
    );
    layer.insert("endpoint.plan_cache_len", reader.plan_cache_len() as f64);
    layer.insert("service.handoff_us", crate::replay::scheduler_handoff_us());

    // net: the cheapest possible round trip — an ASK that the index
    // answers without a join — on a warm connection.
    let remote = fixture::remote("floor", addr, "floor-probe");
    let ask = format!("ASK {{ {} {} ?o }}", args[0], args[1]);
    let _ = remote.ask(&ask);
    layer.insert(
        "net.roundtrip_floor_us",
        median_us(1000, || remote.ask(&ask)),
    );
}
