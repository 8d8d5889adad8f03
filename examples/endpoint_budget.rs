//! Aligning through a real front door: a per-client query quota at the
//! server, and the cost of one relation counted at the client.
//!
//! The whole point of on-the-fly alignment is that you *cannot* download
//! the KBs. This example serves each KB from a loopback `HttpServer` —
//! the admission gate a public SPARQL service puts in front of its store
//! — and aligns through `InstrumentedEndpoint<RemoteEndpoint>`s, the
//! client stack a federated deployment runs: first without a quota, to
//! show what one relation costs in queries, round trips and rows, then
//! with five requests per client, to show what happens when the budget
//! runs out (HTTP 429, a typed `QuotaExceeded` at the client). Any other
//! outcome exits 1.
//!
//! ```text
//! cargo run --release --example endpoint_budget
//! ```

use sofya::align::{AlignError, Aligner, AlignerConfig};
use sofya::endpoint::{
    EndpointCounters, EndpointError, InstrumentedEndpoint, LatencyModel, LocalEndpoint,
};
use sofya::kbgen::{generate, PairConfig};
use sofya::net::{HttpServer, RemoteEndpoint, ServerConfig};
use sofya::rdf::TripleStore;
use sofya::service::SchedulerConfig;
use std::sync::Arc;

/// Serves `store` on an ephemeral loopback port, `quota` requests per
/// client (`None` = unlimited).
fn serve(name: &str, store: &TripleStore, quota: Option<u64>) -> HttpServer {
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            default_client_quota: quota,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let endpoint = Arc::new(LocalEndpoint::new(name, store.clone()));
    HttpServer::start(endpoint, config, "127.0.0.1:0").expect("bind loopback")
}

/// The client stack: instrumentation over the wire.
fn client(name: &str, server: &HttpServer) -> InstrumentedEndpoint<RemoteEndpoint> {
    InstrumentedEndpoint::new(RemoteEndpoint::new(name, server.addr()))
}

/// One side's cost line: leaf queries, the requests (round trips) that
/// carried them, and the rows they brought back.
fn cost_line(side: &str, counters: &EndpointCounters) -> String {
    format!(
        "{side}: {} queries in {} requests ({} batched, at most {} in one), {} rows",
        counters.total_queries(),
        counters.requests(),
        counters.batches(),
        counters.largest_request(),
        counters.rows_returned(),
    )
}

fn main() {
    let pair = generate(&PairConfig::small(42));
    let relation = pair.kb1_relations[0].clone();

    // 1. No quota: measure the true cost of one alignment.
    let (dbp, yago) = (
        serve("dbp", &pair.kb2, None),
        serve("yago", &pair.kb1, None),
    );
    let (source, target) = (client("dbp", &dbp), client("yago", &yago));
    let aligner = Aligner::new(&source, &target, AlignerConfig::paper_defaults(1));
    let rules = aligner.align_relation(&relation).expect("alignment failed");
    let (source_counters, target_counters) = (source.counters(), target.counters());
    println!("aligning <{relation}> produced {} rule(s)", rules.len());
    println!("  {}", cost_line("source", &source_counters));
    println!("  {}", cost_line("target", &target_counters));
    let wan = LatencyModel::wan();
    println!(
        "  against a 20 ms-RTT endpoint that is {:.2} s of network time",
        (wan.cost(&source_counters) + wan.cost(&target_counters)).as_secs_f64()
    );
    println!(
        "  (downloading both KBs instead would move {} triples)",
        pair.kb1.len() + pair.kb2.len()
    );
    dbp.shutdown();
    yago.shutdown();

    // 2. Five requests per client: the aligner fails loudly, not wrongly.
    let (dbp, yago) = (
        serve("dbp", &pair.kb2, Some(5)),
        serve("yago", &pair.kb1, Some(5)),
    );
    let (source, target) = (client("dbp", &dbp), client("yago", &yago));
    let aligner = Aligner::new(&source, &target, AlignerConfig::paper_defaults(1));
    match aligner.align_relation(&relation) {
        Err(AlignError::Endpoint(EndpointError::QuotaExceeded {
            endpoint,
            max_queries: 5,
            ..
        })) => {
            println!("\nwith a 5-query quota: the server cut client '{endpoint}' off after 5 requests (HTTP 429) — as a real service would");
        }
        other => {
            eprintln!("\nunexpected outcome under a 5-query quota: {other:?}");
            std::process::exit(1);
        }
    }
}
