//! The paper's motivation, end to end: *uniformly querying* two KBs that
//! share no schema, by aligning relations during query execution and
//! rewriting the query.
//!
//! A user asks a question against the YAGO-like KB. SOFYA aligns the
//! query's relations on the fly (paying a few endpoint queries, cached
//! for the whole session), rewrites the query for the DBpedia-like KB,
//! and the union of both answer sets beats either KB alone — without
//! downloading anything.
//!
//! ```text
//! cargo run --release --example federated_query
//! ```

use std::collections::BTreeSet;
use std::time::Duration;

use sofya::align::{AlignerConfig, AlignmentSession, QueryRewriter};
use sofya::endpoint::{Endpoint, EndpointExt, InstrumentedEndpoint, LatencyModel, LocalEndpoint};
use sofya::kbgen::{generate, PairConfig};

fn main() {
    let pair = generate(&PairConfig::small(42));

    // Both KBs count what they are sent; the WAN model prices the
    // counts (20 ms per request, a whole batch being one request).
    let yago = InstrumentedEndpoint::new(LocalEndpoint::new(pair.kb1_name(), pair.kb1.clone()));
    let dbp = InstrumentedEndpoint::new(LocalEndpoint::new(pair.kb2_name(), pair.kb2.clone()));
    let wan = LatencyModel::wan();
    let sent = || {
        let (dbp, yago) = (dbp.counters(), yago.counters());
        (
            dbp.requests() + yago.requests(),
            dbp.total_queries() + yago.total_queries(),
            wan.cost(&dbp) + wan.cost(&yago),
        )
    };

    // Pick an equivalent-pair relation as the user's query target.
    let relation = pair
        .kb1_relations
        .iter()
        .find(|r| r.contains("has"))
        .expect("equivalent relation planted")
        .clone();
    let user_query = format!("SELECT ?x ?y WHERE {{ ?x <{relation}> ?y }}");
    println!("user query against {}:\n  {user_query}\n", pair.kb1_name());

    // 1. Answer on the target KB directly.
    let local_answers = yago.select(&user_query).expect("query failed");
    println!(
        "{} answers from {} alone",
        local_answers.len(),
        pair.kb1_name()
    );

    // 2. Align on the fly and rewrite for the other KB.
    let session = AlignmentSession::new(&dbp, &yago, AlignerConfig::paper_defaults(42));
    let rewriter = QueryRewriter::new(&session, &yago);
    let (requests_before, queries_before, clock_before) = sent();
    let rewrite = rewriter.rewrite(&user_query).expect("rewrite failed");
    let (requests, queries, clock) = sent();
    let align_cost = clock - clock_before;
    println!(
        "\nrewritten for {} (aligning the relation cost ≈ {:?} of simulated WAN time: \
         {} queries in {} round trips):",
        pair.kb2_name(),
        round(align_cost),
        queries - queries_before,
        requests - requests_before,
    );
    println!("  {}", rewrite.query);
    for (from, to) in &rewrite.mapped {
        println!("  mapped {from} → {to}");
    }

    // 3. Answers from the other KB, translated back through sameAs.
    let remote_answers = dbp.select(&rewrite.query).expect("rewritten query failed");
    println!(
        "\n{} answers from {}",
        remote_answers.len(),
        pair.kb2_name()
    );

    // 4. Federate: union over sameAs-canonical identifiers.
    let canon = |iri: &str, ep: &dyn Endpoint| -> String {
        sofya::endpoint::helpers::same_as_of(ep, iri, pair.same_as())
            .ok()
            .and_then(|v| v.into_iter().next())
            .unwrap_or_else(|| iri.to_owned())
    };
    let mut federated: BTreeSet<(String, String)> = BTreeSet::new();
    for row in local_answers.rows() {
        if let (Some(x), Some(y)) = (&row[0], &row[1]) {
            federated.insert((x.to_string(), y.to_string()));
        }
    }
    let before = federated.len();
    for row in remote_answers.rows() {
        if let (Some(x), Some(y)) = (row[0].as_ref(), row[1].as_ref()) {
            let (Some(x), Some(y)) = (x.as_iri(), y.as_iri()) else {
                continue;
            };
            federated.insert((
                format!("<{}>", canon(x, &dbp)),
                format!("<{}>", canon(y, &dbp)),
            ));
        }
    }
    println!(
        "\nfederated answer set: {} pairs ({} new beyond {} — facts {} knows but {} lost to incompleteness)",
        federated.len(),
        federated.len() - before,
        pair.kb1_name(),
        pair.kb2_name(),
        pair.kb1_name(),
    );

    // A second query over the same relation reuses the session cache.
    let (_, _, clock) = sent();
    let _ = rewriter
        .rewrite(&format!("SELECT ?x WHERE {{ ?x <{relation}> ?y }}"))
        .expect("rewrite failed");
    let second_cost = sent().2 - clock;
    println!(
        "second query over the same relation: alignment cost {:?} (cached)",
        round(second_cost)
    );
}

fn round(d: Duration) -> Duration {
    Duration::from_millis(d.as_millis() as u64)
}
