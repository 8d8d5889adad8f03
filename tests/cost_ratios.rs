//! Nine costs held as ratios, not times: each test measures two things
//! in one process, sampling them in turn so drift of the host lands on
//! both, and asserts how far apart they may lie, so it means the same on
//! any machine and needs no committed baseline.
//!
//! * polling a far-future deadline costs an alignment at most 5%;
//! * `Json::parse` is linear: a byte of a 400-row page costs at most
//!   twice a byte of an `ask` envelope;
//! * so is the client's one-pass decoder, `parse_envelope`;
//! * a publish pays for what was written, not for what the dictionary
//!   holds: the same 256-triple cycle on a store with four times the
//!   terms costs at most 1.5x;
//! * a publish costs its readers what it wrote: the first `stats()` after
//!   256 triples of one predicate among a thousand costs at most 0.2x a
//!   full `StoreStats::compute`, and asking 64 cached relations about a
//!   512-term delta at most 8x asking one, and at most 2x when the
//!   session's probe memo holds everything those 64 relations read;
//! * what a publish changed costs the pages it wrote: `diff_since` after
//!   a 256-triple batch of one predicate, on a store with four times the
//!   triples on the other predicates, costs at most 1.5x;
//! * `SELECT DISTINCT ?p … ORDER BY ?p` over a whole KB costs at most
//!   1.5x the same query unordered: only the distinct rows are sorted;
//! * a query text new to a full 4096-entry plan cache costs at most 1.5x
//!   one new to a full 64-entry cache: an insert does not scan;
//! * a server compiles and runs one 16-row `VALUES` table of a probe
//!   template for at most 0.85x (`has_fact`) and 0.6x (`objects_of`)
//!   the sixteen per-row texts it stands for.
//!
//! Timing-sensitive, so the assertions only run in release builds
//! (`cargo test --release --test cost_ratios`). Absolute times are the
//! business of `benchmark/`.

use sofya::align::{Aligner, AlignerConfig, AlignmentSession};
use sofya::endpoint::helpers::all_relations;
use sofya::endpoint::{
    Endpoint, EndpointError, EndpointExt, LocalEndpoint, PublishDelta, Request, Response,
    SnapshotStore,
};
use sofya::kbgen::{generate, GeneratedPair, PairConfig};
use sofya::net::wire::{parse_envelope, write_envelope};
use sofya::net::{execute_wire_budgeted, Json, WireRequest};
use sofya::rdf::{Dict, StoreSnapshot, StoreStats, Term, TermId, TripleStore};
use sofya::sparql::{
    compile_with_options, execute_compiled_paged_budgeted, PlanOptions, Prepared, QueryBudget,
};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const SEED: u64 = 42;

/// The test harness runs tests on parallel threads; a ratio of two
/// timings is only meaningful if nothing else of ours is running.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

fn small_pair() -> GeneratedPair {
    generate(&PairConfig::small(SEED))
}

/// Times one call of `f`: a sampler for [`interleaved_medians`].
fn timed(mut f: impl FnMut() -> u64) -> impl FnMut() -> u64 {
    move || {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_nanos() as u64
    }
}

/// The medians of what two samplers return — the ns of whatever part
/// of itself each timed — sampled in turn (a, b, a, b, …) after
/// one warm-up each, so that drift of the host between the samples
/// lands on both sides alike and cancels out of their ratio. At least 9
/// pairs; more, up to 301, while under 3 s.
fn interleaved_medians(mut a: impl FnMut() -> u64, mut b: impl FnMut() -> u64) -> (u64, u64) {
    a();
    b();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while xs.len() < 9 || (start.elapsed() < Duration::from_secs(3) && xs.len() < 301) {
        xs.push(a());
        ys.push(b());
    }
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    (median(xs), median(ys))
}

/// Runs every request under a deadline an hour away, the budget a
/// server attaches: the evaluator's tracker is on, and nothing trips.
struct FarDeadline(LocalEndpoint);

impl Endpoint for FarDeadline {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        _: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        let budget = QueryBudget::unlimited().with_time_limit(Duration::from_secs(3600));
        self.0.execute_with_budget(req, &budget)
    }
}

/// The kill switch's price tag: a whole-relation alignment with both
/// endpoints behind a [`FarDeadline`] — every query runs fully budgeted
/// (deadline polled each 1024 scan rows) yet nothing ever trips.
#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn budget_polling_costs_an_alignment_at_most_5_percent() {
    let _alone = alone();
    let pair = small_pair();
    let config = AlignerConfig::paper_defaults(SEED);
    let relation = pair.kb1_relations[0].clone();

    let source = LocalEndpoint::new("kb2", pair.kb2.clone());
    let target = LocalEndpoint::new("kb1", pair.kb1.clone());
    let mut unbudgeted = timed(|| {
        let aligner = Aligner::new(&source, &target, config.clone());
        aligner.align_relation(&relation).unwrap().len() as u64
    });
    let budgeted_source = FarDeadline(LocalEndpoint::new("kb2", pair.kb2.clone()));
    let budgeted_target = FarDeadline(LocalEndpoint::new("kb1", pair.kb1.clone()));
    let mut budgeted = timed(|| {
        let aligner = Aligner::new(&budgeted_source, &budgeted_target, config.clone());
        aligner.align_relation(&relation).unwrap().len() as u64
    });

    // Run-to-run noise on this case is ±5% — the same order as the guard
    // itself — so compare the *best* budgeted median against the *worst*
    // unbudgeted one, both sides sampled in turn so drift lands on both:
    // random jitter cancels out of the ratio, while a systematic polling
    // cost shifts every budgeted sample and still trips.
    let (unbudgeted_before, budgeted_first) = interleaved_medians(&mut unbudgeted, &mut budgeted);
    let (unbudgeted_after, budgeted_retry) = interleaved_medians(&mut unbudgeted, &mut budgeted);
    let reference = unbudgeted_before.max(unbudgeted_after);
    let ratio = budgeted_first.min(budgeted_retry) as f64 / reference.max(1) as f64;
    assert!(
        ratio <= 1.05,
        "budgeted evaluation runs at {ratio:.3}x the unbudgeted reference ({reference} ns)"
    );
}

/// An `ask` envelope and a 400-row page, rendered once by the server's
/// writer.
fn rendered_answers() -> (String, String) {
    let local = LocalEndpoint::new("kb2", small_pair().kb2);
    let answer_text = |request: Request<'_>| {
        let wire = WireRequest::from_request(&request).expect("lowering");
        let result = execute_wire_budgeted(&local, &wire, &QueryBudget::unlimited());
        let mut text = String::new();
        write_envelope(result.as_ref(), &mut text);
        text
    };
    let ask = answer_text(Request::Ask {
        query: "ASK { ?s ?p ?o }",
    });
    let rows_400 = answer_text(Request::Select {
        query: "SELECT ?x ?y WHERE { ?x ?p ?y } LIMIT 400",
    });
    (ask, rows_400)
}

/// The median ns per byte of `decode` on the `ask` envelope and on the
/// 400-row page, sampled in turn; the envelope is decoded 256 times per
/// sample so that the timer does not dominate.
fn ns_per_byte((ask, rows_400): &(String, String), decode: impl Fn(&str) -> u64) -> (f64, f64) {
    let (small, large) = interleaved_medians(
        timed(|| (0..256).map(|_| decode(ask)).sum()),
        timed(|| decode(rows_400)),
    );
    (
        small as f64 / (256 * ask.len()) as f64,
        large as f64 / rows_400.len() as f64,
    )
}

/// The wire parser on its own: answers rendered once and parsed over
/// and over, cost per byte at both ends of the size range.
#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn json_parse_cost_per_byte_is_flat_in_the_body_size() {
    let _alone = alone();
    let answers = rendered_answers();
    let parse = |text: &str| match Json::parse(text) {
        Ok(json) => std::hint::black_box(json).get("ok").map_or(0, |_| 1),
        Err(e) => panic!("rendered envelope does not parse: {e}"),
    };
    let (small, large) = ns_per_byte(&answers, parse);
    let (ask, rows_400) = answers;
    assert!(
        large <= 2.0 * small,
        "Json::parse costs {small:.2} ns/B at {} B but {large:.2} ns/B at {} B ({:.2}x) — \
         parsing is no longer linear",
        ask.len(),
        rows_400.len(),
        large / small
    );
}

/// The client's one-pass decoder, the same way: a byte of a 400-row
/// page costs at most twice a byte of an `ask` envelope.
#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn one_pass_decode_cost_per_byte_is_flat_in_the_body_size() {
    let _alone = alone();
    let answers = rendered_answers();
    let decode = |text: &str| match parse_envelope(text) {
        Ok(result) => u64::from(std::hint::black_box(result).is_ok()),
        Err(e) => panic!("rendered envelope does not decode: {e}"),
    };
    let (small, large) = ns_per_byte(&answers, decode);
    let (ask, rows_400) = answers;
    assert!(
        large <= 2.0 * small,
        "parse_envelope costs {small:.2} ns/B at {} B but {large:.2} ns/B at {} B ({:.2}x) — \
         decoding is no longer linear",
        ask.len(),
        rows_400.len(),
        large / small
    );
}

/// Removes one triple by its terms, if the store holds it.
fn remove_terms(store: &mut TripleStore, (s, p, o): &(Term, Term, Term)) {
    let dict = store.dict();
    if let (Some(s), Some(p), Some(o)) = (dict.lookup(s), dict.lookup(p), dict.lookup(o)) {
        store.remove(s, p, o);
    }
}

/// The write cycle of a durable ingest sink, on the store alone: load a
/// 256-triple batch of terms, remove the previous batch one triple at a
/// time, take a snapshot, drop the one it replaces. Two batches take
/// turns, so the store is the same size on every cycle.
struct PublishCycle {
    store: TripleStore,
    live: StoreSnapshot,
    /// `[next to load, loaded last]`
    batches: [Vec<(Term, Term, Term)>; 2],
}

impl PublishCycle {
    /// A copy of `base` with `filler_terms` more terms in its dictionary
    /// that no triple uses, one batch loaded and a snapshot live.
    fn new(base: &TripleStore, relations: &[String], filler_terms: usize) -> Self {
        let mut store = base.clone();
        for i in 0..filler_terms {
            store.intern(&Term::iri(format!("perf:filler{i}")));
        }
        let predicates: Vec<TermId> = relations
            .iter()
            .filter_map(|r| store.dict().lookup_iri(r))
            .collect();
        let mut entities: Vec<TermId> = store.iter().map(|t| t.s).collect();
        entities.dedup();
        // 512 triples the store does not hold, over terms it knows.
        let fresh: Vec<(Term, Term, Term)> = (0usize..)
            .map(|i| {
                (
                    entities[(i * 31) % entities.len()],
                    predicates[i % predicates.len()],
                    entities[(i * 17 + 5) % entities.len()],
                )
            })
            .filter(|&(s, p, o)| !store.contains(s, p, o))
            .take(512)
            .map(|(s, p, o)| {
                let dict = store.dict();
                (
                    dict.resolve(s).clone(),
                    dict.resolve(p).clone(),
                    dict.resolve(o).clone(),
                )
            })
            .collect();
        let (first, second) = fresh.split_at(256);
        store.load_batch_terms(second.iter().map(|(s, p, o)| (s, p, o)));
        let live = store.snapshot();
        Self {
            store,
            live,
            batches: [first.to_vec(), second.to_vec()],
        }
    }

    fn run(&mut self) -> u64 {
        let [load, retire] = &self.batches;
        self.store
            .load_batch_terms(load.iter().map(|(s, p, o)| (s, p, o)));
        retire.iter().for_each(|t| remove_terms(&mut self.store, t));
        // The previous snapshot is live until the new one replaces it.
        self.live = self.store.snapshot();
        self.batches.swap(0, 1);
        self.live.len() as u64
    }
}

#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn publish_cycle_does_not_pay_for_the_dictionary() {
    let _alone = alone();
    let pair = small_pair();
    let mut cycle = PublishCycle::new(&pair.kb2, &pair.kb2_relations, 0);
    let mut inflated = PublishCycle::new(&pair.kb2, &pair.kb2_relations, 3 * pair.kb2.dict().len());
    let (plain_ns, inflated_ns) =
        interleaved_medians(timed(|| cycle.run()), timed(|| inflated.run()));
    let ratio = inflated_ns as f64 / plain_ns.max(1) as f64;
    assert!(
        ratio <= 1.5,
        "the cycle costs {inflated_ns} ns on a store with four times the dictionary terms, none \
         of them used, against {plain_ns} ns ({ratio:.2}x) — a publish pays for the dictionary"
    );
}

/// The store's size and a sampler of the ns of `diff_since` between the
/// snapshots before and after a 256-triple batch of one predicate, which
/// holds 1,000 triples before it, on a store with `untouched` more
/// triples over 50 other predicates. The samples load the batch and
/// remove it again in turn.
fn commit_diff(untouched: usize) -> (usize, impl FnMut() -> u64) {
    let mut store = TripleStore::new();
    let entities: Vec<TermId> = (0..2000)
        .map(|i| store.intern(&Term::iri(format!("perf:e{i}"))))
        .collect();
    let others: Vec<TermId> = (0..50)
        .map(|i| store.intern(&Term::iri(format!("perf:p{i}"))))
        .collect();
    let touched = store.intern(&Term::iri("perf:touched"));
    let e = |i: usize| entities[i % entities.len()];
    store.load_batch((0..untouched).map(|i| (e(i), others[i % 50], e(i / 2000))));
    store.load_batch((0..1000).map(|i| (e(i), touched, e(i + 1))));
    let batch: Vec<_> = (1000..1256)
        .map(|i| (e(i), touched, e(i * 13 + 7)))
        .collect();
    let size = store.len();
    let mut before = store.snapshot();
    let mut loaded = false;
    let sample = move || {
        if loaded {
            batch
                .iter()
                .for_each(|&(s, p, o)| assert!(store.remove(s, p, o)));
        } else {
            assert_eq!(store.load_batch(batch.iter().copied()), batch.len());
        }
        loaded = !loaded;
        let after = store.snapshot();
        // Several diffs per sample, so the cache misses the write left
        // behind (more, on the larger store) do not dominate.
        let t0 = Instant::now();
        let changed: usize = (0..8)
            .map(|_| {
                let (added, removed) = after.diff_since(&before);
                added.len() + removed.len()
            })
            .sum();
        let ns = t0.elapsed().as_nanos() as u64 / 8;
        assert_eq!(changed, 8 * batch.len());
        before = after;
        ns
    };
    (size, sample)
}

#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn a_commits_diff_costs_the_pages_it_touched() {
    let _alone = alone();
    let (small, small_diff) = commit_diff(25_000);
    let (large, large_diff) = commit_diff(100_000);
    let (small_ns, large_ns) = interleaved_medians(small_diff, large_diff);
    assert!(large - 1000 >= 4 * (small - 1000));
    let ratio = large_ns as f64 / small_ns.max(1) as f64;
    assert!(
        ratio <= 1.5,
        "diffing a one-predicate batch costs {large_ns} ns on {large} triples against \
         {small_ns} ns on {small} ({ratio:.2}x) — the diff walks the store, not the pages"
    );
}

/// What a publish costs those who read after it, on the paper-scale pair
/// (92 relations against 1313): the first query's planner statistics,
/// and the subscriber's question "which cached relations did this dirty".
#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn a_publish_costs_its_readers_what_it_wrote() {
    let _alone = alone();
    let pair = generate(&PairConfig::yago_dbpedia(SEED));
    assert!(pair.kb2.predicates().len() >= 100);

    // One batch of 256 triples of one predicate, loaded by one publish
    // and removed by the next; the outgoing state's statistics are warm.
    let relation = Term::iri(&pair.kb2_relations[0]);
    let batch: Vec<(Term, Term, Term)> = (0..256)
        .map(|i| {
            let (s, o) = (format!("perf:s{}", i % 97), format!("perf:o{i}"));
            (Term::iri(s), relation.clone(), Term::iri(o))
        })
        .collect();
    let mut writer = SnapshotStore::new(pair.kb2.clone());
    let base = writer.current();
    let full = timed(|| StoreStats::compute(base.snapshot().store()).total_triples() as u64);
    let mut loaded = false;
    let inherited = || {
        writer.current().stats();
        let store = writer.store_mut();
        if loaded {
            batch.iter().for_each(|t| remove_terms(store, t));
        } else {
            store.load_batch_terms(batch.iter().map(|(s, p, o)| (s, p, o)));
        }
        loaded = !loaded;
        assert_eq!(writer.publish().predicates.len(), 1);
        let published = writer.current();
        let t0 = Instant::now();
        std::hint::black_box(published.stats());
        t0.elapsed().as_nanos() as u64
    };
    let (inherited_ns, full_ns) = interleaved_medians(inherited, full);
    let ratio = inherited_ns as f64 / full_ns.max(1) as f64;
    assert!(
        ratio <= 0.2,
        "the first stats() after a one-predicate publish costs {inherited_ns} ns against \
         {full_ns} ns for StoreStats::compute ({ratio:.3}x) — a reader pays for the store"
    );

    // A delta of 512 terms no footprint holds: every cached relation is
    // asked, none is marked, so each call does the same work. Its ids
    // are those of a dictionary that holds its terms.
    let mut dict = Dict::new();
    let delta = PublishDelta {
        prev_epoch: 1,
        epoch: 2,
        predicates: vec![dict.intern(&Term::iri("perf:unread"))],
        terms: (0..512)
            .map(|i| {
                dict.intern(&Term::iri(format!(
                    "http://perf.example/resource/entity{i}"
                )))
            })
            .collect(),
        links: Default::default(),
    };
    let warm = PublishDelta {
        prev_epoch: 0,
        epoch: 1,
        predicates: vec![dict.intern(&Term::iri("perf:warm"))],
        terms: Vec::new(),
        links: Default::default(),
    };
    let dict = &dict;
    let source = LocalEndpoint::new("kb2", pair.kb2.clone());
    let target = LocalEndpoint::new("kb1", pair.kb1.clone());
    // A session that has aligned `cached` relations, after `first` if
    // it is told of one.
    let session = |cached: usize, first: Option<&PublishDelta>| {
        let session = AlignmentSession::new(&source, &target, AlignerConfig::paper_defaults(SEED));
        if let Some(first) = first {
            session.apply_target_delta(first, dict);
        }
        for relation in &pair.kb1_relations[..cached] {
            session.rules_for(relation).unwrap();
        }
        session
    };
    // Many calls per sample, so the timer does not dominate.
    fn asking<'s>(
        session: &'s AlignmentSession<'_>,
        delta: &'s PublishDelta,
        dict: &'s Dict,
    ) -> impl FnMut() -> u64 + 's {
        timed(move || {
            (0..16)
                .map(|_| session.apply_target_delta(delta, dict) as u64)
                .sum()
        })
    }
    let (one, many) = (session(1, None), session(64, None));
    let (one_ns, many_ns) =
        interleaved_medians(asking(&one, &delta, dict), asking(&many, &delta, dict));
    let ratio = many_ns as f64 / one_ns.max(1) as f64;
    assert!(
        ratio <= 8.0,
        "asking 64 cached relations about a 512-term delta costs {many_ns} ns against \
         {one_ns} ns for one ({ratio:.1}x) — the delta is hashed per relation"
    );

    // The same, asked of a live session: a first delta turns its probe
    // memo on, so the mines fill it with everything they read, and the
    // 512-term delta looks its answers up through the memo's index.
    // Hashing the delta is most of either side, so the bound is tight:
    // ≈1.05x here, where a scan of every answer the memo holds read 4–5x.
    let (one, many) = (session(1, Some(&warm)), session(64, Some(&warm)));
    let (one_ns, many_ns) =
        interleaved_medians(asking(&one, &delta, dict), asking(&many, &delta, dict));
    let ratio = many_ns as f64 / one_ns.max(1) as f64;
    assert!(
        ratio <= 2.0,
        "asking a memo of 64 relations' reads about a 512-term delta costs {many_ns} ns \
         against {one_ns} ns for one relation's ({ratio:.2}x) — invalidation scans the memo"
    );
}

/// `all_relations`, the aligner's first query, on the paper-scale KB:
/// DISTINCT merges the triples into a few hundred predicates before
/// ORDER BY sorts them, so the sort is lost in the scan.
#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn ordering_distinct_rows_sorts_only_the_distinct_rows() {
    let _alone = alone();
    let kb = generate(&PairConfig::yago_dbpedia(SEED)).kb2;
    let triples = kb.len();
    let local = LocalEndpoint::new("kb2", kb);
    let (unordered_ns, ordered_ns) = interleaved_medians(
        timed(|| {
            let rs = local.select("SELECT DISTINCT ?p WHERE { ?s ?p ?o }");
            rs.unwrap().len() as u64
        }),
        timed(|| all_relations(&local).unwrap().len() as u64),
    );
    let ratio = ordered_ns as f64 / unordered_ns.max(1) as f64;
    assert!(
        ratio <= 1.5,
        "all_relations over {triples} triples costs {ordered_ns} ns against {unordered_ns} ns \
         without ORDER BY ({ratio:.2}x) — every solution is sorted, not every distinct row"
    );
}

/// A query text the plan cache has not seen costs the same whatever the
/// cache holds: into a full 4096-entry cache at most 1.5x into a full
/// 64-entry one. On top of the compile, an insert pays one hash and at
/// most two turns of its shard's clock hand, not a scan of the shard.
#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn a_plan_cache_insert_does_not_scan_the_cache() {
    let _alone = alone();
    let full_cache = |capacity: usize| {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:b"));
        let local = LocalEndpoint::new("kb", store);
        local.set_plan_cache_capacity(capacity);
        (0..2 * capacity).for_each(|i| {
            local
                .ask(&format!("ASK {{ <e:fill{i}> <r:p> ?o }}"))
                .unwrap();
        });
        assert!(local.plan_cache_len() >= capacity);
        local
    };
    let (small, large) = (full_cache(64), full_cache(4096));
    // 64 new texts a sample, so the timer does not dominate.
    let samples = std::cell::Cell::new(0u64);
    let asking = |local: &LocalEndpoint| {
        let sample = samples.replace(samples.get() + 1);
        let texts: Vec<String> = (0..64)
            .map(|i| format!("ASK {{ <e:new{sample}_{i}> <r:p> ?o }}"))
            .collect();
        let t0 = Instant::now();
        for text in &texts {
            std::hint::black_box(local.ask(text).unwrap());
        }
        t0.elapsed().as_nanos() as u64
    };
    let (small_ns, large_ns) = interleaved_medians(|| asking(&small), || asking(&large));
    let ratio = large_ns as f64 / small_ns.max(1) as f64;
    assert!(
        ratio <= 1.5,
        "64 new texts cost {large_ns} ns against a full 4096-entry plan cache and {small_ns} ns \
         against a full 64-entry one ({ratio:.2}x) — an insert scans the cache"
    );
}

/// What a table saves the server, per probe shape: parsing, planning
/// and running one 16-row table of a probe template, against the same
/// for the sixteen per-row texts it stands for, on the paper-scale KB
/// (half the `has_fact` rows hold). Both sides are compiled per text,
/// as a plan cache does a text it has not seen; a row's text is seldom
/// seen twice.
#[cfg_attr(debug_assertions, ignore = "timing ratio: run with --release")]
#[test]
fn a_sixteen_row_table_costs_the_server_less_than_its_rows() {
    let _alone = alone();
    let kb = generate(&PairConfig::yago_dbpedia(SEED)).kb1;
    let stats = StoreStats::compute(&kb);
    let opts = PlanOptions {
        stats: Some(&stats),
        ..PlanOptions::default()
    };
    let run = |text: &str| {
        let compiled = compile_with_options(&kb, text, opts).unwrap();
        let budget = QueryBudget::unlimited();
        let outcome = execute_compiled_paged_budgeted(&kb, &compiled, None, None, &budget);
        u64::from(outcome.is_ok())
    };
    // Sixteen facts of the relation with the most subjects.
    let facts: Vec<(Term, Term, Term)> = kb
        .iter()
        .map(|t| {
            let (s, p, o) = kb.resolve(t);
            (s.clone(), p.clone(), o.clone())
        })
        .collect();
    let relation = {
        let mut subjects = std::collections::BTreeMap::<&Term, Vec<&Term>>::new();
        for (s, p, _) in &facts {
            subjects.entry(p).or_default().push(s);
        }
        let busiest = subjects.into_iter().max_by_key(|(_, s)| s.len()).unwrap();
        busiest.0.clone()
    };
    let of_relation: Vec<&(Term, Term, Term)> =
        facts.iter().filter(|(_, p, _)| *p == relation).collect();
    let stride = of_relation.len() / 16;
    let sixteen: Vec<&(Term, Term, Term)> = (0..16).map(|i| of_relation[i * stride]).collect();
    let has_fact_rows: Vec<Vec<Term>> = sixteen
        .iter()
        .enumerate()
        .map(|(i, (s, p, o))| {
            // Every other row asks a fact that does not hold.
            let o = if i % 2 == 0 {
                o
            } else {
                &sixteen[(i + 1) % 16].2
            };
            vec![s.clone(), p.clone(), o.clone()]
        })
        .collect();
    let objects_of_rows: Vec<Vec<Term>> = sixteen
        .iter()
        .map(|(s, p, _)| vec![s.clone(), p.clone()])
        .collect();
    for (name, template, rows, bound) in [
        (
            "has_fact",
            Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap(),
            has_fact_rows,
            0.85,
        ),
        (
            "objects_of",
            Prepared::new("SELECT ?y WHERE { ?s ?r ?y } ORDER BY ?y", &["s", "r"]).unwrap(),
            objects_of_rows,
            0.6,
        ),
    ] {
        let per_row: Vec<String> = rows.iter().map(|r| template.render(r).unwrap()).collect();
        let refs: Vec<&[Term]> = rows.iter().map(Vec::as_slice).collect();
        let table = template.table(&refs).unwrap().render().unwrap();
        let (table_ns, rows_ns) = interleaved_medians(
            timed(|| run(&table)),
            timed(|| per_row.iter().map(|text| run(text)).sum()),
        );
        let ratio = table_ns as f64 / rows_ns.max(1) as f64;
        assert!(
            ratio <= bound,
            "a 16-row {name} table costs the server {table_ns} ns against {rows_ns} ns for its \
             rows' texts ({ratio:.2}x, bound {bound}x)"
        );
    }
}
