//! The incremental payoff, pinned: after a delta dirtying 1 of 32
//! cached relation alignments, re-mining just the dirty one must be at
//! least 10x faster than re-aligning all 32 from scratch.
//!
//! Timing-sensitive, so the assertion only runs in release builds; the
//! absolute numbers are the benchmark's (`core.refresh_dirty_us` on the
//! `stream_refresh` workload).

use sofya_core::{AlignerConfig, AlignmentSession};
use sofya_endpoint::{Endpoint, LocalEndpoint, SnapshotStore};
use sofya_rdf::{Term, TripleStore};
use sofya_stream::{FreshnessTracker, KbSide};
use std::time::Instant;

const SA: &str = "http://www.w3.org/2002/07/owl#sameAs";
const RELATIONS: usize = 32;

/// 32 parallel relation families, each minable from its own premise.
fn stores() -> (TripleStore, TripleStore) {
    let mut yago = TripleStore::new();
    let mut dbp = TripleStore::new();
    for k in 0..RELATIONS {
        for i in 0..12 {
            let (py, pd) = (format!("y:p{k}_{i}"), format!("d:P{k}_{i}"));
            let (cy, cd) = (format!("y:c{k}_{i}"), format!("d:C{k}_{i}"));
            yago.insert_terms(
                &Term::iri(&py),
                &Term::iri(format!("y:r{k}")),
                &Term::iri(&cy),
            );
            dbp.insert_terms(
                &Term::iri(&pd),
                &Term::iri(format!("d:q{k}")),
                &Term::iri(&cd),
            );
            yago.insert_terms(&Term::iri(&py), &Term::iri(SA), &Term::iri(&pd));
            yago.insert_terms(&Term::iri(&cy), &Term::iri(SA), &Term::iri(&cd));
            dbp.insert_terms(&Term::iri(&pd), &Term::iri(SA), &Term::iri(&py));
            dbp.insert_terms(&Term::iri(&cd), &Term::iri(SA), &Term::iri(&cy));
        }
    }
    (dbp, yago)
}

#[cfg_attr(
    debug_assertions,
    ignore = "timing-sensitive ratio; run with --release"
)]
#[test]
fn realigning_one_dirty_relation_beats_from_scratch_by_10x() {
    let (dbp, yago) = stores();
    let source = LocalEndpoint::new("dbp", dbp);
    let mut writer = SnapshotStore::new(yago);
    let target = writer.reader("yago");
    let config = AlignerConfig::paper_defaults(1);

    let session = AlignmentSession::new(&source, &target as &dyn Endpoint, config.clone());
    let mut tracker = FreshnessTracker::new(&writer, KbSide::Target);
    for k in 0..RELATIONS {
        session.rules_for(&format!("y:r{k}")).unwrap();
    }

    // One publish touches exactly one mined relation.
    writer.store_mut().insert_terms(
        &Term::iri("y:p7_0"),
        &Term::iri("y:r7"),
        &Term::iri("y:c_fresh"),
    );
    writer.publish();
    tracker.sync(&session);
    assert_eq!(session.dirty_relations(), vec!["y:r7".to_owned()]);

    let incremental_start = Instant::now();
    assert_eq!(session.refresh_dirty().unwrap(), 1);
    let incremental = incremental_start.elapsed();

    // From scratch at the same epoch: a cold session mines all 32.
    let scratch_start = Instant::now();
    let fresh = AlignmentSession::new(&source, &target as &dyn Endpoint, config);
    for k in 0..RELATIONS {
        fresh.rules_for(&format!("y:r{k}")).unwrap();
    }
    let scratch = scratch_start.elapsed();

    let ratio = scratch.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    assert!(
        ratio >= 10.0,
        "expected >= 10x speedup, got {ratio:.1}x \
         (incremental {incremental:?}, from scratch {scratch:?})"
    );
}
