//! Parallel alignment of every relation in one direction, with endpoint
//! cost accounting.
//!
//! Fan-out is `parallel_map`: one job per target relation, `threads`
//! scoped threads pulling from a shared cursor, results in job order. A
//! panicking job re-raises on the caller — an offline harness has no
//! partial-result story and nowhere to shed load to.

use sofya_core::{AlignError, Aligner, AlignerConfig, SubsumptionRule};
use sofya_endpoint::{Endpoint, InstrumentedEndpoint, LocalEndpoint};
use sofya_kbgen::GeneratedPair;
use sofya_rdf::TripleStore;
use std::sync::Mutex;

/// The outcome of aligning one direction (`premises ⊂ conclusions`).
#[derive(Debug, Clone)]
pub struct DirectionOutcome {
    /// All accepted rules.
    pub rules: Vec<SubsumptionRule>,
    /// Queries issued against the source endpoint.
    pub source_queries: u64,
    /// Queries issued against the target endpoint.
    pub target_queries: u64,
    /// Requests received by both endpoints, a whole batch counting once:
    /// the round trips the run would pay were the endpoints remote.
    pub requests: u64,
    /// Rows transferred from both endpoints.
    pub rows_transferred: u64,
    /// Number of target relations aligned.
    pub relations_aligned: usize,
}

impl DirectionOutcome {
    /// Total queries across both endpoints.
    pub fn total_queries(&self) -> u64 {
        self.source_queries + self.target_queries
    }

    /// Average queries per aligned target relation.
    pub fn queries_per_relation(&self) -> f64 {
        self.per_relation(self.total_queries())
    }

    /// Average requests (round trips) per aligned target relation.
    pub fn requests_per_relation(&self) -> f64 {
        self.per_relation(self.requests)
    }

    /// Average rows transferred per aligned target relation.
    pub fn rows_per_relation(&self) -> f64 {
        self.per_relation(self.rows_transferred)
    }

    fn per_relation(&self, n: u64) -> f64 {
        if self.relations_aligned == 0 {
            0.0
        } else {
            n as f64 / self.relations_aligned as f64
        }
    }
}

/// Aligns every relation of `target` against `source` with `threads`
/// workers, wrapping both stores in instrumented local endpoints.
///
/// This is the standard experiment entry point: it owns the endpoint
/// stack so each run reports its own query costs.
pub fn align_direction(
    source_store: &TripleStore,
    target_store: &TripleStore,
    source_name: &str,
    target_name: &str,
    config: &AlignerConfig,
    threads: usize,
) -> Result<DirectionOutcome, AlignError> {
    let source = InstrumentedEndpoint::new(LocalEndpoint::new(source_name, source_store.clone()));
    let target = InstrumentedEndpoint::new(LocalEndpoint::new(target_name, target_store.clone()));
    let source_counters = source.counters();
    let target_counters = target.counters();

    let (rules, relations_aligned) = align_all_parallel(&source, &target, config, threads)?;
    Ok(DirectionOutcome {
        rules,
        source_queries: source_counters.total_queries(),
        target_queries: target_counters.total_queries(),
        requests: source_counters.requests() + target_counters.requests(),
        rows_transferred: source_counters.rows_returned() + target_counters.rows_returned(),
        relations_aligned,
    })
}

/// Aligns both directions of a generated pair with one configuration:
/// `kb2 ⊂ kb1` first (premises in KB2, the source; conclusions in KB1,
/// the target), then the reverse.
pub fn align_pair(
    pair: &GeneratedPair,
    config: &AlignerConfig,
    threads: usize,
) -> Result<(DirectionOutcome, DirectionOutcome), AlignError> {
    let (kb1, kb2) = (pair.kb1_name(), pair.kb2_name());
    let fwd = align_direction(&pair.kb2, &pair.kb1, kb2, kb1, config, threads)?;
    let bwd = align_direction(&pair.kb1, &pair.kb2, kb1, kb2, config, threads)?;
    Ok((fwd, bwd))
}

/// Runs `work` over `jobs` on `threads` scoped threads (at least one)
/// and returns the results in job order. The threads share one cursor
/// into the jobs, so a slow job holds up only its own thread. A job that
/// panics re-raises its own payload here once the other threads have
/// run out of jobs.
pub(crate) fn parallel_map<J, R, F>(threads: usize, jobs: Vec<J>, work: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let cursor = Mutex::new(jobs.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // The lock is released before the job runs, so a
                        // panicking job cannot poison it.
                        let next = cursor.lock().expect("no job runs under the lock").next();
                        match next {
                            Some((index, job)) => mine.push((index, work(job))),
                            None => break mine,
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    done.sort_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Aligns all target relations across `threads` threads and returns the
/// rules with the number of relations aligned, so a caller counting
/// endpoint costs need not list the relations a second time.
///
/// Each relation is one `parallel_map` job; the threads share a single
/// [`Aligner`] over the shared endpoints.
/// Results are deterministic regardless of thread count because
/// per-relation RNGs are seeded from the relation IRI.
pub fn align_all_parallel(
    source: &dyn Endpoint,
    target: &dyn Endpoint,
    config: &AlignerConfig,
    threads: usize,
) -> Result<(Vec<SubsumptionRule>, usize), AlignError> {
    let aligner = Aligner::new(source, target, config.clone());
    let relations = aligner.target_relations()?;
    let relations_aligned = relations.len();
    let threads = threads.min(relations_aligned);

    let results = parallel_map(threads, relations, |relation: String| {
        aligner.align_relation(&relation)
    });

    let mut rules = Vec::new();
    for r in results {
        rules.extend(r?);
    }
    // Canonical order independent of thread interleaving.
    rules.sort_by(|a, b| {
        a.conclusion
            .cmp(&b.conclusion)
            .then_with(|| a.premise.cmp(&b.premise))
    });
    Ok((rules, relations_aligned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_rules;
    use sofya_kbgen::{generate, PairConfig};

    #[test]
    fn parallel_map_keeps_job_order_at_any_width() {
        let jobs: Vec<u64> = (0..50).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map(threads, jobs.clone(), |n| n * n);
            assert_eq!(out, jobs.iter().map(|n| n * n).collect::<Vec<_>>());
        }
        assert_eq!(parallel_map(4, Vec::<u64>::new(), |n| n), Vec::<u64>::new());
    }

    #[test]
    fn parallel_map_re_raises_a_job_panic_with_its_own_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(2, (0..10).collect(), |n: u64| {
                assert!(n != 7, "job {n} dies");
                n
            })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "job 7 dies");
    }

    #[test]
    fn parallel_equals_sequential() {
        let pair = generate(&PairConfig::tiny(21));
        let config = AlignerConfig::paper_defaults(21);
        let one = align_direction(&pair.kb2, &pair.kb1, "dbp", "yago", &config, 1).unwrap();
        let four = align_direction(&pair.kb2, &pair.kb1, "dbp", "yago", &config, 4).unwrap();
        assert_eq!(one.rules, four.rules);
    }

    #[test]
    fn outcome_reports_costs() {
        let pair = generate(&PairConfig::tiny(22));
        let config = AlignerConfig::paper_defaults(22);
        let out = align_direction(&pair.kb2, &pair.kb1, "dbp", "yago", &config, 2).unwrap();
        assert!(out.total_queries() > 0);
        assert!(out.relations_aligned > 0);
        assert!(out.queries_per_relation() > 0.0);
        assert!(out.rows_transferred > 0);
    }

    /// The reported cost is what the alignment itself cost: counters
    /// around `align_all_parallel` alone read the same.
    #[test]
    fn outcome_costs_are_exactly_those_of_the_alignment() {
        let pair = generate(&PairConfig::tiny(22));
        let config = AlignerConfig::paper_defaults(22);
        let out = align_direction(&pair.kb2, &pair.kb1, "dbp", "yago", &config, 2).unwrap();

        let source = InstrumentedEndpoint::new(LocalEndpoint::new("dbp", pair.kb2.clone()));
        let target = InstrumentedEndpoint::new(LocalEndpoint::new("yago", pair.kb1.clone()));
        let (rules, relations) = align_all_parallel(&source, &target, &config, 2).unwrap();
        let (s, t) = (source.counters(), target.counters());

        assert_eq!(out.rules, rules);
        assert_eq!(out.relations_aligned, relations);
        assert_eq!(out.source_queries, s.total_queries());
        assert_eq!(out.target_queries, t.total_queries());
        assert_eq!(out.requests, s.requests() + t.requests());
        assert_eq!(out.rows_transferred, s.rows_returned() + t.rows_returned());
    }

    #[test]
    fn tiny_pair_alignment_beats_chance() {
        let pair = generate(&PairConfig::tiny(23));
        let config = AlignerConfig::paper_defaults(23);
        let out = align_direction(&pair.kb2, &pair.kb1, "dbp", "yago", &config, 2).unwrap();
        let m = evaluate_rules(&out.rules, &pair.gold, pair.kb2_name(), pair.kb1_name());
        assert!(m.true_positives > 0, "should recover some true rules: {m}");
        assert!(m.precision() >= 0.5, "UBS precision should be decent: {m}");
    }
}
