//! The plan cache of the in-process execution core: one bounded,
//! sharded, snapshot-versioned LRU of compiled query plans.
//!
//! [`crate::ConcurrentEndpoint`] and every [`crate::LocalEndpoint`]
//! pinned from it share one [`ShardedPlanCache`]; a `LocalEndpoint` built
//! over a store of its own gets a cache of its own. The query string's
//! hash picks the shard, so worker threads compiling different queries
//! never serialise on one lock.
//!
//! Entries are stamped with the store **version** they were compiled
//! against. A plan embeds dictionary ids resolved at compile time — in
//! particular, a constant absent from the dictionary compiles to a
//! provably-empty pattern — so once the writer publishes a new snapshot a
//! stale plan could return wrong (not just slow) answers. A lookup at a
//! *newer* version than the entry therefore evicts it and reports a miss;
//! a lookup at an *older* version (a reader pinned to an outgoing
//! snapshot) misses without evicting, so it cannot thrash the current
//! generation's plans.

use sofya_rdf::dict::FnvHasher;
use sofya_rdf::Term;
use sofya_sparql::{CompiledQuery, Prepared, SparqlError};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// Default bound on a plan cache. The aligner issues a few dozen distinct
/// query strings per relation; 512 comfortably covers a whole alignment
/// session while bounding memory for adversarial query streams.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 512;

/// Cache key for a bound *paged* prepared template: the template's
/// process-unique token plus an **injective** encoding of the argument
/// terms (every field is length-prefixed, and optional fields carry a
/// presence tag, so no choice of IRI/literal content can make two
/// distinct argument lists collide). `LIMIT`/`OFFSET` are deliberately
/// **not** part of the key — the join plan of a bound shape does not
/// depend on pagination, so one compilation serves every page
/// (see [`sofya_sparql::execute_compiled_paged_budgeted`]).
///
/// The `\u{1}` prefix cannot appear in SPARQL text, so prepared keys
/// never collide with query-string keys sharing the same cache.
pub(crate) fn prepared_cache_key(prepared: &Prepared, args: &[Term]) -> String {
    fn push_field(key: &mut String, field: &str) {
        key.push_str(&field.len().to_string());
        key.push(':');
        key.push_str(field);
    }
    fn push_optional(key: &mut String, tag: char, field: &Option<String>) {
        match field {
            Some(field) => {
                key.push(tag);
                push_field(key, field);
            }
            None => key.push('-'),
        }
    }
    let mut key = format!("\u{1}prep:{}", prepared.cache_token());
    for arg in args {
        match arg {
            Term::Iri(iri) => {
                key.push('I');
                push_field(&mut key, iri);
            }
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                key.push('L');
                push_field(&mut key, lexical);
                push_optional(&mut key, 'l', lang);
                push_optional(&mut key, 'd', datatype);
            }
            Term::BNode(label) => {
                key.push('B');
                push_field(&mut key, label);
            }
        }
    }
    key
}

/// A bounded LRU map from query string to its compiled plan.
///
/// Recency is tracked with a monotone touch counter per entry; eviction
/// removes the smallest counter. The linear eviction scan is O(capacity),
/// which at the configured capacities (≤ a few hundred entries) is
/// cheaper than maintaining an intrusive list and only runs on insertion
/// into a full cache.
#[derive(Debug, Default)]
struct LruPlanCache {
    entries: HashMap<String, Entry>,
    capacity: usize,
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CompiledQuery>,
    version: u64,
    last_used: u64,
}

impl LruPlanCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Re-bounds the cache, evicting least-recently-used entries first.
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > capacity {
            self.evict_lru();
        }
    }

    /// The cached plan for `query` compiled at `version`, bumping its
    /// recency. An *older* entry is evicted and reported as a miss (its
    /// embedded dictionary ids may no longer be complete); a *newer*
    /// entry is kept but not returned, so a reader still pinned to an
    /// outgoing snapshot cannot thrash the current generation's plans
    /// during a publish.
    fn get(&mut self, query: &str, version: u64) -> Option<Arc<CompiledQuery>> {
        match self.entries.get_mut(query) {
            Some(entry) if entry.version == version => {
                self.tick += 1;
                entry.last_used = self.tick;
                Some(Arc::clone(&entry.plan))
            }
            Some(entry) if entry.version > version => None,
            Some(_) => {
                self.entries.remove(query);
                None
            }
            None => None,
        }
    }

    /// Inserts unless a newer-version entry already holds the slot (the
    /// mirror of the `get` rule: pinned old readers never overwrite the
    /// current generation).
    fn insert(&mut self, query: String, version: u64, plan: Arc<CompiledQuery>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(existing) = self.entries.get(&query) {
            if existing.version > version {
                return;
            }
        } else if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.tick += 1;
        self.entries.insert(
            query,
            Entry {
                plan,
                version,
                last_used: self.tick,
            },
        );
    }

    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(q, _)| q.clone());
        if let Some(victim) = victim {
            self.entries.remove(&victim);
        }
    }
}

/// Number of shards in a [`ShardedPlanCache`]. A power of two so the
/// hash-to-shard map is a mask; 8 keeps per-shard contention negligible
/// for the number of queries a server lets run at once (≤ dozens).
pub(crate) const PLAN_CACHE_SHARDS: usize = 8;

/// A sharded [`LruPlanCache`]: the query string's FNV hash picks the
/// shard, so concurrent workers compiling *different* queries take
/// different locks. The configured capacity is split evenly (rounded up)
/// across shards, preserving the total bound within +`PLAN_CACHE_SHARDS`.
#[derive(Debug)]
pub(crate) struct ShardedPlanCache {
    shards: Vec<parking_lot::Mutex<LruPlanCache>>,
}

impl ShardedPlanCache {
    pub(crate) fn new(total_capacity: usize) -> Self {
        let per_shard = total_capacity.div_ceil(PLAN_CACHE_SHARDS);
        Self {
            shards: (0..PLAN_CACHE_SHARDS)
                .map(|_| parking_lot::Mutex::new(LruPlanCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, query: &str) -> &parking_lot::Mutex<LruPlanCache> {
        let mut h = FnvHasher::default();
        h.write(query.as_bytes());
        // sofya: allow(panic_path) — index is modulo the shard count, always in bounds
        &self.shards[(h.finish() as usize) % PLAN_CACHE_SHARDS]
    }

    fn get(&self, query: &str, version: u64) -> Option<Arc<CompiledQuery>> {
        self.shard(query).lock().get(query, version)
    }

    fn insert(&self, query: String, version: u64, plan: Arc<CompiledQuery>) {
        self.shard(&query).lock().insert(query, version, plan);
    }

    /// The plan cached under `key` at `version`, or `compile`'s result,
    /// inserted. Compilation runs outside the shard lock; two threads
    /// missing on one key both compile and the later insert wins.
    pub(crate) fn get_or_compile(
        &self,
        key: Cow<'_, str>,
        version: u64,
        compile: impl FnOnce() -> Result<CompiledQuery, SparqlError>,
    ) -> Result<Arc<CompiledQuery>, SparqlError> {
        if let Some(hit) = self.get(&key, version) {
            return Ok(hit);
        }
        let compiled = Arc::new(compile()?);
        self.insert(key.into_owned(), version, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Total entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub(crate) fn set_capacity(&self, total_capacity: usize) {
        let per_shard = total_capacity.div_ceil(PLAN_CACHE_SHARDS);
        for shard in &self.shards {
            shard.lock().set_capacity(per_shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_rdf::TripleStore;
    use sofya_sparql::{compile_with_options, PlanOptions};

    fn plan() -> Arc<CompiledQuery> {
        let store = TripleStore::new();
        Arc::new(compile_with_options(&store, "ASK { ?s ?p ?o }", PlanOptions::default()).unwrap())
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut c = LruPlanCache::new(2);
        c.insert("a".into(), 0, plan());
        c.insert("b".into(), 0, plan());
        assert!(c.get("a", 0).is_some()); // a is now the most recent
        c.insert("c".into(), 0, plan()); // evicts b, not a
        assert!(c.get("a", 0).is_some());
        assert!(c.get("b", 0).is_none());
        assert!(c.get("c", 0).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn version_mismatch_is_a_miss_and_evicts() {
        let mut c = LruPlanCache::new(4);
        c.insert("q".into(), 1, plan());
        assert!(c.get("q", 1).is_some());
        assert!(c.get("q", 2).is_none(), "stale version must miss");
        assert_eq!(c.len(), 0, "stale entry must be evicted");
        c.insert("q".into(), 2, plan());
        assert!(c.get("q", 2).is_some());
    }

    #[test]
    fn pinned_old_readers_cannot_thrash_newer_plans() {
        let mut c = LruPlanCache::new(4);
        c.insert("q".into(), 2, plan());
        // An in-flight reader still on version 1 misses but must neither
        // evict the current plan nor overwrite it with its own.
        assert!(c.get("q", 1).is_none());
        assert_eq!(c.len(), 1, "newer entry survives the old-version miss");
        c.insert("q".into(), 1, plan());
        assert!(c.get("q", 2).is_some(), "old insert must not downgrade");
    }

    #[test]
    fn prepared_cache_key_is_injective_on_separator_contents() {
        let p = sofya_sparql::Prepared::new("ASK { ?a ?b ?c }", &["a", "b"]).unwrap();
        // Fields containing the old separator bytes must not collide.
        let k1 = prepared_cache_key(&p, &[Term::iri("a\u{2}Ib"), Term::iri("c")]);
        let k2 = prepared_cache_key(&p, &[Term::iri("a"), Term::iri("b\u{2}Ic")]);
        assert_ne!(k1, k2);
        let k3 = prepared_cache_key(&p, &[Term::iri("x"), Term::lang_literal("a", "b\u{3}")]);
        let k4 = prepared_cache_key(&p, &[Term::iri("x"), Term::literal("a\u{3}b")]);
        assert_ne!(k3, k4);
        // Identical args agree; different templates differ.
        assert_eq!(
            prepared_cache_key(&p, &[Term::iri("a"), Term::iri("b")]),
            prepared_cache_key(&p, &[Term::iri("a"), Term::iri("b")])
        );
        let q = sofya_sparql::Prepared::new("ASK { ?a ?b ?c }", &["a", "b"]).unwrap();
        assert_ne!(
            prepared_cache_key(&p, &[Term::iri("a"), Term::iri("b")]),
            prepared_cache_key(&q, &[Term::iri("a"), Term::iri("b")])
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruPlanCache::new(0);
        c.insert("q".into(), 0, plan());
        assert_eq!(c.len(), 0);
        assert!(c.get("q", 0).is_none());
    }

    #[test]
    fn shrinking_capacity_evicts_lru_first() {
        let mut c = LruPlanCache::new(3);
        c.insert("a".into(), 0, plan());
        c.insert("b".into(), 0, plan());
        c.insert("c".into(), 0, plan());
        assert!(c.get("a", 0).is_some()); // refresh a
        c.set_capacity(1);
        assert_eq!(c.len(), 1);
        assert!(c.get("a", 0).is_some(), "most recent survives the shrink");
    }

    #[test]
    fn sharded_cache_bounds_and_hits() {
        let cache = ShardedPlanCache::new(16);
        for i in 0..100 {
            cache.insert(format!("q{i}"), 0, plan());
        }
        assert!(cache.len() <= 16 + PLAN_CACHE_SHARDS);
        cache.insert("stable".to_owned(), 0, plan());
        assert!(cache.get("stable", 0).is_some());
        assert!(cache.get("stable", 1).is_none());
    }
}
