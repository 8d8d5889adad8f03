//! The plan cache of the in-process execution core: one bounded,
//! sharded, snapshot-versioned map from query text to compiled plan.
//!
//! [`crate::ConcurrentEndpoint`] and every [`crate::LocalEndpoint`]
//! pinned from it share one [`ShardedPlanCache`]; a `LocalEndpoint` built
//! over a store of its own gets a cache of its own.
//!
//! A text is hashed once, eight bytes at a time ([`text_hash`]); the one
//! 64-bit value picks the shard, so worker threads compiling different
//! queries never serialise on one lock, and keys the shard's map. Each
//! entry keeps its text, so a text whose hash collides with another's
//! misses and never gets the other's plan. A shard holds at most its
//! capacity of entries in a fixed set of slots and evicts by second
//! chance (CLOCK): a hit marks its entry, and a full shard's hand clears
//! marks until it reaches an empty slot, a stale entry or an unmarked
//! one, which it replaces. No scan, no copy of the victim's key, and
//! memory bounded by the capacity whatever the traffic.
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

use sofya_rdf::Term;
use sofya_sparql::{CompiledQuery, Prepared, SparqlError};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

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

/// A 64-bit hash of `text`, eight bytes at a time: each word is mixed in
/// by a folded 64×64→128-bit multiply. The state starts from the length,
/// so texts that differ only by trailing zero bytes differ, and from a
/// per-process random key, so a client cannot choose texts that crowd
/// one shard or one stretch of a shard's map.
pub(crate) fn text_hash(text: &str) -> u64 {
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    fn fold(a: u64, b: u64) -> u64 {
        let product = u128::from(a) * u128::from(b);
        (product as u64) ^ ((product >> 64) as u64)
    }
    static KEY: OnceLock<u64> = OnceLock::new();
    let key = *KEY.get_or_init(|| RandomState::new().hash_one(0u64));
    let bytes = text.as_bytes();
    let mut h = fold(bytes.len() as u64 ^ key, MUL);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = fold(h ^ u64::from_le_bytes(w), MUL);
    }
    let tail = words
        .remainder()
        .iter()
        .rev()
        .fold(0u64, |w, &b| (w << 8) | u64::from(b));
    fold(h ^ tail, MUL ^ 0x1319_8A2E_0370_7344)
}

/// Hashes a [`text_hash`] value by passing it through: the map of a
/// shard is keyed by hashes already.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One shard: a bounded, version-stamped map from query text to plan,
/// evicting by second chance.
#[derive(Debug, Default)]
struct ClockPlanCache {
    /// At most `capacity` slots; `None` is a slot a stale entry left.
    slots: Vec<Option<Entry>>,
    /// Hash of each held text → its slot.
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    /// The next slot the eviction sweep looks at.
    hand: usize,
    capacity: usize,
}

#[derive(Debug)]
struct Entry {
    hash: u64,
    text: String,
    plan: Arc<CompiledQuery>,
    version: u64,
    /// Set by a hit, cleared by the hand passing: a second chance.
    referenced: bool,
}

impl ClockPlanCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// Re-bounds the cache. Shrinking keeps referenced entries first.
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if self.slots.len() <= capacity {
            return;
        }
        let mut kept: Vec<Entry> = std::mem::take(&mut self.slots)
            .into_iter()
            .flatten()
            .collect();
        kept.sort_by_key(|entry| !entry.referenced);
        kept.truncate(capacity);
        self.index = kept
            .iter()
            .enumerate()
            .map(|(slot, entry)| (entry.hash, slot))
            .collect();
        self.slots = kept.into_iter().map(Some).collect();
        self.hand = 0;
    }

    /// The cached plan for `text` compiled at `version`, marking it
    /// referenced. An *older* entry is evicted and reported as a miss
    /// (its embedded dictionary ids may no longer be complete); a
    /// *newer* entry is kept but not returned, so a reader still pinned
    /// to an outgoing snapshot cannot thrash the current generation's
    /// plans during a publish. A text that only shares the hash misses.
    fn get(&mut self, hash: u64, text: &str, version: u64) -> Option<Arc<CompiledQuery>> {
        let slot = *self.index.get(&hash)?;
        let held = self.slots.get_mut(slot)?;
        let entry = held.as_mut().filter(|entry| entry.text == text)?;
        if entry.version == version {
            entry.referenced = true;
            return Some(Arc::clone(&entry.plan));
        }
        if entry.version < version {
            *held = None;
            self.index.remove(&hash);
        }
        None
    }

    /// Inserts unless a newer-version entry already holds the hash (the
    /// mirror of the `get` rule: pinned old readers never overwrite the
    /// current generation). Returns the entry it displaced, for the
    /// caller to drop after releasing the shard.
    fn insert(
        &mut self,
        hash: u64,
        text: String,
        version: u64,
        plan: Arc<CompiledQuery>,
    ) -> Option<Entry> {
        if self.capacity == 0 {
            return None;
        }
        let fresh = Entry {
            hash,
            text,
            plan,
            version,
            referenced: false,
        };
        if let Some(&slot) = self.index.get(&hash) {
            let held = self.slots.get_mut(slot)?;
            if held.as_ref().is_some_and(|entry| entry.version > version) {
                return None;
            }
            return held.replace(fresh);
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(None);
            self.slots.len() - 1
        } else {
            self.sweep(version)?
        };
        let displaced = self.slots.get_mut(slot)?.replace(fresh);
        if let Some(victim) = &displaced {
            self.index.remove(&victim.hash);
        }
        self.index.insert(hash, slot);
        displaced
    }

    /// Moves the hand past the first slot it may refill — empty, holding
    /// a plan older than `version`, or not referenced since the hand
    /// last passed — clearing marks on the way, and returns that slot.
    /// Two turns of the hand always reach one.
    fn sweep(&mut self, version: u64) -> Option<usize> {
        for _ in 0..2 * self.slots.len() {
            let slot = self.hand;
            self.hand = (slot + 1) % self.slots.len();
            match self.slots.get_mut(slot)? {
                Some(entry) if entry.referenced && entry.version >= version => {
                    entry.referenced = false;
                }
                _ => return Some(slot),
            }
        }
        None
    }
}

/// Number of shards in a [`ShardedPlanCache`]. A power of two so the
/// hash-to-shard map is a mask; 8 keeps per-shard contention negligible
/// for the number of queries a server lets run at once (≤ dozens).
pub(crate) const PLAN_CACHE_SHARDS: usize = 8;

/// A sharded [`ClockPlanCache`]: bits 32.. of the text's hash pick the
/// shard (the shard's map reads the low and the top bits), so
/// concurrent workers compiling *different* queries take different
/// locks. The configured capacity is split evenly (rounded up) across
/// shards, preserving the total bound within +`PLAN_CACHE_SHARDS`.
#[derive(Debug)]
pub(crate) struct ShardedPlanCache {
    shards: Vec<parking_lot::Mutex<ClockPlanCache>>,
}

impl ShardedPlanCache {
    pub(crate) fn new(total_capacity: usize) -> Self {
        let per_shard = total_capacity.div_ceil(PLAN_CACHE_SHARDS);
        Self {
            shards: (0..PLAN_CACHE_SHARDS)
                .map(|_| parking_lot::Mutex::new(ClockPlanCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, hash: u64) -> &parking_lot::Mutex<ClockPlanCache> {
        // sofya: allow(panic_path) — index is modulo the shard count, always in bounds
        &self.shards[(hash >> 32) as usize % PLAN_CACHE_SHARDS]
    }

    /// The plan cached under `key` at `version`, or `compile`'s result,
    /// inserted — unless the query carries inline data: a `VALUES` text
    /// is its rows', which no later request repeats, and caching it would
    /// only evict plans that hit. The key is hashed once for both.
    /// Compilation runs outside the shard lock; two threads missing on
    /// one key both compile and the later insert wins.
    pub(crate) fn get_or_compile(
        &self,
        key: Cow<'_, str>,
        version: u64,
        compile: impl FnOnce() -> Result<CompiledQuery, SparqlError>,
    ) -> Result<Arc<CompiledQuery>, SparqlError> {
        let hash = text_hash(&key);
        let shard = self.shard(hash);
        if let Some(hit) = shard.lock().get(hash, &key, version) {
            return Ok(hit);
        }
        let compiled = Arc::new(compile()?);
        if compiled.carries_inline_data() {
            return Ok(compiled);
        }
        // The displaced entry is dropped here, after the lock is gone.
        let _displaced =
            shard
                .lock()
                .insert(hash, key.into_owned(), version, Arc::clone(&compiled));
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

    /// The caches' calls with the hash taken from the text, as
    /// `get_or_compile` takes it.
    trait ByText {
        fn put(&mut self, text: &str, version: u64, plan: Arc<CompiledQuery>);
        fn find(&mut self, text: &str, version: u64) -> Option<Arc<CompiledQuery>>;
    }

    impl ByText for ClockPlanCache {
        fn put(&mut self, text: &str, version: u64, plan: Arc<CompiledQuery>) {
            self.insert(text_hash(text), text.to_owned(), version, plan);
        }

        fn find(&mut self, text: &str, version: u64) -> Option<Arc<CompiledQuery>> {
            self.get(text_hash(text), text, version)
        }
    }

    impl ByText for ShardedPlanCache {
        fn put(&mut self, text: &str, version: u64, plan: Arc<CompiledQuery>) {
            let hash = text_hash(text);
            self.shard(hash)
                .lock()
                .insert(hash, text.to_owned(), version, plan);
        }

        fn find(&mut self, text: &str, version: u64) -> Option<Arc<CompiledQuery>> {
            let hash = text_hash(text);
            self.shard(hash).lock().get(hash, text, version)
        }
    }

    /// Slots never outnumber the capacity, and the index names exactly
    /// the held entries.
    fn assert_bounded(c: &ClockPlanCache) {
        assert!(c.slots.len() <= c.capacity, "{} slots", c.slots.len());
        assert_eq!(c.slots.iter().flatten().count(), c.len());
        for (slot, entry) in c.slots.iter().enumerate() {
            if let Some(entry) = entry {
                assert_eq!(c.index.get(&entry.hash), Some(&slot));
            }
        }
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut c = ClockPlanCache::new(2);
        c.put("a", 0, plan());
        c.put("b", 0, plan());
        assert!(c.find("a", 0).is_some()); // a is now the most recent
        c.put("c", 0, plan()); // evicts b, not a
        assert!(c.find("a", 0).is_some());
        assert!(c.find("b", 0).is_none());
        assert!(c.find("c", 0).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn version_mismatch_is_a_miss_and_evicts() {
        let mut c = ClockPlanCache::new(4);
        c.put("q", 1, plan());
        assert!(c.find("q", 1).is_some());
        assert!(c.find("q", 2).is_none(), "stale version must miss");
        assert_eq!(c.len(), 0, "stale entry must be evicted");
        c.put("q", 2, plan());
        assert!(c.find("q", 2).is_some());
    }

    #[test]
    fn pinned_old_readers_cannot_thrash_newer_plans() {
        let mut c = ClockPlanCache::new(4);
        c.put("q", 2, plan());
        // An in-flight reader still on version 1 misses but must neither
        // evict the current plan nor overwrite it with its own.
        assert!(c.find("q", 1).is_none());
        assert_eq!(c.len(), 1, "newer entry survives the old-version miss");
        c.put("q", 1, plan());
        assert!(c.find("q", 2).is_some(), "old insert must not downgrade");
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
        let mut c = ClockPlanCache::new(0);
        c.put("q", 0, plan());
        assert_eq!(c.len(), 0);
        assert!(c.find("q", 0).is_none());
    }

    #[test]
    fn shrinking_capacity_evicts_lru_first() {
        let mut c = ClockPlanCache::new(3);
        c.put("a", 0, plan());
        c.put("b", 0, plan());
        c.put("c", 0, plan());
        assert!(c.find("a", 0).is_some()); // refresh a
        c.set_capacity(1);
        assert_eq!(c.len(), 1);
        assert!(c.find("a", 0).is_some(), "most recent survives the shrink");
    }

    #[test]
    fn sharded_cache_bounds_and_hits() {
        let mut cache = ShardedPlanCache::new(16);
        for i in 0..100 {
            cache.put(&format!("q{i}"), 0, plan());
        }
        assert!(cache.len() <= 16 + PLAN_CACHE_SHARDS);
        cache.put("stable", 0, plan());
        assert!(cache.find("stable", 0).is_some());
        assert!(cache.find("stable", 1).is_none());
    }

    #[test]
    fn a_colliding_hash_with_another_text_misses() {
        let mut c = ClockPlanCache::new(4);
        let (a, b) = (plan(), plan());
        c.insert(7, "a".into(), 0, Arc::clone(&a));
        assert!(
            c.get(7, "b", 0).is_none(),
            "another text must not get a's plan"
        );
        assert!(Arc::ptr_eq(&c.get(7, "a", 0).unwrap(), &a));
        // The later text takes the hash over; the first then misses.
        c.insert(7, "b".into(), 0, Arc::clone(&b));
        assert!(c.get(7, "a", 0).is_none());
        assert!(Arc::ptr_eq(&c.get(7, "b", 0).unwrap(), &b));
        assert_eq!(c.len(), 1);
        assert_bounded(&c);
    }

    /// The counted twin of `a_plan_cache_insert_does_not_scan_the_cache`
    /// in `tests/cost_ratios.rs`: 64 new texts into a full shard move
    /// its clock hand one slot each when nothing was hit since the hand
    /// last passed. When every entry was, the first insert takes one
    /// turn more, clearing the marks on its way round, and the rest one
    /// slot each. No insert takes more than twice the shard's slots.
    #[test]
    fn an_insert_into_a_full_shard_moves_the_hand_one_slot() {
        let p = plan();
        let marked = |c: &ClockPlanCache| c.slots.iter().flatten().filter(|e| e.referenced).count();
        // The hand steps of one insert: each clears a mark, or, the
        // last, finds the slot to refill, and moves the hand a slot.
        let insert = |c: &mut ClockPlanCache, text: &str| {
            let (hand, marks) = (c.hand, marked(c));
            c.put(text, 0, Arc::clone(&p));
            let steps = marks - marked(c) + 1;
            assert_eq!((hand + steps) % c.slots.len(), c.hand, "{steps} steps");
            steps
        };
        for capacity in [64, 512] {
            for hit in [false, true] {
                let mut c = ClockPlanCache::new(capacity);
                for i in 0..2 * capacity {
                    c.put(&format!("fill{i}"), 0, Arc::clone(&p));
                }
                if hit {
                    for i in capacity..2 * capacity {
                        assert!(c.find(&format!("fill{i}"), 0).is_some());
                    }
                }
                let steps: Vec<usize> = (0..64)
                    .map(|i| insert(&mut c, &format!("new{i}")))
                    .collect();
                let total: usize = steps.iter().sum();
                let worst = steps.iter().copied().max().unwrap_or(0);
                println!(
                    "{capacity} slots, all hit: {hit}: {total} hand steps per 64 inserts, \
                     the worst insert {worst}"
                );
                let turn = if hit { capacity } else { 0 };
                assert_eq!(total, 64 + turn, "{capacity} slots, all hit: {hit}");
                assert_eq!(worst, 1 + turn);
                assert!(worst <= 2 * capacity);
                assert_bounded(&c);
            }
        }
    }

    /// What a publish does to a full cache, 1000 times over: every
    /// lookup at the new version evicts its stale entry, and the
    /// re-insert refills a slot. Half the texts are new each round, so
    /// evictions by the hand mix with slots the lookups emptied and
    /// stale entries no lookup reached.
    #[test]
    fn version_churn_keeps_the_slots_within_capacity() {
        let mut c = ClockPlanCache::new(64);
        let p = plan();
        for version in 0..1000u64 {
            for i in 0..96 {
                let text = if i % 2 == 0 {
                    format!("q{i}")
                } else {
                    format!("q{i}@{version}")
                };
                if c.find(&text, version).is_none() {
                    c.put(&text, version, Arc::clone(&p));
                }
                assert_bounded(&c);
            }
            assert_eq!(c.len(), 64, "a full cache stays full");
        }
        let mut sharded = ShardedPlanCache::new(64);
        for version in 0..1000u64 {
            for i in 0..64 {
                sharded.put(&format!("q{i}"), version, Arc::clone(&p));
            }
            for shard in &sharded.shards {
                assert_bounded(&shard.lock());
            }
        }
    }
}
