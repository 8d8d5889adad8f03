//! Immutable published store snapshots.
//!
//! [`TripleStore::snapshot`] applies the writer's pending inserts and
//! tombstones and clones the `Arc`s of every main run and dictionary
//! segment into a [`StoreSnapshot`]: an immutable view sharing all triple
//! and term data with the writer at the moment of publication. Readers
//! query it lock-free (it derefs to [`TripleStore`], so the whole scan /
//! count / SPARQL surface applies) while the single writer keeps writing
//! into its own buffers; nothing it does afterwards shows through.
//!
//! What taking, holding and dropping a snapshot costs is stated once, in
//! the [`crate::store`] module docs ("The write path and what it costs").

use crate::store::{fingerprint_mix, TripleStore};
use crate::triple::Triple;

/// An immutable, cheaply cloneable view of a [`TripleStore`] at one
/// mutation generation. `Deref`s to the store, so every read method
/// (scans, counts, the dictionary) works directly on a snapshot.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    store: TripleStore,
    version: u64,
}

impl StoreSnapshot {
    /// Crate-internal constructor; use [`TripleStore::snapshot`].
    pub(crate) fn new(store: TripleStore, version: u64) -> Self {
        Self { store, version }
    }

    /// The writer generation this snapshot was published at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The snapshot contents as a plain store reference.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }
}

impl std::ops::Deref for StoreSnapshot {
    type Target = TripleStore;

    fn deref(&self) -> &TripleStore {
        &self.store
    }
}

/// The definition of [`TripleStore::fingerprint`], by a full walk: the
/// XOR of a per-triple mix, folded with the triple count. The store
/// answers from a fold it maintains instead; tests hold the two equal.
pub fn fingerprint_of(triples: impl IntoIterator<Item = Triple>) -> u64 {
    let (fold, len) = triples
        .into_iter()
        .fold((0u64, 0u64), |(fold, len), Triple { s, p, o }| {
            (fold ^ fingerprint_mix(s.0, p.0, o.0), len + 1)
        });
    fold ^ len
}

// The whole point of a snapshot is crossing threads; keep the guarantee
// explicit so a future non-Sync field fails to compile right here.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<TripleStore>();
    check::<StoreSnapshot>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use crate::triple::TriplePattern;

    fn store_with(facts: &[(&str, &str, &str)]) -> TripleStore {
        let mut s = TripleStore::new();
        for (a, b, c) in facts {
            s.insert_terms(&Term::iri(*a), &Term::iri(*b), &Term::iri(*c));
        }
        s
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut s = store_with(&[("a", "p", "b"), ("b", "p", "c")]);
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);

        // Writer keeps going: insert, remove, bulk-load, flush.
        s.insert_terms(&Term::iri("c"), &Term::iri("q"), &Term::iri("d"));
        let (a, p, b) = (
            s.dict().lookup_iri("a").unwrap(),
            s.dict().lookup_iri("p").unwrap(),
            s.dict().lookup_iri("b").unwrap(),
        );
        assert!(s.remove(a, p, b));
        let batch: Vec<_> = (0..50)
            .map(|i| {
                let sid = s.intern(&Term::iri(format!("bulk{i}")));
                (sid, p, b)
            })
            .collect();
        s.load_batch(batch);
        s.flush();

        // The snapshot still shows exactly the published state.
        assert_eq!(snap.len(), 2);
        assert!(snap.contains(a, p, b));
        assert_eq!(snap.count_pattern(TriplePattern::with_p(p)), 2);
        assert_eq!(snap.dict().lookup_iri("bulk0"), None);
        // And the writer shows the new one.
        assert_eq!(s.len(), 52);
        assert!(!s.contains(a, p, b));
    }

    #[test]
    fn snapshot_versions_are_monotonic_and_track_writes() {
        let mut s = store_with(&[("a", "p", "b")]);
        let v1 = s.snapshot().version();
        let unchanged = s.snapshot().version();
        assert_eq!(v1, unchanged, "no writes, same version");
        s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("c"));
        let v2 = s.snapshot().version();
        assert!(v2 > v1);
        assert_eq!(s.generation(), v2);
    }

    #[test]
    fn fingerprint_is_order_independent_and_content_sensitive() {
        let mut a = store_with(&[("a", "p", "b"), ("b", "q", "c")]);
        let mut b = store_with(&[("a", "p", "b"), ("b", "q", "c")]);
        assert_eq!(a.snapshot().fingerprint(), b.snapshot().fingerprint());
        b.insert_terms(&Term::iri("x"), &Term::iri("p"), &Term::iri("y"));
        assert_ne!(a.snapshot().fingerprint(), b.snapshot().fingerprint());
        let _ = a.snapshot();
    }

    #[test]
    fn snapshot_survives_writer_drop() {
        let snap = {
            let mut s = store_with(&[("a", "p", "b")]);
            s.snapshot()
        };
        assert_eq!(snap.len(), 1);
        let p = snap.dict().lookup_iri("p").unwrap();
        assert_eq!(snap.count_pattern(TriplePattern::with_p(p)), 1);
    }

    type Key = (u32, u32, u32);

    #[test]
    fn deep_equality_of_scans_across_generations() {
        let mut s = TripleStore::new();
        s.set_merge_threshold(4);
        let mut published: Vec<(StoreSnapshot, Vec<Key>)> = Vec::new();
        let mut x: u32 = 11;
        for step in 0..120 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let sid = s.intern(&Term::iri(format!("s{}", (x >> 3) % 7)));
            let pid = s.intern(&Term::iri(format!("p{}", (x >> 9) % 3)));
            let oid = s.intern(&Term::iri(format!("o{}", (x >> 16) % 7)));
            if step % 7 == 6 {
                s.remove(sid, pid, oid);
            } else {
                s.insert(sid, pid, oid);
            }
            if step % 30 == 29 {
                let content: Vec<(u32, u32, u32)> =
                    s.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
                published.push((s.snapshot(), content));
            }
        }
        // Every snapshot still replays exactly the content it was taken at.
        for (snap, want) in &published {
            let got: Vec<(u32, u32, u32)> = snap.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
            assert_eq!(&got, want);
        }
    }
}
