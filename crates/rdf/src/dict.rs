//! Dictionary encoding of RDF terms.
//!
//! Every [`Term`] that enters a store is interned once and afterwards
//! referred to by a dense [`TermId`] (`u32`). This keeps triples at twelve
//! bytes and makes joins integer comparisons.
//!
//! Terms are hashed with a small FNV-1a hasher defined here instead of
//! SipHash: dictionary keys are not attacker-controlled in this system and
//! the offline dependency list does not include `rustc-hash`, so we ship the
//! ~20-line equivalent ourselves. The index over them is
//! a plain open-addressing table of positions, so a term is stored once.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::term::Term;

/// A dense identifier for an interned [`Term`].
///
/// Ids are assigned sequentially starting from 0 and are only meaningful
/// relative to the [`Dict`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// FNV-1a, a tiny non-cryptographic hasher.
///
/// Quality is sufficient for interning strings we generate ourselves and it
/// is markedly faster than SipHash for short keys.
#[derive(Debug, Default, Clone)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut state = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            state ^= u64::from(b);
            state = state.wrapping_mul(PRIME);
        }
        self.0 = state;
    }
}

/// FxHash's word step with a final mix, for words the program assigned:
/// [`TermId`]s or keyed fingerprints of terms, never raw outside keys.
#[derive(Debug, Default, Clone)]
pub struct Fx(u64);

impl Hasher for Fx {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

/// Builds [`Fx`] hashers: `HashMap<K, V, FxBuild>`.
pub type FxBuild = std::hash::BuildHasherDefault<Fx>;

/// The 32-bit tag a term is indexed under: FNV-1a folded to a word.
fn tag_of(term: &Term) -> u32 {
    let mut hasher = FnvHasher::default();
    term.hash(&mut hasher);
    let h = hasher.finish();
    (h ^ (h >> 32)) as u32
}

/// A run of consecutive ids: the terms themselves (each stored once) and
/// an open-addressing index over them. A slot packs the term's tag (high
/// word) with its position + 1 (low word); 0 is an empty slot. The table
/// is a power of two at most half full, probed linearly from the tag's
/// low bits — growing and merging move slots without rehashing a term.
#[derive(Debug, Clone, Default)]
struct Segment {
    /// Id of `terms[0]`.
    start: u32,
    terms: Vec<Term>,
    slots: Vec<u64>,
}

impl Segment {
    fn starting_at(start: usize) -> Self {
        Self {
            start: u32::try_from(start).expect("dictionary overflow: >4G terms"),
            ..Self::default()
        }
    }

    /// One past the last id held.
    #[inline]
    fn end(&self) -> usize {
        self.start as usize + self.terms.len()
    }

    fn find(&self, tag: u32, term: &Term) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            let pos = (slot as u32 - 1) as usize;
            if (slot >> 32) as u32 == tag && self.terms[pos] == *term {
                return Some(TermId(self.start + pos as u32));
            }
            at = (at + 1) & mask;
        }
    }

    /// Files an occupied slot; the table must have a free one.
    #[inline]
    fn place(slots: &mut [u64], slot: u64) {
        let mask = slots.len() - 1;
        let mut at = (slot >> 32) as usize & mask;
        while slots[at] != 0 {
            at = (at + 1) & mask;
        }
        slots[at] = slot;
    }

    /// Re-files every occupied slot of `old`, positions shifted by `shift`.
    fn place_all(slots: &mut [u64], old: &[u64], shift: usize) {
        for &slot in old.iter().filter(|&&slot| slot != 0) {
            Self::place(slots, slot + shift as u64);
        }
    }

    /// Appends a term known to be absent; returns its id.
    fn push(&mut self, tag: u32, term: Term) -> TermId {
        let id = u32::try_from(self.end()).expect("dictionary overflow: >4G terms");
        if (self.terms.len() + 1) * 2 > self.slots.len() {
            let old = std::mem::take(&mut self.slots);
            self.slots = vec![0; (old.len() * 2).max(8)];
            Self::place_all(&mut self.slots, &old, 0);
        }
        self.terms.push(term);
        let slot = (u64::from(tag) << 32) | self.terms.len() as u64;
        Self::place(&mut self.slots, slot);
        TermId(id)
    }

    /// The concatenation of consecutive segments as one.
    fn merged(parts: Vec<Arc<Segment>>) -> Segment {
        let len: usize = parts.iter().map(|part| part.terms.len()).sum();
        let mut merged = Segment {
            start: parts.first().map_or(0, |part| part.start),
            terms: Vec::with_capacity(len),
            slots: vec![0; (len * 2).next_power_of_two().max(8)],
        };
        for part in parts {
            Self::place_all(&mut merged.slots, &part.slots, merged.terms.len());
            // A part no snapshot holds any more gives its terms away.
            match Arc::try_unwrap(part) {
                Ok(part) => merged.terms.extend(part.terms),
                Err(part) => merged.terms.extend_from_slice(&part.terms),
            }
        }
        merged
    }
}

/// How many times the size of the next each frozen segment of a [`Dict`]
/// is kept, at least. A lookup may have to probe every segment, and a
/// term is copied about `RATIO / 2` times per level of the hierarchy:
/// at 4 that is as many copies as at 2, over half as many segments.
const SEGMENT_RATIO: usize = 4;

/// A bidirectional Term ⇄ TermId dictionary.
///
/// Ids are dense and append-only. The terms live in a few **frozen
/// segments** (consecutive id ranges behind `Arc`s, largest first) plus a
/// writer-owned **tail** that takes every new term. [`Dict::snapshot`]
/// freezes the tail and hands out a dictionary sharing every segment, so
/// a snapshot costs O(terms interned since the previous one) and a
/// dropped snapshot frees nothing the writer still uses. A dictionary
/// that was never snapshotted is a single tail.
///
/// Freezing keeps the segments geometric — each at least four times the
/// size of the next, so there are at most log₄(len) + 1 of them — by
/// merging the offending suffix in one pass; a term is copied O(log len)
/// times over the dictionary's life.
#[derive(Debug, Clone, Default)]
pub struct Dict {
    frozen: Vec<Arc<Segment>>,
    tail: Segment,
}

impl Dict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.tail.end()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(&self, tag: u32, term: &Term) -> Option<TermId> {
        self.frozen
            .iter()
            .find_map(|segment| segment.find(tag, term))
            .or_else(|| self.tail.find(tag, term))
    }

    /// Interns a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let tag = tag_of(term);
        match self.find(tag, term) {
            Some(id) => id,
            None => self.tail.push(tag, term.clone()),
        }
    }

    /// Looks up the id of an already-interned term.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.find(tag_of(term), term)
    }

    /// Looks up the id of an already-interned IRI.
    pub fn lookup_iri(&self, iri: &str) -> Option<TermId> {
        self.lookup(&Term::iri(iri))
    }

    /// Resolves an id back to its term.
    ///
    /// # Panics
    /// Panics if the id was not produced by this dictionary.
    pub fn resolve(&self, id: TermId) -> &Term {
        self.try_resolve(id)
            .unwrap_or_else(|| panic!("term id {id} is foreign to this dictionary"))
    }

    /// Resolves an id, returning `None` for foreign ids.
    pub fn try_resolve(&self, id: TermId) -> Option<&Term> {
        let segment = self
            .frozen
            .iter()
            .map(|segment| &**segment)
            .find(|segment| id.index() < segment.end())
            .unwrap_or(&self.tail);
        segment
            .terms
            .get(id.index().checked_sub(segment.start as usize)?)
    }

    /// Iterates over all `(id, term)` pairs in id (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.frozen
            .iter()
            .map(|segment| &**segment)
            .chain(std::iter::once(&self.tail))
            .flat_map(|segment| &segment.terms)
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }

    /// An immutable view of the terms interned so far, sharing their
    /// storage: freezes the tail (see the type docs for the merge policy)
    /// and clones the segment `Arc`s. Terms interned later never show
    /// through it.
    pub fn snapshot(&mut self) -> Dict {
        if !self.tail.terms.is_empty() {
            let next = Segment::starting_at(self.len());
            let tail = std::mem::replace(&mut self.tail, next);
            // The suffix that would break "RATIO times the size of the next".
            let mut following = tail.terms.len();
            let mut keep = self.frozen.len();
            while keep > 0 && self.frozen[keep - 1].terms.len() < SEGMENT_RATIO * following {
                following += self.frozen[keep - 1].terms.len();
                keep -= 1;
            }
            let mut parts = self.frozen.split_off(keep);
            let frozen = if parts.is_empty() {
                tail
            } else {
                parts.push(Arc::new(tail));
                Segment::merged(parts)
            };
            self.frozen.push(Arc::new(frozen));
        }
        Dict {
            frozen: self.frozen.clone(),
            tail: Segment::starting_at(self.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dict::new();
        let a1 = d.intern(&Term::iri("http://x/a"));
        let a2 = d.intern(&Term::iri("http://x/a"));
        assert_eq!(a1, a2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_sequential() {
        let mut d = Dict::new();
        let a = d.intern(&Term::iri("a"));
        let b = d.intern(&Term::iri("b"));
        let c = d.intern(&Term::literal("b"));
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn literal_and_iri_with_same_text_are_distinct() {
        let mut d = Dict::new();
        let iri = d.intern(&Term::iri("x"));
        let lit = d.intern(&Term::literal("x"));
        assert_ne!(iri, lit);
    }

    #[test]
    fn resolve_round_trip() {
        let mut d = Dict::new();
        let term = Term::lang_literal("hello", "en");
        let id = d.intern(&term);
        assert_eq!(d.resolve(id), &term);
    }

    #[test]
    fn lookup_missing_is_none() {
        let d = Dict::new();
        assert_eq!(d.lookup_iri("nope"), None);
        assert_eq!(d.try_resolve(TermId(0)), None);
    }

    #[test]
    fn iter_covers_all_terms_in_order() {
        let mut d = Dict::new();
        d.intern(&Term::iri("a"));
        d.intern(&Term::iri("b"));
        let collected: Vec<_> = d.iter().map(|(id, t)| (id.0, t.clone())).collect();
        assert_eq!(collected, vec![(0, Term::iri("a")), (1, Term::iri("b"))]);
    }

    #[test]
    fn a_dictionary_never_snapshotted_is_one_segment() {
        let mut d = Dict::new();
        for i in 0..1000 {
            d.intern(&Term::iri(format!("t{i}")));
        }
        assert!(d.frozen.is_empty());
        assert_eq!(d.tail.terms.len(), 1000);
    }

    #[test]
    fn snapshots_share_segments_and_their_count_stays_logarithmic() {
        let mut d = Dict::new();
        let mut snapshots = Vec::new();
        for i in 0..1000usize {
            d.intern(&Term::iri(format!("t{i}")));
            snapshots.push(d.snapshot());
            // Each segment at least four times the next: log4(len) + 1 at most.
            let sizes: Vec<usize> = d.frozen.iter().map(|s| s.terms.len()).collect();
            assert!(
                sizes.windows(2).all(|w| w[0] >= SEGMENT_RATIO * w[1]),
                "{sizes:?}"
            );
            assert!(sizes.len() <= (i + 1).ilog(4) as usize + 1, "{sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), i + 1);
        }
        // A snapshot taken with nothing new interned shares every segment.
        let again = d.snapshot();
        let last = snapshots.last().unwrap();
        assert!(again
            .frozen
            .iter()
            .zip(&last.frozen)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        // Old snapshots still end where they were taken.
        for (i, snapshot) in snapshots.iter().enumerate() {
            assert_eq!(snapshot.len(), i + 1);
            assert_eq!(snapshot.lookup_iri(&format!("t{}", i + 1)), None);
            assert_eq!(
                snapshot.lookup_iri(&format!("t{i}")),
                Some(TermId(i as u32))
            );
        }
    }

    #[test]
    fn fnv_hasher_distinguishes_short_keys() {
        fn hash(s: &str) -> u64 {
            let mut h = FnvHasher::default();
            h.write(s.as_bytes());
            h.finish()
        }
        assert_ne!(hash("a"), hash("b"));
        assert_ne!(hash("ab"), hash("ba"));
        assert_eq!(hash("same"), hash("same"));
    }
}
