//! The in-memory triple store: flat sorted permutation indexes for SPO and
//! OSP, a *predicate-partitioned* POS index, and zero-allocation prefix
//! scans.
//!
//! SPO and OSP are flat sorted `Vec<(u32, u32, u32)>` runs: a prefix lookup
//! is a binary search to the range's start and a gallop to its end,
//! yielding a contiguous slice; iteration is a
//! linear walk over dense memory, and exact pattern cardinalities come
//! from the same bounds in O(log n) ([`TripleStore::count_pattern`]).
//!
//! The POS permutation is different: every scan of it binds the predicate
//! (the `?x <p> ?y` / `?x <p> <o>` shapes — SOFYA's bread and butter), so
//! instead of one flat run it is partitioned into **per-predicate pages**,
//! each a sorted `Vec<(u32, u32)>` of `(o, s)` pairs. Merges touch only the
//! pages a write names, binary searches are page-local, and a predicate's
//! cardinality is just its page length — read in O(log #predicates) and
//! fed to the query planner's selectivity oracle through
//! [`TripleStore::count_pattern`].
//!
//! # The write path and what it costs
//!
//! Every run (SPO, OSP, each page) is three sorted vectors: the **main
//! run** behind an `Arc`, shared with every live snapshot that contains
//! it; a small **insert buffer**; and a small **tombstone buffer** naming
//! main-run keys that have been removed. The live keys are
//! `(main − tombstones) ∪ buffer`, and every read subtracts and merges on
//! the fly, so the writer's own reads are exact — and exact-size — at all
//! times.
//!
//! * [`TripleStore::insert`] costs a sorted insertion into the buffers
//!   (or clears the key's tombstone). [`TripleStore::remove`] deletes a
//!   buffered key directly and otherwise records a tombstone, and
//!   [`TripleStore::remove_batch`] does so for a batch, in one sorted
//!   merge per touched run. None of them touches a main run.
//! * Pending keys are **applied** to a main run — buffer merged in,
//!   tombstoned keys dropped — by [`TripleStore::flush`] (which
//!   [`TripleStore::snapshot`] calls first), by
//!   [`TripleStore::load_batch`] (together with its batch, so a
//!   `remove_batch` then a `load_batch` cost one pass per run), and when a
//!   buffer reaches its threshold. Applying is one linear pass over that
//!   run and skips runs with nothing pending: in place when no snapshot
//!   shares the run, otherwise written straight into a fresh vector, which
//!   leaves the snapshot's copy untouched.
//! * [`TripleStore::snapshot`] publishes an immutable
//!   [`crate::snapshot::StoreSnapshot`] by flushing and then cloning the
//!   `Arc`s of the runs and of the dictionary's segments (see
//!   [`Dict::snapshot`]): O(#predicates) pointer copies plus freezing the
//!   terms interned since the previous snapshot. No triple and no older
//!   term is copied, and dropping a snapshot frees only the runs and
//!   dictionary segments that have been replaced since it was taken.
//! * What one snapshot changed since another is
//!   [`StoreSnapshot::diff_since`], the one record of it: the writer keeps
//!   no log of its calls. It walks the POS pages of the two and skips
//!   every page both share, so it costs the pages written in between.
//!
//! A publish therefore costs O(mutations since the last publish)
//! allocations and at most one pass per run those mutations touched, and
//! learning what it changed one pass per page they touched. Snapshots are
//! always flushed: their buffers are empty and their scans walk the main
//! runs alone.

use crate::dict::{Dict, TermId};
use crate::snapshot::StoreSnapshot;
use crate::term::Term;
use crate::triple::{Triple, TriplePattern};
use std::cmp::Ordering;
use std::sync::Arc;

type Key = (u32, u32, u32);
type Ids = (TermId, TermId, TermId);
/// An `(o, s)` entry of one predicate's POS page.
type Pair = (u32, u32);

/// Pending keys per flat run — buffered inserts or tombstones — before
/// they are applied to the main run. Small enough that the sorted
/// insertion memmove stays cheap, large enough that merges amortize.
const DEFAULT_MERGE_THRESHOLD: usize = 1024;

/// Per-page bound on the same: pages are merged independently, so it can
/// stay much smaller than the global threshold without losing
/// amortization (the pass it triggers is page-local).
const PAGE_BUFFER_THRESHOLD: usize = 64;

/// One triple's contribution to [`TripleStore::fingerprint`].
#[inline]
pub(crate) fn fingerprint_mix(s: u32, p: u32, o: u32) -> u64 {
    let key = (u64::from(s) << 42) ^ (u64::from(p) << 21) ^ u64::from(o);
    // splitmix64 finalizer: decorrelates keys before the XOR fold.
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which permutation a key run is sorted by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Perm {
    /// `(s, p, o)`
    Spo,
    /// `(o, s, p)`
    Osp,
}

impl Perm {
    #[inline]
    fn decode(self, k: Key) -> Triple {
        let (a, b, c) = k;
        match self {
            Perm::Spo => Triple::new(TermId(a), TermId(b), TermId(c)),
            Perm::Osp => Triple::new(TermId(b), TermId(c), TermId(a)),
        }
    }
}

/// Inserts `key` into a sorted run, preserving order. The caller
/// guarantees the key is not already present.
#[inline]
fn sorted_insert<T: Copy + Ord>(run: &mut Vec<T>, key: T) {
    let at = run.partition_point(|&k| k < key);
    run.insert(at, key);
}

/// Removes `key` from a sorted run if present; `true` on removal.
#[inline]
fn sorted_remove<T: Copy + Ord>(run: &mut Vec<T>, key: T) -> bool {
    match run.binary_search(&key) {
        Ok(at) => {
            run.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// Merges the sorted `buf` into the sorted `main` in place (backward
/// merge: one resize, no scratch allocation), leaving `buf` empty.
fn merge_run<T: Copy + Ord + Default>(main: &mut Vec<T>, buf: &mut Vec<T>) {
    if buf.is_empty() {
        return;
    }
    if main.is_empty() {
        std::mem::swap(main, buf);
        return;
    }
    let old = main.len();
    main.resize(old + buf.len(), T::default());
    let mut i = old; // one past the next unmerged main element
    let mut j = buf.len(); // one past the next unmerged buf element
    let mut k = main.len(); // one past the next write position
    while j > 0 {
        if i > 0 && main[i - 1] > buf[j - 1] {
            main[k - 1] = main[i - 1];
            i -= 1;
        } else {
            main[k - 1] = buf[j - 1];
            j -= 1;
        }
        k -= 1;
    }
    buf.clear();
}

/// `run.partition_point(pred)`, found by doubling steps from the front:
/// O(log answer), so a pass that looks up ascending keys in the rest of a
/// run costs O(run) however many keys there are.
#[inline]
fn gallop_by<T>(run: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut hi = 1;
    while hi < run.len() && pred(&run[hi]) {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + run[lo..hi.min(run.len())].partition_point(pred)
}

/// `run.partition_point(|k| k < key)` by [`gallop_by`].
#[inline]
fn gallop<T: Ord>(run: &[T], key: &T) -> usize {
    gallop_by(run, |k| k < key)
}

/// Drops the sorted keys `dead`, each of them present, from the sorted
/// `run` in place: one forward pass from the first of them.
fn drop_sorted<T: Copy + Ord>(run: &mut Vec<T>, dead: &[T]) {
    let Some(first) = dead.first() else {
        return;
    };
    let mut write = run.partition_point(|k| k < first);
    let mut read = write;
    for next_dead in dead.iter().skip(1).map(Some).chain([None]) {
        read += 1; // the dead key itself
        let kept = next_dead.map_or(run.len() - read, |d| gallop(&run[read..], d));
        run.copy_within(read..read + kept, write);
        write += kept;
        read += kept;
    }
    run.truncate(write);
}

/// `(main − dead) ∪ adds` as a fresh sorted vector, in one forward pass
/// that copies the stretches between changes wholesale. `dead` is a
/// subset of `main`; an added key is in `main` only if it is also dead.
fn merged_copy<T: Copy + Ord>(main: &[T], mut adds: &[T], mut dead: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(main.len() - dead.len() + adds.len());
    let mut rest = main;
    loop {
        // The next key at which the output departs from `rest`.
        let change = match (adds.first(), dead.first()) {
            (Some(&a), Some(&d)) => a.min(d),
            (Some(&a), None) => a,
            (None, Some(&d)) => d,
            (None, None) => break,
        };
        let (same, after) = rest.split_at(gallop(rest, &change));
        out.extend_from_slice(same);
        rest = after;
        if dead.first() == Some(&change) {
            debug_assert!(rest.first() == Some(&change), "tombstone without its key");
            rest = &rest[1..];
            dead = &dead[1..];
        }
        if adds.first() == Some(&change) {
            out.push(change);
            adds = &adds[1..];
        }
    }
    out.extend_from_slice(rest);
    out
}

/// One sorted index run and its pending changes (see the module docs).
///
/// `buf` is disjoint from `main`, `dead` is a subset of `main`, and the
/// live keys are `(main − dead) ∪ buf`.
#[derive(Debug, Clone, Default)]
struct Run<T> {
    /// Main sorted run, shared with live snapshots.
    main: Arc<Vec<T>>,
    /// Pending sorted inserts.
    buf: Vec<T>,
    /// Pending sorted tombstones.
    dead: Vec<T>,
}

impl<T: Copy + Ord + Default> Run<T> {
    #[inline]
    fn len(&self) -> usize {
        self.main.len() - self.dead.len() + self.buf.len()
    }

    fn contains(&self, key: &T) -> bool {
        self.buf.binary_search(key).is_ok()
            || (self.main.binary_search(key).is_ok() && self.dead.binary_search(key).is_err())
    }

    /// Makes an absent key live: clears its tombstone if it has one,
    /// buffers it otherwise.
    #[inline]
    fn add(&mut self, key: T) {
        if !sorted_remove(&mut self.dead, key) {
            sorted_insert(&mut self.buf, key);
        }
    }

    /// Makes a live key absent: unbuffers it if it was only buffered,
    /// tombstones it otherwise.
    #[inline]
    fn delete(&mut self, key: T) {
        if !sorted_remove(&mut self.buf, key) {
            sorted_insert(&mut self.dead, key);
        }
    }

    /// Whether either pending buffer has reached `threshold`.
    #[inline]
    fn is_due(&self, threshold: usize) -> bool {
        self.buf.len() >= threshold || self.dead.len() >= threshold
    }

    /// Applies the sorted, absent `keys` with what is pending if `add`;
    /// else makes the sorted, live `keys` absent in one pass: those only
    /// buffered leave the buffer, the rest merge into the tombstones.
    fn write(&mut self, mut keys: Vec<T>, add: bool) {
        if add {
            return self.apply(keys);
        }
        let (mut rest, mut buffered) = (&self.buf[..], Vec::new());
        keys.retain(|key| {
            rest = &rest[gallop(rest, key)..];
            let only_buffered = rest.first() == Some(key);
            buffered.extend(only_buffered.then_some(*key));
            !only_buffered
        });
        drop_sorted(&mut self.buf, &buffered);
        merge_run(&mut self.dead, &mut keys);
    }

    /// Applies the pending inserts and tombstones, plus the sorted
    /// `batch` of keys that are not live, to the main run.
    fn apply(&mut self, mut batch: Vec<T>) {
        merge_run(&mut batch, &mut self.buf);
        if batch.is_empty() && self.dead.is_empty() {
            return;
        }
        if self.main.is_empty() {
            self.main = Arc::new(batch);
        } else if let Some(main) = Arc::get_mut(&mut self.main) {
            drop_sorted(main, &self.dead);
            merge_run(main, &mut batch);
        } else {
            self.main = Arc::new(merged_copy(&self.main, &batch, &self.dead));
        }
        self.dead.clear();
    }

    /// The live keys within `range`, which maps each of the three sorted
    /// vectors to the same prefix range of it.
    #[inline]
    fn select<'a>(&'a self, range: impl Fn(&'a [T]) -> &'a [T]) -> LiveKeys<'a, T> {
        let mut keys = LiveKeys {
            main: range(&self.main),
            // Always empty on a snapshot: no range to search for.
            buf: if self.buf.is_empty() {
                &[]
            } else {
                range(&self.buf)
            },
            later: &[],
            dead: &[],
        };
        if !self.dead.is_empty() {
            keys.dead = range(&self.dead);
            keys.later = std::mem::take(&mut keys.main);
            keys.next_stretch();
        }
        keys
    }
}

/// The live keys of a [`Run`] (or of one prefix range of it) in order: a
/// two-way merge of main run and insert buffer that skips tombstones.
///
/// The main run is walked one tombstone-free stretch at a time, so the
/// merge step never looks at a tombstone; with none pending — always, on
/// a snapshot — the first stretch is the whole range.
#[derive(Debug, Clone, Copy)]
struct LiveKeys<'a, T> {
    /// The current stretch of the main run.
    main: &'a [T],
    buf: &'a [T],
    /// The main run after the stretch: empty, or starting at `dead[0]`.
    later: &'a [T],
    /// Tombstones still ahead: a subset of `later`.
    dead: &'a [T],
}

impl<T: Copy + Ord> LiveKeys<'_, T> {
    #[inline]
    fn len(&self) -> usize {
        self.main.len() + self.later.len() - self.dead.len() + self.buf.len()
    }

    /// With the stretch used up, moves on to the next one that has keys.
    #[cold]
    #[inline(never)]
    fn next_stretch(&mut self) {
        while self.main.is_empty() && !self.later.is_empty() {
            let stretch = match self.dead.split_first() {
                None => self.later.len(),
                Some((dead, _)) if self.later[0] != *dead => gallop(self.later, dead),
                Some((_, dead)) => {
                    self.later = &self.later[1..];
                    self.dead = dead;
                    continue;
                }
            };
            (self.main, self.later) = self.later.split_at(stretch);
        }
    }

    /// [`Iterator::next`] once the stretch is used up. Out of line: it
    /// runs once per tombstone, once as a scan ends and for buffered keys
    /// beyond the main run's last, and `next` must stay small enough to
    /// inline into the callers' loops. Takes and returns the state by
    /// value, which leaves the callers free to keep theirs in registers.
    #[cold]
    #[inline(never)]
    fn next_after_stretch(mut self) -> (Self, Option<T>) {
        self.next_stretch();
        let next = merge_next(&mut self.main, &mut self.buf);
        (self, next)
    }
}

/// Pops the smaller head of two sorted slices (two-way merge step).
#[inline]
fn merge_next<'a, T: Copy + Ord>(main: &mut &'a [T], buf: &mut &'a [T]) -> Option<T> {
    let take_main = match (main.first(), buf.first()) {
        (Some(m), Some(b)) => m <= b,
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => return None,
    };
    let src = if take_main { main } else { buf };
    let k = src[0];
    *src = &src[1..];
    Some(k)
}

impl<T: Copy + Ord> Iterator for LiveKeys<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.main.is_empty() {
            let (after, next) = self.next_after_stretch();
            *self = after;
            return next;
        }
        merge_next(&mut self.main, &mut self.buf)
    }
}

/// One predicate's slice of the POS index: its sorted `(o, s)` pairs.
#[derive(Debug, Clone, Default)]
struct PredPage {
    /// The predicate's id (the page key; pages are sorted by it).
    pred: u32,
    pairs: Run<Pair>,
}

/// The stretch of a sorted run on which `cmp` is `Equal` (`cmp` runs
/// `Less`, then `Equal`, then `Greater` along the run): a binary search to
/// its start, then a gallop to its end. The gallop costs O(log range)
/// and starts where the search stopped, so the short ranges of index
/// probes cost a comparison or two instead of a second full search.
#[inline]
fn equal_range<T>(run: &[T], cmp: impl Fn(&T) -> Ordering) -> &[T] {
    let rest = &run[run.partition_point(|k| cmp(k) == Ordering::Less)..];
    &rest[..gallop_by(rest, |k| cmp(k) == Ordering::Equal)]
}

/// The sub-slice of a sorted run whose keys start with the given prefix.
///
/// Bound positions must form a prefix of the permutation order (`a`, then
/// `a,b`, then `a,b,c`). Comparisons only, so there is no successor
/// arithmetic and no `u32::MAX` edge case.
#[inline]
fn prefix_slice(run: &[Key], a: Option<u32>, b: Option<u32>, c: Option<u32>) -> &[Key] {
    match (a, b, c) {
        (None, _, _) => run,
        (Some(a), None, _) => equal_range(run, |&(x, _, _)| x.cmp(&a)),
        (Some(a), Some(b), None) => equal_range(run, |&(x, y, _)| (x, y).cmp(&(a, b))),
        (Some(a), Some(b), Some(c)) => equal_range(run, |k| k.cmp(&(a, b, c))),
    }
}

/// The sub-slice of a sorted pair run with first component `a` (or all).
#[inline]
fn pair_prefix_slice(run: &[Pair], a: Option<u32>) -> &[Pair] {
    match a {
        None => run,
        Some(a) => equal_range(run, |&(x, _)| x.cmp(&a)),
    }
}

/// A zero-allocation pattern scan: the live keys of one prefix range of
/// one run, decoded to [`Triple`]s on the fly. For predicate-bound shapes
/// the range comes from one predicate's page (pairs `(o, s)` with the
/// fixed predicate re-attached during decoding).
///
/// Yields triples in the permutation's sort order. The length is exact
/// ([`ExactSizeIterator`]), because every pattern shape maps to pure
/// prefix ranges — no residual filtering — and the tombstones of a range
/// are a subset of its main-run keys.
#[derive(Debug, Clone)]
pub struct PatternScan<'a> {
    mode: ScanMode<'a>,
}

#[derive(Debug, Clone)]
enum ScanMode<'a> {
    /// A flat-run scan (SPO or OSP order).
    Flat { keys: LiveKeys<'a, Key>, perm: Perm },
    /// One predicate's page (POS order within the page: by `(o, s)`).
    Page {
        pred: u32,
        pairs: LiveKeys<'a, Pair>,
    },
}

impl PatternScan<'_> {
    /// An always-empty scan.
    fn empty() -> PatternScan<'static> {
        PatternScan {
            mode: ScanMode::Flat {
                keys: LiveKeys {
                    main: &[],
                    buf: &[],
                    later: &[],
                    dead: &[],
                },
                perm: Perm::Spo,
            },
        }
    }
}

impl Iterator for PatternScan<'_> {
    type Item = Triple;

    #[inline]
    fn next(&mut self) -> Option<Triple> {
        match &mut self.mode {
            ScanMode::Flat { keys, perm } => keys.next().map(|k| perm.decode(k)),
            ScanMode::Page { pred, pairs } => pairs
                .next()
                .map(|(o, s)| Triple::new(TermId(s), TermId(*pred), TermId(o))),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len();
        (n, Some(n))
    }

    #[inline]
    fn count(self) -> usize {
        self.len()
    }
}

impl ExactSizeIterator for PatternScan<'_> {
    #[inline]
    fn len(&self) -> usize {
        match &self.mode {
            ScanMode::Flat { keys, .. } => keys.len(),
            ScanMode::Page { pairs, .. } => pairs.len(),
        }
    }
}

/// An in-memory, dictionary-encoded triple store.
///
/// Any triple pattern shape is answered by a contiguous prefix range on
/// one of the three permutations:
///
/// | bound          | index | prefix      |
/// |----------------|-------|-------------|
/// | `s` / `s,p` / `s,p,o` | SPO | `s` / `s,p` / `s,p,o` |
/// | `p` / `p,o`    | POS page for `p` | `·` / `o` |
/// | `o` / `o,s`    | OSP   | `o` / `o,s` |
/// | nothing        | SPO   | full run    |
///
/// The store is append-mostly (plus [`TripleStore::remove`]) and
/// single-writer; the endpoint layer wraps it for shared access. All read
/// methods take `&self` and never allocate for the scan itself.
#[derive(Debug, Clone)]
pub struct TripleStore {
    dict: Dict,
    spo: Run<Key>,
    osp: Run<Key>,
    /// Per-predicate POS pages, sorted by predicate id.
    pages: Vec<PredPage>,
    merge_threshold: usize,
    /// Bumped on every successful mutation; snapshots record the value
    /// they were taken at, so staleness is a subtraction.
    generation: u64,
    /// XOR of [`fingerprint_mix`] over the live triples, kept current by
    /// every mutation.
    fold: u64,
}

impl Default for TripleStore {
    fn default() -> Self {
        Self {
            dict: Dict::new(),
            spo: Run::default(),
            osp: Run::default(),
            pages: Vec::new(),
            merge_threshold: DEFAULT_MERGE_THRESHOLD,
            generation: 0,
            fold: 0,
        }
    }
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The term dictionary.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// Mutable access to the dictionary (to pre-intern vocabulary).
    pub fn dict_mut(&mut self) -> &mut Dict {
        &mut self.dict
    }

    /// The mutation counter: bumped once per successful `insert`,
    /// `remove`, or batch call that changed anything. Snapshots record it, so
    /// `store.generation() - snapshot.version()` is the number of writes
    /// a snapshot is behind.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Publishes the current contents as an immutable, shareable
    /// [`StoreSnapshot`]: applies the pending inserts and tombstones,
    /// then clones the `Arc`s of every main run and dictionary segment.
    /// No triple is copied and the writer may keep mutating `self`; the
    /// module docs give the whole cost model.
    pub fn snapshot(&mut self) -> StoreSnapshot {
        self.flush();
        let published = TripleStore {
            dict: self.dict.snapshot(),
            spo: self.spo.clone(),
            osp: self.osp.clone(),
            pages: self.pages.clone(),
            merge_threshold: self.merge_threshold,
            generation: self.generation,
            fold: self.fold,
        };
        StoreSnapshot::new(published, self.generation)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// Whether the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An order-independent fingerprint of the triple set (ids under this
    /// store's dictionary): [`crate::snapshot::fingerprint_of`] its
    /// triples, but read from a fold every mutation keeps current, so
    /// O(1). Two stores holding the same triples agree; any inserted or
    /// removed triple changes it with high probability. The durable log
    /// seals it into every commit, and the concurrency stress tests use it
    /// to assert that readers observe exactly a published state, never a
    /// torn intermediate one.
    pub fn fingerprint(&self) -> u64 {
        self.fold ^ self.len() as u64
    }

    /// Overrides the merge threshold of the flat runs (tuning / test
    /// knob).
    pub fn set_merge_threshold(&mut self, threshold: usize) {
        self.merge_threshold = threshold.max(1);
        self.maybe_merge();
    }

    /// Interns a term in this store's dictionary.
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.dict.intern(term)
    }

    /// The POS page for predicate `p`, if it exists.
    #[inline]
    fn page(&self, p: u32) -> Option<&PredPage> {
        self.pages
            .binary_search_by_key(&p, |page| page.pred)
            .ok()
            .map(|at| &self.pages[at])
    }

    /// The POS page for predicate `p`, created (empty) if absent.
    #[inline]
    fn page_mut(&mut self, p: u32) -> &mut PredPage {
        match self.pages.binary_search_by_key(&p, |page| page.pred) {
            Ok(at) => &mut self.pages[at],
            Err(at) => {
                self.pages.insert(
                    at,
                    PredPage {
                        pred: p,
                        ..PredPage::default()
                    },
                );
                &mut self.pages[at]
            }
        }
    }

    /// Records one successful single-triple mutation.
    fn mutated(&mut self, (s, p, o): Key) {
        self.fold ^= fingerprint_mix(s, p, o);
        self.generation += 1;
        self.maybe_merge();
    }

    /// Inserts an encoded triple. Returns `false` if it was already present.
    pub fn insert(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let key = (s.0, p.0, o.0);
        if self.spo.contains(&key) {
            return false;
        }
        self.spo.add(key);
        self.osp.add((o.0, s.0, p.0));
        let page = self.page_mut(p.0);
        page.pairs.add((o.0, s.0));
        if page.pairs.is_due(PAGE_BUFFER_THRESHOLD) {
            page.pairs.apply(Vec::new());
        }
        self.mutated(key);
        true
    }

    /// Interns the three terms and inserts the triple.
    pub fn insert_terms(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let s = self.dict.intern(s);
        let p = self.dict.intern(p);
        let o = self.dict.intern(o);
        self.insert(s, p, o)
    }

    /// Bulk-loads encoded triples: one sort + dedup of the batch, then one
    /// pass per touched run that applies the batch together with whatever
    /// that run had pending, instead of a sorted-buffer memmove per
    /// triple. Returns the number of *new* triples inserted (duplicates
    /// within the batch and against the store are skipped).
    pub fn load_batch(&mut self, triples: impl IntoIterator<Item = Ids>) -> usize {
        self.write_batch(triples, true)
    }

    /// Bulk-removes encoded triples, the mirror of `load_batch`: one sort
    /// and dedup, then per touched run one sorted merge of the live keys
    /// into its buffers, applied only if one comes due. Returns the number
    /// of triples removed (duplicates and absent triples are skipped).
    pub fn remove_batch(&mut self, triples: impl IntoIterator<Item = Ids>) -> usize {
        self.write_batch(triples, false)
    }

    /// `load_batch` (`add`) or `remove_batch`.
    fn write_batch(&mut self, triples: impl IntoIterator<Item = Ids>, add: bool) -> usize {
        let mut batch: Vec<Key> = triples
            .into_iter()
            .map(|(s, p, o)| (s.0, p.0, o.0))
            .collect();
        batch.sort_unstable();
        batch.dedup();
        batch.retain(|key| self.spo.contains(key) != add);
        if batch.is_empty() {
            return 0;
        }
        let written = batch.len();
        // `batch` now holds exactly the triples whose presence flips.
        for &(s, p, o) in &batch {
            self.fold ^= fingerprint_mix(s, p, o);
        }

        // OSP: re-key and sort once.
        let mut osp_batch: Vec<Key> = batch.iter().map(|&(s, p, o)| (o, s, p)).collect();
        osp_batch.sort_unstable();
        self.osp.write(osp_batch, add);

        // POS pages: sort the batch by (p, o, s) and hand each predicate's
        // contiguous sub-run to its page.
        let mut pos_batch: Vec<Key> = batch.iter().map(|&(s, p, o)| (p, o, s)).collect();
        pos_batch.sort_unstable();
        for group in pos_batch.chunk_by(|a, b| a.0 == b.0) {
            let pairs = &mut self.page_mut(group[0].0).pairs;
            pairs.write(group.iter().map(|&(_, o, s)| (o, s)).collect(), add);
            if pairs.is_due(PAGE_BUFFER_THRESHOLD) {
                pairs.apply(Vec::new());
            }
        }

        // SPO: the batch is already in SPO order.
        self.spo.write(batch, add);
        self.generation += 1;
        self.maybe_merge();
        written
    }

    /// Interns and bulk-loads term triples (see [`TripleStore::load_batch`]).
    pub fn load_batch_terms<'t>(
        &mut self,
        triples: impl IntoIterator<Item = (&'t Term, &'t Term, &'t Term)>,
    ) -> usize {
        let dict = &mut self.dict;
        let keys: Vec<(TermId, TermId, TermId)> = triples
            .into_iter()
            .map(|(s, p, o)| (dict.intern(s), dict.intern(p), dict.intern(o)))
            .collect();
        self.load_batch(keys)
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let key = (s.0, p.0, o.0);
        if !self.spo.contains(&key) {
            return false;
        }
        self.spo.delete(key);
        self.osp.delete((o.0, s.0, p.0));
        let page = self.page_mut(p.0);
        page.pairs.delete((o.0, s.0));
        if page.pairs.is_due(PAGE_BUFFER_THRESHOLD) {
            page.pairs.apply(Vec::new());
        }
        self.mutated(key);
        true
    }

    /// Applies every pending insert and tombstone to its main run. Reads
    /// are exact either way; this only compacts (useful after a bulk
    /// load), and runs with nothing pending are left alone.
    pub fn flush(&mut self) {
        self.spo.apply(Vec::new());
        self.osp.apply(Vec::new());
        for page in &mut self.pages {
            page.pairs.apply(Vec::new());
        }
    }

    fn maybe_merge(&mut self) {
        if self.spo.is_due(self.merge_threshold) {
            self.flush();
        }
    }

    /// Existence probe for a fully-bound triple.
    pub fn contains(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.spo.contains(&(s.0, p.0, o.0))
    }

    /// Borrowed range scan for `pattern`: binary-search prefix bounds on
    /// the selected permutation (a predicate page for `p`-bound shapes),
    /// returning a zero-allocation iterator over the live keys in range.
    ///
    /// Always inlined: callers mostly pass a pattern of known shape, which
    /// folds the dispatch below away and spares returning the scan state
    /// through memory (a sixth of what a subject-prefix probe costs).
    #[inline(always)]
    pub fn scan_range(&self, pattern: TriplePattern) -> PatternScan<'_> {
        let TriplePattern { s, p, o } = pattern;
        let (s, p, o) = (s.map(|t| t.0), p.map(|t| t.0), o.map(|t| t.0));
        match (s, p, o) {
            // Predicate bound, subject free: one page answers it.
            (None, Some(p), o) => match self.page(p) {
                Some(page) => PatternScan {
                    mode: ScanMode::Page {
                        pred: p,
                        pairs: page.pairs.select(|run| pair_prefix_slice(run, o)),
                    },
                },
                None => PatternScan::empty(),
            },
            (s, _, o) => {
                let (perm, [a, b, c]) = match (s, p, o) {
                    (Some(s), Some(p), o) => (Perm::Spo, [Some(s), Some(p), o]),
                    (Some(s), None, Some(o)) => (Perm::Osp, [Some(o), Some(s), None]),
                    (Some(s), None, None) => (Perm::Spo, [Some(s), None, None]),
                    (None, None, Some(o)) => (Perm::Osp, [Some(o), None, None]),
                    (None, None, None) => (Perm::Spo, [None, None, None]),
                    (None, Some(_), _) => unreachable!("handled by the page arm"),
                };
                let run = match perm {
                    Perm::Spo => &self.spo,
                    Perm::Osp => &self.osp,
                };
                PatternScan {
                    mode: ScanMode::Flat {
                        keys: run.select(|run| prefix_slice(run, a, b, c)),
                        perm,
                    },
                }
            }
        }
    }

    /// Scans all triples matching `pattern` (alias of
    /// [`TripleStore::scan_range`], kept for API continuity).
    #[inline]
    pub fn scan(&self, pattern: TriplePattern) -> PatternScan<'_> {
        self.scan_range(pattern)
    }

    /// Exact number of triples matching `pattern`: O(1) page length for a
    /// predicate pattern, O(log n) prefix bounds otherwise — no iteration.
    #[inline]
    pub fn count_pattern(&self, pattern: TriplePattern) -> usize {
        if let TriplePattern {
            s: None,
            p: Some(p),
            o: None,
        } = pattern
        {
            return self.page(p.0).map_or(0, |page| page.pairs.len());
        }
        self.scan_range(pattern).len()
    }

    /// Number of triples matching `pattern` (same as
    /// [`TripleStore::count_pattern`]).
    pub fn count(&self, pattern: TriplePattern) -> usize {
        self.count_pattern(pattern)
    }

    /// All triples with predicate `p`.
    pub fn triples_with_predicate(&self, p: TermId) -> impl Iterator<Item = Triple> + '_ {
        self.scan_range(TriplePattern::with_p(p))
    }

    /// The `(object, subject)` pairs of predicate `p`, ascending by
    /// `(o, s)` — a direct page walk used by the statistics pass.
    pub fn predicate_pairs(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.scan_range(TriplePattern::with_p(p))
            .map(|t| (t.o, t.s))
    }

    /// All triples with subject `s`.
    pub fn triples_with_subject(&self, s: TermId) -> impl Iterator<Item = Triple> + '_ {
        self.scan_range(TriplePattern::with_s(s))
    }

    /// The distinct predicates in the store, ascending by id — a walk over
    /// the page directory, O(#predicates).
    pub fn predicates(&self) -> Vec<TermId> {
        self.pages
            .iter()
            .filter(|page| page.pairs.len() > 0)
            .map(|page| TermId(page.pred))
            .collect()
    }

    /// Distinct subjects across the whole store, counted in one linear
    /// pass over the SPO order.
    pub fn distinct_subject_count(&self) -> usize {
        distinct_firsts(self.spo.select(|run| run))
    }

    /// Distinct objects across the whole store, counted in one linear pass
    /// over the OSP order.
    pub fn distinct_object_count(&self) -> usize {
        distinct_firsts(self.osp.select(|run| run))
    }

    /// Distinct subjects of predicate `p`, ascending by id.
    pub fn subjects_of(&self, p: TermId) -> Vec<TermId> {
        let mut subjects: Vec<u32> = self.triples_with_predicate(p).map(|t| t.s.0).collect();
        subjects.sort_unstable();
        subjects.dedup();
        subjects.into_iter().map(TermId).collect()
    }

    /// Distinct objects of predicate `p`, ascending by id. The page is
    /// sorted by object, so this is a linear dedup walk.
    pub fn objects_of(&self, p: TermId) -> Vec<TermId> {
        let mut objects = Vec::new();
        let mut last = None;
        for (o, _) in self.predicate_pairs(p) {
            if last != Some(o) {
                objects.push(o);
                last = Some(o);
            }
        }
        objects
    }

    /// Resolves a triple back to terms (for display / serialisation).
    pub fn resolve(&self, t: Triple) -> (&Term, &Term, &Term) {
        (
            self.dict.resolve(t.s),
            self.dict.resolve(t.p),
            self.dict.resolve(t.o),
        )
    }

    /// Iterates over all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.scan_range(TriplePattern::any())
    }
}

impl StoreSnapshot {
    /// What changed from `older` to this snapshot: the `(s, p, o)` id keys
    /// this snapshot holds and `older` does not, and those `older` holds
    /// and this one does not, each ascending. Both must be snapshots of one
    /// writer, whose ids only grow and name the same terms in both.
    ///
    /// It costs the pages written in between, not the store. A snapshot is
    /// flushed, so a predicate's POS page is its main run alone: the walk
    /// goes through the two page directories in predicate order, skips
    /// every page whose main run is the same `Arc` in both, diffs the rest
    /// two-pointer and sorts what they yield. The skip holds for any two
    /// live snapshots: a main run is changed in place only while nothing
    /// else holds it, and each snapshot holds its own for as long as it
    /// lives.
    pub fn diff_since(&self, older: &StoreSnapshot) -> (Vec<Key>, Vec<Key>) {
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let (mut new, mut old) = (&self.store().pages[..], &older.store().pages[..]);
        loop {
            let pred = match (new.first(), old.first()) {
                (None, None) => break,
                (Some(n), Some(o)) => n.pred.min(o.pred),
                (Some(page), None) | (None, Some(page)) => page.pred,
            };
            let (n, o) = (next_page(&mut new, pred), next_page(&mut old, pred));
            if n.zip(o).is_some_and(|(n, o)| Arc::ptr_eq(n, o)) {
                continue;
            }
            let (n, o) = (n.map_or(&[][..], |run| run), o.map_or(&[][..], |run| run));
            diff_runs(n, o, |(o, s), in_newer| {
                let side = if in_newer { &mut added } else { &mut removed };
                side.push((s, pred, o));
            });
        }
        added.sort_unstable();
        removed.sort_unstable();
        (added, removed)
    }
}

impl StoreSnapshot {
    /// The distinct predicates of the triples with one of `terms` as
    /// subject, then of those with one as object, each ascending; `terms`
    /// must ascend. A snapshot is flushed, so the SPO and OSP runs are
    /// their main runs alone: one forward walk of each, galloping from
    /// term to term, costs the terms and their triples, not the store.
    pub fn predicates_touching(&self, terms: &[TermId]) -> [Vec<TermId>; 2] {
        let store = self.store();
        [(&store.spo.main, Perm::Spo), (&store.osp.main, Perm::Osp)].map(|(run, perm)| {
            let (mut rest, mut found) = (&run[..], Vec::new());
            for &TermId(term) in terms {
                rest = &rest[gallop_by(rest, |k| k.0 < term)..];
                let (touching, after) = rest.split_at(gallop_by(rest, |k| k.0 == term));
                found.extend(touching.iter().map(|&k| perm.decode(k).p));
                rest = after;
            }
            found.sort_unstable();
            found.dedup();
            found
        })
    }
}

/// The main run of `pred`'s page if the directory `pages` starts with it,
/// which it then moves past.
fn next_page<'a>(pages: &mut &'a [PredPage], pred: u32) -> Option<&'a Arc<Vec<Pair>>> {
    let (page, rest) = pages.split_first().filter(|(page, _)| page.pred == pred)?;
    *pages = rest;
    Some(&page.pairs.main)
}

/// Walks two sorted runs in step and hands `found` each key only one of
/// them holds, with `true` if that is `new`.
fn diff_runs<T: Copy + Ord>(mut new: &[T], mut old: &[T], mut found: impl FnMut(T, bool)) {
    while let (Some((&n, new_rest)), Some((&o, old_rest))) = (new.split_first(), old.split_first())
    {
        match n.cmp(&o) {
            Ordering::Less => {
                found(n, true);
                new = new_rest;
            }
            Ordering::Greater => {
                found(o, false);
                old = old_rest;
            }
            Ordering::Equal => {
                new = new_rest;
                old = old_rest;
            }
        }
    }
    new.iter().for_each(|&n| found(n, true));
    old.iter().for_each(|&o| found(o, false));
}

/// How many distinct first components a run's live keys have.
fn distinct_firsts(keys: LiveKeys<'_, Key>) -> usize {
    let mut n = 0usize;
    let mut last = None;
    for (first, _, _) in keys {
        if last != Some(first) {
            n += 1;
            last = Some(first);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn store_with(facts: &[(&str, &str, &str)]) -> TripleStore {
        let mut s = TripleStore::new();
        for (a, b, c) in facts {
            s.insert_terms(&Term::iri(*a), &Term::iri(*b), &Term::iri(*c));
        }
        s
    }

    #[test]
    fn insert_is_deduplicating() {
        let mut s = TripleStore::new();
        assert!(s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b")));
        assert!(!s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_dedup_across_merge_boundary() {
        let mut s = TripleStore::new();
        s.set_merge_threshold(2);
        assert!(s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b")));
        assert!(s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("c")));
        // First triple now lives in the main run; duplicate must be caught.
        assert!(!s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::iri("b")));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut s = store_with(&[("a", "p", "b")]);
        let (a, p, b) = (
            s.dict().lookup_iri("a").unwrap(),
            s.dict().lookup_iri("p").unwrap(),
            s.dict().lookup_iri("b").unwrap(),
        );
        assert!(s.remove(a, p, b));
        assert!(!s.remove(a, p, b));
        assert_eq!(s.len(), 0);
        assert_eq!(s.count(TriplePattern::with_p(p)), 0);
        assert_eq!(s.count(TriplePattern::with_o(b)), 0);
    }

    #[test]
    fn remove_from_main_run_after_flush() {
        let mut s = store_with(&[("a", "p", "b"), ("a", "p", "c"), ("b", "q", "a")]);
        s.flush();
        let (a, p, b) = (
            s.dict().lookup_iri("a").unwrap(),
            s.dict().lookup_iri("p").unwrap(),
            s.dict().lookup_iri("b").unwrap(),
        );
        assert!(s.remove(a, p, b));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(a, p, b));
        assert_eq!(s.count(TriplePattern::with_sp(a, p)), 1);
        // Reinsertion after a main-run removal works (goes to the buffer).
        assert!(s.insert(a, p, b));
        assert!(s.contains(a, p, b));
    }

    #[test]
    fn scan_each_pattern_shape_agrees_with_filtering() {
        let s = store_with(&[
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("a", "q", "b"),
            ("b", "p", "c"),
            ("c", "q", "a"),
        ]);
        let ids: Vec<TermId> = ["a", "b", "c", "p", "q"]
            .iter()
            .map(|n| s.dict().lookup_iri(n).unwrap())
            .collect();
        let (a, b, c, p, q) = (ids[0], ids[1], ids[2], ids[3], ids[4]);

        let all: Vec<Triple> = s.iter().collect();
        let shapes = vec![
            TriplePattern::any(),
            TriplePattern::with_s(a),
            TriplePattern::with_p(p),
            TriplePattern::with_o(b),
            TriplePattern::with_sp(a, p),
            TriplePattern::with_po(q, b),
            TriplePattern::with_so(a, c),
            TriplePattern::exact(b, p, c),
            TriplePattern::exact(b, p, b),
        ];
        for pat in shapes {
            let scanned: BTreeSet<Triple> = s.scan(pat).collect();
            let filtered: BTreeSet<Triple> =
                all.iter().copied().filter(|t| pat.matches(t)).collect();
            assert_eq!(scanned, filtered, "pattern {pat:?}");
            assert_eq!(s.count_pattern(pat), filtered.len(), "count {pat:?}");
            assert_eq!(s.scan(pat).len(), filtered.len(), "exact size {pat:?}");
        }
        let _ = c;
    }

    /// `count_pattern` against brute-force counts over every shape, with a
    /// split main-run/buffer state (threshold forces partial merges).
    #[test]
    fn count_pattern_matches_brute_force_across_runs() {
        let mut s = TripleStore::new();
        s.set_merge_threshold(8);
        // A deterministic pseudo-random fact mix with duplicates.
        let mut x: u32 = 7;
        let mut facts = Vec::new();
        for _ in 0..200 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let sid = (x >> 3) % 13;
            let pid = (x >> 9) % 5;
            let oid = (x >> 16) % 11;
            facts.push((format!("s{sid}"), format!("p{pid}"), format!("o{oid}")));
        }
        for (a, b, c) in &facts {
            s.insert_terms(
                &Term::iri(a.clone()),
                &Term::iri(b.clone()),
                &Term::iri(c.clone()),
            );
        }
        let all: Vec<Triple> = s.iter().collect();
        assert_eq!(all.len(), s.len());

        let ids: Vec<Option<TermId>> = (0..14)
            .map(|i| s.dict().lookup_iri(&format!("s{i}")))
            .collect();
        let pids: Vec<Option<TermId>> = (0..6)
            .map(|i| s.dict().lookup_iri(&format!("p{i}")))
            .collect();
        let oids: Vec<Option<TermId>> = (0..12)
            .map(|i| s.dict().lookup_iri(&format!("o{i}")))
            .collect();
        for &sid in ids.iter().chain([None].iter()) {
            for &pid in pids.iter().chain([None].iter()) {
                for &oid in oids.iter().chain([None].iter()) {
                    let pat = TriplePattern {
                        s: sid,
                        p: pid,
                        o: oid,
                    };
                    let brute = all.iter().filter(|t| pat.matches(t)).count();
                    assert_eq!(s.count_pattern(pat), brute, "pattern {pat:?}");
                }
            }
        }
    }

    /// Insert-buffer merge around duplicates and removed triples: the
    /// store must agree with a BTreeSet model under a mixed op sequence
    /// that repeatedly crosses the merge threshold.
    #[test]
    fn buffer_merge_agrees_with_set_model() {
        let mut s = TripleStore::new();
        s.set_merge_threshold(4);
        let mut model: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
        let mut x: u32 = 99;
        for step in 0..600 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let sid = s.intern(&Term::iri(format!("s{}", (x >> 3) % 9)));
            let pid = s.intern(&Term::iri(format!("p{}", (x >> 9) % 4)));
            let oid = s.intern(&Term::iri(format!("o{}", (x >> 16) % 9)));
            if step % 5 == 4 {
                let was = s.remove(sid, pid, oid);
                assert_eq!(was, model.remove(&(sid.0, pid.0, oid.0)), "step {step}");
            } else {
                let fresh = s.insert(sid, pid, oid);
                assert_eq!(fresh, model.insert((sid.0, pid.0, oid.0)), "step {step}");
            }
            assert_eq!(s.len(), model.len(), "step {step}");
        }
        let scanned: BTreeSet<(u32, u32, u32)> = s.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
        assert_eq!(scanned, model);
        // Spot-check pattern counts after the churn.
        for p in s.predicates() {
            let brute = model.iter().filter(|&&(_, kp, _)| kp == p.0).count();
            assert_eq!(s.count_pattern(TriplePattern::with_p(p)), brute);
        }
        s.flush();
        let scanned: BTreeSet<(u32, u32, u32)> = s.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
        assert_eq!(scanned, model);
    }

    #[test]
    fn load_batch_agrees_with_incremental_inserts() {
        let mut incremental = TripleStore::new();
        let mut batched = TripleStore::new();
        let mut x: u32 = 5;
        let mut batch = Vec::new();
        for _ in 0..400 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let (si, pi, oi) = ((x >> 3) % 17, (x >> 9) % 6, (x >> 16) % 13);
            let (s, p, o) = (
                Term::iri(format!("s{si}")),
                Term::iri(format!("p{pi}")),
                Term::iri(format!("o{oi}")),
            );
            incremental.insert_terms(&s, &p, &o);
            let key = (batched.intern(&s), batched.intern(&p), batched.intern(&o));
            batch.push(key);
        }
        let inserted = batched.load_batch(batch.clone());
        assert_eq!(inserted, incremental.len());
        assert_eq!(batched.len(), incremental.len());
        // Re-loading the same batch inserts nothing.
        assert_eq!(batched.load_batch(batch), 0);
        let a: Vec<(u32, u32, u32)> = incremental.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
        let b: Vec<(u32, u32, u32)> = batched.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
        assert_eq!(a, b);
        // Per-pattern agreement on every predicate.
        for p in incremental.predicates() {
            assert_eq!(
                batched.count_pattern(TriplePattern::with_p(p)),
                incremental.count_pattern(TriplePattern::with_p(p))
            );
        }
    }

    #[test]
    fn load_batch_onto_populated_store_dedups_and_merges() {
        let mut s = store_with(&[("a", "p", "b"), ("c", "q", "d")]);
        let keys = [
            ("a", "p", "b"), // duplicate of existing
            ("a", "p", "z"),
            ("e", "r", "f"),
            ("e", "r", "f"), // in-batch duplicate
        ]
        .map(|(a, b, c)| {
            (
                s.intern(&Term::iri(a)),
                s.intern(&Term::iri(b)),
                s.intern(&Term::iri(c)),
            )
        });
        assert_eq!(s.load_batch(keys), 2);
        assert_eq!(s.len(), 4);
        let p = s.dict().lookup_iri("p").unwrap();
        let r = s.dict().lookup_iri("r").unwrap();
        assert_eq!(s.count_pattern(TriplePattern::with_p(p)), 2);
        assert_eq!(s.count_pattern(TriplePattern::with_p(r)), 1);
    }

    #[test]
    fn scan_is_sorted_in_permutation_order_across_runs() {
        let mut s = TripleStore::new();
        s.set_merge_threshold(3);
        for i in [5u32, 1, 9, 3, 7, 2, 8] {
            s.insert_terms(
                &Term::iri(format!("s{i}")),
                &Term::iri("p"),
                &Term::iri(format!("o{i}")),
            );
        }
        let keys: Vec<(u32, u32, u32)> = s.iter().map(|t| (t.s.0, t.p.0, t.o.0)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "SPO order: {keys:?}");
        // POS page order: by (o, s) within the single predicate.
        let p = s.dict().lookup_iri("p").unwrap();
        let pairs: Vec<(u32, u32)> = s.predicate_pairs(p).map(|(o, su)| (o.0, su.0)).collect();
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "page order: {pairs:?}"
        );
    }

    #[test]
    fn predicates_are_distinct_and_sorted() {
        let s = store_with(&[("a", "p", "b"), ("b", "p", "c"), ("a", "q", "b")]);
        let preds = s.predicates();
        assert_eq!(preds.len(), 2);
        assert!(preds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn emptied_page_is_not_reported_as_predicate() {
        let mut s = store_with(&[("a", "p", "b"), ("a", "q", "c")]);
        let (a, p, b) = (
            s.dict().lookup_iri("a").unwrap(),
            s.dict().lookup_iri("p").unwrap(),
            s.dict().lookup_iri("b").unwrap(),
        );
        assert!(s.remove(a, p, b));
        assert_eq!(s.predicates().len(), 1);
        assert_eq!(s.count_pattern(TriplePattern::with_p(p)), 0);
    }

    #[test]
    fn subjects_objects_helpers() {
        let s = store_with(&[
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "p", "c"),
            ("a", "q", "d"),
        ]);
        let p = s.dict().lookup_iri("p").unwrap();
        assert_eq!(s.subjects_of(p).len(), 2);
        assert_eq!(s.objects_of(p).len(), 2);
    }

    #[test]
    fn store_level_distinct_counts_match_sets() {
        let mut s = TripleStore::new();
        s.set_merge_threshold(4);
        let mut x: u32 = 3;
        let mut subjects = BTreeSet::new();
        let mut objects = BTreeSet::new();
        for _ in 0..100 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let (si, pi, oi) = ((x >> 3) % 11, (x >> 9) % 3, (x >> 16) % 7);
            let sid = s.intern(&Term::iri(format!("s{si}")));
            let pid = s.intern(&Term::iri(format!("p{pi}")));
            let oid = s.intern(&Term::iri(format!("o{oi}")));
            if s.insert(sid, pid, oid) {
                subjects.insert(sid.0);
                objects.insert(oid.0);
            }
        }
        assert_eq!(s.distinct_subject_count(), subjects.len());
        assert_eq!(s.distinct_object_count(), objects.len());
    }

    #[test]
    fn contains_probe() {
        let s = store_with(&[("a", "p", "b")]);
        let (a, p, b) = (
            s.dict().lookup_iri("a").unwrap(),
            s.dict().lookup_iri("p").unwrap(),
            s.dict().lookup_iri("b").unwrap(),
        );
        assert!(s.contains(a, p, b));
        assert!(!s.contains(b, p, a));
    }

    /// Regression guard for the old `prefix_range` successor arithmetic:
    /// a dictionary larger than `u16::MAX` terms probed at its maximum
    /// assigned id, and raw probes at `u32::MAX`, must neither panic nor
    /// miss triples.
    #[test]
    fn prefix_bounds_handle_max_ids() {
        let mut s = TripleStore::new();
        // Intern more than u16::MAX terms so ids outgrow 16 bits.
        let n = u32::from(u16::MAX) + 5;
        for i in 0..n {
            s.dict_mut().intern(&Term::iri(format!("filler{i}")));
        }
        let p = s.intern(&Term::iri("p"));
        let max_s = s.intern(&Term::iri("subject-with-max-id"));
        assert!(max_s.0 > u32::from(u16::MAX));
        let o = s.intern(&Term::iri("object"));
        s.insert(max_s, p, o);

        // The highest assigned ids appear in every position.
        assert_eq!(s.count_pattern(TriplePattern::with_s(max_s)), 1);
        assert_eq!(s.count_pattern(TriplePattern::with_sp(max_s, p)), 1);
        assert_eq!(s.count_pattern(TriplePattern::with_so(max_s, o)), 1);
        assert_eq!(s.count_pattern(TriplePattern::exact(max_s, p, o)), 1);
        assert_eq!(s.scan(TriplePattern::with_s(max_s)).count(), 1);

        // Saturated raw ids (foreign to the dictionary) are safe probes.
        let max = TermId(u32::MAX);
        assert_eq!(s.count_pattern(TriplePattern::with_s(max)), 0);
        assert_eq!(s.count_pattern(TriplePattern::with_sp(max, max)), 0);
        assert_eq!(s.count_pattern(TriplePattern::exact(max, max, max)), 0);
        assert_eq!(s.scan(TriplePattern::with_o(max)).count(), 0);
        assert_eq!(s.scan(TriplePattern::with_p(max)).count(), 0);
        assert_eq!(s.count_pattern(TriplePattern::with_po(max, max)), 0);
        assert!(!s.contains(max, max, max));
    }

    /// The ids the galloped-bounds property draws from: both ends of the
    /// id space and a few neighbours of each.
    fn edge_id(i: u32) -> u32 {
        match i % 8 {
            low @ 0..4 => low,
            high => u32::MAX - (7 - high),
        }
    }

    /// `prefix_slice` as two full binary searches, the definition the
    /// galloped bounds must reproduce.
    fn searched_prefix(run: &[Key], a: Option<u32>, b: Option<u32>, c: Option<u32>) -> &[Key] {
        let (lo, hi) = match (a, b, c) {
            (None, _, _) => (0, run.len()),
            (Some(a), None, _) => (
                run.partition_point(|&(x, _, _)| x < a),
                run.partition_point(|&(x, _, _)| x <= a),
            ),
            (Some(a), Some(b), None) => (
                run.partition_point(|&(x, y, _)| (x, y) < (a, b)),
                run.partition_point(|&(x, y, _)| (x, y) <= (a, b)),
            ),
            (Some(a), Some(b), Some(c)) => (
                run.partition_point(|&k| k < (a, b, c)),
                run.partition_point(|&k| k <= (a, b, c)),
            ),
        };
        &run[lo..hi]
    }

    fn same_range<T>(x: &[T], y: &[T]) -> bool {
        (x.as_ptr(), x.len()) == (y.as_ptr(), y.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Galloping to the end of a range finds the bounds two binary
        /// searches find, on runs where one subject (and one subject-
        /// predicate pair) owns thousands of keys, with ids at 0 and
        /// `u32::MAX`: every SPO/OSP prefix depth, and the POS pages.
        #[test]
        fn galloped_bounds_equal_two_binary_searches(
            heavy in (0u32..8, 0u32..8, 0usize..3000),
            noise in proptest::collection::vec((0u32..8, 0u32..8, 0u32..8), 0..40),
        ) {
            let (ha, hb, len) = heavy;
            let mut run: Vec<Key> = noise
                .iter()
                .map(|&(a, b, c)| (edge_id(a), edge_id(b), edge_id(c)))
                .collect();
            run.push((edge_id(ha), edge_id(hb), u32::MAX));
            for i in 0..len as u32 {
                let b = if i % 3 == 0 { edge_id(i) } else { edge_id(hb) };
                // A bijection on u32: distinct keys spread over the id space.
                run.push((edge_id(ha), b, i.wrapping_mul(2_654_435_761)));
            }
            run.sort_unstable();
            run.dedup();
            let mut pairs: Vec<Pair> = run.iter().map(|&(a, _, c)| (a, c)).collect();
            pairs.sort_unstable();
            pairs.dedup();

            let step = (run.len() / 64).max(1);
            let probes: Vec<Key> = (0..8)
                .flat_map(|a| (0..8).flat_map(move |b| (0..8).map(move |c| (a, b, c))))
                .map(|(a, b, c)| (edge_id(a), edge_id(b), edge_id(c)))
                .chain(run.iter().step_by(step).copied())
                .collect();
            prop_assert!(same_range(
                prefix_slice(&run, None, None, None),
                searched_prefix(&run, None, None, None),
            ));
            for &(a, b, c) in &probes {
                for (pb, pc) in [(None, None), (Some(b), None), (Some(b), Some(c))] {
                    prop_assert!(
                        same_range(
                            prefix_slice(&run, Some(a), pb, pc),
                            searched_prefix(&run, Some(a), pb, pc),
                        ),
                        "prefix ({a}, {pb:?}, {pc:?})"
                    );
                }
                let page = pair_prefix_slice(&pairs, Some(a));
                let lo = pairs.partition_point(|&(x, _)| x < a);
                let hi = pairs.partition_point(|&(x, _)| x <= a);
                prop_assert!(same_range(page, &pairs[lo..hi]), "page {a}");
            }
            prop_assert!(same_range(pair_prefix_slice(&pairs, None), &pairs));
        }
    }

    #[test]
    fn flush_is_idempotent_and_preserves_content() {
        let mut s = store_with(&[("a", "p", "b"), ("b", "p", "c")]);
        let before: Vec<Triple> = s.iter().collect();
        s.flush();
        s.flush();
        let after: Vec<Triple> = s.iter().collect();
        assert_eq!(before, after);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn resolve_round_trips_terms() {
        let mut s = TripleStore::new();
        s.insert_terms(&Term::iri("a"), &Term::iri("p"), &Term::literal("v"));
        let t = s.iter().next().unwrap();
        let (a, p, v) = s.resolve(t);
        assert_eq!(a, &Term::iri("a"));
        assert_eq!(p, &Term::iri("p"));
        assert_eq!(v, &Term::literal("v"));
    }
}
