//! The probe memo: what a live session's alignments already read.
//!
//! A session that is told of deltas re-mines the relations they dirty,
//! and a re-mine asks again almost every leaf query the last mine
//! asked: its sampling offsets come from counts a delta rarely moves,
//! and its probes name entities a delta rarely touches. The memo keeps
//! each answer of a prepared leaf — keyed by template token, arguments,
//! `LIMIT` and `OFFSET` — until a delta could have changed it, one memo
//! per side of the session.
//!
//! **A suspect** is an answer a delta could have changed. It leaves the
//! key table and the index, so no lookup serves it and no later delta
//! checks it, but it keeps its old answer, and its template keeps its
//! [`Prepared`]: a read-set holding it can ask it again
//! ([`Memo::suspects`]) and [`Memo::settle`] it. An equal answer files
//! it again; a different one is kept beside it as a fresh entry.
//!
//! **Invalidation** is per triple pattern: an answer depends only on
//! the triples its patterns match, and a pattern can match a changed
//! triple only if every one of its constants is in the delta
//! ([`crate::footprint::may_match`]; `UNION`, `OPTIONAL` and `EXISTS`
//! bodies are walked by the same [`crate::footprint::for_each_triple`]
//! the footprint uses). A pattern that may match is still **cleared**
//! when no solution can read a changed triple through it. A changed
//! triple binds each subject/object variable of the pattern to a delta
//! term; if that variable also fills the subject (object) of a
//! top-group pattern whose predicate is outside the delta, and the
//! delta's [`sofya_endpoint::PublishDelta::links`] say no delta term
//! has that predicate at that position, the solution would need a
//! triple neither snapshot holds. This holds for a pattern in the top
//! group or in the body of a top-level `EXISTS`/`NOT EXISTS`, where
//! the variable is the outer one, and it shows only that the solution
//! multiset is the same: it is used only for a template whose answer
//! is a function of that multiset (an `ASK`, a `COUNT`, or an
//! `ORDER BY` naming every projected variable). An answer becomes a
//! suspect if a pattern that may match is not cleared. Each pattern is
//! indexed under one constant — a subject or object term if it has
//! one, else its predicate — or, with none, on an always-check list, so
//! a delta finds its candidates through the index and costs its own
//! size, not the memo's.
//!
//! **Memory** is bounded by what the session caches: every entry counts
//! the read-sets that hold it — the cached relations whose last
//! alignment read it and the alignments in flight — and goes when the
//! last one lets go. The terms of its arguments and its answer are
//! shared through one map keyed by fingerprint, so a term many answers
//! name is stored once; a term whose fingerprint another term holds is
//! kept unshared. No shared term leaves the memo — lookups and suspects
//! get owned copies — so an entry that goes is a term's last holder
//! exactly when only the map holds it besides, and the term goes too.
//! A template's patterns are stored once, its constants as
//! fingerprints, with slots its entries' argument fingerprints fill. A
//! freed entry's slot changes generation, so a read-set that still
//! names it lets go of nothing. Keys are found by their 64-bit hash and
//! then compared; the rare second key on a taken hash is simply not
//! kept.

use crate::footprint::{fingerprint, for_each_triple, may_match, DeltaView, Place};
use sofya_endpoint::{Request, Response};
use sofya_rdf::{Fx, FxBuild, Term};
use sofya_sparql::ast::pattern_variables;
use sofya_sparql::{NodePattern, Prepared, Projection, Query, ResultSet};
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// Which endpoint of the session a memo, a delta or a read belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Source = 0,
    Target = 1,
}

/// The terms the entries share, by fingerprint.
type Terms = HashMap<u64, Arc<Term>, FxBuild>;

/// `term`, shared with the entries holding it already, or kept unshared
/// if another term holds its fingerprint.
fn share(terms: &mut Terms, term: &Term, fingerprint: u64) -> Arc<Term> {
    let shared = terms
        .entry(fingerprint)
        .or_insert_with(|| Arc::new(term.clone()));
    if **shared == *term {
        Arc::clone(shared)
    } else {
        Arc::new(term.clone())
    }
}

/// Lets go of `term`; its last holder takes a shared term out of the
/// map.
fn unshare(terms: &mut Terms, term: Arc<Term>) {
    // The map and this hold are all that is left.
    if Arc::strong_count(&term) == 2 {
        let fingerprint = fingerprint(&term);
        if terms
            .get(&fingerprint)
            .is_some_and(|shared| Arc::ptr_eq(shared, &term))
        {
            terms.remove(&fingerprint);
        }
    }
}

/// What identifies one leaf's answer: a template, its arguments and its
/// page. Filed under [`Key::hash`], which a request's terms give
/// without sharing them.
struct Key {
    token: u64,
    ask: bool,
    args: Box<[Arc<Term>]>,
    limit: Option<usize>,
    offset: Option<usize>,
}

impl Key {
    fn hash(&(ask, prepared, args, limit, offset): &Leaf<'_>) -> u64 {
        let mut h = Fx::default();
        h.write_u64(prepared.cache_token());
        h.write_u64(ask as u64);
        for bound in [limit, offset] {
            h.write_u64(bound.map_or(u64::MAX, |n| n as u64));
        }
        args.iter().for_each(|t| h.write_u64(fingerprint(t)));
        h.finish()
    }

    fn is(&self, &(ask, prepared, args, limit, offset): &Leaf<'_>) -> bool {
        self.token == prepared.cache_token()
            && (self.ask, self.limit, self.offset) == (ask, limit, offset)
            && self.args.iter().map(|t| &**t).eq(args)
    }
}

enum Answer {
    Boolean(bool),
    /// `rows` rows of the template's width, flattened.
    Rows {
        rows: usize,
        cells: Box<[Option<Arc<Term>>]>,
    },
}

struct Entry {
    /// Its hash in `by_key`.
    hash: u64,
    key: Key,
    /// The fingerprints of the key's arguments, for its patterns.
    fingerprints: Box<[u64]>,
    answer: Answer,
    /// The read-sets holding this entry.
    refs: u32,
    /// Out of `by_key` and the index: a delta may have changed it.
    suspect: bool,
}

/// Where a pattern is filed: under the fingerprint of a constant every
/// triple it matches carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Anchor {
    /// An all-variable pattern: checked on every delta.
    Any,
    Predicate(u64),
    Term(u64),
}

impl Anchor {
    /// A subject or object if the pattern has one (fewer answers share
    /// it), else its predicate.
    fn of([s, p, o]: [Option<u64>; 3]) -> Self {
        match (s.or(o), p) {
            (Some(term), _) => Anchor::Term(term),
            (None, Some(predicate)) => Anchor::Predicate(predicate),
            (None, None) => Anchor::Any,
        }
    }
}

/// A position of a template's triple pattern.
#[derive(Clone, Copy)]
enum Node {
    Free,
    /// The argument of this index.
    Param(usize),
    /// The fingerprint of a term the template writes.
    Constant(u64),
}

impl Node {
    /// The fingerprint of the constant an entry with argument
    /// fingerprints `args` has here, if any.
    fn constant(self, args: &[u64]) -> Option<u64> {
        match self {
            Node::Free => None,
            Node::Param(i) => args.get(i).copied(),
            Node::Constant(fingerprint) => Some(fingerprint),
        }
    }
}

/// Whether a query's answer is a function of its solution multiset: an
/// `ASK`, a `COUNT`, or rows whose `ORDER BY` names every projected
/// variable, so that rows it does not tell apart are equal. Never with
/// a `VALUES` table.
fn answers_by_solutions(query: &Query) -> bool {
    let select = match query {
        _ if query.pattern().has_inline_data() => return false,
        Query::Ask(_) => return true,
        Query::Select(select) => select,
    };
    let projected = match &select.projection {
        Projection::Count { .. } => return true,
        Projection::Vars(vars) => vars.clone(),
        Projection::Star => pattern_variables(&select.pattern),
    };
    projected
        .iter()
        .all(|var| select.order_by.iter().any(|key| key.var == *var))
}

/// A pattern's join partners that may clear it: `(predicate, position)`.
type Neighbours = Box<[(Node, usize)]>;

/// What the entries of one template share: the template itself, its
/// projection and its patterns.
struct Template {
    prepared: Arc<Prepared>,
    vars: Vec<String>,
    /// Every triple pattern, `[s, p, o]`.
    shape: Box<[[Node; 3]]>,
    /// Per pattern, what may clear it: for each top-group pattern that
    /// one of its subject/object variables also fills, that pattern's
    /// predicate and the position the variable fills there (0 subject,
    /// 1 object). None for a pattern outside the top group and its
    /// top-level `EXISTS` bodies, or of a template whose answer is not
    /// a function of its solutions.
    neighbours: Box<[Neighbours]>,
    entries: usize,
}

impl Template {
    fn new(prepared: &Prepared, arity: usize, vars: &[String]) -> Self {
        // Stand-ins no template can write (a blank node label holds no
        // NUL) show which positions the parameters fill.
        let params: Vec<Term> = (0..arity).map(|i| Term::BNode(format!("\0{i}"))).collect();
        let node = |node: &NodePattern| match node {
            NodePattern::Var(_) => Node::Free,
            NodePattern::Term(t) => match params.iter().position(|p| p == t) {
                Some(i) => Node::Param(i),
                None => Node::Constant(fingerprint(t)),
            },
        };
        let (mut shape, mut neighbours) = (Vec::new(), Vec::new());
        match prepared.bind(&params) {
            // Nothing to read off: one all-variable pattern, which every
            // delta matches.
            Err(_) => {
                shape.push([Node::Free; 3]);
                neighbours.push(Box::default());
            }
            Ok(query) => {
                let mut triples = Vec::new();
                for_each_triple(query.pattern(), Place::Top, &mut |place, tp| {
                    triples.push((place, tp))
                });
                let top: Vec<_> = (triples.iter())
                    .filter(|(place, _)| *place == Place::Top)
                    .flat_map(|(_, q)| [(&q.s, 0), (&q.o, 1)].map(|(at, pos)| (at, pos, &q.p)))
                    .collect();
                let by_solutions = answers_by_solutions(&query);
                for &(place, tp) in &triples {
                    shape.push([&tp.s, &tp.p, &tp.o].map(node));
                    let pinned = [&tp.s, &tp.o].map(NodePattern::as_var);
                    neighbours.push(match place {
                        Place::Top | Place::Exists if by_solutions => (top.iter())
                            .filter(|(at, ..)| {
                                at.as_var().is_some_and(|v| pinned.contains(&Some(v)))
                            })
                            .map(|&(_, position, predicate)| (node(predicate), position))
                            .filter(|(predicate, _)| !matches!(predicate, Node::Free))
                            .collect(),
                        _ => Box::default(),
                    });
                }
            }
        }
        Self {
            prepared: Arc::new(prepared.clone()),
            vars: vars.to_vec(),
            shape: shape.into(),
            neighbours: neighbours.into(),
            entries: 0,
        }
    }

    /// An entry's patterns, each constant as its fingerprint: the shape
    /// with the arguments' fingerprints in place.
    fn patterns<'e>(&'e self, args: &'e [u64]) -> impl Iterator<Item = [Option<u64>; 3]> + 'e {
        self.shape
            .iter()
            .map(move |spo| spo.map(|node| node.constant(args)))
    }

    /// Whether the entry's pattern `i` is cleared: a neighbour's
    /// predicate is outside `delta`, and per its links, no delta term
    /// fills that neighbour's position. A changed triple the pattern
    /// matches binds their shared variable to a delta term, so no
    /// solution, before or after, reads it there.
    fn cleared(&self, i: usize, args: &[u64], delta: &DeltaView) -> bool {
        let neighbours = self.neighbours.get(i).map_or(&[][..], |n| n);
        neighbours.iter().any(|&(predicate, position)| {
            predicate.constant(args).is_some_and(|predicate| {
                !delta.has_predicate(predicate) && !delta.may_link(position, predicate)
            })
        })
    }
}

/// One held entry: its slot and the slot's generation when it was held.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Held {
    side: Side,
    slot: u32,
    generation: u32,
}

/// A suspect a read-set holds, with what it takes to ask it again.
pub(crate) struct Suspect {
    held: Held,
    prepared: Arc<Prepared>,
    args: Vec<Term>,
    limit: Option<usize>,
    offset: Option<usize>,
}

impl Suspect {
    pub(crate) fn side(&self) -> Side {
        self.held.side
    }

    /// The leaf it answers.
    pub(crate) fn request(&self) -> Request<'_> {
        match (self.limit, self.offset) {
            (None, None) => Request::leaf(&self.prepared, &self.args),
            (limit, offset) => Request::PreparedSelectPaged {
                prepared: &self.prepared,
                args: &self.args,
                limit,
                offset,
            },
        }
    }
}

#[derive(Default)]
struct SideMemo {
    slots: Vec<(u32, Option<Entry>)>,
    free: Vec<u32>,
    by_key: HashMap<u64, u32, FxBuild>,
    index: HashMap<Anchor, Vec<u32>, FxBuild>,
    templates: HashMap<u64, Template, FxBuild>,
}

/// The two sides' memos and the terms they share. Off until the session
/// is told of its first delta: a session that never is sends exactly
/// the requests it would without one.
#[derive(Default)]
pub(crate) struct Memo {
    live: bool,
    terms: Terms,
    sides: [SideMemo; 2],
}

/// A prepared leaf, read off a request: `(ask, template, args, limit,
/// offset)`.
type Leaf<'r> = (bool, &'r Prepared, &'r [Term], Option<usize>, Option<usize>);

fn leaf<'r>(req: &Request<'r>) -> Option<Leaf<'r>> {
    match *req {
        Request::PreparedSelect { prepared, args } => Some((false, prepared, args, None, None)),
        Request::PreparedAsk { prepared, args } => Some((true, prepared, args, None, None)),
        Request::PreparedSelectPaged {
            prepared,
            args,
            limit,
            offset,
        } => Some((false, prepared, args, limit, offset)),
        _ => None,
    }
}

impl Memo {
    pub(crate) fn is_live(&self) -> bool {
        self.live
    }

    pub(crate) fn go_live(&mut self) {
        self.live = true;
    }

    /// The slot holding the answer to `leaf`, with its hash.
    fn find(&self, side: Side, leaf: &Leaf<'_>) -> (u64, Option<u32>) {
        let hash = Key::hash(leaf);
        let memo = &self.sides[side as usize];
        let slot = memo.by_key.get(&hash).copied().filter(
            |&slot| matches!(memo.slots.get(slot as usize), Some((_, Some(e))) if e.key.is(leaf)),
        );
        (hash, slot)
    }

    /// Counts one more holder of the entry in `slot`.
    fn hold(&mut self, side: Side, slot: u32) -> Option<Held> {
        let (generation, entry) = self.sides[side as usize].slots.get_mut(slot as usize)?;
        entry.as_mut()?.refs += 1;
        Some(Held {
            side,
            slot,
            generation: *generation,
        })
    }

    /// What the entry in `slot` keeps, with its template's variables.
    fn kept(&self, side: Side, slot: u32) -> Option<(&Answer, &[String])> {
        let memo = &self.sides[side as usize];
        let (_, Some(entry)) = memo.slots.get(slot as usize)? else {
            return None;
        };
        Some((&entry.answer, &memo.templates.get(&entry.key.token)?.vars))
    }

    /// The kept answer to `req`, held for the caller's read-set. Text
    /// requests and batches are never kept, and a suspect is never
    /// served.
    pub(crate) fn lookup(&mut self, side: Side, req: &Request<'_>) -> Option<(Held, Response)> {
        let slot = self.find(side, &leaf(req)?).1?;
        let answer = match self.kept(side, slot)? {
            (Answer::Boolean(b), _) => Response::Boolean(*b),
            (Answer::Rows { rows, cells }, vars) => {
                let rows = match vars.len() {
                    0 => vec![Vec::new(); *rows],
                    width => cells
                        .chunks(width)
                        .map(|row| row.iter().map(|cell| cell.as_deref().cloned()).collect())
                        .collect(),
                };
                Response::Rows(ResultSet::new(vars.to_vec(), rows))
            }
        };
        Some((self.hold(side, slot)?, answer))
    }

    /// Whether the entry in `slot` keeps `answer`, compared in place:
    /// its template's variables, its row count and every cell, or its
    /// boolean.
    fn keeps(&self, side: Side, slot: u32, answer: &Response) -> bool {
        match (self.kept(side, slot), answer) {
            (Some((Answer::Boolean(kept), _)), Response::Boolean(b)) => kept == b,
            (Some((Answer::Rows { rows, cells }, vars)), Response::Rows(rs)) => {
                vars == rs.vars()
                    && *rows == rs.len()
                    && (cells.iter().map(Option::as_deref))
                        .eq(rs.iter().flatten().map(Option::as_ref))
            }
            _ => false,
        }
    }

    /// Keeps `answer` as the answer to `req` and holds it for the
    /// caller's read-set. Keeps nothing for a request that is not a
    /// prepared leaf, or an answer of the wrong shape. An entry kept
    /// meanwhile for the same leaf is held only if its answer is this
    /// one: a read-set holds the answers its alignment read, and two
    /// alignments may read a leaf on either side of a publish the
    /// session has not been told of yet.
    pub(crate) fn keep(
        &mut self,
        side: Side,
        req: &Request<'_>,
        answer: &Response,
    ) -> Option<Held> {
        let leaf = leaf(req)?;
        let (ask, prepared, args, limit, offset) = leaf;
        let (vars, rows): (&[String], _) = match (ask, answer) {
            (true, Response::Boolean(b)) => (&[], Err(*b)),
            (false, Response::Rows(rs)) => (rs.vars(), Ok(rs)),
            _ => return None,
        };
        let (hash, found) = self.find(side, &leaf);
        if let Some(slot) = found {
            // Another alignment kept this leaf meanwhile.
            if !self.keeps(side, slot, answer) {
                return None;
            }
            return self.hold(side, slot);
        }
        let token = prepared.cache_token();
        let memo = &self.sides[side as usize];
        // Another key holds the hash, or the template's variables are
        // others: this answer is not kept.
        if memo.by_key.contains_key(&hash)
            || memo.templates.get(&token).is_some_and(|t| t.vars != vars)
        {
            return None;
        }
        let terms = &mut self.terms;
        let answer = match rows {
            Ok(rs) => Answer::Rows {
                rows: rs.len(),
                cells: rs
                    .iter()
                    .flatten()
                    .map(|cell| cell.as_ref().map(|t| share(terms, t, fingerprint(t))))
                    .collect(),
            },
            Err(b) => Answer::Boolean(b),
        };
        let fingerprints: Box<[u64]> = args.iter().map(fingerprint).collect();
        let args = args
            .iter()
            .zip(&*fingerprints)
            .map(|(t, &f)| share(terms, t, f))
            .collect();
        let entry = Entry {
            hash,
            key: Key {
                token,
                ask,
                args,
                limit,
                offset,
            },
            fingerprints,
            answer,
            refs: 1,
            // Until `insert` files it.
            suspect: true,
        };
        let memo = &mut self.sides[side as usize];
        let arity = entry.key.args.len();
        memo.templates
            .entry(token)
            .or_insert_with(|| Template::new(prepared, arity, vars));
        Some(memo.insert(side, entry))
    }

    /// Lets go of what a read-set held; an entry nobody holds goes.
    pub(crate) fn release(&mut self, held: &[Held]) {
        for h in held {
            let memo = &mut self.sides[h.side as usize];
            let Some((generation, Some(entry))) = memo.slots.get_mut(h.slot as usize) else {
                continue;
            };
            if *generation != h.generation {
                continue;
            }
            entry.refs -= 1;
            if entry.refs == 0 {
                memo.free(h.slot, &mut self.terms);
            }
        }
    }

    /// Marks suspect every answer of `side` one of whose patterns may
    /// match a triple of `delta` and is not cleared by the delta's links
    /// (see the module docs). Returns how many became suspect.
    pub(crate) fn invalidate(&mut self, side: Side, delta: &DeltaView) -> usize {
        let memo = &mut self.sides[side as usize];
        let anchors = std::iter::once(Anchor::Any)
            .chain(delta.predicates().map(Anchor::Predicate))
            .chain(delta.terms().map(Anchor::Term));
        let mut candidates: Vec<u32> = anchors
            .filter_map(|anchor| memo.index.get(&anchor))
            .flatten()
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut suspects = 0;
        for slot in candidates {
            let Some((_, Some(entry))) = memo.slots.get(slot as usize) else {
                continue;
            };
            let Some(template) = memo.templates.get(&entry.key.token) else {
                continue;
            };
            let args = &entry.fingerprints;
            let changed = template.patterns(args).enumerate().any(|(i, spo)| {
                may_match(spo, |p| delta.has_predicate(p), |t| delta.has_term(t))
                    && !template.cleared(i, args, delta)
            });
            if changed {
                memo.file(slot, false);
                suspects += 1;
            }
        }
        suspects
    }

    /// The suspects among `reads`, once each, to be asked again; `None`
    /// if an entry of `reads` is gone — a change of unknown shape freed
    /// it — so they no longer say what their alignment read.
    pub(crate) fn suspects(&self, reads: &[Held]) -> Option<Vec<Suspect>> {
        let mut suspects = Vec::new();
        for &held in reads {
            let memo = &self.sides[held.side as usize];
            let (generation, Some(entry)) = memo.slots.get(held.slot as usize)? else {
                return None;
            };
            if *generation != held.generation {
                return None;
            }
            if !entry.suspect {
                continue;
            }
            suspects.push(Suspect {
                held,
                prepared: Arc::clone(&memo.templates.get(&entry.key.token)?.prepared),
                args: entry.key.args.iter().map(|t| (**t).clone()).collect(),
                limit: entry.key.limit,
                offset: entry.key.offset,
            });
        }
        suspects.sort_unstable_by_key(|s| (s.held.side as u8, s.held.slot));
        suspects.dedup_by_key(|s| (s.held.side as u8, s.held.slot));
        Some(suspects)
    }

    /// Settles `suspect` against `answer`, asked again since. An equal
    /// answer files it again, unless another entry holds its key by now,
    /// and returns `true`. A different one is kept as a fresh entry,
    /// held into `fresh` for a re-mine to read.
    pub(crate) fn settle(
        &mut self,
        suspect: &Suspect,
        answer: &Response,
        fresh: &mut Vec<Held>,
    ) -> bool {
        let Held {
            side,
            slot,
            generation,
        } = suspect.held;
        let memo = &self.sides[side as usize];
        let held = matches!(memo.slots.get(slot as usize), Some((g, Some(_))) if *g == generation);
        if held && self.keeps(side, slot, answer) {
            self.sides[side as usize].file(slot, true);
            return true;
        }
        fresh.extend(self.keep(side, &suspect.request(), answer));
        false
    }

    /// Drops every answer of both sides, suspects too, for a change of
    /// unknown shape.
    pub(crate) fn clear(&mut self) {
        for memo in &mut self.sides {
            for slot in 0..memo.slots.len() as u32 {
                memo.free(slot, &mut self.terms);
            }
        }
    }

    /// How many answers `side` keeps.
    #[cfg(test)]
    pub(crate) fn len(&self, side: Side) -> usize {
        self.sides[side as usize].by_key.len()
    }
}

impl SideMemo {
    /// Files a new entry, held once, in a free slot; its template is
    /// filed already.
    fn insert(&mut self, side: Side, entry: Entry) -> Held {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push((0, None));
                self.slots.len() as u32 - 1
            }
        };
        if let Some(template) = self.templates.get_mut(&entry.key.token) {
            template.entries += 1;
        }
        let generation = match self.slots.get_mut(slot as usize) {
            Some((generation, free)) => {
                *free = Some(entry);
                *generation
            }
            None => 0,
        };
        self.file(slot, true);
        Held {
            side,
            slot,
            generation,
        }
    }

    /// Files the entry in `slot` under its key and its patterns' anchors,
    /// so lookups serve it and deltas check it, or takes it out of both,
    /// as a suspect. A suspect whose key another entry holds by now stays
    /// one.
    fn file(&mut self, slot: u32, filed: bool) {
        let Some((_, Some(entry))) = self.slots.get_mut(slot as usize) else {
            return;
        };
        let is_filed = !entry.suspect;
        if is_filed == filed {
            return;
        }
        if filed {
            if self.by_key.contains_key(&entry.hash) {
                return;
            }
            self.by_key.insert(entry.hash, slot);
        } else {
            self.by_key.remove(&entry.hash);
        }
        entry.suspect = !filed;
        let Some(template) = self.templates.get(&entry.key.token) else {
            return;
        };
        for pattern in template.patterns(&entry.fingerprints) {
            let anchor = Anchor::of(pattern);
            if filed {
                self.index.entry(anchor).or_default().push(slot);
            } else if let Some(slots) = self.index.get_mut(&anchor) {
                if let Some(at) = slots.iter().position(|&s| s == slot) {
                    slots.swap_remove(at);
                }
                if slots.is_empty() {
                    self.index.remove(&anchor);
                }
            }
        }
    }

    /// Drops the entry in `slot`, if any, and moves the slot on a
    /// generation.
    fn free(&mut self, slot: u32, terms: &mut Terms) {
        self.file(slot, false);
        let Some((generation, taken)) = self.slots.get_mut(slot as usize) else {
            return;
        };
        let Some(entry) = taken.take() else {
            return;
        };
        *generation = generation.wrapping_add(1);
        self.free.push(slot);
        if let Some(template) = self.templates.get_mut(&entry.key.token) {
            template.entries -= 1;
            if template.entries == 0 {
                self.templates.remove(&entry.key.token);
            }
        }
        let cells = match entry.answer {
            Answer::Rows { cells, .. } => cells.into_vec(),
            Answer::Boolean(_) => Vec::new(),
        };
        let args = entry.key.args.into_vec();
        for term in args.into_iter().chain(cells.into_iter().flatten()) {
            unshare(terms, term);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sofya_endpoint::helpers::*;
    use sofya_endpoint::{Endpoint, EndpointError, LocalEndpoint, PublishDelta, SnapshotStore};
    use sofya_rdf::TripleStore;
    use sofya_sparql::QueryBudget;
    use std::sync::{Arc, Mutex};

    pub(crate) const SA: &str = "o:sameAs";
    const ENTITIES: [&str; 3] = ["e:0", "e:1", "e:2"];
    const RELATIONS: [&str; 3] = ["r:a", "r:b", SA];

    /// Every object a triple of the universe may have: the entities and
    /// one literal.
    fn objects() -> Vec<Term> {
        let mut objects: Vec<Term> = ENTITIES.iter().map(|e| Term::iri(*e)).collect();
        objects.push(Term::literal("L"));
        objects
    }

    /// Every triple of the universe: 3 subjects × 3 predicates × 4
    /// objects.
    pub(crate) fn universe() -> Vec<(Term, Term, Term)> {
        let mut triples = Vec::new();
        for s in ENTITIES {
            for p in RELATIONS {
                for o in objects() {
                    triples.push((Term::iri(s), Term::iri(p), o));
                }
            }
        }
        triples
    }

    /// Links, facts on both relations, a contrastive subject (`e:0`)
    /// and a literal.
    pub(crate) fn base() -> Vec<(Term, Term, Term)> {
        let iri = |(s, p, o): (&str, &str, &str)| (Term::iri(s), Term::iri(p), Term::iri(o));
        let mut triples: Vec<_> = [
            ("e:0", "r:a", "e:1"),
            ("e:0", "r:b", "e:2"),
            ("e:1", "r:a", "e:2"),
            ("e:1", "r:b", "e:1"),
            ("e:0", SA, "e:0"),
            ("e:1", SA, "e:2"),
            ("e:2", SA, "e:2"),
        ]
        .into_iter()
        .map(iri)
        .collect();
        triples.push((Term::iri("e:2"), Term::iri("r:a"), Term::literal("L")));
        triples
    }

    /// `base` where `e:1` has no `sameAs` link, but facts on both
    /// relations.
    fn unlinked() -> Vec<(Term, Term, Term)> {
        let link = (Term::iri("e:1"), Term::iri(SA), Term::iri("e:2"));
        base().into_iter().filter(|t| *t != link).collect()
    }

    pub(crate) fn store(triples: &[(Term, Term, Term)]) -> TripleStore {
        let mut store = TripleStore::new();
        for (s, p, o) in triples {
            store.insert_terms(s, p, o);
        }
        store
    }

    fn endpoint(triples: &[(Term, Term, Term)]) -> LocalEndpoint {
        LocalEndpoint::new("kb", store(triples))
    }

    /// Every change the small-scope checks make: each triple of the
    /// universe toggled alone, and each pair of them toggled together.
    fn changes() -> Vec<Vec<(Term, Term, Term)>> {
        let universe = universe();
        let mut changes: Vec<_> = universe.iter().map(|t| vec![t.clone()]).collect();
        for (i, a) in universe.iter().enumerate() {
            for b in &universe[i + 1..] {
                changes.push(vec![a.clone(), b.clone()]);
            }
        }
        changes
    }

    /// `base` with each triple of `change` removed if it holds, added if
    /// not, in one publish: the writer, alive so the delta can read its
    /// links, and the delta.
    fn publish(
        base: &[(Term, Term, Term)],
        change: &[(Term, Term, Term)],
    ) -> (SnapshotStore, Arc<PublishDelta>) {
        let mut writer = SnapshotStore::new(store(base));
        let store = writer.store_mut();
        for (s, p, o) in change {
            if !store.insert_terms(s, p, o) {
                let id = |t: &Term| store.dict().lookup(t).unwrap();
                let (s, p, o) = (id(s), id(p), id(o));
                store.remove(s, p, o);
            }
        }
        let delta = writer.publish();
        (writer, delta)
    }

    /// The writer's published dictionary, which reads its deltas' ids.
    fn dict(writer: &SnapshotStore) -> sofya_rdf::Dict {
        writer.current().snapshot().dict().clone()
    }

    /// The same change without links, as a delta built by hand has.
    fn blind(delta: &PublishDelta) -> PublishDelta {
        PublishDelta {
            links: Default::default(),
            ..delta.clone()
        }
    }

    /// `base` with `triple` removed if it holds, added if not.
    fn toggled(
        base: &[(Term, Term, Term)],
        triple: &(Term, Term, Term),
    ) -> Vec<(Term, Term, Term)> {
        let mut after: Vec<_> = base.iter().filter(|t| *t != triple).cloned().collect();
        if after.len() == base.len() {
            after.push(triple.clone());
        }
        after
    }

    /// A prepared leaf, owned: its template, arguments and page.
    #[derive(Debug)]
    struct Owned(Arc<Prepared>, Vec<Term>, Option<usize>, Option<usize>);

    impl Owned {
        fn as_request(&self) -> Request<'_> {
            let Owned(prepared, args, limit, offset) = self;
            match (limit, offset) {
                (None, None) => Request::leaf(prepared, args),
                (&limit, &offset) => Request::PreparedSelectPaged {
                    prepared,
                    args,
                    limit,
                    offset,
                },
            }
        }
    }

    /// Forwards to a store and keeps every prepared leaf it was sent.
    struct Capture {
        inner: LocalEndpoint,
        leaves: Mutex<Vec<Owned>>,
    }

    impl Capture {
        fn record(&self, req: &Request<'_>) {
            let (prepared, args, limit, offset) = match *req {
                Request::Batch(ref requests) => {
                    return requests.iter().for_each(|r| self.record(r))
                }
                Request::Table { prepared, rows } => {
                    return rows
                        .iter()
                        .for_each(|args| self.record(&Request::leaf(prepared, args)))
                }
                Request::PreparedSelect { prepared, args }
                | Request::PreparedAsk { prepared, args } => (prepared, args, None, None),
                Request::PreparedSelectPaged {
                    prepared,
                    args,
                    limit,
                    offset,
                } => (prepared, args, limit, offset),
                Request::Select { .. } | Request::Ask { .. } => return,
            };
            let leaf = Owned(Arc::new(prepared.clone()), args.to_vec(), limit, offset);
            self.leaves.lock().unwrap().push(leaf);
        }
    }

    impl Endpoint for Capture {
        fn execute_with_budget(
            &self,
            req: Request<'_>,
            budget: &QueryBudget,
        ) -> Result<Response, EndpointError> {
            self.record(&req);
            self.inner.execute_with_budget(req, budget)
        }
    }

    /// Templates no helper uses, whose patterns only an `OPTIONAL`, a
    /// `UNION` branch, a `NOT EXISTS` body, a template constant or an
    /// all-variable pattern carries; and top-group patterns whose only
    /// other join partner sits in an `OPTIONAL`, a `UNION` branch or a
    /// `NOT EXISTS` body, where it must not clear them. Each parameter
    /// with what it fills: `p` a predicate, `t` a subject or an object.
    fn nested_templates() -> Vec<(Prepared, &'static str)> {
        [
            (
                "SELECT ?x ?z WHERE { ?x ?r ?y OPTIONAL { ?y ?q ?z } } ORDER BY ?x ?z",
                &["r", "q"][..],
                "pp",
            ),
            (
                "SELECT ?x WHERE { { ?x ?r ?y } UNION { ?y ?q ?x } } ORDER BY ?x",
                &["r", "q"],
                "pp",
            ),
            (
                "SELECT ?x WHERE { ?x ?r ?y FILTER NOT EXISTS { ?y ?q ?x } } ORDER BY ?x",
                &["r", "q"],
                "pp",
            ),
            ("ASK { ?s <r:a> ?o }", &["s", "o"], "tt"),
            ("ASK { ?s ?r ?o . ?a ?b ?c }", &["s", "r", "o"], "tpt"),
            (
                "SELECT ?x WHERE { ?x ?r ?y { ?x ?q ?z } UNION { ?z ?q ?x } } ORDER BY ?x",
                &["r", "q"],
                "pp",
            ),
            (
                "SELECT ?x WHERE { ?x ?r ?y FILTER NOT EXISTS { ?x ?q ?z } } ORDER BY ?x",
                &["r", "q"],
                "pp",
            ),
        ]
        .into_iter()
        .map(|(text, params, fills)| (Prepared::new(text, params).unwrap(), fills))
        .collect()
    }

    /// Every leaf every helper sends over the universe, each argument
    /// ranging over it, plus the nested templates' leaves.
    fn leaves() -> Vec<Owned> {
        let ep = Capture {
            inner: endpoint(&base()),
            leaves: Mutex::new(Vec::new()),
        };
        let pages = [(1, 0), (2, 1), (10, 0)];
        for r1 in RELATIONS {
            for (limit, offset) in pages {
                relation_facts_page(&ep, r1, limit, offset).unwrap();
                linked_entity_facts_page(&ep, r1, SA, limit, offset).unwrap();
                linked_literal_facts_page(&ep, r1, SA, limit, offset).unwrap();
                for r2 in RELATIONS {
                    linked_contrastive_subjects_page(&ep, r1, r2, SA, limit, offset).unwrap();
                }
            }
            linked_entity_fact_count(&ep, r1, SA).unwrap();
            linked_literal_fact_count(&ep, r1, SA).unwrap();
            for s in ENTITIES {
                objects_of_batch(&ep, &[(s, r1)]).unwrap();
                for o in ENTITIES {
                    has_fact_batch(&ep, r1, &[(s, o)]).unwrap();
                }
            }
        }
        for s in ENTITIES {
            relations_of_entity_batch(&ep, &[s]).unwrap();
            same_as_of(&ep, s, SA).unwrap();
            for o in ENTITIES {
                relations_between_batch(&ep, &[(s, o)]).unwrap();
            }
        }
        let mut leaves = ep.leaves.into_inner().unwrap();
        let relations: Vec<Term> = RELATIONS.iter().map(|r| Term::iri(*r)).collect();
        for (template, fills) in nested_templates() {
            let template = Arc::new(template);
            // Every argument vector over the terms that may fill each
            // parameter's position.
            let mut all = vec![Vec::new()];
            for fill in fills.chars() {
                let range = if fill == 'p' {
                    relations.clone()
                } else {
                    objects()
                };
                all = (all.iter())
                    .flat_map(|args| {
                        range
                            .iter()
                            .map(move |t| [&args[..], std::slice::from_ref(t)].concat())
                    })
                    .collect();
            }
            leaves.extend(
                all.into_iter()
                    .map(|args| Owned(Arc::clone(&template), args, None, None)),
            );
        }
        leaves
    }

    /// The small-scope check of invalidation: every leaf of every helper
    /// template and of the nested templates over a universe of three
    /// entities, two relations and `sameAs`, from a base where every
    /// entity is linked and one where `e:1` is not, against every
    /// single-triple insert or remove and every pair of them in one
    /// publish. No answer the memo keeps may have changed. It must keep
    /// some, the delta's links must clear some a delta without them
    /// marks, and the single changes must change some answers, or the
    /// test proves nothing.
    #[test]
    fn every_answer_a_single_triple_changes_is_dropped() {
        let leaves = leaves();
        let (mut changed, mut kept, mut cleared) = (0, 0, 0);
        for base in [base(), unlinked()] {
            let before = endpoint(&base);
            let answers: Vec<Response> = leaves
                .iter()
                .map(|leaf| before.execute(leaf.as_request()).unwrap())
                .collect();
            for change in changes() {
                let (writer, delta) = publish(&base, &change);
                let after = writer.reader("kb");
                let mut memo = Memo::default();
                for (leaf, answer) in leaves.iter().zip(&answers) {
                    memo.keep(Side::Target, &leaf.as_request(), answer);
                }
                memo.invalidate(Side::Target, &DeltaView::new(&delta, &dict(&writer)));
                for (leaf, answer) in leaves.iter().zip(&answers) {
                    let req = leaf.as_request();
                    match memo.lookup(Side::Target, &req) {
                        Some((_, memoised)) => {
                            assert_eq!(memoised, *answer, "{leaf:?}");
                            let now = after.execute(req).unwrap();
                            assert_eq!(
                                now, *answer,
                                "{leaf:?} changed under {change:?} but was kept"
                            );
                            kept += 1;
                        }
                        None if change.len() == 1 => {
                            changed += usize::from(after.execute(req).unwrap() != *answer);
                        }
                        None => {}
                    }
                }
                // What the links cleared: a delta without them marks it.
                let blind = blind(&delta);
                cleared += memo.invalidate(Side::Target, &DeltaView::new(&blind, &dict(&writer)));
            }
        }
        assert!(
            changed > 1000 && kept > 50_000 && cleared > 100,
            "changed {changed}, kept {kept}, cleared by links {cleared}"
        );
    }

    /// A suspect asked again settles as unchanged exactly when its
    /// answer is, and once every suspect is settled the memo serves
    /// each leaf its answer after the change: an equal answer is filed
    /// again, a different one kept fresh, and a kept one is the answer
    /// before, which the check above proves is the one after. Over the
    /// same bases and changes.
    #[test]
    fn settling_every_suspect_serves_the_answers_after_the_change() {
        let leaves = leaves();
        let (mut equal, mut different) = (0, 0);
        for base in [base(), unlinked()] {
            let before = endpoint(&base);
            let answers: Vec<Response> = leaves
                .iter()
                .map(|leaf| before.execute(leaf.as_request()).unwrap())
                .collect();
            for change in changes() {
                let (writer, delta) = publish(&base, &change);
                let after = writer.reader("kb");
                let mut memo = Memo::default();
                let mut leaf_of = HashMap::new();
                let held: Vec<Held> = (leaves.iter().zip(&answers).enumerate())
                    .filter_map(|(i, (leaf, answer))| {
                        let held = memo.keep(Side::Target, &leaf.as_request(), answer)?;
                        leaf_of.insert(held.slot, i);
                        Some(held)
                    })
                    .collect();
                let suspects =
                    memo.invalidate(Side::Target, &DeltaView::new(&delta, &dict(&writer)));
                let asks = memo.suspects(&held).unwrap();
                assert_eq!(asks.len(), suspects);
                let mut now: Vec<Option<Response>> = vec![None; leaves.len()];
                let mut fresh = Vec::new();
                for suspect in &asks {
                    let i = leaf_of[&suspect.held.slot];
                    let answer = after.execute(suspect.request()).unwrap();
                    let fresh_before = fresh.len();
                    let same = memo.settle(suspect, &answer, &mut fresh);
                    assert_eq!(same, answer == answers[i], "{:?}", suspect.request());
                    assert_eq!(fresh.len() - fresh_before, usize::from(!same));
                    if same {
                        equal += 1;
                    } else {
                        different += 1;
                    }
                    now[i] = Some(answer);
                }
                for ((leaf, answer), now) in leaves.iter().zip(&answers).zip(&now) {
                    let (_, served) = memo.lookup(Side::Target, &leaf.as_request()).unwrap();
                    assert_eq!(
                        served,
                        *now.as_ref().unwrap_or(answer),
                        "{leaf:?} under {change:?}"
                    );
                }
            }
        }
        assert!(equal > 100 && different > 100, "{equal} {different}");
    }

    /// Two alignments that read a leaf on either side of a publish: the
    /// first answer kept stands, and the other is not held, so its
    /// read-set is not taken for one that holds what it read.
    #[test]
    fn a_leaf_kept_with_another_answer_is_not_held() {
        let leaves = leaves();
        let base = base();
        let triple = (Term::iri("e:0"), Term::iri("r:a"), Term::iri("e:1"));
        let (before, after) = (endpoint(&base), endpoint(&toggled(&base, &triple)));
        let mut moved = 0;
        for leaf in &leaves {
            let req = leaf.as_request();
            let (old, new) = (
                before.execute(req.clone()).unwrap(),
                after.execute(req.clone()).unwrap(),
            );
            if old == new {
                continue;
            }
            moved += 1;
            let mut memo = Memo::default();
            let first = memo.keep(Side::Target, &req, &new).unwrap();
            assert!(memo.keep(Side::Target, &req, &old).is_none(), "{leaf:?}");
            let again = memo.keep(Side::Target, &req, &new).unwrap();
            assert_eq!(
                (again.slot, again.generation),
                (first.slot, first.generation)
            );
            assert_eq!(memo.lookup(Side::Target, &req).unwrap().1, new, "{leaf:?}");
        }
        assert!(moved > 10, "{moved}");

        // Answers that differ from the kept one in one part only: a cell,
        // the variables, or, with no variables, the row count.
        let iris = |cells: [&str; 2]| cells.map(|c| Some(Term::iri(c))).to_vec();
        let rows = |vars: &[&str], rows| {
            let vars = vars.iter().map(|v| (*v).to_owned()).collect();
            Response::Rows(ResultSet::new(vars, rows))
        };
        let kept = rows(
            &["x", "y"],
            vec![iris(["e:1", "e:2"]), iris(["e:2", "e:0"])],
        );
        for (kept, other) in [
            (
                &kept,
                rows(
                    &["x", "y"],
                    vec![iris(["e:1", "e:2"]), iris(["e:2", "e:1"])],
                ),
            ),
            (
                &kept,
                rows(
                    &["x", "z"],
                    vec![iris(["e:1", "e:2"]), iris(["e:2", "e:0"])],
                ),
            ),
            (&rows(&[], vec![vec![]]), rows(&[], vec![vec![], vec![]])),
        ] {
            let template = Prepared::new("SELECT ?x ?y WHERE { ?s ?x ?y }", &["s"]).unwrap();
            let args = [Term::iri("e:0")];
            let req = Request::leaf(&template, &args);
            let mut memo = Memo::default();
            memo.keep(Side::Target, &req, kept).unwrap();
            assert!(memo.keep(Side::Target, &req, &other).is_none(), "{other:?}");
            assert_eq!(memo.lookup(Side::Target, &req).unwrap().1, *kept);
        }
    }

    /// Terms that print alike are kept and served apart, as answer cells
    /// and as arguments; a term two entries share goes with the second
    /// of them; and a term whose fingerprint another term holds is kept
    /// unshared, without disturbing the other.
    #[test]
    fn terms_are_shared_only_with_equal_terms_and_go_with_their_last_holder() {
        let prepared = Prepared::new("SELECT ?o WHERE { ?s <r:a> ?o }", &["s"]).unwrap();
        let ones = [
            Term::literal("1"),
            Term::lang_literal("1", "en"),
            Term::typed_literal("1", "http://www.w3.org/2001/XMLSchema#integer"),
            Term::iri("1"),
        ];
        let rows = |terms: &[&Term]| {
            let rows = terms.iter().map(|&t| vec![Some(t.clone())]).collect();
            Response::Rows(ResultSet::new(vec!["o".into()], rows))
        };
        let req = |i: usize| Request::leaf(&prepared, std::slice::from_ref(&ones[i]));
        // Each `1` as the argument, answered by the next two.
        let answer = |i: usize| rows(&[&ones[(i + 1) % 4], &ones[(i + 2) % 4]]);
        let mut memo = Memo::default();
        for i in 0..4 {
            memo.keep(Side::Target, &req(i), &answer(i)).unwrap();
        }
        assert_eq!(memo.terms.len(), ones.len());
        for (i, one) in ones.iter().enumerate() {
            let (_, served) = memo.lookup(Side::Target, &req(i)).unwrap();
            assert_eq!(served, answer(i), "{one}");
        }

        // `x` is one entry's answer and the other's argument.
        let (x, y, z) = (0, 3, 1);
        let mut memo = Memo::default();
        let first = memo
            .keep(Side::Source, &req(y), &rows(&[&ones[x]]))
            .unwrap();
        let second = memo
            .keep(Side::Source, &req(x), &rows(&[&ones[z]]))
            .unwrap();
        memo.release(&[first]);
        let held = |memo: &Memo, i: usize| memo.terms.contains_key(&fingerprint(&ones[i]));
        assert!(held(&memo, x) && held(&memo, z) && !held(&memo, y));
        let (again, served) = memo.lookup(Side::Source, &req(x)).unwrap();
        assert_eq!(served, rows(&[&ones[z]]));
        memo.release(&[second, again]);
        assert!(memo.terms.is_empty() && memo.len(Side::Source) == 0);

        // `y` as if its fingerprint were `x`'s.
        let (mut terms, f) = (Terms::default(), fingerprint(&ones[x]));
        let shared = share(&mut terms, &ones[x], f);
        let other = share(&mut terms, &ones[y], f);
        assert!(*other == ones[y] && !Arc::ptr_eq(&terms[&f], &other));
        unshare(&mut terms, other);
        assert!(Arc::ptr_eq(&terms[&f], &shared));
        unshare(&mut terms, shared);
        assert!(terms.is_empty());
    }

    /// Entries, suspects among them, terms and templates go with their
    /// last holder, and `clear` drops them all.
    #[test]
    fn releasing_every_holder_empties_the_memo() {
        let leaves = leaves();
        let before = endpoint(&base());
        let filled = || {
            let mut memo = Memo::default();
            let mut held = Vec::new();
            for _ in 0..2 {
                for leaf in &leaves {
                    let req = leaf.as_request();
                    let answer = before.execute(req.clone()).unwrap();
                    held.extend(memo.keep(Side::Source, &req, &answer));
                }
            }
            let all = memo.len(Side::Source);
            let triple = (Term::iri("e:0"), Term::iri("r:a"), Term::iri("e:1"));
            let (writer, delta) = publish(&base(), &[triple]);
            let suspects = memo.invalidate(Side::Source, &DeltaView::new(&delta, &dict(&writer)));
            assert!(all > 100 && suspects > 10, "{all} {suspects}");
            assert_eq!(memo.len(Side::Source), all - suspects);
            (memo, held)
        };
        let empty = |memo: &Memo| {
            let source = &memo.sides[Side::Source as usize];
            assert_eq!(memo.len(Side::Source), 0);
            assert!(source.slots.iter().all(|(_, entry)| entry.is_none()));
            assert!(source.index.is_empty() && source.templates.is_empty());
            assert!(memo.terms.is_empty());
        };
        let (mut memo, held) = filled();
        assert_eq!(held.len(), 2 * leaves.len());
        memo.release(&held);
        empty(&memo);
        // A release after the slot moved on lets go of nothing.
        memo.release(&held);
        assert!(memo.terms.is_empty());
        let (mut memo, _) = filled();
        memo.clear();
        empty(&memo);
    }
}
