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
//! **Invalidation** is per triple pattern: an answer depends only on
//! the triples its patterns match, and a pattern can match a changed
//! triple only if every one of its constants is in the delta
//! ([`crate::footprint::may_match`]; `UNION`, `OPTIONAL` and `EXISTS`
//! bodies are walked by the same [`crate::footprint::for_each_pattern`]
//! the footprint uses). Each pattern is indexed under one constant — a
//! subject or object term if it has one, else its predicate — or, with
//! none, on an always-check list, so a delta finds its candidates
//! through the index and costs its own size, not the memo's.
//!
//! **Memory** is bounded by what the session caches: every entry counts
//! the read-sets that hold it — the cached relations whose last
//! alignment read it and the alignments in flight — and goes when the
//! last one lets go. Terms are interned once per session, counted the
//! same way, so an answer is stored as ids, and a template's patterns
//! are stored once, with slots its entries' arguments fill. A freed
//! entry's slot changes generation, so a read-set that still names it
//! lets go of nothing. Terms and keys are found by their 64-bit hash
//! and then compared; the rare second term or key on a taken hash is
//! simply not kept.

use crate::footprint::{fingerprint, for_each_pattern, may_match, DeltaView, Fx, FxBuild};
use sofya_endpoint::{Request, Response};
use sofya_rdf::Term;
use sofya_sparql::{Prepared, ResultSet};
use std::collections::HashMap;
use std::hash::Hasher;

/// A free position of a pattern, or an unbound cell of a row.
const NONE: u32 = u32::MAX;

/// In a template's shape, `PARAM | i` stands for argument `i`.
const PARAM: u32 = 1 << 31;

/// Which endpoint of the session a memo, a delta or a read belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Source = 0,
    Target = 1,
}

/// A term as the memo stores it: an IRI, nearly every term, in the
/// 16 bytes of its text.
enum Stored {
    Iri(Box<str>),
    Other(Box<Term>),
}

impl Stored {
    fn new(term: &Term) -> Self {
        match term.as_iri() {
            Some(iri) => Stored::Iri(iri.into()),
            None => Stored::Other(Box::new(term.clone())),
        }
    }

    fn term(&self) -> Term {
        match self {
            Stored::Iri(iri) => Term::iri(&**iri),
            Stored::Other(term) => (**term).clone(),
        }
    }

    fn is(&self, term: &Term) -> bool {
        match self {
            Stored::Iri(iri) => term.as_iri() == Some(iri),
            Stored::Other(other) => **other == *term,
        }
    }
}

/// One interned term and how many times the entries hold it.
struct Interned {
    term: Stored,
    fingerprint: u64,
    refs: u32,
}

/// Terms by id, each stored once and counted by the entries holding it.
#[derive(Default)]
struct Terms {
    /// Fingerprint → id.
    ids: HashMap<u64, u32, FxBuild>,
    slots: Vec<Option<Interned>>,
    free: Vec<u32>,
}

impl Terms {
    fn term(&self, id: u32) -> Option<&Stored> {
        Some(&self.slots.get(id as usize)?.as_ref()?.term)
    }

    fn fingerprint(&self, id: u32) -> Option<u64> {
        Some(self.slots.get(id as usize)?.as_ref()?.fingerprint)
    }

    /// Interns `term` and counts one more holder of it; `None` if
    /// another term holds its fingerprint.
    fn hold(&mut self, term: &Term) -> Option<u32> {
        let fingerprint = fingerprint(term);
        let id = match self.ids.get(&fingerprint) {
            Some(&id) => id,
            None => {
                let interned = Some(Interned {
                    term: Stored::new(term),
                    fingerprint,
                    refs: 0,
                });
                let id = match self.free.pop() {
                    Some(id) => {
                        self.slots[id as usize] = interned;
                        id
                    }
                    None => {
                        self.slots.push(interned);
                        self.slots.len() as u32 - 1
                    }
                };
                self.ids.insert(fingerprint, id);
                id
            }
        };
        let interned = self.slots.get_mut(id as usize)?.as_mut()?;
        if !interned.term.is(term) {
            return None;
        }
        interned.refs += 1;
        Some(id)
    }

    fn release(&mut self, id: u32) {
        let Some(slot) = self.slots.get_mut(id as usize) else {
            return;
        };
        if let Some(interned) = slot {
            interned.refs -= 1;
            if interned.refs == 0 {
                self.ids.remove(&interned.fingerprint);
                *slot = None;
                self.free.push(id);
            }
        }
    }
}

/// What identifies one leaf's answer: a template, its arguments and its
/// page. Filed under [`Key::hash`], which a request's terms give
/// without interning them.
struct Key {
    token: u64,
    ask: bool,
    args: Box<[u32]>,
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

    fn is(&self, &(ask, prepared, args, limit, offset): &Leaf<'_>, terms: &Terms) -> bool {
        self.token == prepared.cache_token()
            && (self.ask, self.limit, self.offset) == (ask, limit, offset)
            && self.args.len() == args.len()
            && self
                .args
                .iter()
                .zip(args)
                .all(|(&id, t)| terms.term(id).is_some_and(|s| s.is(t)))
    }
}

enum Answer {
    Boolean(bool),
    /// `rows` rows of the template's width, flattened.
    Rows {
        rows: usize,
        cells: Box<[u32]>,
    },
}

struct Entry {
    /// Its hash in `by_key`.
    hash: u64,
    key: Key,
    answer: Answer,
    /// The read-sets holding this entry.
    refs: u32,
}

impl Entry {
    /// Every term id the entry holds, once per occurrence.
    fn term_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let cells = match &self.answer {
            Answer::Rows { cells, .. } => &cells[..],
            Answer::Boolean(_) => &[],
        };
        self.key
            .args
            .iter()
            .chain(cells)
            .copied()
            .filter(|&id| id != NONE)
    }
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
    fn of([s, p, o]: [u32; 3], terms: &Terms) -> Self {
        let constant = |id| terms.fingerprint(id);
        match (constant(s).or(constant(o)), constant(p)) {
            (Some(term), _) => Anchor::Term(term),
            (None, Some(predicate)) => Anchor::Predicate(predicate),
            (None, None) => Anchor::Any,
        }
    }
}

/// What the entries of one template share: its projection and its
/// patterns.
struct Template {
    vars: Vec<String>,
    /// Every triple pattern, `[s, p, o]`: the id of a term the template
    /// writes, `PARAM | i` for parameter `i`, or `NONE`.
    shape: Box<[[u32; 3]]>,
    entries: usize,
}

impl Template {
    fn new(prepared: &Prepared, arity: usize, vars: &[String], terms: &mut Terms) -> Self {
        // Stand-ins no template can write (a blank node label holds no
        // NUL) show which positions the parameters fill.
        let params: Vec<Term> = (0..arity).map(|i| Term::BNode(format!("\0{i}"))).collect();
        let mut shape = Vec::new();
        match prepared.pattern_with(&params) {
            // Nothing to read off: one all-variable pattern, which every
            // delta matches.
            Err(_) => shape.push([NONE; 3]),
            Ok((pattern, arg)) => for_each_pattern(pattern, &arg, &mut |spo| {
                shape.push(spo.map(|node| match node {
                    None => NONE,
                    Some(t) => match params.iter().position(|p| p == t) {
                        Some(i) => PARAM | i as u32,
                        // A constant whose fingerprint another term holds
                        // is read as a variable: it then matches more.
                        None => terms.hold(t).unwrap_or(NONE),
                    },
                }));
            }),
        }
        Self {
            vars: vars.to_vec(),
            shape: shape.into(),
            entries: 0,
        }
    }

    /// An entry's patterns: the shape with its arguments in place.
    fn patterns<'e>(&'e self, args: &'e [u32]) -> impl Iterator<Item = [u32; 3]> + 'e {
        self.shape.iter().map(move |spo| {
            spo.map(|node| match node {
                NONE => NONE,
                param if param & PARAM != 0 => {
                    args.get((param & !PARAM) as usize).copied().unwrap_or(NONE)
                }
                id => id,
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
        let slot = memo.by_key.get(&hash).copied().filter(|&slot| {
            matches!(memo.slots.get(slot as usize), Some((_, Some(e))) if e.key.is(leaf, &self.terms))
        });
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

    /// The kept answer to `req`, held for the caller's read-set. Text
    /// requests and batches are never kept.
    pub(crate) fn lookup(&mut self, side: Side, req: &Request<'_>) -> Option<(Held, Response)> {
        let leaf = leaf(req)?;
        let slot = self.find(side, &leaf).1?;
        let memo = &self.sides[side as usize];
        let (_, Some(entry)) = memo.slots.get(slot as usize)? else {
            return None;
        };
        let answer = match &entry.answer {
            Answer::Boolean(b) => Response::Boolean(*b),
            Answer::Rows { rows, cells } => {
                let vars = memo.templates.get(&entry.key.token)?.vars.clone();
                let cell = |&id: &u32| self.terms.term(id).map(Stored::term);
                let rows = match vars.len() {
                    0 => vec![Vec::new(); *rows],
                    width => cells
                        .chunks(width)
                        .map(|row| row.iter().map(cell).collect())
                        .collect(),
                };
                Response::Rows(ResultSet::new(vars, rows))
            }
        };
        Some((self.hold(side, slot)?, answer))
    }

    /// Keeps `answer` as the answer to `req` and holds it for the
    /// caller's read-set. Keeps nothing for a request that is not a
    /// prepared leaf, or an answer of the wrong shape.
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
        let token = prepared.cache_token();
        let memo = &self.sides[side as usize];
        if memo.templates.get(&token).is_some_and(|t| t.vars != vars) {
            return None;
        }
        let (hash, found) = self.find(side, &leaf);
        if let Some(slot) = found {
            // Another alignment kept the same answer meanwhile.
            return self.hold(side, slot);
        }
        if memo.by_key.contains_key(&hash) {
            // Another key holds the hash: this answer is not kept.
            return None;
        }
        let mut taken = Vec::new();
        let mut hold = |term: Option<&Term>| match term {
            None => Some(NONE),
            Some(term) => {
                let id = self.terms.hold(term);
                taken.extend(id);
                id
            }
        };
        let mut interned = || {
            let answer = match rows {
                Ok(rs) => Answer::Rows {
                    rows: rs.len(),
                    cells: rs
                        .iter()
                        .flatten()
                        .map(|cell| hold(cell.as_ref()))
                        .collect::<Option<_>>()?,
                },
                Err(b) => Answer::Boolean(b),
            };
            let args = args.iter().map(|t| hold(Some(t))).collect::<Option<_>>()?;
            Some((answer, args))
        };
        let Some((answer, args)) = interned() else {
            // A term's fingerprint is another term's: nothing is kept.
            taken.into_iter().for_each(|id| self.terms.release(id));
            return None;
        };
        let entry = Entry {
            hash,
            key: Key {
                token,
                ask,
                args,
                limit,
                offset,
            },
            answer,
            refs: 1,
        };
        let memo = &mut self.sides[side as usize];
        let arity = entry.key.args.len();
        let terms = &mut self.terms;
        memo.templates
            .entry(token)
            .or_insert_with(|| Template::new(prepared, arity, vars, terms));
        Some(memo.insert(side, entry, &self.terms))
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

    /// Drops every answer of `side` a triple of `delta` could match.
    /// Returns how many went.
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
        let mut dropped = 0;
        for slot in candidates {
            let Some((_, Some(entry))) = memo.slots.get(slot as usize) else {
                continue;
            };
            let Some(template) = memo.templates.get(&entry.key.token) else {
                continue;
            };
            let terms = &self.terms;
            let changed = template.patterns(&entry.key.args).any(|spo| {
                may_match(
                    spo.map(|id| (id != NONE).then(|| terms.fingerprint(id)).flatten()),
                    |p| delta.has_predicate(p),
                    |t| delta.has_term(t),
                )
            });
            if changed {
                memo.free(slot, &mut self.terms);
                dropped += 1;
            }
        }
        dropped
    }

    /// Drops every answer of both sides, for a change of unknown shape.
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
    fn insert(&mut self, side: Side, entry: Entry, terms: &Terms) -> Held {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push((0, None));
                self.slots.len() as u32 - 1
            }
        };
        if let Some(template) = self.templates.get_mut(&entry.key.token) {
            template.entries += 1;
            for pattern in template.patterns(&entry.key.args) {
                let anchor = Anchor::of(pattern, terms);
                self.index.entry(anchor).or_default().push(slot);
            }
        }
        self.by_key.insert(entry.hash, slot);
        let generation = match self.slots.get_mut(slot as usize) {
            Some((generation, free)) => {
                *free = Some(entry);
                *generation
            }
            None => 0,
        };
        Held {
            side,
            slot,
            generation,
        }
    }

    /// Drops the entry in `slot`, if any, and moves the slot on a
    /// generation.
    fn free(&mut self, slot: u32, terms: &mut Terms) {
        let Some((generation, taken)) = self.slots.get_mut(slot as usize) else {
            return;
        };
        let Some(entry) = taken.take() else {
            return;
        };
        *generation = generation.wrapping_add(1);
        self.free.push(slot);
        self.by_key.remove(&entry.hash);
        if let Some(template) = self.templates.get_mut(&entry.key.token) {
            for pattern in template.patterns(&entry.key.args) {
                let anchor = Anchor::of(pattern, terms);
                if let Some(slots) = self.index.get_mut(&anchor) {
                    if let Some(at) = slots.iter().position(|&s| s == slot) {
                        slots.swap_remove(at);
                    }
                    if slots.is_empty() {
                        self.index.remove(&anchor);
                    }
                }
            }
            template.entries -= 1;
            if template.entries == 0 {
                let shape = template.shape.iter().flatten();
                shape
                    .filter(|&&id| id & PARAM == 0)
                    .for_each(|&id| terms.release(id));
                self.templates.remove(&entry.key.token);
            }
        }
        entry.term_ids().for_each(|id| terms.release(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_endpoint::helpers::*;
    use sofya_endpoint::testing::RequestBuf;
    use sofya_endpoint::{Endpoint, EndpointError, LocalEndpoint, PublishDelta};
    use sofya_rdf::TripleStore;
    use sofya_sparql::QueryBudget;
    use std::sync::{Arc, Mutex};

    const SA: &str = "o:sameAs";
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
    fn universe() -> Vec<(Term, Term, Term)> {
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
    fn base() -> Vec<(Term, Term, Term)> {
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

    fn endpoint(triples: &[(Term, Term, Term)]) -> LocalEndpoint {
        let mut store = TripleStore::new();
        for (s, p, o) in triples {
            store.insert_terms(s, p, o);
        }
        LocalEndpoint::new("kb", store)
    }

    /// Forwards to a store and keeps every prepared leaf it was sent.
    struct Capture {
        inner: LocalEndpoint,
        leaves: Mutex<Vec<RequestBuf>>,
    }

    impl Capture {
        fn record(&self, req: &Request<'_>) {
            let own = |prepared: &Prepared| Arc::new(prepared.clone());
            let leaf = match *req {
                Request::Batch(ref requests) => {
                    return requests.iter().for_each(|r| self.record(r))
                }
                Request::Table { prepared, rows } => {
                    return rows
                        .iter()
                        .for_each(|args| self.record(&Request::leaf(prepared, args)))
                }
                Request::PreparedSelect { prepared, args } => RequestBuf::PreparedSelect {
                    prepared: own(prepared),
                    args: args.to_vec(),
                },
                Request::PreparedAsk { prepared, args } => RequestBuf::PreparedAsk {
                    prepared: own(prepared),
                    args: args.to_vec(),
                },
                Request::PreparedSelectPaged {
                    prepared,
                    args,
                    limit,
                    offset,
                } => RequestBuf::PreparedSelectPaged {
                    prepared: own(prepared),
                    args: args.to_vec(),
                    limit,
                    offset,
                },
                Request::Select { .. } | Request::Ask { .. } => return,
            };
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
    /// all-variable pattern carries.
    fn nested_templates() -> Vec<(Prepared, usize)> {
        [
            (
                "SELECT ?x ?z WHERE { ?x ?r ?y OPTIONAL { ?y ?q ?z } } ORDER BY ?x ?z",
                &["r", "q"][..],
            ),
            (
                "SELECT ?x WHERE { { ?x ?r ?y } UNION { ?y ?q ?x } } ORDER BY ?x",
                &["r", "q"],
            ),
            (
                "SELECT ?x WHERE { ?x ?r ?y FILTER NOT EXISTS { ?y ?q ?x } } ORDER BY ?x",
                &["r", "q"],
            ),
            ("ASK { ?s <r:a> ?o }", &["s", "o"]),
            ("ASK { ?s ?r ?o . ?a ?b ?c }", &["s", "r", "o"]),
        ]
        .into_iter()
        .map(|(text, params)| (Prepared::new(text, params).unwrap(), params.len()))
        .collect()
    }

    /// Every leaf every helper sends over the universe, each argument
    /// ranging over it, plus the nested templates' leaves.
    fn leaves() -> Vec<RequestBuf> {
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
        let terms: Vec<Term> = RELATIONS
            .iter()
            .map(|r| Term::iri(*r))
            .chain(objects())
            .collect();
        for (template, arity) in nested_templates() {
            let template = Arc::new(template);
            let mut args = vec![0; arity];
            // Every argument vector over the universe's terms.
            'all: loop {
                let args_now: Vec<Term> = args.iter().map(|&i| terms[i].clone()).collect();
                leaves.push(if template.is_select() {
                    RequestBuf::PreparedSelect {
                        prepared: Arc::clone(&template),
                        args: args_now,
                    }
                } else {
                    RequestBuf::PreparedAsk {
                        prepared: Arc::clone(&template),
                        args: args_now,
                    }
                });
                for digit in args.iter_mut() {
                    *digit += 1;
                    if *digit < terms.len() {
                        continue 'all;
                    }
                    *digit = 0;
                }
                break;
            }
        }
        leaves
    }

    /// The small-scope check of the per-pattern test: every leaf of
    /// every helper template over a universe of three entities, two
    /// relations and `sameAs`, against every single-triple insert and
    /// remove. Whenever a leaf's answer changes, the memo must have
    /// dropped it; and it must keep some, or the test proves nothing.
    #[test]
    fn every_answer_a_single_triple_changes_is_dropped() {
        let leaves = leaves();
        let base = base();
        let before = endpoint(&base);
        let answers: Vec<Response> = leaves
            .iter()
            .map(|leaf| before.execute(leaf.as_request()).unwrap())
            .collect();
        let (mut changed, mut kept) = (0, 0);
        for triple in universe() {
            let mut after: Vec<_> = base.iter().filter(|t| **t != triple).cloned().collect();
            if after.len() == base.len() {
                after.push(triple.clone());
            }
            let after = endpoint(&after);
            let mut memo = Memo::default();
            for (leaf, answer) in leaves.iter().zip(&answers) {
                memo.keep(Side::Target, &leaf.as_request(), answer);
            }
            let (s, p, o) = triple;
            let delta = PublishDelta {
                prev_epoch: 1,
                epoch: 2,
                predicates: vec![p.clone()],
                terms: vec![s.clone(), o.clone()],
            };
            memo.invalidate(Side::Target, &DeltaView::new(&delta));
            for (leaf, answer) in leaves.iter().zip(&answers) {
                let req = leaf.as_request();
                let now = after.execute(req.clone()).unwrap();
                let survived = memo.lookup(Side::Target, &req);
                if let Some((_, memoised)) = &survived {
                    assert_eq!(memoised, answer, "{leaf:?}");
                    kept += 1;
                }
                if now != *answer {
                    changed += 1;
                    assert!(
                        survived.is_none(),
                        "{leaf:?} changed under ({s}, {p}, {o}) but was kept"
                    );
                }
            }
        }
        assert!(
            changed > 1000 && kept > 5000,
            "changed {changed}, kept {kept}"
        );
    }

    /// Entries, terms and templates go with their last holder.
    #[test]
    fn releasing_every_holder_empties_the_memo() {
        let leaves = leaves();
        let before = endpoint(&base());
        let mut memo = Memo::default();
        let mut held = Vec::new();
        for _ in 0..2 {
            for leaf in &leaves {
                let req = leaf.as_request();
                let answer = before.execute(req.clone()).unwrap();
                held.extend(memo.keep(Side::Source, &req, &answer));
            }
        }
        assert_eq!(held.len(), 2 * leaves.len());
        assert!(memo.len(Side::Source) > 100);
        memo.release(&held);
        let source = &memo.sides[Side::Source as usize];
        assert_eq!(memo.len(Side::Source), 0);
        assert!(source.index.is_empty() && source.templates.is_empty());
        assert!(memo.terms.ids.is_empty());
        // A release after the slot moved on lets go of nothing.
        memo.release(&held);
        assert!(memo.terms.ids.is_empty());
    }
}
