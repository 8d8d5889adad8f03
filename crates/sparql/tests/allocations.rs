//! The evaluator's allocation and budget contract, pinned with a counting
//! global allocator: rows before an OFFSET are counted but never stored,
//! `COUNT(*)` stores no solution, and a binding cap still charges every
//! solution produced, skipped or not.
//!
//! Counts are per thread, so tests running side by side do not see each
//! other's allocations; they are exact and deterministic.

use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{
    execute, execute_ast_budgeted, parse_query, BudgetBreach, PlanOptions, QueryBudget, SparqlError,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// `<e:s{i}> <r:p> <e:o{i}>` for `i < n`, plus a `<r:q>` edge from every
/// object, so `?x <r:p> ?y . ?y <r:q> ?z` has `n` solutions.
fn store(n: usize) -> TripleStore {
    let mut s = TripleStore::new();
    for i in 0..n {
        let (subject, object) = (Term::iri(format!("e:s{i}")), Term::iri(format!("e:o{i}")));
        s.insert_terms(&subject, &Term::iri("r:p"), &object);
        s.insert_terms(&object, &Term::iri("r:q"), &Term::iri("e:end"));
    }
    s.flush();
    s
}

#[test]
fn a_page_allocates_the_same_at_any_offset() {
    let s = store(10_000);
    let page = |offset: usize| {
        let q = format!("SELECT ?x ?y WHERE {{ ?x <r:p> ?y }} LIMIT 200 OFFSET {offset}");
        let (n, rs) = allocations(|| execute(&s, &q).unwrap());
        assert_eq!(rs.len(), 200);
        n
    };
    let first = page(0);
    // The offset's digits are the only difference in the query text.
    assert_eq!(page(1_000), first);
    assert_eq!(page(5_000), first);
    assert_eq!(page(9_800), first);
    // 200 rows of two cloned terms each, plus parsing and planning: far
    // below one allocation per skipped row.
    assert!(first < 1_000, "{first} allocations for a 200-row page");
}

#[test]
fn count_star_over_a_join_allocates_nothing_per_solution() {
    let q = "SELECT (COUNT(*) AS ?n) WHERE { ?x <r:p> ?y . ?y <r:q> ?z }";
    let count = |n: usize| {
        let s = store(n);
        let (allocs, rs) = allocations(|| execute(&s, q).unwrap());
        assert_eq!(rs.single_integer(), Some(n as i64));
        allocs
    };
    assert_eq!(count(100), count(5_000));
}

#[test]
fn a_binding_cap_charges_the_rows_an_offset_skips() {
    let s = store(10_000);
    let q = parse_query("SELECT ?x ?y WHERE { ?x <r:p> ?y } LIMIT 200 OFFSET 5000").unwrap();
    let run = |cap: usize| {
        let budget = QueryBudget::unlimited().with_max_bindings(cap);
        execute_ast_budgeted(&s, &q, PlanOptions::default(), &budget)
    };
    // The page is solutions 5,001 to 5,200: every one of them is charged.
    assert!(run(5_200).is_ok());
    assert!(matches!(
        run(5_199),
        Err(SparqlError::Budget {
            breach: BudgetBreach::Bindings { limit: 5_199 }
        })
    ));
}
