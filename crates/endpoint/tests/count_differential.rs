//! Differential: a count is the row count of the page template it sizes.
//!
//! `linked_entity_fact_count` and `linked_literal_fact_count` are
//! `SELECT (COUNT(*) AS ?n)` templates of their own, written beside the
//! `linked_*_facts_page` templates whose paging they bound. Small scope,
//! every case, against a reference: for every relation of both KBs of a
//! seeded kbgen pair, each count equals the number of rows its page
//! template returns when read in full. (The same check over a loopback
//! `RemoteEndpoint` is in `crates/net/tests/loopback_e2e.rs`.)

use sofya_endpoint::helpers::{
    linked_entity_fact_count, linked_entity_facts_page, linked_literal_fact_count,
    linked_literal_facts_page,
};
use sofya_endpoint::LocalEndpoint;
use sofya_kbgen::{generate, PairConfig};

/// A page no relation of the pair fills, so one page is the whole shape
/// (asserted, not assumed).
const ALL: usize = 100_000;

#[test]
fn both_count_helpers_equal_their_page_template_read_in_full() {
    let pair = generate(&PairConfig::small(42));
    let sa = pair.same_as();
    let (mut entity_facts, mut literal_facts) = (0, 0);
    for (store, relations) in [
        (&pair.kb1, &pair.kb1_relations),
        (&pair.kb2, &pair.kb2_relations),
    ] {
        let ep = LocalEndpoint::new("kb", store.clone());
        for r in relations
            .iter()
            .map(String::as_str)
            .chain([sa, "kb:absent"])
        {
            let entities = linked_entity_facts_page(&ep, r, sa, ALL, 0).expect("page");
            let literals = linked_literal_facts_page(&ep, r, sa, ALL, 0).expect("page");
            assert!(entities.len() < ALL && literals.len() < ALL);
            assert_eq!(
                linked_entity_fact_count(&ep, r, sa).expect("count"),
                entities.len(),
                "linked entity facts of {r}"
            );
            assert_eq!(
                linked_literal_fact_count(&ep, r, sa).expect("count"),
                literals.len(),
                "linked literal facts of {r}"
            );
            entity_facts += entities.len();
            literal_facts += literals.len();
        }
    }
    // The pair exercises both shapes.
    assert!(entity_facts > 100 && literal_facts > 100);
}
