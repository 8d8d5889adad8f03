//! Aligning entity–literal relations with string similarity.
//!
//! `sameAs` links connect *entities*; literal values ("Frank Sinatra" vs
//! "frank_sinatra" vs "Sinatra, Frank") carry no links, so §2.2 of the
//! paper matches them with string-similarity functions. This example
//! aligns two differently-formatted name relations and shows the
//! similarity machinery underneath.
//!
//! ```text
//! cargo run --release --example literal_alignment
//! ```

use sofya::align::{Aligner, AlignerConfig};
use sofya::endpoint::LocalEndpoint;
use sofya::rdf::{Term, TripleStore};
use sofya::textsim::{jaro_winkler, literal_similarity};

const SAME_AS: &str = "http://www.w3.org/2002/07/owl#sameAs";

fn main() {
    // The same people, named differently per KB.
    let people = [
        ("Frank Sinatra", "frank_sinatra"),
        ("Ella Fitzgerald", "Fitzgerald, Ella"),
        ("Kurt Gödel", "Kurt Godel"),
        ("Ludwig van Beethoven", "BEETHOVEN, LUDWIG VAN"),
        ("Dean Martin", "Dean Martìn"),
        ("Billie Holiday", "Billie Holliday"),
    ];

    let mut yago = TripleStore::new();
    let mut dbp = TripleStore::new();
    for (i, (y_name, d_name)) in people.iter().enumerate() {
        let (py, pd) = (format!("y:p{i}"), format!("d:P{i}"));
        yago.insert_terms(
            &Term::iri(&py),
            &Term::iri("y:label"),
            &Term::literal(*y_name),
        );
        dbp.insert_terms(
            &Term::iri(&pd),
            &Term::iri("d:name"),
            &Term::literal(*d_name),
        );
        yago.insert_terms(&Term::iri(&py), &Term::iri(SAME_AS), &Term::iri(&pd));
        dbp.insert_terms(&Term::iri(&pd), &Term::iri(SAME_AS), &Term::iri(&py));
    }

    // Peek at the similarity layer first.
    println!("surface-form similarity (hybrid matcher after normalisation):");
    for (y_name, d_name) in &people {
        println!(
            "  {:<22} vs {:<24} sim {:.3}  (raw jw {:.2})",
            y_name,
            d_name,
            literal_similarity(y_name, d_name),
            jaro_winkler(y_name, d_name),
        );
    }

    // Then align: SOFYA discovers d:name as a candidate for y:label and
    // validates it through the literal path.
    let source = LocalEndpoint::new("dbp", dbp);
    let target = LocalEndpoint::new("yago", yago);
    let aligner = Aligner::new(&source, &target, AlignerConfig::paper_defaults(3));
    let rules = aligner.align_relation("y:label").expect("alignment failed");

    println!("\nmined literal rules:");
    for rule in &rules {
        println!("  {rule}   (literal path: {})", rule.literal);
    }
    assert!(
        rules.iter().any(|r| r.premise == "d:name"),
        "d:name should align to y:label"
    );
}
