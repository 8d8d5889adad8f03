//! The literal matcher, pinned bit for bit.
//!
//! Entity–literal rules stand or fall on `literal_similarity`, so a
//! refactor of `sofya-textsim` must not move a single bit of it. The
//! corpus is fixed: the name pairs of `examples/literal_alignment.rs`,
//! edge cases (empty, punctuation only, CJK, Polish diacritics), and 300
//! seeded `NameForge` names, each paired with a corrupted form of itself
//! and with the next name. Every value is compared by its `f64` bits
//! with `tests/literal_similarity_bits.txt`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sofya_kbgen::NameForge;
use sofya_textsim::literal_similarity;

fn corpus() -> Vec<(String, String)> {
    let fixed = [
        ("Frank Sinatra", "frank_sinatra"),
        ("Ella Fitzgerald", "Fitzgerald, Ella"),
        ("Kurt Gödel", "Kurt Godel"),
        ("Ludwig van Beethoven", "BEETHOVEN, LUDWIG VAN"),
        ("Dean Martin", "Dean Martìn"),
        ("Billie Holiday", "Billie Holliday"),
        ("", ""),
        ("", "Frank Sinatra"),
        ("?!", "..."),
        ("東京都", "東京"),
        ("Łódź", "Lodz"),
    ];
    let mut pairs: Vec<(String, String)> = fixed
        .iter()
        .map(|(a, b)| ((*a).to_owned(), (*b).to_owned()))
        .collect();
    let mut rng = StdRng::seed_from_u64(31);
    let names: Vec<String> = (0..300).map(|_| NameForge::full_name(&mut rng)).collect();
    for (i, name) in names.iter().enumerate() {
        pairs.push((name.clone(), NameForge::corrupt(&mut rng, name)));
        pairs.push((name.clone(), names[(i + 1) % names.len()].clone()));
    }
    pairs
}

#[test]
fn literal_similarity_is_pinned_bit_for_bit() {
    let actual: String = corpus()
        .iter()
        .map(|(a, b)| format!("{:016x}\t{a}\t{b}\n", literal_similarity(a, b).to_bits()))
        .collect();
    let pinned = include_str!("literal_similarity_bits.txt");
    if actual != pinned {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("literal_similarity_bits.actual");
        std::fs::write(&path, &actual).expect("write the actual rendering");
        let line = actual
            .lines()
            .zip(pinned.lines())
            .position(|(a, p)| a != p)
            .unwrap_or_else(|| actual.lines().count().min(pinned.lines().count()));
        panic!(
            "similarities differ from tests/literal_similarity_bits.txt at line {}; actual rendering in {}",
            line + 1,
            path.display()
        );
    }
}
