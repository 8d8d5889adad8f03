//! Deterministic name synthesis and surface-form corruption.
//!
//! Entities get pronounceable names so that the literal-alignment path
//! works on realistic material; corruption simulates how the *same* name
//! appears differently across knowledge bases ("Frank Sinatra" vs
//! "frank_sinatra" vs "Sinatra, Frank" vs a typo'd form).

use rand::rngs::StdRng;
use rand::Rng;

const ONSETS: &[&str] = &[
    "b", "br", "c", "ch", "d", "dr", "f", "fr", "g", "gr", "h", "j", "k", "kl", "l", "m", "n", "p",
    "pr", "r", "s", "sh", "st", "t", "th", "v", "w", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ia", "ei", "ou", "ae"];
const CODAS: &[&str] = &["", "n", "r", "s", "l", "m", "k", "t", "nd", "rt", "ss"];

/// Accent substitutions used by [`NameForge::corrupt`].
const ACCENTS: &[(char, char)] = &[
    ('a', 'á'),
    ('e', 'é'),
    ('i', 'í'),
    ('o', 'ö'),
    ('u', 'ü'),
    ('c', 'ç'),
    ('n', 'ñ'),
];

/// A seeded generator of names and their corrupted variants.
///
/// `NameForge` owns no RNG; every method takes one, so the caller controls
/// determinism centrally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameForge;

impl NameForge {
    /// One capitalised pronounceable word of 2–3 syllables.
    pub fn word(rng: &mut StdRng) -> String {
        let syllables = rng.gen_range(2..=3);
        let mut w = String::new();
        for _ in 0..syllables {
            w.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
            w.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
            w.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
        }
        let mut chars = w.chars();
        match chars.next() {
            Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
            None => w,
        }
    }

    /// A person-like full name: "Word Word".
    pub fn full_name(rng: &mut StdRng) -> String {
        format!("{} {}", Self::word(rng), Self::word(rng))
    }

    /// Applies one KB's idea of the same name: randomly one of — identity,
    /// case change, underscore separator, "Last, First" inversion, accent
    /// insertion, or a single-character typo.
    pub fn corrupt(rng: &mut StdRng, name: &str) -> String {
        match rng.gen_range(0..6u8) {
            0 => name.to_owned(),
            1 => {
                if rng.gen_bool(0.5) {
                    name.to_lowercase()
                } else {
                    name.to_uppercase()
                }
            }
            2 => name.replace(' ', "_"),
            3 => {
                let tokens: Vec<&str> = name.split(' ').collect();
                if tokens.len() >= 2 {
                    format!(
                        "{}, {}",
                        tokens[tokens.len() - 1],
                        tokens[..tokens.len() - 1].join(" ")
                    )
                } else {
                    name.to_owned()
                }
            }
            4 => Self::accent(rng, name),
            _ => Self::typo(rng, name),
        }
    }

    /// Replaces the first accentable character (if any) with an accented
    /// variant.
    fn accent(rng: &mut StdRng, name: &str) -> String {
        let lower = name.to_lowercase();
        let target = ACCENTS
            .iter()
            .filter(|(plain, _)| lower.contains(*plain))
            .nth(rng.gen_range(0..3usize));
        let Some(&(plain, fancy)) = target else {
            return name.to_owned();
        };
        let mut done = false;
        name.chars()
            .map(|c| {
                if !done && c.to_lowercase().next() == Some(plain) {
                    done = true;
                    if c.is_uppercase() {
                        fancy.to_uppercase().next().unwrap_or(fancy)
                    } else {
                        fancy
                    }
                } else {
                    c
                }
            })
            .collect()
    }

    /// Swaps two adjacent interior characters (a keyboard transposition).
    fn typo(rng: &mut StdRng, name: &str) -> String {
        let chars: Vec<char> = name.chars().collect();
        if chars.len() < 4 {
            return name.to_owned();
        }
        let i = rng.gen_range(1..chars.len() - 2);
        let mut out = chars.clone();
        out.swap(i, i + 1);
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn words_are_capitalised_and_nonempty() {
        let mut r = rng(7);
        for _ in 0..100 {
            let w = NameForge::word(&mut r);
            assert!(!w.is_empty());
            assert!(w.chars().next().unwrap().is_uppercase());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<String> = {
            let mut r = rng(42);
            (0..10).map(|_| NameForge::full_name(&mut r)).collect()
        };
        let b: Vec<String> = {
            let mut r = rng(42);
            (0..10).map(|_| NameForge::full_name(&mut r)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<String> = {
            let mut r = rng(43);
            (0..10).map(|_| NameForge::full_name(&mut r)).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn corrupt_produces_recoverable_variants() {
        // The corrupted form must stay recognisably the same name for
        // `sofya_textsim::literals_match`: same alphanumerics modulo case,
        // separators, accents, one transposition, or token order.
        let mut r = rng(11);
        let name = "Frank Sinatra";
        for _ in 0..200 {
            let v = NameForge::corrupt(&mut r, name);
            assert!(!v.is_empty());
            // Length can only change by the ", " of inversion.
            assert!((v.chars().count() as i64 - name.chars().count() as i64).abs() <= 2);
        }
    }

    #[test]
    fn typo_swaps_exactly_one_adjacent_pair() {
        let mut r = rng(3);
        let original = "abcdefgh";
        let t = NameForge::typo(&mut r, original);
        let diffs: Vec<usize> = original
            .chars()
            .zip(t.chars())
            .enumerate()
            .filter_map(|(i, (a, b))| (a != b).then_some(i))
            .collect();
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[1], diffs[0] + 1);
    }

    #[test]
    fn short_names_resist_typo_and_inversion() {
        let mut r = rng(5);
        assert_eq!(NameForge::typo(&mut r, "abc"), "abc");
        for _ in 0..50 {
            let v = NameForge::corrupt(&mut r, "Bo");
            assert!(!v.is_empty());
        }
    }
}
