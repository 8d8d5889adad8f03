//! Text normalisation applied before similarity measurement.
//!
//! Literal surface forms across knowledge bases differ in case,
//! punctuation, diacritics, and whitespace ("Frank Sinatra" vs
//! "frank_SINATRA" vs "Fránk  Sinatra."). Normalising both sides first
//! makes the character- and gram-level measures meaningful.

/// Normalises `input` in four steps: accented Latin letters folded to
/// ASCII, lower-cased, every character that is neither alphanumeric nor
/// whitespace replaced by a space, and whitespace runs squashed to one
/// space with the ends trimmed.
pub fn normalize(input: &str) -> String {
    let spaced: String = ascii_fold(input)
        .to_lowercase()
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c.is_whitespace() {
                c
            } else {
                ' '
            }
        })
        .collect();
    spaced.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Maps accented Latin letters to their ASCII base letter; characters
/// without a mapping pass through unchanged.
///
/// Covers Latin-1 Supplement and the ligatures/strokes that occur in
/// European names (the dominant case in YAGO/DBpedia labels). This is a
/// table-driven fold, not full Unicode NFKD (out of scope offline).
fn ascii_fold(input: &str) -> String {
    input.chars().map(fold_char).collect()
}

fn fold_char(c: char) -> char {
    match c {
        'à' | 'á' | 'â' | 'ã' | 'ä' | 'å' | 'ā' | 'ă' | 'ą' => 'a',
        'À' | 'Á' | 'Â' | 'Ã' | 'Ä' | 'Å' | 'Ā' | 'Ă' | 'Ą' => 'A',
        'ç' | 'ć' | 'č' | 'ĉ' => 'c',
        'Ç' | 'Ć' | 'Č' | 'Ĉ' => 'C',
        'ď' | 'đ' => 'd',
        'Ď' | 'Đ' => 'D',
        'è' | 'é' | 'ê' | 'ë' | 'ē' | 'ĕ' | 'ė' | 'ę' | 'ě' => 'e',
        'È' | 'É' | 'Ê' | 'Ë' | 'Ē' | 'Ĕ' | 'Ė' | 'Ę' | 'Ě' => 'E',
        'ĝ' | 'ğ' | 'ġ' | 'ģ' => 'g',
        'Ĝ' | 'Ğ' | 'Ġ' | 'Ģ' => 'G',
        'ĥ' | 'ħ' => 'h',
        'Ĥ' | 'Ħ' => 'H',
        'ì' | 'í' | 'î' | 'ï' | 'ĩ' | 'ī' | 'ĭ' | 'į' | 'ı' => 'i',
        'Ì' | 'Í' | 'Î' | 'Ï' | 'Ĩ' | 'Ī' | 'Ĭ' | 'Į' | 'İ' => 'I',
        'ĵ' => 'j',
        'Ĵ' => 'J',
        'ķ' => 'k',
        'Ķ' => 'K',
        'ĺ' | 'ļ' | 'ľ' | 'ł' => 'l',
        'Ĺ' | 'Ļ' | 'Ľ' | 'Ł' => 'L',
        'ñ' | 'ń' | 'ņ' | 'ň' => 'n',
        'Ñ' | 'Ń' | 'Ņ' | 'Ň' => 'N',
        'ò' | 'ó' | 'ô' | 'õ' | 'ö' | 'ø' | 'ō' | 'ŏ' | 'ő' => 'o',
        'Ò' | 'Ó' | 'Ô' | 'Õ' | 'Ö' | 'Ø' | 'Ō' | 'Ŏ' | 'Ő' => 'O',
        'ŕ' | 'ŗ' | 'ř' => 'r',
        'Ŕ' | 'Ŗ' | 'Ř' => 'R',
        'ś' | 'ŝ' | 'ş' | 'š' => 's',
        'Ś' | 'Ŝ' | 'Ş' | 'Š' => 'S',
        'ţ' | 'ť' | 'ŧ' => 't',
        'Ţ' | 'Ť' | 'Ŧ' => 'T',
        'ù' | 'ú' | 'û' | 'ü' | 'ũ' | 'ū' | 'ŭ' | 'ů' | 'ű' | 'ų' => 'u',
        'Ù' | 'Ú' | 'Û' | 'Ü' | 'Ũ' | 'Ū' | 'Ŭ' | 'Ů' | 'Ű' | 'Ų' => 'U',
        'ŵ' => 'w',
        'Ŵ' => 'W',
        'ý' | 'ÿ' | 'ŷ' => 'y',
        'Ý' | 'Ÿ' | 'Ŷ' => 'Y',
        'ź' | 'ż' | 'ž' => 'z',
        'Ź' | 'Ż' | 'Ž' => 'Z',
        'ß' => 's',
        'æ' => 'a',
        'Æ' => 'A',
        'œ' => 'o',
        'Œ' => 'O',
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_canonicalises_name_variants() {
        assert_eq!(normalize("Frank Sinatra"), "frank sinatra");
        assert_eq!(normalize("frank_SINATRA"), "frank sinatra");
        assert_eq!(normalize("  Fránk   Sinatra. "), "frank sinatra");
    }

    #[test]
    fn ascii_fold_handles_common_accents() {
        assert_eq!(ascii_fold("Čajkovskij"), "Cajkovskij");
        assert_eq!(ascii_fold("Gödel"), "Godel");
        assert_eq!(ascii_fold("FRANÇAIS"), "FRANCAIS");
        assert_eq!(ascii_fold("Łódź"), "Lodz");
    }

    #[test]
    fn fold_passes_through_unmapped_chars() {
        assert_eq!(ascii_fold("日本語 abc"), "日本語 abc");
    }

    #[test]
    fn punctuation_becomes_single_space_after_squash() {
        assert_eq!(normalize("a,b;c"), "a b c");
        assert_eq!(normalize("O'Neil"), "o neil");
    }

    #[test]
    fn empty_and_whitespace_only_inputs() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   \t "), "");
        assert_eq!(normalize("..."), "");
    }
}
