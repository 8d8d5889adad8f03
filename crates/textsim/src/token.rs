//! Token-level similarity: whole-word matching for multi-word literals.

use crate::jaro::jaro_winkler;

/// Monge–Elkan similarity: for each whitespace-separated token of `a`,
/// the best [`jaro_winkler`] match in `b`, averaged; symmetrised by
/// taking the mean of both directions.
///
/// Tolerates both token reordering *and* per-token typos, at O(|a|·|b|)
/// token comparisons.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    let ta: Vec<&str> = a.split_whitespace().collect();
    let tb: Vec<&str> = b.split_whitespace().collect();
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let directed = |xs: &[&str], ys: &[&str]| -> f64 {
        xs.iter()
            .map(|x| {
                ys.iter()
                    .map(|y| jaro_winkler(x, y))
                    .fold(0.0_f64, f64::max)
            })
            .sum::<f64>()
            / xs.len() as f64
    };
    (directed(&ta, &tb) + directed(&tb, &ta)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monge_elkan_tolerates_reorder_plus_typo() {
        let s = monge_elkan("frank sinatra", "sinatra frnak");
        assert!(s > 0.85, "got {s}");
        assert_eq!(monge_elkan("frank sinatra", "frank sinatra"), 1.0);
    }

    #[test]
    fn monge_elkan_is_symmetric_by_construction() {
        let a = "barack hussein obama";
        let b = "obama barack";
        assert!((monge_elkan(a, b) - monge_elkan(b, a)).abs() < 1e-12);
    }

    #[test]
    fn monge_elkan_empty_conventions() {
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(monge_elkan("", "x"), 0.0);
        assert_eq!(monge_elkan("x", ""), 0.0);
    }

    #[test]
    fn monge_elkan_bounded() {
        for (a, b) in [("a b c", "x y"), ("one", "two three"), ("q", "q")] {
            let v = monge_elkan(a, b);
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
