//! The Table 1 experiment: three methods × two directions.

use crate::metrics::{evaluate_rules, PrecisionRecall};
use crate::report::{direction_header, direction_row, Table};
use crate::runner::align_pair;
use sofya_core::{AlignError, AlignerConfig};
use sofya_kbgen::GeneratedPair;

/// One method row of Table 1.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Display label (e.g. `"pcaconf (SSE), τ>0.3"`).
    pub label: String,
    /// Metrics for `kb2 ⊂ kb1` — the paper's `dbpd ⊂ yago` column pair.
    pub kb2_in_kb1: PrecisionRecall,
    /// Metrics for `kb1 ⊂ kb2` — the paper's `yago ⊂ dbpd` column pair.
    pub kb1_in_kb2: PrecisionRecall,
    /// Endpoint cost of the `kb2 ⊂ kb1` run.
    pub kb2_in_kb1_cost: u64,
    /// Endpoint cost of the `kb1 ⊂ kb2` run.
    pub kb1_in_kb2_cost: u64,
}

/// The full Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Rows in paper order: pcaconf-SSE, cwaconf-SSE, UBS.
    pub rows: Vec<MethodRow>,
    /// KB1 display name (paper: yago).
    pub kb1_name: String,
    /// KB2 display name (paper: dbpd).
    pub kb2_name: String,
}

impl Table1Result {
    /// Renders the table in the paper's layout (P and F1 per direction).
    pub fn render(&self) -> String {
        let mut table = Table::new(direction_header("ILP", &self.kb1_name, &self.kb2_name));
        for row in &self.rows {
            table.push(direction_row(
                row.label.clone(),
                &row.kb1_in_kb2,
                &row.kb2_in_kb1,
            ));
        }
        table.render()
    }
}

/// Runs the three Table 1 methods on a generated pair.
///
/// * row 1 — `pcaconf`, Simple Sample Extraction, τ > 0.3;
/// * row 2 — `cwaconf`, Simple Sample Extraction, τ > 0.1;
/// * row 3 — UBS with `pcaconf` (the paper's contribution).
pub fn run_table1(
    pair: &GeneratedPair,
    seed: u64,
    sample_size: usize,
    threads: usize,
) -> Result<Table1Result, AlignError> {
    let mut rows = Vec::new();
    let methods: Vec<(String, AlignerConfig)> = vec![
        (
            "pcaconf (SSE), tau>0.3".to_owned(),
            AlignerConfig {
                sample_size,
                ..AlignerConfig::baseline_pca(seed)
            },
        ),
        (
            "cwaconf (SSE), tau>0.1".to_owned(),
            AlignerConfig {
                sample_size,
                ..AlignerConfig::baseline_cwa(seed)
            },
        ),
        (
            "UBS pcaconf".to_owned(),
            AlignerConfig {
                sample_size,
                ..AlignerConfig::paper_defaults(seed)
            },
        ),
    ];

    for (label, config) in methods {
        let (fwd, bwd) = align_pair(pair, &config, threads)?;
        rows.push(MethodRow {
            label,
            kb2_in_kb1: evaluate_rules(&fwd.rules, &pair.gold, pair.kb2_name(), pair.kb1_name()),
            kb1_in_kb2: evaluate_rules(&bwd.rules, &pair.gold, pair.kb1_name(), pair.kb2_name()),
            kb2_in_kb1_cost: fwd.total_queries(),
            kb1_in_kb2_cost: bwd.total_queries(),
        });
    }
    Ok(Table1Result {
        rows,
        kb1_name: pair.kb1_name().to_owned(),
        kb2_name: pair.kb2_name().to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_kbgen::{generate, PairConfig};

    #[test]
    fn table1_on_small_pair_shows_the_paper_shape() {
        let pair = generate(&PairConfig::small(41));
        let result = run_table1(&pair, 41, 10, 4).unwrap();
        assert_eq!(result.rows.len(), 3);
        let pca = &result.rows[0];
        let ubs = &result.rows[2];

        // The paper's headline: UBS precision beats the SSE baseline by a
        // wide margin in both directions.
        assert!(
            ubs.kb2_in_kb1.precision() > pca.kb2_in_kb1.precision(),
            "UBS {} vs SSE {}",
            ubs.kb2_in_kb1,
            pca.kb2_in_kb1
        );
        assert!(
            ubs.kb2_in_kb1.precision() >= 0.8,
            "UBS precision should be high: {}",
            ubs.kb2_in_kb1
        );
        // Pruning must not destroy recall.
        assert!(
            ubs.kb2_in_kb1.recall() >= 0.5,
            "UBS recall collapsed: {}",
            ubs.kb2_in_kb1
        );
    }

    #[test]
    fn render_contains_all_rows_and_directions() {
        let pair = generate(&PairConfig::tiny(42));
        let result = run_table1(&pair, 42, 6, 2).unwrap();
        let rendered = result.render();
        assert!(rendered.contains("pcaconf"));
        assert!(rendered.contains("cwaconf"));
        assert!(rendered.contains("UBS"));
        assert!(rendered.contains("⊂"));
    }
}
