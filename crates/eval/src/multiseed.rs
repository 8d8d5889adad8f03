//! Multi-seed aggregation: mean and spread of the Table 1 metrics across
//! independently generated pairs, to separate the method's effect from
//! seed luck.

use crate::metrics::PrecisionRecall;
use crate::runner::parallel_map;
use crate::table1::run_table1;
use sofya_core::AlignError;
use sofya_kbgen::{generate, PairConfig};

/// Mean and sample standard deviation of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two points).
    pub std_dev: f64,
}

impl Aggregate {
    /// Computes mean and standard deviation of `values`.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let std_dev = if values.len() < 2 {
            0.0
        } else {
            let var =
                values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
            var.sqrt()
        };
        Self { mean, std_dev }
    }
}

impl std::fmt::Display for Aggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}±{:.2}", self.mean, self.std_dev)
    }
}

/// Aggregated metrics of one method row over several seeds.
#[derive(Debug, Clone)]
pub struct AggregatedRow {
    /// Method label.
    pub label: String,
    /// Precision / F1 per direction, aggregated.
    pub kb1_in_kb2_p: Aggregate,
    /// F1 of the `kb1 ⊂ kb2` direction.
    pub kb1_in_kb2_f1: Aggregate,
    /// Precision of the `kb2 ⊂ kb1` direction.
    pub kb2_in_kb1_p: Aggregate,
    /// F1 of the `kb2 ⊂ kb1` direction.
    pub kb2_in_kb1_f1: Aggregate,
}

/// Runs Table 1 on `seeds.len()` independently generated pairs and
/// aggregates per method row. `make_config` maps a seed to the generator
/// configuration (e.g. `PairConfig::small`).
///
/// Seeds run as independent `parallel_map` jobs (generation + the
/// full Table 1 run per job); aggregation order follows the input seed
/// order, so results are identical to a sequential loop. The thread
/// budget is split between the two
/// levels — `outer` concurrent seeds × `inner` alignment workers per
/// seed stays ≈ `threads` — so parallelising seeds neither oversubscribes
/// the host nor multiplies peak memory (at most `outer` generated pairs
/// are resident at once).
pub fn table1_over_seeds(
    seeds: &[u64],
    make_config: impl Fn(u64) -> PairConfig + Sync,
    sample_size: usize,
    threads: usize,
) -> Result<Vec<AggregatedRow>, AlignError> {
    let outer = threads.max(1).min(seeds.len().max(1));
    // Round the inner budget *up*: mild oversubscription when the split
    // is uneven beats stranding threads (e.g. 6 threads / 4 seeds gives
    // 4×2, not 4×1).
    let inner = threads.max(1).div_ceil(outer);
    let tables = parallel_map(outer, seeds.to_vec(), |seed: u64| {
        let pair = generate(&make_config(seed));
        run_table1(&pair, seed, sample_size, inner)
    });

    let mut per_method: Vec<(String, Vec<[f64; 4]>)> = Vec::new();
    for table in tables {
        let table = table?;
        for (i, row) in table.rows.iter().enumerate() {
            if per_method.len() <= i {
                per_method.push((row.label.clone(), Vec::new()));
            }
            per_method[i].1.push([
                row.kb1_in_kb2.precision(),
                row.kb1_in_kb2.f1(),
                row.kb2_in_kb1.precision(),
                row.kb2_in_kb1.f1(),
            ]);
        }
    }
    Ok(per_method
        .into_iter()
        .map(|(label, samples)| {
            let col = |i: usize| -> Vec<f64> { samples.iter().map(|s| s[i]).collect() };
            AggregatedRow {
                label,
                kb1_in_kb2_p: Aggregate::of(&col(0)),
                kb1_in_kb2_f1: Aggregate::of(&col(1)),
                kb2_in_kb1_p: Aggregate::of(&col(2)),
                kb2_in_kb1_f1: Aggregate::of(&col(3)),
            }
        })
        .collect())
}

/// Convenience: aggregated precision/recall over raw outcomes.
pub fn aggregate_metrics(metrics: &[PrecisionRecall]) -> (Aggregate, Aggregate, Aggregate) {
    let p: Vec<f64> = metrics.iter().map(PrecisionRecall::precision).collect();
    let r: Vec<f64> = metrics.iter().map(PrecisionRecall::recall).collect();
    let f: Vec<f64> = metrics.iter().map(PrecisionRecall::f1).collect();
    (Aggregate::of(&p), Aggregate::of(&r), Aggregate::of(&f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_math() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0]);
        assert!((a.mean - 2.0).abs() < 1e-12);
        assert!((a.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(Aggregate::of(&[]).mean, 0.0);
        assert_eq!(Aggregate::of(&[5.0]).std_dev, 0.0);
        assert_eq!(format!("{}", Aggregate::of(&[0.5, 0.5])), "0.50±0.00");
    }

    #[test]
    fn multiseed_table1_keeps_the_ubs_gap() {
        let rows = table1_over_seeds(&[7, 8], PairConfig::tiny, 8, 4).unwrap();
        assert_eq!(rows.len(), 3);
        let pca = &rows[0];
        let ubs = &rows[2];
        assert!(
            ubs.kb2_in_kb1_p.mean >= pca.kb2_in_kb1_p.mean,
            "UBS {} vs SSE {}",
            ubs.kb2_in_kb1_p,
            pca.kb2_in_kb1_p
        );
    }

    #[test]
    fn aggregate_metrics_bundles_p_r_f1() {
        let ms = [PrecisionRecall::new(1, 0, 1), PrecisionRecall::new(1, 1, 0)];
        let (p, r, f) = aggregate_metrics(&ms);
        assert!((p.mean - 0.75).abs() < 1e-12);
        assert!((r.mean - 0.75).abs() < 1e-12);
        assert!(f.mean > 0.0);
    }
}
