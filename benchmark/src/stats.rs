//! Order statistics for latency samples and for run-to-run comparison.

/// Returned when a percentile has too thin a tail to be trusted.
#[derive(Debug, PartialEq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub needed: usize,
}

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `sorted`, nearest-rank.
///
/// Refuses unless at least ten samples lie beyond it: a p95 of forty
/// samples is the second-largest value, which repeats no better than the
/// maximum does.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let beyond = (sorted.len() as f64 * (1.0 - p)).floor() as usize;
    if beyond < TAIL_SAMPLES {
        let needed = (TAIL_SAMPLES as f64 / (1.0 - p)).ceil() as usize;
        return Err(TooFewSamples {
            samples: sorted.len(),
            needed,
        });
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    Ok(sorted[rank - 1])
}

/// [`percentile`], falling back to the maximum when the tail is too thin
/// — the conservative reading, so a run that completes few operations
/// never looks better for it. Returns the value and whether it is the
/// percentile asked for. An empty sample reads as zero.
pub fn percentile_or_max(sorted: &[f64], p: f64) -> (f64, bool) {
    match percentile(sorted, p) {
        Ok(v) => (v, true),
        Err(_) => (sorted.last().copied().unwrap_or(0.0), false),
    }
}

/// Blocks a run must hold before [`quiet_quartile`] is taken over them;
/// a shorter run (the harness's own smoke tests) reads its sample whole.
pub const MIN_BLOCKS: usize = 4;

/// A run cut into consecutive blocks of equally many operations, each
/// block read on its own: its throughput, median and p95.
///
/// A workload picks a block length over which its operations repeat — a
/// whole alignment session, four checkpoint cycles, a second of queries —
/// so that blocks differ by what the host did to them and by nothing
/// else. The host only ever slows a block down (a neighbour's burst, the
/// sibling vCPU waking up), never speeds one up, so the run reports the
/// quartile of blocks on the *quiet* side, [`quiet_quartile`]: with a
/// quarter of the run undisturbed it reads what the program costs, where
/// a median reads how busy the neighbours were.
#[derive(Debug, Default, PartialEq)]
pub struct Blocks {
    /// Operations completed per second, per block.
    pub rate: Vec<f64>,
    pub p50: Vec<f64>,
    pub p95: Vec<f64>,
    /// When each block began and ended, on the clock of `done_s`.
    pub span: Vec<(f64, f64)>,
}

impl Blocks {
    /// `done_s[i]` is when operation `i` completed, `latency[i]` how long
    /// it took; both in completion order. A block's clock starts when the
    /// block before it ended (the first block's at zero); a last partial
    /// block is dropped.
    pub fn cut(done_s: &[f64], latency: &[f64], block: usize) -> Blocks {
        let mut blocks = Blocks::default();
        if block == 0 {
            return blocks;
        }
        let mut began = 0.0;
        for (done, lat) in done_s.chunks_exact(block).zip(latency.chunks_exact(block)) {
            let ended = done[block - 1];
            blocks
                .rate
                .push(block as f64 / (ended - began).max(f64::MIN_POSITIVE));
            blocks.span.push((began, ended));
            began = ended;
            let lat = sorted(lat.to_vec());
            blocks.p50.push(nearest_rank(&lat, 0.5));
            blocks.p95.push(nearest_rank(&lat, 0.95));
        }
        blocks
    }

    pub fn len(&self) -> usize {
        self.rate.len()
    }
}

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// The quartile of `values` on their better side: the first for a
/// latency, the third for a rate. Zero for fewer than two values.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    match (quartiles(values), better) {
        (Some((q1, _)), Better::Lower) => q1,
        (Some((_, q3)), Better::Higher) => q3,
        (None, _) => 0.0,
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the midpoint rule for even counts. Zero for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the cut points
/// Python's `statistics.quantiles(values, n=4)` returns, so `compare`
/// reads a result set the way the acceptance driver does. Needs two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64 / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // p95 needs 200 samples for ten to lie beyond it.
        assert_eq!(
            percentile(&ramp(199), 0.95),
            Err(TooFewSamples {
                samples: 199,
                needed: 200
            })
        );
        assert_eq!(percentile(&ramp(200), 0.95), Ok(190.0));
        // p50 needs twenty.
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    }

    #[test]
    fn thin_tail_falls_back_to_the_maximum() {
        assert_eq!(percentile_or_max(&ramp(50), 0.95), (50.0, false));
        assert_eq!(percentile_or_max(&ramp(1000), 0.95), (950.0, true));
        assert_eq!(percentile_or_max(&[], 0.95), (0.0, false));
    }

    #[test]
    fn blocks_read_rate_median_and_tail_per_block() {
        // Blocks of four: one operation every 0.25 s, then a block half
        // as fast, then the first pace again; the thirteenth operation
        // fills no block and is dropped.
        let done = [
            0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.25, 3.5, 3.75, 4.0, 4.25,
        ];
        let latency = [
            1.0, 2.0, 3.0, 40.0, 2.0, 4.0, 6.0, 80.0, 1.0, 2.0, 3.0, 40.0, 9.0,
        ];
        let blocks = Blocks::cut(&done, &latency, 4);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks.rate, vec![4.0, 2.0, 4.0]);
        assert_eq!(blocks.p50, vec![2.0, 4.0, 2.0]);
        assert_eq!(blocks.p95, vec![40.0, 80.0, 40.0]);
        assert_eq!(blocks.span, vec![(0.0, 1.0), (1.0, 3.0), (3.0, 4.0)]);
        assert_eq!(Blocks::cut(&done, &latency, 0).len(), 0);
        assert_eq!(Blocks::cut(&done[..3], &latency[..3], 4).len(), 0);
    }

    #[test]
    fn quiet_quartile_ignores_the_disturbed_blocks() {
        // Ten blocks; the host slowed six of them, by different amounts.
        let p50 = [5.0, 9.0, 5.1, 7.0, 5.0, 12.0, 5.2, 8.0, 6.5, 30.0];
        let calm = quiet_quartile(&p50, Better::Lower);
        assert!((5.0..=5.2).contains(&calm), "{calm}");
        // The same disturbance read as a median moves by a quarter.
        assert_eq!(median(&p50), 6.75);
        let rate = [
            200.0, 110.0, 198.0, 140.0, 201.0, 80.0, 199.0, 120.0, 150.0, 30.0,
        ];
        let calm = quiet_quartile(&rate, Better::Higher);
        assert!((198.0..=201.0).contains(&calm), "{calm}");
        assert_eq!(quiet_quartile(&[1.0], Better::Lower), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&ramp(10)), 5.5);
        assert_eq!(spread(&ramp(10)), Some(1.0));
    }
}
