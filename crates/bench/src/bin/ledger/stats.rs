//! Order statistics for the ledger: nearest-rank percentiles, quartile
//! summaries of host timings, and the serving-ladder selections.

/// Nearest-rank `p`-th percentile (`p` in whole percent, 0..=100): the
/// value at 1-based rank `ceil(p * n / 100)` of the sorted sample, with
/// the rank clamped to `[1, n]`. The rank is computed in integers, so no
/// float rounding can shift it. `None` for an empty sample. Infinite
/// values (shed queries) sort last.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p.min(100) as usize * n).div_ceil(100).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median and quartiles of a host-time sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Nearest-rank 25th percentile.
    pub q1: f64,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank 75th percentile.
    pub q3: f64,
    /// Samples summarised.
    pub n: usize,
}

impl Summary {
    /// Summarise a non-empty sample; `None` when it is empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            q1: percentile(samples, 25)?,
            median: percentile(samples, 50)?,
            q3: percentile(samples, 75)?,
            n: samples.len(),
        })
    }
}

/// One query's end-to-end latency in simulated ns, or `None` when it was
/// shed. A shed query never meets a latency limit, so it counts as an
/// infinite latency in every percentile.
pub fn latencies_with_shed(outcomes: impl IntoIterator<Item = Option<f64>>) -> Vec<f64> {
    outcomes
        .into_iter()
        .map(|l| l.unwrap_or(f64::INFINITY))
        .collect()
}

/// One offered-load point of a serving ladder.
#[derive(Debug, Clone, Copy)]
pub struct LadderPoint {
    /// Offered load as a multiple of the serial drain rate.
    pub load: f64,
    /// Queries shed at this load.
    pub shed: u64,
    /// Nearest-rank p95 latency (simulated ns; infinite when shed
    /// queries reach the p95 rank).
    pub p95_ns: f64,
}

/// The highest ladder load with no shed query and a p95 latency within
/// `limit_ns`; `None` when no load meets the limit.
pub fn max_load_at_slo(ladder: &[LadderPoint], limit_ns: f64) -> Option<f64> {
    ladder
        .iter()
        .filter(|p| p.shed == 0 && p.p95_ns <= limit_ns)
        .map(|p| p.load)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_odd_and_even_samples() {
        let odd = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 50), Some(3.0));
        assert_eq!(percentile(&odd, 25), Some(2.0));
        assert_eq!(percentile(&odd, 75), Some(4.0));
        assert_eq!(percentile(&odd, 0), Some(1.0));
        assert_eq!(percentile(&odd, 100), Some(5.0));
        // Even n: nearest rank takes the lower middle, never an average.
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&even, 50), Some(2.0));
        assert_eq!(percentile(&even, 25), Some(1.0));
        assert_eq!(percentile(&even, 75), Some(3.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn integer_rank_is_exact_where_float_products_round_up() {
        // 0.35 * 20 evaluates to 7.000000000000001 in floating point; the
        // integer rank stays at 7.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 35), Some(7.0));
        // p95 of 300 samples is rank 285: 15 samples lie beyond it.
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), Some(285.0));
    }

    #[test]
    fn summary_quartiles() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 13.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (10.0, 11.0, 12.0, 4));
        let s = Summary::of(&[7.0, 9.0, 8.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 8.0, 9.0, 3));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn shed_queries_count_as_infinite_latency() {
        let mut outcomes: Vec<Option<f64>> = (1..=19).map(|i| Some(f64::from(i))).collect();
        outcomes.push(None);
        let lat = latencies_with_shed(outcomes);
        // The 20th sample is the shed query: p95 of 20 is rank 19.
        assert_eq!(percentile(&lat, 95), Some(19.0));
        assert_eq!(percentile(&lat, 100), Some(f64::INFINITY));
        // Two sheds push the p95 rank onto a shed query.
        let lat = latencies_with_shed((1..=18).map(|i| Some(f64::from(i))).chain([None, None]));
        assert_eq!(percentile(&lat, 95), Some(f64::INFINITY));
    }

    #[test]
    fn max_load_at_slo_takes_the_highest_passing_load() {
        let point = |load, shed, p95_ns| LadderPoint { load, shed, p95_ns };
        let ladder = [
            point(0.5, 0, 100.0),
            point(1.0, 0, 300.0),
            point(1.5, 0, 900.0),
            point(2.0, 1, 400.0),
        ];
        assert_eq!(max_load_at_slo(&ladder, 500.0), Some(1.0));
        assert_eq!(max_load_at_slo(&ladder, 1000.0), Some(1.5));
        // A non-monotone ladder still yields the highest passing load.
        let bumpy = [
            point(0.5, 0, 100.0),
            point(1.0, 0, 700.0),
            point(1.5, 0, 400.0),
        ];
        assert_eq!(max_load_at_slo(&bumpy, 500.0), Some(1.5));
        // No load meets the limit.
        assert_eq!(max_load_at_slo(&ladder, 50.0), None);
        let shed_everywhere = [point(0.5, 2, 10.0), point(1.0, 3, 10.0)];
        assert_eq!(max_load_at_slo(&shed_everywhere, 1e9), None);
        assert_eq!(max_load_at_slo(&[], 1.0), None);
    }
}
