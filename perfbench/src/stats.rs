//! Sample summaries: quartiles by linear interpolation, and a tail
//! percentile only where at least ten samples lie beyond it.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
const TAIL_SUPPORT: usize = 10;

/// The `q`-quantile (0..=1) of an ascending slice, interpolating
/// linearly between closest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and quartiles of one timing, with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        Summary {
            n: sorted.len(),
            p25: quantile(&sorted, 0.25),
            p50: quantile(&sorted, 0.50),
            p75: quantile(&sorted, 0.75),
        }
    }

    /// `n=.. p25=.. p75=..` for the human-readable report.
    pub fn detail(&self) -> String {
        format!("n={} p25={:.4} p75={:.4}", self.n, self.p25, self.p75)
    }
}

/// The highest whole percentile (capped at 99) with at least ten
/// samples beyond it, and its value; `None` below twenty samples.
pub fn tail(values: &[f64]) -> Option<(usize, f64)> {
    let n = values.len();
    if n < 2 * TAIL_SUPPORT {
        return None;
    }
    let pct = ((100 * (n - TAIL_SUPPORT)) / n).min(99);
    Some((pct, quantile(&sorted(values), pct as f64 / 100.0)))
}

/// Median of a sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        let s = Summary::of(&v);
        assert_eq!(s.n, 4);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.p25, 1.75);
        assert_eq!(s.p75, 3.25);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(90));
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(80));
    }
}
