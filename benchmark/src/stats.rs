//! Order statistics shared by every workload.

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated `q`-quantile (`0 <= q <= 1`); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A latency tail: the highest of the standard percentiles that still has
/// at least ten samples beyond it, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
}

/// The tail of `values` (see [`Tail`]); `None` below 20 samples, where not
/// even the median has ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    const PCTS: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    let n = values.len();
    PCTS.iter()
        .find(|&&p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|&pct| Tail {
            pct,
            value: quantile(values, pct / 100.0),
            n,
        })
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a over a sequence of `u64` words: the result digest of a run.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 99.0);
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 75.0);
        assert!(tail(&v[..19]).is_none());
    }

    #[test]
    fn digest_sees_every_word() {
        assert_ne!(digest([1, 2]), digest([2, 1]));
        assert_eq!(digest([7, 8]), digest(vec![7, 8]));
    }
}
