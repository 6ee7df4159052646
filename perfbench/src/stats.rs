//! Order statistics over latency samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `n=.. p50=..` plus the highest of p90/p99/p99.9 that still has at least
/// ten samples beyond it, for the informational lines beside the metrics.
pub fn tail_summary(values: &[f64]) -> String {
    if values.is_empty() {
        return "n=0".to_string();
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = format!("n={n} p50={:.4}", median(&v));
    // Quantile q = num/den at nearest rank ceil(q n), in exact integers.
    let tail = [("p99.9", 999, 1000), ("p99", 99, 100), ("p90", 9, 10)]
        .into_iter()
        .map(|(label, num, den)| (label, (num * n).div_ceil(den)))
        .find(|&(_, rank)| n - rank >= 10);
    if let Some((label, rank)) = tail {
        out.push_str(&format!(" {label}={:.4}", v[rank.max(1) - 1]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert!(!tail_summary(&few).contains("p90"));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = tail_summary(&many);
        assert!(s.contains("p90=90.0000") && !s.contains("p99="), "{s}");
    }
}
