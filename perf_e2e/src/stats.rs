//! Order statistics that carry their sample counts.

/// A median over `samples` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Median {
    /// The median (mean of the two middle values for an even count).
    pub value: f64,
    /// How many values it was taken over.
    pub samples: usize,
}

/// A tail percentile: the highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples above it, so a tail is never read off a handful
/// of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (1..=99).
    pub percentile: u32,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Minimum number of samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`, or `None` when there are none.
pub fn median(values: &[f64]) -> Option<Median> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let value = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Median { value, samples: n })
}

/// The tail of `values` (see [`Tail`]), or `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    // Nearest rank of percentile p is ceil(p·n/100); it must leave at least
    // TAIL_BEYOND samples after it.
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap().value, 2.0);
        let m = median(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((m.value, m.samples), (2.5, 4));
        assert!(median(&[]).is_none());
    }

    #[test]
    fn no_tail_without_ten_samples_beyond() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&ten).is_none());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.beyond, t.samples), (10, 11));
        assert_eq!(t.value, 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.percentile, t.beyond, t.samples), (99, 10, 1000));
        // Every reported tail keeps at least ten samples beyond it.
        for n in 11..300 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            let t = tail(&v).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.samples, n as usize);
        }
    }
}
