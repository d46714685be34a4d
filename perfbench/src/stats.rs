//! Percentile and quartile maths, and the sample-count guard every
//! reported tail percentile must pass.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile; below this the percentile is noise, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Samples per window of a windowed tail: 1000 would leave exactly
/// [`MIN_TAIL_SAMPLES`] beyond a p99, and a single tie at the cut one
/// fewer; 1200 leaves twelve.
pub const TAIL_WINDOW: usize = 1200;

/// Linear-interpolated percentile (`q` in `[0, 1]`) of an ascending
/// slice — the same rule as NumPy's default. Returns `NaN` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quartiles `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so a spread computed here matches one computed from the printed
/// numbers. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |j: usize| {
        // Position j*(n+1)/4 (1-based), clamped to the data; the
        // remainder is taken after clamping, so the ends extrapolate.
        let m = n + 1;
        let i = (j * m / 4).clamp(1, n - 1);
        let delta = (j * m) as f64 - (i * 4) as f64;
        (v[i - 1] * (4.0 - delta) + v[i] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's bound is compared against.
#[must_use]
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A set of latency samples (µs) reduced to the figures the benchmark
/// reports.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median; `NaN` when empty.
    #[must_use]
    pub fn p50(&self) -> f64 {
        percentile(&self.sorted(), 0.5)
    }

    /// The `q` percentile, refused unless at least
    /// [`MIN_TAIL_SAMPLES`] samples lie strictly beyond it.
    ///
    /// # Errors
    ///
    /// Names the metric and the sample count when the tail is too thin.
    pub fn tail(&self, q: f64, metric: &str) -> Result<f64, String> {
        let sorted = self.sorted();
        let p = percentile(&sorted, q);
        let beyond = sorted.iter().filter(|&&x| x > p).count();
        if beyond < MIN_TAIL_SAMPLES {
            return Err(format!(
                "{metric}: only {beyond} of {} samples lie beyond the percentile \
                 (need {MIN_TAIL_SAMPLES})",
                sorted.len()
            ));
        }
        Ok(p)
    }
}

impl Samples {
    /// The `q` tail as the median, over consecutive windows of
    /// [`TAIL_WINDOW`] samples in recording order (the last partial
    /// window joins the one before it), of each window's guarded
    /// [`Samples::tail`]. A stall of the host that lands in one window
    /// moves one window's tail, not the reported figure.
    ///
    /// # Errors
    ///
    /// When there are fewer samples than one window, or a window's tail
    /// is too thin.
    pub fn windowed_tail(&self, q: f64, metric: &str) -> Result<f64, String> {
        let windows = self.values.len() / TAIL_WINDOW;
        if windows == 0 {
            return Err(format!(
                "{metric}: {} samples, fewer than one {TAIL_WINDOW}-sample window",
                self.values.len()
            ));
        }
        let mut tails = Vec::with_capacity(windows);
        for w in 0..windows {
            let end = if w + 1 == windows {
                self.values.len()
            } else {
                (w + 1) * TAIL_WINDOW
            };
            let window = Samples {
                values: self.values[w * TAIL_WINDOW..end].to_vec(),
            };
            tails.push(window.tail(q, metric)?);
        }
        Ok(median(&tails))
    }
}

/// Median of a non-empty list of per-pass figures.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(close(percentile(&v, 0.5), 3.0));
        assert!(close(percentile(&v, 0.0), 1.0));
        assert!(close(percentile(&v, 1.0), 5.0));
        assert!(close(percentile(&v, 0.25), 2.0));
        assert!(close(percentile(&[10.0, 20.0], 0.5), 15.0));
        assert!(close(percentile(&[10.0, 20.0], 0.99), 19.9));
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q2, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(q1, 1.0) && close(q2, 2.0) && close(q3, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
        assert!(quartiles(&[1.0]).is_none());
        // (8.25 - 2.75) / 5.5 == 1.0
        assert!(close(relative_spread(&v).unwrap(), 1.0));
    }

    #[test]
    fn tail_guard_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..=900 {
            s.push(f64::from(i));
        }
        // p99 of 0..=900 is 891: only 892..=900 (nine samples) lie beyond.
        assert!(s.tail(0.99, "x_p99_us").is_err());
        for i in 901..=1000 {
            s.push(f64::from(i));
        }
        // p99 of 0..=1000 is 990, with 991..=1000 beyond.
        assert!(close(s.tail(0.99, "x_p99_us").unwrap(), 990.0));
        assert!(close(s.p50(), 500.0));
        assert_eq!(s.len(), 1001);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        let mut s = Samples::default();
        // Three windows of 0..TAIL_WINDOW; the middle one shifted up by
        // 1e6 (a stall): the median window tail ignores it.
        for w in 0..3 {
            let shift = if w == 1 { 1e6 } else { 0.0 };
            for i in 0..TAIL_WINDOW {
                s.push(i as f64 + shift);
            }
        }
        let want = 0.99 * (TAIL_WINDOW - 1) as f64;
        assert!(close(s.windowed_tail(0.99, "x").unwrap(), want));
        let mut short = Samples::default();
        for i in 1..TAIL_WINDOW {
            short.push(i as f64);
        }
        assert!(short.windowed_tail(0.99, "x").is_err());
    }

    #[test]
    fn median_of_passes() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 2.0, 3.0]), 2.5));
    }
}
