//! The estimators every reported number goes through.
//!
//! A run is cut into windows; each window yields one value per metric, and
//! the run reports the decile of those values on the metric's good side.
//! A latency's per-window value is a percentile of the samples that arrived
//! in the window.

/// Mean nanoseconds per call; 0 for something never called, never a NaN.
pub fn mean_ns(total_ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns as f64 / calls as f64
    }
}

/// Median of `values` (mean of the two middle elements for an even count).
/// `None` for an empty slice — the caller decides what a missing number
/// means; it must never become a NaN in the report.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The decile of `values` on the metric's good side: the 10th percentile
/// of a cost (`lower_is_better`), the 90th of a rate, nearest rank. This
/// box runs the same instructions 25–50 % slower for seconds to minutes at
/// a time (README.md, noise study); the windows it left alone are what
/// repeats from run to run. `None` for an empty slice.
pub fn good_decile(values: &[f64], lower_is_better: bool) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    let rank = (v.len() as f64 * 0.10).ceil() as usize;
    v.get(rank.saturating_sub(1)).copied()
}

/// The `q`-quantile (nearest rank, `0.0 ≤ q ≤ 1.0`) of `samples`, which
/// is reordered in place. `None` for an empty slice.
pub fn percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, v, _) = samples.select_nth_unstable(rank);
    Some(*v)
}

/// A fixed-capacity latency buffer for one window, in nanoseconds.
/// Allocated and touched once in set-up, so filling it never grows the
/// resident set; samples past the capacity are counted, not stored.
#[derive(Debug)]
pub struct SampleWindow {
    buf: Vec<u32>,
    len: usize,
    dropped: u64,
}

impl SampleWindow {
    pub fn with_capacity(cap: usize) -> Self {
        SampleWindow {
            buf: vec![0; cap],
            len: 0,
            dropped: 0,
        }
    }

    /// Record one latency; durations past `u32::MAX` ns (4.29 s) saturate.
    pub fn push(&mut self, ns: u64) {
        if let Some(slot) = self.buf.get_mut(self.len) {
            *slot = u32::try_from(ns).unwrap_or(u32::MAX);
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// `(count, p50, p99)` of the window in ns, then empty it.
    pub fn drain(&mut self) -> (usize, Option<u32>, Option<u32>) {
        let n = self.len;
        let s = &mut self.buf[..n];
        let out = (n, percentile(s, 0.50), percentile(s, 0.99));
        self.len = 0;
        out
    }

    /// Forget everything recorded so far (set-up traffic), overflow count
    /// included.
    pub fn clear(&mut self) {
        self.len = 0;
        self.dropped = 0;
    }

    /// Samples that did not fit since the last [`SampleWindow::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn good_decile_is_the_tenth_best_of_a_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(good_decile(&v, true), Some(10.0));
        assert_eq!(good_decile(&v, false), Some(91.0));
        assert_eq!(good_decile(&[5.0], true), Some(5.0));
        assert_eq!(good_decile(&[], true), None);
    }

    /// What the estimator is for: a host that slows most of a run by half
    /// moves the reported cost by little, as long as a tenth of the
    /// windows were left alone.
    #[test]
    fn a_mostly_disturbed_run_keeps_its_clean_decile() {
        let clean: Vec<f64> = (0..200).map(|i| 100.0 + f64::from(i % 5)).collect();
        let stormy: Vec<f64> = clean
            .iter()
            .enumerate()
            .map(|(i, c)| if i % 4 == 0 { *c } else { c * 1.5 })
            .collect();
        let (a, b) = (
            good_decile(&clean, true).unwrap(),
            good_decile(&stormy, true).unwrap(),
        );
        assert!((b - a).abs() / a < 0.03, "{a} vs {b}");
        assert!(median(&stormy).unwrap() > 1.4 * median(&clean).unwrap());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), Some(50));
        assert_eq!(percentile(&mut s, 0.99), Some(99));
        assert_eq!(percentile(&mut s, 1.0), Some(100));
        assert_eq!(percentile(&mut s, 0.0), Some(1));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [7], 0.99), Some(7));
    }

    #[test]
    fn sample_window_counts_overflow_and_resets() {
        let mut w = SampleWindow::with_capacity(3);
        for ns in [30, 10, 20, 40] {
            w.push(ns);
        }
        assert_eq!(w.dropped(), 1);
        assert_eq!(w.drain(), (3, Some(20), Some(30)));
        assert_eq!(w.drain(), (0, None, None));
        w.push(u64::MAX);
        assert_eq!(w.drain(), (1, Some(u32::MAX), Some(u32::MAX)));
        w.push(1);
        w.clear();
        assert_eq!((w.drain(), w.dropped()), ((0, None, None), 0));
    }
}
