//! Named metrics registry: counters, gauges, and histograms with a JSON
//! snapshot export.
//!
//! [`crate::metrics::SiteMetrics`] is a flat struct of ad-hoc counters —
//! cheap to carry per site, but every experiment that wants to *report*
//! them re-derives names and ratios by hand. The registry gives the same
//! quantities stable names (`notifier.transforms`, `clients.bytes_sent`,
//! …), adds distribution-shaped metrics the flat struct cannot hold
//! (per-op transform latency, scan length, history depth), and exports
//! one deterministic JSON object the experiment driver embeds into its
//! `BENCH_*.json` artifacts (see E17).
//!
//! Histograms use logarithmic (power-of-two) buckets: recording is O(1)
//! and allocation-free after construction, and quantile estimates are
//! within a factor of two — plenty for latency-shaped data spanning
//! orders of magnitude.

use crate::metrics::SiteMetrics;
use std::collections::{BTreeMap, VecDeque};

/// Number of log-linear histogram buckets (covers the full `u64` range):
/// 32 exact buckets for values below 32, then 16 linear sub-buckets per
/// power-of-two octave up to `2^64`.
const BUCKETS: usize = 32 + 59 * 16;

/// Sub-buckets per octave: each power-of-two range splits 16 ways, so a
/// quantile read is within 1/16 (6.25%) of the true value instead of the
/// 2× a pure power-of-two histogram gives.
const SUBS_PER_OCTAVE: usize = 16;

/// A fixed-bucket logarithmic histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of `v`. Values below 32 get an exact bucket each
    /// (`index = v`); larger values land in one of 16 linear sub-buckets
    /// of their power-of-two octave, keyed by the four bits after the
    /// leading bit. E18's convergence quantiles cluster just under
    /// power-of-two boundaries, where pure octave buckets round a p50 of
    /// ~700k µs up to 1048575; the sub-buckets keep that error ≤ 1/16.
    fn bucket(v: u64) -> usize {
        if v < 32 {
            return v as usize;
        }
        let msb = (63 - v.leading_zeros()) as usize; // ≥ 5 here
        let sub = ((v >> (msb - 4)) & 0xf) as usize;
        32 + (msb - 5) * SUBS_PER_OCTAVE + sub
    }

    /// Largest value mapping to bucket `i` (inverse of [`Histogram::
    /// bucket`]).
    fn bucket_upper(i: usize) -> u64 {
        if i < 32 {
            return i as u64;
        }
        let msb = (i - 32) / SUBS_PER_OCTAVE + 5;
        let sub = ((i - 32) % SUBS_PER_OCTAVE) as u128;
        let width = 1u128 << (msb - 4);
        let upper = (1u128 << msb) + (sub + 1) * width - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `p`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the `⌈p·count⌉`-th sample, clamped to the observed
    /// range. Exact below 32; within 1/16 of the exact quantile above.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max).max(self.min());
            }
        }
        self.max
    }

    /// The histogram of samples recorded since `older` was this
    /// histogram's state: per-bucket count differences, with `min`/`max`
    /// carried from the newer state so [`Histogram::merge`] reconstructs
    /// it exactly. `older` must be an earlier snapshot of the same
    /// histogram (samples only accumulate, so every newer field dominates
    /// its older counterpart).
    pub fn diff_since(&self, older: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        for (i, (&new, &old)) in self.counts.iter().zip(older.counts.iter()).enumerate() {
            d.counts[i] = new.saturating_sub(old);
        }
        d.count = self.count.saturating_sub(older.count);
        d.sum = self.sum.saturating_sub(older.sum);
        // Not the min/max of the *new* samples (unrecoverable from bucket
        // counts) but values chosen so `older.merge(&d)` yields `self`:
        // the newer extrema always dominate under min/max merging.
        d.min = self.min;
        d.max = self.max;
        d
    }

    /// Fold another histogram (typically a [`Histogram::diff_since`]
    /// delta) into this one: bucket-wise count addition, min/max merging.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, &theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// JSON object snapshot (count/sum/min/max/mean/p50/p90/p95/p99).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            json_f64(self.mean()),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// Render an `f64` as a JSON number (non-finite values become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{}` on f64 never prints exponents for these magnitudes and
        // always includes enough digits to round-trip.
        let s = format!("{v}");
        if s.contains('e') || s.contains('E') {
            format!("{v:.6}")
        } else {
            s
        }
    } else {
        "0".to_string()
    }
}

/// A named collection of counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to the counter `name` (created at zero).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Set counter `name` to the absolute value `v`. For mirroring an
    /// external cumulative source (an `AtomicU64`, a lifetime total) into
    /// the registry on a cadence: re-absorbing with
    /// [`MetricsRegistry::add_counter`] would double-count. The source
    /// must be monotone for delta snapshots to stay exact.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one sample into histogram `name` (created empty).
    pub fn record(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Fold `h`'s samples into histogram `name` (created empty): how a
    /// histogram kept on another thread reaches the registry.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold one site's flat counters in under `prefix` — this is the
    /// unification path from the ad-hoc [`SiteMetrics`] struct to named
    /// metrics. The field list (names included) is owned by
    /// [`SiteMetrics::counter_fields`] / [`SiteMetrics::high_water_fields`]
    /// so the bench-artifact schema has exactly one definition. High-water
    /// fields land as gauges (they aggregate by max, not sum); everything
    /// else lands as counters.
    pub fn absorb_site_metrics(&mut self, prefix: &str, m: &SiteMetrics) {
        for (field, v) in m.counter_fields() {
            self.add_counter(&format!("{prefix}.{field}"), v);
        }
        for (field, v) in m.high_water_fields() {
            let name = format!("{prefix}.{field}");
            let prev = self.gauge(&name).unwrap_or(0.0);
            self.set_gauge(&name, prev.max(v as f64));
        }
    }

    /// Fold one session's durability/failover outcome in under the
    /// `failover.` prefix: WAL volume and compaction counters, the
    /// standby's replay work, fencing activity, and — when recovery
    /// completed — a `failover.recovery_us` histogram sample, so a sweep
    /// of crash sessions (E20) reports recovery-time quantiles the same
    /// way latency is reported everywhere else.
    pub fn absorb_failover(&mut self, fo: &crate::session::FailoverReport) {
        self.add_counter("failover.wal_appends", fo.wal_appends);
        self.add_counter("failover.wal_bytes", fo.wal_bytes);
        self.add_counter("failover.snapshot_compactions", fo.snapshot_compactions);
        self.add_counter("failover.replay_ops", fo.standby_replay_ops);
        self.add_counter("failover.replay_acks", fo.standby_replay_acks);
        self.add_counter("failover.resynced_clients", fo.resynced_clients as u64);
        self.add_counter("failover.stale_drops", fo.stale_drops);
        let name = "failover.wal_amplification";
        let prev = self.gauge(name).unwrap_or(0.0);
        self.set_gauge(name, prev.max(fo.wal_amplification));
        if let Some(us) = fo.recovery_us() {
            self.record("failover.recovery_us", us);
        }
    }

    /// Deterministic JSON snapshot:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`, keys
    /// sorted (BTreeMap order), suitable for embedding into `BENCH_*.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{}", json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{}", h.to_json()));
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition (version 0.0.4) of the whole registry.
    /// Metric names are the registry names with `.`/`-` folded to `_` and
    /// a `cvc_` prefix; histograms export as summaries (`quantile`
    /// labels plus `_sum`/`_count`), matching the log-linear quantile
    /// estimator everywhere else.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut s = String::with_capacity(name.len() + 4);
            s.push_str("cvc_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() {
                    s.push(c);
                } else {
                    s.push('_');
                }
            }
            s
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", json_f64(*v)));
        }
        for (k, h) in &self.histograms {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, p) in [("0.5", 0.50), ("0.9", 0.90), ("0.95", 0.95), ("0.99", 0.99)] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {}\n", h.quantile(p)));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum(), h.count()));
        }
        out
    }

    /// The changes that turn `older` (an earlier snapshot of this
    /// registry) into `self`: counter increments, changed gauge values,
    /// and per-histogram sample deltas. Unchanged entries are omitted —
    /// this is the O(changed) payload a periodic scraper merges with
    /// [`MetricsRegistry::apply_delta`].
    fn diff_since(&self, older: &MetricsRegistry) -> RegistryDelta {
        let mut d = RegistryDelta::default();
        for (k, &v) in &self.counters {
            let inc = v.saturating_sub(older.counter(k));
            if inc > 0 || !older.counters.contains_key(k) {
                d.counters.insert(k.clone(), inc);
            }
        }
        for (k, &v) in &self.gauges {
            if older.gauges.get(k) != Some(&v) {
                d.gauges.insert(k.clone(), v);
            }
        }
        for (k, h) in &self.histograms {
            match older.histograms.get(k) {
                Some(old) if old == h => {}
                Some(old) => {
                    d.histograms.insert(k.clone(), h.diff_since(old));
                }
                None => {
                    d.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        d
    }

    /// Merge a [`RegistryDelta`] (from [`DeltaTracker::delta_since`])
    /// into this registry. A `full` delta replaces the registry outright;
    /// an incremental one adds counter increments, overwrites changed
    /// gauges, and folds histogram sample deltas in. Applying the deltas
    /// of consecutive snapshot sequences onto the older full snapshot
    /// reproduces the newer one exactly.
    pub fn apply_delta(&mut self, d: &RegistryDelta) {
        if d.full {
            self.counters.clear();
            self.gauges.clear();
            self.histograms.clear();
        }
        for (k, &inc) in &d.counters {
            *self.counters.entry(k.clone()).or_insert(0) += inc;
        }
        for (k, &v) in &d.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &d.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

/// A diff between two snapshot sequence numbers of one registry: the
/// wire unit of the admin plane's O(changed) scrape path.
#[derive(Debug, Clone, Default)]
pub struct RegistryDelta {
    /// Snapshot sequence this delta brings a reader to.
    pub seq: u64,
    /// Sequence the delta applies on top of (meaningless when `full`).
    pub base_seq: u64,
    /// The reader's cursor was too old (or from another incarnation):
    /// this is a complete snapshot, not an increment — replace, don't
    /// merge.
    pub full: bool,
    /// Counter increments since `base_seq` (absolute values when `full`).
    pub counters: BTreeMap<String, u64>,
    /// New values of gauges that changed since `base_seq`.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms of the samples recorded since `base_seq`
    /// ([`Histogram::diff_since`] form; complete when `full`).
    pub histograms: BTreeMap<String, Histogram>,
}

impl RegistryDelta {
    /// True when the delta carries no changes.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold a later consecutive delta into this one (`other.base_seq`
    /// must equal `self.seq`): counters add, gauges last-write-wins,
    /// histograms merge.
    fn fold(&mut self, other: &RegistryDelta) {
        for (k, &inc) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += inc;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        self.seq = other.seq;
    }

    /// JSON rendering for the admin wire: sequence header plus the same
    /// counters/gauges/histograms shape as a full registry snapshot.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"base_seq\":{},\"full\":{},\"counters\":{{",
            self.seq, self.base_seq, self.full
        );
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{}", json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{}", h.to_json()));
        }
        out.push_str("}}");
        out
    }
}

/// Deltas retained when a scraper's cursor lags before the fall-back to
/// a full snapshot. At one publish per 100 ms this is ~6 s of cursor
/// slack — a scraper slower than that re-syncs with one full scrape.
const DELTA_RETAIN: usize = 64;

/// The publisher side of delta snapshots: owns the last published
/// registry state, assigns monotonic snapshot sequence numbers, and
/// retains recent deltas so a scraper at sequence `c` pays O(changes
/// since `c`), not O(registry).
///
/// One thread publishes ([`DeltaTracker::publish`]); any number of
/// readers call [`DeltaTracker::delta_since`] / [`DeltaTracker::
/// snapshot`] between publishes (the owner is expected to wrap the
/// tracker in a mutex — all methods are cheap relative to a scrape).
#[derive(Debug, Default)]
pub struct DeltaTracker {
    /// Registry state as of `seq` (the last publish).
    base: MetricsRegistry,
    seq: u64,
    /// Deltas `(base_seq .. base_seq + len]` — consecutive, newest last.
    retained: VecDeque<RegistryDelta>,
    retain: usize,
}

impl DeltaTracker {
    /// A tracker at sequence 0 (empty registry) with default retention.
    pub fn new() -> Self {
        Self::with_retention(DELTA_RETAIN)
    }

    /// A tracker retaining at most `retain` deltas (min 1).
    pub fn with_retention(retain: usize) -> Self {
        DeltaTracker {
            base: MetricsRegistry::new(),
            seq: 0,
            retained: VecDeque::new(),
            retain: retain.max(1),
        }
    }

    /// The current snapshot sequence.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Publish `current` as the next snapshot. Diffs against the last
    /// published state — O(changed) when little moved — and bumps the
    /// sequence only if something did change, so an idle server's
    /// scrapers see a stable cursor instead of a parade of empty deltas.
    /// Returns the (possibly unchanged) sequence.
    pub fn publish(&mut self, current: &MetricsRegistry) -> u64 {
        let mut d = current.diff_since(&self.base);
        if d.is_empty() {
            return self.seq;
        }
        d.base_seq = self.seq;
        self.seq += 1;
        d.seq = self.seq;
        self.retained.push_back(d);
        while self.retained.len() > self.retain {
            self.retained.pop_front();
        }
        self.base = current.clone();
        self.seq
    }

    /// The full registry as of the last publish, with its sequence.
    pub fn snapshot(&self) -> (u64, MetricsRegistry) {
        (self.seq, self.base.clone())
    }

    /// Everything that changed after snapshot `cursor`, merged into one
    /// delta. A cursor at the current sequence gets an empty delta; a
    /// cursor older than the retained window (or from the future — a
    /// scraper that outlived a previous server) gets a `full` snapshot.
    pub fn delta_since(&self, cursor: u64) -> RegistryDelta {
        if cursor == self.seq {
            return RegistryDelta {
                seq: self.seq,
                base_seq: cursor,
                ..RegistryDelta::default()
            };
        }
        let covered = cursor < self.seq
            && self
                .retained
                .front()
                .is_some_and(|oldest| oldest.base_seq <= cursor);
        if !covered {
            let mut d = RegistryDelta {
                seq: self.seq,
                base_seq: 0,
                full: true,
                ..RegistryDelta::default()
            };
            d.counters = self.base.counters.clone();
            d.gauges = self.base.gauges.clone();
            d.histograms = self.base.histograms.clone();
            return d;
        }
        let mut out = RegistryDelta {
            seq: cursor,
            base_seq: cursor,
            ..RegistryDelta::default()
        };
        for d in self.retained.iter().filter(|d| d.base_seq >= cursor) {
            out.fold(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_basic_statistics() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_bound_the_true_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // Log-linear buckets: within 1/16 of the exact median (500 lands
        // in [480, 512), whose upper bound is 511).
        assert!((500..=511).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.99) >= h.quantile(0.5));
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_buckets_are_exact_below_32_and_tight_above() {
        for v in 0..32u64 {
            assert_eq!(Histogram::bucket(v), v as usize, "exact bucket");
            assert_eq!(Histogram::bucket_upper(v as usize), v);
        }
        // Every bucket's upper bound maps back to the same bucket, and
        // the next value starts the next bucket.
        for i in 0..BUCKETS {
            let hi = Histogram::bucket_upper(i);
            assert_eq!(Histogram::bucket(hi), i, "upper of bucket {i}");
            if hi < u64::MAX {
                assert_eq!(Histogram::bucket(hi + 1), i + 1, "boundary of {i}");
            }
        }
        assert_eq!(Histogram::bucket(u64::MAX), BUCKETS - 1);
        // Relative bucket width is ≤ 1/16 for large values: a quantile
        // read overshoots the true sample by at most 6.25%.
        let mut h = Histogram::new();
        let near_pow2 = 1_000_000u64; // just under 2^20: the E18 regression
        h.record(near_pow2);
        h.record(near_pow2 * 10); // keep `max` from clamping the readout
        let q = h.quantile(0.5);
        assert!(q >= near_pow2, "upper bound ≥ sample");
        assert!(
            (q - near_pow2) as f64 / near_pow2 as f64 <= 1.0 / 16.0,
            "q = {q}"
        );
    }

    #[test]
    fn histogram_handles_zero_and_huge_samples() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.01), 0);
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.add_counter("a.x", 2);
        r.add_counter("a.x", 3);
        r.set_gauge("g", 1.5);
        r.record("h", 7);
        assert_eq!(r.counter("a.x"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(1.5));
        assert_eq!(r.histogram("h").map(|h| h.count()), Some(1));
    }

    #[test]
    fn absorb_unifies_site_metrics_under_a_prefix() {
        let mut r = MetricsRegistry::new();
        let m = SiteMetrics {
            transforms: 4,
            hb_high_water: 9,
            ..SiteMetrics::default()
        };
        r.absorb_site_metrics("notifier", &m);
        let m2 = SiteMetrics {
            transforms: 2,
            hb_high_water: 5,
            ..SiteMetrics::default()
        };
        r.absorb_site_metrics("notifier", &m2);
        assert_eq!(r.counter("notifier.transforms"), 6, "counters sum");
        assert_eq!(
            r.gauge("notifier.hb_high_water"),
            Some(9.0),
            "high-water marks take the max"
        );
    }

    #[test]
    fn absorb_failover_names_the_durability_counters() {
        use crate::session::FailoverReport;
        let mut r = MetricsRegistry::new();
        let fo = FailoverReport {
            crash_at_us: 1_000,
            recovered_at_us: Some(251_000),
            resynced_clients: 4,
            standby_replay_ops: 7,
            standby_replay_acks: 3,
            wal_appends: 10,
            wal_bytes: 640,
            wal_live_bytes: 320,
            snapshot_compactions: 1,
            wal_amplification: 1.6,
            stale_drops: 5,
        };
        r.absorb_failover(&fo);
        assert_eq!(r.counter("failover.wal_appends"), 10);
        assert_eq!(r.counter("failover.replay_ops"), 7);
        assert_eq!(r.counter("failover.resynced_clients"), 4);
        assert_eq!(r.counter("failover.stale_drops"), 5);
        assert_eq!(r.gauge("failover.wal_amplification"), Some(1.6));
        let h = r.histogram("failover.recovery_us").expect("recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 250_000);
        // A second session that never finished recovering adds counters
        // but no recovery sample.
        let fo2 = FailoverReport {
            recovered_at_us: None,
            ..fo
        };
        r.absorb_failover(&fo2);
        assert_eq!(r.counter("failover.wal_appends"), 20);
        assert_eq!(
            r.histogram("failover.recovery_us").map(|h| h.count()),
            Some(1)
        );
    }

    #[test]
    fn json_snapshot_is_deterministic_and_parsable_shape() {
        let mut r = MetricsRegistry::new();
        r.add_counter("b", 1);
        r.add_counter("a", 2);
        r.set_gauge("g", 0.25);
        r.record("lat_us", 10);
        r.record("lat_us", 20);
        let j = r.to_json();
        assert_eq!(j, r.to_json(), "deterministic");
        // Keys come out sorted regardless of insertion order.
        assert!(j.find("\"a\":2").expect("a") < j.find("\"b\":1").expect("b"));
        assert!(j.starts_with("{\"counters\":{"));
        assert!(j.contains("\"gauges\":{\"g\":0.25}"), "{j}");
        assert!(j.contains("\"lat_us\":{\"count\":2"), "{j}");
        assert!(j.ends_with("}}"));
        // Balanced braces — a cheap well-formedness check.
        let open = j.matches('{').count();
        let close = j.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn empty_registry_is_valid_json_shape() {
        let j = MetricsRegistry::new().to_json();
        assert_eq!(j, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
    }

    #[test]
    fn histogram_diff_merges_back_exactly() {
        let mut old = Histogram::new();
        for v in [3u64, 70, 900] {
            old.record(v);
        }
        let mut new = old.clone();
        for v in [1u64, 70, 1_000_000] {
            new.record(v);
        }
        let d = new.diff_since(&old);
        assert_eq!(d.count(), 3);
        let mut rebuilt = old.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt, new);
        // An unchanged histogram diffs to an empty (count 0) delta.
        assert_eq!(new.diff_since(&new).count(), 0);
    }

    #[test]
    fn publish_assigns_sequences_and_deltas_carry_only_changes() {
        let mut t = DeltaTracker::new();
        let mut r = MetricsRegistry::new();
        r.add_counter("a", 5);
        r.set_gauge("g", 1.0);
        assert_eq!(t.publish(&r), 1);
        // Nothing changed: the sequence must hold still.
        assert_eq!(t.publish(&r), 1);
        r.add_counter("a", 2);
        r.record("h", 9);
        assert_eq!(t.publish(&r), 2);
        let d = t.delta_since(1);
        assert!(!d.full);
        assert_eq!(d.seq, 2);
        assert_eq!(d.counters.get("a"), Some(&2), "increment, not total");
        assert!(!d.gauges.contains_key("g"), "unchanged gauge omitted");
        assert_eq!(d.histograms.get("h").map(Histogram::count), Some(1));
        // A current cursor gets an empty delta.
        assert!(t.delta_since(2).is_empty());
    }

    #[test]
    fn consecutive_deltas_reconstruct_the_full_snapshot() {
        let mut t = DeltaTracker::new();
        let mut r = MetricsRegistry::new();
        let mut shadow = MetricsRegistry::new();
        let mut cursor = 0u64;
        for step in 1..=10u64 {
            r.add_counter("ops", step);
            r.set_gauge("depth", step as f64 * 0.5);
            r.record("lat", step * 100);
            t.publish(&r);
            if step % 3 == 0 {
                let d = t.delta_since(cursor);
                shadow.apply_delta(&d);
                cursor = d.seq;
            }
        }
        let d = t.delta_since(cursor);
        shadow.apply_delta(&d);
        assert_eq!(shadow, t.snapshot().1);
        assert_eq!(shadow, r);
    }

    #[test]
    fn stale_and_future_cursors_fall_back_to_a_full_snapshot() {
        let mut t = DeltaTracker::with_retention(2);
        let mut r = MetricsRegistry::new();
        for _ in 0..5 {
            r.add_counter("c", 1);
            t.publish(&r);
        }
        // Retention 2 with seq 5: cursors before 3 are out of window.
        let d = t.delta_since(0);
        assert!(d.full);
        assert_eq!(d.counters.get("c"), Some(&5), "absolute value when full");
        let mut rebuilt = MetricsRegistry::new();
        rebuilt.apply_delta(&d);
        assert_eq!(rebuilt, r);
        // A cursor from the future (older server incarnation) also
        // resolves to a full snapshot rather than an impossible diff.
        assert!(t.delta_since(99).full);
        // And one still in the window stays incremental.
        assert!(!t.delta_since(4).full);
    }

    #[test]
    fn prometheus_exposition_names_and_types() {
        let mut r = MetricsRegistry::new();
        r.add_counter("net.frames-in", 7);
        r.set_gauge("core.depth", 2.5);
        r.record("ack_rtt_us", 100);
        let p = r.to_prometheus();
        assert!(p.contains("# TYPE cvc_net_frames_in counter\ncvc_net_frames_in 7\n"));
        assert!(p.contains("# TYPE cvc_core_depth gauge\ncvc_core_depth 2.5\n"));
        assert!(p.contains("# TYPE cvc_ack_rtt_us summary\n"));
        assert!(p.contains("cvc_ack_rtt_us{quantile=\"0.99\"}"));
        assert!(p.contains("cvc_ack_rtt_us_count 1\n"));
        assert!(p.contains("cvc_ack_rtt_us_sum 100\n"));
    }

    #[test]
    fn delta_json_is_balanced_and_carries_the_header() {
        let mut t = DeltaTracker::new();
        let mut r = MetricsRegistry::new();
        r.add_counter("x", 1);
        t.publish(&r);
        let j = t.delta_since(0).to_json();
        // Cursor 0 is still covered by the retained chain: an
        // incremental delta, not a full fallback.
        assert!(
            j.starts_with("{\"seq\":1,\"base_seq\":0,\"full\":false"),
            "{j}"
        );
        assert!(j.contains("\"counters\":{\"x\":1}"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
