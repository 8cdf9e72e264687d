//! Named counters and fixed-bucket histograms.
//!
//! The registry hands out `Rc`-backed handles: a component looks its
//! metrics up **once** at wiring time and then increments through the
//! handle, so the event-loop hot path never pays for a name lookup. A
//! default-constructed handle (from a disabled [`crate::Obs`]) is a no-op.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::json;

/// A monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get().wrapping_add(delta));
        }
    }

    /// The current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// Upper bucket bounds shared by all histograms: powers of two from 1 to
/// 2^39 (~9.2 simulated minutes in nanoseconds), plus an implicit overflow
/// bucket. Power-of-two bounds give ≤ 2× relative quantile error across
/// the whole range, which is plenty for latency distributions, and make
/// bucket selection one leading-zero count.
pub const BUCKET_BOUNDS: usize = 40;

fn bound(i: usize) -> u64 {
    1u64 << i
}

/// The index of the bucket `value` falls into — the smallest `i` with
/// `value <= 2^i`, i.e. the bit length of `value - 1` (the overflow bucket
/// is `BUCKET_BOUNDS`).
fn bucket_index(value: u64) -> usize {
    let bits = u64::BITS - value.saturating_sub(1).leading_zeros();
    (bits as usize).min(BUCKET_BOUNDS)
}

#[derive(Debug)]
pub(crate) struct HistData {
    counts: [u64; BUCKET_BOUNDS + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            counts: [0; BUCKET_BOUNDS + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistData {
    fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= target {
                // Linear interpolation inside the bucket, between its lower
                // bound and its upper bound. Bounds are tightened to the
                // observed extremes, which also fixes the discontinuity at
                // the top power-of-two boundary: a quantile landing in the
                // overflow bucket interpolates from 2^39 toward the
                // observed max instead of jumping straight to it.
                let upper = if i < BUCKET_BOUNDS {
                    bound(i).min(self.max)
                } else {
                    self.max
                };
                let lower_bound = if i == 0 { 0 } else { bound(i - 1) };
                let lower = lower_bound.max(self.min).min(upper);
                let pos = target - below; // 1..=c, so pos == c hits `upper`
                let width = upper - lower;
                return lower + ((u128::from(width) * u128::from(pos)) / u128::from(c)) as u64;
            }
            below += c;
        }
        self.max
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"count\": ");
        json::push_u64(out, self.count);
        out.push_str(", \"min\": ");
        json::push_u64(out, if self.count == 0 { 0 } else { self.min });
        out.push_str(", \"max\": ");
        json::push_u64(out, self.max);
        out.push_str(", \"mean\": ");
        json::push_f64(
            out,
            if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
        );
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)] {
            out.push_str(", \"");
            out.push_str(label);
            out.push_str("\": ");
            json::push_u64(out, self.quantile(q));
        }
        // Only non-empty buckets, as [upper_bound, count] pairs; the
        // overflow bucket exports with upper bound 0 (meaning "above all").
        out.push_str(", \"buckets\": [");
        let mut first = true;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push('[');
            json::push_u64(out, if i < BUCKET_BOUNDS { bound(i) } else { 0 });
            out.push_str(", ");
            json::push_u64(out, c);
            out.push(']');
        }
        out.push_str("]}");
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Rc<RefCell<HistData>>>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.borrow_mut().record(value);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.borrow().count)
    }

    /// The largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.borrow().max)
    }

    /// The smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| {
            let h = h.borrow();
            if h.count == 0 {
                0
            } else {
                h.min
            }
        })
    }

    /// The mean of recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |h| {
            let h = h.borrow();
            if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            }
        })
    }

    /// An estimate of the `q`-quantile: linearly interpolated inside the
    /// power-of-two bucket the quantile falls in, with the bucket bounds
    /// tightened to the observed min/max (so a single-value histogram
    /// reports that value at every quantile, and the overflow bucket
    /// interpolates from `2^39` toward the observed maximum instead of
    /// jumping straight to it).
    pub fn quantile(&self, q: f64) -> u64 {
        self.0.as_ref().map_or(0, |h| h.borrow().quantile(q))
    }
}

/// The metric store behind an [`crate::Obs`] handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    histograms: BTreeMap<String, Rc<RefCell<HistData>>>,
}

impl Registry {
    /// Returns (creating if needed) the counter named `name`.
    pub fn counter(&mut self, name: &str) -> Counter {
        let cell = self
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Rc::new(Cell::new(0)));
        Counter(Some(cell.clone()))
    }

    /// Returns (creating if needed) the histogram named `name`.
    pub fn histogram(&mut self, name: &str) -> Histogram {
        let data = self
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Rc::new(RefCell::new(HistData::default())));
        Histogram(Some(data.clone()))
    }

    /// Serialises the registry as a JSON object with `counters` and
    /// `histograms` sub-objects (names sorted, so output is stable).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"counters\": {");
        for (i, (name, c)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_string(out, name);
            out.push_str(": ");
            json::push_u64(out, c.get());
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_string(out, name);
            out.push_str(": ");
            h.borrow().write_json(out);
        }
        out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::default();
        c.inc();
        assert_eq!(c.get(), 0);
        let h = Histogram::default();
        h.record(10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn counter_handles_share_the_slot() {
        let mut r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn bucket_index_is_power_of_two_ceiling() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 39), 39);
        assert_eq!(bucket_index((1 << 39) + 1), BUCKET_BOUNDS);
        assert_eq!(bucket_index(u64::MAX), BUCKET_BOUNDS);
    }

    /// The closed form agrees with the linear scan over the bounds it
    /// replaced, at every bucket edge.
    #[test]
    fn bucket_index_matches_linear_scan() {
        let scan = |v: u64| {
            (0..BUCKET_BOUNDS)
                .find(|&i| v <= bound(i))
                .unwrap_or(BUCKET_BOUNDS)
        };
        let mut values = vec![0, 1, 2, 3, u64::MAX];
        for k in 1..=40 {
            values.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for v in values {
            assert_eq!(bucket_index(v), scan(v), "value {v}");
        }
    }

    #[test]
    fn histogram_bucket_math() {
        let mut r = Registry::default();
        let h = r.histogram("lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        // Buckets: ≤1:1, ≤2:1, ≤4:2, ≤8:4, ≤16:8, ≤32:16, ≤64:32, ≤128:36.
        // With in-bucket interpolation the uniform 1..=100 stream recovers
        // its quantiles exactly: p50 target = 50 → (32, 64] bucket at
        // position 18/32 → 32 + 32·18/32 = 50.
        assert_eq!(h.quantile(0.50), 50);
        // p90 target = 90 → (64, min(128, max)=100] at position 26/36.
        assert_eq!(h.quantile(0.90), 90);
        assert_eq!(h.quantile(0.99), 99);
        assert_eq!(h.quantile(0.999), 100);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn histogram_single_value() {
        let mut r = Registry::default();
        let h = r.histogram("one");
        h.record(7);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(0.99), 7);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn histogram_overflow_bucket_reports_max() {
        let mut r = Registry::default();
        let h = r.histogram("big");
        h.record(u64::MAX / 2);
        assert_eq!(h.quantile(0.5), u64::MAX / 2);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let mut r = Registry::default();
        let h = r.histogram("empty");
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn registry_json_is_sorted_and_complete() {
        let mut r = Registry::default();
        r.counter("b.count").inc();
        r.counter("a.count").add(2);
        r.histogram("m.lat").record(3);
        let mut out = String::new();
        r.write_json(&mut out);
        let a = out.find("a.count").unwrap();
        let b = out.find("b.count").unwrap();
        assert!(a < b, "names must sort: {out}");
        assert!(out.contains("\"p999\": 3"), "{out}");
        assert!(out.contains("\"buckets\": [[4, 1]]"), "{out}");
    }
}
