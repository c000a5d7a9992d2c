//! Streaming statistics used by the simulator and the experiment harness.
//!
//! Everything here is single-pass and allocation-free in steady state,
//! following the HPC guidance to keep hot-loop bookkeeping cheap.

use crate::time::{SimDuration, SimTime};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn reset(&mut self) {
        *self = Welford::new();
    }
}

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// busy-server counts). Integrates `value * dt` between updates.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    area: f64,
    start: SimTime,
    peak: f64,
}

impl TimeWeighted {
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: initial,
            area: 0.0,
            start,
            peak: initial,
        }
    }

    /// Record that the signal changed to `value` at time `now`.
    ///
    /// A same-instant update (`dt == 0`) skips the integration: for a
    /// finite signal `last_value * 0.0` is a signed zero, and adding one
    /// leaves the area (which starts at `+0.0`, so is never `-0.0`)
    /// bit-identical.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_time);
        if !dt.is_zero() {
            self.area += self.last_value * dt.as_secs_f64();
        }
        self.last_time = now;
        self.last_value = value;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Add `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.last_value + delta;
        self.set(now, v);
    }

    pub fn current(&self) -> f64 {
        self.last_value
    }

    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-average over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = now.since(self.start).as_secs_f64();
        if span <= 0.0 {
            return self.last_value;
        }
        let pending = self.last_value * now.since(self.last_time).as_secs_f64();
        (self.area + pending) / span
    }

    /// Restart the averaging window at `now`, keeping the current value.
    pub fn reset_window(&mut self, now: SimTime) {
        let v = self.last_value;
        *self = TimeWeighted::new(now, v);
    }
}

/// Busy-time tracker for a resource with a fixed capacity: utilization is
/// (integral of busy servers) / (capacity * window).
#[derive(Debug, Clone)]
pub struct UtilizationTracker {
    busy: TimeWeighted,
    capacity: f64,
}

impl UtilizationTracker {
    pub fn new(start: SimTime, capacity: f64) -> Self {
        UtilizationTracker {
            busy: TimeWeighted::new(start, 0.0),
            capacity: capacity.max(1e-9),
        }
    }

    pub fn set_busy(&mut self, now: SimTime, busy: f64) {
        self.busy.set(now, busy);
    }

    pub fn add_busy(&mut self, now: SimTime, delta: f64) {
        self.busy.add(now, delta);
    }

    pub fn busy_now(&self) -> f64 {
        self.busy.current()
    }

    /// Utilization in [0, ~1] over the current window.
    pub fn utilization(&self, now: SimTime) -> f64 {
        (self.busy.average(now) / self.capacity).max(0.0)
    }

    pub fn reset_window(&mut self, now: SimTime) {
        self.busy.reset_window(now);
    }

    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Change the capacity (e.g. node reconfigured); restarts the window.
    pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
        self.capacity = capacity.max(1e-9);
        self.busy.reset_window(now);
    }
}

/// Fixed-bin histogram over durations, with approximate percentile queries.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    bin_width: SimDuration,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum_micros: u128,
}

impl DurationHistogram {
    /// `bin_width` granularity, `num_bins` regular bins plus one overflow.
    pub fn new(bin_width: SimDuration, num_bins: usize) -> Self {
        assert!(!bin_width.is_zero() && num_bins > 0);
        DurationHistogram {
            bin_width,
            bins: vec![0; num_bins],
            overflow: 0,
            count: 0,
            sum_micros: 0,
        }
    }

    pub fn record(&mut self, d: SimDuration) {
        let idx = (d.as_micros() / self.bin_width.as_micros()) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum_micros += d.as_micros() as u128;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((self.sum_micros / self.count as u128) as u64)
        }
    }

    /// Approximate percentile (`q` in `[0, 1]`): upper edge of the bin holding
    /// the q-quantile observation. Overflowed observations report the
    /// histogram's upper bound.
    pub fn percentile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_micros(self.bin_width.as_micros() * (i as u64 + 1));
            }
        }
        SimDuration::from_micros(self.bin_width.as_micros() * self.bins.len() as u64)
    }

    pub fn reset(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
        self.overflow = 0;
        self.count = 0;
        self.sum_micros = 0;
    }

    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }
}

/// A windowed throughput counter: events per second over a window.
#[derive(Debug, Clone)]
pub struct ThroughputCounter {
    window_start: SimTime,
    events: u64,
}

impl ThroughputCounter {
    pub fn new(start: SimTime) -> Self {
        ThroughputCounter {
            window_start: start,
            events: 0,
        }
    }

    pub fn record(&mut self) {
        self.events += 1;
    }

    pub fn record_n(&mut self, n: u64) {
        self.events += n;
    }

    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events per second of simulated time since the window start.
    pub fn rate(&self, now: SimTime) -> f64 {
        let span = now.since(self.window_start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.events as f64 / span
        }
    }

    pub fn reset(&mut self, now: SimTime) {
        self.window_start = now;
        self.events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.record(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut a = Welford::new();
        let mut b = Welford::new();
        xs[..37].iter().for_each(|&x| a.record(x));
        xs[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 4.0); // 0 for 10s
        tw.set(SimTime::from_secs(20), 2.0); // 4 for 10s
                                             // 2 for 10s -> query at t=30
        let avg = tw.average(SimTime::from_secs(30));
        assert!((avg - (0.0 * 10.0 + 4.0 * 10.0 + 2.0 * 10.0) / 30.0).abs() < 1e-9);
        assert_eq!(tw.peak(), 4.0);
        assert_eq!(tw.current(), 2.0);
    }

    #[test]
    fn same_instant_updates_match_full_integration() {
        // The unhoisted form integrates on every update, dt == 0 included.
        let (mut area, mut last_t, mut last_v) = (0.0f64, SimTime::ZERO, 0.0);
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let steps = [
            (0, 1.0),
            (0, 2.0),
            (5, -1.0),
            (5, 3.0),
            (5, 0.5),
            (12, 0.0),
            (12, 7.0),
            (30, 2.0),
        ];
        for (us, v) in steps {
            let now = SimTime::from_micros(us);
            area += last_v * now.since(last_t).as_secs_f64();
            (last_t, last_v) = (now, v);
            tw.set(now, v);
        }
        let end = SimTime::from_micros(45);
        let want = (area + last_v * end.since(last_t).as_secs_f64()) / end.as_secs_f64();
        assert_eq!(tw.average(end).to_bits(), want.to_bits());
    }

    #[test]
    fn time_weighted_window_reset() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_secs(5), 3.0);
        tw.reset_window(SimTime::from_secs(10));
        assert_eq!(tw.current(), 3.0);
        let avg = tw.average(SimTime::from_secs(20));
        assert!((avg - 3.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_tracker_basic() {
        let mut u = UtilizationTracker::new(SimTime::ZERO, 2.0);
        u.add_busy(SimTime::ZERO, 2.0); // both servers busy from t=0
        u.add_busy(SimTime::from_secs(5), -1.0); // one frees at t=5
        let util = u.utilization(SimTime::from_secs(10));
        // busy-integral = 2*5 + 1*5 = 15; capacity*window = 20.
        assert!((util - 0.75).abs() < 1e-9);
        assert_eq!(u.busy_now(), 1.0);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = DurationHistogram::new(SimDuration::from_millis(1), 100);
        for ms in 1..=100u64 {
            h.record(SimDuration::from_millis(ms) - SimDuration::from_micros(1));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(0.5);
        assert_eq!(p50, SimDuration::from_millis(50));
        let p99 = h.percentile(0.99);
        assert_eq!(p99, SimDuration::from_millis(99));
    }

    #[test]
    fn histogram_overflow_and_reset() {
        let mut h = DurationHistogram::new(SimDuration::from_millis(1), 10);
        h.record(SimDuration::from_secs(5));
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.count(), 1);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.overflow_count(), 0);
        assert_eq!(h.percentile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn throughput_counter_rate() {
        let mut t = ThroughputCounter::new(SimTime::ZERO);
        t.record_n(500);
        assert!((t.rate(SimTime::from_secs(10)) - 50.0).abs() < 1e-9);
        t.reset(SimTime::from_secs(10));
        assert_eq!(t.events(), 0);
        assert_eq!(t.rate(SimTime::from_secs(10)), 0.0);
    }
}
