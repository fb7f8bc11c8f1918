//! The benchmark's own latency histogram: log-linear, 32 sub-buckets per
//! octave, so a percentile is resolved to within 1/32 ≈ 3.2 %. Values
//! below 64 ns land in buckets one nanosecond wide and are exact.
//!
//! A percentile is interpolated by rank inside its bucket rather than
//! snapped to the bucket edge: a run-to-run shift smaller than a bucket
//! still moves the reported value.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Highest octave with its own buckets; larger values (≥ 2⁴⁵ ns ≈ 9.8 h)
/// are clamped into the last bucket.
const MAX_OCTAVE: u32 = 44;
const BUCKETS: usize = SUB + (MAX_OCTAVE - SUB_BITS + 1) as usize * SUB;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: u64 = 10;

pub fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = (63 - v.leading_zeros()).min(MAX_OCTAVE);
    let sub = ((v >> (octave - SUB_BITS)) as usize).min(2 * SUB - 1) - SUB;
    SUB + (octave - SUB_BITS) as usize * SUB + sub
}

/// Lowest value of bucket `i` and the number of integers it holds.
pub fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    ((SUB as u64 + sub) << shift, 1 << shift)
}

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }

    /// The `q`-quantile, or `None` when fewer than [`MIN_BEYOND`] samples
    /// lie beyond it (the tail is then one or two samples, not a
    /// percentile).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.n as f64).ceil() as u64).max(1);
        if self.n < rank + MIN_BEYOND {
            return None;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bucket_range(i);
                let within = (rank - seen) as f64 - 0.5;
                return Some(lo as f64 + (width - 1) as f64 * within / c as f64);
            }
            seen += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_map_to_themselves() {
        for i in 0..BUCKETS {
            let (lo, width) = bucket_range(i);
            assert_eq!(bucket_of(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_of(lo + width - 1), i, "upper edge of bucket {i}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1, "huge values clamp");
    }

    #[test]
    fn percentiles_are_exact_below_64ns_and_on_one_wide_buckets() {
        let mut h = Hist::default();
        for v in 0..64u64 {
            for _ in 0..100 {
                h.record(v);
            }
        }
        assert_eq!(h.quantile(0.5), Some(31.0));
        assert_eq!(h.quantile(0.25), Some(15.0));
        assert_eq!(h.quantile(0.99), Some(63.0));
    }

    #[test]
    fn percentiles_are_within_one_sub_bucket_of_exact() {
        // A skewed synthetic sample: 370 ns body, a 25 µs tail.
        let mut rng = crate::gen::SplitMix64::new(9);
        let mut exact: Vec<u64> = (0..200_000)
            .map(|i| {
                let jitter = rng.next_u64() % 200;
                if i % 50 == 0 {
                    20_000 + jitter * 60
                } else {
                    300 + jitter
                }
            })
            .collect();
        let mut h = Hist::default();
        exact.iter().for_each(|&v| h.record(v));
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let truth = exact[(q * exact.len() as f64).ceil() as usize - 1] as f64;
            let got = h.quantile(q).unwrap();
            assert!(
                (got - truth).abs() <= truth * 0.032,
                "q{q}: histogram {got} vs exact {truth}"
            );
        }
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        (0..999).for_each(|v| h.record(v));
        assert!(h.quantile(0.99).is_none(), "nine samples beyond p99");
        h.record(5000);
        assert!(h.quantile(0.99).is_some(), "ten samples beyond p99");
        assert!(h.quantile(0.5).is_some());
        assert!(Hist::default().quantile(0.5).is_none());
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        (0..50).for_each(|_| a.record(100));
        (0..50).for_each(|_| b.record(900));
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!(a.quantile(0.25).unwrap() < 128.0 && a.quantile(0.75).unwrap() > 800.0);
    }
}
