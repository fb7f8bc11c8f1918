//! The benchmark's own load generator: RNG, zipf sampler and the
//! pre-generated op ring. Nothing here comes from `tm_service::zipf`, so
//! simplifying that crate can neither break nor skew the benchmark.
//!
//! Key population (what keeps every workload stationary): within each
//! shard only the *even* keys exist. Keys ≡ 0 mod 4 are counters (only
//! ever `rmw` +1), keys ≡ 2 mod 4 are blobs (only ever `put`). `get` draws
//! from all live keys, and one `get` in ten asks for the odd neighbour,
//! which is never present, so the miss path runs too.

/// Ops per client ring. At ≈ 1.5 M ops/s per client the ring wraps every
/// ≈ 0.2 s, which is fine: the key population does not change.
pub const RING_LEN: usize = 1 << 18;

const KIND_SHIFT: u32 = 28;
const KEY_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// What a ring entry asks the client to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Rmw,
    Scan,
}

/// One ring entry: kind in the top bits, key below.
pub fn decode(op: u32) -> (Kind, u64) {
    let kind = match op >> KIND_SHIFT {
        0 => Kind::Get,
        1 => Kind::Put,
        2 => Kind::Rmw,
        _ => Kind::Scan,
    };
    (kind, u64::from(op & KEY_MASK))
}

fn encode(kind: Kind, key: u64) -> u32 {
    debug_assert!(key <= u64::from(KEY_MASK));
    ((kind as u32) << KIND_SHIFT) | key as u32
}

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `[0, n)` by the closed-form inverse of Gray et al.
/// ("Quickly generating billion-record synthetic databases"); `theta == 0`
/// is uniform.
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    /// 1 + 0.5^theta: below this (scaled) draw the rank is 0 or 1.
    zeta2: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && (0.0..1.0).contains(&theta));
        // Uniform needs no harmonic sum; skip the O(n) loop.
        let zetan: f64 = if theta == 0.0 {
            n as f64
        } else {
            (1..=n).map(|i| (i as f64).powf(-theta)).sum()
        };
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            theta,
            zetan,
            zeta2,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// The rank (0 = most popular) that uniform draw `u` selects.
    pub fn sample(&self, u: f64) -> u64 {
        if self.theta == 0.0 {
            return ((u * self.n as f64) as u64).min(self.n - 1);
        }
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.zeta2 {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Popularity rank → index in `[0, n)`, `n` a power of two: an odd
/// multiplier is a bijection there, and it scatters the hot ranks across
/// shards.
fn scatter(rank: u64, n: u64) -> u64 {
    debug_assert!(n.is_power_of_two());
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (n - 1)
}

/// Request mix in percent: get, put, rmw, scan.
pub type Mix = [u32; 4];

/// One client's op ring for a store of `key_space` keys. Same arguments,
/// same bytes.
pub fn ring(seed: u64, client: usize, key_space: u64, theta: f64, mix: Mix) -> Vec<u32> {
    assert_eq!(mix.iter().sum::<u32>(), 100, "op mix must sum to 100");
    assert!(key_space.is_power_of_two() && key_space >= 8);
    assert!(key_space <= u64::from(KEY_MASK) + 1);
    let live = Zipf::new(key_space / 2, theta);
    let quarter = Zipf::new(key_space / 4, theta);
    let mut rng = SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0x5851_F42D_4C95_7F2D));
    (0..RING_LEN)
        .map(|_| {
            let pick = (rng.next_u64() % 100) as u32;
            let miss = rng.next_u64().is_multiple_of(10);
            let u = rng.next_f64();
            let live_key = 2 * scatter(live.sample(u), key_space / 2);
            let quarter_key = 4 * scatter(quarter.sample(u), key_space / 4);
            if pick < mix[0] {
                encode(Kind::Get, live_key + u64::from(miss))
            } else if pick < mix[0] + mix[1] {
                encode(Kind::Put, quarter_key + 2)
            } else if pick < mix[0] + mix[1] + mix[2] {
                encode(Kind::Rmw, quarter_key)
            } else {
                encode(Kind::Scan, live_key)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ring_other_seed_other_ring() {
        let mix = [55, 25, 15, 5];
        let a = ring(7, 0, 8192, 0.9, mix);
        assert_eq!(a, ring(7, 0, 8192, 0.9, mix), "same seed, same bytes");
        assert_ne!(a, ring(8, 0, 8192, 0.9, mix), "other seed");
        assert_ne!(a, ring(7, 1, 8192, 0.9, mix), "other client");
    }

    #[test]
    fn ring_respects_the_key_population() {
        let ops = ring(3, 0, 128, 0.99, [10, 30, 60, 0]);
        let mut misses = 0;
        for &op in &ops {
            let (kind, key) = decode(op);
            assert!(key < 128);
            match kind {
                Kind::Get => misses += key % 2,
                Kind::Put => assert_eq!(key % 4, 2, "puts hit blobs only"),
                Kind::Rmw => assert_eq!(key % 4, 0, "rmws hit counters only"),
                Kind::Scan => panic!("mix has no scans"),
            }
        }
        // 10 % of ops are gets, one in ten of those misses.
        let expect = RING_LEN as f64 * 0.1 * 0.1;
        assert!((misses as f64 - expect).abs() < expect * 0.2, "{misses}");
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_flat() {
        let mut rng = SplitMix64::new(1);
        let z = Zipf::new(1024, 0.99);
        let hot = (0..100_000)
            .filter(|_| z.sample(rng.next_f64()) == 0)
            .count();
        assert!(hot > 10_000, "rank 0 draws {hot} of 100000 at theta 0.99");
        let u = Zipf::new(1024, 0.0);
        let hot = (0..100_000)
            .filter(|_| u.sample(rng.next_f64()) == 0)
            .count();
        assert!(hot < 300, "uniform rank 0 draws {hot} of 100000");
    }
}
