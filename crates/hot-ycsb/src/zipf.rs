//! Request-distribution generators: YCSB's Zipfian and "latest".
//!
//! The Zipfian generator is a port of the incremental algorithm YCSB uses
//! (after Gray et al., "Quickly Generating Billion-Record Synthetic
//! Databases"): item `i` (0-based, rank order) is drawn with probability
//! proportional to `1 / (i + 1)^θ`, with θ = 0.99 by default. The *scrambled*
//! variant hashes the rank so that popular items spread over the key space,
//! which is what the index micro-benchmark uses to pick request keys.

use rand::Rng;

/// Default YCSB skew parameter.
const DEFAULT_THETA: f64 = 0.99;

/// Incremental Zipfian generator over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct summation; n is the item count of the key space. For the
    // multi-million-key runs this is O(n) once per generator — measured in
    // milliseconds and hoisted out of the timed sections by the harness.
    let mut sum = 0.0;
    for i in 0..n {
        sum += 1.0 / ((i + 1) as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Zipfian over `0..items` with skew `theta`.
    pub fn new(items: u64, theta: f64) -> Zipfian {
        assert!(items >= 1);
        assert!((0.0..1.0).contains(&theta), "theta in [0,1)");
        let zetan = zeta(items, theta);
        let zeta2theta = zeta(2, theta);
        Zipfian {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan),
            zeta2theta,
        }
    }

    /// With the default YCSB θ = 0.99.
    pub fn with_default_theta(items: u64) -> Zipfian {
        Zipfian::new(items, DEFAULT_THETA)
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Draw a rank in `0..items` (0 is the most popular).
    pub fn next_rank<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64) * spread) as u64
    }

    /// Draw a *scrambled* item in `0..items`: the rank is hashed so hot
    /// items are spread uniformly over the key space (YCSB's
    /// `ScrambledZipfianGenerator`).
    pub(crate) fn next_scrambled<R: Rng>(&self, rng: &mut R) -> u64 {
        fnv1a64(self.next_rank(rng)) % self.items
    }

    #[allow(dead_code)]
    fn zeta2theta(&self) -> f64 {
        self.zeta2theta
    }
}

/// YCSB's "latest" distribution (workload D): recent items are popular.
/// Draw = `max - zipfian_rank`, clamped to the current item count.
#[derive(Debug, Clone)]
pub(crate) struct Latest {
    zipf: Zipfian,
}

impl Latest {
    /// Latest distribution over an initial window of `items`.
    pub(crate) fn new(items: u64) -> Latest {
        Latest {
            zipf: Zipfian::with_default_theta(items),
        }
    }

    /// Draw an index in `0..current_items`, skewed toward the most recent
    /// (`current_items - 1`).
    pub(crate) fn next<R: Rng>(&self, rng: &mut R, current_items: u64) -> u64 {
        debug_assert!(current_items >= 1);
        let rank = self.zipf.next_rank(rng) % current_items;
        current_items - 1 - rank
    }
}

/// 64-bit FNV-1a hash (the scrambler YCSB uses).
#[inline]
fn fnv1a64(v: u64) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in v.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1_0000_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipfian_stays_in_range() {
        let z = Zipfian::with_default_theta(1000);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100_000 {
            assert!(z.next_rank(&mut rng) < 1000);
            assert!(z.next_scrambled(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let n = 10_000u64;
        let z = Zipfian::with_default_theta(n);
        let mut rng = StdRng::seed_from_u64(7);
        let draws = 200_000;
        let mut rank0 = 0u64;
        let mut top1pct = 0u64;
        for _ in 0..draws {
            let r = z.next_rank(&mut rng);
            if r == 0 {
                rank0 += 1;
            }
            if r < n / 100 {
                top1pct += 1;
            }
        }
        // With θ=0.99 and n=10⁴, P(rank 0) ≈ 1/zetan ≈ 9.5%, and the top 1%
        // of items draw well over a third of the traffic.
        let p0 = rank0 as f64 / draws as f64;
        assert!(p0 > 0.05 && p0 < 0.15, "P(rank 0) = {p0}");
        let p1 = top1pct as f64 / draws as f64;
        assert!(p1 > 0.35, "top 1% share = {p1}");
    }

    #[test]
    fn uniform_vs_zipf_theta_zero() {
        // θ → 0 degenerates toward uniform: rank 0 close to 1/n share.
        let z = Zipfian::new(100, 0.01);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 100_000;
        let hits = (0..draws).filter(|_| z.next_rank(&mut rng) == 0).count();
        let p = hits as f64 / draws as f64;
        assert!(p < 0.05, "near-uniform rank-0 share {p}");
    }

    #[test]
    fn scrambled_spreads_hot_items() {
        let z = Zipfian::with_default_theta(1_000);
        let mut rng = StdRng::seed_from_u64(11);
        // The most common scrambled values must not be adjacent small ints.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(z.next_scrambled(&mut rng)).or_insert(0u32) += 1;
        }
        let mut top: Vec<(u64, u32)> = counts.into_iter().collect();
        top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let hot: Vec<u64> = top.iter().take(4).map(|&(k, _)| k).collect();
        let all_small = hot.iter().all(|&k| k < 10);
        assert!(!all_small, "scrambling should spread hot keys: {hot:?}");
    }

    #[test]
    fn latest_prefers_recent() {
        let l = Latest::new(1_000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut recent = 0;
        let draws = 50_000;
        for _ in 0..draws {
            let v = l.next(&mut rng, 1_000);
            assert!(v < 1_000);
            if v >= 990 {
                recent += 1;
            }
        }
        let p = recent as f64 / draws as f64;
        assert!(p > 0.3, "latest-10 share = {p}");
    }

    #[test]
    fn deterministic_with_seed() {
        let z = Zipfian::with_default_theta(500);
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| z.next_scrambled(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| z.next_scrambled(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
