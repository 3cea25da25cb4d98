//! Seeded banded-pair sampler.
//!
//! The paper evaluates on ten query sets: `Qi` holds pairs whose network
//! distance lies in `[2^(i-11) lmax, 2^(i-10) lmax)`. This sampler draws
//! random sources, runs one full `DijkstraDriver` sweep from each, and
//! buckets the targets by band — so every pair carries its exact
//! Dijkstra distance, which is the oracle every later phase checks
//! answers against at no extra cost.
//!
//! It deliberately does not call `ah_workload::generate_query_sets`:
//! that loops until every set is full, and where Q1 is unrealised (its
//! range lies below the shortest edge on the registry graphs) the exit
//! never fires and all 4n sweeps run.

use ah_graph::{Dist, Graph, NodeId};
use ah_search::{DijkstraDriver, SearchOptions};

/// splitmix64: the benchmark's only randomness, so a seed fixes every
/// input bit-for-bit with no dependency on the vendored `rand` stub.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Moves a uniform random `k`-subset to the front of `items`
    /// (a full shuffle when `k == items.len()`).
    pub fn shuffle_prefix<T>(&mut self, items: &mut [T], k: usize) {
        for i in 0..k.min(items.len()) {
            let j = i + self.below(items.len() - i);
            items.swap(i, j);
        }
    }
}

/// A source-target pair with its exact Dijkstra distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    pub s: NodeId,
    pub t: NodeId,
    pub dist: Dist,
}

/// One realised query set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Band {
    /// The paper's `i` of `Qi`, `1..=10`.
    pub index: u32,
    /// Inclusive lower distance bound.
    pub lo: u64,
    /// Exclusive upper distance bound.
    pub hi: u64,
    pub pairs: Vec<Pair>,
}

#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Random sources, one Dijkstra sweep each.
    pub sources: usize,
    /// Pairs kept per band.
    pub per_band: usize,
    /// Pairs kept in the distinct-pair pool.
    pub pool: usize,
}

impl SamplerConfig {
    pub const FULL: SamplerConfig = SamplerConfig {
        sources: 512,
        per_band: 2000,
        pool: 1_000_000,
    };
    pub const SMOKE: SamplerConfig = SamplerConfig {
        sources: 48,
        per_band: 200,
        pool: 40_000,
    };
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandedPairs {
    pub lmax: u64,
    /// Realised bands only, ascending by index: a band no sweep reached
    /// is absent, never empty.
    pub bands: Vec<Band>,
    /// Distinct pairs from the same sweeps in random order, with the
    /// graph's natural distance distribution (long pairs dominate).
    pub pool: Vec<Pair>,
}

/// Distance range of the paper's `Qi`.
pub fn band_range(lmax: u64, i: u32) -> (u64, u64) {
    let hi = lmax >> (10 - i);
    (lmax >> (11 - i), if i == 10 { hi + 1 } else { hi })
}

fn band_of(lmax: u64, d: u64) -> Option<u32> {
    (1..=10).find(|&i| {
        let (lo, hi) = band_range(lmax, i);
        d >= lo && d < hi
    })
}

/// Samples the banded sets and the pool. The band boundaries are a
/// property of the graph (`lmax` comes from a fixed-seed double sweep);
/// the pairs are a function of `seed`.
pub fn sample(g: &Graph, seed: u64, cfg: &SamplerConfig) -> BandedPairs {
    let n = g.num_nodes();
    let lmax = ah_workload::estimate_lmax(g, 0x51AB);
    let mut rng = Rng::new(seed ^ 0x9A12_5EED);
    let mut sources: Vec<NodeId> = g.node_ids().collect();
    let k = cfg.sources.min(n);
    rng.shuffle_prefix(&mut sources, k);
    sources.truncate(k);

    // Cap per (source, band) so a band's pairs spread over many sources.
    let per_source = (2 * cfg.per_band).div_ceil(k.max(1)).max(4);
    let mut sets: Vec<Vec<Pair>> = vec![Vec::new(); 10];
    let mut buckets: Vec<Vec<Pair>> = vec![Vec::new(); 10];
    let mut pool: Vec<Pair> = Vec::with_capacity(k * n.saturating_sub(1));
    let mut driver = DijkstraDriver::new();
    for &s in &sources {
        driver.run(g, s, &SearchOptions::default(), |_| true);
        buckets.iter_mut().for_each(Vec::clear);
        for t in g.node_ids() {
            let dist = driver.dist(t);
            if t == s || dist.is_infinite() {
                continue;
            }
            let pair = Pair { s, t, dist };
            pool.push(pair);
            if let Some(i) = band_of(lmax, dist.length) {
                buckets[i as usize - 1].push(pair);
            }
        }
        for (set, bucket) in sets.iter_mut().zip(&mut buckets) {
            let take = per_source.min(bucket.len());
            rng.shuffle_prefix(bucket, take);
            set.extend_from_slice(&bucket[..take]);
        }
    }

    let bands = sets
        .into_iter()
        .enumerate()
        .filter(|(_, pairs)| !pairs.is_empty())
        .map(|(i, mut pairs)| {
            let keep = cfg.per_band.min(pairs.len());
            rng.shuffle_prefix(&mut pairs, keep);
            pairs.truncate(keep);
            let index = i as u32 + 1;
            let (lo, hi) = band_range(lmax, index);
            Band {
                index,
                lo,
                hi,
                pairs,
            }
        })
        .collect();
    let keep = cfg.pool.min(pool.len());
    rng.shuffle_prefix(&mut pool, keep);
    pool.truncate(keep);
    pool.shrink_to_fit();
    BandedPairs { lmax, bands, pool }
}

impl BandedPairs {
    pub fn band(&self, index: u32) -> Option<&Band> {
        self.bands.iter().find(|b| b.index == index)
    }

    /// The equal-weight mix over the realised bands: band after band in
    /// rotation, each cycling through its own pairs, `rounds` times
    /// around — so any window of the stream weighs every band alike.
    pub fn equal_mix(&self, rounds: usize) -> Vec<Pair> {
        (0..rounds)
            .flat_map(|r| self.bands.iter().map(move |b| b.pairs[r % b.pairs.len()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> Graph {
        ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 20,
            height: 20,
            seed: 8,
            ..Default::default()
        })
    }

    const CFG: SamplerConfig = SamplerConfig {
        sources: 24,
        per_band: 40,
        pool: 3000,
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let g = graph();
        let a = sample(&g, 7, &CFG);
        assert_eq!(a, sample(&g, 7, &CFG));
        let b = sample(&g, 8, &CFG);
        assert_ne!(a.pool, b.pool);
        assert_ne!(a.bands, b.bands);
        assert_eq!(
            a.lmax, b.lmax,
            "band boundaries belong to the graph, not the seed"
        );
    }

    #[test]
    fn every_pair_lies_in_its_band_by_dijkstra() {
        let g = graph();
        let sampled = sample(&g, 3, &CFG);
        assert!(
            sampled.band(10).is_some(),
            "Q10 is realised on a 20x20 grid"
        );
        assert!(sampled.bands.iter().all(|b| !b.pairs.is_empty()));
        for band in &sampled.bands {
            assert_eq!((band.lo, band.hi), band_range(sampled.lmax, band.index));
            for p in &band.pairs {
                let d = ah_search::dijkstra_distance(&g, p.s, p.t).expect("reachable");
                assert_eq!(d, p.dist);
                assert!(
                    d.length >= band.lo && d.length < band.hi,
                    "Q{}: {} outside [{}, {})",
                    band.index,
                    d.length,
                    band.lo,
                    band.hi
                );
            }
        }
        for p in sampled.pool.iter().take(200) {
            assert_eq!(ah_search::dijkstra_distance(&g, p.s, p.t), Some(p.dist));
        }
    }

    #[test]
    fn pool_pairs_are_distinct() {
        let sampled = sample(&graph(), 5, &CFG);
        let mut keys: Vec<(NodeId, NodeId)> = sampled.pool.iter().map(|p| (p.s, p.t)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), sampled.pool.len());
    }

    #[test]
    fn equal_mix_weighs_bands_alike() {
        let sampled = sample(&graph(), 5, &CFG);
        let mix = sampled.equal_mix(30);
        assert_eq!(mix.len(), 30 * sampled.bands.len());
        for band in &sampled.bands {
            let hits = mix
                .iter()
                .filter(|p| p.dist.length >= band.lo && p.dist.length < band.hi)
                .count();
            assert_eq!(hits, 30);
        }
    }
}
