//! The popularity-aware cache manager: a catalog-wide policy layered
//! over the interval cache (DESIGN §16).
//!
//! DESIGN §11's interval cache pins first-come and sweeps by trailing
//! window — a *per-interval* policy that knows nothing about which
//! titles matter. This module adds the catalog view (grounded in
//! *Multicast Transmission Prefix and Popularity Aware Interval Caching
//! Based Admission Control Policy*, PAPERS.md):
//!
//! * a Zipf popularity model plus an online open-count estimator (moved
//!   here from `cras-cluster`, which re-exports them — placement and
//!   caching rank titles the same way);
//! * a `CacheManager` that keeps the hot set's *prefix* frames
//!   memory-resident across sessions, so a new viewer of a popular
//!   title starts from memory and only needs a disk share once its
//!   prefix drains (deferred admission, reserve-at-drain);
//! * hot-set promotion/demotion driven by observed opens, feeding
//!   `IntervalCache::set_prefix`
//!   pins and un-pins deterministically.

use std::collections::BTreeMap;

use cras_sim::Duration;

use crate::cache::IntervalCache;

/// Unnormalized Zipf weight of rank `r` (0-based) with exponent
/// `theta`.
pub(crate) fn zipf_weight(rank: usize, theta: f64) -> f64 {
    1.0 / ((rank + 1) as f64).powf(theta)
}

/// Cumulative request share of the `head` hottest titles out of `n`
/// under Zipf(`theta`) — how much traffic replication covers.
#[cfg(test)]
pub(crate) fn head_share(head: usize, n: usize, theta: f64) -> f64 {
    let total: f64 = (0..n).map(|r| zipf_weight(r, theta)).sum();
    let hot: f64 = (0..head.min(n)).map(|r| zipf_weight(r, theta)).sum();
    if total > 0.0 {
        hot / total
    } else {
        0.0
    }
}

/// Cumulative distribution for drawing Zipf-distributed ranks by
/// inverse-CDF sampling: `cdf[r]` is the probability of rank `<= r`.
pub fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += zipf_weight(r, theta);
        cdf.push(acc);
    }
    let total = *cdf.last().unwrap_or(&1.0);
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Draws a rank from `cdf` (as built by [`zipf_cdf`]) given a uniform
/// sample in `[0, 1)`.
pub fn zipf_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u)
        .min(cdf.len().saturating_sub(1))
}

/// Online open-count estimator. Iteration order is `BTreeMap`'s, so
/// every report it produces is deterministic.
#[derive(Clone, Debug, Default)]
pub struct PopularityEstimator {
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl PopularityEstimator {
    /// Creates an empty estimator.
    pub fn new() -> PopularityEstimator {
        PopularityEstimator::default()
    }

    /// Records one open of `title`.
    pub fn observe(&mut self, title: &str) {
        match self.counts.get_mut(title) {
            Some(c) => *c += 1,
            None => {
                self.counts.insert(title.to_string(), 1);
            }
        }
        self.total += 1;
    }

    /// Whether `a` ranks above `b` in [`PopularityEstimator::top`]: more
    /// opens, or as many and an earlier name.
    fn ranks_above(&self, a: &str, b: &str) -> bool {
        let (ca, cb) = (self.count(a), self.count(b));
        ca > cb || (ca == cb && a < b)
    }

    /// Opens observed for `title`.
    pub(crate) fn count(&self, title: &str) -> u64 {
        self.counts.get(title).copied().unwrap_or(0)
    }

    /// The `k` most-opened titles, most popular first; ties broken by
    /// title name so the report is stable across runs.
    pub(crate) fn top(&self, k: usize) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.counts.iter().map(|(t, &c)| (t.as_str(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(k);
        v
    }

    /// Observed request share of the `k` most-opened titles.
    pub fn observed_head_share(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hot: u64 = self.top(k).iter().map(|&(_, c)| c).sum();
        hot as f64 / self.total as f64
    }
}

/// The global cache manager: ranks titles by observed opens and keeps
/// the hot set's prefixes pinned in the interval cache.
///
/// The server owns one manager next to its [`IntervalCache`] and calls
/// [`CacheManager::observe_open`] on every `crs_open`. The manager
/// recomputes the top-`hot_set` titles (ties by name, like
/// [`PopularityEstimator::top`]) and syncs the cache's prefix pins:
/// promoted titles gain a `prefix_secs` pin, demoted titles lose
/// theirs — the "cold prefix" the followers-per-byte policy then
/// reclaims. With `hot_set == 0` or `prefix_secs == 0` the manager
/// only counts and never pins, leaving the cache byte-identical to the
/// unmanaged baseline.
#[derive(Clone, Debug)]
pub(crate) struct CacheManager {
    popularity: PopularityEstimator,
    hot_set: usize,
    prefix_secs: Duration,
    hot: Vec<String>,
}

impl CacheManager {
    /// Creates a manager keeping the first `prefix_secs` of the
    /// `hot_set` most-opened titles resident.
    pub(crate) fn new(hot_set: usize, prefix_secs: Duration) -> CacheManager {
        CacheManager {
            popularity: PopularityEstimator::new(),
            hot_set,
            prefix_secs,
            hot: Vec::new(),
        }
    }

    /// Whether prefix residency is active at all.
    pub(crate) fn enabled(&self) -> bool {
        self.hot_set > 0 && self.prefix_secs > Duration::ZERO
    }

    /// The popularity estimator (shared ranking with cluster placement).
    #[cfg(test)]
    pub(crate) fn popularity(&self) -> &PopularityEstimator {
        &self.popularity
    }

    /// Whether `title` is currently in the hot set.
    pub(crate) fn is_hot(&self, title: &str) -> bool {
        self.hot.iter().any(|t| t == title)
    }

    /// Records one open of `title`, updates the hot set, and syncs the
    /// cache's prefix pins: a demoted title is unpinned, then every hot
    /// title without a resident prefix (newly promoted, or dropped from
    /// the cache since) is pinned again.
    ///
    /// One open raises only `title`'s count, so the top-`hot_set` can
    /// change only by `title` moving up inside it or displacing its last
    /// member; the hot set is updated in place (no sort) and stays equal
    /// to [`PopularityEstimator::top`].
    pub(crate) fn observe_open(&mut self, title: &str, cache: &mut IntervalCache) {
        self.popularity.observe(title);
        if !self.enabled() || !cache.enabled() {
            return;
        }
        let popularity = &self.popularity;
        let (entry, demoted) = match self.hot.iter().position(|t| t == title) {
            Some(i) => (Some(self.hot.remove(i)), None),
            None if self.hot.len() < self.hot_set => (None, None),
            None => {
                let last = self.hot.last().expect("hot set is full");
                if popularity.ranks_above(title, last) {
                    (None, self.hot.pop())
                } else {
                    (None, None)
                }
            }
        };
        if entry.is_some() || demoted.is_some() || self.hot.len() < self.hot_set {
            let at = self
                .hot
                .iter()
                .position(|t| popularity.ranks_above(title, t))
                .unwrap_or(self.hot.len());
            self.hot
                .insert(at, entry.unwrap_or_else(|| title.to_string()));
        }
        if let Some(old) = demoted {
            cache.set_prefix(&old, Duration::ZERO);
        }
        for t in &self.hot {
            if !cache.has_prefix(t) {
                cache.set_prefix(t, self.prefix_secs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_concentrates() {
        // Under Zipf(1.0) over 1000 titles, the top 32 carry a large
        // minority of all requests — the premise of hot replication.
        let share = head_share(32, 1000, 1.0);
        assert!((0.40..0.60).contains(&share), "head share {share:.3}");
        assert!(head_share(1000, 1000, 1.0) > 0.999);
    }

    #[test]
    fn cdf_inversion_is_monotone_and_in_range() {
        let cdf = zipf_cdf(100, 1.0);
        assert_eq!(zipf_rank(&cdf, 0.0), 0);
        assert_eq!(zipf_rank(&cdf, 0.999_999), 99);
        let mut last = 0;
        for i in 0..=100 {
            let r = zipf_rank(&cdf, i as f64 / 100.0);
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    fn estimator_orders_by_count_then_name() {
        let mut e = PopularityEstimator::new();
        for _ in 0..3 {
            e.observe("b");
        }
        for _ in 0..3 {
            e.observe("a");
        }
        e.observe("c");
        assert_eq!(e.top(2), vec![("a", 3), ("b", 3)]);
        assert_eq!(e.total, 7);
        assert_eq!(e.counts.len(), 3);
        assert!((e.observed_head_share(2) - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn manager_promotes_and_demotes_prefix_pins() {
        let mut cache = IntervalCache::new(1 << 20, Duration::from_secs(10));
        let mut mgr = CacheManager::new(1, Duration::from_secs(5));
        mgr.observe_open("a.mov", &mut cache);
        assert!(mgr.is_hot("a.mov"));
        assert!(cache.has_prefix("a.mov"));
        // Two opens of b displace a from the 1-slot hot set.
        mgr.observe_open("b.mov", &mut cache);
        mgr.observe_open("b.mov", &mut cache);
        assert!(mgr.is_hot("b.mov") && !mgr.is_hot("a.mov"));
        assert!(cache.has_prefix("b.mov") && !cache.has_prefix("a.mov"));
    }

    #[test]
    fn disabled_manager_never_pins() {
        let mut cache = IntervalCache::new(1 << 20, Duration::from_secs(10));
        let mut mgr = CacheManager::new(0, Duration::from_secs(5));
        mgr.observe_open("a.mov", &mut cache);
        assert!(!mgr.enabled());
        assert_eq!(mgr.popularity().count("a.mov"), 1);
        assert!(!cache.has_prefix("a.mov"));
    }

    #[test]
    fn hot_set_tracks_top_k_through_ties_and_repins_dropped_prefixes() {
        let titles = ["a", "b", "c", "d", "e", "f"];
        for seed in 0..20 {
            let mut rng = cras_sim::Rng::new(seed);
            let k = 1 + seed as usize % 4;
            let mut cache = IntervalCache::new(1 << 20, Duration::from_secs(10));
            let mut mgr = CacheManager::new(k, Duration::from_secs(5));
            for step in 0..200 {
                // Drop a title's cache entry now and then, hot or not:
                // its pin must come back at the next open if it is hot.
                if rng.chance(0.2) {
                    cache.drop_movie(titles[rng.below(6) as usize]);
                }
                // Few titles, skewed draws: counts tie often.
                let t = titles[(rng.below(6) * rng.below(6) / 5) as usize];
                mgr.observe_open(t, &mut cache);
                let top: Vec<&str> = mgr
                    .popularity()
                    .top(k)
                    .into_iter()
                    .map(|(t, _)| t)
                    .collect();
                assert_eq!(mgr.hot, top, "seed {seed} step {step}");
                for t in titles {
                    assert_eq!(
                        cache.has_prefix(t),
                        mgr.is_hot(t),
                        "seed {seed} step {step} title {t}"
                    );
                }
            }
        }
    }
}
