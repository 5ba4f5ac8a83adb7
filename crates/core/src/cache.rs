//! The interval cache: serve trailing streams of popular movies from
//! memory instead of disk.
//!
//! When two clients watch the same movie a few seconds apart, the data
//! the leader just read from disk is exactly the data the follower is
//! about to need. Interval caching (Jayarekha & Nair; see PAPERS.md)
//! retains only that sliding window — the interval between a leading
//! and a trailing stream — so the trailing stream's disk load drops to
//! zero and admission can accept it against a *memory* budget instead
//! of the disk-time bound.
//!
//! The cache is index-addressed and copies no chunk: per movie it keeps
//! the title's chunk table once and *runs*, index ranges of that table,
//! whose bytes and timestamps are read from the table's prefix-sum
//! columns. A chunk is *pinned* while some
//! registered follower's cursor (the media time it has consumed up
//! to) is at or below the chunk's timestamp, and becomes evictable
//! once every follower has read past it. Unpinned chunks are retained
//! as a trailing window behind the movie's read frontier, so a stream
//! that starts *after* the leader's reads still finds the recent past
//! in memory; they are evicted when they fall more than the configured
//! maximum gap behind the movie's trailing-most consumer, or when the
//! cache exceeds its byte budget (lowest insertion sequence first —
//! deterministic FIFO pressure).
//!
//! The server (`crates/core/src/server.rs`) owns one [`IntervalCache`]
//! and consults it in three places: admission (a trailing stream may be
//! admitted against the cache budget when the disk bound is exhausted),
//! interval planning (cache-served streams issue zero disk commands),
//! and teardown (`crs_stop`/`crs_seek`/close release the departing
//! stream's pins in the same call — no leaked pins).

use std::collections::BTreeMap;
use std::ops::Range;

use cras_media::{ChunkSpan, ChunkTable};
use cras_sim::Duration;

/// How the cache picks victims under byte-budget pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictPolicy {
    /// Globally oldest (lowest insertion sequence) unpinned chunk first
    /// — deterministic FIFO pressure, the original §11 behavior.
    #[default]
    OldestFirst,
    /// Evict from the movie with the fewest registered followers per
    /// evictable byte: data nobody downstream is waiting on goes first,
    /// so a popular movie's shared window outlives a cold one's.
    FollowersPerByte,
}

/// Counters exported by the cache (mirrored into the system metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Bytes served to followers from cached chunks.
    pub hit_bytes: u64,
    /// Bytes a cache-dependent stream needed but did not find (each
    /// miss breaks the stream's interval and sends it back to disk
    /// admission).
    pub miss_bytes: u64,
    /// Bytes inserted into the cache from completed disk reads.
    pub inserted_bytes: u64,
    /// Bytes released by eviction (window expiry or budget pressure).
    pub evicted_bytes: u64,
    /// High-water mark of resident cache bytes.
    pub peak_bytes: u64,
    /// Streams admitted through the cache path (disk bound exhausted,
    /// memory budget covered the gap).
    pub cache_admitted_streams: u64,
    /// Cache-admitted streams whose interval broke and whose disk
    /// re-admission test failed (the stream stops).
    pub cache_rejected_streams: u64,
    /// Intervals broken by a leader stop/seek or an eviction racing a
    /// follower (the follower fell back to the disk path).
    pub interval_breaks: u64,
    /// Bytes served to deferred-admission streams from resident prefix
    /// chunks (no follower registration, no pin churn).
    pub prefix_hit_bytes: u64,
    /// Streams admitted deferred against a resident prefix (no disk
    /// share at open; reserve-at-drain).
    pub prefix_admitted_streams: u64,
    /// Deferred-admission streams that obtained their disk share at
    /// prefix-drain time.
    pub deferred_drained_streams: u64,
    /// Opens coalesced onto a concurrent leader's read stream within
    /// the join window (multicast-style batched joins).
    pub joined_streams: u64,
}

/// Resident chunks `lo..hi` of the movie's table that were inserted
/// with consecutive sequence numbers, all prefix-pinned or none: a
/// run's oldest chunk is its first, at its lowest index.
#[derive(Clone, Debug)]
struct Run {
    /// Insertion sequence number of the first chunk (chunk `lo + k` of
    /// the run has `seq + k`).
    seq: u64,
    /// Prefix-resident chunks of a hot title: pinned across sessions by
    /// the cache manager, never evicted until the title is demoted.
    prefix: bool,
    /// First chunk index.
    lo: u32,
    /// One past the last chunk index; a run is never empty.
    hi: u32,
}

impl Run {
    fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// The run's chunks.
    fn span<'a>(&self, table: &'a ChunkTable) -> ChunkSpan<'a> {
        self.head(table, self.len())
    }

    /// The run's first `n` chunks.
    fn head<'a>(&self, table: &'a ChunkTable, n: u32) -> ChunkSpan<'a> {
        table.span(self.lo..self.lo + n)
    }
}

/// Per-movie cache state: resident runs plus follower bookkeeping.
#[derive(Clone, Debug, Default)]
struct MovieCache {
    /// The title's chunk table, which the runs index; set by the first
    /// insert, so present whenever a run is.
    table: Option<ChunkTable>,
    /// Resident runs in index order.
    runs: Vec<Run>,
    /// Media time up to which disk reads have been inserted (end
    /// timestamp of the furthest inserted chunk).
    frontier: Duration,
    /// Registered cache-dependent streams and their consumption
    /// cursors (media time consumed so far). A follower pins exactly
    /// the resident chunks at or past its cursor.
    followers: BTreeMap<u32, Duration>,
    /// Media time below which chunks are prefix-pinned (zero = the
    /// title is not in the hot set).
    prefix_limit: Duration,
}

impl MovieCache {
    fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.followers.is_empty() && self.prefix_limit == Duration::ZERO
    }

    /// The table the runs index.
    fn table(&self) -> &ChunkTable {
        self.table
            .as_ref()
            .expect("a movie with runs has its table")
    }

    /// The lowest follower cursor, below which no follower pins.
    fn cursor(&self) -> Option<Duration> {
        self.followers.values().copied().min()
    }

    /// The first run not wholly below chunk `index`.
    fn find(&self, index: u32) -> usize {
        self.runs.partition_point(|run| run.hi <= index)
    }

    /// Puts chunks `chunks`, inserted from `seq` on, in a new run at
    /// `r` unless they extend run `r - 1`.
    fn place(&mut self, r: usize, chunks: Range<u32>, seq: u64, prefix: bool) {
        if let Some(p) = r.checked_sub(1).map(|p| &mut self.runs[p]) {
            let next = p.seq + p.len() as u64 == seq && p.hi == chunks.start;
            if next && p.prefix == prefix {
                p.hi = chunks.end;
                return;
            }
        }
        let (lo, hi) = (chunks.start, chunks.end);
        self.runs.insert(
            r,
            Run {
                seq,
                prefix,
                lo,
                hi,
            },
        );
    }

    /// Whether the chunks of `span` are all resident (and
    /// prefix-pinned, with `prefix`); an empty span is.
    fn covered(&self, span: ChunkSpan, prefix: bool) -> bool {
        let (mut next, end) = (span.range().start, span.range().end);
        if next == end {
            return true;
        }
        for run in &self.runs[self.find(next)..] {
            if run.lo > next || (prefix && !run.prefix) {
                return false;
            } else if run.hi >= end {
                return true;
            }
            next = run.hi;
        }
        false
    }

    /// Removes the first `n` chunks of run `r`. Returns their bytes.
    fn take(&mut self, r: usize, n: u32) -> u64 {
        let bytes = self.runs[r].head(self.table(), n).bytes();
        let run = &mut self.runs[r];
        run.lo += n;
        run.seq += n as u64;
        if run.lo == run.hi {
            self.runs.remove(r);
        }
        bytes
    }
}

/// A global, index-addressed block cache shared by all streams.
///
/// Budget `0` disables the cache entirely: every operation is a no-op
/// and the server behaves bit-for-bit as it did without the subsystem.
#[derive(Clone, Debug, Default)]
pub struct IntervalCache {
    budget: u64,
    max_gap: Duration,
    movies: BTreeMap<String, MovieCache>,
    bytes: u64,
    reserved: u64,
    seq: u64,
    stats: CacheStats,
    policy: EvictPolicy,
    prefix_bytes: u64,
}

impl IntervalCache {
    /// Creates a cache with a byte budget and a maximum leader/follower
    /// gap. Budget `0` disables caching.
    pub(crate) fn new(budget: u64, max_gap: Duration) -> IntervalCache {
        IntervalCache {
            budget,
            max_gap,
            ..IntervalCache::default()
        }
    }

    /// Selects the budget-pressure eviction policy.
    pub(crate) fn set_policy(&mut self, policy: EvictPolicy) {
        self.policy = policy;
    }

    /// Whether the cache is enabled (non-zero budget).
    pub(crate) fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// The configured byte budget.
    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes reserved by cache-aware admission for gaps in flight.
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// Number of resident chunks.
    #[cfg(test)]
    pub(crate) fn frame_count(&self) -> usize {
        let runs = self.movies.values().flat_map(|m| &m.runs);
        runs.map(|run| run.len() as usize).sum()
    }

    /// Number of pinned chunks (some follower has yet to consume them).
    pub fn pinned_frames(&self) -> usize {
        let pinned = |m: &MovieCache| -> usize {
            let Some(t) = m.cursor() else { return 0 };
            let pinned = |run: &Run| run.len() - run.span(m.table()).below(t);
            m.runs.iter().map(|run| pinned(run) as usize).sum()
        };
        self.movies.values().map(pinned).sum()
    }

    /// Counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access to the counters (the server records admission
    /// outcomes and interval breaks here).
    pub(crate) fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// The read frontier of a movie, if any of its data is tracked.
    pub(crate) fn frontier(&self, movie: &str) -> Option<Duration> {
        self.movies.get(movie).map(|m| m.frontier)
    }

    /// Whether `movie` currently has a prefix-residency pin.
    pub fn has_prefix(&self, movie: &str) -> bool {
        self.movies
            .get(movie)
            .is_some_and(|m| m.prefix_limit > Duration::ZERO)
    }

    /// Declares (or clears, with `limit == ZERO`) the prefix-residency
    /// window of a movie: chunks below `limit` already resident are
    /// promoted to prefix pins and future posted chunks below `limit`
    /// are pinned on insert. Promotion is budget-guarded — prefix pins
    /// never take the pinned total past the byte budget — so it may
    /// skip a chunk; runs split where the pin changes.
    pub(crate) fn set_prefix(&mut self, movie: &str, limit: Duration) {
        let demote = limit == Duration::ZERO;
        if !self.enabled() || (demote && !self.movies.contains_key(movie)) {
            return;
        }
        let m = entry(&mut self.movies, movie);
        m.prefix_limit = limit;
        for run in std::mem::take(&mut m.runs) {
            let mut lo = run.lo;
            while lo < run.hi {
                let rest = m.table().span(lo..run.hi);
                let (n, pin) = match (demote, run.prefix) {
                    (false, false) => pin_piece(rest, limit, self.budget - self.prefix_bytes),
                    _ => (rest.len() as u32, !demote),
                };
                let bytes = m.table().span(lo..lo + n).bytes();
                match (run.prefix, pin) {
                    (false, true) => self.prefix_bytes += bytes,
                    (true, false) => self.prefix_bytes -= bytes,
                    _ => {}
                }
                let seq = run.seq + (lo - run.lo) as u64;
                m.place(m.runs.len(), lo..lo + n, seq, pin);
                lo += n;
            }
        }
        // Demotion: the cold prefix rejoins the window/budget rules.
        if demote {
            self.evict(movie);
        }
    }

    /// Whether every chunk of `movie` in `[from, to)` is resident as a
    /// prefix pin — a deferred-admission stream over that span is
    /// guaranteed memory service (prefix pins are never evicted).
    pub(crate) fn prefix_resident(
        &self,
        movie: &str,
        table: &ChunkTable,
        from: Duration,
        to: Duration,
    ) -> bool {
        let Some(m) = self.movies.get(movie).filter(|_| from < to) else {
            return false;
        };
        let span = table.chunks_in(from, to);
        !span.is_empty() && m.covered(span, true)
    }

    /// Serves one interval's chunks to a deferred-admission stream from
    /// the resident prefix. All-or-nothing like [`IntervalCache::serve`]
    /// but registers no follower and touches no pins: prefix chunks are
    /// shared by every prefix stream of the title and stay resident for
    /// the next one.
    pub(crate) fn serve_resident(&mut self, movie: &str, chunks: ChunkSpan) -> bool {
        if chunks.is_empty() {
            return true;
        }
        let bytes = chunks.bytes();
        let m = self.movies.get(movie);
        if !m.is_some_and(|m| m.covered(chunks, true)) {
            self.stats.miss_bytes += bytes;
            return false;
        }
        self.stats.hit_bytes += bytes;
        self.stats.prefix_hit_bytes += bytes;
        true
    }

    /// Reserves admission budget for a trailing stream's gap.
    pub(crate) fn reserve(&mut self, bytes: u64) {
        self.reserved += bytes;
    }

    /// Releases a previous reservation.
    pub(crate) fn unreserve(&mut self, bytes: u64) {
        self.reserved = self.reserved.saturating_sub(bytes);
    }

    /// Inserts chunks a leader's disk read just posted (a chunk already
    /// resident keeps its age). They are pinned for every registered
    /// follower that has not consumed past them yet; the movie frontier
    /// advances; expired and over-budget unpinned chunks are evicted.
    pub(crate) fn insert_posted(&mut self, movie: &str, chunks: ChunkSpan) {
        if !self.enabled() || chunks.is_empty() {
            return;
        }
        let table = chunks.table();
        let m = entry(&mut self.movies, movie);
        m.table.get_or_insert_with(|| table.clone());
        let (mut lo, hi) = (chunks.range().start, chunks.range().end);
        while lo < hi {
            let r = m.find(lo);
            let next = m.runs.get(r).map(|run| run.lo..run.hi);
            if let Some(run) = next.clone().filter(|run| run.start <= lo) {
                lo = run.end; // Resident chunks keep their age.
                continue;
            }
            let gap = table.span(lo..next.map_or(hi, |run| run.start.min(hi)));
            // Budget-guarded prefix pins: a hot title's prefix chunks
            // stay resident across sessions while the pins fit.
            let (n, prefix) = pin_piece(gap, m.prefix_limit, self.budget - self.prefix_bytes);
            let bytes = table.span(lo..lo + n).bytes();
            m.place(r, lo..lo + n, self.seq, prefix);
            self.seq += n as u64;
            self.bytes += bytes;
            self.stats.inserted_bytes += bytes;
            self.prefix_bytes += if prefix { bytes } else { 0 };
            lo += n;
        }
        m.frontier = m.frontier.max(table.timestamp(hi));
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.bytes);
        self.evict(movie);
    }

    /// Whether the cache holds every chunk of `movie` between `from`
    /// and the movie's read frontier — i.e. a stream starting at `from`
    /// can be fed entirely from memory until it catches the leader.
    pub(crate) fn covers(&self, movie: &str, table: &ChunkTable, from: Duration) -> bool {
        let Some(m) = self.movies.get(movie).filter(|m| from < m.frontier) else {
            return false;
        };
        m.covered(table.chunks_in(from, m.frontier), false)
    }

    /// Registers a cache-dependent stream consuming from `from`: every
    /// resident chunk at or past `from`, and every chunk posted there
    /// later, is pinned for it. Registering is a seek: an earlier
    /// registration is removed first (see
    /// [`IntervalCache::remove_follower`]).
    pub(crate) fn add_follower(&mut self, movie: &str, id: u32, from: Duration) {
        if self.enabled() {
            self.remove_follower(movie, id);
            entry(&mut self.movies, movie).followers.insert(id, from);
        }
    }

    /// Deregisters a stream and drops its pins *in the same call* — a
    /// stop or seek must not leak pins until some later eviction sweep.
    /// Newly unpinned chunks stay resident as window chunks and are
    /// reclaimed by the usual eviction rules.
    pub(crate) fn remove_follower(&mut self, movie: &str, id: u32) {
        if let Some(m) = self.movies.get_mut(movie) {
            m.followers.remove(&id);
            self.evict(movie);
        }
    }

    /// Serves one interval's chunks to follower `id` from the cache.
    ///
    /// All-or-nothing: if any chunk is absent the call returns `false`,
    /// counts the miss, and changes nothing — the caller breaks the
    /// interval and falls back to the disk path. On success the
    /// follower's cursor moves past the last chunk (registering it
    /// there if it was not registered), which releases its pins on the
    /// served chunks, and hit bytes are counted.
    pub(crate) fn serve(&mut self, movie: &str, id: u32, chunks: ChunkSpan) -> bool {
        let Some(hi) = chunks.last() else {
            return true;
        };
        let bytes = chunks.bytes();
        let m = self.movies.get_mut(movie);
        let Some(m) = m.filter(|m| m.covered(chunks, false)) else {
            self.stats.miss_bytes += bytes;
            return false;
        };
        m.followers.insert(id, hi.end_timestamp());
        self.stats.hit_bytes += bytes;
        self.evict(movie);
        true
    }

    /// Drops every chunk and follower of a movie (last stream closed).
    pub(crate) fn drop_movie(&mut self, movie: &str) {
        let Some(m) = self.movies.remove(movie) else {
            return;
        };
        for run in &m.runs {
            let bytes = run.span(m.table()).bytes();
            self.bytes -= bytes;
            self.stats.evicted_bytes += bytes;
            self.prefix_bytes -= if run.prefix { bytes } else { 0 };
        }
    }

    /// Eviction after a call changed `movie`. Window expiry drops the
    /// unpinned chunks that fell more than `max_gap` behind the movie's
    /// trailing-most consumer (the slowest registered follower, or the
    /// read frontier when no follower is registered — chained trailing
    /// streams each keep a window behind them); no other movie's window
    /// moved, so no other movie is swept. Then, while still over budget,
    /// a victim goes by the policy. Pinned chunks are never evicted, so
    /// a burst of pins may keep the cache transiently over budget
    /// (recorded in `peak_bytes`).
    fn evict(&mut self, movie: &str) {
        if let Some(m) = self.movies.get_mut(movie) {
            // The cutoff never passes the lowest cursor, so below it
            // only prefix pins (exempt until demoted) hold chunks.
            let tail = m.cursor().map_or(m.frontier, |t| t.min(m.frontier));
            let cutoff = tail.saturating_sub(self.max_gap);
            let expired = m
                .runs
                .partition_point(|run| m.table().timestamp(run.lo) < cutoff);
            for r in (0..expired).rev() {
                if !m.runs[r].prefix {
                    let freed = m.take(r, m.runs[r].span(m.table()).below(cutoff));
                    self.bytes -= freed;
                    self.stats.evicted_bytes += freed;
                }
            }
            if m.is_empty() {
                self.movies.remove(movie);
            }
        }
        while self.bytes > self.budget {
            let Some((name, r)) = self.victim() else {
                break; // Everything left is pinned.
            };
            let m = self.movies.get_mut(&name).expect("victim movie");
            let bytes = m.take(r, 1);
            self.bytes -= bytes;
            self.stats.evicted_bytes += bytes;
            if m.is_empty() {
                self.movies.remove(&name);
            }
        }
    }

    /// The next budget victim, the first chunk of some movie's run.
    /// Under [`EvictPolicy::OldestFirst`] it is the globally lowest-seq
    /// evictable chunk. Under
    /// [`EvictPolicy::FollowersPerByte`] the movie with the fewest
    /// registered followers per evictable byte loses its oldest
    /// evictable chunk; cross-multiplied integer comparison keeps the
    /// order exact, and ties break by movie name.
    fn victim(&self) -> Option<(String, usize)> {
        // (followers, evictable bytes, oldest seq, movie, run)
        let mut best: Option<(u64, u64, u64, &str, usize)> = None;
        for (name, m) in &self.movies {
            let cursor = m.cursor();
            let (mut evictable, mut oldest) = (0, None);
            for (r, run) in m.runs.iter().enumerate().filter(|(_, run)| !run.prefix) {
                let n = cursor.map_or(run.len(), |t| run.span(m.table()).below(t));
                if n > 0 {
                    evictable += run.head(m.table(), n).bytes();
                    oldest = oldest.into_iter().chain([(run.seq, r)]).min();
                }
            }
            let Some((seq, r)) = oldest else { continue };
            let followers = m.followers.len() as u64;
            let better = best.is_none_or(|(bf, be, bs, bn, _)| match self.policy {
                EvictPolicy::OldestFirst => seq < bs,
                EvictPolicy::FollowersPerByte => {
                    // followers/evictable < bf/be  ⟺  followers·be < bf·evictable
                    let lhs = followers as u128 * be as u128;
                    let rhs = bf as u128 * evictable as u128;
                    lhs < rhs || (lhs == rhs && name.as_str() < bn)
                }
            });
            if better {
                best = Some((followers, evictable, seq, name, r));
            }
        }
        best.map(|(.., name, r)| (name.to_string(), r))
    }
}

/// The cache entry of `movie`; its title is allocated only when the
/// movie is first entered.
fn entry<'a>(movies: &'a mut BTreeMap<String, MovieCache>, movie: &str) -> &'a mut MovieCache {
    if !movies.contains_key(movie) {
        movies.insert(movie.to_string(), MovieCache::default());
    }
    movies.get_mut(movie).expect("entered above")
}

/// The leading piece of `chunks` that shares one prefix-pin decision,
/// and that decision. Chunks below `limit` are pinned while the pins
/// fit in `room`, the budget left; the guard is per chunk, so when the
/// whole piece below `limit` does not fit, the piece is one chunk.
fn pin_piece(chunks: ChunkSpan, limit: Duration, room: u64) -> (u32, bool) {
    let below = chunks.below(limit);
    if below == 0 {
        return (chunks.len() as u32, false);
    }
    let (table, lo) = (chunks.table(), chunks.range().start);
    if table.span(lo..lo + below).bytes() <= room {
        return (below, true);
    }
    (1, table.span(lo..lo + 1).bytes() <= room)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    /// 1 chunk per second, 1000 bytes each.
    fn table(n: u64) -> ChunkTable {
        ChunkTable::from_durations_sizes((0..n).map(|_| (secs(1), 1000)))
    }

    fn cache(budget: u64) -> IntervalCache {
        IntervalCache::new(budget, secs(10))
    }

    impl IntervalCache {
        /// Checks the cache's bookkeeping, panicking on a violation:
        /// every movie's runs are non-empty, sorted and disjoint, with
        /// sequence numbers already handed out; `bytes` and
        /// `prefix_bytes` are the sums of the runs' span bytes, which
        /// equal their chunks' sizes; `frame_count` and `pinned_frames`
        /// equal a chunk-by-chunk recount; and the prefix pins fit the
        /// budget.
        pub(crate) fn check_invariants(&self) {
            let (mut bytes, mut prefix_bytes) = (0, 0);
            let (mut frames, mut pinned) = (0, 0);
            for (name, m) in &self.movies {
                assert!(!m.is_empty(), "{name}: empty entry kept");
                let cursor = m.cursor();
                for (r, run) in m.runs.iter().enumerate() {
                    assert!(run.lo < run.hi, "{name}: run {r} is empty");
                    assert!(
                        run.seq + run.len() as u64 <= self.seq,
                        "{name}: run {r} seq"
                    );
                    let next = m.runs.get(r + 1).map(|n| n.lo);
                    assert!(next.is_none_or(|n| run.hi <= n), "{name}: run {r} order");
                    let size: u64 = run.span(m.table()).iter().map(|c| c.size as u64).sum();
                    let span_bytes = run.span(m.table()).bytes();
                    assert_eq!(span_bytes, size, "{name}: run {r} bytes");
                    bytes += span_bytes;
                    prefix_bytes += if run.prefix { span_bytes } else { 0 };
                    for c in run.span(m.table()).iter() {
                        frames += 1;
                        pinned += usize::from(cursor.is_some_and(|t| t <= c.timestamp));
                    }
                }
            }
            assert_eq!(
                (self.bytes, self.prefix_bytes),
                (bytes, prefix_bytes),
                "byte totals"
            );
            assert_eq!(
                (self.frame_count(), self.pinned_frames()),
                (frames, pinned),
                "chunk counts"
            );
            assert!(
                self.prefix_bytes <= self.budget,
                "prefix pins past the budget"
            );
        }
    }

    #[test]
    fn zero_budget_is_inert() {
        let mut c = cache(0);
        let t = table(5);
        c.insert_posted("m", t.span(0..t.len() as u32));
        c.add_follower("m", 1, Duration::ZERO);
        assert!(!c.enabled());
        assert_eq!(c.bytes, 0);
        assert_eq!(c.frame_count(), 0);
        assert!(!c.covers("m", &t, Duration::ZERO));
    }

    #[test]
    fn insert_then_cover_then_serve() {
        let mut c = cache(1 << 20);
        let t = table(10);
        c.add_follower("m", 7, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(4)));
        assert_eq!(c.frame_count(), 4);
        assert_eq!(c.pinned_frames(), 4);
        assert_eq!(c.frontier("m"), Some(secs(4)));
        assert!(c.covers("m", &t, Duration::ZERO));
        assert!(c.covers("m", &t, secs(2)));
        assert!(!c.covers("m", &t, secs(4)), "empty span is not coverage");
        assert!(c.serve("m", 7, t.chunks_in(Duration::ZERO, secs(2))));
        assert_eq!(c.stats().hit_bytes, 2000);
        // Served frames are unpinned but stay as window frames.
        assert_eq!(c.pinned_frames(), 2);
        assert_eq!(c.frame_count(), 4);
    }

    #[test]
    fn serve_is_all_or_nothing() {
        let mut c = cache(1 << 20);
        let t = table(10);
        c.add_follower("m", 1, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(2)));
        // Asking past the frontier misses and changes nothing.
        assert!(!c.serve("m", 1, t.chunks_in(Duration::ZERO, secs(3))));
        assert_eq!(c.stats().miss_bytes, 3000);
        assert_eq!(c.stats().hit_bytes, 0);
        assert_eq!(c.pinned_frames(), 2);
        // The present prefix still serves.
        assert!(c.serve("m", 1, t.chunks_in(Duration::ZERO, secs(2))));
    }

    #[test]
    fn window_expiry_behind_frontier() {
        let mut c = IntervalCache::new(1 << 20, secs(3));
        let t = table(20);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(10)));
        // No followers: only [frontier-3s, frontier) = [7s, 10s) survives.
        assert_eq!(c.frame_count(), 3);
        assert!(c.covers("m", &t, secs(7)));
        assert!(!c.covers("m", &t, secs(5)));
    }

    #[test]
    fn pinned_frames_survive_window_and_budget() {
        let mut c = IntervalCache::new(2500, secs(2));
        let t = table(20);
        c.add_follower("m", 1, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(10)));
        // All 10 frames pinned by the lagging follower: none evictable,
        // cache transiently over budget.
        assert_eq!(c.frame_count(), 10);
        assert!(c.bytes > c.budget());
        assert_eq!(c.stats().peak_bytes, 10_000);
        // Follower consumes 8 seconds: frames unpin and budget + window
        // pressure reclaims them.
        assert!(c.serve("m", 1, t.chunks_in(Duration::ZERO, secs(8))));
        assert!(c.bytes <= 2500, "bytes={}", c.bytes);
    }

    #[test]
    fn remove_follower_releases_pins_immediately() {
        let mut c = IntervalCache::new(1 << 20, secs(2));
        let t = table(10);
        c.add_follower("m", 1, Duration::ZERO);
        c.add_follower("m", 2, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(6)));
        assert_eq!(c.pinned_frames(), 6);
        c.remove_follower("m", 1);
        // Still pinned by follower 2.
        assert_eq!(c.pinned_frames(), 6);
        c.remove_follower("m", 2);
        // No leaked pins, and the same call ran eviction: only the
        // 2-second window behind the 6 s frontier remains.
        assert_eq!(c.pinned_frames(), 0);
        assert_eq!(c.frame_count(), 2);
    }

    #[test]
    fn budget_eviction_is_oldest_first() {
        let mut c = IntervalCache::new(3000, secs(100));
        let t = table(10);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(4)));
        // 4000 bytes > 3000 budget: the oldest frame (t=0) went.
        assert_eq!(c.frame_count(), 3);
        assert!(c.covers("m", &t, secs(1)));
        assert!(!c.covers("m", &t, Duration::ZERO));
        assert_eq!(c.stats().evicted_bytes, 1000);
    }

    #[test]
    fn drop_movie_frees_everything() {
        let mut c = cache(1 << 20);
        let t = table(5);
        c.add_follower("m", 1, Duration::ZERO);
        c.insert_posted("m", t.span(0..t.len() as u32));
        c.drop_movie("m");
        assert_eq!(c.bytes, 0);
        assert_eq!(c.frame_count(), 0);
        assert_eq!(c.frontier("m"), None);
    }

    #[test]
    fn duplicate_insert_merges_waiters() {
        let mut c = cache(1 << 20);
        let t = table(5);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(2)));
        c.add_follower("m", 9, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(2)));
        assert_eq!(c.frame_count(), 2);
        assert_eq!(c.stats().inserted_bytes, 2000, "no double count");
        assert_eq!(c.pinned_frames(), 2);
    }

    #[test]
    fn reservations_are_a_separate_ledger() {
        let mut c = cache(10_000);
        c.reserve(4000);
        c.reserve(2000);
        assert_eq!(c.reserved(), 6000);
        c.unreserve(4000);
        assert_eq!(c.reserved(), 2000);
        c.unreserve(9999);
        assert_eq!(c.reserved(), 0, "saturates at zero");
    }

    #[test]
    fn late_follower_only_pins_from_its_cursor() {
        let mut c = cache(1 << 20);
        let t = table(10);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(6)));
        c.add_follower("m", 3, secs(4));
        assert_eq!(c.pinned_frames(), 2, "only t=4,5 pinned");
    }

    #[test]
    fn prefix_frames_survive_window_and_budget_until_demoted() {
        let mut c = IntervalCache::new(4000, secs(2));
        let t = table(20);
        c.set_prefix("m", secs(3));
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(10)));
        // Window expiry reclaimed the middle; the 3-second prefix and
        // the trailing window both stayed.
        assert_eq!(c.prefix_bytes, 3000);
        assert!(c.prefix_resident("m", &t, Duration::ZERO, secs(3)));
        assert!(!c.prefix_resident("m", &t, Duration::ZERO, secs(4)));
        assert!(c.serve_resident("m", t.chunks_in(Duration::ZERO, secs(3))));
        assert_eq!(c.stats().prefix_hit_bytes, 3000);
        // Demotion unpins the prefix and eviction reclaims it.
        c.set_prefix("m", Duration::ZERO);
        assert_eq!(c.prefix_bytes, 0);
        assert!(!c.prefix_resident("m", &t, Duration::ZERO, secs(3)));
    }

    #[test]
    fn prefix_pins_never_exceed_budget() {
        let mut c = IntervalCache::new(2500, secs(100));
        let t = table(10);
        c.set_prefix("m", secs(10));
        c.insert_posted("m", t.span(0..t.len() as u32));
        // Only two 1000-byte frames fit under the 2500-byte budget as
        // prefix pins; the rest stayed ordinary window frames.
        assert_eq!(c.prefix_bytes, 2000);
        assert!(c.prefix_bytes <= c.budget());
        assert!(c.prefix_resident("m", &t, Duration::ZERO, secs(2)));
        assert!(!c.prefix_resident("m", &t, Duration::ZERO, secs(3)));
    }

    #[test]
    fn followers_per_byte_evicts_the_unwatched_movie_first() {
        let mut c = IntervalCache::new(6000, secs(100));
        c.set_policy(EvictPolicy::FollowersPerByte);
        let t = table(10);
        // "cold" has no followers; "hot" has two. Insert cold first so
        // FIFO order would also pick it — then verify the policy keeps
        // preferring cold even when hot's frames are older.
        c.add_follower("hot", 1, Duration::ZERO);
        c.add_follower("hot", 2, Duration::ZERO);
        c.insert_posted("hot", t.chunks_in(Duration::ZERO, secs(3)));
        c.serve("hot", 1, t.chunks_in(Duration::ZERO, secs(3)));
        c.serve("hot", 2, t.chunks_in(Duration::ZERO, secs(3)));
        // hot's 3 frames are now unpinned but have 2 followers behind
        // them; cold's 4 frames have none.
        c.insert_posted("cold", t.chunks_in(Duration::ZERO, secs(4)));
        // 7000 bytes > 6000: the victim must come from cold despite
        // hot's frames being older.
        assert_eq!(c.frame_count(), 6);
        assert!(c.covers("hot", &t, Duration::ZERO));
        assert!(!c.covers("cold", &t, Duration::ZERO));
    }

    #[test]
    fn re_registration_is_a_seek_and_a_serve_moves_the_cursor() {
        let mut c = IntervalCache::new(1 << 20, secs(2));
        let t = table(20);
        c.add_follower("m", 1, Duration::ZERO);
        c.insert_posted("m", t.chunks_in(Duration::ZERO, secs(10)));
        assert!(c.serve("m", 1, t.chunks_in(Duration::ZERO, secs(5))));
        // The window behind the follower at 5 s keeps t=3,4.
        assert_eq!((c.frame_count(), c.pinned_frames()), (7, 5));
        // Registered again at 9 s: removed, which sweeps the window
        // behind the 10 s frontier down to t=8,9, then added, pinning t=9.
        c.add_follower("m", 1, secs(9));
        assert_eq!((c.frame_count(), c.pinned_frames()), (2, 1));
        // A serve for an unregistered id registers it past the span.
        assert!(c.serve("m", 2, t.chunks_in(secs(8), secs(10))));
        c.insert_posted("m", t.chunks_in(secs(10), secs(12)));
        assert_eq!((c.frame_count(), c.pinned_frames()), (4, 3));
        c.remove_follower("m", 1);
        assert_eq!((c.frame_count(), c.pinned_frames()), (4, 2));
    }

    /// Random inserts, serves, follower moves, prefix changes and drops
    /// on tables with zero-duration chunks, posted in whole batches:
    /// after every operation the runs are sorted, disjoint and
    /// non-empty, and every total matches a recount (see
    /// [`IntervalCache::check_invariants`]).
    #[test]
    fn runs_stay_sorted_disjoint_and_counted() {
        let names = ["a", "b"];
        // Counts over every seed: each shape the test is meant to reach
        // must have been reached.
        let (mut max_runs, mut mixed, mut pinned, mut evicted) = (0, 0, 0, 0);
        for seed in 0..40 {
            let mut rng = cras_sim::Rng::new(seed);
            let tables: Vec<ChunkTable> = (0..2)
                .map(|_| {
                    let rows: Vec<(Duration, u32)> = (0..400)
                        .map(|_| {
                            let d = if rng.chance(0.1) {
                                Duration::ZERO
                            } else {
                                Duration::from_millis(rng.range_inclusive(20, 60))
                            };
                            (d, rng.range_inclusive(200, 4_000) as u32)
                        })
                        .collect();
                    ChunkTable::from_durations_sizes(rows)
                })
                .collect();
            let budget = rng.range_inclusive(20_000, 200_000);
            let gap = Duration::from_millis(rng.range_inclusive(200, 3_000));
            let mut c = IntervalCache::new(budget, gap);
            if rng.chance(0.5) {
                c.set_policy(EvictPolicy::FollowersPerByte);
            }
            let mut leaders = [0u32; 2];
            for _ in 0..1_500 {
                let m = rng.below(2) as usize;
                let (name, t) = (names[m], &tables[m]);
                let len = t.len() as u32;
                let id = rng.below(4) as u32;
                let any = |rng: &mut cras_sim::Rng| rng.below(len as u64) as u32;
                match rng.below(13) {
                    0..=4 => {
                        // A leader's batch, in order or after a seek.
                        let l = &mut leaders[m];
                        if rng.chance(0.1) {
                            *l = any(&mut rng);
                        }
                        let hi = (*l + rng.range_inclusive(1, 25) as u32).min(len);
                        c.insert_posted(name, t.span(*l..hi));
                        *l = hi % len;
                    }
                    5 | 6 => {
                        let lo = any(&mut rng);
                        let hi = (lo + rng.below(25) as u32).min(len);
                        c.serve(name, id, t.span(lo..hi));
                    }
                    7 => {
                        let lo = any(&mut rng);
                        let hi = (lo + rng.below(25) as u32).min(len);
                        c.serve_resident(name, t.span(lo..hi));
                    }
                    8 => c.add_follower(name, id, t.timestamp(any(&mut rng))),
                    9 => c.remove_follower(name, id),
                    10 | 11 => {
                        let limit = if rng.chance(0.3) {
                            Duration::ZERO
                        } else {
                            t.timestamp(rng.below(200) as u32)
                        };
                        c.set_prefix(name, limit);
                    }
                    _ if rng.chance(0.3) => c.drop_movie(name),
                    _ => {}
                }
                c.check_invariants();
                for mc in c.movies.values() {
                    max_runs = max_runs.max(mc.runs.len());
                    let prefixes = mc.runs.iter().filter(|run| run.prefix).count();
                    mixed += u32::from(0 < prefixes && prefixes < mc.runs.len());
                }
                pinned += u32::from(c.pinned_frames() > 0);
            }
            evicted += c.stats().evicted_bytes;
        }
        assert!(
            max_runs > 2 && mixed > 0 && pinned > 0 && evicted > 0,
            "max runs {max_runs}, mixed {mixed}, pinned {pinned}, evicted {evicted}"
        );
    }

    /// The reference model: the cache as it was before runs, one
    /// `Frame` per resident chunk keyed by timestamp, each with a
    /// waiter list. [`IntervalCache`] must match it operation for
    /// operation. Two calls the server never makes follow the span
    /// cache's contract instead of the old waiter lists: registering a
    /// follower again is a seek, and a serve re-pins the follower from
    /// its new cursor (a no-op when served from its cursor).
    mod frame_cache {
        use std::collections::BTreeMap;

        use cras_media::{ChunkSpan, ChunkTable};
        use cras_sim::Duration;

        use crate::cache::{CacheStats, EvictPolicy};

        struct Frame {
            size: u64,
            seq: u64,
            waiters: Vec<u32>,
            prefix: bool,
        }

        #[derive(Default)]
        pub(crate) struct MovieCache {
            frames: BTreeMap<Duration, Frame>,
            pub frontier: Duration,
            pub followers: BTreeMap<u32, Duration>,
            prefix_limit: Duration,
        }

        pub(crate) struct FrameCache {
            budget: u64,
            max_gap: Duration,
            pub movies: BTreeMap<String, MovieCache>,
            pub bytes: u64,
            seq: u64,
            pub stats: CacheStats,
            policy: EvictPolicy,
            pub prefix_bytes: u64,
            /// Chunks evicted under budget pressure and prefix pins the
            /// budget guard refused (so a test can show both fired).
            pub budget_evictions: u64,
            pub guard_refusals: u64,
            /// Frames a serve not from the follower's cursor re-pinned.
            pub repins: u64,
        }

        impl FrameCache {
            pub(crate) fn new(budget: u64, max_gap: Duration, policy: EvictPolicy) -> FrameCache {
                FrameCache {
                    budget,
                    max_gap,
                    movies: BTreeMap::new(),
                    bytes: 0,
                    seq: 0,
                    stats: CacheStats::default(),
                    policy,
                    prefix_bytes: 0,
                    budget_evictions: 0,
                    guard_refusals: 0,
                    repins: 0,
                }
            }

            pub(crate) fn frame_count(&self) -> usize {
                self.movies.values().map(|m| m.frames.len()).sum()
            }

            /// The insertion sequence number and prefix pin of the
            /// resident chunk of `movie` at `timestamp`.
            pub(crate) fn frame(&self, movie: &str, timestamp: Duration) -> Option<(u64, bool)> {
                let f = self.movies.get(movie)?.frames.get(&timestamp)?;
                Some((f.seq, f.prefix))
            }

            pub(crate) fn pinned_frames(&self) -> usize {
                let frames = self.movies.values().flat_map(|m| m.frames.values());
                frames.filter(|f| !f.waiters.is_empty()).count()
            }

            pub(crate) fn has_prefix(&self, movie: &str) -> bool {
                self.movies
                    .get(movie)
                    .is_some_and(|m| m.prefix_limit > Duration::ZERO)
            }

            pub(crate) fn set_prefix(&mut self, movie: &str, limit: Duration) {
                if limit == Duration::ZERO {
                    if let Some(m) = self.movies.get_mut(movie) {
                        m.prefix_limit = Duration::ZERO;
                        for f in m.frames.values_mut().filter(|f| f.prefix) {
                            f.prefix = false;
                            self.prefix_bytes -= f.size;
                        }
                        self.evict();
                    }
                    return;
                }
                let entry = self.movies.entry(movie.to_string()).or_default();
                entry.prefix_limit = limit;
                for (_, f) in entry.frames.range_mut(..limit) {
                    if !f.prefix {
                        if self.prefix_bytes + f.size <= self.budget {
                            f.prefix = true;
                            self.prefix_bytes += f.size;
                        } else {
                            self.guard_refusals += 1;
                        }
                    }
                }
            }

            fn all(m: &MovieCache, span: ChunkSpan, pred: impl Fn(&Frame) -> bool) -> bool {
                span.iter()
                    .all(|c| m.frames.get(&c.timestamp).is_some_and(&pred))
            }

            pub(crate) fn prefix_resident(
                &self,
                movie: &str,
                table: &ChunkTable,
                from: Duration,
                to: Duration,
            ) -> bool {
                let Some(m) = self.movies.get(movie) else {
                    return false;
                };
                let span = table.chunks_in(from, to);
                !span.is_empty() && Self::all(m, span, |f| f.prefix)
            }

            pub(crate) fn serve_resident(&mut self, movie: &str, chunks: ChunkSpan) -> bool {
                if chunks.is_empty() {
                    return true;
                }
                let bytes: u64 = chunks.iter().map(|c| c.size as u64).sum();
                let hit = self
                    .movies
                    .get(movie)
                    .is_some_and(|m| Self::all(m, chunks, |f| f.prefix));
                if hit {
                    self.stats.hit_bytes += bytes;
                    self.stats.prefix_hit_bytes += bytes;
                } else {
                    self.stats.miss_bytes += bytes;
                }
                hit
            }

            pub(crate) fn insert_posted(&mut self, movie: &str, chunks: ChunkSpan) {
                if chunks.is_empty() {
                    return;
                }
                let entry = self.movies.entry(movie.to_string()).or_default();
                for c in chunks.iter() {
                    let waiters: Vec<u32> = entry
                        .followers
                        .iter()
                        .filter(|&(_, &cursor)| cursor <= c.timestamp)
                        .map(|(&id, _)| id)
                        .collect();
                    match entry.frames.get_mut(&c.timestamp) {
                        Some(f) => {
                            for w in waiters {
                                if !f.waiters.contains(&w) {
                                    f.waiters.push(w);
                                }
                            }
                        }
                        None => {
                            let size = c.size as u64;
                            let inside = c.timestamp < entry.prefix_limit;
                            let prefix = inside && self.prefix_bytes + size <= self.budget;
                            self.guard_refusals += u64::from(inside && !prefix);
                            let seq = self.seq;
                            let frame = Frame {
                                size,
                                seq,
                                waiters,
                                prefix,
                            };
                            entry.frames.insert(c.timestamp, frame);
                            self.seq += 1;
                            self.bytes += size;
                            self.stats.inserted_bytes += size;
                            if prefix {
                                self.prefix_bytes += size;
                            }
                        }
                    }
                    entry.frontier = entry.frontier.max(c.end_timestamp());
                }
                self.stats.peak_bytes = self.stats.peak_bytes.max(self.bytes);
                self.evict();
            }

            pub(crate) fn covers(&self, movie: &str, table: &ChunkTable, from: Duration) -> bool {
                let Some(m) = self.movies.get(movie) else {
                    return false;
                };
                m.frontier > from && Self::all(m, table.chunks_in(from, m.frontier), |_| true)
            }

            /// A registered follower is removed first: the same seek
            /// as [`IntervalCache::add_follower`].
            pub(crate) fn add_follower(&mut self, movie: &str, id: u32, from: Duration) {
                if self
                    .movies
                    .get(movie)
                    .is_some_and(|m| m.followers.contains_key(&id))
                {
                    self.remove_follower(movie, id);
                }
                let entry = self.movies.entry(movie.to_string()).or_default();
                entry.followers.insert(id, from);
                for (_, f) in entry.frames.range_mut(from..) {
                    if !f.waiters.contains(&id) {
                        f.waiters.push(id);
                    }
                }
            }

            pub(crate) fn remove_follower(&mut self, movie: &str, id: u32) {
                let Some(m) = self.movies.get_mut(movie) else {
                    return;
                };
                m.followers.remove(&id);
                for f in m.frames.values_mut() {
                    f.waiters.retain(|&w| w != id);
                }
                self.evict();
            }

            pub(crate) fn serve(&mut self, movie: &str, id: u32, chunks: ChunkSpan) -> bool {
                if chunks.is_empty() {
                    return true;
                }
                let bytes: u64 = chunks.iter().map(|c| c.size as u64).sum();
                let Some(m) = self.movies.get_mut(movie) else {
                    self.stats.miss_bytes += bytes;
                    return false;
                };
                if !Self::all(m, chunks, |_| true) {
                    self.stats.miss_bytes += bytes;
                    return false;
                }
                for c in chunks.iter() {
                    let f = m.frames.get_mut(&c.timestamp).expect("checked above");
                    f.waiters.retain(|&w| w != id);
                }
                let end = chunks.last().expect("non-empty").end_timestamp();
                let cursor = m.followers.insert(id, end);
                // The cursor rule: the follower now waits on exactly
                // the frames at or past `end`. For a registered follower
                // served from its cursor, the per-frame release above
                // already left it so.
                for (&ts, f) in m.frames.iter_mut() {
                    if f.waiters.contains(&id) != (ts >= end) {
                        let from = chunks.first().map(|c| c.timestamp);
                        assert_ne!(cursor, from, "serve from the cursor");
                        self.repins += 1;
                        f.waiters.retain(|&w| w != id);
                        if ts >= end {
                            f.waiters.push(id);
                        }
                    }
                }
                self.stats.hit_bytes += bytes;
                self.evict();
                true
            }

            pub(crate) fn drop_movie(&mut self, movie: &str) {
                if let Some(m) = self.movies.remove(movie) {
                    for f in m.frames.values() {
                        self.bytes -= f.size;
                        self.stats.evicted_bytes += f.size;
                        if f.prefix {
                            self.prefix_bytes -= f.size;
                        }
                    }
                }
            }

            fn evict(&mut self) {
                for m in self.movies.values_mut() {
                    let tail = m.followers.values().copied().min().unwrap_or(m.frontier);
                    let cutoff = tail.min(m.frontier).saturating_sub(self.max_gap);
                    let expired: Vec<Duration> = m
                        .frames
                        .range(..cutoff)
                        .filter(|(_, f)| f.waiters.is_empty() && !f.prefix)
                        .map(|(&ts, _)| ts)
                        .collect();
                    for ts in expired {
                        let f = m.frames.remove(&ts).expect("listed above");
                        self.bytes -= f.size;
                        self.stats.evicted_bytes += f.size;
                    }
                }
                while self.bytes > self.budget {
                    let victim = match self.policy {
                        EvictPolicy::OldestFirst => self
                            .movies
                            .iter()
                            .flat_map(|(name, m)| {
                                m.frames
                                    .iter()
                                    .filter(|(_, f)| f.waiters.is_empty() && !f.prefix)
                                    .map(move |(&ts, f)| (f.seq, name.clone(), ts))
                            })
                            .min()
                            .map(|(_, name, ts)| (name, ts)),
                        EvictPolicy::FollowersPerByte => self.followers_per_byte_victim(),
                    };
                    let Some((name, ts)) = victim else {
                        break;
                    };
                    let m = self.movies.get_mut(&name).expect("victim movie");
                    let f = m.frames.remove(&ts).expect("victim frame");
                    self.bytes -= f.size;
                    self.stats.evicted_bytes += f.size;
                    self.budget_evictions += 1;
                }
                self.movies.retain(|_, m| {
                    !m.frames.is_empty()
                        || !m.followers.is_empty()
                        || m.prefix_limit > Duration::ZERO
                });
            }

            fn followers_per_byte_victim(&self) -> Option<(String, Duration)> {
                let mut best: Option<(u64, u64, &str, Duration)> = None;
                for (name, m) in &self.movies {
                    let mut evictable = 0u64;
                    let mut oldest: Option<(u64, Duration)> = None;
                    for (&ts, f) in &m.frames {
                        if f.waiters.is_empty() && !f.prefix {
                            evictable += f.size;
                            if oldest.is_none_or(|(seq, _)| f.seq < seq) {
                                oldest = Some((f.seq, ts));
                            }
                        }
                    }
                    let Some((_, ts)) = oldest else { continue };
                    let followers = m.followers.len() as u64;
                    let better = match best {
                        None => true,
                        Some((bf, be, bn, _)) => {
                            let lhs = followers as u128 * be as u128;
                            let rhs = bf as u128 * evictable as u128;
                            lhs < rhs || (lhs == rhs && name.as_str() < bn)
                        }
                    };
                    if better {
                        best = Some((followers, evictable, name, ts));
                    }
                }
                best.map(|(_, _, name, ts)| (name.to_string(), ts))
            }
        }
    }

    /// Asserts every observable of the span cache equals the frame
    /// cache's.
    fn assert_same(c: &IntervalCache, r: &frame_cache::FrameCache, ctx: &str) {
        c.check_invariants();
        assert_eq!(*c.stats(), r.stats, "{ctx}: stats");
        assert_eq!(c.bytes, r.bytes, "{ctx}: bytes");
        assert_eq!(c.prefix_bytes, r.prefix_bytes, "{ctx}: prefix bytes");
        assert_eq!(c.frame_count(), r.frame_count(), "{ctx}: frames");
        assert_eq!(c.pinned_frames(), r.pinned_frames(), "{ctx}: pinned");
        // Each run's first and last chunks carry their frames' ages and
        // pins.
        for (name, m) in &c.movies {
            for run in &m.runs {
                for k in [0, run.len() - 1] {
                    let chunk = m.table().get(run.lo + k).expect("run inside its table");
                    let age = Some((run.seq + k as u64, run.prefix));
                    let at = chunk.index;
                    assert_eq!(
                        age,
                        r.frame(name, chunk.timestamp),
                        "{ctx}: {name} chunk {at}"
                    );
                }
            }
        }
        for name in ["a", "b", "c"] {
            let frontier = r.movies.get(name).map(|m| m.frontier);
            assert_eq!(c.frontier(name), frontier, "{ctx}: {name} frontier");
            assert_eq!(
                c.has_prefix(name),
                r.has_prefix(name),
                "{ctx}: {name} prefix"
            );
        }
    }

    #[test]
    fn span_cache_matches_the_frame_cache() {
        let names = ["a", "b", "c"];
        // Counts over every seed: each behaviour the test is meant to
        // reach must have been reached.
        let (mut budget_evictions, mut guard_refusals) = (0, 0);
        let (mut unregistered_serves, mut re_adds, mut duplicates, mut repins) = (0, 0, 0, 0);
        for policy in [EvictPolicy::OldestFirst, EvictPolicy::FollowersPerByte] {
            for seed in 0..50 {
                let mut rng = cras_sim::Rng::new(seed);
                let tables: Vec<ChunkTable> = (0..3)
                    .map(|_| {
                        let rows: Vec<(Duration, u32)> = (0..150)
                            .map(|_| {
                                let ms = Duration::from_millis(rng.range_inclusive(100, 300));
                                (ms, rng.range_inclusive(500, 3_000) as u32)
                            })
                            .collect();
                        ChunkTable::from_durations_sizes(rows)
                    })
                    .collect();
                let budget = rng.range_inclusive(10_000, 60_000);
                let gap = Duration::from_millis(rng.range_inclusive(500, 6_000));
                let mut c = IntervalCache::new(budget, gap);
                c.set_policy(policy);
                let mut r = frame_cache::FrameCache::new(budget, gap, policy);
                // Two leaders per title: the next chunk index each posts.
                let mut leaders = [[0usize; 2]; 3];
                for op in 0..2_000 {
                    let ctx = format!("{policy:?} seed {seed} op {op}");
                    let m = rng.below(3) as usize;
                    let (name, t) = (names[m], &tables[m]);
                    let id = rng.below(6) as u32;
                    let at = |i: usize| t.get(i.min(t.len() - 1) as u32).unwrap().timestamp;
                    let cursor = r
                        .movies
                        .get(name)
                        .and_then(|mc| mc.followers.get(&id).copied());
                    match rng.below(20) {
                        0..=5 => {
                            let l = &mut leaders[m][rng.below(2) as usize];
                            if rng.chance(0.1) {
                                *l = rng.below(t.len() as u64) as usize; // Seek: a hole.
                            } else if rng.chance(0.1) {
                                *l = l.saturating_sub(rng.below(6) as usize); // Re-read.
                                duplicates += 1;
                            }
                            let hi = (*l + 1 + rng.below(5) as usize).min(t.len());
                            let span = t.span((*l).min(hi) as u32..hi as u32);
                            *l = hi % t.len();
                            c.insert_posted(name, span);
                            r.insert_posted(name, span);
                        }
                        6 | 7 => {
                            // Registered: a fresh add; else a re-add (any
                            // direction) or a seek (remove + add).
                            let from = at(rng.below(t.len() as u64) as usize);
                            if cursor.is_some() && rng.chance(0.5) {
                                c.remove_follower(name, id);
                                r.remove_follower(name, id);
                            } else if cursor.is_some() {
                                re_adds += 1;
                            }
                            c.add_follower(name, id, from);
                            r.add_follower(name, id, from);
                        }
                        8 => {
                            c.remove_follower(name, id);
                            r.remove_follower(name, id);
                        }
                        9..=12 => {
                            // A registered follower is mostly served
                            // from its cursor on; any other id anywhere.
                            let lo = match cursor {
                                Some(cur) if rng.chance(0.8) => {
                                    t.chunks_in(Duration::ZERO, cur).len()
                                }
                                _ => {
                                    unregistered_serves += u32::from(cursor.is_none());
                                    rng.below(t.len() as u64) as usize
                                }
                            };
                            let hi = (lo + rng.below(6) as usize).min(t.len());
                            let span = t.span(lo as u32..hi as u32);
                            assert_eq!(c.serve(name, id, span), r.serve(name, id, span), "{ctx}");
                        }
                        13 => {
                            let lo = rng.below(t.len() as u64) as usize;
                            let hi = (lo + rng.below(6) as usize).min(t.len());
                            let span = t.span(lo as u32..hi as u32);
                            let hit = c.serve_resident(name, span);
                            assert_eq!(hit, r.serve_resident(name, span), "{ctx}");
                        }
                        14 | 15 => {
                            let limit = if rng.chance(0.3) {
                                Duration::ZERO
                            } else {
                                at(rng.below(60) as usize)
                            };
                            c.set_prefix(name, limit);
                            r.set_prefix(name, limit);
                        }
                        16 if rng.chance(0.2) => {
                            c.drop_movie(name);
                            r.drop_movie(name);
                        }
                        17 | 18 => {
                            let from = at(rng.below(t.len() as u64) as usize) / 2;
                            assert_eq!(c.covers(name, t, from), r.covers(name, t, from), "{ctx}");
                        }
                        _ => {
                            let (from, to) =
                                (at(rng.below(20) as usize), at(rng.below(60) as usize));
                            let got = c.prefix_resident(name, t, from, to);
                            assert_eq!(got, r.prefix_resident(name, t, from, to), "{ctx}");
                        }
                    }
                    assert_same(&c, &r, &ctx);
                }
                budget_evictions += r.budget_evictions;
                guard_refusals += r.guard_refusals;
                repins += r.repins;
            }
        }
        assert!(budget_evictions > 0 && guard_refusals > 0);
        assert!(unregistered_serves > 0 && re_adds > 0 && duplicates > 0 && repins > 0);
    }
}
