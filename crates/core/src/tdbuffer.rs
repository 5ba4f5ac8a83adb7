//! The time-driven shared memory buffer (paper §2.4, Figure 4).
//!
//! A per-stream buffer keyed by media timestamps instead of FIFO order.
//! CRAS puts chunks in with their timestamps; the client reads "the data
//! at the location pointed to by `T_now`" of its own logical clock; and
//! the buffer "removes the media data automatically when the timestamp
//! becomes greater than the logical clock's current time" — more
//! precisely, everything with `timestamp < T_discard = T_now − J` is
//! discarded, where `J` absorbs small jitters.
//!
//! This is what lets a client change its consumption rate (dynamic QOS)
//! without any feedback protocol: the server keeps filling at the stream
//! rate; obsolete frames age out by timestamp; the client samples whatever
//! media time it wants.
//!
//! The buffer copies no chunk: it holds index spans `lo..hi` of the
//! stream's chunk table, whose timestamps and file offsets are prefix
//! sums, in a `VecDeque` in ascending index (so timestamp) order. The
//! server posts a fetched batch as one span: the longest prefix that
//! fits is a binary search of the offset column, a post in media order
//! extends the back span and a late one is sorted in. The discard
//! advances the front span by a binary search of the timestamp column,
//! and byte counts are differences of offsets. A client reads in
//! playback order, so a lookup by media time first tries the chunk after
//! its last hit and searches the spans, then the timestamp column, only
//! when that chunk does not hold the time.

use std::collections::VecDeque;
use std::ops::Range;

use cras_media::{Chunk, ChunkTable};
use cras_sim::Duration;

/// Counters for buffer behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Chunks inserted.
    pub puts: u64,
    /// Chunks discarded as obsolete.
    pub discarded: u64,
    /// Maximum byte occupancy observed.
    pub max_bytes: u64,
}

/// A time-driven buffer for one stream.
///
/// # Examples
///
/// ```
/// use cras_core::TimeDrivenBuffer;
/// use cras_media::ChunkTable;
/// use cras_sim::Duration;
///
/// let table = ChunkTable::from_durations_sizes([(Duration::from_millis(33), 6_250)]);
/// let mut buf = TimeDrivenBuffer::new(table, 64 << 10, Duration::from_millis(100));
/// assert_eq!(buf.post(0..1, Duration::ZERO), 1);
/// // crs_get by logical time:
/// assert_eq!(buf.get(Duration::from_millis(10)).unwrap().index, 0);
/// // Once the logical clock passes the jitter window, it ages out:
/// buf.discard_obsolete(Duration::from_millis(200));
/// assert!(buf.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct TimeDrivenBuffer {
    /// The stream's chunk table, which the spans index.
    table: ChunkTable,
    /// Posted chunk spans in ascending index order: non-empty, disjoint
    /// and never adjacent (adjacent posts merge).
    spans: VecDeque<Range<u32>>,
    capacity_bytes: u64,
    bytes: u64,
    jitter: Duration,
    stats: BufferStats,
    /// Chunk index after the last successful get: where playback
    /// order looks next.
    next_hint: u32,
}

impl TimeDrivenBuffer {
    /// Creates a buffer over the chunks of `table` with byte capacity
    /// `capacity_bytes` (the admission test's `B_i`) and jitter
    /// allowance `J`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(table: ChunkTable, capacity_bytes: u64, jitter: Duration) -> TimeDrivenBuffer {
        assert!(capacity_bytes > 0, "zero-capacity buffer");
        TimeDrivenBuffer {
            table,
            spans: VecDeque::new(),
            capacity_bytes,
            bytes: 0,
            jitter,
            stats: BufferStats::default(),
            next_hint: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Current occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of buffered chunks.
    pub fn len(&self) -> usize {
        self.spans.iter().map(|s| s.len()).sum()
    }

    /// Whether no chunks are buffered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Discards everything with `timestamp < media_now − J`.
    pub fn discard_obsolete(&mut self, media_now: Duration) {
        let t_discard = media_now.saturating_sub(self.jitter);
        while let Some(front) = self.spans.front_mut() {
            let n = self.table.span(front.clone()).below(t_discard);
            self.bytes -= self.table.span(front.start..front.start + n).bytes();
            self.stats.discarded += n as u64;
            front.start += n;
            if front.start < front.end {
                break;
            }
            self.spans.pop_front();
        }
    }

    /// Posts chunks `chunks` of the table (server side) at media time
    /// `media_now`. Returns how many the buffer took; the rest, from the
    /// first chunk it could not take, is refused. The result is that of
    /// posting the chunks one at a time, each post discarding obsolete
    /// chunks first, but is found by binary searches of the columns:
    /// - A batch that arrives late starts with chunks already obsolete
    ///   at `media_now`. Each goes in and is discarded again by the next
    ///   chunk's post, so each needs room only for itself, and only the
    ///   last stays when nothing follows it.
    /// - The current chunks go in as one span: the longest prefix that
    ///   fits.
    ///
    /// While the clock runs at the admitted rate, the admission test's
    /// `B_i = 2·A_i` bound guarantees "the buffer always has enough
    /// space for storing media data retrieved from disks"; a stopped
    /// clock or a rate cut can leave less.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` runs past the table, or if a chunk that stays
    /// shares its timestamp with a buffered chunk or another posted one
    /// (a duplicate post).
    pub fn post(&mut self, chunks: Range<u32>, media_now: Duration) -> u32 {
        if chunks.is_empty() {
            return 0;
        }
        self.discard_obsolete(media_now);
        let room = self.capacity_bytes - self.bytes;
        let batch = self.table.span(chunks.clone());
        let fresh = chunks.start + batch.below(media_now.saturating_sub(self.jitter));
        let (mut taken, mut biggest) = (0, 0);
        for c in self.table.span(chunks.start..fresh).iter() {
            if c.size as u64 > room {
                break;
            }
            taken += 1;
            biggest = biggest.max(c.size as u64);
        }
        let current = if chunks.start + taken == fresh {
            self.table.span(fresh..chunks.end).fitting(room)
        } else {
            0
        };
        let n = taken + current;
        // What stays: the current chunks taken, else the last obsolete
        // one when it ended the batch, else nothing.
        let keep = if current > 0 {
            fresh..fresh + current
        } else if n == batch.len() as u32 {
            chunks.end - 1..chunks.end
        } else {
            fresh..fresh
        };
        self.stats.puts += n as u64;
        self.stats.discarded += (n - keep.len() as u32) as u64;
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes + biggest);
        if !keep.is_empty() {
            self.insert(keep);
        }
        n
    }

    /// Buffers chunks `chunks`, which fit: a post in media order extends
    /// the back span, a late one is sorted in between its neighbours.
    fn insert(&mut self, chunks: Range<u32>) {
        let (lo, hi) = (chunks.start, chunks.end);
        let posted = self.table.span(chunks);
        let at = self.spans.partition_point(|s| s.start < lo);
        let prev = at.checked_sub(1).map(|p| self.spans[p].end);
        let next = self.spans.get(at).map(|s| s.start);
        let ts = |i| self.table.timestamp(i);
        let duplicate = posted.has_tied_timestamps()
            || prev.is_some_and(|end| lo < end || ts(end - 1) == ts(lo))
            || next.is_some_and(|start| start < hi || ts(start) == ts(hi - 1));
        assert!(!duplicate, "duplicate chunk timestamp");
        match (prev == Some(lo), next == Some(hi)) {
            (true, true) => {
                let joined = self.spans.remove(at).expect("next span");
                self.spans[at - 1].end = joined.end;
            }
            (true, false) => self.spans[at - 1].end = hi,
            (false, true) => self.spans[at].start = lo,
            (false, false) => self.spans.insert(at, lo..hi),
        }
        self.bytes += posted.bytes();
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes);
    }

    /// Client-side `crs_get`: the chunk whose `[timestamp, timestamp +
    /// duration)` interval contains `media_time`, without any
    /// communication with the server.
    pub fn get(&mut self, media_time: Duration) -> Option<Chunk> {
        let found = self.peek(media_time);
        if let Some(hit) = found {
            self.next_hint = hit.index.wrapping_add(1);
        }
        found
    }

    /// Read-only probe used by `get` and the tests. Only one chunk of
    /// the table holds a given time. When the chunk after the last hit
    /// holds it, the answer is that chunk if it is buffered; otherwise a
    /// search of the spans by first timestamp picks the last one
    /// starting at or before `media_time`, and a search of its
    /// timestamp column the chunk.
    pub(crate) fn peek(&self, media_time: Duration) -> Option<Chunk> {
        if let Some(c) = self.hinted(media_time) {
            let s = self.spans.partition_point(|s| s.end <= c.index);
            return self.spans.get(s).filter(|s| s.start <= c.index).map(|_| c);
        }
        let s = self
            .spans
            .partition_point(|s| self.table.timestamp(s.start) <= media_time);
        let span = self.spans.get(s.checked_sub(1)?)?;
        self.table.span(span.clone()).at(media_time)
    }

    /// The chunk after the last hit, when it holds `media_time`.
    fn hinted(&self, media_time: Duration) -> Option<Chunk> {
        let c = self.table.get(self.next_hint)?;
        (c.timestamp <= media_time && media_time < c.end_timestamp()).then_some(c)
    }

    /// The earliest buffered timestamp.
    #[cfg(test)]
    pub(crate) fn first_timestamp(&self) -> Option<Duration> {
        let s = self.spans.front()?;
        Some(self.table.timestamp(s.start))
    }

    /// The latest buffered timestamp (the paper's `T_read_ahead` frontier).
    #[cfg(test)]
    pub(crate) fn last_timestamp(&self) -> Option<Duration> {
        let s = self.spans.back()?;
        Some(self.table.timestamp(s.end - 1))
    }

    /// Empties the buffer (on `crs_seek`, buffered data is stale).
    pub(crate) fn clear(&mut self) {
        self.stats.discarded += self.len() as u64;
        self.spans.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// `n` chunks of `dur_ms` and `size` bytes each.
    fn cbr(n: u32, dur_ms: u64, size: u32) -> ChunkTable {
        ChunkTable::from_durations_sizes((0..n).map(|_| (ms(dur_ms), size)))
    }

    fn buf(table: ChunkTable) -> TimeDrivenBuffer {
        TimeDrivenBuffer::new(table, 100_000, ms(100))
    }

    #[test]
    fn post_get_same_time() {
        let mut b = buf(cbr(1, 33, 6250));
        assert_eq!(b.post(0..1, Duration::ZERO), 1);
        let got = b.get(ms(0)).unwrap();
        assert_eq!(got.index, 0);
        // Mid-frame also resolves to frame 0.
        assert_eq!(b.get(ms(32)).unwrap().index, 0);
        // Past the frame: miss.
        assert!(b.get(ms(33)).is_none());
    }

    #[test]
    fn client_can_skip_frames() {
        // The dynamic-QOS case: 30 fps in the buffer, client samples at
        // 10 fps and uses one of every three frames.
        let mut b = buf(cbr(30, 33, 1000));
        assert_eq!(b.post(0..30, Duration::ZERO), 30);
        let got: Vec<u32> = (0..10)
            .filter_map(|k| b.get(ms(k * 99)).map(|c| c.index))
            .collect();
        assert_eq!(got, vec![0, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
    }

    #[test]
    fn obsolete_discarded_by_media_clock() {
        let mut b = buf(cbr(10, 100, 1000));
        b.post(0..10, Duration::ZERO);
        assert_eq!(b.len(), 10);
        // Clock at 500 ms, J = 100 ms: discard ts < 400 ms.
        b.discard_obsolete(ms(500));
        assert_eq!(b.len(), 6);
        assert_eq!(b.first_timestamp(), Some(ms(400)));
        assert_eq!(b.stats().discarded, 4);
        assert_eq!(b.bytes(), 6000);
    }

    #[test]
    fn post_reclaims_before_inserting() {
        let mut b = TimeDrivenBuffer::new(cbr(4, 100, 1000), 3000, Duration::ZERO);
        assert_eq!(b.post(0..3, Duration::ZERO), 3);
        // Full. Advancing the clock to 200 ms frees ts<200 (two chunks).
        assert_eq!(b.post(3..4, ms(200)), 1);
        assert_eq!(b.len(), 2);
        assert!(b.peek(ms(250)).is_some());
    }

    #[test]
    fn post_takes_the_prefix_that_fits() {
        let mut b = TimeDrivenBuffer::new(cbr(4, 100, 1000), 2500, Duration::ZERO);
        assert_eq!(b.post(0..4, Duration::ZERO), 2);
        assert_eq!((b.len(), b.bytes()), (2, 2000));
        // Nothing more fits: the post is refused whole.
        assert_eq!(b.post(2..4, Duration::ZERO), 0);
        assert_eq!(b.stats().puts, 2);
    }

    /// Chunk 0 lasts zero time, so chunks 0 and 1 share timestamp 0.
    fn tied() -> ChunkTable {
        ChunkTable::from_durations_sizes([(ms(0), 10), (ms(100), 10), (ms(100), 10)])
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_timestamp_panics() {
        let mut b = buf(tied());
        b.post(0..1, Duration::ZERO);
        b.post(1..2, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn span_with_tied_timestamps_panics() {
        buf(tied()).post(0..2, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn overlapping_post_panics() {
        let mut b = buf(cbr(5, 100, 10));
        b.post(1..3, Duration::ZERO);
        b.post(0..2, Duration::ZERO);
    }

    #[test]
    fn jitter_window_keeps_recent_past() {
        let mut b = buf(cbr(1, 33, 10)); // J = 100 ms.
        b.post(0..1, Duration::ZERO);
        // Clock at 90 ms: ts 0 is within J, stays.
        b.discard_obsolete(ms(90));
        assert_eq!(b.len(), 1);
        b.discard_obsolete(ms(101));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn clear_on_seek() {
        let mut b = buf(cbr(5, 100, 10));
        b.post(0..2, Duration::ZERO);
        b.post(3..5, Duration::ZERO);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
        assert_eq!(b.stats().discarded, 4);
    }

    #[test]
    fn max_occupancy_tracked() {
        let t = ChunkTable::from_durations_sizes([(ms(100), 40_000), (ms(100), 30_000)]);
        let mut b = buf(t);
        b.post(0..2, Duration::ZERO);
        b.discard_obsolete(ms(1000));
        assert_eq!(b.stats().max_bytes, 70_000);
        assert_eq!(b.bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn out_of_order_duplicate_timestamp_panics() {
        let mut b = buf(tied());
        b.post(0..1, Duration::ZERO);
        b.post(2..3, Duration::ZERO);
        b.post(1..2, Duration::ZERO);
    }

    #[test]
    fn late_post_is_sorted_in_and_spans_merge() {
        let mut b = buf(cbr(3, 100, 10));
        b.post(0..1, Duration::ZERO);
        b.post(2..3, Duration::ZERO);
        assert_eq!(b.spans.len(), 2);
        b.post(1..2, Duration::ZERO);
        assert_eq!(b.spans.iter().collect::<Vec<_>>(), [&(0..3)]);
        assert_eq!(b.get(ms(150)).unwrap().index, 1);
        assert_eq!(b.last_timestamp(), Some(ms(200)));
    }

    /// The buffer as a timestamp-keyed map of copied chunks: the
    /// reference model the spans must match operation for operation.
    struct MapBuffer {
        entries: std::collections::BTreeMap<Duration, Chunk>,
        capacity_bytes: u64,
        bytes: u64,
        jitter: Duration,
        stats: BufferStats,
    }

    impl MapBuffer {
        fn discard_obsolete(&mut self, media_now: Duration) {
            let keep = self
                .entries
                .split_off(&media_now.saturating_sub(self.jitter));
            for (_, e) in std::mem::replace(&mut self.entries, keep) {
                self.bytes -= e.size as u64;
                self.stats.discarded += 1;
            }
        }

        /// One chunk at a time, each discarding obsolete chunks first,
        /// up to the first that does not fit.
        fn post(&mut self, chunks: &[Chunk], media_now: Duration) -> u32 {
            let mut n = 0;
            for &c in chunks {
                self.discard_obsolete(media_now);
                if self.bytes + c.size as u64 > self.capacity_bytes {
                    break;
                }
                assert!(self.entries.insert(c.timestamp, c).is_none());
                self.bytes += c.size as u64;
                self.stats.puts += 1;
                self.stats.max_bytes = self.stats.max_bytes.max(self.bytes);
                n += 1;
            }
            n
        }

        fn peek(&self, media_time: Duration) -> Option<Chunk> {
            self.entries
                .range(..=media_time)
                .next_back()
                .map(|(_, e)| *e)
                .filter(|e| media_time < e.end_timestamp())
        }

        fn clear(&mut self) {
            self.stats.discarded += self.entries.len() as u64;
            self.entries.clear();
            self.bytes = 0;
        }
    }

    #[test]
    fn spans_match_the_map_buffer() {
        // Counts over every seed: each behaviour the test is meant to
        // reach must have been reached.
        let (mut refused, mut partial, mut late, mut gaps) = (0, 0, 0, 0);
        let (mut crossed, mut cleared, mut hinted, mut searched) = (0, 0, 0, 0);
        let (mut duplicates, mut stale, mut kept) = (0, 0, 0);
        for seed in 0..50 {
            let mut rng = cras_sim::Rng::new(seed);
            // VBR chunks of 10–80 ms and 1–1,500 bytes.
            let rows: Vec<(Duration, u32)> = (0..4_000)
                .map(|_| {
                    (
                        ms(rng.range_inclusive(10, 80)),
                        rng.range_inclusive(1, 1_500) as u32,
                    )
                })
                .collect();
            let table = ChunkTable::from_durations_sizes(rows);
            let len = table.len() as u32;
            let (cap, jitter) = (rng.range_inclusive(2_000, 20_000), ms(rng.below(200)));
            let mut spans = TimeDrivenBuffer::new(table.clone(), cap, jitter);
            let mut map = MapBuffer {
                entries: Default::default(),
                capacity_bytes: cap,
                bytes: 0,
                jitter,
                stats: BufferStats::default(),
            };
            // `next` is the in-order fill position (a chunk index),
            // `now` the media clock trailing it and `play` the chunk a
            // client reading in playback order asks for next.
            let (mut next, mut now, mut play) = (0u32, Duration::ZERO, 0u32);
            let end = |i: u32| table.timestamp(i.min(len));
            for op in 0..2_000 {
                let ctx = format!("seed {seed} op {op}");
                match rng.below(13) {
                    0..=3 => {
                        let obsolete = table.span(0..len).below(now.saturating_sub(jitter));
                        let lo = match rng.below(10) {
                            0..=6 => next,
                            // A late or a skipped-ahead batch.
                            7 | 8 => (next + 6).saturating_sub(rng.below(16) as u32),
                            // A batch the media clock has overtaken.
                            _ => obsolete.saturating_sub(rng.below(8) as u32),
                        };
                        let lo = lo.min(len - 1);
                        // A batch up to its first buffered chunk.
                        let mut hi = (lo + rng.range_inclusive(1, 6) as u32).min(len);
                        let held = |i: u32| map.entries.contains_key(&table.timestamp(i));
                        if let Some(i) = (lo..hi).find(|&i| held(i)) {
                            hi = i;
                        }
                        if lo == hi {
                            continue;
                        }
                        let batch: Vec<Chunk> = table.span(lo..hi).iter().collect();
                        late +=
                            u32::from(map.entries.keys().next_back() > Some(&table.timestamp(lo)));
                        let n = spans.post(lo..hi, now);
                        assert_eq!(n, map.post(&batch, now), "{ctx}");
                        stale += u32::from(lo < obsolete);
                        kept += u32::from(hi <= obsolete && n == hi - lo);
                        refused += u32::from(n == 0);
                        partial += u32::from(0 < n && n < hi - lo);
                        gaps += u32::from(spans.spans.len() > 1);
                        next = next.max(lo + n);
                    }
                    4 | 5 => {
                        let t = ms(rng.below(end(next).as_nanos() / 1_000_000 + 100));
                        assert_eq!(spans.get(t), map.peek(t), "{ctx}");
                    }
                    6 => {
                        let t = ms(rng.below(end(next).as_nanos() / 1_000_000 + 100));
                        assert_eq!(spans.peek(t), map.peek(t), "{ctx}");
                    }
                    7 | 8 => {
                        now = (now + ms(rng.below(120))).min(end(next));
                        let front = spans.spans.front().map_or(0, |s| s.len() as u64);
                        let before = spans.stats().discarded;
                        spans.discard_obsolete(now);
                        map.discard_obsolete(now);
                        crossed += u32::from(spans.stats().discarded - before > front);
                    }
                    9..=11 => {
                        // Playback order: the next chunk, sometimes two
                        // skipped (stride 3), anywhere in its duration.
                        play = play.max(table.span(0..len).below(now)).min(len - 1);
                        let c = table.get(play).unwrap();
                        let t = c.timestamp + ms(rng.below(c.duration.as_nanos() / 1_000_000));
                        let hit = spans.hinted(t).is_some();
                        let got = spans.get(t);
                        assert_eq!(got, map.peek(t), "{ctx}: playback get");
                        hinted += u32::from(hit);
                        searched += u32::from(!hit && got.is_some());
                        play += if rng.chance(0.1) { 3 } else { 1 };
                    }
                    _ if rng.chance(0.05) => {
                        // A seek: the buffer empties and playback jumps
                        // to where the server refills.
                        spans.clear();
                        map.clear();
                        play = next;
                        cleared += 1;
                    }
                    _ => {}
                }
                assert_eq!(spans.stats(), map.stats, "{ctx}");
                assert_eq!(spans.bytes(), map.bytes, "{ctx}");
                assert_eq!(spans.len(), map.entries.len(), "{ctx}");
                assert_eq!(
                    spans.first_timestamp(),
                    map.entries.keys().next().copied(),
                    "{ctx}"
                );
                assert_eq!(
                    spans.last_timestamp(),
                    map.entries.keys().next_back().copied(),
                    "{ctx}"
                );
                let mut pairs = spans.spans.iter().zip(spans.spans.iter().skip(1));
                assert!(
                    spans.spans.iter().all(|s| !s.is_empty())
                        && pairs.all(|(a, b)| a.end < b.start),
                    "{ctx}: spans {:?}",
                    spans.spans
                );
            }
            // Posting a buffered chunk again, when it fits, still panics.
            if let Some(s) = spans.spans.back().cloned() {
                let size = table.get(s.end - 1).unwrap().size as u64;
                if spans.bytes() + size <= cap {
                    let mut again = spans.clone();
                    let repost = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        again.post(s.end - 1..s.end, now)
                    }));
                    assert!(repost.is_err(), "seed {seed}: duplicate post accepted");
                    duplicates += 1;
                }
            }
        }
        assert!(
            refused > 0 && partial > 0 && late > 0 && gaps > 0 && stale > 0 && kept > 0,
            "refused {refused}, partial {partial}, late {late}, gaps {gaps}, stale {stale}, \
             kept {kept}"
        );
        assert!(
            crossed > 0 && cleared > 0 && hinted > 0 && searched > 0 && duplicates > 0,
            "crossed {crossed}, cleared {cleared}, hinted {hinted}, searched {searched}, \
             duplicates {duplicates}"
        );
    }

    #[test]
    fn last_timestamp_is_read_ahead_frontier() {
        let mut b = buf(cbr(2, 100, 10));
        assert!(b.last_timestamp().is_none());
        b.post(0..2, Duration::ZERO);
        assert_eq!(b.last_timestamp(), Some(ms(100)));
    }
}
