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
//! The buffer is a ring: chunks sit in a `VecDeque` in ascending
//! timestamp order. The server fills it in media order, so a put is a
//! push at the back and the discard pops from the front. A client reads
//! in playback order, so a lookup by media time first tries the chunk
//! after its last hit (by chunk index) and binary-searches only when
//! that chunk does not hold the time.

use std::collections::VecDeque;

use cras_sim::{Duration, Instant};

/// One buffered chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferedChunk {
    /// Chunk index within the stream.
    pub index: u32,
    /// Media timestamp.
    pub timestamp: Duration,
    /// Presentation duration.
    pub duration: Duration,
    /// Size in bytes.
    pub size: u32,
    /// Real time at which the chunk became visible to the client.
    pub posted_at: Instant,
}

/// Counters for buffer behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Chunks inserted.
    pub puts: u64,
    /// Successful gets.
    pub hits: u64,
    /// Gets that found no chunk for the requested time.
    pub misses: u64,
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
/// use cras_core::{BufferedChunk, TimeDrivenBuffer};
/// use cras_sim::{Duration, Instant};
///
/// let mut buf = TimeDrivenBuffer::new(64 << 10, Duration::from_millis(100));
/// buf.put(
///     BufferedChunk {
///         index: 0,
///         timestamp: Duration::ZERO,
///         duration: Duration::from_millis(33),
///         size: 6_250,
///         posted_at: Instant::ZERO,
///     },
///     Duration::ZERO,
/// );
/// // crs_get by logical time:
/// assert_eq!(buf.get(Duration::from_millis(10)).unwrap().index, 0);
/// // Once the logical clock passes the jitter window, it ages out:
/// buf.discard_obsolete(Duration::from_millis(200));
/// assert!(buf.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct TimeDrivenBuffer {
    /// Buffered chunks in ascending timestamp order.
    entries: VecDeque<BufferedChunk>,
    capacity_bytes: u64,
    bytes: u64,
    jitter: Duration,
    stats: BufferStats,
    /// Chunk index after the last successful get: where playback
    /// order looks next.
    next_hint: u32,
}

impl TimeDrivenBuffer {
    /// Creates a buffer with byte capacity `capacity_bytes` (the
    /// admission test's `B_i`) and jitter allowance `J`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_bytes: u64, jitter: Duration) -> TimeDrivenBuffer {
        assert!(capacity_bytes > 0, "zero-capacity buffer");
        TimeDrivenBuffer {
            entries: VecDeque::new(),
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
        self.entries.len()
    }

    /// Whether no chunks are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Discards everything with `timestamp < media_now − J`.
    pub fn discard_obsolete(&mut self, media_now: Duration) {
        let t_discard = media_now.saturating_sub(self.jitter);
        while let Some(e) = self.entries.front().filter(|e| e.timestamp < t_discard) {
            self.bytes -= e.size as u64;
            self.stats.discarded += 1;
            self.entries.pop_front();
        }
    }

    /// Inserts a chunk, discarding obsolete entries first.
    ///
    /// # Panics
    ///
    /// Panics if the chunk does not fit even after discarding, or if a
    /// chunk with the same timestamp is already buffered.
    pub fn put(&mut self, chunk: BufferedChunk, media_now: Duration) {
        let fits = self.try_put(chunk, media_now);
        assert!(
            fits,
            "time-driven buffer overflow: {} + {} > {} (admission bug)",
            self.bytes, chunk.size, self.capacity_bytes
        );
    }

    /// Inserts a chunk (server side), discarding obsolete entries first,
    /// when it fits; returns false, inserting nothing, when it does not
    /// fit even after discarding. While the clock runs at the admitted
    /// rate, the admission test's `B_i = 2·A_i` bound guarantees "the
    /// buffer always has enough space for storing media data retrieved
    /// from disks"; a stopped clock or a rate cut can leave less.
    ///
    /// # Panics
    ///
    /// Panics if a chunk with the same timestamp is already buffered.
    pub(crate) fn try_put(&mut self, chunk: BufferedChunk, media_now: Duration) -> bool {
        self.discard_obsolete(media_now);
        if self.bytes + chunk.size as u64 > self.capacity_bytes {
            return false;
        }
        // In media order a put appends; a late chunk is sorted in.
        let at = self
            .entries
            .partition_point(|e| e.timestamp < chunk.timestamp);
        let duplicate = self.entries.get(at).map(|e| e.timestamp) == Some(chunk.timestamp);
        assert!(!duplicate, "duplicate chunk timestamp");
        self.entries.insert(at, chunk);
        self.bytes += chunk.size as u64;
        self.stats.puts += 1;
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes);
        true
    }

    /// Client-side `crs_get`: the chunk whose `[timestamp, timestamp +
    /// duration)` interval contains `media_time`, without any
    /// communication with the server.
    pub fn get(&mut self, media_time: Duration) -> Option<BufferedChunk> {
        let found = self.peek(media_time).copied();
        if let Some(hit) = found {
            self.stats.hits += 1;
            self.next_hint = hit.index.wrapping_add(1);
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Read-only probe used by tests and occupancy metrics.
    pub(crate) fn peek(&self, media_time: Duration) -> Option<&BufferedChunk> {
        self.hinted(media_time)
            .or_else(|| {
                let at = self.entries.partition_point(|e| e.timestamp <= media_time);
                at.checked_sub(1)
            })
            .map(|i| &self.entries[i])
            .filter(|e| media_time < e.timestamp + e.duration)
    }

    /// The hinted slot, when it is the last entry with `timestamp ≤
    /// media_time` (what the binary search would find).
    fn hinted(&self, media_time: Duration) -> Option<usize> {
        let g = self.next_hint.checked_sub(self.entries.front()?.index)? as usize;
        let here = self.entries.get(g)?.timestamp <= media_time;
        let next = self
            .entries
            .get(g + 1)
            .is_none_or(|e| media_time < e.timestamp);
        (here && next).then_some(g)
    }

    /// The earliest buffered timestamp.
    #[cfg(test)]
    pub(crate) fn first_timestamp(&self) -> Option<Duration> {
        self.entries.front().map(|e| e.timestamp)
    }

    /// The latest buffered timestamp (the paper's `T_read_ahead` frontier).
    #[cfg(test)]
    pub(crate) fn last_timestamp(&self) -> Option<Duration> {
        self.entries.back().map(|e| e.timestamp)
    }

    /// Empties the buffer (on `crs_seek`, buffered data is stale).
    pub(crate) fn clear(&mut self) {
        self.stats.discarded += self.entries.len() as u64;
        self.entries.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn chunk(i: u32, ts_ms: u64, dur_ms: u64, size: u32) -> BufferedChunk {
        BufferedChunk {
            index: i,
            timestamp: ms(ts_ms),
            duration: ms(dur_ms),
            size,
            posted_at: Instant::ZERO,
        }
    }

    fn buf() -> TimeDrivenBuffer {
        TimeDrivenBuffer::new(100_000, ms(100))
    }

    #[test]
    fn put_get_same_time() {
        let mut b = buf();
        b.put(chunk(0, 0, 33, 6250), Duration::ZERO);
        let got = b.get(ms(0)).unwrap();
        assert_eq!(got.index, 0);
        // Mid-frame also resolves to frame 0.
        assert_eq!(b.get(ms(32)).unwrap().index, 0);
        // Past the frame: miss.
        assert!(b.get(ms(33)).is_none());
        assert_eq!(b.stats().hits, 2);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn client_can_skip_frames() {
        // The dynamic-QOS case: 30 fps in the buffer, client samples at
        // 10 fps and uses one of every three frames.
        let mut b = buf();
        for i in 0..30 {
            b.put(chunk(i, i as u64 * 33, 33, 1000), Duration::ZERO);
        }
        let got: Vec<u32> = (0..10)
            .filter_map(|k| b.get(ms(k * 99)).map(|c| c.index))
            .collect();
        assert_eq!(got, vec![0, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
    }

    #[test]
    fn obsolete_discarded_by_media_clock() {
        let mut b = buf();
        for i in 0..10 {
            b.put(chunk(i, i as u64 * 100, 100, 1000), Duration::ZERO);
        }
        assert_eq!(b.len(), 10);
        // Clock at 500 ms, J = 100 ms: discard ts < 400 ms.
        b.discard_obsolete(ms(500));
        assert_eq!(b.len(), 6);
        assert_eq!(b.first_timestamp(), Some(ms(400)));
        assert_eq!(b.stats().discarded, 4);
        assert_eq!(b.bytes(), 6000);
    }

    #[test]
    fn put_reclaims_before_inserting() {
        let mut b = TimeDrivenBuffer::new(3000, Duration::ZERO);
        b.put(chunk(0, 0, 100, 1000), Duration::ZERO);
        b.put(chunk(1, 100, 100, 1000), Duration::ZERO);
        b.put(chunk(2, 200, 100, 1000), Duration::ZERO);
        // Full. Advancing the clock to 200 ms frees ts<200 (two chunks).
        b.put(chunk(3, 300, 100, 1000), ms(200));
        assert_eq!(b.len(), 2);
        assert!(b.peek(ms(250)).is_some());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_is_a_bug() {
        let mut b = TimeDrivenBuffer::new(1500, Duration::ZERO);
        b.put(chunk(0, 0, 100, 1000), Duration::ZERO);
        b.put(chunk(1, 100, 100, 1000), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_timestamp_panics() {
        let mut b = buf();
        b.put(chunk(0, 0, 100, 10), Duration::ZERO);
        b.put(chunk(1, 0, 100, 10), Duration::ZERO);
    }

    #[test]
    fn jitter_window_keeps_recent_past() {
        let mut b = buf(); // J = 100 ms.
        b.put(chunk(0, 0, 33, 10), Duration::ZERO);
        // Clock at 90 ms: ts 0 is within J, stays.
        b.discard_obsolete(ms(90));
        assert_eq!(b.len(), 1);
        b.discard_obsolete(ms(101));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn clear_on_seek() {
        let mut b = buf();
        for i in 0..5 {
            b.put(chunk(i, i as u64 * 100, 100, 10), Duration::ZERO);
        }
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
        assert_eq!(b.stats().discarded, 5);
    }

    #[test]
    fn max_occupancy_tracked() {
        let mut b = buf();
        b.put(chunk(0, 0, 100, 40_000), Duration::ZERO);
        b.put(chunk(1, 100, 100, 30_000), Duration::ZERO);
        b.discard_obsolete(ms(1000));
        assert_eq!(b.stats().max_bytes, 70_000);
        assert_eq!(b.bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn out_of_order_duplicate_timestamp_panics() {
        let mut b = buf();
        b.put(chunk(0, 0, 100, 10), Duration::ZERO);
        b.put(chunk(2, 200, 100, 10), Duration::ZERO);
        b.put(chunk(1, 0, 100, 10), Duration::ZERO);
    }

    #[test]
    fn late_put_is_sorted_in() {
        let mut b = buf();
        b.put(chunk(0, 0, 100, 10), Duration::ZERO);
        b.put(chunk(2, 200, 100, 10), Duration::ZERO);
        b.put(chunk(1, 100, 100, 10), Duration::ZERO);
        assert_eq!(b.get(ms(150)).unwrap().index, 1);
        assert_eq!(b.last_timestamp(), Some(ms(200)));
    }

    /// The buffer as a timestamp-keyed map: the reference model the ring
    /// must match operation for operation.
    struct MapBuffer {
        entries: std::collections::BTreeMap<Duration, BufferedChunk>,
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

        fn try_put(&mut self, chunk: BufferedChunk, media_now: Duration) -> bool {
            self.discard_obsolete(media_now);
            if self.bytes + chunk.size as u64 > self.capacity_bytes {
                return false;
            }
            assert!(self.entries.insert(chunk.timestamp, chunk).is_none());
            self.bytes += chunk.size as u64;
            self.stats.puts += 1;
            self.stats.max_bytes = self.stats.max_bytes.max(self.bytes);
            true
        }

        fn peek(&self, media_time: Duration) -> Option<&BufferedChunk> {
            self.entries
                .range(..=media_time)
                .next_back()
                .map(|(_, e)| e)
                .filter(|e| media_time < e.timestamp + e.duration)
        }

        fn get(&mut self, media_time: Duration) -> Option<BufferedChunk> {
            let found = self.peek(media_time).copied();
            if found.is_some() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            found
        }

        fn clear(&mut self) {
            self.stats.discarded += self.entries.len() as u64;
            self.entries.clear();
            self.bytes = 0;
        }
    }

    #[test]
    fn ring_matches_the_map_buffer() {
        let (mut refused, mut late, mut hinted, mut searched) = (0, 0, 0, 0);
        for seed in 0..50 {
            let mut rng = cras_sim::Rng::new(seed);
            let (cap, jitter) = (rng.range_inclusive(2_000, 20_000), ms(rng.below(200)));
            let mut ring = TimeDrivenBuffer::new(cap, jitter);
            let mut map = MapBuffer {
                entries: Default::default(),
                capacity_bytes: cap,
                bytes: 0,
                jitter,
                stats: BufferStats::default(),
            };
            // 40 ms chunks; `next` is the in-order fill position, `now`
            // the media clock trailing it and `play` the chunk a client
            // reading in playback order asks for next.
            let (mut next, mut now, mut play) = (0u64, 0u64, 0u64);
            for op in 0..2_000 {
                let ctx = format!("seed {seed} op {op}");
                match rng.below(13) {
                    0..=3 => {
                        let i = if rng.chance(0.8) {
                            next += 1;
                            next - 1
                        } else {
                            // A late or a skipped-ahead chunk.
                            (next + 3).saturating_sub(rng.below(8))
                        };
                        let c = chunk(i as u32, i * 40, 40, rng.range_inclusive(1, 1_500) as u32);
                        if map.entries.contains_key(&c.timestamp) {
                            continue;
                        }
                        late += u32::from(map.entries.keys().next_back() > Some(&c.timestamp));
                        let m = ms(now);
                        let put = ring.try_put(c, m);
                        assert_eq!(put, map.try_put(c, m), "{ctx}");
                        refused += u32::from(!put);
                    }
                    4 | 5 => {
                        let t = ms(rng.below(next * 40 + 100));
                        assert_eq!(ring.get(t), map.get(t), "{ctx}");
                    }
                    6 => {
                        let t = ms(rng.below(next * 40 + 100));
                        assert_eq!(ring.peek(t), map.peek(t), "{ctx}");
                    }
                    7 | 8 => {
                        now = (now + rng.below(120)).min(next * 40);
                        ring.discard_obsolete(ms(now));
                        map.discard_obsolete(ms(now));
                    }
                    9..=11 => {
                        // Playback order: the next chunk, sometimes two
                        // skipped (stride 3), anywhere in its 40 ms.
                        play = play.max(now / 40);
                        let t = ms(play * 40 + rng.below(40));
                        let hit = ring.hinted(t).is_some();
                        let got = ring.get(t);
                        assert_eq!(got, map.get(t), "{ctx}: playback get");
                        hinted += u32::from(hit);
                        searched += u32::from(!hit && got.is_some());
                        play += if rng.chance(0.1) { 3 } else { 1 };
                    }
                    _ if rng.chance(0.05) => {
                        // A seek: the buffer empties and playback jumps
                        // to where the server refills.
                        ring.clear();
                        map.clear();
                        play = next;
                    }
                    _ => {}
                }
                assert_eq!(ring.stats(), map.stats, "{ctx}");
                assert_eq!(ring.bytes(), map.bytes, "{ctx}");
                assert_eq!(ring.len(), map.entries.len(), "{ctx}");
                assert_eq!(
                    ring.first_timestamp(),
                    map.entries.keys().next().copied(),
                    "{ctx}"
                );
                assert_eq!(
                    ring.last_timestamp(),
                    map.entries.keys().next_back().copied(),
                    "{ctx}"
                );
            }
        }
        assert!(
            refused > 0 && late > 0 && hinted > 0 && searched > 0,
            "refused {refused}, late {late}, hinted {hinted}, searched {searched}"
        );
    }

    #[test]
    fn last_timestamp_is_read_ahead_frontier() {
        let mut b = buf();
        assert!(b.last_timestamp().is_none());
        b.put(chunk(0, 0, 100, 10), Duration::ZERO);
        b.put(chunk(1, 100, 100, 10), Duration::ZERO);
        assert_eq!(b.last_timestamp(), Some(ms(100)));
    }
}
