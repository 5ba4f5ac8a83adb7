//! Chunk tables: the per-chunk timing information CRAS consumes.
//!
//! "When an application opens a new continuous media stream by using
//! `crs_open`, the application sends information about the timestamp,
//! duration and size of each chunk ... The timestamp of each block ... is
//! calculated from the sum of the durations of all previous media blocks."
//!
//! A *chunk* is the unit CRAS reads and clients fetch (one video frame or
//! a group of audio samples).

use std::ops::Range;
use std::sync::Arc;

use cras_sim::Duration;

/// Timing and size of one media chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Index within the stream.
    pub index: u32,
    /// Media timestamp: sum of all previous durations.
    pub timestamp: Duration,
    /// Presentation duration of this chunk.
    pub duration: Duration,
    /// Size in bytes.
    pub size: u32,
    /// Byte offset within the media file.
    pub file_offset: u64,
}

impl Chunk {
    /// The timestamp one past this chunk (start of the next).
    pub fn end_timestamp(&self) -> Duration {
        self.timestamp + self.duration
    }
}

/// The full per-stream chunk table (the "control file" contents).
///
/// The table keeps the paper's two prefix sums as columns of `n + 1`
/// exact values: `ts[i]` is chunk `i`'s timestamp in nanoseconds and
/// `off[i]` its file offset, so chunk `i` spans `ts[i]..ts[i + 1]` and
/// `off[i]..off[i + 1]` (16 bytes per chunk). A [`Chunk`] is built on
/// demand from the two adjacent pairs. The table is immutable once
/// built: clones share both columns, the totals are the columns' last
/// entries, and the admission parameters (worst-case rate, largest
/// chunk) are computed once at construction.
#[derive(Clone, Debug)]
pub struct ChunkTable {
    ts: Arc<[u64]>,
    off: Arc<[u64]>,
    worst_rate: f64,
    max_chunk_size: u32,
}

/// Tables are equal when their chunks are; every other field is derived
/// from the two columns.
impl PartialEq for ChunkTable {
    fn eq(&self, other: &ChunkTable) -> bool {
        self.ts == other.ts && self.off == other.off
    }
}

impl Eq for ChunkTable {}

impl Default for ChunkTable {
    fn default() -> ChunkTable {
        ChunkTable::from_durations_sizes([])
    }
}

impl ChunkTable {
    /// Builds a table from `(duration, size)` pairs in one pass, computing
    /// timestamps and file offsets cumulatively.
    pub fn from_durations_sizes(items: impl IntoIterator<Item = (Duration, u32)>) -> ChunkTable {
        let items = items.into_iter();
        let rows = items.size_hint().0 + 1;
        let (mut ts, mut off) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        let (mut t, mut o) = (Duration::ZERO, 0u64);
        ts.push(0);
        off.push(0);
        let mut worst_rate = 0.0f64;
        let mut max_chunk_size = 0u32;
        for (duration, size) in items {
            t += duration;
            o += size as u64;
            ts.push(t.as_nanos());
            off.push(o);
            let d = duration.as_secs_f64();
            if d != 0.0 {
                worst_rate = worst_rate.max(size as f64 / d);
            }
            max_chunk_size = max_chunk_size.max(size);
        }
        ChunkTable {
            ts: ts.into(),
            off: off.into(),
            worst_rate,
            max_chunk_size,
        }
    }

    /// Number of chunks.
    #[inline]
    pub fn len(&self) -> usize {
        self.ts.len() - 1
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunks, in index order.
    #[inline]
    pub fn chunks(&self) -> impl DoubleEndedIterator<Item = Chunk> + ExactSizeIterator + '_ {
        self.span(0..self.len() as u32).iter()
    }

    /// Chunks `range` (by index).
    ///
    /// # Panics
    ///
    /// Panics if the range runs backwards or past the table's end.
    #[inline]
    pub fn span(&self, range: Range<u32>) -> ChunkSpan<'_> {
        assert!(
            range.start <= range.end && range.end as usize <= self.len(),
            "span {range:?} outside a table of {} chunks",
            self.len()
        );
        let (lo, hi) = (range.start, range.end);
        ChunkSpan {
            table: self,
            lo,
            hi,
        }
    }

    /// A chunk by index, from the two adjacent pairs `ts[i..=i + 1]`
    /// and `off[i..=i + 1]`.
    #[inline]
    pub fn get(&self, i: u32) -> Option<Chunk> {
        let k = i as usize;
        let (ts, off) = (self.ts.get(k..k + 2)?, self.off.get(k..k + 2)?);
        Some(Chunk {
            index: i,
            timestamp: Duration::from_nanos(ts[0]),
            duration: Duration::from_nanos(ts[1] - ts[0]),
            size: (off[1] - off[0]) as u32,
            file_offset: off[0],
        })
    }

    /// Chunk `i`'s timestamp, read from the column; `i == len()` gives
    /// the end of the last chunk (the total duration).
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    #[inline]
    pub fn timestamp(&self, i: u32) -> Duration {
        Duration::from_nanos(self.ts[i as usize])
    }

    /// Total media bytes.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.off[self.len()]
    }

    /// Total play duration.
    #[inline]
    pub fn total_duration(&self) -> Duration {
        Duration::from_nanos(self.ts[self.len()])
    }

    /// Average data rate in bytes/second.
    pub fn avg_rate(&self) -> f64 {
        let d = self.total_duration().as_secs_f64();
        if d == 0.0 {
            0.0
        } else {
            self.total_bytes() as f64 / d
        }
    }

    /// Worst-case data rate in bytes/second over any single chunk
    /// (`size / duration`, maximized). The paper's admission test uses the
    /// worst case, which §3.2 notes wastes buffer space on VBR streams.
    pub fn worst_rate(&self) -> f64 {
        self.worst_rate
    }

    /// The chunks whose timestamps fall in `[from, to)` — what CRAS must
    /// pre-fetch for one interval; none when `to <= from`. A binary
    /// search of the timestamp column.
    #[inline]
    pub fn chunks_in(&self, from: Duration, to: Duration) -> ChunkSpan<'_> {
        let all = self.span(0..self.len() as u32);
        let (lo, hi) = (all.below(from), all.below(to));
        self.span(lo..hi.max(lo))
    }

    /// Largest chunk size in bytes (the paper's `C_i` per-chunk term).
    pub fn max_chunk_size(&self) -> u32 {
        self.max_chunk_size
    }
}

/// Consecutive chunks of one table: what [`ChunkTable::chunks_in`] and
/// [`ChunkTable::span`] return.
#[derive(Clone, Copy, Debug)]
pub struct ChunkSpan<'a> {
    table: &'a ChunkTable,
    lo: u32,
    hi: u32,
}

impl<'a> ChunkSpan<'a> {
    /// Number of chunks.
    #[inline]
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the span holds no chunk.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// The first chunk, if any.
    #[inline]
    pub fn first(&self) -> Option<Chunk> {
        self.iter().next()
    }

    /// The last chunk, if any.
    #[inline]
    pub fn last(&self) -> Option<Chunk> {
        self.iter().next_back()
    }

    /// The span's chunk indices.
    #[inline]
    pub fn range(&self) -> Range<u32> {
        self.lo..self.hi
    }

    /// The table the span indexes.
    #[inline]
    pub fn table(&self) -> &'a ChunkTable {
        self.table
    }

    /// Bytes of the span's chunks, from the offset column.
    #[inline]
    pub fn bytes(&self) -> u64 {
        let off = &self.table.off;
        off[self.hi as usize] - off[self.lo as usize]
    }

    /// Number of leading chunks with timestamps below `t`: a binary
    /// search of the timestamp column.
    #[inline]
    pub fn below(&self, t: Duration) -> u32 {
        let starts = &self.table.ts[self.lo as usize..self.hi as usize];
        starts.partition_point(|&s| s < t.as_nanos()) as u32
    }

    /// Number of leading chunks whose sizes sum to at most `bytes`: a
    /// binary search of the offset column.
    #[inline]
    pub fn fitting(&self, bytes: u64) -> u32 {
        let off = &self.table.off[self.lo as usize..=self.hi as usize];
        off[1..].partition_point(|&o| o - off[0] <= bytes) as u32
    }

    /// The chunk whose `[timestamp, timestamp + duration)` holds `t`, if
    /// it is in the span: a binary search of the timestamp column.
    #[inline]
    pub fn at(&self, t: Duration) -> Option<Chunk> {
        let starts = &self.table.ts[self.lo as usize..self.hi as usize];
        let k = starts.partition_point(|&s| s <= t.as_nanos());
        let c = self.table.get(self.lo + k.checked_sub(1)? as u32)?;
        (t < c.end_timestamp()).then_some(c)
    }

    /// Whether two of the span's chunks share a timestamp (some chunk
    /// but the last has zero duration).
    #[inline]
    pub fn has_tied_timestamps(&self) -> bool {
        let ts = &self.table.ts[self.lo as usize..self.hi as usize];
        ts.windows(2).any(|w| w[0] == w[1])
    }

    /// The span's chunks, in index order.
    #[inline]
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Chunk> + ExactSizeIterator + 'a {
        let table = self.table;
        (self.lo..self.hi).map(move |i| table.get(i).expect("span inside its table"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_sim::Rng;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn cbr_table(n: u32, dur_ms: u64, size: u32) -> ChunkTable {
        ChunkTable::from_durations_sizes((0..n).map(|_| (ms(dur_ms), size)))
    }

    #[test]
    fn timestamps_are_cumulative() {
        let t = cbr_table(10, 33, 6250);
        assert_eq!(t.get(0).unwrap().timestamp, Duration::ZERO);
        assert_eq!(t.get(3).unwrap().timestamp, ms(99));
        assert_eq!(t.get(3).unwrap().file_offset, 3 * 6250);
        assert_eq!(t.total_bytes(), 62_500);
        assert_eq!(t.total_duration(), ms(330));
    }

    #[test]
    fn rates() {
        // 30 fps, 6250 B/frame => 187 500 B/s.
        let t = ChunkTable::from_durations_sizes(
            (0..30).map(|_| (Duration::from_secs_f64(1.0 / 30.0), 6250)),
        );
        assert!((t.avg_rate() - 187_500.0).abs() < 100.0);
        assert!((t.worst_rate() - 187_500.0).abs() < 100.0);
    }

    #[test]
    fn chunks_in_window() {
        let t = cbr_table(10, 100, 1);
        let w = t.chunks_in(ms(200), ms(500));
        assert_eq!(w.len(), 3);
        assert_eq!(w.first().unwrap().index, 2);
        assert_eq!(w.last().unwrap().index, 4);
        assert!(t.chunks_in(ms(2000), ms(3000)).is_empty());
        let all = t.chunks_in(Duration::ZERO, ms(1000));
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn empty_table() {
        let t = ChunkTable::default();
        assert!(t.is_empty());
        assert_eq!(t.total_duration(), Duration::ZERO);
        assert_eq!(t.avg_rate(), 0.0);
        assert_eq!(t.max_chunk_size(), 0);
    }

    #[test]
    fn vbr_worst_exceeds_avg() {
        let t = ChunkTable::from_durations_sizes([(ms(100), 100), (ms(100), 300), (ms(100), 200)]);
        assert!(t.worst_rate() > t.avg_rate());
        assert_eq!(t.max_chunk_size(), 300);
    }

    /// The rows the table stored before it kept two prefix-sum columns.
    fn reference_rows(items: &[(Duration, u32)]) -> Vec<Chunk> {
        let (mut timestamp, mut file_offset) = (Duration::ZERO, 0u64);
        let mut rows = Vec::with_capacity(items.len());
        for (i, &(duration, size)) in items.iter().enumerate() {
            rows.push(Chunk {
                index: i as u32,
                timestamp,
                duration,
                size,
                file_offset,
            });
            timestamp += duration;
            file_offset += size as u64;
        }
        rows
    }

    /// The end of the last row.
    fn duration_of(rows: &[Chunk]) -> Duration {
        rows.last().map_or(Duration::ZERO, Chunk::end_timestamp)
    }

    /// Seeded inputs: VBR tables, tables with runs of zero-duration
    /// chunks, one-chunk tables and the empty table.
    fn differential_inputs() -> Vec<Vec<(Duration, u32)>> {
        let mut rng = Rng::new(36);
        let mut inputs = vec![Vec::new(), vec![(ms(33), 6250)], vec![(Duration::ZERO, 9)]];
        for n in [2u64, 17, 300] {
            for zero_share in [0.0, 0.3] {
                let items = (0..n)
                    .map(|_| {
                        let d = if rng.chance(zero_share) {
                            Duration::ZERO
                        } else {
                            Duration::from_nanos(rng.range_inclusive(1, 80_000_000))
                        };
                        (d, rng.range_inclusive(0, 200_000) as u32)
                    })
                    .collect();
                inputs.push(items);
            }
        }
        inputs
    }

    #[test]
    fn columns_match_the_row_table() {
        let mut rng = Rng::new(7);
        for items in differential_inputs() {
            let rows = reference_rows(&items);
            let t = ChunkTable::from_durations_sizes(items.iter().copied());
            let n = rows.len() as u32;
            assert_eq!(t.len(), rows.len());
            assert_eq!(t.is_empty(), rows.is_empty());
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(t.get(i as u32), Some(*row), "chunk {i} of {n}");
            }
            assert_eq!(t.get(n), None);
            assert_eq!(t.get(u32::MAX), None);
            assert!(t.chunks().eq(rows.iter().copied()));
            assert!(t.chunks().rev().eq(rows.iter().rev().copied()));

            // Windows: random instants, chunk boundaries (ties where
            // chunks have zero duration) and backwards windows.
            let end = t.total_duration().as_nanos();
            let at = |rng: &mut Rng| match rng.below(3) {
                0 if n > 0 => rows[rng.below(n as u64) as usize].timestamp,
                1 => Duration::from_nanos(end),
                _ => Duration::from_nanos(rng.range_inclusive(0, end + 10)),
            };
            for _ in 0..200 {
                let (from, to) = (at(&mut rng), at(&mut rng));
                let want: Vec<Chunk> = rows
                    .iter()
                    .filter(|c| from <= c.timestamp && c.timestamp < to)
                    .copied()
                    .collect();
                let span = t.chunks_in(from, to);
                assert!(span.iter().eq(want.iter().copied()), "{from:?}..{to:?}");
                assert_eq!(span.len(), want.len());
                assert_eq!(span.first(), want.first().copied());
                assert_eq!(span.last(), want.last().copied());
                let bytes: u64 = want.iter().map(|c| c.size as u64).sum();
                assert_eq!(span.bytes(), bytes);
                assert_eq!(span.range().len(), want.len());
                assert!(std::ptr::eq(span.table(), &t));

                // Column searches of a random span against a row scan.
                let lo = rng.below(n as u64 + 1) as u32;
                let hi = lo + rng.below((n - lo) as u64 + 1) as u32;
                let span = t.span(lo..hi);
                let rows = &rows[lo as usize..hi as usize];
                let below = rows.iter().filter(|c| c.timestamp < from).count();
                assert_eq!(
                    span.below(from) as usize,
                    below,
                    "{lo}..{hi} below {from:?}"
                );
                let budget = rng.below(span.bytes() + 2);
                let fit = rows
                    .iter()
                    .scan(0u64, |sum, c| {
                        *sum += c.size as u64;
                        Some(*sum)
                    })
                    .take_while(|&sum| sum <= budget)
                    .count();
                assert_eq!(
                    span.fitting(budget) as usize,
                    fit,
                    "{lo}..{hi} within {budget}"
                );
                let holds = rows
                    .iter()
                    .find(|c| c.timestamp <= from && from < c.end_timestamp());
                assert_eq!(span.at(from), holds.copied(), "{lo}..{hi} at {from:?}");
                let tied = rows.windows(2).any(|w| w[0].timestamp == w[1].timestamp);
                assert_eq!(span.has_tied_timestamps(), tied, "{lo}..{hi}");
            }
            for i in 0..=n {
                let ts = rows
                    .get(i as usize)
                    .map_or(duration_of(&rows), |c| c.timestamp);
                assert_eq!(t.timestamp(i), ts, "timestamp {i}");
            }

            let total: u64 = rows.iter().map(|c| c.size as u64).sum();
            let duration = duration_of(&rows);
            let secs = duration.as_secs_f64();
            let worst = rows
                .iter()
                .filter(|c| c.duration.as_secs_f64() != 0.0)
                .map(|c| c.size as f64 / c.duration.as_secs_f64())
                .fold(0.0f64, f64::max);
            assert_eq!(t.total_bytes(), total);
            assert_eq!(t.total_duration(), duration);
            let avg = if secs == 0.0 {
                0.0
            } else {
                total as f64 / secs
            };
            assert_eq!(t.avg_rate().to_bits(), avg.to_bits());
            assert_eq!(t.worst_rate().to_bits(), worst.to_bits());
            let max = rows.iter().map(|c| c.size).max().unwrap_or(0);
            assert_eq!(t.max_chunk_size(), max);

            // Equality means equal chunks; clones share both columns.
            let copy = t.clone();
            assert!(Arc::ptr_eq(&copy.ts, &t.ts) && Arc::ptr_eq(&copy.off, &t.off));
            assert_eq!(copy, t);
            assert_eq!(ChunkTable::from_durations_sizes(items.iter().copied()), t);
            if let Some(&(d, size)) = items.last() {
                let mut bigger = items.clone();
                *bigger.last_mut().unwrap() = (d, size + 1);
                assert_ne!(ChunkTable::from_durations_sizes(bigger), t);
                assert_ne!(
                    ChunkTable::from_durations_sizes(items[1..].iter().copied()),
                    t
                );
            }
        }
    }

    #[test]
    fn table_heap_is_two_words_per_chunk_plus_one_row() {
        for n in [0usize, 1, 14_400] {
            let t = ChunkTable::from_durations_sizes((0..n).map(|_| (ms(33), 6250)));
            let heap = std::mem::size_of_val(&*t.ts) + std::mem::size_of_val(&*t.off);
            assert_eq!(heap, 16 * (n + 1), "{n} chunks");
        }
    }
}
