//! Chunk tables: the per-chunk timing information CRAS consumes.
//!
//! "When an application opens a new continuous media stream by using
//! `crs_open`, the application sends information about the timestamp,
//! duration and size of each chunk ... The timestamp of each block ... is
//! calculated from the sum of the durations of all previous media blocks."
//!
//! A *chunk* is the unit CRAS reads and clients fetch (one video frame or
//! a group of audio samples).

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
/// The table is immutable once built: clones share one chunk array, and
/// the admission parameters (worst-case rate, largest chunk) are
/// computed once at construction.
#[derive(Clone, Debug, Default)]
pub struct ChunkTable {
    chunks: Arc<Vec<Chunk>>,
    total_bytes: u64,
    worst_rate: f64,
    max_chunk_size: u32,
}

/// Tables are equal when their chunks are; every other field is derived
/// from them.
impl PartialEq for ChunkTable {
    fn eq(&self, other: &ChunkTable) -> bool {
        self.chunks == other.chunks
    }
}

impl Eq for ChunkTable {}

impl ChunkTable {
    /// Builds a table from `(duration, size)` pairs, computing timestamps
    /// and file offsets cumulatively.
    pub fn from_durations_sizes(items: &[(Duration, u32)]) -> ChunkTable {
        let mut chunks = Vec::with_capacity(items.len());
        let mut ts = Duration::ZERO;
        let mut off = 0u64;
        let mut worst_rate = 0.0f64;
        let mut max_chunk_size = 0u32;
        for (i, &(duration, size)) in items.iter().enumerate() {
            chunks.push(Chunk {
                index: i as u32,
                timestamp: ts,
                duration,
                size,
                file_offset: off,
            });
            ts += duration;
            off += size as u64;
            let d = duration.as_secs_f64();
            if d != 0.0 {
                worst_rate = worst_rate.max(size as f64 / d);
            }
            max_chunk_size = max_chunk_size.max(size);
        }
        ChunkTable {
            chunks: Arc::new(chunks),
            total_bytes: off,
            worst_rate,
            max_chunk_size,
        }
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The chunks.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// A chunk by index.
    pub fn get(&self, i: u32) -> Option<&Chunk> {
        self.chunks.get(i as usize)
    }

    /// Total media bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total play duration.
    pub fn total_duration(&self) -> Duration {
        self.chunks
            .last()
            .map(|c| c.end_timestamp())
            .unwrap_or(Duration::ZERO)
    }

    /// Average data rate in bytes/second.
    pub fn avg_rate(&self) -> f64 {
        let d = self.total_duration().as_secs_f64();
        if d == 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / d
        }
    }

    /// Worst-case data rate in bytes/second over any single chunk
    /// (`size / duration`, maximized). The paper's admission test uses the
    /// worst case, which §3.2 notes wastes buffer space on VBR streams.
    pub fn worst_rate(&self) -> f64 {
        self.worst_rate
    }

    /// The chunks whose timestamps fall in `[from, to)` — what CRAS must
    /// pre-fetch for one interval.
    pub fn chunks_in(&self, from: Duration, to: Duration) -> &[Chunk] {
        let lo = self.chunks.partition_point(|c| c.timestamp < from);
        let hi = self.chunks.partition_point(|c| c.timestamp < to);
        &self.chunks[lo..hi]
    }

    /// Largest chunk size in bytes (the paper's `C_i` per-chunk term).
    pub fn max_chunk_size(&self) -> u32 {
        self.max_chunk_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn cbr_table(n: u32, dur_ms: u64, size: u32) -> ChunkTable {
        let items: Vec<(Duration, u32)> = (0..n).map(|_| (ms(dur_ms), size)).collect();
        ChunkTable::from_durations_sizes(&items)
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
        let items: Vec<(Duration, u32)> = (0..30)
            .map(|_| (Duration::from_secs_f64(1.0 / 30.0), 6250))
            .collect();
        let t = ChunkTable::from_durations_sizes(&items);
        assert!((t.avg_rate() - 187_500.0).abs() < 100.0);
        assert!((t.worst_rate() - 187_500.0).abs() < 100.0);
    }

    #[test]
    fn chunks_in_window() {
        let t = cbr_table(10, 100, 1);
        let w = t.chunks_in(ms(200), ms(500));
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].index, 2);
        assert_eq!(w[2].index, 4);
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
        let items = vec![(ms(100), 100u32), (ms(100), 300), (ms(100), 200)];
        let t = ChunkTable::from_durations_sizes(&items);
        assert!(t.worst_rate() > t.avg_rate());
        assert_eq!(t.max_chunk_size(), 300);
    }
}
