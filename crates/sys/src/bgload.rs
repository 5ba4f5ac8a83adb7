//! Background disk load: the `cat` programs.
//!
//! "We executed two `cat` programs which read movie files with the
//! benchmark program. The priority of the benchmark program is higher
//! than the priorities of the `cat` programs." Each reader streams a file
//! through the Unix server in `read_size` chunks as fast as it is served,
//! wrapping at end of file — a continuous source of non-real-time disk
//! traffic whose largest transfer defines the admission test's `B_other`.

use cras_sim::{Duration, Instant};
use cras_ufs::Ino;

use crate::tags::ClientId;

/// One background sequential reader.
#[derive(Clone, Debug)]
pub struct BgReader {
    /// Client id.
    pub id: ClientId,
    /// File being read.
    pub ino: Ino,
    /// Volume the file lives on.
    pub vol: u32,
    /// File size in bytes.
    pub size: u64,
    /// Current read position.
    pub pos: u64,
    /// Bytes per read call (`B_other` is its ceiling).
    pub read_size: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Number of completed read calls.
    pub reads: u64,
    /// Whether a read is in flight (through the Unix server).
    pub in_flight: bool,
    /// Time the load started (for rate accounting).
    pub started_at: Instant,
    /// Pause between read calls (zero = read flat out, like `cat`;
    /// non-zero throttles the load to a target rate).
    pub pause: Duration,
}

impl BgReader {
    /// Creates a reader positioned at the start of the file.
    ///
    /// # Panics
    ///
    /// Panics if the file is empty or the read size is zero.
    pub(crate) fn new(id: ClientId, ino: Ino, size: u64, read_size: u64) -> BgReader {
        assert!(size > 0, "empty background file");
        assert!(read_size > 0, "zero read size");
        BgReader {
            id,
            ino,
            vol: 0,
            size,
            pos: 0,
            read_size,
            bytes_read: 0,
            reads: 0,
            in_flight: false,
            started_at: Instant::ZERO,
            pause: Duration::ZERO,
        }
    }

    /// The byte range of the next read call: `(offset, len)`.
    pub(crate) fn next_range(&self) -> (u64, u64) {
        let len = self.read_size.min(self.size - self.pos);
        (self.pos, len)
    }

    /// Records a completed read of `len` bytes, advancing (and wrapping)
    /// the position.
    pub(crate) fn complete(&mut self, len: u64) {
        self.in_flight = false;
        self.bytes_read += len;
        self.reads += 1;
        self.pos += len;
        if self.pos >= self.size {
            self.pos = 0;
        }
    }

    /// Achieved read rate in bytes/second since `started_at`.
    pub fn rate(&self, now: Instant) -> f64 {
        let w = now.saturating_since(self.started_at).as_secs_f64();
        if w == 0.0 {
            0.0
        } else {
            self.bytes_read as f64 / w
        }
    }
}

/// A background writer: an editor appending to a file at a steady rate
/// through the delayed-write path (allocation + dirty blocks in memory;
/// the syncer flushes to disk).
#[derive(Clone, Debug)]
pub struct BgWriter {
    /// Client id.
    pub id: ClientId,
    /// File being written.
    pub ino: Ino,
    /// Volume the file lives on.
    pub vol: u32,
    /// Bytes per write call.
    pub write_size: u64,
    /// Time between write calls.
    pub period: Duration,
    /// Total bytes written (in memory).
    pub bytes_written: u64,
    /// Write calls completed.
    pub writes: u64,
}

impl BgWriter {
    /// Creates a writer.
    ///
    /// # Panics
    ///
    /// Panics on a zero write size or period.
    pub(crate) fn new(id: ClientId, ino: Ino, write_size: u64, period: Duration) -> BgWriter {
        assert!(write_size > 0, "zero write size");
        assert!(!period.is_zero(), "zero write period");
        BgWriter {
            id,
            ino,
            vol: 0,
            write_size,
            period,
            bytes_written: 0,
            writes: 0,
        }
    }

    /// Records one completed write call.
    pub(crate) fn complete(&mut self) {
        self.bytes_written += self.write_size;
        self.writes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_walk_and_wrap() {
        let mut r = BgReader::new(ClientId(0), 0, 100, 40);
        assert_eq!(r.next_range(), (0, 40));
        r.complete(40);
        assert_eq!(r.next_range(), (40, 40));
        r.complete(40);
        // Tail is short.
        assert_eq!(r.next_range(), (80, 20));
        r.complete(20);
        // Wrapped.
        assert_eq!(r.next_range(), (0, 40));
        assert_eq!(r.bytes_read, 100);
        assert_eq!(r.reads, 3);
    }

    #[test]
    fn rate_accounting() {
        let mut r = BgReader::new(ClientId(0), 0, 1000, 100);
        r.started_at = Instant::ZERO;
        r.complete(100);
        r.complete(100);
        let rate = r.rate(Instant::from_secs_f64(2.0));
        assert!((rate - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty background file")]
    fn empty_file_panics() {
        BgReader::new(ClientId(0), 0, 0, 100);
    }

    #[test]
    fn writer_accounting() {
        let mut w = BgWriter::new(ClientId(1), 3, 64 * 1024, Duration::from_millis(100));
        w.complete();
        w.complete();
        assert_eq!(w.bytes_written, 128 * 1024);
        assert_eq!(w.writes, 2);
    }

    #[test]
    #[should_panic(expected = "zero write period")]
    fn zero_period_panics() {
        BgWriter::new(ClientId(1), 3, 64, Duration::ZERO);
    }
}
