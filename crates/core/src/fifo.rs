//! The FIFO buffer CRAS deliberately does *not* use — kept as the §2.4
//! ablation baseline.
//!
//! "There is a problem when using traditional FIFO buffers for
//! communicating between client applications and the continuous media
//! server. Since CRAS delivers data to buffers at a constant rate, when
//! applications cannot fetch data from the buffers at the same rate, the
//! buffers may overflow. For this situation, FIFO buffers have the
//! undesirable logical property of discarding incoming new data before
//! obsolete old data in the buffers."
//!
//! [`FifoBuffer`] implements exactly that behaviour so the
//! buffer-ablation experiment can quantify the staleness it causes.

use std::collections::VecDeque;

use cras_media::Chunk;

/// A bounded FIFO chunk buffer (the traditional design).
#[derive(Clone, Debug)]
pub struct FifoBuffer {
    queue: VecDeque<Chunk>,
    capacity_bytes: u64,
    bytes: u64,
    drops_new: u64,
}

impl FifoBuffer {
    /// Creates a buffer with the given byte capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_bytes: u64) -> FifoBuffer {
        assert!(capacity_bytes > 0, "zero-capacity buffer");
        FifoBuffer {
            queue: VecDeque::new(),
            capacity_bytes,
            bytes: 0,
            drops_new: 0,
        }
    }

    /// *New* chunks dropped because old data occupied the buffer — the
    /// §2.4 failure mode.
    pub fn drops_new(&self) -> u64 {
        self.drops_new
    }

    /// Offers a chunk; a full buffer drops the *newcomer* (old data is
    /// never evicted — that is the point of the ablation).
    pub fn put(&mut self, chunk: Chunk) -> bool {
        if self.bytes + chunk.size as u64 > self.capacity_bytes {
            self.drops_new += 1;
            return false;
        }
        self.bytes += chunk.size as u64;
        self.queue.push_back(chunk);
        true
    }

    /// Takes the oldest chunk (the only access order a FIFO offers).
    pub fn pop(&mut self) -> Option<Chunk> {
        let c = self.queue.pop_front()?;
        self.bytes -= c.size as u64;
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_sim::Duration;

    fn chunk(i: u32, size: u32) -> Chunk {
        Chunk {
            index: i,
            timestamp: Duration::from_millis(i as u64 * 33),
            duration: Duration::from_millis(33),
            size,
            file_offset: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut b = FifoBuffer::new(100_000);
        b.put(chunk(0, 100));
        b.put(chunk(1, 100));
        assert_eq!(b.pop().unwrap().index, 0);
        assert_eq!(b.pop().unwrap().index, 1);
        assert!(b.pop().is_none());
    }

    #[test]
    fn full_buffer_drops_the_newcomer() {
        let mut b = FifoBuffer::new(250);
        assert!(b.put(chunk(0, 100)));
        assert!(b.put(chunk(1, 100)));
        assert!(!b.put(chunk(2, 100)), "new data dropped, old kept");
        assert_eq!(b.drops_new(), 1);
        assert_eq!(b.queue.front().unwrap().index, 0, "stale head survives");
    }

    #[test]
    fn occupancy_accounting() {
        let mut b = FifoBuffer::new(1000);
        b.put(chunk(0, 300));
        b.put(chunk(1, 400));
        assert_eq!(b.bytes, 700);
        b.pop();
        assert_eq!(b.bytes, 400);
        assert_eq!(b.queue.len(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        FifoBuffer::new(0);
    }
}
