//! The Table 2 client interface, verbatim.
//!
//! | call | paper description |
//! |---|---|
//! | `crs_open` | Open a new continuous media stream |
//! | `crs_close` | Close a continuous media stream |
//! | `crs_start` | Start the logical clock of a continuous media stream |
//! | `crs_stop` | Stop the logical clock of a continuous media stream |
//! | `crs_seek` | Set the logical clock to the specified value |
//! | `crs_get` | Get the address of data chunk in the time-driven shared memory buffer specified by logical time |
//!
//! [`CrsSession`] wraps a [`CrasServer`] in exactly this vocabulary — a
//! thin facade over the server's methods, for code that wants to read
//! like the paper. Note that `crs_get` "does not communicate with CRAS,
//! because an application can get the data from its time-driven shared
//! memory buffer"; in the simulation both go through the same object, and
//! the deployment-cost model ([`crate::deploy`]) accounts for the
//! difference.

use cras_media::ChunkTable;
use cras_sim::{Duration, Instant};
use cras_ufs::Extent;

use crate::admission::AdmissionError;
use crate::server::{CrasServer, OpenReq};
use crate::stream::StreamId;
use crate::tdbuffer::BufferedChunk;

/// A client-side handle to one open stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrsSession {
    stream: StreamId,
}

impl CrsSession {
    /// The underlying stream id.
    pub fn stream(&self) -> StreamId {
        self.stream
    }
}

/// `crs_open`: opens a stream (admission test, buffer allocation) and
/// returns a session handle.
pub fn crs_open(
    server: &mut CrasServer,
    name: &str,
    table: ChunkTable,
    extents: Vec<Extent>,
) -> Result<CrsSession, AdmissionError> {
    server
        .open(OpenReq::single(name, table, extents))
        .map(|stream| CrsSession { stream })
}

/// `crs_close`: closes the stream and releases its buffer.
pub fn crs_close(server: &mut CrasServer, session: CrsSession) {
    server.close(session.stream);
}

/// `crs_start`: starts the stream's logical clock (after the initial
/// delay); pre-fetching begins at the next interval. Returns the real
/// time at which media time zero plays.
pub fn crs_start(server: &mut CrasServer, session: CrsSession, now: Instant) -> Instant {
    server.start(session.stream, now)
}

/// `crs_stop`: stops the logical clock; pre-fetching freezes.
pub fn crs_stop(server: &mut CrasServer, session: CrsSession, now: Instant) {
    server.stop(session.stream, now);
}

/// `crs_seek`: sets the logical clock to `to`; buffered data is dropped
/// and pre-fetching resumes from the new position.
pub fn crs_seek(server: &mut CrasServer, session: CrsSession, now: Instant, to: Duration) {
    server.seek(session.stream, now, to);
}

/// `crs_get`: the chunk at `logical_time` from the time-driven shared
/// memory buffer (no server round trip in the real system).
pub fn crs_get(
    server: &mut CrasServer,
    session: CrsSession,
    logical_time: Duration,
) -> Option<BufferedChunk> {
    server.get(session.stream, logical_time)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use cras_disk::calibrate::DiskParams;
    use cras_media::StreamProfile;
    use cras_sim::Rng;

    fn setup() -> (CrasServer, ChunkTable, Vec<Extent>) {
        let server = CrasServer::new(DiskParams::paper_table4(), ServerConfig::default());
        let mut rng = Rng::new(2);
        let table = cras_media::generate_chunks(&StreamProfile::mpeg1(), 5.0, &mut rng);
        let nblocks = table.total_bytes().div_ceil(512) as u32;
        let extents = vec![Extent {
            file_offset: 0,
            disk_block: 40_000,
            nblocks,
        }];
        (server, table, extents)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }
    fn at(v: u64) -> Instant {
        Instant::ZERO + ms(v)
    }

    #[test]
    fn full_session_lifecycle() {
        let (mut srv, table, extents) = setup();
        let s = crs_open(&mut srv, "m", table, extents).expect("admitted");
        let begin = crs_start(&mut srv, s, at(0));
        assert_eq!(begin, at(1000));

        // Drive two intervals by hand so the first chunks post.
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        for r in &rep.reqs {
            srv.io_done(r.id);
        }
        srv.interval_tick(at(1000));
        let chunk = crs_get(&mut srv, s, Duration::ZERO).expect("first frame");
        assert_eq!(chunk.index, 0);

        crs_stop(&mut srv, s, at(1100));
        crs_seek(&mut srv, s, at(1200), Duration::from_secs(2));
        assert!(crs_get(&mut srv, s, Duration::from_secs(2)).is_none());
        crs_close(&mut srv, s);
        assert_eq!(srv.stream_count(), 0);
    }

    #[test]
    fn open_propagates_admission_error() {
        let (mut srv, table, extents) = setup();
        // Shrink the budget below one stream's buffer.
        let mut cfg = ServerConfig::default();
        cfg.buffer_budget = 1000;
        let mut tiny = CrasServer::new(DiskParams::paper_table4(), cfg);
        let err = crs_open(&mut tiny, "m", table.clone(), extents.clone());
        assert!(err.is_err());
        // The normal server still admits it.
        assert!(crs_open(&mut srv, "m", table, extents).is_ok());
    }
}
