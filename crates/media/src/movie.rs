//! Movie files: generating a stream's chunks and laying the data out
//! through the UFS allocator, exactly as recording through the Unix file
//! system would.

use cras_sim::Rng;
use cras_ufs::{FsError, Ino, Ufs};

use crate::chunk::ChunkTable;
use crate::rates::StreamProfile;

/// A movie stored in the file system: the media file plus its control
/// information (the chunk table the paper keeps "in a control file
/// separate from the continuous media data file").
#[derive(Clone, Debug)]
pub struct Movie {
    /// File name in the UFS namespace.
    pub name: String,
    /// Inode of the media data file.
    pub ino: Ino,
    /// The control-file contents.
    pub table: ChunkTable,
    /// The profile it was generated from.
    pub profile: StreamProfile,
}

impl Movie {
    /// Average data rate (bytes/second).
    pub fn avg_rate(&self) -> f64 {
        self.table.avg_rate()
    }

    /// Worst-case data rate used for admission (bytes/second).
    pub fn worst_rate(&self) -> f64 {
        self.table.worst_rate()
    }
}

/// Generates a chunk table for `play_secs` seconds of `profile`.
///
/// CBR profiles produce identical frames; VBR draws frame sizes from a
/// normal distribution with the profile's coefficient of variation,
/// clamped to `[0.25, 2.5]×` the mean so rates stay physical.
pub fn generate_chunks(profile: &StreamProfile, play_secs: f64, rng: &mut Rng) -> ChunkTable {
    assert!(play_secs > 0.0, "non-positive play length");
    let frames = (play_secs * profile.fps).round() as u32;
    let period = profile.frame_period();
    let mean = profile.bytes_per_frame();
    ChunkTable::from_durations_sizes((0..frames).map(|_| {
        let size = if profile.size_cv == 0.0 {
            mean
        } else {
            rng.normal(mean, mean * profile.size_cv)
                .clamp(mean * 0.25, mean * 2.5)
        };
        (period, size.round() as u32)
    }))
}

/// Records a movie: generates chunks, appends the data to a fresh UFS
/// file (allocating real blocks), and stores the control file
/// (`<name>.ctl`, a [`crate::container`] blob) next to it — "this timing
/// information is stored in a control file separate from the continuous
/// media data file".
pub fn record_movie(
    fs: &mut Ufs,
    name: &str,
    profile: StreamProfile,
    play_secs: f64,
    rng: &mut Rng,
) -> Result<Movie, FsError> {
    let table = generate_chunks(&profile, play_secs, rng);
    let ino = fs.create(name)?;
    fs.append(ino, table.total_bytes())?;
    let ctl = crate::container::encode(&table);
    let ctl_ino = fs.create(&format!("{name}.ctl"))?;
    fs.append(ctl_ino, ctl.len() as u64)?;
    Ok(Movie {
        name: name.to_string(),
        ino,
        table,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_disk::geometry::DiskGeometry;
    use cras_ufs::MkfsParams;

    fn fs() -> Ufs {
        let geom = DiskGeometry::st32550n();
        Ufs::format(&geom, MkfsParams::tuned(&geom), 3)
    }

    #[test]
    fn cbr_movie_rate_is_exact() {
        let mut rng = Rng::new(1);
        let t = generate_chunks(&StreamProfile::mpeg1(), 10.0, &mut rng);
        assert_eq!(t.len(), 300);
        assert!((t.avg_rate() - 187_500.0).abs() < 50.0);
        assert_eq!(t.avg_rate(), t.worst_rate());
    }

    #[test]
    fn vbr_movie_rate_is_approximate() {
        let mut rng = Rng::new(2);
        let p = StreamProfile::jpeg_vbr(187_500.0);
        let t = generate_chunks(&p, 30.0, &mut rng);
        assert!((t.avg_rate() - 187_500.0).abs() / 187_500.0 < 0.1);
        assert!(t.worst_rate() > 1.3 * t.avg_rate());
    }

    #[test]
    fn record_creates_backing_file() {
        let mut fs = fs();
        let mut rng = Rng::new(3);
        let m = record_movie(&mut fs, "m.mov", StreamProfile::mpeg1(), 20.0, &mut rng).unwrap();
        assert_eq!(fs.file_size(m.ino), m.table.total_bytes());
        assert_eq!(fs.lookup("m.mov").unwrap(), m.ino);
        // 20 s of MPEG-1 is about 3.75 MB.
        assert!((m.table.total_bytes() as f64 - 3.75e6).abs() < 1e5);
    }

    #[test]
    fn duplicate_name_fails() {
        let mut fs = fs();
        let mut rng = Rng::new(5);
        record_movie(&mut fs, "x", StreamProfile::mpeg1(), 1.0, &mut rng).unwrap();
        let e = record_movie(&mut fs, "x", StreamProfile::mpeg1(), 1.0, &mut rng);
        assert!(matches!(e, Err(FsError::Exists)));
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_length_panics() {
        let mut rng = Rng::new(6);
        generate_chunks(&StreamProfile::mpeg1(), 0.0, &mut rng);
    }
}
