//! Disk geometry: cylinders, heads, sectors, zones, and the block ↔
//! cylinder mapping used by C-SCAN scheduling and the admission test.
//!
//! The paper's evaluation disk is a Seagate ST32550N ("Barracuda 2"):
//! 2 GB formatted, 7200 rpm (8.33 ms rotation), about 6.5 MB/s sustained
//! transfer. [`DiskGeometry::st32550n`] is the calibrated preset used by
//! every experiment.

/// A logical block address (512-byte blocks, like the paper's "Mblock"
/// seek-distance axis).
pub type BlockNo = u64;

/// Size of one disk block in bytes.
pub const BLOCK_SIZE: u32 = 512;

/// A zone of consecutive cylinders sharing a sectors-per-track count.
///
/// Modern (for 1996) disks are zoned: outer cylinders hold more sectors
/// per track. A single-zone table degenerates to classic uniform geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Zone {
    /// First cylinder of the zone (inclusive).
    pub first_cyl: u32,
    /// Number of cylinders in the zone.
    pub cyls: u32,
    /// Sectors per track within the zone.
    pub sectors_per_track: u32,
}

/// Physical layout of a disk.
#[derive(Clone, Debug)]
pub struct DiskGeometry {
    /// Number of data heads (tracks per cylinder).
    pub heads: u32,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Zone table, ordered by `first_cyl`, covering all cylinders.
    pub zones: Vec<Zone>,
}

impl DiskGeometry {
    /// Builds a uniform (single-zone) geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn uniform(cylinders: u32, heads: u32, sectors_per_track: u32, rpm: u32) -> DiskGeometry {
        assert!(
            cylinders > 0 && heads > 0 && sectors_per_track > 0 && rpm > 0,
            "DiskGeometry::uniform: zero dimension"
        );
        DiskGeometry {
            heads,
            rpm,
            zones: vec![Zone {
                first_cyl: 0,
                cyls: cylinders,
                sectors_per_track,
            }],
        }
    }

    /// The calibrated Seagate ST32550N model used by the paper.
    ///
    /// 3510 cylinders, 11 heads, 7200 rpm. The zone table is a three-zone
    /// simplification whose average transfer rate calibrates to the
    /// paper's measured ~6.5 MB/s (Table 4); the calibration benchmark in
    /// [`crate::calibrate`] re-measures it the same way the authors did.
    pub fn st32550n() -> DiskGeometry {
        DiskGeometry {
            heads: 11,
            rpm: 7200,
            zones: vec![
                Zone {
                    first_cyl: 0,
                    cyls: 1170,
                    sectors_per_track: 126,
                },
                Zone {
                    first_cyl: 1170,
                    cyls: 1170,
                    sectors_per_track: 111,
                },
                Zone {
                    first_cyl: 2340,
                    cyls: 1170,
                    sectors_per_track: 96,
                },
            ],
        }
    }

    /// Total number of cylinders.
    pub fn cylinders(&self) -> u32 {
        self.zones.iter().map(|z| z.cyls).sum()
    }

    /// Sectors per track at the given cylinder.
    ///
    /// # Panics
    ///
    /// Panics if `cyl` is out of range.
    pub fn sectors_per_track(&self, cyl: u32) -> u32 {
        for z in &self.zones {
            if cyl >= z.first_cyl && cyl < z.first_cyl + z.cyls {
                return z.sectors_per_track;
            }
        }
        panic!("cylinder {cyl} out of range");
    }

    /// Blocks (sectors) in one cylinder at `cyl`.
    pub fn blocks_per_cylinder(&self, cyl: u32) -> u64 {
        self.sectors_per_track(cyl) as u64 * self.heads as u64
    }

    /// Total capacity in 512-byte blocks.
    pub fn total_blocks(&self) -> u64 {
        self.zones
            .iter()
            .map(|z| z.cyls as u64 * z.sectors_per_track as u64 * self.heads as u64)
            .sum()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_blocks() * BLOCK_SIZE as u64
    }

    /// One full revolution of the spindle, in seconds.
    pub fn rotation_secs(&self) -> f64 {
        60.0 / self.rpm as f64
    }

    /// Media transfer rate at a cylinder, in bytes per second: one track
    /// per revolution.
    pub fn transfer_rate_at(&self, cyl: u32) -> f64 {
        let track_bytes = self.sectors_per_track(cyl) as f64 * BLOCK_SIZE as f64;
        track_bytes / self.rotation_secs()
    }

    /// Capacity-weighted average media transfer rate in bytes/second.
    pub fn avg_transfer_rate(&self) -> f64 {
        let total: u64 = self.total_blocks();
        let mut acc = 0.0;
        for z in &self.zones {
            let z_blocks = z.cyls as u64 * z.sectors_per_track as u64 * self.heads as u64;
            acc += self.transfer_rate_at(z.first_cyl) * z_blocks as f64 / total as f64;
        }
        acc
    }

    /// Maps a block number to its cylinder.
    ///
    /// # Panics
    ///
    /// Panics if `block` is beyond the disk capacity.
    pub fn cylinder_of(&self, block: BlockNo) -> u32 {
        let mut remaining = block;
        for z in &self.zones {
            let per_cyl = z.sectors_per_track as u64 * self.heads as u64;
            let z_blocks = z.cyls as u64 * per_cyl;
            if remaining < z_blocks {
                return z.first_cyl + (remaining / per_cyl) as u32;
            }
            remaining -= z_blocks;
        }
        panic!("block {block} beyond disk capacity");
    }

    /// First block of the given cylinder.
    pub fn first_block_of(&self, cyl: u32) -> BlockNo {
        let mut acc: u64 = 0;
        for z in &self.zones {
            if cyl < z.first_cyl + z.cyls {
                let within = (cyl - z.first_cyl) as u64;
                return acc + within * z.sectors_per_track as u64 * self.heads as u64;
            }
            acc += z.cyls as u64 * z.sectors_per_track as u64 * self.heads as u64;
        }
        panic!("cylinder {cyl} out of range");
    }

    /// Angular position (fraction of a revolution, in `[0, 1)`) of a block
    /// within its track.
    pub fn angle_of(&self, block: BlockNo) -> f64 {
        let cyl = self.cylinder_of(block);
        let spt = self.sectors_per_track(cyl) as u64;
        let within_cyl = block - self.first_block_of(cyl);
        let sector = within_cyl % spt;
        sector as f64 / spt as f64
    }

    /// Cylinder distance between two blocks.
    pub fn cyl_distance(&self, a: BlockNo, b: BlockNo) -> u32 {
        let ca = self.cylinder_of(a);
        let cb = self.cylinder_of(b);
        ca.abs_diff(cb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn st32550n_capacity_near_2gb() {
        let g = DiskGeometry::st32550n();
        let gb = g.capacity_bytes() as f64 / 1e9;
        assert!((1.9..2.4).contains(&gb), "capacity {gb} GB");
        assert_eq!(g.cylinders(), 3510);
    }

    #[test]
    fn st32550n_rotation_is_8_33ms() {
        let g = DiskGeometry::st32550n();
        assert!((g.rotation_secs() - 0.008333).abs() < 1e-5);
    }

    #[test]
    fn st32550n_avg_rate_near_6_5_mbs() {
        let g = DiskGeometry::st32550n();
        let mbs = g.avg_transfer_rate() / 1e6;
        assert!((6.2..7.3).contains(&mbs), "avg rate {mbs} MB/s");
    }

    #[test]
    fn block_cylinder_roundtrip() {
        let g = DiskGeometry::st32550n();
        for cyl in [0u32, 1, 100, 1170, 2000, 2340, 3509] {
            let b = g.first_block_of(cyl);
            assert_eq!(g.cylinder_of(b), cyl);
            // Last block of the cylinder still maps to it.
            let last = b + g.blocks_per_cylinder(cyl) - 1;
            assert_eq!(g.cylinder_of(last), cyl);
        }
    }

    #[test]
    fn block_mapping_is_monotone() {
        let g = DiskGeometry::st32550n();
        let mut prev = 0;
        for blk in (0..g.total_blocks()).step_by(1_000_000) {
            let c = g.cylinder_of(blk);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "beyond disk capacity")]
    fn out_of_range_block_panics() {
        let g = DiskGeometry::st32550n();
        g.cylinder_of(g.total_blocks());
    }

    #[test]
    fn uniform_geometry() {
        let g = DiskGeometry::uniform(100, 4, 50, 3600);
        assert_eq!(g.cylinders(), 100);
        assert_eq!(g.total_blocks(), 100 * 4 * 50);
        assert_eq!(g.blocks_per_cylinder(0), 200);
        assert_eq!(g.sectors_per_track(99), 50);
        assert!((g.rotation_secs() - 1.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn angle_spans_track() {
        let g = DiskGeometry::uniform(10, 1, 4, 3600);
        assert_eq!(g.angle_of(0), 0.0);
        assert_eq!(g.angle_of(1), 0.25);
        assert_eq!(g.angle_of(3), 0.75);
        assert_eq!(g.angle_of(4), 0.0); // Next cylinder starts over.
    }

    #[test]
    fn cyl_distance_symmetric() {
        let g = DiskGeometry::st32550n();
        let a = g.first_block_of(10);
        let b = g.first_block_of(200);
        assert_eq!(g.cyl_distance(a, b), 190);
        assert_eq!(g.cyl_distance(b, a), 190);
        assert_eq!(g.cyl_distance(a, a), 0);
    }

    #[test]
    fn zone_rates_decrease_inward() {
        let g = DiskGeometry::st32550n();
        assert!(g.transfer_rate_at(0) > g.transfer_rate_at(3509));
    }
}
