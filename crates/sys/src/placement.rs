//! A recorded movie's file layout across the volume set.
//!
//! CRAS streams a movie straight from its FFS files through their
//! extent maps: `crs_open` shares the on-disk layout with the Unix file
//! system. [`MoviePlacement`] is the only code that knows that layout.
//! [`record`] lays a movie's files out under the configured
//! [`PlacementPolicy`], [`MoviePlacement::resolve`] turns them back into
//! the placed extent maps `crs_open` reads, and
//! [`MoviePlacement::rebuild_chunks`] plans their restoration after a
//! volume loss.

use cras_core::{
    on_volume, CrasServer, ParityGeometry, ParityState, PlacementPolicy, VolumeExtent,
    PARITY_STRIPE_BYTES,
};
use cras_disk::VolumeId;
use cras_media::{Movie, StreamProfile};
use cras_sim::Rng;
use cras_ufs::{Extent, Ino, Ufs, BSIZE};

use crate::rebuild::{plan_chunks, plan_parity_recon, RebuildChunk};

/// Where a recorded movie's data lives across the volume set.
#[derive(Clone, Debug)]
pub enum MoviePlacement {
    /// The whole movie on one volume (round-robin placement).
    Whole {
        /// The volume.
        vol: u32,
        /// The media data file on that volume.
        ino: Ino,
    },
    /// Striped across all volumes in `stripe_bytes` units.
    Striped {
        /// `stripes[v]` is the stripe file on volume `v`.
        stripes: Vec<Ino>,
        /// Stripe unit in bytes (multiple of the fs block size).
        stripe_bytes: u64,
        /// Total media bytes.
        total_bytes: u64,
    },
    /// Written in full to a primary volume and to a mirror volume.
    Mirrored {
        /// Primary volume.
        primary: u32,
        /// Mirror volume (never the primary's spindle).
        mirror: u32,
        /// The media data file on the primary volume.
        ino: Ino,
        /// The replica data file on the mirror volume.
        mirror_ino: Ino,
    },
    /// Laid out in rotating-parity stripe groups across a band of `group`
    /// volumes: each row of `group - 1` data units gets one XOR parity
    /// unit, and the parity volume rotates per row so no spindle is a
    /// dedicated parity disk.
    Parity {
        /// First volume of the band.
        base: u32,
        /// Band width `g` (data units per row is `g - 1`).
        group: u32,
        /// Stripe unit in bytes.
        stripe_bytes: u64,
        /// Total media bytes.
        total_bytes: u64,
        /// `data[v]` is the data-unit file on band volume `base + v`.
        data: Vec<Ino>,
        /// `parity[v]` is the parity-unit file on band volume `base + v`.
        parity: Vec<Ino>,
    },
}

/// A movie's layout as `crs_open` takes it: the placed data extents in
/// logical byte order, the mirror replica's extents, and the parity
/// layout with its per-volume parity-file maps.
pub(crate) type Layout = (
    Vec<VolumeExtent>,
    Option<Vec<VolumeExtent>>,
    Option<ParityState>,
);

/// Records a movie under `policy` (setup phase; consumes no simulated
/// time): one chunk-table draw from `rng`, the policy's data files on
/// each volume, then the control file (`{name}.ctl`) on the home volume,
/// the volume of the first data file.
///
/// * Round-robin: the whole movie (`{name}`) on the volume
///   [`CrasServer::place_next`] picks.
/// * Mirrored: `{name}` on the primary and a same-size replica
///   (`{name}.mir`) on the mirror [`CrasServer::place_next_pair`] picks.
///   The replica allocates its own extents, so the two copies may
///   fragment differently; degraded reads remap by logical byte range.
/// * Striped: stripe unit `k` goes to volume `k mod N`, appended to that
///   volume's stripe file (`{name}.s{v}`). No cursor advances.
/// * Parity: band volume `v` of the band [`CrasServer::place_next_band`]
///   picks gets a data-unit file (`{name}.pd{v}`) and a parity file
///   (`{name}.pp{v}`). The simulation is data-free, so no XOR is computed
///   here or anywhere else for a placed movie.
///
/// The returned movie's `ino` is the first data file. Placement is a
/// pure function of the rng state and the cursor, so replaying the same
/// recordings reproduces it exactly.
///
/// # Panics
///
/// Panics on a stripe unit that is zero or not a multiple of the fs
/// block, on a parity group that does not tile the volumes, and when a
/// volume runs out of space.
pub(crate) fn record(
    policy: PlacementPolicy,
    cras: &mut CrasServer,
    fs: &mut [Ufs],
    name: &str,
    profile: StreamProfile,
    secs: f64,
    rng: &mut Rng,
) -> (MoviePlacement, Movie) {
    let table = cras_media::generate_chunks(&profile, secs, rng);
    let total = table.total_bytes();
    let n = fs.len() as u64;
    // Appending zero bytes to a fresh file allocates nothing, so empty
    // stripe, data or parity files need no special case.
    let mut file = |vol: u32, file: String, bytes: u64| {
        let fsv = &mut fs[vol as usize];
        let ino = fsv.create(&file).expect("movie file");
        fsv.append(ino, bytes).expect("movie file allocation");
        ino
    };
    // Each volume's files are created in field order: inode numbers and
    // block allocation depend on it.
    let placement = match policy {
        PlacementPolicy::RoundRobin => {
            let vol = cras.place_next().0;
            MoviePlacement::Whole {
                vol,
                ino: file(vol, name.to_string(), total),
            }
        }
        PlacementPolicy::Mirrored => {
            let (p, m) = cras.place_next_pair();
            MoviePlacement::Mirrored {
                primary: p.0,
                mirror: m.0,
                ino: file(p.0, name.to_string(), total),
                mirror_ino: file(m.0, format!("{name}.mir"), total),
            }
        }
        PlacementPolicy::Striped { stripe_bytes } => {
            assert!(
                stripe_bytes > 0 && stripe_bytes.is_multiple_of(BSIZE as u64),
                "stripe unit must be a positive multiple of the fs block size"
            );
            let mut per_vol = vec![0u64; n as usize];
            for k in 0..total.div_ceil(stripe_bytes) {
                per_vol[(k % n) as usize] += stripe_bytes.min(total - k * stripe_bytes);
            }
            MoviePlacement::Striped {
                stripes: (0..n as u32)
                    .map(|v| file(v, format!("{name}.s{v}"), per_vol[v as usize]))
                    .collect(),
                stripe_bytes,
                total_bytes: total,
            }
        }
        PlacementPolicy::Parity { group } => {
            let base = cras.place_next_band(group).0;
            let geom = ParityGeometry::new(base, group as u32, PARITY_STRIPE_BYTES, total);
            let (data, parity) = (0..geom.group)
                .map(|v| {
                    let d = file(base + v, format!("{name}.pd{v}"), geom.data_bytes_on(v));
                    (
                        d,
                        file(base + v, format!("{name}.pp{v}"), geom.parity_bytes_on(v)),
                    )
                })
                .unzip();
            MoviePlacement::Parity {
                base,
                group: geom.group,
                stripe_bytes: geom.stripe_bytes,
                total_bytes: total,
                data,
                parity,
            }
        }
    };
    let (home, ino) = placement.files()[0];
    let ctl = cras_media::container::encode(&table);
    file(home, format!("{name}.ctl"), ctl.len() as u64);
    let movie = Movie {
        name: name.to_string(),
        ino,
        table,
        profile,
    };
    (placement, movie)
}

/// The extent map of file `ino` on volume `vol`, tagged with the volume.
pub(crate) fn file_extents(fs: &[Ufs], vol: u32, ino: Ino) -> Vec<VolumeExtent> {
    on_volume(VolumeId(vol), fs[vol as usize].extent_map(ino))
}

impl MoviePlacement {
    /// Every media file the movie owns, `(volume, ino)`, in recording
    /// order: the data files, the mirror replica and the parity files.
    /// The control file is not tracked. The first entry is the movie's
    /// `ino` on its home volume.
    pub fn files(&self) -> Vec<(u32, Ino)> {
        match self {
            MoviePlacement::Whole { vol, ino } => vec![(*vol, *ino)],
            MoviePlacement::Mirrored {
                primary,
                mirror,
                ino,
                mirror_ino,
            } => vec![(*primary, *ino), (*mirror, *mirror_ino)],
            MoviePlacement::Striped { stripes, .. } => (0..).zip(stripes.iter().copied()).collect(),
            MoviePlacement::Parity {
                base, data, parity, ..
            } => (*base..)
                .zip(data.iter().zip(parity))
                .flat_map(|(v, (&d, &p))| [(v, d), (v, p)])
                .collect(),
        }
    }

    /// Resolves the movie's layout for `crs_open`. The placement names
    /// the volumes; `movie_ino` names the whole or primary data file,
    /// because tools like the fragmenter re-home a movie's data into a
    /// fresh inode under the same name. Striped and parity movies read
    /// the placement's own files.
    pub(crate) fn resolve(&self, fs: &[Ufs], movie_ino: Ino) -> Layout {
        match self {
            MoviePlacement::Whole { vol, .. } => (file_extents(fs, *vol, movie_ino), None, None),
            MoviePlacement::Mirrored {
                primary,
                mirror,
                mirror_ino,
                ..
            } => (
                file_extents(fs, *primary, movie_ino),
                Some(file_extents(fs, *mirror, *mirror_ino)),
                None,
            ),
            MoviePlacement::Striped {
                stripes,
                stripe_bytes,
                total_bytes,
            } => {
                let n = stripes.len() as u64;
                let unit = |k: u64| ((k % n) as u32, k / n);
                let extents = compose(fs, 0, stripes, *stripe_bytes, *total_bytes, unit);
                (extents, None, None)
            }
            MoviePlacement::Parity {
                base,
                group,
                stripe_bytes,
                total_bytes,
                data,
                parity,
            } => {
                let geom = ParityGeometry::new(*base, *group, *stripe_bytes, *total_bytes);
                let unit = |k: u64| (geom.data_volume(k).0 - base, geom.data_file_index(k));
                let extents = compose(fs, *base, data, *stripe_bytes, *total_bytes, unit);
                let parity_maps = (*base..)
                    .zip(parity)
                    .map(|(v, &ino)| file_extents(fs, v, ino))
                    .collect();
                (extents, None, Some(ParityState { geom, parity_maps }))
            }
        }
    }

    /// The single volume holding the movie's data, for Unix-server
    /// access paths that read one file.
    ///
    /// # Panics
    ///
    /// Panics for striped and parity movies: the Unix server reads whole
    /// files and has no stripe-reassembly layer.
    pub fn volume(&self) -> u32 {
        match self {
            MoviePlacement::Whole { vol, .. } => *vol,
            MoviePlacement::Mirrored { primary, .. } => *primary,
            MoviePlacement::Striped { .. } => {
                panic!("Unix-server access to a striped movie is not supported")
            }
            MoviePlacement::Parity { .. } => {
                panic!("Unix-server access to a parity movie is not supported")
            }
        }
    }

    /// The chunks that restore this movie's files on a replacement for
    /// volume `vol`, planned from the placement's own files. A lost
    /// mirror replica is copied from the surviving one; a lost parity
    /// band member's data and parity units are reconstructed from their
    /// rows' survivors. A movie with no file on `vol`, or with no
    /// redundancy, plans nothing.
    pub(crate) fn rebuild_chunks(
        &self,
        fs: &[Ufs],
        vol: u32,
        chunk_bytes: u64,
    ) -> Vec<RebuildChunk> {
        let lost: Vec<Ino> = self
            .files()
            .into_iter()
            .filter(|&(v, _)| v == vol)
            .map(|(_, ino)| ino)
            .collect();
        if lost.is_empty() {
            return Vec::new();
        }
        match self.resolve(fs, self.files()[0].1) {
            (extents, Some(mirror), _) if self.volume() == vol => {
                plan_chunks(&mirror, &extents, chunk_bytes)
            }
            (extents, Some(mirror), _) => plan_chunks(&extents, &mirror, chunk_bytes),
            (extents, _, Some(ps)) => {
                // `lost` is the volume's data file, then its parity file.
                let dst = |i: usize| file_extents(fs, vol, lost[i]);
                plan_parity_recon(&extents, &ps, &dst(0), &dst(1), vol)
            }
            _ => Vec::new(),
        }
    }
}

/// Composes a movie's placed logical extent map from its per-volume
/// files' extent maps. `unit(k)` maps data unit `k` (logical bytes
/// `[k·S, k·S+len)`) to `(file, index)`: the unit is the `index`-th
/// `S`-byte unit of `files[file]`, on volume `base + file`. Only the
/// final logical unit may be short, and it is the last one in its file,
/// so within-file unit offsets are exact multiples of `S`.
fn compose(
    fs: &[Ufs],
    base: u32,
    files: &[Ino],
    unit_bytes: u64,
    total: u64,
    unit: impl Fn(u64) -> (u32, u64),
) -> Vec<VolumeExtent> {
    let maps: Vec<Vec<Extent>> = (base..)
        .zip(files)
        .map(|(v, &ino)| fs[v as usize].extent_map(ino))
        .collect();
    let mut out = Vec::new();
    for k in 0..total.div_ceil(unit_bytes) {
        let len = unit_bytes.min(total - k * unit_bytes);
        let (file, index) = unit(k);
        let (lo, hi) = (index * unit_bytes, index * unit_bytes + len);
        for e in &maps[file as usize] {
            let e_lo = e.file_offset;
            let a = lo.max(e_lo);
            let b = hi.min(e_lo + e.nblocks as u64 * 512);
            if a >= b {
                continue;
            }
            out.push(VolumeExtent {
                volume: VolumeId(base + file),
                extent: Extent {
                    file_offset: k * unit_bytes + (a - lo),
                    disk_block: e.disk_block + (a - e_lo) / 512,
                    nblocks: (b - a).div_ceil(512) as u32,
                },
            });
        }
    }
    out
}
