//! Property-style tests on the core data structures and the invariants
//! the paper's design relies on. Each test draws many random cases from a
//! seeded [`Rng`], so the suite is deterministic and needs no third-party
//! property-testing framework.

use cras_repro::core::{
    on_volume, Admission, AdmissionModel, CrasServer, OpenReq, PlacementPolicy, ServerConfig,
    StreamParams, TimeDrivenBuffer,
};
use cras_repro::disk::calibrate::DiskParams;
use cras_repro::disk::cscan::CScanQueue;
use cras_repro::disk::{DiskDevice, DiskRequest, SeekModel, VolumeId};
use cras_repro::media::{generate_chunks, ChunkTable, StreamProfile};
use cras_repro::sim::{Duration, Instant, Rng};
use cras_repro::sys::{MoviePlacement, SysConfig, System};
use cras_repro::ufs::{Extent, MkfsParams, Ufs};

/// C-SCAN never "passes over" a pending request: from any head
/// position, repeatedly popping visits each cylinder group in at most
/// two monotone sweeps.
#[test]
fn cscan_two_sweeps() {
    let mut rng = Rng::new(0xC5CA);
    for case in 0..200 {
        let n = rng.range_inclusive(1, 39) as usize;
        let cyls: Vec<u32> = (0..n).map(|_| rng.below(3000) as u32).collect();
        let head = rng.below(3000) as u32;
        let mut q = CScanQueue::new();
        for &c in &cyls {
            q.push(c, Instant::ZERO, c);
        }
        let mut order = Vec::new();
        let mut h = head;
        while let Some(p) = q.pop_next(h) {
            h = p.cyl;
            order.push(p.cyl);
        }
        assert_eq!(order.len(), cyls.len(), "case {case}");
        // Count direction reversals: at most one wrap.
        let wraps = order.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(wraps <= 1, "case {case}: order {order:?}");
        // Everything before the wrap is >= head.
        if wraps == 1 {
            let wrap_pos = order.windows(2).position(|w| w[1] < w[0]).unwrap();
            for &c in &order[..=wrap_pos] {
                assert!(c >= head, "case {case}");
            }
        }
    }
}

/// Seek models are monotone in distance.
#[test]
fn seek_models_monotone() {
    let mut rng = Rng::new(0x5EEC);
    for _ in 0..500 {
        let d1 = rng.below(3510) as u32;
        let d2 = rng.below(3510) as u32;
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        for m in [
            SeekModel::st32550n_linear(3510),
            SeekModel::st32550n_measured(),
        ] {
            assert!(m.time_secs(lo) <= m.time_secs(hi) + 1e-12);
        }
    }
}

/// The admission test is monotone: adding a stream never reduces the
/// calculated I/O time or the buffer bound.
#[test]
fn admission_monotone() {
    let mut rng = Rng::new(0xAD31);
    let adm = Admission::new(DiskParams::paper_table4(), AdmissionModel::Paper);
    for _ in 0..300 {
        let n = rng.range_inclusive(1, 29) as usize;
        let rate = rng.f64_range(50_000.0, 800_000.0);
        let chunk = rng.f64_range(1_000.0, 50_000.0);
        let s = StreamParams::new(rate, chunk);
        let small = vec![s; n];
        let big = vec![s; n + 1];
        assert!(adm.calculated_io_time(0.5, &big) > adm.calculated_io_time(0.5, &small));
        assert!(adm.buffer_total(0.5, &big) > adm.buffer_total(0.5, &small));
    }
}

/// If a stream set is admitted at interval T, it is admitted at any
/// longer interval (given ample memory) — the paper's
/// longer-delay-more-streams tradeoff.
#[test]
fn admission_interval_monotone() {
    let mut rng = Rng::new(0xAD32);
    let adm = Admission::new(DiskParams::paper_table4(), AdmissionModel::Paper);
    for _ in 0..300 {
        let n = rng.range_inclusive(1, 24) as usize;
        let t = rng.f64_range(0.3, 2.0);
        let streams = vec![StreamParams::new(187_500.0, 6_250.0); n];
        let budget = u64::MAX / 4;
        if adm.admit(t, &streams, budget).is_ok() {
            assert!(adm.admit(t * 1.5, &streams, budget).is_ok());
        }
    }
}

/// Time-driven buffer: `get` returns exactly the chunk whose interval
/// contains the query, for any frame layout.
#[test]
fn tdbuffer_get_matches_linear_scan() {
    let mut rng = Rng::new(0x7DB1);
    for case in 0..200 {
        let n = rng.range_inclusive(1, 39) as usize;
        let durs: Vec<u64> = (0..n).map(|_| rng.range_inclusive(1, 199)).collect();
        let query_ms = rng.below(8000);
        let table =
            ChunkTable::from_durations_sizes(durs.iter().map(|&d| (Duration::from_millis(d), 100)));
        let mut buf = TimeDrivenBuffer::new(table.clone(), 1 << 20, Duration::ZERO);
        assert_eq!(buf.post(0..n as u32, Duration::ZERO), n as u32);
        let q = Duration::from_millis(query_ms);
        let expected = table
            .chunks()
            .find(|c| c.timestamp <= q && q < c.timestamp + c.duration)
            .map(|c| c.index);
        assert_eq!(buf.get(q).map(|c| c.index), expected, "case {case}");
    }
}

/// Time-driven buffer: occupancy equals the sum of surviving chunk
/// sizes after any discard point.
#[test]
fn tdbuffer_occupancy_invariant() {
    let mut rng = Rng::new(0x7DB2);
    for case in 0..200 {
        let n = rng.range_inclusive(1, 49) as u32;
        let discard_ms = rng.below(3000);
        let table =
            ChunkTable::from_durations_sizes((0..n).map(|_| (Duration::from_millis(100), 500)));
        let mut buf = TimeDrivenBuffer::new(table, 1 << 20, Duration::ZERO);
        assert_eq!(buf.post(0..n, Duration::ZERO), n);
        buf.discard_obsolete(Duration::from_millis(discard_ms));
        let surviving = (0..n).filter(|&i| i as u64 * 100 >= discard_ms).count() as u64;
        assert_eq!(buf.bytes(), surviving * 500, "case {case}");
        assert_eq!(buf.len() as u64, surviving, "case {case}");
    }
}

/// UFS extent maps exactly cover every file, in order, without
/// overlap, under arbitrary interleaved append patterns.
#[test]
fn extent_map_covers_file() {
    let mut rng = Rng::new(0xE47E);
    for case in 0..30 {
        let n = rng.range_inclusive(1, 29) as usize;
        let appends: Vec<(usize, u64)> = (0..n)
            .map(|_| (rng.below(3) as usize, rng.range_inclusive(1, 199_999)))
            .collect();
        let geom = cras_repro::disk::DiskGeometry::st32550n();
        let mut fs = Ufs::format(&geom, MkfsParams::tuned(&geom), 99);
        let inos = [
            fs.create("f0").unwrap(),
            fs.create("f1").unwrap(),
            fs.create("f2").unwrap(),
        ];
        for &(which, bytes) in &appends {
            fs.append(inos[which], bytes).unwrap();
        }
        for &ino in &inos {
            let size = fs.file_size(ino);
            let extents = fs.extent_map(ino);
            let mapped: u64 = extents.iter().map(|e| e.bytes()).sum();
            // Extent maps are block-granular.
            assert_eq!(mapped, size.div_ceil(8192) * 8192, "case {case}");
            let mut off = 0;
            for e in &extents {
                assert_eq!(e.file_offset, off, "case {case}");
                off += e.bytes();
            }
            // No two extents overlap on disk.
            let mut ranges: Vec<(u64, u64)> = extents
                .iter()
                .map(|e| (e.disk_block, e.disk_block + e.nblocks as u64))
                .collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(w[0].1 <= w[1].0, "case {case}: overlapping extents");
            }
        }
    }
}

/// The disk device conserves requests: everything submitted is
/// eventually completed exactly once, regardless of class mix.
#[test]
fn disk_conserves_requests() {
    let mut rng = Rng::new(0xD15C);
    for case in 0..100 {
        let n = rng.range_inclusive(1, 59) as usize;
        let reqs: Vec<(u64, u32, bool)> = (0..n)
            .map(|_| {
                (
                    rng.below(4_000_000),
                    rng.range_inclusive(1, 63) as u32,
                    rng.chance(0.5),
                )
            })
            .collect();
        let mut dev: DiskDevice<usize> = DiskDevice::st32550n();
        let mut completions = vec![0u32; reqs.len()];
        let mut now = Instant::ZERO;
        let mut pending_event: Option<Instant> = None;
        for (i, &(block, len, rt)) in reqs.iter().enumerate() {
            let req = if rt {
                DiskRequest::rt_read(block, len, i)
            } else {
                DiskRequest::read(block, len, i)
            };
            if let Some(t) = dev.submit(now, req) {
                pending_event = Some(t);
            }
        }
        while let Some(t) = pending_event {
            now = t;
            let (done, next) = dev.complete(now);
            completions[done.req.tag] += 1;
            pending_event = next;
        }
        assert!(
            completions.iter().all(|&c| c == 1),
            "case {case}: {completions:?}"
        );
        let (rt, normal) = dev.stats().ops;
        assert_eq!((rt + normal) as usize, reqs.len(), "case {case}");
    }
}

/// Any sequence of create/append/remove operations leaves the file
/// system fsck-clean: no leaks, no double references, no references
/// to free blocks.
#[test]
fn fs_stays_consistent_under_random_ops() {
    let mut rng = Rng::new(0xF5C);
    for case in 0..30 {
        let n = rng.range_inclusive(1, 39) as usize;
        let ops: Vec<(u8, usize, u64)> = (0..n)
            .map(|_| {
                (
                    rng.below(3) as u8,
                    rng.below(4) as usize,
                    rng.range_inclusive(1, 2_999_999),
                )
            })
            .collect();
        let geom = cras_repro::disk::DiskGeometry::st32550n();
        let mut fs = Ufs::format(&geom, MkfsParams::stock(&geom), 41);
        let names = ["a", "b", "c", "d"];
        for &(op, which, bytes) in &ops {
            let name = names[which];
            match op {
                0 => {
                    let _ = fs.create(name);
                }
                1 => {
                    if let Ok(ino) = fs.lookup(name) {
                        let _ = fs.append(ino, bytes);
                    }
                }
                _ => {
                    let _ = fs.remove(name);
                }
            }
        }
        let rep = cras_repro::ufs::check(&fs, true);
        assert!(rep.is_clean(), "case {case}: {:?}", rep.errors);
    }
}

/// Fragmenting and rearranging movies never corrupts the file system.
#[test]
fn fragment_cycle_stays_consistent() {
    let mut outer = Rng::new(0xF4A6);
    for case in 0..10 {
        let severity = outer.f64_range(0.05, 1.0);
        let secs = outer.f64_range(2.0, 20.0);
        let geom = cras_repro::disk::DiskGeometry::st32550n();
        let mut fs = Ufs::format(&geom, MkfsParams::tuned(&geom), 43);
        let mut rng = Rng::new(44);
        let movie = cras_repro::media::record_movie(
            &mut fs,
            "m",
            cras_repro::media::StreamProfile::mpeg1(),
            secs,
            &mut rng,
        )
        .unwrap();
        let fragged =
            cras_repro::media::fragment_movie(&mut fs, &movie, severity, &mut rng).unwrap();
        let rep = cras_repro::ufs::check(&fs, true);
        assert!(
            rep.is_clean(),
            "case {case} after fragment: {:?}",
            rep.errors
        );
        let _fixed = cras_repro::media::rearrange_movie(&mut fs, &fragged).unwrap();
        let rep = cras_repro::ufs::check(&fs, true);
        assert!(
            rep.is_clean(),
            "case {case} after rearrange: {:?}",
            rep.errors
        );
    }
}

/// Movie placement over the volume set is a pure function of the seed:
/// two systems built alike place every movie on the same volume and
/// inode, and round-robin deals movies cyclically.
#[test]
fn volume_placement_is_deterministic() {
    let mut outer = Rng::new(0xB011);
    for case in 0..5 {
        let volumes = outer.range_inclusive(1, 4) as usize;
        let seed = outer.next_u64();
        let movies = outer.range_inclusive(3, 9) as usize;
        let build = || {
            let mut cfg = SysConfig {
                seed,
                ..SysConfig::default()
            };
            cfg.server.volumes = volumes;
            let mut sys = System::new(cfg);
            for i in 0..movies {
                sys.record_movie(&format!("m{i}.mov"), StreamProfile::mpeg1(), 2.0);
            }
            sys
        };
        let (a, b) = (build(), build());
        for i in 0..movies {
            let name = format!("m{i}.mov");
            let whole = |sys: &System| match sys.placement(&name) {
                Some(MoviePlacement::Whole { vol, ino }) => (*vol, *ino),
                p => panic!("case {case}: expected whole placement, got {p:?}"),
            };
            assert_eq!(whole(&a), whole(&b), "case {case} movie {i}");
            assert_eq!(whole(&a).0 as usize, i % volumes, "case {case} movie {i}");
        }
    }
}

/// The per-volume admission test keeps every spindle — in particular
/// the bottleneck one — within its interval: after admitting streams
/// until rejection and playing them, no interval's calculated I/O time
/// exceeds `T` on any volume.
#[test]
fn per_volume_admission_bounds_bottleneck_interval() {
    let mut outer = Rng::new(0xAD33);
    for case in 0..3 {
        let volumes = outer.range_inclusive(1, 3) as usize;
        let mut cfg = SysConfig {
            seed: outer.next_u64(),
            ..SysConfig::default()
        };
        cfg.server.volumes = volumes;
        cfg.server.buffer_budget = 1 << 40;
        let t = cfg.server.interval;
        let mut sys = System::new(cfg);
        let mut players = Vec::new();
        for i in 0..(16 * volumes + 8) {
            let m = sys.record_movie(&format!("p{i}.mov"), StreamProfile::mpeg1(), 4.0);
            match sys.add_cras_player(&m, 1) {
                Ok(c) => players.push(c),
                Err(_) => break,
            }
        }
        assert!(
            players.len() >= 10 * volumes,
            "case {case}: {volumes} volumes admitted only {}",
            players.len()
        );
        let mut start = Instant::ZERO;
        for &c in &players {
            start = sys.start_playback(c).max(start);
        }
        sys.run_until(start + Duration::from_secs(2));
        let mut seen = vec![false; volumes];
        for io in sys.metrics.intervals() {
            assert!(
                io.calculated <= t.as_secs_f64() + 1e-9,
                "case {case}: volume {} calculated {} exceeds interval",
                io.volume,
                io.calculated
            );
            seen[io.volume as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "case {case}: some volume saw no real-time I/O: {seen:?}"
        );
    }
}

/// Closing a stream frees admission capacity on the volume it was
/// reading from — and on no other volume.
#[test]
fn closing_stream_frees_capacity_on_its_volume() {
    let mut rng = Rng::new(0xC105);
    for case in 0..5 {
        let secs = rng.f64_range(2.0, 8.0);
        let cfg = ServerConfig {
            volumes: 2,
            buffer_budget: u64::MAX / 4,
            ..ServerConfig::default()
        };
        let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
        let table = generate_chunks(&StreamProfile::mpeg1(), secs, &mut rng);
        let extents = |vol: u32| {
            on_volume(
                VolumeId(vol),
                vec![Extent {
                    file_offset: 0,
                    disk_block: 0,
                    nblocks: table.total_bytes().div_ceil(512) as u32,
                }],
            )
        };
        // Fill volume 0 to rejection.
        let mut on0 = Vec::new();
        while let Ok(id) = srv.open(OpenReq::new("v0", table.clone(), extents(0))) {
            on0.push(id);
        }
        assert!(on0.len() >= 2, "case {case}");
        // Volume 1 is untouched: a stream there still admits, and its
        // admission does not consume volume-0 capacity.
        let on1 = srv
            .open(OpenReq::new("v1", table.clone(), extents(1)))
            .expect("volume 1 has free capacity");
        assert!(srv
            .open(OpenReq::new("x", table.clone(), extents(0)))
            .is_err());
        // Closing the volume-1 stream frees nothing on volume 0 ...
        srv.close(on1);
        assert!(srv
            .open(OpenReq::new("x", table.clone(), extents(0)))
            .is_err());
        // ... but closing a volume-0 stream frees exactly one slot there.
        let victim = rng.below(on0.len() as u64) as usize;
        srv.close(on0.swap_remove(victim));
        srv.open(OpenReq::new("x", table.clone(), extents(0)))
            .expect("closing a volume-0 stream frees volume-0 capacity");
        assert!(srv
            .open(OpenReq::new("y", table.clone(), extents(0)))
            .is_err());
    }
}

/// Mirrored placement never co-locates a replica with its primary, and
/// once a volume has failed neither replica of a new movie lands there.
#[test]
fn mirrored_placement_never_colocates() {
    let mut outer = Rng::new(0x31AA);
    for case in 0..5 {
        let volumes = outer.range_inclusive(3, 5) as usize;
        let mut cfg = SysConfig {
            seed: outer.next_u64(),
            ..SysConfig::default()
        };
        cfg.server.volumes = volumes;
        cfg.server.placement = PlacementPolicy::Mirrored;
        let mut sys = System::new(cfg);
        let movies = outer.range_inclusive(2, 6) as usize;
        let check = |sys: &System, name: &str, dead: Option<u32>| match sys.placement(name) {
            Some(MoviePlacement::Mirrored {
                primary, mirror, ..
            }) => {
                assert_ne!(primary, mirror, "case {case}: {name} colocated");
                if let Some(d) = dead {
                    assert_ne!(*primary, d, "case {case}: {name} placed on dead volume");
                    assert_ne!(*mirror, d, "case {case}: {name} mirrored to dead volume");
                }
            }
            p => panic!("case {case}: expected mirrored placement, got {p:?}"),
        };
        for i in 0..movies {
            let name = format!("m{i}.mov");
            sys.record_movie(&name, StreamProfile::mpeg1(), 2.0);
            check(&sys, &name, None);
        }
        let dead = outer.below(volumes as u64) as u32;
        sys.fail_volume(dead);
        for i in 0..movies {
            let name = format!("r{i}.mov");
            sys.record_movie(&name, StreamProfile::mpeg1(), 2.0);
            check(&sys, &name, Some(dead));
        }
    }
}

/// Degraded-mode admission capacity is monotone: each additional volume
/// failure can only shrink the number of mirrored streams admitted, and
/// marking every volume healthy again restores the original count
/// exactly.
#[test]
fn degraded_capacity_monotone_and_restored() {
    let mut outer = Rng::new(0xDE64);
    for case in 0..5 {
        let volumes = outer.range_inclusive(3, 5) as usize;
        let secs = outer.f64_range(2.0, 6.0);
        let mut rng = Rng::new(outer.next_u64());
        let table = generate_chunks(&StreamProfile::mpeg1(), secs, &mut rng);
        let nb = table.total_bytes().div_ceil(512) as u32;
        let rep = |vol: u32, blk: u64| {
            on_volume(
                VolumeId(vol),
                vec![Extent {
                    file_offset: 0,
                    disk_block: blk,
                    nblocks: nb,
                }],
            )
        };
        let cfg = ServerConfig {
            volumes,
            buffer_budget: u64::MAX / 4,
            ..ServerConfig::default()
        };
        let count = |failed: &[u32]| -> usize {
            let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
            for &v in failed {
                srv.set_volume_failed(VolumeId(v), true);
            }
            let live: Vec<u32> = (0..volumes as u32)
                .filter(|v| !failed.contains(v))
                .collect();
            let mut n = 0usize;
            loop {
                let p = live[n % live.len()];
                let m = live[(n + 1) % live.len()];
                let open = srv.open(OpenReq {
                    mirror: Some(rep(m, 1_000_000)),
                    ..OpenReq::new(&format!("s{n}"), table.clone(), rep(p, 0))
                });
                match open {
                    Ok(_) => n += 1,
                    Err(_) => break,
                }
            }
            n
        };
        let full = count(&[]);
        assert!(full >= 2, "case {case}: only {full} mirrored streams fit");
        let mut failed: Vec<u32> = Vec::new();
        let mut prev = full;
        while volumes - failed.len() > 2 {
            let victim = loop {
                let v = outer.below(volumes as u64) as u32;
                if !failed.contains(&v) {
                    break v;
                }
            };
            failed.push(victim);
            let c = count(&failed);
            assert!(
                c <= prev,
                "case {case}: capacity grew {prev} -> {c} after failing {failed:?}"
            );
            prev = c;
        }
        assert_eq!(count(&[]), full, "case {case}: capacity not restored");
    }
}

/// A completed rebuild releases admission capacity back to exactly the
/// pre-failure admit count: a system that lost and rebuilt a volume
/// admits the same number of mirrored streams as an identical system
/// that never failed.
#[test]
fn rebuild_restores_exact_admit_count() {
    let mut outer = Rng::new(0x4EB1);
    for case in 0..2 {
        let volumes = outer.range_inclusive(3, 4) as usize;
        let seed = outer.next_u64();
        let victim = outer.below(volumes as u64) as u32;
        let build = || {
            let mut cfg = SysConfig {
                seed,
                ..SysConfig::default()
            };
            cfg.server.volumes = volumes;
            cfg.server.placement = PlacementPolicy::Mirrored;
            cfg.server.buffer_budget = 1 << 40;
            let mut sys = System::new(cfg);
            let movies: Vec<_> = (0..16 * volumes)
                .map(|i| sys.record_movie(&format!("m{i}.mov"), StreamProfile::mpeg1(), 4.0))
                .collect();
            (sys, movies)
        };
        let admit_count = |sys: &mut System, movies: &[cras_repro::media::Movie]| {
            movies
                .iter()
                .take_while(|m| sys.add_cras_player(m, 1).is_ok())
                .count()
        };
        let (mut control, cm) = build();
        let (mut sys, sm) = build();
        sys.fail_volume(victim);
        sys.try_attach_replacement(victim)
            .expect("attach replacement");
        let mut guard = 0;
        while sys.rebuild_active() && guard < 600 {
            sys.run_for(Duration::from_secs(1));
            guard += 1;
        }
        assert!(!sys.rebuild_active(), "case {case}: rebuild never finished");
        let healthy = admit_count(&mut control, &cm);
        let rebuilt = admit_count(&mut sys, &sm);
        assert!(healthy >= volumes, "case {case}: only {healthy} admitted");
        assert_eq!(
            rebuilt, healthy,
            "case {case}: rebuild did not restore capacity"
        );
    }
}

/// A cache-served follower receives byte-identical data to a
/// disk-served run: with the interval cache on, the follower's buffer
/// holds exactly the same chunk (index, size) at every media position
/// as the identical run with the cache off — only the data path
/// changed, never the data or its timing.
#[test]
fn cache_served_follower_gets_byte_identical_data() {
    let mut outer = Rng::new(0xCAFE);
    for case in 0..5 {
        let secs = outer.f64_range(15.0, 25.0);
        let follow_tick = outer.range_inclusive(4, 8);
        let seed = outer.next_u64();
        let run = |budget: u64| {
            let mut rng = Rng::new(seed);
            let table = generate_chunks(&StreamProfile::mpeg1(), secs, &mut rng);
            let extents = vec![Extent {
                file_offset: 0,
                disk_block: 10_000,
                nblocks: table.total_bytes().div_ceil(512) as u32,
            }];
            let cfg = ServerConfig {
                cache_budget: budget,
                buffer_budget: 16 << 20,
                ..ServerConfig::default()
            };
            let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
            let leader = srv
                .open(OpenReq::single("m", table.clone(), extents.clone()))
                .unwrap();
            srv.start(leader, Instant::ZERO);
            let mut follower = None;
            let mut begin = Instant::ZERO;
            let mut log = Vec::new();
            for k in 0..40u64 {
                let now = Instant::ZERO + Duration::from_millis(k * 500);
                if follower.is_none() && k == follow_tick {
                    let id = srv
                        .open(OpenReq::single("m", table.clone(), extents.clone()))
                        .unwrap();
                    begin = srv.start(id, now);
                    follower = Some(id);
                }
                let rep = srv.interval_tick(now);
                assert!(!rep.overran, "case {case} tick {k}");
                for r in &rep.reqs {
                    srv.io_done(r);
                }
                // What the follower's client would consume right now.
                if let Some(f) = follower {
                    if now >= begin {
                        let media = now.since(begin);
                        log.push(srv.get(f, media).map(|c| (c.index, c.size)));
                    }
                }
            }
            let hits = srv.cache().stats().hit_bytes;
            (log, hits)
        };
        let (disk_log, no_hits) = run(0);
        let (cache_log, hits) = run(64 << 20);
        assert_eq!(no_hits, 0, "case {case}");
        assert!(hits > 0, "case {case}: follower was never cache-fed");
        assert!(
            disk_log.iter().any(|e| e.is_some()),
            "case {case}: follower never consumed anything"
        );
        assert_eq!(disk_log, cache_log, "case {case}");
    }
}

/// Cache-admitted stream count is monotone in the cache budget: the
/// same Zipf arrival sequence never admits fewer viewers (total or
/// cache-admitted) at a larger budget.
#[test]
fn cache_admissions_monotone_in_budget() {
    let mut outer = Rng::new(0xCAB0);
    for case in 0..3 {
        let b1 = outer.below(32) << 20;
        let b2 = b1 + ((1 + outer.below(32)) << 20);
        let (_t, _f, outs) = cras_repro::workload::cache_sharing::sweep(
            &[b1, b2],
            18,
            8,
            Duration::from_millis(1500),
            Duration::from_secs(6),
            outer.next_u64(),
        );
        assert!(
            outs[1].admitted >= outs[0].admitted
                && outs[1].cache_admitted >= outs[0].cache_admitted,
            "case {case}: not monotone {outs:?}"
        );
        for o in &outs {
            assert_eq!(o.dropped, 0, "case {case}: {o:?}");
            assert_eq!(o.overruns, 0, "case {case}: {o:?}");
        }
    }
}

/// When the leader stops, followers degrade to disk admission without
/// drops when capacity allows: the interval breaks, the follower reads
/// from the spindle again, and no deadline is ever missed.
#[test]
fn leader_stop_degrades_follower_to_disk_without_drops() {
    let mut outer = Rng::new(0xDE6A);
    for case in 0..5 {
        let stop_tick = outer.range_inclusive(8, 14);
        let seed = outer.next_u64();
        let mut rng = Rng::new(seed);
        let table = generate_chunks(&StreamProfile::mpeg1(), 25.0, &mut rng);
        let extents = vec![Extent {
            file_offset: 0,
            disk_block: 10_000,
            nblocks: table.total_bytes().div_ceil(512) as u32,
        }];
        let cfg = ServerConfig {
            cache_budget: 8 << 20,
            buffer_budget: 16 << 20,
            ..ServerConfig::default()
        };
        let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
        let leader = srv
            .open(OpenReq::single("m", table.clone(), extents.clone()))
            .unwrap();
        srv.start(leader, Instant::ZERO);
        let mut follower = None;
        let mut follower_reqs = 0usize;
        for k in 0..36u64 {
            let now = Instant::ZERO + Duration::from_millis(k * 500);
            if k == 6 {
                let id = srv
                    .open(OpenReq::single("m", table.clone(), extents.clone()))
                    .expect("disk has room for the follower");
                assert!(
                    srv.stream(id).cache_state.is_cached(),
                    "case {case}: follower not cache-fed"
                );
                srv.start(id, now);
                follower = Some(id);
            }
            if k == stop_tick {
                srv.stop(leader, now);
            }
            let rep = srv.interval_tick(now);
            assert!(!rep.overran, "case {case} tick {k}: deadline missed");
            for r in &rep.reqs {
                if Some(r.stream) == follower {
                    follower_reqs += 1;
                }
                srv.io_done(r);
            }
        }
        let f = follower.unwrap();
        assert!(
            !srv.stream(f).cache_state.is_cached(),
            "case {case}: interval never broke"
        );
        assert!(srv.cache().stats().interval_breaks >= 1, "case {case}");
        assert!(
            follower_reqs > 0,
            "case {case}: follower never fell back to disk reads"
        );
        assert_eq!(srv.cache().pinned_frames(), 0, "case {case}: leaked pins");
    }
}

/// No departing stream leaks pins: after every follower has stopped,
/// sought far away, or closed, the pinned-frame count and the cache
/// reservation ledger both return to zero in the same call — not at
/// some later eviction sweep.
#[test]
fn follower_departure_never_leaks_pins() {
    let mut outer = Rng::new(0xF1A5);
    for case in 0..10 {
        let n_followers = outer.range_inclusive(1, 3) as usize;
        let ops: Vec<u64> = (0..n_followers).map(|_| outer.below(3)).collect();
        let seed = outer.next_u64();
        let mut rng = Rng::new(seed);
        let table = generate_chunks(&StreamProfile::mpeg1(), 25.0, &mut rng);
        let extents = vec![Extent {
            file_offset: 0,
            disk_block: 10_000,
            nblocks: table.total_bytes().div_ceil(512) as u32,
        }];
        let cfg = ServerConfig {
            cache_budget: 16 << 20,
            buffer_budget: 16 << 20,
            ..ServerConfig::default()
        };
        let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
        let leader = srv
            .open(OpenReq::single("m", table.clone(), extents.clone()))
            .unwrap();
        srv.start(leader, Instant::ZERO);
        let mut followers = Vec::new();
        let mut now = Instant::ZERO;
        for k in 0..14u64 {
            now = Instant::ZERO + Duration::from_millis(k * 500);
            if k >= 6 && followers.len() < n_followers && k % 2 == 0 {
                let id = srv
                    .open(OpenReq::single("m", table.clone(), extents.clone()))
                    .unwrap();
                srv.start(id, now);
                followers.push(id);
            }
            let rep = srv.interval_tick(now);
            for r in &rep.reqs {
                srv.io_done(r);
            }
        }
        assert!(
            srv.cache().pinned_frames() > 0,
            "case {case}: no pins to test"
        );
        // Every follower departs by a random route; none may leave a
        // pin or a reservation behind.
        let far = Duration::from_secs_f64(table.total_duration().as_secs_f64() * 0.9);
        for (i, &id) in followers.iter().enumerate() {
            match ops[i] {
                0 => srv.stop(id, now),
                1 => srv.seek(id, now, far),
                _ => srv.close(id),
            }
        }
        assert_eq!(srv.cache().pinned_frames(), 0, "case {case}: leaked pins");
        assert_eq!(srv.cache().reserved(), 0, "case {case}: leaked reservation");
    }
}

/// DESIGN §16: with a zero cache budget the popularity machinery —
/// hot-set tracking, prefix residency, deferred admission — must be
/// completely inert. A full system run with the manager switched on
/// but no memory to pin stays bit-identical to the default (uncached)
/// configuration: same canonical metrics, same event count.
#[test]
fn zero_cache_budget_is_bit_identical_to_uncached() {
    let run = |manager_on: bool| {
        let mut cfg = SysConfig {
            seed: 0x0CAC,
            ..SysConfig::default()
        };
        if manager_on {
            cfg.server.cache_budget = 0;
            cfg.server.prefix_secs = Duration::from_secs(5);
            cfg.server.hot_set = 4;
        }
        let mut sys = System::new(cfg);
        let a = sys.record_movie("a.mov", StreamProfile::mpeg1(), 6.0);
        let b = sys.record_movie("b.mov", StreamProfile::mpeg1(), 6.0);
        let clients: Vec<_> = [&a, &a, &b]
            .iter()
            .map(|m| sys.add_cras_player(m, 1).expect("admission"))
            .collect();
        for c in clients {
            sys.start_playback(c);
        }
        sys.run_for(Duration::from_secs(10));
        (sys.metrics.canonical_json(), sys.engine.dispatched())
    };
    assert_eq!(run(false), run(true));
}

/// Deterministic RNG forks never correlate with their parent stream.
#[test]
fn rng_forks_are_decorrelated() {
    let mut seeds = Rng::new(0x5EED);
    for _ in 0..200 {
        let seed = seeds.next_u64();
        let mut parent = Rng::new(seed);
        let mut child = parent.fork();
        let matches = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(matches < 3, "seed {seed}");
    }
}
