//! A QuickTime-flavoured container for the control information.
//!
//! "Usually, this timing information is stored in a control file separate
//! from the continuous media data file." The paper plays QuickTime
//! movies, whose `moov` atom carries per-sample size (`stsz`) and
//! duration (`stts`) tables. This module serializes a [`ChunkTable`] into
//! an atom-structured byte stream, so a control file of the right size
//! can be stored in the UFS next to its media file. The parser lives in
//! the tests, where it checks the writer round trip.
//!
//! Layout (all integers big-endian, atom = `u32 size | 4-byte type`):
//!
//! ```text
//! crsm                       container root
//! ├── shdr  version, chunk count
//! ├── stts  run-length (count, duration_ns) pairs
//! └── stsz  u32 sizes, one per chunk (or a single fixed size)
//! ```

use crate::chunk::ChunkTable;

const VERSION: u8 = 1;

fn push_atom(out: &mut Vec<u8>, kind: &[u8; 4], body: &[u8]) {
    let size = 8 + body.len() as u32;
    out.extend_from_slice(&size.to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(body);
}

/// Serializes a chunk table into `crsm` container bytes.
pub fn encode(table: &ChunkTable) -> Vec<u8> {
    // shdr: version + count.
    let mut shdr = Vec::with_capacity(5);
    shdr.push(VERSION);
    shdr.extend_from_slice(&(table.len() as u32).to_be_bytes());

    // stts: run-length encoded durations.
    let mut runs: Vec<(u32, u64)> = Vec::new();
    for c in table.chunks() {
        let d = c.duration.as_nanos();
        match runs.last_mut() {
            Some((n, dur)) if *dur == d => *n += 1,
            _ => runs.push((1, d)),
        }
    }
    let mut stts = Vec::with_capacity(4 + runs.len() * 12);
    stts.extend_from_slice(&(runs.len() as u32).to_be_bytes());
    for (n, d) in &runs {
        stts.extend_from_slice(&n.to_be_bytes());
        stts.extend_from_slice(&d.to_be_bytes());
    }

    // stsz: fixed-size shortcut (size != 0) or a full table.
    let fixed = table
        .chunks()
        .next()
        .map(|c| c.size)
        .filter(|&s| table.chunks().all(|c| c.size == s));
    let mut stsz = Vec::new();
    match fixed {
        Some(s) if !table.is_empty() => stsz.extend_from_slice(&s.to_be_bytes()),
        _ => {
            stsz.extend_from_slice(&0u32.to_be_bytes());
            for c in table.chunks() {
                stsz.extend_from_slice(&c.size.to_be_bytes());
            }
        }
    }

    let mut body = Vec::new();
    push_atom(&mut body, b"shdr", &shdr);
    push_atom(&mut body, b"stts", &stts);
    push_atom(&mut body, b"stsz", &stsz);
    let mut out = Vec::with_capacity(8 + body.len());
    push_atom(&mut out, b"crsm", &body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_sim::Duration;

    /// Container parse errors.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) enum ContainerError {
        /// Input ended inside an atom.
        Truncated,
        /// An atom's size field is impossible.
        BadAtomSize,
        /// The root is not a `crsm` atom.
        NotAContainer,
        /// A required atom is missing.
        MissingAtom(&'static str),
        /// Version unsupported.
        BadVersion(u8),
        /// Table lengths disagree.
        Inconsistent,
    }

    struct Atom<'a> {
        kind: [u8; 4],
        body: &'a [u8],
    }

    fn parse_atoms(mut data: &[u8]) -> Result<Vec<Atom<'_>>, ContainerError> {
        let mut out = Vec::new();
        while !data.is_empty() {
            if data.len() < 8 {
                return Err(ContainerError::Truncated);
            }
            let size = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
            if size < 8 || size > data.len() {
                return Err(ContainerError::BadAtomSize);
            }
            let kind = [data[4], data[5], data[6], data[7]];
            out.push(Atom {
                kind,
                body: &data[8..size],
            });
            data = &data[size..];
        }
        Ok(out)
    }

    fn be_u32(b: &[u8]) -> Result<u32, ContainerError> {
        b.get(..4)
            .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
            .ok_or(ContainerError::Truncated)
    }

    fn be_u64(b: &[u8]) -> Result<u64, ContainerError> {
        b.get(..8)
            .map(|s| u64::from_be_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
            .ok_or(ContainerError::Truncated)
    }

    /// Parses `crsm` container bytes back into a chunk table.
    fn decode(data: &[u8]) -> Result<ChunkTable, ContainerError> {
        let roots = parse_atoms(data)?;
        let root = roots
            .iter()
            .find(|a| &a.kind == b"crsm")
            .ok_or(ContainerError::NotAContainer)?;
        let atoms = parse_atoms(root.body)?;
        let find = |kind: &'static [u8; 4], name: &'static str| {
            atoms
                .iter()
                .find(|a| &a.kind == kind)
                .map(|a| a.body)
                .ok_or(ContainerError::MissingAtom(name))
        };
        let shdr = find(b"shdr", "shdr")?;
        let version = *shdr.first().ok_or(ContainerError::Truncated)?;
        if version != VERSION {
            return Err(ContainerError::BadVersion(version));
        }
        let count = be_u32(&shdr[1..])? as usize;

        // Durations.
        let stts = find(b"stts", "stts")?;
        let nruns = be_u32(stts)? as usize;
        let mut durations: Vec<Duration> = Vec::with_capacity(count);
        let mut off = 4;
        for _ in 0..nruns {
            let n = be_u32(&stts[off..])?;
            let d = be_u64(&stts[off + 4..])?;
            off += 12;
            for _ in 0..n {
                durations.push(Duration::from_nanos(d));
            }
        }
        if durations.len() != count {
            return Err(ContainerError::Inconsistent);
        }

        // Sizes.
        let stsz = find(b"stsz", "stsz")?;
        let fixed = be_u32(stsz)?;
        let mut sizes: Vec<u32> = Vec::with_capacity(count);
        if fixed != 0 {
            sizes.resize(count, fixed);
        } else {
            let mut off = 4;
            for _ in 0..count {
                sizes.push(be_u32(&stsz[off..])?);
                off += 4;
            }
        }

        Ok(ChunkTable::from_durations_sizes(
            durations.into_iter().zip(sizes),
        ))
    }
    use crate::movie::generate_chunks;
    use crate::rates::StreamProfile;
    use cras_sim::Rng;

    #[test]
    fn cbr_roundtrip_is_compact() {
        let mut rng = Rng::new(1);
        let t = generate_chunks(&StreamProfile::mpeg1(), 10.0, &mut rng);
        let bytes = encode(&t);
        // CBR: one stts run, fixed stsz => tiny control file.
        assert!(bytes.len() < 100, "control file {} bytes", bytes.len());
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.total_bytes(), t.total_bytes());
        assert_eq!(back.total_duration(), t.total_duration());
        assert!(back.chunks().eq(t.chunks()));
    }

    #[test]
    fn vbr_roundtrip_exact() {
        let mut rng = Rng::new(2);
        let t = generate_chunks(&StreamProfile::jpeg_vbr(187_500.0), 5.0, &mut rng);
        let back = decode(&encode(&t)).unwrap();
        assert!(back.chunks().eq(t.chunks()));
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = ChunkTable::default();
        let back = decode(&encode(&t)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let mut rng = Rng::new(3);
        let t = generate_chunks(&StreamProfile::mpeg1(), 1.0, &mut rng);
        let bytes = encode(&t);
        for cut in [1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(
            decode(b"not a movie at all"),
            Err(ContainerError::BadAtomSize)
        );
        // Valid atom structure but wrong root type.
        let mut out = Vec::new();
        push_atom(&mut out, b"free", &[]);
        assert_eq!(decode(&out), Err(ContainerError::NotAContainer));
    }

    #[test]
    fn bad_version_rejected() {
        let mut rng = Rng::new(4);
        let t = generate_chunks(&StreamProfile::mpeg1(), 1.0, &mut rng);
        let mut bytes = encode(&t);
        // shdr version byte lives at root(8) + atom hdr(8) offset.
        bytes[16] = 99;
        assert_eq!(decode(&bytes), Err(ContainerError::BadVersion(99)));
    }
}
