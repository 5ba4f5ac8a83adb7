//! XOR erasure codec for rotating-parity stripe groups.
//!
//! A parity group of `g` volumes stores, per stripe row, `g-1` data units
//! and one parity unit that is the byte-wise XOR of the data units. Any
//! single lost unit — data or parity — is the XOR of the `g-1` survivors.
//! Units shorter than the stripe size (the tail of a movie) behave as if
//! zero-padded to full length: XOR with zero is the identity, so short
//! units simply contribute nothing beyond their own length.
//!
//! The simulation core is data-free (it moves byte *counts*, not bytes),
//! so this codec is the byte-level ground truth: the degraded-read and
//! rebuild paths are exercised against it ([`parity_of`] and the
//! test-only `reconstruct`) in tests to show reconstruction is
//! byte-identical.

/// XOR `unit` into `acc`. `unit` may be shorter than `acc` (implicit
/// zero padding); it must not be longer.
pub fn xor_into(acc: &mut [u8], unit: &[u8]) {
    assert!(
        unit.len() <= acc.len(),
        "unit ({} bytes) longer than accumulator ({} bytes)",
        unit.len(),
        acc.len()
    );
    for (a, b) in acc.iter_mut().zip(unit) {
        *a ^= *b;
    }
}

/// Parity unit of a stripe row: the byte-wise XOR of all data units,
/// zero-padded to `len` (the stripe unit size).
pub fn parity_of(units: &[&[u8]], len: usize) -> Vec<u8> {
    let mut acc = vec![0u8; len];
    for u in units {
        xor_into(&mut acc, u);
    }
    acc
}

/// Reconstruct a lost unit of length `len` from the surviving data units
/// and the row's parity unit. XOR is its own inverse, so this is the same
/// fold as [`parity_of`] with the parity unit included.
#[cfg(test)]
fn reconstruct(survivors: &[&[u8]], parity: &[u8], len: usize) -> Vec<u8> {
    let mut acc = vec![0u8; len];
    xor_into(&mut acc, &parity[..len.min(parity.len())]);
    for u in survivors {
        xor_into(&mut acc, &u[..len.min(u.len())]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (no external RNG in tests).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn any_single_lost_unit_reconstructs_byte_identical() {
        let unit = 4096;
        for (g, seed) in [(2usize, 1u64), (3, 2), (4, 3), (8, 4)] {
            // g-1 data units, the last one short (movie tail).
            let mut data: Vec<Vec<u8>> = (0..g - 1)
                .map(|i| noise(seed * 100 + i as u64, unit))
                .collect();
            let tail = unit / 3 + 1;
            data.last_mut().unwrap().truncate(tail);

            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = parity_of(&refs, unit);

            for (lost, unit_bytes) in data.iter().enumerate() {
                let survivors: Vec<&[u8]> = refs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != lost)
                    .map(|(_, r)| *r)
                    .collect();
                let got = reconstruct(&survivors, &parity, unit_bytes.len());
                assert_eq!(&got, unit_bytes, "g={g} lost data unit {lost}");
            }

            // Losing the parity unit: re-encode from the data units.
            assert_eq!(parity_of(&refs, unit), parity, "g={g} parity re-encode");
        }
    }

    #[test]
    fn reconstruction_of_zero_padded_tail_is_zeros() {
        // A range beyond every survivor's length XORs to zero — the
        // degraded-read path relies on this when the last row is short.
        let a = noise(9, 1000);
        let parity = parity_of(&[&a], 4096);
        let got = reconstruct(&[], &parity, 4096);
        assert_eq!(&got[..1000], &a[..]);
        assert!(got[1000..].iter().all(|&b| b == 0));
    }
}
