//! Tests of the classic `RsBitVector` body, run against the bitmap that
//! replaced it.
//!
//! The classic two-level `RsBitVector` held the Elias–Fano upper bits
//! (the per-tag sarrays and the text `starts`) until they moved onto
//! [`crate::InterleavedRsBitVector`].  Both types store the same body —
//! the bit length, then the plain words as a length-prefixed `u64` slice —
//! so indexes written before the move load unchanged.  Every bitmap here
//! is therefore built from that body, the way an existing file holds it,
//! and loaded through `InterleavedRsBitVector::read_from`; the tests are
//! the classic type's own, kept under its name.

#[cfg(test)]
fn classic_body(bits: &[bool]) -> Vec<u8> {
    let bv: crate::BitVec = bits.iter().copied().collect();
    let mut body = Vec::new();
    sxsi_io::write_usize(&mut body, bv.len()).unwrap();
    sxsi_io::write_u64_slice(&mut body, bv.words()).unwrap();
    body
}

#[cfg(test)]
fn load(bits: &[bool]) -> crate::InterleavedRsBitVector {
    use sxsi_io::ReadFrom;
    crate::InterleavedRsBitVector::from_bytes(&classic_body(bits)).unwrap()
}

#[cfg(test)]
mod tests {
    use super::{classic_body, load};
    use crate::InterleavedRsBitVector;
    use sxsi_io::{ReadFrom, WriteInto};

    fn build(pattern: impl Iterator<Item = bool>) -> (InterleavedRsBitVector, Vec<bool>) {
        let bits: Vec<bool> = pattern.collect();
        (load(&bits), bits)
    }

    fn check_all(rs: &InterleavedRsBitVector, bits: &[bool]) {
        let mut ones = 0;
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(rs.rank1(i), ones, "rank1({i})");
            assert_eq!(rs.rank0(i), i - ones, "rank0({i})");
            assert_eq!(rs.get(i), b, "get({i})");
            if b {
                ones += 1;
                assert_eq!(rs.select1(ones), Some(i), "select1({ones})");
            } else {
                assert_eq!(rs.select0(i + 1 - ones), Some(i), "select0({})", i + 1 - ones);
            }
        }
        assert_eq!(rs.len(), bits.len());
        assert_eq!(rs.rank1(bits.len()), ones);
        assert_eq!(rs.count_ones(), ones);
        assert_eq!(rs.select1(ones + 1), None);
        assert_eq!(rs.select1(0), None);
        assert_eq!(rs.select0(bits.len() - ones + 1), None);
    }

    #[test]
    fn empty() {
        let (rs, _) = build(std::iter::empty());
        assert_eq!(rs.len(), 0);
        assert_eq!(rs.rank1(0), 0);
        assert_eq!(rs.select1(1), None);
        assert_eq!(rs.select0(1), None);
    }

    #[test]
    fn small_patterns() {
        // Word edges, the classic 512-bit superblock edges and the
        // interleaved 384-bit block edges.
        for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 383, 384, 385, 511, 512, 513, 767, 768, 769, 1000] {
            let (rs, bits) = build((0..n).map(|i| i % 7 == 0 || i % 3 == 1));
            check_all(&rs, &bits);
        }
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let (rs, bits) = build((0..700).map(|_| true));
        check_all(&rs, &bits);
        let (rs, bits) = build((0..700).map(|_| false));
        check_all(&rs, &bits);
    }

    #[test]
    fn sparse_bits() {
        let n = 200_000;
        let (rs, bits) = build((0..n).map(|i| i % 9973 == 0));
        check_all(&rs, &bits);
    }

    #[test]
    fn dense_large() {
        let n = 100_000;
        let (rs, bits) = build((0..n).map(|i| (i * 2654435761usize) % 5 != 0));
        // Spot-check rather than full check for speed.
        let mut ones = 0;
        for (i, &b) in bits.iter().enumerate() {
            if i % 997 == 0 {
                assert_eq!(rs.rank1(i), ones);
            }
            if b {
                ones += 1;
                if ones % 1000 == 0 {
                    assert_eq!(rs.select1(ones), Some(i));
                }
            }
        }
    }

    #[test]
    fn next_one_works() {
        let (rs, _) = build((0..100).map(|i| i == 10 || i == 50 || i == 99));
        assert_eq!(rs.next_one(0), Some(10));
        assert_eq!(rs.next_one(10), Some(10));
        assert_eq!(rs.next_one(11), Some(50));
        assert_eq!(rs.next_one(51), Some(99));
        assert_eq!(rs.next_one(100), None);
    }

    #[test]
    fn serialization_roundtrip_preserves_rank_select() {
        // Loading the classic body and writing it back gives the same bytes.
        for n in [0usize, 1, 383, 384, 385, 511, 512, 513, 5000] {
            let bits: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
            let body = classic_body(&bits);
            let rs = InterleavedRsBitVector::from_bytes(&body).unwrap();
            assert_eq!(rs.to_bytes(), body, "n={n}");
            let back = InterleavedRsBitVector::from_bytes(&rs.to_bytes()).unwrap();
            check_all(&back, &bits);
        }
    }

    #[test]
    fn serialization_rejects_truncation() {
        let bits: Vec<bool> = (0..1000).map(|i| i % 3 == 0).collect();
        let body = classic_body(&bits);
        assert!(InterleavedRsBitVector::from_bytes(&body[..body.len() / 2]).is_err());
        assert!(InterleavedRsBitVector::from_bytes(&body[..body.len() - 1]).is_err());
    }
}

#[cfg(test)]
mod verify_tests {
    use super::load;
    use crate::InterleavedRsBitVector;
    use sxsi_verify::{Verify, VerifyDepth};

    fn sample() -> InterleavedRsBitVector {
        let bits: Vec<bool> = (0..4000).map(|i| i % 5 == 1).collect();
        load(&bits)
    }

    #[test]
    fn clean_bitvector_verifies() {
        let report = sample().verify(VerifyDepth::Deep);
        assert!(report.is_ok(), "{report}");
        assert!(report.checks_run >= 6);
    }

    #[test]
    fn drifted_directories_are_caught() {
        // The directories are rebuilt on load, so drift can only arise in
        // memory; each drifted field must still be reported.
        for (rs, code) in sample().drifted_copies() {
            assert!(rs.verify(VerifyDepth::Quick).has_code(code), "{code}");
        }
    }
}
