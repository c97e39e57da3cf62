//! A growable plain bitvector used as a construction buffer.
//!
//! [`BitVec`] is the mutable counterpart of
//! [`crate::InterleavedRsBitVector`]: the XML parser and the index builders
//! push bits (parentheses, leaf markers, wavelet-tree levels) into a
//! `BitVec` and then freeze it into the static rank/select structure.

use crate::bits::ceil_div;
use crate::SpaceUsage;
use sxsi_io::{corrupt, read_u64_vec, read_usize, write_u64_slice, write_usize, IoError, ReadFrom, WriteInto};

/// A simple append-friendly bitvector backed by `u64` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bitvector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bitvector with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self { words: Vec::with_capacity(ceil_div(bits, 64)), len: 0 }
    }

    /// Creates a bitvector of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let mut words = vec![word; ceil_div(len, 64)];
        if value && len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Self { words, len }
    }

    /// Number of bits stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitvector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let offset = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << offset;
        }
        self.len += 1;
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range (len {})", self.len);
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit at `index` to `bit`.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(index < self.len, "bit index {index} out of range (len {})", self.len);
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Underlying words (the last word may contain unused high bits = 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bv = BitVec::new();
        for bit in iter {
            bv.push(bit);
        }
        bv
    }
}

impl SpaceUsage for BitVec {
    fn size_bytes(&self) -> usize {
        crate::slice_bytes(&self.words)
    }
}

impl WriteInto for BitVec {
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_usize(w, self.len)?;
        write_u64_slice(w, &self.words)
    }
}

impl ReadFrom for BitVec {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let len = read_usize(r)?;
        let words = read_u64_vec(r)?;
        if words.len() != ceil_div(len, 64) {
            return Err(corrupt(format!(
                "BitVec of {len} bits needs {} words, found {}",
                ceil_div(len, 64),
                words.len()
            )));
        }
        if len % 64 != 0 {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(corrupt("BitVec has non-zero bits past its length"));
                }
            }
        }
        Ok(Self { words, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bv = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
        assert_eq!(bv.count_ones(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn set_overwrites() {
        let mut bv = BitVec::filled(130, false);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        assert_eq!(bv.count_ones(), 3);
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn filled_true_trims_last_word() {
        let bv = BitVec::filled(70, true);
        assert_eq!(bv.count_ones(), 70);
        assert_eq!(bv.len(), 70);
    }

    #[test]
    fn from_iterator_roundtrip() {
        let bits = vec![true, false, true, true, false];
        let bv: BitVec = bits.iter().copied().collect();
        let back: Vec<bool> = bv.iter().collect();
        assert_eq!(bits, back);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = BitVec::filled(10, false);
        bv.get(10);
    }

    #[test]
    fn serialization_roundtrip() {
        for n in [0usize, 1, 63, 64, 65, 500] {
            let bv: BitVec = (0..n).map(|i| i % 5 == 2).collect();
            let back = BitVec::from_bytes(&bv.to_bytes()).unwrap();
            assert_eq!(bv, back, "len {n}");
        }
    }

    #[test]
    fn serialization_rejects_bad_payloads() {
        let bv: BitVec = (0..70).map(|i| i % 2 == 0).collect();
        let bytes = bv.to_bytes();
        // Truncated.
        assert!(BitVec::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Wrong word count: claim 128 bits but keep 2 words' payload intact.
        let mut wrong = bytes.clone();
        wrong[0] = 200;
        assert!(BitVec::from_bytes(&wrong).is_err());
        // Non-zero trailing bits.
        let mut dirty = bytes.clone();
        *dirty.last_mut().unwrap() = 0x80;
        assert!(BitVec::from_bytes(&dirty).is_err());
    }
}
