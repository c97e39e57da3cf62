//! Fixed-width packed integer arrays.
//!
//! The SXSI tag sequence stores `2t` distinct opening/closing tag codes using
//! `ceil(log2(2t))` bits per entry (Section 4.1.2 of the paper); locate
//! samples and document offsets use the same representation.  [`IntVector`]
//! provides constant-time read access to such packed arrays.

use crate::bits::{bits_for, ceil_div};
use crate::SpaceUsage;
use sxsi_io::{corrupt, read_u32, read_u64_vec, read_usize, write_u32, write_u64_slice, write_usize, IoError, ReadFrom, WriteInto};

/// An immutable-width, mutable-content packed array of unsigned integers.
#[derive(Clone, Debug, Default)]
pub struct IntVector {
    words: Vec<u64>,
    width: u32,
    len: usize,
}

impl IntVector {
    /// Creates a vector of `len` zero entries of `width` bits each.
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(len: usize, width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64, got {width}");
        let total_bits = len.checked_mul(width as usize).expect("IntVector size overflow");
        Self { words: vec![0; ceil_div(total_bits, 64)], width, len }
    }

    /// Builds a packed vector from `values`, choosing the minimal width that
    /// fits the maximum value.
    pub fn from_values(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = bits_for(max);
        let mut v = Self::new(values.len(), width);
        for (i, &x) in values.iter().enumerate() {
            v.set(i, x);
        }
        v
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width in bits of each entry.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Reads entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of range (len {})", self.len);
        let bit = i * self.width as usize;
        let word = bit / 64;
        let offset = (bit % 64) as u32;
        let mask = if self.width == 64 { u64::MAX } else { (1u64 << self.width) - 1 };
        let lo = self.words[word] >> offset;
        if offset + self.width <= 64 {
            lo & mask
        } else {
            let hi = self.words[word + 1] << (64 - offset);
            (lo | hi) & mask
        }
    }

    /// Writes entry `i`.
    ///
    /// # Panics
    /// Panics (in debug) if `value` does not fit in the configured width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        debug_assert!(i < self.len, "index {i} out of range (len {})", self.len);
        let mask = if self.width == 64 { u64::MAX } else { (1u64 << self.width) - 1 };
        debug_assert!(value <= mask, "value {value} does not fit in {} bits", self.width);
        let value = value & mask;
        let bit = i * self.width as usize;
        let word = bit / 64;
        let offset = (bit % 64) as u32;
        self.words[word] &= !(mask << offset);
        self.words[word] |= value << offset;
        if offset + self.width > 64 {
            let spill = offset + self.width - 64;
            let hi_mask = (1u64 << spill) - 1;
            self.words[word + 1] &= !hi_mask;
            self.words[word + 1] |= value >> (64 - offset);
        }
    }

    /// Iterator over all entries.
    pub fn iter(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl sxsi_verify::Verify for IntVector {
    fn verify_into(&self, _depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        ctx.check("intvec-width", (1..=64).contains(&self.width), || {
            format!("width {} not in 1..=64", self.width)
        });
        let total_bits = self.len.saturating_mul(self.width as usize);
        ctx.check("intvec-word-count", self.words.len() == ceil_div(total_bits, 64), || {
            format!(
                "{} x {}-bit entries need {} words, holding {}",
                self.len,
                self.width,
                ceil_div(total_bits, 64),
                self.words.len()
            )
        });
        let trailing_ok = total_bits % 64 == 0
            || self.words.last().map_or(true, |&w| w >> (total_bits % 64) == 0);
        ctx.check("intvec-trailing-bits", trailing_ok, || {
            format!("non-zero bits past the last {}-bit entry", self.width)
        });
    }
}

impl SpaceUsage for IntVector {
    fn size_bytes(&self) -> usize {
        crate::slice_bytes(&self.words)
    }
}

impl WriteInto for IntVector {
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_u32(w, self.width)?;
        write_usize(w, self.len)?;
        write_u64_slice(w, &self.words)
    }
}

impl ReadFrom for IntVector {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let width = read_u32(r)?;
        if !(1..=64).contains(&width) {
            return Err(corrupt(format!("IntVector width {width} not in 1..=64")));
        }
        let len = read_usize(r)?;
        let total_bits = len
            .checked_mul(width as usize)
            .ok_or_else(|| corrupt("IntVector size overflows the address space"))?;
        let words = read_u64_vec(r)?;
        if words.len() != ceil_div(total_bits, 64) {
            return Err(corrupt(format!(
                "IntVector of {len} x {width}-bit entries needs {} words, found {}",
                ceil_div(total_bits, 64),
                words.len()
            )));
        }
        Ok(Self { words, width, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `values` packed at an explicit `width`.
    fn with_width(values: &[u64], width: u32) -> IntVector {
        let mut v = IntVector::new(values.len(), width);
        values.iter().enumerate().for_each(|(i, &x)| v.set(i, x));
        v
    }

    #[test]
    fn roundtrip_various_widths() {
        for width in [1u32, 3, 7, 8, 13, 16, 31, 32, 33, 63, 64] {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let values: Vec<u64> = (0..500u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15)) & mask).collect();
            let v = with_width(&values, width);
            assert_eq!(v.len(), values.len());
            for (i, &x) in values.iter().enumerate() {
                assert_eq!(v.get(i), x, "width {width}, index {i}");
            }
        }
    }

    #[test]
    fn from_values_picks_minimal_width() {
        let v = IntVector::from_values(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(v.width(), 3);
        let v = IntVector::from_values(&[0, 0, 0]);
        assert_eq!(v.width(), 1);
        let v = IntVector::from_values(&[1024]);
        assert_eq!(v.width(), 11);
    }

    #[test]
    fn set_overwrite_does_not_leak_into_neighbours() {
        let mut v = IntVector::new(10, 5);
        for i in 0..10 {
            v.set(i, 31);
        }
        v.set(5, 0);
        for i in 0..10 {
            assert_eq!(v.get(i), if i == 5 { 0 } else { 31 });
        }
    }

    #[test]
    fn iter_matches_get() {
        let values = vec![5u64, 9, 0, 12, 7];
        let v = IntVector::from_values(&values);
        assert_eq!(v.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    fn serialization_roundtrip() {
        for width in [1u32, 13, 64] {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let values: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) & mask).collect();
            let v = with_width(&values, width);
            let back = IntVector::from_bytes(&v.to_bytes()).unwrap();
            assert_eq!(back.width(), width);
            assert_eq!(back.iter().collect::<Vec<_>>(), values);
        }
        // Invalid width and truncation are rejected.
        let v = IntVector::from_values(&[1, 2, 3]);
        let mut bytes = v.to_bytes();
        assert!(IntVector::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] = 65;
        assert!(IntVector::from_bytes(&bytes).is_err());
    }

    #[test]
    fn space_usage_is_packed() {
        let v = IntVector::new(1000, 10);
        // 10000 bits = 1250 bytes, rounded up to u64 words.
        assert!(v.size_bytes() <= 1260);
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use sxsi_verify::{Verify, VerifyDepth};

    #[test]
    fn clean_vector_verifies_and_trailing_junk_is_caught() {
        let mut v = IntVector::from_values(&[5, 9, 0, 12, 7]);
        assert!(v.verify(VerifyDepth::Quick).is_ok());
        // 20 used bits; junk above them survives no construction path.
        v.words[0] |= 1u64 << 40;
        assert!(v.verify(VerifyDepth::Quick).has_code("intvec-trailing-bits"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_roundtrip(values in proptest::collection::vec(0u64..u32::MAX as u64, 0..500)) {
            let v = IntVector::from_values(&values);
            for (i, &x) in values.iter().enumerate() {
                prop_assert_eq!(v.get(i), x);
            }
        }
    }
}
