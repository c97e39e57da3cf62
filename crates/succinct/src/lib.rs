//! Succinct data structures used by the SXSI XML self-index.
//!
//! This crate provides the low-level compressed building blocks the paper's
//! text and tree indexes are made of:
//!
//! * [`BitVec`] — a growable plain bitvector used as a construction buffer.
//! * [`InterleavedRsBitVector`] — a static bitvector with `O(1)` `rank` and
//!   near-constant `select` whose counters sit inline with the bit words
//!   (one 64-byte cache line = counters + 384 payload bits), so `rank` is a
//!   single cache-line fetch.  It backs the balanced parentheses, the
//!   text-leaf map, the FM-index sampling bitmap, the wavelet-tree levels
//!   and the upper bits of every [`EliasFano`]: it is the crate's one
//!   rank/select bitvector.
//! * [`EliasFano`] — a compressed monotone integer sequence with fast
//!   `select`/successor queries; this plays the role of the
//!   Okanohara–Sadakane *sarray* used for the per-tag occurrence rows.
//! * [`IntVector`] — a fixed-width packed integer array (the `Tag` sequence,
//!   sample arrays, …).
//! * [`HuffmanWavelet`] — a Huffman-shaped wavelet tree over bytes, stored
//!   level-wise without pointers (about `n·H₀` bits), the sequence
//!   representation used for the BWT inside the FM-index.
//! * [`oracle`] — the differential-testing harness that pins every
//!   structure against a naive reference.
//!
//! All structures are immutable after construction and are designed for the
//! access patterns of the SXSI query engine: heavy `rank`/`select` traffic
//! with good cache behaviour and no per-query allocation.  Being immutable
//! and free of interior mutability they are also `Send + Sync`
//! (compile-time asserted in `tests/send_sync.rs`), so one built structure
//! can serve any number of query threads.
//!
//! ```
//! use sxsi_succinct::{BitVec, InterleavedRsBitVector};
//!
//! let mut bits = BitVec::new();
//! for i in 0..100 {
//!     bits.push(i % 3 == 0);
//! }
//! let rs = InterleavedRsBitVector::new(&bits);
//! assert_eq!(rs.rank1(10), 4);           // ones in [0, 10)
//! assert_eq!(rs.select1(4), Some(9));    // position of the 4th one (1-based k)
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bits;
pub mod bitvec;
pub mod eliasfano;
pub mod interleaved;
pub mod intvec;
pub mod oracle;
#[cfg(test)]
mod rsbitvec;
pub mod wavelet;

pub use bitvec::BitVec;
pub use eliasfano::{EliasFano, EliasFanoBuilder};
pub use interleaved::InterleavedRsBitVector;
pub use intvec::IntVector;
pub use wavelet::HuffmanWavelet;

/// Number of heap bytes used by a slice of `T`, ignoring allocation slack.
pub(crate) fn slice_bytes<T>(s: &[T]) -> usize {
    std::mem::size_of_val(s)
}

/// Trait implemented by every structure in this crate so callers can report
/// index sizes (the paper's Figure 8 / space accounting).
pub trait SpaceUsage {
    /// Total number of heap bytes retained by the structure.
    fn size_bytes(&self) -> usize;

    /// Bits per element stored, given the logical length `n`.
    fn bits_per_element(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            (self.size_bytes() * 8) as f64 / n as f64
        }
    }
}
