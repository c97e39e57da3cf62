//! Succinct data structures used by the SXSI XML self-index.
//!
//! This crate provides the low-level compressed building blocks the paper's
//! text and tree indexes are made of:
//!
//! * [`BitVec`] — a growable plain bitvector used as a construction buffer.
//! * [`RsBitVector`] — a static bitvector with constant-time `rank` and
//!   near-constant-time `select` (the workhorse behind the balanced
//!   parentheses sequence, wavelet tree nodes, leaf maps and sampling
//!   bitmaps).
//! * [`EliasFano`] — a compressed monotone integer sequence with fast
//!   `select`/successor queries; this plays the role of the
//!   Okanohara–Sadakane *sarray* used for the per-tag occurrence rows.
//! * [`IntVector`] — a fixed-width packed integer array (the `Tag` sequence,
//!   sample arrays, …).
//! * [`wavelet::HuffmanWaveletTree`] — a Huffman-shaped wavelet tree over a
//!   byte alphabet, the sequence representation used for the BWT inside the
//!   FM-index.
//! * [`wavelet::BalancedWaveletTree`] — a balanced wavelet tree over an
//!   arbitrary `u32` alphabet, used for the word-based text index.
//!
//! PR 7 adds a second generation of hot-path primitives, selected per index
//! through [`SuccinctOptions`] (they are the defaults):
//!
//! * [`InterleavedRsBitVector`] — rank counters stored inline with the bit
//!   words (one 64-byte cache line = one counter + 448 payload bits), so
//!   `rank` is a single cache-line fetch.
//! * [`wavelet::WaveletMatrix`] — a pointer-free wavelet matrix with one
//!   flat bitmap per level, replacing per-node boundary chasing with one
//!   interleaved rank per level.
//! * [`RankBitmap`] — the enum the tree/text crates hold so either rank
//!   layout can answer their calls.
//! * [`oracle`] — the differential-testing harness that pins every variant
//!   against a naive reference and against each other.
//!
//! All structures are immutable after construction and are designed for the
//! access patterns of the SXSI query engine: heavy `rank`/`select` traffic
//! with good cache behaviour and no per-query allocation.  Being immutable
//! and free of interior mutability they are also `Send + Sync`
//! (compile-time asserted in `tests/send_sync.rs`), so one built structure
//! can serve any number of query threads.
//!
//! ```
//! use sxsi_succinct::{BitVec, RsBitVector};
//!
//! let mut bits = BitVec::new();
//! for i in 0..100 {
//!     bits.push(i % 3 == 0);
//! }
//! let rs = RsBitVector::new(&bits);
//! assert_eq!(rs.rank1(10), 4);           // ones in [0, 10)
//! assert_eq!(rs.select1(4), Some(9));    // position of the 4th one (1-based k)
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod bits;
pub mod bitvec;
pub mod eliasfano;
pub mod interleaved;
pub mod intvec;
pub mod oracle;
pub mod rsbitvec;
pub mod wavelet;

pub use backend::{RankBackend, RankBitmap, SequenceBackend, SuccinctOptions};
pub use bitvec::BitVec;
pub use eliasfano::{EliasFano, EliasFanoBuilder};
pub use interleaved::InterleavedRsBitVector;
pub use intvec::IntVector;
pub use rsbitvec::RsBitVector;
pub use wavelet::{BalancedWaveletTree, HuffmanWaveletTree, WaveletMatrix};

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
