//! Compile-time thread-safety guarantees for the succinct building blocks.
//!
//! Every structure here is immutable after construction and holds no
//! interior mutability, so it must be freely shareable across threads —
//! the whole SXSI concurrency story (`sxsi-engine`) rests on this.  The
//! assertions are checked by the compiler; the test body is empty at
//! runtime.

use sxsi_succinct::{BitVec, EliasFano, HuffmanWavelet, InterleavedRsBitVector, IntVector};

fn require_send_sync<T: Send + Sync>() {}

#[test]
fn succinct_structures_are_send_and_sync() {
    require_send_sync::<BitVec>();
    require_send_sync::<InterleavedRsBitVector>();
    require_send_sync::<EliasFano>();
    require_send_sync::<IntVector>();
    require_send_sync::<HuffmanWavelet>();
}
