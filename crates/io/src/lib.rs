//! Versioned binary persistence for the SXSI index structures.
//!
//! SXSI's value proposition is *build once, query at memory speed*: the
//! compressed index is constructed in one expensive pass (suffix array, BWT,
//! wavelet tree, balanced parentheses) and then serves queries without ever
//! touching the original XML again.  This crate supplies the on-disk half of
//! that story: a small, dependency-free serialization layer every index
//! structure implements, so a built [`SxsiIndex`](../sxsi/struct.SxsiIndex.html)
//! can be written to a `.sxsi` file and re-opened by any number of worker
//! processes without re-parsing or rebuilding anything.
//!
//! # Design
//!
//! * [`WriteInto`] / [`ReadFrom`] — the `Serialize`/`Deserialize`-style trait
//!   pair.  Each index crate implements them for its own types (keeping
//!   private fields private); this crate only defines the traits, the
//!   primitive encodings and the error type.
//! * All integers are little-endian; lengths are `u64`.
//! * Reading is *hostile-input safe*: every length is consumed incrementally
//!   (a corrupt multi-terabyte length prefix cannot trigger a huge upfront
//!   allocation — reading fails with [`IoError::Io`] as soon as the stream
//!   runs dry), and every structural invariant is re-validated so a decoded
//!   structure can never panic later.  Corruption is reported as a structured
//!   [`IoError`], never a panic and never a silently wrong index.
//! * [`write_section`] / [`read_section`] — tagged, length-prefixed,
//!   FNV-1a-checksummed framing used by the top-level index container.
//!
//! The container format itself (magic header, format version, section
//! layout) lives with the top-level `SxsiIndex` implementation in the `sxsi`
//! crate; see `ARCHITECTURE.md` for the full byte-level description.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::io::{self, Read, Write};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Error produced when reading a serialized structure.
///
/// Truncated files surface as [`IoError::Io`] (with
/// [`std::io::ErrorKind::UnexpectedEof`]); corrupt but complete files surface
/// as [`IoError::ChecksumMismatch`] or [`IoError::Corrupt`] depending on
/// whether the damage is caught by the section checksum or by a structural
/// invariant.  None of the readers in the workspace panic on malformed input.
#[derive(Debug)]
pub enum IoError {
    /// The underlying reader failed (including unexpected end of file on a
    /// truncated input).
    Io(io::Error),
    /// The file does not start with the SXSI magic bytes.
    BadMagic {
        /// The eight bytes actually found at the start of the file.
        found: [u8; 8],
    },
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version recorded in the file header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Tag of the offending section.
        section: u8,
    },
    /// A decoded value violates a structural invariant of its type.
    Corrupt {
        /// Human-readable description of the violated invariant.
        what: String,
    },
    /// The container holds a section tag this build does not understand.
    UnknownSection {
        /// The unrecognised tag byte.
        tag: u8,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::BadMagic { found } => {
                write!(f, "not an SXSI index file (bad magic {found:02x?})")
            }
            IoError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (this build reads version {supported})")
            }
            IoError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section} (file is corrupt)")
            }
            IoError::Corrupt { what } => write!(f, "corrupt index data: {what}"),
            IoError::UnknownSection { tag } => write!(f, "unknown section tag {tag}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Builds an [`IoError::Corrupt`] from a format string.
pub fn corrupt(what: impl Into<String>) -> IoError {
    IoError::Corrupt { what: what.into() }
}

// ---------------------------------------------------------------------------
// The trait pair
// ---------------------------------------------------------------------------

/// Serialization half of the persistence trait pair.
pub trait WriteInto {
    /// Writes the structure's binary encoding to `w`.
    fn write_into<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()>;

    /// Convenience: the encoding as an owned byte buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        // lint:allow(panic: Vec<u8> as io::Write is infallible)
        self.write_into(&mut out).expect("writing to a Vec cannot fail");
        out
    }
}

/// Deserialization half of the persistence trait pair.
pub trait ReadFrom: Sized {
    /// Reads a structure previously written by
    /// [`WriteInto::write_into`], re-validating every invariant.
    fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Self, IoError>;

    /// Convenience: decodes from a byte slice, requiring that every byte is
    /// consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, IoError> {
        let mut cursor = bytes;
        let value = Self::read_from(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(corrupt(format!("{} trailing bytes after value", cursor.len())));
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Primitive encodings (little-endian throughout)
// ---------------------------------------------------------------------------

/// Writes one byte.
pub fn write_u8<W: Write + ?Sized>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

/// Reads one byte.
pub fn read_u8<R: Read + ?Sized>(r: &mut R) -> Result<u8, IoError> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0]) // lint:allow(index: buf is a local [u8; 1])
}

/// Writes a `u32`, little-endian.
pub fn write_u32<W: Write + ?Sized>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u32`, little-endian.
pub fn read_u32<R: Read + ?Sized>(r: &mut R) -> Result<u32, IoError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Writes a `u64`, little-endian.
pub fn write_u64<W: Write + ?Sized>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u64`, little-endian.
pub fn read_u64<R: Read + ?Sized>(r: &mut R) -> Result<u64, IoError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a `usize` as a `u64`.
pub fn write_usize<W: Write + ?Sized>(w: &mut W, v: usize) -> io::Result<()> {
    write_u64(w, v as u64)
}

/// Reads a `u64` and converts it to `usize`, erroring if it does not fit.
pub fn read_usize<R: Read + ?Sized>(r: &mut R) -> Result<usize, IoError> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| corrupt(format!("length {v} exceeds the address space")))
}

/// Incremental-read chunk size: a corrupt length prefix can never force an
/// allocation larger than the bytes actually present in the stream plus one
/// chunk.
const READ_CHUNK: usize = 1 << 16;

/// Reads exactly `len` bytes, incrementally (safe against corrupt lengths).
pub fn read_byte_vec<R: Read + ?Sized>(r: &mut R, len: usize) -> Result<Vec<u8>, IoError> {
    let mut out = Vec::with_capacity(len.min(READ_CHUNK));
    let mut buf = [0u8; READ_CHUNK];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        // lint:allow(index: take is clamped to the local buffer length)
        r.read_exact(&mut buf[..take])?;
        out.extend_from_slice(&buf[..take]); // lint:allow(index: take is clamped to the local buffer length)
        remaining -= take;
    }
    Ok(out)
}

/// Writes a length-prefixed byte slice.
pub fn write_bytes<W: Write + ?Sized>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    write_usize(w, bytes.len())?;
    w.write_all(bytes)
}

/// Reads a length-prefixed byte vector.
pub fn read_bytes<R: Read + ?Sized>(r: &mut R) -> Result<Vec<u8>, IoError> {
    let len = read_usize(r)?;
    read_byte_vec(r, len)
}

/// Writes a length-prefixed `u64` slice.
pub fn write_u64_slice<W: Write + ?Sized>(w: &mut W, values: &[u64]) -> io::Result<()> {
    write_usize(w, values.len())?;
    for &v in values {
        write_u64(w, v)?;
    }
    Ok(())
}

/// Reads a length-prefixed `u64` vector.
pub fn read_u64_vec<R: Read + ?Sized>(r: &mut R) -> Result<Vec<u64>, IoError> {
    let len = read_usize(r)?;
    let mut out = Vec::with_capacity(len.min(READ_CHUNK / 8));
    for _ in 0..len {
        out.push(read_u64(r)?);
    }
    Ok(out)
}

/// Writes a length-prefixed `u32` slice.
pub fn write_u32_slice<W: Write + ?Sized>(w: &mut W, values: &[u32]) -> io::Result<()> {
    write_usize(w, values.len())?;
    for &v in values {
        write_u32(w, v)?;
    }
    Ok(())
}

/// Reads a length-prefixed `u32` vector.
pub fn read_u32_vec<R: Read + ?Sized>(r: &mut R) -> Result<Vec<u32>, IoError> {
    let len = read_usize(r)?;
    let mut out = Vec::with_capacity(len.min(READ_CHUNK / 4));
    for _ in 0..len {
        out.push(read_u32(r)?);
    }
    Ok(out)
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_str<W: Write + ?Sized>(w: &mut W, s: &str) -> io::Result<()> {
    write_bytes(w, s.as_bytes())
}

/// Reads a length-prefixed UTF-8 string.
pub fn read_string<R: Read + ?Sized>(r: &mut R) -> Result<String, IoError> {
    let bytes = read_bytes(r)?;
    String::from_utf8(bytes).map_err(|e| corrupt(format!("invalid UTF-8 string: {e}")))
}

// ---------------------------------------------------------------------------
// FNV-1a checksums and section framing
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a hash of `bytes` (the per-section checksum function).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Section tag marking the end of a container (no payload follows).
pub const END_SECTION: u8 = 0;

/// Writes one tagged, length-prefixed, checksummed section.
///
/// The payload is produced by `fill` into an in-memory buffer so the length
/// and checksum can be emitted; sections are expected to be much smaller
/// than the machine's memory (they already live in RAM as index structures).
pub fn write_section<W: Write + ?Sized>(
    w: &mut W,
    tag: u8,
    fill: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    assert_ne!(tag, END_SECTION, "section tag 0 is reserved for the end marker");
    let mut payload = Vec::new();
    fill(&mut payload)?;
    write_u8(w, tag)?;
    write_usize(w, payload.len())?;
    w.write_all(&payload)?;
    write_u64(w, fnv1a64(&payload))
}

/// Writes the end-of-container marker.
pub fn write_end<W: Write + ?Sized>(w: &mut W) -> io::Result<()> {
    write_u8(w, END_SECTION)
}

/// Reads the next section, verifying its checksum.  Returns `None` at the
/// end marker.
pub fn read_section<R: Read + ?Sized>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, IoError> {
    let tag = read_u8(r)?;
    if tag == END_SECTION {
        return Ok(None);
    }
    let len = read_usize(r)?;
    let payload = read_byte_vec(r, len)?;
    let stored = read_u64(r)?;
    if fnv1a64(&payload) != stored {
        return Err(IoError::ChecksumMismatch { section: tag });
    }
    Ok(Some((tag, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut buf = Vec::new();
        write_u8(&mut buf, 7).unwrap();
        write_u32(&mut buf, 0xDEADBEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 3).unwrap();
        write_bytes(&mut buf, b"hello").unwrap();
        write_u64_slice(&mut buf, &[1, 2, 3]).unwrap();
        write_str(&mut buf, "héllo").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_u8(&mut r).unwrap(), 7);
        assert_eq!(read_u32(&mut r).unwrap(), 0xDEADBEEF);
        assert_eq!(read_u64(&mut r).unwrap(), u64::MAX - 3);
        assert_eq!(read_bytes(&mut r).unwrap(), b"hello");
        assert_eq!(read_u64_vec(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(read_string(&mut r).unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[9u8; 100]).unwrap();
        for cut in [0usize, 4, 8, 50] {
            let mut r = &buf[..cut];
            assert!(matches!(read_bytes(&mut r), Err(IoError::Io(_))), "cut at {cut}");
        }
    }

    #[test]
    fn huge_length_prefix_does_not_allocate_everything() {
        // Claim 2^60 bytes follow, provide eight.
        let mut buf = Vec::new();
        write_u64(&mut buf, 1u64 << 60).unwrap();
        buf.extend_from_slice(&[1u8; 8]);
        let mut r = &buf[..];
        assert!(matches!(read_bytes(&mut r), Err(IoError::Io(_))));
    }

    #[test]
    fn sections_roundtrip_and_detect_corruption() {
        let mut buf = Vec::new();
        write_section(&mut buf, 1, |p| write_bytes(p, b"first")).unwrap();
        write_section(&mut buf, 2, |p| write_u64(p, 42)).unwrap();
        write_end(&mut buf).unwrap();

        let mut r = &buf[..];
        let (tag, payload) = read_section(&mut r).unwrap().unwrap();
        assert_eq!(tag, 1);
        assert_eq!(read_bytes(&mut &payload[..]).unwrap(), b"first");
        let (tag, payload) = read_section(&mut r).unwrap().unwrap();
        assert_eq!(tag, 2);
        assert_eq!(read_u64(&mut &payload[..]).unwrap(), 42);
        assert!(read_section(&mut r).unwrap().is_none());

        // Flip a payload byte: the checksum must catch it.
        let mut corrupted = buf.clone();
        corrupted[10] ^= 0x40;
        let mut r = &corrupted[..];
        assert!(matches!(read_section(&mut r), Err(IoError::ChecksumMismatch { section: 1 })));
    }

    #[test]
    fn from_bytes_rejects_trailing_data() {
        struct Single(u64);
        impl WriteInto for Single {
            fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
                write_u64(w, self.0)
            }
        }
        impl ReadFrom for Single {
            fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
                Ok(Single(read_u64(r)?))
            }
        }
        let mut bytes = Single(5).to_bytes();
        assert_eq!(Single::from_bytes(&bytes).unwrap().0, 5);
        bytes.push(0);
        assert!(matches!(Single::from_bytes(&bytes), Err(IoError::Corrupt { .. })));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
