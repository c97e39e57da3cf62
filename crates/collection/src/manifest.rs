//! The `.sxsic` collection manifest format.
//!
//! A collection is a directory holding one manifest plus one `.sxsi`
//! segment file per document.  The manifest is the unit of identity: it
//! names every segment, pins each segment's byte checksum, and records
//! enough per-document metadata (node/element/text counts) that structural
//! drift between the manifest and a segment is detectable without trusting
//! either side.
//!
//! # Layout
//!
//! ```text
//! magic      8 bytes   "SXSICOL\0"
//! version    u32 LE    COLLECTION_FORMAT_VERSION
//! section    docs      tag 1: doc count + one entry per document
//! section    totals    tag 2: collection-wide element/text totals
//! end        u8        0
//! ```
//!
//! Sections use the same tagged, length-prefixed, FNV-1a-64 checksummed
//! framing as the `.sxsi` container.  A truncated manifest fails with an
//! I/O error, a bit flip with a checksum mismatch, a manifest from a
//! different format version with a version error — always a structured
//! [`IoError`], never a panic.  Every structural invariant (dense DocIds,
//! unique names, sane segment file names, totals matching the per-document
//! sums) is re-validated while decoding.

use std::io::{Read, Write};

use sxsi_io::{
    corrupt, read_section, read_string, read_u32, read_u64, read_usize, write_end, write_section,
    write_str, write_u32, write_u64, write_usize, IoError, ReadFrom, WriteInto,
};
use sxsi_verify::{Verify, VerifyContext, VerifyDepth};

/// Magic bytes opening every `.sxsic` manifest.
pub const COLLECTION_MAGIC: [u8; 8] = *b"SXSICOL\0";

/// Current manifest format version.  Bumped on any incompatible layout
/// change; readers reject manifests from other versions with
/// [`IoError::UnsupportedVersion`] (`docs/format.md` lists the versions).
pub const COLLECTION_FORMAT_VERSION: u32 = 2;

const SECTION_DOCS: u8 = 1;
const SECTION_TOTALS: u8 = 2;

/// One document of a collection, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocEntry {
    /// The document's DocId.  Entries are stored in DocId order and ids
    /// are dense (`0..num_docs`); the explicit field makes density a
    /// checkable invariant instead of an implicit convention.
    pub id: u64,
    /// Human-readable document name (shown in DocId-qualified results).
    pub name: String,
    /// File name of the `.sxsi` segment, relative to the manifest's
    /// directory.  Never a path: separators and `..` are rejected.
    pub segment: String,
    /// FNV-1a-64 checksum of the segment file's bytes.
    pub checksum: u64,
    /// Tree node count the segment must report after loading.
    pub num_nodes: u64,
    /// Element count the segment must report after loading.
    pub num_elements: u64,
    /// Text count the segment must report after loading.
    pub num_texts: u64,
}

/// A decoded `.sxsic` manifest: the document table plus collection-wide
/// totals.  [`Manifest::from_bytes`] re-validates every structural
/// invariant, so a value of this type is always internally consistent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Per-document entries, in DocId order.
    pub docs: Vec<DocEntry>,
    /// Sum of the per-document element counts.
    pub total_elements: u64,
    /// Sum of the per-document text counts.
    pub total_texts: u64,
}

impl Manifest {
    /// Number of documents in the collection.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// The manifest's identity fingerprint: the FNV-1a-64 hash of its
    /// serialized bytes.  Two manifests fingerprint equal iff they are
    /// byte-identical, so the daemon can key its result cache on it.
    pub fn fingerprint(&self) -> u64 {
        sxsi_io::fnv1a64(&self.to_bytes())
    }
}

/// Whether a segment file name is safe to join onto the manifest's
/// directory: non-empty, no path separators, no `..` traversal.
fn segment_name_is_sane(name: &str) -> bool {
    !name.is_empty() && !name.contains('/') && !name.contains('\\') && name != ".." && name != "."
}

fn write_doc_entry<W: Write + ?Sized>(w: &mut W, entry: &DocEntry) -> std::io::Result<()> {
    write_u64(w, entry.id)?;
    write_str(w, &entry.name)?;
    write_str(w, &entry.segment)?;
    write_u64(w, entry.checksum)?;
    write_u64(w, entry.num_nodes)?;
    write_u64(w, entry.num_elements)?;
    write_u64(w, entry.num_texts)
}

fn read_doc_entry<R: Read + ?Sized>(r: &mut R) -> Result<DocEntry, IoError> {
    Ok(DocEntry {
        id: read_u64(r)?,
        name: read_string(r)?,
        segment: read_string(r)?,
        checksum: read_u64(r)?,
        num_nodes: read_u64(r)?,
        num_elements: read_u64(r)?,
        num_texts: read_u64(r)?,
    })
}

/// Reads the next section and checks its tag (mirrors the `.sxsi`
/// container's in-order section discipline).
fn expect_section<R: Read + ?Sized>(r: &mut R, tag: u8) -> Result<Vec<u8>, IoError> {
    match read_section(r)? {
        Some((found, payload)) if found == tag => Ok(payload),
        Some((found, _)) if (SECTION_DOCS..=SECTION_TOTALS).contains(&found) => {
            Err(corrupt(format!("manifest section {found} out of order, expected {tag}")))
        }
        Some((found, _)) => Err(IoError::UnknownSection { tag: found }),
        None => Err(corrupt(format!("manifest ended before section {tag}"))),
    }
}

impl WriteInto for Manifest {
    fn write_into<W: Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&COLLECTION_MAGIC)?;
        write_u32(w, COLLECTION_FORMAT_VERSION)?;
        write_section(w, SECTION_DOCS, |p| {
            write_usize(p, self.docs.len())?;
            for entry in &self.docs {
                write_doc_entry(p, entry)?;
            }
            Ok(())
        })?;
        write_section(w, SECTION_TOTALS, |p| {
            write_u64(p, self.total_elements)?;
            write_u64(p, self.total_texts)
        })?;
        write_end(w)
    }
}

impl ReadFrom for Manifest {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != COLLECTION_MAGIC {
            return Err(IoError::BadMagic { found: magic });
        }
        let version = read_u32(r)?;
        if version != COLLECTION_FORMAT_VERSION {
            return Err(IoError::UnsupportedVersion {
                found: version,
                supported: COLLECTION_FORMAT_VERSION,
            });
        }
        let docs_payload = expect_section(r, SECTION_DOCS)?;
        let p = &mut &docs_payload[..];
        let count = read_usize(p)?;
        // No pre-allocation from the declared count: a hostile length must
        // run out of payload, not out of memory.
        let mut docs = Vec::new();
        for _ in 0..count {
            docs.push(read_doc_entry(p)?);
        }
        if !p.is_empty() {
            return Err(corrupt("trailing bytes after the docs table"));
        }
        let totals = expect_section(r, SECTION_TOTALS)?;
        let t = &mut &totals[..];
        let total_elements = read_u64(t)?;
        let total_texts = read_u64(t)?;
        if !t.is_empty() {
            return Err(corrupt("trailing bytes after the totals section"));
        }
        if read_section(r)?.is_some() {
            return Err(corrupt("unexpected section after the totals section"));
        }
        let manifest = Manifest { docs, total_elements, total_texts };
        // Structural invariants: a decoded manifest is always internally
        // consistent (the standalone `Verify` impl re-checks the same facts,
        // so fuzzing can assert accepted-implies-clean).
        if let Some(issue) = manifest.first_inconsistency() {
            return Err(corrupt(issue));
        }
        Ok(manifest)
    }
}

impl Manifest {
    /// The first internal inconsistency, as a human-readable description,
    /// or `None` when the manifest is self-consistent.  Shared by the
    /// decoder (which turns it into a structured error) and the `Verify`
    /// impl (which turns each class into a stable issue code).
    fn first_inconsistency(&self) -> Option<String> {
        for (i, entry) in self.docs.iter().enumerate() {
            if entry.id != i as u64 {
                return Some(format!("doc {i} declares id {} (DocIds must be dense)", entry.id));
            }
            if entry.name.is_empty() {
                return Some(format!("doc {i} has an empty name"));
            }
            if !segment_name_is_sane(&entry.segment) {
                return Some(format!("doc {i} has unsafe segment name {:?}", entry.segment));
            }
            if entry.num_elements > entry.num_nodes || entry.num_texts > entry.num_nodes {
                return Some(format!(
                    "doc {i} declares {} elements / {} texts in {} nodes",
                    entry.num_elements, entry.num_texts, entry.num_nodes
                ));
            }
            if self.docs[..i].iter().any(|prev| prev.name == entry.name) {
                return Some(format!("duplicate doc name {:?}", entry.name));
            }
            if self.docs[..i].iter().any(|prev| prev.segment == entry.segment) {
                return Some(format!("duplicate segment file {:?}", entry.segment));
            }
        }
        let elements: u64 = self.docs.iter().map(|d| d.num_elements).sum();
        if elements != self.total_elements {
            return Some(format!(
                "totals declare {} elements, docs sum to {elements}",
                self.total_elements
            ));
        }
        let texts: u64 = self.docs.iter().map(|d| d.num_texts).sum();
        if texts != self.total_texts {
            return Some(format!("totals declare {} texts, docs sum to {texts}", self.total_texts));
        }
        None
    }
}

impl Verify for Manifest {
    fn verify_into(&self, _depth: VerifyDepth, ctx: &mut VerifyContext) {
        ctx.check(
            "collection-docid-density",
            self.docs.iter().enumerate().all(|(i, d)| d.id == i as u64),
            || "DocIds are not the dense sequence 0..num_docs".into(),
        );
        ctx.check(
            "collection-doc-name",
            self.docs.iter().enumerate().all(|(i, d)| {
                !d.name.is_empty() && self.docs[..i].iter().all(|p| p.name != d.name)
            }),
            || "doc names must be non-empty and unique".into(),
        );
        ctx.check(
            "collection-segment-name",
            self.docs.iter().enumerate().all(|(i, d)| {
                segment_name_is_sane(&d.segment)
                    && self.docs[..i].iter().all(|p| p.segment != d.segment)
            }),
            || "segment file names must be sane and unique".into(),
        );
        ctx.check(
            "collection-doc-counts",
            self.docs.iter().all(|d| d.num_elements <= d.num_nodes && d.num_texts <= d.num_nodes),
            || "a doc entry declares more elements or texts than nodes".into(),
        );
        let elements: u64 = self.docs.iter().map(|d| d.num_elements).sum();
        ctx.check("collection-total-elements", elements == self.total_elements, || {
            format!("totals declare {} elements, docs sum to {elements}", self.total_elements)
        });
        let texts: u64 = self.docs.iter().map(|d| d.num_texts).sum();
        ctx.check("collection-total-texts", texts == self.total_texts, || {
            format!("totals declare {} texts, docs sum to {texts}", self.total_texts)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, name: &str) -> DocEntry {
        DocEntry {
            id,
            name: name.to_string(),
            segment: format!("{name}.sxsi"),
            checksum: 0x1234_5678_9abc_def0 ^ id,
            num_nodes: 10 + id,
            num_elements: 4 + id,
            num_texts: 3,
        }
    }

    fn manifest() -> Manifest {
        let docs = vec![entry(0, "alpha"), entry(1, "beta"), entry(2, "gamma")];
        let total_elements = docs.iter().map(|d| d.num_elements).sum();
        let total_texts = docs.iter().map(|d| d.num_texts).sum();
        Manifest { docs, total_elements, total_texts }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let m = manifest();
        let loaded = Manifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(loaded, m);
        assert_eq!(loaded.fingerprint(), m.fingerprint());
        assert!(m.verify(VerifyDepth::Quick).is_ok());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let m = manifest();
        let mut other = m.clone();
        other.docs[1].checksum ^= 1;
        assert_ne!(m.fingerprint(), other.fingerprint());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = manifest().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(Manifest::from_bytes(&bytes), Err(IoError::BadMagic { .. })));
    }

    #[test]
    fn wrong_version_is_rejected() {
        // Version 1 is the superseded layout with per-doc backend tags.
        for version in [1u32, 99] {
            let mut bytes = manifest().to_bytes();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    Manifest::from_bytes(&bytes),
                    Err(IoError::UnsupportedVersion { found, supported: COLLECTION_FORMAT_VERSION })
                        if found == version
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn every_truncation_point_errors() {
        let bytes = manifest().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Manifest::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected_or_harmless() {
        // Flipping any single byte must yield an error, never a panic and
        // never a silently different manifest.
        let bytes = manifest().to_bytes();
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x01;
            assert!(Manifest::from_bytes(&corrupted).is_err(), "flip at byte {pos} was accepted");
        }
    }

    #[test]
    fn structural_inconsistencies_are_rejected_with_stable_codes() {
        // Each seeded inconsistency must (a) fail to decode after a
        // re-encode and (b) map to its dedicated issue code in verify.
        type Case = (&'static str, fn(&mut Manifest));
        let cases: Vec<Case> = vec![
            ("collection-docid-density", |m| m.docs[2].id = 7),
            ("collection-doc-name", |m| m.docs[1].name = "alpha".into()),
            ("collection-segment-name", |m| m.docs[0].segment = "../escape.sxsi".into()),
            ("collection-doc-counts", |m| m.docs[0].num_elements = m.docs[0].num_nodes + 1),
            ("collection-total-elements", |m| m.total_elements += 1),
            ("collection-total-texts", |m| m.total_texts += 1),
        ];
        for (code, mutate) in cases {
            let mut m = manifest();
            mutate(&mut m);
            assert!(Manifest::from_bytes(&m.to_bytes()).is_err(), "{code} decoded");
            let report = m.verify(VerifyDepth::Quick);
            assert!(report.has_code(code), "{code} not reported: {report}");
        }
    }

    #[test]
    fn empty_collection_roundtrips() {
        let empty = Manifest::default();
        assert_eq!(Manifest::from_bytes(&empty.to_bytes()).unwrap(), empty);
        assert!(empty.verify(VerifyDepth::Deep).is_ok());
    }
}
