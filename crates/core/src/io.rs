//! The `.sxsi` on-disk index container.
//!
//! An index is built once (XML parse, suffix array, BWT, wavelet tree,
//! balanced parentheses — the expensive part) and then persisted so any
//! number of worker processes can load it and answer queries immediately.
//! This module defines the container layout and implements the
//! [`WriteInto`]/[`ReadFrom`] pair for [`SxsiIndex`]; the per-structure
//! encodings live next to each structure in its own crate.
//!
//! # Layout
//!
//! ```text
//! magic      8 bytes   "SXSIIDX\0"
//! version    u32 LE    FORMAT_VERSION
//! section*               tagged, length-prefixed, FNV-1a-64 checksummed
//!   tag      u8        2 = tree, 3 = texts
//!   length   u64 LE    payload bytes
//!   payload  ...
//!   checksum u64 LE    FNV-1a of the payload
//! end        u8        0
//! ```
//!
//! Sections appear in tag order.  Each fact is stored once, in the
//! structure that uses it: the sample rate lives in the FM-index, the
//! texts section ends with the collection text `T` (always kept), and the
//! element count is read off the tag sequence.  What can be derived
//! cheaply is not stored: the closing tag codes, the text-leaf map, the
//! text start offsets, the `C` array and the text length are rebuilt on
//! load by the same functions that build them from XML.
//!
//! A truncated file fails with an I/O error, a bit flip with a checksum
//! mismatch, a file from a different format version with a version error
//! — always a structured [`IoError`], never a panic and never a silently
//! wrong index (every structural invariant is re-validated while
//! decoding).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use sxsi_io::{
    corrupt, read_section, read_u32, read_u8, read_usize, write_section, write_u32, write_end,
    END_SECTION,
};
use sxsi_verify::VerifyDepth;
use sxsi_text::TextCollection;
use sxsi_tree::XmlTree;

use crate::SxsiIndex;

pub use sxsi_io::{fnv1a64, IoError, ReadFrom, WriteInto};

/// Magic bytes opening every `.sxsi` file.
pub const MAGIC: [u8; 8] = *b"SXSIIDX\0";

/// Current on-disk format version.  Bumped on any incompatible layout
/// change; readers reject files from other versions with
/// [`IoError::UnsupportedVersion`].
///
/// History: version 1 was the original layout; version 2 added the succinct
/// backend tags (interleaved rank bitmaps, wavelet-matrix sequences) to the
/// options section and to every backend-dispatched structure; version 3
/// dropped the tag sequence's backend byte (its occurrence index is always
/// one sarray per tag, rebuilt on load); version 4 dropped every backend
/// tag again — two in the options section, one on each of the three rank
/// bitmaps and one on the BWT — because each role has one structure;
/// version 5 stores the BWT as a Huffman-shaped wavelet tree (a shape byte,
/// 256 code lengths, one bitmap per code level) instead of an eight-level
/// wavelet matrix; version 6 drops the options section (tag 1), the meta
/// section (tag 4) and the options, text count and length that opened the
/// texts body, which now begins with the FM-index; version 7 ends the texts
/// body with the collection text `T` itself (every text followed by its
/// terminator), always present, instead of a plain-copy flag byte and an
/// optional copy with per-text offsets; version 8 stores one opening tag
/// code per node instead of a code per parenthesis and drops the text-leaf
/// bitmap, the text start offsets, the `C` array, the FM-index length and
/// the tag count's five copies outside the registry, all rebuilt on load.
pub const FORMAT_VERSION: u32 = 8;

const SECTION_TREE: u8 = 2;
const SECTION_TEXTS: u8 = 3;

/// Reads the next section and checks its tag.
fn expect_section<R: Read + ?Sized>(r: &mut R, tag: u8) -> Result<Vec<u8>, IoError> {
    match read_section(r)? {
        Some((found, payload)) if found == tag => Ok(payload),
        Some((found, _)) if (SECTION_TREE..=SECTION_TEXTS).contains(&found) => {
            Err(corrupt(format!("section {found} out of order, expected {tag}")))
        }
        Some((found, _)) => Err(IoError::UnknownSection { tag: found }),
        None => Err(corrupt(format!("container ended before section {tag}"))),
    }
}

impl WriteInto for SxsiIndex {
    fn write_into<W: Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&MAGIC)?;
        write_u32(w, FORMAT_VERSION)?;
        write_section(w, SECTION_TREE, |p| self.tree.write_into(p))?;
        write_section(w, SECTION_TEXTS, |p| self.texts.write_into(p))?;
        write_end(w)
    }
}

impl ReadFrom for SxsiIndex {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(IoError::BadMagic { found: magic });
        }
        let version = read_u32(r)?;
        if version != FORMAT_VERSION {
            return Err(IoError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
        }
        let tree = XmlTree::from_bytes(&expect_section(r, SECTION_TREE)?)?;
        let texts = TextCollection::from_bytes(&expect_section(r, SECTION_TEXTS)?)?;
        if read_section(r)?.is_some() {
            return Err(corrupt("unexpected section after the texts section"));
        }
        // Cross-section invariants: the tree's text leaves and the text
        // collection must describe the same document.
        if tree.num_texts() != texts.num_texts() {
            return Err(corrupt(format!(
                "tree references {} texts, collection holds {}",
                tree.num_texts(),
                texts.num_texts()
            )));
        }
        Ok(Self { tree, texts })
    }
}

impl SxsiIndex {
    /// Serializes the whole index into `writer` in the versioned `.sxsi`
    /// container format.
    pub fn save_to(&self, writer: &mut (impl Write + ?Sized)) -> Result<(), IoError> {
        self.write_into(writer)?;
        Ok(())
    }

    /// Writes the index to a `.sxsi` file (buffered).
    ///
    /// Build once (expensive), persist, reload anywhere (cheap — no
    /// re-parsing, no suffix array, no BWT):
    ///
    /// ```
    /// use sxsi::SxsiIndex;
    ///
    /// let path = std::env::temp_dir().join("sxsi-doctest-save.sxsi");
    /// let index = SxsiIndex::build_from_xml(b"<a><b>hi</b><b/></a>").unwrap();
    /// index.save_to_file(&path).unwrap();
    ///
    /// let loaded = SxsiIndex::load_from_file(&path).unwrap();
    /// assert_eq!(loaded.count("//b").unwrap(), 2);
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_into(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Loads an index previously written by [`SxsiIndex::save_to`] /
    /// [`SxsiIndex::save_to_file`], re-validating checksums and every
    /// structural invariant.
    pub fn load_from(reader: &mut (impl Read + ?Sized)) -> Result<Self, IoError> {
        Self::read_from(reader)
    }

    /// Loads an index from a `.sxsi` file (buffered).
    ///
    /// A reloaded index answers queries exactly like the instance that
    /// wrote it — including queries outside the forward fragment:
    ///
    /// ```
    /// use sxsi::SxsiIndex;
    ///
    /// let path = std::env::temp_dir().join("sxsi-doctest-load.sxsi");
    /// SxsiIndex::build_from_xml(b"<a><b>hi</b><c/><b/></a>")
    ///     .unwrap()
    ///     .save_to_file(&path)
    ///     .unwrap();
    ///
    /// let loaded = SxsiIndex::load_from_file(&path).unwrap();
    /// assert_eq!(loaded.count("/a/b[last()]").unwrap(), 1);
    /// assert_eq!(loaded.count("//c/preceding-sibling::b").unwrap(), 1);
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    ///
    /// Truncated, corrupt or version-mismatched files fail with a
    /// structured [`IoError`], never a panic.
    pub fn load_from_file(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let mut r = BufReader::new(File::open(path)?);
        Self::read_from(&mut r)
    }

    /// Paranoid load: [`SxsiIndex::load_from`] followed by a structural
    /// verification pass at `depth`; any finding turns into a structured
    /// corruption error carrying the first issue and the total count.
    ///
    /// This catches *semantically* inconsistent files — mutations that keep
    /// every section checksum valid but break cross-structure invariants —
    /// which the plain load accepts.
    pub fn load_verified(reader: &mut (impl Read + ?Sized), depth: VerifyDepth) -> Result<Self, IoError> {
        let index = Self::load_from(reader)?;
        let report = index.verify(depth);
        match report.issues.first() {
            None => Ok(index),
            Some(first) => Err(corrupt(format!(
                "index fails verification with {} issue(s), first: {first}",
                report.issues.len()
            ))),
        }
    }
}

/// Framing facts of one container section, as reported by [`scan_container`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section tag byte (2 = tree, 3 = texts).
    pub tag: u8,
    /// Display name for the tag (`"unknown"` for tags outside the format).
    pub name: &'static str,
    /// Payload length in bytes.
    pub length: u64,
    /// Whether the stored FNV-1a checksum matches the payload.
    pub checksum_ok: bool,
}

/// Container-level audit of a `.sxsi` file, produced by [`scan_container`]
/// without deserializing any index structure — cheap enough to run against
/// a deployed index from an operations shell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerScan {
    /// Format version declared by the file (not validated, so files from
    /// other versions can still be audited).
    pub version: u32,
    /// Per-section framing facts, in file order.
    pub sections: Vec<SectionInfo>,
    /// Whether the end marker was present with nothing after it.
    pub clean_end: bool,
}

/// Display name for a section tag.
pub fn section_name(tag: u8) -> &'static str {
    match tag {
        SECTION_TREE => "tree",
        SECTION_TEXTS => "texts",
        _ => "unknown",
    }
}

/// Scans the section framing of a `.sxsi` container: magic, version, and
/// for each section its tag, payload length and checksum status.  Unlike
/// [`SxsiIndex::load_from`], a checksum mismatch does not abort the scan —
/// every remaining section is still reported, so an operator sees *which*
/// sections of a damaged file survive.
pub fn scan_container(r: &mut (impl Read + ?Sized)) -> Result<ContainerScan, IoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(IoError::BadMagic { found: magic });
    }
    let version = read_u32(r)?;
    let mut sections = Vec::new();
    let mut clean_end = false;
    while let Ok(tag) = read_u8(r) {
        if tag == END_SECTION {
            let mut probe = [0u8; 1];
            clean_end = r.read_exact(&mut probe).is_err();
            break;
        }
        let length = read_usize(r)?;
        let payload = sxsi_io::read_byte_vec(r, length)?;
        let stored = sxsi_io::read_u64(r)?;
        let checksum_ok = fnv1a64(&payload) == stored;
        sections.push(SectionInfo { tag, name: section_name(tag), length: length as u64, checksum_ok });
    }
    Ok(ContainerScan { version, sections, clean_end })
}

/// [`scan_container`] over a buffered file reader.
pub fn scan_container_file(path: impl AsRef<Path>) -> Result<ContainerScan, IoError> {
    let mut r = BufReader::new(File::open(path)?);
    scan_container(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<parts>
  <part name="pen"><color>blue</color><stock>40</stock>Soon discontinued.</part>
  <part name="rubber"><stock>30</stock></part>
</parts>"#;

    fn index() -> SxsiIndex {
        SxsiIndex::build_from_xml(DOC.as_bytes()).unwrap()
    }

    #[test]
    fn container_roundtrip_preserves_queries_and_stats() {
        let idx = index();
        let loaded = SxsiIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(loaded.stats(), idx.stats());
        for query in [
            "//part",
            "//stock",
            r#"//part[ .//color[ contains(., "blu") ] ]"#,
            "//part/@name",
        ] {
            assert_eq!(loaded.count(query).unwrap(), idx.count(query).unwrap(), "{query}");
            assert_eq!(
                loaded.materialize(query).unwrap(),
                idx.materialize(query).unwrap(),
                "{query}"
            );
        }
        assert_eq!(loaded.serialize("//color").unwrap(), idx.serialize("//color").unwrap());
    }

    /// Index bytes built with `sample_rate`, and the payload range of their
    /// texts section.
    fn bytes_and_texts_payload(sample_rate: usize) -> (Vec<u8>, std::ops::Range<usize>) {
        let options = crate::SxsiOptions { sample_rate, ..Default::default() };
        let bytes = SxsiIndex::build_from_xml_with_options(DOC.as_bytes(), options)
            .unwrap()
            .to_bytes();
        let scan = scan_container(&mut &bytes[..]).unwrap();
        let start = 12 + (1 + 8 + scan.sections[0].length as usize + 8) + 1 + 8;
        (bytes, start..start + scan.sections[1].length as usize)
    }

    #[test]
    fn options_roundtrip() {
        // What the builder was told survives in the structures it shaped.
        let options = crate::SxsiOptions { sample_rate: 16, ..Default::default() };
        let idx = SxsiIndex::build_from_xml_with_options(DOC.as_bytes(), options).unwrap();
        let loaded = SxsiIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(loaded.texts().get_text(0), b"pen");
        assert_eq!(loaded.texts().fm_index().sample_rate(), 16);
        assert_eq!(loaded.count("//stock").unwrap(), 2);
        assert_eq!(loaded.stats(), idx.stats());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = index().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(SxsiIndex::from_bytes(&bytes), Err(IoError::BadMagic { .. })));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = index().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            SxsiIndex::from_bytes(&bytes),
            Err(IoError::UnsupportedVersion { found: 99, supported: FORMAT_VERSION })
        ));
    }

    #[test]
    fn every_truncation_point_errors() {
        let bytes = index().to_bytes();
        for cut in 0..bytes.len() {
            assert!(SxsiIndex::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn scan_reports_sections() {
        let bytes = index().to_bytes();
        let scan = scan_container(&mut &bytes[..]).unwrap();
        assert_eq!(scan.version, FORMAT_VERSION);
        assert_eq!(scan.sections.iter().map(|s| s.name).collect::<Vec<_>>(), vec!["tree", "texts"]);
        assert!(scan.sections.iter().all(|s| s.checksum_ok));
        assert!(scan.clean_end);
    }

    #[test]
    fn scan_survives_a_damaged_section() {
        let mut bytes = index().to_bytes();
        // Flip one byte inside the tree payload: the scan must report that
        // section as damaged and still audit the ones after it.
        let scan = scan_container(&mut &bytes[..]).unwrap();
        let tree_len = scan.sections[0].length as usize;
        let tree_payload_start = 12 + 1 + 8;
        bytes[tree_payload_start + tree_len / 2] ^= 0x01;
        let damaged = scan_container(&mut &bytes[..]).unwrap();
        assert!(!damaged.sections[0].checksum_ok);
        assert!(damaged.sections[1].checksum_ok);
        assert!(damaged.clean_end);
    }

    #[test]
    fn paranoid_load_rejects_semantic_corruption() {
        // Double the FM-index sample rate (the texts body's first word) and
        // re-checksum the section, as `xtask corrupt` does.
        let (mut bytes, texts) = bytes_and_texts_payload(4);
        let rate = texts.start..texts.start + 8;
        bytes[rate.clone()].copy_from_slice(&8u64.to_le_bytes());
        let checksum = fnv1a64(&bytes[texts.clone()]).to_le_bytes();
        bytes[texts.end..texts.end + 8].copy_from_slice(&checksum);
        // The trusting load accepts the drifted rate (any positive rate is
        // well-formed) …
        assert!(SxsiIndex::from_bytes(&bytes).is_ok());
        // … the paranoid load rejects it with a structured error.
        match SxsiIndex::load_verified(&mut &bytes[..], VerifyDepth::Deep) {
            Err(err) => assert!(err.to_string().contains("fm-sample-row"), "{err}"),
            Ok(_) => panic!("paranoid load accepted a drifted sample rate"),
        }
        let (clean, _) = bytes_and_texts_payload(4);
        assert!(SxsiIndex::load_verified(&mut &clean[..], VerifyDepth::Deep).is_ok());
    }

    #[test]
    fn every_bit_flip_is_detected_or_harmless() {
        // Flipping any single byte must yield an error, never a panic.  (A
        // flip inside a checksum value itself also errors, because the
        // payload no longer matches.)
        let bytes = index().to_bytes();
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x01;
            let result = SxsiIndex::from_bytes(&corrupted);
            assert!(result.is_err(), "flip at byte {pos} was accepted");
        }
    }
}
