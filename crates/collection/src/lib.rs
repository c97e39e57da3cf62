//! Multi-document collections of SXSI indexes.
//!
//! The core engine indexes exactly one XML document per `.sxsi` file.
//! This crate makes the *collection* the unit of service: a checksummed,
//! versioned `.sxsic` manifest ([`Manifest`]) names per-document `.sxsi`
//! segments plus per-doc metadata, [`Collection`] opens the manifest and
//! loads segments lazily (checksum-verified, thread-safe, at most once),
//! and results are DocId-qualified ([`DocNode`]) so one logical query
//! surface can span any number of documents.
//!
//! The merge side ([`merge_window`], [`DocNodeCursor`]) turns per-document
//! document-ordered result prefixes into one doc-major stream with exact
//! `limit`/`offset` windowing — the DocId-postings merge idiom from
//! inverted-index engines applied to XPath node results.  The parallel
//! fan-out lives in `sxsi-engine` (`CollectionExecutor`), which depends on
//! this crate.
//!
//! Robustness mirrors the single-index container: truncated, bit-flipped
//! or version-mismatched manifests fail with structured errors, never a
//! panic; [`Collection`] implements [`Verify`] with stable `collection-*`
//! issue codes (segment presence, checksums, DocId density, count
//! cross-checks) surfaced by `sxsi verify`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod manifest;
pub mod merge;

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use sxsi::SxsiIndex;
use sxsi_io::{fnv1a64, IoError, ReadFrom, WriteInto};
use sxsi_verify::{Verify, VerifyContext, VerifyDepth, VerifyReport};

pub use manifest::{DocEntry, Manifest, COLLECTION_FORMAT_VERSION, COLLECTION_MAGIC};
pub use merge::{merge_window, DocNodeCursor, DocNodes};
pub use sxsi::NodeId;

/// Identifies one document within a collection.  DocIds are dense
/// (`0..num_docs`) and assigned in manifest order.
pub type DocId = usize;

/// A node of a specific document — the DocId-qualified result unit of
/// every collection query.  The derived ordering is doc-major, then
/// node-order, which is exactly the merged stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocNode {
    /// The document the node belongs to.
    pub doc: DocId,
    /// The node's id within that document's index.
    pub node: NodeId,
}

impl fmt::Display for DocNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.doc, self.node)
    }
}

/// Errors raised while opening a collection or loading its segments.
/// Always structured, never a panic — corrupt manifests and segments are
/// expected operational inputs.
#[derive(Debug)]
pub enum CollectionError {
    /// The manifest could not be read or decoded.
    Manifest(IoError),
    /// A DocId outside the manifest was referenced.
    UnknownDoc {
        /// The out-of-range DocId.
        doc: DocId,
        /// How many documents the manifest holds.
        docs: usize,
    },
    /// A segment file failed to load or failed validation against its
    /// manifest entry.
    Segment {
        /// The document whose segment failed.
        doc: DocId,
        /// The document's name from the manifest.
        name: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for CollectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectionError::Manifest(e) => write!(f, "collection manifest: {e}"),
            CollectionError::UnknownDoc { doc, docs } => {
                write!(f, "doc {doc} out of range (collection holds {docs} docs)")
            }
            CollectionError::Segment { doc, name, detail } => {
                write!(f, "segment of doc {doc} ({name}): {detail}")
            }
        }
    }
}

impl std::error::Error for CollectionError {}

impl From<IoError> for CollectionError {
    fn from(e: IoError) -> Self {
        CollectionError::Manifest(e)
    }
}

/// A multi-document collection: a decoded manifest plus lazily loaded,
/// checksum-verified segment indexes.
///
/// `open` reads and validates only the manifest; each segment is loaded on
/// first use (thread-safe, at most once) and re-validated against its
/// manifest entry — byte checksum first, then the node/element/text counts
/// after decoding.
pub struct Collection {
    dir: PathBuf,
    manifest: Manifest,
    fingerprint: u64,
    segments: Vec<OnceLock<Arc<SxsiIndex>>>,
}

impl fmt::Debug for Collection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collection")
            .field("dir", &self.dir)
            .field("docs", &self.manifest.num_docs())
            .field("fingerprint", &self.fingerprint)
            .field(
                "loaded",
                &self.segments.iter().filter(|s| s.get().is_some()).count(),
            )
            .finish()
    }
}

impl Collection {
    /// Opens a collection by reading and validating its `.sxsic` manifest.
    /// Segments are not touched — they load lazily on first use.
    pub fn open(path: impl AsRef<Path>) -> Result<Collection, CollectionError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(IoError::from)?;
        let manifest = Manifest::from_bytes(&bytes)?;
        let fingerprint = fnv1a64(&bytes);
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let segments = (0..manifest.num_docs()).map(|_| OnceLock::new()).collect();
        Ok(Collection { dir, manifest, fingerprint, segments })
    }

    /// Builds a collection on disk: writes one `.sxsi` segment per
    /// document next to `manifest_path`, then the manifest itself.  The
    /// returned collection already holds every index in memory.
    ///
    /// Segment files are named `<manifest-stem>.d<id>.sxsi`.
    pub fn build(
        manifest_path: impl AsRef<Path>,
        docs: Vec<(String, SxsiIndex)>,
    ) -> Result<Collection, CollectionError> {
        let manifest_path = manifest_path.as_ref();
        let dir = manifest_path.parent().map(Path::to_path_buf).unwrap_or_default();
        let stem = manifest_path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("collection")
            .to_string();
        let mut entries = Vec::new();
        let mut segments: Vec<OnceLock<Arc<SxsiIndex>>> = Vec::new();
        for (id, (name, index)) in docs.into_iter().enumerate() {
            let segment = format!("{stem}.d{id}.sxsi");
            let bytes = index.to_bytes();
            std::fs::write(dir.join(&segment), &bytes).map_err(IoError::from)?;
            let stats = index.stats();
            entries.push(DocEntry {
                id: id as u64,
                name,
                segment,
                checksum: fnv1a64(&bytes),
                num_nodes: stats.num_nodes as u64,
                num_elements: stats.num_elements as u64,
                num_texts: stats.num_texts as u64,
            });
            let slot = OnceLock::new();
            let _ = slot.set(Arc::new(index));
            segments.push(slot);
        }
        let manifest = Manifest {
            total_elements: entries.iter().map(|d| d.num_elements).sum(),
            total_texts: entries.iter().map(|d| d.num_texts).sum(),
            docs: entries,
        };
        let bytes = manifest.to_bytes();
        std::fs::write(manifest_path, &bytes).map_err(IoError::from)?;
        let fingerprint = fnv1a64(&bytes);
        Ok(Collection { dir, manifest, fingerprint, segments })
    }

    /// The decoded manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Number of documents in the collection.
    pub fn num_docs(&self) -> usize {
        self.manifest.num_docs()
    }

    /// The manifest identity fingerprint (FNV-1a-64 of the manifest bytes
    /// as stored on disk).  The daemon keys its result cache on this, so a
    /// rebuilt collection never serves stale cached results.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The directory segments are resolved against.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest entry of `doc`.
    pub fn entry(&self, doc: DocId) -> Option<&DocEntry> {
        self.manifest.docs.get(doc)
    }

    /// The name of `doc`, or `"?"` for an out-of-range id (display paths
    /// only — queries validate DocIds before getting here).
    pub fn doc_name(&self, doc: DocId) -> &str {
        self.entry(doc).map(|e| e.name.as_str()).unwrap_or("?")
    }

    /// The index of `doc`, loading and validating its segment on first
    /// use.  Concurrent callers race benignly: the first loaded index
    /// wins, later ones are dropped.
    pub fn segment(&self, doc: DocId) -> Result<Arc<SxsiIndex>, CollectionError> {
        self.segment_ref(doc).map(Arc::clone)
    }

    /// [`Collection::segment`], borrowed from the collection instead of
    /// shared: the index lives as long as the collection does.
    pub fn segment_ref(&self, doc: DocId) -> Result<&Arc<SxsiIndex>, CollectionError> {
        let slot = self.segments.get(doc).ok_or(CollectionError::UnknownDoc {
            doc,
            docs: self.manifest.num_docs(),
        })?;
        if let Some(index) = slot.get() {
            return Ok(index);
        }
        let loaded = self.load_segment(doc)?;
        Ok(slot.get_or_init(|| loaded))
    }

    /// The index of `doc` if its segment is already in memory.
    // lint:allow(dead-pub: test probe: observes that open and early termination leave segments unloaded)
    pub fn segment_if_loaded(&self, doc: DocId) -> Option<Arc<SxsiIndex>> {
        self.segments.get(doc).and_then(|s| s.get()).cloned()
    }

    fn segment_error(&self, doc: DocId, detail: impl Into<String>) -> CollectionError {
        CollectionError::Segment { doc, name: self.doc_name(doc).to_string(), detail: detail.into() }
    }

    fn load_segment(&self, doc: DocId) -> Result<Arc<SxsiIndex>, CollectionError> {
        let entry = self
            .entry(doc)
            .ok_or(CollectionError::UnknownDoc { doc, docs: self.manifest.num_docs() })?;
        let path = self.dir.join(&entry.segment);
        let bytes = std::fs::read(&path)
            .map_err(|e| self.segment_error(doc, format!("cannot read {}: {e}", path.display())))?;
        if fnv1a64(&bytes) != entry.checksum {
            return Err(self.segment_error(
                doc,
                format!("checksum mismatch against the manifest for {}", entry.segment),
            ));
        }
        let index = SxsiIndex::from_bytes(&bytes)
            .map_err(|e| self.segment_error(doc, format!("cannot decode {}: {e}", entry.segment)))?;
        let stats = index.stats();
        if (stats.num_nodes as u64, stats.num_elements as u64, stats.num_texts as u64)
            != (entry.num_nodes, entry.num_elements, entry.num_texts)
        {
            return Err(self.segment_error(
                doc,
                format!(
                    "segment reports {}/{}/{} nodes/elements/texts, manifest records {}/{}/{}",
                    stats.num_nodes,
                    stats.num_elements,
                    stats.num_texts,
                    entry.num_nodes,
                    entry.num_elements,
                    entry.num_texts
                ),
            ));
        }
        Ok(Arc::new(index))
    }
}

impl Verify for Collection {
    fn verify_into(&self, depth: VerifyDepth, ctx: &mut VerifyContext) {
        ctx.enter("manifest", |ctx| self.manifest.verify_into(depth, ctx));
        ctx.enter("segments", |ctx| {
            for (doc, entry) in self.manifest.docs.iter().enumerate() {
                let path = self.dir.join(&entry.segment);
                let bytes = match std::fs::read(&path) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        ctx.check("collection-segment-missing", false, || {
                            format!("doc {doc} ({}): cannot read {}: {e}", entry.name, path.display())
                        });
                        continue;
                    }
                };
                ctx.check("collection-segment-checksum", fnv1a64(&bytes) == entry.checksum, || {
                    format!(
                        "doc {doc} ({}): segment bytes do not match the manifest checksum",
                        entry.name
                    )
                });
                if !depth.is_deep() {
                    continue;
                }
                let index = match SxsiIndex::from_bytes(&bytes) {
                    Ok(index) => index,
                    Err(e) => {
                        ctx.check("collection-segment-load", false, || {
                            format!("doc {doc} ({}): {e}", entry.name)
                        });
                        continue;
                    }
                };
                let stats = index.stats();
                ctx.check(
                    "collection-count-mismatch",
                    (stats.num_nodes as u64, stats.num_elements as u64, stats.num_texts as u64)
                        == (entry.num_nodes, entry.num_elements, entry.num_texts),
                    || {
                        format!(
                            "doc {doc} ({}): segment reports {}/{}/{} nodes/elements/texts, \
                             manifest records {}/{}/{}",
                            entry.name,
                            stats.num_nodes,
                            stats.num_elements,
                            stats.num_texts,
                            entry.num_nodes,
                            entry.num_elements,
                            entry.num_texts
                        )
                    },
                );
                let report = index.verify(depth);
                ctx.check("collection-segment-verify", report.is_ok(), || {
                    let first = report
                        .issues
                        .first()
                        .map(|i| i.to_string())
                        .unwrap_or_default();
                    format!(
                        "doc {doc} ({}): index fails verification with {} issue(s), first: {first}",
                        entry.name,
                        report.issues.len()
                    )
                });
            }
        });
    }
}

/// Issue code a failed collection open maps to, by failure class.
fn open_issue_code(e: &IoError) -> &'static str {
    match e {
        IoError::BadMagic { .. } => "collection-manifest-magic",
        IoError::UnsupportedVersion { .. } => "collection-manifest-version",
        IoError::ChecksumMismatch { .. } => "collection-manifest-checksum",
        IoError::Io(_) => "collection-manifest-io",
        _ => "collection-manifest-decode",
    }
}

/// Verifies the collection at `path`, folding open failures into the
/// report instead of erroring out: a manifest that cannot even be decoded
/// is itself a verification finding (`collection-manifest-*`), so the CLI
/// can exit with the invariant-violation status for every corruption
/// class, seeded anywhere.
pub fn verify_collection_file(path: impl AsRef<Path>, depth: VerifyDepth) -> VerifyReport {
    match Collection::open(path) {
        Ok(collection) => collection.verify(depth),
        Err(CollectionError::Manifest(e)) => {
            let mut ctx = VerifyContext::new();
            ctx.enter("manifest", |ctx| {
                ctx.check(open_issue_code(&e), false, || e.to_string());
            });
            ctx.finish()
        }
        Err(e) => {
            let mut ctx = VerifyContext::new();
            ctx.check("collection-open", false, || e.to_string());
            ctx.finish()
        }
    }
}

/// Whether `path` looks like a collection manifest — by `.sxsic` extension
/// or, if readable, by its magic bytes.  The CLI uses this to route
/// `info`/`verify`/`serve`/`query` between the single-index and the
/// collection paths.
pub fn is_collection_path(path: impl AsRef<Path>) -> bool {
    let path = path.as_ref();
    if path.extension().and_then(|e| e.to_str()) == Some("sxsic") {
        return true;
    }
    let mut magic = [0u8; 8];
    match std::fs::File::open(path) {
        Ok(mut f) => {
            use std::io::Read;
            f.read_exact(&mut magic).is_ok() && magic == COLLECTION_MAGIC
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sxsi-collection-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build_three(dir: &Path) -> Collection {
        let docs = vec![
            ("alpha".to_string(), SxsiIndex::build_from_xml(b"<a><b>x</b><b/></a>").unwrap()),
            ("beta".to_string(), SxsiIndex::build_from_xml(b"<a><c>y</c></a>").unwrap()),
            ("gamma".to_string(), SxsiIndex::build_from_xml(b"<a><b/><b/><b/></a>").unwrap()),
        ];
        Collection::build(dir.join("col.sxsic"), docs).unwrap()
    }

    #[test]
    fn build_open_roundtrip_and_lazy_loading() {
        let dir = temp_dir("roundtrip");
        let built = build_three(&dir);
        assert_eq!(built.num_docs(), 3);

        let opened = Collection::open(dir.join("col.sxsic")).unwrap();
        assert_eq!(opened.manifest(), built.manifest());
        assert_eq!(opened.fingerprint(), built.fingerprint());
        assert!(opened.segment_if_loaded(0).is_none(), "open must not load segments");
        let seg = opened.segment(0).unwrap();
        assert_eq!(seg.count("//b").unwrap(), 2);
        assert!(opened.segment_if_loaded(0).is_some());
        assert_eq!(opened.doc_name(2), "gamma");
        assert!(matches!(
            opened.segment(9),
            Err(CollectionError::UnknownDoc { doc: 9, docs: 3 })
        ));
        assert!(opened.verify(VerifyDepth::Deep).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_corruption_is_structured_and_verifiable() {
        let dir = temp_dir("corrupt");
        let built = build_three(&dir);
        let segment_path = dir.join(&built.manifest().docs[1].segment);

        // Bit-flip the segment: lazy load errors, verify flags it.
        let mut bytes = std::fs::read(&segment_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&segment_path, &bytes).unwrap();
        let opened = Collection::open(dir.join("col.sxsic")).unwrap();
        assert!(matches!(opened.segment(1), Err(CollectionError::Segment { doc: 1, .. })));
        let report = opened.verify(VerifyDepth::Quick);
        assert!(report.has_code("collection-segment-checksum"), "{report}");

        // Remove it: a different structured class.
        std::fs::remove_file(&segment_path).unwrap();
        assert!(matches!(opened.segment(1), Err(CollectionError::Segment { doc: 1, .. })));
        let report = verify_collection_file(dir.join("col.sxsic"), VerifyDepth::Quick);
        assert!(report.has_code("collection-segment-missing"), "{report}");

        // Unreadable manifest: folded into the report, not a hard error.
        let report = verify_collection_file(dir.join("nope.sxsic"), VerifyDepth::Quick);
        assert!(report.has_code("collection-manifest-io"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn count_drift_is_caught_by_deep_verify() {
        let dir = temp_dir("drift");
        let built = build_three(&dir);
        // Re-encode the manifest with one drifted element count (totals
        // kept in sync so the manifest stays self-consistent): byte-level
        // checks stay green, deep verify cross-checks the segment.
        let mut manifest = built.manifest().clone();
        manifest.docs[0].num_elements += 1;
        manifest.total_elements += 1;
        std::fs::write(dir.join("col.sxsic"), manifest.to_bytes()).unwrap();
        let opened = Collection::open(dir.join("col.sxsic")).unwrap();
        assert!(opened.verify(VerifyDepth::Quick).is_ok(), "quick checks only bytes");
        let report = opened.verify(VerifyDepth::Deep);
        assert!(report.has_code("collection-count-mismatch"), "{report}");
        // The lazy load path rejects the same drift.
        assert!(matches!(opened.segment(0), Err(CollectionError::Segment { doc: 0, .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn collection_path_detection() {
        let dir = temp_dir("detect");
        build_three(&dir);
        assert!(is_collection_path(dir.join("col.sxsic")));
        assert!(is_collection_path("anything.sxsic"));
        assert!(!is_collection_path(dir.join("col.d0.sxsi")));
        assert!(!is_collection_path(dir.join("missing.bin")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
