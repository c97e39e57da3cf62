//! Save → load → query equivalence over the paper's full query sets.
//!
//! The persistence tentpole promises that a loaded index is *the same
//! index*: for every one of the 43 paper queries (XMark X01–X17, Treebank
//! T01–T05, Medline M01–M11, word W01–W10) the counts and the materialized
//! node sets of the loaded index must be identical to the in-memory index it
//! was saved from — both through the sequential [`SxsiIndex`] API and
//! through the parallel [`BatchExecutor`] — and corrupt, truncated or
//! version-mismatched files must fail with structured errors, never panics.

use sxsi::{IoError, ReadFrom, SxsiIndex, WriteInto};
use sxsi_datagen::{medline, treebank, wiki, xmark};
use sxsi_datagen::{MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig};
use sxsi_engine::{BatchExecutor, QueryBatch, QuerySpec};
use sxsi_xpath::NamedQuery;
use sxsi_xpath::{MEDLINE_QUERIES, TREEBANK_QUERIES, WORD_QUERIES, XMARK_QUERIES};

/// Builds, saves to an in-memory buffer, reloads, and checks that every
/// query answers identically on both indexes.
fn assert_roundtrip_equivalence(corpus: &str, xml: &str, queries: &[NamedQuery]) {
    let built = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds");
    let bytes = built.to_bytes();
    let loaded = SxsiIndex::from_bytes(&bytes).expect("index loads");
    assert_eq!(loaded.stats(), built.stats(), "{corpus} stats diverged");

    for q in queries {
        assert_eq!(
            loaded.count(q.xpath).unwrap(),
            built.count(q.xpath).unwrap(),
            "{corpus} {} count diverged after reload",
            q.id
        );
        assert_eq!(
            loaded.materialize(q.xpath).unwrap(),
            built.materialize(q.xpath).unwrap(),
            "{corpus} {} node set diverged after reload",
            q.id
        );
    }

    // The parallel batch executor must work against the loaded index too:
    // compile the batch against it and compare with the built index.
    let specs: Vec<QuerySpec> = queries
        .iter()
        .flat_map(|q| {
            [
                QuerySpec::count(format!("{}/count", q.id), q.xpath),
                QuerySpec::nodes(format!("{}/nodes", q.id), q.xpath),
            ]
        })
        .collect();
    let batch = QueryBatch::compile(&loaded, specs.clone()).expect("batch compiles on loaded index");
    let reference_batch = QueryBatch::compile(&built, specs).expect("batch compiles on built index");
    let results = BatchExecutor::new(2).run(&loaded, &batch);
    let reference = BatchExecutor::new(1).run(&built, &reference_batch);
    for (r, expected) in results.iter().zip(&reference) {
        assert_eq!(r.id, expected.id);
        assert_eq!(r.strategy, expected.strategy, "{corpus} {} strategy diverged", r.id);
        assert_eq!(r.result.count(), expected.result.count(), "{corpus} {} batch count diverged", r.id);
        assert_eq!(r.result.nodes(), expected.result.nodes(), "{corpus} {} batch output diverged", r.id);
    }
}

#[test]
fn xmark_queries_survive_reload() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.08, seed: 11 });
    assert_roundtrip_equivalence("xmark", &xml, XMARK_QUERIES);
}

#[test]
fn treebank_queries_survive_reload() {
    let xml = treebank::generate(&TreebankConfig { num_sentences: 300, seed: 11 });
    assert_roundtrip_equivalence("treebank", &xml, TREEBANK_QUERIES);
}

#[test]
fn medline_queries_survive_reload() {
    let xml = medline::generate(&MedlineConfig { num_citations: 150, seed: 11 });
    assert_roundtrip_equivalence("medline", &xml, MEDLINE_QUERIES);
    assert_roundtrip_equivalence("medline", &xml, &WORD_QUERIES[..5]);
}

#[test]
fn wiki_word_queries_survive_reload() {
    let xml = wiki::generate(&WikiConfig { num_pages: 100, seed: 11 });
    assert_roundtrip_equivalence("wiki", &xml, &WORD_QUERIES[5..]);
}

#[test]
fn file_roundtrip_through_the_filesystem() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.02, seed: 3 });
    let built = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds");
    let path = std::env::temp_dir().join(format!("sxsi-test-{}.sxsi", std::process::id()));
    built.save_to_file(&path).expect("index saves");
    let loaded = SxsiIndex::load_from_file(&path).expect("index loads");
    std::fs::remove_file(&path).ok();
    for q in XMARK_QUERIES {
        assert_eq!(loaded.count(q.xpath).unwrap(), built.count(q.xpath).unwrap(), "{}", q.id);
    }
}

/// The saved bytes of one fixed document, pinned: a change to any on-disk
/// body — a bitmap, a sarray, the BWT, a section frame — fails here unless
/// it comes with a new `FORMAT_VERSION` and new constants.
#[test]
fn saved_bytes_of_a_fixed_document_are_pinned() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.01, seed: 42 });
    let bytes = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds").to_bytes();
    assert_eq!(sxsi::FORMAT_VERSION, 6);
    assert_eq!((bytes.len(), sxsi::fnv1a64(&bytes)), (26_716, 0x338a_3008_5e32_953a));
}

#[test]
fn options_survive_reload() {
    use sxsi::SxsiOptions;
    let xml = xmark::generate(&XMarkConfig { scale: 0.01, seed: 5 });
    let mut options = SxsiOptions::default();
    options.text.keep_plain_text = false;
    options.text.sample_rate = 8;
    let built =
        SxsiIndex::build_from_xml_with_options(xml.as_bytes(), options).expect("index builds");
    let loaded = SxsiIndex::from_bytes(&built.to_bytes()).expect("index loads");
    // The options are not saved on their own; the structures they shaped
    // carry them.
    assert_eq!(loaded.texts().fm_index().sample_rate(), 8);
    assert!(loaded.texts().plain().is_none());
    assert_eq!(loaded.stats(), built.stats());
    for q in &XMARK_QUERIES[..6] {
        assert_eq!(loaded.count(q.xpath).unwrap(), built.count(q.xpath).unwrap(), "{}", q.id);
    }
}

#[test]
fn corrupt_truncated_and_mismatched_files_error_structurally() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.01, seed: 9 });
    let built = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds");
    let bytes = built.to_bytes();

    // Wrong magic.
    let mut bad_magic = bytes.clone();
    bad_magic[3] = b'?';
    assert!(matches!(SxsiIndex::from_bytes(&bad_magic), Err(IoError::BadMagic { .. })));

    // Future format version.
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        SxsiIndex::from_bytes(&future),
        Err(IoError::UnsupportedVersion { found: 99, .. })
    ));

    // The superseded layouts — version 1, version 2 whose tag sequence led
    // with a backend byte, version 3 whose options, rank bitmaps and BWT
    // carried succinct backend tags, version 4 whose BWT was a wavelet
    // matrix, and version 5 with its options and meta sections — are
    // rejected up front the same way.
    for superseded in [1u32, 2, 3, 4, 5] {
        let mut outdated = bytes.clone();
        outdated[8..12].copy_from_slice(&superseded.to_le_bytes());
        assert!(matches!(
            SxsiIndex::from_bytes(&outdated),
            Err(IoError::UnsupportedVersion { found, supported })
                if found == superseded && supported == sxsi::FORMAT_VERSION
        ));
    }

    // Truncation at a spread of byte positions (header, each section, tail).
    for fraction in [0usize, 5, 11, 13, 40, 70, 95, 99] {
        let cut = bytes.len() * fraction / 100;
        assert!(SxsiIndex::from_bytes(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
    }

    // Single-byte corruption at a spread of positions: structured error,
    // never a panic, never a silently-loaded index.
    for fraction in [2usize, 10, 20, 35, 50, 65, 80, 97] {
        let pos = 12 + (bytes.len() - 13) * fraction / 100;
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x10;
        assert!(SxsiIndex::from_bytes(&corrupted).is_err(), "corruption at byte {pos} accepted");
    }

    // An empty and a garbage file.
    assert!(SxsiIndex::from_bytes(&[]).is_err());
    assert!(SxsiIndex::from_bytes(&[0u8; 64]).is_err());
    // The pristine bytes still load (the checks above cloned).
    assert!(SxsiIndex::from_bytes(&bytes).is_ok());
}

// ---------------------------------------------------------------------------
// Semantic corruption: checksum-valid containers whose sections are
// individually well-formed but no longer describe the same document.
// Checksums catch bit rot; these mutations model software bugs (a writer
// that saved mismatched sections), which only `SxsiIndex::verify` can see.
// ---------------------------------------------------------------------------

/// Section tags of the container layout (mirrors the writer in
/// `sxsi::io`; the parser below asserts the names so drift is caught).
const TAG_TREE: u8 = 2;
const TAG_TEXTS: u8 = 3;

/// A `.sxsi` container split into mutable section payloads, re-framed
/// with freshly computed checksums — so every mutation below reaches the
/// semantic verifier instead of being caught by the checksum layer.
struct Container {
    sections: Vec<(u8, Vec<u8>)>,
}

impl Container {
    fn parse(bytes: &[u8]) -> Self {
        assert_eq!(&bytes[..8], &sxsi::MAGIC, "container magic");
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            sxsi::FORMAT_VERSION,
            "container version"
        );
        let mut sections = Vec::new();
        let mut at = 12;
        loop {
            let tag = bytes[at];
            at += 1;
            if tag == 0 {
                break;
            }
            assert_ne!(sxsi::section_name(tag), "unknown", "tag {tag}");
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            at += 8;
            let payload = bytes[at..at + len].to_vec();
            at += len + 8; // payload + stored checksum
            sections.push((tag, payload));
        }
        assert_eq!(at, bytes.len(), "trailing bytes after the end marker");
        Self { sections }
    }

    fn payload_mut(&mut self, tag: u8) -> &mut Vec<u8> {
        &mut self
            .sections
            .iter_mut()
            .find(|(t, _)| *t == tag)
            .unwrap_or_else(|| panic!("section {tag} missing"))
            .1
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&sxsi::MAGIC);
        out.extend_from_slice(&sxsi::FORMAT_VERSION.to_le_bytes());
        for (tag, payload) in &self.sections {
            out.push(*tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&sxsi::fnv1a64(payload).to_le_bytes());
        }
        out.push(0);
        out
    }
}

/// Serialized size of one [`TagTable`] over `num_tags` tags: the count
/// prefix plus, per row, a length prefix and the packed row words.
fn tag_table_size(num_tags: usize) -> usize {
    let words = num_tags.div_ceil(64);
    8 + num_tags * (8 + words * 8)
}

/// Doubles the FM-index sample rate, the second word of the TEXTS payload:
/// any positive rate is well-formed, so only the deep walk can tell.
fn drift_sample_rate(c: &mut Container) {
    let texts = c.payload_mut(TAG_TEXTS);
    let rate = u64::from_le_bytes(texts[8..16].try_into().unwrap());
    texts[8..16].copy_from_slice(&(rate * 2).to_le_bytes());
}

/// Applies `mutate` to the parsed container of `index` and returns the
/// re-framed (checksum-valid) bytes.
fn corrupt_with(index: &sxsi::SxsiIndex, mutate: impl FnOnce(&mut Container)) -> Vec<u8> {
    let mut container = Container::parse(&index.to_bytes());
    mutate(&mut container);
    container.to_bytes()
}

#[test]
fn semantic_corruption_classes_are_each_caught_with_a_distinct_code() {
    use sxsi::VerifyDepth;

    let xml = xmark::generate(&XMarkConfig { scale: 0.01, seed: 9 });
    let built = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds");
    assert!(built.verify(VerifyDepth::Deep).is_ok(), "pristine index must verify clean");

    let num_tags = built.tree().num_tags();
    let num_texts = built.texts().num_texts();
    let table = tag_table_size(num_tags);
    // Plain-store suffix of the TEXTS payload: the offsets slice (count
    // prefix + `num_texts + 1` entries) trails the raw text bytes.
    let plain_suffix = 8 + (num_texts + 1) * 8;
    // The TEXTS payload begins with the FM-index; the Doc array (count
    // prefix + one u32 per text) follows it.
    let doc_start = built.texts().fm_index().to_bytes().len() + 8;

    // Each class: a name (for the failure message), a checksum-valid
    // mutation, and the verifier code that must flag it.
    type Mutation = Box<dyn FnOnce(&mut Container)>;
    let classes: Vec<(&str, Mutation, &str)> = vec![
        (
            "FM-index sample rate drifted",
            Box::new(|c: &mut Container| drift_sample_rate(c)),
            "fm-sample-row",
        ),
        (
            "two Doc entries swapped",
            Box::new(move |c: &mut Container| {
                let texts = c.payload_mut(TAG_TEXTS);
                let (first, second) = texts[doc_start..doc_start + 8].split_at_mut(4);
                first.swap_with_slice(second);
            }),
            "text-doc-mismatch",
        ),
        (
            "plain text store byte no longer matches the BWT",
            Box::new(move |c: &mut Container| {
                let texts = c.payload_mut(TAG_TEXTS);
                let at = texts.len() - plain_suffix - 1;
                texts[at] ^= 0x01;
            }),
            "plain-text-mismatch",
        ),
        (
            "child jump table bit flipped",
            Box::new(move |c: &mut Container| {
                let tree = c.payload_mut(TAG_TREE);
                let at = tree.len() - 3 * table - 8;
                tree[at] ^= 0x01;
            }),
            "tree-child-table",
        ),
        (
            "descendant jump table bit flipped",
            Box::new(move |c: &mut Container| {
                let tree = c.payload_mut(TAG_TREE);
                let at = tree.len() - 2 * table - 8;
                tree[at] ^= 0x01;
            }),
            "tree-desc-table",
        ),
        (
            "following-sibling jump table bit flipped",
            Box::new(move |c: &mut Container| {
                let tree = c.payload_mut(TAG_TREE);
                let at = tree.len() - table - 8;
                tree[at] ^= 0x01;
            }),
            "tree-foll-sibling-table",
        ),
        (
            "following jump table bit flipped",
            Box::new(move |c: &mut Container| {
                let tree = c.payload_mut(TAG_TREE);
                let at = tree.len() - 8;
                tree[at] ^= 0x01;
            }),
            "tree-following-table",
        ),
        (
            "a text leaf moved to the root's opening parenthesis",
            Box::new(move |c: &mut Container| {
                let tree = c.payload_mut(TAG_TREE);
                // The leaf bitmap's words sit right before the four jump
                // tables; its length equals the BP length (the first u64
                // of the tree payload).  The load path checks the leaf
                // *count* against the text collection and that leaves sit
                // on opening parentheses, so the mutation must preserve
                // both: clear one real leaf bit and set position 0 — the
                // root's opening parenthesis, which is never a text leaf.
                let bp_len = u64::from_le_bytes(tree[..8].try_into().unwrap()) as usize;
                let words_end = tree.len() - 4 * table;
                let words_start = words_end - bp_len.div_ceil(64) * 8;
                let at = (words_start..words_end)
                    .find(|&i| tree[i] != 0)
                    .expect("document has at least one text leaf");
                tree[at] &= tree[at] - 1; // position 0 is never set, so this clears a real leaf
                tree[words_start] |= 1;
            }),
            "tree-text-leaf",
        ),
    ];

    let mut seen_codes = Vec::new();
    for (name, mutate, code) in classes {
        let bytes = corrupt_with(&built, mutate);
        // Checksums are valid and every section is individually
        // well-formed, so the load itself must succeed...
        let loaded = SxsiIndex::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{name}: corrupted container failed to load: {e}"));
        // ...and only the semantic verifier can tell something is wrong.
        let report = loaded.verify(VerifyDepth::Deep);
        assert!(!report.is_ok(), "{name}: verifier missed the corruption");
        assert!(
            report.has_code(code),
            "{name}: expected code {code:?}, report was:\n{report}"
        );
        assert!(!seen_codes.contains(&code), "{name}: code {code:?} reused");
        seen_codes.push(code);
    }
    assert!(seen_codes.len() >= 8, "need at least eight distinct corruption classes");
}

#[test]
fn paranoid_load_rejects_semantic_corruption() {
    use sxsi::VerifyDepth;

    let xml = xmark::generate(&XMarkConfig { scale: 0.01, seed: 9 });
    let built = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds");
    let drifted = corrupt_with(&built, drift_sample_rate);
    // The plain load accepts the drifted rate; the paranoid load does not.
    assert!(SxsiIndex::from_bytes(&drifted).is_ok());
    match SxsiIndex::load_verified(&mut &drifted[..], VerifyDepth::Deep) {
        Err(err) => assert!(err.to_string().contains("fm-sample-row"), "{err}"),
        Ok(_) => panic!("paranoid load accepted a drifted sample rate"),
    }
    // The pristine container passes the paranoid load at full depth.
    let pristine = built.to_bytes();
    assert!(SxsiIndex::load_verified(&mut &pristine[..], VerifyDepth::Deep).is_ok());
}
