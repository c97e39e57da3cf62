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
use sxsi_tree::TagRelation;
use sxsi_datagen::{MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig};
use sxsi_engine::{BatchExecutor, QueryBatch, QuerySpec};
use sxsi_xpath::NamedQuery;
use sxsi_xpath::{MEDLINE_QUERIES, TREEBANK_QUERIES, WORD_QUERIES, XMARK_QUERIES};

/// Checks that every structure the loader derives instead of reading
/// equals the one the builder made, and that saving the loaded index
/// writes `bytes` again: the tag of every node, the text-leaf map
/// (`leaf_number` at every position), the text starts (`text(id)` of every
/// text), the relation tables (every tag pair in all four relations) and
/// the `C` array (every symbol count).
fn assert_loaded_equals_built(what: &str, built: &SxsiIndex, loaded: &SxsiIndex, bytes: &[u8]) {
    assert!(loaded.to_bytes() == bytes, "{what}: the loaded index saves other bytes");
    assert_eq!(loaded.stats(), built.stats(), "{what} stats diverged");
    let (bt, lt) = (built.tree(), loaded.tree());
    for x in bt.preorder_nodes() {
        assert_eq!(lt.tag(x), bt.tag(x), "{what}: tag of node {x}");
    }
    for x in 0..2 * bt.num_nodes() {
        assert_eq!(lt.leaf_number(x), bt.leaf_number(x), "{what}: leaf number at {x}");
    }
    let (btexts, ltexts) = (built.texts(), loaded.texts());
    for id in 0..btexts.num_texts() {
        assert_eq!(ltexts.text(id), btexts.text(id), "{what}: text {id}");
    }
    let relations =
        [TagRelation::Child, TagRelation::Descendant, TagRelation::FollowingSibling, TagRelation::Following];
    let num_tags = bt.num_tags() as u32;
    for (base, other, relation) in
        (0..num_tags).flat_map(|b| (0..num_tags).flat_map(move |o| relations.map(|r| (b, o, r))))
    {
        assert_eq!(
            lt.tag_relation_possible(base, other, relation),
            bt.tag_relation_possible(base, other, relation),
            "{what}: {relation:?} of tags {base} and {other}"
        );
    }
    for b in 0..=255u8 {
        assert_eq!(
            ltexts.fm_index().symbol_count(b),
            btexts.fm_index().symbol_count(b),
            "{what}: C entry of byte {b}"
        );
    }
}

/// Builds, saves to an in-memory buffer, reloads, and checks that the
/// loaded index equals the built one and that every query answers
/// identically on both indexes.
fn assert_roundtrip_equivalence(corpus: &str, xml: &str, queries: &[NamedQuery]) {
    let built = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds");
    let bytes = built.to_bytes();
    let loaded = SxsiIndex::from_bytes(&bytes).expect("index loads");
    assert_loaded_equals_built(corpus, &built, &loaded, &bytes);

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
/// body — a bitmap, the tag codes, the BWT, a section frame — fails here unless
/// it comes with a new `FORMAT_VERSION` and new constants.
#[test]
fn saved_bytes_of_a_fixed_document_are_pinned() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.01, seed: 42 });
    let bytes = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds").to_bytes();
    assert_eq!(sxsi::FORMAT_VERSION, 8);
    assert_eq!((bytes.len(), sxsi::fnv1a64(&bytes)), (20_580, 0xa7da_adca_a682_4a60));
}

#[test]
fn options_survive_reload() {
    use sxsi::SxsiOptions;
    let xml = xmark::generate(&XMarkConfig { scale: 0.01, seed: 5 });
    let options = SxsiOptions { sample_rate: 8, ..SxsiOptions::default() };
    let built =
        SxsiIndex::build_from_xml_with_options(xml.as_bytes(), options).expect("index builds");
    let loaded = SxsiIndex::from_bytes(&built.to_bytes()).expect("index loads");
    // The options are not saved on their own; the structures they shaped
    // carry them.
    assert_eq!(loaded.texts().fm_index().sample_rate(), 8);
    let text_bytes = loaded.texts().total_len() - loaded.texts().num_texts();
    assert_eq!(loaded.texts().plain().map(|p| p.total_bytes()), Some(text_bytes));
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
    // matrix, version 5 with its options and meta sections, version 6 with
    // its plain-copy flag and per-text offsets, and version 7 with its
    // closing tag codes, text-leaf bitmap, text starts and `C` array — are
    // rejected up front the same way.
    for superseded in [1u32, 2, 3, 4, 5, 6, 7] {
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

/// Serialized size of one relative tag-position table over `num_tags`
/// tags: per row, a length prefix and the packed row words (the row count
/// is the registry's length).
fn tag_table_size(num_tags: usize) -> usize {
    let words = num_tags.div_ceil(64);
    num_tags * (8 + words * 8)
}

/// Doubles the FM-index sample rate, the first word of the TEXTS payload:
/// any positive rate is well-formed, so only the deep walk can tell.
fn drift_sample_rate(c: &mut Container) {
    let texts = c.payload_mut(TAG_TEXTS);
    let rate = u64::from_le_bytes(texts[..8].try_into().unwrap());
    texts[..8].copy_from_slice(&(rate * 2).to_le_bytes());
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
    let table = tag_table_size(num_tags);
    // The TEXTS payload ends with `T` (`total_len` bytes).
    let t_len = built.texts().total_len();
    // The TEXTS payload begins with the FM-index; the Doc array (count
    // prefix + one u32 per text) follows it.
    let fm_bytes = built.texts().fm_index().to_bytes();
    let doc_start = fm_bytes.len() + 8;
    // The FM-index ends with its locate samples: the sample rate, the BWT
    // and the sampling bitmap come first.
    let mut rest = &fm_bytes[8..];
    sxsi_succinct::HuffmanWavelet::read_from(&mut rest).expect("the BWT reads back");
    sxsi_succinct::InterleavedRsBitVector::read_from(&mut rest).expect("the sampling bitmap reads back");
    let samples_at = fm_bytes.len() - rest.len();
    let mut samples = sxsi_succinct::IntVector::from_bytes(rest).expect("the samples read back");

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
                // The last byte of `T` is a terminator: step back to a text
                // byte that stays non-zero when its low bit flips, so every
                // terminator stays in place.
                let texts = c.payload_mut(TAG_TEXTS);
                let t0 = texts.len() - t_len;
                let at = t0 + texts[t0..].iter().rposition(|&b| b > 1).expect("a text byte");
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
            "two locate samples swapped",
            Box::new(move |c: &mut Container| {
                // Both values stay in range, so the load accepts them.
                let (first, second) = (samples.get(0), samples.get(1));
                samples.set(0, second);
                samples.set(1, first);
                let texts = c.payload_mut(TAG_TEXTS);
                texts[samples_at..fm_bytes.len()].copy_from_slice(&samples.to_bytes());
            }),
            "fm-sample-value",
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

// ---------------------------------------------------------------------------
// Edge shapes: documents at the corners of what the derived structures are
// rebuilt from — no texts, texts only in attributes, empty texts at either
// end and in the middle of the text order, a lone node, deep nesting.
// ---------------------------------------------------------------------------

mod edge_shapes {
    use super::*;
    use proptest::prelude::*;

    /// A document of edge shape `shape` (0–5), sized by `n` and varied by
    /// `seed`.
    fn edge_document(shape: usize, n: usize, seed: u64) -> String {
        let pick = |k: usize| (seed >> (k % 64)) & 1 == 1;
        let mut xml = String::new();
        match shape {
            // No texts: elements only.
            0 => {
                xml.push_str("<r>");
                for k in 0..n {
                    xml.push_str(if pick(k) { "<e><f/></e>" } else { "<g/>" });
                }
                xml.push_str("</r>");
            }
            // Texts only in attributes.
            1 => {
                xml.push_str(r#"<r a="v">"#);
                for k in 0..n {
                    xml.push_str(&format!(r#"<e k="{k}" j="w{}"/>"#, u8::from(pick(k))));
                }
                xml.push_str("</r>");
            }
            // Empty texts first, in the middle and last of the text order.
            2 => {
                xml.push_str(r#"<r a="">"#);
                for k in 0..n {
                    if k == n / 2 {
                        xml.push_str(r#"<m e=""/>"#);
                    }
                    xml.push_str(&format!(r#"<i v="x{k}">t{k}</i>"#));
                }
                xml.push_str(r#"<z e=""/></r>"#);
            }
            // A lone node.
            3 => xml.push_str(if pick(0) { "<a/>" } else { "<a></a>" }),
            // Nesting deeper than 10 000 levels, a text at the bottom.
            4 => {
                let depth = 10_000 + n;
                xml.push_str(&"<d>".repeat(depth));
                xml.push_str("deep");
                xml.push_str(&"</d>".repeat(depth));
            }
            // All of it in one document.
            _ => {
                xml.push_str(r#"<r a="">"#);
                xml.push_str(&"<d>".repeat(100 + n));
                xml.push_str(r#"<e k=""/>t"#);
                xml.push_str(&"</d>".repeat(100 + n));
                for k in 0..n {
                    xml.push_str(if pick(k) { r#"<g a="1"/>"# } else { "<h>x</h>" });
                }
                xml.push_str(r#"<z e=""/></r>"#);
            }
        }
        xml
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn edge_shaped_documents_roundtrip_exactly(shape in 0usize..6, n in 1usize..12, seed in any::<u64>()) {
            let xml = edge_document(shape, n, seed);
            let built = SxsiIndex::build_from_xml(xml.as_bytes()).expect("edge document builds");
            let bytes = built.to_bytes();
            let loaded = SxsiIndex::from_bytes(&bytes).expect("edge document loads");
            assert_loaded_equals_built(&format!("shape {shape}, n {n}"), &built, &loaded, &bytes);
            let report = loaded.verify(sxsi::VerifyDepth::Deep);
            prop_assert!(report.is_ok(), "shape {shape}: {report}");
        }
    }

    #[test]
    fn every_edge_shape_comes_up() {
        // Each shape's text count, so a drifted generator cannot quietly
        // stop covering one.
        let texts = |shape| SxsiIndex::build_from_xml(edge_document(shape, 4, 0).as_bytes()).unwrap().stats().num_texts;
        assert_eq!([0, 1, 2, 3, 4].map(texts), [0, 9, 11, 0, 1]);
    }
}
